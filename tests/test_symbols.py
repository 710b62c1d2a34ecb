import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landauspec import quadrature as qd
from landauspec import symbols as sy


# ---------------------------------------------------------------------------
# the symplectic frame map


def test_frame_map_values():
    assert sy.oscillator_frame_map(1.0, (0, 0, 0, 0)) == (0, 0, 0, 0)
    assert sy.oscillator_frame_map(1.0, (1, 0, 0, 0)) == (1.0, 0.0, 0.0, -0.5)


@given(st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_frame_map_symplectic(b):
    M = sy.oscillator_frame_matrix(b)
    J = sy.symplectic_form()
    assert np.abs(M.T @ J @ M - J).max() < 1e-14


def test_frame_map_inverse_roundtrip():
    rng = np.random.default_rng(3)
    for b in (0.25, 1.0, 4.0):
        for _ in range(20):
            p = tuple(rng.normal(size=4))
            q = sy.oscillator_frame_inverse(b, sy.oscillator_frame_map(b, p))
            assert np.abs(np.asarray(q) - np.asarray(p)).max() < 1e-13


def test_landau_symbol_identity():
    lhs, rhs = sy.landau_symbol_check(1.0, (1, 0, 0, 0))
    assert (lhs, rhs) == (1.0, 1.0)
    lhs, rhs = sy.landau_symbol_check(2.0, (0, 0, 1, 0))
    assert lhs == pytest.approx(2.0, rel=1e-14) and rhs == 2.0
    rng = np.random.default_rng(11)
    for b in (0.5, 1.0, 2.0):
        for _ in range(100):
            p = tuple(rng.normal(scale=2.0, size=4))
            lhs, rhs = sy.landau_symbol_check(b, p)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    with pytest.raises(ValueError):
        sy.oscillator_frame_map(-1.0, (0, 0, 0, 0))


# ---------------------------------------------------------------------------
# profiles


def test_profile_evaluators():
    s = np.array([0.0, 0.5, 2.0])
    assert np.allclose(sy.gaussian(0.7)(s), np.exp(-0.7 * s))
    assert np.allclose(sy.power(2.0)(s), 1 / (1 + s))
    assert np.allclose(sy.disk_indicator(1.0)(s), [1.0, 1.0, 0.0])
    assert np.allclose(sy.exp_beta(0.5, 2.0)(s), np.exp(-0.5 * s**2))
    assert sy.constant(3.0)(s).tolist() == [3.0, 3.0, 3.0]
    # laguerre_mix single mode equals the diagonal kernel times pi
    from landauspec.wigner import wigner_diag
    prof = sy.diag_kernel_profile(3)
    r = np.sqrt(s)
    assert np.allclose(prof(s), wigner_diag(3, r, 0.0), atol=1e-14)


def test_profile_arg_scale_folds_into_parameters():
    g = sy.gaussian(0.7).with_arg_scale(2.0)
    assert g.kind == "gaussian" and g.rate == pytest.approx(1.4)
    e = sy.exp_beta(1.0, 2.0).with_arg_scale(3.0)
    assert e.gamma == pytest.approx(9.0)
    d = sy.disk_indicator(6.0).with_arg_scale(2.0)
    assert d.support_bound == pytest.approx(3.0)
    p = sy.power(2.0).with_arg_scale(2.0)
    assert p(np.array([1.0]))[0] == pytest.approx(1.0 / 3.0)


def test_profile_log_value():
    s = np.array([0.1, 1.0, 9.0])
    for prof in (sy.gaussian(0.4), sy.power(3.0), sy.exp_beta(0.2, 0.7)):
        assert np.allclose(np.exp(prof.log_value(s)), prof(s), rtol=1e-13)
    d = sy.disk_indicator(2.0)
    lv = d.log_value(s)
    assert lv[0] == 0.0 and lv[2] == -np.inf


# ---------------------------------------------------------------------------
# reduction


def test_separable_pullback_is_exact():
    # lab-frame separable symbols store the pulled factors; composing the
    # lab evaluator with the frame map reproduces A (x) B to machine precision
    A = sy.radial_symbol(sy.gaussian(0.6, amplitude=1.3))
    B = sy.radial_symbol(sy.laguerre_mix([0.2, -0.4, 0.3]))
    V = sy.separable_symbol(2.0, [(0.9, A, B)], frame="lab")
    rng = np.random.default_rng(5)
    for _ in range(25):
        x, y, xi, eta = rng.normal(size=4)
        stored = 0.9 * float(A.profile(x * x + xi * xi)) * float(B.profile(y * y + eta * eta))
        lab_pt = sy.oscillator_frame_inverse(2.0, (x, y, xi, eta))
        via_lab = V.evaluate_lab(*lab_pt)
        assert via_lab == pytest.approx(stored, rel=1e-13, abs=1e-15)
        assert V.evaluate_pulled(x, y, xi, eta) == pytest.approx(stored, rel=1e-15)


def test_reduce_picks_out_the_matching_level():
    # pulled symbol 2 pi Psi_{q0} (x) v reduces to v at q0 and to 0 elsewhere
    vprof = sy.gaussian(0.5, amplitude=0.7)
    V = sy.separable_symbol(1.0, [(2 * np.pi,
                                   sy.radial_symbol(sy.diag_kernel_profile(2)),
                                   sy.radial_symbol(vprof))])
    s = np.array([0.0, 1.0, 2.5])
    red = sy.reduce_symbol(V, 2)
    assert np.abs(red.profile(s) / vprof(s) - 1).max() < 1e-8
    null = sy.reduce_symbol(V, 1)
    assert np.abs(null.profile(s)).max() < 1e-9


def test_reduce_linearity():
    A0 = sy.radial_symbol(sy.diag_kernel_profile(0))
    A1 = sy.radial_symbol(sy.diag_kernel_profile(1))
    B0 = sy.radial_symbol(sy.gaussian(0.5))
    B1 = sy.radial_symbol(sy.gaussian(1.5))
    alpha = 0.37
    V1 = sy.separable_symbol(1.0, [(1.0, A0, B0)])
    V2 = sy.separable_symbol(1.0, [(1.0, A1, B1)])
    Vsum = sy.separable_symbol(1.0, [(alpha, A0, B0), (1.0, A1, B1)])
    s = np.array([0.0, 0.8, 3.0])
    lhs = sy.reduce_symbol(Vsum, 1).profile(s)
    rhs = alpha * sy.reduce_symbol(V1, 1).profile(s) + sy.reduce_symbol(V2, 1).profile(s)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_reduce_generic_matches_separable():
    vprof = sy.gaussian(1.0, amplitude=0.3)
    terms = [(2 * np.pi, sy.radial_symbol(sy.diag_kernel_profile(1)),
              sy.radial_symbol(vprof))]
    V = sy.separable_symbol(2.0, terms)
    Vgen = sy.generic_symbol_4d(2.0, lambda x, y, xi, eta: V.evaluate_lab(x, y, xi, eta))
    red_s = sy.reduce_symbol(V, 1)
    red_g = sy.reduce_symbol(Vgen, 1)
    pts = [(0.0, 0.0), (0.7, -0.4), (1.5, 1.0)]
    for y, eta in pts:
        assert red_g.fn(y, eta) == pytest.approx(float(red_s.profile(y * y + eta * eta)),
                                                 abs=1e-8)


def test_reduce_gaussian_product_crosscheck():
    # V = G2 (pulled trivially): v_q = (int G1 Psi_q) G1; radial 1-D route
    # against the 2-D tensor quadrature route
    g1 = sy.gaussian(1.0, amplitude=1 / np.pi)
    V = sy.separable_symbol(1.0, [(1.0, sy.radial_symbol(g1), sy.radial_symbol(g1))])
    for q in (0, 1, 3):
        from landauspec.wigner import wigner_diag
        # area element: int_{R^2} f(s) dx dxi = pi * int_0^inf f(s) ds
        radial = qd.integrate_halfline(
            lambda t: np.exp(-t) * wigner_diag(q, np.sqrt(t), 0.0), order=200)
        twod = sy.kernel_pairing(sy.radial_symbol(g1), q)
        assert twod == pytest.approx(radial, abs=1e-9)
        red = sy.reduce_symbol(V, q)
        assert red.profile(np.array([0.7]))[0] == pytest.approx(
            radial * g1(0.7), abs=1e-9)


# ---------------------------------------------------------------------------
# anti-Wick smoothing


def test_antiwick_gaussian_closed_form():
    F = sy.radial_symbol(sy.gaussian(1.0, amplitude=1 / np.pi))
    G = sy.antiwick_to_weyl(F)
    s = np.array([0.0, 1.0, 4.0])
    assert np.abs(G.profile(s) - np.exp(-0.5 * s) / (2 * np.pi)).max() < 1e-15
    # numeric convolution oracle
    num = sy._radial_gauss_convolution(sy.gaussian(1.0, amplitude=1 / np.pi))
    assert np.abs(num(s) - G.profile(s)).max() < 1e-10


def test_antiwick_constant():
    G = sy.antiwick_to_weyl(sy.radial_symbol(sy.constant(1.0)))
    assert float(G.profile(5.0)) == 1.0


def test_antiwick_disk_mass_and_positivity():
    c = 2.0
    F = sy.radial_symbol(sy.disk_indicator(c))
    G = sy.antiwick_to_weyl(F)
    mass0 = math.pi * c
    mass1 = math.pi * qd.integrate_halfline(lambda t: np.atleast_1d(G.profile(t)),
                                            order=600)
    assert mass1 == pytest.approx(mass0, rel=1e-8)
    s = np.linspace(0, 12, 50)
    assert np.all(np.atleast_1d(G.profile(s)) >= 0.0)


def test_antiwick_mass_preserved_generic_profile():
    prof = sy.exp_beta(0.8, 1.5)
    G = sy.antiwick_to_weyl(sy.radial_symbol(prof))
    # the profile's half-power makes its derivative singular at 0; integrate
    # the mass oracle in r (t = r^2) where the integrand is smooth
    r_rule = qd.gauss_legendre_panel(400, 0.0, 12.0)
    mass0 = math.pi * float(np.dot(r_rule.weights,
                                   prof(r_rule.nodes**2) * 2.0 * r_rule.nodes))
    mass1 = math.pi * qd.integrate_halfline(lambda t: np.atleast_1d(G.profile(t)),
                                            order=400)
    assert mass1 == pytest.approx(mass0, rel=1e-8)


def test_antiwick_generic_symbol_matches_radial_path():
    prof = sy.gaussian(0.8, amplitude=0.5)
    F_rad = sy.radial_symbol(prof)
    F_gen = sy.generic_symbol(lambda x, xi: prof(np.asarray(x) ** 2 + np.asarray(xi) ** 2))
    G_rad = sy.antiwick_to_weyl(F_rad)
    G_gen = sy.antiwick_to_weyl(F_gen)
    for (x, xi) in [(0.0, 0.0), (1.0, 0.5), (-0.3, 1.7)]:
        assert G_gen.fn(x, xi) == pytest.approx(
            float(G_rad.profile(x * x + xi * xi)), abs=1e-10)


# ---------------------------------------------------------------------------
# effective local weight and the Laguerre Laplacian


def test_effective_local_symbol():
    vt = sy.radial_symbol(sy.gaussian(0.7))
    om = sy.effective_local_symbol(vt, 2.0)
    assert om.profile.rate == pytest.approx(1.4)
    c = sy.effective_local_symbol(sy.radial_symbol(sy.constant(2.5)), 3.0)
    assert float(c.profile(9.0)) == 2.5
    # pointwise: omega(1, 2) = vt(-2 sqrt(b), -sqrt(b))
    b = 3.0
    vgen = sy.generic_symbol(lambda x, y: np.asarray(x) + 10 * np.asarray(y))
    om2 = sy.effective_local_symbol(vgen, b)
    assert om2.evaluate(1.0, 2.0) == pytest.approx(
        vgen.evaluate(-2 * math.sqrt(b), -math.sqrt(b)))


def test_laguerre_laplacian_gaussian():
    a, b = 0.5, 1.0
    z = sy.radial_symbol(sy.gaussian(a))
    dz = sy.laguerre_laplacian(z, b, 1)
    s = np.linspace(0, 5, 21)
    expect = (1 + (2 * a / b) * (a * s - 1)) * np.exp(-a * s)
    assert np.abs(dz.profile(s) - expect).max() < 1e-13


def test_laguerre_laplacian_identity_and_constant():
    z = sy.radial_symbol(sy.gaussian(0.4))
    assert sy.laguerre_laplacian(z, 1.0, 0) is z
    c = sy.radial_symbol(sy.constant(2.0))
    assert float(sy.laguerre_laplacian(c, 1.0, 1).profile(3.0)) == 2.0


def test_laguerre_laplacian_finite_difference_oracle():
    # radial Laplacian of f(x, y) = g(x^2 + y^2) by 5-point stencil
    a, b, r = 0.3, 2.0, 1
    z = sy.radial_symbol(sy.gaussian(a))
    dz = sy.laguerre_laplacian(z, b, r)
    h = 1e-4
    for (x, y) in [(0.5, 0.2), (1.0, -0.7), (0.1, 1.3)]:
        def g(xx, yy):
            return float(z.profile(xx * xx + yy * yy))
        lap = (g(x + h, y) + g(x - h, y) + g(x, y + h) + g(x, y - h) - 4 * g(x, y)) / h**2
        expect = g(x, y) + lap / (2 * b)
        got = float(dz.profile(x * x + y * y))
        assert got == pytest.approx(expect, rel=1e-6)


def test_laguerre_laplacian_unsupported():
    with pytest.raises(sy.UnsupportedProfileError):
        sy.laguerre_laplacian(sy.radial_symbol(sy.power(2.0)), 1.0, 1)
    with pytest.raises(ValueError):
        sy.laguerre_laplacian(sy.radial_symbol(sy.gaussian(1.0)), 1.0, 5)


# ---------------------------------------------------------------------------
# volumes and the regularity bounds


def test_phase_space_volume_closed_forms():
    gamma = 2.0
    v = sy.radial_symbol(sy.power(gamma))
    lam = 1e-2
    assert sy.phase_space_volume(v, lam) == pytest.approx(
        (lam ** (-2 / gamma) - 1) / 2, rel=1e-12)
    assert sy.phase_space_volume(v, 2.0) == 0.0
    disk = sy.radial_symbol(sy.disk_indicator(3.0, amplitude=2.0))
    assert sy.phase_space_volume(disk, 1.0) == pytest.approx(1.5)
    assert sy.phase_space_volume(disk, 2.5) == 0.0
    g = sy.radial_symbol(sy.gaussian(0.5))
    assert sy.phase_space_volume(g, 0.1) == pytest.approx(math.log(10) / 1.0, rel=1e-12)


def test_phase_space_volume_counting_prediction():
    # the counting-function prediction for power(2): zero above the maximum,
    # decreasing in the level
    v = sy.radial_symbol(sy.power(2.0))
    assert sy.phase_space_volume(v, 1e-2) == pytest.approx(49.5)
    assert sy.phase_space_volume(v, 2.0) == 0.0
    vals = [sy.phase_space_volume(v, lam) for lam in np.linspace(1e-3, 1e-2, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_phase_space_volume_numeric_segments():
    # mix profile handled by scan + bisection; oracle: gaussian closed form
    prof = sy.profile_mix([(1.0, sy.gaussian(0.5))])
    v = sy.radial_symbol(prof)
    ref = sy.phase_space_volume(sy.radial_symbol(sy.gaussian(0.5)), 0.2)
    assert sy.phase_space_volume(v, 0.2) == pytest.approx(ref, rel=1e-9)


def test_phase_space_volume_negative_side():
    v = sy.radial_symbol(sy.gaussian(1.0, amplitude=-2.0))
    assert sy.phase_space_volume(v, 1.0, sign=-1) == pytest.approx(math.log(2.0) / 2, rel=1e-12)
    assert sy.phase_space_volume(v, 1.0, sign=+1) == 0.0


def test_phase_space_volume_generic_grid():
    v = sy.generic_symbol(lambda x, xi: np.exp(-(np.asarray(x)**2 + np.asarray(xi)**2)))
    got = sy.phase_space_volume(v, 0.5, extent=4.0, cells=801)
    assert got == pytest.approx(math.log(2.0) / 2, rel=2e-2)


def test_condition_c_estimate():
    g1, g2 = sy.condition_C_estimate(lambda lam: lam ** (-1.0), (1e-3, 1e-2))
    assert g1 == pytest.approx(1.0, abs=1e-3) and g2 == pytest.approx(1.0, abs=1e-3)
    g1, g2 = sy.condition_C_estimate(lambda lam: (1 / lam - 1) / 2, (1e-3, 1e-2))
    assert 0.99 <= g1 <= g2 <= 1.011 / (1 - 1e-2)
    # constant volume: bounds collapse to zero, violating the condition
    g1, g2 = sy.condition_C_estimate(lambda lam: 7.0, (1e-3, 1e-2))
    assert (g1, g2) == (0.0, 0.0)
    with pytest.raises(ValueError):
        sy.condition_C_estimate(lambda lam: lam, (1e-3, 1e-2))


# ---------------------------------------------------------------------------
# Fourier profiles


def test_fourier_profile_gaussian_closed_form():
    # unitary 2-D transform of (1/pi) e^{-s} is (1/(2 pi)) e^{-u/4}
    fp = sy.fourier_radial_profile(sy.gaussian(1.0, amplitude=1 / np.pi))
    u = np.array([0.0, 1.0, 4.0])
    assert np.abs(fp(u) - np.exp(-u / 4) / (2 * np.pi)).max() < 1e-15


def test_fourier_profile_numeric_matches_closed():
    closed = sy.fourier_radial_profile(sy.gaussian(0.6, amplitude=2.0))
    numeric = sy.fourier_radial_profile(
        sy.custom(lambda s: 2.0 * np.exp(-0.6 * s)))
    u = np.array([0.0, 0.5, 2.0, 7.0])
    assert np.abs(np.atleast_1d(numeric(u)) - closed(u)).max() < 1e-12


def test_fourier_profile_hankel_blocks_match_pointwise_sum():
    # the blocked (points x nodes) evaluation against the per-point sum
    from landauspec.specfun import bessel_j
    prof = sy.power(3.0)
    fp = sy.fourier_radial_profile(prof)
    rule = qd.gauss_laguerre(400)
    base = rule.flat_weights * prof(rule.nodes)
    u = np.linspace(0.0, 40.0, 70).reshape(7, 10)
    got = fp(u)
    assert got.shape == (7, 10)
    ref = [0.5 * np.dot(base, bessel_j(0, np.sqrt(u0 * rule.nodes))) for u0 in u.ravel()]
    assert np.abs(got.ravel() - ref).max() < 1e-14


def test_level_crossing_bisection_raises_without_a_finite_bracket():
    # 200 halvings never shrink [0, inf): no silent midpoint
    with pytest.raises(ArithmeticError, match="did not converge"):
        sy._bisect(sy.gaussian(1.0), 0.5, 1.0, 0.0, math.inf)


def test_fourier_profile_disk_bessel():
    # closed Bessel form against direct 2-D quadrature of the transform
    c = 1.5
    fp = sy.fourier_radial_profile(sy.disk_indicator(c))
    for u0 in (0.0, 1.0, 5.0):
        w = math.sqrt(u0)
        rule = qd.gauss_legendre_panel(400, 0.0, math.sqrt(c))
        r = rule.nodes
        from scipy.special import j0
        direct = float(np.dot(rule.weights, j0(w * r) * r))
        assert float(np.atleast_1d(fp(np.array([u0])))[0]) == pytest.approx(
            direct, abs=1e-12)

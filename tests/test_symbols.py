import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import landauspec
from landauspec import operators as op
from landauspec import quadrature as qd
from landauspec import symbols as sy
from landauspec import verify
from reference_routes import integrate_halfline, radial_gauss_convolution


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


def test_landau_symbol_identity():
    lhs, rhs = sy.landau_symbol_check(1.0, (1, 0, 0, 0))
    assert (lhs, rhs) == (1.0, 1.0)
    lhs, rhs = sy.landau_symbol_check(2.0, (0, 0, 1, 0))
    assert lhs == pytest.approx(2.0, rel=1e-14) and rhs == 2.0
    assert verify.symplectic_frame(11, 2.0)[1] < 1e-12

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
    # several modes with signs (-1)^j, zero coefficients skipped
    x = 2.0 * s
    L2, L3 = 1 - 2 * x + x ** 2 / 2, 1 - 3 * x + 1.5 * x ** 2 - x ** 3 / 6
    mix = sy.laguerre_mix([0.5, 0.0, -2.0, 1.0])
    assert np.allclose(mix(s), (0.5 - 2.0 * L2 - L3) * np.exp(-s), atol=1e-14)


def test_laguerre_mix_profile_past_seed_underflow():
    # pi R(900) = L_500(1800) e^(-900), mpmath at 60 and 120 digits
    assert sy.diag_kernel_profile(500)(900.0) == pytest.approx(-0.0078657641122077184,
                                                                abs=1e-13)


def test_empty_laguerre_mix_keeps_the_input_shape():
    u = np.ones((2, 3))
    assert sy.laguerre_mix([])(u).shape == (2, 3)
    assert sy.laguerre_mix([])(1.0) == 0.0
    fhat = sy.fourier_radial_profile(sy.laguerre_mix([]))
    assert fhat(u).shape == (2, 3) and not fhat(u).any()


def test_exp_beta_past_the_double_range_reads_zero_quietly():
    # gamma s^beta overflows to inf at s = 1e3: R = 0 and ln |R| = -inf, with no
    # RuntimeWarning (the suite turns one into an error)
    prof = sy.exp_beta(1e300, 5.0)
    s = np.array([0.0, 1.0, 1e3])
    assert prof(s).tolist() == [1.0, 0.0, 0.0]
    assert prof(1e3) == 0.0
    log, sign = prof.log_abs(s)
    assert log.tolist() == [0.0, -1e300, -np.inf] and sign.tolist() == [1.0, 1.0, 0.0]


def test_profile_log_abs():
    s = np.array([0.1, 1.0, 9.0])
    for prof in (sy.gaussian(0.4), sy.power(3.0), sy.exp_beta(0.2, 0.7),
                 sy.gaussian(0.4, amplitude=-2.5), sy.constant(-0.3),
                 sy.poly_gauss([1.0, -1.0], 0.5), sy.tabulated([0.0, 2.0], [1.0, -1.0])):
        log, sign = prof.log_abs(s)
        assert np.allclose(sign * np.exp(log), prof(s), rtol=1e-13)
    d = sy.disk_indicator(2.0, amplitude=-1.0)
    log, sign = d.log_abs(s)
    assert log[0] == 0.0 and log[2] == -np.inf and sign.tolist() == [-1.0, -1.0, 0.0]
    # the closed form stays exact where the values underflow; a zero reads (-inf, 0)
    assert sy.gaussian(1.0, amplitude=-1.0).log_abs(1e4)[0] == -1e4
    log, sign = sy.poly_gauss([1.0, -1.0], 0.5).log_abs(s)
    assert log[1] == -np.inf and sign[1] == 0.0
    assert sy.gaussian(1.0, amplitude=0.0).log_abs(s)[0].tolist() == [-np.inf] * 3


_NAN = float("nan")


@pytest.mark.parametrize("make,message", [
    (lambda: sy.gaussian(_NAN), "rate must be positive"),
    (lambda: sy.power(_NAN), "gamma must be positive"),
    (lambda: sy.exp_beta(1.0, _NAN), "gamma and beta must be positive"),
    (lambda: sy.disk_indicator(_NAN), "cutoff must be positive"),
    (lambda: sy.poly_gauss([1.0], -1.0), "rate must be positive"),
    (lambda: sy.tabulated([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]), "strictly increasing"),
    (lambda: sy.tabulated([0.0, 1.0], [1.0, math.inf]), "must be finite"),
    (lambda: sy.diag_kernel_profile(-1), "non-negative integer"),
    (lambda: sy.diag_kernel_profile(2.7), "non-negative integer")],
    ids=["gaussian", "power", "exp_beta", "disk_indicator", "poly_gauss",
         "tabulated-order", "tabulated-inf", "level-kernel-negative", "level-kernel-fraction"])
def test_profile_constructors_refuse_unrepresentable_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("b", [-1.0, 0.0, _NAN, math.inf])
def test_separable_symbol_refuses_bad_field_strength(b):
    with pytest.raises(ValueError, match="finite and positive"):
        sy.separable_symbol(b, [])


# ---------------------------------------------------------------------------
# separable symbols on R^4


def test_separable_pullback_is_exact():
    # separable symbols store the pulled factors, so the pulled-back symbol
    # is A (x) B to machine precision
    A = sy.gaussian(0.6, amplitude=1.3)
    B = sy.laguerre_mix([0.2, -0.4, 0.3])
    V = sy.separable_symbol(2.0, [(0.9, A, B)])
    rng = np.random.default_rng(5)
    for _ in range(25):
        x, y, xi, eta = rng.normal(size=4)
        stored = 0.9 * float(A(x * x + xi * xi)) * float(B(y * y + eta * eta))
        pulled = sum(c * A.evaluate(x, xi) * B.evaluate(y, eta) for c, A, B in V.terms)
        assert pulled == pytest.approx(stored, rel=1e-15)


def test_separable_symbol_refuses_non_radial_factor():
    # the same Gaussian written as a one-mode angular symbol, in the second term
    gauss = sy.gaussian(0.6, amplitude=0.5)
    A = sy.diag_kernel_profile(0)
    with pytest.raises(sy.UnsupportedProfileError, match="term 1 has a factor of type AngularSymbol"):
        sy.separable_symbol(1.0, [
            (2 * np.pi, A, gauss),
            (2 * np.pi, A, sy.angular_symbol({0: lambda r: gauss(r * r)}))])


# ---------------------------------------------------------------------------
# anti-Wick smoothing


def test_antiwick_gaussian_closed_form():
    F = sy.gaussian(1.0, amplitude=1 / np.pi)
    G = sy.antiwick_to_weyl(F)
    s = np.array([0.0, 1.0, 4.0])
    assert np.abs(G(s) - np.exp(-0.5 * s) / (2 * np.pi)).max() < 1e-15
    # numeric convolution oracle
    num = radial_gauss_convolution(sy.gaussian(1.0, amplitude=1 / np.pi))
    assert np.abs(num(s) - G(s)).max() < 1e-10


def test_antiwick_constant():
    G = sy.antiwick_to_weyl(sy.constant(1.0))
    assert float(G(5.0)) == 1.0


@pytest.mark.parametrize("prof", [
    sy.exp_beta(0.8, 1.5), sy.power(3.0), sy.poly_gauss([1.0, 0.5], 0.7),
    sy.tabulated([0.0, 1.0, 2.0], [1.0, 0.5, 0.0]), sy.custom(lambda s: np.exp(-s))],
    ids=lambda p: p.kind)
def test_antiwick_refuses_kinds_without_closed_form(prof):
    # only the closed forms and the disk arc smooth; the polar sum is a test oracle
    with pytest.raises(sy.UnsupportedProfileError, match=repr(prof.kind)):
        sy.antiwick_to_weyl(prof)


def test_antiwick_disk_mass_and_positivity():
    c = 2.0
    F = sy.disk_indicator(c)
    G = sy.antiwick_to_weyl(F)
    mass0 = math.pi * c
    mass1 = math.pi * integrate_halfline(lambda t: np.atleast_1d(G(t)), order=600)
    assert mass1 == pytest.approx(mass0, rel=1e-8)
    s = np.linspace(0, 12, 50)
    assert np.all(np.atleast_1d(G(s)) >= 0.0)


def test_antiwick_mass_preserved_generic_profile():
    prof = sy.exp_beta(0.8, 1.5)
    G = radial_gauss_convolution(prof)
    # the profile's half-power makes its derivative singular at 0; integrate
    # the mass oracle in r (t = r^2) where the integrand is smooth
    r, w = qd.gauss_legendre_panel(400, 0.0, 12.0)
    mass0 = math.pi * float(np.dot(w, prof(r**2) * 2.0 * r))
    mass1 = math.pi * integrate_halfline(lambda t: np.atleast_1d(G(t)), order=400)
    assert mass1 == pytest.approx(mass0, rel=1e-8)


# ---------------------------------------------------------------------------
# the Laguerre Laplacian


def test_laguerre_laplacian_gaussian():
    a, b = 0.5, 1.0
    z = sy.gaussian(a)
    dz = sy.laguerre_laplacian(z, b, 1)
    s = np.linspace(0, 5, 21)
    expect = (1 + (2 * a / b) * (a * s - 1)) * np.exp(-a * s)
    assert np.abs(dz(s) - expect).max() < 1e-13


def test_laguerre_laplacian_identity_and_constant():
    z = sy.gaussian(0.4)
    assert sy.laguerre_laplacian(z, 1.0, 0) is z
    c = sy.constant(2.0)
    assert float(sy.laguerre_laplacian(c, 1.0, 1)(3.0)) == 2.0


def test_laguerre_laplacian_finite_difference_oracle():
    # radial Laplacian of f(x, y) = g(x^2 + y^2) by 5-point stencil
    a, b, r = 0.3, 2.0, 1
    z = sy.gaussian(a)
    dz = sy.laguerre_laplacian(z, b, r)
    h = 1e-4
    for (x, y) in [(0.5, 0.2), (1.0, -0.7), (0.1, 1.3)]:
        def g(xx, yy):
            return float(z(xx * xx + yy * yy))
        lap = (g(x + h, y) + g(x - h, y) + g(x, y + h) + g(x, y - h) - 4 * g(x, y)) / h**2
        expect = g(x, y) + lap / (2 * b)
        got = float(dz(x * x + y * y))
        assert got == pytest.approx(expect, rel=1e-6)


def test_laguerre_laplacian_unsupported():
    with pytest.raises(sy.UnsupportedProfileError):
        sy.laguerre_laplacian(sy.power(2.0), 1.0, 1)
    with pytest.raises(ValueError):
        sy.laguerre_laplacian(sy.gaussian(1.0), 1.0, 5)


# ---------------------------------------------------------------------------
# volumes and the regularity bounds


def test_phase_space_volume_closed_forms():
    gamma = 2.0
    v = sy.power(gamma)
    lam = 1e-2
    assert sy.phase_space_volume(v, lam) == pytest.approx(
        (lam ** (-2 / gamma) - 1) / 2, rel=1e-12)
    assert sy.phase_space_volume(v, 2.0) == 0.0
    disk = sy.disk_indicator(3.0, amplitude=2.0)
    assert sy.phase_space_volume(disk, 1.0) == pytest.approx(1.5)
    assert sy.phase_space_volume(disk, 2.5) == 0.0
    g = sy.gaussian(0.5)
    assert sy.phase_space_volume(g, 0.1) == pytest.approx(math.log(10) / 1.0, rel=1e-12)
    # a float ** past the double range reads inf, as a subnormal rate does
    assert sy.phase_space_volume(sy.gaussian(5e-324), 0.5) == math.inf
    assert sy.phase_space_volume(sy.power(1e-3), 0.5) == math.inf
    assert sy.phase_space_volume(sy.exp_beta(1.0, 1e-3, amplitude=1e3), 1.0) == math.inf


def test_phase_space_volume_counting_prediction():
    # the counting-function prediction for power(2): zero above the maximum,
    # decreasing in the level
    v = sy.power(2.0)
    assert sy.phase_space_volume(v, 1e-2) == pytest.approx(49.5)
    assert sy.phase_space_volume(v, 2.0) == 0.0
    vals = [sy.phase_space_volume(v, lam) for lam in np.linspace(1e-3, 1e-2, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_phase_space_volume_numeric_segments():
    # custom profile handled by scan + bisection; oracle: gaussian closed form
    prof = sy.custom(sy.gaussian(0.5))
    v = prof
    ref = sy.phase_space_volume(sy.gaussian(0.5), 0.2)
    assert sy.phase_space_volume(v, 0.2) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("prof", [
    sy.custom(lambda s: 1.0 + 0.0 * s),
    sy.tabulated([0.0, 1e13], [1.0, 1.0]),
    sy.custom(lambda s: (1.0 + s) ** -0.01),     # true volume about 6e29
], ids=["flat", "tabulated-past-cap", "slow-power"])
def test_phase_space_volume_search_cap_raises(prof):
    # |R| > lam out to the search cap: the doubling search must say so
    # instead of returning half the cap as the volume
    with pytest.raises(ValueError, match=r"level 0\.5.*1e\+12"):
        sy.phase_space_volume(prof, 0.5)


def test_phase_space_volume_negative_side():
    v = sy.gaussian(1.0, amplitude=-2.0)
    assert sy.phase_space_volume(v, 1.0, sign=-1) == pytest.approx(math.log(2.0) / 2, rel=1e-12)
    assert sy.phase_space_volume(v, 1.0, sign=+1) == 0.0


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
    nodes, weights = qd.gauss_laguerre(400)
    base = weights * prof(nodes)
    u = np.linspace(0.0, 40.0, 70).reshape(7, 10)
    got = fp(u)
    assert got.shape == (7, 10)
    ref = [0.5 * np.dot(base, bessel_j(0, np.sqrt(u0 * nodes))) for u0 in u.ravel()]
    assert np.abs(got.ravel() - ref).max() < 1e-14


@pytest.fixture
def bessel_cache():
    """The Hankel step's one kept matrix, emptied before and after the test."""
    sy._bessel_matrix.cache_clear()
    yield sy._bessel_matrix
    sy._bessel_matrix.cache_clear()


def _cache_counts(cache):
    info = cache.cache_info()
    return info.hits, info.misses, info.currsize


def _radial_columns(prof, count):
    """The three radial-eigs columns, Fourier last."""
    return (op.weyl_radial_eigs(prof, count), op.antiwick_radial_eigs(prof, count),
            op.weyl_radial_eigs_fourier(sy.fourier_radial_profile(prof), count))


def _breakpoint_free_profiles():
    """Two profiles whose Hankel steps both run on the 400 Gauss-Laguerre nodes."""
    return sy.exp_beta(1.0, 0.5), sy.power(3.0)


def _fresh_process_columns():
    """Hex bytes of the columns of _breakpoint_free_profiles at count 64, computed in
    a fresh process: K1's three, then power(3)'s."""
    code = ("from test_symbols import _breakpoint_free_profiles, _radial_columns\n"
            "for p in _breakpoint_free_profiles():\n"
            "    print(*(c.tobytes().hex() for c in _radial_columns(p, 64)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(landauspec.__file__).resolve().parents[1]), str(Path(__file__).parent)]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_bessel_cache_shares_one_matrix_across_profiles_bit_for_bit(bessel_cache):
    # at count 64 both Fourier columns evaluate at the same 432 points: one key
    k1, power3 = _breakpoint_free_profiles()
    runs = [_radial_columns(k1, 64)]
    # the first call keeps the matrix, the next ones hit it
    assert _cache_counts(bessel_cache) == (0, 1, 1)
    runs += [_radial_columns(p, 64) for p in (power3, k1, power3)]
    assert _cache_counts(bessel_cache) == (3, 1, 1)
    assert [c.tobytes().hex() for run in runs for c in run] == _fresh_process_columns() * 2


def test_bessel_cache_keys_tables_by_their_nodes(bessel_cache):
    from landauspec.specfun import bessel_j
    grids = (np.linspace(0.0, 10.0, 11), np.linspace(0.0, 10.0, 21),
             np.linspace(0.0, 12.0, 11))
    tables = [sy.tabulated(g, np.exp(-g)) for g in grids]
    fourier = [sy.fourier_radial_profile(t) for t in tables]
    u = np.linspace(0.0, 30.0, 50)
    first = [f(u) for f in fourier]
    again = [f(u) for f in fourier]
    # three node sets and one entry: every call misses, where a key without the
    # nodes would hit and hand each table another table's matrix
    assert _cache_counts(bessel_cache) == (0, 6, 1)
    assert [v.tobytes() for v in again] == [v.tobytes() for v in first]
    # other values on the last grid: the same nodes, so its matrix
    tables.append(sy.tabulated(grids[2], np.cos(grids[2])))
    first.append(sy.fourier_radial_profile(tables[-1])(u))
    assert _cache_counts(bessel_cache) == (1, 6, 1)
    for table, got in zip(tables, first):
        nodes, weights = qd.support_rule(table.breakpoints, 400, 400, math.inf)
        ref = [0.5 * np.dot(weights * table(nodes), bessel_j(0, np.sqrt(u0 * nodes)))
               for u0 in u]
        assert np.abs(got - ref).max() < 1e-14


def test_bessel_cache_stays_within_its_bound(bessel_cache):
    from landauspec.specfun import bessel_j
    prof = sy.power(3.0)
    fp = sy.fourier_radial_profile(prof)
    nodes, weights = qd.gauss_laguerre(400)
    base = weights * prof(nodes)
    # 1e5 points make a 320 MB matrix: streamed in blocks, never kept
    u = np.linspace(0.0, 40.0, 100_000)
    got = fp(u)
    ref = [0.5 * np.dot(base, bessel_j(0, np.sqrt(u0 * nodes))) for u0 in u[::997]]
    assert np.abs(got[::997] - ref).max() < 1e-14
    assert _cache_counts(bessel_cache) == (0, 0, 0)
    # 2621 points x 400 nodes is the largest matrix within 8 MiB: kept, read-only;
    # one point more is streamed and leaves it in place
    assert 2621 * 400 * 8 <= sy._BESSEL_KEEP_BYTES < 2622 * 400 * 8
    pts = np.linspace(0.0, 40.0, 2621)
    fp(pts), fp(np.linspace(0.0, 40.0, 2622))
    J = bessel_cache(pts.tobytes(), nodes.tobytes())
    assert _cache_counts(bessel_cache) == (1, 1, 1)
    assert J.shape == (2621, 400)
    with pytest.raises(ValueError, match="read-only"):
        J[0, 0] = 0.0


def test_kept_and_streamed_bessel_matrices_give_the_same_bytes(bessel_cache, monkeypatch):
    # a 60-point table has 835 Hankel nodes: at 700 points a 4.7 MB matrix, kept.
    # Its products run in the streamed path's 32-point blocks; one product with
    # the whole matrix changes the last bits here
    grid = np.linspace(0.0, 10.0, 60)
    fp = sy.fourier_radial_profile(sy.tabulated(grid, np.exp(-grid) * (1.0 + np.sin(grid))))
    u = np.linspace(0.0, 60.0, 700)
    kept = fp(u)
    assert _cache_counts(bessel_cache) == (0, 1, 1)
    monkeypatch.setattr(sy, "_BESSEL_KEEP_BYTES", 0)
    streamed = fp(u)
    assert _cache_counts(bessel_cache) == (0, 1, 1)
    assert kept.tobytes() == streamed.tobytes()


def test_hankel_step_fault_leaves_no_bad_matrix_kept(bessel_cache):
    # the faulted suite runs at K1's key (432 points x 400 nodes) and keeps that
    # matrix; the fault corrupts only the weights, so K1's column after it reads
    # what a fresh process reads
    results = verify.run_suites("weyl-fourier-agreement", fault="hankel_step")
    assert [r["passed"] for r in results] == [False]
    assert _cache_counts(bessel_cache) == (0, 1, 1)
    k1 = _breakpoint_free_profiles()[0]
    column = op.weyl_radial_eigs_fourier(sy.fourier_radial_profile(k1), 64)
    assert _cache_counts(bessel_cache) == (1, 1, 1)
    assert column.tobytes().hex() == _fresh_process_columns()[2]


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
        r, weights = qd.gauss_legendre_panel(400, 0.0, math.sqrt(c))
        from scipy.special import j0
        direct = float(np.dot(weights, j0(w * r) * r))
        assert float(np.atleast_1d(fp(np.array([u0])))[0]) == pytest.approx(
            direct, abs=1e-12)

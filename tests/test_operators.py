import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from landauspec import operators as op
from landauspec import quadrature as qd
from landauspec import symbols as sy
from landauspec.specfun import hermite_fn, laguerre, log_gammainc_lower


def gaussian_weyl_exact(a, amp, count):
    """Gamma-integral oracle: mu_k of the radial symbol amp e^{-a s}."""
    k = np.arange(count)
    return amp * (1 - a) ** k / (1 + a) ** (k + 1.0)


# ---------------------------------------------------------------------------
# Hermite-basis matrices


def test_weyl_matrix_constant_is_identity():
    T = op.weyl_matrix(sy.radial_symbol(sy.constant(2.5)), 8)
    assert np.abs(T.matrix - 2.5 * np.eye(8)).max() < 1e-10


def test_weyl_matrix_rank_one_projection():
    # 2 pi Psi_0 is the symbol of the projection onto the ground state
    v = sy.radial_symbol(sy.gaussian(1.0, amplitude=2.0))
    T = op.weyl_matrix(v, 10)
    assert T.matrix[0, 0].real == pytest.approx(1.0, abs=1e-9)
    off = T.matrix.copy()
    off[0, 0] = 0.0
    assert np.abs(off).max() < 1e-9
    eigs = np.linalg.eigvalsh(T.matrix)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.abs(eigs[:-1]).max() < 1e-9


def test_weyl_matrix_radial_is_diagonal():
    for prof in (sy.gaussian(0.3), sy.laguerre_mix([0.5, 0.2, -0.1])):
        T = op.weyl_matrix(sy.radial_symbol(prof), 14)
        d = np.abs(np.diag(T.matrix)).max()
        off = np.abs(T.matrix - np.diag(np.diag(T.matrix))).max()
        assert off < 1e-9 * d
        assert T.hermiticity_defect() < 1e-10 * np.linalg.norm(T.matrix)


def test_weyl_matrix_kernel_integral_oracle():
    # fully independent route: triple quadrature of the quantization kernel
    #   <op(F) psi_l, psi_k> = (2 pi)^-1 int F(u, xi) e^{i v xi}
    #                          psi_l(u - v/2) psi_k(u + v/2) du dv dxi
    # for the angular symbol F = x e^{-(x^2 + xi^2)}
    F = sy.angular_symbol({1: lambda r: 0.5 * r * np.exp(-r * r),
                           -1: lambda r: 0.5 * r * np.exp(-r * r)})
    n = 4
    T = op.weyl_matrix(F, n).matrix

    rule = qd.gauss_hermite(64)
    u = rule.nodes
    fw = rule.flat_weights
    U = u[:, None, None]
    V = u[None, :, None]
    XI = u[None, None, :]
    W3 = fw[:, None, None] * fw[None, :, None] * fw[None, None, :]
    minus = U - V / 2
    plus = U + V / 2
    oracle = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            vals = (U * np.exp(-(U**2 + XI**2)) * np.exp(1j * V * XI)
                    * hermite_fn(l, minus) * hermite_fn(k, plus))
            oracle[k, l] = np.sum(W3 * vals) / (2 * np.pi)
    assert np.abs(T - oracle).max() < 1e-10


def test_weyl_matrix_doubling_check_flags_bad_symbol():
    wild = sy.generic_symbol(lambda x, xi: np.cos(60.0 * np.asarray(x)), real=True)
    with pytest.raises(qd.QuadratureAccuracyError):
        op.weyl_matrix(wild, 6, order=24, check=True)


def test_hilbert_schmidt_identity():
    # F = 2 pi Psi_0: squared Frobenius mass 1 equals (2 pi)^-1 ||F||^2
    v = sy.radial_symbol(sy.gaussian(1.0, amplitude=2.0))
    mat, sym = op.hilbert_schmidt_check(v, 12)
    assert mat == pytest.approx(1.0, abs=1e-9)
    assert sym == pytest.approx(1.0, abs=1e-9)
    z = sy.radial_symbol(sy.constant(0.0))
    assert op.hilbert_schmidt_check(z, 6) == (0.0, 0.0)
    g = sy.radial_symbol(sy.gaussian(0.5, amplitude=1.2))
    mat, sym = op.hilbert_schmidt_check(g, 64)
    assert mat == pytest.approx(sym, rel=1e-6)
    assert mat <= sym * (1 + 1e-9)   # truncation converges upward


def test_banded_structure():
    radial = sy.radial_symbol(sy.gaussian(0.4))
    max_in, max_out = op.banded_structure_check(radial, 10)
    assert max_out < 1e-9 * max_in
    cos_sym = sy.angular_symbol({1: lambda r: 0.5 * r * np.exp(-r**2),
                                 -1: lambda r: 0.5 * r * np.exp(-r**2)})
    max_in, max_out = op.banded_structure_check(cos_sym, 10)
    assert max_out < 1e-9 * max_in
    # (x + xi)^2 gaussian has modes {0, +/-2}: pentadiagonal
    def f2(r):
        return 0.5 * r * r * np.exp(-r * r)
    penta = sy.angular_symbol({0: lambda r: r * r * np.exp(-r * r),
                               2: lambda r: -1j * f2(r), -2: lambda r: 1j * f2(r)})
    max_in, max_out = op.banded_structure_check(penta, 10)
    assert max_out < 1e-9 * max_in
    T = op.weyl_matrix(penta, 10).matrix
    assert abs(T[0, 2]) > 1e-3   # the band is actually used


# ---------------------------------------------------------------------------
# radial eigenvalue sequences


def test_weyl_radial_eigs_gaussian_oracle():
    mu = op.weyl_radial_eigs(sy.gaussian(0.15), 33)
    exact = gaussian_weyl_exact(0.15, 1.0, 33)
    assert np.abs(mu / exact - 1).max() < 1e-9


def test_weyl_radial_eigs_rank_one():
    mu = op.weyl_radial_eigs(sy.gaussian(1.0, amplitude=1 / np.pi), 12)
    assert mu[0] == pytest.approx(1 / (2 * np.pi), rel=1e-12)
    assert np.abs(mu[1:]).max() < 1e-10


def test_weyl_radial_eigs_constant():
    mu = op.weyl_radial_eigs(sy.constant(0.7), 20)
    assert np.abs(mu - 0.7).max() < 1e-10


def test_weyl_radial_eigs_laguerre_mix_moyal_oracle():
    coeffs = [0.4, -0.3, 0.2, 0.1]
    expect = np.array(coeffs + [0.0] * 4) / 2.0
    mix = sy.laguerre_mix(coeffs)
    # the coefficient route, and quadrature through an opaque evaluator
    for prof in (mix, sy.custom(lambda s: mix(s))):
        mu = op.weyl_radial_eigs(prof, 8)
        assert np.abs(mu - expect).max() < 1e-12


@pytest.mark.parametrize("q", [300, 500])
def test_weyl_radial_eigs_high_level_kernel(q):
    # 2 pi mu_k of the level-q kernel is delta_kq (Laguerre orthogonality)
    count = q + 100
    mu = op.weyl_radial_eigs(sy.diag_kernel_profile(q), count)
    expect = np.zeros(count)
    expect[q] = 1.0
    assert np.abs(2.0 * np.pi * mu - expect).max() < 1e-12


def test_weyl_radial_eigs_matches_matrix_diagonal():
    prof = sy.gaussian(0.15)
    mu = op.weyl_radial_eigs(prof, 33)
    diag = np.real(np.diag(op.weyl_matrix(sy.radial_symbol(prof), 33).matrix))
    assert np.abs(diag / mu - 1).max() < 1e-8


def test_weyl_radial_eigs_fourier_route():
    prof = sy.gaussian(0.15)
    mu = op.weyl_radial_eigs(prof, 33)
    muf = op.weyl_radial_eigs_fourier(sy.fourier_radial_profile(prof), 33)
    assert np.abs(muf - mu).max() < 1e-12
    # zero profile
    z = op.weyl_radial_eigs_fourier(sy.constant(0.0), 5)
    assert np.abs(z).max() == 0.0
    # laguerre mix through the numeric Hankel transform
    mix = sy.laguerre_mix([0.3, -0.1, 0.25])
    mu1 = op.weyl_radial_eigs(mix, 10)
    mu2 = op.weyl_radial_eigs_fourier(
        sy.fourier_radial_profile(sy.custom(lambda s: mix(s))), 10)
    assert np.abs(mu2 - mu1).max() < 1e-8


def test_antiwick_radial_eigs_gamma_oracle():
    mu = op.antiwick_radial_eigs(sy.gaussian(1.0), 20)
    assert np.abs(mu * 3.0 ** (np.arange(20) + 1.0) - 1).max() < 1e-12
    mu = op.antiwick_radial_eigs(sy.constant(0.8), 12)
    assert np.abs(mu - 0.8).max() < 1e-12


def test_antiwick_equals_weyl_of_smoothed():
    a = 0.1
    aw = op.antiwick_radial_eigs(sy.gaussian(a), 65)
    smoothed = sy.antiwick_to_weyl(sy.radial_symbol(sy.gaussian(a)))
    w = op.weyl_radial_eigs(smoothed.profile, 65)
    assert np.abs(aw / w - 1).max() < 1e-8


def test_antiwick_log_scale():
    logs = op.antiwick_radial_eigs(sy.gaussian(1.0), 300, log_scale=True)
    expect = -(np.arange(300) + 1.0) * math.log(3.0)
    assert np.abs(logs - expect).max() < 1e-10


def test_toeplitz_exponential_weight_exact():
    gam, b = 1.0, 2.0
    mu = gam * (2.0 / b)
    logs = op.toeplitz_radial_eigs(sy.exp_beta(gam, 1.0), 0, b, 120, log_scale=True)
    expect = -(np.arange(120) + 1.0) * math.log1p(mu)
    assert np.abs(logs - expect).max() < 1e-11


def test_toeplitz_disk_incomplete_gamma_oracle():
    b, R = 2.0, 1.0
    rho = b * R * R / 2.0
    logs = op.toeplitz_radial_eigs(sy.disk_indicator(R * R), 0, b, 60, log_scale=True)
    oracle = np.array([log_gammainc_lower(k + 1.0, rho) for k in range(60)])
    assert np.abs(logs - oracle).max() < 1e-11
    nu0 = math.exp(logs[0])
    assert nu0 == pytest.approx(1 - math.exp(-1.0), rel=1e-12)


def _mp_laguerre(m, d, t):
    prev, cur = mp.mpf(0), mp.mpf(1)
    for j in range(m):
        prev, cur = cur, ((2 * j + d + 1 - t) * cur - (j + d) * prev) / (j + 1)
    return cur


def _mp_log_compression(weight, q, k, points):
    """ln nu_k = ln[(m!/M!) int weight(t) t^d L_m^d(t)^2 e^-t dt] by mpmath, 40 digits."""
    m, d = min(k, q), abs(k - q)
    with mp.workdps(40):
        integral = mp.quad(
            lambda t: weight(t) * t ** d * _mp_laguerre(m, d, t) ** 2 * mp.exp(-t), points)
        return float(mp.log(integral) + mp.loggamma(m + 1) - mp.loggamma(m + d + 1))


def _mp_exp_beta_log_moments(gam, beta, scale, q, ks):
    """ln nu_k for the weight exp(-gam (scale t)^beta), split around each peak."""
    out = []
    for k in ks:
        peak = mp.mpf(max(k + q, 1))
        out.append(_mp_log_compression(
            lambda t: mp.exp(-gam * (scale * t) ** beta), q, k,
            [0, peak / 4, peak / 2, peak, 2 * peak, 4 * peak, mp.inf]))
    return np.array(out)


def test_toeplitz_disk_higher_level_mpmath_oracle():
    # q >= 1 on a compactly supported weight: the integrand jumps at t = rho
    b, q, cutoff, count = 2.0, 3, 1.0, 120
    rho = mp.mpf(b) * cutoff / 2
    ks = [0, 1, 3, 5, 10, 29, 30, 50, 80, 119]
    oracle = np.array([_mp_log_compression(lambda t: 1, q, k, [0, rho]) for k in ks])
    zeta = sy.disk_indicator(cutoff)
    logs = op.toeplitz_radial_eigs(zeta, q, b, count, log_scale=True)[ks]
    assert np.abs(logs - oracle).max() < 1e-11
    lin = op.toeplitz_radial_eigs(zeta, q, b, count)[ks]
    assert np.abs(lin / np.exp(oracle) - 1).max() < 1e-11


@pytest.mark.parametrize("gam,beta", [(1.0, 0.5), (0.7, 1.5)])
def test_small_k_moments_of_weights_rough_at_zero(gam, beta):
    # exp(-gam s^beta) with non-integer beta is not smooth at s = 0; b = 2
    # makes the Toeplitz and anti-Wick moments the same integrals
    ks = [0, 1, 2, 5]
    oracle = _mp_exp_beta_log_moments(gam, beta, 1, 0, ks)
    zeta = sy.exp_beta(gam, beta)
    for eigs in (lambda **kw: op.toeplitz_radial_eigs(zeta, 0, 2.0, 8, **kw),
                 lambda **kw: op.antiwick_radial_eigs(zeta.with_arg_scale(0.5), 8, **kw)):
        assert np.abs(eigs(log_scale=True)[ks] - oracle).max() < 1e-11
        assert np.abs(eigs()[ks] / np.exp(oracle) - 1).max() < 1e-11


def test_toeplitz_superexponential_higher_level_mpmath_oracle():
    # exp(-s^2), b = 1, q = 1: the integrand peaks far below t = k
    ks = [0, 1, 2, 50, 199]
    oracle = _mp_exp_beta_log_moments(1.0, 2.0, 2, 1, ks)
    logs = op.toeplitz_radial_eigs(sy.exp_beta(1.0, 2.0), 1, 1.0, 200, log_scale=True)
    assert np.abs(logs[ks] - oracle).max() < 1e-11
    assert oracle[-1] == pytest.approx(-634.1413, abs=1e-4)


def test_toeplitz_gaussian_closed_forms_under_strong_decay():
    k = np.arange(300)
    # q = 1, mu = 2a/b = 4: ln(k s^2 - 2ks + k + 1) - (k+2) ln s, s = 1 + mu
    s = 5.0
    logs = op.toeplitz_radial_eigs(sy.gaussian(2.0), 1, 1.0, 300, log_scale=True)
    expect = np.log(k * s * s - 2 * k * s + k + 1) - (k + 2) * np.log(s)
    assert np.abs(logs - expect).max() < 1e-11
    # q = 0, a = 20: -(k+1) ln(1 + 2a/b)
    logs = op.toeplitz_radial_eigs(sy.gaussian(20.0), 0, 1.0, 300, log_scale=True)
    assert np.abs(logs + (k + 1) * math.log(41.0)).max() < 1e-11


def test_log_grid_truncation_raises():
    # the k = 0 integrand peaks at t = 1/(1 + 2a/b) ~ e^-63.5, below the
    # grid's e^-60
    for log_scale in (True, False):
        with pytest.raises(qd.QuadratureAccuracyError, match="log grid"):
            op.toeplitz_radial_eigs(sy.gaussian(1e27), 0, 1.0, 10, log_scale=log_scale)
    # the k = 0 tail falls like t below its peak: at a = 1e8 (peak e^-19.1)
    # it has 40 nats to fall before e^-60
    logs = op.toeplitz_radial_eigs(sy.gaussian(1e8), 0, 1.0, 10, log_scale=True)
    assert np.abs(logs + (np.arange(10) + 1) * math.log1p(2e8)).max() < 1e-11
    # a Legendre panel has no grid ends to check
    assert np.isfinite(op.toeplitz_radial_eigs(
        sy.disk_indicator(1e-30), 0, 1.0, 10, log_scale=True)).all()


def test_toeplitz_higher_level_2d_quadrature_oracle():
    zeta = sy.gaussian(0.3)
    b, q = 1.0, 2
    nu = op.toeplitz_radial_eigs(zeta, q, b, 33)
    rule = qd.gauss_hermite(140)
    p = rule.nodes
    fw = rule.flat_weights

    def density(k):
        # |phi_{k,q}|^2 from the closed Laguerre form
        s = p[:, None] ** 2 + p[None, :] ** 2
        m, M = min(k, q), max(k, q)
        d = M - m
        t = b * s / 2.0
        return (b / (2 * np.pi)) * np.exp(gammaln(m + 1) - gammaln(M + 1)) \
            * t ** d * laguerre(m, float(d), t) ** 2 * np.exp(-t)

    for k in (0, 1, 5, 16, 32):
        val = np.einsum("i,j,ij->", fw, fw,
                        zeta(p[:, None] ** 2 + p[None, :] ** 2) * density(k))
        assert nu[k] == pytest.approx(val, rel=1e-7)


def _exact_gaussian_half_moment(k, q):
    """nu_k of gaussian(1/2), b = 1, level q: (m!/M!) int t^d [L_m^d(t)]^2 e^(-2t) dt.

    m! L_m^d(t) = sum_i A_i t^i with integer A_i, and int t^n e^(-2t) dt =
    n!/2^(n+1), so nu_k is an exact rational.
    """
    from fractions import Fraction
    m, M, d = min(k, q), max(k, q), abs(k - q)
    A = [(-1) ** i * math.comb(m + d, m - i) * (math.factorial(m) // math.factorial(i))
         for i in range(m + 1)]
    square = [0] * (2 * m + 1)                   # (m! L_m^d)^2, integer coefficients
    for i, a in enumerate(A):
        for j, c in enumerate(A):
            square[i + j] += a * c
    top = d + 2 * m + 1
    num = sum(c * math.factorial(d + n) * 2 ** (top - d - n - 1) for n, c in enumerate(square))
    return Fraction(num, 2 ** top * math.factorial(m) * math.factorial(M))


def test_toeplitz_high_level_exact_moments():
    # at q = 250 the plain L_m^d overflows on the moment grid from k ~ 141
    q = 250
    ln_nu = op.toeplitz_radial_eigs(sy.gaussian(0.5), q, 1.0, 400, log_scale=True)
    assert np.isfinite(ln_nu).all()
    for k in (250, 399):
        assert ln_nu[k] == pytest.approx(math.log(_exact_gaussian_half_moment(k, q)),
                                         abs=1e-11)


def test_toeplitz_level_shift_identity():
    # <(I + Lap/2b) zeta phi_{k,0}, phi_{k,0}> = <zeta phi_{k,1}, phi_{k,1}>
    for b in (1.0, 2.0):
        zeta = sy.gaussian(0.3)
        lhs = op.toeplitz_radial_eigs(
            sy.laguerre_laplacian(sy.radial_symbol(zeta), b, 1).profile, 0, b, 21)
        rhs = op.toeplitz_radial_eigs(zeta, 1, b, 21)
        assert np.abs(lhs / rhs - 1).max() < 1e-7


def test_toeplitz_superexponential_vs_dense_grid_oracle():
    # beta = 2: the extra decay moves the peak far below t = k; oracle: brute trapezoid
    zeta = sy.exp_beta(1.0, 2.0)
    b = 2.0
    logs = op.toeplitz_radial_eigs(zeta, 0, b, 130, log_scale=True)
    for k in (0, 7, 40, 129):
        t = np.linspace(1e-9, 80.0, 400_001)
        ln_f = k * np.log(t) - t - t * t
        m = ln_f.max()
        val = math.log(np.trapezoid(np.exp(ln_f - m), t)) + m - gammaln(k + 1.0)
        assert logs[k] == pytest.approx(val, abs=1e-8)


# ---------------------------------------------------------------------------
# level-basis assembly


def test_assemble_zero_symbol_gives_landau_levels():
    V = sy.separable_symbol(1.5, [])
    rep = op.eig_hermitian(op.assemble_hv(V, 4, 6))
    expect = np.repeat(op.landau_levels(1.5, 4), 6)
    assert np.abs(np.sort(rep.eigenvalues) - np.sort(expect)).max() < 1e-12
    for q in range(4):
        assert rep.gap_count(q, "-") == 0 and rep.gap_count(q, "+") == 0
    # clusters carry the multiplicity
    assert [m for _, m in rep.clusters()] == [6, 6, 6, 6]


def test_assemble_single_level_block_matches_weyl_matrix():
    # pulled symbol 2 pi Psi_{q0} (x) v: only the q0 block is nonzero and its
    # spectrum matches the 2-D truncation of v
    vprof = sy.gaussian(0.5, amplitude=0.6)
    q0, Q, K, b = 1, 3, 8, 1.0
    V = sy.separable_symbol(b, [(2 * np.pi,
                                 sy.radial_symbol(sy.diag_kernel_profile(q0)),
                                 sy.radial_symbol(vprof))])
    H = op.assemble_hv(V, Q, K, sign=+1).matrix
    lam = op.landau_levels(b, Q)
    blocks = H.reshape(Q, K, Q, K)
    for q in range(Q):
        for r in range(Q):
            blk = blocks[q, :, r, :]
            if q == r == q0:
                continue
            off = blk - np.diag(np.full(K, lam[q])) * (q == r)
            assert np.abs(off).max() < 1e-9
    shifted = np.linalg.eigvalsh(blocks[q0, :, q0, :]) - lam[q0]
    mu = np.sort(op.weyl_radial_eigs(vprof, K))
    assert np.abs(np.sort(shifted) - mu).max() < 1e-9


def test_assemble_phase_invariance():
    # spectra with and without the i^(k-l) phases coincide: conjugation by
    # the diagonal unitary diag(i^k)
    vprof = sy.laguerre_mix([0.5, 0.3, -0.2], amplitude=0.4)
    M = op.kernel_pair_matrix(sy.radial_symbol(vprof), 10)
    ph = np.array([1, 1j, -1, -1j])[np.arange(10) % 4]
    conj = ph[:, None] * M * np.conj(ph)[None, :]
    e1 = np.linalg.eigvalsh(M)
    e2 = np.linalg.eigvalsh(conj)
    assert np.abs(e1 - e2).max() < 1e-12


def test_assemble_scaling_monotonicity():
    V1, _ = op.prescribed_gap_symbol(1.0, [2], [0.8], [0.5, 0.25])
    lam1 = op.eig_hermitian(op.assemble_hv(V1, 2, 6, sign=-1)).eigenvalues
    scaled = sy.separable_symbol(1.0, [(3.0 * c, A, B) for c, A, B in V1.terms])
    lam3 = op.eig_hermitian(op.assemble_hv(scaled, 2, 6, sign=-1)).eigenvalues
    # eigenvalue shifts off the levels scale linearly
    lev = np.repeat(op.landau_levels(1.0, 2), 6)
    assert np.abs(np.sort(lam3 - np.sort(lev)) - 3.0 * np.sort(lam1 - np.sort(lev))).max() < 1e-9


def test_assemble_generic_matches_separable():
    vprof = sy.gaussian(0.7, amplitude=0.4)
    terms = [(2 * np.pi, sy.radial_symbol(sy.diag_kernel_profile(0)),
              sy.radial_symbol(vprof))]
    V = sy.separable_symbol(1.0, terms)
    Vgen = sy.generic_symbol_4d(1.0, V.evaluate_lab)
    Hs = op.assemble_hv(V, 2, 4, sign=+1).matrix
    Hg = op.assemble_hv(Vgen, 2, 4, sign=+1, order=28).matrix
    assert np.abs(Hs - Hg).max() < 1e-7


def _dense_hv(V, Q, K, sign, order=None):
    """Level-basis H from Kronecker products of the 2-D pairing matrices."""
    M = sum(c * np.kron(op.kernel_pair_matrix(A, Q, order=order),
                        op.kernel_pair_matrix(B, K, order=order)) for c, A, B in V.terms)
    H = np.diag(np.repeat(op.landau_levels(V.b, Q), K)).astype(complex) + sign * M
    return op.TruncatedOperator("landau", H, b=V.b, levels=Q, radial=K)


@pytest.mark.parametrize("profile", [
    sy.gaussian(0.5, amplitude=0.7),
    sy.power(3.0),
    sy.exp_beta(0.8, 2.0),
    sy.laguerre_mix([0.5, 0.3, -0.2]),
    sy.poly_gauss([1.0, -0.5, 0.2], 0.6),
    sy.constant(0.7),
    sy.diag_kernel_profile(2),
], ids=["gaussian", "power", "exp_beta", "laguerre_mix", "poly_gauss", "constant",
        "level_kernel"])
def test_radial_diagonal_matches_dense_pairings(profile):
    # order 200: the default 80-node pairing is off by 1e-6 for exp_beta(0.8, 2)
    Q, K = 4, 10
    V = sy.separable_symbol(1.3, [
        (1.7, sy.radial_symbol(profile), sy.radial_symbol(profile)),
        (-0.4, sy.radial_symbol(sy.gaussian(0.3)), sy.radial_symbol(profile))])
    T = op.assemble_hv(V, Q, K, sign=-1)
    assert T.provenance["route"] == "radial-diagonal"
    dense = _dense_hv(V, Q, K, -1, order=200).matrix
    assert np.abs(T.matrix - dense).max() < 1e-11
    # the trust radius reads the boundary couplings of the dense matrix
    M0 = np.abs(dense - np.diag(np.repeat(op.landau_levels(1.3, Q), K))).reshape(Q, K, Q, K)
    boundary = max(M0[:, K - 1].max(), M0[:, :, :, K - 1].max(),
                   M0[Q - 1].max(), M0[:, :, Q - 1].max())
    assert T.provenance["trust_radius"] == pytest.approx(10 * boundary, rel=1e-9, abs=1e-10)
    assert T.provenance["max_coupling"] == pytest.approx(M0.max(), rel=1e-9)


def test_assemble_routes_follow_structure():
    gauss = sy.gaussian(0.6, amplitude=0.5)
    A = sy.radial_symbol(sy.diag_kernel_profile(0))
    radial = sy.separable_symbol(1.0, [(2 * np.pi, A, sy.radial_symbol(gauss))])
    # the same Gaussian written as a one-mode angular symbol
    angular = sy.separable_symbol(1.0, [(2 * np.pi, A, sy.angular_symbol(
        {0: lambda r: gauss(r * r)}))])
    generic = sy.generic_symbol_4d(1.0, radial.evaluate_lab)
    Tr = op.assemble_hv(radial, 2, 4, sign=+1)
    Ta = op.assemble_hv(angular, 2, 4, sign=+1)
    Tg = op.assemble_hv(generic, 2, 4, sign=+1, order=28)
    assert [T.provenance["route"] for T in (Tr, Ta, Tg)] == \
        ["radial-diagonal", "dense-separable", "generic"]
    assert np.abs(Tr.matrix - Ta.matrix).max() < 1e-10
    assert np.abs(Tr.matrix - Tg.matrix).max() < 1e-7
    assert Tr.provenance["trust_radius"] == pytest.approx(
        Ta.provenance["trust_radius"], rel=1e-9)


def test_assemble_generic_cap():
    V = sy.generic_symbol_4d(1.0, lambda x, y, xi, eta: 0.0 * np.asarray(x))
    with pytest.raises(ValueError):
        op.assemble_hv(V, 7, 7)


def test_eig_hermitian_small_matrices():
    T = op.TruncatedOperator("hermite", np.eye(3, dtype=complex))
    assert np.allclose(op.eig_hermitian(T).eigenvalues, 1.0)
    T2 = op.TruncatedOperator("hermite", np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(op.eig_hermitian(T2).eigenvalues, [-1.0, 1.0])
    bad = op.TruncatedOperator("hermite", np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        op.eig_hermitian(bad)


def test_eig_hermitian_diagonal_matches_dense_eigensolve():
    terms = [(1.3, sy.radial_symbol(sy.gaussian(0.4)), sy.radial_symbol(sy.gaussian(0.7))),
             (-0.6, sy.radial_symbol(sy.power(2.0)), sy.radial_symbol(sy.gaussian(0.9)))]
    H = op.assemble_hv(sy.separable_symbol(1.2, terms), 6, 16, sign=-1)
    M = H.matrix
    assert np.count_nonzero(M - np.diag(M.diagonal())) == 0
    dense = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    assert np.abs(op.eig_hermitian(H).eigenvalues - dense).max() < 1e-12
    # one off-diagonal pair takes the dense eigensolve
    M2 = M.copy()
    M2[0, 5] = M2[5, 0] = 0.3
    T = op.TruncatedOperator("landau", M2, b=H.b, levels=H.levels, radial=H.radial)
    dense = np.linalg.eigvalsh(M2)
    got = op.eig_hermitian(T).eigenvalues
    assert np.abs(got - dense).max() < 1e-12
    assert np.abs(got - np.sort(M2.diagonal().real)).max() > 1e-3


def test_gap_counts_recountable():
    V, _ = op.prescribed_gap_symbol(1.0, [2, 0, 1], [0.8, 0.5, 0.3], [0.5, 0.25])
    rep = op.eig_hermitian(op.assemble_hv(V, 5, 8, sign=-1))
    assert [w["count"] for w in rep.windows] == [w["count"] for w in rep.recount()]
    assert [rep.gap_count(q, "-") for q in range(3)] == [2, 0, 1]
    with pytest.raises(KeyError):
        rep.gap_count(17, "-")


# ---------------------------------------------------------------------------
# positivity reports


def test_positivity_weyl():
    rep = op.positivity_laguerre_weyl(sy.gaussian(1.0, amplitude=1 / np.pi), 10)
    assert rep.all_nonneg
    assert rep.coefficients[0] == pytest.approx(1 / np.pi, rel=1e-10)
    flipped = op.positivity_laguerre_weyl(
        sy.laguerre_mix([0.0, 1.0 / np.pi], amplitude=-2.0 * np.pi), 10)
    assert not flipped.all_nonneg and flipped.first_negative_index == 1
    assert flipped.coefficients[1] == pytest.approx(-2.0, rel=1e-9)
    # anti-Wick of a nonnegative profile is nonnegative after smoothing
    smooth = sy.antiwick_to_weyl(sy.radial_symbol(sy.disk_indicator(1.0)))
    assert op.positivity_laguerre_weyl(smooth.profile, 10).all_nonneg


def test_positivity_antiwick():
    assert op.positivity_laguerre_antiwick(sy.exp_beta(0.5, 1.2), 8).all_nonneg
    rep = op.positivity_laguerre_antiwick(sy.custom(lambda s: 1.0 - s), 6)
    assert rep.first_negative_index == 0
    # Gamma moments: 1 - 2(k+1)
    expect = 1.0 - 2.0 * (np.arange(6) + 1.0)
    assert np.abs(rep.coefficients - expect).max() < 1e-10
    rep2 = op.positivity_laguerre_antiwick(sy.gaussian(1.0), 8)
    assert rep2.all_nonneg


# ---------------------------------------------------------------------------
# prescribed gaps and the sandwich


def test_prescribed_gap_symbol_validation():
    with pytest.raises(ValueError):
        op.prescribed_gap_symbol(1.0, [1, 1], [0.5, 0.8], [0.5])     # not decreasing
    with pytest.raises(ValueError):
        op.prescribed_gap_symbol(1.0, [0, 1], [0.5, 2.1], [0.5])     # >= 2b at q=1
    with pytest.raises(ValueError):
        op.prescribed_gap_symbol(1.0, [1], [0.5], [1.5])             # index scale > 1
    with pytest.raises(ValueError, match="not enough level scales"):
        op.prescribed_gap_symbol(1.0, [1, 1], [0.5], [0.5])
    # level 0 may exceed 2b
    V, pred = op.prescribed_gap_symbol(1.0, [1], [3.0], [0.5])
    assert pred == [(0, 0, pytest.approx(1.0 - 1.5))]


def test_prescribed_gap_symbol_empty():
    V, pred = op.prescribed_gap_symbol(1.0, [0, 0, 0], [0.8, 0.5, 0.3], [0.5])
    assert V.terms == () and pred == []
    rep = op.eig_hermitian(op.assemble_hv(V, 3, 4, sign=-1))
    assert all(w["count"] == 0 for w in rep.windows)


def test_prescribed_gap_spectrum():
    b = 1.0
    V, pred = op.prescribed_gap_symbol(b, [1], [b], [0.5])
    rep = op.eig_hermitian(op.assemble_hv(V, 3, 8, sign=-1))
    assert rep.gap_count(0, "-") == 1
    assert np.abs(rep.eigenvalues - (b - 0.5 * b)).min() < 1e-8


def test_birman_schwinger_sandwich_small():
    res = op.birman_schwinger_check(sy.gaussian(0.25), r=0, q=0, b=1.0,
                                    levels=2, radial=40, k_range=(5, 20))
    assert not res["vacuous"]
    assert res["epsilon"] <= 0.25 and res["k0"] <= 3
    # both routes essentially coincide for this fixture
    assert np.abs(res["shifts_minus"][5:20] / res["nu"][5:20] - 1).max() < 1e-6


def test_birman_schwinger_level_shifted_fixture():
    # r = 1: the compressed weight lives one level up
    res = op.birman_schwinger_check(sy.gaussian(0.25), r=1, q=0, b=1.0,
                                    levels=2, radial=40, k_range=(4, 14))
    assert res["epsilon"] <= 0.25 and res["k0"] <= 3


def test_birman_schwinger_matches_numeric_smoothing():
    # the anti-Wick sequence of vt against the dense pairing of the smoothed v
    zeta, r, q, b, levels, radial, order = sy.gaussian(0.25), 1, 0, 1.0, 2, 24, 32
    res = op.birman_schwinger_check(zeta, r=r, q=q, b=b, levels=levels, radial=radial,
                                    k_range=(4, 10), order=order)
    omega = sy.laguerre_laplacian(sy.radial_symbol(zeta), b, r)
    v = sy.antiwick_to_weyl(sy.radial_symbol(omega.profile.with_arg_scale(1.0 / b)))
    V = sy.separable_symbol(b, [(2 * np.pi, sy.radial_symbol(sy.diag_kernel_profile(q)), v)])
    for sign, key in ((+1, "shifts_plus"), (-1, "shifts_minus")):
        rep = op.eig_hermitian(_dense_hv(V, levels, radial, sign, order=order))
        ref = op._gap_shifts(rep, q, sign)[:11]
        assert np.abs(res[key] / ref - 1).max() < 1e-9

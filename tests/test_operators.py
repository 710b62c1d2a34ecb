import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaln

from landauspec import operators as op
from landauspec import quadrature as qd
from landauspec import symbols as sy
from landauspec.specfun import hermite_fn, laguerre_fn_sq_log, log_gammainc_lower
from reference_routes import laguerre, radial_gauss_convolution


def gaussian_weyl_exact(a, amp, count):
    """Gamma-integral oracle: mu_k of the radial symbol amp e^{-a s}."""
    k = np.arange(count)
    return amp * (1 - a) ** k / (1 + a) ** (k + 1.0)


# ---------------------------------------------------------------------------
# Hermite-basis matrices


def test_weyl_matrix_constant_is_identity():
    M = op.weyl_matrix(sy.constant(2.5), 8)
    assert np.abs(M - 2.5 * np.eye(8)).max() < 1e-10


def test_weyl_matrix_rank_one_projection():
    # 2 pi Psi_0 is the symbol of the projection onto the ground state
    v = sy.gaussian(1.0, amplitude=2.0)
    M = op.weyl_matrix(v, 10)
    assert M[0, 0].real == pytest.approx(1.0, abs=1e-9)
    off = M.copy()
    off[0, 0] = 0.0
    assert np.abs(off).max() < 1e-9
    eigs = np.linalg.eigvalsh(M)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.abs(eigs[:-1]).max() < 1e-9


def test_pair_phase_fault_reaches_the_dense_pairing():
    # the pairing takes its phase from wigner.pair_phase, the planted fault's hook;
    # an angular symbol odd in theta, v = -2 xi e^(-s), reads the flipped phase
    from landauspec import wigner
    v = sy.angular_symbol({1: lambda r: 1j * r * np.exp(-r * r),
                           -1: lambda r: -1j * r * np.exp(-r * r)})
    clean = op.weyl_matrix(v, 6)
    with wigner.inject_fault("pair_phase_sign"):
        faulty = op.weyl_matrix(v, 6)
    assert np.abs(clean - faulty).max() > 0.1


def test_weyl_matrix_radial_is_diagonal():
    for prof in (sy.gaussian(0.3), sy.laguerre_mix([0.5, 0.2, -0.1])):
        M = op.weyl_matrix(prof, 14)
        d = np.abs(np.diag(M)).max()
        off = np.abs(M - np.diag(np.diag(M))).max()
        assert off < 1e-9 * d
        assert np.abs(M - M.conj().T).max() < 1e-10 * np.linalg.norm(M)


def test_weyl_matrix_of_a_profile_is_its_one_mode_angular_symbol():
    # a profile evaluates on R^2 as R(x^2 + xi^2): the dense route reads it as
    # it reads the same Gaussian written as an angular expansion
    gauss = sy.gaussian(0.6)
    M = op.weyl_matrix(gauss, 12)
    A = op.weyl_matrix(sy.angular_symbol({0: lambda r: gauss(r * r)}), 12)
    assert np.abs(M - A).max() < 1e-12


def test_weyl_matrix_kernel_integral_oracle():
    # fully independent route: triple quadrature of the quantization kernel
    #   <op(F) psi_l, psi_k> = (2 pi)^-1 int F(u, xi) e^{i v xi}
    #                          psi_l(u - v/2) psi_k(u + v/2) du dv dxi
    # for the angular symbol F = x e^{-(x^2 + xi^2)}
    F = sy.angular_symbol({1: lambda r: 0.5 * r * np.exp(-r * r),
                           -1: lambda r: 0.5 * r * np.exp(-r * r)})
    n = 4
    T = op.weyl_matrix(F, n)

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
    # cos(60 s) neither decays nor is resolved by any order up to the cap
    wild = sy.custom(lambda s: np.cos(60.0 * s))
    with pytest.raises(qd.QuadratureAccuracyError, match="not settled by order 1280"):
        op.weyl_matrix(wild, 2)
    # n = 400 would start at order 816, past the last order that can be doubled
    with pytest.raises(qd.QuadratureAccuracyError, match="would start at order 816"):
        op.weyl_matrix(sy.gaussian(1.0), 400)


def test_unsettled_pairing_matrix_stays_below_100_mb():
    # the tensor rule runs in row blocks, so an order-1280 grid of symbol
    # values, phases and sweep values (about 245 MB) is never held at once.
    # A process's ru_maxrss also counts the image of the process that spawned
    # it, so a bare interpreter spawns this one.
    code = ("import resource, numpy as np\n"
            "from landauspec import operators, quadrature, symbols\n"
            "try:\n"
            "    operators.weyl_matrix(symbols.custom(lambda s: np.cos(60.0 * s)), 2)\n"
            "except quadrature.QuadratureAccuracyError:\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    launch = ("import subprocess, sys; print(subprocess.run([sys.executable, '-c', sys.argv[1]], "
              "check=True, capture_output=True, text=True).stdout)")
    src = str(Path(op.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", launch, code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert 0 < int(out) < 100 * 1024        # ru_maxrss in KiB


@pytest.mark.parametrize("prof", [sy.exp_beta(0.8, 2.0), sy.power(3.0)],
                         ids=["exp_beta", "power"])
def test_weyl_matrix_default_diagonal_matches_radial_eigs(prof):
    # at order max(80, 2n + 16) alone the diagonal was off by 1.0e-6 (exp_beta)
    # and 5.4e-8 (power); the doubling goes on until two orders agree
    M = op.weyl_matrix(prof, 10)
    assert np.abs(np.real(np.diag(M)) - op.weyl_radial_eigs(prof, 10)).max() < 1e-10


def test_hilbert_schmidt_identity():
    # F = 2 pi Psi_0: squared Frobenius mass 1 equals (2 pi)^-1 ||F||^2
    v = sy.gaussian(1.0, amplitude=2.0)
    mat, sym = op.hilbert_schmidt_check(v, 12)
    assert mat == pytest.approx(1.0, abs=1e-9)
    assert sym == pytest.approx(1.0, abs=1e-9)
    z = sy.constant(0.0)
    assert op.hilbert_schmidt_check(z, 6) == (0.0, 0.0)
    g = sy.gaussian(0.5, amplitude=1.2)
    mat, sym = op.hilbert_schmidt_check(g, 64)
    assert mat == pytest.approx(sym, rel=1e-6)
    assert mat <= sym * (1 + 1e-9)   # truncation converges upward


def test_banded_structure():
    radial = sy.gaussian(0.4)
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
    T = op.weyl_matrix(penta, 10)
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


def test_weyl_radial_eigs_tabulated_mpmath_oracle():
    # mu_k = (-1)^k int R(u) L_k(2u) e^(-u) du on panels between the table
    # nodes, where Gauss-Laguerre misses the kinks
    grid, values = [0.0, 0.5, 1.0, 2.0], [1.0, 0.6, 0.2, 0.0]
    ks = [0, 3, 9, 40]
    mu = op.weyl_radial_eigs(sy.tabulated(grid, values), 41)
    with mp.workdps(30):
        oracle = [float((-1) ** k * sum(
            mp.quad(lambda u: (values[i] + (values[i + 1] - values[i]) * (u - a) / (c - a))
                    * mp.laguerre(k, 0, 2 * u) * mp.exp(-u), [a, c])
            for i, (a, c) in enumerate(zip(grid, grid[1:])))) for k in ks]
    assert np.abs(mu[ks] - oracle).max() < 1e-12


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
    diag = np.real(np.diag(op.weyl_matrix(prof, 33)))
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


def test_weyl_radial_eigs_fourier_route_tabulated():
    # the Hankel transform of a table integrates between its nodes: on one
    # Gauss-Laguerre rule the jump at s = 3 put mu_w_fourier off by up to 2.1e-3
    from scipy.integrate import quad
    from scipy.special import eval_laguerre
    grid, values = [0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.25, 0.1]
    tab = sy.tabulated(grid, values)
    oracle = [(-1) ** k * sum(
        quad(lambda u: np.interp(u, grid, values) * eval_laguerre(k, 2 * u) * np.exp(-u),
             a, c, epsabs=1e-14)[0] for a, c in zip(grid, grid[1:])) for k in range(4)]
    muf = op.weyl_radial_eigs_fourier(sy.fourier_radial_profile(tab), 64)
    assert np.abs(muf[:4] - oracle).max() < 1e-10
    assert np.abs(muf - op.weyl_radial_eigs(tab, 64)).max() < 1e-10


def test_antiwick_radial_eigs_gamma_oracle():
    mu = op.antiwick_radial_eigs(sy.gaussian(1.0), 20)
    assert np.abs(mu * 3.0 ** (np.arange(20) + 1.0) - 1).max() < 1e-12
    mu = op.antiwick_radial_eigs(sy.constant(0.8), 12)
    assert np.abs(mu - 0.8).max() < 1e-12


def test_antiwick_equals_weyl_of_smoothed():
    a = 0.1
    aw = op.antiwick_radial_eigs(sy.gaussian(a), 65)
    smoothed = sy.antiwick_to_weyl(sy.gaussian(a))
    w = op.weyl_radial_eigs(smoothed, 65)
    assert np.abs(aw / w - 1).max() < 1e-8


def test_antiwick_deep_moments():
    logs = np.log(op.antiwick_radial_eigs(sy.gaussian(1.0), 300))
    expect = -(np.arange(300) + 1.0) * math.log(3.0)
    assert np.abs(logs - expect).max() < 1e-10


def test_toeplitz_exponential_weight_exact():
    gam, b = 1.0, 2.0
    mu = gam * (2.0 / b)
    _, logs = op.toeplitz_radial_eigs(sy.exp_beta(gam, 1.0), 0, b, 120)
    expect = -(np.arange(120) + 1.0) * math.log1p(mu)
    assert np.abs(logs - expect).max() < 1e-11


def test_toeplitz_disk_incomplete_gamma_oracle():
    b, R = 2.0, 1.0
    rho = b * R * R / 2.0
    _, logs = op.toeplitz_radial_eigs(sy.disk_indicator(R * R), 0, b, 60)
    oracle = np.array([log_gammainc_lower(k + 1.0, rho) for k in range(60)])
    assert np.abs(logs - oracle).max() < 1e-11
    nu0 = math.exp(logs[0])
    assert nu0 == pytest.approx(1 - math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("cutoff", [50.0, 400.0, 1400.0])
def test_toeplitz_disk_past_the_rows_reach_incomplete_gamma_oracle(cutoff):
    # a support inside the rows' reach puts the mass of rows k = 0 and 400 at
    # the ends of the Legendre panel; its end weights must be exact there
    _, logs = op.toeplitz_radial_eigs(sy.disk_indicator(cutoff), 0, 1.0, 401)
    oracle = np.array([log_gammainc_lower(k + 1.0, cutoff / 2.0) for k in range(401)])
    assert np.abs(logs - oracle).max() < 1e-12


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
    sign, logs = op.toeplitz_radial_eigs(zeta, q, b, count)
    assert np.abs(logs[ks] - oracle).max() < 1e-11 and (sign == 1).all()


@pytest.mark.parametrize("gam,beta", [(1.0, 0.5), (0.7, 1.5)])
def test_small_k_moments_of_weights_rough_at_zero(gam, beta):
    # exp(-gam s^beta) with non-integer beta is not smooth at s = 0; b = 2
    # makes the Toeplitz and anti-Wick moments the same integrals
    ks = [0, 1, 2, 5]
    oracle = _mp_exp_beta_log_moments(gam, beta, 1, 0, ks)
    zeta = sy.exp_beta(gam, beta)
    _, logs = op.toeplitz_radial_eigs(zeta, 0, 2.0, 8)
    assert np.abs(logs[ks] - oracle).max() < 1e-11
    mu = op.antiwick_radial_eigs(sy.exp_beta(gam * 0.5 ** beta, beta), 8)
    assert np.abs(mu[ks] / np.exp(oracle) - 1).max() < 1e-11


@pytest.mark.parametrize("q,ks", [(0, [0, 50, 174, 175, 400]), (2, [0, 2, 60, 400])])
def test_toeplitz_tabulated_mpmath_oracle(q, ks):
    # linear between the nodes, 0 past the last: exact on panels between the
    # table nodes, where the log grid misses the kinks; nu_k underflows from k = 175
    grid, values = [0.0, 0.5, 1.0, 2.0], [1.0, 0.6, 0.2, 0.0]

    def weight(t):
        u = 2 * t
        i = min(int(np.searchsorted(grid, float(u), side="right")) - 1, len(grid) - 2)
        if u >= grid[-1]:
            return mp.mpf(0)
        return values[i] + (values[i + 1] - values[i]) * (u - grid[i]) / (grid[i + 1] - grid[i])

    oracle = np.array([_mp_log_compression(weight, q, k, [0, 0.25, 0.5, 1]) for k in ks])
    sign, logs = op.toeplitz_radial_eigs(sy.tabulated(grid, values), q, 1.0, 401)
    assert np.abs(logs[ks] - oracle).max() < 1e-11 and (sign == 1).all()


def test_wide_supports_take_a_laguerre_tail():
    # supports far past every Lcal_k and every row's integrand: a unit weight
    # gives mu_k = nu_k = 1 (one Legendre panel across [0, 1e6] read mu_k ~ 0)
    for prof in (sy.disk_indicator(1e6), sy.disk_indicator(1e13),
                 sy.tabulated([0.0, 1e6], [1.0, 1.0]),
                 sy.tabulated([0.0, 1.0, 1e6], [1.0, 1.0, 1.0])):
        for count in (10, 200):
            assert np.abs(op.weyl_radial_eigs(prof, count) - 1).max() < 1e-12, (prof, count)
        for count in (10, 401):
            sign, logs = op.toeplitz_radial_eigs(prof, 0, 1.0, count)
            assert np.abs(logs).max() < 1e-11 and (sign == 1).all(), (prof, count)


def test_long_tables_share_one_node_budget():
    # a table sparse enough keeps every breakpoint, the rule growing from its
    # size until each panel holds at least 8 nodes
    for n in (21, 101, 501):
        cuts = list(np.linspace(0.0, 40.0, n)[1:])
        t, w = qd.support_rule(cuts, 200, 200, 5000.0)
        assert np.histogram(t, [0.0] + cuts)[0].min() >= 8
        assert w.sum() == pytest.approx(40.0, rel=1e-13)
    # 20001 nodes of e^(-s/2) would need 20 MAX_ORDER for that: the rule stops
    # at MAX_ORDER, and breakpoints closer than 8 of its nodes are dropped
    g = np.linspace(0.0, 80.0, 20001)
    prof = sy.tabulated(g, np.exp(-0.5 * g))
    for budget in (200, 260):
        t, w = qd.support_rule([s / 2.0 for s in prof.breakpoints], budget, budget, 5000.0)
        assert t.size == w.size == qd.MAX_ORDER
    mu = op.weyl_radial_eigs(prof, 30)
    assert np.abs(mu - gaussian_weyl_exact(0.5, 1.0, 30)).max() < 1e-6
    _, logs = op.toeplitz_radial_eigs(prof, 0, 1.0, 20)
    assert np.abs(logs + (np.arange(20) + 1) * math.log(2.0)).max() < 1e-5


# R = e^(-s/2) (1 + 0.3 sin s) tabulated on [0, 20]: linear between the nodes
# and 0 past the last, a jump of about 6e-5 there
_TABLE_SIZES = [20, 100, 500]


def _table(n):
    g = np.linspace(0.0, 20.0, n)
    return g, np.exp(-0.5 * g) * (1.0 + 0.3 * np.sin(g))


@functools.lru_cache(maxsize=None)
def _table_moments(n, c, top, dps):
    """int R(s) s^j e^(-c s) ds, j < top, for the table of n nodes, exactly at dps digits.

    Linear on each panel, R = alpha + beta x in x = c s, so each panel adds
    alpha (gamma(j+1, x1) - gamma(j+1, x0)) + beta (gamma(j+2, x1) - gamma(j+2, x0)),
    over c^(j+1); gamma(j+1, x) runs down from mpmath's value at j = top by
    gamma(j, x) = (gamma(j+1, x) + x^j e^(-x)) / j, stable in that direction.
    """
    grid, values = _table(n)
    with mp.workdps(dps):
        c = mp.mpf(c)
        xs = [c * mp.mpf(float(g)) for g in grid]
        lower = []
        for x in xs:
            gam, term = [mp.gammainc(top + 1, 0, x)], x ** top * mp.exp(-x)
            for j in range(top, 0, -1):
                gam.append((gam[-1] + term) / j)
                term = term / x if x else term
            lower.append(gam[::-1])
        betas = [(float(v1) - mp.mpf(float(v0))) / (x1 - x0)
                 for v0, v1, x0, x1 in zip(values, values[1:], xs, xs[1:])]
        alphas = [float(v) - beta * x for v, beta, x in zip(values, betas, xs)]
        diffs = list(zip(*([b - a for a, b in zip(g0, g1)] for g0, g1 in zip(lower, lower[1:]))))
        return [(mp.fdot(alphas, diffs[j]) + mp.fdot(betas, diffs[j + 1])) / c ** (j + 1)
                for j in range(top)]


def _table_log_compression(n, q, count, dps):
    """ln nu_k of the table, b = 1: m!/(m+d)! sum_i p_i T_(i+d), p the coefficients of
    L_m^(d)(t)^2 and T_j = int R(2t) t^j e^(-t) dt = M_j(1/2) / 2^(j+1)."""
    moments = _table_moments(n, 0.5, count + q + 1, dps)
    out = []
    with mp.workdps(dps):
        for k in range(count):
            m, d = min(k, q), abs(k - q)
            lag = [(-1) ** i * mp.binomial(m + d, m - i) / mp.factorial(i) for i in range(m + 1)]
            sq = [mp.fsum(lag[i] * lag[p - i] for i in range(max(0, p - m), min(p, m) + 1))
                  for p in range(2 * m + 1)]
            nu = mp.fsum(c * moments[p + d] / 2 ** (p + d + 1) for p, c in enumerate(sq))
            out.append(float(mp.log(nu * mp.factorial(m) / mp.factorial(m + d))))
    return np.array(out)


def _table_weyl(n, count, dps):
    """mu_k = (-1)^k int R(u) L_k(2u) e^(-u) du from the exact moments at c = 1."""
    moments = _table_moments(n, 1.0, count, dps)
    with mp.workdps(dps):
        return np.array([float((-1) ** k * mp.fsum(
            (-2) ** i * mp.binomial(k, i) / mp.factorial(i) * moments[i] for i in range(k + 1)))
            for k in range(count)])


@pytest.mark.parametrize("n", _TABLE_SIZES)
def test_tabulated_moments_exact_oracle(n):
    # every breakpoint keeps its panel: one Legendre rule of fixed size had
    # dropped those closer than 8 of its nodes, 2.1e-4 off in ln nu at n = 100
    prof = sy.tabulated(*_table(n))
    for q in (0, 1):
        oracle = _table_log_compression(n, q, 60, 40)
        assert np.abs(oracle - _table_log_compression(n, q, 60, 60)).max() < 1e-14
        sign, logs = op.toeplitz_radial_eigs(prof, q, 1.0, 60)
        assert (sign == 1).all() and np.abs(logs - oracle).max() < 1e-12, q
    # the anti-Wick sequence is the level-0 compression at b = 1
    mu = op.antiwick_radial_eigs(prof, 60)
    assert np.abs(mu / np.exp(_table_log_compression(n, 0, 60, 60)) - 1.0).max() < 1e-12


@pytest.mark.parametrize("n", _TABLE_SIZES)
def test_tabulated_weyl_exact_oracle(n):
    # the Laguerre sums cancel to 1e-37 of their terms: 80 digits leave 40
    oracle = _table_weyl(n, 64, 80)
    scale = np.abs(oracle).max()
    assert np.abs(oracle - _table_weyl(n, 64, 100)).max() < 1e-16 * scale
    prof = sy.tabulated(*_table(n))
    mu = op.weyl_radial_eigs(prof, 64)
    assert np.abs(mu - oracle).max() < 1e-12 * scale
    # the Fourier column integrates the table against J_0 on the same panels
    muf = op.weyl_radial_eigs_fourier(sy.fourier_radial_profile(prof), 64)
    assert np.abs(muf - mu).max() < 1e-12 * scale


def test_tabulated_weyl_panel_quadrature_oracle():
    # mpmath quadrature on each panel of the 20-node table, a second route to
    # the exact moments above
    grid, values = _table(20)
    ks = [0, 5, 63]
    mu = op.weyl_radial_eigs(sy.tabulated(grid, values), 64)
    with mp.workdps(20):
        oracle = [float((-1) ** k * mp.fsum(mp.quad(
            lambda u: (v0 + (v1 - v0) * (u - a) / (c - a)) * mp.laguerre(k, 0, 2 * u)
            * mp.exp(-u), [a, c]) for a, c, v0, v1 in zip(grid, grid[1:], values, values[1:])))
            for k in ks]
    assert np.abs(mu[ks] - oracle).max() < 1e-12 * np.abs(mu).max()


def test_toeplitz_superexponential_higher_level_mpmath_oracle():
    # exp(-s^2), b = 1, q = 1: the integrand peaks far below t = k
    ks = [0, 1, 2, 50, 199]
    oracle = _mp_exp_beta_log_moments(1.0, 2.0, 2, 1, ks)
    _, logs = op.toeplitz_radial_eigs(sy.exp_beta(1.0, 2.0), 1, 1.0, 200)
    assert np.abs(logs[ks] - oracle).max() < 1e-11
    assert oracle[-1] == pytest.approx(-634.1413, abs=1e-4)


@pytest.mark.parametrize("q", [0, 1, 3, 16, 17, 40])
@pytest.mark.parametrize("b", [0.5, 2.0])
def test_constant_weight_reads_its_value_at_every_index(q, b):
    # int ell_m^(d)(t)^2 dt = 1, so a constant c reads nu_k = c: a square root
    # or factorial dropped from the sweep or its seed would show at every k.
    # Row q goes alone and blocks of 1, 2, 4, 8 and then 16 rows on each side
    # of it: the counts end inside, at and past each block boundary, and
    # q = 40 lies past the last row of all but count 300
    for count in (1, 2, 15, 17, 33, 300):
        sign, logs = op.toeplitz_radial_eigs(sy.constant(0.7), q, b, count)
        assert (sign == 1.0).all(), count
        assert np.abs(logs - math.log(0.7)).max() < 1e-12, count


def test_row_blocks_tile_the_rows():
    for q, count in itertools.product((0, 1, 3, 16, 17, 40), (1, 2, 15, 17, 33, 300)):
        blocks = op._row_blocks(q, count)
        rows = [k for k0, k1 in blocks for k in range(k0, k1)]
        assert sorted(rows) == list(range(count)), (q, count)
        assert all(k1 - k0 <= 16 for k0, k1 in blocks)
        assert ((q, q + 1) in blocks) == (q < count)


class _ExpCounter:
    """numpy, with the number of values passed to np.exp counted."""

    def __init__(self):
        self.values = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.values += np.size(x)
        return np.exp(x, *args, **kwargs)


@pytest.mark.parametrize("q,count,most", [(0, 64, 35_000), (1, 15, 20_000)])
def test_moment_kernel_work(monkeypatch, q, count, most):
    # only row q runs on the whole log grid (3368 nodes here); the block of 16
    # that held it used to, 68,016 and 50,145 exponentials for these two calls
    args = (sy.gaussian(0.25), q, 1.0, count)
    op.toeplitz_radial_eigs(*args)          # the grid is built (and cached) outside the count
    counter = _ExpCounter()
    monkeypatch.setattr(op, "np", counter)
    op.toeplitz_radial_eigs(*args)
    assert counter.values <= most


def test_constant_weight_antiwick_reads_its_value():
    assert np.abs(op.antiwick_radial_eigs(sy.constant(0.7), 300) - 0.7).max() < 1e-12


def test_toeplitz_gaussian_closed_forms_under_strong_decay():
    k = np.arange(300)
    # q = 1, mu = 2a/b = 4: ln(k s^2 - 2ks + k + 1) - (k+2) ln s, s = 1 + mu
    s = 5.0
    _, logs = op.toeplitz_radial_eigs(sy.gaussian(2.0), 1, 1.0, 300)
    expect = np.log(k * s * s - 2 * k * s + k + 1) - (k + 2) * np.log(s)
    assert np.abs(logs - expect).max() < 1e-11
    # q = 0, a = 20: -(k+1) ln(1 + 2a/b)
    _, logs = op.toeplitz_radial_eigs(sy.gaussian(20.0), 0, 1.0, 300)
    assert np.abs(logs + (k + 1) * math.log(41.0)).max() < 1e-11


def _full_grid_moments(profile, q, scale, count, in_logs=False):
    """The moment kernel before windowing: every row on the whole log grid,
    one Laguerre sweep per row (reference for `_radial_moments`).
    Returns nu_k, or with in_logs=True ln nu_k summed in log space (positive
    profiles only)."""
    t, ln_t, lead = op._log_grid(count + q)
    if in_logs:
        lead = lead + profile.log_abs(scale * t)[0]
    else:
        values = np.atleast_1d(profile(scale * t))
    out = np.empty(count)
    for k0 in range(0, count, 16):
        ks = np.arange(k0, min(k0 + 16, count))
        m, d = np.minimum(ks, q), np.abs(ks - q)
        # ln (weight ell_0^(d)(t)^2), then the sweep to ell_m^(d)
        terms = d[:, None] * ln_t + lead - np.array([math.lgamma(c + 1.0) for c in d])[:, None]
        for row, (a, c) in enumerate(zip(m, d)):
            if a:
                terms[row] = laguerre_fn_sq_log(int(a), float(c), t, terms[row])
        if in_logs:
            peak = terms.max(axis=1)
            shift = np.where(np.isfinite(peak), peak, 0.0)
            with np.errstate(divide="ignore"):
                out[ks] = shift + np.log(np.exp(terms - shift[:, None]).sum(axis=1))
        else:
            out[ks] = np.exp(terms) @ values
    return out


_WINDOW_PROFILES = [sy.gaussian(0.4), sy.power(2.0), sy.exp_beta(1.0, 0.5),
                    sy.exp_beta(0.8, 2.0)]
# signed against the linear sum: a negative amplitude, sign changes, a high
# degree, and two tables run as custom kinds (a table itself integrates on
# panels between its nodes), one with a zero stretch and one with a bump
# narrower than a coarse step
_LINEAR_PROFILES = [sy.gaussian(0.4, amplitude=-1.5),
                    sy.custom(sy.tabulated([0, 1, 2, 4, 8, 30], [1.0, 0.5, 0.0, 0.0, 0.3, 0.1])),
                    sy.poly_gauss([1.0, -3.0, 0.5, 0.2], 0.4),
                    sy.diag_kernel_profile(40),
                    sy.custom(sy.tabulated([0, 1, 2, 49.9, 50, 50.1],
                                           [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]))]


@pytest.mark.parametrize("q", [0, 1, 3, 40])
def test_windowed_moments_match_full_grid(q):
    # the coarse pass, the 60-nat windows and the block recurrence against
    # every row summed over the whole grid.  Past |ln nu| = 512 one unit in
    # the last place is 1.1e-13, so sums that differ in their last bit may
    # round one unit apart.  Where R changes sign, nu is held to 1e-13 of the
    # moment of |R| (the same as of nu where R keeps its sign), plus the
    # eps |ln nu| |nu| that exp() adds to a value read from its log.
    b = 1.0
    counts = (1, 8, 17, 300)
    for prof, count in itertools.product(_WINDOW_PROFILES, counts):
        sign, got = op.toeplitz_radial_eigs(prof, q, b, count)
        want = _full_grid_moments(prof, q, 2.0 / b, count, in_logs=True)
        assert (sign == 1).all(), (prof, count)
        assert (np.abs(got - want) <= 1e-13 + np.spacing(np.abs(want))).all(), (prof, count)
    for prof, count in itertools.product(_LINEAR_PROFILES, counts):
        sign, log_nu = op.toeplitz_radial_eigs(prof, q, b, count)
        got = sign * np.exp(log_nu)
        want = _full_grid_moments(prof, q, 2.0 / b, count)
        size = _full_grid_moments(sy.custom(lambda s: np.abs(prof(s))), q, 2.0 / b, count)
        cond = np.finfo(float).eps * np.abs(log_nu) * np.abs(got)
        assert (np.abs(got - want) <= 1e-13 * size + cond).all(), (prof, count)


def test_log_grid_truncation_raises():
    # the k = 0 integrand peaks at t = 1/(1 + 2a/b) ~ e^-63.5, below the
    # grid's e^-60
    with pytest.raises(qd.QuadratureAccuracyError, match="log grid"):
        op.toeplitz_radial_eigs(sy.gaussian(1e27), 0, 1.0, 10)
    # the k = 0 tail falls like t below its peak: at a = 1e8 (peak e^-19.1)
    # it has 40 nats to fall before e^-60
    _, logs = op.toeplitz_radial_eigs(sy.gaussian(1e8), 0, 1.0, 10)
    assert np.abs(logs + (np.arange(10) + 1) * math.log1p(2e8)).max() < 1e-11
    # a Legendre panel has no grid ends to check
    assert np.isfinite(op.toeplitz_radial_eigs(sy.disk_indicator(1e-30), 0, 1.0, 10)[1]).all()


@pytest.mark.parametrize("q", [0, 2])
def test_zero_weight_moments_are_zero_without_warning(q):
    # every row is 0 at every node (peak -inf): no margin to check, no
    # RuntimeWarning (the suite turns one into an error), nu_k = 0
    sign, logs = op.toeplitz_radial_eigs(sy.constant(0.0), q, 1.0, 4)
    assert (sign == 0).all() and (logs == -np.inf).all()
    assert (op.antiwick_radial_eigs(sy.gaussian(1.0, amplitude=0.0), 4) == 0).all()


def test_toeplitz_higher_level_2d_quadrature_oracle():
    zeta = sy.gaussian(0.3)
    b, q = 1.0, 2
    sign, log_nu = op.toeplitz_radial_eigs(zeta, q, b, 33)
    nu = sign * np.exp(log_nu)
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
    _, ln_nu = op.toeplitz_radial_eigs(sy.gaussian(0.5), q, 1.0, 400)
    assert np.isfinite(ln_nu).all()
    for k in (250, 399):
        assert ln_nu[k] == pytest.approx(math.log(_exact_gaussian_half_moment(k, q)),
                                         abs=1e-11)


def test_toeplitz_level_shift_identity():
    # <(I + Lap/2b) zeta phi_{k,0}, phi_{k,0}> = <zeta phi_{k,1}, phi_{k,1}>
    for b in (1.0, 2.0):
        zeta = sy.gaussian(0.3)
        sign, log_lhs = op.toeplitz_radial_eigs(
            sy.laguerre_laplacian(zeta, b, 1), 0, b, 21)
        lhs = sign * np.exp(log_lhs)
        sign, log_rhs = op.toeplitz_radial_eigs(zeta, 1, b, 21)
        rhs = sign * np.exp(log_rhs)
        assert np.abs(lhs / rhs - 1).max() < 1e-7


def test_toeplitz_superexponential_vs_dense_grid_oracle():
    # beta = 2: the extra decay moves the peak far below t = k; oracle: brute trapezoid
    zeta = sy.exp_beta(1.0, 2.0)
    b = 2.0
    _, logs = op.toeplitz_radial_eigs(zeta, 0, b, 130)
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
                                 sy.diag_kernel_profile(q0),
                                 vprof)])
    H = op.assemble_hv(V, Q, K, sign=+1).diagonal
    lam = op.landau_levels(b, Q)
    for q in range(Q):
        if q != q0:
            assert np.abs(H[q] - lam[q]).max() < 1e-9
    shifted = H[q0] - lam[q0]
    mu = np.sort(op.weyl_radial_eigs(vprof, K))
    assert np.abs(np.sort(shifted) - mu).max() < 1e-9


def test_assemble_phase_invariance():
    # spectra with and without the i^(k-l) phases coincide: conjugation by
    # the diagonal unitary diag(i^k)
    vprof = sy.laguerre_mix([0.5, 0.3, -0.2], amplitude=0.4)
    M = op.weyl_matrix(vprof, 10)
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


def _dense_hv(V, Q, K, sign):
    """Dense level-basis H from Kronecker products of the 2-D pairing matrices."""
    M = sum(c * np.kron(op.weyl_matrix(A, Q), op.weyl_matrix(B, K)) for c, A, B in V.terms)
    return np.diag(np.repeat(op.landau_levels(V.b, Q), K)).astype(complex) + sign * M


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
    Q, K = 4, 10
    V = sy.separable_symbol(1.3, [
        (1.7, profile, profile),
        (-0.4, sy.gaussian(0.3), profile)])
    H = op.assemble_hv(V, Q, K, sign=-1)
    dense = _dense_hv(V, Q, K, -1)
    assert np.abs(np.diag(H.diagonal.ravel()) - dense).max() < 1e-11
    # the trust radius reads the boundary couplings of the dense matrix
    M0 = np.abs(dense - np.diag(np.repeat(op.landau_levels(1.3, Q), K))).reshape(Q, K, Q, K)
    boundary = max(M0[:, K - 1].max(), M0[:, :, :, K - 1].max(),
                   M0[Q - 1].max(), M0[:, :, Q - 1].max())
    assert H.trust_radius == pytest.approx(10 * boundary, rel=1e-9, abs=1e-10)


def test_gap_counts_recountable():
    V, _ = op.prescribed_gap_symbol(1.0, [2, 0, 1], [0.8, 0.5, 0.3], [0.5, 0.25])
    rep = op.eig_hermitian(op.assemble_hv(V, 5, 8, sign=-1))
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
    smooth = sy.antiwick_to_weyl(sy.disk_indicator(1.0))
    assert op.positivity_laguerre_weyl(smooth, 10).all_nonneg


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
    # the anti-Wick sequence of vt against the Weyl sequence of v, smoothed
    # numerically by the polar sum (radial-diagonal against dense pairings is
    # test_radial_diagonal_matches_dense_pairings)
    zeta, r, q, b, levels, radial = sy.gaussian(0.25), 1, 0, 1.0, 2, 24
    res = op.birman_schwinger_check(zeta, r=r, q=q, b=b, levels=levels, radial=radial,
                                    k_range=(4, 10))
    omega = sy.laguerre_laplacian(zeta, b, r)
    v = radial_gauss_convolution(omega)         # vt(s) = omega(s / b) is omega at b = 1
    V = sy.separable_symbol(b, [(2 * np.pi, sy.diag_kernel_profile(q), v)])
    for sign, key in ((+1, "shifts_plus"), (-1, "shifts_minus")):
        rep = op.eig_hermitian(op.assemble_hv(V, levels, radial, sign=sign))
        ref = op._gap_shifts(rep, q, sign)[:11]
        assert np.abs(res[key] / ref - 1).max() < 1e-9


@pytest.mark.parametrize("b", [0.8, 1.25, 3.0])
@pytest.mark.parametrize("r", [0, 1])
def test_sandwich_sequence_is_the_level0_compression(r, b):
    # the anti-Wick sequence of vt(s) = omega(s / b), with the dilation folded
    # into the parameters by hand, is the level-0 Toeplitz sequence of omega
    rate, n = 0.25, 40
    omega = sy.laguerre_laplacian(sy.gaussian(rate), b, r)
    if r == 0:
        vt = sy.gaussian(rate / b)
    else:
        vt = sy.poly_gauss([c * b ** -j for j, c in enumerate(omega.coeffs)], rate / b)
    sign, log_nu = op.toeplitz_radial_eigs(omega, 0, b, n)
    mu = op.antiwick_radial_eigs(vt, n)
    assert np.abs(sign * np.exp(log_nu) / mu - 1).max() < 1e-13

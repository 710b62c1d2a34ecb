import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landauspec import quadrature as qd
from landauspec import specfun as sf
from reference_routes import laguerre


def test_hermite_fn_values():
    assert sf.hermite_fn(0, 0.0) == pytest.approx(np.pi ** -0.25, rel=1e-15)
    assert sf.hermite_fn(1, 0.0) == 0.0


@given(st.integers(0, 60), st.floats(-8, 8))
@settings(max_examples=60, deadline=None)
def test_hermite_fn_parity(q, x):
    left = sf.hermite_fn(q, -x)
    right = (-1.0) ** q * sf.hermite_fn(q, x)
    assert left == pytest.approx(right, abs=1e-15)


def test_hermite_fn_orthonormality_quadrature():
    # Gauss-Hermite oracle: <psi_j, psi_k> = delta_jk
    nodes, weights = qd.gauss_hermite(2 * 50 + 4)
    vals = list(sf.hermite_fn_iter(nodes, 50))
    for j in range(0, 51, 7):
        for k in range(0, 51, 7):
            ip = float(np.dot(weights, vals[j] * vals[k]))
            assert ip == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)


def test_hermite_fn_survives_underflow_region():
    # at x = 40 the ground state underflows yet psi_q with q > x^2/2 is O(.1);
    # quadrature oracle: sum of squares over a fine grid approximates 1
    x = np.linspace(-80, 80, 40001)
    vals = None
    for q, v in enumerate(sf.hermite_fn_iter(x, 900)):
        vals = v
    norm = np.trapezoid(vals**2, x)
    assert norm == pytest.approx(1.0, rel=1e-8)
    assert abs(sf.hermite_fn(900, 40.0)) > 1e-3


def test_laguerre_values():
    # L1 = 1 - xi, L2 = 1 - 2 xi + xi^2/2
    assert laguerre(1, 0, 1.0) == 0.0
    assert laguerre(2, 0, 2.0) == pytest.approx(-1.0, abs=1e-15)
    # series at 0: binomial(q + nu, q)
    assert laguerre(3, 2.0, 0.0) == pytest.approx(math.comb(5, 3), rel=1e-14)
    assert laguerre(4, 0.5, 0.0) == pytest.approx(
        math.gamma(5.5) / (math.gamma(1.5) * math.factorial(4)), rel=1e-13)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_laguerre_endpoint_exact(q):
    assert laguerre(q, 0, 0.0) == 1.0


def _laguerre_fn0(q, x):
    """L_q(x) e^(-x/2): the last value of a laguerre_fn_iter sweep with alpha = 0."""
    *_, val = sf.laguerre_fn_iter(0.0, x, q)
    return val


def test_laguerre_fn_values():
    assert _laguerre_fn0(0, 3.1) == pytest.approx(np.exp(-1.55), rel=1e-15)
    assert _laguerre_fn0(1, 2.0) == pytest.approx(-np.exp(-1.0), rel=1e-14)
    # past x ~ 1490 the seed e^(-x/2) underflows; mpmath at 60 and 120 digits
    assert _laguerre_fn0(375, 1492.0) == pytest.approx(-0.053550487205286353, abs=1e-13)
    assert _laguerre_fn0(500, 1800.0) == pytest.approx(-0.024711026749782010, abs=1e-13)


def test_laguerre_fn_stability_bound():
    # classical bound |L_q(x) e^{-x/2}| <= 1, at every degree up to 10^4
    xi = np.linspace(0, 4000, 2000)
    for val in sf.laguerre_fn_iter(0.0, xi, 10_000):
        assert np.all(np.abs(val) <= 1.0 + 1e-12)


def test_laguerre_fn_orthonormality():
    t, fw = qd.gauss_laguerre(2 * 40 + 8)
    for j in range(0, 41, 8):
        for k in range(0, 41, 8):
            ip = float(np.dot(fw, _laguerre_fn0(j, t) * _laguerre_fn0(k, t)))
            assert ip == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)


def _sq_log_seed(nu, x):
    """ln ell_0^(nu)(x)^2 = nu ln x - x - ln Gamma(nu + 1) (0 ln 0 read as 0)."""
    with np.errstate(divide="ignore"):
        return (nu * np.log(x) if nu else 0.0) - x - math.lgamma(nu + 1.0)


def _oracle_sq_log(m, nu, x):
    """ln ell_m^(nu)(x)^2 from the plain recurrence's L_m^(nu)(x): ell_m^2 is
    m! Gamma(nu + 1) / Gamma(m + nu + 1) L_m^2 ell_0^2."""
    with np.errstate(divide="ignore"):
        return (2.0 * np.log(np.abs(laguerre(m, nu, x)))
                + (math.lgamma(m + 1.0) + math.lgamma(nu + 1.0) - math.lgamma(m + nu + 1.0))
                + _sq_log_seed(nu, x))


def test_laguerre_fn_sq_log_matches_plain_recurrence():
    x = np.array([0.0, 0.3, 2.0, 11.0, 60.0])
    for m, nu in ((0, 3.0), (1, 0.0), (5, 2.5), (17, 7.0), (40, 1.0), (33, 40.0)):
        got = sf.laguerre_fn_sq_log(m, nu, x, _sq_log_seed(nu, x))
        want = _oracle_sq_log(m, nu, x)
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])     # x = 0 at nu > 0: -inf
        assert np.abs(got[finite] - want[finite]).max() < 1e-12
    seed = _sq_log_seed(0.0, np.array([1.0]))
    assert sf.laguerre_fn_sq_log(1, 0.0, np.array([1.0]), seed)[0] == -np.inf


def test_laguerre_fn_sq_log_block_rows_match_scalar_calls():
    # one recurrence over a column of orders is, row for row, the scalar
    # recurrence; m = 15, 16, 17 straddle the first renormalization
    x = np.exp(np.linspace(-60.0, 7.0, 700))
    nu = np.array([0.0, 0.5, 3.0, 17.0, 40.0, 250.0])[:, None]
    seed = np.array([_sq_log_seed(v, x) for v in nu[:, 0]])
    for m in (1, 15, 16, 17, 250):
        block = sf.laguerre_fn_sq_log(m, nu, x, seed)
        for row, v, s in zip(block, nu[:, 0], seed):
            assert np.array_equal(row, sf.laguerre_fn_sq_log(m, float(v), x, s))
    # per-row degrees: row r is read off at its own step m_r
    ms = np.array([0, 1, 15, 16, 17, 250])[:, None]
    block = sf.laguerre_fn_sq_log(ms, nu, x, seed)
    for row, m, v, s in zip(block, ms[:, 0], nu[:, 0], seed):
        assert np.array_equal(row, sf.laguerre_fn_sq_log(int(m), float(v), x, s))


def test_laguerre_fn_sq_log_past_overflow():
    # L_300^(10)(5000) ~ 1e600: the plain recurrence overflows, the log does not
    # L = sum_i (-1)^i C(310, 300 - i) x^i / i!, exact in rationals
    from fractions import Fraction
    exact = sum(Fraction((-1) ** i * math.comb(310, 300 - i) * 5000 ** i, math.factorial(i))
                for i in range(301))
    ln_exact = math.log(abs(exact.numerator)) - math.log(exact.denominator)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(laguerre(300, 10.0, 5000.0))
    seed = _sq_log_seed(10.0, np.array([5000.0]))
    got = sf.laguerre_fn_sq_log(300, 10.0, np.array([5000.0]), seed)[0]
    want = 2.0 * ln_exact + (math.lgamma(301.0) + math.lgamma(11.0) - math.lgamma(311.0)) + seed[0]
    assert got == pytest.approx(want, rel=1e-13)


def test_sweeps_rescale_every_step_past_the_growth_bound():
    # a step grows a Laguerre value by up to |u| + 2 alpha + 3 and a Hermite one
    # by up to sqrt(2) |x| + 1: past 1e11, 16 steps between rescales overflow
    *_, val = sf.laguerre_fn_iter(2.0, np.array([4e20, 1e60]), 40)
    assert (val == 0.0).all()
    *_, val = sf.hermite_fn_iter(np.array([-1e12, 3e40]), 40)
    assert (val == 0.0).all()
    # seed 0 (f = e^u): 2 ln |L_40(u)|, which is 2 ln (u^40 / 40!) here
    u = np.array([4e20, 1e60, 1e100])
    got = sf.laguerre_fn_sq_log(40, 0.0, u, np.zeros(3))
    assert got == pytest.approx(2.0 * (40.0 * np.log(u) - math.lgamma(41.0)), rel=1e-14)


def test_log_gammainc_lower_against_scipy():
    from scipy.special import gammainc
    for a, x in [(1.0, 1.0), (3.5, 0.4), (10.0, 12.0), (40.0, 30.0), (2.0, 50.0)]:
        assert math.exp(sf.log_gammainc_lower(a, x)) == pytest.approx(
            gammainc(a, x), rel=1e-12)


def test_log_gammainc_lower_large_a():
    from scipy.special import gammainc
    # both branches near x = a, where a ln x - x - lgamma(a + 1) cancels
    # between terms of size 1e7 unless taken through Stirling's series
    for a in (1e5, 1e6):
        root = math.sqrt(a)
        for x in (a - 3 * root, a - 1, a + 2, a + 3 * root):
            assert math.exp(sf.log_gammainc_lower(a, x)) == pytest.approx(
                gammainc(a, x), rel=1e-12)


def test_log_gammainc_lower_unconverged_raises():
    # a = 1e8 near x = a needs far more than the 10,000 series terms allowed: no silent
    # truncated value (it used to return -1.075 against ln 0.5 = -0.693)
    with pytest.raises(ArithmeticError, match="unconverged"):
        sf.log_gammainc_lower(1e8, 1e8 - 1)


def test_log_gammainc_lower_extreme_tail():
    # P(k+1, 1) ~ e^-1 / (k+1)! far below the double underflow threshold;
    # oracle: first-term expansion with the next-term correction
    for k in (300, 400):
        got = sf.log_gammainc_lower(k + 1.0, 1.0)
        lead = -1.0 - math.lgamma(k + 2.0)
        corr = math.log1p(sum(
            math.exp(math.lgamma(k + 2.0) - math.lgamma(k + 2.0 + n)) for n in range(1, 8)))
        assert got == pytest.approx(lead + corr, abs=1e-12)
    assert sf.log_gammainc_lower(5.0, 0.0) == -np.inf


def _shifted_chebyshev_exact(power_coeffs):
    # sum_m d_m u^m in T_k(2u - 1): u^m = 4^-m (C(2m, m) + 2 sum_k C(2m, m - k) T_k)
    from fractions import Fraction
    return [(2 if k else 1) * sum(d * Fraction(math.comb(2 * m, m - k), 4 ** m)
                                  for m, d in enumerate(power_coeffs) if m >= k)
            for k in range(len(power_coeffs))]


@pytest.mark.parametrize("nu", [0, 1])
def test_bessel_tables_are_the_power_series(nu):
    # J_nu(x) / x^nu = sum_m (-x^2/4)^m / (2^nu m! (m + nu)!) with u = (x/25)^2;
    # 60 terms leave the series exact far beyond double precision
    from fractions import Fraction
    q = Fraction(-25 * 25, 4)
    exact = _shifted_chebyshev_exact(
        [q ** m / (2 ** nu * math.factorial(m) * math.factorial(m + nu)) for m in range(60)])
    table = sf._BESSEL_CHEB[nu]
    assert table.tolist() == [float(c) for c in exact[:len(table)]]
    assert all(abs(c) < 1e-17 for c in exact[len(table):])


def _bessel_points():
    rng = np.random.default_rng(7)
    return np.concatenate([[0.0, 1e-300, 1e-8, 24.999999999, 25.0, 5000.0],
                           rng.uniform(0, 30, 300), rng.uniform(30, 60, 100),
                           rng.uniform(60, 5000, 200)])


@pytest.mark.parametrize("nu", [0, 1])
def test_bessel_j_against_mpmath(nu):
    import mpmath as mp
    x = _bessel_points()
    with mp.workdps(30):
        ref = np.array([float(mp.besselj(nu, mp.mpf(float(v)))) for v in x])
    assert np.abs(sf.bessel_j(nu, x) - ref).max() < 1e-15


@pytest.mark.parametrize("nu", [0, 1])
def test_bessel_j_matches_scipy(nu):
    from scipy.special import j0, j1
    x = np.linspace(0.0, 5000.0, 500_001)
    ref = (j0 if nu == 0 else j1)(x)
    # scipy rounds the phase x - (2 nu + 1) pi/4 to double, which costs up to
    # half an ulp of x times the amplitude sqrt(2 / (pi x))
    tol = 2e-15 + 2.0 ** -53 * np.sqrt(2.0 * x / np.pi)
    assert np.all(np.abs(sf.bessel_j(nu, x) - ref) <= tol)


def test_bessel_j_scalar_and_order():
    assert sf.bessel_j(0, 0.0) == 1.0
    assert sf.bessel_j(1, 0.0) == 0.0
    assert isinstance(sf.bessel_j(1, 30.0), float)
    with pytest.raises(ValueError):
        sf.bessel_j(2, 1.0)

import math
import time

import mpmath as mp
import numpy as np
import pytest

from landauspec import asymptotics as asy
from landauspec import symbols as sy


def test_mu_from_weight():
    assert asy.mu_from_weight(1.0, 1.0, 2.0) == 1.0
    assert asy.mu_from_weight(3.0, 0.5, 2.0) == 3.0
    assert asy.mu_from_weight(1.0, 2.0, 1.0) == 4.0
    with pytest.raises(ValueError):
        asy.mu_from_weight(-1.0, 1.0, 1.0)


def test_predict_compact():
    k = np.array([2.0, 10.0, 100.0])
    # b cap^2 / 2 = 1 kills the log factor
    assert np.allclose(asy.predict_compact(k, 2.0, 1.0), -k * np.log(k) + k)
    # capacity scaling: doubling cap adds k ln 4
    d = asy.predict_compact(k, 2.0, 2.0) - asy.predict_compact(k, 2.0, 1.0)
    assert np.allclose(d, k * math.log(4.0))
    assert asy.predict_compact(math.e, 2.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_coeffs_f_first_equals_mu():
    for beta, mu in [(0.5, 1.0), (0.5, 1.3), (0.3, 0.4), (0.75, 2.0)]:
        f = asy.coeffs_f(beta, mu)
        assert f[0] == pytest.approx(mu, abs=1e-8)


def test_coeffs_f_index_range():
    assert len(asy.coeffs_f(0.5, 1.0)) == 1      # j < 2
    assert len(asy.coeffs_f(2.0 / 3.0, 1.0)) == 2   # j < 3
    assert len(asy.coeffs_f(0.75, 1.0)) == 3     # j < 4


def test_coeffs_g_envelope_identity():
    for beta, mu in [(2.0, 1.0), (1.5, 0.7), (3.0, 2.0)]:
        g = asy.coeffs_g(beta, mu)
        assert g[0] == pytest.approx((beta * mu) ** (-1.0 / beta), abs=1e-8)
    assert len(asy.coeffs_g(2.0, 1.0)) == 1      # j < 2
    assert len(asy.coeffs_g(1.5, 0.7)) == 2      # j < 3


def taylor_oracle(beta, mu, count):
    """Taylor coefficients 1..count of F (beta < 1) or G (beta > 1) by mpmath.

    Independent of the series recurrence: the implicit root is solved at 40
    digits and the variational function differentiated numerically.
    """
    with mp.workdps(40):
        beta, mu = mp.mpf(beta), mp.mpf(mu)
        if beta < 1:
            def fn(eps):
                s = mp.findroot(lambda s: s - 1 + eps * beta * mu * s**beta, mp.mpf(1))
                return s - mp.log(s) + eps * mu * s**beta
        else:
            def fn(eps):
                s = mp.findroot(lambda s: beta * mu * s**beta - 1 + eps * s,
                                (beta * mu) ** (-1 / beta))
                return mu * s**beta - mp.log(s) + eps * s
        return [float(c) for c in mp.taylor(fn, 0, count)[1:]]


# (beta, coefficient count): j < 1/(1-beta) below 1, j < beta/(beta-1) above
ORACLE_CASES = [(0.3, 1), (0.5, 1), (2.0 / 3.0, 2), (0.7, 3), (0.8, 4), (0.9, 9),
                (0.95, 19), (1.05, 20), (1.1, 10), (1.25, 4), (1.5, 2), (2.0, 1), (3.0, 1)]


def test_coeffs_against_mpmath_taylor_oracle():
    mu = 0.7
    for beta, count in ORACLE_CASES:
        got = asy.coeffs_f(beta, mu) if beta < 1 else asy.coeffs_g(beta, mu)
        assert len(got) == count, beta
        assert got == pytest.approx(taylor_oracle(beta, mu, count), rel=1e-13, abs=0), beta


def test_coeffs_raise_past_the_bound_and_on_overflow():
    t0 = time.perf_counter()
    for beta, fn in [(1 - 1e-9, asy.coeffs_f), (1 + 1e-9, asy.coeffs_g)]:
        with pytest.raises(ValueError, match="more than the 1000 supported"):
            fn(beta, 1.0)
    assert time.perf_counter() - t0 < 1.0
    # 19 coefficients of size up to about mu^19 leave the double range
    with pytest.raises(ValueError, match="overflow"):
        asy.coeffs_f(0.95, 1e20)


def test_predict_exp_branches():
    k = np.array([4.0, 25.0])
    assert np.allclose(asy.predict_exp(k, 1.0, 1.0, ()), -k * math.log(2.0))
    # beta = 1/2: single term -mu sqrt(k)
    assert np.allclose(asy.predict_exp(k, 0.5, 1.3, asy.coeffs_f(0.5, 1.3)), -1.3 * np.sqrt(k),
                       atol=1e-7)
    # beta = 2: -(1/2) k ln k + ((1 - ln 2)/2) k - g1 sqrt(k)
    g1 = 2.0 ** -0.5
    expect = -0.5 * k * np.log(k) + 0.5 * (1 - math.log(2.0)) * k - g1 * np.sqrt(k)
    assert np.allclose(asy.predict_exp(k, 2.0, 1.0, asy.coeffs_g(2.0, 1.0)), expect, atol=1e-7)
    with pytest.raises(ValueError):
        asy.predict_exp(5, -1.0, 1.0, ())


def test_exp_model_from_profile():
    m = asy.exp_model_from_profile(sy.gaussian(1.0), 2.0)
    assert m.beta == 1.0 and m.mu == 1.0
    m2 = asy.exp_model_from_profile(sy.exp_beta(1.0, 0.5), 2.0)
    assert m2.beta == 0.5 and m2.mu == 1.0
    with pytest.raises(sy.UnsupportedProfileError):
        asy.exp_model_from_profile(sy.power(2.0), 1.0)


def test_compare_series_exact_model():
    model = asy.exp_model(1.0, 1.0)
    ks = np.arange(0, 40)
    log_eigs = model.predict_log(np.maximum(ks, 1))
    rep = asy.compare_series(model, (2, 39), log_eigs=log_eigs)
    assert np.abs(rep.residuals).max() == 0.0


def test_compare_series_constant_offset():
    # eigs = (1+mu)^-(k+1): residual is the constant -ln(1+mu)
    mu = 1.0
    ks = np.arange(0, 60)
    log_eigs = -(ks + 1.0) * math.log1p(mu)
    rep = asy.compare_series(asy.exp_model(1.0, mu), (2, 59), log_eigs=log_eigs)
    assert np.ptp(rep.residuals) < 1e-12
    assert rep.residuals[0] == pytest.approx(-math.log1p(mu), rel=1e-12)
    assert rep.max_over_lnk <= math.log1p(mu) / math.log(2.0) + 1e-12


def test_compare_series_validation():
    model = asy.exp_model(1.0, 1.0)
    with pytest.raises(ValueError, match="k >= 1"):
        asy.compare_series(model, (0, 5), log_eigs=np.zeros(10))
    with pytest.raises(ValueError, match="shorter"):
        asy.compare_series(model, (2, 50), log_eigs=np.zeros(10))


def test_compare_series_incomplete_gamma_windows():
    # compact-law residual shrinks, normalized by k, across dyadic windows
    from landauspec.specfun import log_gammainc_lower
    b, R = 2.0, 1.0
    ks = np.arange(0, 201)
    log_eigs = np.array([-np.inf] + [
        log_gammainc_lower(k + 1.0, b * R * R / 2.0) for k in ks[1:]])
    rep = asy.compare_series(asy.compact_model(b, R), (25, 200), log_eigs=log_eigs)
    stats = rep.window_stats([(25, 50), (50, 100), (100, 200)], norm="k")
    assert stats[0] > stats[1] > stats[2]

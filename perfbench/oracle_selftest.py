"""Each benchmark oracle against values known independently of it.

    python3 -m pytest perfbench/oracle_selftest.py -q

(The file name keeps it out of the package's own test collection.)
"""

import math
import sys
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402


def test_toeplitz_gaussian_q0_closed_form():
    # rate 0.5 at b = 1: s = 1 + 2a/b = 2, so ln nu_k = -(k + 1) ln 2
    got = oracles.toeplitz_log_gaussian(1.0, 0.5, 1.0, 0, [0, 1, 7, 300])
    assert got == pytest.approx([-(k + 1) * math.log(2) for k in (0, 1, 7, 300)], rel=1e-15)


def test_toeplitz_gaussian_q1_matches_hand_integral():
    # k = 2, q = 1: nu = (1/2) int t (2 - t)^2 e^(-s t) dt = (4/s^2 - 4*2/s^3 + 6/s^4) / 2
    s = 1.0 + 2 * 0.3 / 1.5
    want = math.log((4 / s ** 2 - 8 / s ** 3 + 6 / s ** 4) / 2)
    assert oracles.toeplitz_log_gaussian(1.0, 0.3, 1.5, 1, [2])[0] == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("q", [1, 3])
def test_gaussian_finite_sum_and_quadrature_agree(q):
    ks = [0, 1, 2, 3, 4, 10, 60, 150]
    prof = {"kind": "gaussian", "rate": 0.4, "amplitude": 1.3}
    closed = oracles.toeplitz_log_gaussian(1.3, 0.4, 1.7, q, ks)
    quad = oracles.toeplitz_log_quad(prof, 1.7, q, ks)
    assert closed == pytest.approx(quad, abs=1e-12)


def test_disk_q0_small_k_closed_forms():
    rho = 1.3 * 0.8 / 2          # b * cutoff / 2
    got = oracles.toeplitz_log_disk(1.0, 0.8, 1.3, 0, [0, 1])
    assert got[0] == pytest.approx(math.log(-math.expm1(-rho)), abs=1e-15)
    assert got[1] == pytest.approx(math.log(1 - math.exp(-rho) * (1 + rho)), abs=1e-14)


def test_disk_q3_matches_direct_quadrature():
    b, cutoff, q = 2.0, 1.5, 3
    rho = mp.mpf(b) * cutoff / 2
    got = oracles.toeplitz_log_disk(1.0, cutoff, b, q, [1, 5, 40])
    for k, v in zip([1, 5, 40], got):
        m, d = min(k, q), abs(k - q)
        with mp.workdps(40):
            val = mp.quad(lambda t: t ** d * mp.laguerre(m, d, t) ** 2 * mp.exp(-t), [0, rho])
            want = mp.log(val * mp.factorial(m) / mp.factorial(m + d))
        assert v == pytest.approx(float(want), abs=1e-12)


def test_quadrature_power_weight_gompertz_constant():
    # int_0^inf e^-t / (1 + t) dt = e E1(1)
    got = oracles.log_gamma_moment({"kind": "power", "gamma": 2.0}, 1.0, 0)
    assert got == pytest.approx(math.log(float(mp.e * mp.e1(1))), abs=1e-14)


def test_quadrature_superexponential_weight_erfc_form():
    # int_0^inf e^(-t^2 - t) dt = (sqrt(pi)/2) e^(1/4) erfc(1/2)
    got = oracles.log_gamma_moment({"kind": "exp_beta", "gamma": 1.0, "beta": 2.0}, 1.0, 0)
    want = mp.sqrt(mp.pi) / 2 * mp.exp(0.25) * mp.erfc(0.5)
    assert got == pytest.approx(math.log(float(want)), abs=1e-14)


def test_quadrature_finds_a_peak_far_from_fixed_breakpoints():
    # exp(-t^3) against t^300 e^-t peaks near t ~ 4.6, far below t ~ 300
    prof = {"kind": "exp_beta", "gamma": 1.0, "beta": 3.0}
    got = oracles.log_gamma_moment(prof, 1.0, 300)
    with mp.workdps(40):
        f = lambda t: mp.exp(300 * mp.log(t) - t - t ** 3 - mp.loggamma(301))  # noqa: E731
        want = mp.log(mp.quad(f, mp.linspace(0, 12, 121)))
    assert got == pytest.approx(float(want), abs=1e-11)


def test_exp_beta_one_is_the_gaussian_closed_form():
    prof = {"kind": "exp_beta", "gamma": 0.7, "beta": 1.0}
    ks = [0, 3, 50]
    assert oracles.toeplitz_log_quad(prof, 2.5, 0, ks) == pytest.approx(
        oracles.toeplitz_log_gaussian(1.0, 0.7, 2.5, 0, ks), abs=1e-12)


def test_weyl_gaussian_rank_one_projection():
    # 2 exp(-s) is 2 pi Psi_0: eigenvalue 1 on psi_0, 0 elsewhere
    assert oracles.weyl_gaussian(2.0, 1.0, [0, 1, 5]) == [1.0, 0.0, 0.0]


def test_weyl_and_antiwick_quadrature_match_gaussian_closed_forms():
    prof = {"kind": "gaussian", "rate": 0.3, "amplitude": 1.0}
    ks = [0, 1, 4]
    assert oracles.weyl_quad(prof, ks) == pytest.approx(
        oracles.weyl_gaussian(1.0, 0.3, ks), rel=1e-12, abs=1e-15)
    assert oracles.antiwick_quad(prof, ks) == pytest.approx(
        oracles.antiwick_gaussian(1.0, 0.3, ks), rel=1e-12)


@pytest.mark.parametrize("beta,mu", [(0.5, 1.4), (0.7, 0.6), (2.0, 1.0), (1.5, 3.0)])
def test_exp_coefficients_envelope_identities(beta, mu):
    # f_1 = mu for beta < 1; g_1 = (beta mu)^(-1/beta) for beta > 1
    c1 = oracles.exp_coeffs(beta, mu)[0]
    want = mu if beta < 1 else (beta * mu) ** (-1 / beta)
    assert c1 == pytest.approx(want, rel=1e-12)


def test_exp_coefficients_beta_half_series():
    # beta = 1/2: s = 1 - (eps mu / 2) sqrt(s) has a single term below 1/(1-beta) = 2
    assert len(oracles.exp_coeffs(0.5, 2.0)) == 1


def test_predictions_closed_forms():
    assert oracles.predict_exp([10], 1.0, 0.5) == pytest.approx([-10 * math.log1p(0.5)])
    k, b, c = 50, 2.0, 0.75
    assert oracles.predict_compact([k], b, c)[0] == pytest.approx(
        -k * math.log(k) + (1 + math.log(b * c * c / 2)) * k, rel=1e-14)


def test_capacity_constants():
    assert oracles.capacity_square(1.0) == pytest.approx(0.5901703, abs=5e-8)
    assert oracles.capacity_triangle(1.0) == pytest.approx(0.4217539, abs=5e-8)
    assert oracles.capacity_square(2.0) == pytest.approx(2 * oracles.capacity_square(1.0))

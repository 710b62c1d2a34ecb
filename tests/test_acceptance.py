"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one line (visible with pytest -s); the asserted tolerances
are pinned here, not derived at runtime.  Asymptotic statements are checked
through normalized residuals over dyadic windows, never as finite-k
equalities; exact finite formulas are checked quantitatively.
"""

import math
import time

import numpy as np
import pytest

from landauspec import asymptotics as asy
from landauspec import capacity as cap
from landauspec import operators as op
from landauspec import symbols as sy
from landauspec import verify
from landauspec.specfun import log_gammainc_lower


def _report(num, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


def test_criterion_01_wigner_closed_form():
    t0 = time.time()
    err = verify.pair_closed_form(9, 21)
    dt = time.time() - t0
    _report(1, err < 1e-9 and dt < 60,
            f"pair kernels vs brute-force transform: max err {err:.2e} in {dt:.1f}s")


def test_criterion_02_moyal_orthogonality():
    t0 = time.time()
    err = verify.moyal_orthogonality(7)
    dt = time.time() - t0
    _report(2, err < 1e-9 and dt < 60,
            f"pairings vs delta/(2 pi) over all quadruples <= 6: max err {err:.2e} in {dt:.1f}s")


def test_criterion_03_husimi_identity():
    t0 = time.time()
    pts = [(x, xi) for x in np.linspace(-2.5, 2.5, 6) for xi in np.linspace(-2.5, 2.5, 6)]
    err = verify.husimi_closed_form(9, pts)
    dt = time.time() - t0
    _report(3, err < 1e-8 and dt < 60,
            f"closed Husimi form vs numeric convolution, k <= 8: max err {err:.2e} in {dt:.1f}s")


def test_criterion_04_fourier_halving():
    grid = np.linspace(-4, 4, 9)
    err = verify.fourier_halving(9, [(wx, wy) for wx in grid for wy in grid
                                     if wx * wx + wy * wy <= 16.0])
    _report(4, err < 1e-8, f"transform-halving identity on |w| <= 4, k <= 8: max err {err:.2e}")


def test_criterion_05_symplectic_and_landau_identities():
    err_sym, err_id = verify.symplectic_frame(7, 2.0)
    _report(5, err_sym < 1e-14 and err_id < 1e-12,
            f"frame map symplectic to {err_sym:.2e}; symbol identity to {err_id:.2e} rel")


def test_criterion_06_radial_diagonalization():
    t0 = time.time()
    gauss = sy.gaussian(0.15)
    # all 33 coefficients nonzero so every diagonal entry supports a
    # relative comparison; the degree-64 symbol settles at a doubled order
    mix = sy.laguerre_mix([0.4 * 0.8 ** k for k in range(33)])
    ok = True
    details = []

    for prof in (gauss, mix):
        T = op.weyl_matrix(prof, 33)
        diag = np.real(np.diag(T))
        off = np.abs(T - np.diag(np.diag(T))).max()
        ratio = off / np.abs(diag).max()
        ok &= ratio < 1e-9
        mu = op.weyl_radial_eigs(prof, 33)
        rel = np.abs(diag / mu - 1).max()
        ok &= rel < 1e-8
        muf = op.weyl_radial_eigs_fourier(sy.fourier_radial_profile(prof), 33)
        four = np.abs(muf - mu).max()
        ok &= four < 1e-8
        details.append(f"offdiag {ratio:.1e}, diag rel {rel:.1e}, fourier {four:.1e}")

    # both closed forms skip the Hankel step; power(3) runs it, and the Weyl rule
    hankel = verify.weyl_fourier_agreement(200)
    ok &= hankel < 1e-11
    details.append(f"power(3) weyl-fourier {hankel:.1e}")

    a = 0.1
    aw = op.antiwick_radial_eigs(sy.gaussian(a), 65)
    wconv = op.weyl_radial_eigs(sy.antiwick_to_weyl(sy.gaussian(a)), 65)
    rel_aw = np.abs(aw / wconv - 1).max()
    ok &= rel_aw < 1e-8
    dt = time.time() - t0
    ok &= dt < 120
    _report(6, ok, "; ".join(details) + f"; smoothing consistency {rel_aw:.1e} in {dt:.1f}s")


def test_criterion_07_rank_one_and_hilbert_schmidt():
    v = sy.gaussian(1.0, amplitude=2.0)   # 2 pi Psi_0
    eigs = np.linalg.eigvalsh(op.weyl_matrix(v, 16))
    err = max(abs(eigs[-1] - 1.0), float(np.abs(eigs[:-1]).max()))
    hs, excess = verify.hilbert_schmidt(64, 1.1)
    # the truncated mass converges upward to the symbol norm
    _report(7, err < 1e-9 and hs < 1e-6 and excess <= 1e-9,
            f"projection spectrum err {err:.2e}; Frobenius-vs-symbol norm {hs:.2e} at N=64")


def test_criterion_08_laplacian_level_shift():
    worst = verify.laplacian_level_shift(21)
    _report(8, worst < 1e-7, f"level-shift identity, k <= 20, b in {{1,2}}: max rel err {worst:.2e}")


def test_criterion_09_prescribed_gap_construction():
    t0 = time.time()
    b = 1.0
    V, pred = op.prescribed_gap_symbol(b, [2, 0, 1],
                                       [0.8 * b, 0.5 * b, 0.3 * b], [0.5, 0.25])
    rep = op.eig_hermitian(op.assemble_hv(V, 24, 24, sign=-1))
    counts = [rep.gap_count(q, "-") for q in range(3)]
    errs = [float(np.abs(rep.eigenvalues - val).min()) for _, _, val in pred]
    simple = all(
        m == 1 for v, m in rep.clusters()
        if any(abs(v - val) < 1e-6 for _, _, val in pred))
    dt = time.time() - t0
    ok = counts == [2, 0, 1] and max(errs) < 1e-8 and simple and dt < 120
    _report(9, ok, f"gap counts {counts}, eigenvalue errors {max(errs):.1e}, "
                   f"all planted eigenvalues simple={simple}, {dt:.1f}s")


def test_criterion_10_exponential_weight_exact_law():
    t0 = time.time()
    gam, b = 1.0, 2.0
    mu = asy.mu_from_weight(gam, 1.0, b)
    zeta = sy.exp_beta(gam, 1.0)
    _, ln_nu = op.toeplitz_radial_eigs(zeta, 0, b, 201)
    exact = -(np.arange(201) + 1.0) * math.log1p(mu)
    rel = np.abs(np.expm1(ln_nu - exact)).max()
    rep = asy.compare_series(asy.exp_model(1.0, mu), (2, 200), log_eigs=ln_nu)
    spread = float(np.ptp(rep.residuals))
    bounded = rep.max_over_lnk <= math.log1p(mu) / math.log(2.0) + 1e-9
    dt = time.time() - t0
    ok = rel < 1e-10 and spread < 1e-10 and bounded and dt < 30
    _report(10, ok, f"quadrature vs closed law rel {rel:.1e}; residual constant to "
                    f"{spread:.1e}; |r|/ln k bounded; {dt:.1f}s")


def test_criterion_11_compact_support_law():
    t0 = time.time()
    b, R = 2.0, 1.0
    rho = b * R * R / 2.0
    _, ln_nu = op.toeplitz_radial_eigs(sy.disk_indicator(R * R), 0, b, 401)
    oracle = np.array([log_gammainc_lower(k + 1.0, rho) for k in range(401)])
    rel = np.abs(np.expm1(ln_nu - oracle)).max()
    assert math.exp(ln_nu[0]) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    rep = asy.compare_series(asy.compact_model(b, R), (25, 400), log_eigs=ln_nu)
    stats = rep.window_stats([(25, 50), (50, 100), (100, 200), (200, 400)], norm="k")
    decreasing = all(a > bb for a, bb in zip(stats, stats[1:]))
    dt = time.time() - t0
    ok = rel < 1e-10 and decreasing and stats[-1] < 0.15 and dt < 60
    _report(11, ok, f"incomplete-gamma agreement {rel:.1e}; window stats "
                    f"{[round(s, 3) for s in stats]} decreasing, last < 0.15; {dt:.1f}s")


def test_criterion_12_exponential_weight_asymptotics():
    t0 = time.time()
    gam, b = 1.0, 2.0
    ok = True
    details = []
    for beta in (0.5, 2.0):
        mu = asy.mu_from_weight(gam, beta, b)
        if beta < 1:
            c1 = asy.coeffs_f(beta, mu)[0]
            ident = abs(c1 - mu)
        else:
            c1 = asy.coeffs_g(beta, mu)[0]
            ident = abs(c1 - (beta * mu) ** (-1.0 / beta))
        ok &= ident < 1e-8
        _, ln_nu = op.toeplitz_radial_eigs(sy.exp_beta(gam, beta), 0, b, 401)
        rep = asy.compare_series(asy.exp_model(beta, mu), (100, 400), log_eigs=ln_nu)
        stats = rep.window_stats([(100, 200), (200, 400)], norm="lnk")
        ok &= rep.max_over_lnk < 10.0 and stats[1] <= stats[0] + 1e-12
        details.append(f"beta={beta}: coeff identity {ident:.1e}, max|r|/ln k "
                       f"{rep.max_over_lnk:.3f}, windows {[round(s, 3) for s in stats]}")
    dt = time.time() - t0
    ok &= dt < 120
    _report(12, ok, "; ".join(details) + f"; {dt:.1f}s")


def test_criterion_13_counting_function_vs_volume():
    t0 = time.time()
    v = sy.power(2.0)
    mu = op.weyl_radial_eigs(v, 5000)
    worst = 0.0
    for lam in np.exp(np.linspace(math.log(1e-3), math.log(1e-2), 9)):
        count = int(np.sum(mu > lam))
        vol = (1.0 / lam - 1.0) / 2.0
        worst = max(worst, abs(count - vol) / vol)
    g1, g2 = sy.condition_C_estimate(
        lambda lam: sy.phase_space_volume(v, lam), (1e-3, 1e-2))
    dt = time.time() - t0
    ok = worst < 0.15 and 0.0 < g1 <= g2 < math.inf and dt < 120
    _report(13, ok, f"count vs volume within {worst:.2%} on [1e-3, 1e-2]; "
                    f"log-derivative bounds ({g1:.3f}, {g2:.3f}); {dt:.1f}s")


def test_criterion_14_capacity():
    t0 = time.time()
    disk = cap.capacity_estimate(cap.disk(0.0, 1.0), 40, restarts=8, seed=1)
    seg = cap.capacity_estimate(cap.segment(-1.0, 1.0), 40, restarts=8, seed=1)
    disk_ok = abs(disk.estimate - 1.0) < 0.03
    seg_ok = abs(seg.estimate - 0.5) < 0.025
    cert_ok = disk.lower_cert <= disk.estimate and seg.lower_cert <= seg.estimate
    small = cap.capacity_estimate(cap.disk(0.0, 1.0), 16, restarts=4, seed=2)
    big = cap.capacity_estimate(cap.disk(0.0, 2.0), 16, restarts=4, seed=2)
    nested_ok = small.estimate <= big.estimate * 1.01
    dt = time.time() - t0
    ok = disk_ok and seg_ok and cert_ok and nested_ok and dt < 180
    _report(14, ok, f"disk {disk.estimate:.4f} (target 1 +/- 3%), segment "
                    f"{seg.estimate:.4f} (target 0.5 +/- 5%), certificates below "
                    f"estimates, nested disks ordered; {dt:.1f}s")


def test_criterion_15_gap_eigenvalue_sandwich():
    t0 = time.time()
    res = op.birman_schwinger_check(sy.gaussian(0.25), r=0, q=0, b=1.0,
                                    levels=3, radial=64, k_range=(5, 30))
    dt = time.time() - t0
    ok = (not res["vacuous"]) and res["epsilon"] <= 0.25 and res["k0"] <= 3 and dt < 180
    _report(15, ok, f"two-sided sandwich holds with eps={res['epsilon']}, "
                    f"k0={res['k0']} on k in [5, 30] at radial truncation 64; {dt:.1f}s")

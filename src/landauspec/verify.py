"""Identity suites bundling the package's cross-checks at fixed small sizes.

Each suite recomputes one structural identity two independent ways and
compares at a pinned tolerance.  The CLI `verify` command runs every suite
and names each one whose identity breaks; the suites are sensitive enough
to catch the planted faults of wigner.inject_fault: a sign error in the
pair-kernel phase, and moment windows clipped to 5 nats.
"""

from __future__ import annotations

import numpy as np

from . import capacity, operators, quadrature, symbols, wigner
from .specfun import hermite_fn


def _suite_ground_state():
    p = np.linspace(-3, 3, 13)
    X, XI = np.meshgrid(p, p)
    err = np.abs(wigner.wigner_diag(0, X, XI) - np.exp(-(X**2 + XI**2)) / np.pi).max()
    return err, 1e-12


def _suite_pair_closed_form():
    p = np.linspace(-3, 3, 11)
    X, XI = np.meshgrid(p, p)
    err = 0.0
    for k in range(5):
        for l in range(5):
            num = wigner.wigner_numeric(lambda t, k=k: hermite_fn(k, t),
                                        lambda t, l=l: hermite_fn(l, t), X, XI)
            err = max(err, float(np.abs(num - wigner.wigner_eval(k, l, X, XI)).max()))
    return err, 1e-9


def _suite_moyal():
    p, fw = quadrature.gauss_hermite(96)
    kernels = {(k, l): wigner.wigner_eval(k, l, p[:, None], p[None, :])
               for k in range(5) for l in range(5)}
    err = 0.0
    for (k, l), K1 in kernels.items():
        for (kp, lp), K2 in kernels.items():
            val = np.einsum("i,j,ij->", fw, fw, K1 * np.conj(K2))
            target = (1.0 / (2.0 * np.pi)) if (k == kp and l == lp) else 0.0
            err = max(err, abs(val - target))
    return err, 1e-9


def _suite_husimi():
    pts = [(0.0, 0.0), (0.5, 0.7), (-1.2, 0.4), (2.0, -1.0)]
    err = 0.0
    for k in range(7):
        for x, xi in pts:
            err = max(err, abs(wigner.husimi_numeric(k, x, xi)
                               - wigner.husimi_diag(k, x, xi)))
    return err, 1e-8


def _suite_fourier_halving():
    err = 0.0
    for k in range(7):
        for w in [(0.0, 0.0), (1.0, 0.5), (-2.5, 1.5), (0.0, 4.0)]:
            lhs, rhs = wigner.wigner_fourier_check(k, w)
            err = max(err, abs(lhs - rhs))
    return err, 1e-8


def _suite_symplectic_frame():
    rng = np.random.default_rng(20240901)
    err = 0.0
    J = symbols.symplectic_form()
    for b in (0.5, 1.0, 2.0):
        M = symbols.oscillator_frame_matrix(b)
        err = max(err, float(np.abs(M.T @ J @ M - J).max()))
        for _ in range(100):
            pt = tuple(rng.normal(scale=3.0, size=4))
            lhs, rhs = symbols.landau_symbol_check(b, pt)
            err = max(err, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return err, 1e-12


def _suite_hilbert_schmidt():
    v = symbols.gaussian(0.5, amplitude=1.3)
    mat, sym = operators.hilbert_schmidt_check(v, 48)
    return abs(mat - sym) / abs(sym), 1e-6


def _suite_laplacian_level_shift():
    err = 0.0
    zeta = symbols.gaussian(0.3)
    for b in (1.0, 2.0):
        sign1, shifted = operators.toeplitz_radial_eigs(zeta, 1, b, 13)
        dzeta = symbols.laguerre_laplacian(zeta, b, 1)
        sign0, moved = operators.toeplitz_radial_eigs(dzeta, 0, b, 13)
        err = max(err, float(np.abs(sign0 * sign1 * np.exp(moved - shifted) - 1.0).max()))
    return err, 1e-7


def _suite_toeplitz_closed_form():
    # gaussian weights e^(-a s), mu = 2a/b, s = 1 + mu: at q = 0 nu_k = s^-(k+1);
    # at q = 1 nu_k = (k s^2 - 2ks + k + 1) s^-(k+2).  Count 60 puts rows past
    # the first block, where the moment kernel sums over windows.
    k = np.arange(60)
    err = 0.0
    for a, b in ((0.3, 1.0), (2.0, 1.0)):
        s = 1.0 + 2.0 * a / b
        zeta = symbols.gaussian(a)
        _, q0 = operators.toeplitz_radial_eigs(zeta, 0, b, k.size)
        _, q1 = operators.toeplitz_radial_eigs(zeta, 1, b, k.size)
        err = max(err, float(np.abs(q0 + (k + 1) * np.log(s)).max()),
                  float(np.abs(q1 - np.log(k * s * s - 2 * k * s + k + 1)
                               + (k + 2) * np.log(s)).max()))
    return err, 1e-11


def _suite_banded():
    v = symbols.angular_symbol({
        1: lambda r: 0.5 * r * np.exp(-r * r),
        -1: lambda r: 0.5 * r * np.exp(-r * r),
    })
    max_in, max_out = operators.banded_structure_check(v, 12)
    return max_out / max_in, 1e-9


def _suite_radial_diagonal():
    M = operators.weyl_matrix(symbols.gaussian(0.4), 16)
    d = np.abs(np.diag(M)).max()
    off = np.abs(M - np.diag(np.diag(M))).max()
    return off / d, 1e-9


def _suite_positivity_weyl():
    ok1 = operators.positivity_laguerre_weyl(
        symbols.gaussian(1.0, amplitude=1 / np.pi), 12).all_nonneg
    flipped = operators.positivity_laguerre_weyl(
        symbols.laguerre_mix([0.0, 1.0 / np.pi], amplitude=-2.0 * np.pi), 12)
    ok2 = (not flipped.all_nonneg) and flipped.first_negative_index == 1
    return 0.0 if (ok1 and ok2) else 1.0, 0.5


def _suite_positivity_antiwick():
    ok1 = operators.positivity_laguerre_antiwick(symbols.gaussian(1.0), 12).all_nonneg
    rep = operators.positivity_laguerre_antiwick(
        symbols.custom(lambda s: 1.0 - s), 6)
    ok2 = (not rep.all_nonneg) and rep.first_negative_index == 0
    smooth = symbols.antiwick_to_weyl(symbols.disk_indicator(1.5))
    ok3 = operators.positivity_laguerre_weyl(smooth, 12).all_nonneg
    return 0.0 if (ok1 and ok2 and ok3) else 1.0, 0.5


def _suite_capacity_small():
    r = capacity.fekete_optimize(capacity.disk(0.0, 1.0), 3, restarts=3, seed=5)
    return abs(r.log_energy - 3.0 * np.log(np.sqrt(3.0))), 1e-7


SUITES = [
    ("wigner-ground-state", _suite_ground_state),
    ("wigner-closed-form", _suite_pair_closed_form),
    ("moyal-orthogonality", _suite_moyal),
    ("husimi-closed-form", _suite_husimi),
    ("fourier-halving", _suite_fourier_halving),
    ("symplectic-frame", _suite_symplectic_frame),
    ("hilbert-schmidt", _suite_hilbert_schmidt),
    ("laplacian-level-shift", _suite_laplacian_level_shift),
    ("toeplitz-closed-form", _suite_toeplitz_closed_form),
    ("banded-structure", _suite_banded),
    ("radial-diagonal", _suite_radial_diagonal),
    ("positivity-weyl", _suite_positivity_weyl),
    ("positivity-antiwick", _suite_positivity_antiwick),
    ("capacity-triangle", _suite_capacity_small),
]


FAULTS = wigner.FAULTS


def select_suites(name_filter=None):
    """The (name, suite) pairs whose name contains name_filter; all when it is empty."""
    selected = [(n, f) for n, f in SUITES if not name_filter or name_filter in n]
    if not selected:
        raise ValueError(f"no suite matches filter {name_filter!r}")
    return selected


def run_suites(name_filter=None, fault=None):
    """Run the identity suites; returns a list of result dicts."""
    results = []
    for name, fn in select_suites(name_filter):
        if fault:
            with wigner.inject_fault(fault):
                err, tol = fn()
        else:
            err, tol = fn()
        results.append({"suite": name, "error": float(err), "tolerance": tol,
                        "passed": bool(err < tol)})
    return results

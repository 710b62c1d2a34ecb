"""Identity suites bundling the package's cross-checks.

Each suite recomputes one structural identity two independent ways and
returns its error.  The public suites take the sizes they sweep, so that
this module holds the one implementation of each identity: `SUITES` binds
the sizes the CLI `verify` command runs, and the acceptance gate and the
unit tests call the same functions at their own sizes.  The CLI names each
suite whose identity breaks; the suites are sensitive enough to catch the
planted faults of wigner.inject_fault: a sign error in the pair-kernel
phase, moment windows clipped to 5 nats, and Hankel weights that lose their 1/2.
"""

from __future__ import annotations

import contextlib
from functools import partial

import numpy as np

from . import capacity, operators, quadrature, symbols, wigner
from .specfun import hermite_fn


def _suite_ground_state():
    p = np.linspace(-3, 3, 13)
    X, XI = np.meshgrid(p, p)
    return np.abs(wigner.wigner_diag(0, X, XI) - np.exp(-(X**2 + XI**2)) / np.pi).max()


def pair_closed_form(index_bound, grid):
    """Largest |brute-force Wigner transform - closed pair kernel| over
    k, l < index_bound on a grid x grid lattice of [-3, 3]^2."""
    p = np.linspace(-3, 3, grid)
    X, XI = np.meshgrid(p, p)
    err = 0.0
    for k in range(index_bound):
        for l in range(index_bound):
            num = wigner.wigner_numeric(lambda t, k=k: hermite_fn(k, t),
                                        lambda t, l=l: hermite_fn(l, t), X, XI)
            err = max(err, float(np.abs(num - wigner.wigner_eval(k, l, X, XI)).max()))
    return err


def moyal_orthogonality(index_bound):
    """Largest |<Psi_kl, Psi_k'l'> - delta / (2 pi)| over all indices < index_bound,
    on a 96-node Gauss-Hermite tensor rule."""
    p, fw = quadrature.gauss_hermite(96)
    kernels = {(k, l): wigner.wigner_eval(k, l, p[:, None], p[None, :])
               for k in range(index_bound) for l in range(index_bound)}
    err = 0.0
    for (k, l), K1 in kernels.items():
        for (kp, lp), K2 in kernels.items():
            val = np.einsum("i,j,ij->", fw, fw, K1 * np.conj(K2))
            target = (1.0 / (2.0 * np.pi)) if (k == kp and l == lp) else 0.0
            err = max(err, abs(val - target))
    return err


def husimi_closed_form(index_bound, points):
    """Largest |numeric Gaussian smoothing of Psi_k - closed Husimi form| over
    k < index_bound and the (x, xi) in points."""
    return max(abs(wigner.husimi_numeric(k, x, xi) - wigner.husimi_diag(k, x, xi))
               for k in range(index_bound) for x, xi in points)


def fourier_halving(index_bound, points):
    """Largest |F Psi_k(w) - ((-1)^k / 2) Psi_k(w / 2)| over k < index_bound and w in points."""
    checks = (wigner.wigner_fourier_check(k, w) for k in range(index_bound) for w in points)
    return max(abs(lhs - rhs) for lhs, rhs in checks)


def symplectic_frame(seed, scale):
    """(largest |M^T J M - J| of the frame map, largest relative error of the
    Landau-symbol identity at 100 normal points of the given scale), for
    b in {0.5, 1, 2}."""
    rng = np.random.default_rng(seed)
    J = symbols.symplectic_form()
    frame = identity = 0.0
    for b in (0.5, 1.0, 2.0):
        M = symbols.oscillator_frame_matrix(b)
        frame = max(frame, float(np.abs(M.T @ J @ M - J).max()))
        for _ in range(100):
            lhs, rhs = symbols.landau_symbol_check(b, tuple(rng.normal(scale=scale, size=4)))
            identity = max(identity, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return frame, identity


def hilbert_schmidt(n, amplitude):
    """(|mat - sym| / sym, (mat - sym) / sym) for the Frobenius mass `mat` of the
    n x n truncation of gaussian(0.5) at the given amplitude and its symbol
    norm `sym`; the second is at most rounding since the mass converges upward."""
    mat, sym = operators.hilbert_schmidt_check(symbols.gaussian(0.5, amplitude=amplitude), n)
    excess = (mat - sym) / abs(sym)
    return abs(excess), excess


def laplacian_level_shift(count):
    """Largest |nu_k[(I + Lap / 2b) zeta, q = 0] / nu_k[zeta, q = 1] - 1| over
    k < count, zeta = gaussian(0.3), b in {1, 2}."""
    err = 0.0
    zeta = symbols.gaussian(0.3)
    for b in (1.0, 2.0):
        sign1, shifted = operators.toeplitz_radial_eigs(zeta, 1, b, count)
        dzeta = symbols.laguerre_laplacian(zeta, b, 1)
        sign0, moved = operators.toeplitz_radial_eigs(dzeta, 0, b, count)
        err = max(err, float(np.abs(sign0 * sign1 * np.exp(moved - shifted) - 1.0).max()))
    return err


def _suite_toeplitz_closed_form():
    # gaussian weights e^(-a s), mu = 2a/b, s = 1 + mu: at q = 0 nu_k = s^-(k+1);
    # at q = 1 nu_k = (k s^2 - 2ks + k + 1) s^-(k+2).  The gaussian kind takes
    # its closed form, and poly_gauss([1]) is the same weight on the moment
    # kernel; count 60 puts rows past the first block, where the kernel sums
    # over windows.
    k = np.arange(60)
    err = 0.0
    for a, b in ((0.3, 1.0), (2.0, 1.0)):
        s = 1.0 + 2.0 * a / b
        for zeta in (symbols.gaussian(a), symbols.poly_gauss([1.0], a)):
            _, q0 = operators.toeplitz_radial_eigs(zeta, 0, b, k.size)
            _, q1 = operators.toeplitz_radial_eigs(zeta, 1, b, k.size)
            err = max(err, float(np.abs(q0 + (k + 1) * np.log(s)).max()),
                      float(np.abs(q1 - np.log(k * s * s - 2 * k * s + k + 1)
                                   + (k + 2) * np.log(s)).max()))
    return err


def _band_leak(v, n):
    max_in, max_out = operators.banded_structure_check(v, n)
    return max_out / max_in


def banded_structure(n):
    """Largest |entry| outside the declared band over the largest inside, for the
    n x n Weyl matrix of x e^-(x^2 + xi^2) (angular modes +/-1)."""
    return _band_leak(symbols.angular_symbol({
        1: lambda r: 0.5 * r * np.exp(-r * r),
        -1: lambda r: 0.5 * r * np.exp(-r * r),
    }), n)


def radial_diagonal(n):
    """Largest off-diagonal |entry| over the largest diagonal one, for the n x n
    Weyl matrix of the radial gaussian(0.4)."""
    return _band_leak(symbols.gaussian(0.4), n)


def weyl_fourier_agreement(count):
    """Largest |mu_w - mu_w_fourier| over the largest |mu_w|, k < count, for
    power(3): the Weyl column on `quadrature.support_rule` against the
    Fourier column through the Hankel step, two quadratures of one sequence."""
    prof = symbols.power(3.0)
    mu = operators.weyl_radial_eigs(prof, count)
    muf = operators.weyl_radial_eigs_fourier(symbols.fourier_radial_profile(prof), count)
    return float(np.abs(mu - muf).max() / np.abs(mu).max())


def positivity_weyl(count):
    """0 when, on the first count Laguerre coefficients, e^-s / pi reads
    nonnegative and a negated mode-1 kernel reads negative first at index 1; else 1."""
    ok1 = operators.positivity_laguerre_weyl(
        symbols.gaussian(1.0, amplitude=1 / np.pi), count).all_nonneg
    flipped = operators.positivity_laguerre_weyl(
        symbols.laguerre_mix([0.0, 1.0 / np.pi], amplitude=-2.0 * np.pi), count)
    ok2 = (not flipped.all_nonneg) and flipped.first_negative_index == 1
    return 0.0 if (ok1 and ok2) else 1.0


def positivity_antiwick(count):
    """0 when, on the first count indices, the anti-Wick moments of e^-s read
    nonnegative, those of 1 - s negative from index 0, and the Weyl coefficients
    of the Gaussian-smoothed disk s <= 1.5 nonnegative; else 1."""
    ok1 = operators.positivity_laguerre_antiwick(symbols.gaussian(1.0), count).all_nonneg
    rep = operators.positivity_laguerre_antiwick(symbols.custom(lambda s: 1.0 - s), count)
    ok2 = (not rep.all_nonneg) and rep.first_negative_index == 0
    smooth = symbols.antiwick_to_weyl(symbols.disk_indicator(1.5))
    ok3 = operators.positivity_laguerre_weyl(smooth, count).all_nonneg
    return 0.0 if (ok1 and ok2 and ok3) else 1.0


def _suite_capacity_small():
    r = capacity.fekete_optimize(capacity.disk(0.0, 1.0), 3, restarts=3, seed=5)
    return abs(r.log_energy - 3.0 * np.log(np.sqrt(3.0)))


# (name, suite, tolerance): a suite returns its error, or several errors of
# which the largest is held to the tolerance
SUITES = [
    ("wigner-ground-state", _suite_ground_state, 1e-12),
    ("wigner-closed-form", partial(pair_closed_form, 5, 11), 1e-9),
    ("moyal-orthogonality", partial(moyal_orthogonality, 5), 1e-9),
    ("husimi-closed-form", partial(husimi_closed_form, 7,
                                   ((0.0, 0.0), (0.5, 0.7), (-1.2, 0.4), (2.0, -1.0))), 1e-8),
    ("fourier-halving", partial(fourier_halving, 7,
                                ((0.0, 0.0), (1.0, 0.5), (-2.5, 1.5), (0.0, 4.0))), 1e-8),
    ("symplectic-frame", partial(symplectic_frame, 20240901, 3.0), 1e-12),
    ("hilbert-schmidt", partial(hilbert_schmidt, 48, 1.3), 1e-6),
    ("laplacian-level-shift", partial(laplacian_level_shift, 13), 1e-7),
    ("toeplitz-closed-form", _suite_toeplitz_closed_form, 1e-11),
    ("banded-structure", partial(banded_structure, 12), 1e-9),
    ("radial-diagonal", partial(radial_diagonal, 16), 1e-9),
    # reads 7.6e-14 at count 64; past count ~400 the two quadratures part (ROADMAP item 2)
    ("weyl-fourier-agreement", partial(weyl_fourier_agreement, 64), 1e-11),
    ("positivity-weyl", partial(positivity_weyl, 12), 0.5),
    ("positivity-antiwick", partial(positivity_antiwick, 12), 0.5),
    ("capacity-triangle", _suite_capacity_small, 1e-7),
]


FAULTS = wigner.FAULTS


def select_suites(name_filter=None):
    """The SUITES entries whose name contains name_filter; all when it is empty."""
    selected = [s for s in SUITES if not name_filter or name_filter in s[0]]
    if not selected:
        raise ValueError(f"no suite matches filter {name_filter!r}")
    return selected


def run_suites(name_filter=None, fault=None):
    """Run the identity suites; returns a list of result dicts."""
    results = []
    for name, fn, tol in select_suites(name_filter):
        with wigner.inject_fault(fault) if fault else contextlib.nullcontext():
            err = float(np.max(fn()))
        results.append({"suite": name, "error": err, "tolerance": tol,
                        "passed": bool(err < tol)})
    return results

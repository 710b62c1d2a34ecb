"""Truncated operator matrices and explicit eigenvalue formulas.

The perturbed magnetic Hamiltonian is assembled in the level basis whose
matrix elements are pairings of the pulled-back symbol against tensor
products of Wigner pair kernels, with unit-modulus phases i^(k-l-q+r).
Radial symbols get dedicated fast paths: their operators are diagonal in
the Hermite basis and the eigenvalues reduce to half-line Laguerre-type
integrals, evaluated in log space wherever values dive below the double
underflow threshold.  A separable 4-D symbol with radial factors is
therefore diagonal in the level basis and is assembled from those 1-D
sequences without any pairing matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature, symbols
from .specfun import laguerre_fn_iter, laguerre_log_abs
from .wigner import wigner_pair_diagonal_sweep


class TruncationError(RuntimeError):
    """The requested spectral data is not resolved at this truncation."""


@dataclass(frozen=True)
class TruncatedOperator:
    """Finite Hermitian matrix in a named orthonormal basis."""

    basis: str                           # 'hermite' | 'landau'
    matrix: np.ndarray = field(repr=False)
    b: float = 0.0
    levels: int = 0                      # landau basis: number of levels Q
    radial: int = 0                      # landau basis: radial indices K per level
    provenance: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def hermiticity_defect(self):
        return float(np.abs(self.matrix - self.matrix.conj().T).max())


@dataclass
class SpectrumReport:
    """Sorted eigenvalues with per-gap counts for the level basis."""

    eigenvalues: np.ndarray
    basis: str
    b: float = 0.0
    levels: int = 0
    radial: int = 0
    cluster_tol: float = 0.0
    windows: list = field(default_factory=list)   # dicts: q, side, lo, hi, count
    provenance: dict = field(default_factory=dict)

    def gap_count(self, q, side):
        for w in self.windows:
            if w["q"] == q and w["side"] == side:
                return w["count"]
        raise KeyError(f"no window for level {q} side {side!r}")

    def recount(self):
        """Recompute every window count from the raw eigenvalues."""
        return [
            dict(w, count=_count_open(self.eigenvalues, w["lo"], w["hi"], self.cluster_tol))
            for w in self.windows
        ]

    def clusters(self):
        """(value, multiplicity) pairs, grouping eigenvalues within cluster_tol."""
        out = []
        for lam in self.eigenvalues:
            if out and abs(lam - out[-1][0]) <= self.cluster_tol:
                v, m = out[-1]
                out[-1] = ((v * m + lam) / (m + 1), m + 1)
            else:
                out.append((lam, 1))
        return out


def _count_open(eigs, lo, hi, tol):
    return int(np.count_nonzero((eigs > lo + tol) & (eigs < hi - tol)))


# ---------------------------------------------------------------------------
# dense matrices in the Hermite basis


def kernel_pair_matrix(v, n, order=None):
    """Matrix of pairings <v, Psi_{k,l}> for k, l < n, by tensor quadrature.

    One Laguerre recurrence sweep per diagonal supplies all pair-kernel
    values; for real symbols only the lower triangle is integrated.
    """
    order = order or max(quadrature.DEFAULT_ORDER_R2, 2 * n + 16)
    rule = quadrature.gauss_hermite(order)
    p = rule.nodes
    fw = rule.flat_weights
    x = p[:, None]
    xi = p[None, :]
    weighted = np.asarray(v.evaluate(x, xi)) * fw[:, None] * fw[None, :]
    M = np.zeros((n, n), dtype=complex)
    for d in range(n):
        # <v, Psi_{k,l}> pairs v with conj(Psi_{k,l}) = Psi_{l,k}; val = Psi_{m+d, m}
        for m, val in wigner_pair_diagonal_sweep(n - d, x, xi, d):
            M[m, m + d] = np.einsum("ij,ij->", weighted, val)
            if d and not v.real:
                M[m + d, m] = np.einsum("ij,ij->", weighted, np.conj(val))
        if d and v.real:
            idx = np.arange(n - d)
            M[idx + d, idx] = np.conj(M[idx, idx + d])
    return M


def weyl_matrix(v, n, order=None, check=False):
    """Truncated Weyl operator of a 2-D symbol in the Hermite basis.

    Entry (k, l) is <op(v) psi_l, psi_k> = <v, Psi_{k,l}>; Hermitian for real
    symbols.  With check=True the assembly is repeated at double order and a
    disagreement raises QuadratureAccuracyError.
    """
    if n < 1:
        raise ValueError("need at least one basis function")
    order = order or max(quadrature.DEFAULT_ORDER_R2, 2 * n + 16)
    M = kernel_pair_matrix(v, n, order=order)
    if check:
        M2 = kernel_pair_matrix(v, n, order=2 * order)
        defect = np.abs(M2 - M).max()
        if defect > 1e-9 * max(1.0, np.abs(M2).max()):
            raise quadrature.QuadratureAccuracyError(
                f"pairing matrix moved by {defect:.3e} under order doubling")
        M = M2
    return TruncatedOperator("hermite", M, provenance={
        "basis": "hermite", "size": n, "order": order})


def hilbert_schmidt_check(v, n, order=None):
    """(sum of squared entries of the truncation, scaled squared symbol norm).

    The truncated Frobenius mass converges upward to (2 pi)^(-1) ||v||^2.
    """
    M = weyl_matrix(v, n, order=order).matrix
    mat = float(np.sum(np.abs(M) ** 2))
    sym = float(np.real(quadrature.integrate_r2(
        lambda x, xi: np.abs(v.evaluate(x, xi)) ** 2,
        order=order or max(quadrature.DEFAULT_ORDER_R2, 2 * n + 16))))
    return mat, sym / (2.0 * np.pi)


def banded_structure_check(v, n, order=None):
    """(max |entry| inside the declared angular band, max outside)."""
    width = v.bandwidth
    M = weyl_matrix(v, n, order=order).matrix
    k = np.arange(n)
    inside = np.abs(k[:, None] - k[None, :]) <= width
    a = np.abs(M)
    max_in = float(a[inside].max())
    max_out = float(a[~inside].max()) if (~inside).any() else 0.0
    return max_in, max_out


# ---------------------------------------------------------------------------
# radial fast paths: explicit eigenvalue sequences


def _laguerre_sequence(profile, count, order, profile_scale, laguerre_scale, sign):
    """sign^k int_0^inf R(profile_scale y) Lcal_k(laguerre_scale y) dy, k < count.

    Lcal_k is the weighted Laguerre function of laguerre_fn_iter (|Lcal_k| <= 1),
    so one degree sweep serves every k.  Compactly supported R takes a
    Gauss-Legendre panel on [0, support_bound / profile_scale] of order
    `order` or max(200, count // 2 + 64); otherwise Gauss-Laguerre with flat
    weights of order `order` or max(400, count // 2 + 400).
    """
    if profile.compact_support:
        rule = quadrature.gauss_legendre_panel(
            order or max(200, count // 2 + 64), 0.0, profile.support_bound / profile_scale)
        weights = rule.weights
    else:
        rule = quadrature.gauss_laguerre(order or max(quadrature.DEFAULT_ORDER_HALFLINE,
                                                      count // 2 + 400))
        weights = rule.flat_weights
    y = rule.nodes
    c = weights * np.atleast_1d(profile(profile_scale * y))
    mu = np.empty(count)
    for k, val in enumerate(laguerre_fn_iter(0.0, laguerre_scale * y, count - 1)):
        mu[k] = sign ** k * np.dot(c, val)
    return mu


def weyl_radial_eigs(profile, count, order=None):
    """Eigenvalues mu_k, k < count, of the Weyl operator with a radial symbol.

    mu_k = ((-1)^k / 2) int_0^inf R(t/2) L_k(t) e^(-t/2) dt, evaluated in the
    weighted form (-1)^k int R(u) Lcal_k(2u) du.  A Laguerre-mix profile
    sum_j c_j (-1)^j L_j(2s) e^(-s) (arg_scale 1) needs no quadrature: by
    orthogonality mu_k = amplitude c_k / 2, and 0 past the last coefficient.
    """
    if profile.kind == "laguerre_mix" and profile.arg_scale == 1.0:
        mu = np.zeros(count)
        cs = profile.coeffs[:count]
        mu[:len(cs)] = 0.5 * profile.amplitude * np.array(cs)
        return mu
    return _laguerre_sequence(profile, count, order, 1.0, 2.0, -1.0)


def weyl_radial_eigs_fourier(profile_hat, count, order=None):
    """Same eigenvalues from the Fourier side: mu_k = int Rhat(2t) Lcal_k(t) dt."""
    return _laguerre_sequence(profile_hat, count, order, 2.0, 1.0, 1.0)


_LOG_GRID_STEP = 0.02
_LOG_GRID_FLOOR = -60.0
_LOG_GRID_MARGIN = 36.0      # nats the grid ends must lie below each row's peak
_MOMENT_BLOCK = 16           # rows per (rows x nodes) block


@functools.lru_cache(maxsize=32)
def _log_grid(size):
    """Trapezoid nodes in u = ln t: (t, ln t, ln weight), read-only and shared.

    Serves t^n e^(-t) times slowly varying factors, n < size, on
    u in [-60, ln(size + 60) + 2.5] with step h = 0.02 and weights h t.  Degree
    n peaks with width n^(-1/2) in u, and the rule errs by about
    exp(-2 pi^2 / (n h^2)), so past size ~ 940 h shrinks to hold (size + 60) h^2
    at 0.4.
    """
    h = min(_LOG_GRID_STEP, math.sqrt(0.4 / (size + 60.0)))
    top = math.log(size + 60.0) + 2.5
    u = _LOG_GRID_FLOOR + h * np.arange(math.ceil((top - _LOG_GRID_FLOOR) / h) + 1)
    t = np.exp(u)
    log_w = math.log(h) + u
    for a in (t, u, log_w):
        a.setflags(write=False)
    return t, u, log_w


def _radial_moments(profile, q, scale, count, order=None, log_scale=False):
    """nu_k, k < count, of the level-q compression of R(scale t), every k at once.

    nu_k = (m!/M!) int_0^inf R(scale t) t^d [L_m^d(t)]^2 e^(-t) dt with
    m = min(k, q), M = max(k, q), d = |k - q|, all on one node set: the log
    grid, or for compactly supported profiles a Gauss-Legendre panel on
    [0, support_bound / scale] of order `order` or max(240, (count + 120) // 2).
    On the grid a row whose integrand is not 36 nats below its peak at both
    ends raises QuadratureAccuracyError.
    """
    on_grid = not profile.compact_support
    if on_grid:
        t, ln_t, log_w = _log_grid(count + q)    # row k: t^(k+q) e^(-t) times bounded factors
    else:
        rule = quadrature.gauss_legendre_panel(
            order or max(240, (count + 120) // 2), 0.0, profile.support_bound / scale)
        t, ln_t, log_w = rule.nodes, np.log(rule.nodes), np.log(rule.weights)
    lead = log_w - t
    if log_scale:
        lead = lead + profile.log_value(scale * t)
    else:
        values = np.atleast_1d(profile(scale * t))
        with np.errstate(divide="ignore"):
            ln_abs = np.log(np.abs(values))
    out = np.empty(count)
    for k0 in range(0, count, _MOMENT_BLOCK):
        ks = np.arange(k0, min(k0 + _MOMENT_BLOCK, count))
        m, d = np.minimum(ks, q), np.abs(ks - q)
        norm = [math.lgamma(a + 1.0) - math.lgamma(a + c + 1.0) for a, c in zip(m, d)]
        terms = d[:, None] * ln_t + lead + np.array(norm)[:, None]
        for row, (a, c) in enumerate(zip(m, d)):
            if a:
                terms[row] += 2.0 * laguerre_log_abs(int(a), float(c), t)
        logs = terms if log_scale else terms + ln_abs     # ln |integrand|
        peak = logs.max(axis=1)
        ends = np.maximum(logs[:, 0], logs[:, -1])
        short = np.isfinite(peak) & (ends > peak - _LOG_GRID_MARGIN)
        if on_grid and short.any():
            i = int(np.argmax(short))
            raise quadrature.QuadratureAccuracyError(
                f"moment k = {ks[i]}: integrand only {peak[i] - ends[i]:.1f} nats below "
                f"its peak at an end of the log grid (needs {_LOG_GRID_MARGIN:g})")
        if log_scale:
            shift = np.where(np.isfinite(peak), peak, 0.0)
            with np.errstate(divide="ignore"):
                out[ks] = shift + np.log(np.exp(terms - shift[:, None]).sum(axis=1))
        else:
            out[ks] = np.exp(terms) @ values
    return out


def antiwick_radial_eigs(profile, count, order=None, log_scale=False):
    """Eigenvalues of the anti-Wick operator with a radial symbol.

    mu_k = int_0^inf R(2t) t^k e^(-t) / k! dt, every k from one node set
    (`_radial_moments`); `order` reaches only the Legendre panel of compactly
    supported profiles.  With log_scale=True the natural logs are returned
    (positive profiles only), exact far below the underflow threshold.
    """
    return _radial_moments(profile, 0, 2.0, count, order=order, log_scale=log_scale)


def toeplitz_radial_eigs(zeta, q, b, count, order=None, log_scale=False):
    """Diagonal of the level-q compression of a radial multiplier zeta.

    nu_k = (m!/M!) int_0^inf R(2t/b) t^(|k-q|) [L_m^(|k-q|)(t)]^2 e^(-t) dt
    with m = min(k, q), M = max(k, q); for q = 0 this is the plain Gamma-
    weight moment.  Every k comes from one node set (`_radial_moments`);
    `order` reaches only the Legendre panel of compactly supported weights.
    log_scale returns ln nu_k for positive profiles.
    """
    if b <= 0:
        raise ValueError("field strength must be positive")
    return _radial_moments(zeta, q, 2.0 / b, count, order=order, log_scale=log_scale)


# ---------------------------------------------------------------------------
# positivity criteria for radial symbols


@dataclass(frozen=True)
class SignReport:
    coefficients: np.ndarray
    all_nonneg: bool
    first_negative_index: int = -1


def _sign_report(values, tol=None):
    values = np.asarray(values)
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.abs(values).max()))
    neg = np.nonzero(values < -tol)[0]
    if neg.size:
        return SignReport(values, False, int(neg[0]))
    return SignReport(values, True)


def positivity_laguerre_weyl(profile, count, order=None, tol=None):
    """Nonnegativity of the Weyl operator via its Laguerre coefficients.

    The operator is nonnegative exactly when every coefficient
    c_k = 2 mu_k is nonnegative.
    """
    return _sign_report(2.0 * weyl_radial_eigs(profile, count, order=order), tol=tol)


def positivity_laguerre_antiwick(profile, count, order=None, tol=None):
    """Nonnegativity of the anti-Wick operator via its Gamma-weight moments."""
    return _sign_report(antiwick_radial_eigs(profile, count, order=order), tol=tol)


# ---------------------------------------------------------------------------
# the perturbed Hamiltonian in the level basis


def landau_levels(b, q_count):
    return b * (2.0 * np.arange(q_count) + 1.0)


def assemble_hv(V, levels, radial, sign=+1, order=None):
    """Truncated matrix of H = diag(Landau levels) + sign * op(V).

    The route follows the symbol's structure and is recorded in the
    provenance:

      radial-diagonal  separable, every factor radial: both pairing matrices
                       are diagonal, so H is diagonal with entries
                       lam_q + sign * sum c mu_q(A) mu_k(B), mu the 1-D Weyl
                       sequences (default rules; `order` is not used)
      dense-separable  separable with an angular or generic factor: each 4-D
                       pairing factors into two 2-D pairing matrices
      generic          full 4-D tensor quadrature, capped at
                       levels * radial <= 48 per side

    The i^(k-l-q+r) phases enter as a diagonal unitary conjugation, so they
    never change the spectrum but are kept so the matrix is literally the
    one in the level basis.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    b = V.b
    Q, K = int(levels), int(radial)
    if Q < 1 or K < 1:
        raise ValueError("levels and radial must be positive")
    if V.separable and all(A.structure == B.structure == "radial" for _, A, B in V.terms):
        return _diagonal_hv(b, _radial_couplings(V.terms, Q, K), sign)
    dim = Q * K
    if V.separable:
        route = "dense-separable"
        M0 = np.zeros((Q, K, Q, K), dtype=complex)
        for c, A, B in V.terms:
            PA = kernel_pair_matrix(A, Q, order=order)
            PB = kernel_pair_matrix(B, K, order=order)
            M0 += c * np.einsum("qr,kl->qkrl", PA, PB)
        M0 = M0.reshape(dim, dim)
    else:
        if dim > 48:
            raise ValueError("generic 4-D quadrature is capped at levels*radial <= 48")
        route = "generic"
        M0 = _assemble_generic(V, Q, K, order=order)
    pow4 = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])
    D = pow4[(np.arange(K)[None, :] - np.arange(Q)[:, None]) % 4].reshape(dim)  # i^(k-q)
    M = D[:, None] * M0 * np.conj(D)[None, :]
    lam = np.repeat(landau_levels(b, Q), K)
    H = np.diag(lam).astype(complex) + sign * M
    # truncation trust region: couplings on the truncation boundary bound
    # what was discarded; eigenvalues closer to a level than 10x that are
    # not to be trusted for gap counting
    A = np.abs(M0.reshape(Q, K, Q, K))
    boundary = max(float(A[:, K - 1, :, :].max()), float(A[:, :, :, K - 1].max()),
                   float(A[Q - 1].max()), float(A[:, :, Q - 1, :].max()))
    return TruncatedOperator("landau", H, b=b, levels=Q, radial=K, provenance={
        "basis": "landau", "levels": Q, "radial": K, "sign": sign, "route": route,
        "order": order, "max_coupling": float(A.max()), "trust_radius": 10.0 * boundary})


def _radial_couplings(terms, levels, radial, b_eigs=weyl_radial_eigs):
    """Level-basis diagonal sum c mu_q(A) mu_k(B) of radial (x) radial terms.

    Returns the (levels, radial) grid; row q holds level q.  The A-side
    sequence is the Weyl one; b_eigs(profile, count) gives the B side.
    """
    G = np.zeros((levels, radial))
    for c, A, B in terms:
        G += c * np.outer(weyl_radial_eigs(A.profile, levels), b_eigs(B.profile, radial))
    return G


def _diagonal_hv(b, G, sign):
    """Diagonal level-basis operator lam_q + sign * G[q, k], flattened (q, k)."""
    Q, K = G.shape
    H = np.diag((landau_levels(b, Q)[:, None] + sign * G).ravel()).astype(complex)
    # the diagonal entries on the truncation boundary (radial index K-1, level
    # Q-1) are the couplings the dense route's trust radius is taken from
    A = np.abs(G)
    boundary = max(float(A[:, K - 1].max()), float(A[Q - 1].max()))
    return TruncatedOperator("landau", H, b=b, levels=Q, radial=K, provenance={
        "basis": "landau", "levels": Q, "radial": K, "sign": sign,
        "route": "radial-diagonal", "order": None, "max_coupling": float(A.max()),
        "trust_radius": 10.0 * boundary})


def _assemble_generic(V, Q, K, order=None):
    N = max(Q, K)
    rule = quadrature.gauss_hermite(order or max(quadrature.DEFAULT_ORDER_R4, 2 * N + 16))
    p = rule.nodes
    fw = rule.flat_weights
    n = len(p)
    vals = V.evaluate_pulled(p[:, None, None, None], p[None, :, None, None],
                             p[None, None, :, None], p[None, None, None, :])
    vals = vals * fw[:, None, None, None] * fw[None, :, None, None] \
        * fw[None, None, :, None] * fw[None, None, None, :]
    G = np.empty((N, N, n, n), dtype=complex)   # conj(Psi_{q,r}(x, xi)), sliced per factor
    for d in range(N):
        for m, val in wigner_pair_diagonal_sweep(N - d, p[:, None], p[None, :], d):
            G[m + d, m] = np.conj(val)
            G[m, m + d] = val
    half = np.einsum("xyuv,qrxu->qryv", vals, G[:Q, :Q])
    M0 = np.einsum("qryv,klyv->qkrl", half, G[:K, :K])
    return M0.reshape(Q * K, Q * K)


def eig_hermitian(T, provenance=None):
    """Full symmetric eigendecomposition of a truncated operator.

    Checks hermiticity against 1e-10 of the Frobenius norm, clusters
    degenerate eigenvalues at the same scale, and for the level basis
    populates the spectral-gap window counts.  A matrix with no nonzero
    off-diagonal entry (the radial-diagonal route) gives its sorted diagonal
    without a dense eigensolve.
    """
    M = T.matrix
    norm = float(np.linalg.norm(M)) or 1.0
    defect = T.hermiticity_defect()
    if defect > 1e-10 * norm:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e}")
    if np.count_nonzero(M) == np.count_nonzero(M.diagonal()):
        eigs = np.sort(M.diagonal().real)
    else:
        eigs = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    tol = 1e-10 * norm
    windows = []
    if T.basis == "landau" and T.levels:
        lam = landau_levels(T.b, T.levels + 1)
        for q in range(T.levels):
            lo = lam[q - 1] if q >= 1 else -np.inf
            windows.append({
                "q": q, "side": "-", "lo": lo, "hi": lam[q],
                "count": _count_open(eigs, lo, lam[q], tol)})
            windows.append({
                "q": q, "side": "+", "lo": lam[q], "hi": lam[q + 1],
                "count": _count_open(eigs, lam[q], lam[q + 1], tol)})
    return SpectrumReport(eigs, T.basis, b=T.b, levels=T.levels, radial=T.radial,
                          cluster_tol=tol, windows=windows,
                          provenance=dict(T.provenance, **(provenance or {})))


# ---------------------------------------------------------------------------
# prescribed gap eigenvalues


def prescribed_gap_symbol(b, multiplicities, level_scales, index_scales):
    """Separable Schwartz symbol whose negative perturbation fills the gaps
    below chosen Landau levels with exactly the prescribed eigenvalue counts.

    multiplicities[q] eigenvalues are planted below level q at
    lam_q - level_scales[q] * index_scales[k]; level_scales must be strictly
    decreasing (and < 2b except at level 0), index_scales strictly
    decreasing within (0, 1).  Returns (symbol, predictions) with
    predictions a list of (q, k, eigenvalue).
    """
    if b <= 0:
        raise ValueError("field strength must be positive")
    multiplicities = [int(m) for m in multiplicities]
    if any(m < 0 for m in multiplicities):
        raise ValueError("multiplicities must be nonnegative")
    active = [q for q, m in enumerate(multiplicities) if m > 0]
    if active and active[-1] >= len(level_scales):
        raise ValueError("not enough level scales")
    used_levels = [level_scales[q] for q in active]
    for q, c in zip(active, used_levels):
        if c <= 0:
            raise ValueError("level scales must be positive")
        if q >= 1 and c >= 2.0 * b:
            raise ValueError("level scales beyond level 0 must stay below 2b")
    if any(x <= y for x, y in zip(used_levels, used_levels[1:])):
        raise ValueError("level scales must be strictly decreasing")
    k_max = max(multiplicities, default=0)
    used_idx = list(index_scales[:k_max])
    if len(used_idx) < k_max:
        raise ValueError("not enough index scales")
    if any(not 0.0 < c < 1.0 for c in used_idx):
        raise ValueError("index scales must lie in (0, 1)")
    if any(x <= y for x, y in zip(used_idx, used_idx[1:])):
        raise ValueError("index scales must be strictly decreasing")

    terms = []
    predictions = []
    lam = landau_levels(b, len(multiplicities))
    four_pi_sq = (2.0 * np.pi) ** 2
    for q in active:
        A = symbols.radial_symbol(symbols.diag_kernel_profile(q))
        for k in range(multiplicities[q]):
            C = level_scales[q] * index_scales[k]
            B = symbols.radial_symbol(symbols.diag_kernel_profile(k))
            terms.append((four_pi_sq * C, A, B))
            predictions.append((q, k, lam[q] - C))
    return symbols.separable_symbol(b, terms, frame="lab"), predictions


# ---------------------------------------------------------------------------
# two-sided eigenvalue sandwich against the compressed multiplier


def _gap_shifts(report, q, sign):
    """Distances of the level-q gap eigenvalues from the level, non-increasing."""
    lam = landau_levels(report.b, report.levels + 1)
    eigs = report.eigenvalues
    tol = report.cluster_tol
    if sign > 0:
        lo, hi = lam[q], lam[q + 1]
        sel = eigs[(eigs > lo + tol) & (eigs < hi - tol)]
        return np.sort(sel - lam[q])[::-1]
    lo = lam[q - 1] if q >= 1 else -np.inf
    sel = eigs[(eigs > lo + tol) & (eigs < lam[q] - tol)]
    return np.sort(lam[q] - sel)[::-1]


def birman_schwinger_check(zeta_profile, r, q, b, levels, radial,
                           k_range=(5, 30), eps_grid=None, k0_max=3, order=None):
    """Empirical two-sided sandwich between gap eigenvalues and the
    compressed-multiplier spectrum.

    Builds the standard fixture from a nonnegative radial weight zeta:
    omega = L_r(-Laplacian/2b) zeta, swap-and-scale to vt, Gaussian-smooth to
    v, and couple the level-q kernel to v.  The level-basis H(+/-V) is
    diagonal; its entries come from the anti-Wick sequence of vt, which
    equals the Weyl sequence of v, so no numeric smoothing is done.  Extracts
    the shifts around level q from both signs of one diagonal, and finds the
    smallest (eps, k0) with

        nu_{k+k0} / (1+eps) <= shift_k <= nu_{k-k0} / (1-eps)

    over the k range, nu the level-r compression of zeta (`order` applies to
    nu only).  Returns a report dict; raises TruncationError when the window
    is not resolved.
    """
    eps_grid = eps_grid if eps_grid is not None else [x / 100.0 for x in range(1, 26)]
    k_lo, k_hi = k_range
    omega = symbols.laguerre_laplacian(symbols.radial_symbol(zeta_profile), b, r)
    vt = symbols.radial_symbol(omega.profile.with_arg_scale(1.0 / b))
    level_kernel = symbols.radial_symbol(symbols.diag_kernel_profile(q))

    nu = toeplitz_radial_eigs(zeta_profile, r, b, k_hi + k0_max + 2, order=order)
    nu = np.sort(nu[nu > 0])[::-1]
    if not len(nu):
        return {"vacuous": True, "epsilon": 0.0, "k0": 0}

    # the Weyl eigenvalues of the smoothed symbol are the anti-Wick ones of vt
    G = _radial_couplings([(2.0 * np.pi, level_kernel, vt)], levels, radial,
                          b_eigs=antiwick_radial_eigs)
    shifts = {}
    for sign in (+1, -1):
        rep = eig_hermitian(_diagonal_hv(b, G, sign))
        delta = _gap_shifts(rep, q, sign)
        if len(delta) <= k_hi:
            raise TruncationError(
                f"only {len(delta)} gap eigenvalues resolved; need {k_hi + 1}")
        shifts[sign] = delta

    ks = np.arange(k_lo, k_hi + 1)
    for k0 in range(k0_max + 1):
        for eps in eps_grid:
            ok = True
            for sign in (+1, -1):
                d = shifts[sign][ks]
                lower = nu[ks + k0] / (1.0 + eps)
                upper = nu[ks - k0] / (1.0 - eps)
                if not np.all((lower <= d) & (d <= upper)):
                    ok = False
                    break
            if ok:
                return {
                    "vacuous": False, "epsilon": float(eps), "k0": int(k0),
                    "shifts_plus": shifts[+1][: k_hi + 1],
                    "shifts_minus": shifts[-1][: k_hi + 1],
                    "nu": nu[: k_hi + k0_max + 1],
                }
    raise TruncationError("no (eps, k0) pair satisfied the sandwich on the range")

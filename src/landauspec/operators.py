"""Hermite-basis pairing matrices, explicit eigenvalue sequences, and the
level-basis Hamiltonian.

A 2-D symbol's Weyl operator is truncated in the Hermite basis by pairing
the symbol against Wigner pair kernels on a tensor Gauss-Hermite rule whose
order doubles until two successive matrices agree; this dense route is the
independent check of the sequences below.  Radial symbols need no pairing:
their operators are diagonal in the Hermite basis and the eigenvalues reduce
to half-line Laguerre-type integrals, exact for Laguerre mixes and
gaussians and by quadrature otherwise.  The Toeplitz and anti-Wick moments
are one signed sum in log space for every weight, so their logs stay exact
far below the double underflow threshold.  The perturbed magnetic
Hamiltonian H_V = H_0 + op(V) of a separable 4-D symbol with radial factors
is therefore diagonal in the level basis, and is held as that diagonal,
built from those 1-D sequences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature, symbols, wigner
from .specfun import laguerre_fn_iter, laguerre_fn_sq_log


class TruncationError(RuntimeError):
    """The requested spectral data is not resolved at this truncation."""


@dataclass(frozen=True)
class LevelOperator:
    """Truncated level-basis H_V, diagonal: entry (q, k) is lam_q + sign * G[q, k].

    trust_radius is ten times the largest coupling on the truncation boundary
    (see `_diagonal_hv`).
    """

    b: float
    diagonal: np.ndarray = field(repr=False)   # (levels, radial)
    trust_radius: float = 0.0


@dataclass
class SpectrumReport:
    """Sorted eigenvalues with per-gap counts for the level basis."""

    eigenvalues: np.ndarray
    b: float = 0.0
    levels: int = 0
    cluster_tol: float = 0.0
    windows: list = field(default_factory=list)   # dicts: q, side, lo, hi, count

    def window(self, q, side):
        """The window dict of level q on side "-" (below it) or "+" (above it)."""
        for w in self.windows:
            if w["q"] == q and w["side"] == side:
                return w
        raise KeyError(f"no window for level {q} side {side!r}")

    def gap_count(self, q, side):
        return self.window(q, side)["count"]

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


def _open_window(eigs, lo, hi, tol):
    """The eigenvalues in (lo + tol, hi - tol)."""
    return eigs[(eigs > lo + tol) & (eigs < hi - tol)]


# ---------------------------------------------------------------------------
# dense matrices in the Hermite basis


_DENSE_MIN_ORDER = 80        # lowest tensor Gauss-Hermite order the doubling starts from
_DENSE_MAX_ORDER = 1280      # highest tensor Gauss-Hermite order the doubling reaches


def _settled(estimate, order, what):
    """estimate(order) at doubling orders until two in a row agree; the finer one.

    Agreement is max |difference| <= 1e-9 max(1, max |finer|).  The doubling
    stops at order 1280: an estimate still moving there, or one that would
    start past 640, raises QuadratureAccuracyError.
    """
    if 2 * order > _DENSE_MAX_ORDER:
        raise quadrature.QuadratureAccuracyError(
            f"{what} would start at order {order}; order doubling stops at {_DENSE_MAX_ORDER}")
    prev = estimate(order)
    while 2 * order <= _DENSE_MAX_ORDER:
        order *= 2
        cur = estimate(order)
        defect = float(np.abs(cur - prev).max())
        if defect <= 1e-9 * max(1.0, float(np.abs(cur).max())):
            return cur
        prev = cur
    raise quadrature.QuadratureAccuracyError(
        f"{what} has not settled by order {order}, where order doubling stops: "
        f"the last doubling moved it by {defect:.3e}")


_PAIRING_BLOCK = 1 << 17     # most tensor-rule nodes per row block of a pairing matrix


def _pairing_matrix(v, n, order):
    """Matrix of pairings <v, Psi_{k,l}> for k, l < n, by tensor quadrature of one order.

    The rule runs in blocks of rows of x, at most 2^17 nodes each, so the
    symbol values, phases and sweeps of the order-1280 grid are never held
    at once.  In a block, one Laguerre recurrence sweep per diagonal supplies
    the real radial factors of its pair kernels, and the weights take the
    diagonal's phase once; symbols are real, so only the upper triangle is
    integrated.
    """
    p, fw = quadrature.gauss_hermite(order)
    xi = p[None, :]
    M = np.zeros((n, n), dtype=complex)
    rows = max(1, _PAIRING_BLOCK // order)
    for r in range(0, order, rows):
        x = p[r:r + rows, None]
        weighted = np.asarray(v.evaluate(x, xi)) * fw[r:r + rows, None] * fw[None, :]
        for d in range(n):
            # <v, Psi_{k,l}> pairs v with conj(Psi_{k,l}) = Psi_{l,k}, and Psi_{m+d, m}
            # is c_m ell times the phase: two real dots per m against the phased weights
            phased = weighted * wigner.pair_phase(x, xi, d)
            re, im = (np.ascontiguousarray(part).ravel() for part in (phased.real, phased.imag))
            for m, c, ell in wigner.pair_radial_sweep(n - d, x, xi, d):
                ell = ell.ravel()
                M[m, m + d] += c * complex(re @ ell, im @ ell)
    for d in range(1, n):
        idx = np.arange(n - d)
        M[idx + d, idx] = np.conj(M[idx, idx + d])
    return M


def weyl_matrix(v, n):
    """Truncated Weyl operator of a 2-D symbol in the Hermite basis, (n, n).

    v is a radial profile or an angular symbol (anything with evaluate(x, xi)).
    Entry (k, l) is <op(v) psi_l, psi_k> = <v, Psi_{k,l}>; Hermitian, as
    symbols are real.  The tensor Gauss-Hermite order starts at
    max(80, 2n + 16) and doubles until two successive matrices agree
    (`_settled`), so a symbol the rule does not resolve raises
    QuadratureAccuracyError instead of returning a wrong matrix.
    """
    if n < 1:
        raise ValueError("need at least one basis function")
    return _settled(lambda order: _pairing_matrix(v, n, order),
                    max(_DENSE_MIN_ORDER, 2 * n + 16), "pairing matrix")


def hilbert_schmidt_check(v, n):
    """(sum of squared entries of the truncation, scaled squared symbol norm).

    The truncated Frobenius mass converges upward to (2 pi)^(-1) ||v||^2;
    the norm doubles its order from 80 as the matrix does.
    """
    mat = float(np.sum(np.abs(weyl_matrix(v, n)) ** 2))
    sym = _settled(lambda order: quadrature.integrate_r2(
        lambda x, xi: np.abs(v.evaluate(x, xi)) ** 2, order=order),
        _DENSE_MIN_ORDER, "symbol norm")
    return mat, float(np.real(sym)) / (2.0 * np.pi)


def banded_structure_check(v, n):
    """(max |entry| inside the declared angular band, max outside)."""
    width = v.bandwidth
    M = weyl_matrix(v, n)
    k = np.arange(n)
    inside = np.abs(k[:, None] - k[None, :]) <= width
    a = np.abs(M)
    return float(a[inside].max()), float(np.where(inside, 0.0, a).max())


# ---------------------------------------------------------------------------
# radial fast paths: explicit eigenvalue sequences


def _laguerre_sequence(profile, count, profile_scale, laguerre_scale, sign):
    """sign^k int_0^inf R(profile_scale y) Lcal_k(laguerre_scale y) dy, k < count.

    Lcal_k is the weighted Laguerre function of laguerre_fn_iter (|Lcal_k| <= 1).
    A gaussian R = A e^(-a s) needs no quadrature: with beta = a profile_scale /
    laguerre_scale the integral is (A / laguerre_scale) (beta - 1/2)^k /
    (beta + 1/2)^(k+1), read as a lead times exp(k ln |ratio|), the log taken
    in long double, so beta = 1/2 gives exactly 0 from k = 1.  Any other R
    runs one degree sweep for every k on `quadrature.support_rule`: panels
    of max(200, count // 2 + 64) nodes below laguerre_scale y = 4 count + 40
    (2 count)^(1/3) + 100, where every Lcal_k is below e^-45, and a tail of
    count // 2 + 400.
    """
    if profile.kind == "gaussian":
        # in y' = laguerre_scale y: (A / laguerre_scale) int e^(-(beta + 1/2) y') L_k(y') dy'
        a, half = profile.rate, 0.5 * laguerre_scale / profile_scale
        lead = (profile.amplitude / profile_scale) / (a + half)
        ld = np.longdouble
        with np.errstate(divide="ignore"):  # a = half: ratio 0, ln 0 = -inf
            ln_ratio = np.log(abs(ld(a) - ld(half)) / (ld(a) + ld(half)))
        logs = np.zeros(count, dtype=ld)
        logs[1:] = np.arange(1, count) * ln_ratio    # k = 0 forms no 0 * ln 0
        signs = (sign * math.copysign(1.0, a - half)) ** np.arange(count)
        return lead * signs * np.exp(logs).astype(float) + 0.0    # + 0.0: no -0.0 at beta = 1/2
    top = (4.0 * count + 40.0 * (2.0 * count) ** (1.0 / 3.0) + 100.0) / laguerre_scale
    y, weights = quadrature.support_rule(
        [s / profile_scale for s in profile.breakpoints], max(200, count // 2 + 64),
        count // 2 + 400, top)
    c = weights * np.atleast_1d(profile(profile_scale * y))
    mu = np.empty(count)
    for k, val in enumerate(laguerre_fn_iter(0.0, laguerre_scale * y, count - 1)):
        mu[k] = sign ** k * np.dot(c, val)
    return mu


def weyl_radial_eigs(profile, count):
    """Eigenvalues mu_k, k < count, of the Weyl operator with a radial symbol.

    mu_k = ((-1)^k / 2) int_0^inf R(t/2) L_k(t) e^(-t/2) dt, evaluated in the
    weighted form (-1)^k int R(u) Lcal_k(2u) du.  Two kinds need no quadrature.
    A Laguerre-mix profile sum_j c_j (-1)^j L_j(2s) e^(-s) reads, by
    orthogonality, mu_k = amplitude c_k / 2, and 0 past the last coefficient.
    A gaussian A e^(-a s) reads mu_k = A (1 - a)^k / (1 + a)^(k+1)
    (`_laguerre_sequence`), exactly 0 from k = 1 at a = 1.
    """
    if profile.laguerre_coeffs is not None:
        cs = 0.5 * profile.amplitude * np.array(profile.laguerre_coeffs[:count])
        return np.pad(cs, (0, count - cs.size))
    return _laguerre_sequence(profile, count, 1.0, 2.0, -1.0)


def weyl_radial_eigs_fourier(profile_hat, count):
    """Same eigenvalues from the Fourier side: mu_k = int Rhat(2t) Lcal_k(t) dt.

    The dual of a gaussian is a gaussian, whose integral `_laguerre_sequence`
    takes in closed form."""
    return _laguerre_sequence(profile_hat, count, 2.0, 1.0, 1.0)


_LOG_GRID_STEP = 0.02
_LOG_GRID_FLOOR = -60.0
_LOG_GRID_MARGIN = 36.0      # nats the grid ends must lie below each row's peak
_MOMENT_BLOCK = 16           # most rows per (rows x nodes) block
_COARSE_STRIDE = 16          # grid nodes per coarse-pass node
_COARSE_SIZE = 1 << 14       # most (rows x nodes) elements per chunk of the coarse pass
_WINDOW_DROP = 60.0          # nats below a row's coarse peak that its block's window keeps
_WINDOW_PAD = 2              # coarse steps added to each side of a window
_PASS_SIZE = 4096            # most (rows x nodes) elements per recurrence buffer


@functools.lru_cache(maxsize=32)
def _log_grid(size):
    """Trapezoid nodes in u = ln t: (t, ln t, ln(weight) - t), read-only and shared.

    Serves t^n e^(-t) times slowly varying factors, n < size, on u in
    [-60, ln(size + 60) + 2.5] with step h = 0.02 and weights h t.  Degree n
    peaks with width n^(-1/2) in u, and the rule errs by about
    exp(-2 pi^2 / (n h^2)), so past size ~ 940 h shrinks to hold (size + 60) h^2 at 0.4.
    """
    h = min(_LOG_GRID_STEP, math.sqrt(0.4 / (size + 60.0)))
    top = math.log(size + 60.0) + 2.5
    u = _LOG_GRID_FLOOR + h * np.arange(math.ceil((top - _LOG_GRID_FLOOR) / h) + 1)
    t = np.exp(u)
    lead = (math.log(h) + u) - t
    for a in (t, u, lead):
        a.setflags(write=False)
    return t, u, lead


def _row_blocks(q, count):
    """Row ranges (k0, k1) of `_radial_moments`: row q alone, then blocks of 1, 2,
    4 and 8 rows and from there of 16 on each side of it, within [0, count)."""
    mid = min(q, count)
    blocks = [(q, q + 1)] if q < count else []
    lo, width = mid + 1, 1
    while lo < count:
        blocks.append((lo, min(lo + width, count)))
        lo, width = lo + width, min(2 * width, _MOMENT_BLOCK)
    hi, width = mid, 1
    while hi > 0:
        blocks.append((max(hi - width, 0), hi))
        hi, width = hi - width, min(2 * width, _MOMENT_BLOCK)
    return blocks


def _gaussian_moments(profile, q, scale, count):
    """(sign, ln |nu_k|) of `_radial_moments` for R = A e^(-a s), in closed form.

    With c = a scale, m = min(k, q) and d = |k - q|, Gradshteyn & Ryzhik
    7.414.4 gives nu_k = A (1 + c)^-(2m+d+1) S_k, S_k a sum of m + 1 positive
    terms: sum_i C(m, i) C(m+d+i, i) c^(2i) (1 - c^2)^(m-i) for c <= 1, and by
    Pfaff's transformation sum_i C(m, i) C(m+d+i, m) (c^2 - 1)^(m-i) for c > 1.
    ln |nu_k| is their log-sum-exp, summed in long double from a table of
    ln n!: at q = 1000 it holds to a few units in its last place where long
    double is the 80-bit format (x86-64), and to about 5e-12 where it is
    plain double.  A zero power contributes 0, never 0 ln 0.  Rows go in
    chunks of at most 2^14 terms.  A scale past the double range (2/b at a
    subnormal b) raises QuadratureAccuracyError, as the log grid does there.
    """
    if scale == math.inf:
        raise quadrature.QuadratureAccuracyError(
            "the weight's argument scale (2/b) leaves the double range")
    ld = np.longdouble
    c = profile.rate * scale
    # ln (1 + c), and ln y with y = 1 - c^2 or c^2 - 1; a c past the double
    # range is read from its logs
    ln_1c = np.log1p(ld(c)) if c < math.inf else np.log(ld(profile.rate)) + np.log(ld(scale))
    below = c <= 1.0
    with np.errstate(divide="ignore"):  # c = 1 (y = 0) or c = 0: ln 0 = -inf
        if below:
            ln_y, ln_c2 = np.log((1 - ld(c)) * (1 + ld(c))), 2 * np.log(ld(c))
        else:
            ln_y = np.log(ld(c) - 1) + ln_1c if c < math.inf else 2 * ln_1c
    ks = np.arange(count)
    m_all, d_all = np.minimum(ks, q), np.abs(ks - q)
    top = int((2 * m_all + d_all).max(initial=0))
    ln_fact = np.zeros(top + 1, dtype=ld)
    np.cumsum(np.log(np.arange(1, top + 1, dtype=ld)), out=ln_fact[1:])
    log_abs = np.empty(count)
    rows = max(1, _COARSE_SIZE // (min(q, count) + 1))
    for k0 in range(0, count, rows):
        m, d = m_all[k0:k0 + rows, None], d_all[k0:k0 + rows, None]
        i = np.arange(int(m.max()) + 1)
        live = i <= m
        i, j = np.where(live, i, 0), np.where(live, m - i, 0)      # j: the power of y
        # n ln x with 0 where n = 0: the ln x of a zero power is never formed
        terms = j * np.where(j > 0, ln_y, 0)
        if below:
            terms += (ln_fact[m] - 2 * ln_fact[i] - ln_fact[j] + ln_fact[m + d + i]
                      - ln_fact[m + d] + i * np.where(i > 0, ln_c2, 0))
        else:
            terms += ln_fact[m + d + i] - ln_fact[i] - ln_fact[j] - ln_fact[d + i]
        terms[~live] = -np.inf
        peak = terms.max(axis=1)
        total = np.exp(terms - peak[:, None]).sum(axis=1)
        log_abs[k0:k0 + rows] = peak + np.log(total) - (2 * m[:, 0] + d[:, 0] + 1) * ln_1c
    amp = profile.amplitude
    return np.full(count, math.copysign(1.0, amp)), log_abs + math.log(abs(amp))


def _radial_moments(profile, q, scale, count):
    """(sign, ln |nu_k|), k < count, of the level-q compression of R(scale t).

    nu_k = int_0^inf R(scale t) ell_m^(d)(t)^2 dt, m = min(k, q), d = |k - q|.
    A gaussian R takes its closed form (`_gaussian_moments`); any other R
    puts every k on one node set: the log grid, or for R with breakpoints
    `quadrature.support_rule` of max(240, (n + 120) // 2) nodes, n = count + q,
    its panels ending at t = n + 10 sqrt(n) + 100, where every row is 45 nats
    below its peak.  A term is ln |integrand| on a node, from d ln t - t -
    ln d! + ln (weight |R|), and a block sums exp(term - peak) sign R, so
    ln |nu_k| stays exact far below the underflow threshold.  Row q goes
    alone, the others in blocks of 1, 2, 4, 8, then 16 on each side of it
    (`_row_blocks`), one `specfun.laguerre_fn_sq_log` sweep per block: rows
    k >= q share m = q, rows k < q are read off at their own step.  Row k != q
    (t^(d+1) toward t = 0, t^(k+q) e^(-t) beyond) lives on a few hundred of
    the grid's nodes: a coarse pass over every 16th node and both ends places
    each block's window where some row is within 60 nats of its coarse peak,
    padded by two coarse steps.  Blocks grow away from row q, whose
    neighbours fall slowest toward t = 0 and would widen a shared window.
    Windows take |R| never to rise by tens of nats between coarse nodes (38%
    apart in t), as RadialProfile.closed_form kinds do; a custom R, and row
    q, which falls only like t, run on the whole grid.  An ln |R| that is +inf
    or NaN on any node, before any sweep, or a row whose integrand is not 36
    nats below its peak at both grid ends (coarse nodes, so windows change
    nothing there), is NaN there or at its peak, or is 0 on every node (R
    underflowed; an R that vanishes reads 0) raises QuadratureAccuracyError.
    """
    if profile.vanishes:                # R = 0: nu_k = 0, with no peak to place
        return np.zeros(count), np.full(count, -np.inf)
    if profile.kind == "gaussian":
        return _gaussian_moments(profile, q, scale, count)
    size = count + q                    # row k: t^(k+q) e^(-t) times bounded factors
    on_grid = not profile.breakpoints
    if on_grid:
        t, ln_t, lead = _log_grid(size)
    else:
        order = max(240, (size + 120) // 2)
        t, weights = quadrature.support_rule([s / scale for s in profile.breakpoints],
                                             order, order, size + 10.0 * math.sqrt(size) + 100.0)
        ln_t = np.log(t)
        lead = np.log(weights) - t
    with np.errstate(over="ignore", invalid="ignore"):
        log_r, sign_r = profile.log_abs(scale * t)
    bad = ~(log_r < np.inf)             # R left the double range; -inf (R = 0) is fine
    if bad.any():
        i = int(np.argmax(bad))
        raise quadrature.QuadratureAccuracyError(
            f"ln |R| is {float(log_r[i])} at t = {t[i]:.6g} on the "
            f"{'log grid' if on_grid else 'breakpoint rule'}: the weight leaves the double range")
    lead = lead + log_r
    # the planted fault of `verify --inject-fault moment_window` clips the window
    drop = 5.0 if wigner.fault_active("moment_window") else _WINDOW_DROP
    ks = np.arange(count)
    m_all, d_all = np.minimum(ks, q)[:, None], np.abs(ks - q)[:, None]
    ln_d_fact = np.array([math.lgamma(abs(k - q) + 1.0) for k in range(count)])[:, None]

    def row_logs(k0, k1, nodes):
        """ln |integrand| of rows k0 .. k1 - 1 on nodes, from ln (weight |R| ell_0^(d)(t)^2)."""
        d = d_all[k0:k1]
        logs = d * ln_t[nodes] + lead[nodes] - ln_d_fact[k0:k1]
        if q:
            # one sweep serves the rows (row k = 0 has m = 0 and needs none), a
            # few at a time on a wide window: larger buffers are returned to the
            # system when freed and page-fault again on the next step
            x = t[nodes]
            step = max(1, _PASS_SIZE // x.size)
            for r in range(int(k0 == 0), k1 - k0, step):
                part = slice(r, r + step)
                # rows k >= q share m = q
                deg = q if k0 + r >= q else m_all[k0:k1][part]
                logs[part] = laguerre_fn_sq_log(deg, d[part], x, logs[part])
        return logs

    windowed = on_grid and profile.closed_form
    ends = np.empty(count)
    if windowed:
        # per row, on every 16th node and the last: the first and last node
        # within `drop` nats of its peak there (none: past the ends), and its
        # larger end.  Small chunks of rows keep the peak memory at count 6400
        # below that of 16-row blocks; caching the coarse pass beside the grid
        # fragmented the heap and raised the peak memory of later jobs in the
        # same process
        coarse = np.append(np.arange(0, t.size - 1, _COARSE_STRIDE), t.size - 1)
        first, last = np.empty(count, dtype=np.intp), np.empty(count, dtype=np.intp)
        rows = max(1, _COARSE_SIZE // coarse.size)
        for k0 in range(0, count, rows):
            k1 = min(k0 + rows, count)
            logs = row_logs(k0, k1, coarse)
            keep = logs >= logs.max(axis=1)[:, None] - drop
            some = keep.any(axis=1)
            first[k0:k1] = np.where(some, keep.argmax(axis=1), coarse.size)
            last[k0:k1] = np.where(some, coarse.size - 1 - keep[:, ::-1].argmax(axis=1), -1)
            ends[k0:k1] = np.maximum(logs[:, 0], logs[:, -1])

    peak, total = np.empty(count), np.empty(count)
    for k0, k1 in _row_blocks(q, count):
        lo, hi = 0, t.size
        if windowed and k0 != q:
            near_lo, near_hi = first[k0:k1].min(), last[k0:k1].max()
            if near_lo <= near_hi:
                lo = coarse[max(near_lo - _WINDOW_PAD, 0)]
                hi = coarse[min(near_hi + _WINDOW_PAD, coarse.size - 1)] + 1
        logs = row_logs(k0, k1, slice(lo, hi))
        top = peak[k0:k1] = logs.max(axis=1)
        if not windowed:
            ends[k0:k1] = np.maximum(logs[:, 0], logs[:, -1])
        logs -= np.where(np.isfinite(top), top, 0.0)[:, None]
        # a row with an infinite or NaN peak sums to inf or NaN here and fails below
        with np.errstate(over="ignore", invalid="ignore"):
            total[k0:k1] = np.exp(logs, out=logs) @ sign_r[lo:hi]
    if on_grid:
        # a peak that is not finite (-inf: the weight underflowed on every node)
        # or a NaN end fails the check
        below = np.where(np.isfinite(peak), peak, np.nan) - ends
        short = ~(below >= _LOG_GRID_MARGIN)
        if short.any():
            k = int(np.argmax(short))
            raise quadrature.QuadratureAccuracyError(
                f"moment k = {k}: integrand only {below[k]:.1f} nats below its peak "
                f"at an end of the log grid (needs {_LOG_GRID_MARGIN:g})"
                if below[k] == below[k] else
                f"moment k = {k}: integrand not finite at its peak or at an end "
                f"of the log grid")
    with np.errstate(divide="ignore"):
        return np.sign(total), np.where(np.isfinite(peak), peak, 0.0) + np.log(np.abs(total))


def antiwick_radial_eigs(profile, count):
    """Eigenvalues mu_k = int_0^inf R(2t) t^k e^(-t) / k! dt of the anti-Wick operator
    with a radial symbol, from `_radial_moments` (a gaussian A e^(-a s) in closed
    form, A (1 + 2a)^-(k+1)); below the underflow threshold 0."""
    sign, log_abs = _radial_moments(profile, 0, 2.0, count)
    return sign * np.exp(log_abs)


def toeplitz_radial_eigs(zeta, q, b, count):
    """Diagonal of the level-q compression of a radial multiplier zeta.

    nu_k = int_0^inf R(2t/b) ell_m^(d)(t)^2 dt with m = min(k, q), d = |k - q|
    and ell the orthonormal Laguerre functions, so a constant R = c reads
    nu_k = c; for q = 0 this is the plain Gamma-weight moment
    int R(2t/b) t^k e^(-t) / k! dt.  Returns (sign, log_abs) with nu_k = sign_k exp(log_abs_k),
    as numpy.linalg.slogdet does: ln |nu_k| stays exact far below the
    underflow threshold, and nu_k = 0 reads (0, -inf).  A gaussian weight
    takes its closed form, a log-sum-exp of m + 1 positive terms (Gradshteyn &
    Ryzhik 7.414.4), at any q; any other weight puts every k on one node set
    (`_radial_moments`).
    """
    if b <= 0:
        raise ValueError("field strength must be positive")
    return _radial_moments(zeta, q, 2.0 / b, count)


# ---------------------------------------------------------------------------
# positivity criteria for radial symbols


@dataclass(frozen=True)
class SignReport:
    coefficients: np.ndarray
    all_nonneg: bool
    first_negative_index: int = -1


def _sign_report(values):
    values = np.asarray(values)
    tol = 1e-10 * max(1.0, float(np.abs(values).max()))
    neg = np.nonzero(values < -tol)[0]
    if neg.size:
        return SignReport(values, False, int(neg[0]))
    return SignReport(values, True)


def positivity_laguerre_weyl(profile, count):
    """Nonnegativity of the Weyl operator via its Laguerre coefficients.

    The operator is nonnegative exactly when every coefficient
    c_k = 2 mu_k is nonnegative; a coefficient counts as negative below
    -1e-10 max(1, max |c|).
    """
    return _sign_report(2.0 * weyl_radial_eigs(profile, count))


def positivity_laguerre_antiwick(profile, count):
    """Nonnegativity of the anti-Wick operator via its Gamma-weight moments."""
    return _sign_report(antiwick_radial_eigs(profile, count))


# ---------------------------------------------------------------------------
# the perturbed Hamiltonian in the level basis


def landau_levels(b, q_count):
    return b * (2.0 * np.arange(q_count) + 1.0)


def assemble_hv(V, levels, radial, sign=+1):
    """Truncated level-basis H = diag(Landau levels) + sign * op(V), V separable.

    Every factor of a separable symbol is a radial profile
    (`symbols.separable_symbol` refuses any other): both pairing matrices of
    a term are diagonal, so H is diagonal with entries
    lam_q + sign * sum c mu_q(A) mu_k(B), mu the 1-D Weyl sequences (default
    rules).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    Q, K = int(levels), int(radial)
    if Q < 1 or K < 1:
        raise ValueError("levels and radial must be positive")
    G = np.zeros((Q, K))                # row q holds level q
    for c, A, B in V.terms:
        G += c * np.outer(weyl_radial_eigs(A, Q), weyl_radial_eigs(B, K))
    return _diagonal_hv(V.b, G, sign)


def _diagonal_hv(b, G, sign):
    """The LevelOperator with diagonal lam_q + sign * G[q, k].

    Couplings on the truncation boundary (radial index K-1, level Q-1) bound
    what was discarded; eigenvalues closer to a level than ten times the
    largest of them are not to be trusted for gap counting.
    """
    Q, K = G.shape
    A = np.abs(G)
    boundary = max(float(A[:, K - 1].max()), float(A[Q - 1].max()))
    return LevelOperator(b, landau_levels(b, Q)[:, None] + sign * G, 10.0 * boundary)


def eig_hermitian(H):
    """Spectrum of a LevelOperator: its sorted diagonal, with gap-window counts.

    Degenerate eigenvalues cluster within 1e-10 of the diagonal's 2-norm.
    """
    eigs = np.sort(H.diagonal, axis=None)
    # the norm of the diagonal over the power of two at or below its largest entry: exact
    # scaling, finite up to the largest double, and no square overflows past |entry| ~ 1.3e154
    scale = math.ldexp(0.5, math.frexp(float(np.abs(H.diagonal).max()))[1])
    tol = 1e-10 * scale * float(np.linalg.norm(H.diagonal / scale))
    levels = H.diagonal.shape[0]
    lam = landau_levels(H.b, levels + 1)
    windows = []
    for q in range(levels):
        lo = lam[q - 1] if q >= 1 else -np.inf
        for side, a, c in (("-", lo, lam[q]), ("+", lam[q], lam[q + 1])):
            windows.append({"q": q, "side": side, "lo": a, "hi": c,
                            "count": len(_open_window(eigs, a, c, tol))})
    return SpectrumReport(eigs, b=H.b, levels=levels, cluster_tol=tol, windows=windows)


# ---------------------------------------------------------------------------
# prescribed gap eigenvalues


def prescribed_gap_symbol(b, multiplicities, level_scales, index_scales):
    """Separable Schwartz symbol whose negative perturbation fills the gaps
    below chosen Landau levels with exactly the prescribed eigenvalue counts.

    multiplicities[q] eigenvalues are planted below level q at
    lam_q - level_scales[q] * index_scales[k]; level_scales must be strictly
    decreasing (and < 2b except at level 0), index_scales strictly
    decreasing within (0, 1).  Eigenvalue (q, k) is the term
    (C, laguerre_mix([0]*q + [2]), laguerre_mix([0]*k + [2])) with
    C = level_scales[q] * index_scales[k]: the factors' Weyl sequences are the
    unit vectors e_q and e_k, so the term moves the diagonal entry (q, k) by
    exactly C.  Returns (symbol, predictions) with predictions a list of
    (q, k, eigenvalue).
    """
    if b <= 0:
        raise ValueError("field strength must be positive")
    if not math.isfinite(b * (2.0 * len(multiplicities) - 1.0)):
        raise ValueError(f"the top Landau level b (2 q + 1) overflows at b={b!r}")
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
    for q in active:
        A = symbols.laguerre_mix([0.0] * q + [2.0])
        for k in range(multiplicities[q]):
            C = level_scales[q] * index_scales[k]
            B = symbols.laguerre_mix([0.0] * k + [2.0])
            terms.append((C, A, B))
            predictions.append((q, k, lam[q] - C))
    return symbols.separable_symbol(b, terms), predictions


# ---------------------------------------------------------------------------
# two-sided eigenvalue sandwich against the compressed multiplier


def _gap_shifts(report, q, sign):
    """Distances of the level-q gap eigenvalues from the level, non-increasing:
    the eigenvalues inside the report's (q, "+") window for sign > 0, else
    its (q, "-") window."""
    w = report.window(q, "+" if sign > 0 else "-")
    sel = _open_window(report.eigenvalues, w["lo"], w["hi"], report.cluster_tol)
    return np.sort(sel - w["lo"] if sign > 0 else w["hi"] - sel)[::-1]


_SANDWICH_EPS = tuple(x / 100.0 for x in range(1, 26))   # eps tried, smallest first
_SANDWICH_K0_MAX = 3         # largest index shift k0 tried


def birman_schwinger_check(zeta_profile, r, q, b, levels, radial,
                           k_range=(5, 30), order=None):
    """Empirical two-sided sandwich between gap eigenvalues and the
    compressed-multiplier spectrum.

    Builds the standard fixture from a nonnegative radial weight zeta:
    omega = L_r(-Laplacian/2b) zeta, dilate to vt(s) = omega(s/b), Gaussian-smooth
    to v, and couple the level-q kernel to v.  The level-basis H(+/-V) is
    diagonal, from the anti-Wick sequence of vt, which equals the Weyl sequence
    of v, so no numeric smoothing is done: it is int omega(2t/b) t^k e^(-t) / k! dt,
    the level-0 compression of omega (`toeplitz_radial_eigs`).  Extracts the
    shifts around level q from both signs of one diagonal, and finds the
    smallest (eps, k0) with

        nu_{k+k0} / (1+eps) <= shift_k <= nu_{k-k0} / (1-eps)

    over the k range, eps in 0.01 .. 0.25 and k0 <= 3, nu the level-r
    compression of zeta; `order` is unused (the benchmark's sandwich jobs pass
    it).  Returns a report dict; raises TruncationError for an unresolved window.
    """
    k_lo, k_hi = k_range
    omega = symbols.laguerre_laplacian(zeta_profile, b, r)

    sign, log_nu = toeplitz_radial_eigs(zeta_profile, r, b, k_hi + _SANDWICH_K0_MAX + 2)
    nu = np.sort(np.exp(log_nu[sign > 0]))[::-1]
    if not len(nu):
        return {"vacuous": True, "epsilon": 0.0, "k0": 0}

    # the Weyl eigenvalues of the smoothed symbol are the anti-Wick ones of vt
    mu_sign, mu_log = toeplitz_radial_eigs(omega, 0, b, radial)
    G = 2.0 * np.pi * np.outer(weyl_radial_eigs(symbols.diag_kernel_profile(q), levels),
                               mu_sign * np.exp(mu_log))
    shifts = {}
    for sign in (+1, -1):
        rep = eig_hermitian(_diagonal_hv(b, G, sign))
        delta = _gap_shifts(rep, q, sign)
        if len(delta) <= k_hi:
            raise TruncationError(
                f"only {len(delta)} gap eigenvalues resolved; need {k_hi + 1}")
        shifts[sign] = delta

    ks = np.arange(k_lo, k_hi + 1)
    for k0 in range(_SANDWICH_K0_MAX + 1):
        for eps in _SANDWICH_EPS:
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
                    "nu": nu[: k_hi + _SANDWICH_K0_MAX + 1],
                }
    raise TruncationError("no (eps, k0) pair satisfied the sandwich on the range")

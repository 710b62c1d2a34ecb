"""Stable Hermite/Laguerre evaluation, log-factorials, and Gaussians.

Every kernel in this package is built from Hermite functions

    psi_q(x) = H_q(x) exp(-x^2/2) / (sqrt(pi) 2^q q!)^(1/2)

and (generalized) Laguerre polynomials L_q^(nu).  Degrees run into the
thousands, so the exponentially weighted forms are the primitives here:
they are evaluated by three-term recurrences that never form a huge
polynomial value next to a tiny Gaussian.  All factorial arithmetic is
done in log space.
"""

from __future__ import annotations

import math

import numpy as np


class PolynomialOverflowError(ArithmeticError):
    """Unweighted polynomial evaluation left the representable range."""


_EXACT_LOG_FACTORIAL_LIMIT = 256
_LOG_FACTORIAL_TABLE = np.cumsum(
    np.concatenate(([0.0], np.log(np.arange(1, _EXACT_LOG_FACTORIAL_LIMIT + 1.0))))
)

# mantissas outside [1e-120, 1e120] get renormalized during scaled sweeps;
# fixed power-of-ten factors keep the rescale itself away from subnormals
_RESCALE_HI = 1e120
_RESCALE_LO = 1e-120
_RESCALE_FACTOR = 1e120
_LOG_RESCALE = math.log(_RESCALE_FACTOR)


def _renormalize(m_cur, m_prev, ls):
    am = np.abs(m_cur)
    big = am > _RESCALE_HI
    if big.any():
        m_cur[big] /= _RESCALE_FACTOR
        m_prev[big] /= _RESCALE_FACTOR
        ls[big] += _LOG_RESCALE
    small = (am < _RESCALE_LO) & (am > 0)
    if small.any():
        m_cur[small] *= _RESCALE_FACTOR
        m_prev[small] *= _RESCALE_FACTOR
        ls[small] -= _LOG_RESCALE


def log_factorial(n):
    """ln(n!); exact cumulative sum up to 256, lgamma above."""
    n = int(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= _EXACT_LOG_FACTORIAL_LIMIT:
        return float(_LOG_FACTORIAL_TABLE[n])
    return float(math.lgamma(n + 1.0))


def hermite_poly(q, x):
    """Hermite polynomial H_q(x) by the recurrence H_{q+1} = 2x H_q - 2q H_{q-1}.

    Unweighted form: raises PolynomialOverflowError when the value leaves
    the representable range (use hermite_fn for large degrees).
    """
    if q < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h_cur = np.ones_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(q):
            h_next = 2.0 * x * h_cur - 2.0 * j * h_prev
            h_prev, h_cur = h_cur, h_next
            if not np.all(np.isfinite(h_cur)):
                raise PolynomialOverflowError(
                    f"H_{j + 1} overflowed; use the weighted form instead"
                )
    return h_cur if h_cur.ndim else float(h_cur)


def hermite_fn_iter(x, q_max):
    """Yield psi_0(x), ..., psi_{q_max}(x) for the orthonormal Hermite functions.

    Runs the weighted recurrence

        psi_{q+1} = x sqrt(2/(q+1)) psi_q - sqrt(q/(q+1)) psi_{q-1}

    in mantissa/exponent form so degrees up to 1e4 survive the region where
    psi_q is far below the underflow threshold before re-entering O(1) range.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    if scalar:
        x = x.reshape(1)
    ls = -0.5 * x * x - 0.25 * np.log(np.pi)
    m_prev = np.zeros_like(x)
    m_cur = np.ones_like(x)
    yield float(m_cur[0] * np.exp(ls[0])) if scalar else m_cur * np.exp(ls)
    for q in range(q_max):
        m_next = x * math.sqrt(2.0 / (q + 1)) * m_cur - math.sqrt(q / (q + 1.0)) * m_prev
        m_prev, m_cur = m_cur, m_next
        _renormalize(m_cur, m_prev, ls)
        yield float(m_cur[0] * np.exp(ls[0])) if scalar else m_cur * np.exp(ls)


def hermite_fn(q, x):
    """Orthonormal Hermite function psi_q(x), finite for q up to 1e4."""
    if q < 0:
        raise ValueError("degree must be nonnegative")
    scalar = np.isscalar(x)
    for j, val in enumerate(hermite_fn_iter(x, q)):
        if j == q:
            return float(val) if scalar else val
    raise AssertionError("unreachable")


def laguerre(q, nu, xi):
    """Generalized Laguerre polynomial L_q^(nu)(xi) by three-term recurrence."""
    if q < 0:
        raise ValueError("degree must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    l_prev = np.zeros_like(xi)
    l_cur = np.ones_like(xi)
    for j in range(q):
        l_next = ((2.0 * j + nu + 1.0 - xi) * l_cur - (j + nu) * l_prev) / (j + 1.0)
        l_prev, l_cur = l_cur, l_next
    return l_cur if l_cur.ndim else float(l_cur)


def laguerre_weighted(q, nu, xi):
    """L_q^(nu)(xi) * exp(-xi/2), run in weighted form (stable for q <= 1e4)."""
    if q < 0:
        raise ValueError("degree must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    l_prev = np.zeros_like(xi)
    l_cur = np.exp(-0.5 * xi)
    for j in range(q):
        l_next = ((2.0 * j + nu + 1.0 - xi) * l_cur - (j + nu) * l_prev) / (j + 1.0)
        l_prev, l_cur = l_cur, l_next
    return l_cur if l_cur.ndim else float(l_cur)


def laguerre_fn_iter(alpha, u, m_max):
    """Yield the orthonormal weighted Laguerre functions ell_m^(alpha)(u).

    ell_m^(alpha)(u) = sqrt(m! / Gamma(m+alpha+1)) u^(alpha/2) L_m^(alpha)(u) e^(-u/2),
    an orthonormal family in L^2(0, inf).  Mantissa/exponent scaling keeps the
    sweep alive through regions where the seed underflows (large u, large alpha).
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    if scalar:
        u = u.reshape(1)
    # seed log: alpha*ln(u) is 0 at u=0 when alpha=0 (limit), -inf when alpha>0
    with np.errstate(divide="ignore"):
        log_u = np.where(u > 0, np.log(np.where(u > 0, u, 1.0)), -np.inf)
    alpha_log_u = alpha * log_u if alpha != 0 else np.zeros_like(u)
    ls = 0.5 * (alpha_log_u - u - math.lgamma(alpha + 1.0))
    m_prev = np.zeros_like(u)
    m_cur = np.ones_like(u)
    yield float(m_cur[0] * np.exp(ls[0])) if scalar else m_cur * np.exp(ls)
    for m in range(m_max):
        c1 = math.sqrt((m + 1.0) * (m + 1.0 + alpha))
        c0 = math.sqrt(m * (m + alpha)) if m > 0 else 0.0
        m_next = ((2.0 * m + alpha + 1.0 - u) * m_cur - c0 * m_prev) / c1
        m_prev, m_cur = m_cur, m_next
        _renormalize(m_cur, m_prev, ls)
        yield float(m_cur[0] * np.exp(ls[0])) if scalar else m_cur * np.exp(ls)


def unit_gaussian(n, w):
    """Isotropic unit-mass Gaussian pi^(-n) exp(-|w|^2) on R^(2n)."""
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != 2 * n:
        raise ValueError(f"expected a vector of length {2 * n}")
    return np.pi ** (-n) * np.exp(-np.sum(w * w, axis=-1))


def log_gammainc_lower(a, x, tol=1e-17, max_terms=10_000):
    """ln P(a, x) for the regularized lower incomplete gamma function.

    Series representation for x < a + 1, continued fraction for the upper
    tail otherwise (Numerical-Recipes style), assembled fully in log space
    so that values far below the double underflow threshold keep an exact
    logarithm (needed for P(k+1, x) with k in the hundreds).  Raises
    ArithmeticError when either expansion is still moving after max_terms
    (x near a with a above about 1e7).
    """
    a = float(a)
    x = float(x)
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return -np.inf
    log_prefactor = a * math.log(x) - x - math.lgamma(a + 1.0)
    if x < a + 1.0:
        term = 1.0
        total = 1.0
        for n in range(1, max_terms):
            term *= x / (a + n)
            total += term
            if term < tol * total:
                return log_prefactor + math.log(total)
        raise ArithmeticError(f"P({a!r}, {x!r}): series unconverged after {max_terms} terms")
    # continued fraction for Q(a, x), then P = 1 - Q
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_terms):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            break
    else:
        raise ArithmeticError(
            f"P({a!r}, {x!r}): continued fraction unconverged after {max_terms} terms")
    log_q = a * math.log(x) - x - math.lgamma(a) + math.log(h)
    q = math.exp(log_q)
    if q >= 1.0:
        return -np.inf
    return math.log1p(-q)

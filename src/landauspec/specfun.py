"""Stable Hermite/Laguerre evaluation, Bessel functions and incomplete gammas.

Every kernel in this package is built from the orthonormal Hermite functions
psi_q(x) = H_q(x) e^(-x^2/2) / (sqrt(pi) 2^q q!)^(1/2) and Laguerre functions
ell_m^(alpha)(u) = sqrt(m!/Gamma(m+alpha+1)) u^(alpha/2) L_m^(alpha)(u) e^(-u/2),
swept to degrees in the thousands by one recurrence on mantissa/exponent
pairs (`_sweep`) and read off as values (hermite_fn_iter, laguerre_fn_iter)
or as logs (laguerre_fn_sq_log, for the moment integrals).  The Laguerre
sweep carries L_m^(alpha) ell_0 by the plain recurrence, and the read-offs
apply the factor (m! Gamma(alpha+1) / Gamma(m+alpha+1))^(1/2) in log space,
as all factorial arithmetic is done.  J_0 and J_1 behind the radial Hankel
transforms come from tabulated Chebyshev series below x = 25 and the Hankel
asymptotic expansion above.
"""

from __future__ import annotations

import math

import numpy as np


# a sweep rescales mantissas outside [1e-120, 1e120] by 1e120, every 16 steps
# while a step grows a value by less than 1e11 and on every step past that
_RESCALE = 1e120
_SWEEP_CHECK = 16
_SWEEP_REACH = 1e11


def _sweep(x, ls, diag, off, low, reach):
    """Yield (mantissa, ls) with f_j = mantissa exp(ls), for j = 0 .. len(off).

    f runs off_j f_(j+1) = (diag_j - x) f_j - low_j f_(j-1) from
    f_0 = exp(ls), f_(-1) = 0; ls has the result's shape and is updated in
    place, and both buffers are reused by the next step.  A step grows the
    larger of a mantissa pair by at most (|x - diag_j| + |low_j|) / |off_j|,
    which the caller bounds by reach.  While reach < 1e11, 16 steps take a
    pair of at most 1e120 to at most 1e296, and the sweep rescales every 16
    steps; past that it rescales on every step, which holds the pair finite
    while reach <= 1e120.
    """
    ls = np.asarray(ls, dtype=float)
    every = _SWEEP_CHECK if reach < _SWEEP_REACH else 1
    prev, cur, nxt = np.empty(ls.shape), np.ones(ls.shape), np.empty(ls.shape)
    yield cur, ls
    for j, a in enumerate(off):
        np.subtract(diag[j], x, out=nxt)
        if j:                                 # at j = 0, cur = 1 and prev = 0
            nxt *= cur
            prev *= low[j]
            nxt -= prev
        nxt /= a
        prev, cur, nxt = cur, nxt, prev
        if j % every == every - 1:
            am = np.abs(cur)
            for mask, factor in ((am > _RESCALE, 1.0 / _RESCALE),
                                 ((am < 1.0 / _RESCALE) & (am > 0), _RESCALE)):
                if mask.any():
                    cur[mask] *= factor
                    prev[mask] *= factor
                    ls[mask] -= math.log(factor)
        yield cur, ls


def hermite_fn_iter(x, q_max):
    """Yield psi_0(x), ..., psi_{q_max}(x) for the orthonormal Hermite functions.

    sqrt((q+1)/2) psi_{q+1} = x psi_q - sqrt(q/2) psi_{q-1} in `_sweep`, a step
    growing a value by at most sqrt(2) |x| + 1, so degrees up to 1e4 survive
    where psi_q is far below the underflow threshold.
    """
    x = np.asarray(x, dtype=float)
    root = -np.sqrt(0.5 * np.arange(q_max + 1.0))
    reach = math.sqrt(2.0) * np.abs(x).max(initial=0.0) + 1.0
    for mant, ls in _sweep(x, -0.5 * x * x - 0.25 * np.log(np.pi), np.zeros(q_max),
                           root[1:], root[:-1], reach):
        yield mant * np.exp(ls)


def hermite_fn(q, x):
    """Orthonormal Hermite function psi_q(x), finite for q up to 1e4."""
    if q < 0:
        raise ValueError("degree must be nonnegative")
    for val in hermite_fn_iter(x, q):
        pass
    return val


def _laguerre_sweep(alpha, u, ls, steps):
    """(`_sweep` of exp(ls) L_m^(alpha)(u), ln c_m^2) for m <= steps, where
    ell_m^(alpha) = c_m L_m^(alpha) ell_0^(alpha) and c_m^2 = m! Gamma(alpha+1)
    / Gamma(m+alpha+1); alpha broadcasts against u.  The sweep runs the plain
    recurrence (m+1) L_(m+1) = (2m+alpha+1 - u) L_m - (m+alpha) L_(m-1), a
    step growing a value by at most |u| + 2|alpha| + 3 (a one-step sweep has
    no use for that bound).
    """
    j = np.arange(1.0, steps + 1.0).reshape((-1,) + (1,) * np.ndim(alpha))   # j = m + 1
    j_alpha = j + alpha
    ln_c2 = np.zeros((steps + 1,) + np.shape(alpha))
    np.add.accumulate(np.log(j / j_alpha), axis=0, out=ln_c2[1:])
    low = j_alpha - 1.0
    reach = np.abs(u).max(initial=0.0) + 2.0 * np.abs(alpha).max() + 3.0 if steps > 1 else 0.0
    return _sweep(u, ls, j + low, j, low, reach), ln_c2


def laguerre_fn_iter(alpha, u, m_max):
    """Yield the orthonormal weighted Laguerre functions ell_m^(alpha)(u), m <= m_max.

    L_m(u) e^(-u/2) at alpha = 0.  The sweep starts from ell_0 = u^(alpha/2)
    e^(-u/2) / Gamma(alpha+1)^(1/2) in log form, so it survives where that
    underflows (u past about 1490, large alpha).
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):     # alpha ln u: -inf at u = 0, read as 0 at alpha = 0
        alpha_log_u = alpha * np.log(u) if alpha else 0.0
    ls = 0.5 * (alpha_log_u - u - math.lgamma(alpha + 1.0))
    sweep, ln_c2 = _laguerre_sweep(alpha, u, ls, m_max)
    for (mant, scale), ln_c in zip(sweep, 0.5 * ln_c2):
        yield mant * np.exp(scale + ln_c if alpha else scale)


def laguerre_fn_sq_log(m, alpha, u, seed):
    """ln (f ell_m^(alpha)(u)^2) from seed = ln (f ell_0^(alpha)(u)^2), any factor f > 0.

    Exact far below the underflow threshold; an exact zero gives -inf.  One
    sweep serves a block of orders: alpha of shape (R, 1) against u of shape
    (N,) and a seed of shape (R, N), with m an integer or an (R, 1) array
    whose row r is read off at its own step m_r; each row is bit-identical
    to the scalar call with its m and alpha while |u| + 2 |alpha| < 1e11.
    """
    m = np.asarray(m)
    if m.ndim and (m == m.flat[0]).all():   # one shared degree needs no per-row read-off
        m = m.flat[0]
    stops = {int(s): (m == s).ravel() for s in np.unique(m)} if m.ndim else {}
    out = np.empty(np.shape(seed)) if m.ndim else None
    sweep, ln_c2 = _laguerre_sweep(alpha, u, 0.5 * seed, int(m.max()))
    with np.errstate(divide="ignore"):
        for j, (mant, ls) in enumerate(sweep):
            if j in stops:
                out[stops[j]] = np.log(np.abs(mant[stops[j]])) + ls[stops[j]]
        if not m.ndim:          # the finished sweep's last buffer becomes the result
            out = np.log(np.abs(mant, out=mant), out=mant)
            out += ls
    out *= 2.0
    out += np.take_along_axis(ln_c2, m[None], axis=0)[0] if m.ndim else ln_c2[m]
    return out


# J_0(x) and J_1(x)/x on [0, 25] as sums c_k T_k(2 (x/25)^2 - 1): the shifted
# Chebyshev coefficients of their power series in (x/25)^2, rounded from
# exact rational arithmetic; terms below 1e-17 dropped (tests re-derive them)
_BESSEL_SPLIT = 25.0
_BESSEL_CHEB = (
    np.array([
        0.021574925525236297, -0.05476977917955194, 0.06010839401127275,
        -0.0242035801107129, 0.10230154815190808, -0.00241341556954302,
        0.07870544713910102, -0.10141017371089794, 0.005794054446509239,
        -0.048848833418506, 0.15553890209625837, -0.1680975465334128,
        0.1070667295086968, -0.0476318426804495, 0.01606395522283889,
        -0.0043110506822779645, 0.0009509181585333076, -0.00017646540271865863,
        2.804333203966645e-05, -3.87021824485084e-06, 4.6916613105606406e-07,
        -5.043413949321052e-08, 4.846461789324112e-09, -4.192147415657952e-10,
        3.283849348995491e-11, -2.3419403749594486e-12, 1.5278072405255397e-13,
        -9.1559103365564e-15, 5.059810557112847e-16, -2.5874520548260087e-17]),
    np.array([
        0.024479907557506134, -0.052848924268463174, 0.048258761941514,
        -0.05131014938177459, 0.04732934446526263, -0.0460723101163969,
        0.047174885868811876, -0.04002773177611394, 0.03808853430431542,
        -0.039434420600791394, 0.032461148694503526, -0.01952544113247032,
        0.008793014142599006, -0.0030799914799344926, 0.0008670755205722075,
        -0.00020133070400176322, 3.935378957483837e-05, -6.5826651341418175e-06,
        9.54917943258245e-07, -1.2148143220266733e-07, 1.3680866110520754e-08,
        -1.3749026523149277e-09, 1.2416941474576645e-10, -1.0139012441257947e-11,
        7.525948287963323e-13, -5.1027241143796926e-14, 3.173908809308757e-15,
        -1.818161791069714e-16, 9.626196994865078e-18]),
)


def _hankel_series(nu):
    """Coefficients of P and zQ in powers of z^-2 for J_nu(z), nu = 0, 1.

    J_nu(z) = sqrt(2 / (pi z)) (P cos chi - Q sin chi), chi = z - (nu/2 + 1/4) pi,
    with a_k = prod_{j <= k} (4 nu^2 - (2j - 1)^2) / (k! 8^k); P takes the even
    terms (-1)^(k/2) a_k z^-k, Q the odd ones.  At z = 25 the first omitted
    term, a_16 z^-16, is below 3e-16, so J loses less than 5e-17.
    """
    a = [1.0]
    for k in range(1, 16):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    return (np.array([(-1) ** m * a[2 * m] for m in range(8)]),
            np.array([(-1) ** m * a[2 * m + 1] for m in range(8)]))


_BESSEL_HANKEL = (_hankel_series(0), _hankel_series(1))


def _chebyshev_near_minus_one(c, v):
    """sum_k c_k T_k(v/2 - 1) by Reinsch's form of Clenshaw's recurrence.

    v = 2 (w + 1) is passed instead of w = v/2 - 1, so points near w = -1
    (small x in the Bessel tables) keep their full relative precision.
    """
    b = np.zeros_like(v)
    d = np.zeros_like(v)
    for ck in c[:0:-1]:
        d = ck + v * b - d
        b = d - b
    return c[0] + 0.5 * v * b - d


def bessel_j(nu, x):
    """Bessel function J_nu(x) of order nu = 0 or 1 for real x >= 0.

    Below x = 25 a tabulated Chebyshev series in (x/25)^2; above, the Hankel
    expansion truncated at 16 terms, with cos/sin of x - (nu/2 + 1/4) pi
    formed from cos x and sin x so large x loses no phase.  Absolute error
    about 1e-15 on [0, 5000].
    """
    if nu not in (0, 1):
        raise ValueError("order must be 0 or 1")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _BESSEL_SPLIT
    xs = x[small]
    vals = _chebyshev_near_minus_one(_BESSEL_CHEB[nu], 4.0 * (xs / _BESSEL_SPLIT) ** 2)
    out[small] = xs * vals if nu else vals
    large = ~small
    z = x[large]
    y = 1.0 / (z * z)
    p_coef, zq_coef = _BESSEL_HANKEL[nu]
    p = np.full_like(z, p_coef[-1])
    q = np.full_like(z, zq_coef[-1])
    for pc, qc in zip(p_coef[-2::-1], zq_coef[-2::-1]):
        p *= y
        p += pc
        q *= y
        q += qc
    q /= z
    c, s = np.cos(z), np.sin(z)
    # J_0: (p + q) c + (p - q) s;  J_1: (p + q) s - (p - q) c  (times 1/sqrt(pi z))
    if nu:
        c, s = s, -c
    c *= p + q
    s *= p - q
    c += s
    c /= np.sqrt(np.pi * z)
    out[large] = c
    return out if out.ndim else float(out)


def _log1p_minus_identity(t):
    """log(1 + t) - t for |t| <= 1/2, without the cancellation at small |t|.

    With r = t/(2 + t), log(1 + t) = 2 atanh(r) and t = 2r/(1 - r), so the
    difference is -2r^2/(1 - r) + 2 sum_(k >= 1) r^(2k+1)/(2k + 1).
    """
    r = t / (2.0 + t)
    r2 = r * r
    term = r * r2
    tail = 0.0
    k = 3
    while abs(term) > 1e-17 * abs(r2):
        tail += term / k
        term *= r2
        k += 2
    return -2.0 * r2 / (1.0 - r) + 2.0 * tail


_STIRLING_MIN_A = 30.0


def _log_gamma_prefactor(a, x):
    """a ln x - x - lgamma(a + 1), kept accurate for x near a >> 1.

    For a >= 30 and |x - a| <= a/2 it is a (log1p(t) - t) - ln(2 pi a)/2 - S(a),
    t = (x - a)/a, with S the Stirling tail of lgamma(a + 1) (four terms; the
    fifth is below 5e-17 there); the direct form would lose about
    |a ln x| * 1e-16 to cancellation.
    """
    if a < _STIRLING_MIN_A or abs(x - a) > 0.5 * a:
        return a * math.log(x) - x - math.lgamma(a + 1.0)
    inv = 1.0 / a
    inv2 = inv * inv
    tail = inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0)))
    return (a * _log1p_minus_identity((x - a) / a)
            - 0.5 * math.log(2.0 * math.pi * a) - tail)


_GAMMAINC_TOL = 1e-17        # relative size of the last series term or fraction step
_GAMMAINC_TERMS = 10_000     # most terms of either expansion


def log_gammainc_lower(a, x):
    """ln P(a, x) for the regularized lower incomplete gamma function.

    Series representation for x < a + 1, continued fraction for the upper
    tail otherwise (Numerical-Recipes style), assembled fully in log space
    so that values far below the double underflow threshold keep an exact
    logarithm (needed for P(k+1, x) with k in the hundreds).  Both branches
    share the prefactor x^a e^(-x) / Gamma(a + 1), taken through Stirling's
    series so it does not cancel when x is near a large a.  Raises
    ArithmeticError when either expansion is still moving after 10,000 terms
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
    log_prefactor = _log_gamma_prefactor(a, x)
    if x < a + 1.0:
        term = 1.0
        total = 1.0
        for n in range(1, _GAMMAINC_TERMS):
            term *= x / (a + n)
            total += term
            if term < _GAMMAINC_TOL * total:
                return log_prefactor + math.log(total)
        raise ArithmeticError(f"P({a!r}, {x!r}): series unconverged after {_GAMMAINC_TERMS} terms")
    # continued fraction for Q(a, x), then P = 1 - Q
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMAINC_TERMS):
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
        if abs(delta - 1.0) < _GAMMAINC_TOL:
            break
    else:
        raise ArithmeticError(
            f"P({a!r}, {x!r}): continued fraction unconverged after {_GAMMAINC_TERMS} terms")
    log_q = log_prefactor + math.log(a) + math.log(h)    # x^a e^-x / Gamma(a) times h
    q = math.exp(log_q)
    if q >= 1.0:
        return -np.inf
    return math.log1p(-q)

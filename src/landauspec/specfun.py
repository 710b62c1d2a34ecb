"""Stable Hermite/Laguerre evaluation, Bessel functions and incomplete gammas.

Every kernel in this package is built from Hermite functions

    psi_q(x) = H_q(x) exp(-x^2/2) / (sqrt(pi) 2^q q!)^(1/2)

and (generalized) Laguerre polynomials L_q^(nu).  Degrees run into the
thousands, so sweeps carry mantissa/exponent pairs: laguerre_fn_iter, the one
weighted-Laguerre evaluator, serves every Wigner kernel, Laguerre-mix profile
and Weyl sequence, and laguerre_log_abs gives ln |L_m^(nu)| for the moment
integrals.  All factorial arithmetic is done in log space.  The Bessel
functions J_0 and J_1 behind the radial Hankel transforms are evaluated here
too, from tabulated Chebyshev series below x = 25 and the Hankel asymptotic
expansion above.
"""

from __future__ import annotations

import math

import numpy as np


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
    for val in hermite_fn_iter(x, q):
        pass
    return val


def laguerre_fn_iter(alpha, u, m_max):
    """Yield the orthonormal weighted Laguerre functions ell_m^(alpha)(u), m <= m_max.

    ell_m^(alpha)(u) = sqrt(m! / Gamma(m+alpha+1)) u^(alpha/2) L_m^(alpha)(u) e^(-u/2),
    an orthonormal family in L^2(0, inf) (L_m(u) e^(-u/2) at alpha = 0).
    Mantissa/exponent scaling keeps the sweep alive where the seed underflows
    (u past about 1490, large alpha); a sum over m costs m_max steps.
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


_LOG_SWEEP_CHECK = 16        # recurrence steps between renormalizations


def laguerre_log_abs(m, nu, x):
    """ln |L_m^(nu)(x)| from the three-term recurrence with rescaled mantissas.

    A step grows a value by at most (|2j + nu + 1 - x| + j + nu) / (j + 1), so
    16 steps stay below 1e100 while x + 2 nu < 1e7: renormalizing every 16
    steps keeps the mantissas finite where the plain L_m^(nu)(x) overflows.
    An exact zero gives -inf.

    One recurrence serves a block of orders: nu may be an array broadcasting
    against x, e.g. shape (R, 1) against x of shape (N,), giving (R, N); m may
    then be an integer array of shape (R, 1), and row r is read off at its own
    step m_r.  Every row is bit-identical to the scalar call with its m and nu.
    """
    x = np.asarray(x, dtype=float)
    m = np.asarray(m)
    # one shared degree (the rows k >= q of a moment block) needs no per-row
    # read-off, which made a q = 1, count 300 moment call 10% slower
    if m.ndim and (m == m.flat[0]).all():
        m = m.flat[0]
    shape = np.broadcast(m, nu, x).shape
    steps = int(m.max(initial=0))
    l_prev, l_cur, l_next = np.zeros(shape), np.ones(shape), np.empty(shape)
    # no rescale before step 16, so a short scalar sweep needs no exponent array
    ls = np.zeros(shape) if steps >= _LOG_SWEEP_CHECK or m.ndim else 0.0
    if m.ndim:      # row r is read off after step m_r; degree 0 gives ln 1
        stops = {int(s): (m == s).ravel() for s in np.unique(m)}
        out = np.zeros(shape)
    with np.errstate(divide="ignore"):
        for j in range(steps):
            # l_next = ((2j + nu + 1 - x) l_cur - (j + nu) l_prev) / (j + 1) in
            # three rotating buffers, operation for operation as written
            np.subtract(2.0 * j + nu + 1.0, x, out=l_next)
            l_next *= l_cur
            l_prev *= j + nu
            l_next -= l_prev
            l_next /= j + 1.0
            l_prev, l_cur, l_next = l_cur, l_next, l_prev
            if j % _LOG_SWEEP_CHECK == _LOG_SWEEP_CHECK - 1:
                _renormalize(l_cur, l_prev, ls)
            if m.ndim and j + 1 in stops:
                rows = stops[j + 1]
                out[rows] = np.log(np.abs(l_cur[rows])) + ls[rows]
        if not m.ndim:
            out = np.log(np.abs(l_cur))
            out += ls
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

"""Gauss-Hermite, Gauss-Laguerre and Gauss-Legendre rules, and tensor-product integration.

Every builder returns one shape: a pair (nodes, weights) of read-only float
arrays whose weights integrate f(x) dx, for an f that carries its own decay
(e^(-x^2) or e^(-x) times a polynomial for the Hermite and Laguerre rules).
Gauss-Laguerre nodes are the zeros of L_n^(alpha), found by Newton's method
from WKB guesses (the phase of the Langer-corrected Laguerre equation) on a
ratio form of the three-term recurrence that carries x at full relative
precision; Gauss-Hermite nodes are square roots of Laguerre nodes with
alpha = -1/2 (even order) or +1/2 (odd order, plus 0).  Weights are the
Christoffel function of *exponentially weighted* orthonormal recurrences:
the classical weights, which carry the envelope, underflow double precision
near order 180, but these stay O(node spacing) at any order and are never
multiplied by it.  Rules are cached and safe for concurrent readers.

Integrands with a jump or a kink (a disk's or a table's breakpoints) are
never fed to Gauss-Laguerre: `support_rule` splits one Gauss-Legendre rule
at them, for the Weyl sequences, moments and Hankel transforms alike.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .specfun import hermite_fn_iter, laguerre_fn_iter

MAX_ORDER = 10_000


class QuadratureAccuracyError(RuntimeError):
    """Doubling the order moved the estimate by more than the tolerance."""


class RuleOrderError(ValueError):
    """A rule order outside [1, MAX_ORDER]."""


def _check_order(order):
    order = int(order)
    if not 1 <= order <= MAX_ORDER:
        raise RuleOrderError(f"quadrature order {order} is outside [1, {MAX_ORDER}]")
    return order


def _frozen(*arrays):
    """The arrays, read-only: a cached rule is shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _christoffel_weights(fn_iter):
    """1 / sum_j phi_j(x)^2 for the weighted orthonormal family phi_j."""
    total = None
    for val in fn_iter:
        total = val * val if total is None else total + val * val
    return 1.0 / total


def _laguerre_guesses(n, alpha):
    """WKB estimates of the zeros of L_n^(alpha), ascending.

    u = x^((alpha+1)/2) e^(-x/2) L_n^(alpha)(x) solves u'' + Q u = 0 with,
    after Langer's correction, Q = kappa/x - 1/4 - alpha^2/(4 x^2),
    kappa = n + (alpha + 1)/2, which is positive between the turning points
    p < q.  Zero k sits where the phase int_x^q sqrt(Q) reaches
    (n - k + 3/4) pi; the phase has a closed form, inverted by bisection.
    """
    kappa = n + 0.5 * (alpha + 1.0)
    q = 2.0 * kappa + math.sqrt(4.0 * kappa * kappa - alpha * alpha)
    p = alpha * alpha / q                     # p q = alpha^2

    def twice_phase(x):                       # an antiderivative of 2 sqrt(Q) on [p, q]
        root = np.sqrt(np.maximum((x - p) * (q - x), 0.0))
        val = root + 0.5 * (p + q) * np.arcsin(np.clip((2.0 * x - p - q) / (q - p), -1.0, 1.0))
        if p > 0:
            val -= abs(alpha) * np.arcsin(
                np.clip(((p + q) * x - 2.0 * p * q) / (x * (q - p)), -1.0, 1.0))
        return val

    k = np.arange(1, n + 1)
    total = 0.5 * math.pi * (math.sqrt(q) - math.sqrt(p)) ** 2     # 2 int_p^q sqrt(Q)
    target = twice_phase(np.array([p])) + total - 2.0 * math.pi * (n - k + 0.75)
    lo = np.full(n, p)
    hi = np.full(n, q)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        below = twice_phase(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


_NEWTON_MAX_ITER = 40


def _laguerre_nodes(n, alpha):
    """Zeros of L_n^(alpha), ascending, by Newton's method from WKB guesses.

    The recurrence runs on e_j, where L_j / L_(j-1) = (1 + e_j)(j + alpha)/j:

        e_1 = -x/(1 + alpha),
        e_j = ((j - 1)/(1 + 1/e_(j-1)) - x)/(j + alpha),

    whose terms stay comparable to x, so small nodes keep their relative
    precision (the plain ratio L_j / L_(j-1) rounds x against j); an exact
    zero of some L_j passes through as e = inf.  The Newton step L_n / L_n'
    is x (1 + 1/e_n)/n.  Each node stops once its step is below
    1e-13 (1 + x); nodes that have not stopped after 40 steps, or that
    coincide, raise ArithmeticError.
    """
    x = _laguerre_guesses(n, alpha)
    active = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_ITER):
            if not active.size:
                break
            xa = x[active]
            e = -xa / (1.0 + alpha)
            for j in range(2, n + 1):
                np.divide(1.0, e, out=e)
                e += 1.0
                np.divide(j - 1.0, e, out=e)
                e -= xa
                e /= j + alpha
            np.divide(1.0, e, out=e)
            e += 1.0
            step = xa * e / n
            x[active] = xa - step
            active = active[~(np.abs(step) < 1e-13 * (1.0 + xa))]
    if active.size or not (np.all(np.diff(x) > 0) and np.all(x > 0)):
        raise ArithmeticError(
            f"Newton iteration for the zeros of L_{n}^({alpha}) did not converge")
    return x


@functools.lru_cache(maxsize=256)
def gauss_hermite(order):
    """(nodes, weights) on R, exact for exp(-x^2) times a polynomial of degree < 2 order."""
    order = _check_order(order)
    # H_2m(x) ~ L_m^(-1/2)(x^2) and H_2m+1(x) ~ x L_m^(1/2)(x^2)
    half, odd = divmod(order, 2)
    pos = np.sqrt(_laguerre_nodes(half, 0.5 if odd else -0.5))
    nodes = np.concatenate((-pos[::-1], np.zeros(odd), pos))
    weights = _christoffel_weights(hermite_fn_iter(nodes, order - 1))
    return _frozen(nodes, 0.5 * (weights + weights[::-1]))


@functools.lru_cache(maxsize=4096)
def gauss_laguerre(order):
    """(nodes, weights) on [0, inf), exact for exp(-t) times a polynomial of degree < 2 order."""
    order = _check_order(order)
    nodes = _laguerre_nodes(order, 0.0)
    return _frozen(nodes, _christoffel_weights(laguerre_fn_iter(0.0, nodes, order - 1)))


@functools.lru_cache(maxsize=256)
def _legendre_half(n):
    """(eps = 1 - x, weight), read-only, of the Gauss-Legendre nodes x >= 0 on [-1, 1],
    outermost first (for odd n the last is x = 0).  Newton's method in theta, x = cos theta,
    from Tricomi's estimates, on the recurrence in P_j and D_j = P_j - P_(j-1),
    (j + 1) D_(j+1) = j D_j - (2j + 1) eps P_j: no step rounds x, so nodes near
    the ends keep eps = 2 sin^2(theta/2) to full relative precision.  Weights
    are the Christoffel function 1 / sum_(j<n) (j + 1/2) P_j(x)^2.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = math.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0)
    theta += (n - 1.0) / (8.0 * n ** 3) / np.tan(theta)

    def sweep(theta):
        """(P_n, P_(n-1), sum_(j<n) (j + 1/2) P_j^2, eps) at x = cos theta."""
        eps = 2.0 * np.sin(0.5 * theta) ** 2
        p, d, total = np.ones_like(eps), np.zeros_like(eps), np.full_like(eps, 0.5)
        for j in range(1, n):
            d = ((j - 1) * d - (2 * j - 1) * eps * p) / j
            p = p + d
            total += (j + 0.5) * p * p
        return p + (n - 1) * d / n - (2 * n - 1) * eps * p / n, p, total, eps

    for _ in range(_NEWTON_MAX_ITER):
        p_n, p_m, _, eps = sweep(theta)
        # d P_n(cos theta) / d theta = -n (P_(n-1) - x P_n) / sin theta
        step = p_n * np.sin(theta) / (n * (p_m - (p_n - eps * p_n)))
        theta += step
        if np.all(np.abs(step) < 1e-10 * theta):
            break
    else:
        raise ArithmeticError(f"Newton iteration for the zeros of P_{n} did not converge")
    _, _, total, eps = sweep(theta)
    if n % 2:
        eps[-1] = 1.0               # the middle node x = 0
    return _frozen(eps, 1.0 / total)


@functools.lru_cache(maxsize=256)
def gauss_legendre_panel(order, a, b):
    """(nodes, weights) of Gauss-Legendre on [a, b], each node placed from its end's eps
    (`_legendre_half`)."""
    order = _check_order(order)
    if not b > a:
        raise ValueError("empty interval")
    eps, w = _legendre_half(order)
    h = 0.5 * (b - a)
    inner = order // 2              # the right half; an odd order's middle node is eps[-1]
    nodes = np.concatenate((a + h * eps, (b - h * eps[:inner])[::-1]))
    return _frozen(nodes, h * np.concatenate((w, w[:inner][::-1])))


_PANEL_MIN = 8               # fewest nodes on a panel between breakpoints


def support_rule(breakpoints, order, tail_order, top):
    """Read-only (nodes, weights) for int_0^inf g(t) dt, g smooth between increasing
    breakpoints t > 0 and 0 past the last (RadialProfile.breakpoints, scaled).

    One Legendre rule on [0, a], a the last breakpoint below top, split at the
    breakpoints, each panel keeping the nodes the whole rule puts there: of
    `order` nodes, or of as many as leave every panel 8, up to MAX_ORDER, past
    which a breakpoint leaving a panel fewer than 8 is dropped.  Unless g is 0
    past a, Gauss-Laguerre of tail_order shifted to a covers [a, inf).  A last
    breakpoint below the smallest normal double (underflowed on scaling) would
    leave nodes and weights of 0: QuadratureAccuracyError.
    """
    if breakpoints and not breakpoints[-1] >= np.finfo(float).tiny:
        raise QuadratureAccuracyError(
            f"the support ends at t = {breakpoints[-1]!r}: its breakpoint underflowed on scaling")
    inside = [t for t in breakpoints if t < top]
    span = inside[-1] if inside else 0.0
    # breakpoint t sits at node order theta / pi, and round() moves a panel end by half a node
    theta = [math.acos(1.0 - 2.0 * t / span) for t in inside[:-1]]
    gap = min(d - c for c, d in zip([0.0] + theta, theta + [math.pi]))
    order = max(order, MAX_ORDER if gap * MAX_ORDER <= (_PANEL_MIN + 1) * math.pi
                else math.ceil((_PANEL_MIN + 1) * math.pi / gap))
    cuts = [(0.0, 0)]
    for t, th in zip(inside[:-1], theta):
        at = round(order * th / math.pi)
        if at - cuts[-1][1] >= _PANEL_MIN and order - at >= _PANEL_MIN:
            cuts.append((t, at))
    parts = [gauss_legendre_panel(n - m, c, d)
             for (c, m), (d, n) in zip(cuts, cuts[1:] + [(span, order)]) if d > c]
    if not breakpoints or breakpoints[-1] >= top:
        nodes, weights = gauss_laguerre(tail_order)
        parts.append((span + nodes, weights))
    return _frozen(*(np.concatenate(part) for part in zip(*parts)))


def integrate_r2(f, order):
    """Tensor Gauss-Hermite estimate of the integral of f over R^2.

    f(x, xi) must accept broadcasting arrays and carry its own decay.
    """
    x, fw = gauss_hermite(order)
    vals = f(x[:, None], x[None, :])
    return np.einsum("i,j,ij->", fw, fw, vals)


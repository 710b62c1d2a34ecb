"""Gauss-Hermite / Gauss-Laguerre rules and tensor-product integration.

Nodes come from the Golub-Welsch eigenproblem (symmetric tridiagonal Jacobi
matrix).  Weights are recovered through the Christoffel function evaluated
with *exponentially weighted* orthonormal recurrences: the raw Gauss-Laguerre
weights underflow double precision near order 180, but w_i * exp(x_i) (the
"flat" weights used to integrate functions that carry their own decay) stay
O(node spacing) at any order.  Rules are cached and safe for concurrent
readers.  scipy.linalg is imported when the first rule is built, so importing
the package loads no scipy.

Integrands with a jump (compactly supported radial profiles) are never fed
to Gauss-Laguerre; a finite-interval Gauss-Legendre panel is used instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .specfun import hermite_fn_iter, laguerre_fn_iter

MAX_ORDER = 10_000


class QuadratureAccuracyError(RuntimeError):
    """Doubling the order moved the estimate by more than the tolerance."""


@dataclass(frozen=True)
class QuadratureRule:
    """One-dimensional rule with both classical and envelope-free weights.

    weights      integrate f against the rule's weight function
    flat_weights integrate f(x) dx directly for f carrying its own decay
                 (flat_weights = weights / weight(x); computed without
                 forming either factor, so they are finite at any order)
    """

    kind: str                      # 'gauss_hermite' | 'gauss_laguerre' | 'gauss_legendre'
    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    flat_weights: np.ndarray = field(repr=False)
    alpha: float = 0.0             # gauss_laguerre weight t^alpha e^(-t)
    interval: tuple = ()           # gauss_legendre panel (a, b)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        self.flat_weights.setflags(write=False)


def _christoffel_flat_weights(fn_iter):
    """1 / sum_j phi_j(x)^2 for the weighted orthonormal family phi_j."""
    total = None
    for val in fn_iter:
        total = val * val if total is None else total + val * val
    return 1.0 / total


@functools.lru_cache(maxsize=256)
def gauss_hermite(order):
    """Rule for the weight exp(-x^2) on R."""
    order = int(order)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}]")
    if order == 1:
        nodes = np.zeros(1)
    else:
        from scipy.linalg import eigh_tridiagonal

        off = np.sqrt(np.arange(1, order) / 2.0)
        nodes = eigh_tridiagonal(np.zeros(order), off, eigvals_only=True)
        nodes = 0.5 * (nodes - nodes[::-1])     # enforce exact +/- symmetry
    flat = _christoffel_flat_weights(hermite_fn_iter(nodes, order - 1))
    flat = 0.5 * (flat + flat[::-1])
    with np.errstate(under="ignore"):
        weights = flat * np.exp(-nodes * nodes)
    return QuadratureRule("gauss_hermite", order, nodes, weights, flat)


@functools.lru_cache(maxsize=4096)
def gauss_laguerre(order, alpha=0.0):
    """Rule for the weight t^alpha exp(-t) on [0, inf)."""
    order = int(order)
    alpha = float(alpha)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}]")
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    diag = 2.0 * np.arange(order) + alpha + 1.0
    if order == 1:
        nodes = diag.copy()
    else:
        from scipy.linalg import eigh_tridiagonal

        j = np.arange(1, order)
        nodes = eigh_tridiagonal(diag, np.sqrt(j * (j + alpha)), eigvals_only=True)
    flat = _christoffel_flat_weights(laguerre_fn_iter(alpha, nodes, order - 1))
    # raw weights overflow/underflow at large order or alpha; the flat
    # weights are the reliable representation there
    with np.errstate(under="ignore", over="ignore"):
        weights = flat * np.exp(alpha * np.log(nodes) - nodes)
    return QuadratureRule("gauss_laguerre", order, nodes, weights, flat, alpha=alpha)


@functools.lru_cache(maxsize=256)
def gauss_legendre_panel(order, a, b):
    """Plain Gauss-Legendre on [a, b]; the sub-rule for jump-supported integrands."""
    order = int(order)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}]")
    if not b > a:
        raise ValueError("empty interval")
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (b - a) * (x + 1.0) + a
    weights = 0.5 * (b - a) * w
    return QuadratureRule("gauss_legendre", order, nodes, weights, weights.copy(),
                          interval=(float(a), float(b)))


DEFAULT_ORDER_R2 = 80
DEFAULT_ORDER_R4 = 40
DEFAULT_ORDER_HALFLINE = 400


def integrate_r2(f, rule=None, order=None):
    """Tensor Gauss-Hermite estimate of the integral of f over R^2.

    f(x, xi) must accept broadcasting arrays and carry its own decay;
    the envelope is removed by the flat weights.
    """
    if rule is None:
        rule = gauss_hermite(order or DEFAULT_ORDER_R2)
    x = rule.nodes
    fw = rule.flat_weights
    vals = f(x[:, None], x[None, :])
    return np.einsum("i,j,ij->", fw, fw, vals)


def integrate_r4(f, rule=None, order=None):
    """Four-fold tensor Gauss-Hermite estimate over R^4; f(x, y, xi, eta)."""
    if rule is None:
        rule = gauss_hermite(order or DEFAULT_ORDER_R4)
    x = rule.nodes
    fw = rule.flat_weights
    vals = f(x[:, None, None, None], x[None, :, None, None],
             x[None, None, :, None], x[None, None, None, :])
    return np.einsum("i,j,k,l,ijkl->", fw, fw, fw, fw, vals)


def integrate_halfline(f, rule=None, order=None, support=None):
    """Estimate the integral of f over [0, inf).

    f carries its own decay.  When `support` is given (compactly supported
    integrand vanishing beyond it) a Gauss-Legendre panel on [0, support]
    replaces Gauss-Laguerre, which would otherwise lose all accuracy at
    the jump.
    """
    if support is not None:
        rule = gauss_legendre_panel(order or DEFAULT_ORDER_HALFLINE, 0.0, float(support))
        return float(np.dot(rule.weights, f(rule.nodes)))
    if rule is None:
        rule = gauss_laguerre(order or DEFAULT_ORDER_HALFLINE)
    return float(np.dot(rule.flat_weights, f(rule.nodes)))


def doubling_check(estimate_fn, order, rtol=1e-8, atol=1e-12):
    """Compare estimate_fn at `order` and 2*order; raise on disagreement.

    Returns the higher-order estimate.
    """
    lo = estimate_fn(order)
    hi = estimate_fn(2 * order)
    if abs(hi - lo) > rtol * max(abs(hi), abs(lo)) + atol:
        raise QuadratureAccuracyError(
            f"order doubling moved the estimate from {lo!r} to {hi!r}"
        )
    return hi

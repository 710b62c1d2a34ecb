"""Wigner transforms of Hermite-function pairs and their closed forms.

W(u, v)(x, xi) = (2 pi)^(-1) int e^(i x' xi) u(x - x'/2) conj(v(x + x'/2)) dx'

For the Hermite basis the pair kernels have a Laguerre-Gaussian closed form
with angular factor e^(i (k - l) theta); the diagonal ones are real.  The
inner product convention throughout the package is linear in the first
factor and conjugate-linear in the second.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from . import quadrature
from .specfun import laguerre_fn_iter, laguerre_weighted

# fault hooks for the verification suite's mutation check
FAULTS = frozenset({"pair_phase_sign"})
_ACTIVE_FAULTS: set = set()


@contextlib.contextmanager
def inject_fault(name):
    """Deliberately corrupt a kernel (testing that the verify suites notice)."""
    if name not in FAULTS:
        raise ValueError(f"unknown fault {name!r}; known: {sorted(FAULTS)}")
    _ACTIVE_FAULTS.add(name)
    try:
        yield
    finally:
        _ACTIVE_FAULTS.discard(name)


def wigner_eval(k, l, x, xi):
    """Pair kernel Psi_{k,l}(x, xi), the Wigner transform of (psi_k, psi_l).

    Closed Laguerre-Gaussian form

        Psi_{k,l} = (1/pi) (-1)^m e^(-i (k-l) theta) ell_m^(|k-l|)(2(x^2+xi^2)),

    m = min(k, l), with ell the orthonormal weighted Laguerre function; the
    normalization sqrt(m!/M!) and the radial power never meet in linear
    space, so indices up to ~1e3 are safe.  The phase orientation is pinned
    to the transform definition (checked against wigner_numeric).
    """
    if k < 0 or l < 0:
        raise ValueError("indices must be nonnegative")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    s = x * x + xi * xi
    d = abs(k - l)
    m = min(k, l)
    radial = None
    for j, val in enumerate(laguerre_fn_iter(float(d), 2.0 * s, m)):
        if j == m:
            radial = val
    sign = -1.0 if m % 2 else 1.0
    if d == 0:
        return (sign / np.pi) * radial + 0.0j
    theta = np.arctan2(xi, x)
    if "pair_phase_sign" in _ACTIVE_FAULTS:
        theta = -theta
    phase = np.exp(-1j * d * theta) if k >= l else np.exp(1j * d * theta)
    return (sign / np.pi) * radial * phase


def wigner_diag(k, x, xi):
    """Diagonal kernel Psi_k(x, xi) = (1/pi) (-1)^k L_k(2(x^2+xi^2)) e^(-(x^2+xi^2))."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    s = x * x + xi * xi
    sign = -1.0 if k % 2 else 1.0
    # L_k(2s) e^(-s) is exactly the weighted Laguerre evaluated at 2s
    return (sign / np.pi) * laguerre_weighted(k, 0.0, 2.0 * s)


def wigner_pair_diagonal_sweep(n, x, xi, d, conjugate=False):
    """Yield (m, Psi_{m+d, m}) on the grid for m = 0 .. n-1, one recurrence sweep.

    With conjugate=True the values of Psi_{m, m+d} = conj(Psi_{m+d, m}) are
    produced instead.  Used by the matrix assembly to get entire diagonals of
    pair-kernel values at the cost of a single Laguerre recurrence.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    s = x * x + xi * xi
    if d == 0:
        for m, val in enumerate(laguerre_fn_iter(0.0, 2.0 * s, n - 1)):
            sign = -1.0 if m % 2 else 1.0
            yield m, (sign / np.pi) * val + 0.0j
        return
    theta = np.arctan2(xi, x)
    if "pair_phase_sign" in _ACTIVE_FAULTS:
        theta = -theta
    phase = np.exp(1j * d * theta) if conjugate else np.exp(-1j * d * theta)
    for m, val in enumerate(laguerre_fn_iter(float(d), 2.0 * s, n - 1)):
        sign = -1.0 if m % 2 else 1.0
        yield m, (sign / np.pi) * val * phase


def wigner_numeric(u, v, x, xi, order=120):
    """Brute-force Wigner transform of a function pair by quadrature.

    Centered substitution x' = 2 tau matches the Gaussian envelope of
    Hermite-class inputs; the oscillation e^(2 i tau xi) is resolved by the
    rule order (default 120 covers |xi| <= 6 comfortably).  Serves as the
    independent oracle for wigner_eval.
    """
    rule = quadrature.gauss_hermite(order)
    tau = rule.nodes
    fw = rule.flat_weights
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    shape = np.broadcast_shapes(x.shape, xi.shape)
    xb = np.broadcast_to(x, shape).reshape(-1, 1)
    xib = np.broadcast_to(xi, shape).reshape(-1, 1)
    t = tau[None, :]
    vals = np.exp(2j * t * xib) * u(xb - t) * np.conjugate(v(xb + t))
    out = (vals @ fw) / np.pi
    out = out.reshape(shape)
    return complex(out) if out.ndim == 0 else out


def husimi_diag(k, x, xi):
    """Gaussian smoothing of the diagonal kernel.

    (G * Psi_k)(x, xi) = ((x^2+xi^2)/2)^k e^(-(x^2+xi^2)/2) / (2 pi k!),
    evaluated in log space.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    s = x * x + xi * xi
    if k == 0:
        out = np.exp(-0.5 * s) / (2.0 * np.pi)
    else:
        with np.errstate(divide="ignore"):
            logs = k * np.log(0.5 * s) - 0.5 * s - math.lgamma(k + 1.0) - math.log(2.0 * np.pi)
        out = np.exp(logs)
    return out if out.ndim else float(out)


def husimi_numeric(k, x, xi, order=None):
    """Direct convolution of the unit Gaussian with Psi_k (oracle for husimi_diag)."""
    order = order or (80 + 2 * k)
    rule = quadrature.gauss_hermite(order)
    p = rule.nodes
    fw = rule.flat_weights
    px = p[:, None]
    pxi = p[None, :]
    gauss = np.exp(-((x - px) ** 2 + (xi - pxi) ** 2)) / np.pi
    vals = gauss * wigner_diag(k, px, pxi)
    return float(np.einsum("i,j,ij->", fw, fw, vals))


def wigner_fourier_check(k, w, order=None):
    """(lhs, rhs) for the Fourier-halving identity of the diagonal kernel.

    lhs: unitary 2-D Fourier transform of Psi_k at w, by quadrature;
    rhs: ((-1)^k / 2) Psi_k(w / 2).  They agree for every k.
    """
    w = np.asarray(w, dtype=float)
    order = order or (96 + 2 * k)
    rule = quadrature.gauss_hermite(order)
    p = rule.nodes
    fw = rule.flat_weights
    px = p[:, None]
    pxi = p[None, :]
    vals = wigner_diag(k, px, pxi) * np.exp(-1j * (w[0] * px + w[1] * pxi))
    lhs = np.einsum("i,j,ij->", fw, fw, vals) / (2.0 * np.pi)
    sign = -1.0 if k % 2 else 1.0
    rhs = 0.5 * sign * wigner_diag(k, w[0] / 2.0, w[1] / 2.0)
    return float(np.real(lhs)), float(rhs)


def moyal_pairing(k, l, kp, lp, order=None):
    """<Psi_{k,l}, Psi_{k',l'}> over R^2 by quadrature; equals delta delta / (2 pi)."""
    order = order or max(quadrature.DEFAULT_ORDER_R2, 2 * max(k, l, kp, lp) + 32)
    rule = quadrature.gauss_hermite(order)
    p = rule.nodes
    fw = rule.flat_weights
    px = p[:, None]
    pxi = p[None, :]
    vals = wigner_eval(k, l, px, pxi) * np.conjugate(wigner_eval(kp, lp, px, pxi))
    return complex(np.einsum("i,j,ij->", fw, fw, vals))

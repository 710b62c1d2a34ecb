"""Wigner transforms of Hermite-function pairs and their closed forms.

W(u, v)(x, xi) = (2 pi)^(-1) int e^(i x' xi) u(x - x'/2) conj(v(x + x'/2)) dx'

For the Hermite basis the pair kernels have a Laguerre-Gaussian closed form
with angular factor e^(-i (k - l) theta), built only by
wigner_pair_diagonal_sweep from one rescaled Laguerre sweep per diagonal;
the diagonal kernels are real.  The inner product convention throughout the
package is linear in the first factor and conjugate-linear in the second.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from . import quadrature
from .specfun import laguerre_fn_iter

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


def wigner_pair_diagonal_sweep(n, x, xi, d):
    """Yield (m, Psi_{m+d, m}) on the grid for m = 0 .. n-1 from one Laguerre sweep.

        Psi_{m+d, m} = (1/pi) (-1)^m e^(-i d theta) ell_m^(d)(2(x^2+xi^2)),

    ell the orthonormal weighted Laguerre function of laguerre_fn_iter, whose
    scaling keeps indices in the thousands finite.  The phase orientation is
    pinned to the transform definition (checked against wigner_numeric);
    Psi_{m, m+d} is the conjugate, and the d = 0 values are real.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    s = x * x + xi * xi
    phase = 1.0
    if d:
        theta = np.arctan2(xi, x)
        if "pair_phase_sign" in _ACTIVE_FAULTS:
            theta = -theta
        phase = np.exp(-1j * d * theta)
    for m, val in enumerate(laguerre_fn_iter(float(d), 2.0 * s, n - 1)):
        sign = -1.0 if m % 2 else 1.0
        yield m, (sign / np.pi) * val * phase


def wigner_eval(k, l, x, xi):
    """Pair kernel Psi_{k,l}(x, xi), the Wigner transform of (psi_k, psi_l).

    Step min(k, l) of the |k - l| diagonal sweep, conjugated when k < l.
    """
    if k < 0 or l < 0:
        raise ValueError("indices must be nonnegative")
    for _, val in wigner_pair_diagonal_sweep(min(k, l) + 1, x, xi, abs(k - l)):
        pass
    return val if k >= l else np.conj(val)


def wigner_diag(k, x, xi):
    """Diagonal kernel Psi_k(x, xi) = (1/pi) (-1)^k L_k(2(x^2+xi^2)) e^(-(x^2+xi^2))."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    return np.real(wigner_eval(k, k, x, xi))


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
    def smoothed(px, pxi):
        gauss = np.exp(-((x - px) ** 2 + (xi - pxi) ** 2)) / np.pi
        return gauss * wigner_diag(k, px, pxi)

    return float(quadrature.integrate_r2(smoothed, order=order or (80 + 2 * k)))


def wigner_fourier_check(k, w, order=None):
    """(lhs, rhs) for the Fourier-halving identity of the diagonal kernel.

    lhs: unitary 2-D Fourier transform of Psi_k at w, by quadrature;
    rhs: ((-1)^k / 2) Psi_k(w / 2).  They agree for every k.
    """
    w = np.asarray(w, dtype=float)
    lhs = quadrature.integrate_r2(
        lambda px, pxi: wigner_diag(k, px, pxi) * np.exp(-1j * (w[0] * px + w[1] * pxi)),
        order=order or (96 + 2 * k)) / (2.0 * np.pi)
    sign = -1.0 if k % 2 else 1.0
    rhs = 0.5 * sign * wigner_diag(k, w[0] / 2.0, w[1] / 2.0)
    return float(np.real(lhs)), float(rhs)


def moyal_pairing(k, l, kp, lp, order=None):
    """<Psi_{k,l}, Psi_{k',l'}> over R^2 by quadrature; equals delta delta / (2 pi)."""
    order = order or max(quadrature.DEFAULT_ORDER_R2, 2 * max(k, l, kp, lp) + 32)
    return complex(quadrature.integrate_r2(
        lambda x, xi: wigner_eval(k, l, x, xi) * np.conjugate(wigner_eval(kp, lp, x, xi)),
        order=order))

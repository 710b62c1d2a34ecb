"""Closed-form predictors for the eigenvalue decay laws and residual checks.

Three regimes for ln(nu_k) as k grows, driven by how fast the weight decays:

  compact support:   -k ln k + (1 + ln(b c^2 / 2)) k + o(k), c the capacity
  exp(-gamma |x|^(2 beta)):
      beta < 1:      -sum_j f_j k^((beta-1)j + 1),  1 <= j < 1/(1-beta)
      beta = 1:      -ln(1+mu) k
      beta > 1:      -((beta-1)/beta) k ln k + ((beta-1-ln(mu beta))/beta) k
                     - sum_j g_j k^((1/beta-1)j + 1),  1 <= j < beta/(beta-1)

with mu = gamma (2/b)^beta always derived from the weight parameters.  The
f_j, g_j are Taylor coefficients of implicit variational functions; they are
extracted by Newton-solved samples and Richardson-extrapolated central
differences, and cross-checked against the envelope identities f_1 = mu,
g_1 = (beta mu)^(-1/beta).

Finite-k verification never asserts asymptotic equality: residuals are
normalized (by k for o(k) claims, by ln k for O(ln k) claims) and compared
window over window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import symbols


def mu_from_weight(gamma, beta, b):
    """The decay constant mu = gamma (2/b)^beta; the only place it is formed."""
    if gamma <= 0 or beta <= 0 or b <= 0:
        raise ValueError("gamma, beta, b must be positive")
    return gamma * (2.0 / b) ** beta


def predict_compact(k, b, cap):
    """Leading terms of ln(nu_k) for a compactly supported weight."""
    k = np.asarray(k, dtype=float)
    return -k * np.log(k) + (1.0 + math.log(b * cap * cap / 2.0)) * k


# ---------------------------------------------------------------------------
# implicit-equation coefficients


def _newton(fn, dfn, x0, tol=1e-15, max_iter=100):
    x = x0
    for _ in range(max_iter):
        step = fn(x) / dfn(x)
        x -= step
        if abs(step) < tol * max(1.0, abs(x)):
            return x
    raise RuntimeError("Newton iteration did not converge")


def _f_sample(eps, beta, mu):
    # s solves s = 1 - eps beta mu s^beta; then F(s) = s - ln s + eps mu s^beta
    s = _newton(lambda s: s - 1.0 + eps * beta * mu * s ** beta,
                lambda s: 1.0 + eps * beta * beta * mu * s ** (beta - 1.0), 1.0)
    return s - math.log(s) + eps * mu * s ** beta


def _g_sample(eps, beta, mu):
    # s solves beta mu s^beta = 1 - eps s; then G(s) = mu s^beta - ln s + eps s
    s0 = (beta * mu) ** (-1.0 / beta)
    s = _newton(lambda s: beta * mu * s ** beta - 1.0 + eps * s,
                lambda s: beta * beta * mu * s ** (beta - 1.0) + eps, s0)
    return mu * s ** beta - math.log(s) + eps * s


_STENCILS = {
    1: ([( 1, 1.0), (-1, -1.0)], 2.0, 1),
    2: ([( 1, 1.0), (0, -2.0), (-1, 1.0)], 1.0, 2),
    3: ([( 2, 1.0), (1, -2.0), (-1, 2.0), (-2, -1.0)], 2.0, 3),
    4: ([( 2, 1.0), (1, -4.0), (0, 6.0), (-1, -4.0), (-2, 1.0)], 1.0, 4),
}


def _derivative_at_zero(fn, order, h0=1e-2):
    """order-th derivative at 0: central stencil + two Richardson levels."""
    offsets, denom, power = _STENCILS[order]
    cache = {}

    def sample(e):
        if e not in cache:
            cache[e] = fn(e)
        return cache[e]

    def stencil(h):
        return sum(c * sample(o * h) for o, c in offsets) / (denom * h ** power)

    d1, d2, d3 = stencil(h0), stencil(h0 / 2.0), stencil(h0 / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def _strict_index_bound(x):
    """Largest integer j with j < x (floating-safe for integer x)."""
    j = int(math.floor(x))
    if j >= x - 1e-12:
        j -= 1
    return j


def _require_stencils(j_max, beta, name, band):
    if j_max > max(_STENCILS):
        raise ValueError(
            f"beta = {beta:g} needs {j_max} coefficients {name}_j, but the difference "
            f"stencils stop at order {max(_STENCILS)}: beta must lie in {band}")


def coeffs_f(beta, mu, h0=1e-2):
    """Taylor coefficients f_j, 1 <= j < 1/(1-beta); f_1 equals mu.

    The stencils reach order 4, so beta must lie in (0, 0.8].
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    j_max = _strict_index_bound(1.0 / (1.0 - beta))
    _require_stencils(j_max, beta, "f", "(0, 0.8]")
    # per-order step sizes: higher derivatives need wider stencils
    return np.array([
        _derivative_at_zero(lambda e: _f_sample(e, beta, mu), j,
                            h0=h0 * (2.0 ** (j - 1))) / math.factorial(j)
        for j in range(1, j_max + 1)])


def coeffs_g(beta, mu, h0=1e-2):
    """Taylor coefficients g_j, 1 <= j < beta/(beta-1); g_1 = (beta mu)^(-1/beta).

    The stencils reach order 4, so beta must be at least 1.25.
    """
    if beta <= 1.0:
        raise ValueError("beta must exceed 1")
    j_max = _strict_index_bound(beta / (beta - 1.0))
    _require_stencils(j_max, beta, "g", "[1.25, inf)")
    return np.array([
        _derivative_at_zero(lambda e: _g_sample(e, beta, mu), j,
                            h0=h0 * (2.0 ** (j - 1))) / math.factorial(j)
        for j in range(1, j_max + 1)])


def predict_exp(k, beta, mu, coeffs=None):
    """Leading terms of ln(nu_k) for the exponential weight family."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    k = np.asarray(k, dtype=float)
    if beta == 1.0:
        return -math.log1p(mu) * k
    if beta < 1.0:
        f = coeffs if coeffs is not None else coeffs_f(beta, mu)
        out = np.zeros_like(k)
        for j, fj in enumerate(f, start=1):
            out -= fj * k ** ((beta - 1.0) * j + 1.0)
        return out
    g = coeffs if coeffs is not None else coeffs_g(beta, mu)
    out = (-(beta - 1.0) / beta) * k * np.log(k) \
        + ((beta - 1.0 - math.log(mu * beta)) / beta) * k
    for j, gj in enumerate(g, start=1):
        out -= gj * k ** ((1.0 / beta - 1.0) * j + 1.0)
    return out


def predict_counting(lam, v, sign=+1):
    """Phase-space volume prediction for the eigenvalue counting function."""
    return symbols.phase_space_volume(v, lam, sign=sign)


# ---------------------------------------------------------------------------
# models and residual reports


@dataclass(frozen=True)
class AsymptoticModel:
    """Closed-form predictor of ln(nu_k) (or of counting volumes)."""

    kind: str                    # 'compact' | 'exp' | 'counting'
    b: float = 0.0
    capacity: float = 0.0
    beta: float = 0.0
    mu: float = 0.0
    coeffs: tuple = ()
    volume: object = field(default=None, repr=False)

    def predict_log(self, k):
        if self.kind == "compact":
            return predict_compact(k, self.b, self.capacity)
        if self.kind == "exp":
            return predict_exp(k, self.beta, self.mu,
                               coeffs=np.asarray(self.coeffs) if self.coeffs else None)
        raise ValueError("counting models do not predict eigenvalue logs")

    def predict_count(self, lam):
        if self.kind != "counting":
            raise ValueError("not a counting model")
        return self.volume(lam)


def compact_model(b, cap):
    return AsymptoticModel("compact", b=float(b), capacity=float(cap))


def exp_model(beta, mu):
    beta, mu = float(beta), float(mu)
    if beta == 1.0:
        coeffs = ()
    elif beta < 1.0:
        coeffs = tuple(coeffs_f(beta, mu))
    else:
        coeffs = tuple(coeffs_g(beta, mu))
    return AsymptoticModel("exp", beta=beta, mu=mu, coeffs=coeffs)


def exp_model_from_profile(profile, b):
    """Exponential-decay model with mu derived from the weight parameters."""
    if profile.kind == "gaussian":
        gamma, beta = profile.rate * profile.arg_scale, 1.0
    elif profile.kind == "exp_beta":
        gamma = profile.gamma * profile.arg_scale ** profile.beta
        beta = profile.beta
    else:
        raise symbols.UnsupportedProfileError(
            f"no exponential model for profile kind {profile.kind!r}")
    return exp_model(beta, mu_from_weight(gamma, beta, b))


def counting_model(volume):
    return AsymptoticModel("counting", volume=volume)


@dataclass(frozen=True)
class ResidualReport:
    ks: np.ndarray
    residuals: np.ndarray
    max_over_k: float
    max_over_lnk: float

    def window_stats(self, windows, norm="k"):
        """max |r_k| / norm(k) per (lo, hi) window (hi inclusive)."""
        out = []
        scale = (lambda k: k) if norm == "k" else np.log
        for lo, hi in windows:
            m = (self.ks >= lo) & (self.ks <= hi)
            if not m.any():
                raise ValueError(f"window [{lo}, {hi}] contains no indices")
            out.append(float(np.max(np.abs(self.residuals[m]) / scale(self.ks[m]))))
        return out


def compare_series(model, k_range, eigs=None, log_eigs=None):
    """Per-k residuals r_k = ln(nu_k) - model(k) and normalized statistics.

    Accepts the eigenvalue sequence either directly or as logs (indexing is
    k = 0 at the first entry); strictly positive eigenvalues are required on
    the range when given directly.
    """
    k_lo, k_hi = k_range
    if k_lo < 1:
        raise ValueError("range must start at k >= 1 (ln k normalization)")
    if (eigs is None) == (log_eigs is None):
        raise ValueError("pass exactly one of eigs, log_eigs")
    if log_eigs is None:
        eigs = np.asarray(eigs, dtype=float)
        if np.any(eigs[k_lo:k_hi + 1] <= 0):
            raise ValueError("nonpositive eigenvalue in range")
        log_eigs = np.full(len(eigs), -np.inf)
        pos = eigs > 0
        log_eigs[pos] = np.log(eigs[pos])
    log_eigs = np.asarray(log_eigs, dtype=float)
    if k_hi >= len(log_eigs):
        raise ValueError("eigenvalue sequence shorter than the range")
    ks = np.arange(k_lo, k_hi + 1)
    r = log_eigs[ks] - model.predict_log(ks)
    return ResidualReport(ks, r,
                          float(np.max(np.abs(r) / ks)),
                          float(np.max(np.abs(r) / np.log(ks))))


def dyadic_windows(k_lo, k_hi):
    """[(k_lo, 2 k_lo), (2 k_lo, 4 k_lo), ...] up to k_hi."""
    out = []
    lo = k_lo
    while lo < k_hi:
        hi = min(2 * lo, k_hi)
        out.append((lo, hi))
        lo = hi
    return out

"""Closed-form predictors for the eigenvalue decay laws and residual checks.

Three regimes for ln(nu_k) as k grows, driven by how fast the weight decays:

  compact support:   -k ln k + (1 + ln(b c^2 / 2)) k + o(k), c the capacity
  exp(-gamma |x|^(2 beta)):
      beta < 1:      -sum_j f_j k^((beta-1)j + 1),  1 <= j < 1/(1-beta)
      beta = 1:      -ln(1+mu) k
      beta > 1:      -((beta-1)/beta) k ln k + ((beta-1-ln(mu beta))/beta) k
                     - sum_j g_j k^((1/beta-1)j + 1),  1 <= j < beta/(beta-1)

with mu = gamma (2/b)^beta always derived from the weight parameters.  The
f_j, g_j are Taylor coefficients of implicit variational functions F, G.  By
the envelope theorem F' and G' are powers of the implicit root, so both
follow, with no discretization error, from one power-series recurrence for
y = (1 + c eps y)^p; f_1 = mu and g_1 = (beta mu)^(-1/beta) are its leading
terms.  Every beta != 1 is served up to a bound of 1000 coefficients
(|1 - beta| of about 1e-3), past which a ValueError is raised.

Finite-k verification never asserts asymptotic equality: residuals are
normalized (by k for o(k) claims, by ln k for O(ln k) claims) and compared
window over window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symbols


def mu_from_weight(gamma, beta, b):
    """The decay constant mu = gamma (2/b)^beta, a normal double; the only place it is formed."""
    if gamma <= 0 or beta <= 0 or b <= 0:
        raise ValueError("gamma, beta, b must be positive")
    try:
        mu = gamma * (2.0 / b) ** beta
    except OverflowError:               # float ** raises where * and / give inf
        mu = math.inf
    if not np.finfo(float).tiny <= mu < math.inf:   # else (beta mu)^(-1/beta) may overflow
        raise ValueError(f"mu = gamma (2/b)^beta is {mu!r} at gamma={gamma!r}, beta={beta!r}, "
                         f"b={b!r}, outside the normal doubles")
    return mu


def predict_compact(k, b, cap):
    """Leading terms of ln(nu_k) for a compactly supported weight."""
    k = np.asarray(k, dtype=float)
    return -k * np.log(k) + (1.0 + math.log(b * cap * cap / 2.0)) * k


# ---------------------------------------------------------------------------
# implicit-equation coefficients

# Largest coefficient count served: the series costs O(J^2) and J grows like
# 1/|1 - beta|, so beta within about 1e-3 of 1 is refused rather than run.
_MAX_COEFFS = 1000


def _strict_index_bound(x):
    """Largest integer j with j < x (floating-safe for integer x)."""
    j = int(math.floor(x))
    if j >= x - 1e-12:
        j -= 1
    return j


def _power_fixed_point(p, c0, n):
    """First n Taylor coefficients of y(eps) solving y = (1 + c0 eps y)^p.

    J.C.P. Miller's recurrence for a^p, with a = 1 + c0 eps y kept one
    coefficient ahead of y.
    """
    y, a = [1.0], [1.0, c0]
    for m in range(1, n):
        y.append(sum(((p + 1.0) * k - m) * a[k] * y[m - k] for k in range(1, m + 1)) / m)
        a.append(c0 * y[m])
    return np.array(y)


def _envelope_coeffs(scale, p, c0, j_max, beta, name):
    # dF/deps = scale * y(eps), so the j-th coefficient is scale y_(j-1) / j
    if j_max > _MAX_COEFFS:
        raise ValueError(
            f"beta = {beta:.12g} needs {j_max} coefficients {name}_j, more than "
            f"the {_MAX_COEFFS} supported")
    with np.errstate(over="ignore"):   # y_m grows like (beta mu)^m
        c = scale * _power_fixed_point(p, c0, j_max) / np.arange(1, j_max + 1)
    if not np.all(np.isfinite(c)):
        raise ValueError(f"coefficients {name}_j overflow at beta = {beta:.12g}")
    return c


def coeffs_f(beta, mu):
    """Taylor coefficients f_j, 1 <= j < 1/(1-beta); f_1 equals mu.

    F(eps) = s - ln s + eps mu s^beta at the root of s = 1 - eps beta mu s^beta;
    by the envelope theorem dF/deps = mu s^beta, and y = s^beta solves
    y = (1 - beta mu eps y)^beta.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    j_max = _strict_index_bound(1.0 / (1.0 - beta))
    return _envelope_coeffs(mu, beta, -beta * mu, j_max, beta, "f")


def coeffs_g(beta, mu):
    """Taylor coefficients g_j, 1 <= j < beta/(beta-1); g_1 = (beta mu)^(-1/beta).

    G(eps) = mu s^beta - ln s + eps s at the root of beta mu s^beta = 1 - eps s;
    dG/deps = s, and y = s/s0 with s0 = (beta mu)^(-1/beta) solves
    y = (1 - s0 eps y)^(1/beta).
    """
    if beta <= 1.0:
        raise ValueError("beta must exceed 1")
    j_max = _strict_index_bound(beta / (beta - 1.0))
    s0 = (beta * mu) ** (-1.0 / beta)
    return _envelope_coeffs(s0, 1.0 / beta, -s0, j_max, beta, "g")


def predict_exp(k, beta, mu, coeffs):
    """Leading terms of ln(nu_k) for the exponential weight family.

    coeffs are coeffs_f(beta, mu) for beta < 1, coeffs_g(beta, mu) for
    beta > 1; beta = 1 reads none.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    k = np.asarray(k, dtype=float)
    if beta == 1.0:
        return -math.log1p(mu) * k
    if beta < 1.0:
        out = np.zeros_like(k)
        for j, fj in enumerate(coeffs, start=1):
            out -= fj * k ** ((beta - 1.0) * j + 1.0)
        return out
    out = (-(beta - 1.0) / beta) * k * np.log(k) \
        + ((beta - 1.0 - math.log(mu * beta)) / beta) * k
    for j, gj in enumerate(coeffs, start=1):
        out -= gj * k ** ((1.0 / beta - 1.0) * j + 1.0)
    return out


# ---------------------------------------------------------------------------
# models and residual reports


@dataclass(frozen=True)
class AsymptoticModel:
    """Closed-form predictor of ln(nu_k)."""

    kind: str                    # 'compact' | 'exp'
    b: float = 0.0
    capacity: float = 0.0
    beta: float = 0.0
    mu: float = 0.0
    coeffs: tuple = ()

    def predict_log(self, k):
        if self.kind == "compact":
            return predict_compact(k, self.b, self.capacity)
        return predict_exp(k, self.beta, self.mu, self.coeffs)


def compact_model(b, cap):
    b, cap = float(b), float(cap)
    if not (b > 0 and cap > 0):       # the law reads cap^2, so a sign would be lost
        raise ValueError(f"b and capacity must be positive, got b={b!r}, capacity={cap!r}")
    if not 0 < b * cap * cap / 2.0 < math.inf:     # predict_compact takes its log
        raise ValueError(f"b capacity^2/2 is {b * cap * cap / 2!r}, not a finite positive double")
    return AsymptoticModel("compact", b=b, capacity=cap)


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
        gamma, beta = profile.rate, 1.0
    elif profile.kind == "exp_beta":
        gamma, beta = profile.gamma, profile.beta
    else:
        raise symbols.UnsupportedProfileError(
            f"no exponential model for profile kind {profile.kind!r}")
    return exp_model(beta, mu_from_weight(gamma, beta, b))


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


def compare_series(model, k_range, log_eigs):
    """Per-k residuals r_k = ln(nu_k) - model(k) and normalized statistics.

    log_eigs holds ln nu_k with k = 0 at the first entry.
    """
    k_lo, k_hi = k_range
    if k_lo < 1:
        raise ValueError("range must start at k >= 1 (ln k normalization)")
    log_eigs = np.asarray(log_eigs, dtype=float)
    if k_hi >= len(log_eigs):
        raise ValueError("eigenvalue sequence shorter than the range")
    ks = np.arange(k_lo, k_hi + 1)
    r = log_eigs[ks] - model.predict_log(ks)
    return ResidualReport(ks, r,
                          float(np.max(np.abs(r) / ks)),
                          float(np.max(np.abs(r) / np.log(ks))))

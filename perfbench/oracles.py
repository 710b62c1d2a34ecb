"""Reference values computed apart from landauspec.

Nothing here imports the package under test.  Every value comes from a
closed form or from mpmath at raised precision:

  Gaussian weights      closed forms (Weyl, anti-Wick, Toeplitz q = 0, 1)
                        and an exact finite Gamma sum for any q
  disk weights          mpmath's regularized incomplete gamma
  power / exp_beta      mpmath quadrature split around the integrand's peak
  decay-law models      mpmath Taylor coefficients of the implicit functions
  capacities            disk r, segment L/4, square and equilateral triangle
                        from their Gamma-function constants

Values for inputs that do not depend on the workload seed are cached in
oracle_cache.json; regenerate it with

    python3 perfbench/oracles.py --regenerate
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import mpmath as mp

DPS = 20
CACHE_PATH = Path(__file__).with_name("oracle_cache.json")


# ---------------------------------------------------------------------------
# radial weights R(s), s the squared phase-space radius


def log_weight(profile, s):
    """ln R(s) in mpmath for the profile blocks the benchmark generates."""
    kind = profile["kind"]
    la = mp.log(profile.get("amplitude", 1.0))
    s = mp.mpf(s)
    if kind == "gaussian":
        return la - profile["rate"] * s
    if kind == "exp_beta":
        return la - profile["gamma"] * s ** profile["beta"]
    if kind == "power":
        return la - mp.mpf(profile["gamma"]) / 2 * mp.log1p(s)
    raise ValueError(f"no log weight for kind {kind!r}")


def dlog_weight(profile, s):
    """d/ds ln R(s)."""
    kind = profile["kind"]
    s = mp.mpf(s)
    if kind == "gaussian":
        return -mp.mpf(profile["rate"])
    if kind == "exp_beta":
        beta = mp.mpf(profile["beta"])
        return -profile["gamma"] * beta * s ** (beta - 1)
    if kind == "power":
        return -mp.mpf(profile["gamma"]) / 2 / (1 + s)
    raise ValueError(f"no log weight for kind {kind!r}")


def _laguerre_coeffs(m, d):
    """Power coefficients c_i of L_m^(d)(t) = sum_i c_i t^i, exact."""
    return [mp.mpf((-1) ** i) * mp.binomial(m + d, m - i) / mp.factorial(i)
            for i in range(m + 1)]


def _level_indices(k, q):
    return min(k, q), abs(k - q)


# ---------------------------------------------------------------------------
# level-q compressions nu_k of a radial multiplier at field strength b
#
#   nu_k = (m!/M!) int_0^inf R(2t/b) t^d [L_m^d(t)]^2 e^(-t) dt,
#   m = min(k, q), M = max(k, q), d = |k - q|


def toeplitz_log_gaussian(amp, rate, b, q, ks):
    """ln nu_k for R = amp exp(-rate s): closed forms for q <= 1, finite sum above."""
    with mp.workdps(60):
        s = 1 + 2 * mp.mpf(rate) / b
        la = mp.log(amp)
        out = []
        for k in ks:
            if q == 0:
                v = la - (k + 1) * mp.log(s)
            elif q == 1:
                v = la + mp.log(k * s * s - 2 * k * s + k + 1) - (k + 2) * mp.log(s)
            else:
                m, d = _level_indices(k, q)
                c = _laguerre_coeffs(m, d)
                tot = mp.fsum(c[i] * c[j] * mp.factorial(d + i + j) / s ** (d + i + j + 1)
                              for i in range(m + 1) for j in range(m + 1))
                v = la + mp.log(tot) + mp.log(mp.factorial(m)) - mp.log(mp.factorial(m + d))
            out.append(float(v))
        return out


def toeplitz_log_disk(amp, cutoff, b, q, ks):
    """ln nu_k for R = amp 1[s <= cutoff] through lower incomplete gammas."""
    with mp.workdps(60):
        rho = mp.mpf(b) * cutoff / 2
        la = mp.log(amp)
        out = []
        for k in ks:
            m, d = _level_indices(k, q)
            if m == 0:
                v = la + mp.log(mp.gammainc(d + 1, 0, rho, regularized=True))
            else:
                c = _laguerre_coeffs(m, d)
                tot = mp.fsum(c[i] * c[j] * mp.gammainc(d + i + j + 1, 0, rho)
                              for i in range(m + 1) for j in range(m + 1))
                v = la + mp.log(tot) + mp.log(mp.factorial(m)) - mp.log(mp.factorial(m + d))
            out.append(float(v))
        return out


def _peak(dphi, lo, hi):
    """Root of the decreasing log-derivative dphi on (lo, hi) by bisection."""
    if dphi(lo) <= 0:
        return lo
    while dphi(hi) > 0:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if dphi(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < mp.mpf(10) ** (-20) * max(1, hi):
            break
    return (lo + hi) / 2


def log_gamma_moment(profile, arg_scale, d, m=0):
    """ln[(m!/(m+d)!) int_0^inf R(arg_scale t) t^d L_m^d(t)^2 e^(-t) dt] by mpmath.

    The log-integrand's peak t* is located first and the integral is split
    at t* +- multiples of its curvature width, so neither a super-exponential
    weight nor a large power t^d can hide the peak between fixed breakpoints.
    """
    with mp.workdps(DPS):
        d = int(d)
        sc = mp.mpf(arg_scale)

        def phi(t):
            if t == 0:
                return log_weight(profile, 0) if d == 0 else mp.ninf
            return log_weight(profile, sc * t) + d * mp.log(t) - t

        def dphi(t):
            return sc * dlog_weight(profile, sc * t) + d / t - 1

        tiny = mp.mpf(10) ** -12
        tp = _peak(dphi, tiny, mp.mpf(d + 10))
        if tp <= tiny:
            tp = mp.mpf(0)
            width = mp.mpf(1)
            phi0 = phi(tp)
        else:
            width = 1 / mp.sqrt(max(-mp.diff(dphi, tp), mp.mpf(10) ** -8))
            phi0 = phi(tp)
        pts = sorted({mp.mpf(0)} | {tp + j * width for j in (-16, -6, -2, 0, 2, 6, 16, 40)
                                    if tp + j * width > 0})
        lag = _laguerre_coeffs(m, d) if m else None

        def f(t):
            if t == 0 and d > 0:
                return mp.mpf(0)
            val = mp.exp(phi(t) - phi0)
            if lag is not None:
                val *= mp.polyval(lag[::-1], t) ** 2
            return val

        total = mp.quad(f, pts + [mp.inf])
        v = phi0 + mp.log(total) + mp.loggamma(m + 1) - mp.loggamma(m + d + 1)
        return float(v)


def toeplitz_log_quad(profile, b, q, ks):
    """ln nu_k for any positive weight by peak-split mpmath quadrature."""
    out = []
    for k in ks:
        m, d = _level_indices(k, q)
        out.append(log_gamma_moment(profile, 2.0 / b, d, m))
    return out


def toeplitz_log(profile, b, q, ks):
    """Dispatch to the most direct oracle for the profile kind."""
    kind = profile["kind"]
    amp = profile.get("amplitude", 1.0)
    if kind == "gaussian":
        return toeplitz_log_gaussian(amp, profile["rate"], b, q, ks)
    if kind == "disk_indicator":
        return toeplitz_log_disk(amp, profile["cutoff"], b, q, ks)
    return toeplitz_log_quad(profile, b, q, ks)


# ---------------------------------------------------------------------------
# radial Weyl and anti-Wick eigenvalue sequences


def weyl_gaussian(amp, rate, ks):
    """Weyl eigenvalues of amp exp(-rate s): amp (1-a)^k / (1+a)^(k+1)."""
    return [float(amp * mp.mpf(1 - rate) ** k / mp.mpf(1 + rate) ** (k + 1)) for k in ks]


def antiwick_gaussian(amp, rate, ks):
    """Anti-Wick eigenvalues of amp exp(-rate s): amp (1+2a)^-(k+1)."""
    return [float(amp * mp.mpf(1 + 2 * rate) ** (-(k + 1))) for k in ks]


def antiwick_quad(profile, ks):
    """Anti-Wick eigenvalues int R(2t) t^k e^-t / k! dt by mpmath."""
    return [math.exp(log_gamma_moment(profile, 2.0, k)) for k in ks]


def weyl_quad(profile, ks):
    """Weyl eigenvalues ((-1)^k / 2) int R(t/2) L_k(t) e^(-t/2) dt by mpmath.

    The oscillating Laguerre factor is integrated panel by panel up to well
    past its last zero (slow; used for cached fixed inputs only).
    """
    out = []
    with mp.workdps(DPS):
        for k in ks:
            def f(t):
                w = mp.exp(log_weight(profile, t / 2)) if t > 0 else mp.exp(log_weight(profile, 0))
                return w * mp.laguerre(k, 0, t) * mp.exp(-t / 2)

            top = 4 * k + 200
            pts = [mp.mpf(0)] + [mp.mpf(x) / 8 for x in (1, 2, 4)] \
                + [mp.mpf(x) for x in range(1, int(top) + 1)]
            val = mp.quad(f, pts + [mp.inf])
            out.append(float((-1) ** k * val / 2))
    return out


# ---------------------------------------------------------------------------
# decay-law predictions


def _taylor_coeffs(fn, count):
    with mp.workdps(40):
        return [float(c) for c in mp.taylor(fn, 0, count)[1:]]


def exp_coeffs(beta, mu):
    """Taylor coefficients (f_j for beta < 1, g_j for beta > 1) of the implicit laws."""
    beta = mp.mpf(beta)
    mu = mp.mpf(mu)
    if beta < 1:
        jmax = _strict_below(1 / (1 - beta))

        def F(eps):
            s = mp.findroot(lambda s: s - 1 + eps * beta * mu * s ** beta, 1)
            return s - mp.log(s) + eps * mu * s ** beta
        return _taylor_coeffs(F, jmax)
    jmax = _strict_below(beta / (beta - 1))

    def G(eps):
        s = mp.findroot(lambda s: beta * mu * s ** beta - 1 + eps * s,
                        (beta * mu) ** (-1 / beta))
        return mu * s ** beta - mp.log(s) + eps * s
    return _taylor_coeffs(G, jmax)


def _strict_below(x):
    j = int(mp.floor(x))
    return j - 1 if j >= x - mp.mpf(10) ** -12 else j


def predict_exp(ks, beta, mu):
    """ln nu_k predicted by the exponential-weight law (leading terms)."""
    out = []
    with mp.workdps(30):
        beta_m = mp.mpf(beta)
        if beta == 1:
            return [float(-k * mp.log1p(mu)) for k in ks]
        coeffs = exp_coeffs(beta, mu)
        for k in ks:
            k = mp.mpf(int(k))
            if beta < 1:
                v = -mp.fsum(c * k ** ((beta_m - 1) * j + 1) for j, c in enumerate(coeffs, 1))
            else:
                v = -((beta_m - 1) / beta_m) * k * mp.log(k) \
                    + ((beta_m - 1 - mp.log(mu * beta_m)) / beta_m) * k \
                    - mp.fsum(c * k ** ((1 / beta_m - 1) * j + 1) for j, c in enumerate(coeffs, 1))
            out.append(float(v))
    return out


def predict_compact(ks, b, cap):
    """ln nu_k predicted by the compact-support law."""
    return [float(-k * mp.log(k) + (1 + mp.log(mp.mpf(b) * cap * cap / 2)) * k) for k in ks]


# ---------------------------------------------------------------------------
# logarithmic capacities


def capacity_square(side):
    return float(mp.gamma(0.25) ** 2 / (4 * mp.pi ** 1.5) * side)


def capacity_triangle(side):
    return float(mp.sqrt(3) * mp.gamma(mp.mpf(1) / 3) ** 3 / (8 * mp.pi ** 2) * side)


# ---------------------------------------------------------------------------
# cache of oracle values for the seed-independent inputs


def build_cache():
    from workloads import cached_oracle_requests
    out = {}
    for key, req in cached_oracle_requests().items():
        if req["what"] == "weyl":
            vals = weyl_quad(req["profile"], req["ks"])
        elif req["what"] == "antiwick":
            vals = antiwick_quad(req["profile"], req["ks"])
        else:
            raise ValueError(req["what"])
        out[key] = {"request": req, "values": vals}
    return out


def load_cache():
    return json.loads(CACHE_PATH.read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--regenerate", action="store_true",
                    help="recompute oracle_cache.json for the fixed-input jobs")
    args = ap.parse_args()
    if args.regenerate:
        CACHE_PATH.write_text(json.dumps(build_cache(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {CACHE_PATH}")


if __name__ == "__main__":
    main()

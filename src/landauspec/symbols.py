"""Phase-space symbols and their transformations.

A radial symbol R(x^2 + xi^2) on R^2 is its RadialProfile: the profile
evaluates on phase space itself, and every radial transform takes and
returns one.  Covers the profile families used as perturbation weights,
angular expansions on R^2, separable symbols on R^4 with radial factors,
the linear symplectic change of coordinates that straightens the magnetic
Hamiltonian into a scaled oscillator, anti-Wick to Weyl conversion
(Gaussian smoothing: closed forms and the disk's exact arc), the Laguerre
polynomial of the Laplacian, radial Fourier transforms (Hankel on the
breakpoint rule), super-level-set volumes, and the two-sided
logarithmic-derivative bounds.

Symbols are immutable after construction; every transform returns a new one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature, wigner
from .specfun import bessel_j, laguerre_fn_iter


class UnsupportedProfileError(ValueError):
    """Profile kind outside the closed-form domain of an operation."""


# ---------------------------------------------------------------------------
# radial profiles R(s), s = x^2 + xi^2


@dataclass(frozen=True)
class RadialProfile:
    """A radial function of phase space, R(s) with s the squared radius.

    The evaluator is amplitude * base(s).  A profile carries no dilation:
    an integral of R(c t) takes the scale c as its own argument, as
    `operators.toeplitz_radial_eigs` does with c = 2/b.  Kinds:

      constant                    1
      gaussian(rate)              exp(-rate s)
      power(gamma)                (1 + s)^(-gamma/2)
      disk_indicator(cutoff)      1 on [0, cutoff]
      exp_beta(gamma, beta)       exp(-gamma s^beta)
      laguerre_mix(coeffs)        sum_k c_k (-1)^k L_k(2s) exp(-s)
      poly_gauss(coeffs, rate)    (sum_j c_j s^j) exp(-rate s)
      tabulated(grid, values)     linear interpolation, 0 beyond the grid
      custom(fn)                  arbitrary evaluator
    """

    bandwidth = 0               # angular modes of R(x^2 + xi^2): only 0 (not a field)

    kind: str
    amplitude: float = 1.0
    rate: float = 0.0
    gamma: float = 0.0
    beta: float = 1.0
    cutoff: float = 0.0
    coeffs: tuple = ()
    grid: tuple = ()
    values: tuple = ()
    fn: object = field(default=None, repr=False)

    def __call__(self, s):
        u = np.asarray(s, dtype=float)
        k = self.kind
        if k == "constant":
            base = np.ones_like(u)
        elif k == "gaussian":
            base = np.exp(-self.rate * u)
        elif k == "power":
            base = (1.0 + u) ** (-0.5 * self.gamma)
        elif k == "disk_indicator":
            base = (u <= self.cutoff).astype(float)
        elif k == "exp_beta":
            with np.errstate(over="ignore"):    # gamma u^beta past the double range: R = 0
                base = np.exp(-self.gamma * u ** self.beta)
        elif k == "laguerre_mix":
            base = _laguerre_series(self.coeffs, -1.0, 2.0 * u)
        elif k == "poly_gauss":
            base = np.polynomial.polynomial.polyval(u, np.asarray(self.coeffs)) \
                * np.exp(-self.rate * u)
        elif k == "tabulated":
            base = np.interp(u, self.grid, self.values, left=self.values[0], right=0.0)
        elif k == "custom":
            base = np.asarray(self.fn(u), dtype=float)
        else:
            raise UnsupportedProfileError(f"unknown profile kind {k!r}")
        out = self.amplitude * base
        return out if np.ndim(out) else float(out)

    def evaluate(self, x, xi):
        """The profile as a symbol on R^2: R(x^2 + xi^2)."""
        x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
        return self(x * x + xi * xi)

    def log_abs(self, s):
        """(ln |R(s)|, sign R(s)), for log-space integrals.

        constant, gaussian, power, exp_beta and disk_indicator have closed
        forms, exact where R underflows; the other kinds, and amplitude 0,
        take ln |.| of the values.
        """
        u = np.asarray(s, dtype=float)
        k, amp = self.kind, self.amplitude
        if not amp or k not in ("constant", "gaussian", "power", "exp_beta", "disk_indicator"):
            values = np.asarray(self(u))
            with np.errstate(divide="ignore"):
                return np.log(np.abs(values)), np.sign(values)
        if k == "gaussian":
            base = -self.rate * u
        elif k == "power":
            base = -0.5 * self.gamma * np.log1p(u)
        elif k == "exp_beta":
            with np.errstate(over="ignore"):    # gamma u^beta past the double range: -inf
                base = -self.gamma * u ** self.beta
        elif k == "disk_indicator":
            base = np.where(u <= self.cutoff, 0.0, -np.inf)
        else:
            base = np.zeros_like(u)
        return math.log(abs(amp)) + base, np.where(base > -np.inf, math.copysign(1.0, amp), 0.0)

    @property
    def breakpoints(self):
        """Increasing s > 0 where R may jump or kink, R = 0 past the last; () if
        R is smooth on [0, inf).  The disk's cutoff, a table's positive nodes."""
        if self.kind == "disk_indicator":
            return (self.cutoff,)
        if self.kind == "tabulated":
            return tuple(g for g in self.grid if g > 0)
        return ()

    @property
    def vanishes(self):
        """R = 0 everywhere: amplitude 0, or a Laguerre mix or poly_gauss of zero c_j."""
        return not self.amplitude or (self.kind in ("laguerre_mix", "poly_gauss")
                                      and not any(self.coeffs))

    @property
    def laguerre_coeffs(self):
        """The c_j of R(s) = amplitude sum_j c_j (-1)^j L_j(2s) e^(-s), the series of
        the diagonal Wigner kernels: a Laguerre mix; else None."""
        if self.kind == "laguerre_mix":
            return self.coeffs
        return None

    @property
    def closed_form(self):
        """Every kind but custom: R is a formula, hiding no bump between samples."""
        return self.kind != "custom"


def _laguerre_series(coeffs, sign, x):
    """sum_j c_j sign^j L_j(x) e^(-x/2) along one weighted Laguerre sweep (0 for no c_j)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j, (c, val) in enumerate(zip(coeffs, laguerre_fn_iter(0.0, x, len(coeffs) - 1))):
        if c:
            out += c * sign ** j * val
    return out


def constant(c=1.0, amplitude=1.0):
    return RadialProfile("constant", amplitude=float(c) * float(amplitude))


def gaussian(rate, amplitude=1.0):
    if not rate > 0:
        raise ValueError("rate must be positive")
    return RadialProfile("gaussian", amplitude=float(amplitude), rate=float(rate))


def power(gamma, amplitude=1.0):
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return RadialProfile("power", amplitude=float(amplitude), gamma=float(gamma))


def disk_indicator(cutoff, amplitude=1.0):
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    return RadialProfile("disk_indicator", amplitude=float(amplitude), cutoff=float(cutoff))


def exp_beta(gamma, beta, amplitude=1.0):
    if not (gamma > 0 and beta > 0):
        raise ValueError("gamma and beta must be positive")
    return RadialProfile("exp_beta", amplitude=float(amplitude), gamma=float(gamma), beta=float(beta))


def laguerre_mix(coeffs, amplitude=1.0):
    return RadialProfile("laguerre_mix", amplitude=float(amplitude), coeffs=tuple(float(c) for c in coeffs))


def poly_gauss(coeffs, rate, amplitude=1.0):
    if not rate > 0:
        raise ValueError("rate must be positive")
    return RadialProfile("poly_gauss", amplitude=float(amplitude), rate=float(rate),
                         coeffs=tuple(float(c) for c in coeffs))


def tabulated(grid, values, amplitude=1.0):
    grid = tuple(float(g) for g in grid)
    values = tuple(float(v) for v in values)
    if len(grid) != len(values) or len(grid) < 2:
        raise ValueError("grid and values must have equal length >= 2")
    if not np.isfinite(grid + values).all():
        raise ValueError("grid and values must be finite")
    if any(x >= y for x, y in zip(grid, grid[1:])):    # np.interp reads any other order wrongly
        raise ValueError("grid must be strictly increasing")
    return RadialProfile("tabulated", amplitude=float(amplitude), grid=grid, values=values)


def custom(fn, amplitude=1.0):
    return RadialProfile("custom", amplitude=float(amplitude), fn=fn)


def diag_kernel_profile(q, amplitude=1.0):
    """Radial profile of the diagonal Wigner kernel Psi_q."""
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or q < 0:
        raise ValueError(f"level q must be a non-negative integer, got {q!r}")
    coeffs = [0.0] * q + [1.0 / math.pi]
    return laguerre_mix(coeffs, amplitude=amplitude)


# ---------------------------------------------------------------------------
# symbols on R^2


@dataclass(frozen=True)
class AngularSymbol:
    """Symbol on phase space R^2 as a finite angular expansion.

    Stores radial coefficient functions F_k(r) for modes k = -K .. K.
    Symbols are real-valued: it evaluates to the real part of its
    expansion, which is the expansion itself when F_{-k} = conj(F_k).
    (A radial symbol is its RadialProfile.)
    """

    modes: tuple                        # ((k, F_k), ...)

    def evaluate(self, x, xi):
        x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
        r = np.hypot(x, xi)
        theta = np.arctan2(xi, x)
        out = np.zeros(np.broadcast_shapes(x.shape, xi.shape), dtype=complex)
        for k, fk in self.modes:
            out = out + fk(r) * np.exp(1j * k * theta)
        return out.real

    @property
    def bandwidth(self):
        """Largest angular mode index."""
        return max(abs(k) for k, _ in self.modes)


def angular_symbol(modes):
    """modes: dict or iterable of (k, F_k) with F_k a radial function of r."""
    items = modes.items() if isinstance(modes, dict) else modes
    return AngularSymbol(tuple(sorted(items)))


# ---------------------------------------------------------------------------
# the symplectic frame map


def oscillator_frame_matrix(b):
    """Matrix of the linear symplectic map taking the magnetic symbol to b(x^2+xi^2).

    Coordinates are ordered (x, y, xi, eta).
    """
    if b <= 0:
        raise ValueError("field strength must be positive")
    rb = math.sqrt(b)
    return np.array([
        [1.0 / rb, 0.0, 0.0, -1.0 / rb],
        [0.0, -1.0 / rb, 1.0 / rb, 0.0],
        [0.0, rb / 2.0, rb / 2.0, 0.0],
        [-rb / 2.0, 0.0, 0.0, -rb / 2.0],
    ])


def symplectic_form():
    """The standard symplectic form J on R^4 for the (x, y, xi, eta) ordering."""
    J = np.zeros((4, 4))
    J[0, 2] = J[1, 3] = 1.0
    J[2, 0] = J[3, 1] = -1.0
    return J


def oscillator_frame_map(b, p):
    """Apply the frame map to a phase-space point p = (x, y, xi, eta)."""
    if b <= 0:
        raise ValueError("field strength must be positive")
    x, y, xi, eta = p
    rb = math.sqrt(b)
    return ((x - eta) / rb, (xi - y) / rb, rb * (xi + y) / 2.0, -rb * (eta + x) / 2.0)


def magnetic_symbol(b, p):
    """Weyl symbol of the magnetic Hamiltonian: (xi + by/2)^2 + (eta - bx/2)^2."""
    x, y, xi, eta = p
    return (xi + 0.5 * b * y) ** 2 + (eta - 0.5 * b * x) ** 2


def landau_symbol_check(b, p):
    """(magnetic symbol at the mapped point, b(x^2 + xi^2)); the two coincide."""
    x, _, xi, _ = p
    return magnetic_symbol(b, oscillator_frame_map(b, p)), b * (x * x + xi * xi)


# ---------------------------------------------------------------------------
# symbols on R^4


@dataclass(frozen=True)
class Symbol4D:
    """Separable symbol on R^4, tied to a field strength b.

    Terms (c, A, B), A and B radial profiles, mean that the *pulled-back*
    symbol is sum c A(x^2 + xi^2) B(y^2 + eta^2) exactly; the lab-frame
    symbol is that composed with the inverse frame map, so the pullback
    costs no quadrature; the level-basis routes pair the factors directly.
    """

    b: float
    terms: tuple = ()                   # ((coeff, RadialProfile, RadialProfile), ...)


def separable_symbol(b, terms):
    """Symbol4D of (c, A, B) terms; a factor that is no RadialProfile raises
    UnsupportedProfileError naming its term."""
    if not 0 < b < math.inf:
        raise ValueError(f"field strength must be finite and positive, got {b!r}")
    terms = tuple((float(c), A, B) for c, A, B in terms)
    for i, (_, A, B) in enumerate(terms):
        for F in (A, B):
            if not isinstance(F, RadialProfile):
                raise UnsupportedProfileError(f"term {i} has a factor of type {type(F).__name__}; "
                                              "separable terms take radial profiles only")
    return Symbol4D(float(b), terms=terms)


# ---------------------------------------------------------------------------
# anti-Wick -> Weyl (Gaussian smoothing)


def _disk_gauss_convolution(profile):
    """Convolution of a disk indicator with the unit Gaussian (exact angular arc)."""
    c = profile.breakpoints[0]
    amp = profile.amplitude

    # arc length of {|z0 - w| <= sqrt(c)} on the circle |w| = sqrt(u); the
    # arccos has sqrt kinks at the tangency radii, smoothed out by the
    # substitution u = lo + (hi - lo) sin^2(phi)
    phi, phi_weights = quadrature.gauss_legendre_panel(200, 0.0, math.pi / 2.0)

    def smoothed(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s)
        for i, s0 in enumerate(s):
            lo = (math.sqrt(c) - math.sqrt(s0)) ** 2
            hi = (math.sqrt(c) + math.sqrt(s0)) ** 2
            total = 0.0
            if s0 < c and lo > 0:
                # circles fully inside the disk: arc = 2 pi
                total += 2.0 * np.pi * -math.expm1(-lo)
            if hi > lo:
                uu = lo + (hi - lo) * np.sin(phi) ** 2
                du = (hi - lo) * np.sin(2.0 * phi)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ca = np.clip((s0 + uu - c) / (2.0 * np.sqrt(s0 * uu)), -1.0, 1.0)
                arc = 2.0 * np.arccos(ca)
                total += np.dot(phi_weights, arc * np.exp(-uu) * du)
            out[i] = amp * total / (2.0 * np.pi)
        return out

    return custom(smoothed)


def antiwick_to_weyl(profile):
    """Convolution with the unit Gaussian: the Weyl symbol of the anti-Wick
    operator with radial symbol `profile`, as a profile.

    Gaussian profiles convolve in closed form, Laguerre mixes smooth to
    polynomial-times-Gaussian profiles, a constant is unchanged, and disks
    use the exact angular arc; any other kind raises UnsupportedProfileError.
    Nonnegative symbols stay nonnegative (positive kernel), and mass is
    preserved for integrable ones.
    """
    k = profile.kind
    if k == "gaussian":
        a = profile.rate
        profile = gaussian(a / (1.0 + a), amplitude=profile.amplitude / (1.0 + a))
    elif profile.laguerre_coeffs is not None:
        # each (-1)^j L_j(2s) e^-s component smooths to s^j e^(-s/2) / (2^(j+1) j!)
        coeffs = [c / (2.0 ** (j + 1) * math.factorial(j))
                  for j, c in enumerate(profile.laguerre_coeffs)]
        profile = poly_gauss(coeffs, 0.5, amplitude=profile.amplitude)
    elif k == "disk_indicator":
        profile = _disk_gauss_convolution(profile)
    elif k != "constant":
        raise UnsupportedProfileError(f"no closed-form smoothing for profile kind {k!r}")
    return profile


# ---------------------------------------------------------------------------
# the Laguerre Laplacian


def _poly_gauss_laplacian(coeffs, rate):
    """Radial Laplacian 4(s d2/ds2 + d/ds) acting on p(s) e^(-rate s)."""
    P = np.polynomial.polynomial
    p = np.asarray(coeffs, dtype=float)
    dp = P.polyder(p)
    d2p = P.polyder(p, 2)
    inner = P.polysub(P.polyadd(d2p, P.polymul([rate * rate], p)), P.polymul([2.0 * rate], dp))
    q = P.polyadd(P.polymul([0.0, 4.0], inner), P.polymul([4.0], P.polysub(dp, P.polymul([rate], p))))
    return q


def laguerre_laplacian(prof, b, r):
    """Apply L_r(-Laplacian / 2b) to a closed-form radial profile, r <= 4.

    Supported profile kinds: constant, gaussian, poly_gauss, laguerre_mix
    (expanded to polynomial-times-Gaussian); the result is a profile.
    r = 0 is the identity, and so is any r on a constant.
    """
    if b <= 0:
        raise ValueError("field strength must be positive")
    if r < 0 or r > 4:
        raise ValueError("r must lie in 0..4")
    if r == 0 or prof.kind == "constant":
        return prof
    P = np.polynomial.polynomial
    if prof.kind == "gaussian":
        coeffs = (prof.amplitude,)
        rate = prof.rate
    elif prof.kind == "poly_gauss":
        coeffs = tuple(prof.amplitude * c for c in prof.coeffs)
        rate = prof.rate
    elif prof.kind == "laguerre_mix":
        acc = np.zeros(1)
        for j, c in enumerate(prof.coeffs):
            if c:
                # L_j(2u) coefficients in u
                lj = np.array([math.comb(j, i) * (-2.0) ** i / math.factorial(i)
                               for i in range(j + 1)])
                acc = P.polyadd(acc, (-1.0) ** j * c * lj)
        coeffs = tuple(prof.amplitude * c for c in acc)
        rate = 1.0
    else:
        raise UnsupportedProfileError(
            f"no closed-form Laplacian for profile kind {prof.kind!r}")

    # L_r(-Delta/2b) = sum_j C(r,j)/j! (2b)^-j Delta^j
    total = np.zeros(1)
    term = np.asarray(coeffs, dtype=float)
    total = P.polyadd(total, term)
    for j in range(1, r + 1):
        term = _poly_gauss_laplacian(term, rate)
        total = P.polyadd(total, math.comb(r, j) / math.factorial(j) * (2.0 * b) ** (-j) * term)
    return poly_gauss(total, rate)


# ---------------------------------------------------------------------------
# super-level volumes and the volume regularity bounds


def _level_crossing(profile, lam, sign, s_hi):
    """Measure in s of {sign * R > lam} on [0, s_hi] by scan plus bisection."""
    n = 4096
    s = np.linspace(0.0, s_hi, n)
    vals = sign * np.atleast_1d(profile(s)) - lam
    above = vals > 0
    measure = 0.0
    start = None
    edges = []
    for i in range(n):
        if above[i] and start is None:
            start = s[i] if i == 0 else _bisect(profile, lam, sign, s[i - 1], s[i])
        elif not above[i] and start is not None:
            edges.append((start, _bisect(profile, lam, sign, s[i - 1], s[i])))
            start = None
    if start is not None:
        edges.append((start, s_hi))
    for a, c in edges:
        measure += c - a
    return measure


def _bisect(profile, lam, sign, lo, hi, tol=1e-12):
    """Crossing of sign * R = lam in [lo, hi]; ArithmeticError after 200 halvings."""
    flo = sign * float(profile(lo)) - lam
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = sign * float(profile(mid)) - lam
        if hi - lo < tol * max(1.0, hi):
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    raise ArithmeticError(
        f"bisection for the level {lam!r} crossing did not converge on [{lo!r}, {hi!r}]")


_VOLUME_SEARCH_CAP = 1e12   # largest s the doubling search for the set's edge reaches


def phase_space_volume(prof, lam, sign=+1):
    """(2 pi)^(-1) * Lebesgue measure of the super-level set {sign R > lam}.

    For the radial symbol R(x^2 + xi^2) the set is a union of annuli, so the
    volume is half the measure of {s: sign R(s) > lam}: closed forms for the
    monotone kinds, monotone-segment bisection otherwise, on [0, 2 s], s the
    first power of two (from 1) with |R| <= lam at 8 samples on [0.8 s, s].
    A profile whose |R| still exceeds lam past s = 1e12 raises ValueError.
    """
    if lam <= 0:
        raise ValueError("level must be positive")
    sign = 1.0 if sign > 0 else -1.0
    k = prof.kind
    if k in ("constant", "gaussian", "power", "exp_beta", "disk_indicator"):
        eff = sign * prof.amplitude
        if k == "constant":
            return math.inf if eff > lam else 0.0
        if eff <= lam:
            return 0.0
        try:
            if k == "gaussian":
                s_star = math.log(eff / lam) / prof.rate
            elif k == "power":
                s_star = (eff / lam) ** (2.0 / prof.gamma) - 1.0
            elif k == "exp_beta":
                s_star = (math.log(eff / lam) / prof.gamma) ** (1.0 / prof.beta)
            else:  # disk_indicator
                s_star = prof.cutoff
        except OverflowError:   # float ** past the double range reads inf, as a tiny rate does
            return math.inf
        return 0.5 * s_star
    s_max = 1.0
    while np.max(np.abs(np.atleast_1d(prof(np.linspace(0.8 * s_max, s_max, 8))))) > lam:
        if s_max >= _VOLUME_SEARCH_CAP:
            raise ValueError(
                f"|R| still exceeds the level {lam!r} at s = {s_max:g}; the search "
                f"for the edge of the super-level set stops at s = {_VOLUME_SEARCH_CAP:g}")
        s_max *= 2.0
    return 0.5 * _level_crossing(prof, lam, sign, 2.0 * s_max)


def condition_C_estimate(volume, lam_range):
    """Empirical two-sided bounds on -lambda f'(lambda) / f(lambda).

    volume: evaluator lambda -> f(lambda), positive and non-increasing on the
    range.  Returns (min, max) of the negative logarithmic derivative over 50
    log-spaced levels (centered differences in ln lambda).  Raises on
    non-monotone input.
    """
    lo, hi = lam_range
    if not 0 < lo < hi:
        raise ValueError("need 0 < lam_lo < lam_hi")
    lam = np.exp(np.linspace(math.log(lo), math.log(hi), 50))
    f = np.array([float(volume(l)) for l in lam])
    if np.any(f <= 0):
        raise ValueError("volume must be positive on the range")
    if np.any(f[1:] > f[:-1] * (1.0 + 1e-12)):
        raise ValueError("volume is not non-increasing on the range")
    ln_lam, ln_f = np.log(lam), np.log(f)
    neg = -(ln_f[2:] - ln_f[:-2]) / (ln_lam[2:] - ln_lam[:-2])
    return float(neg.min() + 0.0), float(neg.max() + 0.0)


# ---------------------------------------------------------------------------
# radial Fourier transforms (unitary normalization)


_HANKEL_BLOCK = 32              # points per J_0 block and per product: the gemv bits depend on it
_BESSEL_KEEP_BYTES = 8 << 20    # largest J_0 matrix a process keeps; larger ones are streamed


def _bessel_blocks(u, s):
    """(i, J_0(sqrt(u s_j)) for the _HANKEL_BLOCK points from u[i]), in order."""
    for i in range(0, u.size, _HANKEL_BLOCK):
        yield i, bessel_j(0, np.sqrt(u[i:i + _HANKEL_BLOCK, None] * s))


@functools.lru_cache(maxsize=1)
def _bessel_matrix(u_key, s_key):
    """The read-only matrix J_0(sqrt(u_i s_j)) of the points and nodes whose bytes
    are u_key and s_key, filled from _bessel_blocks, so its rows are the bits a
    streamed call computes."""
    u, s = np.frombuffer(u_key), np.frombuffer(s_key)
    J = np.empty((u.size, s.size))    # one matrix: fresh blocks would each fault in pages
    for i, block in _bessel_blocks(u, s):
        J[i:i + _HANKEL_BLOCK] = block
    J.setflags(write=False)
    return J


def fourier_radial_profile(profile):
    """Radial profile of the 2-D unitary Fourier transform of a radial symbol.

    Closed forms for Gaussian, Laguerre-mix, and disk profiles (the last
    through J_1); otherwise the Hankel transform Rhat(u) =
    (1/2) int_0^inf R(s) J_0(sqrt(u s)) ds on `quadrature.support_rule` of
    400 nodes or more: Gauss-Laguerre (R must decay integrably) for a profile
    without breakpoints, and one Legendre rule split at the breakpoints of a
    table, so its jumps and kinks fall between panels.  The matrix
    J_0(sqrt(u_i s_j)) of the points u and the nodes s comes from
    specfun.bessel_j in blocks of 32 points.  The process keeps one such
    matrix of at most _BESSEL_KEEP_BYTES from its first use (_bessel_matrix),
    keyed on u and s and never on R; a larger one is streamed.  Either way
    each block takes one product with the weighted R values, so a warm call
    writes the bits a cold one does.
    """
    k = profile.kind
    amp = profile.amplitude
    if k == "gaussian":
        a = profile.rate
        rate, amp_hat = 1.0 / (4.0 * a), amp / (2.0 * a)
        if not (math.isfinite(rate) and math.isfinite(amp_hat)):
            raise ValueError(f"the Fourier dual of gaussian({a!r}), of rate 1/(4 rate) and "
                             f"amplitude amplitude/(2 rate), leaves the double range")
        return gaussian(rate, amplitude=amp_hat)
    cs = profile.laguerre_coeffs
    if cs is not None:
        def fhat(u):
            return 0.5 * amp * _laguerre_series(cs, 1.0, 0.5 * np.asarray(u, dtype=float))

        return custom(fhat)
    if k == "disk_indicator":
        c = profile.breakpoints[0]

        def fhat(u):
            u = np.atleast_1d(np.asarray(u, dtype=float))
            out = np.empty_like(u)
            pos = u > 0
            out[pos] = amp * math.sqrt(c) * bessel_j(1, np.sqrt(u[pos] * c)) / np.sqrt(u[pos])
            out[~pos] = amp * c / 2.0
            return out

        return custom(fhat)
    s_nodes, weights = quadrature.support_rule(profile.breakpoints, 400, 400, math.inf)
    s_key = s_nodes.tobytes()
    half_weighted = 0.5 * weights * np.atleast_1d(profile(s_nodes))
    if wigner.fault_active("hankel_step"):
        # the planted fault of `verify --inject-fault hankel_step` drops the 1/2 of the
        # unitary normalization; it never reaches J_0, so no bad matrix is kept
        half_weighted = 2.0 * half_weighted

    def fhat(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        flat = u.ravel()
        if flat.size * s_nodes.size * 8 <= _BESSEL_KEEP_BYTES:
            J = _bessel_matrix(flat.tobytes(), s_key)
            blocks = ((i, J[i:i + _HANKEL_BLOCK]) for i in range(0, flat.size, _HANKEL_BLOCK))
        else:
            blocks = _bessel_blocks(flat, s_nodes)
        out = np.empty_like(flat)
        for i, block in blocks:
            out[i:i + _HANKEL_BLOCK] = block @ half_weighted
        return out.reshape(u.shape)

    return custom(fhat)

"""Phase-space symbols and their transformations.

Covers the radial profile families used as perturbation weights, symbols on
R^2 and R^4, the linear symplectic change of coordinates that straightens
the magnetic Hamiltonian into a scaled oscillator, reduction of a 4-D symbol
to a single oscillator level, anti-Wick to Weyl conversion (Gaussian
smoothing), the swap-and-scale producing the effective local weight, the
Laguerre polynomial of the Laplacian, super-level-set volumes, and the
two-sided logarithmic-derivative bounds certifying volume regularity.

Symbols are immutable after construction; every transform returns a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import quadrature
from .specfun import bessel_j, laguerre_fn_iter
from .wigner import wigner_diag


class UnsupportedProfileError(ValueError):
    """Profile kind outside the closed-form domain of an operation."""


# ---------------------------------------------------------------------------
# radial profiles R(s), s = x^2 + xi^2


@dataclass(frozen=True)
class RadialProfile:
    """A radial function of phase space, R(s) with s the squared radius.

    amplitude scales the value, arg_scale the argument: the evaluator is
    amplitude * base(arg_scale * s).  Kinds:

      constant                    1
      gaussian(rate)              exp(-rate s)
      power(gamma)                (1 + s)^(-gamma/2)
      disk_indicator(cutoff)      1 on [0, cutoff]
      exp_beta(gamma, beta)       exp(-gamma s^beta)
      laguerre_mix(coeffs)        sum_k c_k (-1)^k L_k(2s) exp(-s)
      poly_gauss(coeffs, rate)    (sum_j c_j s^j) exp(-rate s)
      tabulated(grid, values)     linear interpolation, 0 beyond the grid
      custom(fn)                  arbitrary evaluator
      mix(parts)                  sum of weighted profiles
    """

    kind: str
    amplitude: float = 1.0
    arg_scale: float = 1.0
    rate: float = 0.0
    gamma: float = 0.0
    beta: float = 1.0
    cutoff: float = 0.0
    coeffs: tuple = ()
    grid: tuple = ()
    values: tuple = ()
    fn: object = field(default=None, repr=False)
    parts: tuple = ()

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        u = self.arg_scale * s
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
        elif k == "mix":
            base = sum(w * p(u) for w, p in self.parts)
        else:
            raise UnsupportedProfileError(f"unknown profile kind {k!r}")
        out = self.amplitude * base
        return out if np.ndim(out) else float(out)

    def log_value(self, s):
        """ln R(s) for strictly sign-definite kinds (used by log-space integrals)."""
        if self.amplitude <= 0:
            raise UnsupportedProfileError("log form needs a positive amplitude")
        s = np.asarray(s, dtype=float)
        u = self.arg_scale * s
        la = math.log(self.amplitude)
        k = self.kind
        if k == "constant":
            return la + np.zeros_like(u)
        if k == "gaussian":
            return la - self.rate * u
        if k == "power":
            return la - 0.5 * self.gamma * np.log1p(u)
        if k == "exp_beta":
            return la - self.gamma * u ** self.beta
        if k == "disk_indicator":
            return np.where(u <= self.cutoff, la, -np.inf)
        raise UnsupportedProfileError(f"no log form for kind {self.kind!r}")

    @property
    def compact_support(self):
        return self.kind == "disk_indicator"

    @property
    def support_bound(self):
        """Support bound in s for compactly supported profiles."""
        if not self.compact_support:
            raise UnsupportedProfileError("profile is not compactly supported")
        return self.cutoff / self.arg_scale

    def superexp_beta(self):
        """Exponent beta when the profile decays like exp(-c s^beta) with beta > 1."""
        if self.kind == "exp_beta" and self.beta > 1.0:
            return self.beta
        return None

    def scaled(self, factor):
        return replace(self, amplitude=self.amplitude * factor)

    def with_arg_scale(self, scale):
        """Profile of s -> R(scale * s), folding the scale into parameters."""
        scale = float(scale)
        if self.kind == "gaussian":
            return replace(self, rate=self.rate * scale)
        if self.kind == "exp_beta":
            return replace(self, gamma=self.gamma * scale ** self.beta)
        if self.kind == "disk_indicator":
            return replace(self, cutoff=self.cutoff / scale)
        if self.kind == "constant":
            return self
        if self.kind == "mix":
            return replace(self, parts=tuple((w, p.with_arg_scale(scale)) for w, p in self.parts))
        return replace(self, arg_scale=self.arg_scale * scale)


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


def profile_mix(parts):
    return RadialProfile("mix", parts=tuple((float(w), p) for w, p in parts))


def diag_kernel_profile(q, amplitude=1.0):
    """Radial profile of the diagonal Wigner kernel Psi_q."""
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or q < 0:
        raise ValueError(f"level q must be a non-negative integer, got {q!r}")
    coeffs = [0.0] * q + [1.0 / math.pi]
    return laguerre_mix(coeffs, amplitude=amplitude)


# ---------------------------------------------------------------------------
# symbols on R^2


@dataclass(frozen=True)
class Symbol2D:
    """Symbol on phase space R^2: radial, finite angular expansion, or generic.

    Angular symbols store radial coefficient functions F_k(r) for modes
    k = -K .. K; they are real-valued when F_{-k} = conj(F_k), which the
    caller asserts through `real`.
    """

    structure: str                      # 'radial' | 'angular' | 'generic'
    profile: RadialProfile = None
    modes: tuple = ()                   # ((k, fn), ...) for angular symbols
    fn: object = field(default=None, repr=False)
    real: bool = True
    decay: str = "schwartz"

    def evaluate(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if self.structure == "radial":
            return self.profile(x * x + xi * xi)
        if self.structure == "angular":
            r = np.hypot(x, xi)
            theta = np.arctan2(xi, x)
            out = np.zeros(np.broadcast_shapes(x.shape, xi.shape), dtype=complex)
            for k, fk in self.modes:
                out = out + fk(r) * np.exp(1j * k * theta)
            return out.real if self.real else out
        return self.fn(x, xi)

    @property
    def bandwidth(self):
        """Largest angular mode index (0 for radial symbols)."""
        if self.structure == "radial":
            return 0
        if self.structure == "angular":
            return max(abs(k) for k, _ in self.modes)
        raise ValueError("generic symbols carry no declared bandwidth")

    def scaled(self, factor):
        if self.structure == "radial":
            return replace(self, profile=self.profile.scaled(factor))
        if self.structure == "angular":
            return replace(self, modes=tuple(
                (k, (lambda r, f=fk, c=factor: c * f(r))) for k, fk in self.modes))
        return replace(self, fn=lambda x, xi, f=self.fn, c=factor: c * f(x, xi))


def radial_symbol(profile, decay=None):
    if decay is None:
        decay = "compact" if profile.compact_support else "schwartz"
    return Symbol2D("radial", profile=profile, decay=decay)


def angular_symbol(modes, real=True, decay="schwartz"):
    """modes: dict or iterable of (k, F_k) with F_k a radial function of r."""
    items = modes.items() if isinstance(modes, dict) else modes
    return Symbol2D("angular", modes=tuple(sorted(items)), real=real, decay=decay)


def generic_symbol(fn, real=True, decay="bounded"):
    return Symbol2D("generic", fn=fn, real=real, decay=decay)


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


def oscillator_frame_inverse(b, p):
    """Closed-form inverse of the frame map."""
    if b <= 0:
        raise ValueError("field strength must be positive")
    xp, yp, xip, etap = p
    rb = math.sqrt(b)
    x = (rb * xp - 2.0 * etap / rb) / 2.0
    eta = (-2.0 * etap / rb - rb * xp) / 2.0
    xi = (rb * yp + 2.0 * xip / rb) / 2.0
    y = (2.0 * xip / rb - rb * yp) / 2.0
    return (x, y, xi, eta)


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
    """Symbol on R^4, tied to a field strength b.

    Separable form stores terms (c, A, B) meaning the *pulled-back* symbol is
    sum c A(x, xi) B(y, eta) exactly; the lab-frame symbol is that composed
    with the inverse frame map, so the pullback costs no quadrature.  The
    frame tag records whether the terms were specified in the lab frame
    (already composed with the inverse map) or directly as the pulled form.
    Generic symbols store a lab-frame evaluator.
    """

    b: float
    terms: tuple = ()                   # ((coeff, Symbol2D, Symbol2D), ...)
    frame: str = "lab"
    fn: object = field(default=None, repr=False)

    @property
    def separable(self):
        return self.fn is None

    def evaluate_pulled(self, x, y, xi, eta):
        """The symbol composed with the frame map (entries live here)."""
        if self.separable:
            out = None
            for c, A, B in self.terms:
                val = c * A.evaluate(x, xi) * B.evaluate(y, eta)
                out = val if out is None else out + val
            if out is None:
                out = np.zeros(np.broadcast_shapes(
                    np.shape(x), np.shape(y), np.shape(xi), np.shape(eta)))
            return out
        px, py, pxi, peta = oscillator_frame_map(self.b, (x, y, xi, eta))
        return self.fn(px, py, pxi, peta)

    def evaluate_lab(self, x, y, xi, eta):
        if self.separable:
            px, py, pxi, peta = oscillator_frame_inverse(self.b, (x, y, xi, eta))
            return self.evaluate_pulled(px, py, pxi, peta)
        return self.fn(x, y, xi, eta)


def separable_symbol(b, terms, frame="lab"):
    if not 0 < b < math.inf:
        raise ValueError(f"field strength must be finite and positive, got {b!r}")
    if frame not in ("lab", "kappa_pulled"):
        raise ValueError("frame must be 'lab' or 'kappa_pulled'")
    return Symbol4D(float(b), terms=tuple((float(c), A, B) for c, A, B in terms), frame=frame)


def generic_symbol_4d(b, fn):
    return Symbol4D(float(b), fn=fn)


# ---------------------------------------------------------------------------
# reduction to one oscillator level


def kernel_pairing(symbol2d, q, order=None):
    """Integral of the 2-D symbol against the (real) diagonal kernel Psi_q."""
    order = order or max(quadrature.DEFAULT_ORDER_R2, 2 * q + 32)
    return complex(quadrature.integrate_r2(
        lambda x, xi: symbol2d.evaluate(x, xi) * wigner_diag(q, x, xi), order=order)).real


def reduce_symbol(V, q, order=None, check=False):
    """Reduced 2-D symbol of a 4-D one at oscillator level q.

    v_q(y, eta) = integral of the pulled-back symbol against Psi_q in its
    first phase-space pair.  Separable symbols reduce term by term to
    sum c <A, Psi_q> B with a single 2-D quadrature per term; generic ones
    fall back to pointwise quadrature.
    """
    if V.separable:
        weights = []
        for c, A, B in V.terms:
            w = c * kernel_pairing(A, q, order=order)
            if check:
                w2 = c * kernel_pairing(A, q, order=2 * (order or quadrature.DEFAULT_ORDER_R2))
                if abs(w2 - w) > 1e-8 * max(1.0, abs(w2)):
                    raise quadrature.QuadratureAccuracyError(
                        f"level pairing did not converge: {w} vs {w2}")
            weights.append(w)
        if all(B.structure == "radial" for _, _, B in V.terms):
            parts = tuple((w, B.profile) for w, (_, _, B) in zip(weights, V.terms))
            return radial_symbol(RadialProfile("mix", parts=parts))
        terms = list(zip(weights, (B for _, _, B in V.terms)))

        def fn(yy, ee):
            return sum(w * B.evaluate(yy, ee) for w, B in terms)

        return generic_symbol(fn, real=all(B.real for _, B in terms), decay="schwartz")

    rule = quadrature.gauss_hermite(order or quadrature.DEFAULT_ORDER_R2)
    p = rule.nodes
    fw = rule.flat_weights
    kq = wigner_diag(q, p[:, None], p[None, :])

    def fn(yy, ee):
        yy = np.asarray(yy, dtype=float)
        ee = np.asarray(ee, dtype=float)
        shape = np.broadcast_shapes(yy.shape, ee.shape)
        yf = np.broadcast_to(yy, shape).ravel()
        ef = np.broadcast_to(ee, shape).ravel()
        out = np.empty(yf.shape)
        for i, (y0, e0) in enumerate(zip(yf, ef)):
            vals = V.evaluate_pulled(p[:, None], y0, p[None, :], e0) * kq
            out[i] = np.einsum("i,j,ij->", fw, fw, vals)
        out = out.reshape(shape)
        return out if out.ndim else float(out)

    return generic_symbol(fn, real=True, decay="bounded")


# ---------------------------------------------------------------------------
# anti-Wick -> Weyl (Gaussian smoothing)


def _radial_gauss_convolution(profile, order=240, n_theta=512, rho_max=9.0):
    """Numeric radial convolution with the unit Gaussian, as a custom profile.

    (R * G)(s0) = (1/pi) int_0^inf int_0^2pi
                  R(s0 + p^2 - 2 sqrt(s0) p cos t) e^(-p^2) p dt dp,
    radial variable kept as p (the integrand is entire in p, unlike in
    p^2 where a sqrt kink would slow the rule down); the e^(-p^2) envelope
    makes the finite panel exact for practical purposes.  Angular average by
    midpoint (periodic, spectrally accurate).
    """
    rule = quadrature.gauss_legendre_panel(order, 0.0, rho_max)
    rho = rule.nodes
    weights = rule.weights * np.exp(-rho * rho) * rho * (2.0 / n_theta)
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    cos_t = np.cos(theta)

    def smoothed(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        flat = s.ravel()
        out = np.empty_like(flat)
        chunk = max(1, int(2e6 / (len(rho) * n_theta)))
        for lo in range(0, len(flat), chunk):
            s0 = flat[lo:lo + chunk, None, None]
            args = s0 + rho[None, :, None] ** 2 \
                - 2.0 * np.sqrt(s0) * rho[None, :, None] * cos_t
            vals = profile(args).sum(axis=2)
            out[lo:lo + chunk] = vals @ weights
        return out.reshape(s.shape)

    return custom(smoothed)


def _disk_gauss_convolution(profile):
    """Convolution of a disk indicator with the unit Gaussian (exact angular arc)."""
    c = profile.support_bound
    amp = profile.amplitude

    # arc length of {|z0 - w| <= sqrt(c)} on the circle |w| = sqrt(u); the
    # arccos has sqrt kinks at the tangency radii, smoothed out by the
    # substitution u = lo + (hi - lo) sin^2(phi)
    phi_rule = quadrature.gauss_legendre_panel(200, 0.0, math.pi / 2.0)

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
                phi = phi_rule.nodes
                uu = lo + (hi - lo) * np.sin(phi) ** 2
                du = (hi - lo) * np.sin(2.0 * phi)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ca = np.clip((s0 + uu - c) / (2.0 * np.sqrt(s0 * uu)), -1.0, 1.0)
                arc = 2.0 * np.arccos(ca)
                total += np.dot(phi_rule.weights, arc * np.exp(-uu) * du)
            out[i] = amp * total / (2.0 * np.pi)
        return out

    return custom(smoothed)


def antiwick_to_weyl(F, order=200):
    """Convolution with the unit Gaussian: the Weyl symbol of the anti-Wick operator.

    Gaussian profiles convolve in closed form, Laguerre mixes smooth to
    polynomial-times-Gaussian profiles, compactly supported disks use the
    exact angular arc; everything else is smoothed by polar quadrature.
    Nonnegative symbols stay nonnegative (positive kernel), and mass is
    preserved for integrable ones.
    """
    if F.structure == "radial":
        return radial_symbol(_smooth_profile(F.profile, order=order), decay="schwartz")

    rule = quadrature.gauss_hermite(min(order, 200))
    p = rule.nodes
    fw = rule.flat_weights

    def fn(x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        shape = np.broadcast_shapes(x.shape, xi.shape)
        xf = np.broadcast_to(x, shape).ravel()
        xif = np.broadcast_to(xi, shape).ravel()
        out = np.empty(xf.shape)
        for i, (x0, xi0) in enumerate(zip(xf, xif)):
            vals = F.evaluate(x0 - p[:, None], xi0 - p[None, :]) * np.exp(
                -(p[:, None] ** 2 + p[None, :] ** 2)) / np.pi
            out[i] = np.einsum("i,j,ij->", fw, fw, vals).real
        out = out.reshape(shape)
        return out if out.ndim else float(out)

    return generic_symbol(fn, real=F.real, decay="schwartz")


def _smooth_profile(profile, order=200):
    k = profile.kind
    if k == "constant":
        return profile
    if k == "gaussian":
        a = profile.rate * profile.arg_scale
        return gaussian(a / (1.0 + a), amplitude=profile.amplitude / (1.0 + a))
    if k == "laguerre_mix" and profile.arg_scale == 1.0:
        # each (-1)^j L_j(2s) e^-s component smooths to s^j e^(-s/2) / (2^(j+1) j!)
        coeffs = np.zeros(len(profile.coeffs))
        for j, c in enumerate(profile.coeffs):
            coeffs[j] = c / (2.0 ** (j + 1) * math.factorial(j))
        return poly_gauss(coeffs, 0.5, amplitude=profile.amplitude)
    if k == "mix":
        return RadialProfile("mix", parts=tuple(
            (w, _smooth_profile(p, order=order)) for w, p in profile.parts))
    if k == "disk_indicator":
        return _disk_gauss_convolution(profile)
    return _radial_gauss_convolution(profile, order=order)


# ---------------------------------------------------------------------------
# effective local weight and the Laguerre Laplacian


def effective_local_symbol(vt, b):
    """Swap-and-scale wrapper omega(x, y) = vt(-sqrt(b) y, -sqrt(b) x).

    Radial profiles map to radial profiles with the argument scaled by b.
    """
    if b <= 0:
        raise ValueError("field strength must be positive")
    if vt.structure == "radial":
        return radial_symbol(vt.profile.with_arg_scale(b), decay=vt.decay)
    rb = math.sqrt(b)
    return generic_symbol(lambda x, y: vt.evaluate(-rb * np.asarray(y), -rb * np.asarray(x)),
                          real=vt.real, decay=vt.decay)


def _poly_gauss_laplacian(coeffs, rate):
    """Radial Laplacian 4(s d2/ds2 + d/ds) acting on p(s) e^(-rate s)."""
    P = np.polynomial.polynomial
    p = np.asarray(coeffs, dtype=float)
    dp = P.polyder(p)
    d2p = P.polyder(p, 2)
    inner = P.polysub(P.polyadd(d2p, P.polymul([rate * rate], p)), P.polymul([2.0 * rate], dp))
    q = P.polyadd(P.polymul([0.0, 4.0], inner), P.polymul([4.0], P.polysub(dp, P.polymul([rate], p))))
    return q


def laguerre_laplacian(zeta, b, r):
    """Apply L_r(-Laplacian / 2b) to a closed-form radial symbol, r <= 4.

    Supported profile kinds: constant, gaussian, poly_gauss, laguerre_mix
    (expanded to polynomial-times-Gaussian).  r = 0 is the identity.
    """
    if b <= 0:
        raise ValueError("field strength must be positive")
    if r < 0 or r > 4:
        raise ValueError("r must lie in 0..4")
    if r == 0:
        return zeta
    if zeta.structure != "radial":
        raise UnsupportedProfileError("only radial symbols are supported")
    prof = zeta.profile
    if prof.kind == "constant":
        return zeta
    if prof.kind == "gaussian":
        coeffs = (prof.amplitude,)
        rate = prof.rate * prof.arg_scale
    elif prof.kind == "poly_gauss":
        scale = prof.arg_scale
        coeffs = tuple(prof.amplitude * c * scale ** j for j, c in enumerate(prof.coeffs))
        rate = prof.rate * scale
    elif prof.kind == "laguerre_mix":
        scale = prof.arg_scale
        P = np.polynomial.polynomial
        acc = np.zeros(1)
        for j, c in enumerate(prof.coeffs):
            if c:
                # L_j(2u) coefficients in u
                lj = np.array([math.comb(j, i) * (-2.0) ** i / math.factorial(i)
                               for i in range(j + 1)])
                acc = P.polyadd(acc, (-1.0) ** j * c * lj)
        coeffs = tuple(prof.amplitude * c * scale ** j for j, c in enumerate(acc))
        rate = scale
    else:
        raise UnsupportedProfileError(
            f"no closed-form Laplacian for profile kind {prof.kind!r}")

    P = np.polynomial.polynomial
    # L_r(-Delta/2b) = sum_j C(r,j)/j! (2b)^-j Delta^j
    total = np.zeros(1)
    term = np.asarray(coeffs, dtype=float)
    total = P.polyadd(total, term)
    for j in range(1, r + 1):
        term = _poly_gauss_laplacian(term, rate)
        total = P.polyadd(total, math.comb(r, j) / math.factorial(j) * (2.0 * b) ** (-j) * term)
    return radial_symbol(poly_gauss(total, rate))


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


def phase_space_volume(F, lam, sign=+1, s_max=None, extent=8.0, cells=512):
    """(2 pi)^(-1) * Lebesgue measure of the super-level set {sign F > lam}.

    Radial symbols: the set is a union of annuli; closed forms for the
    monotone kinds, monotone-segment bisection otherwise.  Generic symbols:
    cell counting on a square grid of the given extent.
    """
    if lam <= 0:
        raise ValueError("level must be positive")
    sign = 1.0 if sign > 0 else -1.0
    if F.structure == "radial":
        prof = F.profile
        amp = prof.amplitude
        k = prof.kind
        if k in ("constant", "gaussian", "power", "exp_beta", "disk_indicator"):
            eff = sign * amp
            if k == "constant":
                return math.inf if eff > lam else 0.0
            if eff <= lam:
                return 0.0
            scale = prof.arg_scale
            if k == "gaussian":
                s_star = math.log(eff / lam) / (prof.rate * scale)
            elif k == "power":
                s_star = ((eff / lam) ** (2.0 / prof.gamma) - 1.0) / scale
            elif k == "exp_beta":
                s_star = (math.log(eff / lam) / prof.gamma) ** (1.0 / prof.beta) / scale
            else:  # disk_indicator
                s_star = prof.cutoff / scale
            return 0.5 * s_star
        if s_max is None:
            s_max = 1.0
            while np.max(np.abs(np.atleast_1d(prof(
                    np.linspace(0.8 * s_max, s_max, 8))))) > lam and s_max < 1e12:
                s_max *= 2.0
            s_max *= 2.0
        return 0.5 * _level_crossing(prof, lam, sign, s_max)
    # generic: grid counting
    h = 2.0 * extent / cells
    g = -extent + h * (np.arange(cells) + 0.5)
    vals = sign * np.real(F.evaluate(g[:, None], g[None, :]))
    return float(np.count_nonzero(vals > lam)) * h * h / (2.0 * np.pi)


def condition_C_estimate(volume, lam_range, npts=50):
    """Empirical two-sided bounds on -lambda f'(lambda) / f(lambda).

    volume: evaluator lambda -> f(lambda), positive and non-increasing on the
    range.  Returns (min, max) of the negative logarithmic derivative over a
    log-spaced grid (centered differences in ln lambda).  Raises on
    non-monotone input.
    """
    lo, hi = lam_range
    if not 0 < lo < hi:
        raise ValueError("need 0 < lam_lo < lam_hi")
    lam = np.exp(np.linspace(math.log(lo), math.log(hi), npts))
    f = np.array([float(volume(l)) for l in lam])
    if np.any(f <= 0):
        raise ValueError("volume must be positive on the range")
    if np.any(f[1:] > f[:-1] * (1.0 + 1e-12)):
        raise ValueError("volume is not non-increasing on the range")
    ln_lam = np.log(lam)
    ln_f = np.log(f)
    d = (ln_f[2:] - ln_f[:-2]) / (ln_lam[2:] - ln_lam[:-2])
    neg = -d
    return float(neg.min() + 0.0), float(neg.max() + 0.0)


# ---------------------------------------------------------------------------
# radial Fourier transforms (unitary normalization)


_HANKEL_BLOCK = 32          # rows per (points x nodes) block of Bessel values


def fourier_radial_profile(profile, order=400):
    """Radial profile of the 2-D unitary Fourier transform of a radial symbol.

    Closed forms for Gaussian, Laguerre-mix, and disk profiles (the last
    through J_1); otherwise the Hankel transform Rhat(u) =
    (1/2) int_0^inf R(s) J_0(sqrt(u s)) ds by order-`order` Gauss-Laguerre
    (requires integrable decay), with J_0 from specfun.bessel_j evaluated in
    blocks of 32 points so the temporaries stay small.
    """
    k = profile.kind
    amp = profile.amplitude
    if k == "gaussian":
        a = profile.rate * profile.arg_scale
        return gaussian(1.0 / (4.0 * a), amplitude=amp / (2.0 * a))
    if k == "laguerre_mix" and profile.arg_scale == 1.0:
        cs = profile.coeffs

        def fhat(u):
            return 0.5 * amp * _laguerre_series(cs, 1.0, 0.5 * np.asarray(u, dtype=float))

        return custom(fhat)
    if k == "disk_indicator":
        c = profile.support_bound

        def fhat(u):
            u = np.atleast_1d(np.asarray(u, dtype=float))
            out = np.empty_like(u)
            pos = u > 0
            out[pos] = amp * math.sqrt(c) * bessel_j(1, np.sqrt(u[pos] * c)) / np.sqrt(u[pos])
            out[~pos] = amp * c / 2.0
            return out

        return custom(fhat)
    if k == "mix":
        return RadialProfile("mix", parts=tuple(
            (w, fourier_radial_profile(p, order=order)) for w, p in profile.parts))
    rule = quadrature.gauss_laguerre(order)
    s_nodes = rule.nodes
    half_weighted = 0.5 * rule.flat_weights * np.atleast_1d(profile(s_nodes))

    def fhat(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        pts = u.ravel()
        out = np.empty_like(pts)
        for i in range(0, pts.size, _HANKEL_BLOCK):
            block = np.sqrt(pts[i:i + _HANKEL_BLOCK, None] * s_nodes)
            out[i:i + _HANKEL_BLOCK] = bessel_j(0, block) @ half_weighted
        return out.reshape(u.shape)

    return custom(fhat)

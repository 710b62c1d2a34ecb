"""Logarithmic capacity of compact planar sets via extremal point configurations.

A j-point configuration maximizing the sum of pairwise log-distances gives
the transfinite-diameter quotient delta_j; the classical two-sided bound

    j^j c(K)^(j(j-1)) <= Delta_j(K) <= (4/e ln j + 4)^j j^j c(K)^(j(j-1))

(Delta_j over ordered pairs, K connected) turns the best-found configuration
into a point estimate (left inequality, exact for disks) and a certified
lower bound (right inequality).

Each start is optimized by one ascent loop of two kinds of step, both
projected onto K and halved until the energy rises.  Gradient steps run
until the relative energy gain of one falls below 1e-4 with every point on
the boundary of K.  Damped Newton steps then polish the configuration in
arc-length coordinates along the boundary: the reduced Hessian of the
energy, with its eigenvalues replaced by their moduli (floored at 1e-9 of
the largest), gives the step.  Segment endpoints and polygon vertices stay
pinned during those steps.  A point off the boundary hands back to gradient
steps; every point pinned, or a Newton step that no halving makes gain,
hands back for good.  Multi-start picks the best result; everything is
deterministic given (seed, restarts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


# Rejection batches of 4n bounding-box draws before sample() gives up: enough
# for any polygon filling more than about 1/40000 of its bounding box.
_SAMPLE_BATCHES = 10_000

_NEWTON_SWITCH = 1e-4        # relative gain per gradient step below which Newton steps start
_ASCENT_RTOL = 1e-10         # relative gain per step below which an ascent has converged
_MAX_ITER = 5000             # steps of one ascent, both phases together


@dataclass(frozen=True)
class CompactSet:
    """Compact subset of the plane (points as complex numbers)."""

    kind: str                        # 'disk' | 'segment' | 'polygon' | 'union'
    center: complex = 0.0 + 0.0j
    radius: float = 0.0
    a: complex = 0.0 + 0.0j
    b: complex = 0.0 + 0.0j
    vertices: tuple = ()
    members: tuple = ()

    def __post_init__(self):
        if not np.isfinite([self.center, self.radius, self.a, self.b, *self.vertices]).all():
            raise ValueError("set coordinates must be finite")
        # outside these extents the ascent's squared distances or their inverses overflow
        if not self.degenerate():        # degenerate sets are refused below or by the ascent
            x0, x1, y0, y1 = self.bounding_box()
            extent = self.radius if self.kind == "disk" else max(x1 - x0, y1 - y0)
            if not 1e-150 <= extent <= 1e150:
                raise ValueError(f"{self.kind} of extent {extent:.6g} lies outside "
                                 "[1e-150, 1e150]")
        # sample() draws polygon points by rejection, which never ends on zero area
        if self.kind == "polygon" and not _has_area(self.vertices):
            raise ValueError("polygon has zero area (collinear or fewer than three "
                             "vertices); use a segment instead")
        # a one-point member would divide by zero in project() and boundary_frame()
        for i, m in enumerate(self.members):
            if m.degenerate():
                raise ValueError(f"union member {i} is a degenerate {m.kind} "
                                 "(fewer than two distinct points)")

    @property
    def connected(self):
        return self.kind != "union"

    def degenerate(self):
        if self.kind == "disk":
            return self.radius <= 0
        if self.kind == "segment":
            return self.a == self.b
        if self.kind == "polygon":
            return len(self.vertices) < 3    # zero area is refused on construction
        return not self.members          # degenerate members are refused on construction

    def bounding_box(self):
        if self.kind == "disk":
            c, r = self.center, self.radius
            return c.real - r, c.real + r, c.imag - r, c.imag + r
        if self.kind == "segment":
            return (min(self.a.real, self.b.real), max(self.a.real, self.b.real),
                    min(self.a.imag, self.b.imag), max(self.a.imag, self.b.imag))
        if self.kind == "polygon":
            xs = [v.real for v in self.vertices]
            ys = [v.imag for v in self.vertices]
            return min(xs), max(xs), min(ys), max(ys)
        boxes = [m.bounding_box() for m in self.members]
        return (min(b[0] for b in boxes), max(b[1] for b in boxes),
                min(b[2] for b in boxes), max(b[3] for b in boxes))

    def membership(self, w, tol=1e-12):
        w = np.asarray(w, dtype=complex)
        if self.kind == "disk":
            return np.abs(w - self.center) <= self.radius + tol
        if self.kind == "segment":
            d = self.b - self.a
            t = ((w - self.a) * np.conj(d)).real / abs(d) ** 2
            on = (t >= -tol) & (t <= 1 + tol)
            dist = np.abs(w - (self.a + np.clip(t, 0, 1) * d))
            return on & (dist <= tol * max(1.0, abs(d)))
        if self.kind == "polygon":
            return self._polygon_nearest(w, tol)[1]
        out = np.zeros(np.shape(w), dtype=bool)
        for m in self.members:
            out |= m.membership(w, tol=tol)
        return out

    def project(self, w):
        """Nearest point of the set (idempotent; lands in the set)."""
        w = np.asarray(w, dtype=complex)
        if self.kind == "disk":
            d = w - self.center
            r = np.abs(d)
            scale = np.divide(self.radius, r, out=np.ones_like(r), where=r > self.radius)
            return self.center + d * scale
        if self.kind == "segment":
            d = self.b - self.a
            t = np.clip(((w - self.a) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
            return self.a + t * d
        if self.kind == "polygon":
            nearest, inside = self._polygon_nearest(w, 1e-12)[:2]
            return np.where(inside, w, nearest)
        p, nearest = self._nearest_member(w)
        return p[nearest, np.arange(p.shape[1])].reshape(w.shape)

    def _nearest_member(self, w):
        """Union members' projections of w, (members, points), and per point the nearest."""
        p = np.stack([m.project(w) for m in self.members]).reshape(len(self.members), -1)
        return p, np.abs(p - w.reshape(-1)).argmin(axis=0)

    def boundary_frame(self, w):
        """Boundary geometry at each point: (tangent, curvature, normal, on).

        tangent is the unit tangent, or 0 where the point is pinned (a segment
        endpoint or a polygon vertex); curvature is 1/r on a circle and 0 on
        edges; normal is the outward unit normal, so moving by s along the
        boundary takes w to w + s*tangent - (s^2/2)*curvature*normal + O(s^3).
        on is False where the point lies off the boundary by more than 1e-12
        of the member's size (at least 1); there the other entries mean nothing.
        A union delegates each point to the member nearest it.
        """
        w = np.asarray(w, dtype=complex)
        tol = 1e-12
        if self.kind == "disk":
            d = w - self.center
            r = np.abs(d)
            n = d / np.where(r == 0, 1.0, r)
            on = np.abs(r - self.radius) <= tol * max(1.0, self.radius)
            return 1j * n, np.full(w.shape, 1.0 / self.radius), n, on
        if self.kind == "segment":
            d = self.b - self.a
            u = d / abs(d)
            s = ((w - self.a) * np.conj(u)).real          # arc length from a
            eps = tol * max(1.0, abs(d))
            on = np.abs(w - (self.a + np.clip(s, 0.0, abs(d)) * u)) <= eps
            pinned = (s <= eps) | (s >= abs(d) - eps)
            return (np.where(pinned, 0.0, u), np.zeros(w.shape),
                    np.full(w.shape, -1j * u), on)
        if self.kind == "polygon":
            d, len2 = self._edges[1:3]
            _, _, e, t, dist = self._polygon_nearest(w, tol)
            length = np.sqrt(len2[e])
            eps = tol * np.maximum(1.0, length)
            u = d[e] / length
            pinned = (np.minimum(t, 1.0 - t) * length <= eps)
            # outward is to the right of a counter-clockwise edge
            n = -1j * u * np.sign(_signed_area(self.vertices))
            return (np.where(pinned, 0.0, u).reshape(w.shape), np.zeros(w.shape),
                    n.reshape(w.shape), (dist <= eps).reshape(w.shape))
        nearest = self._nearest_member(w)[1]
        frames = [m.boundary_frame(w.reshape(-1)) for m in self.members]
        cols = np.arange(nearest.size)
        return tuple(np.stack([f[q] for f in frames])[nearest, cols].reshape(w.shape)
                     for q in range(4))

    @cached_property
    def _edges(self):
        """Polygon edge arrays: start, direction, squared length, end ordinate, rise.

        Zero squared lengths and rises are stored as 1: a zero-length edge then
        projects to its start, and a horizontal edge is never crossed anyway.
        """
        a = np.array(self.vertices, dtype=complex)
        b = np.roll(a, -1)
        d = b - a
        len2 = np.abs(d) ** 2
        return (a, d, np.where(len2 == 0, 1.0, len2), b.imag,
                np.where(d.imag == 0, 1.0, d.imag))

    def _polygon_nearest(self, w, tol):
        """Nearest boundary point of a polygon, membership within tol of the boundary,
        and (flattened) the nearest edge, the parameter along it and the distance to it.

        One (points x edges) broadcast gives the clamped edge parameter, the
        nearest point on each edge, its distance and the crossing-number parity.
        """
        a, d, len2, b_imag, rise = self._edges
        col = w.reshape(-1, 1)
        t = np.clip(((col - a) * np.conj(d)).real / len2, 0.0, 1.0)
        p = a + t * d
        dist = np.abs(col - p)
        rows, e = np.arange(len(col)), dist.argmin(axis=1)
        y = col.imag
        crosses = (a.imag > y) != (b_imag > y)
        xint = a.real + (y - a.imag) * d.real / rise
        odd = np.logical_xor.reduce(crosses & (col.real < xint), axis=1)
        inside = odd | (dist[rows, e] <= tol)
        return (p[rows, e].reshape(w.shape), inside.reshape(w.shape),
                e, t[rows, e], dist[rows, e])

    def sample(self, n, rng):
        """n points distributed over the set (uniform-ish; seeds the ascent)."""
        if self.kind == "disk":
            r = self.radius * np.sqrt(rng.uniform(0, 1, n))
            th = rng.uniform(0, 2 * np.pi, n)
            return self.center + r * np.exp(1j * th)
        if self.kind == "segment":
            return self.a + rng.uniform(0, 1, n) * (self.b - self.a)
        if self.kind == "polygon":
            x0, x1, y0, y1 = self.bounding_box()
            out = np.empty(n, dtype=complex)
            have = 0
            for _ in range(_SAMPLE_BATCHES):
                if have == n:
                    return out
                cand = (rng.uniform(x0, x1, 4 * n) + 1j * rng.uniform(y0, y1, 4 * n))
                good = cand[self.membership(cand)]
                take = min(n - have, len(good))
                out[have:have + take] = good[:take]
                have += take
            if have < n:
                raise ValueError(f"polygon too thin to sample: {have} of {n} points inside "
                                 f"after {_SAMPLE_BATCHES} batches of bounding-box draws")
            return out
        idx = rng.integers(0, len(self.members), n)
        return np.concatenate([
            self.members[i].sample(int(np.count_nonzero(idx == i)), rng)
            for i in range(len(self.members))])

    def boundary_points(self, n, rng):
        """n points on the outer boundary (extremal configurations live there)."""
        if self.kind == "disk":
            th = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(n) / n
            return self.center + self.radius * np.exp(1j * th)
        if self.kind == "segment":
            t = np.linspace(0, 1, n)
            return self.a + t * (self.b - self.a)
        if self.kind == "polygon":
            verts = list(self.vertices) + [self.vertices[0]]
            lengths = np.array([abs(verts[i + 1] - verts[i]) for i in range(len(verts) - 1)])
            cum = np.concatenate(([0.0], np.cumsum(lengths)))
            s = rng.uniform(0, 1) * cum[-1] / n + cum[-1] * np.arange(n) / n
            out = np.empty(n, dtype=complex)
            for i, si in enumerate(s):
                e = np.searchsorted(cum, si, side="right") - 1
                e = min(e, len(lengths) - 1)
                t = (si - cum[e]) / lengths[e] if lengths[e] > 0 else 0.0
                out[i] = verts[e] + t * (verts[e + 1] - verts[e])
            return out
        parts = np.array_split(np.arange(n), len(self.members))
        return np.concatenate([m.boundary_points(len(p), rng)
                               for m, p in zip(self.members, parts) if len(p)])


def disk(center=0.0, radius=1.0):
    return CompactSet("disk", center=complex(center), radius=float(radius))


def segment(a, b):
    return CompactSet("segment", a=complex(a), b=complex(b))


def polygon(vertices):
    return CompactSet("polygon", vertices=tuple(complex(v) for v in vertices))


def set_union(members):
    return CompactSet("union", members=tuple(members))


def _signed_area(vertices):
    """Shoelace area of a polygon, positive when its vertices run counter-clockwise."""
    v = np.array(vertices, dtype=complex)
    v = v - v[0]        # shoelace terms at the polygon's own scale, wherever it lies
    x, y = v.real, v.imag
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _has_area(vertices):
    """Whether a polygon's shoelace area exceeds rounding level (1e-12 of its box side squared)."""
    if len(vertices) < 3:
        return False
    v = np.array(vertices, dtype=complex)
    return bool(abs(_signed_area(vertices)) > 1e-12 * max(np.ptp(v.real), np.ptp(v.imag)) ** 2)


# ---------------------------------------------------------------------------
# extremal configurations


@dataclass(frozen=True)
class FeketeResult:
    j: int
    points: np.ndarray = field(repr=False)
    log_energy: float
    delta_j: float
    restart: int = 0
    iterations: int = 0          # both phases of the ascent
    converged: bool = False      # False when the ascent stopped at _MAX_ITER
    newton_iterations: int = 0   # the Newton steps among the iterations


def _pair_kernel(w, pairs):
    """Pair log-energy sum_{i<k} log|w_i - w_k| and the difference matrix behind it.

    pairs holds the flat indices i*n + k, i < k, in row-major order: summed in
    that order the energy is bit-identical to a loop over pairs, so accept/reject
    decisions at rounding-level ties do not depend on how it is computed.
    diff[i, k] = w_i - w_k with the diagonal set to 1; with its diagonal zeroed,
    1/conj(diff) summed over k is the energy gradient at w.  Coincident points
    give -inf.
    """
    diff = w[:, None] - w[None, :]
    np.fill_diagonal(diff, 1.0)
    dist = np.abs(diff).take(pairs)
    if not dist.all():
        return -np.inf, diff
    return float(np.log(dist).sum()), diff


def _upper_pairs(n):
    """Flat indices i*n + k, i < k, in row-major order: the pairs of _pair_kernel."""
    i, k = np.triu_indices(n, 1)
    return i * n + k


def _line_search(K, pairs, w, E, direction, scale, tries):
    """(trial, E2, diff2, scale) of the first trial K.project(w + scale * direction) whose
    energy E2 exceeds E, halving scale up to `tries` times; None when none does."""
    for _ in range(tries):
        trial = K.project(w + scale * direction)
        E2, diff2 = _pair_kernel(trial, pairs)
        if E2 > E:
            return trial, E2, diff2, scale
        scale *= 0.5
    return None


def _tangent_system(diff, t, kappa, n):
    """Gradient g and Hessian M of the energy in arc-length coordinates along the boundary.

    diff is the difference matrix of _pair_kernel, (t, kappa, n) the boundary
    frame at the points.  With G_i = sum_k 1/conj(w_i - w_k):
    g_i = Re(G_i conj(t_i)), M_ik = Re(t_i t_k / (w_i - w_k)^2) for i != k, and
    M_ii = -sum_k Re(t_i^2 / (w_i - w_k)^2) - kappa_i Re(G_i conj(n_i)).
    Rows of pinned points (t = 0) vanish apart from the curvature term.
    """
    inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    G = np.conj(inv.sum(axis=1))
    inv2 = inv * inv
    M = (t[:, None] * t[None, :] * inv2).real
    np.fill_diagonal(M, -(t * t * inv2.sum(axis=1)).real - kappa * (G * np.conj(n)).real)
    return (G * np.conj(t)).real, M


def _newton_direction(g, M, free):
    """Modified Newton step V diag(1/max(|lam|, 1e-9 max|lam|)) V^T g over the free points.

    (lam, V) is the eigensystem of -M on the free points; taking moduli makes
    the step an ascent direction where M is indefinite, and the floor bounds
    it along almost-flat modes.  Pinned points get 0.
    """
    lam, V = np.linalg.eigh(-M[np.ix_(free, free)])
    a = np.abs(lam)
    p = np.zeros(len(g))
    p[free] = V @ ((V.T @ g[free]) / np.maximum(a, 1e-9 * a.max()))
    return p


def _fekete_ascent(K, w):
    """Gradient ascent polished by damped Newton steps along the boundary.

    Returns (w, E, iterations, newton_iterations, converged).  Iterations count
    the steps of both kinds, at most _MAX_ITER; converged means a step gained
    less than _ASCENT_RTOL, or 60 halvings of a gradient step found no gain
    (an iteration too).  Newton steps take over once a gradient step gains
    less than _NEWTON_SWITCH with every point on the boundary, and hand back
    when a point is off it, for good when every point is pinned or 30
    halvings find no gain; each hand-back restarts the gradient step size.
    """
    pairs = _upper_pairs(len(w))
    E, diff = _pair_kernel(w, pairs)
    x0, x1 = K.bounding_box()[:2]
    first_step = step = 0.1 * max(1.0, abs(x1 - x0))
    switch, newton = _NEWTON_SWITCH, False
    its = newton_its = 0
    while its < _MAX_ITER:
        if newton:
            t, kappa, n, on = K.boundary_frame(w)
            free = t != 0
            found = None
            if on.all() and free.any():
                p = _newton_direction(*_tangent_system(diff, t, kappa, n), free) * t
                found = _line_search(K, pairs, w, E, p, 1.0, 30)
            if found is None:            # back to gradient steps, for good unless off K
                if on.all():
                    switch = 0.0
                newton, step = False, first_step
                continue
            newton_its += 1
        else:
            g = 1.0 / np.conj(diff)
            np.fill_diagonal(g, 0.0)
            found = _line_search(K, pairs, w, E, g.sum(axis=1), step, 60)
            if found is None:
                return w, E, its + 1, newton_its, True
        its += 1
        w, E2, diff, scale = found
        gain, size = abs(E2 - E), max(1.0, abs(E2))
        E = E2
        if gain < _ASCENT_RTOL * size:
            return w, E, its, newton_its, True
        if not newton:
            step = scale * 1.3
            newton = gain < switch * size and K.boundary_frame(w)[3].all()
    return w, E, its, newton_its, False


def fekete_optimize(K, j, restarts=8, seed=0):
    """Best-found j-point configuration maximizing the pairwise log-energy.

    Projected gradient ascent finished by Newton steps along the boundary,
    from `restarts` seeded interior starts plus one boundary-biased start;
    ties broken by higher energy, then lexicographic point order.  The result is a lower bound on
    the true extremal energy.  Deterministic given (seed, restarts).
    """
    if j < 2:
        raise ValueError("need at least two points")
    if K.degenerate():
        raise ValueError("degenerate set: fewer than two distinct points")
    best = None
    for ridx in range(restarts + 1):
        rng = np.random.default_rng((int(seed), ridx))
        if ridx == restarts:
            w0 = K.boundary_points(j, rng)
        else:
            w0 = K.sample(j, rng)
        # nudge exact collisions apart (the log barrier then keeps them apart)
        for _ in range(40):
            d = np.abs(w0[:, None] - w0[None, :]) + np.eye(j)
            bad = np.nonzero(d.min(axis=1) == 0)[0]
            if not len(bad):
                break
            w0[bad] = K.sample(len(bad), rng)
        w, E, its, newton_its, converged = _fekete_ascent(K, w0)
        order = np.lexsort((w.imag, w.real))
        w = w[order]
        key = (E, tuple((-p.real, -p.imag) for p in w))
        if best is None or key > best[0]:
            jj = float(j)
            best = (key, FeketeResult(j, w, E, math.exp(2.0 * E / (jj * (jj - 1))),
                                      restart=ridx, iterations=its, converged=converged,
                                      newton_iterations=newton_its))
    return best[1]


@dataclass(frozen=True)
class CapacityEstimate:
    estimate: float
    lower_cert: float            # nan when the set is not connected
    j_max: int
    per_j: tuple                 # FeketeResult per j in the schedule


def _j_schedule(j_max):
    js = [8]
    while js[-1] < j_max:
        js.append(min(j_max, max(js[-1] + 1, int(round(js[-1] * math.sqrt(2))))))
    return js


def capacity_estimate(K, j_max, restarts=8, seed=0):
    """Capacity estimate and certified lower bound from extremal configurations.

    estimate = (Delta_j / j^j)^(1/(j(j-1))) at j = j_max, calibrated so disks
    are reproduced exactly; lower_cert divides out the (4/e ln j + 4)^j
    factor of the upper inequality and certifies c(K) >= lower_cert up to
    optimizer slack (suppressed for disconnected sets, where the bound does
    not apply).
    """
    if j_max < 8:
        raise ValueError("j_max must be at least 8")
    results = []
    for j in _j_schedule(j_max):
        results.append(fekete_optimize(K, j, restarts=restarts, seed=seed))
    top = results[-1]
    jj = float(top.j)
    log_delta = 2.0 * top.log_energy            # ordered pairs
    estimate = math.exp((log_delta - jj * math.log(jj)) / (jj * (jj - 1)))
    if K.connected:
        cert = estimate * (4.0 * math.exp(-1.0) * math.log(jj) + 4.0) ** (-1.0 / (jj - 1))
    else:
        cert = math.nan
    return CapacityEstimate(estimate, cert, top.j, tuple(results))

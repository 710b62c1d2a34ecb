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
arc-length coordinates along the boundary.  Where the negated reduced
Hessian of the energy is positive definite with no eigenvalue near 1e-9 of
the largest, the step is the plain Newton step, certified by a Cholesky
factorisation and taken by a linear solve; otherwise its eigenvalues are
replaced by their moduli, floored at 1e-9 of the largest.  The boundary
frame the Newton steps need is read off the projection that made the
configuration.  Segment endpoints and polygon vertices stay pinned during
those steps.  A point off the boundary hands back to gradient steps; every
point pinned, or a Newton step that no halving makes gain, hands back for
good.  Multi-start picks the best result; every start of every j runs in
lockstep, one projection per round for all of them, and each ascent runs as
it would alone, so everything is deterministic given (seed, restarts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import groupby
from typing import NamedTuple

import numpy as np


# Rejection batches of 4n bounding-box draws before sample() gives up: enough
# for any polygon filling more than about 1/40000 of its bounding box.
_SAMPLE_BATCHES = 10_000

_NEWTON_SWITCH = 1e-4        # relative gain per gradient step below which Newton steps start
_ASCENT_RTOL = 1e-10         # relative gain per step below which an ascent has converged
_MAX_ITER = 5000             # steps of one ascent, both phases together


class _Edges(NamedTuple):
    """A polygon's edge arrays, built once per set.  The first eight are (edges, 1)
    columns for the (edges x points) broadcasts of the nearest-edge search; the
    rest have one entry per edge."""

    a: np.ndarray                # start
    d: np.ndarray                # direction, end - start
    dc: np.ndarray               # conj(d)
    len2: np.ndarray             # squared length
    ax: np.ndarray               # start abscissa
    by: np.ndarray               # end ordinate
    dx: np.ndarray               # run
    rise: np.ndarray
    length: np.ndarray
    eps: np.ndarray              # on-boundary tolerance, 1e-12 max(1, length)
    u: np.ndarray                # unit tangent
    normal: np.ndarray           # outward unit normal


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
        if not self.degenerate():        # degenerate sets are refused below or by the ascent
            x0, x1, y0, y1 = self.bounding_box()
            extent = self.radius if self.kind == "disk" else max(x1 - x0, y1 - y0)
            # outside these extents the ascent's squared distances or their inverses overflow
            if not 1e-150 <= extent <= 1e150:
                raise ValueError(f"{self.kind} of extent {extent:.6g} lies outside "
                                 "[1e-150, 1e150]")
            # farther from the origin, rounding in the coordinates alone moves the estimate
            # (by 2e-9 for a unit disk centred at 1e8, by 9e-6 at 1e12)
            reach = max(abs(x0), abs(x1), abs(y0), abs(y1))
            if reach > 1e8 * extent:
                raise ValueError(f"{self.kind} reaches {reach:.6g} from the origin, more than "
                                 f"1e8 times its extent {extent:.6g}")
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
            dist = np.abs(w - (self.a + np.minimum(np.maximum(t, 0.0), 1.0) * d))
            return on & (dist <= tol * max(1.0, abs(d)))
        if self.kind == "polygon":
            return self._polygon_nearest(w, tol)[1].reshape(w.shape)
        out = np.zeros(np.shape(w), dtype=bool)
        for m in self.members:
            out |= m.membership(w, tol=tol)
        return out

    def project(self, w):
        """Nearest point of the set (idempotent; lands in the set)."""
        return self._project(np.asarray(w, dtype=complex))[0]

    def _project(self, w):
        """(project(w), frame) for a complex array w.  frame(sel) returns the boundary
        frames of the projected points p.reshape(-1)[sel], flattened, read off the
        nearest-edge or nearest-member search this projection made: it equals
        boundary_frame(project(w)) without a second search."""
        if self.kind == "disk":
            d = w - self.center
            p = self.center + d * (self.radius / np.maximum(np.abs(d), self.radius))
            return p, partial(self._frame_at, p.reshape(-1))
        if self.kind == "segment":
            a, d, dc, len2 = self._chord
            p = a + np.minimum(np.maximum(((w - a) * dc).real / len2, 0.0), 1.0) * d
            return p, partial(self._frame_at, p.reshape(-1))
        if self.kind == "polygon":
            nearest, inside, e, t, dist = self._polygon_nearest(w, 1e-12)
            p = np.where(inside, w.reshape(-1), nearest).reshape(w.shape)
            return p, partial(self._polygon_frame, e, t, dist, inside)
        points, frames, nearest = self._nearest_member(w)
        return _pick(points, nearest).reshape(w.shape), partial(_union_frame, frames, nearest)

    def _nearest_member(self, w):
        """Every union member's projection of w as a (members, points) array, their frame
        readers, and per point (flattened) the nearest member."""
        parts = [m._project(w) for m in self.members]
        points = np.array([q.reshape(-1) for q, _ in parts])
        return points, [frame for _, frame in parts], np.abs(points - w.reshape(-1)).argmin(axis=0)

    def _frame_at(self, points, sel):
        """The frame reader of a projection that made no search: boundary_frame(points[sel])."""
        return self.boundary_frame(points[sel])

    def boundary_frame(self, w):
        """Boundary geometry at each point: (tangent, curvature, normal, on).

        tangent is the unit tangent, or 0 where the point is pinned (a segment
        endpoint or a polygon vertex); curvature is 1/r on a circle and 0 on
        edges; normal is the outward unit normal (0 at a polygon vertex, where it
        has no direction), so moving by s along the boundary takes w to
        w + s*tangent - (s^2/2)*curvature*normal + O(s^3).  on is False where the
        point lies off the boundary by more than 1e-12 of the member's size (at
        least 1); there the other entries mean nothing.  A union delegates each
        point to the member nearest it.
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
            on = np.abs(w - (self.a + np.minimum(np.maximum(s, 0.0), abs(d)) * u)) <= eps
            pinned = (s <= eps) | (s >= abs(d) - eps)
            return (np.where(pinned, 0.0, u), np.zeros(w.shape),
                    np.full(w.shape, -1j * u), on)
        if self.kind == "polygon":
            _, _, e, t, dist = self._polygon_nearest(w, tol)
            frame = self._polygon_frame(e, t, dist, None, slice(None))
        else:
            flat = w.reshape(-1)
            frame = _union_frame([partial(m._frame_at, flat) for m in self.members],
                                 self._nearest_member(w)[2], slice(None))
        return tuple(q.reshape(w.shape) for q in frame)

    @cached_property
    def _chord(self):
        """Segment start, direction, its conjugate and its squared length."""
        d = self.b - self.a
        return self.a, d, d.conjugate(), abs(d) ** 2

    @cached_property
    def _edges(self):
        """Polygon edge arrays (see _Edges).

        Zero squared lengths and rises are stored as 1: a zero-length edge then
        projects to its start, and a horizontal edge is never crossed anyway.
        """
        a = np.array(self.vertices, dtype=complex)
        b = np.roll(a, -1)
        d = b - a
        len2 = np.abs(d) ** 2
        len2 = np.where(len2 == 0, 1.0, len2)
        length = np.sqrt(len2)
        u = d / length
        cols = [x[:, None].copy() for x in (a, d, np.conj(d), len2, a.real, b.imag, d.real,
                                            np.where(d.imag == 0, 1.0, d.imag))]
        # outward is to the right of a counter-clockwise edge
        return _Edges(*cols, length, 1e-12 * np.maximum(1.0, length), u,
                      -1j * u * np.sign(_signed_area(self.vertices)))

    def _polygon_nearest(self, w, tol):
        """Nearest boundary point of a polygon, membership within tol of the boundary,
        the nearest edge, the parameter along it and the distance to it, all flattened.

        One (edges x points) broadcast gives the clamped edge parameter, the
        nearest point on each edge, its distance and the crossing-number parity.
        """
        a, d, dc, len2, ax, by, dx, rise = self._edges[:8]
        row = w.reshape(-1)
        rel = row - a
        t = np.minimum(np.maximum((rel * dc).real / len2, 0.0), 1.0)
        p = a + t * d
        dist = np.abs(row - p)
        e = dist.argmin(axis=0)
        at = e * len(row) + np.arange(len(row))       # flat index of each point's nearest edge
        ry = rel.imag                                 # y - ay
        crosses = (ry < 0) != (by > row.imag)
        # |ry| <= |rise| where an edge is crossed; elsewhere a subnormal rise may
        # overflow the quotient to inf, which the mask drops
        with np.errstate(over="ignore"):
            odd = np.logical_xor.reduce(crosses & (row.real < ax + ry * dx / rise), axis=0)
        near = dist.take(at)
        return p.take(at), odd | (near <= tol), e, t.take(at), near

    def _polygon_frame(self, e, t, dist, projected, sel):
        """Flat boundary frames at the points sel of a nearest-edge search (edge e,
        parameter t, distance dist).  With projected None they are the frames of the
        searched points; given the search's inside flags as projected, those of their
        projections: a point outside lands on its nearest edge, one inside stays put."""
        e, t, dist = e[sel], t[sel], dist[sel]
        edges = self._edges
        eps = edges.eps[e]
        on = dist <= eps if projected is None else ~projected[sel] | (dist <= eps)
        pinned = np.minimum(t, 1.0 - t) * edges.length[e] <= eps
        return (np.where(pinned, 0.0, edges.u[e]), np.zeros(len(e)),
                np.where(pinned, 0.0, edges.normal[e]), on)

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
            e = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(lengths) - 1)
            length = lengths[e]
            t = np.where(length > 0, (s - cum[e]) / np.where(length > 0, length, 1.0), 0.0)
            v = np.array(verts)
            return v[e] + t * (v[e + 1] - v[e])
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


def _pick(stacked, nearest):
    """stacked[nearest[i], i] for each point i: its entry from its nearest member's row."""
    return stacked[nearest, np.arange(len(nearest))]


def _union_frame(frames, nearest, sel):
    """Flat boundary frames of the points sel, each from its nearest member's frame reader."""
    fs = [frame(sel) for frame in frames]
    return tuple(_pick(np.array([f[q] for f in fs]), nearest[sel]) for q in range(4))


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


def _upper_pairs(n):
    """Index arrays (i, k), i < k, of the pairs of n points in row-major order."""
    return np.triu_indices(n, 1)


def _energy(w, pairs):
    """Pair log-energy sum_{i<k} log|w_i - w_k| of the configuration along the last axis
    of w, one per row; coincident points give -inf.

    Summed over the pairs in the row-major order of _upper_pairs, the energy is
    bit-identical to a loop over pairs, so accept/reject decisions at
    rounding-level ties do not depend on how it is computed.
    """
    i, k = pairs
    dist = np.abs(w.take(i, axis=-1) - w.take(k, axis=-1))
    if dist.all():
        return np.log(dist).sum(axis=-1)
    return np.where(dist.all(axis=-1), np.log(np.where(dist > 0, dist, 1.0)).sum(axis=-1),
                    -np.inf)


def _inverse_differences(w):
    """Matrix of 1/(w_i - w_k) with a zero diagonal (w distinct).

    Its row sums, conjugated, are the energy gradient at w.
    """
    n = len(w)
    diff = w[:, None] - w[None, :]
    diff.reshape(-1)[::n + 1] = 1.0
    inv = 1.0 / diff
    inv.reshape(-1)[::n + 1] = 0.0
    return inv


def _line_search(w, E, direction, scale, tries):
    """Generator: the first trial project(w + scale * direction) whose energy E2 exceeds E,
    halving scale up to `tries` times, as (trial, E2, frame, scale); None when none does.
    frame() returns the boundary frame at the trial.

    It yields batches of trial configurations, one per row, and is sent back their
    projections, their energies and a frame reader, frame(r) giving row r's
    frames.  The first trial goes alone, the rest in batches of 2, 4, 8, ... rows;
    each row is computed as it would be alone, so the first trial that gains is
    the one a trial-by-trial search finds.
    """
    trials, energies, frame = yield (w + scale * direction)[None]
    E2 = float(energies[0])
    if E2 > E:
        return trials[0].copy(), E2, partial(frame, 0), scale
    done, size = 1, 2
    while done < tries:
        scales = np.ldexp(scale, -np.arange(done, min(tries, done + size)))
        trials, energies, frame = yield w + scales[:, None] * direction
        up = np.flatnonzero(energies > E)
        if up.size:
            r = up[0]
            return trials[r].copy(), float(energies[r]), partial(frame, r), float(scales[r])
        done, size = done + size, 2 * size
    return None


def _tangent_system(inv, t, kappa, n):
    """Gradient g and Hessian M of the energy in arc-length coordinates along the boundary.

    inv is the matrix of _inverse_differences, (t, kappa, n) the boundary frame
    at the points.  With G_i = sum_k 1/conj(w_i - w_k):
    g_i = Re(G_i conj(t_i)), M_ik = Re(t_i t_k / (w_i - w_k)^2) for i != k, and
    M_ii = -sum_k Re(t_i^2 / (w_i - w_k)^2) - kappa_i Re(G_i conj(n_i)).
    Rows of pinned points (t = 0) vanish apart from the curvature term.
    """
    G = np.conj(inv.sum(axis=1))
    inv2 = inv * inv
    M = (t[:, None] * t[None, :] * inv2).real
    diag = np.arange(len(t))
    M[diag, diag] = -(t * t * inv2.sum(axis=1)).real - kappa * (G * np.conj(n)).real
    return (G * np.conj(t)).real, M


def _newton_direction(g, M, free):
    """Newton step A^-1 g over the free points, A being -M there; pinned points get 0.

    Where every eigenvalue of A is certainly above 1e-8 of the largest, it is the
    plain step, by np.linalg.solve: A - 1e-8 trace(A) I then has a Cholesky factor,
    trace(A) being at least the largest eigenvalue.  Otherwise (A indefinite, or
    nearly singular as along a disk's rotation mode) it is the modified step
    V diag(1/max(|lam|, 1e-9 max|lam|)) V^T g over the eigensystem (lam, V) of A:
    taking moduli makes it an ascent direction where M is indefinite, and the
    floor bounds it along almost-flat modes.  Where the plain step is taken no
    eigenvalue reaches that floor, so the two steps agree there.
    """
    idx = np.flatnonzero(free)
    A = -M[idx[:, None], idx]
    gf = g[idx]
    p = np.zeros(len(g))
    top = A.trace()
    if top > 0:
        shifted = A.copy()
        shifted.reshape(-1)[::len(idx) + 1] -= 1e-8 * top
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:        # an eigenvalue at or below 1e-8 trace(A)
            pass
        else:
            p[idx] = np.linalg.solve(A, gf)
            return p
    lam, V = np.linalg.eigh(A)
    a = np.abs(lam)
    p[idx] = V @ ((V.T @ gf) / np.maximum(a, 1e-9 * a.max()))
    return p


def _ascend(K, starts):
    """Results of _ascent from every start, the ascents run in lockstep.

    Each round projects the trial batches of every unfinished ascent in one
    call, and sums the energies of all its configurations of one size in one
    call, so the cost per call is paid once per round instead of once per
    ascent.  An ascent gets back exactly its own rows, so it runs as it would
    alone.
    """
    x0, x1 = K.bounding_box()[:2]
    first_step = 0.1 * max(1.0, abs(x1 - x0))
    runs = [_ascent(w, first_step) for w in starts]
    results, replies, pairs = [None] * len(runs), [None] * len(runs), {}
    # equal sizes side by side; asks keeps this order as ascents finish
    asks, live = {}, sorted(range(len(runs)), key=lambda i: len(starts[i]))
    while live:
        for i in live:
            try:
                asks[i] = runs[i].send(replies[i])
            except StopIteration as stop:
                results[i] = stop.value
                del asks[i]
            replies[i] = None
        live = list(asks)
        if live:
            points, frame = K._project(np.concatenate([asks[i].reshape(-1) for i in live]))
            at = 0
            for n, group in groupby(live, key=lambda i: asks[i].shape[1]):
                group = list(group)
                rows = sum(len(asks[i]) for i in group)
                block = points[at:at + rows * n].reshape(rows, n)
                if n not in pairs:
                    pairs[n] = _upper_pairs(n)
                energies = _energy(block, pairs[n])
                r = 0
                for i in group:
                    k = len(asks[i])
                    replies[i] = (block[r:r + k], energies[r:r + k],
                                  partial(_frame_row, frame, at + r * n, n))
                    r += k
                at += rows * n
    return results


def _frame_row(frame, at, n, r):
    """Frames of row r of the n-point configurations that start at flat point `at`."""
    return frame(slice(at + r * n, at + (r + 1) * n))


def _ascent(w, first_step):
    """Generator: gradient ascent from w polished by damped Newton steps along the boundary.

    It yields its trial configurations (see _line_search) and returns
    (w, E, iterations, newton_iterations, converged).  Iterations count the
    steps of both kinds, at most _MAX_ITER; converged means a step gained less
    than _ASCENT_RTOL, or 60 halvings of a gradient step found no gain (an
    iteration too).  Newton steps take over once a gradient step gains less than
    _NEWTON_SWITCH with every point on the boundary, and hand back when a point
    is off it, for good when every point is pinned or 30 halvings find no gain;
    each hand-back restarts the gradient step at first_step.  The boundary
    frame of a configuration comes from the projection that made it, right after
    the step, when the switch test or the next Newton step needs it.  Between
    steps an ascent keeps no (len(w) x len(w)) matrix and nothing of other
    ascents' trials, so many ascents can run in lockstep.
    """
    E = float(_energy(w, _upper_pairs(len(w))))
    frame = None
    step = first_step
    switch, newton = _NEWTON_SWITCH, False
    its = newton_its = 0
    while its < _MAX_ITER:
        if newton:
            t, kappa, n, on = frame
            free = t != 0
            found = None
            if on.all() and free.any():
                g, M = _tangent_system(_inverse_differences(w), t, kappa, n)
                p = _newton_direction(g, M, free) * t
                found = yield from _line_search(w, E, p, 1.0, 30)
            if found is None:            # back to gradient steps, for good unless off K
                if on.all():
                    switch = 0.0
                newton, step = False, first_step
                continue
            newton_its += 1
        else:
            gradient = np.conj(_inverse_differences(w).sum(axis=1))
            found = yield from _line_search(w, E, gradient, step, 60)
            if found is None:
                return w, E, its + 1, newton_its, True
        its += 1
        w, E2, frame_of, scale = found
        gain, size = abs(E2 - E), max(1.0, abs(E2))
        E = E2
        if gain < _ASCENT_RTOL * size:
            return w, E, its, newton_its, True
        if newton:
            frame = frame_of()
        else:
            step = scale * 1.3
            if gain < switch * size:
                frame = frame_of()
                newton = frame[3].all()
    return w, E, its, newton_its, False


def _starts(K, j, restarts, seed):
    """fekete_optimize's starts: `restarts` seeded interior samples, then a boundary start."""
    starts = []
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
        starts.append(w0)
    return starts


def _best(j, ends):
    """FeketeResult of the best of the ascents' ends: highest energy, then lexicographic
    point order."""
    best = None
    for ridx, (w, E, its, newton_its, converged) in enumerate(ends):
        order = np.lexsort((w.imag, w.real))
        w = w[order]
        key = (E, tuple((-p.real, -p.imag) for p in w))
        if best is None or key > best[0]:
            jj = float(j)
            best = (key, FeketeResult(j, w, E, math.exp(2.0 * E / (jj * (jj - 1))),
                                      restart=ridx, iterations=its, converged=converged,
                                      newton_iterations=newton_its))
    return best[1]


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
    return _best(j, _ascend(K, _starts(K, j, restarts, seed)))


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
    if K.degenerate():
        raise ValueError("degenerate set: fewer than two distinct points")
    # every j's ascents run in lockstep, each as fekete_optimize would run it
    starts = [_starts(K, j, restarts, seed) for j in _j_schedule(j_max)]
    ends = iter(_ascend(K, [w for s in starts for w in s]))
    results = [_best(len(s[0]), [next(ends) for _ in s]) for s in starts]
    top = results[-1]
    jj = float(top.j)
    log_delta = 2.0 * top.log_energy            # ordered pairs
    estimate = math.exp((log_delta - jj * math.log(jj)) / (jj * (jj - 1)))
    if K.connected:
        cert = estimate * (4.0 * math.exp(-1.0) * math.log(jj) + 4.0) ** (-1.0 / (jj - 1))
    else:
        cert = math.nan
    return CapacityEstimate(estimate, cert, top.j, tuple(results))

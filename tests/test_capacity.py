import math
import warnings

import numpy as np
import pytest

from landauspec import capacity as cap


def test_disk_two_points_antipodal():
    r = cap.fekete_optimize(cap.disk(0.0, 1.0), 2, restarts=4, seed=3)
    assert abs(r.points[0] - r.points[1]) == pytest.approx(2.0, abs=1e-8)
    assert r.log_energy == pytest.approx(math.log(2.0), abs=1e-8)


def test_disk_three_points_equilateral():
    # classical extremal configuration: equilateral triangle on the boundary,
    # log-energy 3 ln sqrt(3)
    r = cap.fekete_optimize(cap.disk(0.0, 1.0), 3, restarts=6, seed=9)
    assert r.log_energy == pytest.approx(3 * math.log(math.sqrt(3.0)), abs=1e-8)
    assert np.abs(np.abs(r.points) - 1.0).max() < 1e-6


def test_delta_consistency_invariant():
    r = cap.fekete_optimize(cap.segment(-1.0, 1.0), 6, restarts=4, seed=1)
    jj = float(r.j)
    assert r.delta_j == pytest.approx(math.exp(2 * r.log_energy / (jj * (jj - 1))), rel=1e-14)
    # energy recomputable from the stored points
    iu = np.triu_indices(r.j, 1)
    E = np.sum(np.log(np.abs(r.points[:, None] - r.points[None, :])[iu]))
    assert E == pytest.approx(r.log_energy, rel=1e-12)
    assert cap.segment(-1.0, 1.0).membership(r.points).all()


def test_degenerate_sets_error():
    with pytest.raises(ValueError):
        cap.fekete_optimize(cap.segment(2.0, 2.0), 4)
    with pytest.raises(ValueError):
        cap.fekete_optimize(cap.disk(0.0, 0.0), 4)
    with pytest.raises(ValueError):
        cap.fekete_optimize(cap.disk(0.0, 1.0), 1)


def test_restart_determinism():
    a = cap.fekete_optimize(cap.disk(1.0 + 1.0j, 2.0), 7, restarts=5, seed=42)
    b = cap.fekete_optimize(cap.disk(1.0 + 1.0j, 2.0), 7, restarts=5, seed=42)
    assert np.array_equal(a.points, b.points)
    assert a.log_energy == b.log_energy and a.restart == b.restart


def test_projection_properties():
    sets = [cap.disk(0.5 - 0.5j, 1.5), cap.segment(-1.0, 2.0 + 1.0j),
            cap.polygon([0, 2.0, 2.0 + 1.0j, 1.0j]),
            cap.set_union([cap.disk(-2.0, 0.5), cap.disk(2.0, 0.5)])]
    rng = np.random.default_rng(0)
    w = rng.normal(size=40) + 1j * rng.normal(size=40)
    for K in sets:
        p = K.project(w)
        assert K.membership(p, tol=1e-9).all()
        p2 = K.project(p)
        assert np.abs(p2 - p).max() < 1e-9   # idempotent


def test_delta_j_monotone_on_convex_sets():
    for K in (cap.disk(0.0, 1.0), cap.segment(-1.0, 1.0)):
        est = cap.capacity_estimate(K, 24, restarts=4, seed=2)
        deltas = [r.delta_j for r in est.per_j]
        for a, b in zip(deltas, deltas[1:]):
            assert b <= a + 1e-6


def test_capacity_disk_estimate():
    est = cap.capacity_estimate(cap.disk(0.0, 1.0), 24, restarts=6, seed=4)
    assert est.estimate == pytest.approx(1.0, rel=0.03)
    assert est.lower_cert <= est.estimate
    # scaling: radius 2 doubles the estimate
    est2 = cap.capacity_estimate(cap.disk(0.0, 2.0), 24, restarts=6, seed=4)
    assert est2.estimate == pytest.approx(2.0 * est.estimate, rel=1e-6)


def test_capacity_segment_estimate():
    # classical value: length / 4
    est = cap.capacity_estimate(cap.segment(-1.0, 1.0), 32, restarts=6, seed=4)
    assert est.estimate == pytest.approx(0.5, rel=0.05)
    assert est.lower_cert <= est.estimate


def test_inclusion_monotonicity():
    inner = cap.capacity_estimate(cap.disk(0.0, 1.0), 16, restarts=4, seed=8)
    outer = cap.capacity_estimate(cap.disk(0.0, 2.0), 16, restarts=4, seed=8)
    assert inner.estimate < outer.estimate * 1.01


def test_union_certificate_suppressed():
    u = cap.set_union([cap.disk(-2.0, 0.5), cap.disk(2.0, 0.5)])
    est = cap.capacity_estimate(u, 12, restarts=3, seed=1)
    assert math.isnan(est.lower_cert)
    assert est.estimate > 0.5   # union beats each member


def test_polygon_square_capacity():
    # known: c(square of side a) = Gamma(1/4)^2 / (4 pi^(3/2)) * a ~ 0.59017 a
    sq = cap.polygon([0, 1.0, 1.0 + 1.0j, 1.0j])
    est = cap.capacity_estimate(sq, 24, restarts=6, seed=13)
    assert est.estimate == pytest.approx(
        math.gamma(0.25) ** 2 / (4 * math.pi ** 1.5), rel=0.05)


# ---------------------------------------------------------------------------
# the fused kernels against the per-pair and per-edge formulas they replace


def _reference_energy(w):
    iu = np.triu_indices(len(w), 1)
    d = np.abs(w[:, None] - w[None, :])[iu]
    return -np.inf if np.any(d == 0) else float(np.sum(np.log(d)))


def _reference_gradient(w):
    diff = w[:, None] - w[None, :]
    np.fill_diagonal(diff, 1.0)
    g = 1.0 / np.conj(diff)
    np.fill_diagonal(g, 0.0)
    return g.sum(axis=1)


def _reference_ascend(K, w, max_iter):
    E = _reference_energy(w)
    step = 0.1 * max(1.0, abs(K.bounding_box()[1] - K.bounding_box()[0]))
    for _ in range(max_iter):
        g = _reference_gradient(w)
        for _ in range(60):
            trial = K.project(w + step * g)
            E2 = _reference_energy(trial)
            if E2 > E:
                break
            step *= 0.5
        else:
            break
        w, E = trial, E2
        step *= 1.3
    return w, E


def test_pair_kernel_matches_pair_sum_and_gradient():
    # the energy is summed in the per-pair order, so it is bit-identical
    rng = np.random.default_rng(11)
    for n in range(2, 41):
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert cap._energy(w, cap._upper_pairs(n)) == _reference_energy(w)
        g = np.conj(cap._inverse_differences(w).sum(axis=1))
        ref = _reference_gradient(w)
        assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()
    w = np.array([0.0, 1.0, 1j, 1.0])             # coincident points: -inf, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cap._energy(w, cap._upper_pairs(4)) == -np.inf


def test_ascent_follows_reference_gradient(monkeypatch):
    # a few ascent iterations with the per-pair energy and the explicit gradient
    # must land on the same points as the ascent on the pair energy and inverse differences
    # (gradient steps only: no gain is small enough to hand over to Newton steps)
    monkeypatch.setattr(cap, "_NEWTON_SWITCH", 0.0)
    monkeypatch.setattr(cap, "_MAX_ITER", 4)
    rng = np.random.default_rng(5)
    sets = [cap.disk(0.3j, 1.0), cap.polygon([0, 1.0, 1.0 + 1.0j, 1.0j]),
            cap.set_union([cap.disk(-2.0, 0.5), cap.disk(2.0, 0.5)])]
    for n in (2, 3, 9, 24, 40):
        for K in sets:
            w0 = K.sample(n, rng)
            w, E, its, newton_its, _ = cap._ascend(K, [w0])[0]
            w_ref, E_ref = _reference_ascend(K, w0, 4)
            assert (its, newton_its) == (4, 0)
            assert np.array_equal(w, w_ref) and E == E_ref


def _reference_polygon(vertices, w, tol=1e-12):
    """Per-edge loops: nearest boundary point and crossing-number membership."""
    n = len(vertices)
    inside = np.zeros(w.shape, dtype=bool)
    best, best_d = None, None
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        crosses = (a.imag > w.imag) != (b.imag > w.imag)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = a.real + (w.imag - a.imag) * (b.real - a.real) / (b.imag - a.imag)
        inside ^= crosses & (w.real < xint)
        d = b - a
        t = np.clip(((w - a) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
        p = a + t * d
        dist = np.abs(p - w)
        if best is None:
            best, best_d = p, dist
        else:
            take = dist < best_d
            best, best_d = np.where(take, p, best), np.where(take, dist, best_d)
    return best, inside | (best_d <= tol)


@pytest.mark.parametrize("vertices", [
    [0, 1.0, 1.0 + 1.0j, 1.0j],                                   # square
    [0.2 - 0.1j, 1.7 - 0.1j, 0.95 + 1.199j],                      # triangle
    [0, 2.0, 2.0 + 1.0j, 1.0 + 1.0j, 1.0 + 2.0j, 2.0j]],          # L-shaped hexagon
    ids=["square", "triangle", "l-hexagon"])
def test_polygon_project_and_membership_match_per_edge_loops(vertices):
    K = cap.polygon(vertices)
    v = np.array(vertices, dtype=complex)
    rng = np.random.default_rng(3)
    w = np.concatenate([rng.normal(1.0, 1.2, 400) + 1j * rng.normal(1.0, 1.2, 400),
                        v, 0.5 * (v + np.roll(v, -1))])
    nearest, inside = _reference_polygon(K.vertices, w)
    assert np.array_equal(K.membership(w), inside)
    assert np.abs(K.project(w) - np.where(inside, w, nearest)).max() <= 1e-14
    for tol in (0.0, 1e-3, 0.1):
        assert np.array_equal(K.membership(w, tol=tol), _reference_polygon(K.vertices, w, tol)[1])
    assert K.membership(v).all() and K.membership(0.5 * (v + np.roll(v, -1))).all()


@pytest.mark.parametrize("K,j,iterations,newton_iterations,log_energy,gradient_only", [
    (cap.segment(-1.0, 1.0), 16, 37, 3, -55.11557961053518, -55.115579679641236),
    (cap.polygon([0, 1.0, 1.0 + 1.0j, 1.0j]), 12, 15, 4, -18.759551303146022, -18.759551311232027),
    (cap.set_union([cap.disk(-2.0, 0.5), cap.disk(2.0, 0.5)]), 11, 17, 6, 34.2752291868156,
     34.27522890301398)],
    ids=["segment", "square", "two-disks"])
def test_fekete_iterates_pinned(K, j, iterations, newton_iterations, log_energy, gradient_only):
    # iteration counts and energies of the two-phase ascent; gradient_only is the
    # energy the projected-gradient ascent alone reached, which the Newton polish
    # must not lose
    r = cap.fekete_optimize(K, j, restarts=1, seed=1)
    assert (r.iterations, r.newton_iterations, r.converged) == (iterations, newton_iterations, True)
    assert r.log_energy == pytest.approx(log_energy, rel=1e-12, abs=0)
    assert r.log_energy >= gradient_only


_COMB = [0, 4.0, 4.0 + 2.0j, 3.5 + 2.0j, 3.5 + 0.5j, 2.5 + 0.5j, 2.5 + 2.0j, 1.5 + 2.0j,
         1.5 + 0.5j, 0.5 + 0.5j, 0.5 + 2.0j, 2.0j]


@pytest.mark.parametrize("vertices,j,seed,restart,iterations,newton_iterations,log_energy", [
    ([0, 1.0, 0.5 + 0.9j], 2, 1, 1, 9, 6, 0.029134454063360796),
    ([0, 1.0, 1.0 + 1.0j, 1.0j], 2, 3, 0, 9, 0, 0.34657359028071477),
    (_COMB, 12, 1, 1, 25, 7, 52.54217903900956)],
    ids=["triangle-all-pinned", "square-all-pinned", "comb-off-boundary"])
def test_ascent_hand_backs_pinned(vertices, j, seed, restart, iterations, newton_iterations,
                                  log_energy):
    # the Newton steps of the boundary start (restart 1) hand back to gradient steps:
    # on the triangle and the square once both points sit on vertices, every point
    # pinned; on the comb once a step leaves a point off the boundary.  The
    # triangle's and the comb's reported configurations come from that start.
    r = cap.fekete_optimize(cap.polygon(vertices), j, restarts=1, seed=seed)
    assert (r.restart, r.iterations, r.newton_iterations, r.converged) == \
        (restart, iterations, newton_iterations, True)
    assert r.log_energy == pytest.approx(log_energy, rel=1e-12, abs=0)


def test_ascent_reports_max_iter_as_not_converged(monkeypatch):
    monkeypatch.setattr(cap, "_MAX_ITER", 3)
    r = cap.fekete_optimize(cap.segment(-1.0, 1.0), 16, restarts=1, seed=1)
    assert r.iterations == 3 and not r.converged


@pytest.mark.parametrize("vertices", [
    [0, 1.0 + 1.0j, 2.0 + 2.0j], [0, 1.0], [0], [],
    [1e6 + 0.1j * k for k in range(4)]])
def test_zero_area_polygon_refused(vertices):
    with pytest.raises(ValueError, match="use a segment"):
        cap.polygon(vertices)


def test_sliver_polygon_sampling_gives_up():
    sliver = cap.polygon([0, 1.0 + 1.0j, 2.0 + 2.000000001j])     # area 5e-10
    with pytest.raises(ValueError, match="too thin to sample"):
        cap.fekete_optimize(sliver, 8, restarts=1)


def test_union_with_degenerate_member_refused():
    # a one-point member made project() divide by zero and the ascent stop at once
    with pytest.raises(ValueError, match="union member 1 is a degenerate segment"):
        cap.set_union([cap.disk(0.0, 1.0), cap.segment(5.0, 5.0)])
    with pytest.raises(ValueError, match="union member 0 is a degenerate disk"):
        cap.set_union([cap.disk(5.0, 0.0), cap.disk(0.0, 1.0)])


# ---------------------------------------------------------------------------
# the Newton phase: boundary frames and the tangent Hessian


def test_boundary_frame_geometry():
    t, kappa, n, on = cap.disk(1.0 + 1.0j, 2.0).boundary_frame(np.array([3.0 + 1.0j, 1.0 + 1.0j]))
    assert t[0] == pytest.approx(1j) and kappa[0] == 0.5 and n[0] == pytest.approx(1.0)
    assert list(on) == [True, False]
    t, kappa, n, on = cap.segment(0.0, 2.0).boundary_frame(np.array([0.0, 1.0, 2.0, 1.0 + 0.5j]))
    assert list(t[:3]) == [0, 1, 0] and not kappa.any() and list(on) == [True, True, True, False]
    ccw = [0, 1.0, 1.0 + 1.0j, 1.0j]
    for vertices in (ccw, ccw[::-1]):
        w = np.array([0.5, 1.0 + 0.5j, 1.0, 0.5 + 0.5j])   # two edge midpoints, a vertex, the centre
        t, kappa, n, on = cap.polygon(vertices).boundary_frame(w)
        assert np.allclose(n[:2], [-1j, 1.0]) and abs(t[0]) == 1 and t[2] == 0
        assert not kappa.any() and list(on) == [True, True, True, False]
    u = cap.set_union([cap.disk(-2.0, 0.5), cap.disk(2.0, 1.0)])
    t, kappa, n, on = u.boundary_frame(np.array([-1.5, 1.0, 2.0]))
    assert list(kappa) == [2.0, 1.0, 1.0] and list(on) == [True, True, False]
    assert np.allclose(n[:2], [1.0, -1.0])


def _same_bits(a, b):
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(map(np.asarray, a), map(np.asarray, b)))


_SQUARE = [0, 1.0, 1.0 + 1.0j, 1.0j]


@pytest.mark.parametrize("K", [
    cap.disk(0.3 - 0.2j, 1.2), cap.segment(-1.0 - 0.5j, 1.0 + 0.5j), cap.polygon(_SQUARE),
    cap.polygon(_SQUARE[::-1]), cap.polygon([0.2 - 0.1j, 1.7 - 0.1j, 0.95 + 1.199j]),
    cap.set_union([cap.disk(-2.0, 0.5), cap.polygon([1.0, 2.0, 2.0 + 1.0j, 1.0 + 1.0j])])],
    ids=["disk", "segment", "square-ccw", "square-cw", "triangle", "union"])
def test_frame_from_projection_is_boundary_frame_of_projection(K):
    # the frames a projection reads off its own search are those a second search finds
    rng = np.random.default_rng(17)
    x0, x1, y0, y1 = K.bounding_box()
    mid, size = complex(x0 + x1, y0 + y1) / 2, max(x1 - x0, y1 - y0)
    corners = np.array([*K.vertices, K.a, K.b, *(m.center for m in K.members)])
    w = np.concatenate([
        mid + size * (rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300)),
        (corners[:, None] + 10.0 ** rng.uniform(-14, -6, (len(corners), 12))
         * np.exp(2j * np.pi * rng.uniform(size=(len(corners), 12)))).reshape(-1),
        mid + 0.2 * size * rng.normal(size=40)])        # near the middle: a union's gap
    p, frame = K._project(w)
    assert _same_bits(frame(slice(None)), K.boundary_frame(p))
    assert _same_bits(frame(slice(100, 160)), K.boundary_frame(p[100:160]))


@pytest.mark.parametrize("K", [cap.polygon([0, 1.5, 1.5 + 1.5j, 1.5j]),
                               cap.set_union([cap.disk(-2.0, 0.5), cap.disk(2.0, 0.5)])],
                         ids=["square", "two-disks"])
def test_ascent_searches_once_per_projection(K, monkeypatch):
    # the boundary frames of the ascent come from the projections' own nearest-edge or
    # nearest-member searches: one search per projection, plus one per sampling batch
    counts = {"searches": 0, "projections": 0, "samples": 0}

    def count(name, key, of=None):
        method = getattr(cap.CompactSet, name)

        def counted(self, *args, **kwargs):
            counts[key] += of is None or self is of
            return method(self, *args, **kwargs)
        monkeypatch.setattr(cap.CompactSet, name, counted)
    count("_polygon_nearest", "searches")
    count("_nearest_member", "searches")
    count("_project", "projections", K)
    count("membership", "samples", K)
    cap.capacity_estimate(K, 16, restarts=1, seed=1)
    assert counts["projections"] > 0
    assert counts["searches"] == counts["projections"] + counts["samples"]


def _arc_move(w, frame, s):
    """Points moved by arc lengths s along the boundary: turned about the centre of
    curvature where kappa > 0, along the tangent on edges."""
    t, kappa, n, _ = frame
    centre = w - n / np.where(kappa > 0, kappa, 1.0)
    return np.where(kappa > 0, centre + (w - centre) * np.exp(1j * s * kappa), w + s * t)


def _tangent_gradient(K, w):
    E = cap._energy(w, cap._upper_pairs(len(w)))
    frame = K.boundary_frame(w)
    return E, frame, cap._tangent_system(cap._inverse_differences(w), *frame[:3])


_ARC = 0.4 + 0.1j + 1.3 * np.exp(1j * np.linspace(0.2, 1.6, 6))


@pytest.mark.parametrize("K,w,route", [
    (cap.disk(0.4 + 0.1j, 1.3), _ARC, "eigen"),                     # the rotation null mode
    # the same null mode, but -M rounds to a matrix with a Cholesky factor
    (cap.disk(0.4 + 0.1j, 1.3), 0.4 + 0.1j + 1.3 * np.exp(1j * np.linspace(0.2, 1.6, 4)), "eigen"),
    (cap.polygon([0, 2.0, 1.0 + 1.5j]), np.array([0.0, 0.7, 1.3, 1.6 + 0.6j, 0.4 + 0.6j]),
     "eigen"),                                                       # indefinite
    (cap.segment(-1.0 - 0.5j, 1.0 + 0.5j), np.array([-1.0 - 0.5j, -0.4 - 0.2j, 0.2 + 0.1j, 0.8 + 0.4j]),
     "cholesky"),
    (cap.set_union([cap.disk(-2.0, 0.5), cap.disk(2.0, 1.0)]),
     np.array([-2.0 + 0.5j, -2.5, 3.0, 2.0 - 1.0j, 2.0 + np.exp(2.0j)]), "cholesky")],
    ids=["disk-arc", "disk-arc-factorable", "polygon-edges", "segment-interior",
         "union-members"])
def test_tangent_hessian_matches_central_differences(K, w, route, monkeypatch):
    # the exact gradient and Hessian of E along the boundary, in arc length per point,
    # against central differences of E and of the tangent gradient
    E, frame, (g, M) = _tangent_gradient(K, w)
    assert frame[3].all()
    free = np.flatnonzero(frame[0] != 0)
    assert len(free) >= 3
    h = 1e-5
    for k in free:
        s = np.zeros(len(w))
        s[k] = h
        up, down = _arc_move(w, frame, s), _arc_move(w, frame, -s)
        E_up, _, (g_up, _) = _tangent_gradient(K, up)
        E_down, _, (g_down, _) = _tangent_gradient(K, down)
        assert (E_up - E_down) / (2 * h) == pytest.approx(g[k], rel=1e-6, abs=1e-6 * abs(g).max())
        column = (g_up - g_down) / (2 * h)
        assert np.abs(column[free] - M[free, k]).max() <= 1e-6 * np.abs(M).max()
    pinned = frame[0] == 0
    assert not g[pinned].any()
    # the modified Newton step solves A p = g on the free points, A being -M with its
    # eigenvalues replaced by max(|lam|, 1e-9 max|lam|), so it climbs: g . p > 0; it
    # comes from an eigensystem only where some eigenvalue is not well above that floor
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    p = cap._newton_direction(g, M, ~pinned)
    monkeypatch.undo()
    assert ("eigen" if calls else "cholesky") == route
    lam, V = np.linalg.eigh(-M[np.ix_(free, free)])
    a = np.maximum(np.abs(lam), 1e-9 * np.abs(lam).max())
    assert np.abs(V @ (a * (V.T @ p[free])) - g[free]).max() <= 1e-12 * np.abs(g).max()
    assert np.abs(p[free] - V @ ((V.T @ g[free]) / a)).max() <= 1e-12 * np.abs(p).max()
    assert not p[pinned].any() and g @ p > 0


# the benchmark's five shapes at their j_max, with the per-j best log-energies the
# projected-gradient ascent alone reached at restarts 1, seed 1
_BENCHMARK_SHAPES = {
    "disk": (cap.disk(0.0, 1.5), 40, [
        19.67078919374795, 35.48900494634009, 70.83652275089798, 138.64085583455082,
        271.77795184530777, 390.04037340664706]),
    "segment": (cap.segment(0.0, 2.0), 32, [
        -8.076797420205141, -20.836835315093634, -55.115579679641236, -130.95280215875817,
        -276.83195525626195]),
    "square": (cap.polygon([0, 1.5, 1.5 + 1.5j, 1.5j]), 24, [
        6.007272607008433, 7.454529318539006, 8.715140229762696, 6.287124296174827,
        5.692355771935642]),
    "triangle": (cap.polygon([0, 1.5, 1.5 * complex(0.5, math.sqrt(3) / 2)]), 24, [
        -3.464624765839643, -10.90501413752091, -31.620670066836606, -78.59298598484773,
        -87.00549885780649]),
    "two-disks": (cap.set_union([cap.disk(-2.0, 0.5), cap.disk(2.0, 0.5)]), 24, [
        19.79273077905474, 34.27522890301398, 67.68437659706693, 129.47428363630075,
        140.3898835766555]),
}


@pytest.mark.parametrize("name", list(_BENCHMARK_SHAPES))
def test_newton_polish_loses_no_energy(name):
    # Newton steps pin polygon vertices; they must not trade a maximum for a worse one
    K, j_max, gradient_only = _BENCHMARK_SHAPES[name]
    est = cap.capacity_estimate(K, j_max, restarts=1, seed=1)
    assert all(r.converged for r in est.per_j)
    assert [r.j for r in est.per_j] == cap._j_schedule(j_max)
    for r, old in zip(est.per_j, gradient_only):
        assert r.log_energy >= old, (r.j, r.log_energy, old)

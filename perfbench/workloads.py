"""Job lists of the four workloads, drawn from the workload seed.

A job is a dict:

    name          unique within the workload
    call          {"cli": <subcommand>, "config": {...}}   a landauspec CLI run
                  {"sandwich": {...}}                       birman_schwinger_check
    known_fault   None, or the tag of a program fault that makes this job's
                  output wrong on every run (its inputs never depend on the seed)

Every seeded parameter is drawn from a range on which the job passes today;
the ranges are listed in README.md.  The number and size of the jobs never
depend on the seed, so the work per round is the same on every seed.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("decay-cold", "decay-warm", "level-spectrum", "capacity")

# profile blocks of the two faults kept in the decay workloads
K1_PROFILE = {"kind": "exp_beta", "gamma": 1.0, "beta": 0.5}
K2_PROFILE = {"kind": "exp_beta", "gamma": 1.0, "beta": 2.0}
K1_RADIAL_COUNT = 64
K1_CHECK_KS = [0, 1, 2, 5, 63]


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _cli(name, command, config, known_fault=None):
    return {"name": name, "call": {"cli": command, "config": config},
            "known_fault": known_fault}


# ---------------------------------------------------------------------------
# decay-cold / decay-warm: one job list, run cold or warm


def decay_jobs(seed):
    r = _rng(seed, 1)
    jobs = []

    def tp(name, profile, b, q, count, model=None):
        cfg = {"zeta": profile, "b": b, "q": q, "count": count}
        if model is not None:
            cfg["model"] = model
        jobs.append(_cli(name, "toeplitz", cfg))

    tp("toeplitz-gaussian-q0",
       {"kind": "gaussian", "rate": _u(r, 0.2, 1.0), "amplitude": _u(r, 0.5, 2.0)},
       _u(r, 1.0, 3.0), 0, 401, {"kind": "exp"})
    tp("toeplitz-gaussian-q1",
       {"kind": "gaussian", "rate": _u(r, 0.1, 0.6), "amplitude": _u(r, 0.5, 2.0)},
       _u(r, 1.0, 3.0), 1, 300)
    tp("toeplitz-gaussian-q3",
       {"kind": "gaussian", "rate": _u(r, 0.1, 0.6), "amplitude": _u(r, 0.5, 2.0)},
       _u(r, 1.0, 3.0), 3, 200)
    tp("toeplitz-power-q0",
       {"kind": "power", "gamma": _u(r, 1.0, 4.0), "amplitude": _u(r, 0.5, 2.0)},
       _u(r, 1.0, 3.0), 0, 200)
    tp("toeplitz-power-q1",
       {"kind": "power", "gamma": _u(r, 1.0, 4.0), "amplitude": _u(r, 0.5, 2.0)},
       _u(r, 1.0, 3.0), 1, 200)
    cutoff = _u(r, 0.5, 2.0)
    tp("toeplitz-disk-q0",
       {"kind": "disk_indicator", "cutoff": cutoff, "amplitude": _u(r, 0.5, 2.0)},
       _u(r, 1.0, 3.0), 0, 401, {"kind": "compact", "capacity": math.sqrt(cutoff)})
    tp("toeplitz-expbeta2-q0",
       {"kind": "exp_beta", "gamma": _u(r, 0.5, 1.0), "beta": 2.0,
        "amplitude": _u(r, 0.5, 2.0)},
       _u(r, 2.0, 3.0), 0, 300, {"kind": "exp"})
    jobs.append(_cli("radial-eigs-gaussian", "radial-eigs", {
        "profile": {"kind": "gaussian", "rate": _u(r, 0.2, 0.9),
                    "amplitude": _u(r, 0.5, 2.0)},
        "count": 64}))
    jobs.append(_cli("asymptotics-exp-sub", "asymptotics", {
        "kind": "exp", "beta": _u(r, 0.3, 0.7), "gamma": _u(r, 0.5, 1.5),
        "b": _u(r, 1.0, 3.0), "k_range": [2, 400]}))
    jobs.append(_cli("asymptotics-exp-super", "asymptotics", {
        "kind": "exp", "beta": _u(r, 1.5, 3.0), "gamma": _u(r, 0.5, 1.5),
        "b": _u(r, 1.0, 3.0), "k_range": [2, 400]}))
    jobs.append(_cli("asymptotics-compact", "asymptotics", {
        "kind": "compact", "b": _u(r, 1.0, 3.0), "capacity": _u(r, 0.5, 2.0),
        "k_range": [2, 400]}))
    # the two faults that fail on every run; fixed inputs
    jobs.append(_cli("K1-toeplitz-expbeta05", "toeplitz",
                     {"zeta": K1_PROFILE, "b": 2.0, "q": 0, "count": 401}, "K1"))
    jobs.append(_cli("K1-radial-eigs-expbeta05", "radial-eigs",
                     {"profile": K1_PROFILE, "count": K1_RADIAL_COUNT}, "K1"))
    jobs.append(_cli("K2-toeplitz-expbeta2-q1", "toeplitz",
                     {"zeta": K2_PROFILE, "b": 1.0, "q": 1, "count": 200}, "K2"))
    return jobs


def cached_oracle_requests():
    """Oracle inputs that never depend on the seed (kept in oracle_cache.json)."""
    return {
        "K1-radial-weyl": {"what": "weyl", "profile": K1_PROFILE, "ks": K1_CHECK_KS},
        "K1-radial-antiwick": {"what": "antiwick", "profile": K1_PROFILE,
                               "ks": K1_CHECK_KS},
    }


# ---------------------------------------------------------------------------
# level-spectrum


def level_jobs(seed):
    r = _rng(seed, 2)
    jobs = []

    def gauss(rate, amp=1.0):
        return {"kind": "gaussian", "rate": rate, "amplitude": amp}

    b = _u(r, 0.8, 1.5)
    terms = [{"coeff": _u(r, 0.5, 2.0), "A": gauss(_u(r, 0.2, 0.9)),
              "B": gauss(_u(r, 0.2, 0.9))} for _ in range(4)]
    jobs.append(_cli("spectrum-gaussian", "spectrum", {
        "b": b, "levels": 8, "radial": 48, "sign": "-",
        "symbol": {"separable": {"frame": "lab", "terms": terms}}}))

    b = _u(r, 0.8, 1.5)
    # planted shifts: level_kernel(q) x level_kernel(k) pairs to 1/(4 pi^2)
    planted = [(0, 0), (1, 2), (2, 1)]
    terms = [{"coeff": 4.0 * math.pi ** 2 * _u(r, 0.1, 0.9) * b,
              "A": {"kind": "level_kernel", "q": q},
              "B": {"kind": "level_kernel", "q": k}} for q, k in planted]
    jobs.append(_cli("spectrum-level-kernel", "spectrum", {
        "b": b, "levels": 4, "radial": 16, "sign": "-",
        "symbol": {"separable": {"frame": "lab", "terms": terms}}}))

    for name, mult, levels, radial in (("construct-gaps-4x24", [2, 0, 1], 4, 24),
                                       ("construct-gaps-8x48", [2, 1, 1, 0, 1, 0, 1], 8, 48)):
        b = _u(r, 0.8, 1.5)
        top = _u(r, 1.5, 1.9) * b
        level_scales = sorted((_u(r, 0.05, 1.0) * top for _ in mult), reverse=True)
        index_scales = sorted((_u(r, 0.05, 0.95) for _ in range(max(mult))), reverse=True)
        jobs.append(_cli(name, "construct-gaps", {
            "b": b, "multiplicities": mult, "level_scales": level_scales,
            "index_scales": index_scales, "verify": True,
            "levels": levels, "radial": radial}))

    jobs.append({"name": "sandwich-r0", "known_fault": None, "call": {"sandwich": {
        "rate": _u(r, 0.2, 0.3), "r": 0, "q": 0, "b": _u(r, 0.8, 1.25),
        "levels": 3, "radial": 64, "k_range": [5, 30], "order": None}}})
    jobs.append({"name": "sandwich-r1", "known_fault": None, "call": {"sandwich": {
        "rate": _u(r, 0.22, 0.28), "r": 1, "q": 0, "b": 1.0,
        "levels": 2, "radial": 24, "k_range": [4, 10], "order": 32}}})
    return jobs


# ---------------------------------------------------------------------------
# capacity


def capacity_jobs(seed):
    r = _rng(seed, 3)
    jobs = []

    def pt(v):
        return [v.real, v.imag]

    # One seeded interior restart plus the boundary start, instead of the CLI's
    # eight plus one: the estimates are the same on every seed tried, and a
    # round takes about 2 s instead of 10 s, so a run holds several rounds and
    # job_p50_s is a median over many jobs, not the middle job of one round.
    def job(name, set_cfg, j_max, truth):
        jobs.append(dict(_cli(name, "capacity", {"set": set_cfg, "j_max": j_max,
                                                 "restarts": 1, "seed": 1}),
                         truth=truth))

    c = complex(_u(r, -1, 1), _u(r, -1, 1))
    radius = 1.5
    job("capacity-disk", {"kind": "disk", "center": pt(c), "radius": radius}, 40,
        {"kind": "disk", "radius": radius})
    a = complex(_u(r, -1, 1), _u(r, -1, 1))
    length = 2.0
    job("capacity-segment", {"kind": "segment", "a": pt(a), "b": pt(a + length)}, 32,
        {"kind": "segment", "length": length})
    a = complex(_u(r, -1, 1), _u(r, -1, 1))
    side = 1.5
    job("capacity-square", {"kind": "polygon", "vertices": [
        pt(a), pt(a + side), pt(a + side * (1 + 1j)), pt(a + side * 1j)]}, 24,
        {"kind": "square", "side": side})
    a = complex(_u(r, -1, 1), _u(r, -1, 1))
    side = 1.5
    job("capacity-triangle", {"kind": "polygon", "vertices": [
        pt(a), pt(a + side), pt(a + side * complex(0.5, math.sqrt(3) / 2))]}, 24,
        {"kind": "triangle", "side": side})
    c = complex(_u(r, -1, 1), _u(r, -1, 1))
    rad = 0.5
    half = 2.0
    job("capacity-two-disks", {"kind": "union", "members": [
        {"kind": "disk", "center": pt(c - half), "radius": rad},
        {"kind": "disk", "center": pt(c + half), "radius": rad}]}, 24,
        {"kind": "two-disks", "radius": rad, "half_distance": half})
    return jobs


def jobs_for(workload, seed):
    if workload in ("decay-cold", "decay-warm"):
        return decay_jobs(seed)
    if workload == "level-spectrum":
        return level_jobs(seed)
    if workload == "capacity":
        return capacity_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")

"""Checks of every job's output against values computed apart from the program.

prepare(job) computes the reference values (outside every timed phase);
verify(job, expected, result) compares the program's output with them and
returns (ok, detail).  Tolerances:

  ln nu_k, anti-Wick and Weyl sequences   1e-9 relative (pinned below)
  decay-law predictions                   1e-8 relative
  capacities                              the acceptance suite's tolerances
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles

LOG_TOL = 1e-9          # |ln nu - ln nu_ref|
SEQ_RTOL = 1e-9         # radial eigenvalue sequences, relative
SEQ_ATOL = 1e-13        # ... plus this much of the amplitude
PRED_RTOL = 1e-8        # decay-law predictions, relative to max(1, |value|)
COEF_RTOL = 1e-6        # decay-law coefficients, relative
SPEC_TOL = 1e-9         # level-basis eigenvalues, absolute
PLANT_TOL = 1e-8        # construct-gaps eigenvalue errors (acceptance criterion 9)
SHIFT_RTOL = 1e-9       # sandwich shifts at r = 0 against the closed form, relative
SHIFT_ATOL = 1e-12      # ... plus this much (the eigensolve resolves ~4e-15 absolute)
CAP_RTOL = {"disk": 0.03, "segment": 0.05, "square": 0.05, "triangle": 0.05}

def _sample_ks(count):
    """Indices checked by quadrature oracles: the small-k edge and a log spread."""
    ks = {0, 1, 2, 3, 5, 8, 13, 19, 20, 21, 30, 50, 80, 120, 199, 299, count - 1}
    return sorted(k for k in ks if k < count)


# ---------------------------------------------------------------------------
# reference values


def prepare(job):
    call = job["call"]
    if "sandwich" in call:
        return _prepare_sandwich(call["sandwich"])
    cmd, cfg = call["cli"], call["config"]
    if cmd == "toeplitz":
        return _prepare_toeplitz(cfg)
    if cmd == "radial-eigs":
        return _prepare_radial(cfg)
    if cmd == "asymptotics":
        return _prepare_asymptotics(cfg)
    if cmd == "spectrum":
        return _prepare_spectrum(cfg)
    if cmd == "construct-gaps":
        return _prepare_gaps(cfg)
    if cmd == "capacity":
        return _prepare_capacity(job)
    raise ValueError(f"no oracle for {cmd!r}")


def _model_prediction(model, zeta, b, ks):
    if model is None:
        return None
    if model["kind"] == "compact":
        return oracles.predict_compact(ks, b, model["capacity"])
    gamma = zeta["rate"] if zeta["kind"] == "gaussian" else zeta["gamma"]
    beta = 1.0 if zeta["kind"] == "gaussian" else zeta["beta"]
    return oracles.predict_exp(ks, beta, gamma * (2.0 / b) ** beta)


def _prepare_toeplitz(cfg):
    zeta, b, q, count = cfg["zeta"], cfg["b"], cfg["q"], cfg["count"]
    closed = zeta["kind"] in ("gaussian", "disk_indicator")
    ks = list(range(count)) if closed else _sample_ks(count)
    pred_ks = list(range(2, count))
    return {"ks": ks, "ln_nu": oracles.toeplitz_log(zeta, b, q, ks),
            "monotone": q == 0,
            "prediction": _model_prediction(cfg.get("model"), zeta, b, pred_ks)}


def _prepare_radial(cfg):
    prof, count = cfg["profile"], cfg["count"]
    amp = prof.get("amplitude", 1.0)
    if prof["kind"] == "gaussian":
        ks = list(range(count))
        return {"ks": ks, "amp": amp,
                "mu_w": oracles.weyl_gaussian(amp, prof["rate"], ks),
                "mu_aw": oracles.antiwick_gaussian(amp, prof["rate"], ks)}
    cache = oracles.load_cache()   # K1's fixed input; see oracles.build_cache
    return {"ks": cache["K1-radial-weyl"]["request"]["ks"], "amp": amp,
            "mu_w": cache["K1-radial-weyl"]["values"],
            "mu_aw": cache["K1-radial-antiwick"]["values"]}


def _exp_mu(cfg):
    return cfg["gamma"] * (2.0 / cfg["b"]) ** cfg["beta"]


def _prepare_asymptotics(cfg):
    lo, hi = cfg["k_range"]
    ks = list(range(max(2, lo), hi + 1))
    if cfg["kind"] == "compact":
        return {"ks": ks, "prediction": oracles.predict_compact(ks, cfg["b"], cfg["capacity"])}
    mu = _exp_mu(cfg)
    return {"ks": ks, "mu": mu, "prediction": oracles.predict_exp(ks, cfg["beta"], mu),
            "coefficients": oracles.exp_coeffs(cfg["beta"], mu)}


def _levels(b, n):
    return [b * (2 * q + 1) for q in range(n)]


def _weyl_profile(prof, n):
    """Weyl eigenvalues of a radial profile block in closed form."""
    if prof["kind"] == "gaussian":
        return oracles.weyl_gaussian(prof.get("amplitude", 1.0), prof["rate"], range(n))
    if prof["kind"] == "level_kernel":
        # Moyal orthogonality: the diagonal kernel of level q pairs to 1/(2 pi)
        amp = prof.get("amplitude", 1.0)
        return [amp / (2 * math.pi) if j == prof["q"] else 0.0 for j in range(n)]
    raise ValueError(prof["kind"])


def _window_counts(eigs, b, levels):
    """(fewest, most) eigenvalues in each open gap window.

    Windows are shrunk by the spectrum's clustering tolerance, 1e-10 of the
    Frobenius norm (sqrt of the sum of squared eigenvalues); an eigenvalue
    within SPEC_TOL of a shrunk edge may fall on either side.
    """
    tol = 1e-10 * math.sqrt(sum(e * e for e in eigs))
    lam = _levels(b, levels + 1)

    def count(lo, hi):
        inside = sum(1 for e in eigs if lo + tol + SPEC_TOL < e < hi - tol - SPEC_TOL)
        near = sum(1 for e in eigs if lo + tol - SPEC_TOL < e < hi - tol + SPEC_TOL)
        return inside, near

    out = {}
    for q in range(levels):
        lo = lam[q - 1] if q >= 1 else -math.inf
        out[(q, "-")] = count(lo, lam[q])
        out[(q, "+")] = count(lam[q], lam[q + 1])
    return out


def _prepare_spectrum(cfg):
    b, Q, K = cfg["b"], cfg["levels"], cfg["radial"]
    sign = -1.0 if cfg.get("sign", "+") in ("-", "minus") else 1.0
    lam = _levels(b, Q)
    shift = np.zeros((Q, K))
    for t in cfg["symbol"]["separable"]["terms"]:
        shift += t["coeff"] * np.outer(_weyl_profile(t["A"], Q), _weyl_profile(t["B"], K))
    eigs = sorted((lam[q] + sign * shift[q, k]) for q in range(Q) for k in range(K))
    return {"eigenvalues": eigs, "windows": _window_counts(eigs, b, Q)}


def _prepare_gaps(cfg):
    b = cfg["b"]
    lam = _levels(b, len(cfg["multiplicities"]))
    planted = [(q, k, lam[q] - cfg["level_scales"][q] * cfg["index_scales"][k])
               for q, m in enumerate(cfg["multiplicities"]) for k in range(m)]
    return {"planted": planted, "counts": list(cfg["multiplicities"])}


def _closed_sandwich_nu(rate, b, r, count):
    ln = oracles.toeplitz_log_gaussian(1.0, rate, b, r, range(count))
    return sorted((math.exp(v) for v in ln), reverse=True)


def _prepare_sandwich(p):
    k_lo, k_hi = p["k_range"]
    out = {"nu": _closed_sandwich_nu(p["rate"], p["b"], p["r"], k_hi + 3 + 2)}
    if p["r"] == 0:
        # anti-Wick eigenvalues of the swapped weight: (1 + 2a/b)^-(k+1)
        out["shifts"] = [math.exp(v) for v in
                         oracles.toeplitz_log_gaussian(1.0, p["rate"], p["b"], 0,
                                                       range(k_hi + 1))]
    return out


def _prepare_capacity(job):
    t = job["truth"]
    kind = t["kind"]
    if kind == "disk":
        return {"capacity": t["radius"], "rtol": CAP_RTOL["disk"]}
    if kind == "segment":
        return {"capacity": t["length"] / 4.0, "rtol": CAP_RTOL["segment"]}
    if kind == "square":
        return {"capacity": oracles.capacity_square(t["side"]), "rtol": CAP_RTOL["square"]}
    if kind == "triangle":
        return {"capacity": oracles.capacity_triangle(t["side"]),
                "rtol": CAP_RTOL["triangle"]}
    # union of two disjoint disks: each member below, the enclosing disk above
    return {"lower": t["radius"], "upper": t["half_distance"] + t["radius"]}


# ---------------------------------------------------------------------------
# comparisons


class CheckFailure(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailure(msg)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {h: np.array([float(r[i]) for r in body]) for i, h in enumerate(header)}
    return cols, len(body)


def verify(job, expected, result):
    """(ok, detail) for one job; result is the output directory or a dict."""
    try:
        call = job["call"]
        if "sandwich" in call:
            _verify_sandwich(call["sandwich"], expected, result)
        else:
            _VERIFIERS[call["cli"]](call["config"], expected, Path(result))
    except CheckFailure as exc:
        return False, str(exc)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return False, f"unreadable output: {exc!r}"
    return True, "ok"


def _verify_toeplitz(cfg, exp, out):
    cols, n = _read_csv(out / "toeplitz.csv")
    _require(n == cfg["count"], f"{n} rows for count {cfg['count']}")
    _require(np.array_equal(cols["k"], np.arange(n)), "k column out of order")
    ln = cols["ln_nu_k"]
    _require(np.all(np.isfinite(ln)), "non-finite ln nu_k")
    ks = exp["ks"]
    err = np.abs(ln[ks] - np.array(exp["ln_nu"]))
    i = int(np.argmax(err))
    _require(err[i] <= LOG_TOL, f"ln nu_{ks[i]} off by {err[i]:.3e}")
    if exp["monotone"]:
        _require(np.all(np.diff(ln) < 0), "ln nu_k not strictly decreasing for q = 0")
    with np.errstate(under="ignore"):
        nu = np.exp(ln)
    _require(np.allclose(cols["nu_k"], nu, rtol=1e-12, atol=0.0), "nu_k != exp(ln nu_k)")
    if exp["prediction"] is not None:
        pred = cols["model_prediction"][2:]
        ref = np.array(exp["prediction"])
        bad = np.abs(pred - ref) > PRED_RTOL * np.maximum(1.0, np.abs(ref))
        _require(not bad.any(), f"model prediction off at k={int(np.argmax(bad)) + 2}")
        _require(np.allclose(cols["residual"][2:], ln[2:] - pred, rtol=1e-12, atol=1e-9),
                 "residual != ln nu - prediction")


def _verify_radial_eigs(cfg, exp, out):
    cols, n = _read_csv(out / "radial_eigs.csv")
    _require(n == cfg["count"], f"{n} rows for count {cfg['count']}")
    ks = exp["ks"]
    atol = SEQ_ATOL * exp["amp"]
    for col, ref_key in (("mu_w", "mu_w"), ("mu_aw", "mu_aw"), ("mu_w_fourier", "mu_w")):
        got = cols[col][ks]
        ref = np.array(exp[ref_key])
        err = np.abs(got - ref) - SEQ_RTOL * np.abs(ref) - atol
        i = int(np.argmax(err))
        _require(err[i] <= 0, f"{col}[{ks[i]}] = {float(got[i])!r}, reference {float(ref[i])!r}")


def _verify_asymptotics(cfg, exp, out):
    cols, n = _read_csv(out / "asymptotics.csv")
    _require(np.array_equal(cols["k"], np.array(exp["ks"])), "k column mismatch")
    got = cols["prediction_log"]
    ref = np.array(exp["prediction"])
    bad = np.abs(got - ref) > PRED_RTOL * np.maximum(1.0, np.abs(ref))
    _require(not bad.any(), f"prediction off at k={exp['ks'][int(np.argmax(bad))]}")
    meta = json.loads((out / "asymptotics.json").read_text())["model"]
    if cfg["kind"] == "exp":
        _require(abs(meta["mu"] - exp["mu"]) <= 1e-12 * exp["mu"], "mu mismatch")
        c = np.array(meta["coefficients"])
        ref = np.array(exp["coefficients"])
        _require(c.shape == ref.shape, f"{len(c)} coefficients, expected {len(ref)}")
        _require(np.all(np.abs(c - ref) <= COEF_RTOL * np.abs(ref)), "coefficients off")


def _verify_spectrum(cfg, exp, out):
    rep = json.loads((out / "spectrum.json").read_text())
    eigs = np.array(rep["eigenvalues"])
    ref = np.array(exp["eigenvalues"])
    _require(eigs.shape == ref.shape, "eigenvalue count mismatch")
    err = np.abs(eigs - ref)
    _require(err.max() <= SPEC_TOL, f"eigenvalue off by {err.max():.3e}")
    for w in rep["windows"]:
        lo, hi = exp["windows"][(w["q"], w["side"])]
        _require(lo <= w["count"] <= hi,
                 f"gap ({w['q']}, {w['side']}) count {w['count']} outside [{lo}, {hi}]")


def _verify_construct_gaps(cfg, exp, out):
    rep = json.loads((out / "construct_gaps.json").read_text())
    got = [(p["q"], p["k"], p["eigenvalue"]) for p in rep["predicted"]]
    _require(len(got) == len(exp["planted"]), "planted count mismatch")
    for (q, k, v), (q2, k2, v2) in zip(got, exp["planted"]):
        _require((q, k) == (q2, k2) and abs(v - v2) <= 1e-12 * max(1.0, abs(v2)),
                 f"planted eigenvalue ({q}, {k}) = {v!r}, expected {v2!r}")
    _require(rep["gap_counts"] == exp["counts"],
             f"gap counts {rep['gap_counts']} != {exp['counts']}")
    _require(max(rep["eigenvalue_errors"]) < PLANT_TOL,
             f"planted eigenvalue missed by {max(rep['eigenvalue_errors']):.3e}")


def _verify_sandwich(p, exp, res):
    _require(not res["vacuous"], "vacuous sandwich")
    eps, k0 = res["epsilon"], res["k0"]
    _require(eps <= 0.25 and k0 <= 3, f"eps={eps}, k0={k0} outside eps <= 0.25, k0 <= 3")
    nu_ref = np.array(exp["nu"])
    nu = np.array(res["nu"])
    _require(np.allclose(nu, nu_ref[:len(nu)], rtol=SEQ_RTOL, atol=0.0), "nu off closed form")
    # re-check the claimed sandwich with the reference nu
    k_lo, k_hi = p["k_range"]
    ks = np.arange(k_lo, k_hi + 1)
    for key in ("shifts_plus", "shifts_minus"):
        d = np.array(res[key])[ks]
        ok = (nu_ref[ks + k0] / (1 + eps) <= d) & (d <= nu_ref[ks - k0] / (1 - eps))
        _require(ok.all(), f"{key} leave the sandwich at eps={eps}, k0={k0}")
        if "shifts" in exp:
            ref = np.array(exp["shifts"])
            got = np.array(res[key])
            _require(np.allclose(got, ref, rtol=SHIFT_RTOL, atol=SHIFT_ATOL),
                     f"{key} off (1+2a/b)^-(k+1) by {np.max(np.abs(got - ref)):.2e}")


def _in_set(cfg, pts, tol=1e-9):
    kind = cfg["kind"]
    if kind == "disk":
        c = complex(*cfg["center"])
        return np.abs(pts - c) <= cfg["radius"] + tol
    if kind == "segment":
        a, b = complex(*cfg["a"]), complex(*cfg["b"])
        t = ((pts - a) * np.conj(b - a)).real / abs(b - a) ** 2
        return (t >= -tol) & (t <= 1 + tol) & \
            (np.abs(pts - (a + np.clip(t, 0, 1) * (b - a))) <= tol * max(1, abs(b - a)))
    if kind == "polygon":
        v = [complex(*p) for p in cfg["vertices"]]
        n = len(v)
        # convex, counter-clockwise: inside means left of every edge
        cross = np.array([((v[(i + 1) % n] - v[i]).conjugate() * (pts - v[i])).imag
                          for i in range(n)])
        return np.all(cross >= -tol, axis=0)
    out = np.zeros(pts.shape, dtype=bool)
    for m in cfg["members"]:
        out |= _in_set(m, pts, tol)
    return out


def _verify_capacity(cfg, exp, out):
    rep = json.loads((out / "capacity.json").read_text())
    est = rep["estimate"]
    for r in rep["per_j"]:
        pts = np.array([complex(*p) for p in r["points"]])
        _require(len(pts) == r["j"], "configuration size mismatch")
        _require(_in_set(cfg["set"], pts).all(), f"j={r['j']}: point outside the set")
        iu = np.triu_indices(len(pts), 1)
        energy = float(np.sum(np.log(np.abs(pts[:, None] - pts[None, :])[iu])))
        _require(abs(energy - r["log_energy"]) <= 1e-9 * max(1.0, abs(energy)),
                 f"j={r['j']}: log energy does not match its points")
    top = rep["per_j"][-1]
    j = top["j"]
    _require(j == cfg["j_max"], "schedule does not end at j_max")
    recomputed = math.exp((2 * top["log_energy"] - j * math.log(j)) / (j * (j - 1)))
    _require(abs(recomputed - est) <= 1e-12 * est, "estimate does not follow from energy")
    if "capacity" in exp:
        c = exp["capacity"]
        _require(abs(est - c) <= exp["rtol"] * c,
                 f"estimate {est:.6f} vs capacity {c:.6f} (rtol {exp['rtol']})")
        _require(rep["lower_cert"] <= c, f"lower certificate {rep['lower_cert']} above {c}")
    else:
        _require(exp["lower"] < est <= exp["upper"],
                 f"union estimate {est:.6f} outside ({exp['lower']}, {exp['upper']}]")
        _require(rep["lower_cert"] is None or math.isnan(rep["lower_cert"]),
                 "certificate reported for a disconnected set")


_VERIFIERS = {
    "toeplitz": _verify_toeplitz,
    "radial-eigs": _verify_radial_eigs,
    "asymptotics": _verify_asymptotics,
    "spectrum": _verify_spectrum,
    "construct-gaps": _verify_construct_gaps,
    "capacity": _verify_capacity,
}

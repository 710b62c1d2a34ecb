"""Batch front end: declarative JSON configs in, CSV/JSON results out.

Subcommands
    radial-eigs     eigenvalue sequences of radial Weyl/anti-Wick operators
    spectrum        eigenvalues and gap counts of the perturbed Hamiltonian
    toeplitz        level-compression diagonal with model residuals
    capacity        extremal-configuration capacity estimate with certificate
    asymptotics     decay-law coefficient tables and predictions
    construct-gaps  symbol with prescribed gap eigenvalue counts
    verify          run the identity suites

Outputs are deterministic given (config, seed): JSON is key-sorted, CSV
carries 17 significant digits, and every file embeds the config hash.
Exit codes: 0 success, 1 assertion/verification failure, 2 config error.

Config schema (JSON; unknown keys rejected).  A profile block is
    {"kind": "gaussian", "rate": R, "amplitude": A}
    {"kind": "power", "gamma": G} | {"kind": "disk_indicator", "cutoff": C}
    {"kind": "exp_beta", "gamma": G, "beta": B} | {"kind": "constant", "value": V}
    {"kind": "laguerre_mix", "coeffs": [...]} |
    {"kind": "poly_gauss", "coeffs": [...], "rate": R}
    {"kind": "tabulated", "grid": [...], "values": [...]}
    {"kind": "level_kernel", "q": Q}
and a 4-D symbol block is
    {"separable": {"frame": "lab"|"kappa_pulled",
                   "terms": [{"coeff": c, "A": <profile>, "B": <profile>}]}}
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, capacity, operators, quadrature, symbols, verify


class ConfigError(ValueError):
    pass


def _fmt(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")
    return str(x)


def _require(cfg, keys, where):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _reject_unknown(cfg, allowed, where):
    unknown = [k for k in cfg if k not in allowed]
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _positive_int(cfg, key, where, default=None, allow_zero=False):
    value = cfg.get(key, default)
    low, what = (0, "non-negative") if allow_zero else (1, "positive")
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{where}: {key} must be a {what} integer, got {value!r}")
    return value


_PROFILE_KEYS = {
    "gaussian": {"rate"},
    "power": {"gamma"},
    "disk_indicator": {"cutoff"},
    "exp_beta": {"gamma", "beta"},
    "constant": {"value"},
    "laguerre_mix": {"coeffs"},
    "poly_gauss": {"coeffs", "rate"},
    "tabulated": {"grid", "values"},
    "level_kernel": {"q"},
}


def parse_profile(cfg, where="profile"):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = cfg["kind"]
    if kind not in _PROFILE_KEYS:
        raise ConfigError(f"{where}: unknown profile kind {kind!r}")
    _require(cfg, _PROFILE_KEYS[kind], where)
    _reject_unknown(cfg, _PROFILE_KEYS[kind] | {"kind", "amplitude"}, where)
    amp = float(cfg.get("amplitude", 1.0))
    try:
        if kind == "gaussian":
            return symbols.gaussian(cfg["rate"], amplitude=amp)
        if kind == "power":
            return symbols.power(cfg["gamma"], amplitude=amp)
        if kind == "disk_indicator":
            return symbols.disk_indicator(cfg["cutoff"], amplitude=amp)
        if kind == "exp_beta":
            return symbols.exp_beta(cfg["gamma"], cfg["beta"], amplitude=amp)
        if kind == "constant":
            return symbols.constant(cfg["value"] * amp)
        if kind == "laguerre_mix":
            return symbols.laguerre_mix(cfg["coeffs"], amplitude=amp)
        if kind == "poly_gauss":
            return symbols.poly_gauss(cfg["coeffs"], cfg["rate"], amplitude=amp)
        if kind == "tabulated":
            return symbols.tabulated(cfg["grid"], cfg["values"], amplitude=amp)
        return symbols.diag_kernel_profile(int(cfg["q"])).scaled(amp)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_symbol4d(cfg, b, where="symbol"):
    if not isinstance(cfg, dict) or "separable" not in cfg:
        raise ConfigError(f"{where}: expected an object with a 'separable' block")
    block = cfg["separable"]
    _require(block, ["terms"], where)
    _reject_unknown(block, {"terms", "frame"}, where)
    frame = block.get("frame", "lab")
    terms = []
    for i, t in enumerate(block["terms"]):
        _require(t, ["coeff", "A", "B"], f"{where}.terms[{i}]")
        terms.append((float(t["coeff"]),
                      symbols.radial_symbol(parse_profile(t["A"], f"{where}.terms[{i}].A")),
                      symbols.radial_symbol(parse_profile(t["B"], f"{where}.terms[{i}].B"))))
    try:
        return symbols.separable_symbol(b, terms, frame=frame)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    digest = hashlib.sha256(text.encode()).hexdigest()
    return cfg, digest


def _provenance(args, digest, **extra):
    prov = {
        "tool": "landauspec",
        "version": __version__,
        "config_sha256": digest,
        "seed": args.seed,
        "order": args.order,
    }
    prov.update(extra)
    return prov


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# commands


def cmd_radial_eigs(args):
    cfg, digest = _load_config(args.config)
    _require(cfg, ["profile", "count"], "radial-eigs")
    _reject_unknown(cfg, {"profile", "count", "order"}, "radial-eigs")
    profile = parse_profile(cfg["profile"])
    count = _positive_int(cfg, "count", "radial-eigs")
    order = args.order or cfg.get("order")
    mu_w = operators.weyl_radial_eigs(profile, count, order=order)
    mu_aw = operators.antiwick_radial_eigs(profile, count, order=order)
    try:
        fhat = symbols.fourier_radial_profile(profile)
        mu_wf = operators.weyl_radial_eigs_fourier(fhat, count, order=order)
    except symbols.UnsupportedProfileError:
        mu_wf = np.full(count, np.nan)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "radial_eigs.csv", ["k", "mu_w", "mu_aw", "mu_w_fourier"],
               [(k, mu_w[k], mu_aw[k], mu_wf[k]) for k in range(count)])
    _write_json(out / "radial_eigs.json", {
        "provenance": _provenance(args, digest, command="radial-eigs", count=count)})
    return 0


def cmd_spectrum(args):
    cfg, digest = _load_config(args.config)
    _require(cfg, ["b", "symbol", "levels", "radial"], "spectrum")
    _reject_unknown(cfg, {"b", "symbol", "levels", "radial", "sign", "order"}, "spectrum")
    b = float(cfg["b"])
    V = parse_symbol4d(cfg["symbol"], b)
    sign = {"+": +1, "-": -1, "plus": +1, "minus": -1}.get(cfg.get("sign", "+"))
    if sign is None:
        raise ConfigError("spectrum: sign must be '+' or '-'")
    levels = _positive_int(cfg, "levels", "spectrum")
    radial = _positive_int(cfg, "radial", "spectrum")
    order = args.order or cfg.get("order")
    H = operators.assemble_hv(V, levels, radial, sign=sign, order=order)
    rep = operators.eig_hermitian(H)
    trust = H.provenance["trust_radius"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "eigenvalues.csv", ["index", "eigenvalue"],
               list(enumerate(rep.eigenvalues)))
    _write_json(out / "spectrum.json", {
        "eigenvalues": rep.eigenvalues,
        "windows": rep.windows,
        "cluster_tol": rep.cluster_tol,
        "trust_radius": trust,
        "trust_warning": bool(trust > 0.5 * b),
        "provenance": _provenance(args, digest, command="spectrum", sign=sign,
                                  levels=levels, radial=radial),
    })
    return 0


def _model_from_config(cfg, zeta, b):
    if cfg is None:
        return None
    _require(cfg, ["kind"], "model")
    kind = cfg["kind"]
    if kind == "exp":
        _reject_unknown(cfg, {"kind"}, "model")
        try:
            return asymptotics.exp_model_from_profile(zeta, b)
        except ValueError as exc:   # no exp model for the kind, bad b, beta near 1
            raise ConfigError(f"model: {exc}") from exc
    if kind == "compact":
        _require(cfg, ["capacity"], "model")
        _reject_unknown(cfg, {"kind", "capacity"}, "model")
        try:
            return asymptotics.compact_model(b, cfg["capacity"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"model: {exc}") from exc
    raise ConfigError(f"model: unknown kind {kind!r}")


def cmd_toeplitz(args):
    cfg, digest = _load_config(args.config)
    _require(cfg, ["zeta", "b", "count"], "toeplitz")
    _reject_unknown(cfg, {"zeta", "b", "count", "q", "order", "model"}, "toeplitz")
    zeta = parse_profile(cfg["zeta"], "zeta")
    b = float(cfg["b"])
    q = _positive_int(cfg, "q", "toeplitz", default=0, allow_zero=True)
    count = _positive_int(cfg, "count", "toeplitz", allow_zero=True)
    order = args.order or cfg.get("order")
    model = _model_from_config(cfg.get("model"), zeta, b)
    try:
        ln_nu = operators.toeplitz_radial_eigs(zeta, q, b, count, order=order,
                                               log_scale=True)
    except symbols.UnsupportedProfileError:
        nu_lin = operators.toeplitz_radial_eigs(zeta, q, b, count, order=order)
        ln_nu = np.where(nu_lin > 0, np.log(np.where(nu_lin > 0, nu_lin, 1.0)), np.nan)
    with np.errstate(under="ignore"):
        nu = np.exp(ln_nu)
    rows = []
    for k in range(count):
        pred = res = r_k = r_lnk = math.nan
        if model is not None and k >= 2:
            pred = float(model.predict_log(k))
            res = ln_nu[k] - pred
            r_k = res / k
            r_lnk = res / math.log(k)
        rows.append((k, nu[k], ln_nu[k], pred, res, r_k, r_lnk))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "toeplitz.csv",
               ["k", "nu_k", "ln_nu_k", "model_prediction", "residual",
                "residual_over_k", "residual_over_ln_k"], rows)
    _write_json(out / "toeplitz.json", {
        "provenance": _provenance(args, digest, command="toeplitz", q=q, count=count)})
    return 0


def _parse_set(cfg, where="set"):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    _require(cfg, ["kind"], where)
    kind = cfg["kind"]
    try:
        if kind == "disk":
            _reject_unknown(cfg, {"kind", "center", "radius"}, where)
            c = cfg.get("center", [0.0, 0.0])
            return capacity.disk(complex(c[0], c[1]), float(cfg["radius"]))
        if kind == "segment":
            _reject_unknown(cfg, {"kind", "a", "b"}, where)
            return capacity.segment(complex(cfg["a"][0], cfg["a"][1]),
                                    complex(cfg["b"][0], cfg["b"][1]))
        if kind == "polygon":
            _reject_unknown(cfg, {"kind", "vertices"}, where)
            return capacity.polygon([complex(v[0], v[1]) for v in cfg["vertices"]])
        if kind == "union":
            _reject_unknown(cfg, {"kind", "members"}, where)
            return capacity.set_union([_parse_set(m, f"{where}.members") for m in cfg["members"]])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: malformed geometry ({exc})") from exc
    raise ConfigError(f"{where}: unknown set kind {kind!r}")


def cmd_capacity(args):
    cfg, digest = _load_config(args.config)
    _require(cfg, ["set", "j_max"], "capacity")
    _reject_unknown(cfg, {"set", "j_max", "restarts", "seed"}, "capacity")
    K = _parse_set(cfg["set"])
    j_max = _positive_int(cfg, "j_max", "capacity")
    restarts = _positive_int(cfg, "restarts", "capacity", default=8, allow_zero=True)
    seed = _positive_int(cfg, "seed", "capacity", default=0, allow_zero=True)
    if args.seed is not None:
        seed = args.seed
    try:
        est = capacity.capacity_estimate(K, j_max, restarts=restarts, seed=seed)
    except ValueError as exc:       # j_max below 8, a degenerate set, a negative --seed
        raise ConfigError(f"capacity: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "capacity.json", {
        "estimate": est.estimate,
        "lower_cert": est.lower_cert,
        "j_max": est.j_max,
        "per_j": [{
            "j": r.j, "log_energy": r.log_energy, "delta_j": r.delta_j,
            "iterations": r.iterations, "converged": r.converged,
            "points": [[p.real, p.imag] for p in r.points],
        } for r in est.per_j],
        "provenance": _provenance(args, digest, command="capacity",
                                  restarts=restarts, capacity_seed=seed),
    })
    return 0


def cmd_asymptotics(args):
    cfg, digest = _load_config(args.config)
    _require(cfg, ["kind", "k_range"], "asymptotics")
    k_range = cfg["k_range"]
    if not (isinstance(k_range, list) and len(k_range) == 2 and all(
            isinstance(v, int) and not isinstance(v, bool) for v in k_range)):
        raise ConfigError(f"asymptotics: k_range must be two integers [k_lo, k_hi], "
                          f"got {k_range!r}")
    k_lo, k_hi = k_range
    ks = np.arange(max(2, k_lo), k_hi + 1)
    if cfg["kind"] == "exp":
        _require(cfg, ["beta", "gamma", "b"], "asymptotics")
        _reject_unknown(cfg, {"kind", "beta", "gamma", "b", "k_range"}, "asymptotics")
        try:
            beta = float(cfg["beta"])
            mu = asymptotics.mu_from_weight(float(cfg["gamma"]), beta, float(cfg["b"]))
            model = asymptotics.exp_model(beta, mu)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"asymptotics: {exc}") from exc
        meta = {"beta": beta, "mu": mu, "coefficients": list(model.coeffs)}
    elif cfg["kind"] == "compact":
        _require(cfg, ["b", "capacity"], "asymptotics")
        _reject_unknown(cfg, {"kind", "b", "capacity", "k_range"}, "asymptotics")
        try:
            model = asymptotics.compact_model(cfg["b"], cfg["capacity"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"asymptotics: {exc}") from exc
        meta = {"b": model.b, "capacity": model.capacity}
    else:
        raise ConfigError(f"asymptotics: unknown kind {cfg['kind']!r}")
    pred = model.predict_log(ks)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "asymptotics.csv", ["k", "prediction_log"],
               list(zip(ks.tolist(), pred)))
    _write_json(out / "asymptotics.json", {
        "model": meta,
        "provenance": _provenance(args, digest, command="asymptotics"),
    })
    return 0


def cmd_construct_gaps(args):
    cfg, digest = _load_config(args.config)
    _require(cfg, ["b", "multiplicities", "level_scales", "index_scales"], "construct-gaps")
    _reject_unknown(cfg, {"b", "multiplicities", "level_scales", "index_scales",
                          "verify", "levels", "radial", "order"}, "construct-gaps")
    b = float(cfg["b"])
    try:
        V, predictions = operators.prescribed_gap_symbol(
            b, cfg["multiplicities"], cfg["level_scales"], cfg["index_scales"])
    except ValueError as exc:
        raise ConfigError(f"construct-gaps: {exc}") from exc
    payload = {
        "b": b,
        "multiplicities": [int(m) for m in cfg["multiplicities"]],
        "predicted": [{"q": q, "k": k, "eigenvalue": val} for q, k, val in predictions],
        "terms": len(V.terms),
        "provenance": _provenance(args, digest, command="construct-gaps"),
    }
    mult = payload["multiplicities"]
    Q = _positive_int(cfg, "levels", "construct-gaps", default=len(mult) + 1)
    Kr = _positive_int(cfg, "radial", "construct-gaps", default=max(mult + [4]) + 8)
    if cfg.get("verify"):
        if Q < len(mult):
            raise ConfigError("construct-gaps: levels must be at least len(multiplicities)")
        H = operators.assemble_hv(V, Q, Kr, sign=-1, order=args.order or cfg.get("order"))
        rep = operators.eig_hermitian(H)
        trust = H.provenance["trust_radius"]
        payload["gap_counts"] = [rep.gap_count(q, "-") for q in range(len(mult))]
        payload["eigenvalue_errors"] = [
            float(np.abs(rep.eigenvalues - val).min()) for _, _, val in predictions]
        payload["trust_radius"] = trust
        payload["trust_warning"] = bool(trust > 0.5 * b)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "construct_gaps.json", payload)
    return 0


def cmd_verify(args):
    try:
        results = verify.run_suites(name_filter=args.filter, fault=args.inject_fault)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    width = max(len(r["suite"]) for r in results)
    failed = []
    for r in results:
        status = "pass" if r["passed"] else "FAIL"
        print(f"{r['suite']:<{width}}  {status}  error={r['error']:.3e}  tol={r['tolerance']:.0e}")
        if not r["passed"]:
            failed.append(r["suite"])
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "verify.json", {"results": results})
    if failed:
        print(f"failed identities: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="landauspec", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        if config_required:
            sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--order", type=int, default=None, help="quadrature order override")

    for name, fn in [("radial-eigs", cmd_radial_eigs), ("spectrum", cmd_spectrum),
                     ("toeplitz", cmd_toeplitz), ("capacity", cmd_capacity),
                     ("asymptotics", cmd_asymptotics),
                     ("construct-gaps", cmd_construct_gaps)]:
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("verify")
    sp.add_argument("--filter", default=None, help="run only matching suites")
    sp.add_argument("--inject-fault", default=None,
                    help="corrupt a kernel to demonstrate suite sensitivity")
    sp.add_argument("--out", default=None, help="optional report directory")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--order", type=int, default=None)
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except quadrature.QuadratureAccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

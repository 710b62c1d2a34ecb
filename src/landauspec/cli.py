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

Config schema (JSON; README.md has it as a table).  Unknown keys, booleans
where numbers belong and non-finite numbers are rejected; an optional key
that is absent or null takes the default after "=".
    radial-eigs     profile, count int>0, order int>0 = none
    spectrum        b float>0, symbol, levels int>0, radial int>0,
                    sign "+"|"-"|"plus"|"minus" = "+"
    toeplitz        zeta profile, b float>0, count int>=0, q int>=0 = 0,
                    order int>0 = none, model = none
    capacity        set, j_max int>=8, restarts int>=0 = 8, seed int>=0 = 0
    asymptotics     kind "exp" with beta, gamma, b float>0 | kind "compact"
                    with b, capacity float>0; both with k_range [int, int]
    construct-gaps  b float>0, multiplicities [int>=0], level_scales [float],
                    index_scales [float], verify bool = false, levels int>0 =
                    len(multiplicities) + 1, radial int>0 = max(multiplicities + [4]) + 8
profile  {"kind": K, <keys of K>, "amplitude": float = 1} with K and its keys
         gaussian rate, power gamma, disk_indicator cutoff, exp_beta gamma beta
         (all float>0), constant value float, laguerre_mix coeffs, poly_gauss
         coeffs rate>0 (coeffs non-empty [float]), tabulated grid values
         ([float], grid increasing), level_kernel q int>=0
symbol   {"separable": {"frame": "lab"|"kappa_pulled" = "lab",
                        "terms": [{"coeff": float, "A": profile, "B": profile}]}}
model    {"kind": "exp"} | {"kind": "compact", "capacity": float>0}
set      {"kind": "disk", "center": [float, float] = [0, 0], "radius": float>0} |
         segment a, b [float, float] | polygon vertices [[float, float], ...] |
         union members [set, ...]
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


# ---------------------------------------------------------------------------
# config schema: every node walks a JSON value to a checked Python value


def _built(path, make, *args):
    """Call a library constructor on checked values; its ValueError is a config error."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _join(path, key):
    return f"{path}.{key}" if path else key


def _bad(path, what, value):
    return ConfigError(f"{path} must be {what}, got {value!r}")


class Real:
    def __init__(self, positive=False):
        self.positive = positive

    def walk(self, v, path):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise _bad(path, "a float", v)
        if not -sys.float_info.max <= v <= sys.float_info.max:    # NaN fails both
            raise _bad(path, "finite", v)
        if self.positive and not v > 0:
            raise _bad(path, "positive", v)
        return float(v)


class Int:
    _WHAT = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}

    def __init__(self, low=None):
        self.low = low

    def walk(self, v, path):
        if isinstance(v, bool) or not isinstance(v, int) or (
                self.low is not None and v < self.low):
            raise _bad(path, self._WHAT[self.low], v)
        return v


class OneOf:
    """A string or boolean from a table; walks to the table's value for it."""

    def __init__(self, table):
        self.table = table

    def walk(self, v, path):
        if type(v) not in (str, bool) or v not in self.table:
            raise _bad(path, f"one of {list(self.table)}", v)
        return self.table[v]


class List:
    def __init__(self, item, length=None, nonempty=False, make=None):
        self.item, self.length, self.nonempty, self.make = item, length, nonempty, make

    def walk(self, v, path):
        if not isinstance(v, list) or (self.nonempty and not v) or (
                self.length is not None and len(v) != self.length):
            what = (f"a list of {self.length} items" if self.length is not None
                    else "a non-empty list" if self.nonempty else "a list")
            raise _bad(path, what, v)
        out = [self.item.walk(x, f"{path}[{i}]") for i, x in enumerate(v)]
        return _built(path, self.make, out) if self.make else out


class Obj:
    """An object with fixed keys: fields maps key -> spec (required) or (spec, default)."""

    def __init__(self, fields, make=None):
        self.fields, self.make = fields, make

    def walk(self, v, path, kind=None):
        if not isinstance(v, dict):
            raise ConfigError(f"{path}: expected an object, got {v!r}")
        out = {} if kind is None else {"kind": kind}
        unknown = sorted(set(v) - set(self.fields) - set(out))
        if unknown:
            raise ConfigError(f"{path or 'config'}: unknown keys {unknown}")
        for key, field in self.fields.items():
            spec, default = field if isinstance(field, tuple) else (field, _REQUIRED)
            where = _join(path, key)
            if v.get(key) is not None:
                out[key] = spec.walk(v[key], where)
            elif default is _REQUIRED:
                raise ConfigError(f"{where} is required")
            else:
                out[key] = default
        return _built(path, self.make, out) if self.make else out


class Kinds:
    """An object whose "kind" picks the Obj that walks the rest of it."""

    def __init__(self, table):
        self.table = table

    def walk(self, v, path):
        if not isinstance(v, dict):
            raise ConfigError(f"{path}: expected an object with a 'kind' key, got {v!r}")
        kind = OneOf({k: k for k in self.table}).walk(v.get("kind"), _join(path, "kind"))
        return self.table[kind].walk(v, path, kind)


_REQUIRED = object()
FLOAT, POSITIVE, BOOL = Real(), Real(positive=True), OneOf({True: True, False: False})
COEFFS = List(FLOAT, nonempty=True)


def _profile(make, **fields):
    """Profile kind whose constructor takes `fields` in order, then the amplitude."""
    return Obj({**fields, "amplitude": (FLOAT, 1.0)},
               lambda p: make(*(p[k] for k in fields), amplitude=p["amplitude"]))


PROFILE = Kinds({
    "gaussian": _profile(symbols.gaussian, rate=POSITIVE),
    "power": _profile(symbols.power, gamma=POSITIVE),
    "disk_indicator": _profile(symbols.disk_indicator, cutoff=POSITIVE),
    "exp_beta": _profile(symbols.exp_beta, gamma=POSITIVE, beta=POSITIVE),
    "constant": _profile(symbols.constant, value=FLOAT),
    "laguerre_mix": _profile(symbols.laguerre_mix, coeffs=COEFFS),
    "poly_gauss": _profile(symbols.poly_gauss, coeffs=COEFFS, rate=POSITIVE),
    "tabulated": _profile(symbols.tabulated, grid=List(FLOAT), values=List(FLOAT)),
    "level_kernel": _profile(symbols.diag_kernel_profile, q=Int(0)),
})
TERM = Obj({"coeff": FLOAT, "A": PROFILE, "B": PROFILE},
           lambda t: (t["coeff"], symbols.radial_symbol(t["A"]), symbols.radial_symbol(t["B"])))
SYMBOL = Obj({"separable": Obj({
    "terms": List(TERM), "frame": (OneOf({"lab": "lab", "kappa_pulled": "kappa_pulled"}), "lab")})})
MODEL = Kinds({"exp": Obj({}), "compact": Obj({"capacity": POSITIVE})})
POINT = List(FLOAT, length=2, make=lambda p: complex(*p))
SET = Kinds({
    "disk": Obj({"center": (POINT, 0j), "radius": FLOAT},
                lambda s: capacity.disk(s["center"], s["radius"])),
    "segment": Obj({"a": POINT, "b": POINT}, lambda s: capacity.segment(s["a"], s["b"])),
    "polygon": Obj({"vertices": List(POINT)}, lambda s: capacity.polygon(s["vertices"])),
})
# a union's members are sets themselves
SET.table["union"] = Obj({"members": List(SET)}, lambda s: capacity.set_union(s["members"]))
K_RANGE = List(Int(), length=2)

RADIAL_EIGS = Obj({"profile": PROFILE, "count": Int(1), "order": (Int(1), None)})
SPECTRUM = Obj({"b": POSITIVE, "symbol": SYMBOL, "levels": Int(1), "radial": Int(1),
                "sign": (OneOf({"+": +1, "-": -1, "plus": +1, "minus": -1}), +1)})
TOEPLITZ = Obj({"zeta": PROFILE, "b": POSITIVE, "count": Int(0), "q": (Int(0), 0),
                "order": (Int(1), None), "model": (MODEL, None)})
CAPACITY = Obj({"set": SET, "j_max": Int(1), "restarts": (Int(0), 8), "seed": (Int(0), 0)})
ASYMPTOTICS = Kinds({
    "exp": Obj({"beta": POSITIVE, "gamma": POSITIVE, "b": POSITIVE, "k_range": K_RANGE}),
    "compact": Obj({"b": POSITIVE, "capacity": POSITIVE, "k_range": K_RANGE}),
})
CONSTRUCT_GAPS = Obj({
    "b": POSITIVE, "multiplicities": List(Int(0)), "level_scales": List(FLOAT),
    "index_scales": List(FLOAT), "verify": (BOOL, False),
    "levels": (Int(1), None), "radial": (Int(1), None)})


def _load_config(args, spec):
    """Read args.config, let the --seed/--order flags override it, and walk it with spec."""
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    for flag in ("seed", "order"):
        if getattr(args, flag, None) is not None:
            cfg[flag] = getattr(args, flag)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return spec.walk(cfg, ""), digest


def _provenance(args, digest, **extra):
    flags = {flag: getattr(args, flag) for flag in ("seed", "order") if hasattr(args, flag)}
    return {"tool": "landauspec", "version": __version__, "config_sha256": digest,
            **flags, **extra}


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
    cfg, digest = _load_config(args, RADIAL_EIGS)
    profile, count, order = cfg["profile"], cfg["count"], cfg["order"]
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
    cfg, digest = _load_config(args, SPECTRUM)
    b, sign, levels, radial = cfg["b"], cfg["sign"], cfg["levels"], cfg["radial"]
    block = cfg["symbol"]["separable"]
    V = _built("symbol", symbols.separable_symbol, b, block["terms"], block["frame"])
    H = operators.assemble_hv(V, levels, radial, sign=sign)
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


def cmd_toeplitz(args):
    cfg, digest = _load_config(args, TOEPLITZ)
    zeta, b, q, count, order = cfg["zeta"], cfg["b"], cfg["q"], cfg["count"], cfg["order"]
    model = cfg["model"]
    if model is not None and model["kind"] == "exp":
        model = _built("model", asymptotics.exp_model_from_profile, zeta, b)
    elif model is not None:
        model = _built("model", asymptotics.compact_model, b, model["capacity"])
    try:
        ln_nu = operators.toeplitz_radial_eigs(zeta, q, b, count, order=order,
                                               log_scale=True)
        with np.errstate(under="ignore"):
            nu = np.exp(ln_nu)
    except symbols.UnsupportedProfileError:
        # no log form (or amplitude <= 0): keep the signed linear values
        nu = operators.toeplitz_radial_eigs(zeta, q, b, count, order=order)
        ln_nu = np.where(nu > 0, np.log(np.where(nu > 0, nu, 1.0)), np.nan)
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


def cmd_capacity(args):
    cfg, digest = _load_config(args, CAPACITY)
    restarts, seed = cfg["restarts"], cfg["seed"]
    # every ValueError of the estimate is about its input: j_max below 8, a
    # degenerate set, a polygon too thin for its seeded starts to sample
    est = _built("capacity", capacity.capacity_estimate, cfg["set"], cfg["j_max"],
                 restarts, seed)
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
    cfg, digest = _load_config(args, ASYMPTOTICS)
    k_lo, k_hi = cfg["k_range"]
    ks = np.arange(max(2, k_lo), k_hi + 1)
    if cfg["kind"] == "exp":
        beta = cfg["beta"]
        mu = _built("asymptotics", asymptotics.mu_from_weight, cfg["gamma"], beta, cfg["b"])
        model = _built("asymptotics", asymptotics.exp_model, beta, mu)
        meta = {"beta": beta, "mu": mu, "coefficients": list(model.coeffs)}
    else:
        model = _built("asymptotics", asymptotics.compact_model, cfg["b"], cfg["capacity"])
        meta = {"b": model.b, "capacity": model.capacity}
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
    cfg, digest = _load_config(args, CONSTRUCT_GAPS)
    b, mult = cfg["b"], cfg["multiplicities"]
    V, predictions = _built("construct-gaps", operators.prescribed_gap_symbol,
                            b, mult, cfg["level_scales"], cfg["index_scales"])
    payload = {
        "b": b,
        "multiplicities": mult,
        "predicted": [{"q": q, "k": k, "eigenvalue": val} for q, k, val in predictions],
        "terms": len(V.terms),
        "provenance": _provenance(args, digest, command="construct-gaps"),
    }
    Q = cfg["levels"] or len(mult) + 1
    Kr = cfg["radial"] or max(mult + [4]) + 8
    if cfg["verify"]:
        if Q < len(mult):
            raise ConfigError("levels must be at least len(multiplicities)")
        H = operators.assemble_hv(V, Q, Kr, sign=-1)
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
    _built("--filter", verify.select_suites, args.filter)
    results = verify.run_suites(name_filter=args.filter, fault=args.inject_fault)
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

    # --order reaches only the commands whose quadrature takes it; --seed only capacity
    for name, fn, flags in [("radial-eigs", cmd_radial_eigs, ["order"]),
                            ("spectrum", cmd_spectrum, []),
                            ("toeplitz", cmd_toeplitz, ["order"]),
                            ("capacity", cmd_capacity, ["seed"]),
                            ("asymptotics", cmd_asymptotics, []),
                            ("construct-gaps", cmd_construct_gaps, [])]:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default="out", help="output directory")
        for flag in flags:
            sp.add_argument(f"--{flag}", type=int, default=None,
                            help=f"overrides the config's {flag}")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("verify")
    sp.add_argument("--filter", default=None, help="run only matching suites")
    sp.add_argument("--inject-fault", default=None, choices=sorted(verify.FAULTS),
                    help="corrupt a kernel to demonstrate suite sensitivity")
    sp.add_argument("--out", default=None, help="optional report directory")
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

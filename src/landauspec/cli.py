"""Batch front end: declarative JSON configs in, CSV/JSON results out.

Subcommands
    radial-eigs     eigenvalue sequences of radial Weyl/anti-Wick operators
    spectrum        eigenvalues and gap counts of the perturbed Hamiltonian
    toeplitz        level-compression diagonal with model residuals
    capacity        extremal-configuration capacity estimate with certificate
    asymptotics     decay-law coefficient tables and predictions
    construct-gaps  symbol with prescribed gap eigenvalue counts
    verify          run the identity suites

Every command but verify takes --config and --out; its config keys are the
schema of its COMMANDS entry below, which README.md ("Config keys") lists as
a table.  Outputs are deterministic given the config: strict JSON, key-sorted,
CSV carries 17 significant digits, and each command's <command>.json embeds
the config hash.  toeplitz writes nu_k with its sign and ln nu_k, NaN where
nu_k <= 0.  Exit codes: 0 success, 1 verification failure, 2 config error
(an unreadable config, an unusable --out, a count too large for quadrature.MAX_ORDER).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, capacity, operators, quadrature, symbols, verify


class ConfigError(ValueError):
    pass


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
TERM = Obj({"coeff": FLOAT, "A": PROFILE, "B": PROFILE}, lambda t: (t["coeff"], t["A"], t["B"]))
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


def _load_config(path, spec):
    """Read the config at path and walk it with spec; (checked config, sha256 of its text)."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    digest = hashlib.sha256(text.encode()).hexdigest()
    return spec.walk(cfg, ""), digest


def _write_csv(path, header, rows):
    r"""The header, then a line of "%.17g" cells per row; commas, \r\n line ends, no quoting."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + "".join(line % tuple(row) for row in rows))


def _write_json(path, payload):
    """Strict JSON: key-sorted, indent 2, a final newline, NaN and infinity as null.

    One string and one write: json.dump would write each of the encoder's
    many small chunks through the file object."""
    text = json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _plain(value):
    """value with numpy data as Python lists and numbers, non-finite floats as None."""
    if isinstance(value, float):        # numpy's float64 too, which json writes alike
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return _plain(value.tolist())   # a numpy scalar's tolist() is its item()
    return value


# ---------------------------------------------------------------------------
# commands: compute(cfg) -> ({csv name: (header, rows)}, JSON payload, provenance extras)


def _radial_eigs(cfg):
    profile, count = cfg["profile"], cfg["count"]
    # a profile near the top of the double range overflows the quadrature sums
    with np.errstate(over="ignore", invalid="ignore"):
        profile_hat = _built("profile", symbols.fourier_radial_profile, profile)
        columns = (operators.weyl_radial_eigs(profile, count),
                   operators.antiwick_radial_eigs(profile, count),
                   operators.weyl_radial_eigs_fourier(profile_hat, count))
    if not all(np.isfinite(col).all() for col in columns):
        raise ConfigError("profile: an eigenvalue sum leaves the double range")
    return ({"radial_eigs.csv": (["k", "mu_w", "mu_aw", "mu_w_fourier"],
                                 zip(range(count), *columns))},
            {}, {"count": count})


def _level_spectrum(V, b, levels, radial, sign):
    """Eigenvalue report of the level-basis H_V, and its trust radius and warning."""
    if not math.isfinite(b * (2.0 * levels + 1.0)):    # the top of the gap windows
        raise ConfigError(f"b: the top Landau level b (2 levels + 1) overflows at b={b!r}")
    with np.errstate(over="ignore", invalid="ignore"):     # overflow is refused below
        H = operators.assemble_hv(V, levels, radial, sign=sign)
    if not np.isfinite(H.diagonal).all():
        raise ConfigError("symbol: a level-basis diagonal entry leaves the double range")
    trust = H.trust_radius
    return operators.eig_hermitian(H), {"trust_radius": trust,
                                        "trust_warning": bool(trust > 0.5 * b)}


def _spectrum(cfg):
    b, sign, levels, radial = cfg["b"], cfg["sign"], cfg["levels"], cfg["radial"]
    V = _built("symbol", symbols.separable_symbol, b, cfg["symbol"]["separable"]["terms"])
    rep, trust = _level_spectrum(V, b, levels, radial, sign)
    return ({"eigenvalues.csv": (["index", "eigenvalue"], enumerate(rep.eigenvalues))},
            {"eigenvalues": rep.eigenvalues, "windows": rep.windows,
             "cluster_tol": rep.cluster_tol, **trust},
            {"sign": sign, "levels": levels, "radial": radial})


def _prediction(path, model, ks):
    """model.predict_log(ks); a prediction past the double range is an error of path."""
    with np.errstate(over="ignore", invalid="ignore"):
        pred = model.predict_log(ks)
    if not np.isfinite(pred).all():
        raise ConfigError(f"{path}: the prediction leaves the double range on k in "
                          f"[{ks[0]}, {ks[-1]}]")
    return pred


def _toeplitz(cfg):
    zeta, b, q, count = cfg["zeta"], cfg["b"], cfg["q"], cfg["count"]
    model = cfg["model"]
    if model is not None and model["kind"] == "exp":
        model = _built("model", asymptotics.exp_model_from_profile, zeta, b)
    elif model is not None:
        model = _built("model", asymptotics.compact_model, b, model["capacity"])
    sign, log_abs = operators.toeplitz_radial_eigs(zeta, q, b, count)
    with np.errstate(under="ignore"):
        nu = sign * np.exp(log_abs)
    ln_nu = np.where(sign > 0, log_abs, np.nan)
    # prediction, residual, residual / k, residual / ln k: from k = 2, where ln k > 0
    fits = np.full((4, count), np.nan)
    if model is not None and count > 2:
        ks = np.arange(2, count)
        pred = _prediction("model", model, ks)
        res = ln_nu[2:] - pred
        with np.errstate(over="ignore"):
            fits[:, 2:] = pred, res, res / ks, res / np.log(ks)
        if np.isinf(fits).any():
            raise ConfigError("model: a residual leaves the double range")
    return ({"toeplitz.csv": (["k", "nu_k", "ln_nu_k", "model_prediction", "residual",
                               "residual_over_k", "residual_over_ln_k"],
                              zip(range(count), nu, ln_nu, *fits))},
            {}, {"q": q, "count": count})


def _capacity(cfg):
    restarts, seed = cfg["restarts"], cfg["seed"]
    # every ValueError of the estimate is about its input: j_max below 8, a
    # degenerate set, a polygon too thin for its seeded starts to sample
    est = _built("capacity", capacity.capacity_estimate, cfg["set"], cfg["j_max"],
                 restarts, seed)
    per_j = [{"j": r.j, "log_energy": r.log_energy, "delta_j": r.delta_j,
              "iterations": r.iterations, "newton_iterations": r.newton_iterations,
              "converged": r.converged, "points": [[p.real, p.imag] for p in r.points]}
             for r in est.per_j]
    return ({}, {"estimate": est.estimate, "lower_cert": est.lower_cert, "j_max": est.j_max,
                 "per_j": per_j}, {"restarts": restarts, "capacity_seed": seed})


def _asymptotics(cfg):
    k_lo, k_hi = cfg["k_range"]
    ks = np.arange(max(2, k_lo), k_hi + 1)
    if not ks.size:
        raise ConfigError(f"k_range {cfg['k_range']} holds no k >= 2")
    if cfg["kind"] == "exp":
        beta = cfg["beta"]
        mu = _built("asymptotics", asymptotics.mu_from_weight, cfg["gamma"], beta, cfg["b"])
        model = _built("asymptotics", asymptotics.exp_model, beta, mu)
        meta = {"beta": beta, "mu": mu, "coefficients": list(model.coeffs)}
    else:
        model = _built("asymptotics", asymptotics.compact_model, cfg["b"], cfg["capacity"])
        meta = {"b": model.b, "capacity": model.capacity}
    pred = _prediction("asymptotics", model, ks)
    return ({"asymptotics.csv": (["k", "prediction_log"], zip(ks.tolist(), pred))},
            {"model": meta}, {})


def _construct_gaps(cfg):
    b, mult = cfg["b"], cfg["multiplicities"]
    V, predictions = _built("construct-gaps", operators.prescribed_gap_symbol,
                            b, mult, cfg["level_scales"], cfg["index_scales"])
    payload = {"b": b, "multiplicities": mult, "terms": len(V.terms), "predicted": [
        {"q": q, "k": k, "eigenvalue": val} for q, k, val in predictions]}
    Q = cfg["levels"] or len(mult) + 1
    Kr = cfg["radial"] or max(mult + [4]) + 8
    if cfg["verify"]:
        if Q < len(mult):
            raise ConfigError("levels must be at least len(multiplicities)")
        rep, trust = _level_spectrum(V, b, Q, Kr, -1)
        payload["gap_counts"] = [rep.gap_count(q, "-") for q in range(len(mult))]
        payload["eigenvalue_errors"] = [
            float(np.abs(rep.eigenvalues - val).min()) for _, _, val in predictions]
        payload.update(trust)
    return {}, payload, {}


COMMANDS = {
    "radial-eigs": (Obj({"profile": PROFILE, "count": Int(1)}), _radial_eigs),
    "spectrum": (Obj({"b": POSITIVE, "symbol": SYMBOL, "levels": Int(1), "radial": Int(1),
                      "sign": (OneOf({"+": +1, "-": -1, "plus": +1, "minus": -1}), +1)}),
                 _spectrum),
    "toeplitz": (Obj({"zeta": PROFILE, "b": POSITIVE, "count": Int(0), "q": (Int(0), 0),
                      "model": (MODEL, None)}), _toeplitz),
    "capacity": (Obj({"set": SET, "j_max": Int(1), "restarts": (Int(0), 8),
                      "seed": (Int(0), 0)}), _capacity),
    "asymptotics": (Kinds({
        "exp": Obj({"beta": POSITIVE, "gamma": POSITIVE, "b": POSITIVE, "k_range": K_RANGE}),
        "compact": Obj({"b": POSITIVE, "capacity": POSITIVE, "k_range": K_RANGE}),
    }), _asymptotics),
    "construct-gaps": (Obj({
        "b": POSITIVE, "multiplicities": List(Int(0)), "level_scales": List(FLOAT),
        "index_scales": List(FLOAT), "verify": (BOOL, False),
        "levels": (Int(1), None), "radial": (Int(1), None)}), _construct_gaps),
}


def _out_dir(path):
    """Make the --out directory; an --out that cannot be one is a config error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    return Path(path)


def _run(args):
    """Load the config, compute, and write every file of one COMMANDS entry to --out."""
    schema, compute = COMMANDS[args.command]
    cfg, digest = _load_config(args.config, schema)
    tables, payload, extra = compute(cfg)
    out = _out_dir(args.out)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    payload["provenance"] = {"tool": "landauspec", "version": __version__,
                             "config_sha256": digest, "command": args.command, **extra}
    _write_json(out / f"{args.command.replace('-', '_')}.json", payload)
    return 0


def cmd_verify(args):
    _built("--filter", verify.select_suites, args.filter)
    out = _out_dir(args.out) if args.out else None
    results = verify.run_suites(name_filter=args.filter, fault=args.inject_fault)
    width = max(len(r["suite"]) for r in results)
    for r in results:
        status = "pass" if r["passed"] else "FAIL"
        print(f"{r['suite']:<{width}}  {status}  error={r['error']:.3e}  tol={r['tolerance']:.0e}")
    failed = [r["suite"] for r in results if not r["passed"]]
    if out:
        _write_json(out / "verify.json", {"results": results})
    if failed:
        print(f"failed identities: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


@functools.cache     # built on first use, not at import, then kept for the process
def build_parser():
    p = argparse.ArgumentParser(prog="landauspec", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default="out", help="output directory")
        sp.set_defaults(fn=_run)

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
    except (ConfigError, quadrature.RuleOrderError, quadrature.QuadratureAccuracyError) as exc:
        kind = "accuracy" if isinstance(exc, quadrature.QuadratureAccuracyError) else "config"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: {args.command} needs more memory than can be allocated: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

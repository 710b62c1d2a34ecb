"""The program side of the benchmark: every landauspec call runs here.

Modes (the controller starts each one as its own process, with PYTHONPATH
pointing at the checkout's src/ and the thread variables pinned):

  probe            import landauspec, print one ready line, exit
  serve [--trace]  import, print a ready line, then run one JSON job per
                   stdin line and answer with one JSON line each
  once TRACE_PATH <cli args>
                   one traced CLI run in a fresh process (traced decay-cold)

The protocol uses a duplicate of the original stdout; anything the package
prints goes to stderr.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def _import_package():
    t0 = time.perf_counter()
    import landauspec
    import landauspec.cli  # noqa: F401  (the CLI is part of every job path)
    return landauspec, time.perf_counter() - t0


def _protocol_stream():
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    return proto


def _run_job(pkg, req):
    call = req["call"]
    if "cli" in call:
        rc = pkg.cli.main([call["cli"], "--config", req["config_path"], "--out", req["out"]])
        return {"rc": rc, "result": None}
    p = call["sandwich"]
    res = pkg.operators.birman_schwinger_check(
        pkg.symbols.gaussian(p["rate"]), r=p["r"], q=p["q"], b=p["b"],
        levels=p["levels"], radial=p["radial"], k_range=tuple(p["k_range"]),
        order=p["order"])
    return {"rc": 0, "result": {k: (v.tolist() if hasattr(v, "tolist") else v)
                                for k, v in res.items()}}


def _delta(after, before):
    out = {}
    for group in ("self_s", "counts"):
        a, b = after[group], before[group]
        out[group] = {k: a[k] - b.get(k, 0) for k in a}
    return out


def serve(trace):
    proto = _protocol_stream()
    pkg, import_s = _import_package()
    tracer = None
    if trace:
        import tracing
        tracer = tracing.install(pkg)
    proto.write(json.dumps({"import_s": import_s}) + "\n")
    for line in sys.stdin:
        req = json.loads(line)
        before = tracer.snapshot() if tracer else None
        try:
            reply = _run_job(pkg, req)
        except Exception:  # noqa: BLE001 - a failed job is reported, the worker keeps serving
            reply = {"rc": None, "result": None, "error": traceback.format_exc()}
        if tracer:
            reply["trace"] = _delta(tracer.snapshot(), before)
        proto.write(json.dumps(reply) + "\n")


def once(trace_out, argv):
    pkg, import_s = _import_package()
    import tracing
    tracer = tracing.install(pkg)
    rc = pkg.cli.main(argv)
    snap = tracer.snapshot()
    snap["import_s"] = import_s
    with open(trace_out, "w") as fh:
        json.dump(snap, fh)
    return rc


def main(argv):
    mode = argv[0]
    if mode == "probe":
        _, import_s = _import_package()
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0
    if mode == "serve":
        serve("--trace" in argv)
        return 0
    if mode == "once":
        return once(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

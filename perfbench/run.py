"""landauspec benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload decay-cold --seed 1 --seconds 12 --trace 0

Run from the root of a checkout (the directory holding src/landauspec).
The controller generates the workload's jobs from --seed, computes their
reference values, measures set-up, then runs whole rounds of the job list,
one job at a time, until another round would end past --seconds.  The
program runs in worker processes (worker.py) with one BLAS/OpenMP thread;
this process only holds the references and checks outputs.

The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.

    python3 perfbench/run.py --self-check --workload capacity

runs two interleaved sets of SELF_CHECK_RUNS untraced runs and reports, per
end-to-end metric, each set's median and quartiles and whether the two sets
agree within BENCHMARK.json's bounds.

Metric names, units and the default run length come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
OUT_DIR = BENCH_DIR / "_out"
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Fresh starts per run for setup_s: half before the measured phase, half
# after it, so that the median spans the run and not one slow spell of the host.
PROBES = 10
SELF_CHECK_RUNS = 5     # runs per set for --self-check
JOB_TIMEOUT_S = 150
# A run stops after the round that would end past --seconds, so it may
# overrun by up to one round (about 20 s on decay-cold) plus set-up and the
# oracles; the alarm allows that much beyond --seconds.
ALARM_MARGIN_S = 160
# per-layer metric -> (kind, key in the per-job trace)
_LAYER_SOURCE = {
    "quadrature.rule_s": ("self_s", "quadrature"),
    "quadrature.rules_built": ("counts", "quadrature.rules_built"),
    "specfun.sweep_s": ("self_s", "specfun"),
    "specfun.sweep_terms": ("counts", "specfun.sweep_terms"),
    "wigner.pair_sweep_s": ("self_s", "wigner"),
    "wigner.pair_sweeps": ("counts", "wigner.pair_sweeps"),
    "operators.moment_s": ("self_s", "operators.moment"),
    "operators.moment_values": ("counts", "operators.moment_values"),
    "operators.assembly_s": ("self_s", "operators.assembly"),
    "operators.pairings": ("counts", "operators.pairings"),
    "operators.eigensolve_s": ("self_s", "operators.eigensolve"),
    "symbols.eval_s": ("self_s", "symbols"),
    "symbols.eval_points": ("counts", "symbols.eval_points"),
    "capacity.ascent_s": ("self_s", "capacity"),
    "capacity.projections": ("counts", "capacity.projections"),
    "asymptotics.model_s": ("self_s", "asymptotics"),
    "cli.self_s": ("self_s", "cli"),
}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def program_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = THREADS
    # every program process reads the package's cached bytecode, as an installed
    # package would, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# program processes


def _worker_cmd(*args):
    return [sys.executable, str(BENCH_DIR / "worker.py"), *args]


def probe(env, errlog):
    """Seconds from spawning a fresh interpreter to landauspec imported; import part."""
    t0 = time.perf_counter()
    p = subprocess.Popen(_worker_cmd("probe"), env=env, stdout=subprocess.PIPE,
                         stderr=errlog, text=True)
    line = p.stdout.readline()
    ready = time.perf_counter() - t0
    p.stdout.read()
    p.stdout.close()
    if p.wait(timeout=JOB_TIMEOUT_S) != 0 or not line:
        raise RuntimeError("probe process failed; see the error log")
    return ready, json.loads(line)["import_s"]


class Worker:
    """A long-lived `worker.py serve` process; one request line, one reply line."""

    def __init__(self, env, errlog, trace):
        args = ["serve"] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(_worker_cmd(*args), env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=errlog, text=True,
                                     bufsize=1)
        self.import_s = self._read()["import_s"]

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker process ended unexpectedly; see the error log")
        return json.loads(line)

    def run(self, job, cfg_path, out):
        req = {"call": job["call"], "config_path": str(cfg_path), "out": str(out)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        return self._read()

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        self.proc.wait(timeout=JOB_TIMEOUT_S)


def run_cold_job(job, cfg_path, out, env, errlog, trace, trace_path):
    call = job["call"]
    cli_args = [call["cli"], "--config", str(cfg_path), "--out", str(out)]
    if trace:
        cmd = _worker_cmd("once", str(trace_path), *cli_args)
    else:
        cmd = [sys.executable, "-m", "landauspec.cli", *cli_args]
    rc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=errlog,
                        timeout=JOB_TIMEOUT_S).returncode
    reply = {"rc": rc, "result": None}
    if trace:
        reply["trace"] = json.loads(Path(trace_path).read_text())
    return reply


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = program_env()
        self.dir = OUT_DIR / f"run-{os.getpid()}"
        self.jobs = workloads.jobs_for(workload, seed)
        self.round_walls = []
        self.job_times = []
        self.round_traces = []
        self.import_times = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.fault_detail = {}
        self.worker = None
        self.per_job = {}

    def prepare(self):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        (self.dir / "cfg").mkdir(parents=True)
        for job in self.jobs:
            if "cli" in job["call"]:
                self._cfg(job).write_text(json.dumps(job["call"]["config"]))
        self.expected = [checks.prepare(job) for job in self.jobs]
        self.errlog = open(self.dir / "stderr.log", "w")

    def _cfg(self, job):
        return self.dir / "cfg" / f"{job['name']}.json"

    def _out(self, job):
        return self.dir / "out" / job["name"]

    def _record(self, job, expected, reply, elapsed, round_trace):
        self.attempted += 1
        self.job_times.append(elapsed)
        self.per_job.setdefault(job["name"], []).append(elapsed)
        if reply.get("rc") == 0:
            ok, detail = checks.verify(job, expected, reply["result"] or self._out(job))
        else:
            last = (reply.get("error") or "").strip().splitlines()[-1:]
            ok, detail = False, f"exit code {reply.get('rc')} {' '.join(last)}"
        if not ok:
            self.failed += 1
            if job["known_fault"]:
                self.fault_detail[job["name"]] = f"{job['known_fault']}: {detail}"
            else:
                self.unexpected.append(f"{job['name']}: {detail}")
        if "trace" in reply:
            _merge(round_trace, reply["trace"])
            if "import_s" in reply["trace"]:
                self.import_times.append(reply["trace"]["import_s"])

    def _round(self, runner):
        # every job of a round writes into a directory that does not exist yet,
        # so an output the job failed to write cannot be one left from before
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        round_trace = {"self_s": {}, "counts": {}}
        t0 = time.perf_counter()
        for job, expected in zip(self.jobs, self.expected):
            j0 = time.perf_counter()
            reply = runner(job)
            elapsed = time.perf_counter() - j0
            self._record(job, expected, reply, elapsed, round_trace)
        self.round_walls.append(time.perf_counter() - t0)
        self.round_traces.append(round_trace)

    def _rounds(self, runner):
        start = time.perf_counter()
        while True:
            self._round(runner)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(self.round_walls) > self.seconds:
                break

    def _probes(self, n):
        ready = []
        for _ in range(n):
            r, imp = probe(self.env, self.errlog)
            ready.append(r)
            self.import_times.append(imp)
        return ready

    def execute(self):
        self.prepare()
        warm_up_s = 0.0
        try:
            ready = self._probes(PROBES // 2)
            if self.workload == "decay-cold":
                trace_path = self.dir / "trace.json"
                self._rounds(lambda job: run_cold_job(
                    job, self._cfg(job), self._out(job), self.env, self.errlog,
                    self.trace, trace_path))
            else:
                worker = self.worker = Worker(self.env, self.errlog, self.trace)
                self.import_times.append(worker.import_s)
                runner = lambda job: worker.run(job, self._cfg(job), self._out(job))  # noqa: E731
                if self.workload == "decay-warm":
                    t0 = time.perf_counter()
                    for job in self.jobs:
                        runner(job)
                    warm_up_s = time.perf_counter() - t0
                self._rounds(runner)
                worker.close()
            ready += self._probes(PROBES - PROBES // 2)
            self.setup_s = statistics.median(ready) + warm_up_s
        finally:
            if self.worker is not None and self.worker.proc.poll() is None:
                self.worker.proc.kill()
                self.worker.proc.wait()
            self.errlog.close()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def end_to_end(self):
        return {
            "wall_s": statistics.median(self.round_walls),
            "job_p50_s": statistics.median(self.job_times),
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self):
        rounds = self.round_traces
        out = {"proc.import_s": statistics.median(self.import_times)}
        for name, (kind, key) in _LAYER_SOURCE.items():
            value = statistics.median(r[kind].get(key, 0) for r in rounds)
            out[name] = int(value) if kind == "counts" and value == int(value) else float(value)

        def ratio(r):
            hits = r["counts"].get("quadrature.rule_hits", 0)
            total = hits + r["counts"].get("quadrature.rules_built", 0)
            return hits / total if total else 1.0
        out["quadrature.rule_hit_ratio"] = statistics.median(ratio(r) for r in rounds)
        return out

    def result(self, spec):
        group = "per_layer" if self.trace else "end_to_end"
        values = self.per_layer() if self.trace else self.end_to_end()
        return {
            "correct": not self.unexpected,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in spec[group]},
        }

    def save_trace(self):
        dest = OUT_DIR / "traces"
        dest.mkdir(parents=True, exist_ok=True)
        (dest / f"{self.workload}-seed{self.seed}.json").write_text(json.dumps({
            "rounds": self.round_traces, "round_walls": self.round_walls,
            "import_s": self.import_times,
            "per_layer": self.per_layer()}, indent=1, sort_keys=True))

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _merge(acc, trace):
    for group in ("self_s", "counts"):
        for k, v in trace[group].items():
            acc[group][k] = acc[group].get(k, 0) + v


def conditions():
    import numpy
    import scipy
    return {"threads": int(THREADS), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def single_run(args):
    if not (ROOT / "src" / "landauspec" / "__init__.py").is_file():
        print("run from the root of a landauspec checkout (src/landauspec not found)",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    run = Run(args.workload, args.seed, seconds, bool(args.trace))
    signal.signal(signal.SIGALRM, lambda *_: sys.exit("run exceeded its time limit"))
    signal.alarm(math.ceil(seconds) + ALARM_MARGIN_S)
    try:
        run.execute()
    finally:
        signal.alarm(0)
        run.cleanup()
    if args.trace:
        run.save_trace()
    for name, detail in sorted(run.fault_detail.items()):
        print(f"known fault {name}: {detail}", file=sys.stderr)
    for line in run.unexpected[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"conditions": conditions(), "rounds": len(run.round_walls),
                      "job_median_s": {k: round(statistics.median(v), 4)
                                       for k, v in run.per_job.items()}}))
    print(json.dumps(run.result(spec)))
    return 0


# ---------------------------------------------------------------------------
# self-check: two interleaved sets of the same code


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def self_check(args):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    sets = {"A": [], "B": []}
    for i in range(SELF_CHECK_RUNS):
        for label, seed in (("A", 1 + i), ("B", 101 + i)):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, cwd=ROOT)
            took = time.perf_counter() - t0
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            res = json.loads(last)
            res["seed"], res["run_s"], res["rc"] = seed, took, proc.returncode
            sets[label].append(res)
            print(f"{label} seed {seed}: rc={proc.returncode} {took:.1f}s "
                  f"correct={res.get('correct')} attempted={res.get('attempted')} "
                  f"failed={res.get('failed')} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res.get("metrics", {}).items()),
                  flush=True)
    ok = True
    names = list(sets["A"][0]["metrics"])
    print(f"\n{'metric':<22}{'A q1 / median / q3':>33}{'spread':>8}"
          f"{'B q1 / median / q3':>33}{'spread':>8}{'all':>8}{'B/A-1':>8}{'bound':>6}  agree")
    for name in names:
        a = [r["metrics"][name]["value"] for r in sets["A"]]
        b = [r["metrics"][name]["value"] for r in sets["B"]]
        qa, qb = _quartiles(a), _quartiles(b)
        spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
        spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
        qall = _quartiles(a + b)
        spread_all = (qall[2] - qall[0]) / qall[1] if qall[1] else 0.0
        shift = qb[1] / qa[1] - 1 if qa[1] else 0.0
        bound = bounds[name]
        good = abs(shift) <= bound and spread_a <= bound and spread_b <= bound
        ok &= good
        print(f"{name:<22}{qa[0]:>11.5g}{qa[1]:>11.5g}{qa[2]:>11.5g}{spread_a:>8.1%}"
              f"{qb[0]:>11.5g}{qb[1]:>11.5g}{qb[2]:>11.5g}{spread_b:>8.1%}{spread_all:>8.1%}"
              f"{shift:>8.1%}{bound:>6}  {'yes' if good else 'NO'}")
    shares = {lab: {r["failed"] / r["attempted"] for r in runs}
              for lab, runs in sets.items()}
    same_share = len(shares["A"] | shares["B"]) == 1
    all_correct = all(r.get("correct") for runs in sets.values() for r in runs)
    print(f"\nfailed share per run: A {sorted(shares['A'])} B {sorted(shares['B'])} "
          f"-> {'identical' if same_share else 'DIFFERENT'}; all correct: {all_correct}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"selfcheck-{args.workload}.json").write_text(
        json.dumps(sets, indent=1))
    return 0 if ok and same_share and all_correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run two interleaved sets of untraced runs and compare them")
    args = ap.parse_args()
    if args.self_check:
        return self_check(args)
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's program side: `perfbench/worker.py serve` runs the calls
the benchmark makes (CLI commands and `operators.birman_schwinger_check`)
on the package in src/, one JSON request per line."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worker_serves_the_level_spectrum_jobs(tmp_path):
    # spectrum, construct-gaps and both sandwich jobs of seed 1, under the
    # suite's RuntimeWarning filter
    jobs = _workloads().level_jobs(1)
    requests = []
    for job in jobs:
        cfg = tmp_path / f"{job['name']}.json"
        if "cli" in job["call"]:
            cfg.write_text(json.dumps(job["call"]["config"]))
        requests.append(json.dumps({"call": job["call"], "config_path": str(cfg),
                                    "out": str(tmp_path / "out" / job["name"])}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(BENCH / "worker.py"), "serve"],
        input="\n".join(requests) + "\n", capture_output=True, text=True, env=env,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    ready, *replies = (json.loads(line) for line in proc.stdout.splitlines())
    assert "import_s" in ready and len(replies) == len(jobs)
    for job, reply in zip(jobs, replies):
        assert reply["rc"] == 0 and "error" not in reply, (job["name"], reply.get("error"))

import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import landauspec
from landauspec import capacity, cli, operators, verify
from landauspec.cli import main
from test_asymptotics import taylor_oracle
from test_symbols import _cache_counts, bessel_cache  # noqa: F401  (bessel_cache: a fixture)


# the interpreter for CLI subprocesses, under the suite's filter from pyproject.toml
_PYTHON = (sys.executable, "-W", "error::RuntimeWarning")


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_radial_eigs_rank_one_fixture(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "profile": {"kind": "gaussian", "rate": 1.0, "amplitude": 2.0},
        "count": 6,
    })
    out = tmp_path / "out"
    assert main(["radial-eigs", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "radial_eigs.csv")
    assert header == ["k", "mu_w", "mu_aw", "mu_w_fourier"]
    # 2 pi Psi_0 fixture: mu_w row 0 is 2 pi * 1/(2 pi) = 1
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-9)
    assert abs(float(rows[3][1])) < 1e-9
    # fourier column agrees with the direct one
    for r in rows:
        assert float(r[3]) == pytest.approx(float(r[1]), abs=1e-9)


def test_radial_eigs_constant_profile(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "profile": {"kind": "constant", "value": 0.7}, "count": 5})
    out = tmp_path / "out"
    assert main(["radial-eigs", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "radial_eigs.csv")
    for r in rows:
        assert float(r[1]) == pytest.approx(0.7, abs=1e-10)
        assert float(r[2]) == pytest.approx(0.7, abs=1e-10)


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["radial-eigs", "--config", str(bad), "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, "c2.json", {"profile": {"kind": "nope"}, "count": 4})
    assert main(["radial-eigs", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, "c3.json", {"count": 4})
    assert main(["radial-eigs", "--config", cfg, "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, "c4.json", {
        "profile": {"kind": "gaussian", "rate": 1.0}, "count": 4, "bogus": 1})
    assert main(["radial-eigs", "--config", cfg, "--out", str(tmp_path)]) == 2
    missing = str(tmp_path / "does_not_exist.json")
    assert main(["radial-eigs", "--config", missing, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv,out", [
    (["toeplitz", "--config", "c.json"], "afile"),
    (["toeplitz", "--config", "c.json"], "afile/sub"),
    (["verify", "--filter", "toeplitz"], "afile")],
    ids=["toeplitz-file", "toeplitz-under-file", "verify-file"])
def test_unusable_out_exits_2(tmp_path, monkeypatch, capsys, argv, out):
    # an --out that is a file, or lies under one, is refused with a message
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, "c.json", {"zeta": _GAUSS, "b": 1.0, "count": 4})
    (tmp_path / "afile").write_text("kept")
    assert main(argv + ["--out", out]) == 2
    assert "config error: cannot write output:" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "kept"


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    assert main(["toeplitz", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "config error: cannot read config:" in capsys.readouterr().err


def _reference_csv(path, header, rows):
    """The CSV writer the CLI used before its one-string writer: csv.writer, 17 digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([format(v, ".17g") for v in row])


@pytest.mark.parametrize("rows", [
    [(math.nan, math.inf, -math.inf), (-0.0, 5e-324, 1.7976931348623157e308),
     (0.1, -2.5e-300, 1 / 3)],
    [(7, np.int64(-3), np.float64(2.0 / 3.0)), (10**20, np.int64(0), np.float64(-1e-310))],
    []], ids=["edge-floats", "int-kinds", "no-rows"])
def test_write_csv_matches_csv_writer_bytes(tmp_path, rows):
    header = ["k", "a", "b"]
    cli._write_csv(tmp_path / "new.csv", header, iter(rows))
    _reference_csv(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_reused_parser_leaks_no_flags_between_runs(tmp_path, monkeypatch):
    # four runs in one process share the cached parser; each must see only its own
    # flags and write what a fresh `python -m landauspec.cli` writes
    runs = [["verify", "--filter", "moyal"],
            ["toeplitz", "--config", "t.json", "--out", "t"],
            ["radial-eigs", "--config", "r.json"],
            ["verify", "--filter", "moyal", "--out", "r"]]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    for root in (here, fresh):
        root.mkdir()
        write_config(root, "t.json", {"zeta": _GAUSS, "b": 1.0, "q": 1, "count": 12})
        write_config(root, "r.json", {"profile": _GAUSS, "count": 8})
    monkeypatch.chdir(here)
    written = []
    for argv in runs:
        before = set(_tree(here))
        assert main(argv) == 0
        written.append(sorted(set(_tree(here)) - before))
    assert written == [[], ["t/toeplitz.csv", "t/toeplitz.json"],
                       ["out/radial_eigs.csv", "out/radial_eigs.json"], ["r/verify.json"]]
    src = str(Path(landauspec.__file__).resolve().parents[1])
    for argv in runs:
        subprocess.run([*_PYTHON, "-m", "landauspec.cli", *argv], cwd=fresh, check=True,
                       env=dict(os.environ, PYTHONPATH=src), capture_output=True)
    assert _tree(here) == _tree(fresh)


def test_radial_eigs_warm_and_cold_write_the_same_bytes(tmp_path, bessel_cache):
    # the Hankel step keeps its Bessel matrix per process: the first run in a
    # process fills it, the second reads it, and both must write what a fresh
    # process writes
    cfg = write_config(tmp_path, "k1.json", {
        "profile": {"kind": "exp_beta", "gamma": 1.0, "beta": 0.5}, "count": 64})
    for run in ("warm1", "warm2"):
        assert main(["radial-eigs", "--config", cfg, "--out", str(tmp_path / run)]) == 0
    assert _cache_counts(bessel_cache) == (1, 1, 1)
    src = str(Path(landauspec.__file__).resolve().parents[1])
    subprocess.run([*_PYTHON, "-m", "landauspec.cli", "radial-eigs", "--config", cfg,
                    "--out", str(tmp_path / "cold")], check=True,
                   env=dict(os.environ, PYTHONPATH=src), capture_output=True)
    written = {(tmp_path / run / "radial_eigs.csv").read_bytes()
               for run in ("warm1", "warm2", "cold")}
    assert len(written) == 1


def test_spectrum_zero_symbol(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "b": 1.5, "levels": 3, "radial": 4, "sign": "+",
        "symbol": {"separable": {"terms": []}},
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "spectrum.json").read_text())
    eigs = np.array(data["eigenvalues"])
    expect = np.repeat(1.5 * (2 * np.arange(3) + 1.0), 4)
    assert np.abs(np.sort(eigs) - expect).max() < 1e-10
    assert all(w["count"] == 0 for w in data["windows"])
    _, rows = read_csv(out / "eigenvalues.csv")
    assert len(rows) == 12


def test_spectrum_prescribed_gap_fixture(tmp_path):
    # one planted eigenvalue at 0.6 below level 0 plus the level-kernel DSL
    coeff = (2 * math.pi) ** 2 * 0.4
    cfg = write_config(tmp_path, "c.json", {
        "b": 1.0, "levels": 3, "radial": 6, "sign": "-",
        "symbol": {"separable": {"frame": "lab", "terms": [
            {"coeff": coeff, "A": {"kind": "level_kernel", "q": 0},
             "B": {"kind": "level_kernel", "q": 0}}]}},
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "spectrum.json").read_text())
    eigs = np.array(data["eigenvalues"])
    assert np.abs(eigs - 0.6).min() < 1e-8
    counts = {(w["q"], w["side"]): w["count"] for w in data["windows"]}
    assert counts[(0, "-")] == 1


def test_toeplitz_exponential_residual(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "zeta": {"kind": "exp_beta", "gamma": 1.0, "beta": 1.0},
        "b": 2.0, "q": 0, "count": 40, "model": {"kind": "exp"},
    })
    out = tmp_path / "out"
    assert main(["toeplitz", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "toeplitz.csv")
    assert len(rows) == 40
    # residual column constant -ln(1 + mu), mu = 1
    res = [float(r[4]) for r in rows[2:]]
    assert max(res) - min(res) < 1e-10
    assert res[0] == pytest.approx(-math.log(2.0), rel=1e-10)
    assert float(rows[5][1]) == pytest.approx(2.0 ** -6.0, rel=1e-10)


def test_toeplitz_poly_gauss_logs_past_underflow(tmp_path):
    # (1 + s) e^(-5 s) at b = 1: nu_k = 11^-(k+1) (1 + (k+1)/11), below the
    # underflow threshold from k = 311
    cfg = write_config(tmp_path, "c.json", {
        "zeta": {"kind": "poly_gauss", "coeffs": [1.0, 0.5], "rate": 5.0}, "b": 1.0,
        "q": 0, "count": 401})
    out = tmp_path / "out"
    assert main(["toeplitz", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "toeplitz.csv")
    k = np.arange(401)
    expect = -(k + 1) * math.log(11.0) + np.log1p((k + 1) / 11.0)
    assert np.abs(np.array([float(r[2]) for r in rows]) - expect).max() < 1e-11


def test_toeplitz_negative_amplitude_keeps_signed_values(tmp_path):
    # a negative weight: nu_k = -2 / 3^(k+1) is written with its sign, ln nu_k as NaN
    cfg = write_config(tmp_path, "c.json", {
        "zeta": {"kind": "gaussian", "rate": 1.0, "amplitude": -2.0}, "b": 1.0, "count": 3})
    out = tmp_path / "out"
    assert main(["toeplitz", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "toeplitz.csv")
    assert [float(r[1]) for r in rows] == pytest.approx([-2 / 3, -2 / 9, -2 / 27], rel=1e-12)
    assert all(math.isnan(float(r[2])) for r in rows)


@pytest.mark.parametrize("b, code", [(1e-18, 2), (1e-100, 2)])
def test_toeplitz_laguerre_mix_at_tiny_b(tmp_path, capsys, b, code):
    # zeta(2t/b) sweeps 19 Laguerre steps at u = 4t/b, up to 3e103 on the grid,
    # where 16 steps between rescales would overflow.  At b = 1e-18 the weight
    # sits at the floor of the log grid; at 1e-100 it underflows to 0 on every
    # node, which wrote nu_k = 0 and exited 0
    cfg = write_config(tmp_path, "c.json", {
        "zeta": {"kind": "laguerre_mix", "coeffs": [1.0] * 20}, "b": b, "count": 5})
    out = tmp_path / "out"
    assert main(["toeplitz", "--config", cfg, "--out", str(out)]) == code
    assert "accuracy error: moment k = 0" in capsys.readouterr().err


def test_toeplitz_empty_range(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "zeta": {"kind": "gaussian", "rate": 1.0}, "b": 1.0, "count": 0})
    out = tmp_path / "out"
    assert main(["toeplitz", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "toeplitz.csv")
    assert rows == [] and header[0] == "k"
    # a header-only file, as csv.writer wrote it
    _reference_csv(tmp_path / "ref.csv", header, [])
    assert (out / "toeplitz.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_capacity_command_and_determinism(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "set": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "j_max": 12, "restarts": 3, "seed": 5})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["capacity", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["capacity", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "capacity.json").read_bytes()
    b2 = (out2 / "capacity.json").read_bytes()
    assert b1 == b2    # byte-identical rerun
    data = json.loads(b1)
    assert data["estimate"] == pytest.approx(1.0, rel=0.06)
    assert data["lower_cert"] <= data["estimate"]


_RERUN_CONFIGS = {
    "spectrum": {
        "b": 1.2, "levels": 3, "radial": 8, "sign": "-",
        "symbol": {"separable": {"terms": [
            {"coeff": 9.0, "A": {"kind": "level_kernel", "q": 1},
             "B": {"kind": "gaussian", "rate": 0.4}}]}}},
    "construct-gaps": {
        "b": 1.0, "multiplicities": [2, 0, 1], "level_scales": [0.8, 0.5, 0.3],
        "index_scales": [0.5, 0.25], "verify": True},
    "toeplitz": {
        "zeta": {"kind": "exp_beta", "gamma": 1.0, "beta": 1.5},
        "b": 2.0, "q": 1, "count": 40, "model": {"kind": "exp"}},
    "radial-eigs": {"profile": {"kind": "gaussian", "rate": 0.3}, "count": 12},
    "asymptotics": {"kind": "exp", "beta": 2.0, "gamma": 1.0, "b": 2.0, "k_range": [2, 20]},
}


# one config per command: the rerun configs and a small capacity run on a
# union, whose lower_cert is NaN in memory and null on disk
_CONTRACT_CONFIGS = {**_RERUN_CONFIGS, "capacity": {
    "set": {"kind": "union", "members": [
        {"kind": "disk", "center": [-2.0, 0.0], "radius": 0.5},
        {"kind": "disk", "center": [2.0, 0.0], "radius": 0.5}]},
    "j_max": 8, "restarts": 0}}


def _strict_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_every_config_command_has_a_contract_config():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == [*cli.COMMANDS, "verify"]
    assert set(_CONTRACT_CONFIGS) == set(cli.COMMANDS)


@pytest.mark.parametrize("command", list(_CONTRACT_CONFIGS))
def test_outputs_follow_the_readme_contract(tmp_path, command):
    # CSV: \r\n line ends and 17 significant digits; JSON: strict (no NaN or
    # Infinity), key-sorted, indent 2, a final newline; <command>.json carries
    # the provenance block
    cfg = write_config(tmp_path, "c.json", _CONTRACT_CONFIGS[command])
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    json_name = command.replace("-", "_") + ".json"
    assert json_name in {p.name for p in out.iterdir()}
    for path in out.iterdir():
        raw = path.read_bytes()
        if path.suffix == ".csv":
            lines = raw.split(b"\r\n")
            assert lines[-1] == b"" and all(b"\n" not in line for line in lines), path.name
            for line in lines[1:-1]:
                for cell in line.decode().split(","):
                    assert cell == format(float(cell), ".17g"), (path.name, cell)
        else:
            data = json.loads(raw, parse_constant=_strict_constant)
            assert raw.decode() == json.dumps(data, sort_keys=True, indent=2) + "\n", path.name
    prov = json.loads((out / json_name).read_bytes())["provenance"]
    digest = hashlib.sha256(Path(cfg).read_bytes()).hexdigest()
    assert {k: prov[k] for k in ("tool", "version", "config_sha256", "command")} == {
        "tool": "landauspec", "version": landauspec.__version__,
        "config_sha256": digest, "command": command}


@pytest.mark.parametrize("command", list(_RERUN_CONFIGS))
def test_rerun_is_byte_identical(tmp_path, command):
    cfg = write_config(tmp_path, "c.json", _RERUN_CONFIGS[command])
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main([command, "--config", cfg, "--out", str(out1)]) == 0
    assert main([command, "--config", cfg, "--out", str(out2)]) == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files and files == sorted(p.name for p in out2.iterdir())
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_asymptotics_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "kind": "exp", "beta": 2.0, "gamma": 1.0, "b": 2.0, "k_range": [2, 20]})
    out = tmp_path / "out"
    assert main(["asymptotics", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "asymptotics.json").read_text())
    assert data["model"]["mu"] == pytest.approx(1.0)
    assert data["model"]["coefficients"][0] == pytest.approx(2.0 ** -0.5, abs=1e-8)


def test_construct_gaps_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "b": 1.0, "multiplicities": [2, 0, 1],
        "level_scales": [0.8, 0.5, 0.3], "index_scales": [0.5, 0.25],
        "verify": True, "levels": 4, "radial": 8})
    out = tmp_path / "out"
    assert main(["construct-gaps", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "construct_gaps.json").read_text())
    assert data["gap_counts"] == [2, 0, 1]
    assert max(data["eigenvalue_errors"]) < 1e-8
    vals = sorted(p["eigenvalue"] for p in data["predicted"])
    assert vals == pytest.approx([0.6, 0.8, 4.85])


def test_construct_gaps_writes_trust_radius(tmp_path):
    gaps = {"b": 1.0, "multiplicities": [2, 0, 1],
            "level_scales": [0.8, 0.5, 0.3], "index_scales": [0.5, 0.25]}
    cfg = write_config(tmp_path, "c.json", dict(gaps, verify=True, levels=4, radial=8))
    out = tmp_path / "out"
    assert main(["construct-gaps", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "construct_gaps.json").read_text())
    V, _ = operators.prescribed_gap_symbol(gaps["b"], gaps["multiplicities"],
                                           gaps["level_scales"], gaps["index_scales"])
    trust = operators.assemble_hv(V, 4, 8, sign=-1).trust_radius
    assert data["trust_radius"] == trust
    assert data["trust_warning"] is (trust > 0.5 * gaps["b"])


_BAD_SIZES = [("levels", 0), ("radial", -3), ("levels", "x"), ("levels", 2.5),
              ("radial", True)]


@pytest.mark.parametrize("key,value", _BAD_SIZES)
def test_spectrum_rejects_bad_sizes(tmp_path, capsys, key, value):
    payload = {"b": 1.0, "levels": 3, "radial": 4, "sign": "+",
               "symbol": {"separable": {"terms": []}}}
    cfg = write_config(tmp_path, "c.json", dict(payload, **{key: value}))
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", _BAD_SIZES)
def test_construct_gaps_rejects_bad_sizes(tmp_path, capsys, key, value):
    payload = {"b": 1.0, "multiplicities": [1], "level_scales": [0.8],
               "index_scales": [0.5], "verify": True, "levels": 3, "radial": 4}
    cfg = write_config(tmp_path, "c.json", dict(payload, **{key: value}))
    assert main(["construct-gaps", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be a positive integer" in capsys.readouterr().err


def test_construct_gaps_rejects_levels_below_multiplicities(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "b": 1.0, "multiplicities": [1, 0, 1], "level_scales": [0.8, 0.5, 0.3],
        "index_scales": [0.5], "verify": True, "levels": 2, "radial": 4})
    assert main(["construct-gaps", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "levels must be at least len(multiplicities)" in capsys.readouterr().err


@pytest.mark.parametrize("beta,count", [(0.9, 9), (1.1, 10)])
def test_asymptotics_beta_near_one(tmp_path, beta, count):
    cfg = write_config(tmp_path, "c.json", {
        "kind": "exp", "beta": beta, "gamma": 1.0, "b": 2.0, "k_range": [2, 20]})
    out = tmp_path / "out"
    assert main(["asymptotics", "--config", cfg, "--out", str(out)]) == 0
    model = json.loads((out / "asymptotics.json").read_text())["model"]
    assert model["coefficients"] == pytest.approx(
        taylor_oracle(beta, model["mu"], count), rel=1e-13, abs=0)


def test_asymptotics_rejects_beta_past_coefficient_bound(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "kind": "exp", "beta": 1 + 1e-9, "gamma": 1.0, "b": 2.0, "k_range": [2, 20]})
    t0 = time.perf_counter()
    assert main(["asymptotics", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "coefficients g_j, more than the 1000 supported" in capsys.readouterr().err


_BAD_COUNTS = [
    ("toeplitz", "count", -3, "non-negative"), ("toeplitz", "count", "8", "non-negative"),
    ("toeplitz", "count", 2.5, "non-negative"), ("toeplitz", "q", -1, "non-negative"),
    ("toeplitz", "q", 1.5, "non-negative"), ("toeplitz", "q", "x", "non-negative"),
    ("radial-eigs", "count", "8", "positive"), ("radial-eigs", "count", 0, "positive"),
    ("radial-eigs", "count", -3, "positive"), ("radial-eigs", "count", True, "positive")]


@pytest.mark.parametrize("command,key,value,what", _BAD_COUNTS)
def test_toeplitz_and_radial_eigs_reject_bad_sizes(tmp_path, capsys, command, key, value, what):
    payload = {"toeplitz": {"zeta": {"kind": "gaussian", "rate": 1.0}, "b": 1.0, "count": 4},
               "radial-eigs": {"profile": {"kind": "gaussian", "rate": 1.0}, "count": 4}}
    cfg = write_config(tmp_path, "c.json", dict(payload[command], **{key: value}))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be a {what} integer" in capsys.readouterr().err


# rules sized from count: the Laguerre tail, the Legendre panels of a
# breakpoint (count // 2 + 64 and (count + 120) // 2 nodes), the spectrum's tail.
# poly_gauss([1]) is e^(-s) on the quadrature route: a gaussian takes its closed form
_PAST_MAX_ORDER = [
    ("radial-eigs", {"profile": {"kind": "poly_gauss", "coeffs": [1.0], "rate": 1.0},
                     "count": 30000}, 15400),
    ("radial-eigs", {"profile": {"kind": "disk_indicator", "cutoff": 1.0}, "count": 20000},
     10064),
    ("toeplitz", {"zeta": {"kind": "disk_indicator", "cutoff": 1.0}, "b": 1.0, "count": 20000},
     10060),
    ("spectrum", {"b": 1.0, "levels": 1, "radial": 30000, "symbol": {"separable": {"terms": [
        {"coeff": 1.0, "A": {"kind": "level_kernel", "q": 0},
         "B": {"kind": "power", "gamma": 3.0}}]}}}, 15400)]


@pytest.mark.parametrize("command,payload,order", _PAST_MAX_ORDER)
def test_rule_order_past_limit_exits_2(tmp_path, capsys, command, payload, order):
    cfg = write_config(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(order) in err and "10000" in err and "Traceback" not in err


def test_gaussian_radial_eigs_need_no_rule_at_any_count(tmp_path):
    # the closed forms, at a count whose Gauss-Laguerre tail would pass MAX_ORDER:
    # mu_w = mu_w_fourier = (1 - a)^k / (1 + a)^(k+1), mu_aw = (1 + 2a)^-(k+1)
    cfg = write_config(tmp_path, "c.json", {
        "profile": {"kind": "gaussian", "rate": 0.5}, "count": 30000})
    assert main(["radial-eigs", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    _, rows = read_csv(tmp_path / "out" / "radial_eigs.csv")
    got = np.array(rows, dtype=float)
    k = got[:, 0]
    assert (k == np.arange(30000)).all()
    weyl = np.exp(k * math.log(1.0 / 3.0)) * (2.0 / 3.0)
    assert np.abs(got[:, 1] - weyl).max() < 1e-16
    assert np.abs(got[:, 3] - weyl).max() < 1e-16
    assert np.abs(got[:, 2] - 0.5 ** (k + 1)).max() < 1e-16


@pytest.mark.parametrize("command,payload", [
    ("asymptotics", {"kind": "exp", "beta": 2.0, "gamma": 1.0, "b": 2.0,
                     "k_range": [2, 10**15]}),
    ("radial-eigs", {"profile": {"kind": "laguerre_mix", "coeffs": [1.0]}, "count": 10**15})])
def test_size_past_any_address_space_exits_2(tmp_path, command, payload):
    # each needs a 7.11 PiB array; the 3 GB address-space cap only guards the host
    cfg = write_config(tmp_path, "c.json", payload)
    src = str(Path(landauspec.__file__).resolve().parents[1])
    cap = 3 << 30
    proc = subprocess.run(
        [*_PYTHON, "-c", "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, "
                         "(int(sys.argv[1]),) * 2); from landauspec.cli import main; "
                         "sys.exit(main(sys.argv[2:]))",
         str(cap), command, "--config", cfg, "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "needs more memory than can be allocated" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_toeplitz_unresolved_grid_exits_2(tmp_path, capsys):
    # the k = 0 integrand of e^(-1e27 s) (poly_gauss([1]) on the grid) peaks
    # below the log grid
    cfg = write_config(tmp_path, "c.json", {
        "zeta": {"kind": "poly_gauss", "coeffs": [1.0], "rate": 1e27}, "b": 1.0, "count": 4})
    assert main(["toeplitz", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "log grid" in capsys.readouterr().err


@pytest.mark.parametrize("rate,b", [(1e27, 1.0), (1e44, 1.0), (1e300, 1.0), (1.0, 1e-300)])
def test_toeplitz_gaussian_past_the_log_grid_is_exact(tmp_path, rate, b):
    # the gaussian's closed form needs no grid: ln nu_k = -(k + 1) ln(1 + 2 rate / b)
    cfg = write_config(tmp_path, "c.json", {"zeta": {"kind": "gaussian", "rate": rate},
                                            "b": b, "count": 4})
    assert main(["toeplitz", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    header, rows = read_csv(tmp_path / "out" / "toeplitz.csv")
    ln_nu = np.array([float(row[header.index("ln_nu_k")]) for row in rows])
    want = -(np.arange(4) + 1) * math.log1p(2.0 * rate / b)
    assert ln_nu == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("zeta,b", [
    ({"kind": "poly_gauss", "coeffs": [1.0], "rate": 1e44}, 1.0),
    ({"kind": "poly_gauss", "coeffs": [1.0], "rate": 1e300}, 1.0),
    ({"kind": "power", "gamma": 1e300}, 1.0),
    ({"kind": "poly_gauss", "coeffs": [1.0], "rate": 1.0}, 1e-300),
    ({"kind": "laguerre_mix", "coeffs": [0.1 * (j + 1) for j in range(20)]}, 1e-130),
    ({"kind": "poly_gauss", "coeffs": [1.0, 2.0, 3.0], "rate": 0.5}, 1e-300),
    ({"kind": "laguerre_mix", "coeffs": [1.0, 2.0]}, 5e-324),
    ({"kind": "constant", "value": 1.7e308, "amplitude": 1e150}, 1.0),
    ({"kind": "poly_gauss", "coeffs": [1.0, 2.0, 3.0], "rate": 0.5}, 1e-40),
    ({"kind": "poly_gauss", "coeffs": [1.0, 2.0, 3.0], "rate": 0.5}, 1e-100),
    ({"kind": "laguerre_mix", "coeffs": [1.0, 0.5]}, 1e-40),
    ({"kind": "laguerre_mix", "coeffs": [1.0, 0.5]}, 1e-100),
    ({"kind": "exp_beta", "gamma": 1e44, "beta": 1.0}, 1.0),
    ({"kind": "exp_beta", "gamma": 1e300, "beta": 1.0}, 1.0),
    ({"kind": "exp_beta", "gamma": 1.0, "beta": 1.0}, 1e-300)])
def test_toeplitz_peak_far_below_the_log_grid_exits_2(tmp_path, capsys, zeta, b):
    # ln |integrand| near -1e18 and beyond: the 36-nat margin must not be lost
    # to rounding at that magnitude (e^(-1e44 s) read ln nu_0 = -1.75e18 on the
    # grid).  The gaussian kind takes its closed form
    # (test_toeplitz_gaussian_past_the_log_grid_is_exact); on the grid, the same
    # weight as exp_beta with beta = 1 keeps its closed-form ln |R|, and as
    # poly_gauss([1]) it underflows to R = 0 on every node.
    # From the 20-coefficient mix on, R(2t/b) or its amplitude overflows to an
    # infinite or NaN ln |R|: two wrote NaN for every nu_k and exited 0 when
    # a NaN peak passed the margin check, the others raised a RuntimeWarning.
    # The four at b = 1e-40 and 1e-100 underflow to R = 0 on every node: they
    # wrote nu_k = 0
    cfg = write_config(tmp_path, "c.json", {"zeta": zeta, "b": b, "count": 4})
    assert main(["toeplitz", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "log grid" in capsys.readouterr().err


@pytest.mark.parametrize("zeta", [{"kind": "constant", "value": 0.0},
                                  {"kind": "laguerre_mix", "coeffs": [0.0]},
                                  {"kind": "poly_gauss", "coeffs": [0.0], "rate": 0.5}])
@pytest.mark.parametrize("b", [1.0, 1e-40, 1e-100])
def test_toeplitz_zero_weight_reads_zero(tmp_path, zeta, b):
    # a weight that is 0 everywhere has no peak to place, at any b
    cfg = write_config(tmp_path, "c.json", {"zeta": zeta, "b": b, "count": 4})
    out = tmp_path / "out"
    assert main(["toeplitz", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "toeplitz.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1:3] for row in rows] == [["0", "nan"]] * 4


@pytest.mark.parametrize("b", [1e100, 1e160])
def test_spectrum_cluster_tol_past_the_square_overflow(tmp_path, b):
    # one eigenvalue b/2 below level 0: the diagonal's 2-norm must not overflow
    # at |entry| ~ 1e160, where it read Infinity and counted 0 below the level
    kernel = {"kind": "level_kernel", "q": 0}
    cfg = write_config(tmp_path, "c.json", {
        "b": b, "levels": 1, "radial": 1, "sign": "-", "symbol": {"separable": {
            "terms": [{"coeff": 2 * math.pi ** 2 * b, "A": kernel, "B": kernel}]}}})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "spectrum.json").read_text())
    assert data["eigenvalues"] == [pytest.approx(0.5 * b, rel=1e-14)]
    assert data["cluster_tol"] == pytest.approx(0.5e-10 * b, rel=1e-14)
    assert [w["count"] for w in data["windows"]] == [1, 0]


# b (2 levels + 1), the top of the level ladder, just inside the double range
# (with the largest diagonal entry above 2^1023) and past it; the last inside
# config's planted term was once formed as 4 pi^2 level_scale, which overflowed
_LADDER_INSIDE = [
    ("spectrum", {"b": 8.46e305, "levels": 100, "radial": 4,
                  "symbol": {"separable": {"terms": []}}}),
    ("construct-gaps", {"b": 3.2e307, "multiplicities": [1], "level_scales": [4e306],
                        "index_scales": [0.5], "verify": True}),
    ("construct-gaps", {"b": 3.2e307, "multiplicities": [1], "level_scales": [3e307],
                        "index_scales": [0.5], "verify": True})]
_LADDER_PAST = [
    ("spectrum", {"b": 1e308, "levels": 1, "radial": 1, "symbol": {"separable": {"terms": []}}}),
    ("spectrum", {"b": 9e305, "levels": 100, "radial": 4,
                  "symbol": {"separable": {"terms": []}}}),
    ("construct-gaps", {"b": 1e308, "multiplicities": [1], "level_scales": [1.0],
                        "index_scales": [0.5], "verify": True})]


@pytest.mark.parametrize("command,payload", _LADDER_INSIDE)
def test_level_ladder_up_to_the_largest_double(tmp_path, command, payload):
    # the cluster tolerance's power of two overflowed (exit 1) above 2^1023
    cfg = write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / f"{command.replace('-', '_')}.json").read_text())
    if command == "spectrum":
        b, levels = payload["b"], payload["levels"]
        assert data["eigenvalues"] == [b * (2 * q + 1) for q in range(levels)
                                       for _ in range(payload["radial"])]
        assert 0 < data["cluster_tol"] < math.inf
    else:
        assert data["gap_counts"] == [1]
        assert data["eigenvalue_errors"][0] < 1e-14 * payload["b"]


@pytest.mark.parametrize("command,payload", _LADDER_PAST)
def test_level_ladder_past_the_largest_double_exits_2(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "b: the top Landau level b (2 levels + 1) overflows" in capsys.readouterr().err


@pytest.mark.parametrize("command,payload", [
    ("toeplitz", {"zeta": {"kind": "disk_indicator", "cutoff": 5e-324}, "b": 1.0, "count": 4}),
    ("toeplitz", {"zeta": {"kind": "disk_indicator", "cutoff": 1e-323}, "b": 1.0, "count": 4}),
    ("radial-eigs", {"profile": {"kind": "disk_indicator", "cutoff": 5e-324}, "count": 4})])
def test_underflowing_cutoff_exits_2(tmp_path, capsys, command, payload):
    # cutoff / scale rounds to 0 (no interval left) or to a subnormal number
    # (nodes and weights of 0, which read nu_0 as NaN)
    cfg = write_config(tmp_path, "c.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "underflowed" in err and "Traceback" not in err


def _readme_config_rows():
    """Cells of the rows of the README's config-key tables, header and rule rows dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Config keys", 1)[1].split("\n### ", 1)[0]
    rows = [[c.strip() for c in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    return [r for r in rows if r[0] not in ("command", "block") and set(r[0]) != {"-"}]


def _ticked(cell):
    return re.findall(r"`([^`]+)`", cell)


def _schema_keys(spec):
    if isinstance(spec, cli.Kinds):
        return {"kind"}.union(*(_schema_keys(obj) for obj in spec.table.values()))
    return set(spec.fields)


def test_readme_config_table_matches_schema():
    # a key added to or removed from a command or a profile kind must reach the table
    commands, kinds, current = {}, {}, None
    for row in _readme_config_rows():
        if len(row) == 4:                       # command | key | type and range | default
            current = _ticked(row[0])[0] if row[0] else current
            commands.setdefault(current, set()).update(_ticked(row[1]))
        elif _ticked(row[0]):                   # profile kind | its keys
            kinds[_ticked(row[0])[0]] = set(_ticked(row[1]))
        elif row[0] == "profile":
            assert {"kind", "amplitude"} <= set(_ticked(row[1]))
    assert set(commands) == set(cli.COMMANDS)
    for command, keys in commands.items():
        assert keys == _schema_keys(cli.COMMANDS[command][0]), command
    assert kinds == {kind: set(obj.fields) - {"amplitude"}
                     for kind, obj in cli.PROFILE.table.items()}


def test_import_loads_no_scipy():
    src = str(Path(landauspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import landauspec, landauspec.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_builds_nothing_and_loads_no_csv():
    # a cold process pays only for what it uses: the parser is built on first use,
    # and the CSV writer needs no csv module
    src = str(Path(landauspec.__file__).resolve().parents[1])
    code = ("import sys, landauspec.cli as cli; "
            "print('csv' in sys.modules, cli.build_parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["False", "0"]


_GAUSS = {"kind": "gaussian", "rate": 0.5}
# every subcommand, each reaching its Gauss rules or Bessel functions: Toeplitz
# on the log grid and on a Legendre panel, radial-eigs through the closed-form,
# J_0 (Hankel) and J_1 (disk) Fourier sides, spectrum and construct-gaps through
# the radial-diagonal route, verify through its Gauss-Hermite suites
_NO_SCIPY_RUNS = [
    ["toeplitz", {"zeta": _GAUSS, "b": 1.0, "q": 1, "count": 20}],
    ["toeplitz", {"zeta": {"kind": "disk_indicator", "cutoff": 2.0}, "b": 2.0, "count": 20}],
    ["radial-eigs", {"profile": _GAUSS, "count": 16}],
    ["radial-eigs", {"profile": {"kind": "exp_beta", "gamma": 1.0, "beta": 0.5}, "count": 16}],
    ["radial-eigs", {"profile": {"kind": "disk_indicator", "cutoff": 1.5}, "count": 16}],
    ["spectrum", {"b": 1.0, "levels": 3, "radial": 8, "sign": "-", "symbol": {
        "separable": {"frame": "lab", "terms": [{"coeff": 1.0, "A": _GAUSS, "B": _GAUSS}]}}}],
    ["construct-gaps", {"b": 1.0, "multiplicities": [2, 0, 1], "level_scales": [0.8, 0.5, 0.3],
                        "index_scales": [0.5, 0.25], "verify": True, "levels": 4, "radial": 8}],
    ["asymptotics", {"kind": "exp", "beta": 2.0, "gamma": 1.0, "b": 2.0, "k_range": [2, 20]}],
    ["capacity", {"set": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
                  "j_max": 8, "restarts": 0, "seed": 1}],
]


def test_every_subcommand_runs_without_scipy(tmp_path):
    # sys.modules["scipy"] = None makes any scipy import raise ImportError
    src = str(Path(landauspec.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from landauspec.cli import main\n"
        "codes = []\n"
        "for i, (command, payload) in enumerate(json.loads(sys.argv[1])):\n"
        "    cfg = f'c{i}.json'\n"
        "    with open(cfg, 'w') as fh:\n"
        "        json.dump(payload, fh)\n"
        "    codes.append(main([command, '--config', cfg, '--out', f'out{i}']))\n"
        "codes.append(main(['verify']))\n"
        "print(json.dumps(codes))\n")
    done = subprocess.run([*_PYTHON, "-c", code, json.dumps(_NO_SCIPY_RUNS)],
                          env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * (len(_NO_SCIPY_RUNS) + 1)
    rows = read_csv(tmp_path / "out3" / "radial_eigs.csv")[1]
    assert all(math.isfinite(float(r[3])) for r in rows)    # the J_0 column ran


def test_construct_gaps_invalid_scales(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "b": 1.0, "multiplicities": [0, 1], "level_scales": [0.8, 2.5],
        "index_scales": [0.5]})
    assert main(["construct-gaps", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command,config", [
    ("capacity", {"set": {"kind": "union", "members": [
        {"kind": "disk", "center": [-2.0, 0.0], "radius": 0.5},
        {"kind": "disk", "center": [2.0, 0.0], "radius": 0.5}]}, "j_max": 12, "restarts": 1}),
    ("spectrum", {"b": 1.0, "levels": 3, "radial": 8, "sign": "-", "symbol": {"separable": {
        "terms": [{"coeff": 0.5, "A": {"kind": "gaussian", "rate": 0.5},
                   "B": {"kind": "gaussian", "rate": 0.7}}]}}})])
def test_write_json_bytes_match_json_dump(tmp_path, command, config):
    # one json.dumps and one write give the bytes the streaming json.dump gave
    schema, compute = cli.COMMANDS[command]
    payload = compute(schema.walk(config, ""))[1]
    payload["provenance"] = {"tool": "landauspec", "command": command}
    cli._write_json(tmp_path / "got.json", payload)
    with open(tmp_path / "want.json", "w") as fh:
        json.dump(cli._plain(payload), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    got = (tmp_path / "got.json").read_bytes()
    assert got == (tmp_path / "want.json").read_bytes()


def test_verify_command(tmp_path, capsys):
    assert main(["verify", "--filter", "symplectic"]) == 0
    assert "pass" in capsys.readouterr().out
    # mutation check: the planted phase error must be caught
    assert main(["verify", "--filter", "wigner-closed-form",
                 "--inject-fault", "pair_phase_sign"]) == 1
    assert main(["verify", "--filter", "toeplitz-closed-form",
                 "--inject-fault", "moment_window"]) == 1
    assert main(["verify", "--filter", "no-such-suite"]) == 2
    # each planted fault turns exactly the suites of its own layer red: the
    # clipped moment window reaches the Laplacian shift's low rows as well
    for fault, suites in (("pair_phase_sign", ["wigner-closed-form"]),
                          ("moment_window", ["laplacian-level-shift", "toeplitz-closed-form"]),
                          ("hankel_step", ["weyl-fourier-agreement"])):
        assert [r["suite"] for r in verify.run_suites(fault=fault) if not r["passed"]] == suites


def _scaled_set(kind, s):
    """The unit-size disk, segment, square or equilateral triangle scaled by s."""
    if kind == "disk":
        return {"kind": "disk", "center": [0.3 * s, -0.2 * s], "radius": s}
    if kind == "segment":
        return {"kind": "segment", "a": [0.0, 0.0], "b": [s, 0.0]}
    if kind == "square":
        return {"kind": "polygon", "vertices": [[0.0, 0.0], [s, 0.0], [s, s], [0.0, s]]}
    return {"kind": "polygon", "vertices": [[0.0, 0.0], [s, 0.0], [0.5 * s, math.sqrt(0.75) * s]]}


_DISK = {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0}
_BAD_CAPACITY = [
    ({"set": _DISK, "j_max": 3}, "j_max must be at least 8"),
    ({"set": _DISK, "j_max": "x"}, "j_max must be a positive integer"),
    ({"set": _DISK, "j_max": 8.7}, "j_max must be a positive integer"),
    ({"set": _DISK, "j_max": 8, "restarts": -1}, "restarts must be a non-negative integer"),
    ({"set": _DISK, "j_max": 8, "seed": "1"}, "seed must be a non-negative integer"),
    ({"set": {"kind": "disk", "radius": -1}, "j_max": 8}, "degenerate set"),
    ({"set": {"kind": "polygon", "vertices": [[0, 0]]}, "j_max": 8}, "zero area"),
    ({"set": {"kind": "polygon", "vertices": [[0, 0], [1, 0]]}, "j_max": 8}, "zero area"),
    ({"set": {"kind": "disk", "radius": float("inf")}, "j_max": 8}, "must be finite"),
    ({"set": {"kind": "union", "members": [_DISK, 5]}, "j_max": 8}, "expected an object"),
    ({"set": 5, "j_max": 8}, "expected an object"),
    ({"set": {"kind": "union", "members": [_DISK, {"kind": "segment", "a": [5, 5], "b": [5, 5]}]},
      "j_max": 8}, "union member 1 is a degenerate segment"),
    ({"set": {"kind": "union", "members": [{"kind": "disk", "center": [5, 0], "radius": 0}, _DISK]},
      "j_max": 8}, "union member 0 is a degenerate disk"),
    # extents past [1e-150, 1e150]: these wrote null estimates, warned or read a wrong one
    ({"set": {"kind": "segment", "a": [-1.7e308, 0.0], "b": [1.7e308, 0.0]}, "j_max": 8},
     "set: segment of extent inf lies outside"),
    ({"set": _scaled_set("disk", 1e-160), "j_max": 8}, "set: disk of extent 1e-160 lies outside"),
    ({"set": _scaled_set("segment", 1e-160), "j_max": 8},
     "set: segment of extent 1e-160 lies outside"),
    ({"set": _scaled_set("square", 1e-160), "j_max": 8},
     "set: polygon of extent 1e-160 lies outside"),
    ({"set": _scaled_set("segment", 1e154), "j_max": 8},
     "set: segment of extent 1e+154 lies outside"),
    ({"set": _scaled_set("square", 1e154), "j_max": 8},
     "set: polygon of extent 1e+154 lies outside"),
    ({"set": {"kind": "disk", "radius": 1e-170}, "j_max": 8},
     "set: disk of extent 1e-170 lies outside"),
    # (the far member is large enough to pass its own coordinate range below)
    ({"set": {"kind": "union", "members": [_DISK, {"kind": "disk", "center": [1e151, 0.0],
                                                   "radius": 1e144}]}, "j_max": 8},
     "set: union of extent 1e+151 lies outside"),
    # coordinates past 1e8 times the extent: this disk read 1.1136 for a capacity of 2
    ({"set": {"kind": "disk", "center": [1.7e308, 0.0], "radius": 2.0}, "j_max": 8},
     "set: disk reaches 1.7e+308 from the origin, more than 1e8 times its extent 2"),
    ({"set": {"kind": "union", "members": [_DISK, {"kind": "segment", "a": [1e9, 0.0],
                                                   "b": [1e9, 1.0]}]}, "j_max": 8},
     "set.members[1]: segment reaches 1e+09 from the origin")]


@pytest.mark.parametrize("payload,message", _BAD_CAPACITY)
def test_capacity_rejects_bad_configs(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["capacity", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("vertices,message", [
    ([[0, 0], [1, 1], [2, 2]], "use a segment"),
    ([[0, 0], [1, 1], [2, 2.000000001]], "too thin to sample")], ids=["collinear", "sliver"])
def test_capacity_polygon_without_room_exits_2(tmp_path, vertices, message):
    # rejection sampling inside these polygons would never end
    cfg = write_config(tmp_path, "c.json", {
        "set": {"kind": "polygon", "vertices": vertices}, "j_max": 8, "restarts": 1})
    src = str(Path(landauspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([*_PYTHON, "-m", "landauspec.cli", "capacity", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert message in proc.stderr


@pytest.mark.parametrize("union", [False, True])
def test_capacity_polygon_with_a_subnormal_edge_rise(tmp_path, union):
    # an edge rising by 5e-324 overflowed the crossing test's quotient for
    # points level with neither of its ends: a traceback under the warning filter
    def estimate(y):
        poly = {"kind": "polygon", "vertices": [[0.0, y], [1.0, 0.0], [0.0, 1.0]]}
        if union:
            poly = {"kind": "union", "members": [
                {"kind": "segment", "a": [-3.0, 0.0], "b": [-2.0, 0.0]}, poly]}
        cfg = write_config(tmp_path, "c.json", {"set": poly, "j_max": 8, "restarts": 0})
        assert main(["capacity", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        return json.loads((tmp_path / "out" / "capacity.json").read_text())["estimate"]

    assert estimate(5e-324) == pytest.approx(estimate(0.0), rel=1e-12)


# capacities of the unit-size sets: radius, length / 4, Gamma(1/4)^2 / (4 pi^(3/2)) and
# sqrt(3) Gamma(1/3)^3 / (8 pi^2) times the side
_UNIT_CAPACITY = {"disk": 1.0, "segment": 0.25,
                  "square": math.gamma(0.25) ** 2 / (4 * math.pi ** 1.5),
                  "triangle": math.sqrt(3) * math.gamma(1 / 3) ** 3 / (8 * math.pi ** 2)}


@pytest.mark.parametrize("kind", list(_UNIT_CAPACITY))
@pytest.mark.parametrize("s", [1e-150, 1e150])
def test_capacity_at_the_ends_of_the_extent_range(tmp_path, kind, s):
    # the ascent's squared distances and curvature terms stay inside the double range
    cfg = write_config(tmp_path, "c.json", {"set": _scaled_set(kind, s), "j_max": 40,
                                            "restarts": 1, "seed": 1})
    out = tmp_path / "out"
    assert main(["capacity", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "capacity.json").read_text())
    assert data["estimate"] / s == pytest.approx(_UNIT_CAPACITY[kind], rel=0.1)


def test_capacity_reports_iterations_and_convergence(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "set": {"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0]},
        "j_max": 11, "restarts": 1, "seed": 1})
    out = tmp_path / "out"
    assert main(["capacity", "--config", cfg, "--out", str(out)]) == 0
    per_j = json.loads((out / "capacity.json").read_text())["per_j"]
    est = capacity.capacity_estimate(capacity.segment(-1.0, 1.0), 11, restarts=1, seed=1)
    assert [(r["j"], r["iterations"], r["newton_iterations"], r["converged"]) for r in per_j] == \
        [(r.j, r.iterations, r.newton_iterations, True) for r in est.per_j]
    assert all(0 < r["newton_iterations"] < r["iterations"] for r in per_j)


_BAD_ASYMPTOTICS = [
    ({"kind": "exp", "beta": 2.0, "gamma": 1.0, "b": 2.0, "k_range": [2, "x"]}, "k_range"),
    ({"kind": "exp", "beta": 2.0, "gamma": 1.0, "b": 2.0, "k_range": [2]}, "k_range"),
    ({"kind": "exp", "beta": "x", "gamma": 1.0, "b": 2.0, "k_range": [2, 20]}, "float"),
    ({"kind": "compact", "b": 2.0, "capacity": -1.0, "k_range": [2, 20]},
     "capacity must be positive"),
    ({"kind": "exp", "beta": 2.0, "gamma": 1.0, "b": 2.0, "k_range": [10, 5]}, "k_range"),
    ({"kind": "compact", "b": 2.0, "capacity": 1.0, "k_range": [0, 1]}, "k_range"),
    # mu = gamma (2/b)^beta and b cap^2 / 2 past the double range, either way
    ({"kind": "exp", "beta": 3.0, "gamma": 1e300, "b": 1e-300, "k_range": [2, 20]},
     "is inf at gamma=1e+300"),
    ({"kind": "exp", "beta": 3.0, "gamma": 1e-300, "b": 1e300, "k_range": [2, 20]},
     "is 0.0 at gamma=1e-300"),
    ({"kind": "exp", "beta": 1.01, "gamma": 5e-324, "b": 2.0, "k_range": [2, 20]},
     "is 5e-324 at gamma=5e-324"),
    ({"kind": "compact", "b": 1e-300, "capacity": 1e-300, "k_range": [2, 20]},
     "is 0.0, not a finite positive double"),
    ({"kind": "compact", "b": 1e300, "capacity": 1e300, "k_range": [2, 20]},
     "is inf, not a finite positive double")]


@pytest.mark.parametrize("payload,message", _BAD_ASYMPTOTICS)
def test_asymptotics_rejects_bad_configs(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, "c.json", payload)
    assert main(["asymptotics", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_toeplitz_compact_model_rejects_negative_capacity(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "zeta": {"kind": "disk_indicator", "cutoff": 1.0}, "b": 2.0, "count": 4,
        "model": {"kind": "compact", "capacity": -1.0}})
    assert main(["toeplitz", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "capacity must be positive" in capsys.readouterr().err
    # the models' constants past the double range
    for zeta, b, model, message in (
            ({"kind": "exp_beta", "gamma": 1e300, "beta": 3.0}, 1e-300, {"kind": "exp"},
             "model: mu = gamma (2/b)^beta is inf"),
            ({"kind": "disk_indicator", "cutoff": 1.0}, 1e-300,
             {"kind": "compact", "capacity": 1e-300}, "model: b capacity^2/2 is 0.0")):
        cfg = write_config(tmp_path, "c.json", {"zeta": zeta, "b": b, "count": 4, "model": model})
        assert main(["toeplitz", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err


_TOEPLITZ = {"zeta": {"kind": "gaussian", "rate": 1.0}, "b": 1.0, "count": 4}
_SPECTRUM = {"b": 1.0, "levels": 2, "radial": 3, "sign": "-", "symbol": {"separable": {
    "frame": "lab", "terms": [{"coeff": 1.0, "A": _GAUSS, "B": _GAUSS}]}}}
_GAPS = {"b": 1.0, "multiplicities": [1], "level_scales": [0.8], "index_scales": [0.5]}
_RADIAL = {"profile": _GAUSS, "count": 4}
_TERM0 = ("symbol", "separable", "terms", 0)


def _with(payload, where, value):
    """Deep copy of payload with the value at the key path `where` replaced."""
    out = json.loads(json.dumps(payload))
    node = out
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return out


# configs that crashed with a traceback or ran to exit 0 on bad input, with
# the key path their error message must name
_ESCAPES = [
    ("toeplitz", _TOEPLITZ, ("b",), "x", "b must be a float"),
    ("toeplitz", _TOEPLITZ, ("b",), -1, "b must be positive"),
    ("toeplitz", _TOEPLITZ, ("zeta", "amplitude"), "x", "zeta.amplitude"),
    ("toeplitz", _TOEPLITZ, ("model",), 5, "model"),
    ("spectrum", _SPECTRUM, ("b",), "x", "b must be a float"),
    ("spectrum", _SPECTRUM, ("symbol", "separable"), 5, "symbol.separable"),
    ("spectrum", _SPECTRUM, _TERM0[:3], 5, "symbol.separable.terms"),
    ("spectrum", _SPECTRUM, _TERM0[:3], [5], "symbol.separable.terms[0]"),
    ("spectrum", _SPECTRUM, _TERM0 + ("coeff",), "x", "symbol.separable.terms[0].coeff"),
    ("construct-gaps", _GAPS, ("b",), "x", "b must be a float"),
    ("construct-gaps", _GAPS, ("level_scales",), 5, "level_scales"),
    ("toeplitz", _TOEPLITZ, ("zeta", "rate"), float("nan"), "zeta.rate must be finite"),
    ("toeplitz", _TOEPLITZ, ("zeta",), {"kind": "poly_gauss", "coeffs": [1.0], "rate": -1},
     "zeta.rate must be positive"),
    ("spectrum", _SPECTRUM, ("b",), -1, "b must be positive"),
    ("spectrum", _SPECTRUM, _TERM0 + ("A",), {"kind": "level_kernel", "q": -1},
     "symbol.separable.terms[0].A.q"),
    ("spectrum", _SPECTRUM, _TERM0 + ("A",), {"kind": "level_kernel", "q": 2.7},
     "symbol.separable.terms[0].A.q"),
    ("toeplitz", _TOEPLITZ, ("zeta",), {"kind": "tabulated", "grid": [3, 1, 2],
                                        "values": [1, 1, 1]}, "zeta: grid"),
    ("toeplitz", _TOEPLITZ, ("zeta",), {"kind": "power", "gamma": True}, "zeta.gamma"),
    ("construct-gaps", _GAPS, ("multiplicities",), [1.7], "multiplicities[0]"),
    ("toeplitz", _TOEPLITZ, ("order",), "x", "unknown keys ['order']"),
    ("spectrum", _SPECTRUM, ("order",), "x", "unknown keys ['order']"),
    # columns that overflowed to NaN or infinity with exit 0: weights times the
    # constant, the Fourier dual's infinite rate, the Laguerre series' sum
    ("radial-eigs", _RADIAL, ("profile",), {"kind": "constant", "value": -1.7e308}, "profile: "),
    ("radial-eigs", _RADIAL, ("profile",), {"kind": "gaussian", "rate": 5e-324}, "profile: "),
    ("radial-eigs", _RADIAL, ("profile",), {"kind": "laguerre_mix", "coeffs": [1e308, 1e308]},
     "profile: "),
    # rules take their sizes from the inputs, so `order` is no longer a key
    ("radial-eigs", _RADIAL, ("order",), 20000, "unknown keys ['order']"),
    ("toeplitz", _with(_TOEPLITZ, ("zeta",), {"kind": "disk_indicator", "cutoff": 1.0}),
     ("order",), 20000, "unknown keys ['order']"),
    # coeff mu_0(A) mu_k(B) overflows in the level-basis diagonal: it exited 0
    # writing -inf eigenvalues, or ended in a traceback under the warning filter
    ("spectrum", _SPECTRUM, _TERM0, {"coeff": 1.7e308, "A": {"kind": "constant", "value": -1e150},
                                     "B": {"kind": "gaussian", "rate": 1.0}}, "symbol"),
    # ln |R| = +inf on the log grid ended in a traceback under the warning filter
    # at q = 1 (a NaN from the sweep), where q = 0 already exited 2
    ("toeplitz", {**_TOEPLITZ, "b": 1e6, "q": 1, "count": 40}, ("zeta",),
     {"kind": "laguerre_mix", "coeffs": [1.7e308, 1e150, 1e-300], "amplitude": 1e6},
     "log grid"),
    # mu = 1.7e308 puts -inf in every prediction_log row, with exit 0
    ("asymptotics", {"kind": "exp", "beta": 0.5, "gamma": 1.0, "b": 2.0, "k_range": [2, 40]},
     ("gamma",), 1.7e308, "asymptotics"),
    # found by the fuzz below once it drew extreme doubles: Toeplitz model
    # predictions of -inf written with exit 0, and a Landau level that
    # overflowed in a traceback under the warning filter
    ("toeplitz", {**_TOEPLITZ, "b": 2.0, "q": 1, "model": {"kind": "exp"}}, ("zeta",),
     {"kind": "exp_beta", "gamma": 1e300, "beta": 1.7e308}, "model: the prediction"),
    ("construct-gaps", {**_GAPS, "multiplicities": [2, 0, 1], "level_scales": [0.8, 0.5, 0.3],
                        "index_scales": [0.5, 0.25]}, ("b",), 1.7e308,
     "construct-gaps: the top Landau level"),
]


@pytest.mark.parametrize("command,payload,where,value,path", _ESCAPES)
def test_malformed_config_names_key_path(tmp_path, capsys, command, payload, where, value,
                                         path):
    cfg = write_config(tmp_path, "c.json", _with(payload, where, value))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert path in capsys.readouterr().err


def test_verify_rejects_unknown_fault(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--filter", "symplectic", "--inject-fault", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


_VALID = [
    ("radial-eigs", {"profile": {"kind": "gaussian", "rate": 1.0, "amplitude": 2.0},
                     "count": 4}),
    ("radial-eigs", {"profile": {"kind": "tabulated", "grid": [0.0, 1.0, 2.0],
                                 "values": [1.0, 0.5, 0.0]}, "count": 3}),
    ("toeplitz", {"zeta": {"kind": "exp_beta", "gamma": 1.0, "beta": 2.0}, "b": 2.0,
                  "q": 1, "count": 4, "model": {"kind": "exp"}}),
    ("toeplitz", {"zeta": {"kind": "disk_indicator", "cutoff": 1.0}, "b": 2.0, "count": 4,
                  "model": {"kind": "compact", "capacity": 1.0}}),
    ("toeplitz", {"zeta": {"kind": "poly_gauss", "coeffs": [1.0, 0.5], "rate": 1.0},
                  "b": 1.0, "count": 3}),
    ("spectrum", {"b": 1.0, "levels": 2, "radial": 3, "sign": "-", "symbol": {"separable": {
        "frame": "lab", "terms": [
            {"coeff": 1.0, "A": {"kind": "level_kernel", "q": 0},
             "B": {"kind": "power", "gamma": 3.0}},
            {"coeff": 0.5, "A": {"kind": "laguerre_mix", "coeffs": [1.0, 0.2]},
             "B": {"kind": "constant", "value": 0.1}}]}}}),
    ("capacity", {"set": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
                  "j_max": 8, "restarts": 0, "seed": 1}),
    ("capacity", {"set": {"kind": "union", "members": [
        {"kind": "segment", "a": [-3.0, 0.0], "b": [-2.0, 0.0]},
        {"kind": "polygon", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}]},
        "j_max": 8, "restarts": 0}),
    ("asymptotics", {"kind": "exp", "beta": 0.5, "gamma": 1.0, "b": 2.0, "k_range": [2, 8]}),
    ("asymptotics", {"kind": "compact", "b": 2.0, "capacity": 1.0, "k_range": [0, 8]}),
    ("construct-gaps", {"b": 1.0, "multiplicities": [2, 0, 1], "level_scales": [0.8, 0.5, 0.3],
                        "index_scales": [0.5, 0.25], "verify": True, "levels": 3,
                        "radial": 3}),
]
_ODD_VALUES = [-1, 0, 1, 2.5, "x", True, None, float("nan"), [], {}]
# a float leaf may also become a double at either end of the range
_EXTREME_DOUBLES = [sign * x for x in (5e-324, 1e-300, 1e-150, 1e-18, 1e18, 1e150, 1e300, 1.7e308)
                    for sign in (1.0, -1.0)]


def _nodes(cfg, where=()):
    """Key paths of every value below the root of a config."""
    items = cfg.items() if isinstance(cfg, dict) else enumerate(cfg)
    for key, value in items:
        yield where + (key,)
        if isinstance(value, (dict, list)):
            yield from _nodes(value, where + (key,))


def _mutate(cfg, data):
    where = data.draw(st.sampled_from(list(_nodes(cfg))))
    parent = cfg
    for key in where[:-1]:
        parent = parent[key]
    key, op = where[-1], data.draw(st.sampled_from(["set", "delete", "extra", "nest"]))
    if op == "set":
        odd = _ODD_VALUES + _EXTREME_DOUBLES if type(parent[key]) is float else _ODD_VALUES
        parent[key] = data.draw(st.sampled_from(odd))
    elif op == "delete":
        del parent[key]
    elif op == "extra" and isinstance(parent, dict):
        parent["extra"] = data.draw(st.sampled_from(_ODD_VALUES))
    elif op == "extra":
        parent.append(data.draw(st.sampled_from(_ODD_VALUES)))
    else:
        parent[key] = data.draw(st.sampled_from([[parent[key]], {"kind": parent[key]}]))


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_configs_exit_0_or_2(tmp_path_factory, data):
    command, payload = data.draw(st.sampled_from(_VALID))
    cfg = json.loads(json.dumps(payload))
    for _ in range(data.draw(st.integers(1, 2))):
        if cfg:
            _mutate(cfg, data)
    tmp = tmp_path_factory.mktemp("mutant")
    path = write_config(tmp, "c.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp / "out")]) in (0, 2)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--order", "40"], ["construct-gaps", "--order", "40"],
    ["toeplitz", "--seed", "1"], ["radial-eigs", "--seed", "1"],
    ["asymptotics", "--order", "40"], ["verify", "--seed", "1"], ["verify", "--order", "40"],
    ["toeplitz", "--order", "40"], ["radial-eigs", "--order", "40"], ["capacity", "--seed", "1"]])
def test_flags_that_reach_nothing_are_refused(tmp_path, capsys, argv):
    config = [] if argv[0] == "verify" else ["--config", write_config(tmp_path, "c.json", {})]
    with pytest.raises(SystemExit) as exc:
        main(argv + config)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

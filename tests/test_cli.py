import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import landauspec
from landauspec import capacity, operators
from landauspec.cli import main
from test_asymptotics import taylor_oracle


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


def test_toeplitz_negative_amplitude_keeps_signed_values(tmp_path):
    # no log form: nu_k = -2 / 3^(k+1) is written as is, ln nu_k as NaN
    cfg = write_config(tmp_path, "c.json", {
        "zeta": {"kind": "gaussian", "rate": 1.0, "amplitude": -2.0}, "b": 1.0, "count": 3})
    out = tmp_path / "out"
    assert main(["toeplitz", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "toeplitz.csv")
    assert [float(r[1]) for r in rows] == pytest.approx([-2 / 3, -2 / 9, -2 / 27], rel=1e-12)
    assert all(math.isnan(float(r[2])) for r in rows)


def test_toeplitz_empty_range(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "zeta": {"kind": "gaussian", "rate": 1.0}, "b": 1.0, "count": 0})
    out = tmp_path / "out"
    assert main(["toeplitz", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "toeplitz.csv")
    assert rows == [] and header[0] == "k"


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
    trust = operators.assemble_hv(V, 4, 8, sign=-1).provenance["trust_radius"]
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


def test_toeplitz_unresolved_grid_exits_2(tmp_path, capsys):
    # the k = 0 integrand of gaussian(1e27) peaks below the log grid
    cfg = write_config(tmp_path, "c.json", {
        "zeta": {"kind": "gaussian", "rate": 1e27}, "b": 1.0, "count": 4})
    assert main(["toeplitz", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "log grid" in capsys.readouterr().err


def test_import_loads_no_scipy():
    src = str(Path(landauspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import landauspec, landauspec.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
    done = subprocess.run([sys.executable, "-c", code, json.dumps(_NO_SCIPY_RUNS)],
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


def test_verify_command(tmp_path, capsys):
    assert main(["verify", "--filter", "symplectic"]) == 0
    assert "pass" in capsys.readouterr().out
    # mutation check: the planted phase error must be caught
    assert main(["verify", "--filter", "wigner-closed-form",
                 "--inject-fault", "pair_phase_sign"]) == 1
    assert main(["verify", "--filter", "no-such-suite"]) == 2


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
    ({"set": 5, "j_max": 8}, "expected an object")]


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
    proc = subprocess.run([sys.executable, "-m", "landauspec.cli", "capacity", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert message in proc.stderr


def test_capacity_reports_iterations_and_convergence(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "set": {"kind": "segment", "a": [-1.0, 0.0], "b": [1.0, 0.0]},
        "j_max": 11, "restarts": 1, "seed": 1})
    out = tmp_path / "out"
    assert main(["capacity", "--config", cfg, "--out", str(out)]) == 0
    per_j = json.loads((out / "capacity.json").read_text())["per_j"]
    est = capacity.capacity_estimate(capacity.segment(-1.0, 1.0), 11, restarts=1, seed=1)
    assert [(r["j"], r["iterations"], r["converged"]) for r in per_j] == \
        [(r.j, r.iterations, True) for r in est.per_j]


_BAD_ASYMPTOTICS = [
    ({"kind": "exp", "beta": 2.0, "gamma": 1.0, "b": 2.0, "k_range": [2, "x"]}, "k_range"),
    ({"kind": "exp", "beta": 2.0, "gamma": 1.0, "b": 2.0, "k_range": [2]}, "k_range"),
    ({"kind": "exp", "beta": "x", "gamma": 1.0, "b": 2.0, "k_range": [2, 20]}, "float"),
    ({"kind": "compact", "b": 2.0, "capacity": -1.0, "k_range": [2, 20]},
     "capacity must be positive")]


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


_TOEPLITZ = {"zeta": {"kind": "gaussian", "rate": 1.0}, "b": 1.0, "count": 4}
_SPECTRUM = {"b": 1.0, "levels": 2, "radial": 3, "sign": "-", "symbol": {"separable": {
    "frame": "lab", "terms": [{"coeff": 1.0, "A": _GAUSS, "B": _GAUSS}]}}}
_GAPS = {"b": 1.0, "multiplicities": [1], "level_scales": [0.8], "index_scales": [0.5]}
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
    ("toeplitz", _TOEPLITZ, ("order",), "x", "order must be a positive integer"),
    ("spectrum", _SPECTRUM, ("order",), "x", "unknown keys ['order']"),
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
                     "count": 4, "order": 40}),
    ("radial-eigs", {"profile": {"kind": "tabulated", "grid": [0.0, 1.0, 2.0],
                                 "values": [1.0, 0.5, 0.0]}, "count": 3}),
    ("toeplitz", {"zeta": {"kind": "exp_beta", "gamma": 1.0, "beta": 2.0}, "b": 2.0,
                  "q": 1, "count": 4, "model": {"kind": "exp"}}),
    ("toeplitz", {"zeta": {"kind": "disk_indicator", "cutoff": 1.0}, "b": 2.0, "count": 4,
                  "order": 24, "model": {"kind": "compact", "capacity": 1.0}}),
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
        parent[key] = data.draw(st.sampled_from(_ODD_VALUES))
    elif op == "delete":
        del parent[key]
    elif op == "extra" and isinstance(parent, dict):
        parent["extra"] = data.draw(st.sampled_from(_ODD_VALUES))
    elif op == "extra":
        parent.append(data.draw(st.sampled_from(_ODD_VALUES)))
    else:
        parent[key] = data.draw(st.sampled_from([[parent[key]], {"kind": parent[key]}]))


@settings(max_examples=300, deadline=None)
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
    ["asymptotics", "--order", "40"], ["verify", "--seed", "1"], ["verify", "--order", "40"]])
def test_flags_that_reach_nothing_are_refused(tmp_path, capsys, argv):
    config = [] if argv[0] == "verify" else ["--config", write_config(tmp_path, "c.json", {})]
    with pytest.raises(SystemExit) as exc:
        main(argv + config)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_seed_flag_overrides_and_is_checked_like_the_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"set": _DISK, "j_max": 8, "restarts": 0, "seed": 1})
    assert main(["capacity", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert main(["capacity", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "3"]) == 0
    prov = json.loads((tmp_path / "o" / "capacity.json").read_text())["provenance"]
    assert (prov["seed"], prov["capacity_seed"]) == (3, 3) and "order" not in prov

"""Command-line driver: artifacts, determinism, exit codes."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from rootlab import cli
from rootlab.cli import ConfigError, parse_range, parse_waveform


def run_cli(*args, outdir):
    return subprocess.run(
        [sys.executable, "-m", "rootlab.cli", "--out", str(outdir), *args],
        capture_output=True, text=True)


def test_parse_range():
    assert np.allclose(parse_range("0.01:0.1:log3"), np.geomspace(0.01, 0.1, 3))
    assert np.allclose(parse_range("1:5:lin5"), [1, 2, 3, 4, 5])
    for bad in ("1:2", "1:2:geo3", "1:2:log0", "a:b:lin3"):
        with pytest.raises(ConfigError):
            parse_range(bad)


def test_parse_waveform():
    w = parse_waveform('{"offset": 5.0, "components": [[0.5, 0.1, 0.0]]}')
    assert w(0.0) == pytest.approx(5.0)
    assert w(2.5) == pytest.approx(5.0 + 0.5 * np.sin(2 * np.pi * 0.25))
    with pytest.raises(ConfigError):
        parse_waveform("{")


def test_inflate_artifact(tmp_path):
    r = run_cli("inflate", "--algebra", "H",
                "--poly", "[[1,0,0,0],[0,0,0,0],[1,0,0,0]]", "--seed", "1",
                outdir=tmp_path)
    assert r.returncode == 0
    data = json.loads((tmp_path / "inflate.json").read_text())
    assert data["hausdorff_dimension"] == 2
    (stratum,) = data["strata"]
    assert stratum["kind"] == "sphere"
    assert stratum["re"] == pytest.approx(0.0)
    assert stratum["radius"] == pytest.approx(1.0)
    assert stratum["worst_sample_potential"] < 1e-18
    assert data["config"]["seed"] == 1


def test_inflate_two_sphere_quartic(tmp_path):
    # x^4 + 2.1 x^2 + 0.660839: its auxiliary roots are two conjugate pairs
    # whose real parts are rounding noise
    r = run_cli("inflate", "--algebra", "H", "--poly",
                "[[0.660839,0,0,0],[0,0,0,0],[2.1,0,0,0],[0,0,0,0],[1,0,0,0]]",
                "--seed", "1", outdir=tmp_path)
    assert r.returncode == 0, r.stderr
    data = json.loads((tmp_path / "inflate.json").read_text())
    assert [s["kind"] for s in data["strata"]] == ["sphere", "sphere"]
    assert all(s["worst_sample_potential"] < 1e-18 for s in data["strata"])


def test_inflate_non_central_isolated_points(tmp_path):
    r = run_cli("inflate", "--algebra", "H",
                "--poly", "[[1,0,0,0],[0,1,0,0],[1,0,0,0]]", "--seed", "1",
                outdir=tmp_path)
    assert r.returncode == 0, r.stderr
    data = json.loads((tmp_path / "inflate.json").read_text())
    assert data["hausdorff_dimension"] == 0
    assert [s["kind"] for s in data["strata"]] == ["isolated-point"] * 2
    beta = (np.sqrt(5.0) - 1.0) / 2.0
    got = sorted(s["point"][1] for s in data["strata"])
    assert np.allclose(got, [-1.0 - beta, beta], atol=1e-12)
    assert all(s["worst_sample_potential"] < 1e-28 for s in data["strata"])


def test_inflate_triple_real_root(tmp_path):
    # (x - 1)^3: Aberth splits the triple root by about 5e-5; it is one point
    r = run_cli("inflate", "--algebra", "H", "--poly",
                "[[-1,0,0,0],[3,0,0,0],[-3,0,0,0],[1,0,0,0]]", "--seed", "1",
                outdir=tmp_path)
    assert r.returncode == 0, r.stderr
    data = json.loads((tmp_path / "inflate.json").read_text())
    assert data["hausdorff_dimension"] == 0
    (stratum,) = data["strata"]
    assert stratum["kind"] == "isolated-real"
    assert stratum["value"] == pytest.approx(1.0, abs=1e-6)


H_CENTRAL = "[[1,0,0,0],[0,0,0,0],[1,0,0,0]]"
GIBBS = ("--chains", "4", "--steps", "600", "--seed", "5")
# every artifact-writing subcommand (thermo in both modes), fast settings
ARTIFACT_RUNS = [
    ("algebra-check", "--algebra", "O", "--n", "2000", "--seed", "2"),
    ("inflate", "--algebra", "O",
     "--poly", "[[1,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0],[1,0,0,0,0,0,0,0]]", "--seed", "7"),
    ("symmetry", "--poly", "[[1,0],[0,0],[0,0],[1,0],[0,0],[0,0],[1,0]]"),
    ("breathe", "--a", '{"offset": 5.0, "components": [[0.5, 0.1, 0]]}',
     "--b", '{"offset": 4.0}', "--t1", "10", "--dt", "0.05"),
    ("spectra", "--a", '{"offset": 5.0, "components": [[0.4, 0.244140625, 0]]}',
     "--b", '{"offset": 4.0}', "--n", "512", "--dt", "0.05"),
    ("localize", "--algebra", "H", "--poly", "[[1,0,0,0],[0,1,0,0],[1,0,0,0]]",
     "--starts", "6", "--seed", "3"),
    ("collapse", "--eps", "0.05:0.5:log4", "--seed", "2"),
    ("basins", "--eps", "0.08", "--samples", "40", "--seed", "1"),
    ("thermo", "--poly", H_CENTRAL, "--temperature", "0.05", *GIBBS),
    ("thermo", "--poly", H_CENTRAL, "--entropy-ladder", "0.002:0.02:log2", *GIBBS),
    ("phase-diagram", "--eps-grid", "0:1:lin2", "--t-grid", "0.05:1:log2", *GIBBS),
    ("claims", "--quick", "--only", "c02,c06", "--seed", "1"),
]


def test_outputs_byte_identical_for_same_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        for args in ARTIFACT_RUNS:
            r = run_cli(*args, outdir=d)
            assert r.returncode == 0, (args, r.stderr)
    assert {args[0] for args in ARTIFACT_RUNS} == set(cli.COMMANDS)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert len(names) == 16
    # wall-clock times are the one artifact outside the contract
    names.remove("timings.json")
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # the basin labels carry the deformation-retract evidence: V never rises
    assert json.loads((a / "basins-summary.json").read_text())["max_rise"] <= 1e-10


def test_seed_required_for_sampling_commands(tmp_path):
    r = run_cli("inflate", "--algebra", "H",
                "--poly", "[[1,0,0,0],[0,0,0,0],[1,0,0,0]]", outdir=tmp_path)
    assert r.returncode == 2


def test_symmetry_command(tmp_path):
    r = run_cli("symmetry", "--poly", "[[1,0],[0,0],[0,0],[1,0],[0,0],[0,0],[1,0]]",
                outdir=tmp_path)
    assert r.returncode == 0
    data = json.loads((tmp_path / "symmetry.json").read_text())
    assert data["order"] == 3 and data["pass"]


def test_breathe_artifacts(tmp_path):
    r = run_cli("breathe", "--a", '{"offset": 5.0, "components": [[0.5, 0.1, 0]]}',
                "--b", '{"offset": 4.0}', "--t1", "10", "--dt", "0.01",
                outdir=tmp_path)
    assert r.returncode == 0
    lines = (tmp_path / "breathe-trace.csv").read_text().strip().split("\n")
    assert lines[0].startswith("# config:")
    assert lines[1] == "t,a,b,delta,r_inner,r_outer,gap,valid"
    data = json.loads((tmp_path / "breathe-boundaries.json").read_text())
    assert data["valid_fraction"] == 1.0


def test_spectra_artifacts(tmp_path):
    r = run_cli("spectra", "--a", '{"offset": 5.0, "components": [[0.4, 0.244140625, 0]]}',
                "--b", '{"offset": 4.0, "components": [[0.3, 0.390625, 0]]}',
                "--n", "2048", "--dt", "0.05", outdir=tmp_path)
    assert r.returncode == 0
    lines = (tmp_path / "spectra-psd.csv").read_text().strip().split("\n")
    assert lines[1] == "freq_hz,power"
    data = json.loads((tmp_path / "spectra-peaks.json").read_text())
    labels = {p["label"] for p in data["peaks"]}
    assert {"f1", "2f1", "f1+f2"} <= labels


def test_localize_command(tmp_path):
    r = run_cli("localize", "--algebra", "H",
                "--poly", "[[1,0,0,0],[0,1,0,0],[1,0,0,0]]",
                "--starts", "10", "--seed", "3", outdir=tmp_path)
    assert r.returncode == 0
    data = json.loads((tmp_path / "localize.json").read_text())
    assert data["coefficient_subalgebra_dimension"] == 2
    assert len(data["roots"]) == 2
    for entry in data["roots"]:
        assert not entry["spherical"]
        assert max(abs(v) for v in entry["root"][2:]) < 1e-8


def test_collapse_command(tmp_path):
    r = run_cli("collapse", "--eps", "0.05:0.5:log4", "--seed", "2",
                outdir=tmp_path)
    assert r.returncode == 0
    data = json.loads((tmp_path / "collapse.json").read_text())
    assert set(data) >= {"epsilons", "times", "slope", "intercept", "r2", "config"}
    assert len(data["times"]) == 4
    assert -2.3 < data["slope"] < -1.7
    # the defaults the run used are echoed with the flags
    assert data["config"] == {"algebra": "H", "base": "[[1,0,0,0],[0,0,0,0],[1,0,0,0]]",
                              "direction": "[[1,0,0,0],[0,1,0,0]]",
                              "eps": "0.05:0.5:log4", "seed": 2}


def test_thermo_command(tmp_path):
    r = run_cli("thermo", "--poly", "[[1,0,0,0],[0,0,0,0],[1,0,0,0]]",
                "--temperature", "0.05", "--chains", "4", "--steps", "3000",
                "--seed", "5", outdir=tmp_path)
    assert r.returncode == 0
    data = json.loads((tmp_path / "thermo-stats.json").read_text())
    assert 0.0 <= data["order_parameter"] <= 1.0
    assert data["mean_V"] > 0


def test_thermo_rejects_temperature_with_entropy_ladder(tmp_path):
    r = run_cli("thermo", "--poly", H_CENTRAL, "--temperature", "0.05",
                "--entropy-ladder", "0.002:0.02:log2", *GIBBS, outdir=tmp_path)
    assert r.returncode == 2
    assert "--entropy-ladder" in r.stderr
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_phase_diagram_command(tmp_path):
    r = run_cli("phase-diagram", "--eps-grid", "0:1:lin2", "--t-grid",
                "0.05:1:log2", "--chains", "4", "--steps", "2500", "--seed", "5",
                outdir=tmp_path)
    assert r.returncode == 0
    lines = (tmp_path / "phase-diagram.csv").read_text().strip().split("\n")
    assert lines[1] == "epsilon,T,m,m_stderr,mean_V,var_V,acceptance,flag"
    assert len(lines) == 2 + 4


def test_phase_diagram_csv_quotes_diagnostic_flag(tmp_path):
    # at T = 100 and eps = 1 the sampler fails its acceptance diagnostic, and
    # the cell's flag, which holds a comma, must stay one CSV field
    r = run_cli("phase-diagram", "--eps-grid", "0:1:lin2", "--t-grid", "100:10000:log2",
                "--chains", "2", "--steps", "40", "--seed", "1", outdir=tmp_path)
    assert r.returncode == 0
    lines = (tmp_path / "phase-diagram.csv").read_text().splitlines()
    rows = list(csv.reader(lines[1:]))
    assert len(rows) == 1 + 4
    assert all(len(row) == 8 for row in rows)
    assert any(row[-1].startswith("diagnostic:") and "," in row[-1] for row in rows)


def test_algebra_check_command(tmp_path):
    r = run_cli("algebra-check", "--algebra", "O", "--n", "2000", "--seed", "2",
                outdir=tmp_path)
    assert r.returncode == 0
    data = json.loads((tmp_path / "algebra-check.json").read_text())
    assert data["laws"]["norm_mult"] < 1e-12
    assert data["laws"]["power_assoc"] < 1e-12


def test_claims_exit_codes(tmp_path):
    ok = run_cli("claims", "--quick", "--only", "c02", "--seed", "1",
                 outdir=tmp_path)
    assert ok.returncode == 0


def test_claims_single_quick(tmp_path):
    r = run_cli("claims", "--quick", "--only", "c02,c06", "--seed", "1",
                outdir=tmp_path)
    assert r.returncode == 0
    data = json.loads((tmp_path / "claims.json").read_text())
    assert data["c02"]["pass"] and data["c06"]["pass"]
    assert "seconds" not in data["c02"]
    assert "[PASS] c02" in r.stdout
    timings = json.loads((tmp_path / "timings.json").read_text())
    entry = timings["c06"]
    assert entry["budget_seconds"] == data["c06"]["budget_seconds"]
    assert entry["headroom"] == pytest.approx(
        1.0 - entry["seconds"] / entry["budget_seconds"], abs=2e-3)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algebra": "H",
                               "poly": "[[1,0,0,0],[0,0,0,0],[1,0,0,0]]",
                               "samples": 4, "seed": 9}))
    r = subprocess.run(
        [sys.executable, "-m", "rootlab.cli", "--out", str(tmp_path),
         "--config", str(cfg), "inflate", "--seed", "10"],
        capture_output=True, text=True)
    assert r.returncode == 0
    data = json.loads((tmp_path / "inflate.json").read_text())
    assert data["config"]["seed"] == 10       # flag wins
    assert data["config"]["samples"] == 4     # file value kept


def test_config_file_supplies_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9}))
    r = subprocess.run(
        [sys.executable, "-m", "rootlab.cli", "--out", str(tmp_path),
         "--config", str(cfg), "inflate", "--algebra", "H",
         "--poly", "[[1,0,0,0],[0,0,0,0],[1,0,0,0]]"],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    data = json.loads((tmp_path / "inflate.json").read_text())
    assert data["config"] == {"algebra": "H", "poly": "[[1,0,0,0],[0,0,0,0],[1,0,0,0]]",
                              "samples": 32, "seed": 9}


def test_bad_inputs_exit_2(tmp_path):
    r = run_cli("collapse", "--eps", "nonsense", "--seed", "1", outdir=tmp_path)
    assert r.returncode == 2
    r = run_cli("inflate", "--algebra", "Q", "--poly", "[[1,0]]", "--seed", "1",
                outdir=tmp_path)
    assert r.returncode == 2
    r = run_cli("no-such-command", outdir=tmp_path)
    assert r.returncode == 2

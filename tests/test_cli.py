import csv
import json
import re
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "parastrip.cli"]

SOLVE_CFG = {
    "grid": {"dim": 1, "half_length": 6.0, "points_per_axis": 64},
    "run": {"horizon": 0.2},
    "problem": {
        "operator": {"kind": "heat", "diffusivity": 1.0},
        "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
    },
    "solver": {"dt": 0.01, "integrator": "picard_voc"},
}

FLOAT_CELL = re.compile(r"-?\d\.\d{12}e[+-]\d{2,3}$")


def run_cli(tmp_path, command, cfg, *extra):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        CLI + [command, "--config", str(cfg_path), "--output", str(out_dir), *extra],
        capture_output=True,
        text=True,
    )
    return proc, out_dir


def test_solve_emits_manifest_report_and_data(tmp_path):
    proc, out = run_cli(tmp_path, "solve", SOLVE_CFG)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert "manifest.json" in manifest["files"]
    for name in manifest["files"]:
        assert (out / name).exists(), f"manifest lists missing file {name}"
    for name in ("trajectory.csv", "norms.csv", "report.csv", "report.txt"):
        assert name in manifest["files"]
    assert all(j["status"] == "ok" for j in manifest["job_status"])
    report = (out / "report.txt").read_text()
    assert "[PASS]" in report and "[FAIL]" not in report


def test_csv_cells_use_fixed_float_format(tmp_path):
    proc, out = run_cli(tmp_path, "solve", SOLVE_CFG)
    assert proc.returncode == 0
    with open(out / "norms.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    for row in rows[1:3]:
        for cell in row:
            assert FLOAT_CELL.match(cell), f"cell {cell!r} not in %.12e format"


def test_runs_are_byte_identical(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, out1 = run_cli(tmp_path / "a", "ellipticity", {
        "grid": {"dim": 1, "half_length": 10.0, "points_per_axis": 64},
        "problem": {"operator": {"kind": "heat", "diffusivity": 1.0}},
        "ellipticity": {"n_thetas": 3, "n_fields": 4},
    }, "--seed", "11")
    _, out2 = run_cli(tmp_path / "b", "ellipticity", {
        "grid": {"dim": 1, "half_length": 10.0, "points_per_axis": 64},
        "problem": {"operator": {"kind": "heat", "diffusivity": 1.0}},
        "ellipticity": {"n_thetas": 3, "n_fields": 4},
    }, "--seed", "11")
    for name in ("ellipticity.csv", "report.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_invalid_config_exits_2_with_field_names(tmp_path):
    bad = {
        "grid": {"dim": 3, "half_length": -1.0, "points_per_axis": 100},
        "problem": {"operator": {"kind": "warp"}, "initial": {"kind": "gaussian"}},
    }
    proc, out = run_cli(tmp_path, "solve", bad)
    assert proc.returncode == 2
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "invalid configuration"
    detail = " ".join(err["detail"])
    assert "grid.dim" in detail
    assert "grid.half_length" in detail
    assert "grid.points_per_axis" in detail
    assert "run.horizon" in detail
    assert not (out / "manifest.json").exists()


def test_unreadable_config_exits_2(tmp_path):
    cfg_path = tmp_path / "nope.json"
    proc = subprocess.run(
        CLI + ["solve", "--config", str(cfg_path)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "unreadable config" in proc.stderr


def test_failed_job_is_recorded_and_exits_1(tmp_path):
    cfg = {
        "grid": {"dim": 1, "half_length": 10.0, "points_per_axis": 64},
        "problem": {"operator": {"kind": "heat", "diffusivity": 1.0}},
        "maxreg": {"horizons": [0.3, 1.0], "p": 4.0, "samples": 3},
        "solver": {"dt": 0.015625},
    }
    proc, out = run_cli(tmp_path, "maxreg", cfg)
    assert proc.returncode == 1
    assert "jobs failed" in proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = {j["name"]: j for j in manifest["job_status"]}
    assert any(j["status"] == "failed" for j in statuses.values())
    failed = next(j for j in statuses.values() if j["status"] == "failed")
    assert "does not land" in failed["error"]
    assert (out / "report.txt").exists()


def test_verify_analyticity_outputs(tmp_path):
    cfg = {
        "grid": {"dim": 1, "half_length": 10.0, "points_per_axis": 128},
        "run": {"horizon": 0.2},
        "problem": {
            "operator": {"kind": "heat", "diffusivity": 1.0, "strip_half_width": 2.0},
            "initial": {"kind": "gaussian"},
        },
        "solver": {"dt": 0.01},
        "analyticity": {
            "y_half_width": 0.2,
            "n_shifts": 5,
            "times": [0.1, 0.2],
            "strides": [1, 2],
            "d_mu": [0.05],
            "rho": 0.15,
            "path": {"sigma": 0.2, "tau": 0.05, "t_primes": [0.1, 0.15]},
            "hardy": {"p": 4.0, "c0": 1.0},
        },
    }
    proc, out = run_cli(tmp_path, "verify-analyticity", cfg, "--jobs", "3")
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    for name in ("cr_space.csv", "norms.csv", "cr_time.csv", "path_independence.csv", "hardy.csv"):
        assert name in manifest["files"]
    with open(out / "path_independence.csv") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][-1]) < 1e-6


def test_verify_analyticity_on_a_2d_grid(tmp_path):
    # the smallest 2-D grid whose Nyquist wavenumber hosts 3 dyadic blocks, with a wide box
    cfg = {
        "grid": {"dim": 2, "half_length": 2 * 3.141592653589793, "points_per_axis": 64},
        "run": {"horizon": 0.1},
        "problem": {
            "operator": {"kind": "heat", "diffusivity": 1.0, "strip_half_width": 2.0},
            "initial": {"kind": "gaussian"},
        },
        "solver": {"dt": 0.01},
        "analyticity": {
            "y_half_width": 0.2,
            "n_shifts": 5,
            "times": [0.05, 0.1],
            "strides": [1, 2],
            "d_mu": [0.05],
            "rho": 0.05,
            "path": {"sigma": 0.1, "tau": 0.02, "t_primes": [0.05, 0.08]},
        },
    }
    proc, out = run_cli(tmp_path, "verify-analyticity", cfg)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert [j["name"] for j in manifest["job_status"]] == [
        "shift_family", "cr_space", "family_norms", "cr_time", "path_independence", "hardy"]
    assert all(j["status"] == "ok" for j in manifest["job_status"])


def test_grid_too_coarse_for_the_norm_table_exits_2(tmp_path):
    cfg = dict(SOLVE_CFG, grid={"dim": 1, "half_length": 8.0, "points_per_axis": 32})
    proc, out = run_cli(tmp_path, "solve", cfg)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "invalid configuration"
    detail = " ".join(err["detail"])
    assert "grid.points_per_axis" in detail and "grid.half_length" in detail
    assert not (out / "manifest.json").exists()


def test_unknown_command_rejected(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text("{}")
    proc = subprocess.run(
        CLI + ["transmogrify", "--config", str(cfg_path)], capture_output=True, text=True
    )
    assert proc.returncode == 2

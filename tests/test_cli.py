import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import parastrip

CLI = [sys.executable, "-m", "parastrip.cli"]
# the CLI runs the parastrip these tests import, also when it is not installed
SRC = str(Path(parastrip.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

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
        env=ENV,
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


def test_csv_writer_formats_each_cell_by_the_per_cell_rule(tmp_path):
    import numpy as np
    from parastrip.cli import _fmt_cell, write_csv

    mixed = [True, np.bool_(False), 3, np.int64(-7), np.uint8(200), 2 ** 70, 0.5, np.float64(np.nan),
             np.inf, -np.inf, -0.0, np.float32(1.25), np.float64(-3e-300), "pass", "a%sb", 1 + 2j, None]
    rows = [mixed, mixed[::-1], [1.5, 2], [7, 2], ["x", 2], (v for v in mixed), []]
    write_csv(tmp_path, "t.csv", ["h"] * len(mixed), rows)
    rows[5] = mixed
    want = [",".join(["h"] * len(mixed))] + [",".join(_fmt_cell(v) for v in row) for row in rows]
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"


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


def test_bad_solver_value_exits_2_naming_the_field(tmp_path):
    cfg = dict(SOLVE_CFG, solver={"dt": 0.01, "gmres_tol": -1.0})
    proc, out = run_cli(tmp_path, "solve", cfg)
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err["error"] == "invalid configuration"
    assert any(d.startswith("solver: gmres_tol") for d in err["detail"])
    assert not (out / "manifest.json").exists()


def test_unreadable_config_exits_2(tmp_path):
    cfg_path = tmp_path / "nope.json"
    proc = subprocess.run(
        CLI + ["solve", "--config", str(cfg_path)], capture_output=True, text=True, env=ENV
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
    assert all(j["duration_s"] >= 0.0 for j in statuses.values())
    # the origin is the library line that raised, not the CLI's call of the job
    module, line = failed["origin"].split(":")
    assert module == "parastrip/solver.py"
    source = (Path(SRC) / module).read_text().splitlines()
    assert "raise ConfigurationError(" in source[int(line) - 1]
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
        CLI + ["transmogrify", "--config", str(cfg_path)], capture_output=True, text=True, env=ENV
    )
    assert proc.returncode == 2


def test_cli_reactions_accept_broadcast_node_times():
    import numpy as np

    import parastrip as ps
    from parastrip.cli import _REACTION, _build_reaction, _walk

    grid = ps.make_grid(1, 6.0, 16)
    B = 3
    points = np.broadcast_to(grid.meshgrid()[:, None].astype(complex), (1, B) + grid.shape)
    ts = np.array([0.0, 0.1, 0.2 + 0.05j]).reshape(B, 1)
    X = np.exp(1j * np.arange(2 * B * 16) / 7.0).reshape(2, 1, B, 16)
    for block in ({"kind": "linear", "rate": 0.3, "rate_im": 0.1},
                  {"kind": "quadratic_surrogate", "strength": 0.5}):
        errors = []
        spec = _build_reaction(_walk(block, _REACTION, "problem.reaction", "solve", errors), grid)
        assert not errors
        out = spec.eval(points, ts, X)
        assert out.shape == (1, B) + grid.shape
        for b in range(B):
            np.testing.assert_array_equal(out[:, b], spec.eval(points[:, b], ts[b, 0], X[:, :, b]))


def test_maxreg_fits_its_besov_blocks_to_the_grid(tmp_path):
    cfg = {
        "grid": {"dim": 1, "half_length": 10.0, "points_per_axis": 128},
        "problem": {"operator": {"kind": "heat", "diffusivity": 1.0}},
        "maxreg": {"horizons": [0.25, 0.5], "p": 4.0, "samples": 3},
        "solver": {"dt": 0.015625},
    }
    # Nyquist 20.1 hosts 3 dyadic blocks, not the 4 a default NormParams asks for
    proc, out = run_cli(tmp_path, "maxreg", cfg)
    assert proc.returncode == 0, proc.stderr
    assert (out / "maxreg.csv").exists()
    # Nyquist 10.05 hosts 2, below the floor of 3: the job fails naming both grid keys
    coarse = tmp_path / "coarse"
    coarse.mkdir()
    coarse_cfg = dict(cfg, grid={"dim": 1, "half_length": 10.0, "points_per_axis": 64})
    proc, out = run_cli(coarse, "maxreg", coarse_cfg)
    assert proc.returncode == 1
    failed = json.loads((out / "manifest.json").read_text())["job_status"][0]
    assert failed["status"] == "failed"
    assert "grid.points_per_axis" in failed["error"] and "grid.half_length" in failed["error"]


def _run_in_process(tmp_path, name, command, cfg, *extra):
    from parastrip.cli import main

    out_dir = tmp_path / name
    out_dir.mkdir()
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(cfg_path), "--output", str(out_dir), *extra])
    return code, out_dir


def test_families_and_sweeps_start_no_thread(tmp_path, monkeypatch):
    import threading

    import numpy as np

    import parastrip as ps

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    grid = ps.make_grid(1, 10.0, 64)
    op = ps.DivergenceOperator.from_terms(1, 1, 1, {((1,), (1,)): 1.0}, ps.StripSpec(2.0),
                                          ps.TemporalDomain(angle=0.7, t_prime=1.0, horizon=2.0))
    problem = ps.CauchyProblem(grid, op, lambda pts: np.exp(-pts[0] ** 2 / 2))
    cfg = ps.SolverConfig(dt=5e-3)
    serial = ps.solve_shift_family(problem, np.linspace(-0.2, 0.2, 3), 0.0, 0.02, cfg)
    pooled = ps.solve_shift_family(problem, np.linspace(-0.2, 0.2, 3), 0.0, 0.02, cfg, jobs=4)
    for y in serial.y_values:
        np.testing.assert_array_equal(serial.member(y).final.values, pooled.member(y).final.values)

    xva_cfg = {
        "grid": {"dim": 1, "half_length": 6.0, "points_per_axis": 64},
        "xva": {"horizon": 0.05,
                "params": {"sigma": 0.2, "epsilon": 0.05, "lambda_B": 0.02, "lambda_C": 0.05,
                           "R_B": 0.4, "R_C": 0.4, "s_F": 0.01},
                "payoff": {"kind": "smoothed_call", "strike": 1.0, "epsilon": 0.05}},
        "solver": {"dt": 0.005},
        "sweep": {"epsilon": [0.05, 0.02]},
    }
    conv_cfg = dict(SOLVE_CFG, convergence={"base_dt": 0.02, "levels": 2})
    for command, cfg, names in (("xva", xva_cfg, ("xva.csv", "xva_sweep.csv", "report.csv")),
                                ("convergence", conv_cfg, ("convergence.csv", "report.csv"))):
        code1, out1 = _run_in_process(tmp_path, command + "_1", command, cfg, "--jobs", "1")
        code2, out2 = _run_in_process(tmp_path, command + "_2", command, cfg, "--jobs", "2")
        assert code1 == code2 == 0
        assert json.loads((out2 / "manifest.json").read_text())["jobs"] == 2
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_literal_heston_is_accepted_by_ellipticity_only(tmp_path, capsys):
    heston = {"kind": "heston", "heston": {"kappa": 1.0, "theta": 0.04, "sigma_v": 0.1, "rho": 0.0,
                                           "v_min": 0.02, "v_max": 0.06}}
    base = {
        "grid": {"dim": 2, "half_length": 3.0, "points_per_axis": 16},
        "run": {"horizon": 0.1},
        "problem": {"operator": heston, "initial": {"kind": "gaussian"}},
        "analyticity": {"y_half_width": 0.1},
        "maxreg": {"horizons": [0.25]},
        "ellipticity": {"n_thetas": 1, "n_fields": 2},
    }
    for command in ("solve", "verify-analyticity", "maxreg", "convergence"):
        code, out = _run_in_process(tmp_path, command, command, base)
        assert code == 2, command
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        detail = " ".join(err["detail"])
        assert "problem.operator.kind" in detail and "heston_chart" in detail, command
        assert not (out / "manifest.json").exists()
    code, out = _run_in_process(tmp_path, "ellipticity", "ellipticity", base)
    assert code == 0
    assert (out / "ellipticity.csv").exists()


def _invalid_detail(capsys) -> str:
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "invalid configuration"
    return " ".join(err["detail"])


def test_shift_family_beyond_the_coefficient_strip_exits_2(tmp_path, capsys):
    cfg = {
        "grid": {"dim": 1, "half_length": 6.0, "points_per_axis": 128},
        "run": {"horizon": 0.1},
        "problem": {"operator": {"kind": "heat", "strip_half_width": 0.2},
                    "initial": {"kind": "gaussian"}},
        "solver": {"dt": 0.01},
        "analyticity": {"y_half_width": 0.5, "n_shifts": 5},
    }
    code, out = _run_in_process(tmp_path, "wide", "verify-analyticity", cfg)
    assert code == 2
    detail = _invalid_detail(capsys)
    assert "analyticity.y_half_width" in detail and "problem.operator.strip_half_width" in detail
    assert not (out / "manifest.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_gaussian_that_overflows_under_the_shift_family_exits_2(tmp_path, capsys):
    # exp(0.1^2 / (2 * 1e-6)) = exp(5000) overflows: refused at validation, not in the family job
    cfg = {
        "grid": {"dim": 1, "half_length": 3.0, "points_per_axis": 32},
        "run": {"horizon": 0.05},
        "problem": {"operator": {"kind": "heat", "strip_half_width": 1.0},
                    "initial": {"kind": "gaussian", "width": 1e-3}},
        "solver": {"dt": 0.01},
        "analyticity": {"y_half_width": 0.1, "n_shifts": 5},
    }
    code, out = _run_in_process(tmp_path, "narrow", "verify-analyticity", cfg)
    assert code == 2
    detail = _invalid_detail(capsys)
    assert "problem.initial.width" in detail and "analyticity.y_half_width" in detail
    assert not (out / "manifest.json").exists()
    # a width that keeps exp(y^2 / (2 width^2)) in range still runs
    cfg["problem"]["initial"]["width"] = 0.05
    code, _ = _run_in_process(tmp_path, "wide_enough", "verify-analyticity", cfg)
    assert code in (0, 1)


def test_system_under_the_scalar_integrator_exits_2(tmp_path, capsys):
    cfg = {
        "grid": {"dim": 1, "half_length": 6.0, "points_per_axis": 128},
        "run": {"horizon": 0.1},
        "problem": {"operator": {"kind": "custom", "components": 2,
                                 "terms": [{"alpha": [1], "beta": [1], "re": 1.0}]},
                    "initial": {"kind": "gaussian"}},
        "maxreg": {"horizons": [0.25]},
    }
    for command in ("solve", "maxreg", "convergence"):
        code, out = _run_in_process(tmp_path, command, command, cfg)
        assert code == 2, command
        detail = _invalid_detail(capsys)
        assert "problem.operator.components" in detail and "picard_voc" in detail, command
        if command != "convergence":
            assert "solver.integrator" in detail, command
        assert not (out / "manifest.json").exists()


def test_a_system_no_initial_datum_can_start_exits_2(tmp_path, capsys):
    # every initial kind is scalar: under imex, too, a 2-component system cannot start
    cfg = {
        "grid": {"dim": 1, "half_length": 6.0, "points_per_axis": 128},
        "run": {"horizon": 0.1},
        "problem": {"operator": {"kind": "custom", "components": 2,
                                 "terms": [{"alpha": [1], "beta": [1], "re": 1.0}]},
                    "initial": {"kind": "gaussian"}},
        "solver": {"dt": 0.01, "integrator": "imex"},
        "analyticity": {"y_half_width": 0.2, "n_shifts": 5},
    }
    for command in ("solve", "verify-analyticity"):
        code, out = _run_in_process(tmp_path, command, command, cfg)
        assert code == 2, command
        detail = _invalid_detail(capsys)
        assert "problem.operator.components" in detail and "problem.initial.kind" in detail, command
        assert "picard_voc" not in detail, command
        assert not (out / "manifest.json").exists()


BS_ON_A_2D_GRID = {
    "grid": {"dim": 2, "half_length": 3.0, "points_per_axis": 16},
    "problem": {"operator": {"kind": "bs", "sigma": 0.2}, "initial": {"kind": "gaussian"}},
    "maxreg": {"horizons": [0.25]},
    "ellipticity": {"n_thetas": 1, "n_fields": 2},
}


@pytest.mark.parametrize("command", ["ellipticity", "maxreg"])
def test_a_one_dimensional_operator_on_a_2d_grid_exits_2(tmp_path, capsys, command):
    code, out = _run_in_process(tmp_path, command, command, BS_ON_A_2D_GRID)
    assert code == 2
    detail = _invalid_detail(capsys)
    assert "problem.operator.kind" in detail and "grid.dim is 2" in detail
    assert not (out / "manifest.json").exists()


def test_xva_on_a_2d_grid_without_a_heston_block_exits_2(tmp_path, capsys):
    cfg = {
        "grid": {"dim": 2, "half_length": 6.0, "points_per_axis": 16},
        "xva": {"horizon": 0.05, "params": {"sigma": 0.2, "epsilon": 0.05},
                "payoff": {"kind": "smoothed_call", "strike": 1.0}},
    }
    code, out = _run_in_process(tmp_path, "xva", "xva", cfg)
    assert code == 2
    assert "xva.params.heston" in _invalid_detail(capsys)
    assert not (out / "manifest.json").exists()


def test_the_cli_loads_no_scipy(tmp_path):
    # nor the pool modules: no job starts a thread or a process, and importing them slows start-up
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SOLVE_CFG))
    code = (
        "import sys, parastrip.cli\n"
        "pools = ('concurrent.futures', 'multiprocessing')\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in pools)\n"
        "print(loaded())\n"
        f"parastrip.cli.main(['solve', '--config', {str(cfg_path)!r}, '--output', {str(tmp_path / 'out')!r}])\n"
        "print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert sorted(manifest["versions"]) == ["numpy", "parastrip", "python"]

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


def _solve_exit(tmp_path, capsys, *extra, prefix=b"", **keys):
    """Exit code and machine error of an in-process ``solve`` on the ``BASE`` config with ``keys``
    set, its file starting with the bytes ``prefix``."""
    from parastrip.cli import main
    from test_cli_config import BASE

    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(prefix + json.dumps(dict(BASE["solve"], **keys)).encode())
    code = main(["solve", "--config", str(cfg_path), *extra])
    return code, json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("under_a_file", [False, True])
def test_an_output_that_is_or_lies_under_a_file_exits_2_naming_output(tmp_path, capsys, under_a_file):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    code, err = _solve_exit(tmp_path, capsys, "--output", str(blocker / "out" if under_a_file else blocker))
    assert code == 2
    assert err["error"] == "unwritable output" and err["detail"].startswith("--output: ")
    assert blocker.read_text() == "kept"


def test_an_output_dir_that_names_a_file_exits_2_naming_the_key(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    code, err = _solve_exit(tmp_path, capsys, output_dir=str(blocker))
    assert code == 2
    assert err["error"] == "unwritable output" and err["detail"].startswith("output_dir: ")
    assert blocker.read_text() == "kept"


def test_a_config_that_does_not_decode_exits_2_as_unreadable(tmp_path, capsys):
    out = tmp_path / "out"
    code, err = _solve_exit(tmp_path, capsys, "--output", str(out), prefix=b"\xff\xfe")
    assert code == 2 and err["error"] == "unreadable config"
    assert not out.exists()


def test_failed_job_is_recorded_and_exits_1(tmp_path):
    # one Picard sweep cannot reach the fixed point of a variable coefficient: the solve fails in the job
    cfg = {
        "grid": {"dim": 1, "half_length": 10.0, "points_per_axis": 128},
        "problem": {"operator": {"kind": "variable_heat", "variation": 0.5}},
        "maxreg": {"horizons": [0.25, 0.5], "p": 4.0, "samples": 3},
        "solver": {"dt": 0.015625, "picard_max_iter": 1, "max_window_halvings": 0},
    }
    proc, out = run_cli(tmp_path, "maxreg", cfg)
    assert proc.returncode == 1
    assert "jobs failed" in proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    statuses = {j["name"]: j for j in manifest["job_status"]}
    assert any(j["status"] == "failed" for j in statuses.values())
    failed = next(j for j in statuses.values() if j["status"] == "failed")
    assert "needed more than 1 sweeps" in failed["error"]
    assert all(j["duration_s"] >= 0.0 for j in statuses.values())
    # the origin is the library line that raised, not the CLI's call of the job
    module, line = failed["origin"].split(":")
    assert module == "parastrip/solver.py"
    source = (Path(SRC) / module).read_text().splitlines()
    assert "raise ConvergenceError(" in source[int(line) - 1]
    assert (out / "report.txt").exists()


def test_picard_failure_origin_is_the_line_that_judged_it(tmp_path):
    import inspect

    from parastrip.solver import _Lane

    cfg = dict(SOLVE_CFG, grid={"dim": 1, "half_length": 3.0, "points_per_axis": 64}, run={"horizon": 0.05},
               problem={"operator": {"kind": "variable_heat", "variation": 0.25},
                        "initial": {"kind": "gaussian"}})
    code, out = _run_in_process(tmp_path, "picard", "solve", cfg)
    assert code == 1
    (failed,) = json.loads((out / "manifest.json").read_text())["job_status"]
    assert failed["error"].startswith("ConvergenceError: window fixed point needed more than 25 sweeps")
    module, line = failed["origin"].split(":")
    lines, first = inspect.getsourcelines(_Lane.check)
    assert module == "parastrip/solver.py" and first <= int(line) < first + len(lines)


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


# a family of 9 members over 501 snapshots, whose rows outweigh the other jobs' working sets
FAMILY_CFG = {
    "grid": {"dim": 1, "half_length": 6.0, "points_per_axis": 64},
    "run": {"horizon": 0.1},
    "problem": {
        "operator": {"kind": "heat", "diffusivity": 1.0, "strip_half_width": 2.0},
        "initial": {"kind": "gaussian"},
    },
    "solver": {"dt": 2e-4, "window": 1.6e-3},
    "analyticity": {
        "y_half_width": 0.2,
        "n_shifts": 9,
        "times": [0.05, 0.1],
        "strides": [1, 2],
        "d_mu": [0.05],
        "rho": 0.02,
        "path": {"sigma": 0.02, "tau": 0.002, "t_primes": [0.01, 0.015]},
    },
}


@pytest.mark.parametrize("integrator", ["picard_voc", "imex"])
def test_the_norm_table_is_taken_as_the_family_marches(tmp_path, monkeypatch, integrator):
    import tracemalloc

    import numpy as np

    import parastrip.cli as cli
    from parastrip.norms import NormParams, _besov_norms, lp_norm

    cfg = json.loads(json.dumps(FAMILY_CFG))
    cfg["solver"]["integrator"] = integrator
    tables, write = {}, cli.write_csv

    def spy(out, name, head, rows):
        tables[name] = rows
        return write(out, name, head, rows)

    monkeypatch.setattr(cli, "write_csv", spy)
    tracemalloc.start()
    try:
        code, out = _run_in_process(tmp_path, integrator, "verify-analyticity", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0

    # the tables of a family solved without a hook, as the norms of each row read alone give them
    errors = []
    v = cli._walk(cfg, cli._TOP, "", "verify-analyticity", errors)
    problem, grid = cli._build_problem(v, 0.1, errors)
    config = cli._solver_config(v["solver"], errors)
    assert not errors
    line = np.linspace(-0.2, 0.2, 9)
    family = parastrip.solve_shift_family(problem, line[:, np.newaxis], 0.0, 0.1, config)
    members = list(family.results.values())
    assert len(family.times) == 501
    params = NormParams(p=config.p, m=1)
    norms = []
    for j, t in enumerate(family.times):
        f = members[0].fields[j]
        besov = [_besov_norms(m.fields[j].values[np.newaxis], grid, params)[0] for m in members]
        norms.append((float(np.real(t)), lp_norm(f, 2.0), lp_norm(f, config.p), besov[0], max(besov)))
    assert repr(tables["norms.csv"]) == repr(norms)
    space = [(stride * (line[1] - line[0]), t, parastrip.cr_residual_space(family, t, stride=stride))
             for stride in (1, 2) for t in (0.05, 0.1)]
    assert repr(tables["cr_space.csv"]) == repr(space)
    # the family holds the rows at analyticity.times, not all of its rows
    rows = sum(block.nbytes for m in members for block in m.blocks)
    assert peak < rows / 2, (peak, rows)


def test_verify_analyticity_draws_no_random_numbers(tmp_path):
    # only ellipticity and maxreg build a random generator; no other command imports numpy.random
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(FAMILY_CFG, solver={"dt": 0.01})))
    code = (
        "import sys, parastrip.cli\n"
        f"code = parastrip.cli.main(['verify-analyticity', '--config', {str(cfg_path)!r}, "
        f"'--output', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_hardy_holds_only_the_first_path_whole(tmp_path, monkeypatch):
    import gc
    import weakref

    import parastrip.analyticity as analyticity

    paths, alive = [], []
    solve, hardy = analyticity.solve_along_path, analyticity.hardy_integral

    def spy_path(*args, **kw):
        result = solve(*args, **kw)
        paths.append(weakref.ref(result))
        return result

    def spy_hardy(result, *args, **kw):
        gc.collect()
        alive.extend([path() is result, path() is not None] for path in paths)
        return hardy(result, *args, **kw)

    monkeypatch.setattr(analyticity, "solve_along_path", spy_path)
    monkeypatch.setattr(analyticity, "hardy_integral", spy_hardy)
    code, _ = _run_in_process(tmp_path, "va", "verify-analyticity", FAMILY_CFG)
    assert code == 0
    # hardy reads the first path; of the second only the final, taken by path_independence, was kept
    assert alive == [[True, True], [False, False]]


def _jobs(out) -> list:
    return [(job["name"], job["status"]) for job in json.loads((out / "manifest.json").read_text())["job_status"]]


def test_a_failed_family_skips_only_the_jobs_that_read_it(tmp_path, monkeypatch):
    import parastrip.analyticity as analyticity
    from parastrip.errors import InstabilityError

    def fail(*args, **kw):
        raise InstabilityError("the family blew up")

    monkeypatch.setattr(analyticity, "solve_shift_family", fail)
    code, out = _run_in_process(tmp_path, "va", "verify-analyticity", FAMILY_CFG)
    assert code == 1
    assert _jobs(out) == [("shift_family", "failed"), ("cr_time", "ok"), ("path_independence", "ok"),
                          ("hardy", "ok")]
    assert not (out / "cr_space.csv").exists() and not (out / "norms.csv").exists()
    assert (out / "hardy.csv").exists()


def _benchmark_config(monkeypatch, seed: int = 0) -> dict:
    """perfbench's analyticity_heat_1d config; workloads imports perfbench's own oracles."""
    import importlib.util

    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    monkeypatch.delitem(sys.modules, "oracles", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.analyticity_config(seed)


def test_a_failed_path_job_skips_hardy(tmp_path, monkeypatch):
    cfg = _benchmark_config(monkeypatch)
    cfg["analyticity"]["path"]["tau"] = 5.0
    code, out = _run_in_process(tmp_path, "va", "verify-analyticity", cfg)
    assert code == 1
    assert _jobs(out) == [("shift_family", "ok"), ("cr_space", "ok"), ("family_norms", "ok"), ("cr_time", "ok"),
                          ("path_independence", "failed")]
    failed = json.loads((out / "manifest.json").read_text())["job_status"][-1]
    assert failed["error"].startswith("DomainError: ")
    assert failed["origin"].startswith("parastrip/solver.py:")
    assert not (out / "hardy.csv").exists() and not (out / "path_independence.csv").exists()


@pytest.mark.parametrize("t_primes", [[0.01], [0.01, 0.01]])
def test_path_splits_that_check_nothing_exit_2(tmp_path, capsys, t_primes):
    # one split, or two equal ones, give paths that agree trivially: a spread of 0 checks nothing
    cfg = json.loads(json.dumps(FAMILY_CFG))
    cfg["analyticity"]["path"]["t_primes"] = t_primes
    code, out = _run_in_process(tmp_path, "va", "verify-analyticity", cfg)
    assert code == 2
    detail = _invalid_detail(capsys)
    assert "analyticity.path.t_primes" in detail and "two distinct segment splits" in detail
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("key", ["run.horizon", "analyticity.path.sigma"])
def test_default_splits_that_round_to_one_name_the_key_that_set_sigma(tmp_path, capsys, key):
    # the default splits 0.4 sigma and 0.6 sigma of a subnormal sigma are one value
    cfg = json.loads(json.dumps(FAMILY_CFG))
    for name in ("times", "rho", "path"):
        del cfg["analyticity"][name]
    if key == "run.horizon":
        cfg["run"]["horizon"] = 1e-323
    else:
        cfg["analyticity"]["path"] = {"sigma": 1e-323}
    code, out = _run_in_process(tmp_path, "va", "verify-analyticity", cfg)
    assert code == 2
    detail = _invalid_detail(capsys)
    assert f"{key}: path independence needs at least two distinct segment splits" in detail
    assert "t_primes" not in detail
    assert not (out / "manifest.json").exists()


def test_strides_that_leave_no_three_shifts_exit_2(tmp_path, capsys):
    # with 5 shifts a stride of 4 leaves 2 of them: cr_space would write no residual and check nothing
    cfg = json.loads(json.dumps(FAMILY_CFG))
    cfg["analyticity"].update(n_shifts=5, strides=[4])
    code, out = _run_in_process(tmp_path, "va", "verify-analyticity", cfg)
    assert code == 2
    detail = _invalid_detail(capsys)
    assert "analyticity.strides: no stride in [4] leaves three of the 5 shifts" in detail
    assert not (out / "manifest.json").exists()


# perfbench's xva_semilinear_1d study at its nominal inputs
XVA_STUDY_CFG = {
    "grid": {"dim": 1, "half_length": 6.0, "points_per_axis": 256},
    "xva": {"horizon": 1.0,
            "params": {"sigma": 0.2, "epsilon": 1e-3, "lambda_B": 0.02, "lambda_C": 0.05,
                       "R_B": 0.4, "R_C": 0.4, "s_F": 0.01},
            "payoff": {"kind": "smoothed_call", "strike": 1.0, "epsilon": 1e-3}},
}


def test_xva_keeps_only_the_rows_it_writes(tmp_path):
    import tracemalloc

    tracemalloc.start()
    try:
        code, out = _run_in_process(tmp_path, "xva", "xva", XVA_STUDY_CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len((out / "xva.csv").read_text().splitlines()) == 1 + 14 * 256
    # three prices of 501 rows of 4 KiB would hold 6.2 MB; V alone holds 2.1 MB
    assert peak <= 6.5e6, peak


def test_xva_prices_v_once_per_point_and_sweeps_keep_finals(tmp_path, monkeypatch):
    import parastrip.xva as xva

    solve, solves = xva.solve_real, []

    def spy(problem, *args, **kw):
        result = solve(problem, *args, **kw)
        solves.append((problem.reaction is None and problem.source is None, len(result.times)))
        return result

    monkeypatch.setattr(xva, "solve_real", spy)
    cfg = {
        "grid": {"dim": 1, "half_length": 6.0, "points_per_axis": 64},
        "xva": {"horizon": 0.25,
                "params": {"sigma": 0.2, "epsilon": 0.05, "lambda_B": 0.02, "lambda_C": 0.05,
                           "R_B": 0.4, "R_C": 0.4, "s_F": 0.01, "theta_mtm": 0.5},
                "payoff": {"kind": "smoothed_call", "strike": 1.0, "epsilon": 0.05}},
        "solver": {"dt": 0.005},
        "sweep": {"epsilon": [0.05, 0.02]},
    }
    code, _ = _run_in_process(tmp_path, "xva", "xva", cfg)
    assert code == 0
    # per point: V with every row, then the two adjusted prices; 51 rows strided by 4, or finals only
    point = [(True, 51), (False, 14), (False, 14)]
    assert solves == point + [(True, 51), (False, 1), (False, 1)] * 2


def test_xva_refuses_adjusted_rows_off_the_default_free_times(tmp_path):
    # the semilinear price halves a window of 37 steps of 0.01 into two of 19 shorter steps, so
    # its rows are not at V's times (V's t = 0.08 has the semilinear price's t = 0.0779)
    cfg = {
        "grid": {"dim": 1, "half_length": 6.0, "points_per_axis": 64},
        "xva": {"horizon": 1.0,
                "params": {"sigma": 0.2, "epsilon": 1e-3, "lambda_B": 5.0, "lambda_C": 5.0,
                           "R_B": 0.4, "R_C": 0.4, "s_F": 5.0},
                "payoff": {"kind": "smoothed_call", "strike": 1.0, "epsilon": 1e-3}},
        "solver": {"dt": 0.01, "window": 0.37},
    }
    code, out = _run_in_process(tmp_path, "xva", "xva", cfg)
    assert code == 1
    (job,) = json.loads((out / "manifest.json").read_text())["job_status"]
    assert job["status"] == "failed"
    assert job["error"] == (
        "ConfigurationError: solver.window: a halved Picard window put the semilinear price's time "
        "nodes off V's t = 0.08 (solver.dt 0.01); choose a solver.window that is solver.dt times a "
        "power of two, or a smaller solver.dt so that no window halves")


def test_the_cli_loads_no_openssl(tmp_path):
    # hashlib loads OpenSSL (_hashlib); the config hash takes CPython's builtin sha256
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SOLVE_CFG))
    code = (
        "import sys, parastrip.cli\n"
        "loaded = [m for m in ('hashlib', '_hashlib') if m in sys.modules]\n"
        f"code = parastrip.cli.main(['solve', '--config', {str(cfg_path)!r}, "
        f"'--output', {str(tmp_path / 'out')!r}])\n"
        "print(code, loaded, [m for m in ('hashlib', '_hashlib') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]", "[]"]


def test_the_config_digest_is_sha256_of_the_canonical_json():
    import hashlib

    from parastrip.cli import _config_digest

    canon = json.dumps(FAMILY_CFG, sort_keys=True, separators=(",", ":"))
    assert _config_digest(FAMILY_CFG) == hashlib.sha256(canon.encode()).hexdigest()
    assert _config_digest({"a": "\u00e9", "b": [1.5, None]}) == hashlib.sha256(
        b'{"a":"\\u00e9","b":[1.5,null]}').hexdigest()


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
    # Nyquist 10.05 hosts 2, below the floor of 3: refused before any job, naming both grid keys
    coarse = tmp_path / "coarse"
    coarse.mkdir()
    coarse_cfg = dict(cfg, grid={"dim": 1, "half_length": 10.0, "points_per_axis": 64})
    proc, out = run_cli(coarse, "maxreg", coarse_cfg)
    assert proc.returncode == 2
    detail = " ".join(json.loads(proc.stderr.strip().splitlines()[-1])["detail"])
    assert "grid.points_per_axis" in detail and "grid.half_length" in detail
    assert not (out / "manifest.json").exists()


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
    ps.solve_shift_family(problem, np.linspace(-0.2, 0.2, 3), 0.0, 0.02, cfg)

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


def test_xva_on_a_1d_grid_with_a_heston_block_exits_2(tmp_path, capsys):
    # a heston block prices on the 2-D variance chart, so a 1-D grid is refused before any job
    cfg = {
        "grid": {"dim": 1, "half_length": 6.0, "points_per_axis": 32},
        "solver": {"dt": 0.01},
        "xva": {"horizon": 0.05,
                "params": {"sigma": 0.2, "epsilon": 0.05, "lambda_B": 0.02,
                           "heston": {"kappa": 1.0, "theta": 0.04, "sigma_v": 0.2, "rho": 0.3,
                                      "v_min": 0.02, "v_max": 0.06}},
                "payoff": {"kind": "hermite_expansion", "strike": 1.0, "epsilon": 0.05, "n_terms": 24}},
    }
    code, out = _run_in_process(tmp_path, "xva", "xva", cfg)
    assert code == 2
    assert "xva.params.heston: a heston block on a 1-D grid" in _invalid_detail(capsys)
    assert not (out / "manifest.json").exists()


def _snapshot_run(name):
    """The (command, config) of the run ``name`` of tools/snapshot_cli_outputs.py."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "tools" / "snapshot_cli_outputs.py"
    spec = importlib.util.spec_from_file_location("snapshot_cli_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (run,) = [(command, cfg) for run_name, command, cfg, _ in tool._kind_runs() if run_name == name]
    return run


@pytest.mark.parametrize("name, files, checks", [
    ("xva_heston_dim2", ["prices.svg", "xva.csv"], ["xva_at_atm", "sup_diff_linear_nonlinear"]),
    ("xva_sign_bound", ["prices.svg", "xva.csv"], ["xva_at_atm", "sup_diff_linear_nonlinear", "xva_sign_bound"]),
    ("ellipticity_z_points", ["ellipticity.csv", "ellipticity.svg"], ["c_hat_at_zero"]),
])
def test_the_snapshot_runs_of_the_rarer_cli_paths(tmp_path, name, files, checks):
    # a 2-D xva price on the variance chart, the funding-only sign bound and explicit z_points
    command, cfg = _snapshot_run(name)
    code, out = _run_in_process(tmp_path, name, command, cfg)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == sorted(files + ["manifest.json", "report.csv", "report.txt"])
    with open(out / "report.csv") as fh:
        report = list(csv.DictReader(fh))
    assert [row["name"] for row in report] == checks
    assert all(row["status"] == "pass" for row in report)
    if command == "xva":
        with open(out / "xva.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 14 of V's 401 (2-D) or 501 (1-D) times, each with the 32 X of the grid (of the centre w line in 2-D)
        assert len({row["tau"] for row in rows}) == 14 and len(rows) == 32 * 14
    else:
        with open(out / "ellipticity.csv") as fh:
            assert len(list(csv.DictReader(fh))) == cfg["ellipticity"]["n_thetas"]


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


def test_a_constant_heat_study_applies_no_operator_in_its_picard_windows(tmp_path, monkeypatch):
    # heat is its own frozen generator: every Picard window of the study returns its free flight,
    # with no operator application and one inverse transform, that of the free flight
    import parastrip.solver as solver
    from parastrip.operators import OperatorPlan

    cfg = {
        "grid": {"dim": 1, "half_length": 6.0, "points_per_axis": 64},
        "run": {"horizon": 0.05},
        "problem": {
            "operator": {"kind": "heat", "diffusivity": 1.0, "strip_half_width": 2.0},
            "initial": {"kind": "gaussian"},
        },
        "solver": {"dt": 0.005},
        "analyticity": {
            "y_half_width": 0.2,
            "n_shifts": 5,
            "times": [0.025, 0.05],
            "strides": [1, 2],
            "d_mu": [0.05],
            "rho": 0.02,
            "path": {"sigma": 0.05, "tau": 0.01, "t_primes": [0.02, 0.03]},
        },
    }
    windows, open_windows = [], []
    picard, apply_hat, ifftn = solver._picard_window, OperatorPlan.apply_hat, solver._ifftn

    def count(name):
        if open_windows:
            open_windows[-1][name] += 1

    def window(*a, **kw):
        open_windows.append({"apply_hat": 0, "_ifftn": 0})
        try:
            return picard(*a, **kw)
        finally:
            windows.append(open_windows.pop())

    monkeypatch.setattr(solver, "_picard_window", window)
    monkeypatch.setattr(OperatorPlan, "apply_hat", lambda *a, **kw: count("apply_hat") or apply_hat(*a, **kw))
    monkeypatch.setattr(solver, "_ifftn", lambda *a, **kw: count("_ifftn") or ifftn(*a, **kw))
    code, _ = _run_in_process(tmp_path, "va", "verify-analyticity", cfg)
    assert code == 0
    # the shift family's lockstep window, the time stencil's, and both segments of both paths
    assert len(windows) >= 6
    assert all(w == {"apply_hat": 0, "_ifftn": 1} for w in windows), windows


def test_the_analyticity_study_prepares_each_ray_once_per_window(tmp_path, monkeypatch):
    # the benchmark's analyticity config at horizon 0.1 and n = 128.  Members on one ray share its
    # time nodes, and members that also share the frozen symbol share its phi weights: set-up
    # repeated per member would make 62 _time_nodes and 43 _phi_weights calls here
    import parastrip.solver as solver

    cfg = {
        "grid": {"dim": 1, "half_length": 10.0, "points_per_axis": 128},
        "run": {"horizon": 0.1},
        "problem": {
            "operator": {"kind": "heat", "diffusivity": 1.0, "strip_half_width": 2.0},
            "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
        },
        "solver": {"dt": 1e-3, "snapshot_stride": 1},
        "analyticity": {
            "y_half_width": 0.25,
            "n_shifts": 9,
            "times": [0.05, 0.1],
            "strides": [1, 2],
            "d_mu": [0.05, 0.025],
            "rho": 0.06,
            "path": {"sigma": 0.1, "tau": 0.02, "t_primes": [0.04, 0.06]},
            "hardy": {"p": 4.0},
        },
    }
    counts = dict.fromkeys(("_fftn", "_ifftn", "_phi_weights", "_time_nodes"), 0)
    for name in counts:
        inner = getattr(solver, name)

        def spy(*a, inner=inner, name=name, **kw):
            counts[name] += 1
            return inner(*a, **kw)

        monkeypatch.setattr(solver, name, spy)
    code, _ = _run_in_process(tmp_path, "va", "verify-analyticity", cfg)
    assert code == 0
    assert counts == {"_fftn": 15, "_ifftn": 15, "_phi_weights": 27, "_time_nodes": 30}


def test_the_xva_study_transforms_no_iterate_twice(tmp_path, monkeypatch):
    # the benchmark's xva config.  A Picard sweep takes the reaction's beta = 0 jet from the
    # iterate's values instead of transforming it again (272 inverse transforms without), and
    # the linear price, forced by a source alone, judges each window's first iterate again as
    # its second sweep (32 brackets without, 16 with)
    import parastrip.solver as solver

    counts = dict.fromkeys(("_ifftn", "_bracket"), 0)
    for name in counts:
        inner = getattr(solver, name)

        def spy(*a, inner=inner, name=name, **kw):
            counts[name] += 1
            return inner(*a, **kw)

        monkeypatch.setattr(solver, name, spy)
    code, _ = _run_in_process(tmp_path, "xva", "xva", XVA_STUDY_CFG)
    assert code == 0
    assert counts == {"_ifftn": 192, "_bracket": 80}

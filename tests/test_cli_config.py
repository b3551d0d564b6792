"""The CLI's config tables: malformed values exit 2 naming their field, the README
reference lists every key, and configs drawn from the tables never raise past main."""

import contextlib
import copy
import importlib.util
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from parastrip.cli import _KINDS, _TOP, REQUIRED, _walk, main
from parastrip.grid import _EXP_OVERFLOW
from parastrip.solver import SolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = README.parent / "perfbench"
TYPED = ("ParastripError", "ConfigurationError", "DomainError", "ConvergenceError", "InstabilityError")

GRID = {"dim": 1, "half_length": 3.0, "points_per_axis": 32}
PROBLEM = {"operator": {"kind": "heat", "diffusivity": 1.0, "strip_half_width": 1.0},
           "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0}}
BASE = {
    "solve": {"grid": GRID, "run": {"horizon": 0.05}, "problem": PROBLEM, "solver": {"dt": 0.01}},
    "verify-analyticity": {
        "grid": GRID, "run": {"horizon": 0.04}, "problem": PROBLEM, "solver": {"dt": 0.01},
        "analyticity": {"y_half_width": 0.1, "n_shifts": 5, "strides": [1], "d_mu": [0.05]},
    },
    "xva": {"grid": GRID,
            "xva": {"horizon": 0.05, "params": {"sigma": 0.2, "epsilon": 0.05, "lambda_B": 0.02},
                    "payoff": {"kind": "smoothed_call", "strike": 1.0, "epsilon": 0.05}},
            "solver": {"dt": 0.01}, "sweep": {"epsilon": [0.05]}},
    "ellipticity": {"grid": GRID, "problem": PROBLEM,
                    "ellipticity": {"n_thetas": 3, "n_directions": 2, "n_fields": 2, "t_points": [0.0]}},
    "maxreg": {"grid": GRID, "problem": PROBLEM, "solver": {"dt": 0.0125},
               "maxreg": {"horizons": [0.025, 0.05], "p": 4.0, "samples": 3, "support": 0.025}},
    "convergence": {"grid": GRID, "run": {"horizon": 0.04}, "problem": PROBLEM,
                    "convergence": {"dts": [0.02, 0.01]}},
}


def _run(command, cfg):
    """Exit code, stderr and manifest (None when absent) of an in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--output", str(Path(tmp) / "out")])
        manifest = Path(tmp) / "out" / "manifest.json"
        return code, err.getvalue(), json.loads(manifest.read_text()) if manifest.exists() else None


def _invalid_detail(stderr: str) -> str:
    err = json.loads(stderr.strip().splitlines()[-1])
    assert err["error"] == "invalid configuration"
    return " ".join(err["detail"])


def _with(cfg, path, value):
    """A copy of ``cfg`` with the dotted ``path`` set to ``value``."""
    cfg = copy.deepcopy(cfg)
    *parents, last = path.split(".")
    block = cfg
    for name in parents:
        block = block.setdefault(name, {})
    block[last] = value
    return cfg


@pytest.mark.parametrize("command, path, value, field", [
    ("solve", "seed", "abc", "seed"),
    ("verify-analyticity", "analyticity.path.sigma", "abc", "analyticity.path.sigma"),
    ("verify-analyticity", "analyticity.hardy.p", "x", "analyticity.hardy.p"),
    ("ellipticity", "ellipticity.t_points", ["a"], "ellipticity.t_points"),
    ("maxreg", "maxreg.support", "a", "maxreg.support"),
    ("solve", "problem.initial.center", ["a"], "problem.initial.center"),
    ("solve", "problem.operator", {"kind": "bs", "sigma": "a"}, "problem.operator.sigma"),
    ("solve", "problem", [1], "problem"),
    ("convergence", "convergence.dts", "abc", "convergence.dts"),
    # values that used to be checked only inside a job
    ("ellipticity", "ellipticity.n_directions", "a", "ellipticity.n_directions"),
    ("verify-analyticity", "analyticity.times", "x", "analyticity.times"),
    ("xva", "sweep.epsilon", "ab", "sweep.epsilon"),
    # and sections that used to be dropped for their defaults
    ("verify-analyticity", "analyticity.path", 3, "analyticity.path"),
    ("verify-analyticity", "analyticity.hardy", "x", "analyticity.hardy"),
])
def test_malformed_values_exit_2_naming_the_field(command, path, value, field):
    code, stderr, manifest = _run(command, _with(BASE[command], path, value))
    assert code == 2
    assert f"{field}:" in _invalid_detail(stderr)
    assert manifest is None


@pytest.mark.parametrize("path, value, field", [
    ("maxreg.support", 0.04, "maxreg.support"),                # past the smallest horizon, 0.025
    ("maxreg.horizons", [0.025, 0.03], "maxreg.horizons"),     # 0.025 is off the steps of 0.01 to 0.03
    ("grid.points_per_axis", 16, "grid"),                      # below the Besov floor
])
def test_maxreg_refuses_what_its_estimate_would_refuse_before_any_job(path, value, field):
    # the estimator's own rules, checked before any job and named by their keys
    code, stderr, manifest = _run("maxreg", _with(BASE["maxreg"], path, value))
    assert code == 2
    assert f"{field}:" in _invalid_detail(stderr)
    assert manifest is None


@pytest.mark.parametrize("path, value, named", [
    ("solver", {"picard_tol": -1}, ("solver:", "picard_tol")),
    ("solver", {"foo": 1}, ("solver:", "foo")),
    ("convergence.dts", [-0.01, -0.005], ("convergence.dts:",)),
])
def test_convergence_checks_its_solver_section_and_each_dt(path, value, named):
    # these used to run the default solver config for both integrators, exit 0 and report zero gaps
    code, stderr, manifest = _run("convergence", _with(BASE["convergence"], path, value))
    assert code == 2
    detail = _invalid_detail(stderr)
    assert all(name in detail for name in named)
    assert manifest is None


def _sections(table, label, seen):
    """(section label, key names) for every table reachable from ``table``, each once."""
    if id(table) in seen:
        return
    seen.add(id(table))
    keys, names, nested = list(table), [], []
    for key in keys:
        if key.name not in names:
            names.append(key.name)
        if isinstance(key.of, dict):
            keys.extend(k for sub in key.of.values() for k in sub)
        elif key.kind in ("object", "objects"):
            nested.append((key.of, f"{label}.{key.name}" if label != "top level" else key.name))
    yield label, names
    for sub, sub_label in nested:
        yield from _sections(sub, sub_label, seen)


def test_every_table_key_is_in_the_readme_reference():
    text = README.read_text()
    reference = text[text.index("### Configuration keys"):]
    reference = reference[:reference.index("\n## ")]
    chunks = {}
    for chunk in reference.split("\n#### ")[1:]:
        title = chunk.splitlines()[0]
        chunks[re.match(r"`([^`]+)`", title).group(1) if "`" in title else title.lower()] = chunk
    for label, names in _sections(_TOP, "top level", set()):
        assert label in chunks, f"README has no reference section for {label}"
        missing = [name for name in names if f"`{name}`" not in chunks[label]]
        assert not missing, f"README's {label} section lacks {missing}"


# ---------------------------------------------------------------------------
# fuzz drawn from the tables

def _keys(table, command, cfg):
    """The keys ``command`` reads from a section holding ``cfg``, with the keys its kinds bring."""
    keys = [key for key in table if command in key.cmds]
    for key in list(keys):
        if isinstance(key.of, dict):
            keys.extend(key.of.get(cfg.get(key.name, key.default), ()))
    return keys


def _paths(table, command, cfg, label=""):
    """(dotted path, key) of every key ``command`` reads under ``cfg``, nested sections included."""
    for key in _keys(table, command, cfg):
        path = f"{label}.{key.name}" if label else key.name
        yield path, key
        if key.kind == "object" and isinstance(cfg.get(key.name), dict):
            yield from _paths(key.of, command, cfg[key.name], path)


def _outside(key):
    """Values that violate ``key``: a wrong type, or a value past one of its bounds."""
    wrong = {"number": ["x", True, None, [1.0]], "int": ["x", 1.5, True], "pow2": [12, 0, "x"],
             "odd": [6, "x", 7.0], "string": [1, None], "numbers": ["x", [], ["a"], [True]],
             "ints": ["x", [], [1.5]], "array": ["x", [], [[1.0], [1.0, 2.0]], ["a"]],
             "enum": ["no such choice", 1.5, None], "object": [3, [1], "x"], "objects": [{}, [], [3]]}
    values = list(wrong[key.kind])
    lists = key.kind in ("numbers", "ints")
    for bound, step in ((key.gt, 0.0), (key.ge, -1), (key.le, 1)):
        if bound is not None:
            past = bound + step
            values.append([past] if lists else past)
    return st.sampled_from(values)


PUSHED = [(command, path, key) for command, cfg in BASE.items() for path, key in _paths(_TOP, command, cfg)]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(PUSHED).flatmap(lambda p: st.tuples(st.just(p), _outside(p[2]))))
def test_a_field_pushed_outside_its_table_exits_2_naming_it(pushed):
    (command, path, key), value = pushed
    code, stderr, manifest = _run(command, _with(BASE[command], path, value))
    assert code == 2, (path, value)
    detail = _invalid_detail(stderr)
    assert f"{path}:" in detail or f"{path}[" in detail, (path, value, detail)
    assert manifest is None


def _inside(key):
    """A small value inside ``key``'s type and bounds, for the keys the tables alone decide."""
    if key.kind == "enum":
        return st.sampled_from(list(key.of))
    low = key.gt if key.gt is not None else key.ge
    if key.kind in ("int", "odd", "ints"):
        start = int(low if low is not None else 1)
        integer = st.integers(start, start + 2).map(lambda n: n | 1 if key.kind == "odd" else n)
        return st.lists(integer, min_size=1, max_size=2) if key.kind == "ints" else integer
    top = key.le if key.le is not None else (low + 1.0 if low is not None else 1.0)
    number = st.floats(low if low is not None else -1.0, top, exclude_min=key.gt is not None)
    return st.lists(number, min_size=1, max_size=2) if key.kind == "numbers" else number


# What the tables do not decide: the library checks these (SolverConfig, XvaParams,
# PayoffSpec, TemporalDomain, HermiteData, operator terms), or another key bounds them.
HELD = {"seed", "output_dir", "solver", "temporal.angle",
        "problem.operator.strip_half_width", "problem.operator.sigma", "problem.operator.q_S",
        "problem.operator.gamma_S", "problem.initial.center", "problem.initial.index",
        "problem.source.datum.center", "problem.source.datum.index", "run.t0",
        "analyticity.y_half_width", "analyticity.times", "analyticity.mu_center_re",
        "analyticity.mu_center_im", "analyticity.d_mu", "analyticity.path", "analyticity.hardy",
        "xva", "sweep", "ellipticity.z_points", "ellipticity.t_points",
        "maxreg.horizons", "maxreg.support", "convergence.dts", "convergence.base_dt"}
# keys the tables bound loosely, drawn from the small ranges that keep the fuzz fast; a normal
# horizon keeps the default path splits, 0.4 and 0.6 of it, apart, and strides up to 2 leave the
# three shifts central differencing needs of the fewest n_shifts the table admits, 5
RANGES = {"grid.half_length": st.floats(1.0, math.pi), "grid.points_per_axis": st.sampled_from([8, 16, 32]),
          "run.horizon": st.floats(0.0, 0.05, exclude_min=True, allow_subnormal=False),
          "analyticity.strides": st.lists(st.integers(1, 2), min_size=1, max_size=2)}
KINDS = {"problem.operator.kind": ["heat", "variable_heat"],
         "problem.initial.kind": ["gaussian", "mode"],
         "problem.source.datum.kind": ["gaussian", "mode"]}


@st.composite
def _drawn(draw, table, command, label=""):
    """A section drawn from ``table``: each key ``command`` reads, unless held, drawn inside its
    table entry or left out for its default."""
    out, keys = {}, [key for key in table if command in key.cmds]
    for key in keys:
        path = f"{label}.{key.name}" if label else key.name
        if path in HELD or (key.default is not REQUIRED and not draw(st.booleans())):
            continue
        if key.kind == "object":
            out[key.name] = draw(_drawn(key.of, command, path))
            continue
        if key.kind not in _KINDS and key.kind != "enum":
            continue
        out[key.name] = draw(st.sampled_from(KINDS[path]) if path in KINDS else RANGES.get(path, _inside(key)))
        if isinstance(key.of, dict):
            keys.extend(key.of[out[key.name]])
    return out


def _merged(base, drawn):
    out = copy.deepcopy(base)
    for name, value in drawn.items():
        # a drawn kind brings its own keys, so it replaces the section
        merge = isinstance(value, dict) and "kind" not in value
        out[name] = _merged(out.get(name, {}), value) if merge else value
    return out


def _too_narrow_for_the_shift(command, cfg) -> bool:
    """Whether ``verify-analyticity`` refuses the config's gaussian as too narrow for its shift
    family, a cross-field rule that ``tests/test_cli.py`` covers on its own."""
    if command != "verify-analyticity" or cfg["problem"]["initial"]["kind"] != "gaussian":
        return False
    power = max(2.0, cfg["solver"].get("p", SolverConfig.p))
    width = cfg["problem"]["initial"].get("width", 1.0)
    return power * cfg["analyticity"]["y_half_width"] ** 2 / (2.0 * width ** 2) >= _EXP_OVERFLOW


def _below_the_besov_floor(cfg) -> bool:
    """Whether the config's grid is too coarse for a Besov norm of 3 dyadic blocks: a Nyquist
    wavenumber pi n / (2 L), computed as ``Grid.nyquist`` computes it, below 2^4."""
    grid = cfg["grid"]
    return math.pi / (2.0 * grid["half_length"] / grid["points_per_axis"]) < 16.0


@pytest.mark.filterwarnings("error::RuntimeWarning")   # a numeric warning is an untyped failure path
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(BASE)).flatmap(
    lambda command: st.tuples(st.just(command), _drawn(_TOP, command))))
def test_a_config_drawn_inside_the_tables_runs_or_fails_typed(drawn):
    command, sections = drawn
    cfg = _merged(BASE[command], sections)
    assume(not _too_narrow_for_the_shift(command, cfg))
    coarse = _below_the_besov_floor(cfg)
    code, stderr, manifest = _run(command, cfg)
    # cross-field rules on the drawn grid: the Black-Scholes generator is one-dimensional, and the
    # norm tables of solve and verify-analyticity and the maxreg estimate need the Besov floor
    if command == "xva" and cfg["grid"]["dim"] == 2:
        assert code == 2 and "xva.params.heston:" in _invalid_detail(stderr), (cfg, stderr)
        return
    if coarse and command in ("solve", "verify-analyticity", "maxreg"):
        assert code == 2 and "grid.points_per_axis" in _invalid_detail(stderr), (cfg, stderr)
        return
    # and the solver marches a length above 1e-12 only
    if command in ("solve", "verify-analyticity") and cfg["run"]["horizon"] - cfg["run"].get("t0", 0.0) <= 1e-12:
        assert code == 2 and "run.horizon:" in _invalid_detail(stderr), (cfg, stderr)
        return
    assert code in (0, 1), (cfg, stderr)
    failed = [job for job in manifest["job_status"] if job["status"] != "ok"]
    assert all(job["error"].startswith(TYPED) for job in failed), (cfg, failed)


def test_the_benchmark_configs_pass_the_tables(monkeypatch):
    """perfbench's CLI configs walk clean, so a table change that would break the benchmark fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # workloads imports perfbench's own oracles; the tests' module of that name comes back afterwards
    monkeypatch.delitem(sys.modules, "oracles", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in (0, 7):
        for command, cfg in (("verify-analyticity", workloads.analyticity_config(seed)),
                             ("xva", workloads.xva_config(seed))):
            errors = []
            _walk(cfg, _TOP, "", command, errors)
            assert errors == [], (command, seed, errors)


def test_a_strike_outside_the_log_price_box_exits_2_naming_the_strike():
    # e^6 is about 403: strike 10000 lies beyond the box of half length 6
    code, stderr, _ = _run("xva", _with(BASE["xva"], "xva.payoff.strike", 10000.0))
    assert code == 2 and "xva.payoff.strike: strike lies outside the log-price box" in _invalid_detail(stderr)


@pytest.mark.parametrize("command", ["solve", "verify-analyticity"])
def test_a_horizon_below_the_solvers_least_length_exits_2_naming_it(command):
    code, stderr, _ = _run(command, _with(BASE[command], "run.horizon", 1e-13))
    assert code == 2 and "run.horizon: integration length must exceed 1e-12, got 1e-13" in _invalid_detail(stderr)

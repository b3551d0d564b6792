"""Write every output of a fixed set of CLI runs, for a byte-for-byte "same behaviour" check.

Usage::

    PYTHONPATH=<checkout>/src python tools/snapshot_cli_outputs.py OUT_DIR

The runs are the two perfbench CLI configs (``perfbench/workloads.py``) at
seeds 0 and 7, and the six ``BASE`` configs of ``tests/test_cli_config.py``
at ``grid.dim`` 1 and 2 (``xva`` at dim 1 only: its Black-Scholes generator
is one-dimensional).  Small runs (n = 32) of every operator kind follow,
defined here (``_kind_runs``): ``solve`` on ``variable_heat`` (dims 1 and 2),
``bs``, a scalar ``custom`` operator with a complex first-order term, ``mode``
and ``hermite`` data, a ``linear`` and a ``quadratic_surrogate`` reaction and a
``modulated`` source, each under both integrators; ``ellipticity`` on
``heston``, ``heston_chart``, a 2-component ``custom`` system, ``bs`` and 2-D
``variable_heat``, and on ``heston_chart`` at explicit ``z_points``;
``maxreg`` on that system and on ``variable_heat``; ``verify-analyticity``
on the heat flow of a ``mode`` datum, which is not real, and under a
``quadratic_surrogate`` reaction, which is; and ``xva`` on a
``hermite_expansion`` payoff with ``theta_mtm`` 0.5, r > 0 and an epsilon
sweep, on the 2-D variance chart (a ``heston`` block), and with a funding
spread alone, which adds the ``xva_sign_bound`` check.  Each run writes into
``OUT_DIR/<name>/``.  The raw bytes of the 64^2 Heston ``price_riskfree``
final row at seeds 0 and 7 go to ``OUT_DIR/heston_seed<S>/final.bin``, with
the SHA-256 of every stored row, as a read replays them, in ``rows.sha256``.

The perfbench and ``BASE`` configs are imported from those two files, not
copied.  The library is the ``parastrip`` on ``PYTHONPATH``, or this
checkout's ``src/`` when none is, so one copy of this script snapshots any
checkout.  Compare two snapshots with ``diff -r -x manifest.json A B``: the
manifest holds wall times.
"""

import contextlib
import copy
import hashlib
import importlib.util
import io
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 7)


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))     # workloads imports perfbench's own oracles
    try:
        return _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        sys.modules.pop("oracles", None)


def _runs(workloads):
    """(name, command, config, seed) of every CLI run, in a fixed order."""
    base = _load("cli_config_tests", ROOT / "tests" / "test_cli_config.py").BASE
    for seed in SEEDS:
        yield f"analyticity_seed{seed}", "verify-analyticity", workloads.analyticity_config(seed), seed
        yield f"xva_seed{seed}", "xva", workloads.xva_config(seed), seed
    for dim in (1, 2):
        for command, cfg in base.items():
            if command == "xva" and dim == 2:
                continue
            cfg = copy.deepcopy(cfg)
            cfg["grid"] = dict(cfg["grid"], dim=dim)
            yield f"{command}_dim{dim}", command, cfg, None


GRID = {"dim": 1, "half_length": 3.0, "points_per_axis": 32}
GAUSSIAN = {"kind": "gaussian", "amplitude": 1.0, "width": 1.0}
HESTON = {"kappa": 1.0, "theta": 0.04, "sigma_v": 0.2, "rho": 0.3, "v_min": 0.02, "v_max": 0.06}
SYSTEM = {"kind": "custom", "strip_half_width": 1.0, "components": 2, "terms": [
    {"alpha": [1], "beta": [1], "re": 1.0}, {"alpha": [0], "beta": [1], "im": 0.3},
    {"alpha": [0], "beta": [0], "re": 0.2, "im": -0.1}]}
VARIABLE_HEAT = {"kind": "variable_heat", "strip_half_width": 1.0, "variation": 0.3, "wavenumber": 2}
SOLVE = {  # name: (grid dim, operator, initial datum, reaction, source)
    "variable_heat_dim1": (1, VARIABLE_HEAT, GAUSSIAN, {"kind": "linear", "rate": -0.5, "rate_im": 0.2}, {}),
    "variable_heat_dim2": (2, VARIABLE_HEAT, GAUSSIAN, {"kind": "quadratic_surrogate", "strength": 0.5}, {}),
    "bs": (1, {"kind": "bs", "sigma": 0.3, "q_S": 0.01}, GAUSSIAN, {},
           {"kind": "modulated", "datum": {"kind": "mode", "index": [2], "amplitude": 0.1}, "rate": 1.0}),
    "custom": (1, {"kind": "custom", "strip_half_width": 1.0, "terms": [
        {"alpha": [1], "beta": [1], "re": 0.8, "im": 0.1}, {"alpha": [0], "beta": [1], "re": 0.2, "im": -0.4}]},
        {"kind": "hermite", "coeffs": [1.0, 0.0, 0.25], "basis": "monomial"}, {}, {}),
    "mode": (1, {"kind": "heat", "diffusivity": 0.5, "strip_half_width": 1.0},
             {"kind": "mode", "index": [1], "amplitude": 0.5}, {"kind": "linear", "rate": 0.3}, {}),
    "hermite_dim2": (2, {"kind": "heat", "strip_half_width": 1.0},
                     {"kind": "hermite", "coeffs": [[1.0, 0.5], [0.0, 0.2]]}, {},
                     {"kind": "modulated", "datum": GAUSSIAN, "rate": 0.5}),
}
ELLIPTICITY = {  # name: (grid dim, operator)
    "heston": (2, {"kind": "heston", "heston": HESTON}),
    "heston_chart": (2, {"kind": "heston_chart", "heston": HESTON}),
    "system": (1, SYSTEM),
    "bs": (1, {"kind": "bs", "sigma": 0.3}),
    "variable_heat_dim2": (2, VARIABLE_HEAT),
}
ANALYTICITY = {  # name: (initial datum, reaction) of a small verify-analyticity run on the heat flow
    # e^{ikx} is not real: every member and ray is solved
    "mode": ({"kind": "mode", "index": [1], "amplitude": 0.5}, {}),
    # u conj(u) / 2 is real, so the family and the time stencil reflect half their solves
    "surrogate": (GAUSSIAN, {"kind": "quadratic_surrogate", "strength": 0.5}),
}
MAXREG = {"system": (SYSTEM, {"dt": 0.0125, "integrator": "imex"}), "variable_heat": (VARIABLE_HEAT, {"dt": 0.0125})}
CALL = {"kind": "smoothed_call", "strike": 1.0, "epsilon": 0.05}
XVA = {  # name: (grid dim, xva.params beyond sigma and epsilon)
    # the variance chart: a heston block on a 2-D grid, at the library's default imex step
    "heston_dim2": (2, {"lambda_B": 0.02, "s_F": 0.01, "heston": HESTON}),
    # a funding spread alone adds the xva_sign_bound check to the report
    "sign_bound": (1, {"s_F": 0.01}),
}


def _kind_runs():
    """(name, command, config, seed) of the small runs of every operator kind."""
    for name, (dim, op, initial, reaction, source) in SOLVE.items():
        for integrator in ("picard_voc", "imex"):
            yield f"solve_{name}_{integrator}", "solve", {
                "grid": dict(GRID, dim=dim), "run": {"horizon": 0.05},
                "problem": {"operator": op, "initial": initial, "reaction": reaction, "source": source},
                "solver": {"dt": 0.01, "integrator": integrator}}, None
    for name, (dim, op) in ELLIPTICITY.items():
        yield f"ellipticity_{name}", "ellipticity", {
            "grid": dict(GRID, dim=dim), "problem": {"operator": op},
            "ellipticity": {"n_thetas": 3, "n_directions": 2, "n_fields": 2, "t_points": [0.0, 0.5]}}, None
    yield "ellipticity_z_points", "ellipticity", {
        "grid": dict(GRID, dim=2), "problem": {"operator": {"kind": "heston_chart", "heston": HESTON}},
        "ellipticity": {"n_thetas": 3, "n_directions": 2, "n_fields": 2, "z_points": [[0.0, 0.0], [1.5, -0.5]]}}, None
    for name, (op, solver) in MAXREG.items():
        yield f"maxreg_{name}", "maxreg", {
            "grid": GRID, "problem": {"operator": op}, "solver": solver,
            "maxreg": {"horizons": [0.025, 0.05], "p": 4.0, "samples": 3, "support": 0.025}}, None
    for name, (initial, reaction) in ANALYTICITY.items():
        yield f"analyticity_{name}", "verify-analyticity", {
            "grid": GRID, "run": {"horizon": 0.05}, "solver": {"dt": 0.01},
            "problem": {"operator": {"kind": "heat", "strip_half_width": 1.0}, "initial": initial,
                        "reaction": reaction},
            "analyticity": {"y_half_width": 0.2, "n_shifts": 5, "strides": [1]}}, None
    yield "xva_hermite", "xva", {
        "grid": dict(GRID, half_length=6.0), "solver": {"dt": 0.01}, "sweep": {"epsilon": [0.05, 0.02]},
        "xva": {"horizon": 0.05,
                "params": {"sigma": 0.2, "epsilon": 0.05, "r": 0.03, "theta_mtm": 0.5, "lambda_B": 0.02,
                           "lambda_C": 0.05, "R_B": 0.4, "R_C": 0.4, "s_F": 0.01},
                "payoff": {"kind": "hermite_expansion", "strike": 1.0, "epsilon": 0.05, "n_terms": 24}}}, None
    for name, (dim, params) in XVA.items():
        yield f"xva_{name}", "xva", {
            "grid": dict(GRID, dim=dim, half_length=6.0),
            "xva": {"horizon": 0.05, "params": dict(params, sigma=0.2, epsilon=0.05), "payoff": CALL}}, None


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(args[0])
    sys.path.append(str(ROOT / "src"))
    import parastrip
    from parastrip.cli import main as cli_main

    print(f"parastrip from {Path(parastrip.__file__).parent}", file=sys.stderr)
    workloads = _workloads()
    for name, command, cfg, seed in itertools.chain(_runs(workloads), _kind_runs()):
        run_dir = out / name
        run_dir.mkdir(parents=True)
        path = run_dir / "config.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        argv = [command, "--config", str(path), "--output", str(run_dir)]
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv + ([] if seed is None else ["--seed", str(seed)]))
        (run_dir / "exit_code.txt").write_text(f"{code}\n")
        print(f"{name}: exit {code}", file=sys.stderr)

    for seed in SEEDS:
        inputs = workloads.heston_inputs(seed)
        params = parastrip.XvaParams(sigma=0.2, epsilon=1e-3, heston=inputs["heston"])
        payoff = parastrip.hermite_payoff_fit(
            parastrip.PayoffSpec(kind="smoothed_call", strike=inputs["strike"], epsilon=1e-3), 6.0)
        grid = parastrip.make_grid(2, 6.0, workloads.HESTON_POINTS)
        result = parastrip.price_riskfree(params, payoff, grid, workloads.HESTON_HORIZON)
        run_dir = out / f"heston_seed{seed}"
        run_dir.mkdir(parents=True)
        (run_dir / "final.bin").write_bytes(result.final.values.tobytes())
        digest = hashlib.sha256()
        for block in result.blocks:
            digest.update(block.tobytes())
        (run_dir / "rows.sha256").write_text(f"{digest.hexdigest()}  {len(result)} rows\n")
        print(f"heston_seed{seed}: {len(result)} rows", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

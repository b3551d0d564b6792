"""Write every output of a fixed set of CLI runs, for a byte-for-byte "same behaviour" check.

Usage::

    PYTHONPATH=<checkout>/src python tools/snapshot_cli_outputs.py OUT_DIR

The runs are the two perfbench CLI configs (``perfbench/workloads.py``) at
seeds 0 and 7, and the six ``BASE`` configs of ``tests/test_cli_config.py``
at ``grid.dim`` 1 and 2 (``xva`` at dim 1 only: its Black-Scholes generator
is one-dimensional).  Each run writes into ``OUT_DIR/<name>/``.  The raw bytes
of the 64^2 Heston ``price_riskfree`` final row at seeds 0 and 7 go to
``OUT_DIR/heston_seed<S>/final.bin``, with the SHA-256 of every stored row,
as a read replays them, in ``rows.sha256``.

The configs are imported from those two files, not copied.  The library is
the ``parastrip`` on ``PYTHONPATH``, or this checkout's ``src/`` when none is,
so one copy of this script snapshots any checkout.  Compare two snapshots
with ``diff -r -x manifest.json A B``: the manifest holds wall times.
"""

import contextlib
import copy
import hashlib
import importlib.util
import io
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
    for name, command, cfg, seed in _runs(workloads):
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

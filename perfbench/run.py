"""Benchmark launcher: fresh-process studies of one workload, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src``.  Each study runs in a fresh interpreter (``perfbench/study.py``),
because a command-line user runs one study per process: ``study_s`` is the
first study after import, never a warm repeat.  Load is one process at a
time with ``--jobs 1``, and BLAS/OpenMP threads are pinned to 1.

``--trace 0`` runs set-up probes and then studies until about ``--seconds``
of study time is used (at least two studies) and reports the end-to-end
metrics as medians.  ``--trace 1`` alternates an untraced and a traced study
and reports the per-layer metrics of the traced ones plus the tracing
overhead.  Every study is checked against an independent closed form
(``oracles.py``); a failed check counts as a failed study.  The last line of
standard output is the JSON result; the lines before it record the inputs,
the environment and every sample.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_PROBES = 8          # set-up-only processes per run, besides each study's own set-up
MIN_STUDIES = 2
WALL_BUDGET_S = 150.0     # never start a process that is predicted to end past this
END_TO_END = {
    "study_s": "s", "study_cpu_s": "s", "field_updates_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
REPEATING_COUNTS = ("solver.time_nodes", "solver.sweeps", "grid.fft_calls")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "thread_pins": THREAD_PINS,
        "jobs": 1,
        "git_commit": _git_commit(),
    }


class Runner:
    """Starts study processes for one workload and collects their records."""

    def __init__(self, workload: str, seed: int, work_dir: Path, started: float):
        self.workload, self.seed, self.work_dir, self.started = workload, seed, work_dir, started
        self.env = dict(os.environ, **THREAD_PINS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, mode: str) -> dict:
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        out = self.work_dir / tag
        result = self.work_dir / f"{tag}.json"
        log_path = self.work_dir / f"{tag}.log"
        cmd = [sys.executable, str(HERE / "study.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), "--result", str(result),
               "--mode", mode]
        with open(log_path, "w") as log:
            spawned = time.perf_counter()
            proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, WALL_BUDGET_S + 20.0 - self.elapsed()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:     # timed out, or this launcher is being stopped
                    proc.kill()
                    proc.wait()
        wall = time.perf_counter() - spawned
        try:
            record = json.loads(result.read_text())
        except (OSError, ValueError):
            record = {"mode": mode, "failures": [
                f"study process ended with code {code} and no result; see {log_path.name}: "
                + log_path.read_text()[-2000:]]}
        record["wall_s"] = wall
        if mode == "study":
            shutil.rmtree(out, ignore_errors=True)      # a traced study keeps its spans
        return record

    def fits(self, predicted: float) -> bool:
        return self.elapsed() + predicted <= WALL_BUDGET_S


def _median(values):
    if not values:
        return 0.0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)    # a count stays a whole number
    return statistics.median(values)


def _summary(values):
    return {"median": _median(values), "min": min(values, default=0.0),
            "max": max(values, default=0.0), "n": len(values)}


def run_untraced(runner: Runner, seconds: float) -> tuple:
    """(every process record, samples, end-to-end metrics)"""
    runner.spawn("setup")                     # warm-up: byte-compiles the sources once
    probes = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    studies = []
    study_time = 0.0
    while True:
        rec = runner.spawn("study")
        studies.append(rec)
        study_time += rec["wall_s"]
        typical = _median([r["wall_s"] for r in studies])
        # start another study while it is predicted to end at most half a study late
        if len(studies) >= MIN_STUDIES and study_time + typical / 2 > seconds:
            break
        if not runner.fits(typical):
            break
    timed = [r for r in studies if "study_s" in r]
    study_s = [r["study_s"] for r in timed]
    samples = {
        "study_s": study_s,
        "study_cpu_s": [r["study_cpu_s"] for r in timed],
        "field_updates_per_s": [workloads.FIELD_UPDATES[runner.workload] / s for s in study_s],
        "setup_s": [r["setup_s"] for r in probes + studies if "setup_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    metrics = {name: {"value": _median(samples[name]), "unit": unit}
               for name, unit in END_TO_END.items()}
    return probes + studies, samples, metrics


def run_traced(runner: Runner, seconds: float, per_layer_units: dict) -> tuple:
    """(every process record, samples, per-layer metrics)"""
    runner.spawn("setup")
    untraced, traced = [], []
    while True:
        t0 = runner.elapsed()
        untraced.append(runner.spawn("study"))
        traced.append(runner.spawn("trace"))
        pair = runner.elapsed() - t0
        if runner.elapsed() + pair / 2 > seconds or not runner.fits(pair):
            break
    layers = [r["layers"] for r in traced if "layers" in r]
    samples = {name: [lay[name] for lay in layers if name in lay] for name in per_layer_units}
    plain = _median([r["study_s"] for r in untraced if "study_s" in r])
    with_trace = _median([r["study_s"] for r in traced if "study_s" in r])
    samples["trace.overhead_frac"] = [with_trace / plain - 1.0] if plain and with_trace else []
    metrics = {name: {"value": _median(samples.get(name, [])), "unit": unit}
               for name, unit in per_layer_units.items()}
    return untraced + traced, samples, metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, per_layer_units: dict):
    started = time.perf_counter()
    work_dir = ROOT / ".perfbench" / f"{workload}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runner = Runner(workload, seed, work_dir, started)
    if trace:
        records, samples, metrics = run_traced(runner, seconds, per_layer_units)
    else:
        records, samples, metrics = run_untraced(runner, seconds)
    failed = [r for r in records if r.get("failures")]
    attempted = len(records)
    versions = next((r["versions"] for r in records if "versions" in r), {})
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": workloads.inputs(workload, seed),
        "environment": environment(versions),
        "attempted": attempted,
        "failed": len(failed),
        "fail_frac": len(failed) / attempted,
        "failures": [f for r in failed for f in r["failures"]][:5],
        "summary": {name: _summary(vals) for name, vals in samples.items()},
        "counts_repeat": {name: len(set(samples[name])) <= 1 for name in REPEATING_COUNTS}
                         if trace else None,
        "wall_s": time.perf_counter() - started,
    }
    return record, attempted, len(failed), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "parastrip" / "__init__.py").is_file():
        print(f"error: no parastrip sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # stopping the launcher stops its study process too (see Runner.spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        record, n_att, n_fail, wl_metrics = run_workload(
            name, args.seed, args.seconds, bool(args.trace), per_layer_units)
        attempted += n_att
        failed += n_fail
        print(json.dumps({"record": record}, sort_keys=True))
        for metric, m in wl_metrics.items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}"
                  f" (median of {record['summary'].get(metric, {}).get('n', 0)})")
        print(f"{name} fail_frac = {record['fail_frac']:.6g} ratio "
              f"({n_fail} failed of {n_att} attempted)")
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

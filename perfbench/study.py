"""One study in a fresh interpreter; writes its measurements as JSON.

    python3 perfbench/study.py --workload NAME --seed N --out DIR --result FILE
                               --spawned T [--mode study|setup|trace]

``--spawned`` is the launcher's ``time.perf_counter()`` just before it
started this process (CLOCK_MONOTONIC, shared by processes on Linux), so
``setup_s`` runs from interpreter start to inputs ready.  ``setup`` mode
stops there.  ``trace`` mode installs the span tracer before set-up and
reports the per-layer metrics.  A failed study is recorded, not raised.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--mode", choices=("study", "setup", "trace"), default="study")
    args = parser.parse_args()

    study = workloads.Study(args.workload, args.seed, Path(args.out))
    record = {"workload": args.workload, "seed": args.seed, "mode": args.mode, "failures": []}
    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        study.setup()
        record["setup_s"] = time.perf_counter() - args.spawned
        if args.mode != "setup":
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            study.run()
            record["study_s"] = time.perf_counter() - t0
            record["study_cpu_s"] = time.process_time() - cpu0
    except Exception:
        record["failures"].append(traceback.format_exc())
    if tracer is not None:
        tracer.uninstall()
    if args.mode != "setup" and study.outcome is not None:
        try:
            record["failures"].extend(study.check())
        except Exception:
            record["failures"].append("check raised:\n" + traceback.format_exc())
        record["outcome"] = study.outcome
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and not record["failures"]:
        record["layers"] = tracer.layer_metrics(study.bytes_written())
        tracer.write(Path(args.out) / "spans.npz")
    import numpy
    import scipy

    record["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

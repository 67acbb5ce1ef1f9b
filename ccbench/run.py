"""Benchmark entry point.

    python3 ccbench/run.py --workload skew-vec --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, sets up (five times;
``setup_s`` is the median), measures whole passes for ``--seconds``,
checks every answer against reference counts, and prints one JSON object
as the last line of standard output: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1`` (an untraced
and a traced phase of ``--seconds / 2`` each; the spans go to
``.ccbench/trace-<workload>-<seed>.json``).

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".ccbench")


def _spec(kind: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return [(m["name"], m["unit"]) for m in doc[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: the program under test (src/repro) is not in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)

    from ccbench import engine_workload, service_workload
    from ccbench.common import CleanExitCheck, Report, environment
    from ccbench.workloads import UNMEASURED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    spec = _spec("per_layer" if args.trace else "end_to_end")
    # a terminated run still unwinds, so the server and shard pools stop
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    clean = CleanExitCheck()
    report = Report()
    report.notes.append(f"workload {args.workload}, trace {args.trace}, "
                        f"environment {json.dumps(environment(args.seed))}")
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.workload == "service-mixed":
            service_workload.run(ROOT, args.seed, args.seconds, bool(args.trace), report,
                                 OUT_DIR)
        else:
            engine_workload.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                report, OUT_DIR)
    except Exception:
        # the program broke the run itself: report it as a failed run
        traceback.print_exc()
        report.problem("run aborted: " + traceback.format_exc().strip().splitlines()[-1])
        report.failed = report.attempted = max(report.attempted, 1)
    for problem in clean.leftovers():
        report.problem(problem)
    report.notes.append(f"run took {time.perf_counter() - started:.1f} s")
    if args.trace:
        # a layer this workload does not run in this process did no work
        # here; any other metric left unmeasured fails the run in emit()
        for name, _ in spec:
            if name.startswith(UNMEASURED[args.workload]):
                report.metrics.setdefault(name, (0.0, 0))
    report.emit(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

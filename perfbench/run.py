"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-miss --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics over a timed window;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics.  Every metric is printed by name with its unit and sample count
(or base); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any correctness, determinism or teardown check fails.
See ``perfbench/NOTES.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time

from common import SRC, BenchFailure, benchmark_spec, require_program, run_dir

WORKLOADS = ("serve-miss", "serve-dup", "batch-vec")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_program()
    sys.path.insert(0, str(SRC))
    spec = benchmark_spec()
    layer = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[layer]]
    rdir = run_dir(args.workload, args.seed, bool(args.trace))
    t0 = time.perf_counter()
    try:
        if args.workload == "batch-vec":
            import batch_bench

            if args.trace:
                outcome = batch_bench.run_traced(args.seed, rdir)
            else:
                outcome = batch_bench.run_measured(args.seed, args.seconds, rdir)
        else:
            import serve_bench

            if args.trace:
                outcome = serve_bench.run_traced(args.workload, args.seed, rdir)
            else:
                outcome = serve_bench.run_measured(
                    args.workload, args.seed, args.seconds, rdir
                )
    except BenchFailure as exc:
        sys.stderr.write(f"perfbench: {args.workload} failed: {exc}\n")
        sys.stderr.write(f"perfbench: logs kept in {rdir}\n")
        return 1
    report, attempted, failed, correct = outcome
    report.print_table(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"({time.perf_counter() - t0:.1f} s)",
        names,
    )
    print(report.result(correct, attempted, failed, names), flush=True)
    if not correct:
        sys.stderr.write(f"perfbench: checks failed; logs kept in {rdir}\n")
        return 1
    shutil.rmtree(rdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

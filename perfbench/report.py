"""Per-layer report: every metric by name with its unit, plus where a
request's time goes.

    python3 perfbench/report.py --seed 1 --seconds 30                  # all workloads
    python3 perfbench/report.py --workload forward --seed 1 --seconds 30

Each workload runs twice on the same seeded inputs: untraced (end-to-end
metrics, response fields, ``telemetry`` counters) and traced (span self
times).  The table lists each layer's self time per client operation and
its share of the client round trip; what no span covers is printed as the
unattributed remainder, never folded into a layer.  A negative remainder
means layers overlapped in time (several requests in flight at once).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402


def _report(name: str, seed: int, seconds: float) -> bool:
    result = bench.measure_traced(name, seed, seconds)
    plain, traced = result.phases["plain"], result.phases["traced"]
    print(f"== {name} (seed {seed}, {seconds:g} s per run) ==")
    for line in bench.describe(result):
        print(line)
    print(f"correct: {result.correct}  attempted: {result.attempted}  failed: {result.failed}")
    print()
    print(f"{'end-to-end metric':34s} {'untraced':>14s} {'traced':>14s} {'overhead':>12s}  unit")
    untraced_e2e = bench.end_to_end(result.workload, plain)
    traced_e2e = bench.end_to_end(result.workload, traced)
    for metric, (value, unit) in untraced_e2e.items():
        other = traced_e2e[metric][0]
        print(f"{metric:34s} {value:14.4f} {other:14.4f} {other - value:+12.4f}  {unit}")
    print()
    print(f"{'per-layer metric':34s} {'value':>14s}  unit")
    for metric, (value, unit) in result.metrics.items():
        if not metric.startswith("trace.overhead."):
            print(f"{metric:34s} {value:14.4f}  {unit}")
    print()
    print(f"{'layer (traced run)':46s} {'self us/op':>12s} {'share':>8s}")
    for label, per_op, share in bench.layer_table(traced):
        print(f"{label:46s} {per_op:12.1f} {100 * share:7.1f}%")
    print()
    return result.correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS), default=None,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    try:
        bench.check_source()
        names = [args.workload] if args.workload else list(bench.WORKLOADS)
        correct = all([_report(name, args.seed, args.seconds) for name in names])
    except (bench.BenchError, bench.ServerError, bench.NotEnoughSamples) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Repo benchmark: one workload against a live ``haan-serve``.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 30 --trace 0

Prints sample sizes and validity on the lines before the last; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402


def _terminate(signum, _frame):
    # Unwind through the finally blocks that stop the server.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, _terminate)
    try:
        bench.check_source()
        measure = bench.measure_traced if args.trace else bench.measure
        result = measure(args.workload, args.seed, args.seconds)
    except (bench.BenchError, bench.ServerError, bench.NotEnoughSamples) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    for line in bench.describe(result):
        print(line, file=sys.stderr if line.startswith("INVALID") else sys.stdout)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload frame --seed 0 --seconds 25 --trace 0

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it (``# run {...}``) records what produced the numbers.  Traced
runs also write their stage breakdowns to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    # Measure the checkout's own program, never an installed copy.
    sys.exit(f"perfbench: no src/repro under {ROOT}; run from a checkout")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import report, workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, info = report.run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump(info.pop("spans"), handle)
    print("# run " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Same-code noise report: run each workload several times and print
the run-to-run spread of every end-to-end metric next to raw ms.

Usage, from the repository root::

    python3 perfbench/noise.py --runs 10 --seconds 40 [--workloads frame,trunk]

Each run gets its own seed (1..runs), as the benchmark's acceptance
runs do.  Spread is the interquartile range of the per-run values
(``statistics.quantiles(values, n=4)``) as a share of their median;
range is (max - min) / median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median, (max(values) - min(values)) / median


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    info_line, result_line = out.strip().splitlines()[-2:]
    return (json.loads(info_line[len("# run "):]), json.loads(result_line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--workloads", default="frame,trunk,serve")
    args = parser.parse_args(argv)
    for workload in args.workloads.split(","):
        rows = []
        for seed in range(1, args.runs + 1):
            info, result = one_run(workload, seed, args.seconds)
            row = {name: m["value"] for name, m in result["metrics"].items()}
            row.update(raw_p50_ms=info["raw_p50_ms"],
                       raw_cpu_ms=info["raw_cpu_ms"], ref_ms=info["ref_ms"],
                       units=info["units"], failed=result["failed"])
            rows.append(row)
            print(json.dumps({"workload": workload, "seed": seed, **row}),
                  flush=True)
        print(f"\n### {workload}: {args.runs} runs x {args.seconds:g} s\n")
        print("| metric | median | IQR / median | range / median |")
        print("|---|---|---|---|")
        for name in rows[0]:
            values = [row[name] for row in rows]
            if statistics.median(values) == 0:
                continue
            iqr, full = spread(values)
            print(f"| {name} | {statistics.median(values):.4g} | "
                  f"{100 * iqr:.1f} % | {100 * full:.1f} % |")
        print("\nper-run host.ref_ms: "
              + ", ".join(f"{row['ref_ms']:.3f}" for row in rows) + "\n",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

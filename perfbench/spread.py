#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs the benchmark once per seed and prints, per metric, the median, the
quartiles (statistics.quantiles with n=4) and the spread: the distance
between the quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --workload oracle_scan --runs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed ({result['failed']} failed operations)")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        q1, median, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / median
        print(
            f"{name:<18} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {metric['bound']:>6}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

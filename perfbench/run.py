#!/usr/bin/env python3
"""Benchmark of gridmagic: construct, verify, document CLI and oracle workloads.

Run from the repository root:

    python3 perfbench/run.py --workload construct_verify --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Each workload runs in its own fresh interpreter (perfbench/worker.py)
against the checkout's src/, one thread, one client in a closed loop.
Set-up time is the best of several fresh interpreters, started between
the measured passes, that stop right before the first operation. With
--trace 0 the last stdout line is a JSON object with the end-to-end
metrics listed in BENCHMARK.json, with --trace 1 one with the per-layer
metrics of a traced run. The lines before it give
the same numbers for people, with error_rate, the tail percentile and the
operation counts. Exit status 0 means every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DEADLINE_S = 170  # per workload; the whole invocation must end within 180 s


def child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    """Run one worker process to completion; return its JSON report."""
    argv = [
        sys.executable,
        str(WORKER),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    # its own session, so that a timeout also stops the set-up probes it starts
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(args.seed),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    report = json.loads(lines[-1])
    report["metrics"]["peak_rss_mb"] = report["peak_rss_mb"]
    return report


def print_report(workload: str, report: dict, metrics: list[dict], trace: int) -> None:
    m = report["metrics"]
    print(f"== {workload}: {report['attempted']} operations, one client, closed loop, one thread")
    if not trace:
        setup = ", ".join(f"{s:.3f}" for s in report["setup_samples"])
        passes = sorted(report["metrics"]["pass_s"])
        best = f"{m['operations']} operations, each at its best of {len(passes)} measured passes"
        notes = {
            "setup_s": f"best of {len(report['setup_samples'])} fresh interpreters: {setup}",
            "latency_p50_ms": best,
            "latency_tail_ms": f"p{m['tail_percentile']} of the same, {m['beyond_tail']} beyond",
            "elements_per_s": f"passes took {passes[0]:.3f}-{passes[-1]:.3f} s after one warm-up pass",
        }
    else:
        notes = {}
    for metric in metrics:
        name = metric["name"]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<44} {m[name]:>16.6g} {metric['unit']}{note}")
    if not trace:
        if "assignments_per_s" in m:
            print(f"{'assignments_per_s':<44} {m['assignments_per_s']:>16.6g} assignments/s")
        rate = report["failed"] / report["attempted"]
        print(
            f"{'error_rate':<44} {rate:>16.6g} ratio  "
            f"({report['failed']} failed of {report['attempted']} attempted)"
        )
    else:
        print(f"trace written to {report['trace_file']}")
    for problem in report["problems"]:
        print(f"FAILED: {problem}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "gridmagic" / "__init__.py").is_file():
        print(f"no gridmagic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            report = run_workload(args, workload)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"{workload}: {e}", file=sys.stderr)
            return 1
        print_report(workload, report, metrics, args.trace)
        prefix = f"{workload}." if args.workload == "all" else ""
        for metric in metrics:
            value = report["metrics"][metric["name"]]
            result["metrics"][prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

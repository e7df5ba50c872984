"""One workload process: import gridmagic, set up, run passes, report JSON.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/ and numeric libraries held to one thread. It runs one
client in a closed loop: each operation starts when the previous one has
returned and been checked. The first pass warms caches and is discarded;
measured passes follow until the next one would overrun --seconds.
Between measured passes, outside any timed region, it starts fresh
interpreters that only set up, spread over the run, and reports the
best of their set-up times.

With --setup-only it stops right before the first operation and reports
only its set-up time, measured from --spawned-at (the parent's
time.monotonic() just before the spawn; both processes read the same
system-wide monotonic clock on Linux).
"""

from __future__ import annotations

import time

FIRST_INSTANT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Fresh set-ups per run, spread over the measured passes. setup_s is the
# best of them, as each operation's latency is its best over the passes:
# the shared host has slow stretches lasting seconds to minutes, and the
# median of set-ups moved with them by up to 36% between sets of runs.
SETUP_PROBES = 8


def _import_gridmagic():
    start = time.perf_counter()
    import gridmagic

    elapsed = time.perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(gridmagic.__file__).resolve().parents:
        raise SystemExit(f"gridmagic imported from {gridmagic.__file__}, not from {src}")
    return elapsed


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter that stops before the first operation."""
    argv = [
        sys.executable,
        __file__,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
        "--spawned-at",
    ]
    out = subprocess.run(
        argv + [repr(time.monotonic())],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    position = p / 100 * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


class Runner:
    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.next_op_id = 0

    def run_pass(self, traced: bool = False) -> tuple[float, list[tuple[float, int, int]]]:
        """Run every operation once; return pass wall time and (s, labels, examined) per op."""
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
        records = []
        pass_start = time.perf_counter()
        try:
            for op in self.workload.ops():
                self.attempted += 1
                if tracer is not None:
                    tracer.op = self.next_op_id
                    span = tracer.begin("op." + op.name)
                self.next_op_id += 1
                start = time.perf_counter()
                try:
                    result = op.run()
                except Exception as e:  # a raising operation is a failed one
                    result, problem = None, f"{op.name} raised {type(e).__name__}: {e}"
                else:
                    problem = None
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.end(span)
                if problem is None:
                    problem = op.check(result)
                if problem is not None:
                    self.failed += 1
                    if len(self.problems) < 20:
                        self.problems.append(problem)
                    records.append((elapsed, 0, 0))
                else:
                    records.append((elapsed, op.elements(result), op.examined(result)))
        finally:
            if tracer is not None:
                tracer.uninstall()
        return time.perf_counter() - pass_start, records


def end_to_end(passes, workload) -> dict:
    """Latency and throughput of the measured passes.

    The shared host slows whole stretches of a run by up to half, in bursts
    of seconds, so each operation is taken at its best over the passes (as
    timeit does). The median and the tail are percentiles over those best
    times, one per operation of a pass, and the throughput is a pass's
    labels over their sum.
    """
    # passes run the same operations in the same order, so position is identity
    best = [min(samples) for samples in zip(*(records for _, records in passes))]
    latencies = sorted(r[0] * 1e3 for r in best)
    tail_p = workload.tail_percentile
    tail = percentile(latencies, tail_p)
    out = {
        "latency_p50_ms": percentile(latencies, 50),
        "latency_tail_ms": tail,
        "tail_percentile": tail_p,
        "operations": len(best),
        "beyond_tail": sum(1 for x in latencies if x > tail),
        "elements_per_s": sum(r[1] for r in best) / sum(r[0] for r in best),
        "pass_s": [p[0] for p in passes],
    }
    examined = sum(r[2] for r in best)
    if examined:
        scan_time = sum(r[0] for r in best if r[2])
        out["assignments_per_s"] = examined / scan_time
    return out


def per_layer(tracer, traced, untraced, process: dict) -> dict:
    from tracing import BUSY_METRICS, COUNT_METRICS, MODULES

    n = len(traced)
    busy, calls, unattributed = tracer.self_times()
    busy.update({name: seconds * n for name, seconds in process.items()})
    calls.update({name: n for name in process})
    ops_time = sum(r[0] for _, records in traced for r in records)
    # medians, so that a pass slowed by the shared host does not pass for overhead
    traced_s = percentile(sorted(p[0] for p in traced), 50)
    untraced_s = percentile(sorted(p[0] for p in untraced), 50)
    metrics = {}
    for name in BUSY_METRICS:
        metrics[f"{name}.busy_s"] = busy.get(name, 0.0) / n
        metrics[f"{name}.calls"] = calls.get(name, 0) / n
    counts = tracer.counts
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0) / n
    metrics["oracle.found_per_examined"] = (
        counts["oracle.found"] / counts["oracle.examined"] if counts["oracle.examined"] else 0.0
    )
    metrics["oracle.examined_per_required"] = (
        counts["oracle.pruned_examined"] / counts["oracle.pruned_required"]
        if counts["oracle.pruned_required"]
        else 0.0
    )
    for module in MODULES:
        metrics[f"{module}.errors"] = tracer.errors.get(module, 0) / n
    metrics["trace.traced_pass_s"] = traced_s
    metrics["trace.untraced_pass_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.unattributed_s"] = unattributed / n
    metrics["trace.check_s"] = sum(p[0] for p in traced) / n - ops_time / n
    metrics["trace.spans"] = len(tracer.spans) / n
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_s = _import_gridmagic()
    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    try:
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}), flush=True)
            return 0
        result = {"setup_s": setup_s}
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        else:
            tracer = None
        runner = Runner(workload, tracer)
        runner.run_pass()  # warm-up, discarded
        if tracer is not None:
            traced, untraced = [], []
            elapsed = 0.0
            while True:
                untraced.append(runner.run_pass())
                traced.append(runner.run_pass(traced=True))
                pair = untraced[-1][0] + traced[-1][0]
                elapsed += pair
                if elapsed + pair > args.seconds:
                    break
            process = {
                "process.start": FIRST_INSTANT - args.spawned_at,
                "process.import": import_s,
            }
            result["metrics"] = per_layer(tracer, traced, untraced, process)
            trace_dir = ROOT / ".bench_out"
            trace_dir.mkdir(exist_ok=True)
            trace_file = trace_dir / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(tracer.spans))
            result["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            passes, setups = [], []
            elapsed = 0.0
            while True:
                passes.append(runner.run_pass())
                elapsed += passes[-1][0]
                if elapsed + passes[-1][0] > args.seconds:
                    break
                if len(setups) < SETUP_PROBES * elapsed / args.seconds:
                    setups.append(probe_setup(args))
            while len(setups) < SETUP_PROBES:
                setups.append(probe_setup(args))
            result["metrics"] = end_to_end(passes, workload)
            result["metrics"]["setup_s"] = min(setups)
            result["setup_samples"] = setups
        result.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=runner.attempted,
            failed=runner.failed,
            problems=runner.problems,
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()


if __name__ == "__main__":
    sys.exit(main())

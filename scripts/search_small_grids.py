#!/usr/bin/env python3
"""Brute-force magic-sum histograms for tiny grids.

For each grid/mode pair below, enumerate the entire labeling space, print
the histogram of attained magic sums, and report whether the constructed
labeling shows up in the feasible set and at the predicted sum.
"""

from __future__ import annotations

import argparse
import sys
import time

from gridmagic import (
    GridSpec,
    SearchBudget,
    closed_form_sums,
    confirm_construction,
    exhaustive_search,
)

CASES = [
    ((2, 2), "vertex"),
    ((2, 2), "edge"),
    ((2, 2), "supermagic"),
    ((3, 2), "vertex"),
    ((3, 2), "edge"),
    ((2, 2, 2), "vertex"),
    ((3, 3), "vertex"),
    ((3, 2), "supermagic"),
]


def predicted_for(spec: GridSpec, mode: str) -> int:
    sums = closed_form_sums(spec)
    return {"vertex": sums.c_vertex, "edge": sums.c_edge, "supermagic": sums.c_total}[mode]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=10**8)
    args = parser.parse_args(argv)

    for dims, mode in CASES:
        spec = GridSpec(dims)
        budget = SearchBudget(mode, max_assignments=args.budget)
        start = time.perf_counter()
        result = exhaustive_search(spec, budget)
        confirmed = confirm_construction(spec, budget)
        elapsed = time.perf_counter() - start
        predicted = predicted_for(spec, mode)
        histogram = " ".join(
            f"{s}:{result.sum_histogram[s]}" for s in sorted(result.sum_histogram)
        )
        print(
            f"dims={dims} mode={mode} examined={result.examined} "
            f"magic={result.found_count} [{histogram}]"
        )
        print(
            f"  predicted sum {predicted} attained={predicted in result.sum_histogram} "
            f"construction_found={confirmed} ({elapsed:.2f}s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

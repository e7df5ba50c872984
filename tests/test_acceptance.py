"""Acceptance criteria, one test per criterion, with timing budgets.

Each criterion prints one PASS/FAIL line; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_canonical_specs, triangular
from gridmagic import (
    CubeId,
    EdgeId,
    GridSpec,
    SearchBudget,
    build_labelings,
    cli,
    closed_form_sums,
    combine_supermagic,
    confirm_construction,
    cube_edges,
    cube_vertices,
    exhaustive_search,
    verify_edge_magic,
    verify_supermagic,
    verify_vertex_magic,
)
from gridmagic.oracle import construction_sequence

FIXTURES = Path(__file__).parent / "fixtures"


def emit(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


@pytest.fixture(scope="module")
def suite_outcomes():
    """One sweep over the fixed randomized suite, shared by criteria 3 and 7."""
    specs = random_canonical_specs()
    outcomes = []
    start = time.perf_counter()
    for spec in specs:
        predicted = closed_form_sums(spec)
        f, g = build_labelings(spec)
        total = combine_supermagic(f, g)
        rv = verify_vertex_magic(spec, f)
        re_ = verify_edge_magic(spec, g)
        rt = verify_supermagic(spec, total)
        verified = (
            rv.magic and rv.bijective and rv.magic_sum == predicted.c_vertex
            and re_.magic and re_.bijective and re_.magic_sum == predicted.c_edge
            and rt.magic and rt.bijective and rt.magic_sum == predicted.c_total
        )
        partitioned = True
        if spec.dim >= 3:  # the connecting/in-layer split exists only then
            nd = spec.dims[-1]
            layer = GridSpec(spec.dims[:-1])
            in_layer = np.sort(np.concatenate([a.ravel() for a in g.per_axis[:-1]]))
            connecting = np.sort(g.per_axis[-1].ravel())
            lo = nd * layer.edge_count
            partitioned = np.array_equal(
                in_layer, np.arange(1, lo + 1)
            ) and np.array_equal(
                connecting, np.arange(lo + 1, lo + (nd - 1) * layer.vertex_count + 1)
            )
        outcomes.append((spec.dims, verified, partitioned))
    elapsed = time.perf_counter() - start
    return outcomes, elapsed


def test_criterion_1_grid53_figure_reproduction():
    start = time.perf_counter()
    spec = GridSpec((5, 3))
    f, g = build_labelings(spec)
    total = combine_supermagic(f, g)
    labels_ok = (
        f.label((1, 1)) == 1
        and f.label((2, 1)) == 12
        and f.label((2, 2)) == 5
        and total.edge.label(EdgeId((1, 1), 2)) == 16
        and total.edge.label(EdgeId((1, 1), 1)) == 35
    )
    rv = verify_vertex_magic(spec, f)
    re_ = verify_edge_magic(spec, g)
    rt = verify_supermagic(spec, total)
    sums_ok = (rv.magic_sum, re_.magic_sum, rt.magic_sum) == (32, 46, 138)
    elapsed = time.perf_counter() - start
    ok = labels_ok and sums_ok and elapsed < 1.0
    emit(1, ok, f"grid 5x3 labels+sums, {elapsed:.3f}s")
    assert labels_ok
    assert sums_ok
    assert elapsed < 1.0


def test_criterion_2_grid533_cube_values():
    start = time.perf_counter()
    spec = GridSpec((5, 3, 3))
    f, g = build_labelings(spec)
    cube = CubeId((2, 1, 1))
    vertex_values = {f.label(v) for v in cube_vertices(cube)}
    edge_values = {g.label(e) for e in cube_edges(cube)}
    vertices_ok = vertex_values == {42, 27, 7, 22, 5, 20, 38, 23}
    edges_ok = edge_values == {78, 88, 74, 86, 15, 55, 14, 50, 37, 33, 36, 28}
    rv = verify_vertex_magic(spec, f)
    re_ = verify_edge_magic(spec, g)
    sums_ok = (rv.magic_sum, re_.magic_sum) == (184, 594)
    elapsed = time.perf_counter() - start
    ok = vertices_ok and edges_ok and sums_ok and elapsed < 1.0
    emit(2, ok, f"grid 5x3x3 cube at (2,1,1), {elapsed:.3f}s")
    assert vertices_ok
    assert edges_ok
    assert sums_ok
    assert elapsed < 1.0


def test_criterion_3_randomized_suite_matches_closed_forms(suite_outcomes):
    outcomes, elapsed = suite_outcomes
    failures = [dims for dims, verified, _ in outcomes if not verified]
    ok = len(outcomes) >= 200 and not failures and elapsed < 60.0
    emit(3, ok, f"{len(outcomes)} specs, {len(failures)} failures, {elapsed:.1f}s")
    assert len(outcomes) >= 200
    assert not failures
    assert elapsed < 60.0


def test_criterion_4_degenerate_cube_sums_are_triangular():
    results = {}
    for d in range(2, 6):
        spec = GridSpec((2,) * d)
        f, g = build_labelings(spec)
        total = combine_supermagic(f, g)
        results[d] = (
            verify_vertex_magic(spec, f).magic_sum == triangular(spec.vertex_count),
            verify_edge_magic(spec, g).magic_sum == triangular(spec.edge_count),
            verify_supermagic(spec, total).magic_sum
            == triangular(spec.vertex_count + spec.edge_count),
        )
    ok = all(all(flags) for flags in results.values())
    emit(4, ok, "all-2 grids d=2..5 vs triangular numbers")
    assert ok, results


def test_criterion_5_oracle_confirms_constructions():
    start = time.perf_counter()
    spec22 = GridSpec((2, 2))
    result22 = exhaustive_search(spec22, SearchBudget("supermagic"))
    constructed22 = construction_sequence(spec22, "supermagic")
    found22 = (
        result22.examined == 576
        and (constructed22, 36) in result22.found
        and confirm_construction(spec22, SearchBudget("supermagic"))
    )
    spec32 = GridSpec((3, 2))
    result32 = exhaustive_search(spec32, SearchBudget("vertex"))
    found32 = (
        result32.examined == 720
        and result32.sum_histogram.get(14, 0) > 0
        and (construction_sequence(spec32, "vertex"), 14) in result32.found
        and confirm_construction(spec32, SearchBudget("vertex"))
    )
    elapsed = time.perf_counter() - start
    ok = found22 and found32 and elapsed < 10.0
    emit(5, ok, f"576-candidate and 720-candidate scans, {elapsed:.2f}s")
    assert found22
    assert found32
    assert elapsed < 10.0


def test_criterion_6_corrupted_fixtures_rejected(capsys):
    fixtures = sorted(FIXTURES.glob("*.json"))
    outcomes = {}
    for path in fixtures:
        code = cli(["verify", str(path)])
        out = capsys.readouterr().out
        machine = out.strip().splitlines()[-1]
        distinct = int(machine.split("=")[1]) if machine.startswith("NOT_MAGIC") else 1
        outcomes[path.name] = (code, distinct)
    ok = len(fixtures) >= 2 and all(
        code == 1 and distinct >= 2 for code, distinct in outcomes.values()
    )
    with capsys.disabled():
        emit(6, ok, f"{len(fixtures)} fixtures rejected with exit 1")
    assert ok, outcomes


def test_criterion_7_edge_label_partition_on_suite(suite_outcomes):
    outcomes, _ = suite_outcomes
    stacked = [(dims, part) for dims, _, part in outcomes if len(dims) >= 3]
    failures = [dims for dims, part in stacked if not part]
    ok = bool(stacked) and not failures
    emit(7, ok, f"{len(stacked)} stacked specs, {len(failures)} partition failures")
    assert stacked
    assert not failures

"""Brute-force oracle: full scans, pruning, budgets, verifier agreement."""

from __future__ import annotations

import functools
import gc
import itertools
import math

import numpy as np
import pytest

from conftest import load_script
from gridmagic import (
    BudgetExceeded,
    EdgeId,
    GridMagicError,
    GridSpec,
    LabelingDocument,
    SearchBudget,
    cli,
    confirm_construction,
    edge_endpoints,
    edge_labeling_from_flat,
    edge_rank,
    enumerate_edges,
    enumerate_vertices,
    exhaustive_search,
    extend_vertex_labeling,
    load,
    required_assignments,
    save,
    verify_document,
    verify_edge_magic,
    verify_vertex_magic,
    vertex_labeling_from_flat,
    vertex_rank,
)
from gridmagic import oracle
from gridmagic.oracle import construction_sequence

SEARCH_SMALL_GRIDS = load_script("search_small_grids")


@functools.cache
def full_scan(dims, mode):
    return exhaustive_search(GridSpec(dims), SearchBudget(mode))


def test_required_assignments():
    spec = GridSpec((2, 2))
    assert required_assignments(spec, "vertex") == math.factorial(4)
    assert required_assignments(spec, "edge") == math.factorial(4)
    assert required_assignments(spec, "supermagic") == math.factorial(4) ** 2


@pytest.mark.parametrize("allowed", ["10", 2.5, 10.0, None, 0, -3, np.int64(0)])
def test_budget_refuses_a_non_integer_or_nonpositive_max_assignments(allowed):
    with pytest.raises(GridMagicError, match="max_assignments must be"):
        SearchBudget("vertex", allowed)


def test_budget_takes_a_numpy_integer_max_assignments():
    budget = SearchBudget("vertex", np.int64(24))
    assert budget == SearchBudget("vertex", 24)
    assert type(budget.max_assignments) is int
    assert exhaustive_search(GridSpec((2, 2)), budget).examined == 24


def test_budget_refusal_reports_required():
    with pytest.raises(BudgetExceeded) as info:
        exhaustive_search(GridSpec((3, 3)), SearchBudget("supermagic"))
    assert info.value.required == math.factorial(9) * math.factorial(12)
    assert str(info.value) == (
        "search needs 9! * 12! candidate assignments, budget allows 100000000"
    )
    with pytest.raises(BudgetExceeded):
        exhaustive_search(GridSpec((2, 2)), SearchBudget("vertex", max_assignments=5))


@pytest.mark.parametrize("mode, space", [("vertex", 24), ("edge", 24), ("supermagic", 576)])
def test_budget_of_exactly_the_space_is_enough(mode, space):
    spec = GridSpec((2, 2))
    assert exhaustive_search(spec, SearchBudget(mode, max_assignments=space)).examined == space
    with pytest.raises(BudgetExceeded) as info:
        exhaustive_search(spec, SearchBudget(mode, max_assignments=space - 1))
    assert info.value.required == space


def test_single_cube_vertex_mode_every_bijection_is_magic():
    spec = GridSpec((2, 2))
    result = exhaustive_search(spec, SearchBudget("vertex"))
    assert result.examined == 24
    assert result.found_count == math.factorial(spec.vertex_count)
    assert result.sum_histogram == {10: 24}
    # single cube: found is the full lexicographic permutation list
    perms = list(itertools.permutations(range(1, 5)))
    assert [labels for labels, _ in result.found] == perms


def test_single_cube_edge_mode_every_bijection_is_magic():
    spec = GridSpec((2, 2))
    result = exhaustive_search(spec, SearchBudget("edge"))
    assert result.found_count == math.factorial(spec.edge_count)
    assert result.sum_histogram == {10: 24}


def test_supermagic_scan_grid22():
    spec = GridSpec((2, 2))
    result = exhaustive_search(spec, SearchBudget("supermagic"))
    assert result.examined == 576
    assert result.sum_histogram == {36: 576}
    constructed = construction_sequence(spec, "supermagic")
    assert (constructed, 36) in result.found


def test_vertex_scan_grid32_contains_construction():
    spec = GridSpec((3, 2))
    result = exhaustive_search(spec, SearchBudget("vertex"))
    assert result.examined == 720
    assert 14 in result.sum_histogram
    assert confirm_construction(spec, SearchBudget("vertex"))


def test_vertex_scan_grid222_single_cube():
    spec = GridSpec((2, 2, 2))
    result = exhaustive_search(spec, SearchBudget("vertex"))
    assert result.examined == math.factorial(8)
    assert result.sum_histogram == {36: math.factorial(8)}
    assert confirm_construction(spec, SearchBudget("vertex"))


@pytest.mark.parametrize("mode", ["vertex", "edge", "supermagic"])
def test_confirm_construction_grid22(mode):
    assert confirm_construction(GridSpec((2, 2)), SearchBudget(mode))


def test_pruned_scan_agrees_with_full_scan():
    # per-target scans over every attained sum rebuild the full histogram
    for dims in [(3, 2), (3, 3)]:
        spec = GridSpec(dims)
        for target, count in full_scan(dims, "vertex").sum_histogram.items():
            pruned = exhaustive_search(spec, SearchBudget("vertex"), target_sum=target)
            assert pruned.sum_histogram == {target: count}
            assert pruned.examined == count  # only completed (hence magic) assignments
    # a sum no labeling attains
    empty = exhaustive_search(GridSpec((3, 2)), SearchBudget("vertex"), target_sum=1)
    assert empty.found_count == 0 and empty.sum_histogram == {}


def test_pruned_scan_keeps_found_order_past_one_block():
    # 40320 completed assignments reach the tally in several blocks
    spec = GridSpec((2, 2, 2))
    pruned = exhaustive_search(spec, SearchBudget("vertex"), target_sum=36)
    full = full_scan((2, 2, 2), "vertex")
    assert pruned.sum_histogram == full.sum_histogram == {36: 40320}
    first = itertools.islice(itertools.permutations(range(1, 9)), oracle.FOUND_CAP)
    assert pruned.found == full.found == tuple((labels, 36) for labels in first)


def test_pruned_edge_scan_agrees_with_full_scan():
    # the constructed labelings' sums; the (4,2) full scan takes ~0.5 s
    for dims, target, count in [((3, 2), 16, 72), ((4, 2), 22, 2304)]:
        full = full_scan(dims, "edge")
        pruned = exhaustive_search(GridSpec(dims), SearchBudget("edge"), target_sum=target)
        assert pruned.sum_histogram == {target: full.sum_histogram[target]}
        assert pruned.examined == full.sum_histogram[target] == count


def test_pruned_supermagic_scan_grid22():
    spec = GridSpec((2, 2))
    pruned = exhaustive_search(spec, SearchBudget("supermagic"), target_sum=36)
    assert pruned.sum_histogram == {36: 576}


@pytest.mark.parametrize(
    "target_sum", [14.0, 14.5, True, False, "14", np.float64(14.0), np.True_]
)
def test_malformed_target_sum_is_refused(target_sum):
    with pytest.raises(GridMagicError, match="target_sum must be an int"):
        exhaustive_search(GridSpec((3, 2)), SearchBudget("vertex"), target_sum=target_sum)


@pytest.mark.parametrize("target_sum", [np.int64(16), np.uint8(16)])
def test_numpy_integer_target_sum_is_taken_as_an_int(target_sum):
    spec, budget = GridSpec((3, 2)), SearchBudget("vertex")
    result = exhaustive_search(spec, budget, target_sum)
    assert result == exhaustive_search(spec, budget, 16)
    assert result.found_count == 16
    assert all(type(s) is int for s in [*result.sum_histogram, *(s for _, s in result.found)])


@pytest.mark.parametrize("target_sum", [2**63, 10**30, -(2**63) - 1])
def test_target_beyond_int64_is_empty_without_search(monkeypatch, target_sum):
    def no_search(*args):
        raise AssertionError("searched for a target outside int64")

    monkeypatch.setattr("gridmagic.oracle._cube_vertex_ranks", no_search)
    result = exhaustive_search(GridSpec((3, 2)), SearchBudget("vertex"), target_sum=target_sum)
    assert (result.examined, result.found, result.sum_histogram) == (0, (), {})


@pytest.mark.parametrize("target_sum", [2**63 - 1, 0, -5])
def test_unreachable_int64_target_is_empty(target_sum):
    result = exhaustive_search(GridSpec((3, 2)), SearchBudget("vertex"), target_sum=target_sum)
    assert (result.examined, result.found, result.sum_histogram) == (0, (), {})


def test_pruned_counts_agree_at_dual_sums():
    # (4,3) vertex: centre 4 * 13 = 52, so 24 and 28 are duals
    spec = GridSpec((4, 3))
    budget = SearchBudget("vertex", max_assignments=math.factorial(12))
    assert dual_centre(spec, "vertex") == 24 + 28
    counts = [exhaustive_search(spec, budget, target_sum=c).examined for c in (24, 28)]
    assert counts == [240, 240]


def test_histogram_reproducible_and_deterministic():
    spec = GridSpec((3, 2))
    budget = SearchBudget("vertex")
    first = exhaustive_search(spec, budget)
    second = exhaustive_search(spec, budget)
    assert first.sum_histogram == second.sum_histogram
    assert first.found == second.found
    assert first.examined == second.examined


def test_oracle_and_verifier_agree_on_every_candidate():
    # the scan's own constant-sum check versus the array verifier, over the
    # entire Grid(3,2) vertex space: 112 accepted, 608 rejected
    spec = GridSpec((3, 2))
    full = exhaustive_search(spec, SearchBudget("vertex"))
    magic_labelings = {labels for labels, _ in full.found}
    accepted = rejected = 0
    for perm in itertools.permutations(range(1, spec.vertex_count + 1)):
        report = verify_vertex_magic(spec, vertex_labeling_from_flat(spec, perm))
        if report.magic:
            accepted += 1
            assert perm in magic_labelings
        else:
            rejected += 1
            assert perm not in magic_labelings
    assert accepted == full.found_count
    assert rejected == 720 - full.found_count


def test_confirm_construction_refuses_before_building(monkeypatch):
    def no_build(spec, mode):
        raise AssertionError("built the labeling of a search the budget refuses")

    monkeypatch.setattr("gridmagic.oracle.construction_sequence", no_build)
    with pytest.raises(BudgetExceeded):
        confirm_construction(GridSpec((3, 3)), SearchBudget("supermagic"))
    with pytest.raises(BudgetExceeded):
        confirm_construction(GridSpec((2, 2)), SearchBudget("vertex", max_assignments=23))


@pytest.mark.parametrize(
    "max_label, per_cube, exact",
    [(2**53 - 1, 1, True), (2**53, 1, False), (2**51, 3, True), (2**51, 4, False)],
)
def test_float64_exactness_bound(max_label, per_cube, exact):
    if exact:
        oracle._check_float_exact(max_label, per_cube)
    else:
        with pytest.raises(GridMagicError, match="not exact in float64"):
            oracle._check_float_exact(max_label, per_cube)


def test_full_scan_checks_the_exactness_bound(monkeypatch):
    # (3,2) supermagic: labels up to 6 + 7 = 13, and 4 vertices plus 4 edges
    # per square; a target scan sums in float64 too
    def refuse(max_label, per_cube):
        raise GridMagicError(f"refused {max_label} x {per_cube}")

    monkeypatch.setattr(oracle, "_check_float_exact", refuse)
    with pytest.raises(GridMagicError, match=r"^refused 13 x 8$"):
        exhaustive_search(GridSpec((3, 2)), SearchBudget("supermagic"))
    with pytest.raises(GridMagicError, match=r"^refused 13 x 8$"):
        exhaustive_search(GridSpec((3, 2)), SearchBudget("supermagic"), target_sum=54)


def test_budget_validation():
    with pytest.raises(Exception):
        SearchBudget("nonsense")
    with pytest.raises(Exception):
        SearchBudget("vertex", max_assignments=0)


def dual_centre(spec: GridSpec, mode: str) -> int:
    """c + c' for a magic sum c and the sum c' of its complement labeling."""
    nv, ne = spec.vertex_count, spec.edge_count
    kv, ke = 2**spec.dim, spec.cube_edge_count
    return {
        "vertex": kv * (nv + 1),
        "edge": ke * (ne + 1),
        # vertices map l -> nv+1-l, edges (labelled nv+1..nv+ne) l -> 2nv+ne+1-l
        "supermagic": kv * (nv + 1) + ke * (2 * nv + ne + 1),
    }[mode]


@pytest.mark.parametrize("dims, mode", SEARCH_SMALL_GRIDS.CASES)
def test_histogram_is_symmetric_under_complement_duality(dims, mode):
    # l -> N+1-l maps a magic labeling with sum c onto one with sum centre - c
    histogram = full_scan(dims, mode).sum_histogram
    centre = dual_centre(GridSpec(dims), mode)
    assert {centre - c: n for c, n in histogram.items()} == histogram


@pytest.mark.parametrize(
    "dims, mode", [((3, 2), "vertex"), ((3, 2), "edge"), ((3, 3), "vertex"), ((2, 2), "supermagic")]
)
def test_found_set_is_closed_under_complement_duality(dims, mode):
    # found holds every magic labeling here; each label l of a pool maps to
    # (pool first + pool last) - l, which takes sum c to centre - c
    spec = GridSpec(dims)
    result = full_scan(dims, mode)
    assert len(result.found) == result.found_count <= oracle.FOUND_CAP
    nv, ne = spec.vertex_count, spec.edge_count
    flips = {
        "vertex": [nv + 1] * nv,
        "edge": [ne + 1] * ne,
        "supermagic": [nv + 1] * nv + [2 * nv + ne + 1] * ne,
    }[mode]
    centre = dual_centre(spec, mode)
    found = set(result.found)
    duals = {
        (tuple(flip - label for flip, label in zip(flips, labels)), centre - c)
        for labels, c in found
    }
    assert duals == found


def grid_automorphisms(dims: tuple[int, ...]):
    """Each automorphism of the grid as a map of vertex coordinates.

    Axes of equal sides are permuted, and any set of axes is reflected.
    """
    for order in itertools.permutations(range(len(dims))):
        if any(dims[i] != dims[j] for i, j in enumerate(order)):
            continue
        for flips in itertools.product((False, True), repeat=len(dims)):

            def image(v, order=order, flips=flips):
                return tuple(n + 1 - v[j] if flip else v[j] for n, j, flip in zip(dims, order, flips))

            yield image


def relabelled_positions(spec: GridSpec, mode: str, image) -> list[int]:
    """Per position of a `found` labeling, the position whose label it takes under `image`.

    Vertices come in rank order; an edge maps through its reflected
    endpoints to the edge between them, and supermagic labelings hold the
    vertex labels first.
    """
    vertices = [vertex_rank(spec, image(v)) for v in enumerate_vertices(spec)]
    edges = []
    for edge in enumerate_edges(spec):
        ends = sorted(map(image, edge_endpoints(edge)))
        axis = 1 + next(a for a, (x, y) in enumerate(zip(*ends)) if x != y)
        edges.append(edge_rank(spec, EdgeId(ends[0], axis)))
    nv = spec.vertex_count
    return {"vertex": vertices, "edge": edges, "supermagic": vertices + [nv + r for r in edges]}[mode]


@pytest.mark.parametrize(
    "dims, mode",
    [((3, 2), "vertex"), ((3, 3), "vertex"), ((3, 2), "edge")]
    + [((2, 2), mode) for mode in ("vertex", "edge", "supermagic")],
)
def test_found_set_is_closed_under_grid_automorphisms(dims, mode):
    # found holds every magic labeling here; an automorphism maps cubes onto
    # cubes, so it keeps a labeling magic at the same sum
    spec = GridSpec(dims)
    result = full_scan(dims, mode)
    assert len(result.found) == result.found_count <= oracle.FOUND_CAP
    found = set(result.found)
    maps = [relabelled_positions(spec, mode, image) for image in grid_automorphisms(dims)]
    assert len(maps) == 2 ** len(dims) * (2 if len(set(dims)) < len(dims) else 1)
    for positions in maps:
        assert {(tuple(labels[p] for p in positions), c) for labels, c in found} == found


@pytest.mark.parametrize("dims", [(3, 2), (3, 3)])
def test_lifting_keeps_every_magic_base_magic(dims):
    # layer t holds base + |V|*t or base + |V|*(nd-1-t) by coordinate parity,
    # and a base cube has as many even vertices as odd ones, so a cube across
    # two layers sums to 2c + 4*|V|*(nd-1) for every magic base, not only the
    # constructed one
    spec = GridSpec(dims)
    found = full_scan(dims, "vertex").found
    assert len(found) == {(3, 2): 112, (3, 3): 376}[dims]
    for nd in range(2, dims[-1] + 1):
        for labels, c in found:
            lifted = extend_vertex_labeling(vertex_labeling_from_flat(spec, labels), nd)
            report = verify_vertex_magic(lifted.spec, lifted)
            assert report.bijective and report.magic
            assert report.magic_sum == 2 * c + 4 * spec.vertex_count * (nd - 1)


@pytest.mark.parametrize(
    "dims, mode, target_sum",
    [((3, 2), "vertex", None), ((3, 2), "edge", None), ((4, 3), "vertex", 28)],
)
def test_found_labelings_are_int_tuples_in_order_that_verify(dims, mode, target_sum):
    # one-digit labels (full scans) and two-digit labels (a target scan)
    spec = GridSpec(dims)
    result = exhaustive_search(spec, SearchBudget(mode, 10**9), target_sum)
    assert len(result.found) == result.found_count > 1
    labelings = [labels for labels, _ in result.found]
    assert labelings == sorted(set(labelings))
    check, from_flat = {
        "vertex": (verify_vertex_magic, vertex_labeling_from_flat),
        "edge": (verify_edge_magic, edge_labeling_from_flat),
    }[mode]
    for labels, magic_sum in result.found:
        assert type(labels) is tuple and {type(label) for label in labels} == {int}
        assert type(magic_sum) is int
        report = check(spec, from_flat(spec, labels))
        assert report.magic and report.bijective and report.magic_sum == magic_sum


def test_supermagic_scan_grid32():
    spec = GridSpec((3, 2))
    result = full_scan((3, 2), "supermagic")
    assert result.examined == math.factorial(6) * math.factorial(7) == 3_628_800
    assert result.sum_histogram == {
        51: 8640, 52: 24768, 53: 42624, 54: 51264, 55: 42624, 56: 24768, 57: 8640
    }
    assert result.found_count == 203_328
    assert dual_centre(spec, "supermagic") == 2 * 54
    assert confirm_construction(spec, SearchBudget("supermagic"))


def test_found_witness_round_trips_through_a_document(tmp_path, capsys):
    # a found supermagic labeling, vertex labels then edge labels in rank
    # order, is a document that the verifier and the CLI accept at its sum
    spec = GridSpec((3, 2))
    labels, magic_sum = full_scan((3, 2), "supermagic").found[0]
    nv = spec.vertex_count
    doc = LabelingDocument((3, 2), "total", labels[:nv], labels[nv:])
    path = tmp_path / "witness.json"
    path.write_bytes(save(doc))
    loaded = load(path.read_bytes())
    assert loaded == doc
    report = verify_document(loaded)
    assert report.magic and report.bijective and report.magic_sum == magic_sum
    assert cli(["verify", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"MAGIC sum={magic_sum}"


@pytest.mark.parametrize(
    "dims, mode, targets",
    [
        # the one mode whose cubes keep open slots in two pools
        ((3, 2), "supermagic", range(50, 59)),
        ((3, 2), "edge", range(14, 19)),
        ((3, 3), "vertex", range(15, 26)),
    ],
)
def test_target_scans_count_every_sum_of_the_full_scan(dims, mode, targets):
    # the bounds prune from both sides, by the smallest and the largest
    # labels a cube's open slots can take; one sum past either end of the
    # histogram must come out empty
    histogram = full_scan(dims, mode).sum_histogram
    assert (targets[0] + 1, targets[-1] - 1) == (min(histogram), max(histogram))
    for target in targets:
        result = exhaustive_search(GridSpec(dims), SearchBudget(mode), target_sum=target)
        assert result.found_count == result.examined == histogram.get(target, 0)


def test_supermagic_target_needs_both_parts(monkeypatch):
    # the constructed edge labels after a vertex part that is not magic:
    # cube vertex sums 10 and 18, edge sums equal, so the totals differ
    spec = GridSpec((3, 2))
    constructed = construction_sequence(spec, "supermagic")
    target = (1, 2, 3, 4, 5, 6) + constructed[spec.vertex_count :]
    monkeypatch.setattr("gridmagic.oracle.construction_sequence", lambda spec, mode: target)
    assert not confirm_construction(spec, SearchBudget("supermagic"))


def test_search_small_grids_script_confirms_every_case(capsys):
    assert SEARCH_SMALL_GRIDS.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * len(SEARCH_SMALL_GRIDS.CASES)
    for (dims, mode), head, verdict in zip(SEARCH_SMALL_GRIDS.CASES, lines[::2], lines[1::2]):
        assert head.startswith(f"dims={dims} mode={mode} ")
        assert "attained=True construction_found=True" in verdict


def _forget_last_cube(incidence):
    # the scan checks the first cube twice and never the last
    return lambda n, cubes: incidence(n, cubes[:-1] + cubes[:1])


def _forget_one_label(incidence):
    # the scan leaves one label out of the last cube's sum
    def forgetful(n, cubes):
        matrix = incidence(n, cubes)
        matrix[-1, np.flatnonzero(matrix[-1])[0]] = 0
        return matrix

    return forgetful


@pytest.mark.parametrize(
    "mutation, dims, mode, target_sum",
    [
        (_forget_last_cube, (3, 2), "vertex", None),
        (_forget_last_cube, (3, 2), "edge", None),
        (_forget_last_cube, (3, 2), "vertex", 14),
        (_forget_one_label, (3, 2), "vertex", None),
        (_forget_one_label, (3, 2), "edge", None),
        (_forget_one_label, (2, 2), "supermagic", None),
        (_forget_one_label, (3, 2), "edge", 16),
    ],
)
def test_verifier_catches_a_scan_that_forgets_part_of_a_cube(
    monkeypatch, mutation, dims, mode, target_sum
):
    monkeypatch.setattr(oracle, "_incidence", mutation(oracle._incidence))
    with pytest.raises(
        GridMagicError,
        match=rf"^oracle/verifier disagreement on a {mode} labeling: "
        rf"scan sum \d+, verifier MagicReport\(",
    ):
        exhaustive_search(GridSpec(dims), SearchBudget(mode), target_sum=target_sum)


@pytest.mark.parametrize(
    "mode, head, row, magic_sum",
    [
        # one cube, so min and max of the cube sums agree with the kept sum
        ("vertex", (), (1, 1, 2, 3), 7),
        ("edge", (), (4, 2, 2, 1), 9),
        ("supermagic", (1, 2, 3, 4), (5, 5, 6, 7), 33),
        # a joint bijection of 1..8 whose vertex part is not 1..4
        ("supermagic", (1, 2, 3, 5), (4, 6, 7, 8), 36),
    ],
)
def test_tally_refuses_a_row_that_is_not_a_bijection(mode, head, row, magic_sum):
    with pytest.raises(GridMagicError, match=f"^oracle/verifier disagreement on a {mode} "):
        oracle._checked(GridSpec((2, 2)), mode, np.array([head + row]), np.array([magic_sum]))


def test_tally_reports_the_first_failing_row():
    # row 0 is a magic bijection of Grid(2,2); row 1 repeats a label, and
    # row 2 repeats one too and sums to 11
    spec = GridSpec((2, 2))
    rows = np.array([(1, 2, 3, 4), (1, 2, 2, 5), (4, 3, 2, 2)])
    with pytest.raises(GridMagicError) as info:
        oracle._checked(spec, "vertex", rows, np.array([10, 10, 10]))
    report = verify_vertex_magic(spec, vertex_labeling_from_flat(spec, rows[1]))
    assert str(info.value) == (
        f"oracle/verifier disagreement on a vertex labeling: scan sum 10, verifier {report}"
    )


@pytest.mark.parametrize("magic_sum", [10, 18])
def test_tally_refuses_a_bijection_whose_cube_sums_differ(magic_sum):
    # labels 1..6 in rank order give Grid(3,2) the cube sums 10 and 18, so
    # keeping it at either one matches the minimum or the maximum, not both
    rows = np.array([(1, 2, 3, 4, 5, 6)])
    with pytest.raises(GridMagicError, match=f"vertex labeling: scan sum {magic_sum}, verifier"):
        oracle._checked(GridSpec((3, 2)), "vertex", rows, np.array([magic_sum]))


@pytest.mark.parametrize(
    "mode, target_sum",
    [("vertex", None), ("edge", None), ("supermagic", None)]
    + [("vertex", 10), ("edge", 10), ("supermagic", 36)],
)
def test_scans_leave_no_reference_cycles(mode, target_sum):
    # a scan's frontier is freed by reference counting alone, so scans run
    # back to back do not pile up garbage for the cycle collector
    gc.collect()
    gc.disable()
    try:
        exhaustive_search(GridSpec((2, 2)), SearchBudget(mode), target_sum=target_sum)
        assert gc.collect() == 0
    finally:
        gc.enable()

"""The oracle's one array scan against the Python loops it replaced.

The full-scan references walk `itertools.permutations` one candidate at
a time and sum each cube with Python's `sum`; the target-sum reference is
a depth-first walk that tries one label at a time. Their examined count,
histogram, capped found list (in order) and construction membership
define what the oracle reports, so the frontier scan, with and without a
target sum and across chunk and block boundaries, and
`confirm_construction` must reproduce them exactly.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import pytest

from conftest import load_script
from gridmagic import (
    GridSpec,
    SearchBudget,
    confirm_construction,
    exhaustive_search,
)
from gridmagic.oracle import (
    FOUND_CAP,
    _SUFFIX_LEN,
    SearchResult,
    _cube_edge_ranks,
    _cube_vertex_ranks,
    _frontier,
    _labelings,
    construction_sequence,
)

# (3,2) supermagic is left out: its 3.6M candidates take ~5 s in the
# reference loops. tests/test_oracle.py pins its histogram instead.
REFERENCE_CASES = [
    case for case in load_script("search_small_grids").CASES if case != ((3, 2), "supermagic")
]


class _ReferenceTally:
    def __init__(self):
        self.histogram: dict[int, int] = {}
        self.found: list[tuple[tuple[int, ...], int]] = []
        self.target_seen = False

    def record(self, labels: tuple[int, ...], magic_sum: int) -> None:
        self.histogram[magic_sum] = self.histogram.get(magic_sum, 0) + 1
        if len(self.found) < FOUND_CAP:
            self.found.append((labels, magic_sum))


def _constant_sum(perm, cubes):
    first = sum(perm[r] for r in cubes[0])
    for members in cubes[1:]:
        if sum(perm[r] for r in members) != first:
            return None
    return first


def _scan_single(pool, cubes, tally, member_target):
    examined = 0
    for perm in itertools.permutations(pool):
        examined += 1
        magic_sum = _constant_sum(perm, cubes)
        if magic_sum is not None:
            tally.record(perm, magic_sum)
            if member_target is not None and perm == member_target:
                tally.target_seen = True
    return examined


def _scan_supermagic(spec, tally, member_target):
    nv, ne = spec.vertex_count, spec.edge_count
    vertex_cubes = _cube_vertex_ranks(spec)
    edge_cubes = _cube_edge_ranks(spec)
    edge_sums = [
        (eperm, tuple(sum(eperm[r] for r in members) for members in edge_cubes))
        for eperm in itertools.permutations(range(nv + 1, nv + ne + 1))
    ]
    examined = 0
    for vperm in itertools.permutations(range(1, nv + 1)):
        vsums = tuple(sum(vperm[r] for r in members) for members in vertex_cubes)
        for eperm, esums in edge_sums:
            examined += 1
            total = vsums[0] + esums[0]
            if all(v + e == total for v, e in zip(vsums[1:], esums[1:])):
                tally.record(vperm + eperm, total)
                if member_target is not None and vperm + eperm == member_target:
                    tally.target_seen = True
    return examined


def reference_search(spec, mode, member_target=None) -> tuple[SearchResult, bool]:
    tally = _ReferenceTally()
    if mode == "supermagic":
        examined = _scan_supermagic(spec, tally, member_target)
    elif mode == "vertex":
        pool = range(1, spec.vertex_count + 1)
        examined = _scan_single(pool, _cube_vertex_ranks(spec), tally, member_target)
    else:
        pool = range(1, spec.edge_count + 1)
        examined = _scan_single(pool, _cube_edge_ranks(spec), tally, member_target)
    result = SearchResult(examined, tuple(tally.found), tally.histogram)
    return result, tally.target_seen


@functools.cache
def full_reference(dims, mode) -> tuple[SearchResult, bool]:
    spec = GridSpec(dims)
    return reference_search(spec, mode, construction_sequence(spec, mode))


@pytest.mark.parametrize("dims, mode", REFERENCE_CASES)
def test_block_scan_matches_reference(dims, mode):
    spec = GridSpec(dims)
    budget = SearchBudget(mode)
    expected, seen = full_reference(dims, mode)
    result = exhaustive_search(spec, budget)
    assert result.examined == expected.examined
    assert result.found == expected.found
    assert result.sum_histogram == expected.sum_histogram
    assert seen
    assert confirm_construction(spec, budget) == seen


@pytest.mark.parametrize("pairs", [1, 7])
@pytest.mark.parametrize("dims, mode", REFERENCE_CASES)
def test_block_scan_matches_reference_across_chunks(monkeypatch, pairs, dims, mode):
    # Blocks of 1 and 7 pair rows put block boundaries inside every case:
    # (2,2,2) vertex crosses FOUND_CAP inside a block, and in (2,2)
    # supermagic, whose inner part is one prefix, a block spans outer rows.
    spec = GridSpec(dims)
    inner = spec.vertex_count if mode == "vertex" else spec.edge_count
    per_pair = spec.cube_count * math.factorial(min(inner, _SUFFIX_LEN))
    monkeypatch.setattr("gridmagic.oracle._CHUNK_SUMS", pairs * per_pair)
    result = exhaustive_search(spec, SearchBudget(mode))
    assert result == full_reference(dims, mode)[0]


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("dims, mode", REFERENCE_CASES)
def test_block_scan_matches_reference_across_frontier_chunks(monkeypatch, rows, dims, mode):
    # frontier chunks of 1 and 7 rows, so the blocks of the sum product
    # end at chunk ends as well as inside chunks
    monkeypatch.setattr("gridmagic.oracle._BLOCK_ROWS", rows)
    result = exhaustive_search(GridSpec(dims), SearchBudget(mode))
    assert result == full_reference(dims, mode)[0]


def reference_pruned_search(spec, mode, target_sum) -> SearchResult:
    """Depth-first search over slots in rank order, one label at a time."""
    nv, ne = spec.vertex_count, spec.edge_count
    if mode == "vertex":
        slot_count, pools = nv, [(0, list(range(1, nv + 1)))] * nv
        member_lists = [_cube_vertex_ranks(spec)]
    elif mode == "edge":
        slot_count, pools = ne, [(0, list(range(1, ne + 1)))] * ne
        member_lists = [_cube_edge_ranks(spec)]
    else:
        slot_count = nv + ne
        pools = [(0, list(range(1, nv + 1)))] * nv + [
            (1, list(range(nv + 1, nv + ne + 1)))
        ] * ne
        member_lists = [_cube_vertex_ranks(spec), _cube_edge_ranks(spec)]

    # slot -> cubes containing it (cube indices shared across both classes)
    slot_cubes: list[list[int]] = [[] for _ in range(slot_count)]
    cube_size = [0] * spec.cube_count
    for group, cubes in enumerate(member_lists):
        base = 0 if group == 0 else nv
        for c, members in enumerate(cubes):
            cube_size[c] += len(members)
            for r in members:
                slot_cubes[base + r].append(c)

    used: list[set[int]] = [set(), set()]
    partial = [0] * spec.cube_count
    filled = [0] * spec.cube_count
    assignment = [0] * slot_count
    tally = _ReferenceTally()
    examined = 0

    def descend(slot: int) -> None:
        nonlocal examined
        if slot == slot_count:
            examined += 1
            tally.record(tuple(assignment), target_sum)
            return
        group, pool = pools[slot]
        taken = used[group]
        for value in pool:
            if value in taken:
                continue
            ok = True
            for c in slot_cubes[slot]:
                total = partial[c] + value
                remaining = cube_size[c] - filled[c] - 1
                if remaining == 0:
                    if total != target_sum:
                        ok = False
                        break
                elif total + remaining > target_sum:  # labels are >= 1 each
                    ok = False
                    break
            if not ok:
                continue
            taken.add(value)
            assignment[slot] = value
            for c in slot_cubes[slot]:
                partial[c] += value
                filled[c] += 1
            descend(slot + 1)
            for c in slot_cubes[slot]:
                partial[c] -= value
                filled[c] -= 1
            taken.discard(value)

    descend(0)
    return SearchResult(examined, tuple(tally.found), tally.histogram)


# Every attained sum of (2,2) in all three modes, of (3,2) vertex and edge
# and of (3,3) vertex; (2,2,2) vertex, whose 40320 finished rows cross
# FOUND_CAP and many blocks; and the unattained (3,2) vertex 11 and 17 and
# (2,2) supermagic 37.
PRUNED_CASES = (
    [((2, 2), "vertex", 10), ((2, 2), "edge", 10), ((2, 2), "supermagic", 36)]
    + [((3, 2), "vertex", c) for c in range(11, 18)]
    + [((3, 2), "edge", c) for c in (15, 16, 17)]
    + [((3, 3), "vertex", c) for c in range(16, 25)]
    + [((2, 2, 2), "vertex", 36), ((2, 2), "supermagic", 37)]
)


@functools.cache
def pruned_reference(dims, mode, target_sum):
    return reference_pruned_search(GridSpec(dims), mode, target_sum)


@pytest.mark.parametrize("dims, mode, target_sum", PRUNED_CASES)
def test_frontier_search_matches_reference(dims, mode, target_sum):
    result = exhaustive_search(GridSpec(dims), SearchBudget(mode), target_sum=target_sum)
    assert result == pruned_reference(dims, mode, target_sum)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize(
    "dims, mode, target_sum", [case for case in PRUNED_CASES if case[1] != "edge"]
)
def test_frontier_search_matches_reference_across_chunks(
    monkeypatch, chunk, dims, mode, target_sum
):
    # chunk boundaries then fall inside the frontier at every slot
    monkeypatch.setattr("gridmagic.oracle._BLOCK_ROWS", chunk)
    result = exhaustive_search(GridSpec(dims), SearchBudget(mode), target_sum=target_sum)
    assert result == pruned_reference(dims, mode, target_sum)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("dims, mode, target_sum", PRUNED_CASES)
def test_frontier_search_matches_reference_across_sum_blocks(
    monkeypatch, rows, dims, mode, target_sum
):
    # a finished row has one cube sum per cube, so these are blocks of 1
    # and 3 rows inside the frontier chunks; (2,2,2) vertex crosses
    # FOUND_CAP inside a block of 3
    spec = GridSpec(dims)
    monkeypatch.setattr("gridmagic.oracle._CHUNK_SUMS", rows * spec.cube_count)
    result = exhaustive_search(spec, SearchBudget(mode), target_sum=target_sum)
    assert result == pruned_reference(dims, mode, target_sum)


@pytest.mark.parametrize("n", range(9))
def test_permutation_blocks_follow_itertools_order(monkeypatch, n):
    # the unpruned frontier around the suffix length (6): n < 6, n == 6
    # and n > 6, with and without an outer pool, in chunks of 1, 7 and all
    # rows
    inner = np.arange(3, 3 + n)
    k = min(n, _SUFFIX_LEN)
    for outer in (inner[:0], np.arange(20, 22)):
        expected = [
            list(head + tail)
            for head in itertools.permutations(outer.tolist())
            for tail in itertools.permutations(inner.tolist())
        ]
        for size in (1, 7, len(expected)):
            monkeypatch.setattr("gridmagic.oracle._BLOCK_ROWS", size)
            rows = []
            for chunk in _frontier([outer, inner], k):
                assert chunk.dtype == np.float64 and chunk.shape[1] == len(outer) + n
                assert 1 <= len(chunk) <= size
                expanded = np.repeat(chunk, math.factorial(k), axis=0)
                perms = np.tile(np.arange(math.factorial(k)), len(chunk))
                rows += _labelings(expanded, k, perms).tolist()
            assert rows == expected


def test_found_cap_crossed_inside_a_block():
    # every labeling of the single 3-cube is magic, and the cap falls inside
    # a block
    result = exhaustive_search(GridSpec((2, 2, 2)), SearchBudget("vertex"))
    first = itertools.islice(itertools.permutations(range(1, 9)), FOUND_CAP)
    assert result.found == tuple((p, 36) for p in first)
    assert result.found_count == math.factorial(8)


@pytest.mark.parametrize(
    "dims, mode, target",
    [
        ((3, 2), "vertex", (1, 2, 3, 4, 5, 6)),  # cube sums 10 and 18
        ((3, 2), "edge", (1, 2, 3, 4, 5, 6, 7)),
        # Grid(2,2) has one cube, so these sums all agree and only the pool
        # rules them out: a duplicated label, wrong lengths, labels outside
        # 1..4, and a joint bijection of 1..8 whose vertex part is not 1..4
        ((2, 2), "vertex", (1, 1, 2, 3)),
        ((2, 2), "edge", (1, 2, 3)),
        ((2, 2), "vertex", (1, 2, 3, 4, 5)),
        ((2, 2), "vertex", (1, 2, 3, 5)),
        ((2, 2), "edge", (0, 1, 2, 3)),
        ((2, 2), "supermagic", (1, 2, 3, 5, 4, 6, 7, 8)),
        ((2, 2), "supermagic", (1, 2, 3, 4, 5, 6, 7, 7)),
    ],
)
def test_non_magic_member_target_is_not_confirmed(monkeypatch, dims, mode, target):
    spec = GridSpec(dims)
    _, seen = reference_search(spec, mode, target)
    assert not seen
    monkeypatch.setattr("gridmagic.oracle.construction_sequence", lambda spec, mode: target)
    assert confirm_construction(spec, SearchBudget(mode)) is False

"""The block scan against the per-candidate loops it replaced.

The reference functions below walk `itertools.permutations` one candidate
at a time and sum each cube with Python's `sum`. Their examined count,
histogram, capped found list (in order) and construction membership
define what the oracle reports, so the block scan must reproduce them
exactly.
"""

from __future__ import annotations

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
    labeling_digest,
)
from gridmagic.oracle import (
    FOUND_CAP,
    _SUFFIX_LEN,
    SearchResult,
    _cube_edge_ranks,
    _cube_vertex_ranks,
    _permutation_blocks,
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
        self.found: list[tuple[str, int]] = []
        self.target_seen = False

    def record(self, labels: tuple[int, ...], magic_sum: int) -> None:
        self.histogram[magic_sum] = self.histogram.get(magic_sum, 0) + 1
        if len(self.found) < FOUND_CAP:
            self.found.append((labeling_digest(labels), magic_sum))


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


@pytest.mark.parametrize("dims, mode", REFERENCE_CASES)
def test_block_scan_matches_reference(dims, mode):
    spec = GridSpec(dims)
    budget = SearchBudget(mode)
    expected, seen = reference_search(spec, mode, construction_sequence(spec, mode))
    result = exhaustive_search(spec, budget)
    assert result.examined == expected.examined
    assert result.found == expected.found
    assert result.sum_histogram == expected.sum_histogram
    assert seen
    assert confirm_construction(spec, budget) == seen


@pytest.mark.parametrize("n", range(9))
def test_permutation_blocks_follow_itertools_order(n):
    # around the block suffix length (6): n < 6, n == 6 and n > 6
    values = np.arange(3, 3 + n)
    blocks = list(_permutation_blocks(values))
    assert all(block.dtype == np.int64 and block.shape[1] == n for block in blocks)
    assert all(len(block) == math.factorial(min(n, _SUFFIX_LEN)) for block in blocks)
    rows = np.concatenate(blocks)
    assert rows.tolist() == [list(p) for p in itertools.permutations(values.tolist())]


def test_found_cap_crossed_inside_a_block():
    # every labeling of the single 3-cube is magic, and the cap falls inside
    # the second 720-row block
    result = exhaustive_search(GridSpec((2, 2, 2)), SearchBudget("vertex"))
    first = itertools.islice(itertools.permutations(range(1, 9)), FOUND_CAP)
    assert result.found == tuple((labeling_digest(p), 36) for p in first)
    assert result.found_count == math.factorial(8)


@pytest.mark.parametrize(
    "dims, mode, target",
    [
        ((3, 2), "vertex", (1, 2, 3, 4, 5, 6)),  # cube sums 10 and 18
        ((3, 2), "edge", (1, 2, 3, 4, 5, 6, 7)),
    ],
)
def test_non_magic_member_target_is_not_confirmed(monkeypatch, dims, mode, target):
    spec = GridSpec(dims)
    _, seen = reference_search(spec, mode, target)
    assert not seen
    monkeypatch.setattr("gridmagic.oracle.construction_sequence", lambda spec, mode: target)
    assert confirm_construction(spec, SearchBudget(mode)) is False

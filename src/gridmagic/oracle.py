"""Desk-scale ground truth by brute force.

The oracle enumerates every labeling of a tiny grid (all |V|! or |E|!
bijections, or all |V|!*|E|! pairs in supermagic mode) in one scan. Slots
are filled in rank order (in supermagic mode the vertex slots, then the
edge slots), and all partial assignments that reach a slot form one
frontier of rows. Each row is extended by every unused label of the
slot's pool, ascending, so the rows stay in lexicographic order; the
frontier is descended one chunk of at most _BLOCK_ROWS rows at a time,
which bounds memory.

Without a target sum the frontier is not pruned and stops k slots short
of the end, k being 6 or the size of the last pool if smaller. A row
there, followed by the k labels it left over, stands for the k!
labelings whose last k labels run through one table of all k! orders.
With a target sum each row carries its int64 partial cube sums, which a
slot updates only in the cubes that hold it, and runs to the last slot
(k = 0). A label is dropped when some cube holding the slot could no
longer reach the target: its open slots, filled with the smallest or
the largest labels of their pools, would overshoot or fall short.
Either way one float64 matrix product, with weights built from a 0/1
cube-incidence matrix of the grid model, gives the cube sums of all
labelings of a block of rows; the labelings whose cube sums all agree
are tallied into a histogram of magic sums from the sums alone.
Every cube sum is an integer below 2**53, which each scan checks up
front, so float64 holds it exactly in any summation order. Labelings are
built only for the first FOUND_CAP magic ones, which `found` keeps as
tuples of ints.

The verifier only re-checks what the scan found: at the end of a scan
`_checked` hands every labeling kept in `found` to one `verify_batch`
call, and each must be a bijection whose cube sums all equal the scan's
sum, or the search raises for the first that is not; the verifier never
decides what the scan counts. The oracle shares no arithmetic with the
closed-form predictions or the constructive labelings. The scan counts a
labeling exactly when it is a bijection onto the mode's pools whose
incidence cube sums agree, so `confirm_construction` applies that test to
the constructed labeling alone: independent evidence that the
construction lands inside the feasible set.

Search spaces explode fast, so `SearchBudget.max_assignments` refuses
anything beyond desk scale up front. The full scan is deliberately
unpruned so the ground truth inherits nothing from the thing it checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BudgetExceeded, GridMagicError
from .grid_core import GridSpec, cube_edges, cube_vertices, edge_rank, enumerate_cubes, vertex_rank
from .labeling_nd import constructed_parts
from .verifier import INT64_MAX, _report, _rows_slab, part_sizes, verify_batch

MODES = ("vertex", "edge", "supermagic")
# the verifier's name for each mode's labelings
_KIND = {"vertex": "vertex", "edge": "edge", "supermagic": "total"}
DEFAULT_MAX_ASSIGNMENTS = 10**8

# `found` keeps at most this many (labeling, sum) pairs; the histogram always
# counts everything.
FOUND_CAP = 1000

# The full scan runs the last _SUFFIX_LEN positions of each permutation
# through a table of all _SUFFIX_LEN! (720) orders at once. The frontier is
# descended in chunks of at most _BLOCK_ROWS rows, which bounds the memory
# of its stack, and the cube sums of a chunk are taken in blocks of about
# _CHUNK_SUMS (a full-scan row gives cubes * 720 of them), which keeps a
# block's float64 sums near 512 KB.
_CHUNK_SUMS = 2**16
_SUFFIX_LEN = 6
_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class SearchBudget:
    """What to search for and how many candidate assignments to allow."""

    mode: str
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS

    def __post_init__(self):
        if self.mode not in MODES:
            raise GridMagicError(f"mode must be one of {MODES}, got {self.mode!r}")
        try:
            allowed = operator.index(self.max_assignments)
        except TypeError:
            raise GridMagicError(
                f"max_assignments must be an integer, got {self.max_assignments!r}"
            ) from None
        if allowed < 1:
            raise GridMagicError("max_assignments must be >= 1")
        object.__setattr__(self, "max_assignments", allowed)


@dataclass(frozen=True)
class SearchResult:
    """Tally of one exhaustive scan."""

    examined: int
    found: tuple[tuple[tuple[int, ...], int], ...]  # (labels in rank order, magic sum), capped
    sum_histogram: dict[int, int]

    @property
    def found_count(self) -> int:
        """Total number of magic labelings, including ones beyond the cap."""
        return sum(self.sum_histogram.values())


def _factorials(spec: GridSpec, mode: str) -> tuple[int, ...]:
    """The n whose n! multiply to the size of the search space."""
    return tuple(n for n in part_sizes(spec, _KIND[mode]) if n)


def required_assignments(spec: GridSpec, mode: str) -> int:
    """Size of the search space for a spec and mode."""
    return math.prod(math.factorial(n) for n in _factorials(spec, mode))


def _exceeds(factorials: tuple[int, ...], allowed: int) -> bool:
    """Whether the product of n! over `factorials` passes `allowed`.

    It multiplies only until the product passes, so a refusal costs a few
    steps however large the space.
    """
    product = 1
    for n in factorials:
        for k in range(2, n + 1):
            product *= k
            if product > allowed:
                return True
    return False


def _cube_vertex_ranks(spec: GridSpec) -> list[tuple[int, ...]]:
    return [
        tuple(vertex_rank(spec, v) for v in cube_vertices(c)) for c in enumerate_cubes(spec)
    ]


def _cube_edge_ranks(spec: GridSpec) -> list[tuple[int, ...]]:
    return [tuple(edge_rank(spec, e) for e in cube_edges(c)) for c in enumerate_cubes(spec)]


def _disagreement(spec: GridSpec, mode: str, labels: np.ndarray, magic_sum: int) -> GridMagicError:
    """The error for a labeling the scan found magic but the batch check did not."""
    report = _report(spec, _KIND[mode], [_rows_slab(spec, _KIND[mode], labels)])
    return GridMagicError(
        f"oracle/verifier disagreement on a {mode} labeling: "
        f"scan sum {magic_sum}, verifier {report}"
    )


def _checked(
    spec: GridSpec, mode: str, labels: np.ndarray, sums: np.ndarray
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The (labeling, magic sum) pairs of the (m, n) `labels` and int64 `sums`, re-checked.

    The rows go to `verify_batch` together, and each must be a bijection
    whose cube sums all equal its entry of `sums`; the first that is not
    raises the `_disagreement` error. A labeling is returned as a tuple of
    Python ints in rank order.
    """
    lo, hi, bijective = verify_batch(spec, _KIND[mode], labels)
    bad = np.flatnonzero(~bijective | (lo != sums) | (hi != sums))
    if len(bad):
        raise _disagreement(spec, mode, labels[bad[0]], int(sums[bad[0]]))
    return tuple(zip(map(tuple, labels.tolist()), sums.tolist()))


def _label_pools(spec: GridSpec, mode: str) -> tuple[list[np.ndarray], np.ndarray]:
    """The mode's label pools in slot order, and the cube incidence of its slots.

    A labeling lists its vertex labels, then its edge labels, in rank
    order. With the mode's `part_sizes` nv and ne, vertices take 1..nv and
    edges nv+1..nv+ne, so an edge labeling's edges take 1..|E|.
    """
    nv, ne = part_sizes(spec, _KIND[mode])
    pools, incidences = [], []
    if nv:
        pools.append(np.arange(1, nv + 1))
        incidences.append(_incidence(nv, _cube_vertex_ranks(spec)))
    if ne:
        pools.append(np.arange(nv + 1, nv + ne + 1))
        incidences.append(_incidence(ne, _cube_edge_ranks(spec)))
    return pools, np.hstack(incidences)


@functools.lru_cache(maxsize=None)
def _index_permutations(k: int) -> np.ndarray:
    """All k! permutations of range(k) in lexicographic order, one per column."""
    table = list(itertools.permutations(range(k)))
    columns = np.array(table, dtype=np.int64).reshape(len(table), k).T.copy()
    columns.flags.writeable = False
    return columns


def _incidence(n: int, cubes: list[tuple[int, ...]]) -> np.ndarray:
    """0/1 matrix whose row c marks the ranks inside cube c."""
    matrix = np.zeros((len(cubes), n), dtype=np.int64)
    for c, members in enumerate(cubes):
        matrix[c, list(members)] = 1
    return matrix


def _check_float_exact(max_label: int, per_cube: int) -> None:
    """Refuse cube sums that float64 might round.

    A cube sum of at most `per_cube` labels from 1..`max_label`, and every
    partial sum on the way to it, is an integer of at most
    max_label * per_cube. Below 2**53 float64 holds each exactly, so BLAS
    sums exactly in any order and with any number of threads.
    """
    if max_label * per_cube >= 2**53:
        raise GridMagicError(
            f"cube sums of up to {per_cube} labels <= {max_label} are not exact in float64"
        )


def _plans(
    pools: list[np.ndarray], incidence: np.ndarray, target_sum: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per slot, the cubes that hold it and the bounds that keep `target_sum` in reach.

    Say a cube holding the slot has partial sum p and r slots still open
    after it. Per pool, the cube's open slots of that pool take at least
    the sum of its smallest labels and at most the sum of its largest, so
    the slot's label must lie between target - p - (the largest fill) and
    target - p - (the smallest); for a cube the slot closes (r = 0) both
    are target - p. A plan holds the cubes' indices and, as (cubes, 1)
    int64 columns, the two bounds at p = 0 counted as positions in the
    slot's pool (a run of consecutive labels): `low`, and `high` one past
    the last. A row may then take the positions from the largest `low - p`
    up to, but not including, the smallest `high - p`.
    """
    slot_pool = np.repeat(np.arange(len(pools)), [len(pool) for pool in pools])
    first_labels = np.array([pool[0] for pool in pools])[slot_pool]
    low = np.tile(target_sum - first_labels, (len(incidence), 1))
    high = low + 1
    for index, pool in enumerate(pools):
        own = incidence * (slot_pool == index)
        left = own.sum(axis=1, keepdims=True) - own.cumsum(axis=1)  # open after each slot
        smallest = np.concatenate(([0], np.cumsum(pool)))  # sum of the r smallest labels
        low -= smallest[-1] - smallest[len(pool) - left]
        high -= smallest[left]
    plans = []
    for slot in range(incidence.shape[1]):
        cubes = np.flatnonzero(incidence[:, slot])
        plans.append((cubes, low[cubes, slot, None], high[cubes, slot, None]))
    return plans


@functools.lru_cache(maxsize=None)
def _from_position(n: int) -> np.ndarray:
    """(n + 1, n) bool table whose row a marks the positions a, ..., n - 1."""
    table = np.arange(n) >= np.arange(n + 1)[:, None]
    table.flags.writeable = False
    return table


def _allowed(used: np.ndarray, sums: np.ndarray, plan: tuple | None) -> np.ndarray:
    """Flat (row, pool position) indices of the labels each row may take next.

    `used` marks, per row, the pool's labels the row holds already, and a
    `plan` drops the labels that rule the target out. Flat indices run
    row-major, so the rows they extend stay in lexicographic order.
    """
    ok = ~used  # (rows, pool): every row times every label
    if plan is not None:
        cubes, low, high = plan
        partial = sums[cubes]
        n = used.shape[1]
        first = np.minimum((low - partial).max(axis=0, initial=0), n)
        end = np.maximum((high - partial).min(axis=0, initial=n), 0)
        table = _from_position(n)
        ok &= table.take(first, axis=0) > table.take(end, axis=0)  # first <= i < end
    return np.flatnonzero(ok)


def _extensions(
    used: np.ndarray, sums: np.ndarray, offset: int, pool: np.ndarray, plan: tuple | None
) -> Iterator[tuple[np.ndarray, ...]]:
    """Each row followed by each label of `pool` it may take, in chunks.

    `used[:, offset + i]` marks the rows that hold `pool[i]` already, and
    column i of the (cubes, rows) int64 `sums` holds row i's partial cube
    sums. A `plan` from `_plans` drops the labels that rule the target
    out, and the label taken is added to the sums of the cubes that hold
    the slot. Chunks of at most _BLOCK_ROWS rows come in lexicographic
    order, each with the `used` marks and partial cube sums of its rows,
    the labels they took and their parent rows.
    """
    allowed = _allowed(used[:, offset : offset + len(pool)], sums, plan)
    for start in range(0, len(allowed), _BLOCK_ROWS):
        parents, picked = np.divmod(allowed[start : start + _BLOCK_ROWS], len(pool))
        labels = pool.take(picked)
        chunk_used = used.take(parents, axis=0)
        chunk_used[np.arange(len(parents)), offset + picked] = True
        chunk_sums = sums.take(parents, axis=1)
        if plan is not None:
            chunk_sums[plan[0]] += labels
        yield chunk_used, chunk_sums, labels, parents


def _frontier(
    pools: list[np.ndarray], k: int, plans: list[tuple] | None = None, cubes: int = 0
) -> Iterator[np.ndarray]:
    """Every assignment of all but the last k slots that `plans` keeps, in chunks.

    Slot after slot takes a label of its pool (the pools are sorted and
    fill in turn) that the row does not hold yet. With `plans` each row
    carries the partial sums of the `cubes` cubes, which the plans bound.
    A yielded float64 row lists such an assignment, then the k labels of
    the last pool it leaves over, ascending, and stands for the k!
    labelings whose last k labels run through the columns of
    `_index_permutations(k)` (see `_labelings`). Chunks hold at most
    _BLOCK_ROWS rows, and the rows come in lexicographic order, so without
    `plans` their labelings come in the order of
    `itertools.product(*map(itertools.permutations, pools))`.

    The frontier is a stack with one chunk generator per slot being
    filled, so only the chunk being extended at each slot is held. A
    chunk keeps the label each row took and its parent row, not the whole
    assignment, which is read back through the parents only for the rows
    yielded. No generator refers back to the stack, so a scan leaves no
    reference cycles for the garbage collector.
    """
    offsets = np.cumsum([0] + [len(pool) for pool in pools]).tolist()
    slots = [(offset, pool) for offset, pool in zip(offsets, pools) for _ in pool]
    stop = len(slots) - k
    root = np.zeros((1, len(slots)), dtype=bool), np.zeros((cubes, 1), dtype=np.int64), None, None
    stack = [iter([root])]
    picks = []  # picks[s]: the labels and parent rows of the current chunk with s slots filled
    while stack:
        chunk = next(stack[-1], None)
        if chunk is None:
            stack.pop()
            continue
        used, sums, *pick = chunk
        slot = len(stack) - 1
        picks[slot:] = [pick]
        if slot < stop:
            plan = None if plans is None else plans[slot]
            stack.append(_extensions(used, sums, *slots[slot], plan))
            continue
        rows = np.empty((len(used), len(slots)))
        left = np.nonzero(~used[:, offsets[-2] :])[1]  # row-major, so ascending per row
        rows[:, stop:] = pools[-1][left].reshape(len(used), k)
        index = np.arange(len(used))
        for column in range(stop - 1, -1, -1):
            labels, parents = picks[column + 1]
            rows[:, column] = labels[index]
            index = parents[index]
        yield rows


def _labelings(rows: np.ndarray, k: int, perms: np.ndarray) -> np.ndarray:
    """The int64 labelings of the (m, n) frontier rows `rows`.

    Row i runs its last k values through suffix permutation `perms[i]`.
    """
    head = rows.shape[1] - k
    tails = np.take_along_axis(rows[:, head:], _index_permutations(k).T[perms], axis=1)
    return np.hstack((rows[:, :head], tails)).astype(np.int64)


@functools.lru_cache(maxsize=None)
def _suffix_slots(head: int, k: int) -> np.ndarray:
    """(head + k, k!) table of the slot that takes row column j under suffix permutation q.

    Head columns stay in their own slot. Suffix permutation q puts left-over
    value i into suffix slot j where `_index_permutations(k)[j, q] == i`.
    """
    table = _index_permutations(k)
    head_slots = np.repeat(np.arange(head)[:, None], table.shape[1], axis=1)
    slots = np.vstack((head_slots, head + np.argsort(table, axis=0)))
    slots.flags.writeable = False
    return slots


def _suffix_weights(incidence: np.ndarray, k: int) -> np.ndarray:
    """(slots, cubes * k!) float64 weights that turn frontier rows into cube sums.

    Entry (j, (c, q)) is 1 when cube c holds the slot that takes column j
    of a frontier row under suffix permutation q, so a row times the
    weights lists the cube sums of its k! labelings, cube by cube.
    """
    cubes, slots = incidence.shape
    cube_starts = np.arange(cubes)[:, None] * slots
    flat = incidence.astype(np.float64).ravel()
    return flat[cube_starts + _suffix_slots(slots - k, k)[:, None, :]].reshape(slots, -1)


def _scan(spec: GridSpec, mode: str, target_sum: int | None) -> SearchResult:
    """Examine every assignment of the mode, or every one at `target_sum`, sums first.

    One float64 product per block of frontier rows gives the cube sums of
    all their labelings, and the histogram counts the magic ones per block;
    labelings are built only for the first FOUND_CAP, which `_checked`
    re-checks into `found`. With a target every row reaching the product is
    already magic at that sum (k = 0), and the same test counts it.
    """
    pools, incidence = _label_pools(spec, mode)
    _check_float_exact(int(pools[-1][-1]), int(incidence.sum(axis=1).max()))
    if target_sum is None:
        k, plans = min(len(pools[-1]), _SUFFIX_LEN), None
    else:
        k, plans = 0, _plans(pools, incidence, target_sum)
    weights = _suffix_weights(incidence, k)
    size = max(1, _CHUNK_SUMS // weights.shape[1])
    cubes = len(incidence)
    examined, histogram, room = 0, {}, FOUND_CAP
    kept = []  # (rows, suffix permutations, sums) of the labelings for `found`
    for rows in _frontier(pools, k, plans, cubes):
        for start in range(0, len(rows), size):
            block = rows[start : start + size]
            sums = (block @ weights).reshape(len(block), cubes, -1)
            examined += sums[:, 0].size
            magic = (sums[:, 1:] == sums[:, :1]).all(axis=1)
            if not magic.any():
                continue
            magic_sums = sums[:, 0][magic].astype(np.int64)
            low = int(magic_sums.min())
            counts = np.bincount(magic_sums - low)
            for offset in np.flatnonzero(counts).tolist():
                histogram[low + offset] = histogram.get(low + offset, 0) + int(counts[offset])
            if room:
                # flat indices run row-major, so the kept labelings stay in order
                picks, perms = np.divmod(np.flatnonzero(magic)[:room], magic.shape[1])
                kept.append((block[picks], perms, sums[picks, 0, perms]))
                room -= len(picks)
    found = ()
    if kept:
        picked, perms, magic_sums = (np.concatenate(part) for part in zip(*kept))
        found = _checked(spec, mode, _labelings(picked, k, perms), magic_sums.astype(np.int64))
    return SearchResult(examined=examined, found=found, sum_histogram=histogram)


def _check_budget(spec: GridSpec, budget: SearchBudget) -> None:
    factorials = _factorials(spec, budget.mode)
    if _exceeds(factorials, budget.max_assignments):
        raise BudgetExceeded(factorials, budget.max_assignments)


def exhaustive_search(
    spec: GridSpec, budget: SearchBudget, target_sum: int | None = None
) -> SearchResult:
    """Scan every candidate labeling of the given mode.

    Without `target_sum` every assignment is examined, sums first: one
    float64 product per block of frontier rows gives all their cube sums,
    exact because each scan first checks that no cube sum can reach 2**53
    (GridMagicError otherwise). The histogram counts from the sums, and
    only the magic labelings kept in `found` are built, each re-checked by
    the verifier. With `target_sum` the same scan drops a partial
    assignment as soon as the int64 partial sum of some cube, plus the
    least or the most its open slots can add, misses the target; it is
    complete for that sum, and `examined` counts only the finished (hence
    magic) assignments. The frontier is extended in chunks of at most
    2048 rows, so memory stays small however large the space. A target
    that no cube sum can equal (below 1 or beyond int64) gives the empty
    result without a search.

    `target_sum` is taken through `operator.index`, so numpy integers
    count as ints. Raises GridMagicError when it is not an integer (bools,
    floats and numpy floats included), and BudgetExceeded up front when
    the search space is larger than `budget.max_assignments`.
    """
    if target_sum is not None:
        try:
            if isinstance(target_sum, bool):
                raise TypeError
            target_sum = operator.index(target_sum)
        except TypeError:
            raise GridMagicError(f"target_sum must be an int, got {target_sum!r}") from None
    _check_budget(spec, budget)
    if target_sum is not None and not 0 < target_sum <= INT64_MAX:
        # cube sums of positive labels are positive; int64 sums stay exact
        return SearchResult(examined=0, found=(), sum_histogram={})
    return _scan(spec, budget.mode, target_sum)


def construction_sequence(spec: GridSpec, mode: str) -> tuple[int, ...]:
    """The constructed labeling as the flat label sequence the oracle uses."""
    return tuple(np.concatenate(constructed_parts(spec, _KIND[mode])).tolist())


def confirm_construction(spec: GridSpec, budget: SearchBudget) -> bool:
    """Whether the constructed labeling is among the oracle's magic set.

    The full scan examines every bijection onto the mode's pools (in
    supermagic mode vertices onto 1..|V| and edges onto |V|+1..|V|+|E|)
    and counts one as magic exactly when its cube sums by `_incidence` all
    agree. So the answer is that test on the constructed labeling alone,
    with no scan. The budget is checked before the labeling is built, and
    a search the budget refuses raises BudgetExceeded as it would.
    """
    _check_budget(spec, budget)
    target = construction_sequence(spec, budget.mode)
    pools, incidence = _label_pools(spec, budget.mode)
    # at most two pools: the first one's part of the target, then the rest
    k = len(pools[0])
    if sorted(target[:k]) + sorted(target[k:]) != np.concatenate(pools).tolist():
        return False
    sums = incidence @ np.array(target, dtype=np.int64)
    return bool((sums == sums[0]).all())

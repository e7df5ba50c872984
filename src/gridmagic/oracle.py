"""Desk-scale ground truth by brute force.

The oracle enumerates every labeling of a tiny grid (all |V|! or |E|!
bijections, or all |V|!*|E|! pairs in supermagic mode) sums first. The
last six positions of every permutation run through one table of all 720
orders, so a pair of an outer row (the vertex labels in supermagic mode)
and an inner prefix stands for 720 labelings. One float64 matrix product,
with weights built from a 0/1 cube-incidence matrix of the grid model,
gives the cube sums of all labelings of a block of such pairs; the
labelings whose cube sums all agree are tallied into a histogram of magic
sums from the sums alone. Every cube sum is an integer below 2**53, which
each scan checks up front, so float64 holds it exactly in any summation
order. Labelings are built only for the first FOUND_CAP magic ones, which
go into `found`.

The verifier only re-checks what the scan found, with one verifier call
for a full scan's found list: each labeling kept in `found` must be a
bijection whose cube sums all equal the scan's sum, or the search raises;
it never decides what the scan counts. The oracle shares no arithmetic
with the closed-form predictions or the constructive labelings. The scan
counts a labeling exactly when it is a bijection onto the mode's pools
whose incidence cube sums agree, so `confirm_construction` applies that
test to the constructed labeling alone: independent evidence that the
construction lands inside the feasible set.

Search spaces explode fast, so `SearchBudget.max_assignments` refuses
anything beyond desk scale up front. Supplying a target sum switches to a
breadth-first frontier search, complete for that sum: every partial
assignment that reaches a slot is one row of a numpy array, each row is
extended by every unused label at once, and rows whose partial cube sums
rule the target out are dropped. A frontier longer than _BLOCK_ROWS rows
is descended one chunk at a time, which bounds memory and keeps the rows
in lexicographic order. The default full scan is deliberately unpruned so
the ground truth inherits nothing from the thing it checks.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, GridMagicError
from .grid_core import GridSpec, cube_edges, cube_vertices, edge_rank, enumerate_cubes, vertex_rank
from .labeling_nd import build_labelings, combine_supermagic
from .verifier import INT64_MAX, _parts, _report, verify_batch

MODES = ("vertex", "edge", "supermagic")
# the verifier's name for each mode's labelings
_KIND = {"vertex": "vertex", "edge": "edge", "supermagic": "total"}
DEFAULT_MAX_ASSIGNMENTS = 10**8

# `found` keeps at most this many (digest, sum) pairs; the histogram always
# counts everything.
FOUND_CAP = 1000

# The full scan runs the last _SUFFIX_LEN positions of each permutation
# through a table of all _SUFFIX_LEN! (720) orders at once. It takes pairs
# of an outer row and an inner prefix in blocks of about _CHUNK_SUMS cube
# sums (each pair row gives cubes * 720 of them), which keeps a block's
# float64 sums near 128 KB. The target-sum search descends its frontier in
# chunks of _BLOCK_ROWS rows.
_CHUNK_SUMS = 2**14
_SUFFIX_LEN = 6
_BLOCK_ROWS = math.factorial(_SUFFIX_LEN)


@dataclass(frozen=True)
class SearchBudget:
    """What to search for and how many candidate assignments to allow."""

    mode: str
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS

    def __post_init__(self):
        if self.mode not in MODES:
            raise GridMagicError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_assignments < 1:
            raise GridMagicError("max_assignments must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    """Tally of one exhaustive scan."""

    examined: int
    found: tuple[tuple[str, int], ...]  # (labeling digest, magic sum), capped
    sum_histogram: dict[int, int]

    @property
    def found_count(self) -> int:
        """Total number of magic labelings, including ones beyond the cap."""
        return sum(self.sum_histogram.values())


def labeling_digest(labels: Sequence[int]) -> str:
    """Stable digest of a label sequence in rank order."""
    data = ",".join(map(str, map(int, labels))).encode()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _factorials(spec: GridSpec, mode: str) -> tuple[int, ...]:
    """The n whose n! multiply to the size of the search space."""
    nv, ne = spec.vertex_count, spec.edge_count
    return {"vertex": (nv,), "edge": (ne,), "supermagic": (nv, ne)}[mode]


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
    report = _report(spec, _KIND[mode], *_parts(spec, _KIND[mode], labels))
    return GridMagicError(
        f"oracle/verifier disagreement on a {mode} labeling: "
        f"scan sum {magic_sum}, verifier {report}"
    )


class _Tally:
    """Histogram plus capped found list.

    Every found labeling is re-checked independently: the rows handed to
    `keep` go to `verify_batch` together, and each must be a bijection
    whose cube sums all equal the sum the scan recorded.
    """

    def __init__(self, spec: GridSpec, mode: str):
        self.spec = spec
        self.mode = mode
        self.histogram: dict[int, int] = {}
        self.found: list[tuple[str, int]] = []

    @property
    def room(self) -> int:
        """How many more labelings `found` takes."""
        return FOUND_CAP - len(self.found)

    def count(self, sums: np.ndarray) -> None:
        """Add magic labelings with the int64 `sums` to the histogram."""
        if not len(sums):
            return
        low = int(sums.min())
        counts = np.bincount(sums - low)
        for offset in np.flatnonzero(counts).tolist():
            magic_sum = low + offset
            self.histogram[magic_sum] = self.histogram.get(magic_sum, 0) + int(counts[offset])

    def keep(self, labels: np.ndarray, sums: np.ndarray) -> None:
        """Re-check the (m, n) labelings `labels`, m <= `room`, and add them to `found`."""
        if not len(labels):
            return
        lo, hi, bijective = verify_batch(self.spec, _KIND[self.mode], labels)
        bad = np.flatnonzero(~bijective | (lo != sums) | (hi != sums))
        if len(bad):
            raise _disagreement(self.spec, self.mode, labels[bad[0]], int(sums[bad[0]]))
        for row, magic_sum in zip(labels.tolist(), sums.tolist()):
            self.found.append((labeling_digest(row), magic_sum))

    def record(self, head: np.ndarray, rows: np.ndarray, sums: np.ndarray) -> None:
        """Count the magic labelings `head + row`, one per row of `rows`.

        `rows` is (m, n) in scan order and `sums` holds their m magic sums.
        """
        self.count(sums)
        rows, sums = rows[: self.room], sums[: self.room]
        self.keep(np.hstack((np.broadcast_to(head, (len(rows), len(head))), rows)), sums)


def _label_pools(spec: GridSpec, mode: str) -> tuple[list[np.ndarray], np.ndarray]:
    """The mode's label pools in slot order, and the cube incidence of its slots.

    A labeling lists its vertex labels, then its edge labels, in rank
    order. Vertex and edge mode have one pool, 1..n. In supermagic mode the
    vertices take 1..|V| and the edges |V|+1..|V|+|E|.
    """
    nv, ne = spec.vertex_count, spec.edge_count
    pools, incidences = [], []
    if mode != "edge":
        pools.append(np.arange(1, nv + 1))
        incidences.append(_incidence(nv, _cube_vertex_ranks(spec)))
    if mode != "vertex":
        first = nv + 1 if mode == "supermagic" else 1
        pools.append(np.arange(first, first + ne))
        incidences.append(_incidence(ne, _cube_edge_ranks(spec)))
    return pools, np.hstack(incidences)


@functools.lru_cache(maxsize=None)
def _index_permutations(k: int) -> np.ndarray:
    """All k! permutations of range(k) in lexicographic order, one per column."""
    table = np.zeros((1, 0), dtype=np.int64)
    for m in range(1, k + 1):
        # each leading index i, followed by every (m-1)-permutation of the rest
        table = np.concatenate(
            [
                np.column_stack((np.full(len(table), i), np.delete(np.arange(m), i)[table]))
                for i in range(m)
            ]
        )
    columns = np.ascontiguousarray(table.T)
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


def _lex_rows(values: np.ndarray, r: int) -> np.ndarray:
    """Each r-permutation of the sorted `values`, then the values it leaves.

    One row per r-permutation, in lexicographic order; the left-over
    values follow it in ascending order.
    """
    n = len(values)
    heads = np.array(list(itertools.permutations(range(n), r)), dtype=np.intp)
    left = np.ones((len(heads), n), dtype=bool)
    left[np.arange(len(heads))[:, None], heads] = False
    rest = np.nonzero(left)[1].reshape(len(heads), n - r)
    return values[np.hstack((heads, rest))]


def _permutation_blocks(outer: np.ndarray, inner: np.ndarray, size: int) -> Iterator[np.ndarray]:
    """Every pair of permutations of the sorted `outer` and `inner`, in blocks.

    A pair row lists an outer permutation, the first n - k values of an
    inner permutation (k = min(n, _SUFFIX_LEN)) and the k inner values left
    over, ascending. It stands for the k! labelings whose last k labels run
    through the columns of `_index_permutations(k)` (see `_labelings`).
    Blocks hold at most `size` pair rows, as float64, and the rows come in
    lexicographic order, so their labelings come in the order of
    `itertools.product(permutations(outer), permutations(inner))`.
    """
    k = min(len(inner), _SUFFIX_LEN)
    outer_rows = _lex_rows(outer, len(outer)).astype(np.float64)
    inner_rows = _lex_rows(inner, len(inner) - k).astype(np.float64)
    pairs = len(outer_rows) * len(inner_rows)
    for start in range(0, pairs, size):
        o, i = np.divmod(np.arange(start, min(start + size, pairs)), len(inner_rows))
        yield np.hstack((outer_rows[o], inner_rows[i]))


def _labelings(pairs: np.ndarray, k: int, perms: np.ndarray) -> np.ndarray:
    """The int64 labelings of the (m, n) pair rows `pairs`.

    Row i runs its last k values through suffix permutation `perms[i]`.
    """
    head = pairs.shape[1] - k
    tails = np.take_along_axis(pairs[:, head:], _index_permutations(k).T[perms], axis=1)
    return np.hstack((pairs[:, :head], tails)).astype(np.int64)


@functools.lru_cache(maxsize=None)
def _suffix_slots(head: int, k: int) -> np.ndarray:
    """(head + k, k!) table of the slot that takes pair column j under suffix permutation q.

    Head columns stay in their own slot. Suffix permutation q puts left-over
    value i into suffix slot j where `_index_permutations(k)[j, q] == i`.
    """
    table = _index_permutations(k)
    head_slots = np.repeat(np.arange(head)[:, None], table.shape[1], axis=1)
    slots = np.vstack((head_slots, head + np.argsort(table, axis=0)))
    slots.flags.writeable = False
    return slots


def _suffix_weights(incidence: np.ndarray, k: int) -> np.ndarray:
    """(slots, cubes * k!) float64 weights that turn pair rows into cube sums.

    Entry (j, (c, q)) is 1 when cube c holds the slot that takes column j
    of a pair row under suffix permutation q, so a pair row times the
    weights lists the cube sums of its k! labelings, cube by cube.
    """
    cubes, slots = incidence.shape
    cube_starts = np.arange(cubes)[:, None] * slots
    flat = incidence.astype(np.float64).ravel()
    return flat[cube_starts + _suffix_slots(slots - k, k)[:, None, :]].reshape(slots, -1)


def _sum_first_scan(spec: GridSpec, mode: str, tally: _Tally) -> int:
    """Examine every assignment of the mode, cube sums first.

    The outer part is the vertex labels in supermagic mode and empty
    otherwise. One float64 product per block of `_permutation_blocks`
    gives the cube sums of all its labelings; labelings are built only for
    the magic ones that go into `found`.
    """
    pools, incidence = _label_pools(spec, mode)
    inner = pools[-1]
    outer = pools[0] if len(pools) == 2 else inner[:0]
    _check_float_exact(int(inner[-1]), int(incidence.sum(axis=1).max()))
    k = min(len(inner), _SUFFIX_LEN)
    weights = _suffix_weights(incidence, k)
    cubes = len(incidence)
    examined = 0
    room = tally.room
    kept = []  # (pair rows, suffix permutations, sums) of the labelings for `found`
    for block in _permutation_blocks(outer, inner, max(1, _CHUNK_SUMS // weights.shape[1])):
        sums = (block @ weights).reshape(len(block), cubes, -1)
        examined += sums[:, 0].size
        magic = (sums[:, 1:] == sums[:, :1]).all(axis=1)
        tally.count(sums[:, 0][magic].astype(np.int64))
        if room and magic.any():
            # flat indices run row-major, so the kept labelings stay in order
            rows, perms = np.divmod(np.flatnonzero(magic)[:room], magic.shape[1])
            kept.append((block[rows], perms, sums[rows, 0, perms]))
            room -= len(rows)
    if kept:
        pairs, perms, magic_sums = (np.concatenate(part) for part in zip(*kept))
        tally.keep(_labelings(pairs, k, perms), magic_sums.astype(np.int64))
    return examined


def _pruned_scan(spec: GridSpec, mode: str, target_sum: int, tally: _Tally) -> int:
    """Examine every assignment whose cube sums all equal `target_sum`.

    Slots are filled in rank order (in supermagic mode the vertex slots,
    then the edge slots), and all partial assignments that survive up to a
    slot form one frontier of rows. Each frontier row is extended by every
    unused label of the slot's pool, ascending, and a candidate survives
    when each cube it closes sums to the target and each cube it leaves
    open can still reach it (`partial + remaining <= target`, as labels are
    >= 1). The extended frontier is built and descended one chunk of at
    most _BLOCK_ROWS rows at a time, in order, so finished rows reach the
    tally in lexicographic order and a slot holds only its candidate mask
    (at most _BLOCK_ROWS times the pool size) and one chunk.
    """
    if not 0 < target_sum <= INT64_MAX:
        return 0  # cube sums of positive labels are positive; int64 sums stay exact
    nv = spec.vertex_count
    _, incidence = _label_pools(spec, mode)
    slot_count = incidence.shape[1]
    # labels are 1..slot_count (label l is column l - 1 of `used`); in
    # supermagic mode 1..nv go to the vertex slots and the rest to the edges
    split = nv if mode == "supermagic" else slot_count
    pools = [(0, split)] * split + [(split, slot_count)] * (slot_count - split)
    labels = np.arange(1, slot_count + 1)
    # per slot: its cubes, the open ones with their caps on the partial sum
    # (target minus the slots still to fill), and the ones it closes
    remaining = incidence.sum(axis=1, keepdims=True) - incidence.cumsum(axis=1)
    plans = []
    for slot in range(slot_count):
        cubes = np.flatnonzero(incidence[:, slot])
        left = remaining[cubes, slot]
        plans.append((cubes, cubes[left > 0], target_sum - left[left > 0], cubes[left == 0]))
    head = np.zeros(0, dtype=np.int64)
    examined = 0

    def descend(slot: int, prefix: np.ndarray, sums: np.ndarray, used: np.ndarray) -> None:
        nonlocal examined
        (lo, hi), (cubes, open_cubes, caps, closed_cubes) = pools[slot], plans[slot]
        values = labels[lo:hi]
        ok = ~used[:, lo:hi]  # (rows, pool): every row times every label
        if len(open_cubes):
            ok &= values <= (caps - sums[:, open_cubes]).min(axis=1, keepdims=True)
        for c in closed_cubes:
            ok &= values == target_sum - sums[:, c, None]
        rows, picks = np.nonzero(ok)  # row-major, so rows stay in lexicographic order
        for start in range(0, len(rows), _BLOCK_ROWS):
            part = slice(start, start + _BLOCK_ROWS)
            parents, picked = rows[part], values[picks[part]]
            chunk = np.column_stack((prefix[parents], picked))
            if slot + 1 == slot_count:
                examined += len(chunk)
                tally.record(head, chunk, np.full(len(chunk), target_sum))
                continue
            chunk_sums = sums[parents]
            chunk_sums[:, cubes] += picked[:, None]
            chunk_used = used[parents]
            chunk_used[np.arange(len(parents)), picked - 1] = True
            descend(slot + 1, chunk, chunk_sums, chunk_used)

    descend(
        0,
        np.zeros((1, 0), dtype=np.int64),
        np.zeros((1, spec.cube_count), dtype=np.int64),
        np.zeros((1, slot_count), dtype=bool),
    )
    return examined


def _check_budget(spec: GridSpec, budget: SearchBudget) -> None:
    factorials = _factorials(spec, budget.mode)
    if _exceeds(factorials, budget.max_assignments):
        raise BudgetExceeded(factorials, budget.max_assignments)


def exhaustive_search(
    spec: GridSpec, budget: SearchBudget, target_sum: int | None = None
) -> SearchResult:
    """Scan every candidate labeling of the given mode.

    Without `target_sum` every assignment is examined, sums first: one
    float64 product per block of permutation pairs gives all their cube
    sums, exact because each scan first checks that no cube sum can reach
    2**53 (GridMagicError otherwise). The histogram counts from the sums,
    and only the magic labelings kept in `found` are built, each
    re-checked by the verifier. With `target_sum`, the scan
    is a breadth-first frontier search that drops a partial assignment as
    soon as its cube sums rule the target out; it is complete for that
    sum, and `examined` counts only the finished (hence magic)
    assignments. The frontier is extended in chunks of at most 720 rows,
    so memory stays small however large the space. A target that no cube
    sum can equal (below 1 or beyond int64) gives the empty result
    without a search.

    Raises GridMagicError when `target_sum` is not an int (bools and
    floats included), and BudgetExceeded up front when the search space
    is larger than `budget.max_assignments`.
    """
    if target_sum is not None and (
        isinstance(target_sum, bool) or not isinstance(target_sum, int)
    ):
        raise GridMagicError(f"target_sum must be an int, got {target_sum!r}")
    _check_budget(spec, budget)
    tally = _Tally(spec, budget.mode)
    if target_sum is None:
        examined = _sum_first_scan(spec, budget.mode, tally)
    else:
        examined = _pruned_scan(spec, budget.mode, target_sum, tally)
    return SearchResult(
        examined=examined, found=tuple(tally.found), sum_histogram=tally.histogram
    )


def construction_sequence(spec: GridSpec, mode: str) -> tuple[int, ...]:
    """The constructed labeling as the flat label sequence the oracle uses."""
    f, g = build_labelings(spec)
    if mode == "vertex":
        return tuple(f.flat.tolist())
    if mode == "edge":
        return tuple(g.flat.tolist())
    total = combine_supermagic(f, g)
    return tuple(total.vertex.flat.tolist() + total.edge.flat.tolist())


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
    if len(target) != incidence.shape[1]:
        return False
    start = 0
    for pool in pools:
        if sorted(target[start : start + len(pool)]) != pool.tolist():
            return False
        start += len(pool)
    sums = incidence @ np.array(target, dtype=np.int64)
    return bool((sums == sums[0]).all())

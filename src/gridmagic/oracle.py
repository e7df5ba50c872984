"""Desk-scale ground truth by brute force.

The oracle enumerates every labeling of a tiny grid (all |V|! or |E|!
bijections, or all |V|!*|E|! pairs in supermagic mode) block by block:
each block of up to 720 permutations is multiplied by a 0/1
cube-incidence matrix built from the grid model, and the rows whose cube
sums all agree are tallied into a histogram of magic sums. The verifier
only re-checks what the scan found, with one verifier call per block:
each labeling kept in `found` must be a bijection whose cube sums all
equal the scan's sum, or the search raises; it never decides what the
scan counts. The oracle shares no arithmetic with the closed-form
predictions or the constructive labelings; membership of the constructed
labeling in the found set is therefore independent evidence that the
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

# Precompute per-permutation edge sums in supermagic mode only below this
# count, to bound memory.
_PRECOMPUTE_CAP = 10**6

# The exhaustive scan enumerates permutations in blocks of at most
# _SUFFIX_LEN! rows (720), which keeps a block's arrays to tens of KB. The
# target-sum search descends its frontier in chunks of the same size.
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
    """Histogram plus capped found list, with one verifier call per block.

    Every found labeling is re-checked independently: a block's rows under
    `FOUND_CAP` go to `verify_batch` together, and each must be a bijection
    whose cube sums all equal the sum the scan recorded.
    """

    def __init__(self, spec: GridSpec, mode: str, member_target: tuple[int, ...] | None):
        self.spec = spec
        self.mode = mode
        self.target = None if member_target is None else np.array(member_target, dtype=np.int64)
        self.histogram: dict[int, int] = {}
        self.found: list[tuple[str, int]] = []
        self.target_seen = False

    def record(self, head: np.ndarray, rows: np.ndarray, sums: np.ndarray) -> None:
        """Count the magic labelings `head + row`, one per row of `rows`.

        `rows` is (m, n) in scan order and `sums` holds their m magic sums.
        """
        values, counts = np.unique(sums, return_counts=True)
        for magic_sum, count in zip(values.tolist(), counts.tolist()):
            self.histogram[magic_sum] = self.histogram.get(magic_sum, 0) + count
        if self.target is not None and not self.target_seen:
            target_head, target_row = np.split(self.target, [len(head)])
            self.target_seen = bool(
                (head == target_head).all() and (rows == target_row).all(axis=1).any()
            )
        room = FOUND_CAP - len(self.found)
        if room <= 0:
            return
        rows, sums = rows[:room], sums[:room]
        labels = np.hstack((np.broadcast_to(head, (len(rows), len(head))), rows))
        lo, hi, bijective = verify_batch(self.spec, _KIND[self.mode], labels)
        bad = np.flatnonzero(~bijective | (lo != sums) | (hi != sums))
        if len(bad):
            raise _disagreement(self.spec, self.mode, labels[bad[0]], int(sums[bad[0]]))
        for row, magic_sum in zip(labels.tolist(), sums.tolist()):
            self.found.append((labeling_digest(row), magic_sum))


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


def _permutation_blocks(values: np.ndarray) -> Iterator[np.ndarray]:
    """Every permutation of the sorted `values` as (B, n) int64 blocks.

    Rows come in `itertools.permutations` order. Each block fixes one
    prefix of the first n - k positions and runs the last k through the
    lexicographic index table over the values the prefix leaves. Blocks
    are stored column by column, so `block.T` is contiguous.
    """
    n = len(values)
    k = min(n, _SUFFIX_LEN)
    table = _index_permutations(k)
    for prefix in itertools.permutations(range(n), n - k):
        columns = np.empty((n, table.shape[1]), dtype=np.int64)
        columns[: n - k] = values[list(prefix), None]
        columns[n - k :] = np.delete(values, prefix)[table]
        yield columns.T


def _incidence(n: int, cubes: list[tuple[int, ...]]) -> np.ndarray:
    """0/1 matrix whose row c marks the ranks inside cube c."""
    matrix = np.zeros((len(cubes), n), dtype=np.int64)
    for c, members in enumerate(cubes):
        matrix[c, list(members)] = 1
    return matrix


def _summed_blocks(
    values: np.ndarray, incidence: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Permutation blocks with their (cubes, B) cube sums."""
    for block in _permutation_blocks(values):
        yield block, incidence @ block.T


def _block_scan(spec: GridSpec, mode: str, tally: _Tally) -> int:
    """Examine every assignment of the mode, one block of rows at a time.

    A labeling is an outer part (the vertex labels in supermagic mode,
    empty otherwise) followed by an inner part; its cube sums are the sum
    of both parts' sums. Outer rows are walked one by one against every
    inner block, so rows reach the tally in lexicographic order.
    """
    nv, ne = spec.vertex_count, spec.edge_count
    no_labels = (np.arange(0), np.zeros((spec.cube_count, 0), dtype=np.int64))
    vertex = (np.arange(1, nv + 1), _incidence(nv, _cube_vertex_ranks(spec)))
    edge_incidence = _incidence(ne, _cube_edge_ranks(spec))
    if mode == "vertex":
        outer, inner = no_labels, vertex
    elif mode == "edge":
        outer, inner = no_labels, (np.arange(1, ne + 1), edge_incidence)
    else:
        # edge labels are enumerated directly in their shifted range, so cube
        # totals and digests need no correction afterwards
        outer, inner = vertex, (np.arange(nv + 1, nv + ne + 1), edge_incidence)

    # Keep the inner blocks only when several outer rows reuse them.
    precompute = len(outer[0]) > 1 and math.factorial(len(inner[0])) <= _PRECOMPUTE_CAP
    inner_blocks = list(_summed_blocks(*inner)) if precompute else None

    examined = 0
    for outer_block, outer_sums in _summed_blocks(*outer):
        for outer_row, row_sums in zip(outer_block, outer_sums.T):
            for block, block_sums in inner_blocks if precompute else _summed_blocks(*inner):
                examined += len(block)
                totals = block_sums + row_sums[:, None]
                magic = (totals[1:] == totals[0]).all(axis=0)
                if magic.any():
                    tally.record(outer_row, block[magic], totals[0, magic])
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
    nv, ne = spec.vertex_count, spec.edge_count
    if mode == "vertex":
        incidence = _incidence(nv, _cube_vertex_ranks(spec))
    elif mode == "edge":
        incidence = _incidence(ne, _cube_edge_ranks(spec))
    else:
        vertex = _incidence(nv, _cube_vertex_ranks(spec))
        incidence = np.hstack((vertex, _incidence(ne, _cube_edge_ranks(spec))))
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


def _run(
    spec: GridSpec,
    budget: SearchBudget,
    target_sum: int | None,
    member_target: tuple[int, ...] | None,
) -> tuple[SearchResult, bool]:
    factorials = _factorials(spec, budget.mode)
    if _exceeds(factorials, budget.max_assignments):
        raise BudgetExceeded(factorials, budget.max_assignments)
    tally = _Tally(spec, budget.mode, member_target)
    if target_sum is not None:
        examined = _pruned_scan(spec, budget.mode, target_sum, tally)
    else:
        examined = _block_scan(spec, budget.mode, tally)
    result = SearchResult(
        examined=examined,
        found=tuple(tally.found),
        sum_histogram=tally.histogram,
    )
    return result, tally.target_seen


def exhaustive_search(
    spec: GridSpec, budget: SearchBudget, target_sum: int | None = None
) -> SearchResult:
    """Scan every candidate labeling of the given mode.

    Without `target_sum` every assignment is examined. With it, the scan
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
    result, _ = _run(spec, budget, target_sum, None)
    return result


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
    """Whether the constructed labeling appears among the oracle's magic set."""
    target = construction_sequence(spec, budget.mode)
    _, seen = _run(spec, budget, None, target)
    return seen

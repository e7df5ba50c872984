"""Exhaustive checking of candidate labelings against the magic conditions.

A labeling is magic when every unit cube carries the same label sum, and a
total labeling is supermagic when additionally its vertex labels are
exactly [1, |V|]. The check enumerates nothing fancier than axis-aligned
unit cubes: only those subgraphs are cubes, so a full sweep over the
prod(n_i - 1) corners is complete.

A unit-cube sum is a separable box filter (the summed-area idea of Crow,
1984): pairing neighbours, ``a[:-1] + a[1:]``, along each axis in turn
sums the 2^d vertices of every cube in d passes. Pairing each axis's
edge array along the other d-1 axes sums the d * 2^(d-1) edges; adding
the axis arrays as soon as their shapes agree lets later passes serve
several axes, (d-1)(d+2)/2 passes in all. The distinct sums come from one
sort, and bijectivity from one min/max plus a scatter into a seen-mask.
The same min/max bound every cube sum: when max|label| times the labels
per cube could pass 2^63 - 1, the kernels run unchanged on arrays of
Python ints, so sums never wrap.

The kernels pair over the trailing `spec.dim` axes only, so any leading
axes are a batch: a single labeling is an array with no leading axis,
and `verify_batch` checks a stack of m labelings, one per row, with one
call per kernel. It returns per-row extremes and bijectivity rather than
reports, which is what a caller re-checking many candidates needs.

`closed_form_sums` computes the magic sums the constructions are expected
to attain, by pure arithmetic over the same layer recursion the builders
use; the verifier reports observed against predicted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Overflow, SpecMismatch
from .grid_core import GridSpec
from .labeling_2d import EdgeLabeling, VertexLabeling, split_edge_labels
from .labeling_nd import TotalLabeling

INT64_MAX = 2**63 - 1

# Failure diagnostics keep at most this many distinct cube sums.
MAX_REPORTED_SUMS = 32


@dataclass(frozen=True)
class MagicReport:
    """Outcome of verifying one candidate labeling."""

    kind: str  # "vertex" | "edge" | "total"
    bijective: bool
    cube_sum_values: tuple[int, ...]  # sorted distinct sums, capped
    distinct_count: int
    magic: bool
    magic_sum: int | None
    predicted_sum: int | None
    matches_prediction: bool | None


@dataclass(frozen=True)
class PredictedSums:
    """Magic sums the constructed labelings attain, from closed forms."""

    c_vertex: int
    c_edge: int
    c_total: int


def closed_form_sums(spec: GridSpec) -> PredictedSums:
    """Predicted vertex, edge and total magic sums for a canonical spec."""
    n1, n2 = spec.dims[:2]
    bump = 1 if n1 % 2 == 0 and n2 % 2 == 1 else 0
    c_vertex = 2 * (n1 * n2 + 1 + bump)
    c_edge = (2 * n1 - 1) * (2 * n2 - 1) + 1
    # vertex and edge counts of the layer Grid(dims[:k-1]) below dimension k
    n_layer, m_layer = n1 * n2, n1 * (n2 - 1) + n2 * (n1 - 1)
    for k in range(3, spec.dim + 1):
        nd = spec.dims[k - 1]
        c_vertex, c_edge = (
            2 * c_vertex + 2 ** (k - 1) * (nd - 1) * n_layer,
            c_vertex
            + 2 * c_edge
            + 2 ** (k - 2) * (nd - 2) * n_layer
            + 2 ** (k - 2) * (2 * nd + (k - 1) * (nd - 1)) * m_layer,
        )
        if c_vertex > INT64_MAX or c_edge > INT64_MAX:
            raise Overflow(f"magic sums of {spec.dims} exceed 64-bit range")
        n_layer, m_layer = nd * n_layer, nd * m_layer + (nd - 1) * n_layer
    c_total = c_vertex + c_edge + spec.cube_edge_count * spec.vertex_count
    if c_total > INT64_MAX:
        raise Overflow(f"total magic sum of {spec.dims} exceeds 64-bit range")
    return PredictedSums(c_vertex, c_edge, c_total)


def _pair_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """One separable pass: ``a[..., :-1, ...] + a[..., 1:, ...]`` along `axis`."""
    head = [slice(None)] * a.ndim
    tail = list(head)
    head[axis], tail[axis] = slice(None, -1), slice(1, None)
    return a[tuple(head)] + a[tuple(tail)]


def cube_vertex_sums(grid: np.ndarray, spec: GridSpec | None = None) -> np.ndarray:
    """Sum of vertex labels per unit cube, indexed by 0-based corner.

    The cube axes are the trailing `spec.dim` axes of `grid` (all of its
    axes when no spec is given); leading axes are a batch.
    """
    out = grid
    for axis in range(-(grid.ndim if spec is None else spec.dim), 0):
        out = _pair_sum(out, axis)
    return out


def cube_edge_sums(per_axis: tuple[np.ndarray, ...], spec: GridSpec) -> np.ndarray:
    """Sum of edge labels per unit cube, indexed by 0-based corner.

    The axis-a array already has one entry per cube position along axis a
    and needs pairing along the other d-1 axes. After axis k is paired, the
    running sum over axes 0..k-1 has the same shape as the axis-k array
    paired along axes 0..k-1, so one pass per later axis serves them all.
    The cube axes are the trailing `spec.dim` axes; leading axes are a batch.
    """
    d = spec.dim
    out = per_axis[0]
    for k in range(1, d):
        arr = per_axis[k]
        for axis in range(k):
            arr = _pair_sum(arr, axis - d)
        out = _pair_sum(out, k - d)
        out += arr
    return out


def _scan_labels(flat: np.ndarray, start: int, count: int) -> tuple[bool, int]:
    """Whether `flat` is a permutation of [start, start + count), and its max |label|."""
    lo, hi = int(flat.min()), int(flat.max())
    bijective = flat.size == count and (lo, hi) == (start, start + count - 1)
    if bijective:
        # in range and of the right size: a bijection exactly when no label repeats
        seen = np.zeros(start + count, dtype=bool)
        seen[flat] = True
        bijective = bool(seen[start:].all())
    return bijective, max(-lo, hi)


def _exact(arrays: tuple[np.ndarray, ...], sum_bound: int) -> tuple[np.ndarray, ...]:
    """The label arrays, as arrays of Python ints if a cube sum could pass int64."""
    if sum_bound <= INT64_MAX:
        return arrays
    return tuple(arr.astype(object) for arr in arrays)


def _report(kind: str, bijective: bool, sums: np.ndarray, predicted: int) -> MagicReport:
    ordered = np.sort(sums, axis=None)
    magic = bool(ordered[0] == ordered[-1])
    # positions in sorted order where each distinct value after the first begins
    starts = [] if magic else np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    values = (ordered[0], *ordered[starts[: MAX_REPORTED_SUMS - 1]])
    magic_sum = int(ordered[0]) if magic else None
    return MagicReport(
        kind=kind,
        bijective=bijective,
        cube_sum_values=tuple(int(v) for v in values),
        distinct_count=1 + len(starts),
        magic=magic,
        magic_sum=magic_sum,
        predicted_sum=predicted,
        matches_prediction=(magic_sum == predicted) if magic else None,
    )


def verify_vertex_magic(spec: GridSpec, f: VertexLabeling) -> MagicReport:
    """Scan all cubes of a vertex labeling; report sums and bijectivity."""
    if f.spec != spec:
        raise SpecMismatch(f"labeling over {f.spec.dims}, expected {spec.dims}")
    bijective, magnitude = _scan_labels(f.flat, 1, spec.vertex_count)
    (grid,) = _exact((f.grid,), magnitude * 2**spec.dim)
    sums = cube_vertex_sums(grid, spec)
    return _report("vertex", bijective, sums, closed_form_sums(spec).c_vertex)


def verify_edge_magic(spec: GridSpec, g: EdgeLabeling) -> MagicReport:
    """Scan all cubes of an edge labeling; report sums and bijectivity."""
    if g.spec != spec:
        raise SpecMismatch(f"labeling over {g.spec.dims}, expected {spec.dims}")
    bijective, magnitude = _scan_labels(g.flat, 1, spec.edge_count)
    per_axis = _exact(g.per_axis, magnitude * spec.cube_edge_count)
    sums = cube_edge_sums(per_axis, spec)
    return _report("edge", bijective, sums, closed_form_sums(spec).c_edge)


def verify_supermagic(spec: GridSpec, total: TotalLabeling) -> MagicReport:
    """Scan a total labeling; bijectivity includes the range split.

    The `bijective` flag holds only when vertex labels are exactly
    [1, |V|] and edge labels exactly [|V|+1, |V|+|E|], which together are
    equivalent to a joint bijection satisfying the supermagic condition.
    """
    if total.spec != spec:
        raise SpecMismatch(f"labeling over {total.spec.dims}, expected {spec.dims}")
    nv = spec.vertex_count
    v_bijective, v_magnitude = _scan_labels(total.vertex.flat, 1, nv)
    e_bijective, e_magnitude = _scan_labels(total.edge.flat, nv + 1, spec.edge_count)
    per_cube = 2**spec.dim + spec.cube_edge_count
    grid, *per_axis = _exact(
        (total.vertex.grid, *total.edge.per_axis), max(v_magnitude, e_magnitude) * per_cube
    )
    sums = cube_vertex_sums(grid, spec)
    sums += cube_edge_sums(tuple(per_axis), spec)
    return _report("total", v_bijective and e_bijective, sums, closed_form_sums(spec).c_total)


def verify_batch(
    spec: GridSpec, kind: str, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check m labelings of `kind` at once, one per row of the (m, n) `rows`.

    A row lists the labels in rank order: vertices for "vertex", edges for
    "edge", and vertices then edges for "total". Returns, per row, the
    minimum and the maximum cube sum (equal exactly when the row is magic)
    and whether the row is a bijection onto its kind's range; for "total"
    that is vertices onto [1, |V|] and edges onto [|V|+1, |V|+|E|], as in
    `verify_supermagic`. Rows are reshaped, not wrapped in labelings, and
    each kernel the kind needs runs once for the whole batch.
    """
    nv, ne = spec.vertex_count, spec.edge_count
    widths = {"vertex": (nv, 0), "edge": (0, ne), "total": (nv, ne)}[kind]
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != sum(widths):
        raise SpecMismatch(f"rows of shape {rows.shape} for {kind} labelings of {spec.dims}")
    m, split = len(rows), widths[0]
    # a bijection exactly when the vertex part and the edge part, each
    # sorted on its own, read 1, 2, ..., n across the row
    ordered = np.hstack((np.sort(rows[:, :split]), np.sort(rows[:, split:])))
    bijective = (ordered == np.arange(1, rows.shape[1] + 1)).all(axis=1)
    magnitude = max(-int(rows.min()), int(rows.max())) if rows.size else 0
    per_cube = (2**spec.dim if split else 0) + (spec.cube_edge_count if widths[1] else 0)
    (labels,) = _exact((rows,), magnitude * per_cube)
    parts = []
    if split:
        parts.append(cube_vertex_sums(labels[:, :split].reshape(m, *spec.dims), spec))
    if widths[1]:
        parts.append(cube_edge_sums(split_edge_labels(spec, labels[:, split:]), spec))
    sums = sum(parts).reshape(m, spec.cube_count)
    return sums.min(axis=1), sums.max(axis=1), bijective

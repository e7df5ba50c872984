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
several axes, (d-1)(d+2)/2 passes in all.

Every check runs through one core, `_scan`, over an optional vertex part
(..., |V|) and an optional edge part (..., |E|); `part_sizes` is the one
table of each kind's parts and their lengths. The kernels pair over
the trailing `spec.dim` axes only, so the leading axes are a batch: a
single labeling has none, and `verify_batch` checks m labelings, one per
row, with one call per kernel. One min and one max per part bound every
cube sum (when max|label| times the labels per cube could pass 2^63 - 1,
the kernels run unchanged on arrays of Python ints, so sums never wrap)
and show whether every label lies in its part's range: [1, |V|] and
[1, |E|], or [|V|+1, |V|+|E|] behind a vertex part. Labels outside it go
to a spare slot, and one scatter of every row into a seen-mask decides
bijectivity: a row is a bijection when all its other slots are set.
`verify_*` reduce the sums to a report, `verify_batch` to per-row extremes.

`closed_form_sums` computes the magic sums the constructions are expected
to attain, by pure arithmetic over the same layer recursion the builders
use; the verifier reports observed against predicted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMagicError, Overflow, SpecMismatch
from .grid_core import GridSpec, split_edge_labels
from .labeling_2d import EdgeLabeling, VertexLabeling, frozen_labels
from .labeling_nd import TotalLabeling

INT64_MAX = 2**63 - 1
KINDS = ("vertex", "edge", "total")

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


def cube_vertex_sums(grid: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Sum of vertex labels per unit cube, indexed by 0-based corner.

    The cube axes are the trailing `spec.dim` axes of `grid`; leading axes
    are a batch.
    """
    out = grid
    for axis in range(-spec.dim, 0):
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


def _exact(arrays: tuple[np.ndarray | None, ...], sum_bound: int) -> tuple[np.ndarray | None, ...]:
    """The label arrays, as arrays of Python ints if a cube sum could pass int64."""
    if sum_bound <= INT64_MAX:
        return arrays
    return tuple(None if arr is None else arr.astype(object) for arr in arrays)


def _scan(
    spec: GridSpec, vertex: np.ndarray | None, edge: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Cube sums (..., n_1 - 1, ..., n_d - 1) and bijectivity (...) of the given parts."""
    batch = (edge if vertex is None else vertex).shape[:-1]
    parts = [part.reshape(-1, part.shape[-1]) for part in (vertex, edge) if part is not None]
    # seen[r, label] for the labels of row r, slot 0 for those out of range
    seen = np.zeros((len(parts[0]), 1 + sum(labels.shape[1] for labels in parts)), dtype=bool)
    magnitude, start = 0, 1
    for labels in parts:
        end = start + labels.shape[1] - 1
        # the range ends as initial values also give an empty batch extremes
        lo, hi = int(labels.min(initial=start)), int(labels.max(initial=end))
        magnitude = max(magnitude, -lo, hi)
        if lo < start or hi > end:
            labels = np.where((labels >= start) & (labels <= end), labels, 0)
        if len(labels) > 1:
            labels = labels + np.arange(0, seen.size, seen.shape[1])[:, None]
        seen.reshape(-1)[labels] = True
        start = end + 1
    bijective = seen[:, 1:].all(axis=1)
    del seen, labels  # the mask and any label copy, freed before the kernels run

    per_cube = (0 if vertex is None else 2**spec.dim) + (0 if edge is None else spec.cube_edge_count)
    vertex, edge = _exact((vertex, edge), magnitude * per_cube)
    sums = None
    if vertex is not None:
        sums = cube_vertex_sums(vertex.reshape(*batch, *spec.dims), spec)
    if edge is not None:
        edge_sums = cube_edge_sums(split_edge_labels(spec, edge), spec)
        sums = edge_sums if sums is None else np.add(sums, edge_sums, out=sums)
    return sums, bijective.reshape(batch)


def part_sizes(spec: GridSpec, kind: str) -> tuple[int, int]:
    """The lengths of the vertex and the edge part of a `kind` labeling, 0 for a part it lacks."""
    if kind not in KINDS:
        raise GridMagicError(f"kind must be one of {KINDS}, got {kind!r}")
    nv = 0 if kind == "edge" else spec.vertex_count
    ne = 0 if kind == "vertex" else spec.edge_count
    return nv, ne


def _parts(spec: GridSpec, kind: str, rows: np.ndarray) -> tuple[np.ndarray | None, ...]:
    """The vertex and the edge part of (..., n) `rows` of `kind`, as views or None."""
    nv, ne = part_sizes(spec, kind)
    if rows.shape[-1:] != (nv + ne,):
        raise SpecMismatch(f"rows of shape {rows.shape} for {kind} labelings of {spec.dims}")
    return (rows[..., :nv] if nv else None), (rows[..., nv:] if ne else None)


def _report(
    spec: GridSpec, kind: str, vertex: np.ndarray | None, edge: np.ndarray | None
) -> MagicReport:
    """The report on one labeling of `kind`, given by its parts as for `_scan`."""
    sums, bijective = _scan(spec, vertex, edge)
    predicted = getattr(closed_form_sums(spec), f"c_{kind}")
    ordered = np.sort(sums, axis=None)
    magic = bool(ordered[0] == ordered[-1])
    # positions in sorted order where each distinct value after the first begins
    starts = [] if magic else np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    values = (ordered[0], *ordered[starts[: MAX_REPORTED_SUMS - 1]])
    magic_sum = int(ordered[0]) if magic else None
    return MagicReport(
        kind=kind,
        bijective=bool(bijective),
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
    return _report(spec, "vertex", f.flat, None)


def verify_edge_magic(spec: GridSpec, g: EdgeLabeling) -> MagicReport:
    """Scan all cubes of an edge labeling; report sums and bijectivity."""
    if g.spec != spec:
        raise SpecMismatch(f"labeling over {g.spec.dims}, expected {spec.dims}")
    return _report(spec, "edge", None, g.flat)


def verify_supermagic(spec: GridSpec, total: TotalLabeling) -> MagicReport:
    """Scan a total labeling; bijectivity includes the range split.

    The `bijective` flag holds only when vertex labels are exactly
    [1, |V|] and edge labels exactly [|V|+1, |V|+|E|], which together are
    equivalent to a joint bijection satisfying the supermagic condition.
    """
    if total.spec != spec:
        raise SpecMismatch(f"labeling over {total.spec.dims}, expected {spec.dims}")
    return _report(spec, "total", total.vertex.flat, total.edge.flat)


def verify_batch(
    spec: GridSpec, kind: str, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check m labelings of `kind` at once, one per row of the (m, n) `rows`.

    A row lists the labels in rank order: vertices for "vertex", edges for
    "edge", and vertices then edges for "total". Returns, per row, the
    minimum and the maximum cube sum (equal exactly when the row is magic)
    and whether the row is a bijection onto its kind's range; for "total"
    that is vertices onto [1, |V|] and edges onto [|V|+1, |V|+|E|], as in
    `verify_supermagic`. Rows are split, not wrapped in labelings, and
    each kernel the kind needs runs once for the whole batch.
    """
    rows = frozen_labels(rows)
    vertex, edge = _parts(spec, kind, rows)
    if rows.ndim != 2:
        raise SpecMismatch(f"rows of shape {rows.shape} for {kind} labelings of {spec.dims}")
    sums, bijective = _scan(spec, vertex, edge)
    # numpy reduces short C-ordered rows slowly; column order is faster,
    # copy included
    sums = np.asfortranarray(sums.reshape(len(rows), spec.cube_count))
    return sums.min(axis=1), sums.max(axis=1), bijective

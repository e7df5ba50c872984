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

Every check runs through one core, `_scan`, which takes the labels a
slab of leading rows at a time: the vertex rows and each axis's edge
rows, either part left out for a kind that lacks it (`part_sizes` is the
one table of each kind's parts and their lengths). A unit cube spans two
consecutive leading rows, so the kernels sum the m - 1 rows of cubes
inside a slab of m rows and, joined to the last row held back from the
slab before, those on its seam. `verify_*` pass their whole arrays as
one slab, and `verify_batch` and the oracle pass their rows as one slab
(`_rows_slab`). A document goes through the same slabs of leading rows
whichever way it was read: `verify_document` cuts its arrays into them,
and `gridmagic verify` takes them from the lists as it parses them, so
it never holds them. The kernels pair over the trailing `spec.dim` axes
only, so axes in front of the rows are a batch: a single labeling has
none, and `verify_batch` checks m labelings, one per row, with one call
per kernel. One min and one max per slab bound its cube sums (when
max|label| times the labels per cube could pass 2^63 - 1, the kernels
run unchanged on arrays of Python ints, so sums never wrap) and show
whether every label lies in its part's range: [1, |V|] and [1, |E|], or
[|V|+1, |V|+|E|] behind a vertex part. Labels outside it go to a spare
slot, and one scatter per slab into a seen-mask of |V|+|E|+1 bytes per
row decides bijectivity: a row is a bijection when all its other slots
are set. `verify_*` keep one sum of each batch of equal cube sums and
the distinct sums of any other batch, and sort the kept sums once at the
end; `verify_batch` reduces them to per-row extremes. `verify_*` refuse
a labeling of only some leading rows with SpecMismatch.

`closed_form_sums` computes the magic sums the constructions are expected
to attain, by pure arithmetic over the same layer recursion the builders
use; the verifier reports observed against predicted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import GridMagicError, Overflow, SpecMismatch
from .grid_core import GridSpec, split_edge_labels
from .labeling_2d import EdgeLabeling, VertexLabeling, frozen_labels, whole
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


# One slab of labels: the vertex rows (*batch, rows, *dims[1:]) and each
# axis's edge rows (*batch, rows, ...), None for a part the kind lacks.
Slab = tuple[np.ndarray | None, tuple[np.ndarray, ...] | None]


def _each(fn, *slabs: Slab) -> Slab:
    """`fn` of each array of the slabs, taken part by part and axis by axis; None stays None."""
    vertices, edges = zip(*slabs)
    return (
        None if vertices[0] is None else fn(*vertices),
        None if edges[0] is None else tuple(map(fn, *edges)),
    )


def _mark(seen: np.ndarray, labels: np.ndarray, start: int, end: int, axis: int) -> int:
    """Set ``seen[r, label]`` for the labels of batch row r in [start, end], slot 0 for the rest.

    `axis` counts the batch axes in front of each row of `labels`. Returns
    the largest magnitude among the labels, `start` and `end`.
    """
    labels = labels.reshape(len(seen), math.prod(labels.shape[axis:]))
    # the range ends as initial values also give an empty batch extremes
    lo, hi = int(labels.min(initial=start)), int(labels.max(initial=end))
    if lo < start or hi > end:
        labels = np.where((labels >= start) & (labels <= end), labels, 0)
    if len(seen) > 1:
        labels = labels + np.arange(0, seen.size, seen.shape[1])[:, None]
    seen.reshape(-1)[labels] = True
    return max(-lo, hi)


def _cube_sums(spec: GridSpec, slab: Slab, axis: int, exact: bool) -> np.ndarray | None:
    """The sums of the cubes whose every label is in `slab`, None if there are none.

    Leading rows run along `axis`. A slab of m leading rows holds the m - 1
    rows of cubes on its corner rows; the axis-1 edges of the last row of
    a slab that is not the grid's last wait for the seam with the next.
    `exact` runs the kernels on Python ints.
    """
    vertex, edges = slab
    cubes = (edges[1] if vertex is None else vertex).shape[axis] - 1
    if cubes <= 0:
        return None
    if edges is not None:
        edges = edges[0][(slice(None),) * axis + (slice(0, cubes),)], *edges[1:]
    if exact:
        vertex, edges = _each(lambda arr: arr.astype(object), (vertex, edges))
    sums = None if vertex is None else cube_vertex_sums(vertex, spec)
    if edges is not None:
        edge_sums = cube_edge_sums(edges, spec)
        sums = edge_sums if sums is None else np.add(sums, edge_sums, out=sums)
    return sums


def _scan(
    spec: GridSpec, kind: str, slabs: Iterable[Slab], reduce, batch: tuple[int, ...] = ()
) -> np.ndarray:
    """Bijectivity (`batch`-shaped) of the `kind` labels in `slabs`; cube sums go to `reduce`.

    `slabs` gives the leading rows in order, a slab at a time. `reduce`
    gets the sums of the cubes inside each slab, and of those on the seam
    with the last row held back from the slab before. The seen mask is
    freed once the last slab is marked, before its kernels run. The
    kernels run on Python ints when the labels they add could give a cube
    sum past int64.
    """
    nv, ne = part_sizes(spec, kind)
    per_cube = (2**spec.dim if nv else 0) + (spec.cube_edge_count if ne else 0)
    axis = len(batch)
    head = (slice(None),) * axis  # every batch row
    # seen[r, label] for the labels of row r, slot 0 for those out of range
    seen = np.zeros((math.prod(batch), 1 + nv + ne), dtype=bool)
    held, held_magnitude, done = None, 0, 0
    for slab in slabs:
        vertex, edges = slab
        magnitude = 0 if vertex is None else _mark(seen, vertex, 1, nv, axis)
        for arr in edges or ():
            magnitude = max(magnitude, _mark(seen, arr, nv + 1, nv + ne, axis))
        rows = (edges[1] if vertex is None else vertex).shape[axis]
        done += rows
        if done == spec.dims[0]:
            bijective = seen[:, 1:].all(axis=1).reshape(batch)
            del seen  # the mask, freed before the last kernels run
        if not rows:
            continue
        if held is not None:
            # the held rows and the slab's first: the cubes on the seam
            seam = _each(lambda last, arr: np.concatenate((last, arr[head + (slice(0, 1),)]), axis), held, slab)
            reduce(_cube_sums(spec, seam, axis, max(magnitude, held_magnitude) * per_cube > INT64_MAX))
        sums = _cube_sums(spec, slab, axis, magnitude * per_cube > INT64_MAX)
        if sums is not None:
            reduce(sums)
        held = _each(lambda arr: arr[head + (slice(rows - 1, None),)].copy(), slab)
        held_magnitude = magnitude
    if done != spec.dims[0]:
        raise SpecMismatch(f"slabs of {done} leading rows for the {spec.dims} grid")
    return bijective


def part_sizes(spec: GridSpec, kind: str) -> tuple[int, int]:
    """The lengths of the vertex and the edge part of a `kind` labeling, 0 for a part it lacks."""
    if kind not in KINDS:
        raise GridMagicError(f"kind must be one of {KINDS}, got {kind!r}")
    nv = 0 if kind == "edge" else spec.vertex_count
    ne = 0 if kind == "vertex" else spec.edge_count
    return nv, ne


def _rows_slab(spec: GridSpec, kind: str, rows: np.ndarray) -> Slab:
    """(..., n) `rows` of `kind` labels as one slab of every leading row, views of `rows`."""
    nv, ne = part_sizes(spec, kind)
    if rows.shape[-1:] != (nv + ne,):
        raise SpecMismatch(f"rows of shape {rows.shape} for {kind} labelings of {spec.dims}")
    return (
        rows[..., :nv].reshape(*rows.shape[:-1], *spec.dims) if nv else None,
        split_edge_labels(spec, rows[..., nv:]) if ne else None,
    )


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending.

    A sort and one comparison: `np.unique` hashes int64 in numpy 2, and took
    ~70x as long on a million random sums (numpy 2.4.6).
    """
    ordered = np.sort(values, axis=None)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def _report(spec: GridSpec, kind: str, slabs: Iterable[Slab]) -> MagicReport:
    """The report on one labeling of `kind`, given a slab of leading rows at a time.

    A batch of cube sums keeps its distinct sums, or its one sum: a copy,
    so the batch is freed, and only if the entry kept last differs, as 500
    small arrays held 0.6 MB of freed slabs in RSS at 2000x2000. A slice
    keeps the batch's dtype, so a sum past int64 stays a Python int.
    """
    kept: list[np.ndarray] = []

    def keep(sums: np.ndarray) -> None:
        if sums.min() != sums.max():
            kept.append(_distinct(sums))
        elif not kept or kept[-1].size > 1 or int(kept[-1][0]) != int(sums.flat[0]):
            kept.append(sums.reshape(-1)[:1].copy())

    bijective = _scan(spec, kind, slabs, keep)
    predicted = getattr(closed_form_sums(spec), f"c_{kind}")
    values = kept[0] if len(kept) == 1 else _distinct(np.concatenate(kept))
    magic = len(values) == 1
    magic_sum = int(values[0]) if magic else None
    return MagicReport(
        kind=kind,
        bijective=bool(bijective),
        cube_sum_values=tuple(int(v) for v in values[:MAX_REPORTED_SUMS]),
        distinct_count=len(values),
        magic=magic,
        magic_sum=magic_sum,
        predicted_sum=predicted,
        matches_prediction=(magic_sum == predicted) if magic else None,
    )


def verify_vertex_magic(spec: GridSpec, f: VertexLabeling) -> MagicReport:
    """Scan all cubes of a vertex labeling; report sums and bijectivity."""
    if f.spec != spec:
        raise SpecMismatch(f"labeling over {f.spec.dims}, expected {spec.dims}")
    return _report(spec, "vertex", [(whole(f).grid, None)])


def verify_edge_magic(spec: GridSpec, g: EdgeLabeling) -> MagicReport:
    """Scan all cubes of an edge labeling; report sums and bijectivity."""
    if g.spec != spec:
        raise SpecMismatch(f"labeling over {g.spec.dims}, expected {spec.dims}")
    return _report(spec, "edge", [(None, whole(g).per_axis)])


def verify_supermagic(spec: GridSpec, total: TotalLabeling) -> MagicReport:
    """Scan a total labeling; bijectivity includes the range split.

    The `bijective` flag holds only when vertex labels are exactly
    [1, |V|] and edge labels exactly [|V|+1, |V|+|E|], which together are
    equivalent to a joint bijection satisfying the supermagic condition.
    """
    if total.spec != spec:
        raise SpecMismatch(f"labeling over {total.spec.dims}, expected {spec.dims}")
    return _report(spec, "total", [(whole(total.vertex).grid, total.edge.per_axis)])


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
    slab = _rows_slab(spec, kind, rows)
    if rows.ndim != 2:
        raise SpecMismatch(f"rows of shape {rows.shape} for {kind} labelings of {spec.dims}")
    found = []
    bijective = _scan(spec, kind, [slab], found.append, rows.shape[:1])
    # numpy reduces short C-ordered rows slowly; column order is faster,
    # copy included
    sums = np.asfortranarray(found[0].reshape(len(rows), spec.cube_count))
    return sums.min(axis=1), sums.max(axis=1), bijective

"""Closed-form magic labelings for two-dimensional grids.

Both constructions are direct formulas in the coordinates (i, j), i along
the longer axis. Vertex labels interleave an upward sweep (odd/odd and
even/even parity classes) with a downward sweep, shifted by one when n1 is
even and n2 odd; every unit square then carries the same vertex sum,
2(n1*n2 + 1) or 2(n1*n2 + 2) in the shifted case. Edge labels live in
stripes of width 2*n2 - 1: axis-2 edges count up through the stripes of
their own column while axis-1 edges count down through mirrored stripes,
giving the constant square sum (2*n1 - 1)(2*n2 - 1) + 1.

Each labeling is one dense, read-only int64 buffer: vertex labels in
rank order, edge labels in edge enumeration order. Verification touches
every label anyway; `flat` is that buffer, and the grid-shaped and
per-axis arrays that the vectorized cube-sum sweep consumes are views of
it, so no layer copies labels to change between the two.

A labeling holds the labels of a range of leading rows, `rows`: every
row unless a builder is given fewer. Both formulas give any such range
alone, the same arrays cut to those rows, which is how the command line
builds a document that it never holds whole. Lookups (`label`) and the
verifiers need every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CoordOutOfRange, SpecMismatch
from .grid_core import (
    EdgeId,
    GridSpec,
    VertexCoord,
    edge_rank,
    edge_row_shapes,
    split_edge_labels,
    vertex_rank,
)


def frozen_labels(labels: Sequence[int] | np.ndarray) -> np.ndarray:
    """`labels` as a read-only int64 view (no copy if already contiguous int64).

    Anything but integers within int64 raises SpecMismatch instead of being
    cast; an empty input passes whatever its dtype (``np.asarray(())`` is float64).
    """
    arr = np.asarray(labels)
    kind = arr.dtype.kind if arr.size else "i"
    if kind not in "iu" or kind == "u" and arr.max() > np.iinfo(np.int64).max:
        raise SpecMismatch(f"labels must be integers in the int64 range, got dtype {arr.dtype}")
    out = np.ascontiguousarray(arr, dtype=np.int64).view()
    out.flags.writeable = False
    return out


def _checked_rows(spec: GridSpec, rows: range | None) -> range:
    """`rows` (all of them for None), if it is a range of consecutive leading rows of `spec`."""
    if rows is None:
        return range(spec.dims[0])
    if not isinstance(rows, range) or rows.step != 1 or not 0 <= rows.start <= rows.stop <= spec.dims[0]:
        raise CoordOutOfRange(f"{rows!r} is not a range of leading rows of the {spec.dims} grid")
    return rows


def _edge_row_count(spec: GridSpec, rows: range) -> int:
    """The number of edges based in leading rows `rows` of `spec`."""
    return sum(map(math.prod, edge_row_shapes(spec, rows)))


@dataclass(frozen=True, eq=False)
class VertexLabeling:
    """Integer labels on the vertices of leading rows `rows`, stored densely in rank order.

    `rows` is a range of 0-based leading coordinates, every row for None.
    Constructors in this package produce bijections onto [1, |V|]; the type
    itself admits arbitrary candidates so the verifier has something to
    reject.
    """

    spec: GridSpec
    grid: np.ndarray  # shape == (len(rows), *spec.dims[1:])
    rows: range | None = None

    def __post_init__(self):
        rows = _checked_rows(self.spec, self.rows)
        arr = frozen_labels(self.grid)
        if arr.shape != (len(rows), *self.spec.dims[1:]):
            raise SpecMismatch(
                f"label array of shape {arr.shape} for rows {rows} of a {self.spec.dims} grid"
            )
        object.__setattr__(self, "grid", arr)
        object.__setattr__(self, "rows", rows)

    @property
    def flat(self) -> np.ndarray:
        """Labels in vertex rank order (row-major)."""
        return self.grid.reshape(-1)

    def label(self, v: VertexCoord) -> int:
        return int(whole(self).flat[vertex_rank(self.spec, v)])


@dataclass(frozen=True, eq=False)
class EdgeLabeling:
    """Integer labels on the edges based in leading rows `rows`, densely in enumeration order.

    `rows` is as for `VertexLabeling`; `flat` holds the labels axis by
    axis, each axis's rows as in edge enumeration order. ``per_axis[a]``
    views the labels of edges along axis a+1, indexed by the 0-based base
    coordinate; its shape is ``edge_row_shapes(spec, rows)[a]``.
    """

    spec: GridSpec
    flat: np.ndarray  # shape == (edges based in rows,)
    rows: range | None = None

    def __post_init__(self):
        rows = _checked_rows(self.spec, self.rows)
        arr, count = frozen_labels(self.flat), _edge_row_count(self.spec, rows)
        if arr.shape != (count,):
            raise SpecMismatch(
                f"label array of shape {arr.shape} for the {count} edges "
                f"of rows {rows} of a {self.spec.dims} grid"
            )
        object.__setattr__(self, "flat", arr)
        object.__setattr__(self, "rows", rows)

    @property
    def per_axis(self) -> tuple[np.ndarray, ...]:
        return split_edge_labels(self.spec, self.flat, self.rows)

    def label(self, e: EdgeId) -> int:
        return int(whole(self).flat[edge_rank(self.spec, e)])


def whole(labeling: VertexLabeling | EdgeLabeling) -> VertexLabeling | EdgeLabeling:
    """`labeling`, if it labels every row of its grid; SpecMismatch for only some rows."""
    if len(labeling.rows) != labeling.spec.dims[0]:
        raise SpecMismatch(
            f"labeling of rows {labeling.rows} of the {labeling.spec.dims} grid, not of every row"
        )
    return labeling


def edge_buffer(spec: GridSpec, rows: range) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """An unfilled int64 buffer for the edges based in `rows`, and its per-axis views."""
    flat = np.empty(_edge_row_count(spec, rows), dtype=np.int64)
    return flat, split_edge_labels(spec, flat, rows)


def vertex_labeling_from_flat(spec: GridSpec, flat: Sequence[int] | np.ndarray) -> VertexLabeling:
    """Rebuild a vertex labeling from labels in rank order."""
    arr = frozen_labels(flat)
    if arr.size != spec.vertex_count:
        raise SpecMismatch(f"{arr.size} vertex labels for a grid with {spec.vertex_count}")
    return VertexLabeling(spec, arr.reshape(spec.dims))


def edge_labeling_from_flat(spec: GridSpec, flat: Sequence[int] | np.ndarray) -> EdgeLabeling:
    """Rebuild an edge labeling from labels in edge enumeration order."""
    return EdgeLabeling(spec, frozen_labels(flat).reshape(-1))


def base_vertex_labeling(n1: int, n2: int, rows: range | None = None) -> VertexLabeling:
    """Magic vertex labeling of the n1 x n2 grid (n1 >= n2 >= 2).

    Given `rows`, a range of 0-based leading coordinates, it builds those
    rows alone.
    """
    spec = GridSpec((n1, n2))
    built = _checked_rows(spec, rows)
    bump = 1 if n1 % 2 == 0 and n2 % 2 == 1 else 0
    i = np.arange(built.start + 1, built.stop + 1, dtype=np.int64)[:, None]
    j = np.arange(1, n2 + 1, dtype=np.int64)
    up, down, rev = (i - 1) * n2, (n1 - i) * n2 + bump, n2 + 1 - j
    # one strided block per (i, j) parity class; odd i sit at even rows of
    # the block when it starts at an even row, and [0::2] picks odd j
    odd, even = slice(built.start % 2, None, 2), slice(1 - built.start % 2, None, 2)
    grid = np.empty((len(built), n2), dtype=np.int64)
    np.add(up[odd], j[0::2], out=grid[odd, 0::2])
    np.add(up[even], rev[1::2], out=grid[even, 1::2])
    np.add(down[odd], j[1::2], out=grid[odd, 1::2])
    np.add(down[even], rev[0::2], out=grid[even, 0::2])
    return VertexLabeling(spec, grid, built)


def base_edge_labeling(n1: int, n2: int, rows: range | None = None) -> EdgeLabeling:
    """Magic edge labeling of the n1 x n2 grid (n1 >= n2 >= 2).

    Given `rows`, it builds the edges based in those leading rows alone.
    """
    spec = GridSpec((n1, n2))
    built = _checked_rows(spec, rows)
    stripe = 2 * n2 - 1
    i = np.arange(built.start + 1, built.stop + 1, dtype=np.int64)[:, None]
    j = np.arange(1, n2 + 1, dtype=np.int64)
    flat, (along_1, along_2) = edge_buffer(spec, built)
    # axis-1 edges: base (i, j) with i <= n1-1, label (n1-i)*stripe + 1 - j
    np.subtract((n1 - i[: len(along_1)]) * stripe + 1, j, out=along_1)
    # axis-2 edges: base (i, j) with j <= n2-1, label (i-1)*stripe + j
    np.add((i - 1) * stripe, j[:-1], out=along_2)
    return EdgeLabeling(spec, flat, built)

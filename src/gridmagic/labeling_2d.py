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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SpecMismatch
from .grid_core import EdgeId, GridSpec, VertexCoord, edge_rank, split_edge_labels, vertex_rank


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


@dataclass(frozen=True, eq=False)
class VertexLabeling:
    """Integer labels on every vertex, stored densely in rank order.

    Constructors in this package produce bijections onto [1, |V|]; the type
    itself admits arbitrary candidates so the verifier has something to
    reject.
    """

    spec: GridSpec
    grid: np.ndarray  # shape == spec.dims

    def __post_init__(self):
        arr = frozen_labels(self.grid)
        if arr.shape != self.spec.dims:
            raise SpecMismatch(
                f"label array of shape {arr.shape} for a {self.spec.dims} grid"
            )
        object.__setattr__(self, "grid", arr)

    @property
    def flat(self) -> np.ndarray:
        """Labels in vertex rank order (row-major)."""
        return self.grid.reshape(-1)

    def label(self, v: VertexCoord) -> int:
        return int(self.flat[vertex_rank(self.spec, v)])


@dataclass(frozen=True, eq=False)
class EdgeLabeling:
    """Integer labels on every edge, stored densely in edge enumeration order.

    ``per_axis[a]`` views the labels of edges along axis a+1, indexed by the
    0-based base coordinate; its shape is ``spec.edge_shapes[a]``.
    """

    spec: GridSpec
    flat: np.ndarray  # shape == (spec.edge_count,)

    def __post_init__(self):
        arr = frozen_labels(self.flat)
        if arr.shape != (self.spec.edge_count,):
            raise SpecMismatch(
                f"label array of shape {arr.shape} for a grid with {self.spec.edge_count} edges"
            )
        object.__setattr__(self, "flat", arr)

    @property
    def per_axis(self) -> tuple[np.ndarray, ...]:
        return split_edge_labels(self.spec, self.flat)

    def label(self, e: EdgeId) -> int:
        return int(self.flat[edge_rank(self.spec, e)])


def vertex_labeling_from_flat(spec: GridSpec, flat: Sequence[int] | np.ndarray) -> VertexLabeling:
    """Rebuild a vertex labeling from labels in rank order."""
    arr = frozen_labels(flat)
    if arr.size != spec.vertex_count:
        raise SpecMismatch(f"{arr.size} vertex labels for a grid with {spec.vertex_count}")
    return VertexLabeling(spec, arr.reshape(spec.dims))


def edge_labeling_from_flat(spec: GridSpec, flat: Sequence[int] | np.ndarray) -> EdgeLabeling:
    """Rebuild an edge labeling from labels in edge enumeration order."""
    return EdgeLabeling(spec, frozen_labels(flat).reshape(-1))


def base_vertex_labeling(n1: int, n2: int) -> VertexLabeling:
    """Magic vertex labeling of the n1 x n2 grid (n1 >= n2 >= 2)."""
    spec = GridSpec((n1, n2))
    bump = 1 if n1 % 2 == 0 and n2 % 2 == 1 else 0
    i = np.arange(1, n1 + 1, dtype=np.int64)[:, None]
    j = np.arange(1, n2 + 1, dtype=np.int64)
    up, down, rev = (i - 1) * n2, (n1 - i) * n2 + bump, n2 + 1 - j
    # one strided block per (i, j) parity class; [0::2] picks odd i or j
    grid = np.empty((n1, n2), dtype=np.int64)
    np.add(up[0::2], j[0::2], out=grid[0::2, 0::2])
    np.add(up[1::2], rev[1::2], out=grid[1::2, 1::2])
    np.add(down[0::2], j[1::2], out=grid[0::2, 1::2])
    np.add(down[1::2], rev[0::2], out=grid[1::2, 0::2])
    return VertexLabeling(spec, grid)


def base_edge_labeling(n1: int, n2: int) -> EdgeLabeling:
    """Magic edge labeling of the n1 x n2 grid (n1 >= n2 >= 2)."""
    spec = GridSpec((n1, n2))
    stripe = 2 * n2 - 1
    i = np.arange(1, n1 + 1, dtype=np.int64)[:, None]
    j = np.arange(1, n2 + 1, dtype=np.int64)
    flat = np.empty(spec.edge_count, dtype=np.int64)
    along_1, along_2 = split_edge_labels(spec, flat)
    # axis-1 edges: base (i, j) with i <= n1-1, label (n1-i)*stripe + 1 - j
    np.subtract((n1 - i[:-1]) * stripe + 1, j, out=along_1)
    # axis-2 edges: base (i, j) with j <= n2-1, label (i-1)*stripe + j
    np.add((i - 1) * stripe, j[:-1], out=along_2)
    return EdgeLabeling(spec, flat)

"""Closed-form magic labelings for two-dimensional grids.

Both constructions are direct formulas in the coordinates (i, j), i along
the longer axis. Vertex labels interleave an upward sweep (odd/odd and
even/even parity classes) with a downward sweep, shifted by one when n1 is
even and n2 odd; every unit square then carries the same vertex sum,
2(n1*n2 + 1) or 2(n1*n2 + 2) in the shifted case. Edge labels live in
stripes of width 2*n2 - 1: axis-2 edges count up through the stripes of
their own column while axis-1 edges count down through mirrored stripes,
giving the constant square sum (2*n1 - 1)(2*n2 - 1) + 1.

Labelings are materialized as dense int64 arrays: verification touches
every label anyway, and the arrays are what the vectorized cube-sum sweep
consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SpecMismatch
from .grid_core import EdgeId, GridSpec, VertexCoord, _check_coord, _check_edge


def _frozen(arr: np.ndarray) -> np.ndarray:
    # construction takes ownership: when no conversion copy is needed, the
    # caller's array itself is marked read-only
    out = np.ascontiguousarray(arr, dtype=np.int64)
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
        arr = _frozen(self.grid)
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
        _check_coord(self.spec, v)
        return int(self.grid[tuple(c - 1 for c in v)])


@dataclass(frozen=True, eq=False)
class EdgeLabeling:
    """Integer labels on every edge, one dense array per axis.

    ``per_axis[a]`` holds the labels of edges along axis a+1, indexed by the
    0-based base coordinate; its shape is the grid shape with axis a
    shortened by one.
    """

    spec: GridSpec
    per_axis: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.per_axis) != self.spec.dim:
            raise SpecMismatch(
                f"{len(self.per_axis)} axis arrays for a {self.spec.dim}-dimensional grid"
            )
        arrays = []
        for a, arr in enumerate(self.per_axis):
            arr = _frozen(arr)
            want = tuple(
                n - 1 if i == a else n for i, n in enumerate(self.spec.dims)
            )
            if arr.shape != want:
                raise SpecMismatch(f"axis-{a + 1} array has shape {arr.shape}, want {want}")
            arrays.append(arr)
        object.__setattr__(self, "per_axis", tuple(arrays))

    @property
    def flat(self) -> np.ndarray:
        """Labels in edge enumeration order (axis ascending, bases row-major)."""
        return np.concatenate([arr.reshape(-1) for arr in self.per_axis])

    def label(self, e: EdgeId) -> int:
        _check_edge(self.spec, e)
        return int(self.per_axis[e.axis - 1][tuple(c - 1 for c in e.base)])


def vertex_labeling_from_flat(spec: GridSpec, flat: Sequence[int] | np.ndarray) -> VertexLabeling:
    """Rebuild a vertex labeling from labels in rank order."""
    arr = np.asarray(flat, dtype=np.int64)
    if arr.size != spec.vertex_count:
        raise SpecMismatch(f"{arr.size} vertex labels for a grid with {spec.vertex_count}")
    return VertexLabeling(spec, arr.reshape(spec.dims))


def edge_labeling_from_flat(spec: GridSpec, flat: Sequence[int] | np.ndarray) -> EdgeLabeling:
    """Rebuild an edge labeling from labels in edge enumeration order."""
    arr = np.asarray(flat, dtype=np.int64)
    if arr.size != spec.edge_count:
        raise SpecMismatch(f"{arr.size} edge labels for a grid with {spec.edge_count}")
    return EdgeLabeling(spec, split_edge_labels(spec, arr.reshape(-1)))


def split_edge_labels(spec: GridSpec, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Labels in edge enumeration order, along the last axis, as per-axis arrays.

    The axis-a array has the grid shape with axis a shortened by one,
    behind any leading (batch) axes of `labels`.
    """
    per_axis, start = [], 0
    for a in range(spec.dim):
        shape = tuple(n - 1 if i == a else n for i, n in enumerate(spec.dims))
        size = math.prod(shape)
        per_axis.append(labels[..., start : start + size].reshape(*labels.shape[:-1], *shape))
        start += size
    return tuple(per_axis)


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
    j = np.arange(1, n2 + 1, dtype=np.int64)[None, :]
    # axis-1 edges: base (i, j) with i <= n1-1, label (n1-i)*stripe + 1 - j
    along_1 = (n1 - i[:-1]) * stripe + 1 - j
    # axis-2 edges: base (i, j) with j <= n2-1, label (i-1)*stripe + j
    along_2 = (i - 1) * stripe + j[:, :-1]
    return EdgeLabeling(spec, (along_1, along_2))

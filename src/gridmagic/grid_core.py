"""Grid graphs and their unit-cube subgraphs.

A grid graph with side lengths (n1, ..., nd) has vertex set
[n1] x ... x [nd] (1-based lattice points); two points are adjacent when
they differ by one in exactly one coordinate. The subgraphs isomorphic to
the d-cube are exactly the axis-aligned unit cubes, one per corner in
[n1-1] x ... x [nd-1], which is what makes exhaustive verification a
simple sweep instead of a subgraph-isomorphism search. They cover every
edge, so `check_h_covering` answers from the side lengths alone.

Side lengths are kept in non-increasing order (the labeling constructions
require it); `canonicalize` sorts arbitrary user input and reports where
each axis went so callers can translate coordinates back and forth.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    CoordOutOfRange,
    DimensionOrderViolation,
    DimensionTooSmall,
    Overflow,
)

# Counts, ranks and cube sums all live in signed 64-bit range; specs whose
# element count would not fit are refused at construction time.
MAX_ELEMENT_COUNT = 2**62

VertexCoord = tuple[int, ...]


class EdgeId(NamedTuple):
    """Unit edge joining `base` and `base + e_axis`; `axis` is 1-based."""

    base: VertexCoord
    axis: int


class CubeId(NamedTuple):
    """Unit cube on the vertex set ``corner + {0,1}^d``."""

    corner: VertexCoord


def _side_lengths(dims: Sequence[int]) -> tuple[int, ...]:
    """`dims` as ints: at least two, each an integer (numpy ints included) >= 2."""
    try:
        sides = tuple(map(operator.index, dims))
    except TypeError:
        raise DimensionTooSmall(f"side lengths must be integers, got {dims!r}") from None
    if len(sides) < 2:
        raise DimensionTooSmall(f"need at least 2 axes, got {len(sides)}")
    if any(n < 2 for n in sides):
        raise DimensionTooSmall(f"every side length must be >= 2, got {sides}")
    return sides


@dataclass(frozen=True)
class GridSpec:
    """Side lengths of a grid graph, in canonical non-increasing order."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = _side_lengths(self.dims)
        object.__setattr__(self, "dims", dims)
        if any(a < b for a, b in zip(dims, dims[1:])):
            raise DimensionOrderViolation(
                f"side lengths must be non-increasing, got {dims}"
            )
        if self.vertex_count + self.edge_count > MAX_ELEMENT_COUNT:
            raise Overflow(f"|V|+|E| of {dims} exceeds {MAX_ELEMENT_COUNT}")

    @property
    def dim(self) -> int:
        return len(self.dims)

    @property
    def vertex_count(self) -> int:
        count = 1
        for n in self.dims:
            count *= n
        return count

    @property
    def edge_count(self) -> int:
        return sum(map(math.prod, self.edge_shapes))

    @property
    def cube_count(self) -> int:
        count = 1
        for n in self.dims:
            count *= n - 1
        return count

    @property
    def cube_edge_count(self) -> int:
        """Number of edges of a single d-cube."""
        return self.dim * 2 ** (self.dim - 1)

    @functools.cached_property
    def edge_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Per axis, the shape of its edge bases: `dims` with that axis one shorter.

        This is the edge layout: edges are grouped by axis ascending, and
        within an axis their bases run row-major over its shape. Built once
        per spec.
        """
        dims = self.dims
        return tuple(dims[:a] + (n - 1,) + dims[a + 1 :] for a, n in enumerate(dims))


def canonicalize(dims: Sequence[int]) -> tuple[GridSpec, tuple[int, ...]]:
    """Sort side lengths into non-increasing order, stably.

    Returns the canonical spec together with the 1-based axis permutation:
    caller axis ``i`` lands at canonical position ``perm[i-1]``. Equal side
    lengths keep their original relative order.
    """
    entries = _side_lengths(dims)
    order = sorted(range(len(entries)), key=lambda i: (-entries[i], i))
    perm = [0] * len(entries)
    for canonical_pos, caller_axis in enumerate(order, start=1):
        perm[caller_axis] = canonical_pos
    spec = GridSpec(tuple(entries[i] for i in order))
    return spec, tuple(perm)


def _index(x: object, what: str) -> int:
    """`x` as an int, for anything numpy or Python accepts as an index."""
    try:
        return operator.index(x)
    except TypeError:
        raise CoordOutOfRange(f"{what} {x!r} is not an integer") from None


def _checked_coord(spec: GridSpec, v: VertexCoord) -> list[int]:
    """`v` as Python ints, if it is a vertex of the grid."""
    coords = [_index(c, "coordinate") for c in v]
    if len(coords) != spec.dim:
        raise CoordOutOfRange(f"{v} not a vertex of the {spec.dims} grid")
    for c, n in zip(coords, spec.dims):
        if not 1 <= c <= n:
            raise CoordOutOfRange(f"{v} not a vertex of the {spec.dims} grid")
    return coords


def vertex_rank(spec: GridSpec, v: VertexCoord) -> int:
    """Row-major position of a vertex, in [0, |V|)."""
    rank = 0
    for c, n in zip(_checked_coord(spec, v), spec.dims):
        rank = rank * n + (c - 1)
    return rank


def vertex_unrank(spec: GridSpec, rank: int) -> VertexCoord:
    """Inverse of `vertex_rank`."""
    rank = _index(rank, "rank")
    if not 0 <= rank < spec.vertex_count:
        raise CoordOutOfRange(f"rank {rank} not in [0, {spec.vertex_count})")
    coords = []
    for n in reversed(spec.dims):
        coords.append(rank % n + 1)
        rank //= n
    return tuple(reversed(coords))


def enumerate_vertices(spec: GridSpec) -> Iterator[VertexCoord]:
    """All vertices in row-major (rank) order."""
    return itertools.product(*(range(1, n + 1) for n in spec.dims))


def enumerate_edges(spec: GridSpec) -> Iterator[EdgeId]:
    """All edges, grouped by axis ascending, bases in row-major order."""
    for axis, shape in enumerate(spec.edge_shapes, start=1):
        for base in itertools.product(*(range(1, n + 1) for n in shape)):
            yield EdgeId(base, axis)


def _checked_edge(spec: GridSpec, e: EdgeId) -> tuple[list[int], int]:
    """The base and axis of `e` as Python ints, if it is an edge of the grid."""
    axis = _index(e.axis, "axis")
    if not 1 <= axis <= spec.dim:
        raise CoordOutOfRange(f"axis {e.axis} not in [1, {spec.dim}]")
    base = _checked_coord(spec, e.base)
    if base[axis - 1] >= spec.dims[axis - 1]:
        raise CoordOutOfRange(f"edge base {e.base} has no room along axis {e.axis}")
    return base, axis


def edge_rank(spec: GridSpec, e: EdgeId) -> int:
    """Position of an edge in `enumerate_edges` order."""
    base, axis = _checked_edge(spec, e)
    shapes = spec.edge_shapes
    within = 0
    for c, n in zip(base, shapes[axis - 1]):
        within = within * n + (c - 1)
    return sum(map(math.prod, shapes[: axis - 1])) + within


def edge_row_shapes(spec: GridSpec, rows: range) -> tuple[tuple[int, ...], ...]:
    """`spec.edge_shapes` cut to the edges based in `rows`, a range of 0-based leading coordinates."""
    if len(rows) == spec.dims[0]:  # every row: the cached table, not ~5 us of tuples per call
        return spec.edge_shapes
    return tuple((len(range(s[0])[rows.start : rows.stop]),) + s[1:] for s in spec.edge_shapes)


def split_edge_labels(
    spec: GridSpec, labels: np.ndarray, rows: range | None = None
) -> tuple[np.ndarray, ...]:
    """Labels in edge enumeration order, along the last axis, as per-axis arrays.

    The axis-a array has shape ``spec.edge_shapes[a-1]``, behind any
    leading (batch) axes of `labels`; each is a view. Given `rows`,
    `labels` holds only the edges based in those leading rows, axis by
    axis, and the shapes are `edge_row_shapes(spec, rows)`.
    """
    per_axis, start, batch = [], 0, labels.shape[:-1]
    for shape in spec.edge_shapes if rows is None else edge_row_shapes(spec, rows):
        stop = start + math.prod(shape)
        per_axis.append(labels[..., start:stop].reshape(*batch, *shape))
        start = stop
    return tuple(per_axis)


def edge_endpoints(e: EdgeId) -> tuple[VertexCoord, VertexCoord]:
    """Both endpoints of an edge, base first."""
    other = tuple(c + 1 if i == e.axis - 1 else c for i, c in enumerate(e.base))
    return e.base, other


def enumerate_cubes(spec: GridSpec) -> Iterator[CubeId]:
    """All unit cubes, corners in row-major order."""
    for corner in itertools.product(*(range(1, n) for n in spec.dims)):
        yield CubeId(corner)


def cube_vertices(cube: CubeId) -> list[VertexCoord]:
    """The 2^d vertices of a unit cube, in binary-offset order."""
    corner = cube.corner
    return [
        tuple(c + o for c, o in zip(corner, offsets))
        for offsets in itertools.product((0, 1), repeat=len(corner))
    ]


def cube_edges(cube: CubeId) -> list[EdgeId]:
    """The d * 2^(d-1) edges of a unit cube, grouped by axis."""
    corner = cube.corner
    d = len(corner)
    edges = []
    for axis in range(1, d + 1):
        for offsets in itertools.product((0, 1), repeat=d - 1):
            it = iter(offsets)
            base = tuple(
                c if i == axis - 1 else c + next(it) for i, c in enumerate(corner)
            )
            edges.append(EdgeId(base, axis))
    return edges


def check_h_covering(spec: GridSpec) -> bool:
    """Whether every edge lies in at least one unit cube: True for any valid spec.

    An axis-a edge at base x lies in the cube whose corner keeps x_a and
    clamps each other coordinate to min(x_j, n_j - 1); that corner exists
    exactly when every side is >= 2, which `GridSpec` enforces.
    """
    return all(n >= 2 for n in spec.dims)

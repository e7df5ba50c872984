"""Lifting magic labelings from d-1 to d dimensions.

A d-dimensional grid is a stack of n_d layers, each a copy of the
(d-1)-dimensional grid, plus connecting edges between consecutive layers.
Vertex labels are lifted by adding a whole-layer offset to the base
labeling, counting layers forward on vertices with even coordinate sum and
backward on odd ones, so the two directions cancel inside every cube.
In-layer edges are lifted the same way with per-layer offsets chosen by
the parity of the edge's axis (or, for the last in-layer axis when the
target dimension is even, by the parity of the base vertex's leading
coordinates). Connecting edges get fresh labels above all in-layer ones,
derived from the base vertex labeling.

Each lift preserves the magic property, so iterating from the
two-dimensional base case yields magic labelings for every dimension;
`combine_supermagic` then merges a vertex and an edge labeling into one
total labeling whose vertex labels are exactly [1, |V|].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import SpecMismatch
from .grid_core import GridSpec
from .labeling_2d import (
    EdgeLabeling,
    VertexLabeling,
    base_edge_labeling,
    base_vertex_labeling,
    edge_labeling_from_flat,
    split_edge_labels,
    vertex_labeling_from_flat,
)


class LayerCounts(NamedTuple):
    """Vertex and edge counts of a single fixed-last-coordinate layer."""

    vertices: int
    edges: int


@dataclass(frozen=True, eq=False)
class TotalLabeling:
    """A vertex labeling and an edge labeling of one grid, read as one labeling.

    Each part keeps its own buffer, so ``total.vertex.flat`` and
    ``total.edge.flat`` copy nothing. For constructed instances the vertex
    part occupies exactly [1, |V|] and the edge part [|V|+1, |V|+|E|];
    like its parts, the type itself admits arbitrary candidates.
    """

    vertex: VertexLabeling
    edge: EdgeLabeling

    def __post_init__(self):
        if self.vertex.spec != self.edge.spec:
            raise SpecMismatch(
                f"vertex labeling over {self.vertex.spec.dims} "
                f"but edge labeling over {self.edge.spec.dims}"
            )

    @property
    def spec(self) -> GridSpec:
        return self.vertex.spec


def layer_counts(spec: GridSpec) -> LayerCounts:
    """Counts for one layer of a stacked grid (spec must have dim >= 3)."""
    base = spec.prefix()
    return LayerCounts(base.vertex_count, base.edge_count)


def _coord_parity(shape: tuple[int, ...], axes: Iterable[int] | None = None) -> np.ndarray:
    """Parity of the 1-based coordinate sum over `axes` (default: all)."""
    out = np.zeros(shape, dtype=np.int64)
    for a in range(len(shape)) if axes is None else axes:
        view = [1] * len(shape)
        view[a] = shape[a]
        out = out + np.arange(1, shape[a] + 1, dtype=np.int64).reshape(view) % 2
    return out % 2


def extend_vertex_labeling(base: VertexLabeling, nd: int) -> VertexLabeling:
    """Lift a magic vertex labeling by one dimension (nd layers).

    `GridSpec` checks `nd` as a new last side, so it must be an integer
    from 2 up to the base's last side.
    """
    spec = GridSpec(base.spec.dims + (nd,))
    nd = spec.dims[-1]
    layer_size = base.spec.vertex_count
    parity = _coord_parity(base.spec.dims)
    x = np.arange(1, nd + 1, dtype=np.int64)
    offsets = np.where(parity[..., None] == 0, (x - 1) * layer_size, (nd - x) * layer_size)
    return VertexLabeling(spec, base.grid[..., None] + offsets)


def extend_edge_labeling(base_f: VertexLabeling, base_g: EdgeLabeling, nd: int) -> EdgeLabeling:
    """Lift a magic edge labeling by one dimension.

    Needs the matching vertex labeling of the layer grid: connecting-edge
    labels are built from it. In-layer labels keep the base label plus a
    multiple of the layer edge count; connecting labels sit in the block
    above nd * layer_edges.
    """
    if base_f.spec != base_g.spec:
        raise SpecMismatch(
            f"vertex labeling over {base_f.spec.dims} but edge labeling over {base_g.spec.dims}"
        )
    spec = GridSpec(base_f.spec.dims + (nd,))  # checks nd as extend_vertex_labeling does
    nd = spec.dims[-1]
    d = spec.dim
    per_layer = layer_counts(spec)

    x = np.arange(1, nd + 1, dtype=np.int64)
    forward = (x - 1) * per_layer.edges
    backward = (nd - x) * per_layer.edges

    flat = np.empty(spec.edge_count, dtype=np.int64)
    per_axis = split_edge_labels(spec, flat)
    for axis, arr in enumerate(base_g.per_axis, start=1):
        if d % 2 == 0 and axis == d - 1:
            # even target dimension: the last in-layer axis switches on the
            # parity of the base vertex's first d-2 coordinates
            parity = _coord_parity(arr.shape, axes=range(d - 2))
            offsets = np.where(parity[..., None] == 1, forward, backward)
        else:
            offsets = forward if axis % 2 == 1 else backward
        np.add(arr[..., None], offsets, out=per_axis[axis - 1])

    # connecting edges: base coordinate x_d runs over [1, nd-1]
    t = np.arange(1, nd, dtype=np.int64)
    parity = _coord_parity(base_f.spec.dims)
    offsets = nd * per_layer.edges + np.where(
        parity[..., None] == 1,
        (t - 1) * per_layer.vertices,
        (nd - 1 - t) * per_layer.vertices,
    )
    np.add(base_f.grid[..., None], offsets, out=per_axis[-1])
    return EdgeLabeling(spec, flat)


def build_labelings(spec: GridSpec) -> tuple[VertexLabeling, EdgeLabeling]:
    """Magic vertex and edge labelings for any canonical spec."""
    f = base_vertex_labeling(spec.dims[0], spec.dims[1])
    g = base_edge_labeling(spec.dims[0], spec.dims[1])
    for k in range(3, spec.dim + 1):
        nd = spec.dims[k - 1]
        g = extend_edge_labeling(f, g, nd)
        f = extend_vertex_labeling(f, nd)
    return f, g


def total_labeling_from_flats(
    spec: GridSpec,
    vertex_flat: np.ndarray | list[int],
    edge_flat: np.ndarray | list[int],
) -> TotalLabeling:
    """Rebuild a total labeling from flat vertex and edge label arrays."""
    return TotalLabeling(
        vertex_labeling_from_flat(spec, vertex_flat), edge_labeling_from_flat(spec, edge_flat)
    )


def combine_supermagic(f: VertexLabeling, g: EdgeLabeling) -> TotalLabeling:
    """Merge vertex and edge labelings, shifting edge labels above |V|."""
    return TotalLabeling(f, EdgeLabeling(g.spec, g.flat + f.spec.vertex_count))


def constructed_parts(spec: GridSpec, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The vertex and edge labels of the constructed `kind` labeling; a lacking part is empty.

    `kind` is "vertex", "edge" or "total" (`combine_supermagic` of the two).
    """
    f, g = build_labelings(spec)
    empty = np.empty(0, dtype=np.int64)
    if kind == "vertex":
        return f.flat, empty
    if kind == "edge":
        return empty, g.flat
    total = combine_supermagic(f, g)
    return total.vertex.flat, total.edge.flat

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
derived from the base vertex labeling. Every such lift is an arithmetic
progression along the new axis, written layer by layer when that axis is
short.

Each lift preserves the magic property, so iterating from the
two-dimensional base case yields magic labelings for every dimension;
`combine_supermagic` then merges a vertex and an edge labeling into one
total labeling whose vertex labels are exactly [1, |V|]. A lift keeps
the leading rows its base holds and lifts them alone, so `labeling_rows`
builds any range of leading rows from the closed forms, and
`build_labelings` is that range over every row. A total labeling's two
parts hold the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import SpecMismatch
from .grid_core import GridSpec
from .labeling_2d import (
    EdgeLabeling,
    VertexLabeling,
    base_edge_labeling,
    base_vertex_labeling,
    edge_buffer,
    edge_labeling_from_flat,
    vertex_labeling_from_flat,
)


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
        if (self.vertex.spec, self.vertex.rows) != (self.edge.spec, self.edge.rows):
            raise SpecMismatch(
                f"vertex labeling of rows {self.vertex.rows} over {self.vertex.spec.dims} "
                f"but edge labeling of rows {self.edge.rows} over {self.edge.spec.dims}"
            )

    @property
    def spec(self) -> GridSpec:
        return self.vertex.spec


def _coord_parity(
    shape: tuple[int, ...], axes: Iterable[int] | None = None, first_row: int = 0
) -> np.ndarray:
    """Parity (0 or 1, uint8) of the 1-based coordinate sum over `axes` (default: all).

    The result broadcasts against `shape`: it has length 1 on every axis
    left out of the sum. The leading axis starts at row `first_row`
    (0-based), so that rows cut from a grid keep the grid's parity.
    """
    out = np.zeros((1,) * len(shape), dtype=np.uint8)
    for a in range(len(shape)) if axes is None else axes:
        view = [1] * len(shape)
        view[a] = shape[a]
        first = 1 + (first_row if a == 0 else 0)
        out = out ^ (np.arange(first, first + shape[a]) % 2).astype(np.uint8).reshape(view)
    return out


# Up to this many layers a lift is written one layer at a time, so every pass
# runs along a whole layer rather than along the new axis, which canonical
# order makes the shortest (2-6 labels on most d >= 4 specs). Past it the
# strided layer writes cost more than numpy's per-loop overhead saves, and the
# new axis goes innermost again. Measured with numpy 2.4.6 on a 2-core x86
# host, best of 20: layer by layer, (4,)^9 builds in 5.5-8.4 ms against
# 12.2-17.8 ms as one broadcast per lift, but (60,60,55), whose new side is
# 55, takes 2.8-3.4 ms against 1.5-2.0 ms.
_LAYERWISE_MAX_SIDE = 8


def _write_layers(
    out: np.ndarray, base: np.ndarray, step: int, backward: bool | np.ndarray, shift: int = 0
) -> None:
    """Write ``out[..., t] = base + shift + k * step`` for every layer t.

    Over the n = ``out.shape[-1]`` layers, k = t where `backward` is false
    and k = n - 1 - t where it is true; `backward` is a bool or an array that
    broadcasts against `base`. Layer t is thus first + t * delta, with
    `first` and `delta` built once at the base's shape.
    """
    n = out.shape[-1]
    first = np.where(backward, (n - 1) * step, 0) + shift
    delta = np.where(backward, -step, step)
    if n <= _LAYERWISE_MAX_SIDE:
        np.add(base, first, out=out[..., 0])
        for t in range(1, n):
            np.add(out[..., t - 1], delta, out=out[..., t])
    else:
        t = np.arange(n, dtype=np.int64)
        np.add((base + first)[..., None], delta[..., None] * t, out=out)


def extend_vertex_labeling(base: VertexLabeling, nd: int) -> VertexLabeling:
    """Lift a magic vertex labeling by one dimension (nd layers).

    `GridSpec` checks `nd` as a new last side, so it must be an integer
    from 2 up to the base's last side. The lift holds the base's leading
    rows.
    """
    spec = GridSpec(base.spec.dims + (nd,))
    grid = np.empty(base.grid.shape + (spec.dims[-1],), dtype=np.int64)
    # layers count forward on even coordinate sums, backward on odd ones
    parity = _coord_parity(base.grid.shape, first_row=base.rows.start)
    _write_layers(grid, base.grid, base.spec.vertex_count, parity)
    return VertexLabeling(spec, grid, base.rows)


def extend_edge_labeling(base_f: VertexLabeling, base_g: EdgeLabeling, nd: int) -> EdgeLabeling:
    """Lift a magic edge labeling by one dimension.

    Needs the matching vertex labeling of the layer grid: connecting-edge
    labels are built from it. In-layer labels keep the base label plus a
    multiple of the layer edge count; connecting labels sit in the block
    above nd * layer_edges. The two bases hold the same leading rows, and
    so does the lift.
    """
    if (base_f.spec, base_f.rows) != (base_g.spec, base_g.rows):
        raise SpecMismatch(
            f"vertex labeling of rows {base_f.rows} over {base_f.spec.dims} "
            f"but edge labeling of rows {base_g.rows} over {base_g.spec.dims}"
        )
    spec = GridSpec(base_f.spec.dims + (nd,))  # checks nd as extend_vertex_labeling does
    nd = spec.dims[-1]
    d = spec.dim
    layer, first_row = base_f.spec, base_f.rows.start

    flat, per_axis = edge_buffer(spec, base_f.rows)
    for axis, arr in enumerate(base_g.per_axis, start=1):
        if d % 2 == 0 and axis == d - 1:
            # even target dimension: the last in-layer axis counts forward on
            # odd coordinate sums over the base vertex's first d-2 axes
            backward = _coord_parity(arr.shape, range(d - 2), first_row) == 0
        else:
            backward = axis % 2 == 0
        _write_layers(per_axis[axis - 1], arr, layer.edge_count, backward)

    # connecting edges: one layer per base coordinate x_d in [1, nd-1], above
    # all nd * layer.edge_count in-layer labels, forward on odd coordinate sums
    backward = _coord_parity(base_f.grid.shape, first_row=first_row) == 0
    _write_layers(per_axis[-1], base_f.grid, layer.vertex_count, backward, nd * layer.edge_count)
    return EdgeLabeling(spec, flat, base_g.rows)


def labeling_rows(spec: GridSpec, rows: range) -> tuple[VertexLabeling, EdgeLabeling]:
    """The constructed vertex and edge labels of leading rows `rows`, from the closed forms.

    The 2-d base formulas give those rows of the first two axes; each lift
    then adds its layers with the whole layer grid's counts as steps, and
    with the parity of the leading coordinate counted from `rows.start`.
    """
    n1, n2 = spec.dims[:2]
    f = base_vertex_labeling(n1, n2, rows)
    g = base_edge_labeling(n1, n2, rows)
    for nd in spec.dims[2:]:
        g = extend_edge_labeling(f, g, nd)
        f = extend_vertex_labeling(f, nd)
    return f, g


def build_labelings(spec: GridSpec) -> tuple[VertexLabeling, EdgeLabeling]:
    """Magic vertex and edge labelings for any canonical spec: `labeling_rows` of every row."""
    return labeling_rows(spec, range(spec.dims[0]))


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
    return TotalLabeling(f, EdgeLabeling(g.spec, g.flat + f.spec.vertex_count, g.rows))


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

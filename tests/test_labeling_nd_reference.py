"""The layer-by-layer dimension lift against the broadcast lift it replaced.

`reference_extend_vertex_labeling` and `reference_extend_edge_labeling` are
the old bodies: each lift is one numpy broadcast whose innermost axis is the
new side, with int64 coordinate parities and full-size `np.where` offsets
where the direction switches on parity. The lift now writes short new sides
one layer at a time and long ones as a broadcast; both orders, and the
parity-switched in-layer axis of even target dimensions, must give exactly
the old labels. `labeling_rows` builds any range of leading rows alone,
and must give the same rows as the whole build.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pytest

from conftest import PINNED_SPECS, random_canonical_specs
from gridmagic import (
    CoordOutOfRange,
    EdgeLabeling,
    GridSpec,
    SpecMismatch,
    VertexLabeling,
    base_edge_labeling,
    base_vertex_labeling,
    build_labelings,
    extend_edge_labeling,
    extend_vertex_labeling,
)
from gridmagic.grid_core import split_edge_labels
from gridmagic.labeling_nd import labeling_rows


def reference_coord_parity(shape: tuple[int, ...], axes: Iterable[int] | None = None) -> np.ndarray:
    """Parity of the 1-based coordinate sum over `axes` (default: all)."""
    out = np.zeros(shape, dtype=np.int64)
    for a in range(len(shape)) if axes is None else axes:
        view = [1] * len(shape)
        view[a] = shape[a]
        out = out + np.arange(1, shape[a] + 1, dtype=np.int64).reshape(view) % 2
    return out % 2


def reference_extend_vertex_labeling(base: VertexLabeling, nd: int) -> VertexLabeling:
    spec = GridSpec(base.spec.dims + (nd,))
    nd = spec.dims[-1]
    layer_size = base.spec.vertex_count
    parity = reference_coord_parity(base.spec.dims)
    x = np.arange(1, nd + 1, dtype=np.int64)
    offsets = np.where(parity[..., None] == 0, (x - 1) * layer_size, (nd - x) * layer_size)
    return VertexLabeling(spec, base.grid[..., None] + offsets)


def reference_extend_edge_labeling(
    base_f: VertexLabeling, base_g: EdgeLabeling, nd: int
) -> EdgeLabeling:
    spec = GridSpec(base_f.spec.dims + (nd,))
    nd = spec.dims[-1]
    d = spec.dim
    per_layer = GridSpec(spec.dims[:-1])

    x = np.arange(1, nd + 1, dtype=np.int64)
    forward = (x - 1) * per_layer.edge_count
    backward = (nd - x) * per_layer.edge_count

    flat = np.empty(spec.edge_count, dtype=np.int64)
    per_axis = split_edge_labels(spec, flat)
    for axis, arr in enumerate(base_g.per_axis, start=1):
        if d % 2 == 0 and axis == d - 1:
            parity = reference_coord_parity(arr.shape, axes=range(d - 2))
            offsets = np.where(parity[..., None] == 1, forward, backward)
        else:
            offsets = forward if axis % 2 == 1 else backward
        np.add(arr[..., None], offsets, out=per_axis[axis - 1])

    t = np.arange(1, nd, dtype=np.int64)
    parity = reference_coord_parity(base_f.spec.dims)
    offsets = nd * per_layer.edge_count + np.where(
        parity[..., None] == 1,
        (t - 1) * per_layer.vertex_count,
        (nd - 1 - t) * per_layer.vertex_count,
    )
    np.add(base_f.grid[..., None], offsets, out=per_axis[-1])
    return EdgeLabeling(spec, flat)


def reference_build_labelings(spec: GridSpec) -> tuple[VertexLabeling, EdgeLabeling]:
    f = base_vertex_labeling(spec.dims[0], spec.dims[1])
    g = base_edge_labeling(spec.dims[0], spec.dims[1])
    for k in range(3, spec.dim + 1):
        nd = spec.dims[k - 1]
        g = reference_extend_edge_labeling(f, g, nd)
        f = reference_extend_vertex_labeling(f, nd)
    return f, g


def _assert_same_labels(got, want) -> None:
    (got_f, got_g), (want_f, want_g) = got, want
    assert got_f.spec == want_f.spec and got_g.spec == want_g.spec
    assert np.array_equal(got_f.flat, want_f.flat)
    assert np.array_equal(got_g.flat, want_g.flat)


def test_suite_builds_match_reference():
    for spec in random_canonical_specs():
        _assert_same_labels(build_labelings(spec), reference_build_labelings(spec))


@pytest.mark.parametrize("dims", [(2,) * d for d in range(2, 9)] + [(4,) * 9])
def test_all_twos_and_wide_builds_match_reference(dims):
    spec = GridSpec(dims)
    _assert_same_labels(build_labelings(spec), reference_build_labelings(spec))


# Lifted to dimensions 3 (odd), 4 (even: the parity-switched in-layer axis)
# and 5 (odd) by every new side from 2 to 12, short and long alike.
LIFT_BASES = [(13, 12), (12, 12, 12), (12, 12, 12, 12)]


@pytest.mark.parametrize("base_dims", LIFT_BASES)
@pytest.mark.parametrize("nd", list(range(2, 13)) + [np.int64(5), np.uint8(11)])
def test_single_lifts_match_reference(base_dims, nd):
    f, g = build_labelings(GridSpec(base_dims))
    got = extend_vertex_labeling(f, nd), extend_edge_labeling(f, g, nd)
    want = reference_extend_vertex_labeling(f, nd), reference_extend_edge_labeling(f, g, nd)
    _assert_same_labels(got, want)


def _row_ranges(n1: int) -> list[range]:
    """Single rows (the first, an odd one, the last), ranges from odd starts, and the last rows."""
    ranges = [range(0, 1), range(1, 2), range(n1 - 1, n1), range(1, n1), range(n1 // 2, n1)]
    if n1 > 3:
        ranges += [range(1, 4), range(3, n1 - 1)]
    return [r for r in ranges if len(r)]


def _assert_rows_match(spec: GridSpec, f, g) -> None:
    for rows in _row_ranges(spec.dims[0]):
        got_f, got_g = labeling_rows(spec, rows)
        assert (got_f.rows, got_g.rows) == (rows, rows)
        assert np.array_equal(got_f.grid, f.grid[rows.start : rows.stop])
        assert len(got_g.per_axis) == spec.dim
        for got, want in zip(got_g.per_axis, g.per_axis):
            assert np.array_equal(got, want[rows.start : rows.stop]), rows


def test_suite_rows_match_whole_builds():
    for spec in random_canonical_specs():
        _assert_rows_match(spec, *build_labelings(spec))


@pytest.mark.parametrize("dims", PINNED_SPECS + [(4,) * 9])
def test_pinned_rows_match_reference(dims):
    spec = GridSpec(dims)
    _assert_rows_match(spec, *reference_build_labelings(spec))


def test_rows_of_a_labeling_lift_to_the_same_rows():
    f, g = build_labelings(GridSpec((6, 5, 3)))
    whole_f, whole_g = extend_vertex_labeling(f, 3), extend_edge_labeling(f, g, 3)
    rows = range(1, 4)
    part_f, part_g = labeling_rows(GridSpec((6, 5, 3)), rows)
    lifted_f, lifted_g = extend_vertex_labeling(part_f, 3), extend_edge_labeling(part_f, part_g, 3)
    assert lifted_f.rows == rows and whole_f.rows == range(6)
    assert np.array_equal(lifted_f.grid, whole_f.grid[1:4])
    for got, want in zip(lifted_g.per_axis, whole_g.per_axis):
        assert np.array_equal(got, want[1:4])


@pytest.mark.parametrize("rows", [range(0, 7), range(-1, 2), range(3, 2), range(0, 4, 2), [0, 1]])
def test_rows_outside_the_leading_axis_are_refused(rows):
    f, g = build_labelings(GridSpec((6, 5)))
    for build in (
        lambda: base_vertex_labeling(6, 5, rows),
        lambda: base_edge_labeling(6, 5, rows),
        lambda: VertexLabeling(f.spec, f.grid, rows),
        lambda: EdgeLabeling(g.spec, g.flat, rows),
    ):
        with pytest.raises(CoordOutOfRange):
            build()


def test_arrays_that_do_not_fit_their_rows_are_refused():
    spec = GridSpec((6, 5))
    f, g = build_labelings(spec)
    part_f, part_g = labeling_rows(spec, range(1, 3))
    for build in (
        lambda: VertexLabeling(spec, f.grid, range(1, 3)),
        lambda: VertexLabeling(spec, part_f.grid),
        lambda: EdgeLabeling(spec, g.flat, range(1, 3)),
        lambda: EdgeLabeling(spec, part_g.flat),
        lambda: EdgeLabeling(spec, part_g.flat[1:], range(1, 3)),
    ):
        with pytest.raises(SpecMismatch):
            build()


def test_lifts_refuse_rows_that_differ():
    spec = GridSpec((6, 5, 3))
    f, _ = labeling_rows(spec, range(0, 2))
    _, g = labeling_rows(spec, range(1, 3))
    # the message `TotalLabeling` gives for the two bases
    message = (
        r"^vertex labeling of rows range\(0, 2\) over \(6, 5, 3\) "
        r"but edge labeling of rows range\(1, 3\) over \(6, 5, 3\)$"
    )
    with pytest.raises(SpecMismatch, match=message):
        extend_edge_labeling(f, g, 2)

"""Dimension lifting: known values, label-range partition, per-part cube sums."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_edge_cube_sums, brute_vertex_cube_sums
from gridmagic import (
    DimensionOrderViolation,
    DimensionTooSmall,
    EdgeId,
    GridSpec,
    SpecMismatch,
    TotalLabeling,
    base_edge_labeling,
    base_vertex_labeling,
    build_labelings,
    closed_form_sums,
    combine_supermagic,
    cube_edges,
    enumerate_cubes,
    extend_edge_labeling,
    extend_vertex_labeling,
    labeling_nd,
    verify_edge_magic,
    verify_supermagic,
    verify_vertex_magic,
)


@st.composite
def stacked_specs(draw, max_d=5, max_n=4):
    d = draw(st.integers(3, max_d))
    dims = sorted((draw(st.integers(2, max_n)) for _ in range(d)), reverse=True)
    return GridSpec(tuple(dims))


def test_extended_vertex_values_grid533():
    f2 = base_vertex_labeling(5, 3)
    f = extend_vertex_labeling(f2, 3)
    assert f.label((2, 1, 2)) == 27 == 12 + 15
    assert f.label((3, 1, 1)) == 7
    assert f.label((2, 2, 1)) == 5
    assert f.label((3, 2, 1)) == 38 == 8 + 2 * 15


def test_extended_vertex_cube_sum_grid533():
    f2 = base_vertex_labeling(5, 3)
    f = extend_vertex_labeling(f2, 3)
    sums = set(brute_vertex_cube_sums(f.spec, f))
    assert sums == {184}


def test_extended_vertex_all_twos():
    f = extend_vertex_labeling(base_vertex_labeling(2, 2), 2)
    assert sorted(f.flat.tolist()) == list(range(1, 9))
    assert brute_vertex_cube_sums(f.spec, f) == [36]


def test_extended_edge_values_grid533():
    f2, g2 = base_vertex_labeling(5, 3), base_edge_labeling(5, 3)
    g = extend_edge_labeling(f2, g2, 3)
    # connecting edges
    assert g.label(EdgeId((2, 1, 1), 3)) == 78 == 12 + 3 * 22
    assert g.label(EdgeId((3, 1, 1), 3)) == 88 == 7 + 3 * 22 + 15
    # in-layer edges
    assert g.label(EdgeId((2, 1, 1), 1)) == 15
    assert g.label(EdgeId((2, 1, 2), 1)) == 37
    assert g.label(EdgeId((2, 1, 1), 2)) == 50


def test_extended_edge_cube_sum_grid533():
    f2, g2 = base_vertex_labeling(5, 3), base_edge_labeling(5, 3)
    g = extend_edge_labeling(f2, g2, 3)
    sums = set(brute_edge_cube_sums(g.spec, g))
    assert sums == {594}


def test_extended_edge_all_twos():
    f2, g2 = base_vertex_labeling(2, 2), base_edge_labeling(2, 2)
    g = extend_edge_labeling(f2, g2, 2)
    assert sorted(g.flat.tolist()) == list(range(1, 13))
    assert brute_edge_cube_sums(g.spec, g) == [78]


def test_extension_rejects_bad_side_lengths():
    f2, g2 = base_vertex_labeling(3, 3), base_edge_labeling(3, 3)
    with pytest.raises(DimensionOrderViolation):
        extend_vertex_labeling(f2, 4)
    with pytest.raises(DimensionTooSmall):
        extend_vertex_labeling(f2, 1)
    with pytest.raises(DimensionOrderViolation):
        extend_edge_labeling(f2, g2, 4)
    with pytest.raises(SpecMismatch):
        extend_edge_labeling(base_vertex_labeling(4, 3), g2, 2)


@pytest.mark.parametrize("nd", [2.9, 2.0, "2", None])
def test_extension_refuses_a_side_that_is_not_an_integer(nd):
    # as GridSpec refuses it, before any label is built
    f2, g2 = base_vertex_labeling(3, 2), base_edge_labeling(3, 2)
    with pytest.raises(DimensionTooSmall, match="side lengths must be integers"):
        extend_vertex_labeling(f2, nd)
    with pytest.raises(DimensionTooSmall, match="side lengths must be integers"):
        extend_edge_labeling(f2, g2, nd)


def test_extension_takes_a_numpy_integer_side():
    f2, g2 = base_vertex_labeling(3, 2), base_edge_labeling(3, 2)
    f, g = extend_vertex_labeling(f2, np.int64(2)), extend_edge_labeling(f2, g2, np.int64(2))
    assert f.spec == g.spec == GridSpec((3, 2, 2))
    assert np.array_equal(f.grid, extend_vertex_labeling(f2, 2).grid)
    assert np.array_equal(g.flat, extend_edge_labeling(f2, g2, 2).flat)


@pytest.mark.parametrize(
    "dims,sums",
    [
        ((5, 3), (32, 46)),
        ((5, 3, 3), (184, 594)),
        ((2, 2, 2, 2), (136, 528)),
    ],
)
def test_build_labelings_magic_sums(dims, sums):
    spec = GridSpec(dims)
    f, g = build_labelings(spec)
    rv, re_ = verify_vertex_magic(spec, f), verify_edge_magic(spec, g)
    assert (rv.magic_sum, re_.magic_sum) == sums
    assert rv.bijective and re_.bijective


def test_build_labelings_lifts_through_the_module_attributes(monkeypatch):
    # the benchmark's per-layer spans wrap these attributes by name
    calls = {"extend_vertex_labeling": 0, "extend_edge_labeling": 0}
    for name in calls:
        inner = getattr(labeling_nd, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(labeling_nd, name, counted)
    spec = GridSpec((5, 4, 3, 2))
    f, g = build_labelings(spec)
    assert calls == {"extend_vertex_labeling": 2, "extend_edge_labeling": 2}
    assert f.spec == g.spec == spec


@pytest.mark.parametrize(
    "dims,total", [((5, 3), 138), ((2, 2), 36), ((5, 3, 3), 1318)]
)
def test_combine_supermagic_totals(dims, total):
    spec = GridSpec(dims)
    f, g = build_labelings(spec)
    report = verify_supermagic(spec, combine_supermagic(f, g))
    assert report.magic and report.bijective
    assert report.magic_sum == total


def test_combined_grid53_matches_two_dimensional_closed_form():
    n1, n2 = 5, 3
    report = verify_supermagic(
        GridSpec((n1, n2)), combine_supermagic(*build_labelings(GridSpec((n1, n2))))
    )
    assert report.magic_sum == 10 * n1 * n2 - 2 * n1 - 2 * n2 + 4 == 138


def test_combine_rejects_mismatched_specs():
    f, _ = build_labelings(GridSpec((3, 2)))
    _, g = build_labelings(GridSpec((4, 2)))
    with pytest.raises(SpecMismatch):
        combine_supermagic(f, g)
    with pytest.raises(SpecMismatch):
        TotalLabeling(f, g)


def test_combine_keeps_the_vertex_buffer():
    f, g = build_labelings(GridSpec((4, 3, 2)))
    assert np.shares_memory(combine_supermagic(f, g).vertex.flat, f.flat)


def test_combine_shifts_each_cube_total_by_cube_edges_times_vertices():
    for dims in [(4, 3), (3, 3, 2), (2, 2, 2, 2)]:
        spec = GridSpec(dims)
        f, g = build_labelings(spec)
        rt = verify_supermagic(spec, combine_supermagic(f, g))
        rv, re_ = verify_vertex_magic(spec, f), verify_edge_magic(spec, g)
        assert rt.magic_sum == rv.magic_sum + re_.magic_sum + spec.cube_edge_count * spec.vertex_count


@settings(max_examples=30, deadline=None)
@given(stacked_specs())
def test_connecting_and_inlayer_labels_partition_range(spec):
    _, g = build_labelings(spec)
    nd = spec.dims[-1]
    layer = GridSpec(spec.dims[:-1])
    connecting = np.sort(g.per_axis[-1].ravel())
    in_layer = np.sort(np.concatenate([arr.ravel() for arr in g.per_axis[:-1]]))
    lo = nd * layer.edge_count
    assert np.array_equal(in_layer, np.arange(1, lo + 1))
    assert np.array_equal(
        connecting, np.arange(lo + 1, lo + (nd - 1) * layer.vertex_count + 1)
    )


@settings(max_examples=20, deadline=None)
@given(stacked_specs(max_d=4))
def test_per_part_cube_sums(spec):
    # stronger than the total: connecting edges and each layer's edges of
    # every cube carry their own fixed sums
    d, nd = spec.dim, spec.dims[-1]
    layer = GridSpec(spec.dims[:-1])
    base_sums = closed_form_sums(layer)
    expected_connecting = (
        base_sums.c_vertex
        + 2 ** (d - 1) * nd * layer.edge_count
        + 2 ** (d - 2) * (nd - 2) * layer.vertex_count
    )
    expected_layer = base_sums.c_edge + (d - 1) * 2 ** (d - 3) * (nd - 1) * layer.edge_count
    f, g = build_labelings(spec)
    for cube in enumerate_cubes(spec):
        connecting = bottom = top = 0
        for e in cube_edges(cube):
            value = g.label(e)
            if e.axis == d:
                connecting += value
            elif e.base[-1] == cube.corner[-1]:
                bottom += value
            else:
                top += value
        assert connecting == expected_connecting
        assert bottom == expected_layer
        assert top == expected_layer


def test_every_intermediate_level_is_magic():
    dims = (4, 3, 3, 2)
    for k in range(2, len(dims) + 1):
        spec = GridSpec(dims[:k])
        f, g = build_labelings(spec)
        assert verify_vertex_magic(spec, f).magic
        assert verify_edge_magic(spec, g).magic

"""Grid model: canonical specs, ranks, enumerations, cubes, covering."""

from __future__ import annotations

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmagic import (
    CoordOutOfRange,
    CubeId,
    DimensionOrderViolation,
    DimensionTooSmall,
    EdgeId,
    GridSpec,
    Overflow,
    build_labelings,
    canonicalize,
    check_h_covering,
    combine_supermagic,
    cube_edges,
    cube_vertices,
    edge_endpoints,
    edge_rank,
    enumerate_cubes,
    enumerate_edges,
    enumerate_vertices,
    vertex_rank,
    vertex_unrank,
)
from gridmagic.grid_core import split_edge_labels


@st.composite
def small_specs(draw, max_d=4, max_n=5):
    d = draw(st.integers(2, max_d))
    dims = sorted((draw(st.integers(2, max_n)) for _ in range(d)), reverse=True)
    return GridSpec(tuple(dims))


def test_canonicalize_sorts_descending_stably():
    spec, perm = canonicalize([3, 5, 3])
    assert spec.dims == (5, 3, 3)
    assert perm == (2, 1, 3)


def test_canonicalize_identity_when_sorted():
    spec, perm = canonicalize([5, 3])
    assert spec.dims == (5, 3)
    assert perm == (1, 2)


def test_canonicalize_rejects_small_input():
    with pytest.raises(DimensionTooSmall):
        canonicalize([2])
    with pytest.raises(DimensionTooSmall):
        canonicalize([4, 1])


@pytest.mark.parametrize("sides", [(3.9, 2), ("3", 2.5), (3, np.float64(2)), (3, None)])
def test_side_lengths_must_be_integers(sides):
    # int() would have read (3.9, 2) as (3, 2) and ("3", 2.5) as (3, 2)
    with pytest.raises(DimensionTooSmall, match="side lengths must be integers"):
        GridSpec(sides)
    with pytest.raises(DimensionTooSmall, match="side lengths must be integers"):
        canonicalize(list(sides))
    spec = GridSpec((np.int64(3), np.int32(2)))
    assert spec.dims == (3, 2) and all(type(n) is int for n in spec.dims)
    assert canonicalize([np.int16(2), np.int64(3)]) == (spec, (2, 1))


def test_gridspec_rejects_noncanonical_and_overflowing():
    with pytest.raises(DimensionOrderViolation):
        GridSpec((3, 5))
    with pytest.raises(DimensionTooSmall):
        GridSpec((5,))
    with pytest.raises(Overflow):
        GridSpec((2**32, 2**32))


def test_counts():
    spec = GridSpec((5, 3))
    assert spec.vertex_count == 15
    assert spec.edge_count == 22
    assert spec.cube_count == 8
    assert GridSpec((5, 3, 3)).edge_count == 96
    # layer decomposition: three 5x3 layers plus two sets of connecting edges
    assert GridSpec((5, 3, 3)).edge_count == 3 * 22 + 2 * 15


def test_vertex_rank_corners():
    spec = GridSpec((5, 3))
    assert vertex_rank(spec, (1, 1)) == 0
    assert vertex_rank(spec, (5, 3)) == spec.vertex_count - 1


def test_vertex_rank_matches_enumeration_order():
    spec = GridSpec((5, 3, 3))
    order = list(enumerate_vertices(spec))
    assert vertex_rank(spec, (2, 1, 2)) == order.index((2, 1, 2)) == 10
    for rank, v in enumerate(order):
        assert vertex_rank(spec, v) == rank


def test_vertex_rank_out_of_range():
    spec = GridSpec((5, 3))
    with pytest.raises(CoordOutOfRange):
        vertex_rank(spec, (6, 1))
    with pytest.raises(CoordOutOfRange):
        vertex_rank(spec, (1, 0))
    with pytest.raises(CoordOutOfRange):
        vertex_unrank(spec, 15)


def _lookups(spec: GridSpec) -> dict:
    f, g = build_labelings(spec)
    total = combine_supermagic(f, g)
    return {
        "vertex_rank": lambda v: vertex_rank(spec, v),
        "vertex.label": f.label,
        "total.vertex.label": total.vertex.label,
        "edge_rank": lambda e: edge_rank(spec, e),
        "edge.label": g.label,
        "total.edge.label": total.edge.label,
    }


@pytest.mark.parametrize("lookup", ["vertex_rank", "vertex.label", "total.vertex.label"])
@pytest.mark.parametrize("v", [(1.5, 1), (2, 1.0), ("1", 1), (None, 1), (np.float64(2), 1)])
def test_vertex_lookups_reject_non_integral_coordinates(lookup, v):
    # a float inside the range would otherwise yield a float rank, e.g. 1.0 for (1.5, 1)
    run = _lookups(GridSpec((3, 2)))[lookup]
    with pytest.raises(CoordOutOfRange):
        run(v)
    assert run((np.int64(3), True)) == run((3, 1))


@pytest.mark.parametrize("lookup", ["edge_rank", "edge.label", "total.edge.label"])
@pytest.mark.parametrize(
    "e",
    [
        EdgeId((1.5, 1), 1),
        EdgeId((1, 1.0), 1),
        EdgeId((1, 1), 1.0),
        EdgeId((1, 1), 1.5),
        EdgeId((1, 1), "2"),
    ],
)
def test_edge_lookups_reject_non_integral_coordinates_and_axes(lookup, e):
    run = _lookups(GridSpec((3, 2)))[lookup]
    with pytest.raises(CoordOutOfRange):
        run(e)
    assert run(EdgeId((np.int64(2), True), np.int64(1))) == run(EdgeId((2, 1), 1))


@pytest.mark.parametrize("rank", [1.5, 1.0, "1", None, np.float64(2)])
def test_vertex_unrank_rejects_a_non_integral_rank(rank):
    # 1.5 would otherwise unrank to (1.0, 2.5)
    with pytest.raises(CoordOutOfRange, match="rank .* is not an integer"):
        vertex_unrank(GridSpec((3, 2)), rank)


@pytest.mark.parametrize(
    "lookup,arg,want",
    [
        ("vertex_rank", (np.int64(2), np.int64(1)), 2),
        ("vertex_rank", (np.uint8(3), np.int32(2)), 5),
        ("edge_rank", EdgeId((np.int64(2), np.int64(1)), np.int64(1)), 2),
        ("edge_rank", EdgeId((np.int16(1), np.int64(1)), np.uint8(2)), 4),
        ("vertex_unrank", np.int64(3), (2, 2)),
        ("vertex_unrank", np.uint16(4), (3, 1)),
    ],
)
def test_ranks_of_numpy_integers_are_python_ints(lookup, arg, want):
    spec = GridSpec((3, 2))
    run = {"vertex_rank": vertex_rank, "edge_rank": edge_rank, "vertex_unrank": vertex_unrank}
    got = run[lookup](spec, arg)
    assert got == want
    for value in got if isinstance(got, tuple) else (got,):
        assert type(value) is int


@settings(max_examples=60, deadline=None)
@given(small_specs(), st.data())
def test_unrank_inverts_rank(spec, data):
    rank = data.draw(st.integers(0, spec.vertex_count - 1))
    assert vertex_rank(spec, vertex_unrank(spec, rank)) == rank


@pytest.mark.parametrize(
    "dims,count", [((2, 2), 4), ((5, 3), 22), ((5, 3, 3), 96)]
)
def test_edge_enumeration_count(dims, count):
    spec = GridSpec(dims)
    edges = list(enumerate_edges(spec))
    assert len(edges) == count == spec.edge_count
    assert len(set(edges)) == count


@settings(max_examples=40, deadline=None)
@given(small_specs())
def test_edge_count_formula_matches_enumeration(spec):
    assert len(list(enumerate_edges(spec))) == spec.edge_count


def test_edge_shapes_are_built_once_and_leave_the_spec_value_alone():
    spec = GridSpec((5, 3, 2))
    assert spec.edge_shapes == ((4, 3, 2), (5, 2, 2), (5, 3, 1))
    assert spec.edge_shapes is spec.edge_shapes
    other = GridSpec((5, 3, 2))
    assert spec == other and hash(spec) == hash(other)
    assert repr(spec) == "GridSpec(dims=(5, 3, 2))"
    assert pickle.loads(pickle.dumps(spec)) == spec


@settings(max_examples=40, deadline=None)
@given(small_specs(max_d=5))
def test_edge_layout_is_one_table_for_ranks_enumeration_and_split(spec):
    assert sum(math.prod(shape) for shape in spec.edge_shapes) == spec.edge_count
    flat = 3 * np.arange(spec.edge_count, dtype=np.int64) + 1  # distinct, and not the ranks
    per_axis = split_edge_labels(spec, flat)
    assert tuple(arr.shape for arr in per_axis) == spec.edge_shapes
    ranks = []
    for e in enumerate_edges(spec):
        rank = edge_rank(spec, e)
        assert per_axis[e.axis - 1][tuple(c - 1 for c in e.base)] == flat[rank]
        ranks.append(rank)
    assert ranks == list(range(spec.edge_count))
    # leading axes of the labels are a batch
    batch = split_edge_labels(spec, np.stack([flat, -flat]))
    for arr, got in zip(per_axis, batch):
        assert np.array_equal(got, np.stack([arr, -arr]))


def test_edge_enumeration_order_and_rank():
    spec = GridSpec((4, 3, 2))
    edges = list(enumerate_edges(spec))
    assert [e.axis for e in edges] == sorted(e.axis for e in edges)
    for pos, e in enumerate(edges):
        assert edge_rank(spec, e) == pos
    with pytest.raises(CoordOutOfRange):
        edge_rank(spec, EdgeId((4, 1, 1), 1))  # no room along axis 1
    with pytest.raises(CoordOutOfRange):
        edge_rank(spec, EdgeId((1, 1, 1), 4))


def test_edge_endpoints():
    assert edge_endpoints(EdgeId((2, 3), 1)) == ((2, 3), (3, 3))
    assert edge_endpoints(EdgeId((2, 3, 1), 3)) == ((2, 3, 1), (2, 3, 2))


@pytest.mark.parametrize("dims,count", [((2, 2), 1), ((5, 3), 8), ((5, 3, 3), 16)])
def test_cube_enumeration_count(dims, count):
    spec = GridSpec(dims)
    cubes = list(enumerate_cubes(spec))
    assert len(cubes) == count == spec.cube_count


def test_cube_vertices_of_known_cube():
    got = set(cube_vertices(CubeId((2, 1, 1))))
    assert got == {
        (2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2),
        (3, 2, 1), (3, 1, 2), (2, 2, 2), (3, 2, 2),
    }


def test_cube_vertices_of_single_square():
    assert set(cube_vertices(CubeId((1, 1)))) == {(1, 1), (1, 2), (2, 1), (2, 2)}


@settings(max_examples=40, deadline=None)
@given(small_specs())
def test_cube_vertex_parity_split(spec):
    for cube in enumerate_cubes(spec):
        verts = cube_vertices(cube)
        assert len(verts) == 2**spec.dim
        even = sum(1 for v in verts if sum(v) % 2 == 0)
        assert even == 2 ** (spec.dim - 1)


def test_cube_edges_counts_and_membership():
    for corner, d in [((1, 1), 2), ((2, 1, 1), 3), ((1, 1, 1, 1), 4)]:
        cube = CubeId(corner)
        edges = cube_edges(cube)
        assert len(edges) == d * 2 ** (d - 1)
        verts = set(cube_vertices(cube))
        for e in edges:
            a, b = edge_endpoints(e)
            assert a in verts and b in verts


def test_cube_edges_of_known_cube():
    got = set(cube_edges(CubeId((2, 1, 1))))
    want = {
        EdgeId((2, 1, 1), 1), EdgeId((2, 2, 1), 1), EdgeId((2, 1, 2), 1), EdgeId((2, 2, 2), 1),
        EdgeId((2, 1, 1), 2), EdgeId((3, 1, 1), 2), EdgeId((2, 1, 2), 2), EdgeId((3, 1, 2), 2),
        EdgeId((2, 1, 1), 3), EdgeId((3, 1, 1), 3), EdgeId((2, 2, 1), 3), EdgeId((3, 2, 1), 3),
    }
    assert got == want


@pytest.mark.parametrize("dims", [(2, 2), (5, 3), (9, 4, 2, 2)])
def test_every_edge_covered(dims):
    assert check_h_covering(GridSpec(dims))


@settings(max_examples=25, deadline=None)
@given(small_specs(max_d=3, max_n=4))
def test_edge_cover_multiplicity(spec):
    counts: dict[EdgeId, int] = {e: 0 for e in enumerate_edges(spec)}
    for cube in enumerate_cubes(spec):
        for e in cube_edges(cube):
            counts[e] += 1
    for e, got in counts.items():
        expect = 1
        for j, (c, n) in enumerate(zip(e.base, spec.dims)):
            if j == e.axis - 1:
                continue
            expect *= 2 if 2 <= c <= n - 1 else 1
        assert got == expect >= 1

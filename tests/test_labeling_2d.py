"""Base-case labelings: known values, bijectivity, constant square sums."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import brute_edge_cube_sums, brute_vertex_cube_sums
from gridmagic import (
    DimensionOrderViolation,
    DimensionTooSmall,
    EdgeId,
    EdgeLabeling,
    GridSpec,
    SpecMismatch,
    VertexLabeling,
    base_edge_labeling,
    base_vertex_labeling,
    edge_labeling_from_flat,
    vertex_labeling_from_flat,
)


def expected_vertex_sum(n1: int, n2: int) -> int:
    return 2 * (n1 * n2 + (2 if n1 % 2 == 0 and n2 % 2 == 1 else 1))


def expected_edge_sum(n1: int, n2: int) -> int:
    return (2 * n1 - 1) * (2 * n2 - 1) + 1


def test_vertex_values_grid53():
    f = base_vertex_labeling(5, 3)
    assert f.label((1, 1)) == 1
    assert f.label((2, 2)) == 5
    assert f.label((2, 1)) == 12


def test_vertex_values_grid22():
    f = base_vertex_labeling(2, 2)
    assert [f.label(v) for v in [(1, 1), (1, 2), (2, 1), (2, 2)]] == [1, 4, 2, 3]
    assert sum(f.flat) == 10 == expected_vertex_sum(2, 2)


def test_vertex_values_grid43_with_parity_shift():
    f = base_vertex_labeling(4, 3)
    assert f.label((1, 2)) == (4 - 1) * 3 + 2 + 1 == 12
    sums = set(brute_vertex_cube_sums(f.spec, f))
    assert sums == {28} == {2 * (12 + 2)}


def test_edge_values_grid53():
    g = base_edge_labeling(5, 3)
    assert g.label(EdgeId((1, 1), 2)) == 1
    assert g.label(EdgeId((1, 1), 1)) == 20
    assert g.label(EdgeId((4, 3), 1)) == 3


def test_edge_values_grid22():
    g = base_edge_labeling(2, 2)
    labels = {
        g.label(EdgeId((1, 1), 2)),
        g.label(EdgeId((2, 1), 2)),
        g.label(EdgeId((1, 1), 1)),
        g.label(EdgeId((1, 2), 1)),
    }
    assert labels == {1, 4, 3, 2}
    assert set(brute_edge_cube_sums(g.spec, g)) == {10} == {expected_edge_sum(2, 2)}


def test_edge_labels_grid32_form_full_range():
    g = base_edge_labeling(3, 2)
    assert sorted(g.flat.tolist()) == list(range(1, 8))


def test_rejects_bad_dimensions():
    with pytest.raises(DimensionOrderViolation):
        base_vertex_labeling(3, 5)
    with pytest.raises(DimensionTooSmall):
        base_edge_labeling(5, 1)


def _all_pairs():
    return [(n1, n2) for n1 in range(2, 41) for n2 in range(2, n1 + 1)]


def test_vertex_labeling_exhaustive_up_to_40():
    # every admissible pair: bijection onto [n1*n2] and one constant square sum
    for n1, n2 in _all_pairs():
        f = base_vertex_labeling(n1, n2)
        flat = np.sort(f.flat)
        assert np.array_equal(flat, np.arange(1, n1 * n2 + 1)), (n1, n2)
        windows = (
            f.grid[:-1, :-1] + f.grid[1:, :-1] + f.grid[:-1, 1:] + f.grid[1:, 1:]
        )
        sums = np.unique(windows)
        assert sums.size == 1 and int(sums[0]) == expected_vertex_sum(n1, n2), (n1, n2)


def test_edge_labeling_exhaustive_up_to_40():
    for n1, n2 in _all_pairs():
        g = base_edge_labeling(n1, n2)
        count = 2 * n1 * n2 - n1 - n2
        assert np.array_equal(np.sort(g.flat), np.arange(1, count + 1)), (n1, n2)
        along_1, along_2 = g.per_axis
        windows = (
            along_2[:-1, :] + along_2[1:, :] + along_1[:, :-1] + along_1[:, 1:]
        )
        sums = np.unique(windows)
        assert sums.size == 1 and int(sums[0]) == expected_edge_sum(n1, n2), (n1, n2)


def test_edge_label_families_partition_range():
    for n1, n2 in [(5, 3), (4, 4), (7, 2)]:
        g = base_edge_labeling(n1, n2)
        along_axis_2 = {
            (i - 1) * (2 * n2 - 1) + j
            for i in range(1, n1 + 1)
            for j in range(1, n2)
        }
        along_axis_1 = {
            (n1 - i) * (2 * n2 - 1) + 1 - j
            for i in range(1, n1)
            for j in range(1, n2 + 1)
        }
        assert set(g.per_axis[1].ravel().tolist()) == along_axis_2
        assert set(g.per_axis[0].ravel().tolist()) == along_axis_1
        assert along_axis_1 | along_axis_2 == set(range(1, 2 * n1 * n2 - n1 - n2 + 1))
        assert not (along_axis_1 & along_axis_2)


def test_from_flat_roundtrip():
    spec = GridSpec((4, 3))
    f = base_vertex_labeling(4, 3)
    g = base_edge_labeling(4, 3)
    assert np.array_equal(vertex_labeling_from_flat(spec, f.flat).grid, f.grid)
    rebuilt = edge_labeling_from_flat(spec, g.flat)
    for arr, orig in zip(rebuilt.per_axis, g.per_axis):
        assert np.array_equal(arr, orig)


def test_edge_labeling_is_one_read_only_view_of_the_callers_buffer():
    spec = GridSpec((4, 3))
    a = np.arange(1, spec.edge_count + 1, dtype=np.int64)
    g = edge_labeling_from_flat(spec, a)
    exposed = (g.flat, *g.per_axis)
    assert all(np.shares_memory(arr, a) for arr in exposed)
    assert a.flags.writeable
    assert not any(arr.flags.writeable for arr in exposed)
    for count in (spec.edge_count - 1, spec.edge_count + 1):
        with pytest.raises(SpecMismatch):
            EdgeLabeling(spec, np.arange(1, count + 1))


# Label inputs that used to be truncated, wrapped or cast instead of refused,
# each with the dtype the refusal names.
NON_INT64_LABELS = [
    ([1.5, 6, 4, 3, 5, 2], "float64"),  # verified as MAGIC sum=14; the cube sums are 14.5 and 14
    (np.array([1, 2, 3, 4, 5, 2**63], dtype=np.uint64), "uint64"),  # wrapped to -2**63
    ([2**63] * 6, "uint64"),  # a bare OverflowError
    ([1, 2, 3, 4, 5, 2**63], "float64"),  # int64 and uint64 elements promote to float64
    ([1, 2, 3, 4, 5, 2**64], "object"),
    (["1", "2", "3", "4", "5", "6"], "<U1"),
    ([True, False, True, False, True, False], "bool"),
]


@pytest.mark.parametrize("labels, dtype", NON_INT64_LABELS)
def test_labelings_refuse_labels_that_are_not_int64_integers(labels, dtype):
    spec = GridSpec((3, 2))  # 6 vertices and 7 edges
    edge_labels = np.concatenate((np.asarray(labels), np.asarray(labels)[:1]))
    for build, arg in [
        (vertex_labeling_from_flat, labels),
        (edge_labeling_from_flat, edge_labels),
        (VertexLabeling, np.asarray(labels).reshape(spec.dims)),
        (EdgeLabeling, edge_labels),
    ]:
        with pytest.raises(SpecMismatch, match=f"got dtype {dtype}$"):
            build(spec, arg)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
def test_labelings_take_any_integer_dtype_within_int64(dtype):
    spec = GridSpec((3, 2))
    f = vertex_labeling_from_flat(spec, np.array([1, 6, 4, 3, 5, 2], dtype=dtype))
    assert f.grid.dtype == np.int64
    assert f.flat.tolist() == [1, 6, 4, 3, 5, 2]

"""The verifier's single core against the per-entry-point bodies it replaced.

Each `reference_verify_*` is the old body of its verifier: a per-labeling
`_scan_labels` (min/max, then a seen-mask scatter) for bijectivity and
max |label|, the int64 rule applied to that labeling's arrays, then the
kernels and the sorted-sums report. `reference_verify_batch` checked
bijectivity by sorting the vertex and the edge part of each row, and
`reference_disagreement` rebuilt a labeling container to get its report.
Reports, batch outputs and the oracle's disagreement text must stay
exactly theirs, also when the core takes the labels a slab of leading
rows at a time, with faults placed on the seams between slabs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PINNED_SPECS, SUITE_SEED, random_canonical_specs
from gridmagic import (
    GridMagicError,
    GridSpec,
    build_labelings,
    closed_form_sums,
    combine_supermagic,
    edge_labeling_from_flat,
    total_labeling_from_flats,
    verify_edge_magic,
    verify_supermagic,
    verify_vertex_magic,
    vertex_labeling_from_flat,
)
from gridmagic import oracle, verifier
from gridmagic.grid_core import split_edge_labels
from gridmagic.verifier import (
    INT64_MAX,
    MAX_REPORTED_SUMS,
    MagicReport,
    cube_edge_sums,
    cube_vertex_sums,
    verify_batch,
)
from test_verifier import random_batches, random_candidates


def _scan_labels(flat, start, count):
    lo, hi = int(flat.min()), int(flat.max())
    bijective = flat.size == count and (lo, hi) == (start, start + count - 1)
    if bijective:
        seen = np.zeros(start + count, dtype=bool)
        seen[flat] = True
        bijective = bool(seen[start:].all())
    return bijective, max(-lo, hi)


def _exact(arrays, sum_bound):
    if sum_bound <= INT64_MAX:
        return arrays
    return tuple(arr.astype(object) for arr in arrays)


def _report(kind, bijective, sums, predicted):
    ordered = np.sort(sums, axis=None)
    magic = bool(ordered[0] == ordered[-1])
    starts = [] if magic else np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    values = (ordered[0], *ordered[starts[: MAX_REPORTED_SUMS - 1]])
    magic_sum = int(ordered[0]) if magic else None
    return MagicReport(
        kind=kind,
        bijective=bijective,
        cube_sum_values=tuple(int(v) for v in values),
        distinct_count=1 + len(starts),
        magic=magic,
        magic_sum=magic_sum,
        predicted_sum=predicted,
        matches_prediction=(magic_sum == predicted) if magic else None,
    )


def reference_verify_vertex_magic(spec, f):
    bijective, magnitude = _scan_labels(f.flat, 1, spec.vertex_count)
    (grid,) = _exact((f.grid,), magnitude * 2**spec.dim)
    sums = cube_vertex_sums(grid, spec)
    return _report("vertex", bijective, sums, closed_form_sums(spec).c_vertex)


def reference_verify_edge_magic(spec, g):
    bijective, magnitude = _scan_labels(g.flat, 1, spec.edge_count)
    per_axis = _exact(g.per_axis, magnitude * spec.cube_edge_count)
    sums = cube_edge_sums(per_axis, spec)
    return _report("edge", bijective, sums, closed_form_sums(spec).c_edge)


def reference_verify_supermagic(spec, total):
    nv = spec.vertex_count
    v_bijective, v_magnitude = _scan_labels(total.vertex.flat, 1, nv)
    e_bijective, e_magnitude = _scan_labels(total.edge.flat, nv + 1, spec.edge_count)
    per_cube = 2**spec.dim + spec.cube_edge_count
    grid, *per_axis = _exact(
        (total.vertex.grid, *total.edge.per_axis), max(v_magnitude, e_magnitude) * per_cube
    )
    sums = cube_vertex_sums(grid, spec)
    sums += cube_edge_sums(tuple(per_axis), spec)
    return _report("total", v_bijective and e_bijective, sums, closed_form_sums(spec).c_total)


def reference_verify_batch(spec, kind, rows):
    nv, ne = spec.vertex_count, spec.edge_count
    widths = {"vertex": (nv, 0), "edge": (0, ne), "total": (nv, ne)}[kind]
    rows = np.asarray(rows, dtype=np.int64)
    m, split = len(rows), widths[0]
    ordered = np.hstack((np.sort(rows[:, :split]), np.sort(rows[:, split:])))
    bijective = (ordered == np.arange(1, rows.shape[1] + 1)).all(axis=1)
    magnitude = max(-int(rows.min()), int(rows.max())) if rows.size else 0
    per_cube = (2**spec.dim if split else 0) + (spec.cube_edge_count if widths[1] else 0)
    (labels,) = _exact((rows,), magnitude * per_cube)
    parts = []
    if split:
        parts.append(cube_vertex_sums(labels[:, :split].reshape(m, *spec.dims), spec))
    if widths[1]:
        parts.append(cube_edge_sums(split_edge_labels(spec, labels[:, split:]), spec))
    sums = sum(parts).reshape(m, spec.cube_count)
    return sums.min(axis=1), sums.max(axis=1), bijective


def reference_disagreement(spec, mode, labels, magic_sum):
    nv = spec.vertex_count
    if mode == "vertex":
        report = reference_verify_vertex_magic(spec, vertex_labeling_from_flat(spec, labels))
    elif mode == "edge":
        report = reference_verify_edge_magic(spec, edge_labeling_from_flat(spec, labels))
    else:
        report = reference_verify_supermagic(
            spec, total_labeling_from_flats(spec, labels[:nv], labels[nv:])
        )
    return GridMagicError(
        f"oracle/verifier disagreement on a {mode} labeling: "
        f"scan sum {magic_sum}, verifier {report}"
    )


def assert_reports_match(spec, vertex, edge):
    """Equal reports for the vertex, edge and total labelings of two flat label arrays."""
    f, g = vertex_labeling_from_flat(spec, vertex), edge_labeling_from_flat(spec, edge)
    total = total_labeling_from_flats(spec, vertex, edge)
    assert verify_vertex_magic(spec, f) == reference_verify_vertex_magic(spec, f)
    assert verify_edge_magic(spec, g) == reference_verify_edge_magic(spec, g)
    assert verify_supermagic(spec, total) == reference_verify_supermagic(spec, total)


def assert_batches_match(spec, rows):
    """Equal `verify_batch` outputs for every kind, with edges also shifted above |V|."""
    nv = spec.vertex_count
    vertex, edge = rows[:, :nv], rows[:, nv:]
    for kind, kind_rows in [
        ("vertex", vertex),
        ("edge", edge),
        ("total", rows),
        ("total", np.hstack((vertex, edge + nv))),
    ]:
        got = verify_batch(spec, kind, kind_rows)
        want = reference_verify_batch(spec, kind, kind_rows)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert got[2].dtype == want[2].dtype == bool


@settings(max_examples=40, deadline=None)
@given(random_candidates(low=-(10**6), high=10**6))
def test_reports_match_reference_on_random_candidates(candidate):
    spec, f, g = candidate
    assert_reports_match(spec, f.flat, g.flat)


@settings(max_examples=40, deadline=None)
@given(random_candidates(low=-(2**63), high=2**63 - 1), st.integers(1, 3))
def test_reports_and_batches_match_reference_over_the_whole_int64_range(candidate, m):
    spec, f, g = candidate
    assert_reports_match(spec, f.flat, g.flat)
    row = np.concatenate((f.flat, g.flat))
    assert_batches_match(spec, np.stack([np.roll(row, k) for k in range(m)]))


@settings(max_examples=40, deadline=None)
@given(random_batches())
def test_batches_and_their_rows_match_reference(batch):
    spec, rows = batch
    nv = spec.vertex_count
    assert_batches_match(spec, rows)
    for row in rows:
        assert_reports_match(spec, row[:nv], row[nv:])
        assert_reports_match(spec, row[:nv], row[nv:] + nv)


@pytest.mark.parametrize("kind", ["vertex", "edge", "total"])
def test_empty_batches_match_reference(kind):
    spec = GridSpec((3, 2, 2))
    width = {"vertex": spec.vertex_count, "edge": spec.edge_count}.get(
        kind, spec.vertex_count + spec.edge_count
    )
    rows = np.zeros((0, width), dtype=np.int64)
    got, want = verify_batch(spec, kind, rows), reference_verify_batch(spec, kind, rows)
    assert [a.tolist() for a in got] == [a.tolist() for a in want] == [[], [], []]


def _corrupted(rng, flat):
    """A transposition, a duplicated label and a random permutation of `flat`."""
    a, b = rng.choice(flat.size, 2, replace=False)
    swapped, duplicated = flat.copy(), flat.copy()
    swapped[[a, b]] = flat[[b, a]]
    duplicated[a] = flat[b]
    return [swapped, duplicated, rng.permutation(flat)]


def test_reports_match_reference_on_the_suite_specs():
    for spec in random_canonical_specs():
        f, g = build_labelings(spec)
        assert verify_edge_magic(spec, g) == reference_verify_edge_magic(spec, g)
        assert_reports_match(spec, f.flat, g.flat + spec.vertex_count)


@pytest.mark.parametrize("dims", PINNED_SPECS)
def test_reports_match_reference_on_corrupted_pinned_labelings(dims):
    spec = GridSpec(dims)
    rng = np.random.default_rng(SUITE_SEED)
    f, g = build_labelings(spec)
    nv = spec.vertex_count
    for vertex, edge in zip(_corrupted(rng, f.flat), _corrupted(rng, g.flat)):
        assert_reports_match(spec, vertex, edge)
        assert_reports_match(spec, f.flat, edge + nv)
        assert_reports_match(spec, vertex, g.flat + nv)


@pytest.mark.parametrize("dims", [(3, 2), (4, 3, 2), (2, 2, 2, 2)])
def test_batches_of_constructed_and_corrupted_rows_match_reference(dims):
    # every batch size from 1 to 8, each row in range, so every row reaches the scatter
    spec = GridSpec(dims)
    rng = np.random.default_rng(SUITE_SEED)
    f, g = build_labelings(spec)
    rows = [np.concatenate((f.flat, g.flat))]
    for vertex, edge in zip(_corrupted(rng, f.flat), _corrupted(rng, g.flat)):
        rows += [np.concatenate((vertex, g.flat)), np.concatenate((f.flat, edge))]
    rows = np.array(rows + rows[:1])
    for m in range(1, len(rows) + 1):
        assert_batches_match(spec, rows[rng.permutation(len(rows))[:m]])


ORACLE_CASES = [
    ((2, 2), "vertex"),
    ((3, 2), "vertex"),
    ((2, 2, 2), "vertex"),
    ((2, 2), "edge"),
    ((3, 2), "edge"),
    ((2, 2), "supermagic"),
    ((3, 2), "supermagic"),
]


@pytest.mark.parametrize("dims, mode", ORACLE_CASES)
def test_disagreement_text_matches_reference(dims, mode):
    spec = GridSpec(dims)
    nv, ne = spec.vertex_count, spec.edge_count
    n = {"vertex": nv, "edge": ne, "supermagic": nv + ne}[mode]
    rng = np.random.default_rng(13)
    rows = [np.arange(1, n + 1), np.arange(n, 0, -1), rng.integers(-3, n + 3, n)]
    for _ in range(4):
        row = rng.permutation(n) + 1
        duplicated = row.copy()
        duplicated[0] = row[1]
        rows += [row, duplicated]
    if mode == "supermagic":
        # in range for both parts, and the constructed labeling
        total = combine_supermagic(*build_labelings(spec))
        rows.append(np.concatenate((rng.permutation(nv) + 1, rng.permutation(ne) + nv + 1)))
        rows.append(np.concatenate((total.vertex.flat, total.edge.flat)))
    for row in rows:
        magic_sum = int(rng.integers(1, 100))
        got = oracle._disagreement(spec, mode, row, magic_sum)
        assert str(got) == str(reference_disagreement(spec, mode, row.tolist(), magic_sum))


def test_tally_disagreement_text_matches_reference():
    # row 1 is the first that fails: a repeated label in Grid(2,2)
    spec = GridSpec((2, 2))
    rows = np.array([(1, 2, 3, 4), (1, 2, 2, 5), (4, 3, 2, 2)])
    with pytest.raises(GridMagicError) as info:
        oracle._checked(spec, "vertex", rows, np.array([10, 10, 10]))
    assert str(info.value) == str(reference_disagreement(spec, "vertex", rows[1].tolist(), 10))


def slabs_of(spec, vertex, edge, rows):
    """Flat parts (None for a lacking one) as slabs of `rows` leading rows, the last maybe shorter."""
    grid = None if vertex is None else vertex.reshape(spec.dims)
    per_axis = None if edge is None else split_edge_labels(spec, edge)
    for a in range(0, spec.dims[0], rows):
        yield (
            None if grid is None else grid[a : a + rows],
            None if per_axis is None else tuple(arr[a : a + rows] for arr in per_axis),
        )


def assert_slab_reports_match(spec, vertex, edge, rows):
    """Reports from slabs of `rows` leading rows equal the reference's whole-array reports."""
    f, g = vertex_labeling_from_flat(spec, vertex), edge_labeling_from_flat(spec, edge)
    total = total_labeling_from_flats(spec, vertex, edge)
    report = verifier._report
    assert report(spec, "vertex", slabs_of(spec, vertex, None, rows)) == reference_verify_vertex_magic(spec, f)
    assert report(spec, "edge", slabs_of(spec, None, edge, rows)) == reference_verify_edge_magic(spec, g)
    assert report(spec, "total", slabs_of(spec, vertex, edge, rows)) == reference_verify_supermagic(spec, total)


SEAM_SPECS = [(7, 5), (6, 4, 3), (5, 4, 3, 2), (4, 4, 4, 4), (3, 2, 2, 2, 2)]


def _seam_corruptions(spec, rows, vertex, edge):
    """(vertex, edge) pairs with faults placed on or across the seams of slabs of `rows` rows."""
    nv, n1 = spec.vertex_count, spec.dims[0]
    row_v = nv // n1  # vertex labels per leading row
    seam = min(rows, n1 - 1)  # the first row of the second slab
    axis2 = spec.edge_shapes[0]  # axis-1 edge block, then the axis-2 block
    start2 = int(np.prod(axis2))
    row_e2 = int(np.prod(spec.edge_shapes[1][1:]))
    out = []
    # a transposition across the seam, of vertex labels and of axis-2 edge labels
    v, e = vertex.copy(), edge.copy()
    v[[seam * row_v - 1, seam * row_v]] = v[[seam * row_v, seam * row_v - 1]]
    e[[start2 + seam * row_e2 - 1, start2 + seam * row_e2 + 1]] = e[[start2 + seam * row_e2 + 1, start2 + seam * row_e2 - 1]]
    out.append((v, e))
    # duplicates in the first and the last slab
    v, e = vertex.copy(), edge.copy()
    v[0], e[-1] = v[-1], e[0]
    out.append((v, e))
    # out-of-range labels beside the seam
    v, e = vertex.copy(), edge.copy()
    v[seam * row_v], e[start2 + seam * row_e2] = 0, nv + len(edge) + 1
    v[-1] = -5
    out.append((v, e))
    # int64 extremes in different slabs: Python-int sums for those slabs and their seams
    v, e = vertex.copy(), edge.copy()
    v[seam * row_v] = INT64_MAX
    e[0], e[-1] = -(2**63), INT64_MAX
    out.append((v, e))
    return out


@pytest.mark.parametrize("dims", SEAM_SPECS)
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_slab_reports_match_reference_on_faults_at_seams(dims, rows):
    spec = GridSpec(dims)
    f, g = build_labelings(spec)
    vertex, edge = f.flat, g.flat + spec.vertex_count
    assert_slab_reports_match(spec, vertex, edge, rows)
    for v, e in _seam_corruptions(spec, rows, vertex, edge):
        assert_slab_reports_match(spec, v, e, rows)


@settings(max_examples=40, deadline=None)
@given(random_candidates(low=-(2**63), high=2**63 - 1), st.integers(1, 3))
def test_slab_reports_match_reference_over_the_whole_int64_range(candidate, rows):
    spec, f, g = candidate
    assert_slab_reports_match(spec, f.flat, g.flat, rows)

"""Verifier: closed forms, scan agreement, negatives, report invariants."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PINNED_SPECS,
    brute_edge_cube_sums,
    brute_vertex_cube_sums,
    random_canonical_specs,
    triangular,
)
from gridmagic import (
    EdgeId,
    GridMagicError,
    GridSpec,
    Overflow,
    PredictedSums,
    SpecMismatch,
    TotalLabeling,
    VertexLabeling,
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
from gridmagic.labeling_nd import labeling_rows
from gridmagic.verifier import (
    INT64_MAX,
    MAX_REPORTED_SUMS,
    _report,
    cube_edge_sums,
    cube_vertex_sums,
    verify_batch,
)


@st.composite
def small_specs(draw, max_d=5, max_n=5):
    d = draw(st.integers(2, max_d))
    dims = sorted((draw(st.integers(2, max_n)) for _ in range(d)), reverse=True)
    return GridSpec(tuple(dims))


@st.composite
def random_candidates(draw, low: int, high: int):
    """A small spec (d = 2..5) with seeded random vertex and edge labels in [low, high]."""
    d = draw(st.integers(2, 5))
    max_n = {2: 6, 3: 4}.get(d, 3)
    spec = GridSpec(tuple(sorted((draw(st.integers(2, max_n)) for _ in range(d)), reverse=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # narrow draws give duplicate labels and repeated cube sums
    high = draw(st.sampled_from([low + 2, low + 40, high]))
    v = rng.integers(low, high, spec.vertex_count, endpoint=True)
    e = rng.integers(low, high, spec.edge_count, endpoint=True)
    return spec, vertex_labeling_from_flat(spec, v), edge_labeling_from_flat(spec, e)


@pytest.mark.parametrize(
    "dims,expected",
    [
        ((5, 3), (32, 46, 138)),
        ((5, 3, 3), (184, 594, 1318)),
        ((2, 2, 2), (36, 78, 210)),
        ((3, 2), (14, 16, 54)),
    ],
)
def test_closed_form_sums(dims, expected):
    sums = closed_form_sums(GridSpec(dims))
    assert (sums.c_vertex, sums.c_edge, sums.c_total) == expected


def test_closed_forms_on_degenerate_cubes_are_triangular():
    for d in range(2, 6):
        spec = GridSpec((2,) * d)
        sums = closed_form_sums(spec)
        assert sums.c_vertex == triangular(spec.vertex_count)
        assert sums.c_edge == triangular(spec.edge_count)
        assert sums.c_total == triangular(spec.vertex_count + spec.edge_count)


def test_closed_form_total_is_componentwise_consistent():
    spec = GridSpec((6, 5, 4))
    sums = closed_form_sums(spec)
    assert sums.c_total == sums.c_vertex + sums.c_edge + spec.cube_edge_count * spec.vertex_count


def test_all_even_grids_force_the_vertex_sum():
    # when every side is even, the cubes at the all-odd corners partition the
    # vertices, so a magic vertex sum is |V|(|V|+1)/2 over their count
    # prod(n_i / 2) = |V| / 2^d, that is 2^(d-1)(|V|+1)
    specs = [
        GridSpec(dims)
        for d in range(2, 6)
        for dims in itertools.combinations_with_replacement((100, 20, 10, 8, 6, 4, 2), d)
    ]
    assert len(specs) == 784
    for spec in specs:
        assert closed_form_sums(spec).c_vertex == 2 ** (spec.dim - 1) * (spec.vertex_count + 1)


def test_closed_form_overflow_is_loud():
    spec = GridSpec((2**30, 2**30))
    with pytest.raises(Overflow):
        closed_form_sums(spec)


def reference_closed_form_sums(spec: GridSpec) -> PredictedSums:
    """The layer recursion with the layer counts taken from a GridSpec per layer."""
    n1, n2 = spec.dims[:2]
    bump = 1 if n1 % 2 == 0 and n2 % 2 == 1 else 0
    c_vertex = 2 * (n1 * n2 + 1 + bump)
    c_edge = (2 * n1 - 1) * (2 * n2 - 1) + 1
    for k in range(3, spec.dim + 1):
        nd = spec.dims[k - 1]
        layer = GridSpec(spec.dims[: k - 1])
        n_layer, m_layer = layer.vertex_count, layer.edge_count
        c_vertex, c_edge = (
            2 * c_vertex + 2 ** (k - 1) * (nd - 1) * n_layer,
            c_vertex
            + 2 * c_edge
            + 2 ** (k - 2) * (nd - 2) * n_layer
            + 2 ** (k - 2) * (2 * nd + (k - 1) * (nd - 1)) * m_layer,
        )
        if c_vertex > INT64_MAX or c_edge > INT64_MAX:
            raise Overflow(f"magic sums of {spec.dims} exceed 64-bit range")
    c_total = c_vertex + c_edge + spec.cube_edge_count * spec.vertex_count
    if c_total > INT64_MAX:
        raise Overflow(f"total magic sum of {spec.dims} exceeds 64-bit range")
    return PredictedSums(c_vertex, c_edge, c_total)


# Each side of the int64 limit: d = 2 and 3 past the total only, d = 3
# past the per-layer check, and d = 4.
OVERFLOW_BOUNDARY_DIMS = [
    (2**30, 2**30),
    (960383883, 960383883),
    (960383884, 960383884),
    (647346, 647346, 647346),
    (647347, 647347, 647347),
    (2**20, 2**20, 2**20),
    (17257, 17257, 17257, 17257),
    (17258, 17258, 17258, 17258),
]


def _outcome(closed_form, spec):
    try:
        return closed_form(spec)
    except Overflow as error:
        return str(error)


def test_closed_form_sums_match_layer_spec_reference():
    specs = random_canonical_specs() + [
        GridSpec(dims) for dims in [(4,) * 9] + OVERFLOW_BOUNDARY_DIMS
    ]
    outcomes = [_outcome(closed_form_sums, spec) for spec in specs]
    assert outcomes == [_outcome(reference_closed_form_sums, spec) for spec in specs]
    # both checks are reached: a layer past int64, and a total past it
    assert sum(isinstance(o, str) and o.startswith("magic sums") for o in outcomes) == 1
    assert sum(isinstance(o, str) and o.startswith("total") for o in outcomes) == 4


def test_vertex_monotone_in_last_side():
    for prefix in [(4, 3), (5, 4), (6, 6, 3)]:
        values = [
            closed_form_sums(GridSpec(prefix + (nd,))).c_vertex
            for nd in range(2, prefix[-1] + 1)
        ]
        assert values == sorted(values) and len(set(values)) == len(values)


@pytest.mark.parametrize("dims", [(5, 3), (5, 3, 3), (3, 3, 2, 2)])
def test_constructed_labelings_verify_and_match_predictions(dims):
    spec = GridSpec(dims)
    predicted = closed_form_sums(spec)
    f, g = build_labelings(spec)
    total = combine_supermagic(f, g)
    rv = verify_vertex_magic(spec, f)
    re_ = verify_edge_magic(spec, g)
    rt = verify_supermagic(spec, total)
    assert (rv.magic, rv.bijective, rv.magic_sum) == (True, True, predicted.c_vertex)
    assert (re_.magic, re_.bijective, re_.magic_sum) == (True, True, predicted.c_edge)
    assert (rt.magic, rt.bijective, rt.magic_sum) == (True, True, predicted.c_total)
    assert rv.matches_prediction and re_.matches_prediction and rt.matches_prediction


def sweep(d: int) -> list[GridSpec]:
    """Every grid of dimension d whose side k from the last runs over 4 values: 5..8, 9..12, ..."""
    ranges = [range(4 * (d - k) + 1, 4 * (d - k) + 5) for k in range(d)]
    return [GridSpec(dims) for dims in itertools.product(*ranges)]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_closed_forms_are_certified_by_a_finite_sweep(d):
    """The constructions attain `closed_form_sums` at every size of dimension d.

    Write each side as n_k = 2m_k + r_k and each cube corner coordinate as
    x_k = 2a_k + s_k. On a fixed residue class (r, s), every constructed
    label is a polynomial of degree at most 1 in each m_k and each a_k:
    the 2-d formulas are sums of products in which each variable occurs
    once, and each lift adds s*t or s*(n-1-t) for a product s of earlier
    sides (the label degree test below pins that). So every cube sum has the same degree bound, and so has
    `closed_form_sums`, whose recurrence multiplies each side in once (the
    second-difference test below pins that). Their difference, a
    polynomial of degree at most 1 in each variable, vanishes everywhere
    once it vanishes on a product of 2-point sets (Alon, "Combinatorial
    Nullstellensatz", 1999, Lemma 2.1). The sweep gives each side two
    values of each parity, and sides of at least 5 give each corner
    coordinate 0..3, two values of each parity; so every magic sum the
    sweep verifies holds at every size. Bijectivity is no polynomial
    identity: it is checked here on the sweep only.
    """
    specs = sweep(d)
    assert len(specs) == 4**d
    for spec in specs:
        predicted = closed_form_sums(spec)
        f, g = build_labelings(spec)
        reports = verify_vertex_magic(spec, f), verify_edge_magic(spec, g), verify_supermagic(
            spec, combine_supermagic(f, g)
        )
        sums = predicted.c_vertex, predicted.c_edge, predicted.c_total
        for report, want in zip(reports, sums):
            assert (report.magic, report.bijective, report.magic_sum) == (True, True, want), (spec, report)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_closed_forms_have_degree_one_in_each_side_of_a_parity(d):
    # from every base with each side's parity chosen, three sides n, n+2 and
    # n+4 along one axis: a function of degree at most 1 in n_k // 2 has a
    # zero second difference. Sides 8 apart keep the order canonical.
    for residues in itertools.product((5, 6), repeat=d):
        base = [8 * (d - 1 - k) + r for k, r in enumerate(residues)]
        for k in range(d):
            values = []
            for step in (0, 2, 4):
                dims = list(base)
                dims[k] += step
                sums = closed_form_sums(GridSpec(tuple(dims)))
                values.append(np.array([sums.c_vertex, sums.c_edge, sums.c_total]))
            assert (values[2] - 2 * values[1] + values[0] == 0).all(), (base, k)


# Bases whose sides lie at least 4 apart, so that any side may grow by 4
# and the dims stay canonical; each axis meets sides of both parities.
DEGREE_BASES = [(30, 12), (29, 17), (26, 15, 9), (33, 20, 11), (36, 24, 14, 8), (41, 29, 19, 9)]


def constructed_label_arrays(dims: tuple[int, ...], rows: range | None = None) -> list[np.ndarray]:
    """The constructed vertex labels and each axis's edge labels of `dims`, of leading rows `rows`."""
    spec = GridSpec(dims)
    f, g = labeling_rows(spec, range(dims[0]) if rows is None else rows)
    return [f.grid, *g.per_axis]


@pytest.mark.parametrize("base", DEGREE_BASES)
def test_constructed_labels_have_degree_one_in_each_half_side_and_coordinate(base):
    # the bound the sweep's certificate rests on: on a residue class of
    # sides and coordinates, every vertex and edge label is of degree at
    # most 1 in each half-coordinate a_k and each half-side m_k, so its
    # step-2 second difference is zero along every coordinate, from either
    # parity, and along every side n_k, n_k + 2, n_k + 4 on the corner box
    for arr in constructed_label_arrays(base):
        for k in range(arr.ndim):
            x = np.moveaxis(arr, k, 0)
            assert not (x[4:] - 2 * x[2:-2] + x[:-4]).any(), (base, arr.shape, k)
    corner = (slice(0, 5),) * len(base)
    for k in range(len(base)):
        grown = []
        for step in (0, 2, 4):
            dims = base[:k] + (base[k] + step,) + base[k + 1 :]
            grown.append([arr[corner] for arr in constructed_label_arrays(dims, range(5))])
        for at_n, at_n2, at_n4 in zip(*grown):
            assert not (at_n4 - 2 * at_n2 + at_n).any(), (base, k)


@pytest.mark.parametrize("dims", [(4, 3), (3, 3, 2)])
def test_vectorized_sums_agree_with_plain_enumeration(dims):
    # the verifier sums by array slicing; re-derive per-cube sums one label
    # at a time and compare
    spec = GridSpec(dims)
    f, g = build_labelings(spec)
    rv, re_ = verify_vertex_magic(spec, f), verify_edge_magic(spec, g)
    assert set(brute_vertex_cube_sums(spec, f)) == set(rv.cube_sum_values)
    assert set(brute_edge_cube_sums(spec, g)) == set(re_.cube_sum_values)


def test_swapped_vertex_labels_detected():
    spec = GridSpec((5, 3))
    f, _ = build_labelings(spec)
    grid = f.grid.copy()
    a, b = (0, 0), (0, 2)  # vertices (1,1) and (1,3)
    grid[a], grid[b] = grid[b], grid[a]
    report = verify_vertex_magic(spec, VertexLabeling(spec, grid))
    assert report.bijective
    assert not report.magic
    assert report.distinct_count >= 2
    assert report.magic_sum is None and report.matches_prediction is None


def test_identity_order_edge_labeling_is_not_magic():
    spec = GridSpec((3, 2))
    g = edge_labeling_from_flat(spec, np.arange(1, spec.edge_count + 1))
    report = verify_edge_magic(spec, g)
    assert report.bijective
    assert not report.magic
    assert report.cube_sum_values == (14, 20)


def test_supermagic_requires_vertex_range_condition():
    # swapping a vertex label with an edge label keeps the joint bijection
    # but breaks the vertex-range condition
    spec = GridSpec((3, 2))
    total = combine_supermagic(*build_labelings(spec))
    vflat = total.vertex.flat.copy()
    eflat = total.edge.flat.copy()
    vi = int(np.nonzero(vflat == 1)[0][0])
    ei = int(np.nonzero(eflat == spec.vertex_count + 1)[0][0])
    vflat[vi], eflat[ei] = spec.vertex_count + 1, 1
    report = verify_supermagic(spec, total_labeling_from_flats(spec, vflat, eflat))
    joint = np.sort(np.concatenate([vflat, eflat]))
    assert np.array_equal(joint, np.arange(1, spec.vertex_count + spec.edge_count + 1))
    assert not report.bijective


def test_spec_mismatch_is_rejected():
    f, g = build_labelings(GridSpec((3, 2)))
    with pytest.raises(SpecMismatch):
        verify_vertex_magic(GridSpec((4, 2)), f)
    with pytest.raises(SpecMismatch):
        verify_edge_magic(GridSpec((4, 2)), g)
    with pytest.raises(SpecMismatch):
        VertexLabeling(GridSpec((4, 2)), f.grid)


_PARTS_6_5 = (build_labelings(GridSpec((6, 5))), labeling_rows(GridSpec((6, 5)), range(0, 3)))


@pytest.mark.parametrize(
    "refused",
    [
        lambda whole, part: verify_vertex_magic(GridSpec((6, 5)), part[0]),
        lambda whole, part: verify_edge_magic(GridSpec((6, 5)), part[1]),
        lambda whole, part: verify_supermagic(GridSpec((6, 5)), combine_supermagic(*part)),
        # a whole vertex part beside the edges of rows 0..2 once verified as
        # MAGIC with sum 284
        lambda whole, part: TotalLabeling(whole[0], combine_supermagic(*part).edge),
        lambda whole, part: TotalLabeling(part[0], whole[1]),
        lambda whole, part: part[0].label((1, 1)),
        lambda whole, part: part[1].label(EdgeId((1, 1), 2)),
    ],
    ids=["vertex", "edge", "total", "whole_vertex", "whole_edge", "vertex_label", "edge_label"],
)
def test_labelings_of_some_rows_are_refused(refused):
    with pytest.raises(SpecMismatch):
        refused(*_PARTS_6_5)


def test_reports_are_deterministic():
    spec = GridSpec((4, 4, 2))
    f, _ = build_labelings(spec)
    assert verify_vertex_magic(spec, f) == verify_vertex_magic(spec, f)


def test_distinct_sum_list_is_sorted_and_capped():
    spec = GridSpec((40, 40))
    rng = np.random.default_rng(7)
    scrambled = VertexLabeling(
        spec, rng.permutation(spec.vertex_count).reshape(spec.dims) + 1
    )
    report = verify_vertex_magic(spec, scrambled)
    assert not report.magic
    assert len(report.cube_sum_values) <= 32
    assert list(report.cube_sum_values) == sorted(report.cube_sum_values)
    assert report.distinct_count >= len(report.cube_sum_values)


@settings(max_examples=25, deadline=None)
@given(small_specs())
def test_random_specs_verify_exactly(spec):
    predicted = closed_form_sums(spec)
    f, g = build_labelings(spec)
    total = combine_supermagic(f, g)
    assert verify_vertex_magic(spec, f).magic_sum == predicted.c_vertex
    assert verify_edge_magic(spec, g).magic_sum == predicted.c_edge
    assert verify_supermagic(spec, total).magic_sum == predicted.c_total


@settings(max_examples=40, deadline=None)
@given(random_candidates(low=-(10**6), high=10**6))
def test_cube_sums_match_plain_enumeration_per_cube(candidate):
    spec, f, g = candidate
    # both orders are corner row-major
    assert cube_vertex_sums(f.grid, spec).ravel().tolist() == brute_vertex_cube_sums(spec, f)
    assert cube_edge_sums(g.per_axis, spec).ravel().tolist() == brute_edge_cube_sums(spec, g)


@settings(max_examples=40, deadline=None)
@given(random_candidates(low=-(2**63), high=2**63 - 1))
def test_reports_are_exact_over_the_whole_int64_range(candidate):
    spec, f, g = candidate
    vertex_sums = brute_vertex_cube_sums(spec, f)
    edge_sums = brute_edge_cube_sums(spec, g)
    total = total_labeling_from_flats(spec, f.flat, g.flat)
    for report, per_cube in [
        (verify_vertex_magic(spec, f), vertex_sums),
        (verify_edge_magic(spec, g), edge_sums),
        (verify_supermagic(spec, total), [a + b for a, b in zip(vertex_sums, edge_sums)]),
    ]:
        values = sorted(set(per_cube))
        assert report.cube_sum_values == tuple(values[:MAX_REPORTED_SUMS])
        assert report.distinct_count == len(values)
        assert report.magic == (len(values) == 1)


def test_int64_cube_sums_do_not_wrap():
    # the squares sum to 5 and 2**64 + 5, which agree modulo 2**64
    spec = GridSpec((3, 2))
    f = vertex_labeling_from_flat(spec, [2**63 - 1, 2**63 - 1, 3, 4, -1, -1])
    report = verify_vertex_magic(spec, f)
    assert not report.magic and report.magic_sum is None
    assert report.cube_sum_values == (5, 2**64 + 5)
    assert report.distinct_count == 2


def test_distinct_sums_match_unique_reference():
    spec = GridSpec((12, 10, 8))
    rng = np.random.default_rng(11)
    v = rng.permutation(spec.vertex_count) + 1
    e = rng.permutation(spec.edge_count) + 1
    f, g = vertex_labeling_from_flat(spec, v), edge_labeling_from_flat(spec, e)
    vertex_sums = brute_vertex_cube_sums(spec, f)
    edge_sums = brute_edge_cube_sums(spec, g)
    total = total_labeling_from_flats(spec, v, e + spec.vertex_count)
    shift = spec.cube_edge_count * spec.vertex_count
    for report, per_cube in [
        (verify_vertex_magic(spec, f), vertex_sums),
        (verify_edge_magic(spec, g), edge_sums),
        (verify_supermagic(spec, total), [a + b + shift for a, b in zip(vertex_sums, edge_sums)]),
    ]:
        reference = np.unique(np.array(per_cube, dtype=np.int64))
        assert reference.size > MAX_REPORTED_SUMS
        assert report.distinct_count == reference.size
        assert report.cube_sum_values == tuple(reference[:MAX_REPORTED_SUMS].tolist())
        assert not report.magic


@pytest.mark.parametrize(
    "dims",
    [(5, 3), (4, 4, 2), (3, 3, 2, 2), (2, 2, 2)]
    + PINNED_SPECS
    + [spec.dims for spec in random_canonical_specs()[len(PINNED_SPECS) :: 50]],
)
def test_complement_duality(dims):
    # l -> N+1-l keeps a bijection onto [1, N] and turns each cube sum c
    # into k(N+1) - c, with k the number of labels per cube. A total
    # labeling is mapped pool by pool: vertices onto [1, |V|] and edges
    # onto [|V|+1, |V|+|E|], so its edge labels go to 2|V|+|E|+1-l.
    spec = GridSpec(dims)
    predicted = closed_form_sums(spec)
    f, g = build_labelings(spec)
    total = combine_supermagic(f, g)
    nv, ne, kv, ke = spec.vertex_count, spec.edge_count, 2**spec.dim, spec.cube_edge_count
    dual_f = vertex_labeling_from_flat(spec, nv + 1 - f.flat)
    dual_g = edge_labeling_from_flat(spec, ne + 1 - g.flat)
    dual_total = total_labeling_from_flats(spec, nv + 1 - total.vertex.flat, 2 * nv + ne + 1 - total.edge.flat)
    for report, want in [
        (verify_vertex_magic(spec, dual_f), kv * (nv + 1) - predicted.c_vertex),
        (verify_edge_magic(spec, dual_g), ke * (ne + 1) - predicted.c_edge),
        (verify_supermagic(spec, dual_total), kv * (nv + 1) + ke * (2 * nv + ne + 1) - predicted.c_total),
    ]:
        assert report.bijective and report.magic
        assert report.magic_sum == want


def test_duplicate_inside_the_range_is_not_bijective():
    # labels 2 and 3 both read 2: size, minimum and maximum are all still right
    spec = GridSpec((5, 3))
    f, g = build_labelings(spec)
    nv = spec.vertex_count
    v = np.where(f.flat == 3, 2, f.flat)
    e = np.where(g.flat == 3, 2, g.flat)
    assert not verify_vertex_magic(spec, vertex_labeling_from_flat(spec, v)).bijective
    assert not verify_edge_magic(spec, edge_labeling_from_flat(spec, e)).bijective
    assert not verify_supermagic(spec, total_labeling_from_flats(spec, v, g.flat + nv)).bijective
    assert not verify_supermagic(spec, total_labeling_from_flats(spec, f.flat, e + nv)).bijective


@st.composite
def random_batches(draw):
    """A spec (d = 2..4) and an (m, |V|+|E|) stack of m = 1..5 candidate rows.

    Each row is vertex labels then edge labels. A row is either a
    bijection onto [1, |V|] and [1, |E|], the same with one label
    repeated, or random labels from a wide or a narrow signed range (with
    duplicates and negatives).
    """
    d = draw(st.integers(2, 4))
    max_n = {2: 5, 3: 3, 4: 2}[d]
    spec = GridSpec(tuple(sorted((draw(st.integers(2, max_n)) for _ in range(d)), reverse=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nv, ne = spec.vertex_count, spec.edge_count
    rows = []
    shapes = st.sampled_from(["bijection", "repeat", "wide", "narrow"])
    for shape in draw(st.lists(shapes, min_size=1, max_size=5)):
        if shape in ("wide", "narrow"):
            high = 10**6 if shape == "wide" else 2
            rows.append(rng.integers(-high, high, nv + ne, endpoint=True))
            continue
        row = np.concatenate((rng.permutation(nv) + 1, rng.permutation(ne) + 1))
        if shape == "repeat":
            i, j = rng.choice(nv + ne, 2, replace=False)
            row[i] = row[j]
        rows.append(row)
    return spec, np.array(rows)


def _batch_kinds(spec: GridSpec, rows: np.ndarray):
    """Per kind: its (m, n) rows, each row's verifier report, and its brute-force cube sums."""
    nv = spec.vertex_count
    vertex, edge = rows[:, :nv], rows[:, nv:]
    total = np.hstack((vertex, edge + nv))  # edges moved above the vertices' range
    fs = [vertex_labeling_from_flat(spec, v) for v in vertex]
    gs = [edge_labeling_from_flat(spec, e) for e in edge]
    vertex_sums = [brute_vertex_cube_sums(spec, f) for f in fs]
    edge_sums = [brute_edge_cube_sums(spec, g) for g in gs]
    shift = spec.cube_edge_count * nv
    total_sums = [[a + b + shift for a, b in zip(*pair)] for pair in zip(vertex_sums, edge_sums)]
    total_reports = [
        verify_supermagic(spec, total_labeling_from_flats(spec, t[:nv], t[nv:])) for t in total
    ]
    return [
        ("vertex", vertex, [verify_vertex_magic(spec, f) for f in fs], vertex_sums),
        ("edge", edge, [verify_edge_magic(spec, g) for g in gs], edge_sums),
        ("total", total, total_reports, total_sums),
    ]


@settings(max_examples=40, deadline=None)
@given(random_batches())
def test_batched_kernels_match_single_labelings(batch):
    spec, rows = batch
    nv = spec.vertex_count
    fs = [vertex_labeling_from_flat(spec, v) for v in rows[:, :nv]]
    gs = [edge_labeling_from_flat(spec, e) for e in rows[:, nv:]]
    vertex_sums = cube_vertex_sums(np.stack([f.grid for f in fs]), spec)
    edge_sums = cube_edge_sums(
        tuple(np.stack([g.per_axis[a] for g in gs]) for a in range(spec.dim)), spec
    )
    assert vertex_sums.shape == edge_sums.shape == (len(rows), *(n - 1 for n in spec.dims))
    for f, g, vs, es in zip(fs, gs, vertex_sums, edge_sums):
        assert vs.tolist() == cube_vertex_sums(f.grid, spec).tolist()
        assert es.tolist() == cube_edge_sums(g.per_axis, spec).tolist()
        assert vs.ravel().tolist() == brute_vertex_cube_sums(spec, f)
        assert es.ravel().tolist() == brute_edge_cube_sums(spec, g)


@settings(max_examples=40, deadline=None)
@given(random_batches())
def test_verify_batch_matches_the_single_verifiers(batch):
    spec, rows = batch
    for kind, kind_rows, reports, per_cube in _batch_kinds(spec, rows):
        lo, hi, bijective = verify_batch(spec, kind, kind_rows)
        assert lo.tolist() == [min(sums) for sums in per_cube]
        assert hi.tolist() == [max(sums) for sums in per_cube]
        assert bijective.tolist() == [report.bijective for report in reports]
        assert (lo == hi).tolist() == [report.magic for report in reports]


def test_verify_batch_sums_past_int64_are_exact():
    # labels near +-2^62: 2^d of them per cube pass int64, so the kernels
    # run on Python ints
    spec = GridSpec((3, 2, 2))
    rng = np.random.default_rng(5)
    offsets = rng.integers(-1000, 1000, (4, spec.vertex_count + spec.edge_count))
    rows = np.vstack((2**62 + offsets[:2], -(2**62) + offsets[2:]))
    for kind, kind_rows, reports, per_cube in _batch_kinds(spec, rows):
        lo, hi, bijective = verify_batch(spec, kind, kind_rows)
        assert lo.tolist() == [min(sums) for sums in per_cube]
        assert hi.tolist() == [max(sums) for sums in per_cube]
        assert max(map(abs, lo.tolist() + hi.tolist())) > INT64_MAX
        assert not bijective.any()


def test_verify_batch_accepts_constructed_labelings():
    spec = GridSpec((4, 3, 2))
    predicted = closed_form_sums(spec)
    f, g = build_labelings(spec)
    total = combine_supermagic(f, g)
    for kind, row, want in [
        ("vertex", f.flat, predicted.c_vertex),
        ("edge", g.flat, predicted.c_edge),
        ("total", np.concatenate((total.vertex.flat, total.edge.flat)), predicted.c_total),
    ]:
        lo, hi, bijective = verify_batch(spec, kind, np.stack((row, row)))
        assert lo.tolist() == hi.tolist() == [want, want]
        assert bijective.tolist() == [True, True]


def test_verify_batch_rejects_rows_of_the_wrong_width():
    spec = GridSpec((3, 2))
    with pytest.raises(SpecMismatch):
        verify_batch(spec, "vertex", np.ones((2, spec.vertex_count + 1), dtype=np.int64))
    with pytest.raises(SpecMismatch):
        verify_batch(spec, "total", np.ones(spec.vertex_count + spec.edge_count, dtype=np.int64))


@pytest.mark.parametrize("kind", ["supermagic", "Vertex", ""])
def test_verify_batch_names_the_kinds_it_knows(kind):
    spec = GridSpec((3, 2))
    rows = np.ones((1, spec.vertex_count), dtype=np.int64)
    with pytest.raises(GridMagicError, match=r"kind must be one of \('vertex', 'edge', 'total'\)"):
        verify_batch(spec, kind, rows)


@pytest.mark.parametrize("kind", ["vertex", "edge", "total"])
def test_verify_batch_of_no_rows_is_three_empty_arrays(kind):
    spec = GridSpec((3, 2, 2))
    width = {"vertex": spec.vertex_count, "edge": spec.edge_count}.get(
        kind, spec.vertex_count + spec.edge_count
    )
    lo, hi, bijective = verify_batch(spec, kind, np.zeros((0, width), dtype=np.int64))
    assert lo.shape == hi.shape == bijective.shape == (0,)
    assert bijective.dtype == bool


def test_verify_batch_refuses_rows_that_are_not_int64_integers():
    spec = GridSpec((3, 2))
    with pytest.raises(SpecMismatch, match="got dtype float64$"):
        verify_batch(spec, "vertex", np.array([[1.5, 6, 4, 3, 5, 2]]))
    with pytest.raises(SpecMismatch, match="got dtype uint64$"):
        verify_batch(spec, "vertex", np.full((1, 6), 2**63, dtype=np.uint64))


@pytest.mark.parametrize("first", [2**63 + 8, -(2**63) - 8])
def test_distinct_sums_of_slabs_stay_exact_past_int64(first):
    # a (4,2) vertex grid as two 2-row slabs: the first slab's one cube sums
    # to `first`, past int64, and the seam's and the second slab's to 9 and
    # -9; float64 would round the first to +-2**63
    sign = 1 if first > 0 else -1
    low = 9 - 8 * sign  # row 2's label sum, so that the seam's cube sums to 9
    grid = np.array([[sign * 2**62] * 2, [sign * 4] * 2, [low, 0], [-9 - low, 0]], dtype=np.int64)
    spec = GridSpec((4, 2))
    report = _report(spec, "vertex", [(grid[:2], None), (grid[2:], None)])
    assert report.cube_sum_values == tuple(sorted([first, -9, 9]))
    assert (report.distinct_count, report.magic, report.magic_sum) == (3, False, None)

"""Documents, renderers, and the command-line contract."""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridmagic
from conftest import PINNED_SPECS, TEXT_BLOCKS, load_script, slab_block, text_blocks
from gridmagic import (
    CoordOutOfRange,
    EdgeId,
    GridSpec,
    LabelingDocument,
    ParseError,
    SpecMismatch,
    UnsupportedDimension,
    UsageError,
    VersionMismatch,
    build_labelings,
    canonicalize,
    cli,
    combine_supermagic,
    document_edge_label,
    document_vertex_label,
    generate_document,
    load,
    render,
    save,
    verify_document,
    verify_edge_magic,
    verify_supermagic,
    verify_vertex_magic,
)
from gridmagic import io_cli, verifier
from gridmagic.io_cli import INT64_MAX, INT64_MIN, KINDS, _load_canonical, document_labeling
from gridmagic.verifier import part_sizes


def test_save_load_roundtrip_is_byte_identical():
    doc = generate_document([5, 3], "total")
    data = save(doc)
    assert data.endswith(b"\n")
    again = load(data)
    assert again == doc
    assert save(again) == data


def test_document_kinds_have_expected_arrays():
    for kind, nv, ne in [("vertex", 15, 0), ("edge", 0, 22), ("total", 15, 22)]:
        doc = generate_document([5, 3], kind)
        assert len(doc.vertex_labels) == nv
        assert len(doc.edge_labels) == ne


def test_load_rejects_truncated_stream():
    data = save(generate_document([5, 3], "total"))
    with pytest.raises(ParseError):
        load(data[: len(data) // 2])


def test_load_rejects_wrong_version():
    payload = json.loads(save(generate_document([3, 2], "vertex")))
    payload["format_version"] = "2"
    with pytest.raises(VersionMismatch):
        load(json.dumps(payload))


def _canonical_json(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


# Hand-written JSON, which only json.loads reads, and save's canonical
# layout, which load reads with its array parser when every value is
# canonical too. The load tests below run each case in both.
ENCODINGS = (lambda payload: json.dumps(payload).encode(), _canonical_json)


def test_load_rejects_length_mismatch():
    payload = json.loads(save(generate_document([5, 3], "total")))
    payload["vertex_labels"] = payload["vertex_labels"][:14]
    for encode in ENCODINGS:
        with pytest.raises(ParseError, match="length mismatch"):
            load(encode(payload))


def test_load_rejects_unknown_or_missing_keys():
    payload = json.loads(save(generate_document([3, 2], "vertex")))
    payload["extra"] = 1
    with pytest.raises(ParseError):
        load(json.dumps(payload))
    del payload["extra"]
    del payload["dims"]
    with pytest.raises(ParseError):
        load(json.dumps(payload))


def test_load_rejects_inconsistent_axis_permutation():
    payload = json.loads(save(generate_document([3, 5, 3], "vertex")))
    payload["axis_permutation"] = [1, 2, 3]
    with pytest.raises(ParseError):
        load(json.dumps(payload))


def test_noncanonical_dims_map_user_coordinates():
    doc = generate_document([3, 5, 3], "total")
    assert doc.dims == (3, 5, 3)
    assert doc.axis_permutation == (2, 1, 3)
    spec = GridSpec((5, 3, 3))
    total = combine_supermagic(*build_labelings(spec))
    for v in itertools.product(range(1, 4), range(1, 6), range(1, 4)):
        canonical = (v[1], v[0], v[2])
        assert document_vertex_label(doc, v) == total.vertex.label(canonical)
    assert document_edge_label(doc, (2, 4, 1), 2) == total.edge.label(EdgeId((4, 2, 1), 1))
    assert document_edge_label(doc, (2, 4, 1), 1) == total.edge.label(EdgeId((4, 2, 1), 2))
    assert document_edge_label(doc, (2, 4, 1), 3) == total.edge.label(EdgeId((4, 2, 1), 3))


def test_render_tikz2d_places_labels():
    text = render(generate_document([5, 3], "total"), "tikz2d")
    assert "\\node (v1_1) at (0,6) {1};" in text
    assert "\\draw (v1_1) -- (v1_2) node[draw=none,midway,right] {16};" in text


def test_render_tikz3d_places_labels():
    text = render(generate_document([5, 3, 3], "vertex"), "tikz3d")
    assert "\\node (v2_1_2) at (3,3) {27};" in text


@pytest.mark.parametrize(
    "dims, style, node",
    [
        # x past 1e5 with a tenths place, and x past 1e6: 6 significant digits round both
        ([33335, 2, 2], "tikz3d", "\\node (v33335_2_1) at (100003.9,4.15) {"),
        ([333335, 2], "tikz2d", "\\node (v333335_1) at (1000002,3) {"),
    ],
    ids=["tikz3d", "tikz2d"],
)
def test_tikz_coordinates_stay_exact_past_six_significant_digits(dims, style, node):
    text = render(generate_document(dims, "vertex"), style)
    assert node in text
    coords = re.findall(r"\\node \S+ at \(([^)]*)\)", text)
    assert len(set(coords)) == len(coords) == math.prod(dims)


def test_render_dimension_mismatches():
    with pytest.raises(UnsupportedDimension):
        render(generate_document([2, 2, 2, 2], "vertex"), "tikz3d")
    with pytest.raises(UnsupportedDimension):
        render(generate_document([2, 2, 2], "vertex"), "tikz2d")


def test_render_dot_is_well_formed():
    doc = generate_document([3, 2], "total")
    text = render(doc, "dot")
    lines = text.strip().splitlines()
    assert lines[0] == "graph gridmagic {"
    assert lines[-1] == "}"
    assert sum(1 for line in lines if " -- " in line) == 7
    assert '"1,1" [label="1"];' in text


def test_render_csv_lists_every_element():
    doc = generate_document([3, 2], "total")
    lines = render(doc, "csv").strip().splitlines()
    assert lines[0] == "kind,x1,x2,axis,label"
    assert len(lines) == 1 + 6 + 7
    assert lines[1] == "vertex,1,1,,1"
    assert any(line.startswith("edge,1,1,1,") for line in lines)


@pytest.mark.parametrize("dims", [(4, 3, 2), (5, 3), (3, 3, 3)])
def test_verify_document_matches_in_memory_verification(dims):
    doc = load(save(generate_document(list(dims), "total")))
    report = verify_document(doc)
    assert report.magic and report.bijective
    spec = GridSpec(dims)
    direct = verify_supermagic(spec, combine_supermagic(*build_labelings(spec)))
    assert report == direct


# --- command line ------------------------------------------------------


def run_cli(capsys, argv, stdin: bytes | None = None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
    code = cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_predict(capsys):
    code, out, err = run_cli(capsys, ["predict", "--dims", "5,3,3"])
    assert code == 0
    assert out == "c_vertex=184 c_edge=594 c_total=1318\n"
    assert err == ""


def test_cli_generate_verify_pipeline(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["generate", "--dims", "5,3"])
    assert code == 0
    code, out, err = run_cli(capsys, ["verify", "-"], stdin=out.encode(), monkeypatch=monkeypatch)
    assert code == 0
    assert "MAGIC sum=138" in out
    assert err == ""


def test_cli_generate_to_file_and_verify(tmp_path, capsys):
    path = tmp_path / "doc.json"
    code, out, _ = run_cli(capsys, ["generate", "--dims", "4,4", "--out", str(path)])
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, ["verify", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == "MAGIC sum=148"


def test_cli_stdout_is_deterministic(capsys):
    first = run_cli(capsys, ["generate", "--dims", "4,3"])
    second = run_cli(capsys, ["generate", "--dims", "4,3"])
    assert first == second


def test_cli_verify_rejects_corrupted_fixture(capsys):
    code, out, _ = run_cli(capsys, ["verify", "tests/fixtures/grid53_total_swapped.json"])
    assert code == 1
    machine = out.strip().splitlines()[-1]
    assert machine.startswith("NOT_MAGIC distinct=")
    assert int(machine.split("=")[1]) >= 2


def test_cli_verify_missing_file(capsys):
    code, out, err = run_cli(capsys, ["verify", "/no/such/file.json"])
    assert code == 2
    assert out == ""
    assert err != ""


def _vertex_document(dims, labels, encode=ENCODINGS[0]) -> bytes:
    payload = json.loads(save(generate_document(dims, "vertex")))
    payload["vertex_labels"] = labels
    return encode(payload)


def test_cli_verify_does_not_wrap_int64_cube_sums(capsys, monkeypatch):
    # the two squares sum to 5 and to 2**64 + 5; in int64 both read 5
    data = _vertex_document([3, 2], [2**63 - 1, 2**63 - 1, 3, 4, -1, -1])
    code, out, _ = run_cli(capsys, ["verify", "-"], stdin=data, monkeypatch=monkeypatch)
    assert code == 1
    assert f"values={[5, 2**64 + 5]}" in out
    assert out.splitlines()[-1] == "NOT_MAGIC distinct=2"


@pytest.mark.parametrize("label", [2**63, -(2**63) - 1])
def test_labels_outside_int64_are_parse_errors(capsys, monkeypatch, label):
    for encode in ENCODINGS:
        data = _vertex_document([3, 2], [1, 2, 3, 4, 5, label], encode)
        with pytest.raises(ParseError, match="vertex_labels"):
            load(data)
        code, out, err = run_cli(capsys, ["verify", "-"], stdin=data, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("i/o error:")


def test_int64_extremes_load():
    labels = [-(2**63), 2**63 - 1, 3, 4, 5, 6]
    for encode in ENCODINGS:
        assert load(_vertex_document([3, 2], labels, encode)).vertex_labels.tolist() == labels


@pytest.mark.parametrize(
    "text, result",
    [
        ("-0", 0),  # valid JSON for 0, though save never writes it
        ("01", ParseError("invalid JSON at line 1")),
        ("-01", ParseError("invalid JSON at line 1")),
        ("1.0", ParseError("vertex_labels must be a list of integers")),
        ("12345678901234567890", ParseError("vertex_labels must lie in")),
        ("-9223372036854775808", -(2**63)),
    ],
)
def test_non_canonical_numbers_in_canonical_layout(text, result):
    data = save(generate_document([3, 2], "vertex"))
    head, sep, tail = data.rpartition(b'"vertex_labels":[1')
    data = head + sep[:-1] + text.encode() + tail
    canonical = text == "-9223372036854775808"
    assert (_load_canonical(io.BytesIO(data)) is not None) == canonical  # only it takes the array path
    if isinstance(result, Exception):
        with pytest.raises(type(result), match=str(result)):
            load(data)
    else:
        labels = load(data).vertex_labels.tolist()
        assert labels == [result] + json.loads(data)["vertex_labels"][1:]


def test_loaded_label_arrays_are_read_only_int64():
    doc = load(save(generate_document([4, 3], "total")))
    for labels in (doc.vertex_labels, doc.edge_labels):
        assert labels.dtype == np.int64 and labels.ndim == 1
        assert not labels.flags.writeable
    assert generate_document([4, 3], "vertex").edge_labels.dtype == np.int64


def test_document_leaves_the_callers_array_writable():
    vertex, edge = np.arange(1, 7, dtype=np.int64), np.arange(7, 14, dtype=np.int64)
    doc = LabelingDocument((3, 2), "total", vertex, edge)
    assert vertex.flags.writeable and edge.flags.writeable
    assert not doc.vertex_labels.flags.writeable and not doc.edge_labels.flags.writeable
    assert np.shares_memory(doc.vertex_labels, vertex)  # a view, not a copy


def test_document_coerces_int_sequences():
    doc = generate_document([3, 2], "vertex")
    rebuilt = LabelingDocument(doc.dims, doc.kind, tuple(doc.vertex_labels.tolist()), ())
    assert rebuilt == doc
    assert not rebuilt.vertex_labels.flags.writeable
    assert save(rebuilt) == save(doc)


@pytest.mark.parametrize(
    "labels, dtype",
    [
        ([1.5, 6, 4, 3, 5, 2], "float64"),  # verify_document read it as MAGIC sum=14
        (np.full(6, 2**63, dtype=np.uint64), "uint64"),
        (["1", "2", "3", "4", "5", "6"], "<U1"),
        ([True, False, True, False, True, False], "bool"),
    ],
)
def test_document_refuses_labels_that_are_not_int64_integers(labels, dtype):
    with pytest.raises(SpecMismatch, match=f"got dtype {dtype}$"):
        LabelingDocument((3, 2), "vertex", labels, ())
    with pytest.raises(SpecMismatch, match=f"got dtype {dtype}$"):
        LabelingDocument((3, 2), "edge", (), [*labels, labels[0]])


@pytest.mark.parametrize(
    "load_only, version, dims, perm, kind, n_v, n_e, error, text",
    [
        (False, "1", (3, 2), (1, 2), "vertex", 5, 0, ParseError, "vertex_labels length mismatch: got 5, want 6"),
        (False, "1", (3, 2), (1, 2), "total", 6, 8, ParseError, "edge_labels length mismatch: got 8, want 7"),
        (False, "1", (3, 2), (1, 2), "edge", 6, 7, ParseError, "vertex_labels length mismatch: got 6, want 0"),
        (False, "1", (3, 2), (1, 2), "supermagic", 6, 0, ParseError, "kind must be one of"),
        (False, "1", (3,), (1,), "vertex", 3, 0, ParseError, r"bad dims \[3\]: need at least 2 axes, got 1"),
        (False, "1", (3, 1), (1, 2), "vertex", 3, 0, ParseError, r"bad dims \[3, 1\]: every side length must be >= 2"),
        (False, "1", (2**32, 2**31), (1, 2), "vertex", 0, 0, ParseError, r"bad dims \[4294967296, 2147483648\]: \|V\|\+\|E\|"),
        # a document derives its permutation and saves FORMAT_VERSION, so only a file holds these faults
        (True, "1", (3, 2), (2, 1), "vertex", 6, 0, ParseError, r"axis_permutation inconsistent with dims, want \[1, 2\]"),
        (True, "2", (3, 2), (1, 2), "vertex", 6, 0, VersionMismatch, "format_version '2', supported '1'"),
    ],
)
def test_document_refuses_what_load_refuses(load_only, version, dims, perm, kind, n_v, n_e, error, text):
    vertex, edge = np.arange(1, n_v + 1), np.arange(1, n_e + 1)
    payload = {
        "format_version": version, "dims": list(dims), "axis_permutation": list(perm),
        "kind": kind, "vertex_labels": vertex.tolist(), "edge_labels": edge.tolist(),
    }
    with pytest.raises(error, match=text) as loaded:
        load(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    if load_only:
        doc = LabelingDocument(dims, kind, vertex, edge)
        assert load(save(doc)) == doc
        return
    with pytest.raises(error) as built:
        LabelingDocument(dims, kind, vertex, edge)
    assert type(built.value) is type(loaded.value)
    assert str(built.value) == str(loaded.value)


def test_document_refuses_labels_that_are_not_one_dimensional():
    with pytest.raises(SpecMismatch, match=r"labels must be one-dimensional, got shape \(2, 3\)$"):
        LabelingDocument((3, 2), "vertex", np.arange(1, 7).reshape(2, 3), ())


@pytest.mark.parametrize("version", ["2", "", 1, None])
def test_load_refuses_a_format_version_it_does_not_support(version):
    payload = json.loads(save(generate_document([3, 2], "vertex")))
    payload["format_version"] = version
    for encode in ENCODINGS:
        with pytest.raises(VersionMismatch, match=f"^format_version {version!r}, supported '1'$"):
            load(encode(payload))


@pytest.mark.parametrize(
    "dims, perm", [([3, 2], [1, 2]), (np.array([2, 3]), np.array([2, 1])), ((2, 3), [2, 1])]
)
def test_document_keeps_dims_and_permutation_as_int_tuples(dims, perm):
    doc = LabelingDocument(dims, "vertex", np.arange(1, 7), ())
    assert doc.dims == tuple(np.asarray(dims).tolist())
    assert doc.axis_permutation == tuple(np.asarray(perm).tolist())
    assert all(type(n) is int for n in doc.dims + doc.axis_permutation)
    assert doc == load(save(doc))


def test_document_derives_its_spec():
    doc = LabelingDocument((2, 3), "vertex", np.arange(1, 7), ())
    assert doc.spec == GridSpec((3, 2)) and doc.axis_permutation == (2, 1)
    assert load(save(doc)) == doc


@st.composite
def caller_documents(draw):
    """A document of any kind and random int64 labels over a canonical spec
    with d = 2..5 and sides 2..6, its axes in a random caller order."""
    spec = GridSpec(tuple(sorted(draw(st.lists(st.integers(2, 6), min_size=2, max_size=5)), reverse=True)))
    dims = draw(st.permutations(spec.dims))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vertex, edge = (rng.integers(INT64_MIN, INT64_MAX, n, endpoint=True) for n in part_sizes(spec, kind))
    return LabelingDocument(tuple(dims), kind, vertex, edge)


@settings(max_examples=100, deadline=None)
@given(caller_documents(), st.data())
def test_documents_round_trip_and_load_refuses_any_other_permutation(doc, data):
    perm = canonicalize(doc.dims)[1]
    assert doc.axis_permutation == perm
    saved = save(doc)
    assert load(saved) == doc
    other = data.draw(st.permutations(range(1, len(perm) + 1)).filter(lambda p: tuple(p) != perm))
    head = b'{"axis_permutation":[%s]' % b",".join(b"%d" % p for p in perm)
    assert saved.startswith(head)
    bad = b'{"axis_permutation":[%s]' % b",".join(b"%d" % p for p in other) + saved[len(head):]
    want = re.escape(f"axis_permutation inconsistent with dims, want {list(perm)}")
    for encoded in (bad, bad.decode()):  # the array parser, and json.loads
        with pytest.raises(ParseError, match=f"^{want}$"):
            load(encoded)


# Every JSON value that is not an integer, as an element of each integer list.
NON_INTEGERS = ["true", "1.0", "1.5", '"3"', "null", "[1]"]
INTEGER_LISTS = ["vertex_labels", "edge_labels", "dims", "axis_permutation"]


@pytest.mark.parametrize("key", INTEGER_LISTS)
@pytest.mark.parametrize("value", NON_INTEGERS)
def test_load_rejects_non_integer_list_elements(capsys, monkeypatch, key, value):
    payload = json.loads(save(generate_document([3, 2], "total")))
    payload[key][0] = json.loads(value)
    for encode in ENCODINGS:
        data = encode(payload)
        with pytest.raises(ParseError, match=key):
            load(data)
        code, out, err = run_cli(capsys, ["verify", "-"], stdin=data, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("i/o error:")


MALFORMED = {
    "not utf-8": b"\xff\xfe",
    "nested lists": b"[" * 100_000 + b"]" * 100_000,
    "nested in an object": b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    "number past the int-string limit": b'{"edge_labels":[' + b"1" * 5000 + b"]}",
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_bytes_are_parse_errors(capsys, monkeypatch, data):
    with pytest.raises(ParseError):
        load(data)
    for argv in (["verify", "-"], ["render", "-", "--style", "csv"]):
        code, out, err = run_cli(capsys, argv, stdin=data, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("i/o error:")


# --- label lookups -------------------------------------------------------


def _caller_to_canonical(doc, coord):
    out = [0] * len(coord)
    for caller_axis, c in enumerate(coord):
        out[doc.axis_permutation[caller_axis] - 1] = c
    return tuple(out)


@pytest.mark.parametrize("dims", [(3, 2), (2, 4, 3), (3, 2, 3), (2, 3, 2, 2)])
@pytest.mark.parametrize("kind", ["vertex", "edge", "total"])
def test_lookups_match_materialized_labeling(dims, kind):
    doc = generate_document(list(dims), kind)
    labeling = document_labeling(doc)
    vertex_of = labeling.vertex.label if kind == "total" else labeling.label
    edge_of = labeling.edge.label if kind == "total" else labeling.label
    vertices = list(itertools.product(*(range(1, n + 1) for n in dims)))
    for v in vertices:
        if kind != "edge":
            assert document_vertex_label(doc, v) == vertex_of(_caller_to_canonical(doc, v))
        if kind == "vertex":
            continue
        for axis in range(1, len(dims) + 1):
            if v[axis - 1] == dims[axis - 1]:
                continue
            edge = EdgeId(_caller_to_canonical(doc, v), doc.axis_permutation[axis - 1])
            label = document_edge_label(doc, v, axis)
            assert type(label) is int and label == edge_of(edge)


def test_lookup_errors_keep_their_classes():
    total = generate_document([3, 5, 4], "total")
    with pytest.raises(UsageError):
        document_vertex_label(total, (1, 1))
    with pytest.raises(UsageError):
        document_edge_label(total, (1, 1, 1, 1), 1)
    with pytest.raises(CoordOutOfRange):
        document_vertex_label(total, (4, 1, 1))
    with pytest.raises(CoordOutOfRange):
        document_vertex_label(total, (0, 1, 1))
    with pytest.raises(CoordOutOfRange):
        document_edge_label(total, (3, 1, 1), 1)  # no room along caller axis 1
    with pytest.raises(UsageError):
        document_vertex_label(generate_document([3, 5, 4], "edge"), (1, 1, 1))
    with pytest.raises(UsageError):
        document_edge_label(generate_document([3, 5, 4], "vertex"), (1, 1, 1), 1)


@pytest.mark.parametrize("axis", [0, -1, 4, 1.0])
def test_edge_lookup_rejects_bad_axes(axis):
    # axis 0 and -1 used to index from the end and return another axis's label
    doc = generate_document([3, 5, 4], "total")
    assert document_edge_label(doc, (1, 1, 1), 3) == 123
    with pytest.raises(CoordOutOfRange):
        document_edge_label(doc, (1, 1, 1), axis)


def test_lookups_reject_non_integral_coordinates():
    doc = generate_document([3, 5, 4], "total")
    with pytest.raises(CoordOutOfRange):
        document_vertex_label(doc, (1.5, 1, 1))
    with pytest.raises(CoordOutOfRange):
        document_edge_label(doc, (1, 1.5, 1), 1)
    assert document_vertex_label(doc, (np.int64(1), 1, 1)) == document_vertex_label(doc, (1, 1, 1))


# --- fixtures --------------------------------------------------------------


def test_fixture_regeneration_is_reproducible(tmp_path, monkeypatch, capsys):
    module = load_script("make_fixtures")
    monkeypatch.setattr(module, "FIXTURES", tmp_path)
    assert module.main() == 0
    committed = Path(__file__).resolve().parent / "fixtures"
    names = sorted(path.name for path in committed.glob("*.json"))
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name


def test_cli_usage_errors(capsys):
    assert run_cli(capsys, ["bogus"])[0] == 64
    assert run_cli(capsys, ["generate", "--dims", "5"])[0] == 64
    assert run_cli(capsys, ["generate", "--dims", "5,x"])[0] == 64
    assert run_cli(capsys, ["generate", "--dims", "5,1"])[0] == 64
    assert run_cli(capsys, ["cover", "--dims", "1,5"])[0] == 64
    assert run_cli(capsys, ["search", "--dims", "2,2"])[0] == 64  # missing --mode


def test_cli_search_histogram(capsys):
    code, out, _ = run_cli(capsys, ["search", "--dims", "2,2", "--mode", "supermagic"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mode=supermagic dims=2,2 examined=576 found=576"
    assert lines[1] == "sum=36 count=576"


def test_cli_search_stdout_bytes(capsys):
    code, out, err = run_cli(capsys, ["search", "--dims", "3,2", "--mode", "edge"])
    assert (code, err) == (0, "")
    assert out == (
        "mode=edge dims=3,2 examined=5040 found=216\n"
        "sum=15 count=72\n"
        "sum=16 count=72\n"
        "sum=17 count=72\n"
    )


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_search_rejects_non_positive_budget(capsys, budget):
    code, out, err = run_cli(
        capsys, ["search", "--dims", "2,2", "--mode", "vertex", "--budget", budget]
    )
    assert code == 64
    assert out == ""
    assert err.startswith("usage error: ") and "--budget" in err


def test_cli_search_budget_refusal(capsys):
    code, out, err = run_cli(capsys, ["search", "--dims", "3,3", "--mode", "supermagic"])
    assert code == 1
    assert out == ""
    assert "refused" in err


def run_fresh(argv, interpreter=("-c", "import sys, gridmagic; sys.exit(gridmagic.cli(sys.argv[1:]))"), input=None):
    """Run the CLI in a fresh interpreter, so a hang fails the test instead of stalling the suite.

    `input`, if given, is written to the CLI's stdin through a pipe.
    """
    src = str(Path(gridmagic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *interpreter, *argv],
        input=input,
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize(
    "dims, mode, space",
    [
        ("40,40", "vertex", "1600!"),  # counts past 4300 digits once printed a traceback
        ("29,29", "edge", "1624!"),
        ("39,39", "vertex", "1521!"),  # printed the whole count, thousands of digits
        ("1000,1000", "vertex", "1000000!"),  # took seconds or minutes to refuse
        ("2000,2000", "edge", "7996000!"),
    ],
)
def test_cli_search_refuses_large_grids_promptly(dims, mode, space):
    run = run_fresh(["search", "--dims", dims, "--mode", mode])
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == (
        f"refused: search needs {space} candidate assignments, budget allows 100000000\n"
    )


def test_cli_refuses_a_grid_too_large_to_allocate():
    # 10^14 vertices, 728 TiB of labels: past any 48-bit address space, so
    # the allocation fails at once and nothing pages in
    run = run_fresh(["generate", "--dims", "10000000,10000000"])
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.startswith("refused: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr


def test_load_memory_stays_near_the_label_arrays():
    # runs keep the parser's temporaries small; whole-array passes peaked
    # near 5x the labels. numpy reports its buffers to tracemalloc. Each run,
    # a slab's ~16,000 values of one list, is parsed straight into the label
    # arrays: the peak was the arrays plus 819,398 to 823,419 bytes, against
    # 2,012,177 when 256 KiB pieces that ignored slab boundaries filled them
    # (numpy 2.4.6, Python 3.11.7).
    doc = generate_document((577, 577), "total")
    data, label_bytes = save(doc), doc.vertex_labels.nbytes + doc.edge_labels.nbytes
    del doc
    tracemalloc.start()
    try:
        loaded = load(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded.edge_labels) == 2 * 577 * 576
    assert peak < 1.5 * label_bytes
    assert peak <= label_bytes + 900_000


def test_verify_document_memory_stays_near_a_slab():
    # the report keeps a copy of a magic labeling's one sum; kept as views
    # of the slabs' sums, those stayed alive and the peak was 4.01 MB at
    # 577x577, against 1.67 MB (numpy 2.4.6, Python 3.11.7)
    doc = generate_document((577, 577), "total")
    tracemalloc.start()
    try:
        report = verify_document(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.magic and report.bijective
    assert peak <= 2_000_000


@pytest.mark.parametrize("style", ["dot", "tikz2d"])
def test_render_memory_stays_near_the_text(style):
    # `_slab_text` fills a buffer per table, allocated at the table's bound
    # before the first slab. At 577x577 the text is 37.8 MB for dot and
    # 63.7 MB for tikz2d, and the peaks 43.7 and 73.9 MB (numpy 2.4.6,
    # Python 3.11.7), so a looser bound shows here.
    doc = generate_document((577, 577), "total")
    tracemalloc.start()
    try:
        parts = io_cli._render_parts(doc, style)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * sum(len(part) for part in parts)


@pytest.mark.parametrize("block", TEXT_BLOCKS)
def test_cli_writes_blocks_as_save_and_render_join_them(tmp_path, capsys, block):
    dims, path = "7,5,3", tmp_path / "doc.json"
    doc = generate_document([7, 5, 3], "total")
    data, renders = save(doc), {style: render(doc, style) for style in ("csv", "dot", "tikz3d")}
    with text_blocks(block):
        assert run_cli(capsys, ["generate", "--dims", dims, "--out", str(path)]) == (0, "", "")
        assert path.read_bytes() == data
        assert run_cli(capsys, ["generate", "--dims", dims]) == (0, data.decode(), "")
        assert run_cli(capsys, ["generate", "--dims", dims, "--format", "csv"]) == (0, renders["csv"], "")
        for style, text in renders.items():
            assert run_cli(capsys, ["render", str(path), "--style", style]) == (0, text, "")


def test_cli_refusal_while_building_output_writes_nothing(tmp_path, capsys, monkeypatch):
    # each command refuses at the last table it builds, in the last of its
    # slabs of one or two leading rows, once the rest of its text is built
    tables, last, cell_table = [], 0, io_cli._cell_table  # refuse table number `last`, 0 for none

    def refusing(shape, *fields):
        tables.append(shape)
        if len(tables) == last:
            raise MemoryError
        return cell_table(shape, *fields)

    path, doc2, doc3 = tmp_path / "out.json", tmp_path / "doc2.json", tmp_path / "doc3.json"
    doc2.write_bytes(save(generate_document((5, 3), "total")))
    doc3.write_bytes(save(generate_document((5, 3, 2), "total")))
    commands = [["generate", "--dims", "5,3", "--out", str(path)], ["generate", "--dims", "5,3"]]
    commands += [["render", str(doc2), "--style", style] for style in ("csv", "dot", "tikz2d")]
    commands += [["render", str(doc3), "--style", "tikz3d"]]
    monkeypatch.setattr(io_cli, "_WRITE_BLOCK", 6)
    monkeypatch.setattr(io_cli, "_cell_table", refusing)
    for argv in commands:
        last, tables[:] = 0, []
        assert run_cli(capsys, argv)[0] == 0
        path.unlink(missing_ok=True)
        last, tables[:] = len(tables), []
        assert run_cli(capsys, argv) == (1, "", "refused: out of memory\n"), argv
        assert not path.exists()


def test_cli_render_and_cover(tmp_path, capsys):
    path = tmp_path / "doc.json"
    run_cli(capsys, ["generate", "--dims", "5,3", "--out", str(path)])
    code, out, _ = run_cli(capsys, ["render", str(path), "--style", "tikz2d"])
    assert code == 0 and "{16}" in out
    code, out, _ = run_cli(capsys, ["render", str(path), "--style", "tikz3d"])
    assert code == 64
    code, out, _ = run_cli(capsys, ["cover", "--dims", "9,4,2,2"])
    assert code == 0 and out.strip() == "COVERED"


def test_cli_cover_answers_huge_grids_promptly():
    # 1999**3 cubes: enumerating them would not finish
    run = run_fresh(["cover", "--dims", "2000,2000,2000"])
    assert (run.returncode, run.stdout, run.stderr) == (0, "COVERED\n", "")


@pytest.mark.parametrize("indent", [None, 1], ids=["canonical", "indented"])
def test_cli_reads_a_piped_document_as_it_reads_a_path(tmp_path, indent):
    # a pipe cannot seek: the canonical reader, the JSON reader and render
    # each read the document from the start all the same
    text = save(generate_document((5, 3, 3), "total")).decode()
    if indent is not None:
        text = json.dumps(json.loads(text), indent=indent)
    path = tmp_path / "doc.json"
    path.write_text(text)
    for command, *options in (["verify"], ["render", "--style", "csv"]):
        by_path = run_fresh([command, str(path), *options])
        piped = run_fresh([command, "-", *options], input=text)
        assert by_path.returncode == 0 and by_path.stdout
        assert (piped.returncode, piped.stdout) == (by_path.returncode, by_path.stdout)


def test_cli_parser_keeps_no_state_between_calls(capsys):
    calls = [
        ["predict", "--dims", "5,3"],
        ["generate", "--dims", "5,3", "--kind", "bogus"],
        ["cover", "--dims", "9,4,2,2"],
        ["generate", "--dims", "4,3", "--format", "csv"],
    ]
    in_process = [run_cli(capsys, argv) for argv in calls]
    separate = [run_fresh(argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [0, 64, 0, 0]
    assert in_process == [(run.returncode, run.stdout, run.stderr) for run in separate]


def test_python_m_gridmagic_runs_without_warnings():
    run = run_fresh(["predict", "--dims", "3,2"], interpreter=("-W", "error", "-m", "gridmagic"))
    assert (run.returncode, run.stdout, run.stderr) == (0, "c_vertex=14 c_edge=16 c_total=54\n", "")


def test_cli_help_names_the_program(capsys):
    # without an explicit prog, argparse names the program after sys.argv[0]
    run = run_fresh(["--help"], interpreter=("-m", "gridmagic"))
    assert run.returncode == 0 and run.stdout.startswith("usage: gridmagic ")
    with pytest.raises(SystemExit) as info:
        cli(["verify", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gridmagic verify ")


def test_cli_generate_csv_format(capsys):
    code, out, _ = run_cli(capsys, ["generate", "--dims", "3,2", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "kind,x1,x2,axis,label"


# --- slab by slab ------------------------------------------------------


# the verifiers of whole labelings, which take every leading row as one slab
WHOLE_VERIFIERS = {"vertex": verify_vertex_magic, "edge": verify_edge_magic, "total": verify_supermagic}


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_slab_reports_equal_whole_reports(monkeypatch, rows):
    from conftest import random_canonical_specs

    for spec in random_canonical_specs():
        monkeypatch.setattr(io_cli, "_WRITE_BLOCK", slab_block(spec, rows))
        kinds = KINDS if spec.dims in PINNED_SPECS else ("total",)
        for kind in kinds:
            doc = generate_document(spec.dims, kind)
            whole = WHOLE_VERIFIERS[kind](spec, document_labeling(doc))
            assert verify_document(doc) == whole
            assert verifier._report(spec, kind, io_cli._constructed_slabs(spec, kind)) == whole


VERIFIED_FILES = sorted(Path("tests/fixtures").glob("*.json"))
VERIFIED_DOCS = [((3, 5, 3), "total"), ((2, 3, 2, 4), "edge"), ((12, 10, 8, 7), "vertex"), ((7, 9), "total")]


def refuse_canonical(handle):
    raise io_cli._NotCanonical


def verify_file(capsys, path, whole=False):
    """`gridmagic verify` of `path`; with `whole`, the canonical reader refuses every file."""
    with pytest.MonkeyPatch.context() as patch:
        if whole:
            patch.setattr(io_cli, "_canonical_lists", refuse_canonical)
        return run_cli(capsys, ["verify", str(path)])


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("block", TEXT_BLOCKS)
def test_verify_files_match_load_and_verify_document(tmp_path, capsys, monkeypatch, rows, block):
    paths = list(VERIFIED_FILES)
    for dims, kind in VERIFIED_DOCS:
        paths.append(tmp_path / f"{kind}-{len(paths)}.json")
        paths[-1].write_bytes(save(generate_document(dims, kind)))
    for path in paths:
        expected = verify_file(capsys, path, whole=True)
        spec, _ = canonicalize(json.loads(path.read_bytes())["dims"])
        monkeypatch.setattr(io_cli, "_WRITE_BLOCK", slab_block(spec, rows))
        with text_blocks(block):
            assert verify_file(capsys, path) == expected, path


def reencodings(data: bytes) -> dict[str, bytes]:
    """Valid JSON for the document in `data`, in two layouts other than `save`'s."""
    payload = json.loads(data)
    return {
        "indented": json.dumps(payload, indent=1).encode(),
        "keys reversed": json.dumps(dict(reversed(payload.items())), separators=(",", ":")).encode(),
    }


@pytest.mark.parametrize("dims", [(3, 5, 3), (2, 3, 2, 4)])
@pytest.mark.parametrize("kind", KINDS)
def test_non_canonical_layouts_read_as_the_canonical_bytes(tmp_path, capsys, dims, kind):
    doc = generate_document(dims, kind)
    path = tmp_path / "doc.json"
    path.write_bytes(save(doc))
    expected = [run_cli(capsys, [*argv, str(path)]) for argv in (["verify"], ["render", "--style", "csv"])]
    canonical_lists = io_cli._canonical_lists
    for name, data in reencodings(save(doc)).items():
        assert load(data) == doc, name
        path.write_bytes(data)
        reads = []

        def counted(handle):
            reads.append(handle)
            return canonical_lists(handle)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(io_cli, "_canonical_lists", counted)
            assert run_cli(capsys, ["verify", str(path)]) == expected[0], name
        assert len(reads) == 1, name  # the fallback does not run the canonical reader again
        assert run_cli(capsys, ["render", "--style", "csv", str(path)]) == expected[1], name


def test_verify_reads_canonical_documents_without_loading_them(tmp_path, capsys, monkeypatch):
    path = tmp_path / "doc.json"
    data = save(generate_document((6, 9, 4), "total"))
    path.write_bytes(data)

    def refuse(*args):
        raise AssertionError("the document was read whole")

    monkeypatch.setattr(io_cli, "load", refuse)
    monkeypatch.setattr(io_cli, "verify_document", refuse)
    code, out, err = run_cli(capsys, ["verify", str(path)])
    assert (code, out.splitlines()[-1], err) == (0, "MAGIC sum=6766", "")
    assert run_cli(capsys, ["verify", "-"], stdin=data, monkeypatch=monkeypatch) == (code, out, err)


def test_verify_reads_a_pipe(tmp_path, capsys):
    data = save(generate_document((5, 3), "total"))
    read, write = os.pipe()
    os.write(write, data)
    os.close(write)
    code, out, _ = run_cli(capsys, ["verify", f"/dev/fd/{read}"])
    os.close(read)
    assert (code, out.splitlines()[-1]) == (0, "MAGIC sum=138")

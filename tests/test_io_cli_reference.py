"""The array JSON codec of `save` and `load` against the json-module codec it replaced.

`reference_save` and `reference_load` are the old implementations: `save`
handed `tolist()` to `json.dumps`, and `load` ran `json.loads` on every
input. Their bytes, documents and errors define the format, so the array
codec must reproduce them exactly, error types and messages included.
`reference_load` carries two fixes made since: bytes that are not UTF-8,
and integers longer than Python's int-string limit (a `ValueError` from
json.loads), raise `ParseError` instead of the `UnicodeDecodeError` or
`ValueError` that escaped the command line with a traceback. Its check
of the stored `axis_permutation` comes after the length checks, where
`load` makes it once the document has derived its own permutation. `load`
checks in the same order (the version, dims, kind, the label lists'
types and lengths, then the permutation), so a document with several
faults is refused for the same one.

The array codec parses and writes in blocks, so each comparison also runs
with block sizes small enough to put block boundaries between list items.
`gridmagic verify` reads canonical documents as runs, the text of one
slab's values in one list each, and must print and exit exactly as `load`
followed by `verify_document` does, on every document and every one-byte
mutation of one, and on a bad value at either edge of any run. `reference_list_extent`
is the list extent as it was before the mark search looked only in the
4 KiB block that holds each mark.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import sys

import numpy as np
import pytest
from conftest import PINNED_SPECS, TEXT_BLOCKS, slab_block, text_blocks
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmagic import (
    GridMagicError,
    LabelingDocument,
    ParseError,
    VersionMismatch,
    canonicalize,
    cli,
    generate_document,
    load,
    render,
    save,
)
from gridmagic import io_cli
from gridmagic.io_cli import FORMAT_VERSION, INT64_MAX, INT64_MIN, KINDS, _load_canonical


def reference_save(doc: LabelingDocument) -> bytes:
    return reference_encode(
        {
            "format_version": FORMAT_VERSION,
            "dims": list(doc.dims),
            "axis_permutation": list(doc.axis_permutation),
            "kind": doc.kind,
            "vertex_labels": doc.vertex_labels.tolist(),
            "edge_labels": doc.edge_labels.tolist(),
        }
    )


def reference_encode(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _reference_int64_array(raw: object, key: str) -> np.ndarray:
    if not isinstance(raw, list) or not set(map(type, raw)) <= {int}:
        raise ParseError(f"{key} must be a list of integers")
    try:
        return np.array(raw, dtype=np.int64)
    except OverflowError:
        raise ParseError(f"{key} must lie in [{INT64_MIN}, {INT64_MAX}]") from None


def reference_load(data: bytes | str) -> LabelingDocument:
    try:
        text = data.decode() if isinstance(data, bytes) else data
    except UnicodeDecodeError as e:
        raise ParseError(f"document is not UTF-8: {e.reason} at byte {e.start}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except ValueError as e:
        raise ParseError(f"invalid JSON number: {e}") from None
    if not isinstance(payload, dict):
        raise ParseError("document root must be an object")
    expected = {"format_version", "dims", "axis_permutation", "kind", "vertex_labels", "edge_labels"}
    if set(payload) != expected:
        missing = expected - set(payload)
        extra = set(payload) - expected
        raise ParseError(f"bad document keys: missing {sorted(missing)}, unknown {sorted(extra)}")
    version = payload["format_version"]
    if not isinstance(version, str) or version != FORMAT_VERSION:
        raise VersionMismatch(f"format_version {version!r}, supported {FORMAT_VERSION!r}")
    dims = tuple(_reference_int64_array(payload["dims"], "dims").tolist())
    try:
        spec, perm = canonicalize(dims)
    except GridMagicError as e:
        raise ParseError(f"bad dims {list(dims)}: {e}") from e
    kind = payload["kind"]
    if kind not in KINDS:
        raise ParseError(f"kind must be one of {KINDS}, got {kind!r}")
    vertex_labels = _reference_int64_array(payload["vertex_labels"], "vertex_labels")
    edge_labels = _reference_int64_array(payload["edge_labels"], "edge_labels")
    want_v = spec.vertex_count if kind in ("vertex", "total") else 0
    want_e = spec.edge_count if kind in ("edge", "total") else 0
    if len(vertex_labels) != want_v:
        raise ParseError(f"vertex_labels length mismatch: got {len(vertex_labels)}, want {want_v}")
    if len(edge_labels) != want_e:
        raise ParseError(f"edge_labels length mismatch: got {len(edge_labels)}, want {want_e}")
    if tuple(_reference_int64_array(payload["axis_permutation"], "axis_permutation").tolist()) != perm:
        raise ParseError(f"axis_permutation inconsistent with dims, want {list(perm)}")
    return LabelingDocument(dims, kind, vertex_labels, edge_labels)


def outcome(parse, data):
    """What `parse` makes of `data`: the document, or the error's type and text."""
    try:
        return parse(data)
    except Exception as e:  # the comparison covers every error, expected or not
        return type(e), str(e)


# Every digit count from 1 to 19, both signs, and the int64 edges.
EDGE_LABELS = [0, 1, -1, 9, 10, -10, INT64_MAX, INT64_MIN, INT64_MAX - 1, INT64_MIN + 1, 10**18, -(10**18)]
labels = st.one_of(
    st.sampled_from(EDGE_LABELS),
    st.integers(INT64_MIN, INT64_MAX),
    st.integers(1, 19).flatmap(lambda w: st.integers(10 ** (w - 1), min(10**w - 1, INT64_MAX))),
    st.integers(1, 19).flatmap(lambda w: st.integers(-min(10**w - 1, 2**63), -(10 ** (w - 1)))),
)


@st.composite
def encoded_documents(draw):
    """Documents of every kind for d = 2..4 as `reference_save` writes them.

    Some label lists have a wrong length. `LabelingDocument` refuses such a
    document, so the bytes are encoded from the payload, not from a document.
    """
    sides = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    spec, perm = canonicalize(sides)
    kind = draw(st.sampled_from(KINDS))
    want_v = spec.vertex_count if kind != "edge" else 0
    want_e = spec.edge_count if kind != "vertex" else 0
    n_v = draw(st.one_of(st.just(want_v), st.integers(0, 3)))
    n_e = draw(st.one_of(st.just(want_e), st.integers(0, 3)))
    return reference_encode(
        {
            "format_version": FORMAT_VERSION,
            "dims": sides,
            "axis_permutation": list(perm),
            "kind": kind,
            "vertex_labels": draw(st.lists(labels, min_size=n_v, max_size=n_v)),
            "edge_labels": draw(st.lists(labels, min_size=n_e, max_size=n_e)),
        }
    )


@settings(max_examples=200, deadline=None)
@given(encoded_documents())
def test_save_and_load_match_reference(data):
    for block in TEXT_BLOCKS:
        with text_blocks(block):
            expected = outcome(reference_load, data)
            # save's layout of a valid document takes the array path; a list of
            # the wrong length goes to json.loads, which refuses it
            assert (_load_canonical(io.BytesIO(data)) is not None) == isinstance(expected, LabelingDocument)
            assert outcome(load, data) == expected
            assert outcome(load, data.decode()) == outcome(reference_load, data.decode())
            if isinstance(expected, LabelingDocument):
                assert save(expected) == data == reference_save(expected)


# Documents with two faults, each refused for the one the reference meets first.
TWO_FAULTS = {
    "float dims and version 2": {"dims": [1.5], "format_version": "2"},
    "bad dims and a float label": {"dims": [2, 1], "vertex_labels": [1.5]},
    "bad kind and a float label": {"kind": "bogus", "vertex_labels": [1.5]},
}


@pytest.mark.parametrize("faults", TWO_FAULTS.values(), ids=TWO_FAULTS)
def test_two_faults_match_reference(faults):
    _, perm = canonicalize((2, 2))
    data = reference_encode({
        "format_version": FORMAT_VERSION, "dims": [2, 2], "axis_permutation": list(perm),
        "kind": "vertex", "vertex_labels": [1, 2, 3, 4], "edge_labels": [], **faults,
    })
    expected = outcome(reference_load, data)
    assert isinstance(expected, tuple)
    assert outcome(load, data) == expected
    assert outcome(load, data.decode()) == expected


# Heads in save's layout with an empty permutation or dims list, which the
# canonical reader sends to the JSON reader.
EMPTY_HEADS = {
    "empty permutation": {"axis_permutation": []},
    "empty dims": {"dims": []},
    "both empty": {"axis_permutation": [], "dims": []},
}


@pytest.mark.parametrize("head", EMPTY_HEADS.values(), ids=EMPTY_HEADS)
def test_empty_head_lists_match_reference(head):
    _, perm = canonicalize((2, 2))
    data = reference_encode({
        "format_version": FORMAT_VERSION, "dims": [2, 2], "axis_permutation": list(perm),
        "kind": "vertex", "vertex_labels": [1, 2, 3, 4], "edge_labels": [], **head,
    })
    assert _load_canonical(io.BytesIO(data)) is None
    expected = outcome(reference_load, data)
    assert isinstance(expected, tuple)
    assert outcome(load, data) == expected


# Values around each change of digit count and around 2**32, where the
# encoder switches from uint32 to uint64 digit passes.
BOUNDARIES = sorted({10**k + d for k in range(19) for d in (-1, 0)} | {2**31, 2**32 - 1, 2**32, 2**32 + 1, INT64_MAX})


def test_digit_boundaries_match_reference():
    for top, block in itertools.product(BOUNDARIES, TEXT_BLOCKS):
        for label in (top, -top):
            doc = LabelingDocument((2, 2), "vertex", [label, 0, 1, -1], ())
            with text_blocks(block):
                data = save(doc)
                assert data == reference_save(doc)
                assert load(data) == doc == reference_load(data)


# Vertex label bodies of a (2, 2) document with something to refuse or
# keep next to a comma, where some block size puts a block boundary.
CUT_BODIES = [
    b"1,2,3,4",
    b"1,,2,3",  # an empty value
    b"1,2,3,4,",  # a trailing comma
    b",1,2,3",  # a leading comma
    b"1,-0,2,3",  # valid JSON, but not what save writes
    b"1,01,2,3",
    b"1,-,2,3",
    b"1,2,3,-",
    b"1,1234567890123456789,2,3",  # 19 digits
    b"1,-9223372036854775808,2,3",  # INT64_MIN
    b"1,9223372036854775807,2,-9223372036854775808",
    b"1,9223372036854775808,2,3",  # 2**63
    b"1,12345678901234567890,2,3",  # 20 digits
    b"1," + b"1" * 5000 + b",2,3",  # past Python's int-string limit
]


@pytest.mark.parametrize("body", CUT_BODIES, ids=lambda body: body[:30].decode())
def test_block_boundaries_match_reference(body):
    _, perm = canonicalize((2, 2))
    empty = reference_encode({
        "format_version": FORMAT_VERSION, "dims": [2, 2], "axis_permutation": list(perm),
        "kind": "vertex", "vertex_labels": [], "edge_labels": [],
    })
    data = empty.replace(b'"vertex_labels":[]', b'"vertex_labels":[' + body + b"]")
    expected = outcome(reference_load, data)
    for size in range(1, min(len(body), 60) + 2):  # a boundary after every byte
        with text_blocks(size):
            assert outcome(load, data) == expected, size


MUTATION_BYTES = list(b'0123456789,-[]{}".e+ \n') + [0xFF]


def _mutated(text: bytes, data) -> bytes:
    """`text` with one byte deleted, inserted or replaced, as `data` draws it."""
    at = data.draw(st.integers(0, len(text)), label="at")
    byte = bytes([data.draw(st.sampled_from(MUTATION_BYTES), label="byte")])
    edit = data.draw(st.sampled_from(["delete", "insert", "replace"]), label="edit")
    if edit == "insert":
        return text[:at] + byte + text[at:]
    return text[:at] + (byte if edit == "replace" else b"") + text[at + 1 :]


@settings(max_examples=600, deadline=None)
@given(encoded_documents(), st.data())
def test_one_byte_mutations_match_reference(text, data):
    mutated = _mutated(text, data)
    expected = outcome(reference_load, mutated)
    for block in TEXT_BLOCKS:
        with text_blocks(block):
            assert outcome(load, mutated) == expected, block


def _refuse_canonical(handle):
    raise io_cli._NotCanonical



def cli_verify(data: bytes, whole: bool = False) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `gridmagic verify -` on `data`.

    With `whole`, the canonical reader refuses every input, so each is read
    whole by json.loads and checked as `load` and `verify_document` do, as
    it was before canonical documents were read as runs.
    """
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        if whole:
            patch.setattr(io_cli, "_canonical_lists", _refuse_canonical)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli(["verify", "-"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(encoded_documents(), st.data())
def test_verify_of_one_byte_mutations_matches_load_and_verify_document(text, data):
    mutated = _mutated(text, data)
    expected = cli_verify(mutated, whole=True)
    for block in TEXT_BLOCKS:
        with text_blocks(block):
            assert cli_verify(mutated) == expected, block


@settings(max_examples=100, deadline=None)
@given(encoded_documents())
def test_verify_matches_load_and_verify_document(text):
    expected = cli_verify(text, whole=True)
    for block in TEXT_BLOCKS:
        with text_blocks(block):
            assert cli_verify(text) == expected, block


# A value that save never writes, in place of a value `v` of the text.
BAD_VALUES = {
    "empty": lambda v: b"",
    "-0": lambda v: b"-0",
    "leading zero": lambda v: b"0" + v,
    "trailing comma": lambda v: v + b",",  # before `]` at the end of a list
}


@pytest.mark.parametrize("dims", [(5, 3, 3), (4, 2)])
def test_bad_values_at_run_edges_match_reference(monkeypatch, dims):
    # every leading row a slab of its own: a (5, 3, 3) list's runs hold 9
    # vertex labels each, 9 axis-1 edge labels (none in the last row) and 6
    # of either other axis; a (4, 2) axis-2 run holds one label, so an empty
    # value there is an empty run
    doc = generate_document(dims, "total")
    spec = doc.spec
    monkeypatch.setattr(io_cli, "_WRITE_BLOCK", slab_block(spec, 1))
    data = save(doc)
    assert _load_canonical(io.BytesIO(data)) == doc  # the run of no values is read as none
    # per list, the value count of each run in text order: the edges axis by axis
    runs = {
        b'"vertex_labels":[': [math.prod(spec.dims[1:])] * spec.dims[0],
        b'"edge_labels":[': [
            math.prod(shape[1:]) * (row < shape[0]) for shape in spec.edge_shapes for row in range(spec.dims[0])
        ],
    }
    for key, counts in runs.items():
        start = data.index(key) + len(key)
        values = data[start : data.index(b"]", start)].split(b",")
        offsets = list(itertools.accumulate([start] + [len(v) + 1 for v in values]))
        assert sum(counts) == len(values)
        first = 0
        for count in counts:
            for i in sorted({first, first + count - 1}) if count else ():
                for name, bad in BAD_VALUES.items():
                    mutated = data[: offsets[i]] + bad(values[i]) + data[offsets[i] + len(values[i]) :]
                    where = (key, i, name)
                    assert _load_canonical(io.BytesIO(mutated)) is None, where
                    assert outcome(load, mutated) == outcome(reference_load, mutated), where
                    assert cli_verify(mutated) == cli_verify(mutated, whole=True), where
            first += count


@pytest.mark.parametrize("dims", PINNED_SPECS)
def test_generate_matches_reference_in_reversed_caller_order(dims):
    caller = ",".join(map(str, dims[::-1]))
    for kind in KINDS:
        doc = generate_document(dims[::-1], kind)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli(["generate", "--dims", caller, "--kind", kind]) == 0
        assert out.getvalue() == reference_save(doc).decode()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli(["generate", "--dims", caller, "--kind", kind, "--format", "csv"]) == 0
        assert out.getvalue() == render(doc, "csv")


def reference_list_extent(handle, start, marks):
    """`_list_extent` as it was: every comma position of a chunk that holds a mark."""
    pos, commas, found = start, 0, []
    while True:
        handle.seek(pos)
        data = handle.read(io_cli._PARSE_BLOCK)
        if not data:
            raise io_cli._NotCanonical
        end = data.find(b"]")
        comma = np.frombuffer(data, np.uint8, len(data) if end < 0 else end) == ord(",")
        count = np.count_nonzero(comma)
        here = [m - commas for m in marks[len(found) :] if m - commas <= count]
        if here:
            at = np.flatnonzero(comma)
            found += [pos + int(at[k - 1]) for k in here]
        commas += count
        if end >= 0:
            stop = pos + end
            return stop, commas + 1 if stop > start else 0, found
        pos += len(data)


# Mark commas, as offsets from the start of a list body, where the mark
# search changes 4 KiB block or 256 KiB chunk.
CHUNK = 2**18
MARK_OFFSETS = {
    "first byte of a block": [3 * 4096],
    "last byte of a block": [5 * 4096 - 1],
    "last byte of the chunk": [CHUNK - 1],
    "two in one block": [7 * 4096 + 10, 7 * 4096 + 11, 7 * 4096 + 4000],
    "first byte of the next chunk": [CHUNK],
    "last byte before the bracket": [CHUNK + 9999],
    "all of them": [0, 4096, 3 * 4096, 5 * 4096 - 1, 7 * 4096 + 10, 7 * 4096 + 11, CHUNK - 1,
                    CHUNK, CHUNK + 4095, CHUNK + 9999],
    "in each of four chunks": [10, 4096, CHUNK - 1, CHUNK + 4096, 2 * CHUNK, 2 * CHUNK + 9000,
                               3 * CHUNK + 1, 3 * CHUNK + 9999],
}


@pytest.mark.parametrize("offsets", MARK_OFFSETS.values(), ids=MARK_OFFSETS)
@pytest.mark.parametrize("spacing", [3, 4096])
def test_mark_commas_at_block_edges_match_reference(offsets, spacing):
    # a body of CHUNK + 10000 digits after a 6-byte head, or up to the last
    # mark past that, with a comma at every `spacing`-th byte (from byte 1)
    # and at each mark offset
    body = np.full(max(CHUNK + 10000, offsets[-1] + 1), ord("7"), np.uint8)
    body[1::spacing] = ord(",")
    body[offsets] = ord(",")
    text = b'{"a":[' + body.tobytes() + b"]}"
    start = 6
    where = np.flatnonzero(np.frombuffer(text, np.uint8) == ord(","))
    marks = [int(np.searchsorted(where, start + offset)) + 1 for offset in offsets]
    stop, count, found = io_cli._list_extent(io.BytesIO(text), start, marks)
    assert found == where[np.array(marks) - 1].tolist() == [start + o for o in offsets]
    assert (stop, count, found) == reference_list_extent(io.BytesIO(text), start, marks)
    assert (stop, count) == (len(text) - 2, len(where) + 1)

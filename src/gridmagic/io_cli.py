"""Serialization, figure emission, and the command-line surface.

Labelings travel as a single JSON document holding the caller's axis
order, the permutation into canonical order, and the label arrays in
canonical rank order. In memory a document is its dims, kind and labels:
it derives its canonical `spec` and permutation once, is the one check
of its dims, kind and part lengths (`part_sizes`), and keeps its labels
as read-only int64 arrays from `generate_document` or `load` through
`save`, the verifier, the renderers and the label lookups; `load` alone
checks a file's format version and stored permutation. Serialization is
canonical (sorted keys, compact separators, newline-terminated), so
identical documents are identical bytes and everything downstream can be
diffed. One reader recognizes bytes in exactly `save`'s layout for
`load`, `verify` and `render`, and gives each slab's runs, the text of
its values in each label list, in the shape of a slab of labels; `load`
parses them into that slab's views of its label arrays, and `verify`
into the slab it scans. Any other valid JSON goes to the general `json`
parser. Both give the same document, or the same error, for the same
input.

Text is written by one numpy table writer a slab of leading rows at a
time: `save`, the command line's `generate` and every render style put
each table's rows (the vertex rows, and each axis's edge rows) into a
buffer of its own, every buffer allocated up front from the label counts
and widths. An item list holds the text's layout alone, fixed bytes and
a `_Table` per label list; the labels come to the writer beside it, as
slabs, with their least and greatest values. Renderers emit TikZ
pictures mimicking the usual grid figures (2d plain, 3d oblique),
Graphviz dot, or a flat CSV with one row per element.

The CLI ties it together: generate, verify, predict, search, render,
cover. Neither `generate` nor `verify` holds a document's label arrays.
`generate` builds its text from the closed forms a slab at a time
(`labeling_rows`), so it holds the text alone; `verify` of a document in
`save`'s layout parses a slab's runs of the vertex list and of each axis's
block of the edge list as it comes to them, so it holds a seen mask of
one byte per label and a slab. A document on stdin, or in a file that
cannot seek, is copied to an unnamed temporary file first, so `verify -`
holds no more than `verify FILE`. `generate` and `render` write their output
only once all of it is built, so a refused command leaves no partial
file. Exit codes: 0 ok (and magic+bijective for verify), 1 verification
or search refusal, 2 I/O or parse failure, 64 usage.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import io
import itertools
import json
import math
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    CoordOutOfRange,
    DimensionOrderViolation,
    DimensionTooSmall,
    GridMagicError,
    Overflow,
    ParseError,
    SpecMismatch,
    UnsupportedDimension,
    UsageError,
    VersionMismatch,
)
from .grid_core import (
    EdgeId,
    GridSpec,
    _index,
    canonicalize,
    check_h_covering,
    edge_rank,
    edge_row_shapes,
    split_edge_labels,
    vertex_rank,
)
from .labeling_2d import (
    EdgeLabeling,
    VertexLabeling,
    edge_labeling_from_flat,
    frozen_labels,
    vertex_labeling_from_flat,
)
from .labeling_nd import TotalLabeling, constructed_parts, labeling_rows, total_labeling_from_flats
from .oracle import DEFAULT_MAX_ASSIGNMENTS, MODES, SearchBudget, exhaustive_search
from .verifier import KINDS, MagicReport, Slab, _each, _report, closed_form_sums, part_sizes

FORMAT_VERSION = "1"
STYLES = ("tikz2d", "tikz3d", "dot", "csv")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2
EXIT_USAGE = 64

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _checked_grid(dims: Sequence[int], kind: str) -> tuple[GridSpec, tuple[int, ...]]:
    """The canonical spec and permutation of caller `dims`, once dims and `kind` pass a document's checks."""
    try:
        spec, perm = canonicalize(dims)
    except GridMagicError as e:  # a non-sequence is shown as it is: list() could raise
        dims = list(dims) if isinstance(dims, (list, tuple)) else dims
        raise ParseError(f"bad dims {dims}: {e}") from e
    if kind not in KINDS:
        raise ParseError(f"kind must be one of {KINDS}, got {kind!r}")
    return spec, perm


@dataclass(frozen=True, eq=False)
class LabelingDocument:
    """A labeling in the caller's axis order: dims, kind and canonical arrays.

    `dims` is kept as a tuple of ints, and `spec` and `axis_permutation`
    are derived from it. This is the one check of dims, kind and lengths;
    `load` itself checks only the file's format version and permutation.
    """

    dims: tuple[int, ...]  # caller order
    kind: str
    vertex_labels: np.ndarray  # read-only int64, canonical rank order; empty for kind="edge"
    edge_labels: np.ndarray  # read-only int64, enumeration order; empty for kind="vertex"
    spec: GridSpec = field(init=False)
    axis_permutation: tuple[int, ...] = field(init=False)  # caller axis i sits at canonical slot perm[i-1]

    def __post_init__(self):
        spec, perm = _checked_grid(self.dims, self.kind)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "dims", tuple(spec.dims[p - 1] for p in perm))
        object.__setattr__(self, "axis_permutation", perm)
        for name, want in zip(("vertex_labels", "edge_labels"), part_sizes(spec, self.kind)):
            labels = frozen_labels(getattr(self, name))
            if labels.ndim != 1:
                raise SpecMismatch(f"labels must be one-dimensional, got shape {labels.shape}")
            if len(labels) != want:
                raise ParseError(f"{name} length mismatch: got {len(labels)}, want {want}")
            object.__setattr__(self, name, labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelingDocument):
            return NotImplemented
        return (
            (self.dims, self.kind) == (other.dims, other.kind)
            and np.array_equal(self.vertex_labels, other.vertex_labels)
            and np.array_equal(self.edge_labels, other.edge_labels)
        )


# --- label arrays as text ---------------------------------------------
#
# Label arrays hold millions of values, so they are written and read with
# numpy passes, never one Python int per label, and in blocks small
# enough that a pass's temporaries stay in cache and memory stays near
# the size of the labels themselves. Text is written as a uint8 table
# with one row per output line (or list item): constant byte fields,
# digit cells and name cells side by side. A cell left at 0 (a
# non-negative value's sign, the places left of a value's first digit)
# is dropped by one compress, so values of any width share the same
# columns, and blocks of different widths join into the same text.

_INT64_DIGITS = 19  # digits of 2**63, the largest int64 magnitude
_PARSE_BLOCK = 2**18  # bytes of a label list that `_list_extent` scans per pass
# Table rows written per pass, and labels of each list per slab, in whole
# steps of the leading axis. Every list of a ~3e4-label document still
# fits in one; at 577x577 a slab is 28 rows, whose transient arrays add
# about 1 MB to the generate and verify peaks.
_WRITE_BLOCK = 2**14


def _sign_and_top(values: np.ndarray) -> tuple[int, int]:
    """1 if some value is negative, else 0, and the largest magnitude (0 for none)."""
    lo, hi = int(values.min(initial=0)), int(values.max(initial=0))
    return int(lo < 0), max(-lo, hi)


def _digit_cells(values: np.ndarray, signed: int, top: int, out: np.ndarray) -> None:
    """Write the uint8 cells of int64 values, right-aligned, into `out`.

    `signed, top` is `_sign_and_top(values)`, and `out` has the shape
    values.shape + (signed + len(str(top)),). When `signed` the first cell
    holds `-` or 0; the places left of a value's first digit hold 0.
    """
    width = len(str(top))
    if signed:
        np.multiply(values < 0, ord("-"), out=out[..., 0], casting="unsafe")
    rest = np.abs(values).view(np.uint64)  # abs wraps INT64_MIN to itself, which reads 2**63
    if top < 2**32:
        rest = rest.astype(np.uint32)  # halves the cost of the digit passes
    quotient, digit = np.empty_like(rest), np.empty_like(rest)
    for col in range(signed + width - 1, signed - 1, -1):
        np.floor_divide(rest, 10, out=quotient)  # a floor division by 10 is far cheaper than %
        np.multiply(quotient, 10, out=digit)
        np.subtract(rest, digit, out=digit)
        digit += ord("0")
        if col < signed + width - 1:  # the units place shows even for 0
            digit *= rest != 0
        out[..., col] = digit
        rest, quotient = quotient, rest


def _field_widths(fields: Sequence[bytes | np.ndarray]) -> list[tuple[int, tuple[int, int] | None]]:
    """Per field of a `_cell_table`, its width in cells and, for int64 values, their `_sign_and_top`."""
    out = []
    for f in fields:
        if isinstance(f, bytes):
            out.append((len(f), None))
        elif f.dtype == np.int64:
            signed, top = _sign_and_top(f)
            out.append((signed + len(str(top)), (signed, top)))
        else:
            out.append((f.shape[-1], None))
    return out


def _cell_table(shape: tuple[int, ...], *fields: bytes | np.ndarray) -> np.ndarray:
    """A uint8 table with one row per index of `shape`: `fields` side by side.

    A bytes field is the same in every row. A uint8 array holds cells and
    broadcasts to `shape + (width,)`. An int64 array holds values and
    broadcasts to `shape`; its digit cells are written straight into the
    table.
    """
    widths = _field_widths(fields)
    table = np.empty((*shape, sum(width for width, _ in widths)), np.uint8)
    col = 0
    for f, (width, digits) in zip(fields, widths):
        if digits is not None:
            _digit_cells(f, *digits, out=table[..., col : col + width])
        else:
            table[..., col : col + width] = np.frombuffer(f, np.uint8) if isinstance(f, bytes) else f
        col += width
    return table


def _slab_ranges(spec: GridSpec) -> Iterator[range]:
    """The leading rows in consecutive ranges of about `_WRITE_BLOCK` labels of each list."""
    step = max(1, _WRITE_BLOCK // math.prod(spec.dims[1:]))
    return (range(a, min(a + step, spec.dims[0])) for a in range(0, spec.dims[0], step))


@dataclass(frozen=True)
class _Table:
    """The layout of one list of a document's text, a row per label of `shape`.

    `part` picks the labels from a slab: 0 its vertex rows, a its axis-a
    edge rows. `fields(labels, rows)` gives the `_cell_table` fields of
    the table's leading rows `rows` and their labels, None for a part the
    document's kind lacks. `trim` drops the separator after the list's
    last value. A table holds no labels: `_slab_text` takes them, and
    their extremes, beside the items.
    """

    part: int
    shape: tuple[int, ...]
    fields: Callable[[np.ndarray, range], tuple]
    trim: bool = False


def _slab_text(
    items: Sequence[bytes | _Table], slabs: Iterable[Slab], extremes: tuple[np.ndarray, np.ndarray]
) -> list[bytes | np.ndarray]:
    """The ASCII text of `items` as parts: bytes as they are, tables filled slab by slab.

    `extremes` holds the least and the greatest vertex label, then edge
    label, the widest any label can be: each table's text goes to a uint8
    buffer sized from them, every buffer allocated before the first slab
    is made, and each slab's rows of a table fill its buffer on from the
    rows before. A table's rows in a slab come from its own shape, so a
    figure draws the vertices or edges of a document that has no labels.
    """
    tables = [item for item in items if isinstance(item, _Table)]
    texts = []
    for table in tables:
        widths = _field_widths(table.fields(extremes[table.part > 0], range(table.shape[0])))
        texts.append(np.empty(math.prod(table.shape) * sum(width for width, _ in widths), np.uint8))
    ends = [0] * len(tables)
    first = 0  # the slab's first leading row
    for vertex, edges in slabs:
        count = len(edges[1] if vertex is None else vertex)
        for k, table in enumerate(tables):
            rows = range(table.shape[0])[first : first + count]
            labels = vertex if table.part == 0 else None if edges is None else edges[table.part - 1]
            cells = _cell_table((len(rows), *table.shape[1:]), *table.fields(labels, rows))
            row_text = cells[cells != 0]
            texts[k][ends[k] : ends[k] + row_text.size] = row_text
            ends[k] += row_text.size
        first += count
    filled = iter(text[: end - table.trim] for table, text, end in zip(tables, texts, ends))
    return [item if isinstance(item, bytes) else next(filled) for item in items]


def _json_items(dims: tuple[int, ...], kind: str) -> list[bytes | _Table]:
    """The items of a document's JSON text for `_slab_text`."""

    def dumps(value: object) -> bytes:
        return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()

    def listed(labels: np.ndarray, rows: range) -> tuple:
        return labels, b","

    spec, perm = canonicalize(dims)
    items = [b'{"axis_permutation":' + dumps(list(perm)), b',"dims":' + dumps(list(dims)), b',"edge_labels":[']
    if kind != "vertex":
        for a, shape in enumerate(spec.edge_shapes, start=1):
            items.append(_Table(a, shape, listed, trim=a == spec.dim))
    items += [b'],"format_version":' + dumps(FORMAT_VERSION), b',"kind":' + dumps(kind), b',"vertex_labels":[']
    if kind != "edge":
        items.append(_Table(0, spec.dims, listed, trim=True))
    items.append(b"]}\n")
    return items


def _name_cells(shape: tuple[int, ...], sep: bytes) -> np.ndarray:
    """The cells of the name of every index of `shape`: its 1-based coordinates joined by `sep`.

    The shape is `shape + (width,)`; a short coordinate leaves 0 cells.
    """
    fields = []
    for a, n in enumerate(shape):
        # coordinate a of every index: 1..n along axis a, the same along later axes
        coords = np.arange(1, n + 1, dtype=np.int64).reshape((n,) + (1,) * (len(shape) - a - 1))
        fields += [sep, coords]
    return _cell_table(shape, *fields[1:])


def _csv_items(spec: GridSpec, kind: str) -> list[bytes | _Table]:
    """The items of the CSV text for `_slab_text`: a header, then a row per vertex and per edge.

    A row names its element by the cells of its leading coordinate, cut
    to the slab's rows, and the name of its other coordinates, the same
    in every slab.
    """
    header = ["kind"] + [f"x{i}" for i in range(1, spec.dim + 1)] + ["axis", "label"]
    items: list[bytes | _Table] = [",".join(header).encode() + b"\n"]
    leading, names = _name_cells(spec.dims[:1], b""), _name_cells(spec.dims[1:], b",")
    tables = [(0, spec.dims)] if kind != "edge" else []
    if kind != "vertex":
        tables += enumerate(spec.edge_shapes, start=1)
    for a, shape in tables:
        head, tail = (b"vertex,", b",,") if a == 0 else (b"edge,", b",%d," % a)

        def row(labels: np.ndarray, rows: range, head=head, tail=tail, shape=shape) -> tuple:
            first = leading[rows.start : rows.stop]
            first = first.reshape((len(first),) + (1,) * (names.ndim - 1) + first.shape[1:])
            # an edge axis's names are the vertex names cut to its shape
            return head, first, b",", names[tuple(map(slice, shape[1:]))], tail, labels, b"\n"

        items.append(_Table(a, shape, row))
    return items


def _slabs(spec: GridSpec, kind: str, vertex: np.ndarray, edge: np.ndarray) -> Iterator[Slab]:
    """The `kind` labels of the flat `vertex` and `edge` arrays as slabs of `_slab_ranges`, views of them."""
    whole = (
        None if kind == "edge" else vertex.reshape(spec.dims),
        None if kind == "vertex" else split_edge_labels(spec, edge),
    )
    return (_each(lambda arr: arr[rows.start : rows.stop], whole) for rows in _slab_ranges(spec))


def _document_slabs(doc: LabelingDocument) -> Iterator[Slab]:
    """The document's labels as slabs of `_slab_ranges`, views of its arrays."""
    return _slabs(doc.spec, doc.kind, doc.vertex_labels, doc.edge_labels)


def _document_extremes(doc: LabelingDocument) -> tuple[np.ndarray, np.ndarray]:
    """The least and the greatest vertex label, and edge label, of a document (0 for none)."""
    return tuple(
        np.array([labels.min(initial=0), labels.max(initial=0)], np.int64)
        for labels in (doc.vertex_labels, doc.edge_labels)
    )


def _constructed_slabs(spec: GridSpec, kind: str) -> Iterator[Slab]:
    """The constructed `kind` labeling as slabs of `_slab_ranges`, from `labeling_rows`."""
    nv, _ = part_sizes(spec, kind)
    for rows in _slab_ranges(spec):
        f, g = labeling_rows(spec, rows)
        edges = split_edge_labels(spec, g.flat + nv, rows) if kind == "total" else g.per_axis
        yield (None if kind == "edge" else f.grid), (None if kind == "vertex" else edges)


def _int64_list_piece(data: bytes, out: np.ndarray | None = None) -> np.ndarray | None:
    """The canonical values of the comma-separated `data`, parsed into the front of the 1-d `out`.

    Without `out` they go to a new array. None, with `out` in any state,
    if the piece is empty or not canonical.
    """
    text = np.frombuffer(data, np.uint8)
    if not text.size:
        return None
    # digit values after 19 zeros, so a gather at ends - k never runs off the front
    padded = np.zeros(_INT64_DIGITS + text.size, np.uint8)
    digits = padded[_INT64_DIGITS:]
    np.subtract(text, ord("0"), out=digits)  # wraps: every other byte reads >= 10
    ends = np.append(np.flatnonzero(text == ord(",")), text.size)  # a value ends at its comma
    n_minus = np.count_nonzero(text == ord("-"))
    # only digits, commas and minus signs, and the last value ends in a digit
    if np.count_nonzero(digits < 10) + ends.size - 1 + n_minus != text.size or digits[-1] >= 10:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    neg = text[starts] == ord("-")
    first = starts + neg
    n_digits = ends - first
    # every minus opens a value, and every value has a digit
    if np.count_nonzero(neg) != n_minus or n_digits.min() < 1:
        return None
    width = int(n_digits.max())
    if width > _INT64_DIGITS or ((digits[first] == 0) & ((n_digits > 1) | neg)).any():
        return None
    # right-aligned digit columns: column k of value i is digits[ends[i] - k]
    n_digits = n_digits.astype(np.uint8)
    values = np.empty(ends.size, np.int64) if out is None else out[: ends.size]
    magnitude = values.view(np.uint64)
    magnitude[...] = 0
    digit = np.empty(ends.size, np.uint8)
    for k in range(width, 0, -1):
        padded[_INT64_DIGITS - k :].take(ends, out=digit)
        digit *= n_digits >= k
        magnitude *= np.uint64(10)
        magnitude += digit
    if width == _INT64_DIGITS and (magnitude > np.uint64(INT64_MAX) + neg).any():
        return None
    np.negative(values, out=values, where=neg)  # 2**63 wraps to INT64_MIN, as it should
    return values


# --- reading a document in save's layout ------------------------------
#
# One reader recognizes `save`'s layout, for `load`, `gridmagic verify` and
# `gridmagic render`. One pass over each label list counts its commas and
# marks where every run ends: a run is the text of one slab's values (of
# `_slab_ranges`) in one list, and the edge list holds each axis's block of
# runs in turn. The runs go out a slab at a time, shaped as a `Slab`, and
# each is parsed alone: `load` into the slab's views of its label arrays,
# `verify` as it takes the slab, so it never holds the arrays. Anything the
# reader refuses goes to json.loads, so documents, reports, messages and
# exit codes do not depend on the path.

_CANONICAL_HEAD = re.compile(
    rb'\{"axis_permutation":\[([-,0-9]*)\],"dims":\[([-,0-9]*)\],"edge_labels":\['
)
_CANONICAL_MIDDLE = re.compile(
    rb'\],"format_version":"' + FORMAT_VERSION.encode()
    + rb'","kind":"(vertex|edge|total)","vertex_labels":\['
)


class _NotCanonical(Exception):
    """Text that is not in exactly `save`'s layout."""


def _read_at(handle: BinaryIO, start: int, size: int) -> bytes:
    handle.seek(start)
    return handle.read(size)


def _list_extent(handle: BinaryIO, start: int, marks: Sequence[int]) -> tuple[int, int, list[int]]:
    """Where the list body from byte `start` ends (its `]`), its value count, and its mark commas.

    The k-th mark comma is the byte position of comma number `marks[k]`
    (1-based); `marks` ascend.
    """
    data = bytearray(_PARSE_BLOCK)  # one buffer for every chunk, and one mask
    text, is_comma = np.frombuffer(data, np.uint8), np.empty(len(data), bool)
    handle.seek(start)
    pos, commas, found = start, 0, []
    while True:
        size = handle.readinto(data)
        if not size:
            raise _NotCanonical
        end = data.find(b"]", 0, size)
        n = size if end < 0 else end
        comma = np.equal(text[:n], ord(","), out=is_comma[:n])
        count = np.count_nonzero(comma)
        here = [m - commas for m in marks[len(found) : bisect.bisect_right(marks, commas + count, len(found))]]
        if here:  # each mark found among the commas of the 4 KiB block that holds it
            full = comma[: len(comma) // 4096 * 4096].reshape(-1, 4096)
            reached = [0, *np.cumsum(full.sum(axis=1, dtype=np.uint16)).tolist()]
            for k in here:
                b = bisect.bisect_left(reached, k) - 1  # the block that holds comma k
                at = np.flatnonzero(comma[b * 4096 : (b + 1) * 4096])[k - 1 - reached[b]]
                found.append(pos + b * 4096 + int(at))
        commas += count
        if end >= 0:
            stop = pos + end
            return stop, commas + 1 if stop > start else 0, found
        pos += size


# a run: the byte span [start, stop) of one slab's values in one list, and their shape
_Run = tuple[int, int, tuple[int, ...]]


def _list_runs(handle: BinaryIO, start: int, shapes: Sequence[tuple[int, ...]]) -> tuple[int, int, list[_Run]]:
    """Where the list body from byte `start` ends (its `]`), its value count, and its runs.

    The list holds the values of each of `shapes` in turn, one run each, so
    a mark comma ends every run but the last. A run of no values lies
    between two marks on one comma: its stop is its start - 1. A list too
    short for `shapes` gives fewer runs.
    """
    ends = list(itertools.accumulate(map(math.prod, shapes)))
    stop, count, commas = _list_extent(handle, start, ends[:-1])
    return stop, count, list(zip([start, *(c + 1 for c in commas)], [*commas, stop], shapes))


def _run_values(handle: BinaryIO, run: _Run, out: np.ndarray | None = None) -> np.ndarray:
    """The values of `run` in its shape, parsed into the contiguous `out` of that shape if one is given."""
    start, stop, shape = run
    if stop < start:  # no values, and read(-1) would read to the end of the file
        return np.empty(shape, np.int64)
    values = _int64_list_piece(_read_at(handle, start, stop - start), None if out is None else out.reshape(-1))
    if values is None:
        raise _NotCanonical
    return values.reshape(shape)


def _canonical_lists(
    handle: BinaryIO,
) -> tuple[tuple[int, ...], GridSpec, str, list[tuple[_Run | None, tuple[_Run, ...] | None]]]:
    """The caller dims, spec and kind of a document in exactly `save`'s layout, and its runs.

    The runs come one entry per slab of `_slab_ranges`, shaped as a `Slab`:
    the slab's run of the vertex list, then its run in each axis's block of
    the edge list, None for a list the kind leaves empty. Raises
    `_NotCanonical` for anything else, and so does `_run_values` on a run
    that holds a value `save` would not write. Each check `load` makes
    passes here or sends the document back, and every list length is
    checked before a caller allocates for it.
    """
    # the head of any grid GridSpec admits, at most 62 axes, fits in 4 KiB
    head = _CANONICAL_HEAD.match(_read_at(handle, 0, 4096))
    if head is None:
        raise _NotCanonical
    # `LabelingDocument` refuses empty dims, and `_int64_list_piece` an empty list
    perm, dims = (_int64_list_piece(head[k]) for k in (1, 2))
    if perm is None or dims is None:
        raise _NotCanonical
    dims = tuple(dims.tolist())
    try:
        spec, want = canonicalize(dims)
    except GridMagicError:
        raise _NotCanonical from None
    if tuple(perm.tolist()) != want:
        raise _NotCanonical
    slabs = list(_slab_ranges(spec))
    axes = list(zip(*(edge_row_shapes(spec, rows) for rows in slabs)))  # per axis, its shape in each slab
    edge_stop, ne, edges = _list_runs(handle, head.end(), list(itertools.chain(*axes)))
    middle = _CANONICAL_MIDDLE.match(_read_at(handle, edge_stop, 64))  # 54 to 56 bytes
    if middle is None:
        raise _NotCanonical
    kind = middle[1].decode()
    vertex_start = edge_stop + middle.end()
    vertex_stop, nv, vertex = _list_runs(handle, vertex_start, [(len(rows), *spec.dims[1:]) for rows in slabs])
    if _read_at(handle, vertex_stop, 4) not in (b"]}", b"]}\n") or (nv, ne) != part_sizes(spec, kind):
        raise _NotCanonical
    n = len(slabs)
    return dims, spec, kind, [(vertex[k] if nv else None, tuple(edges[k::n]) if ne else None) for k in range(n)]


def _load_canonical(handle: BinaryIO) -> LabelingDocument | None:
    """The document in exactly `save`'s layout in `handle`, else None.

    Each slab's runs are parsed straight into that slab's views of the
    label arrays (`_slabs`), the cut `verify_document` scans.
    """
    try:
        dims, spec, kind, runs = _canonical_lists(handle)
        vertex, edge = (np.empty(n, np.int64) for n in part_sizes(spec, kind))
        for slab, views in zip(runs, _slabs(spec, kind, vertex, edge)):
            _each(functools.partial(_run_values, handle), slab, views)
    except _NotCanonical:
        return None
    return LabelingDocument(dims, kind, vertex, edge)


def _json_payload(data: bytes | str) -> object:
    try:
        return json.loads(data.decode() if isinstance(data, bytes) else data)
    except UnicodeDecodeError as e:
        raise ParseError(f"document is not UTF-8: {e.reason} at byte {e.start}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except ValueError as e:  # an integer past Python's int-string limit
        raise ParseError(f"invalid JSON number: {e}") from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None


def save(doc: LabelingDocument) -> bytes:
    """Canonical byte serialization: sorted keys, compact, newline-terminated.

    The bytes are `json.dumps(payload, sort_keys=True, separators=(",", ":"))`
    plus a newline, with the label lists written by `_slab_text` a slab of
    leading rows at a time; `gridmagic generate` writes the same text from
    the constructed slabs.
    """
    items = _json_items(doc.dims, doc.kind)
    return b"".join(_slab_text(items, _document_slabs(doc), _document_extremes(doc)))


def _int64_array(raw: object, key: str) -> np.ndarray:
    # JSON numbers decode to exact ints; True and False have type bool. The
    # type test comes first because np.array would turn true into 1 and 1.5
    # into 1 without complaint.
    if not isinstance(raw, list) or not set(map(type, raw)) <= {int}:
        raise ParseError(f"{key} must be a list of integers")
    try:
        return np.array(raw, dtype=np.int64)
    except OverflowError:
        raise ParseError(f"{key} must lie in [{INT64_MIN}, {INT64_MAX}]") from None


def load(data: bytes | str) -> LabelingDocument:
    """Parse a document produced by `save`.

    Bytes in exactly `save`'s layout are read as the runs that `gridmagic
    verify` reads, a slab's values of one list each, and each slab's runs
    are parsed straight into its views of the label arrays, so memory stays
    near the size of the labels; any other input goes to `_json_document`.
    The runs are refused for whatever json.loads would read differently or
    `load` would refuse, so the result, or the error, does not depend on
    the path.
    """
    doc = _load_canonical(io.BytesIO(data)) if isinstance(data, bytes) else None
    return _json_document(data) if doc is None else doc


def _json_document(data: bytes | str) -> LabelingDocument:
    """Any JSON document, read whole.

    A document with several faults is refused for the first of: its
    version, dims, kind, the label lists' types, their lengths (checked by
    `LabelingDocument`), and its permutation.
    """
    payload = _json_payload(data)
    if not isinstance(payload, dict):
        raise ParseError("document root must be an object")
    expected = {"format_version", "dims", "axis_permutation", "kind", "vertex_labels", "edge_labels"}
    if set(payload) != expected:
        missing = expected - set(payload)
        extra = set(payload) - expected
        raise ParseError(f"bad document keys: missing {sorted(missing)}, unknown {sorted(extra)}")
    version, kind = payload["format_version"], payload["kind"]
    if version != FORMAT_VERSION:  # a JSON value equals the str only if it is that str
        raise VersionMismatch(f"format_version {version!r}, supported {FORMAT_VERSION!r}")
    dims = tuple(_int64_array(payload["dims"], "dims").tolist())
    _checked_grid(dims, kind)  # dims and kind are refused before the label lists' types
    vertex, edge = (_int64_array(payload[key], key) for key in ("vertex_labels", "edge_labels"))
    doc = LabelingDocument(dims, kind, vertex, edge)
    # the permutation last, its type too: a wrong length is the error reported first
    perm = _int64_array(payload["axis_permutation"], "axis_permutation")
    if tuple(perm.tolist()) != doc.axis_permutation:
        raise ParseError(f"axis_permutation inconsistent with dims, want {list(doc.axis_permutation)}")
    return doc


def generate_document(dims: Sequence[int], kind: str) -> LabelingDocument:
    """Build the constructed labeling of the given kind for caller dims."""
    if kind not in KINDS:
        raise UsageError(f"kind must be one of {KINDS}, got {kind!r}")
    spec, _ = canonicalize(dims)
    return LabelingDocument(dims, kind, *constructed_parts(spec, kind))


def document_labeling(doc: LabelingDocument) -> VertexLabeling | EdgeLabeling | TotalLabeling:
    """The document's labeling over the canonical spec, as views of its arrays."""
    spec = doc.spec
    if doc.kind == "vertex":
        return vertex_labeling_from_flat(spec, doc.vertex_labels)
    if doc.kind == "edge":
        return edge_labeling_from_flat(spec, doc.edge_labels)
    return total_labeling_from_flats(spec, doc.vertex_labels, doc.edge_labels)


def verify_document(doc: LabelingDocument) -> MagicReport:
    """The verifier's report on the document's labeling, a slab of `_slab_ranges` at a time."""
    return _report(doc.spec, doc.kind, _document_slabs(doc))


# --- verifying a file slab by slab -------------------------------------


@contextlib.contextmanager
def _document_file(path: str) -> Iterator[BinaryIO]:
    """The document at `path` (stdin for `-`) as a seekable binary file.

    A seekable file is read in place. Stdin, and a file that cannot seek,
    is copied from where it stands to an unnamed temporary file, so its
    bytes are never held in memory whole.
    """
    with contextlib.ExitStack() as stack:
        handle = sys.stdin.buffer if path == "-" else stack.enter_context(open(path, "rb"))
        if path == "-" or not handle.seekable():
            spool = stack.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(handle, spool)
            spool.seek(0)
            handle = spool
        yield handle


def _to_canonical_coord(doc: LabelingDocument, coord: Sequence[int]) -> tuple[int, ...]:
    if len(coord) != len(doc.dims):
        raise UsageError(f"coordinate {tuple(coord)} has wrong arity for dims {doc.dims}")
    out = [0] * len(coord)
    for caller_axis, c in enumerate(coord):
        out[doc.axis_permutation[caller_axis] - 1] = c
    return tuple(out)


def document_vertex_label(doc: LabelingDocument, coord: Sequence[int]) -> int:
    """Label of a vertex given in the caller's axis order."""
    if doc.kind == "edge":
        raise UsageError("edge-only document carries no vertex labels")
    rank = vertex_rank(doc.spec, _to_canonical_coord(doc, coord))
    return int(doc.vertex_labels[rank])


def document_edge_label(doc: LabelingDocument, base: Sequence[int], axis: int) -> int:
    """Label of an edge given by base vertex and 1-based axis, caller order."""
    if doc.kind == "vertex":
        raise UsageError("vertex-only document carries no edge labels")
    canonical = _to_canonical_coord(doc, base)
    axis = _index(axis, "axis")
    if not 1 <= axis <= len(doc.dims):
        raise CoordOutOfRange(f"axis {axis} not in [1, {len(doc.dims)}]")
    rank = edge_rank(doc.spec, EdgeId(canonical, doc.axis_permutation[axis - 1]))
    return int(doc.edge_labels[rank])


# --- renderers ---------------------------------------------------------
#
# Every style is a list of items for `_slab_text`, so the one table writer
# above writes all four a slab of leading rows at a time: a header, a table
# of vertex rows in rank order, a table of edge rows per axis in enumeration
# order, and a footer. A row holds the name cells of its vertex or of its
# edge's endpoints, the label digits and the fixed punctuation. Dot and TikZ
# draw every vertex and edge, labeled or not; TikZ adds the cells of its
# node coordinates, each distinct x and y of a slab written once from exact
# hundredths.


def _endpoints(names: np.ndarray, a: int, rows: range) -> tuple[np.ndarray, ...]:
    """The name cells of the lower and the upper endpoints of the axis-`a` edges based in `rows`.

    `names` is `_name_cells` of the grid's dims; an upper endpoint is its
    lower one a step on along axis `a`.
    """
    before = (slice(None),) * (a - 1)
    return tuple(names[before + (cut,)][rows.start : rows.stop] for cut in (slice(-1), slice(1, None)))


def _dot_items(spec: GridSpec, kind: str) -> list[bytes | _Table]:
    """The items of the dot text for `_slab_text`: a header, a row per vertex and per edge, a footer."""
    names = _name_cells(spec.dims, b",")

    def tail(labels: np.ndarray | None, bare: bool) -> tuple:
        return (b'";\n',) if bare else (b'" [label="', labels, b'"];\n')

    def vertex(labels: np.ndarray | None, rows: range) -> tuple:
        return b'  "', names[rows.start : rows.stop], *tail(labels, kind == "edge")

    items = [b"graph gridmagic {\n  node [shape=circle];\n", _Table(0, spec.dims, vertex)]
    for a, shape in enumerate(spec.edge_shapes, start=1):

        def edge(labels: np.ndarray | None, rows: range, a=a) -> tuple:
            lower, upper = _endpoints(names, a, rows)
            return b'  "', lower, b'" -- "', upper, *tail(labels, kind == "vertex")

        items.append(_Table(a, shape, edge))
    return items + [b"}\n"]


def _tikz_items(spec: GridSpec, kind: str) -> list[bytes | _Table]:
    """The items of a TikZ picture for `_slab_text`: a header, a row per vertex and per edge, a footer.

    The node coordinates are computed for each slab's rows.
    """
    names = _name_cells(spec.dims, b"_")
    # the cells of each distinct x and y: its units, then ".c" for its c hundredths,
    # trailing zeros dropped, from a table with one row per c
    cents = np.array([(b".%02d" % c).rstrip(b".0") for c in range(100)], "S3").view((np.uint8, 3))

    def vertex(labels: np.ndarray | None, rows: range) -> tuple:
        i, j, *k = np.ix_(rows, *map(range, spec.dims[1:]))  # 0-based coordinates
        # x and y in exact hundredths of a unit
        if spec.dim == 2:
            x, y = 300 * i, 300 * (spec.dims[1] - 1 - j)
        else:  # oblique projection: axis 2 drawn at a slant
            x, y = 300 * i + 190 * j, 300 * (spec.dims[2] - 1 - k[0]) + 115 * j
        x, y = (_cell_table(c.shape, c // 100, cents[c % 100]) for c in (x, y))
        tail = (b") {};\n",) if kind == "edge" else (b") {", labels, b"};\n")
        return b"  \\node (v", names[rows.start : rows.stop], b") at (", x, b",", y, *tail

    items = [
        b"\\begin{tikzpicture}[every node/.style={draw,shape=circle,inner sep=1pt,minimum size=.6cm}]\n",
        _Table(0, spec.dims, vertex),
    ]
    for a, shape in enumerate(spec.edge_shapes, start=1):
        placement = b"midway,right" if a == spec.dim else b"midway,above,sloped"

        def edge(labels: np.ndarray | None, rows: range, a=a, placement=placement) -> tuple:
            lower, upper = _endpoints(names, a, rows)
            tail = (b");\n",) if kind == "vertex" else (b") node[draw=none,%s] {" % placement, labels, b"};\n")
            return b"  \\draw (v", lower, b") -- (v", upper, *tail

        items.append(_Table(a, shape, edge))
    return items + [b"\\end{tikzpicture}\n"]


def _render_parts(doc: LabelingDocument, style: str) -> list[bytes | np.ndarray]:
    """The ASCII text of `render(doc, style)` as parts, each table's written by `_slab_text`."""
    if style not in STYLES:
        raise UsageError(f"style must be one of {STYLES}, got {style!r}")
    if style.startswith("tikz") and doc.spec.dim != int(style[4]):
        raise UnsupportedDimension(f"{style} needs a {style[4]}-dimensional grid, got {doc.spec.dim}")
    style_items = {"csv": _csv_items, "dot": _dot_items, "tikz2d": _tikz_items, "tikz3d": _tikz_items}[style]
    return _slab_text(style_items(doc.spec, doc.kind), _document_slabs(doc), _document_extremes(doc))


def render(doc: LabelingDocument, style: str) -> str:
    """Deterministic text rendering of a document in the given style.

    Every style is written slab by slab by `_slab_text`, a buffer per
    table; `gridmagic render` writes the buffers as they are, and `render`
    joins them.
    """
    return b"".join(_render_parts(doc, style)).decode()


# --- command line ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's 2
        raise UsageError(message)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--dims expects a comma-separated integer list, got {text!r}")
    return dims


@functools.cache  # built on first use, then shared: parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridmagic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="construct a labeling document")
    p.add_argument("--dims", required=True)
    p.add_argument("--kind", choices=KINDS, default="total")
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify", help="check a labeling document")
    p.add_argument("file", help="document path, or - for stdin")

    p = sub.add_parser("predict", help="closed-form magic sums")
    p.add_argument("--dims", required=True)

    p = sub.add_parser("search", help="exhaustive brute-force scan")
    p.add_argument("--dims", required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_MAX_ASSIGNMENTS)

    p = sub.add_parser("render", help="emit a figure for a document")
    p.add_argument("file", help="document path, or - for stdin")
    p.add_argument("--style", choices=STYLES, required=True)

    p = sub.add_parser("cover", help="check the cube-covering condition")
    p.add_argument("--dims", required=True)
    return parser


def _print_report(report: MagicReport, dims: tuple[int, ...]) -> None:
    def low(x) -> str:
        return "none" if x is None else str(x).lower()

    print(
        f"kind={report.kind} dims={','.join(map(str, dims))} "
        f"bijective={low(report.bijective)}"
    )
    print(f"cube_sums distinct={report.distinct_count} values={list(report.cube_sum_values)}")
    print(f"predicted_sum={report.predicted_sum} matches_prediction={low(report.matches_prediction)}")
    if report.magic:
        print(f"MAGIC sum={report.magic_sum}")
    else:
        print(f"NOT_MAGIC distinct={report.distinct_count}")


def _write_parts(path: str, parts: list[bytes | np.ndarray]) -> None:
    """Write ASCII parts to the file at `path`, or to stdout for `-`, one after another.

    Callers build every part first, so a refusal while building (say, a
    `MemoryError`) leaves no truncated file behind. Stdout takes the text
    decoded a MiB at a time, so that it never holds a second copy.
    """
    if path == "-":
        for part in parts:
            for start in range(0, len(part), 2**20):
                sys.stdout.write(str(part[start : start + 2**20], "ascii"))
    else:
        with open(path, "wb") as handle:
            handle.writelines(parts)


def _cmd_generate(args) -> int:
    dims = _parse_dims(args.dims)
    spec, _ = canonicalize(dims)
    nv, ne = part_sizes(spec, args.kind)
    items = _json_items(dims, args.kind) if args.format == "json" else _csv_items(spec, args.kind)
    # a constructed part is a bijection onto its range
    extremes = np.array([1, nv], np.int64), np.array([nv + 1, nv + ne], np.int64)
    _write_parts(args.out, _slab_text(items, _constructed_slabs(spec, args.kind), extremes))
    return EXIT_OK


def _cmd_verify(args) -> int:
    with _document_file(args.file) as handle:
        try:
            dims, spec, kind, runs = _canonical_lists(handle)
            parse = functools.partial(_run_values, handle)
            report = _report(spec, kind, (_each(parse, slab) for slab in runs))
        except _NotCanonical:  # any other input: read whole, by the JSON reader alone
            handle.seek(0)
            doc = _json_document(handle.read())
            dims, report = doc.dims, verify_document(doc)
    _print_report(report, dims)
    return EXIT_OK if report.magic and report.bijective else EXIT_FAIL


def _cmd_predict(args) -> int:
    spec, _ = canonicalize(_parse_dims(args.dims))
    sums = closed_form_sums(spec)
    print(f"c_vertex={sums.c_vertex} c_edge={sums.c_edge} c_total={sums.c_total}")
    return EXIT_OK


def _cmd_search(args) -> int:
    spec, _ = canonicalize(_parse_dims(args.dims))
    if args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {args.budget}")
    budget = SearchBudget(mode=args.mode, max_assignments=args.budget)
    result = exhaustive_search(spec, budget)
    print(
        f"mode={args.mode} dims={args.dims} examined={result.examined} "
        f"found={result.found_count}"
    )
    for magic_sum in sorted(result.sum_histogram):
        print(f"sum={magic_sum} count={result.sum_histogram[magic_sum]}")
    return EXIT_OK


def _cmd_render(args) -> int:
    with _document_file(args.file) as handle:
        doc = load(handle.read())
    _write_parts("-", _render_parts(doc, args.style))
    return EXIT_OK


def _cmd_cover(args) -> int:
    spec, _ = canonicalize(_parse_dims(args.dims))
    print("COVERED" if check_h_covering(spec) else "NOT_COVERED")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "predict": _cmd_predict,
    "search": _cmd_search,
    "render": _cmd_render,
    "cover": _cmd_cover,
}


def cli(argv: Sequence[str] | None = None) -> int:
    """Run the command line and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, DimensionTooSmall, DimensionOrderViolation, Overflow, UnsupportedDimension) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, MemoryError) as e:
        print(f"refused: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_FAIL
    except (ParseError, VersionMismatch, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()

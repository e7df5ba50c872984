"""The array renderers against the loop renderers they replaced.

The reference functions below are the element-by-element renderers that
walked `enumerate_vertices` and `enumerate_edges`. Their output defines
the byte format, so every vectorized renderer must reproduce it exactly.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridmagic import (
    LabelingDocument,
    canonicalize,
    cli,
    edge_endpoints,
    enumerate_edges,
    enumerate_vertices,
    generate_document,
    render,
)
from gridmagic.io_cli import INT64_MAX, INT64_MIN, KINDS
from conftest import TEXT_BLOCKS, text_blocks


def _fmt(x: float) -> str:
    return f"{x:g}"


def _vertex_texts(doc, spec):
    if doc.kind == "edge":
        return {v: "" for v in enumerate_vertices(spec)}
    labels = doc.vertex_labels
    return {v: str(labels[i]) for i, v in enumerate(enumerate_vertices(spec))}


def _edge_texts(doc, spec):
    if doc.kind == "vertex":
        return {e: "" for e in enumerate_edges(spec)}
    labels = doc.edge_labels
    return {e: str(labels[i]) for i, e in enumerate(enumerate_edges(spec))}


def reference_tikz(doc, style: str) -> str:
    spec = canonicalize(doc.dims)[0]
    assert spec.dim == int(style[4])

    def place(v):
        if spec.dim == 2:
            i, j = v
            return 3.0 * (i - 1), 3.0 * (spec.dims[1] - j)
        i, j, k = v
        return 3.0 * (i - 1) + 1.9 * (j - 1), 3.0 * (spec.dims[2] - k) + 1.15 * (j - 1)

    def name(v):
        return "v" + "_".join(str(c) for c in v)

    lines = [
        "\\begin{tikzpicture}[every node/.style={draw,shape=circle,inner sep=1pt,minimum size=.6cm}]"
    ]
    for v, text in _vertex_texts(doc, spec).items():
        x, y = place(v)
        lines.append(f"  \\node ({name(v)}) at ({_fmt(x)},{_fmt(y)}) {{{text}}};")
    for e, text in _edge_texts(doc, spec).items():
        a, b = edge_endpoints(e)
        if text:
            placement = "midway,right" if e.axis == spec.dim else "midway,above,sloped"
            lines.append(
                f"  \\draw ({name(a)}) -- ({name(b)}) node[draw=none,{placement}] {{{text}}};"
            )
        else:
            lines.append(f"  \\draw ({name(a)}) -- ({name(b)});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def reference_dot(doc) -> str:
    spec = canonicalize(doc.dims)[0]
    lines = ["graph gridmagic {", "  node [shape=circle];"]
    for v, text in _vertex_texts(doc, spec).items():
        node = ",".join(str(c) for c in v)
        attr = f' [label="{text}"]' if text else ""
        lines.append(f'  "{node}"{attr};')
    for e, text in _edge_texts(doc, spec).items():
        a, b = edge_endpoints(e)
        left = ",".join(str(c) for c in a)
        right = ",".join(str(c) for c in b)
        attr = f' [label="{text}"]' if text else ""
        lines.append(f'  "{left}" -- "{right}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_csv(doc) -> str:
    spec = canonicalize(doc.dims)[0]
    header = ["kind"] + [f"x{i}" for i in range(1, spec.dim + 1)] + ["axis", "label"]
    rows = [",".join(header)]
    if doc.kind in ("vertex", "total"):
        for i, v in enumerate(enumerate_vertices(spec)):
            rows.append(",".join(["vertex", *map(str, v), "", str(doc.vertex_labels[i])]))
    if doc.kind in ("edge", "total"):
        for i, e in enumerate(enumerate_edges(spec)):
            rows.append(
                ",".join(["edge", *map(str, e.base), str(e.axis), str(doc.edge_labels[i])])
            )
    return "\n".join(rows) + "\n"


def reference(doc, style: str) -> str:
    if style.startswith("tikz"):
        return reference_tikz(doc, style)
    return reference_dot(doc) if style == "dot" else reference_csv(doc)


def allowed_styles(dim: int) -> list[str]:
    return ["csv", "dot"] + ([f"tikz{dim}d"] if dim in (2, 3) else [])


# Caller dims in any axis order: d = 2..4, sides 2..4.
caller_dims = st.lists(st.integers(2, 4), min_size=2, max_size=4)


@settings(max_examples=60, deadline=None)
@given(dims=caller_dims, kind=st.sampled_from(KINDS))
def test_render_matches_loop_reference(dims, kind):
    doc = generate_document(dims, kind)
    for style in allowed_styles(len(dims)):
        assert render(doc, style) == reference(doc, style), style


@settings(max_examples=20, deadline=None)
@given(dims=caller_dims, kind=st.sampled_from(KINDS))
def test_generate_csv_matches_loop_reference(dims, kind):
    argv = ["generate", "--dims", ",".join(map(str, dims)), "--kind", kind, "--format", "csv"]
    expected = reference_csv(generate_document(dims, kind))
    for block in TEXT_BLOCKS:
        out = io.StringIO()
        with text_blocks(block), contextlib.redirect_stdout(out):
            assert cli(argv) == 0
        assert out.getvalue() == expected


def test_tikz_matches_loop_reference_for_every_kind():
    # with and without vertex labels, with and without edge labels
    for dims, style in [((3, 5), "tikz2d"), ((2, 4, 3), "tikz3d")]:
        for kind in KINDS:
            doc = generate_document(list(dims), kind)
            assert render(doc, style) == reference(doc, style)


# Caller dims with sides up to 12, so coordinates reach two digits, kept to
# at most 1500 vertices so that the loop references stay quick.
wide_dims = st.lists(st.integers(2, 12), min_size=2, max_size=4).filter(
    lambda dims: math.prod(dims) <= 1500
)
# Labels of every digit count and sign, the int64 ends and both sides of 2**32.
int64_labels = st.one_of(
    st.sampled_from([
        0, 1, -1, 9, -10, INT64_MAX, -INT64_MAX, INT64_MIN,
        2**32 - 1, 2**32, -(2**32) + 1, -(2**32), 10**18, -(10**18),
    ]),
    st.integers(-1000, 1000),
    st.integers(INT64_MIN, INT64_MAX),
)


def _document(dims, kind, palette, seed):
    """A document of `kind` whose labels are drawn from `palette` by `seed`."""
    spec, _ = canonicalize(dims)
    draw = np.random.default_rng(seed).choice
    pool = np.array(palette, dtype=np.int64)
    vertex_labels = draw(pool, spec.vertex_count) if kind != "edge" else ()
    edge_labels = draw(pool, spec.edge_count) if kind != "vertex" else ()
    return LabelingDocument(tuple(dims), kind, vertex_labels, edge_labels)


@settings(max_examples=60, deadline=None)
@given(
    dims=wide_dims,
    kind=st.sampled_from(KINDS),
    palette=st.lists(int64_labels, min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@example(dims=[12, 11], kind="total", palette=[INT64_MIN, 0, INT64_MAX], seed=0)
@example(dims=[2, 12, 3, 10], kind="edge", palette=[-1, 2**32, -(2**32), 7], seed=1)
@example(dims=[10, 3, 12], kind="vertex", palette=[-(10**18), 5, 2**32 - 1], seed=2)
@example(dims=[3, 2], kind="total", palette=[0], seed=3)
@example(dims=[12, 10, 12], kind="edge", palette=[INT64_MIN, INT64_MAX, 10**18], seed=4)
def test_csv_dot_and_tikz_match_loop_reference_for_wide_coordinates_and_int64_labels(
    dims, kind, palette, seed
):
    doc = _document(dims, kind, palette, seed)
    expected = {style: reference(doc, style) for style in allowed_styles(len(dims))}
    for block, style in itertools.product(TEXT_BLOCKS, expected):
        with text_blocks(block):
            assert render(doc, style) == expected[style], (block, style)

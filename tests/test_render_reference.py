"""The array renderers against the loop renderers they replaced.

The reference functions below are the element-by-element renderers that
walked `enumerate_vertices` and `enumerate_edges`. Their output defines
the byte format, so every vectorized renderer must reproduce it exactly.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from gridmagic import (
    canonicalize,
    cli,
    edge_endpoints,
    enumerate_edges,
    enumerate_vertices,
    generate_document,
    render,
)
from gridmagic.io_cli import KINDS


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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli(argv) == 0
    assert out.getvalue() == reference_csv(generate_document(dims, kind))


def test_tikz_matches_loop_reference_for_every_kind():
    # with and without vertex labels, with and without edge labels
    for dims, style in [((3, 5), "tikz2d"), ((2, 4, 3), "tikz3d")]:
        for kind in KINDS:
            doc = generate_document(list(dims), kind)
            assert render(doc, style) == reference(doc, style)

#!/usr/bin/env python3
"""Regenerate the frozen corrupted-labeling fixtures under tests/fixtures/.

Each fixture starts from a constructed (hence magic) document and swaps two
labels, which must leave at least two distinct cube sums. The script
re-checks that through the verifier and refuses to write a fixture that
would still verify clean.
"""

from __future__ import annotations

import sys
from pathlib import Path

from gridmagic import (
    EdgeId,
    GridSpec,
    enumerate_edges,
    generate_document,
    save,
    vertex_rank,
    verify_document,
)
from gridmagic.io_cli import LabelingDocument

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def swap(labels: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    out = list(labels)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


def check_and_write(doc: LabelingDocument, name: str) -> None:
    report = verify_document(doc)
    if report.magic or report.distinct_count < 2:
        raise SystemExit(f"{name}: swap did not break the labeling ({report})")
    path = FIXTURES / name
    path.write_bytes(save(doc))
    print(f"wrote {path} (distinct cube sums: {report.distinct_count})")


def main() -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)

    # vertex labels of (1,1) and (1,3) swapped, plain vertex labeling
    spec = GridSpec((5, 3))
    doc = generate_document([5, 3], "vertex")
    a, b = vertex_rank(spec, (1, 1)), vertex_rank(spec, (1, 3))
    check_and_write(
        LabelingDocument(doc.dims, doc.kind, swap(doc.vertex_labels, a, b), doc.edge_labels),
        "grid53_vertex_swapped.json",
    )

    # same swap inside a total labeling
    doc = generate_document([5, 3], "total")
    check_and_write(
        LabelingDocument(doc.dims, doc.kind, swap(doc.vertex_labels, a, b), doc.edge_labels),
        "grid53_total_swapped.json",
    )

    # two axis-1 edge labels swapped in a 3d edge labeling
    spec = GridSpec((5, 3, 3))
    doc = generate_document([5, 3, 3], "edge")
    order = list(enumerate_edges(spec))
    a = order.index(EdgeId((1, 1, 1), 1))
    b = order.index(EdgeId((2, 1, 1), 1))
    check_and_write(
        LabelingDocument(doc.dims, doc.kind, doc.vertex_labels, swap(doc.edge_labels, a, b)),
        "grid533_edge_swapped.json",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

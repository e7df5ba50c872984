"""Shared test helpers: the fixed spec suite and slow independent oracles."""

from __future__ import annotations

import contextlib
import importlib.util
import math
from pathlib import Path

import pytest

from gridmagic import GridSpec, cube_edges, cube_vertices, enumerate_cubes, io_cli

SUITE_SEED = 20260810
SUITE_MAX_TOTAL = 10**6

# Near-capacity instances (one per dimension) plus the all-2 degenerate
# grids; the randomized draws below fill the rest of the suite.
PINNED_SPECS = [
    (577, 577),
    (60, 60, 55),
    (20, 20, 20, 20),
    (10, 10, 10, 10, 10),
    (7, 7, 7, 7, 6, 6),
] + [(2,) * d for d in range(2, 7)]


def load_script(name: str):
    """Import `scripts/<name>.py` by path (the scripts are not a package)."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Text block sizes for the document codec and renderers: the module's own,
# and tiny ones that put a block boundary every few bytes or rows.
TEXT_BLOCKS = [None, 1, 7]


@contextlib.contextmanager
def text_blocks(size: int | None):
    """Parse and write label text in blocks of `size` (None: the module's sizes)."""
    with pytest.MonkeyPatch.context() as patch:
        if size is not None:
            patch.setattr(io_cli, "_PARSE_BLOCK", size)
            patch.setattr(io_cli, "_WRITE_BLOCK", size)
        yield


def slab_block(spec: GridSpec, rows: int) -> int:
    """The `_WRITE_BLOCK` that makes slabs of `rows` leading rows of `spec`."""
    return rows * math.prod(spec.dims[1:])


def random_canonical_specs(
    count: int = 220, seed: int = SUITE_SEED, max_total: int = SUITE_MAX_TOTAL
) -> list[GridSpec]:
    """Fixed randomized suite of canonical specs with |V|+|E| <= max_total."""
    drawn = load_script("run_suite").draw_specs(count - len(PINNED_SPECS), seed, max_total)
    return [GridSpec(dims) for dims in PINNED_SPECS] + drawn


def triangular(n: int) -> int:
    return n * (n + 1) // 2


def brute_vertex_cube_sums(spec: GridSpec, labeling) -> list[int]:
    """Per-cube vertex sums by plain enumeration (independent of numpy)."""
    return [
        sum(labeling.label(v) for v in cube_vertices(cube))
        for cube in enumerate_cubes(spec)
    ]


def brute_edge_cube_sums(spec: GridSpec, labeling) -> list[int]:
    """Per-cube edge sums by plain enumeration (independent of numpy)."""
    return [
        sum(labeling.label(e) for e in cube_edges(cube))
        for cube in enumerate_cubes(spec)
    ]

"""The strided base vertex labeling against the formula it replaced.

`reference_base_vertex_grid` is the old construction: three nested
`np.where` over full (n1, n2) temporaries, one branch per (i, j) parity
class, with the downward sweep shifted by one when n1 is even and n2 odd.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridmagic import base_vertex_labeling


def reference_base_vertex_grid(n1: int, n2: int) -> np.ndarray:
    i = np.arange(1, n1 + 1, dtype=np.int64)[:, None]
    j = np.arange(1, n2 + 1, dtype=np.int64)[None, :]
    bump = 1 if n1 % 2 == 0 and n2 % 2 == 1 else 0
    up = (i - 1) * n2
    down = (n1 - i) * n2
    i_odd = i % 2 == 1
    j_odd = j % 2 == 1
    return np.where(
        i_odd & j_odd,
        up + j,
        np.where(
            ~i_odd & ~j_odd,
            up + (n2 + 1 - j),
            np.where(i_odd & ~j_odd, down + j + bump, down + (n2 + 1 - j) + bump),
        ),
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 80), st.integers(2, 80))
@example(2, 2)
@example(4, 3)  # even n1, odd n2: the downward sweep is bumped
@example(12, 7)
@example(400, 167)
@example(577, 577)
@example(578, 577)
def test_base_vertex_labeling_matches_reference(a, b):
    n1, n2 = max(a, b), min(a, b)
    got = base_vertex_labeling(n1, n2).grid
    want = reference_base_vertex_grid(n1, n2)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)

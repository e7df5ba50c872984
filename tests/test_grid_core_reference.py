"""The closed-form covering check against the exhaustive check it replaced.

`reference_check_h_covering` is the old implementation: it collects the
edges of every unit cube into a set and looks up every edge of the grid.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from gridmagic import GridSpec, check_h_covering, cube_edges, enumerate_cubes, enumerate_edges


def reference_check_h_covering(spec: GridSpec) -> bool:
    covered = set()
    for cube in enumerate_cubes(spec):
        covered.update(cube_edges(cube))
    return all(e in covered for e in enumerate_edges(spec))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 4), min_size=2, max_size=4))
def test_covering_matches_exhaustive_reference(sides):
    spec = GridSpec(tuple(sorted(sides, reverse=True)))
    assert check_h_covering(spec) == reference_check_h_covering(spec)

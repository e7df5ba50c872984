"""Exception types shared across the package."""

from __future__ import annotations

import math


class GridMagicError(Exception):
    """Base class for every error raised by this package."""


class DimensionTooSmall(GridMagicError):
    """Fewer than two axes, or a side length below 2 or not an integer."""


class DimensionOrderViolation(GridMagicError):
    """Side lengths not in canonical non-increasing order."""


class Overflow(GridMagicError):
    """A count or label sum would leave the signed 64-bit range."""


class CoordOutOfRange(GridMagicError):
    """A lattice coordinate, rank, axis, or edge base outside the grid."""


class SpecMismatch(GridMagicError):
    """Operands built over different grid specs, or an array of the wrong shape."""


class BudgetExceeded(GridMagicError):
    """Exhaustive search would need more candidate assignments than allowed.

    The search space is the product of n! over `factorials` (|V|, |E| or
    both). The message names it that way, and `required` multiplies it
    out only when asked, as it can run to millions of digits.
    """

    def __init__(self, factorials: tuple[int, ...], allowed: int):
        space = " * ".join(f"{n}!" for n in factorials)
        super().__init__(f"search needs {space} candidate assignments, budget allows {allowed}")
        self.factorials = factorials
        self.allowed = allowed

    @property
    def required(self) -> int:
        return math.prod(math.factorial(n) for n in self.factorials)


class ParseError(GridMagicError):
    """Malformed labeling document."""


class VersionMismatch(GridMagicError):
    """Labeling document written under an unsupported format version."""


class UnsupportedDimension(GridMagicError):
    """Render style incompatible with the grid dimension."""


class UsageError(GridMagicError):
    """Bad command line."""

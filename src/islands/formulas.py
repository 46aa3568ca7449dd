"""Closed-form sizes and bounds for extremal island systems.

Everything here is exact: counts are integers, non-integral bounds are
`fractions.Fraction` values.  Comparing a cardinality against a fractional
bound should use the bound's floor, which is the tightest valid integer
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Shape


@dataclass(frozen=True)
class BoundPair:
    """An exact lower/upper bound pair, lower <= upper."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper bound {self.upper}")


def min_brick_system_size(shape: Shape) -> int:
    """Minimum size of a maximal brick system: sum of sides minus (d - 1)."""
    return sum(shape.dims) - (shape.ndim - 1)


def max_rect_system_size(m1: int, m2: int) -> int:
    """Maximum size of a maximal rectangle system in an m1 x m2 box.

    The exact two-dimensional value: floor((m1*m2 + m1 + m2 - 1) / 2).
    """
    _require_positive(m1=m1, m2=m2)
    return (m1 * m2 + m1 + m2 - 1) // 2


def max_brick_system_bounds(shape: Shape) -> BoundPair:
    """The sandwich bounds on the maximum size of a maximal brick system.

    lower = (prod m_i + sum over (d-1)-subsets of prod m_j) / 2^(d-1) - 1,
    upper = prod (m_i + 1) / 2^(d-1) - 1.  In two dimensions the exact value
    of :func:`max_rect_system_size` lies between the two.
    """
    dims = shape.dims
    product = math.prod(dims)
    scale = 2 ** (len(dims) - 1)
    return BoundPair(
        lower=Fraction(product + sum(product // m for m in dims), scale) - 1,
        upper=Fraction(math.prod(m + 1 for m in dims), scale) - 1,
    )


def max_cube_system_bound(d: int, m: int) -> Fraction:
    """Upper bound ((m+1)^d - 1) / (2^d - 1) on maximal cubic-system size.

    At d = 2 this is m(m+2)/3.  It is attained exactly when m = 2^k - 1, by
    :func:`~islands.constructors.subdivision_system` of depth k.
    """
    _require_positive(d=d, m=m)
    return Fraction((m + 1) ** d - 1, 2 ** d - 1)


def _require_positive(**values: int) -> None:
    for name, value in values.items():
        if value is None or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value}")

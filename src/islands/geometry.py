"""Integer-lattice geometry of bricks inside an ambient cuboid.

A :class:`Shape` fixes the ambient box ``[0, m_1] x ... x [0, m_d]``; a
:class:`Brick` is a closed sub-box with integer corners and positive side
lengths.  Every predicate here uses closed-set semantics: two bricks that
share only a face, an edge or a single corner point still intersect, so
they are never disjoint.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch


@dataclass(frozen=True)
class Shape:
    """Ambient cuboid, given by its positive integer side lengths."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("a shape needs at least one dimension")
        if any(type(m) is not int or m < 1 for m in dims):  # exactly int: no bool or float
            raise ValueError(f"side lengths must be positive integers, got {dims}")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def is_cube(self) -> bool:
        return len(set(self.dims)) == 1

    def full_brick(self) -> Brick:
        """The brick occupying the whole ambient box."""
        return Brick((0,) * self.ndim, self.dims)

    def __str__(self):
        return "x".join(str(m) for m in self.dims)


@dataclass(frozen=True, order=True)
class Brick:
    """Closed axis-aligned box ``[lo_1, hi_1] x ... x [lo_d, hi_d]``.

    Ordering is lexicographic on the concatenated corner vectors, which is
    the canonical brick order used for sorting systems and for search.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        lo = tuple(self.lo)
        hi = tuple(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not lo or len(lo) != len(hi):
            raise ValueError(f"corner vectors must be nonempty and equal-length, got {lo}, {hi}")
        for a, b in zip(lo, hi):
            if type(a) is not int or type(b) is not int or a < 0 or b <= a:
                raise ValueError(f"need integers 0 <= lo_i < hi_i on every axis, got {lo}, {hi}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    def sides(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def is_cube(self) -> bool:
        return len(set(self.sides())) == 1

    @property
    def is_cell(self) -> bool:
        """True for an elementary cell: every side has length 1."""
        return all(b - a == 1 for a, b in zip(self.lo, self.hi))

    def valid_in(self, shape: Shape) -> bool:
        return self.ndim == shape.ndim and all(b <= m for b, m in zip(self.hi, shape.dims))

    def translate(self, offset: Iterable[int]) -> Brick:
        off = tuple(offset)
        if len(off) != self.ndim:
            raise DimensionMismatch(f"an offset of dimension {len(off)} cannot move "
                                    f"a brick of dimension {self.ndim}")
        return Brick(
            tuple(a + o for a, o in zip(self.lo, off)),
            tuple(b + o for b, o in zip(self.hi, off)),
        )

    def inner_shape(self) -> Shape:
        """The brick's own side lengths, as the shape of a re-based subproblem."""
        return Shape(self.sides())

    def __str__(self):
        return "x".join(f"[{a},{b}]" for a, b in zip(self.lo, self.hi))


def _check_same_dim(a: Brick, b: Brick) -> None:
    if a.ndim != b.ndim:
        raise DimensionMismatch(f"bricks of dimension {a.ndim} and {b.ndim} cannot be compared")


def contains(outer: Brick, inner: Brick) -> bool:
    """True iff ``inner`` lies inside ``outer`` (not necessarily strictly)."""
    _check_same_dim(outer, inner)
    return all(map(operator.le, outer.lo, inner.lo)) and all(map(operator.le, inner.hi, outer.hi))


def disjoint(a: Brick, b: Brick) -> bool:
    """True iff the closed boxes have empty intersection.

    Touching on a face, edge or corner counts as intersecting, so this
    requires a gap of at least one unit on some axis.
    """
    _check_same_dim(a, b)
    return any(map(operator.gt, a.lo, b.hi)) or any(map(operator.gt, b.lo, a.hi))


def compatible(a: Brick, b: Brick) -> bool:
    """True iff one brick contains the other or the two are disjoint."""
    return contains(a, b) or contains(b, a) or disjoint(a, b)


class IntervalMasks:
    """The pairwise predicates as bitmasks over one list of bricks.

    Bit i of a mask stands for the i-th listed brick, given by its corners.
    Per axis and coordinate ``x``, ``starts_from[x]`` holds the bricks whose
    interval on that axis starts at or after ``x`` and ``ends_before[x]``
    those ending before ``x``.  Containment is an AND of such masks over the
    axes and closed-box disjointness an OR, so a query costs O(d) big-int
    operations instead of one :func:`contains` or :func:`disjoint` call per
    listed brick; those scalar predicates stay the reference.  The corners
    are read once and not kept; the tables hold about ``2 d m n`` bits.
    """

    __slots__ = ("all", "axes")

    def __init__(self, shape: Shape, corners: Iterable[tuple[tuple[int, ...], tuple[int, ...]]]):
        lo_rows = [[bytearray() for _ in range(m + 1)] for m in shape.dims]
        hi_rows = [[bytearray() for _ in range(m + 1)] for m in shape.dims]
        every_row = [row for rows in lo_rows + hi_rows for row in rows]
        n = 0  # bits go into bytearrays: an int's |= would copy the whole mask per brick
        for lo, hi in corners:
            byte, bit = n >> 3, 1 << (n & 7)
            if bit == 1:
                for row in every_row:
                    row.append(0)
            for lo_at, hi_at, a, h in zip(lo_rows, hi_rows, lo, hi):
                lo_at[a][byte] |= bit
                hi_at[h][byte] |= bit
            n += 1
        self.all = (1 << n) - 1
        self.axes = []
        for rows in zip(lo_rows, hi_rows):
            lo_at, hi_at = ([int.from_bytes(row, "little") for row in at] for at in rows)
            starts_from = list(itertools.accumulate(reversed(lo_at), operator.or_))[::-1] + [0]
            ends_before = [0] + list(itertools.accumulate(hi_at, operator.or_))
            self.axes.append((starts_from, ends_before))

    def relations(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> tuple[int, int, int]:
        """Masks of the listed bricks inside the brick with corners ``(lo, hi)``,
        around it, and disjoint from it; a listed brick with the same corners
        is both.  The corners are taken as the constructor takes them, unchecked.
        """
        inside = self.all
        not_around = apart = 0
        for (starts_from, ends_before), a, h in zip(self.axes, lo, hi):
            inside &= starts_from[a] & ends_before[h + 1]
            not_around |= starts_from[a + 1] | ends_before[h]
            apart |= ends_before[a] | starts_from[h + 1]
        return inside, self.all & ~not_around, apart

    def compatible(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> int:
        """Listed bricks nested with or disjoint from ``(lo, hi)``, but not one equal to it."""
        inside, around, apart = self.relations(lo, hi)
        return (inside | around | apart) & ~(inside & around)


def mask_members(mask: int, items: Sequence) -> list:
    """The items whose bit is set in ``mask``, in list order: the one decoder
    that turns the engines' and :class:`IntervalMasks`' masks back into items.
    It visits the set bits only, so it costs O(members), not O(len(items))."""
    members = []
    while mask:
        low = mask & -mask
        members.append(items[low.bit_length() - 1])
        mask ^= low
    return members


def brick_corners(
    shape: Shape, cubic: bool = False
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The corners ``(lo, hi)`` of :func:`enumerate_bricks`, in the same order."""
    dims = shape.dims
    if cubic:
        for lo in itertools.product(*(range(m) for m in dims)):
            max_side = min(m - a for a, m in zip(lo, dims))
            for s in range(1, max_side + 1):
                yield lo, tuple(a + s for a in lo)
    else:
        for lo in itertools.product(*(range(m) for m in dims)):
            for hi in itertools.product(*(range(a + 1, m + 1) for a, m in zip(lo, dims))):
                yield lo, hi


def enumerate_bricks(shape: Shape, cubic: bool = False) -> Iterator[Brick]:
    """Every brick valid in ``shape``, in lexicographic (lo, hi) order.

    With ``cubic`` set, only bricks with all sides equal are produced.
    """
    for lo, hi in brick_corners(shape, cubic):
        yield Brick(lo, hi)


def brick_count(shape: Shape, cubic: bool = False) -> int:
    """Closed-form count of the bricks :func:`enumerate_bricks` yields."""
    if cubic:
        return sum(math.prod(m - s + 1 for m in shape.dims) for s in range(1, min(shape.dims) + 1))
    return math.prod(m * (m + 1) // 2 for m in shape.dims)


def shape_symmetries(shape: Shape) -> Iterator[tuple[tuple[int, ...], tuple[bool, ...]]]:
    """All symmetries of the ambient box, as (axis permutation, flip mask).

    A permutation may only trade axes of equal length; ``perm[i]`` names the
    source axis whose interval lands on axis ``i``.  A set flip reflects the
    interval on that axis via ``x -> m_i - x``.  Permutations come in
    lexicographic order, each with every flip mask in ``product`` order.
    """
    for perm in _equal_side_permutations(shape.dims):
        for flips in itertools.product((False, True), repeat=shape.ndim):
            yield perm, flips


def _equal_side_permutations(dims: tuple[int, ...],
                             prefix: tuple[int, ...] = ()) -> Iterator[tuple]:
    """The permutations extending ``prefix`` that send each axis to one of equal
    length, in lexicographic order; only those are built, never all d! of them."""
    i = len(prefix)
    if i == len(dims):
        yield prefix
        return
    for j, m in enumerate(dims):
        if m == dims[i] and j not in prefix:
            yield from _equal_side_permutations(dims, prefix + (j,))


def transform_brick(
    brick: Brick, shape: Shape, perm: tuple[int, ...], flips: tuple[bool, ...]
) -> Brick:
    """Apply one shape symmetry to a brick."""
    if brick.ndim != shape.ndim:
        raise DimensionMismatch(f"a brick of dimension {brick.ndim} is not in a shape "
                                f"of dimension {shape.ndim}")
    lo = []
    hi = []
    for i in range(shape.ndim):
        a, b = brick.lo[perm[i]], brick.hi[perm[i]]
        if flips[i]:
            m = shape.dims[i]
            a, b = m - b, m - a
        lo.append(a)
        hi.append(b)
    return Brick(tuple(lo), tuple(hi))


def canonical_bricks(shape: Shape, bricks: Iterable[Brick]) -> tuple[Brick, ...]:
    """Lexicographically least image of a brick set under the shape symmetries.

    The result is sorted and duplicate-free, and is the same for every brick
    set in one symmetry orbit, which makes it usable as an isomorph-rejection
    key.
    """
    base = set(bricks)
    return min(tuple(sorted({transform_brick(b, shape, perm, flips) for b in base}))
               for perm, flips in shape_symmetries(shape))  # the identity's image: base

"""Deterministic generators for the extremal island-system constructions.

Each generator returns (or yields) concrete witness systems: the nested
chain that attains the minimum size in a cuboid, the complete family of
minimum-size maximal systems (each built once, from its innermost seed), the
nested-cube chain, and the recursive subdivision that attains the cubic
maximum when the side is one less than a power of two.  Maximality of every
output is asserted by the test suite rather than assumed here.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from .geometry import Brick, Shape
from .system import IslandSystem

Interval = tuple[int, int]
Corners = tuple[tuple[int, ...], tuple[int, ...]]  # a brick's (lo, hi)


def nested_min_system(shape: Shape) -> IslandSystem:
    """The nested chain hitting the minimum possible size of a maximal system.

    Starting from the unit cell at the origin, the box is grown one unit at
    a time along axis 1 until full, then along axis 2, and so on.  The chain
    has ``sum(m_i) - (d - 1)`` distinct bricks.
    """
    dims = shape.dims
    d = len(dims)
    bricks = set()
    for axis in range(d):
        for n in range(1, dims[axis] + 1):
            hi = tuple(dims[j] for j in range(axis)) + (n,) + (1,) * (d - axis - 1)
            bricks.add(Brick((0,) * d, hi))
    return IslandSystem(shape, bricks)


@functools.cache
def maximal_segment_systems(m: int) -> tuple[frozenset[Interval], ...]:
    """Every maximal island system of the segment [0, m], as interval sets.

    A maximal system of the segment consists of [0, m] itself plus either a
    filled copy of a length-(m-1) segment at one end, or two filled disjoint
    segments separated by a unit gap.  All of them have exactly m intervals,
    and their number follows the Catalan sequence 1, 2, 5, 14, 42, ...
    """
    if m < 1:
        raise ValueError(f"segment length must be positive, got {m}")
    if m == 1:
        return (frozenset({(0, 1)}),)
    whole = (0, m)
    out: list[frozenset[Interval]] = []
    for offset in (0, 1):
        for sub in maximal_segment_systems(m - 1):
            out.append(frozenset({whole}) | {(a + offset, b + offset) for a, b in sub})
    for split in range(1, m - 1):
        for left in maximal_segment_systems(split):
            for right in maximal_segment_systems(m - split - 1):
                shifted = {(a + split + 1, b + split + 1) for a, b in right}
                out.append(frozenset({whole}) | set(left) | shifted)
    return tuple(out)


def minimal_maximal_systems(shape: Shape) -> Iterator[IslandSystem]:
    """All minimum-size maximal systems of the shape, each exactly once, built
    lazily from :func:`_minimal_family_corners`."""
    for corners in _minimal_family_corners(shape):
        yield IslandSystem(shape, [Brick(lo, hi) for lo, hi in corners])


def _minimal_family_corners(shape: Shape) -> Iterator[tuple[Corners, ...]]:
    """The minimum-size maximal systems, each as a tuple of distinct ``(lo, hi)``
    corner pairs.

    A system is a seed brick B (unit cross-section, length r on one axis), a
    maximal filling of B by r intervals, and a chain of unit steps growing B
    to the box.  Bricks outside a seed contain it, so the seeds of a system
    are nested; a seed inside B is a cell or runs along B's axis, and its
    chain to B leaves an interval of length r - 1 in B's filling.  So only
    the innermost seed is taken: a cell (on axis 0), or a seed whose filling
    is split, with no interval of length r - 1 (none has r = 2).  The loops
    meet it before any outer seed, cells first and then smaller r on an axis,
    so each system comes where it first appears over all seeds.  A chain step
    extends one axis at one end, the low end first, inside the box; distinct
    step orders give distinct systems.  The chain starts at B itself, so the
    filling leaves B out.
    """
    dims = shape.dims
    d = len(dims)
    chain: list[Corners] = []

    def grow(lo: tuple[int, ...], hi: tuple[int, ...]) -> Iterator[tuple[Corners, ...]]:
        chain.append((lo, hi))
        if hi == dims and not any(lo):
            yield tuple(chain)
        for axis in range(d):
            if lo[axis] > 0:
                yield from grow(lo[:axis] + (lo[axis] - 1,) + lo[axis + 1:], hi)
            if hi[axis] < dims[axis]:
                yield from grow(lo, hi[:axis] + (hi[axis] + 1,) + hi[axis + 1:])
        chain.pop()

    for axis in range(d):
        for r in range(1 if axis == 0 else 2, dims[axis] + 1):
            split = [s for s in maximal_segment_systems(r) if all(b - a != r - 1 for a, b in s)]
            if not split:
                continue  # r == 2: both fillings hold a cell, the innermost seed
            extents = tuple(r if j == axis else 1 for j in range(d))
            for lo in itertools.product(*(range(m - e + 1) for m, e in zip(dims, extents))):
                hi = tuple(a + e for a, e in zip(lo, extents))
                fillings = [tuple((lo[:axis] + (lo[axis] + a,) + lo[axis + 1:],
                                   hi[:axis] + (lo[axis] + b,) + hi[axis + 1:])
                                  for a, b in s if b - a < r)
                            for s in split]
                for steps in grow(lo, hi):
                    for filling in fillings:
                        yield filling + steps


def nested_cubes(d: int, m: int) -> IslandSystem:
    """The chain of m nested cubes anchored at the origin of [0, m]^d.

    Under closed-set semantics no further cube fits: anything disjoint from
    the chain would need a unit gap that the corner cube already denies.
    """
    if d < 1 or m < 1:
        raise ValueError(f"need d >= 1 and m >= 1, got d={d}, m={m}")
    shape = Shape((m,) * d)
    bricks = [Brick((0,) * d, (s,) * d) for s in range(1, m + 1)]
    return IslandSystem(shape, bricks, cubic=True)


def subdivision_system(d: int, k: int) -> IslandSystem:
    """The recursive subdivision of [0, 2^k - 1]^d into shrinking cubes.

    Level 1 is a single unit cube.  Level k places one copy of level k-1 in
    each of the 2^d corners of the box, at offsets 0 or 2^(k-1) per axis, and
    adds the box itself.  The copies are separated by a lattice gap of one
    across the middle hyperplanes, so they are pairwise disjoint.  The size
    is (2^(kd) - 1) / (2^d - 1).
    """
    if d < 1 or k < 1:
        raise ValueError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    side = 2 ** k - 1
    return IslandSystem(Shape((side,) * d), _subdivision_bricks(d, k), cubic=True)


def _subdivision_bricks(d: int, k: int) -> list[Brick]:
    if k == 1:
        return [Brick((0,) * d, (1,) * d)]
    side = 2 ** k - 1
    half = 2 ** (k - 1)
    sub = _subdivision_bricks(d, k - 1)
    bricks = [Brick((0,) * d, (side,) * d)]
    for offset in itertools.product((0, half), repeat=d):
        bricks.extend(b.translate(offset) for b in sub)
    return bricks

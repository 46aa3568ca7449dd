"""Island systems: laminar families of bricks in a shared ambient shape.

A system is *laminar* when every pair of member bricks is nested or
disjoint, and *maximal* when no further brick (cube, in cubic mode) can be
added without breaking that condition.  This module holds the container
type plus the predicates and editing operations the rest of the library is
built on: maximal members, addability, restriction to a member brick,
and edge-gap profiling.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable

from .errors import CapExceeded
from .geometry import (
    Brick, IntervalMasks, Shape, brick_corners, compatible, contains, mask_members,
    symmetric_images,
)

# gap_profiles builds one profile per box edge, d * 2^(d-1) of them whatever the
# bricks; this cap lets d <= 15 through.
EDGE_CAP = 500_000


@dataclass(frozen=True)
class IslandSystem:
    """A set of bricks in an ambient shape, stored sorted and duplicate-free.

    Construction checks that every brick fits the shape (and is a cube when
    the cubic flag is set); laminarity is a separate, checkable predicate so
    that externally supplied systems can be loaded and then judged.
    """

    shape: Shape
    bricks: tuple[Brick, ...]
    cubic: bool = False

    def __post_init__(self):
        bricks = tuple(sorted(set(self.bricks)))
        object.__setattr__(self, "bricks", bricks)
        for b in bricks:
            if not b.valid_in(self.shape):
                raise ValueError(f"brick {b} does not fit in shape {self.shape}")
            if self.cubic and not b.is_cube:
                raise ValueError(f"brick {b} is not a cube but the system is cubic")

    def __len__(self):
        return len(self.bricks)

    def __iter__(self):
        return iter(self.bricks)

    def __contains__(self, brick):
        return brick in self.bricks


def _sorted_system(shape: Shape, bricks: Iterable[Brick], cubic: bool) -> IslandSystem:
    """An :class:`IslandSystem` built without the checks of its constructor.

    Precondition: the bricks are sorted, distinct, valid in ``shape`` and
    cubes when ``cubic``.  A module function, not a classmethod: the
    benchmark's tracer swaps ``IslandSystem`` in other modules for a plain
    function, which has no class attributes.
    """
    system = object.__new__(IslandSystem)
    vars(system).update(shape=shape, bricks=tuple(bricks), cubic=cubic)
    return system


def is_laminar(bricks: Iterable[Brick]) -> bool:
    """True iff every pair of bricks is nested or disjoint.

    Quadratic pairwise check; cheap at the scales this library targets.
    """
    return all(compatible(a, b) for a, b in itertools.combinations(bricks, 2))


def max_elements(system: IslandSystem) -> list[Brick]:
    """The inclusion-maximal members, the full ambient brick excluded, in the
    order of ``system.bricks``.

    For a laminar system containing the full brick these are pairwise
    disjoint: the top layer sitting directly below the ambient box.  Members
    are taken by decreasing volume and each is tested only against the
    maximal members found so far: a strict container has a larger volume, so
    a member inside another is inside some maximal one already found.  That
    holds for any family, laminar or not.
    """
    full = system.shape.full_brick()
    rest = [b for b in system.bricks if b != full]
    volumes = [math.prod(b.sides()) for b in rest]
    found: list[int] = []
    for i in sorted(range(len(rest)), key=volumes.__getitem__, reverse=True):
        if not any(contains(rest[j], rest[i]) for j in found):
            found.append(i)
    return [rest[i] for i in sorted(found)]


@functools.cache
def _universe_masks(shape: Shape, cubic: bool) -> IntervalMasks:
    """The universe's masks, built once per process: one table per distinct
    ``(shape, cubic)`` queried, of about ``2 d m n`` bits for ``n`` bricks and
    largest side ``m`` (0.25 MB for ``5x5x5x5``, about 4 MB for ``12x12x12``).
    """
    return IntervalMasks(shape, brick_corners(shape, cubic))


def _addable_mask(system: IslandSystem) -> int:
    """The mask of the universe's addable bricks."""
    table = _universe_masks(system.shape, system.cubic)
    addable = table.all
    for member in system.bricks:
        if not addable:
            break
        addable &= table.compatible(member.lo, member.hi)
    return addable


def addable_bricks(system: IslandSystem) -> list[Brick]:
    """Every non-member brick compatible with all members, in brick order.

    Cubic systems only admit cubes.  An empty result is exactly maximality.
    """
    universe = list(brick_corners(system.shape, system.cubic))
    return [Brick(lo, hi) for lo, hi in mask_members(_addable_mask(system), universe)]


def is_maximal(system: IslandSystem) -> bool:
    """True iff no brick can be added.

    ANDs each member's compatibility mask from the universe's
    :class:`~islands.geometry.IntervalMasks` table into the non-members.
    """
    return _addable_mask(system) == 0


def restrict(system: IslandSystem, region: Brick) -> IslandSystem:
    """The sub-bricks of a member, re-based so the member becomes the shape.

    Coordinates are translated by ``-region.lo``, so the result is a system
    in the region's own frame and can be compared or recursed on directly.
    """
    if region not in system.bricks:
        raise ValueError(f"region {region} is not a member of the system")
    at = region.lo
    inside = [Brick(tuple(map(operator.sub, b.lo, at)), tuple(map(operator.sub, b.hi, at)))
              for b in system.bricks if contains(region, b)]
    # translation keeps the members' order, and containment puts them in the region
    return _sorted_system(region.inner_shape(), inside, system.cubic)


def non_maximal_restrictions(system: IslandSystem) -> list[Brick]:
    """The members whose :func:`restrict` is not maximal, in member order.

    Equal to ``[b for b in system if not is_maximal(restrict(system, b))]``,
    which the tests hold it to, but read off the universe's masks with no
    Brick or system built.  Translation by ``-b.lo`` maps the universe's
    bricks inside ``b`` one to one onto the universe of ``b.inner_shape()``
    and keeps compatibility, so the restriction to ``b`` is maximal iff no
    brick inside ``b`` is compatible with every member inside ``b``.  Each such
    member drops out through its own row, which leaves out its own bit.
    Neither laminarity nor maximality of ``system`` is assumed.
    """
    table = _universe_masks(system.shape, system.cubic)
    rows = []  # per member: its own bit, the bricks inside it, its compatibility row
    for b in system.bricks:
        inside, around, apart = table.relations(b.lo, b.hi)
        own = inside & around
        rows.append((own, inside, (inside | around | apart) & ~own))
    bad = []
    for b, (_, inside, _) in zip(system.bricks, rows):
        addable = inside
        for own, _, compat in rows:
            if own & inside:
                addable &= compat
        if addable:
            bad.append(b)
    return bad


def canonical_form(system: IslandSystem) -> IslandSystem:
    """The least image of the system under the shape's symmetry group.

    Idempotent, and equal for any two systems in the same symmetry orbit.
    A symmetry maps the box's bricks one to one onto its bricks and cubes onto
    cubes, so each image is a valid system; corner pairs sort as bricks do.
    """
    corners = [(b.lo, b.hi) for b in system.bricks]
    least = min(sorted(images) for images in symmetric_images(system.shape, corners))
    return _sorted_system(system.shape, [Brick(lo, hi) for lo, hi in least], system.cubic)


@dataclass(frozen=True)
class EdgeGap:
    """A maximal uncovered interval on one edge of the ambient box.

    The elementary flags describe the covered runs flanking the gap; a
    ``None`` flank means the gap ends at a corner of the box.
    """

    start: int
    end: int
    left_elementary: bool | None
    right_elementary: bool | None

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class GapProfile:
    """Coverage of one edge of the box by the system's maximal members.

    ``free_dim`` is the axis the edge runs along; ``sides`` picks the low (0)
    or high (1) face on each of the other axes.  ``covered`` and ``gaps``
    partition ``[0, m_free]`` without overlap.
    """

    free_dim: int
    sides: tuple[int, ...]
    covered: tuple[tuple[int, int], ...]
    gaps: tuple[EdgeGap, ...]


def gap_profiles(shape: Shape, members: list[Brick]) -> list[GapProfile]:
    """Edge coverage profiles for all ``d * 2^(d-1)`` edges of the box.

    ``members`` are the system's maximal members, as :func:`max_elements`
    returns them.  A member covers a segment of an edge when it touches the
    chosen face on every other axis; for a maximal system those segments are
    pairwise separated, and the reported gaps are what is left over.  A box
    with more than :data:`EDGE_CAP` edges raises
    :class:`~islands.errors.CapExceeded` before any profile is built.
    """
    dims = shape.dims
    d = len(dims)
    edges = d * 2 ** (d - 1)
    if edges > EDGE_CAP:
        raise CapExceeded(f"edge cap {EDGE_CAP} exceeded: the box has {edges} edges")
    profiles = []
    for free in range(d):
        others = [j for j in range(d) if j != free]
        for sides in itertools.product((0, 1), repeat=d - 1):
            runs = []
            for r in members:
                on_edge = all(
                    r.lo[j] == 0 if side == 0 else r.hi[j] == dims[j]
                    for j, side in zip(others, sides)
                )
                if on_edge:
                    runs.append((r.lo[free], r.hi[free], r.is_cell))
            runs.sort()
            gaps = []
            pos = 0
            left_flank = None
            for a, b, elementary in runs:
                if a > pos:
                    gaps.append(EdgeGap(pos, a, left_flank, elementary))
                pos = max(pos, b)
                left_flank = elementary
            if pos < dims[free]:
                gaps.append(EdgeGap(pos, dims[free], left_flank, None))
            profiles.append(
                GapProfile(free, sides, tuple((a, b) for a, b, _ in runs), tuple(gaps))
            )
    return profiles

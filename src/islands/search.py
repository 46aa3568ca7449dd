"""Exact search for extremal maximal island systems.

Two engines compute the same quantities by deliberately different routes:

* :func:`extremal_size` recurses over *saturated fronts*.  The top layer of
  any maximal system is a set of pairwise-disjoint proper sub-bricks that no
  further brick can contain or avoid wholesale, and below each front member
  the restricted system is again maximal in that member's own shape.  The
  optimum therefore decomposes over front members, and subproblems can be
  memoized by their side-length multiset.

* :func:`flat_extremal_size` never decomposes.  Min takes its optimum from a
  walk that branches on the undominated brick with the fewest dominators, max
  from a maximum-clique search; the witness is then the first family of that
  size in Bron–Kerbosch over the lexicographic brick list, whose prune of
  branches that cannot reach a maximal family also decides maximality.

The front characterization of maximality is the load-bearing idea and is
not trusted axiomatically: the test suite checks the two engines against
each other on every shape small enough for the flat search.

Both engines carry families as masks, query
:class:`~islands.geometry.IntervalMasks` by corners, and decode with
:func:`~islands.geometry.mask_members` and build Bricks only for what they
return; the scalar predicates stay the reference those masks are tested
against, and still check fronts.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import CapExceeded, EngineFault
from .geometry import (Brick, IntervalMasks, Shape, brick_corners, brick_count, contains,
                       disjoint, enumerate_bricks, mask_members)
from .system import IslandSystem, _sorted_system, _universe_table


def _short_digest(data: bytes) -> str:
    """The first 16 hex digits of SHA-256: the source's version, and each cache row's digest."""
    return hashlib.sha256(data).hexdigest()[:16]


# The results cache's version, over each module's name, a NUL byte and its bytes in name
# order: an edit anywhere in the package re-keys every cached row.
ENGINE_VERSION = _short_digest(b"".join(module.name.encode() + b"\0" + module.read_bytes()
                                        for module in sorted(Path(__file__).parent.glob("*.py"))))

# Engine name (extremal_size, flat_extremal_size) -> its default brick cap.
ENGINES = {"front": 200, "flat": 40}
DEFAULT_NODE_CAP = 10 ** 8


@dataclass
class SearchConfig:
    """Knobs for one search run: what to optimize, and the caps.

    ``brick_count_cap`` of ``None`` means the engine's default cap, its
    entry in :data:`ENGINES`.  Exceeding any cap raises
    :class:`~islands.errors.CapExceeded`; nothing is ever silently truncated.
    The front engine always memoizes by the sorted side lengths.
    """

    mode: str = "min"
    cubic: bool = False
    brick_count_cap: int | None = None
    node_cap: int = DEFAULT_NODE_CAP

    def __post_init__(self):
        if self.mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {self.mode!r}")
        if self.brick_count_cap is not None and self.brick_count_cap < 1:
            raise ValueError("brick_count_cap must be positive")
        if self.node_cap < 1:
            raise ValueError("node_cap must be positive")


@dataclass(frozen=True)
class Front:
    """A set of pairwise-disjoint proper sub-bricks of a region."""

    shape: Shape
    members: tuple[Brick, ...]

    def __post_init__(self):
        members = tuple(sorted(self.members))
        object.__setattr__(self, "members", members)
        full = self.shape.full_brick()
        for i, a in enumerate(members):
            if not a.valid_in(self.shape) or a == full:
                raise ValueError(f"front member {a} is not a proper sub-brick of {self.shape}")
            for b in members[i + 1 :]:
                if not disjoint(a, b):
                    raise ValueError(f"front members {a} and {b} are not disjoint")


@dataclass(frozen=True)
class ExtremalReport:
    """Result of one extremal search, with its witness and statistics."""

    shape: Shape
    cubic: bool
    mode: str
    value: int
    witness: IslandSystem
    nodes_explored: int
    memo_hits: int
    elapsed_ms: int


class _Counter:
    __slots__ = ("nodes", "memo_hits", "cap")

    def __init__(self, cap: int):
        self.nodes = 0
        self.memo_hits = 0
        self.cap = cap

    def add(self, n: int):
        """Count ``n`` nodes; past the cap, stop at ``cap + 1`` as a walk that
        counts one node at a time would."""
        self.nodes += n
        if self.nodes > self.cap:
            self.nodes = self.cap + 1
            raise CapExceeded(f"node cap {self.cap} exceeded",
                              nodes_explored=self.nodes, memo_hits=self.memo_hits)


def check_brick_cap(shape: Shape, cubic: bool, cap: int) -> None:
    total = brick_count(shape, cubic)
    if total > cap:
        raise CapExceeded(f"shape {shape} has {total} candidate bricks, cap is {cap}")


class _Region:
    """Candidates of one region, the full box left out, c_j as shape ``subs[sub[j]]``
    at lower corner ``lo[j]`` (``subs``: the distinct shapes, in first-seen order),
    plus the pairwise masks the DFS needs; no Brick is built.

    ``later[j]`` holds, as a bitmask over candidate indices, the candidates
    past j that are disjoint from c_j; ``keep[j]`` the candidates i != j that
    contain c_j or are disjoint from it.  Candidate i breaks a front's
    saturation exactly when it is in ``keep`` of every member, so the AND of
    the members' ``keep`` rows is the set of candidates that could still sit
    on top of the front.  ``hit[i]`` holds the j != i whose ``keep`` row lacks
    i: the candidates that meet c_i without lying inside it, the members that
    would stop i breaking.  All three rows are read off the candidates'
    ``IntervalMasks``.  ``cells`` is the mask of the unit-cell candidates and
    ``met[j]`` the number of them that c_j meets or is; only the min bound
    reads them.

    ``points[j]`` is c_j's lattice points as a mask over the region's: point
    ``x`` is bit ``sum(x_i * stride_i)`` over the axes longer than 1 (every
    candidate spans ``[0, 1]`` on an axis of length 1, which would only double
    every mask and every count), so the mask is the product of one run of bits
    per axis, a product with no carries, and is built as the mask of a box of
    c_j's sides at the origin, once per entry of ``subs``, shifted to c_j's
    lower corner.  ``reach[j]`` is the OR of ``points[u]`` over every
    ``u >= j`` (``reach[n]`` is 0); only the max bound reads them.  A table is
    built once per process by :func:`_region` and shared by both modes.

    ``pairs`` holds, outside cubic mode, the index pairs of the slabs
    ``[0, b] × rest`` and ``[b + 1, m_i] × rest`` (``rest`` every other side
    in full) for each axis ``i`` and ``1 <= b <= m_i − 2``: no other brick
    contains or avoids both, so each pair is a saturated front, checked here
    in masks; only the max seed reads them.
    """

    __slots__ = ("lo", "sub", "subs", "later", "keep", "hit", "cells", "met", "all_mask", "points",
                 "reach", "pairs")

    def __init__(self, dims: tuple[int, ...], cubic: bool):
        shape = Shape(dims)
        full = ((0,) * len(dims), shape.dims)
        corners = [c for c in brick_corners(shape, cubic) if c != full]
        table = IntervalMasks(shape, corners)
        rows = [table.relations(lo, hi) for lo, hi in corners]
        own = [tuple(map(operator.sub, hi, lo)) for lo, hi in corners]  # each candidate's sides
        self.lo, self.subs = [lo for lo, _ in corners], list(dict.fromkeys(own))
        self.sub = list(map({s: k for k, s in enumerate(self.subs)}.get, own))
        self.later = [apart >> j + 1 << j + 1 for j, (_, _, apart) in enumerate(rows)]
        self.keep = [(around | apart) & ~(1 << j) for j, (_, around, apart) in enumerate(rows)]
        self.hit = [table.all & ~(inside | apart) for inside, _, apart in rows]
        self.cells = sum(1 << j for j, k in enumerate(self.sub) if max(self.subs[k]) == 1)
        self.met = [(self.cells & ~apart).bit_count() for _, _, apart in rows]
        self.all_mask = table.all
        axes = [i for i, m in enumerate(dims) if m > 1]  # every candidate spans [0, 1] on the rest
        strides = dict(zip(axes, itertools.accumulate((dims[i] + 1 for i in axes), operator.mul,
                                                      initial=1)))
        box = [math.prod(((1 << (sides[i] + 1) * t) - 1) // ((1 << t) - 1)  # s + 1 bits, t apart
                         for i, t in strides.items())
               for sides in self.subs]
        shift = {lo: sum(lo[i] * t for i, t in strides.items()) for lo in dict.fromkeys(self.lo)}
        self.points = [box[k] << shift[lo] for k, lo in zip(self.sub, self.lo)]
        self.reach = list(itertools.accumulate(reversed(self.points), operator.or_, initial=0))[::-1]
        index, zero = {c: j for j, c in enumerate(corners)}, full[0]
        self.pairs = [] if cubic else [
            (index[zero, dims[:i] + (b,) + dims[i + 1:]],
             index[zero[:i] + (b + 1,) + zero[i + 1:], dims])
            for i, m in enumerate(dims) for b in range(1, m - 1)]
        for a, b in self.pairs:
            if self.keep[a] & self.keep[b]:
                raise EngineFault(f"slabs {corners[a]} and {corners[b]} of {dims} are not a "
                                  "saturated front")


@functools.cache
def _region(dims: tuple[int, ...], cubic: bool) -> _Region:
    """The region table of ``dims``, built once per process: one per distinct
    ``(dims, cubic)`` walked, of 0.20 to 0.47 kB per candidate, more with more
    lattice points (at most 91 kB within the 200-brick cap and d <= 4)."""
    return _Region(dims, cubic)


def _saturated_front_masks(
    region: _Region, counter: _Counter, gain: list[int], prune: Callable[[int, int, int, int], bool]
) -> Iterator[tuple[int, int]]:
    """The region's saturated fronts as masks over its candidates, in
    lexicographic order, each with ``partial``, the sum of its members' ``gain``.

    Fronts are grown by appending candidates in increasing index order, so
    each disjoint family is visited once.  The walk carries ``ext``, the
    candidates past the last member disjoint from every member, which holds
    a front's next member; appending ``v`` ANDs ``later[v]`` into it.  It also
    carries ``breakers``, the AND of the members' ``keep`` rows: the
    candidates that contain or avoid every member (a candidate disjoint from
    every member is one).  A family is saturated iff that mask is empty, so
    a leaf costs one comparison.

    At any other node every front below has more members, all taken from
    ``ext``.  A breaker in ``ext`` can always be cleared, by taking it; a
    breaker outside ``ext`` is cleared only by a member of its ``hit`` row.
    So a node is dead when some breaker outside ``ext`` has no ``hit`` bit
    in ``ext``: no front below it can be saturated.  With ``ext`` empty every
    breaker is such a one, so this look-ahead is the walk's only dead-end
    test.  The walk runs it on each child as the child is made, on the
    child's breakers and ``ext``; a dead child is counted as one node there
    and never pushed.  Before that, for each breaker ``i`` outside the
    parent's ``ext``, the children past the highest bit of ``hit[i] & ext``
    are all dead: such a child is not in ``hit[i]``, so ``i`` stays a breaker,
    and the child's ``ext`` holds only candidates past it, none in ``hit[i]``.
    Those children are clipped off and counted with one ``bit_count``.  The
    root has no breaker outside ``ext``, so every pushed node passed the
    look-ahead, and the fronts yielded, and their order, are the walk's
    without it.

    It also carries ``free``, the region's lattice points that no member
    holds, and drops a popped node that is not a leaf when
    ``prune(partial, breakers, free, ext)``: the bound of :class:`_FrontEngine`.
    With a ``prune`` that never fires, every saturated front is seen.

    The walk is one loop over an explicit stack of nodes.  A node pushes its
    live children highest index first and each is counted and pruned when
    popped, so live nodes are met in the preorder of the recursive walk, and
    ``prune`` sees the incumbent the consumer has kept from every front
    yielded before.  A dead child is a leaf of the count, met by no yield and
    no ``prune``, so counting it when its parent is expanded, ahead of its
    place in preorder, leaves the walk's total as it was.  The count is kept
    in a local and added to ``counter`` at the end.  Never behind a
    one-at-a-time count and equal to it at the end, it passes the cap in the
    same walk as that count, and the walk raises from its next pop or from
    its end, with ``cap + 1`` nodes.
    """
    later = region.later
    keep = region.keep
    hit = region.hit
    points = region.points
    nodes, cap = counter.nodes, counter.cap
    stack = [(0, region.all_mask, region.all_mask, 0, region.reach[0])]
    while stack:
        members, breakers, ext, partial, free = stack.pop()
        nodes += 1
        if nodes > cap:
            counter.add(nodes - counter.nodes)  # raises CapExceeded
        if breakers == 0:
            yield members, partial
            continue
        if prune(partial, breakers, free, ext):
            continue
        todo = ext
        stuck = breakers & ~ext
        while stuck:  # past the last clearer of a breaker out of ext, every child is dead
            low = stuck & -stuck
            todo &= (1 << (hit[low.bit_length() - 1] & ext).bit_length()) - 1
            stuck ^= low
        nodes += (ext ^ todo).bit_count()
        while todo:
            v = todo.bit_length() - 1
            high = 1 << v
            todo ^= high
            b, e = breakers & keep[v], ext & later[v]
            stuck = b & ~e
            while stuck:
                low = stuck & -stuck
                if hit[low.bit_length() - 1] & e == 0:
                    break
                stuck ^= low
            if stuck:
                nodes += 1
            else:
                stack.append((members | high, b, e, partial + gain[v], free ^ points[v]))
    counter.add(nodes - counter.nodes)


def front_is_saturated(front: Front, cubic: bool = False) -> bool:
    """True iff no further brick could sit on top of the front.

    A brick breaks saturation when it contains or is disjoint from every
    member; the members themselves and the full region brick do not count.
    Plain scan over the whole candidate universe, independent of the mask
    machinery the front generator uses.
    """
    members = set(front.members)
    full = front.shape.full_brick()
    for cand in enumerate_bricks(front.shape, cubic):
        if cand == full or cand in members:
            continue
        if all(contains(cand, m) or disjoint(cand, m) for m in front.members):
            return False
    return True


def enumerate_saturated_fronts(region: Shape, cubic: bool = False) -> Iterator[Front]:
    """Every saturated front of the region, exactly once.

    A front is saturated when no other brick of the region (cube, in cubic
    mode) contains or is disjoint from every member; such a brick could be
    added on top of the front, so saturated fronts are exactly the possible
    top layers of maximal systems.  The empty front appears only for a
    region with no proper sub-brick, i.e. a single elementary cell.  The
    region is held to the front engine's default brick cap, and the walk
    raises :class:`~islands.errors.CapExceeded` past ``DEFAULT_NODE_CAP`` nodes.
    """
    check_brick_cap(region, cubic, ENGINES["front"])
    table = _region(region.dims, cubic)
    bricks = [Brick(lo, tuple(map(operator.add, lo, table.subs[k])))
              for lo, k in zip(table.lo, table.sub)]
    fronts = _saturated_front_masks(table, _Counter(DEFAULT_NODE_CAP), [0] * len(bricks),
                                    lambda *node: False)
    return (Front(region, tuple(mask_members(members, bricks))) for members, _ in fronts)


class _FrontEngine:
    """Memoized optimizer over the saturated-front recursion.

    A region's value is ``base + opt over saturated fronts of the sum of
    member values``, where ``base`` is 1 whenever the region's full brick
    belongs to the systems being counted (always, except for cubic systems
    in a non-cube region, whose full brick is not a cube).  A region is solved
    as its :meth:`core`: every brick spans ``[0, 1]`` on a side of length 1, so
    candidates, order, gains, bounds, value, front and nodes are the core's.
    Memo entries are keyed by the core's side-length multiset: translation
    moves subproblems onto regions, and axis relabeling is a bijection on
    systems.  Unfolded, every region of a run has the root's dimension, so
    sorted cores split its lookups into the same classes as sorted dims.

    The front walk is an exact branch-and-bound in integers on ``partial``,
    the members' value sum.  It asks the bound only about popped nodes with
    breakers left; each passed the look-ahead when it was pushed, so ``ext``
    is not empty and every front below has more members, all in ``ext``.  A
    child the look-ahead kills, singly or in a clipped run past a breaker's
    last clearer, is counted but never bounded.  The count of a walk is the
    same as with every child pushed and checked when popped, and so is where
    a node cap stops the run.

    * max prunes when ``partial·den + num·|free & reach[low]| < (best + 1)·den``,
      ``low`` the lowest bit of ``ext`` and ``num/den`` the largest gain per
      lattice point over ``ext``: disjoint closed bricks share no lattice
      point, and every member to come lies in ``ext``, so they hold at most
      that many free points, at ``num/den`` each.  Values are integers, so a
      front below beats ``best`` only by reaching ``best + 1``.
    * min prunes when more than ``(best − 1 − partial)·a/b`` unit cells are
      breakers, that is, avoid every member (a cell contains no brick but
      itself): a saturated front takes or meets each such cell, and one member
      meets at most ``a/b`` cells per unit of gain.  A unit cell is worth 1,
      each candidate of ``ext`` holds a breaking one, and ``a, b >= 1``, so
      this fires whenever ``partial + min(gain) >= best``.

    ``{j}`` alone is a saturated front iff ``keep[j] == 0``, and the walk meets
    it, so the incumbent starts one short of the best such gain; in max mode,
    of the best such gain or slab pair's (``_Region.pairs``).  Three or more
    full-width slabs along an axis are never a saturated front: the slab from
    0 to the end of the second contains the first two and avoids the rest.  Only fronts
    that cannot strictly beat the incumbent go, so the first optimal front in
    generation order, the witness, is kept.  The walk yields fronts as masks;
    only the winning one is decoded, once per region, into ``(lo, sides)`` pairs.

    ``store`` outlives the run: each finished walk leaves there its record
    ``(value, front, nodes)``, keyed by mode, cubic and the core in the order it
    was walked in, since the front and the count depend on that order; so
    ``(5, 4, 1)`` replays ``(5, 4)``.  The memo maps a key to the core this run
    solved it in and that core's record, so a hit is one dict lookup.  A region
    missing from the memo but in the store is replayed, not walked: its table's
    ``subs`` are looked up again in order and its nodes added, so every count,
    and where a node cap stops the run, comes out as in a run without the store.
    """

    def __init__(self, mode: str, cubic: bool, counter: _Counter, store: dict | None = None):
        self.mode = mode
        self.minimizing = mode == "min"
        self.cubic = cubic
        self.counter = counter
        # key -> (the core this run first solved it in, that core's store record)
        self.memo: dict[tuple[int, ...], tuple[tuple[int, ...], tuple]] = {}
        # (mode, cubic, core) -> (value, front, nodes of its own walk); outlives the run
        self.store = {} if store is None else store

    def core(self, dims: tuple[int, ...]) -> tuple[int, ...]:
        """``dims`` without its sides of length 1, keeping one if all are; in
        cubic mode, where a side of 1 rules out every larger cube, ``dims``."""
        if self.cubic or 1 not in dims:
            return dims
        return tuple(m for m in dims if m > 1) or dims[:1]

    def key(self, dims: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted(self.core(dims), reverse=True))

    def base(self, dims: tuple[int, ...]) -> int:
        return 1 if not self.cubic or len(set(dims)) == 1 else 0

    def value(self, dims: tuple[int, ...]) -> int:
        key = self.key(dims)
        entry = self.memo.get(key)
        if entry is not None:
            self.counter.memo_hits += 1
            return entry[1][0]
        core = self.core(dims)
        stored = (self.mode, self.cubic, core)
        solved = self.store.get(stored)
        if solved is None:
            solved = self.store[stored] = self._walk(core)
        else:  # replay the lookups and the node count of the walk that solved it
            for sides in _region(core, self.cubic).subs:
                self.value(sides)
            self.counter.add(solved[2])
        self.memo[key] = core, solved
        return solved[0]

    def _walk(self, dims: tuple[int, ...]) -> tuple[int, list, int]:
        """Solve ``dims`` over its saturated fronts: its value, its best front
        as ``(lo, sides)`` pairs, and the nodes of this walk alone.  The region
        table is the process's shared one; gains, the incumbent and the bound
        are this walk's."""
        region = _region(dims, self.cubic)
        values = [self.value(sides) for sides in region.subs]
        gain = [values[k] for k in region.sub]
        singles = [g for g, k in zip(gain, region.keep) if k == 0]
        if self.minimizing:
            best = min(singles, default=sum(gain)) + 1
            cells = region.cells
            # the most unit cells per unit of gain that one member meets or is
            a, b = _largest_ratio(zip(region.met, gain))

            def prune(partial: int, breakers: int, free: int, ext: int) -> bool:
                return (breakers & cells).bit_count() * b > (best - 1 - partial) * a
        else:
            best = max(singles + [gain[a] + gain[b] for a, b in region.pairs], default=0) - 1
            reach = region.reach
            ratios = _ratio_table(gain, [p.bit_count() for p in region.points])

            def prune(partial: int, breakers: int, free: int, ext: int) -> bool:
                for num, den, mask in ratios:  # the last mask holds every candidate
                    if mask & ext:
                        break
                room = (free & reach[(ext & -ext).bit_length() - 1]).bit_count()
                return partial * den + num * room < (best + 1) * den

        best_mask = 0
        walked = self.counter.nodes
        for members, partial in _saturated_front_masks(region, self.counter, gain, prune):
            if partial < best if self.minimizing else partial > best:
                best, best_mask = partial, members
        front = [(region.lo[j], region.subs[region.sub[j]])
                 for j in mask_members(best_mask, range(len(gain)))]
        return self.base(dims) + best, front, self.counter.nodes - walked

    def witness_corners(self, dims: tuple[int, ...], at: tuple[int, ...]) -> Iterator[tuple]:
        """The witness's corner pairs, translated by ``at``.  A front solved in
        other dims is carried over along :func:`_axis_assignment`, and spans
        ``[0, 1]`` on each side of length 1 that its own dims lack."""
        core, (_, front, _) = self.memo[self.key(dims)]
        if core != dims:
            axes = _axis_assignment(core, dims)
            front = [(tuple(0 if j is None else lo[j] for j in axes),
                      tuple(1 if j is None else sides[j] for j in axes)) for lo, sides in front]
        if self.base(dims):
            yield at, tuple(map(operator.add, at, dims))
        for lo, sides in front:
            yield from self.witness_corners(sides, tuple(map(operator.add, at, lo)))


def _largest_ratio(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The largest ``p/q`` as ``(p, q)``, ``(0, 1)`` if none; every ``q`` must be 1 or more."""
    num, den = 0, 1
    for p, q in pairs:
        if p * den > num * q:
            num, den = p, q
    return num, den


def _ratio_table(gain: list[int], size: list[int]) -> list[tuple[int, int, int]]:
    """``(num, den, mask)`` per distinct ratio ``gain[j]/size[j]``, in lowest
    terms and falling order, ``mask`` the candidates whose ratio is
    ``num/den`` or more; every ``size`` must be 1 or more.  Ordered by
    cross-multiplying, so the first entry whose mask meets a set of
    candidates holds their largest ratio."""
    classes: dict[tuple[int, int], int] = {}
    for j, (g, p) in enumerate(zip(gain, size)):
        k = math.gcd(g, p)
        ratio = g // k, p // k
        classes[ratio] = classes.get(ratio, 0) | 1 << j
    order = sorted(classes, key=functools.cmp_to_key(lambda x, y: y[0] * x[1] - x[0] * y[1]))
    masks = itertools.accumulate(map(classes.get, order), operator.or_)
    return [(num, den, mask) for (num, den), mask in zip(order, masks)]


def _axis_assignment(src_dims: tuple[int, ...],
                     dst_dims: tuple[int, ...]) -> tuple[int | None, ...]:
    """For each destination axis, a distinct source axis of equal length, or
    ``None`` for a side of length 1 past the source's: stable sorts by falling
    length pair the k-th axis of each length in both frames, and the 1s come
    last, where only the destination may have more."""
    mapping: list[int | None] = [None] * len(dst_dims)
    for i, j in zip(sorted(range(len(dst_dims)), key=lambda i: -dst_dims[i]),
                    sorted(range(len(src_dims)), key=lambda j: -src_dims[j])):
        mapping[i] = j
    return tuple(mapping)


def _run(shape: Shape, config: SearchConfig, engine: str, solve) -> ExtremalReport:
    """Check the brick cap, call ``solve(counter) -> (value, bricks)``, report."""
    started = time.perf_counter()
    check_brick_cap(shape, config.cubic, config.brick_count_cap or ENGINES[engine])
    counter = _Counter(config.node_cap)
    value, bricks = solve(counter)
    return ExtremalReport(
        shape=shape,
        cubic=config.cubic,
        mode=config.mode,
        value=value,
        witness=IslandSystem(shape, bricks, cubic=config.cubic),
        nodes_explored=counter.nodes,
        memo_hits=counter.memo_hits,
        elapsed_ms=int((time.perf_counter() - started) * 1000),
    )


def extremal_size(shape: Shape, config: SearchConfig, store: dict | None = None) -> ExtremalReport:
    """Minimum or maximum size of a maximal system, by front decomposition.

    ``store`` is a dict, empty at first, that a sweep passes to each of its
    runs, so that a run replays the sub-shapes earlier runs solved instead of
    walking them again.  Per ``(mode, cubic, core)``, ``core`` the walked dims
    as :meth:`_FrontEngine.core` leaves them, it holds one record per
    finished walk: the value, the best front and the nodes of that walk.
    A replay counts what the walk counted, so the report, or the
    :class:`~islands.errors.CapExceeded`, is a fresh run's: ``nodes_explored``
    and ``memo_hits`` are a fresh run's counts, not the nodes this call walked.
    """

    def solve(counter: _Counter) -> tuple[int, list[Brick]]:
        engine = _FrontEngine(config.mode, config.cubic, counter, store)
        value = engine.value(shape.dims)
        return value, [Brick(*c) for c in engine.witness_corners(shape.dims, (0,) * shape.ndim)]

    return _run(shape, config, "front", solve)


def flat_extremal_size(shape: Shape, config: SearchConfig) -> ExtremalReport:
    """Reference search: the extreme maximal system, by bounded Bron–Kerbosch.

    Shares no decomposition machinery with :func:`extremal_size`.  Min takes its
    optimum from :func:`_smallest_families`; max from :func:`_largest_clique`, as a
    largest laminar family is maximal.  The lex walk then runs to its first family
    of that size, the witness, dropping a node once ``|R|`` reaches it (min) or
    ``|R|`` plus its candidates' :func:`_colour_classes` cannot (max); a walk that
    never reaches it, or a max walk that holds it with candidates left, raises
    :class:`~islands.errors.EngineFault`.
    """

    def solve(counter: _Counter) -> tuple[int, list[Brick]]:
        if config.mode == "min":
            value = _smallest_families(shape, config.cubic, counter, ties=False)[0]

            def prune(size: int, pmask: int, compat: list[int]) -> bool:  # |R| + 1 > value
                return size >= value
        else:
            value = _largest_clique(_universe_table(shape, config.cubic).by_degree(), counter)

            def prune(size: int, pmask: int, compat: list[int]) -> bool:  # |R| + classes < value
                if size >= value:  # R and any candidate make a larger family: value undercounted
                    raise EngineFault(f"a max family past size {value} in {shape}")
                classes = _colour_classes(pmask, compat)
                return not any(itertools.islice(classes, value - 1 - size, None))

        walk = _maximal_families(shape, config.cubic, counter, prune)
        family = next((f for f in walk if f.bit_count() == value), None)
        if family is None:
            raise EngineFault(f"no {config.mode} family of size {value} in {shape}")
        corners = list(brick_corners(shape, config.cubic))
        return value, [Brick(lo, hi) for lo, hi in mask_members(family, corners)]

    return _run(shape, config, "flat", solve)


def _smallest_families(shape: Shape, cubic: bool, counter: _Counter,
                       ties: bool) -> tuple[int, list[int]]:
    """The least size of a maximal family of ``(shape, cubic)`` and, as masks in
    :func:`_dominating_families` order, the first family of that size, or with ``ties``
    every one.  A node with undominated bricks goes on ``|R| + 1 - ties >= best``,
    ``best`` the least size yet: every family below it has more than ``|R|`` members."""
    best, smallest = brick_count(shape, cubic) + 1, []
    for family in _dominating_families(shape, cubic, counter,
                                       lambda size: size + 1 - ties >= best):
        size = family.bit_count()
        if size < best:
            best, smallest = size, [family]
        elif ties and size == best:
            smallest.append(family)
    return best, smallest


def _largest_clique(compat: list[int], counter: _Counter) -> int:
    """The size of a largest clique of ``compat`` rows, by Tomita & Seki's MCQ: a
    node, counted once, branches on its candidates' :func:`_colour_classes` from
    the last down, and returns at class ``k`` once ``|R| + k <= best``, as a clique
    takes at most one brick of each class left."""
    best = 0
    bits = range(len(compat))

    def expand(size: int, pmask: int) -> None:
        nonlocal best
        counter.add(1)
        for k, colour in reversed(list(enumerate(_colour_classes(pmask, compat), 1))):
            for v in reversed(mask_members(colour, bits)):
                if size + k <= best:
                    return
                below = pmask & compat[v]
                if below:
                    expand(size + 1, below)
                else:
                    best = max(best, size + 1)
                pmask ^= 1 << v

    expand(0, (1 << len(compat)) - 1)
    return best


def _colour_classes(pmask: int, compat: list[int]) -> Iterator[int]:
    """A greedy split of ``pmask`` into classes of pairwise incompatible bricks, as masks.
    A class takes the lowest bit, keeps only the bits outside its ``compat`` row, repeats,
    and leaves the rest to the next class.  A laminar family takes at most one brick of
    each class, so their number bounds its size (Tomita & Seki's colouring bound)."""
    while pmask:
        colour, rest = 0, pmask
        while rest:
            low = rest & -rest
            colour |= low
            rest &= ~(compat[low.bit_length() - 1] | low)
        pmask ^= colour
        yield colour


def _maximal_families(shape: Shape, cubic: bool, counter: _Counter,
                      prune: Callable[[int, int, list[int]], bool]) -> Iterator[int]:
    """Bron–Kerbosch over the universe of ``(shape, cubic)``, in the order of
    :func:`~islands.geometry.brick_corners`, with the ``compat`` rows of its
    cached table in ``system``; yields each maximal family as a mask.

    The walk takes the bricks in list order with include/exclude decisions and
    carries three masks: the chosen bricks R, the candidates P still compatible
    with all of R, and the excluded bricks X, skipped earlier and still
    compatible with all of R.  A branch dies as soon as some brick of X is
    compatible with every candidate: no family below could ever exclude it.
    With P empty that prune returns on any nonempty X, so a node that gets past
    it with P = X = ∅ has nothing left to add, and R is maximal.  A node with
    P ≠ ∅ also dies when ``prune(|R|, P, compat)``, ``compat[i]`` being brick i's compatible
    mask: flat min's size bound or flat max's colour bound, both set in this module;
    a hook that never fires lists every maximal family, in the order of their sorted members.

    The walk is one loop over an explicit stack of ``(R, P, X)`` nodes.  A node
    pushes its exclude child, then its include child, and is counted and
    pruned when popped, so nodes are met in the preorder of the recursive
    include-first walk, and ``prune`` sees the incumbent the consumer has
    kept from every family yielded before.
    """
    compat = _universe_table(shape, cubic).compat
    stack = [(0, (1 << len(compat)) - 1, 0)]
    while stack:
        rmask, pmask, xmask = stack.pop()
        counter.add(1)
        xm = xmask
        while xm:
            low = xm & -xm
            if pmask & ~compat[low.bit_length() - 1] == 0:
                break
            xm ^= low
        if xm:  # the X-prune fired
            continue
        if pmask == 0:
            yield rmask
            continue
        if prune(rmask.bit_count(), pmask, compat):
            continue
        low = pmask & -pmask
        row = compat[low.bit_length() - 1]
        stack.append((rmask, pmask ^ low, xmask | low))
        stack.append((rmask | low, pmask & row, xmask & row))


def _dominating_families(shape: Shape, cubic: bool, counter: _Counter,
                         prune: Callable[[int], bool]) -> Iterator[int]:
    """Every maximal family of ``(shape, cubic)`` once, as a mask, not in lex order: an
    independent dominating set of the incompatibility graph, found by fail-first
    branching (Haralick & Elliott 1980) as in exact minimum independent domination.

    A node ``(R, |R|, P, U)`` holds U, the bricks outside R compatible with all of
    it, and P, U less the bricks excluded so far.  It is counted once, yields R
    when U is empty, and else goes on ``prune(|R|)``.  Otherwise it takes the u in U
    with the fewest dominators ``P & ~compat[u]`` (u itself and the candidates
    incompatible with it): every family below holds one, so none means a dead node.
    One child per dominator, in bit order, adds it with the earlier ones excluded, so
    each family is met once.  Children are pushed last first, so nodes are popped in
    preorder and ``prune`` sees the incumbent kept from every family yielded before.
    """
    compat = _universe_table(shape, cubic).compat
    clash = [~row for row in compat]  # each brick's incompatible bricks, itself included
    full = (1 << len(compat)) - 1
    stack = [(0, 0, full, full)]
    while stack:
        rmask, size, pmask, umask = stack.pop()
        counter.add(1)
        if umask == 0:
            yield rmask
            continue
        if prune(size):
            continue
        fewest, todo, rest = len(compat) + 1, 0, umask
        while rest and fewest:  # the first brick of U with the fewest dominators
            low = rest & -rest
            rest ^= low
            doms = pmask & clash[low.bit_length() - 1]
            if (count := doms.bit_count()) < fewest:
                fewest, todo = count, doms
        while todo:  # left in todo: the dominators before v, which its child excludes
            v = todo.bit_length() - 1
            todo ^= 1 << v
            row = compat[v]
            stack.append((rmask | 1 << v, size + 1, pmask & ~todo & row, umask & row))


def enumerate_maximal_systems(
    shape: Shape, cubic: bool = False, cap: int = ENGINES["flat"]
) -> Iterator[IslandSystem]:
    """Every maximal system of the shape, each exactly once, in sorted form.

    Driven by the same flat backtracking as :func:`flat_extremal_size`, so
    it is independent of the front engine.  The brick cap is checked on the
    call, before the first system is asked for; symmetry classes are
    :func:`~islands.system.canonical_form`'s job.  Each brick of the universe
    is built once and shared by the systems that hold it.  The universe is
    listed in brick order and every brick fits the shape, so a family decoded
    from it is already sorted and valid, and is wrapped without re-checking.
    """
    check_brick_cap(shape, cubic, cap)
    families = _maximal_families(shape, cubic, _Counter(DEFAULT_NODE_CAP), lambda *node: False)
    bricks = [Brick(lo, hi) for lo, hi in brick_corners(shape, cubic)]
    return (_sorted_system(shape, mask_members(mask, bricks), cubic) for mask in families)


def _maximal_family_masks(shape: Shape, cubic: bool, cap: int) -> Iterator[int]:
    """Each maximal family as a mask, in :func:`_dominating_families` order, not the
    lex order of :func:`enumerate_maximal_systems`; the brick cap is checked on the call."""
    check_brick_cap(shape, cubic, cap)
    return _dominating_families(shape, cubic, _Counter(DEFAULT_NODE_CAP), lambda size: False)

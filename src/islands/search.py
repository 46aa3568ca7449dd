"""Exact search for extremal maximal island systems.

Two engines compute the same quantities by deliberately different routes:

* :func:`extremal_size` recurses over *saturated fronts*.  The top layer of
  any maximal system is a set of pairwise-disjoint proper sub-bricks that no
  further brick can contain or avoid wholesale, and below each front member
  the restricted system is again maximal in that member's own shape.  The
  optimum therefore decomposes over front members, and subproblems can be
  memoized by their side-length multiset.

* :func:`flat_extremal_size` never decomposes: it backtracks over the
  lexicographic brick list with include/exclude decisions, prunes branches
  that cannot reach a maximal family, and verifies maximality of every leaf
  by a full addability scan.

The front characterization of maximality is the load-bearing idea and is
not trusted axiomatically: the test suite checks the two engines against
each other on every shape small enough for the flat search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .errors import CapExceeded
from .geometry import Brick, Shape, brick_count, compatible, contains, disjoint, enumerate_bricks
from .system import IslandSystem, canonical_form

ENGINE_VERSION = "1"

FRONT_BRICK_CAP = 200
FLAT_BRICK_CAP = 40
DEFAULT_NODE_CAP = 10 ** 8


@dataclass
class SearchConfig:
    """Knobs for one search run.

    ``brick_count_cap`` of ``None`` means the engine default (200 for the
    front engine, 40 for the flat one).  Exceeding any cap raises
    :class:`~islands.errors.CapExceeded`; nothing is ever silently truncated.
    """

    mode: str = "min"
    cubic: bool = False
    use_symmetry: bool = True
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

    def tick(self):
        self.nodes += 1
        if self.nodes > self.cap:
            raise CapExceeded(
                f"node cap {self.cap} exceeded",
                nodes_explored=self.nodes,
                memo_hits=self.memo_hits,
            )


class _Region:
    """Candidate bricks of one region plus the pairwise masks the DFS needs.

    ``ok[j]`` holds, as a bitmask over candidate indices, which candidates i
    satisfy contains(c_j, c_i) or disjoint(c_j, c_i); candidate j breaks a
    front's saturation exactly when the front's index mask is a subset of
    ``ok[j]``.
    """

    __slots__ = ("bricks", "n", "disj", "ok", "all_mask")

    def __init__(self, dims: tuple[int, ...], cubic: bool):
        shape = Shape(dims)
        full = shape.full_brick()
        bricks = [b for b in enumerate_bricks(shape, cubic) if b != full]
        n = len(bricks)
        disj = [0] * n
        ok = [0] * n
        for j in range(n):
            bj = bricks[j]
            for i in range(n):
                if i == j:
                    continue
                bi = bricks[i]
                if disjoint(bj, bi):
                    disj[j] |= 1 << i
                    ok[j] |= 1 << i
                elif contains(bj, bi):
                    ok[j] |= 1 << i
        self.bricks = bricks
        self.n = n
        self.disj = disj
        self.ok = ok
        self.all_mask = (1 << n) - 1


def _saturated_front_masks(region: _Region, counter: _Counter) -> Iterator[tuple[int, ...]]:
    """Index tuples of the region's saturated fronts, in lexicographic order.

    Fronts are grown by appending candidates in increasing index order, so
    each disjoint family is visited once.  Only families that no candidate
    is disjoint from (``allowed == 0``) can be saturated, which keeps the
    full saturation scan off the hot path.
    """
    n = region.n
    disj = region.disj
    ok = region.ok

    def saturated(fmask: int) -> bool:
        for j in range(n):
            if not (fmask >> j) & 1 and fmask & ~ok[j] == 0:
                return False
        return True

    def walk(members: tuple[int, ...], fmask: int, allowed: int, start: int):
        counter.tick()
        if allowed == 0:
            if saturated(fmask):
                yield members
            return
        ext = allowed >> start << start
        while ext:
            low = ext & -ext
            v = low.bit_length() - 1
            yield from walk(members + (v,), fmask | low, allowed & disj[v], v + 1)
            ext ^= low

    yield from walk((), 0, region.all_mask, 0)


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


def enumerate_saturated_fronts(
    region: Shape,
    cubic: bool = False,
    brick_count_cap: int = FRONT_BRICK_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Iterator[Front]:
    """Every saturated front of the region, exactly once.

    A front is saturated when no other brick of the region (cube, in cubic
    mode) contains or is disjoint from every member; such a brick could be
    added on top of the front, so saturated fronts are exactly the possible
    top layers of maximal systems.  The empty front appears only for a
    region with no proper sub-brick, i.e. a single elementary cell.
    """
    if brick_count(region, cubic) > brick_count_cap:
        raise CapExceeded(
            f"region {region} has more than {brick_count_cap} candidate bricks"
        )
    table = _Region(region.dims, cubic)
    counter = _Counter(node_cap)

    def fronts() -> Iterator[Front]:
        for members in _saturated_front_masks(table, counter):
            yield Front(region, tuple(table.bricks[i] for i in members))

    return fronts()


class _FrontEngine:
    """Memoized optimizer over the saturated-front recursion.

    A region's value is ``base + opt over saturated fronts of the sum of
    member values``, where ``base`` is 1 whenever the region's full brick
    belongs to the systems being counted (always, except for cubic systems
    in a non-cube region, whose full brick is not a cube).  Memo entries are
    keyed by the side-length multiset: translation moves subproblems onto
    regions, and axis relabeling is a bijection on systems.
    """

    def __init__(self, mode: str, cubic: bool, use_symmetry: bool, counter: _Counter):
        self.minimizing = mode == "min"
        self.cubic = cubic
        self.use_symmetry = use_symmetry
        self.counter = counter
        # key -> (value, best front bricks, dims the front was computed in)
        self.memo: dict[tuple[int, ...], tuple[int, tuple[Brick, ...], tuple[int, ...]]] = {}

    def key(self, dims: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted(dims, reverse=True)) if self.use_symmetry else dims

    def base(self, dims: tuple[int, ...]) -> int:
        return 1 if not self.cubic or len(set(dims)) == 1 else 0

    def value(self, dims: tuple[int, ...]) -> int:
        key = self.key(dims)
        hit = self.memo.get(key)
        if hit is not None:
            self.counter.memo_hits += 1
            return hit[0]
        region = _Region(dims, self.cubic)
        base = self.base(dims)
        best_value = None
        best_front = None
        for members in _saturated_front_masks(region, self.counter):
            total = base
            for index in members:
                total += self.value(region.bricks[index].sides())
            if best_value is None or (total < best_value if self.minimizing else total > best_value):
                best_value = total
                best_front = tuple(region.bricks[i] for i in members)
        if best_value is None:
            raise AssertionError(f"region {dims} has no saturated front")
        self.memo[key] = (best_value, best_front, dims)
        return best_value

    def witness_bricks(self, dims: tuple[int, ...]) -> list[Brick]:
        """Replay the stored optimal fronts into an explicit brick list."""
        _, front, entry_dims = self.memo[self.key(dims)]
        if entry_dims != dims:
            axis_map = _axis_assignment(entry_dims, dims)
            front = tuple(_permute_brick(b, axis_map) for b in front)
        bricks: list[Brick] = []
        if self.base(dims):
            bricks.append(Shape(dims).full_brick())
        for member in front:
            for sub in self.witness_bricks(member.sides()):
                bricks.append(sub.translate(member.lo))
        return bricks


def _axis_assignment(src_dims: tuple[int, ...], dst_dims: tuple[int, ...]) -> list[int]:
    """For each destination axis, a distinct source axis of equal length."""
    used = [False] * len(src_dims)
    mapping = []
    for want in dst_dims:
        for j, have in enumerate(src_dims):
            if not used[j] and have == want:
                used[j] = True
                mapping.append(j)
                break
        else:
            raise AssertionError(f"{src_dims} and {dst_dims} are not permutations")
    return mapping


def _permute_brick(brick: Brick, axis_map: list[int]) -> Brick:
    return Brick(
        tuple(brick.lo[j] for j in axis_map),
        tuple(brick.hi[j] for j in axis_map),
    )


def extremal_size(shape: Shape, config: SearchConfig) -> ExtremalReport:
    """Minimum or maximum size of a maximal system, by front decomposition."""
    started = time.perf_counter()
    cap = config.brick_count_cap if config.brick_count_cap is not None else FRONT_BRICK_CAP
    total = brick_count(shape, config.cubic)
    if total > cap:
        raise CapExceeded(f"shape {shape} has {total} candidate bricks, cap is {cap}")
    counter = _Counter(config.node_cap)
    engine = _FrontEngine(config.mode, config.cubic, config.use_symmetry, counter)
    value = engine.value(shape.dims)
    witness = IslandSystem(shape, engine.witness_bricks(shape.dims), cubic=config.cubic)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return ExtremalReport(
        shape=shape,
        cubic=config.cubic,
        mode=config.mode,
        value=value,
        witness=witness,
        nodes_explored=counter.nodes,
        memo_hits=counter.memo_hits,
        elapsed_ms=elapsed_ms,
    )


def flat_extremal_size(shape: Shape, config: SearchConfig) -> ExtremalReport:
    """Reference search: enumerate every maximal system, take the extreme.

    Shares no decomposition machinery with :func:`extremal_size`; its only
    cleverness is pruning branches in which some excluded brick would stay
    addable forever.  Restricted to small brick universes by default.
    """
    started = time.perf_counter()
    cap = config.brick_count_cap if config.brick_count_cap is not None else FLAT_BRICK_CAP
    total = brick_count(shape, config.cubic)
    if total > cap:
        raise CapExceeded(f"shape {shape} has {total} candidate bricks, cap is {cap}")
    counter = _Counter(config.node_cap)
    value, bricks = _flat_best(shape, config.mode, config.cubic, counter)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return ExtremalReport(
        shape=shape,
        cubic=config.cubic,
        mode=config.mode,
        value=value,
        witness=IslandSystem(shape, bricks, cubic=config.cubic),
        nodes_explored=counter.nodes,
        memo_hits=0,
        elapsed_ms=elapsed_ms,
    )


def _flat_best(
    shape: Shape, mode: str, cubic: bool, counter: _Counter
) -> tuple[int, tuple[Brick, ...]]:
    minimizing = mode == "min"
    best_size = None
    best = None
    for family in _maximal_families(shape, cubic, counter):
        size = len(family)
        if best_size is None or (size < best_size if minimizing else size > best_size):
            best_size = size
            best = family
    if best is None:
        raise AssertionError(f"no maximal system found in shape {shape}")
    return best_size, best


def _maximal_families(
    shape: Shape, cubic: bool, counter: _Counter
) -> Iterator[tuple[Brick, ...]]:
    """Backtrack over the lexicographic brick list, yielding maximal families.

    State is (chosen, candidates, excluded), all masks over the brick list.
    Candidates stay compatible with everything chosen; excluded bricks are
    ones deliberately skipped that are still compatible.  A branch dies as
    soon as some excluded brick is compatible with every remaining candidate,
    since no completion could shut it out.  At exhaustion, maximality is
    confirmed by scanning the whole universe for an addable brick.
    """
    bricks = list(enumerate_bricks(shape, cubic))
    n = len(bricks)
    compat = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if compatible(bricks[i], bricks[j]):
                compat[i] |= 1 << j
                compat[j] |= 1 << i

    def addable_nothing(rmask: int) -> bool:
        for j in range(n):
            if not (rmask >> j) & 1 and rmask & ~compat[j] == 0:
                return False
        return True

    def walk(rmask: int, pmask: int, xmask: int):
        counter.tick()
        if pmask == 0:
            if xmask == 0 and addable_nothing(rmask):
                yield rmask
            return
        xm = xmask
        while xm:
            low = xm & -xm
            if pmask & ~compat[low.bit_length() - 1] == 0:
                return
            xm ^= low
        low = pmask & -pmask
        v = low.bit_length() - 1
        yield from walk(rmask | low, pmask & compat[v], xmask & compat[v])
        yield from walk(rmask, pmask ^ low, xmask | low)

    for rmask in walk(0, (1 << n) - 1, 0):
        family = []
        rm = rmask
        while rm:
            low = rm & -rm
            family.append(bricks[low.bit_length() - 1])
            rm ^= low
        yield tuple(family)


def enumerate_maximal_systems(
    shape: Shape,
    cubic: bool = False,
    cap: int = FLAT_BRICK_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
    up_to_symmetry: bool = False,
) -> Iterator[IslandSystem]:
    """Every maximal system of the shape, each exactly once, in sorted form.

    With ``up_to_symmetry`` only one canonical representative per symmetry
    orbit is yielded.  Driven by the same flat backtracking as
    :func:`flat_extremal_size`, so it is independent of the front engine.
    """
    total = brick_count(shape, cubic)
    if total > cap:
        raise CapExceeded(f"shape {shape} has {total} candidate bricks, cap is {cap}")
    counter = _Counter(node_cap)

    def systems() -> Iterator[IslandSystem]:
        seen: set[tuple[Brick, ...]] = set()
        for family in _maximal_families(shape, cubic, counter):
            system = IslandSystem(shape, family, cubic=cubic)
            if up_to_symmetry:
                system = canonical_form(system)
                if system.bricks in seen:
                    continue
                seen.add(system.bricks)
            yield system

    return systems()

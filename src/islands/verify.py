"""Verification sweeps: recompute closed-form claims by exhaustive search.

Each suite produces one row per checked instance with the columns of
:data:`COLUMNS`.  A row whose search hits a resource cap is marked SKIPPED
rather than failing the sweep; everything else is PASS or FAIL by exact
integer comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .constructors import _minimal_family_corners
from .errors import CapExceeded
from .formulas import (
    max_brick_system_bounds,
    max_cube_system_bound,
    max_rect_system_size,
    min_brick_system_size,
)
from .geometry import Shape, brick_corners
from .search import (
    DEFAULT_NODE_CAP,
    ENGINES,
    ExtremalReport,
    SearchConfig,
    check_brick_cap,
    _Counter,
    _maximal_family_masks,
    _smallest_families,
    extremal_size,
    flat_extremal_size,
)
from .serialize import cache_append, cache_key, cache_lookup, report_to_dict
from .system import _universe_table

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
COLUMNS = ("shape", "cubic", "mode", "expected", "actual", "status")
ONEDIM_MAX = 6  # longest segment the corollary sweep's onedim rows check
# Default brick cap of the oracle sweeps, which list every maximal system of
# each shape they are given.  Not ENGINES["flat"], the default cap of a flat
# search: 40 would SKIP `--shape 3,2,2` (54 bricks), which both sweeps finish
# in well under a second.
ORACLE_BRICK_CAP = 60


@dataclass
class Searcher:
    """Runs extremal searches through the persistent report cache.

    ``engine`` must name an entry of ``search.ENGINES``; ``cache_path`` is
    ``None``, for no cache, or not empty.  A report checks the brick cap, then
    asks ``serialize.cache_lookup``, which alone decides hits and misses a row
    past ``node_cap`` nodes; a miss runs the search and appends its report.  So
    caps decide the same with or without a cache: a capped run stops where it
    would without one, with the same message and counts, and appends nothing.

    With the front engine, every miss passes the searcher's one store to
    ``extremal_size``: it keeps one record per sub-shape a run has solved,
    per mode, cubic flag and axis order: its value, its best front and the
    node count of its walk, so a later run replays it instead of walking it
    again.  A report, or a ``CapExceeded``, still carries a fresh run's
    ``nodes_explored`` and ``memo_hits``, not the nodes this call walked.
    """

    engine: str = "front"
    cache_path: str | None = None
    brick_count_cap: int | None = None
    node_cap: int = DEFAULT_NODE_CAP
    _store: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}, expected one of {list(ENGINES)}")
        if self.cache_path == "":
            raise ValueError("the cache path is empty; pass None (--no-cache) for no cache")

    def report(self, shape: Shape, mode: str, cubic: bool = False) -> ExtremalReport:
        config = SearchConfig(mode=mode, cubic=cubic, brick_count_cap=self.brick_count_cap,
                              node_cap=self.node_cap)
        check_brick_cap(shape, cubic, config.brick_count_cap or ENGINES[self.engine])
        key = cache_key(shape, cubic, mode, self.engine)
        caching = self.cache_path is not None
        report = cache_lookup(self.cache_path, key, config.node_cap) if caching else None
        if report is None:
            if self.engine == "front":
                report = extremal_size(shape, config, self._store)
            else:
                report = flat_extremal_size(shape, config)
            if caching:
                cache_append(self.cache_path, key, report_to_dict(report))
        return report


def _row(shape: Shape, cubic: bool, mode: str, expected, actual, status: str) -> dict:
    values = (",".join(map(str, shape.dims)), cubic, mode, expected, actual, status)
    return dict(zip(COLUMNS, values))


def _search_rows(searcher: Searcher, cubic: bool, mode: str, cases, passes=None) -> list[dict]:
    """One row per ``(shape, expected)`` case: SKIPPED on a cap, else PASS iff
    ``passes(shape, expected, actual)``, by default ``actual == expected``."""
    rows = []
    for shape, expected in cases:
        try:
            actual = searcher.report(shape, mode, cubic).value
        except CapExceeded:
            rows.append(_row(shape, cubic, mode, expected, "", SKIPPED))
            continue
        ok = passes(shape, expected, actual) if passes else actual == expected
        rows.append(_row(shape, cubic, mode, expected, actual, PASS if ok else FAIL))
    return rows


def canonical_shapes(max_dim: int, max_side: int) -> list[Shape]:
    """All shapes with non-increasing sides, one per symmetry class."""
    return [Shape(dims) for d in range(1, max_dim + 1)
            for dims in itertools.combinations_with_replacement(range(max_side, 0, -1), d)]


def _cube_shapes(max_dim: int, max_side: int) -> list[Shape]:
    """The m-cubes with 1 <= d <= max_dim and 1 <= m <= max_side, by dimension."""
    return [Shape((m,) * d) for d in range(1, max_dim + 1) for m in range(1, max_side + 1)]


def theorem1_rows(searcher: Searcher, max_dim: int, max_side: int) -> list[dict]:
    """Minimum maximal-system size equals sum of sides minus (d - 1)."""
    shapes = canonical_shapes(max_dim, max_side)
    return _search_rows(searcher, False, "min", ((s, min_brick_system_size(s)) for s in shapes))


def theorem2_rows(searcher: Searcher, max_dim: int, max_side: int) -> list[dict]:
    """Minimum maximal cubic-system size in an m-cube equals m."""
    cases = ((s, s.dims[0]) for s in _cube_shapes(max_dim, max_side))
    return _search_rows(searcher, True, "min", cases)


def theorem3_rows(searcher: Searcher, max_dim: int, max_side: int) -> list[dict]:
    """Maximum cubic-system size stays under ((m+1)^d - 1)/(2^d - 1).

    The bound column holds the floor; for m one less than a power of two the
    bound must be attained exactly.
    """

    def passes(shape: Shape, bound: int, actual: int) -> bool:
        m = shape.dims[0]
        tight = (m + 1) & m == 0  # m + 1 is a power of two
        return actual <= bound and (not tight or actual == bound)

    cases = ((s, int(max_cube_system_bound(s.ndim, s.dims[0])))
             for s in _cube_shapes(max_dim, max_side))
    return _search_rows(searcher, True, "max", cases, passes)


def prior_work_rows(searcher: Searcher, max_side: int) -> list[dict]:
    """The exact two-dimensional maximum, plus the sandwich bounds around it."""

    def passes(shape: Shape, expected: int, actual: int) -> bool:
        bounds = max_brick_system_bounds(shape)
        return actual == expected and bounds.lower <= actual <= bounds.upper

    cases = ((Shape((m2, m1)), max_rect_system_size(m1, m2))
             for m1 in range(1, max_side + 1) for m2 in range(m1, max_side + 1))
    return _search_rows(searcher, False, "max", cases, passes)


def classification_rows(shapes: list[Shape], cap: int = ORACLE_BRICK_CAP) -> list[dict]:
    """The minimum-size generator emits exactly the oracle's minimum systems.

    Both sides are sets of masks over the shape's universe: literal brick sets,
    not up to symmetry.  A generated system is the OR of its corner pairs' bits;
    a pair outside the universe sets the bit just past it, which no oracle mask
    has.  The oracle is :func:`~islands.search._smallest_families` with ties
    kept, every smallest maximal family once, from the domination walk, whose
    order the set comparison does not read.  The brick cap is checked before
    either side starts.  The expected column holds the generator's count, the
    actual column the oracle's; the status reflects full set equality and no
    repeated system.
    """
    rows = []
    for shape in shapes:
        try:
            check_brick_cap(shape, False, cap)
            best, smallest = _smallest_families(shape, False, _Counter(DEFAULT_NODE_CAP),
                                                ties=True)
        except CapExceeded:
            rows.append(_row(shape, False, "classification", "", "", SKIPPED))
            continue
        bits = {corners: 1 << k for k, corners in enumerate(brick_corners(shape, False))}
        outside = 1 << len(bits)
        listed = [sum({bits.get(corners, outside) for corners in system})  # distinct bits: OR
                  for system in _minimal_family_corners(shape)]
        generated = set(listed)
        # hence all generated of size best, and each once
        ok = (best == min_brick_system_size(shape) and generated == set(smallest)
              and len(listed) == len(generated))
        rows.append(
            _row(shape, False, "classification", len(generated), len(smallest),
                 PASS if ok else FAIL)
        )
    return rows


def corollary_rows(shapes: list[Shape], cap: int = ORACLE_BRICK_CAP) -> list[dict]:
    """Structural facts about every maximal system on the given shapes.

    corners: with more than one maximal member, every corner cell of the box
    lies inside some maximal member.  gaps: edge gaps have length at most 2,
    and a length-2 gap never sits between two elementary cells.  restrict:
    restriction to any member is again maximal and the full brick is always
    a member.  onedim: every maximal system of a segment of length m has
    exactly m members (checked for m up to ``ONEDIM_MAX``).

    Each system is a mask straight from the flat domination walk, in its order,
    which the summed counts do not read; the tests hold the corner,
    gap and restriction counts (the universe table's ``violations``) to scalar
    corner counts, ``gap_profiles`` of ``max_elements``, ``restrict`` and ``is_maximal``.
    """
    cases = [(shape, ("corners", "gaps", "restrict"),
              lambda table, family: table.violations(family)) for shape in shapes]
    cases += [(Shape((m,)), ("onedim",),
               lambda table, family: (family.bit_count() != table.shape.dims[0],))
              for m in range(1, ONEDIM_MAX + 1)]
    rows = []
    for shape, props, violations in cases:
        counts = [0] * len(props)
        try:
            families = _maximal_family_masks(shape, False, cap)  # checks the cap first
            table = _universe_table(shape, False)
            for family in families:
                counts = [a + b for a, b in zip(counts, violations(table, family))]
        except CapExceeded:
            rows += [_row(shape, False, prop, 0, "", SKIPPED) for prop in props]
            continue
        rows += [_row(shape, False, prop, 0, bad, PASS if bad == 0 else FAIL)
                 for prop, bad in zip(props, counts)]
    return rows

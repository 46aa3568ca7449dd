"""Verification sweeps: recompute closed-form claims by exhaustive search.

Each suite produces one row per checked instance with the columns of
:data:`COLUMNS`.  A row whose search hits a resource cap is marked SKIPPED
rather than failing the sweep; everything else is PASS or FAIL by exact
integer comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .constructors import minimal_maximal_systems
from .errors import CapExceeded
from .formulas import (
    max_brick_system_bounds,
    max_cube_system_bound,
    max_rect_system_size,
    min_brick_system_size,
)
from .geometry import Brick, Shape
from .search import (
    DEFAULT_NODE_CAP,
    ENGINES,
    ExtremalReport,
    SearchConfig,
    check_brick_cap,
    enumerate_maximal_systems,
    extremal_size,
    flat_extremal_size,
)
from .serialize import cache_append, cache_key, cache_lookup, report_to_dict
from .system import IslandSystem, gap_profiles, max_elements, non_maximal_restrictions

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

    ``engine`` must name an entry of ``search.ENGINES``.  Caps decide the same
    with or without a cache: the brick cap is checked before the lookup, and
    a cached report that took more than ``node_cap`` nodes is a miss, so the
    fresh run stops where it would without a cache, with the same message and
    counts, and appends nothing.  ``serialize.cache_lookup`` decides which
    rows are hits; a miss is computed and appended.  ``cache_path=None``
    disables caching.

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

    def report(self, shape: Shape, mode: str, cubic: bool = False) -> ExtremalReport:
        config = SearchConfig(mode=mode, cubic=cubic, brick_count_cap=self.brick_count_cap,
                              node_cap=self.node_cap)
        check_brick_cap(shape, cubic, config.brick_count_cap or ENGINES[self.engine])
        key = cache_key(shape, cubic, mode, self.engine)
        report = cache_lookup(self.cache_path, key) if self.cache_path else None
        # a row past the node cap is a miss, so the run stops where a cold run stops
        if report is None or report.nodes_explored > config.node_cap:
            if self.engine == "front":
                report = extremal_size(shape, config, self._store)
            else:
                report = flat_extremal_size(shape, config)
            if self.cache_path:
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

    Comparison is by literal sorted brick lists, not up to symmetry.  The
    expected column holds the generator's count, the actual column the
    oracle's; the status reflects full set equality and no repeated system.
    """
    rows = []
    for shape in shapes:
        expected_size = min_brick_system_size(shape)
        try:
            oracle = enumerate_maximal_systems(shape, cap=cap)  # checks the cap first
            listed = [system.bricks for system in minimal_maximal_systems(shape)]
            generated = set(listed)
            smallest: set[tuple[Brick, ...]] = set()
            best = None
            for system in oracle:
                if best is None or len(system) < best:
                    best = len(system)
                    smallest = {system.bricks}
                elif len(system) == best:
                    smallest.add(system.bricks)
        except CapExceeded:
            rows.append(_row(shape, False, "classification", "", "", SKIPPED))
            continue
        # hence all generated of size best, and each once
        ok = best == expected_size and generated == smallest and len(listed) == len(generated)
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

    The corner and gap facts come from one set of edge profiles
    (:func:`_structure_violations`), the restriction check from the universe's
    masks (:func:`~islands.system.non_maximal_restrictions`); the tests hold
    them to scalar corner counts, ``restrict`` and ``is_maximal``.
    """
    cases = [(shape, ("corners", "gaps", "restrict"), _structure_violations) for shape in shapes]
    cases += [(Shape((m,)), ("onedim",), lambda system: (len(system) != system.shape.dims[0],))
              for m in range(1, ONEDIM_MAX + 1)]
    rows = []
    for shape, props, violations in cases:
        counts = [0] * len(props)
        try:
            for system in enumerate_maximal_systems(shape, cap=cap):
                counts = [a + b for a, b in zip(counts, violations(system))]
        except CapExceeded:
            rows += [_row(shape, False, prop, 0, "", SKIPPED) for prop in props]
            continue
        rows += [_row(shape, False, prop, 0, bad, PASS if bad == 0 else FAIL)
                 for prop, bad in zip(props, counts)]
    return rows


def _structure_violations(system: IslandSystem) -> tuple[int, int, int]:
    """The system's corner, gap and restriction violations.  One set of edge
    profiles of the maximal members feeds the corner and the gap count: a
    member holds a corner cell iff it touches that corner's face on every axis,
    so the cell is empty iff the axis-0 edge gap at its end has a ``None``
    flank.  The count is per corner vector: a side of length 1 counts twice."""
    members = max_elements(system)
    corners = gaps = 0
    if len(members) > 1:
        for profile in gap_profiles(system.shape, members):
            for gap in profile.gaps:
                flanks = (gap.left_elementary, gap.right_elementary)
                if profile.free_dim == 0:
                    corners += flanks.count(None)
                gaps += gap.length > 2 or None in flanks or gap.length == 2 and all(flanks)
    restricts = len(non_maximal_restrictions(system))
    restricts += system.shape.full_brick() not in system.bricks
    return corners, gaps, restricts

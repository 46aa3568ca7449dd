import dataclasses
import functools
import hashlib
import itertools
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islands import (
    Brick,
    CapExceeded,
    Front,
    SearchConfig,
    Shape,
    brick_count,
    canonical_form,
    compatible,
    contains,
    disjoint,
    enumerate_bricks,
    enumerate_maximal_systems,
    enumerate_saturated_fronts,
    extremal_size,
    flat_extremal_size,
    front_is_saturated,
    is_laminar,
    is_maximal,
    max_cube_system_bound,
    max_elements,
    max_rect_system_size,
    min_brick_system_size,
)
from islands import search
from islands.geometry import IntervalMasks, brick_corners, mask_members
from islands.errors import EngineFault
from islands.search import DEFAULT_NODE_CAP, ENGINES
from islands.serialize import dumps_canonical, system_to_dict
from islands.system import _universe_table
from islands.verify import Searcher, prior_work_rows

from conftest import B


def front_sets(dims, cubic=False):
    return {
        frozenset(f.members) for f in enumerate_saturated_fronts(Shape(dims), cubic=cubic)
    }


BRUTE_FORCE_SHAPES = [((3,), False), ((2, 2), False), ((3, 3), True), ((2, 2, 1), False),
                      ((4, 4), True), ((3, 3, 3), True), ((3, 2, 2), False)]

# (nodes of reference_front_masks, nodes of the front walk) on a region table
LOOK_AHEAD_NODES = {((5, 4), False): (21967, 1272), ((3, 3, 3), True): (2097, 973)}


def decoded_candidates(region):
    """The region table's candidates as Bricks, in index order."""
    return [Brick(lo, tuple(a + s for a, s in zip(lo, region.subs[k])))
            for lo, k in zip(region.lo, region.sub)]


def reference_front_masks(region):
    """The front walk with no look-ahead, recursive: every disjoint family of
    the region's candidates, grown in index order, and kept at a leaf iff no
    candidate is left in the AND of its members' ``keep`` rows.  Disjointness
    comes from the scalar ``disjoint`` on the decoded candidates, not from the
    table.  Returns the saturated fronts as masks, in walk order, and the
    nodes visited."""
    bricks = decoded_candidates(region)
    disj = [sum(1 << i for i, b in enumerate(bricks) if disjoint(a, b)) for a in bricks]
    cells = sum(1 << i for i, b in enumerate(bricks) if b.is_cell)
    nodes = 0

    def walk(members, breakers, allowed):
        nonlocal nodes
        nodes += 1
        # the min bound reads breakers & cells in place of allowed & cells
        assert allowed & cells == breakers & cells
        if allowed == 0:
            if breakers == 0:
                yield members
            return
        for v in range(members.bit_length(), len(bricks)):
            if allowed >> v & 1:
                yield from walk(members | 1 << v, breakers & region.keep[v], allowed & disj[v])

    return list(walk(0, region.all_mask, region.all_mask)), nodes


def popped_front_masks(region, counter, gain, prune):
    """``search._saturated_front_masks`` with the look-ahead run on each node
    when it is popped: every child is pushed, then counted, checked and pruned
    one at a time.  The reference for the walk's node counts and cap stops."""
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
            counter.nodes = nodes
            yield members, partial
            continue
        stuck = breakers & ~ext
        while stuck:
            low = stuck & -stuck
            if hit[low.bit_length() - 1] & ext == 0:
                break
            stuck ^= low
        if stuck or prune(partial, breakers, free, ext):
            continue
        todo = ext
        while todo:
            v = todo.bit_length() - 1
            high = 1 << v
            stack.append((members | high, breakers & keep[v], ext & later[v],
                          partial + gain[v], free ^ points[v]))
            todo ^= high
    counter.nodes = nodes


class TestSaturatedFronts:
    def test_single_cell_has_only_the_empty_front(self):
        fronts = list(enumerate_saturated_fronts(Shape((1,))))
        assert len(fronts) == 1
        assert fronts[0].members == ()

    def test_segment_two(self):
        assert front_sets((2,)) == {
            frozenset({B((0,), (1,))}),
            frozenset({B((1,), (2,))}),
        }

    def test_segment_three(self):
        assert front_sets((3,)) == {
            frozenset({B((0,), (2,))}),
            frozenset({B((1,), (3,))}),
            frozenset({B((0,), (1,)), B((2,), (3,))}),
        }

    def test_3x3_brick_fronts(self):
        full_height_split = frozenset({B((0, 0), (1, 3)), B((2, 0), (3, 3))})
        full_width_split = frozenset({B((0, 0), (3, 1)), B((0, 2), (3, 3))})
        slabs = {
            frozenset({B((0, 0), (3, 2))}),
            frozenset({B((0, 1), (3, 3))}),
            frozenset({B((0, 0), (2, 3))}),
            frozenset({B((1, 0), (3, 3))}),
        }
        assert front_sets((3, 3)) == slabs | {full_height_split, full_width_split}

    def test_empty_front_only_for_elementary_region(self):
        for dims in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)]:
            fronts = front_sets(dims)
            if all(m == 1 for m in dims):
                assert fronts == {frozenset()}
            else:
                assert frozenset() not in fronts

    def test_members_are_proper_pairwise_disjoint_and_in_order(self):
        from islands import disjoint

        for front in enumerate_saturated_fronts(Shape((3, 2))):
            members = front.members
            assert list(members) == sorted(members)
            for i, a in enumerate(members):
                assert a != Shape((3, 2)).full_brick()
                for b in members[i + 1 :]:
                    assert disjoint(a, b)

    @pytest.mark.parametrize("dims,cubic", [((3, 3), False), ((3, 2, 2), False), ((4, 4), True)],
                             ids=["3,3", "3,2,2", "4,4-cubic"])
    def test_generated_in_lexicographic_order(self, dims, cubic):
        fronts = [f.members for f in enumerate_saturated_fronts(Shape(dims), cubic)]
        assert fronts == sorted(fronts)

    def test_front_type_rejects_bad_members(self):
        shape = Shape((2, 2))
        with pytest.raises(ValueError):
            Front(shape, (shape.full_brick(),))
        with pytest.raises(ValueError):
            Front(shape, (B((0, 0), (1, 1)), B((1, 1), (2, 2))))

    @pytest.mark.parametrize("dims,cubic", BRUTE_FORCE_SHAPES)
    def test_generator_matches_brute_force_over_all_disjoint_families(self, dims, cubic):
        from islands import disjoint, enumerate_bricks, front_is_saturated

        shape = Shape(dims)
        full = shape.full_brick()
        candidates = [b for b in enumerate_bricks(shape, cubic) if b != full]

        def disjoint_families(start, chosen):
            yield chosen
            for i in range(start, len(candidates)):
                if all(disjoint(candidates[i], member) for member in chosen):
                    yield from disjoint_families(i + 1, chosen + (candidates[i],))

        brute = {
            frozenset(family)
            for family in disjoint_families(0, ())
            if front_is_saturated(Front(shape, family), cubic)
        }
        generated = {
            frozenset(f.members)
            for f in enumerate_saturated_fronts(shape, cubic=cubic)
        }
        assert generated == brute

    def test_region_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_saturated_fronts(Shape((9, 9))))

    @pytest.mark.parametrize("dims,cubic", BRUTE_FORCE_SHAPES + [
        ((4, 3), False), ((3, 3, 2), False), ((5, 4), False)])
    def test_look_ahead_drops_no_saturated_front(self, dims, cubic):
        region = search._region(dims, cubic)
        counter = search._Counter(DEFAULT_NODE_CAP)
        walked = [members for members, _ in search._saturated_front_masks(
            region, counter, [0] * len(region.keep), lambda *node: False)]
        reference, nodes = reference_front_masks(region)
        assert walked == reference
        assert counter.nodes <= nodes
        if (dims, cubic) in LOOK_AHEAD_NODES:
            assert (nodes, counter.nodes) == LOOK_AHEAD_NODES[dims, cubic]

    @pytest.mark.parametrize("dims,cubic", BRUTE_FORCE_SHAPES + [
        ((4, 3), False), ((3, 3, 2), False), ((5, 4), False), ((6, 6), True)])
    def test_push_time_look_ahead_walks_as_the_pop_time_one(self, dims, cubic):
        region = search._region(dims, cubic)
        gain = [p.bit_count() for p in region.points]  # any gains will do; these vary
        counter, popped = search._Counter(DEFAULT_NODE_CAP), search._Counter(DEFAULT_NODE_CAP)
        walked = list(search._saturated_front_masks(region, counter, gain, lambda *node: False))
        reference = list(popped_front_masks(region, popped, gain, lambda *node: False))
        assert walked == reference
        assert counter.nodes == popped.nodes

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_push_time_look_ahead_stops_as_the_pop_time_one_on_any_table(self, data):
        # The walk's counting needs only ``later[v]`` above v and ``hit`` the
        # transpose of ``keep``.  A table drawn with nothing else behind it
        # ends some walks in dead children, which no walk of a region table in
        # this suite does, so the cap check after the last child runs too.
        n = data.draw(st.integers(1, 6))
        rows = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
        keep = [row & ~(1 << j) for j, row in enumerate(data.draw(rows))]
        table = types.SimpleNamespace(
            later=[row >> j + 1 << j + 1 for j, row in enumerate(data.draw(rows))], keep=keep,
            hit=[sum(1 << j for j in range(n) if j != i and not keep[j] >> i & 1)
                 for i in range(n)],
            points=[0] * n, all_mask=(1 << n) - 1, reach=[0] * (n + 1))
        gain = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))

        def run(walk, cap):
            counter = search._Counter(cap)
            try:
                return list(walk(table, counter, gain, lambda *node: False)), counter.nodes
            except CapExceeded as exc:
                return str(exc), exc.nodes_explored

        total = run(popped_front_masks, DEFAULT_NODE_CAP)[1]
        for cap in range(1, total + 1):
            assert run(search._saturated_front_masks, cap) == run(popped_front_masks, cap)


class TestSearchConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            SearchConfig(mode="best")

    def test_rejects_bad_caps(self):
        with pytest.raises(ValueError):
            SearchConfig(node_cap=0)
        with pytest.raises(ValueError):
            SearchConfig(brick_count_cap=0)


class TestExtremalSize:
    @pytest.mark.parametrize(
        "dims,mode,cubic,expected",
        [
            ((3,), "min", False, 3),
            ((2, 2), "min", False, 3),
            ((2, 2), "max", False, 3),
            ((3, 3), "min", False, 5),
            ((3, 3), "max", False, 7),
            ((3, 3), "max", True, 5),
            ((3, 3), "min", True, 3),
            ((2, 2, 2), "min", False, 4),
        ],
    )
    def test_known_values(self, dims, mode, cubic, expected):
        report = extremal_size(Shape(dims), SearchConfig(mode=mode, cubic=cubic))
        assert report.value == expected

    def test_witness_is_a_maximal_system_of_the_right_size(self):
        # (2,3) and (3,4) route the replay through permuted memo entries
        for dims, mode, cubic in [
            ((3, 3), "min", False),
            ((3, 3), "max", False),
            ((3, 3), "max", True),
            ((2, 2, 2), "max", False),
            ((4, 2), "min", False),
            ((2, 3), "max", False),
            ((3, 4), "min", False),
        ]:
            report = extremal_size(Shape(dims), SearchConfig(mode=mode, cubic=cubic))
            assert len(report.witness) == report.value
            assert report.witness.shape == Shape(dims)
            assert report.witness.cubic == cubic
            assert is_laminar(report.witness.bricks)
            assert is_maximal(report.witness)

    def test_memoization_reports_hits(self):
        report = extremal_size(Shape((3, 3)), SearchConfig(mode="min"))
        assert report.memo_hits > 0

    def test_deterministic_reports(self):
        config = SearchConfig(mode="max")
        first = extremal_size(Shape((3, 3)), config)
        second = extremal_size(Shape((3, 3)), config)
        assert first.value == second.value
        assert first.witness == second.witness
        assert first.nodes_explored == second.nodes_explored

    def test_brick_cap(self):
        with pytest.raises(CapExceeded):
            extremal_size(Shape((9, 9)), SearchConfig(mode="min", brick_count_cap=50))

    @pytest.mark.parametrize("mode", ["min", "max"])
    @pytest.mark.parametrize("node_cap", [5, 50, 300])
    def test_node_cap_carries_partial_statistics(self, mode, node_cap):
        # 5x4 walks 2,475 nodes in min and 755 in max, past every cap here
        with pytest.raises(CapExceeded) as err:
            extremal_size(Shape((5, 4)), SearchConfig(mode=mode, node_cap=node_cap))
        assert err.value.nodes_explored == node_cap + 1
        assert str(err.value) == f"node cap {node_cap} exceeded"

    def test_cubic_mode_in_a_non_cube_box(self):
        # cubes in a 2x1 box: a single cell blocks everything else
        report = extremal_size(Shape((2, 1)), SearchConfig(mode="max", cubic=True))
        assert report.value == 1
        assert is_maximal(report.witness)


# Every shape with d <= 4, sides <= 6 and at most the front cap of bricks, with
# its sides in falling and in rising order (the store keys a shape by its
# ordered dims), plus the cubic ladder of the front-ladder benchmark; both
# modes each.
STORE_JOBS = [
    (dims, mode, False)
    for d in range(1, 5)
    for falling in itertools.combinations_with_replacement(range(6, 0, -1), d)
    if brick_count(Shape(falling)) <= ENGINES["front"]
    for dims in dict.fromkeys((falling, falling[::-1]))
    for mode in ("min", "max")
] + [
    ((m,) * d, mode, True)
    for d, top in ((1, 8), (2, 6), (3, 3), (4, 2))
    for m in range(1, top + 1)
    for mode in ("min", "max")
]


def outcome(run):
    """A report's value, witness and counts, or a cap's message and counts."""
    try:
        report = run()
    except CapExceeded as exc:
        return str(exc), exc.nodes_explored, exc.memo_hits
    return report.value, report.witness.bricks, report.nodes_explored, report.memo_hits


@functools.lru_cache(maxsize=None)
def fresh_outcomes(node_cap):
    return {(dims, mode, cubic): outcome(lambda: extremal_size(
                Shape(dims), SearchConfig(mode=mode, cubic=cubic, node_cap=node_cap)))
            for dims, mode, cubic in STORE_JOBS}


@pytest.fixture
def walks(monkeypatch):
    """The regions the front engine walks, one entry each; replays add none."""
    walked = []
    real = search._FrontEngine._walk

    def counted(self, dims):
        walked.append(dims)
        return real(self, dims)

    monkeypatch.setattr(search._FrontEngine, "_walk", counted)
    return walked


class TestSharedStore:
    """One ``Searcher`` shares a front-engine store across its reports; each
    report, and each cap it hits, must still be a fresh run's."""

    @pytest.mark.parametrize("node_cap", [DEFAULT_NODE_CAP, 50, 300, 2000])
    def test_every_report_equals_a_fresh_run(self, node_cap):
        fresh = fresh_outcomes(node_cap)
        capped = sum(isinstance(out[0], str) for out in fresh.values())
        assert (capped == 0) == (node_cap == DEFAULT_NODE_CAP)
        assert capped < len(fresh)  # some runs finish under every cap
        for seed in range(3):
            jobs = list(STORE_JOBS)
            random.Random(seed).shuffle(jobs)
            searcher = Searcher(engine="front", node_cap=node_cap)
            for dims, mode, cubic in jobs:
                shared = outcome(lambda: searcher.report(Shape(dims), mode, cubic))
                assert shared == fresh[dims, mode, cubic], (seed, dims, mode, cubic)

    def test_a_repeated_report_is_replayed_without_a_walk(self, walks):
        searcher = Searcher(engine="front")
        first = outcome(lambda: searcher.report(Shape((4, 3)), "max"))
        walked = len(walks)
        assert walked > 0
        assert outcome(lambda: searcher.report(Shape((4, 3)), "max")) == first
        assert len(walks) == walked

    @pytest.mark.parametrize("before,after", [
        (("max", False), ("min", False)),
        (("max", True), ("min", True)),
        (("min", True), ("min", False)),
        (("max", True), ("max", False)),
    ])
    def test_a_run_feeds_only_its_own_mode_and_cubic_flag(self, walks, before, after):
        shape = Shape((3, 3, 2))
        searcher = Searcher(engine="front")
        searcher.report(shape, *before)
        del walks[:]
        shared = outcome(lambda: searcher.report(shape, *after))
        fed = len(walks)
        del walks[:]
        config = SearchConfig(mode=after[0], cubic=after[1])
        assert shared == outcome(lambda: extremal_size(shape, config))
        assert fed == len(walks) > 0  # every region walked again

    @pytest.mark.parametrize("dims", [(5, 4, 1), (1, 5, 4), (5, 1, 4, 1)])
    def test_a_unit_side_twin_is_replayed_without_a_walk(self, walks, dims):
        searcher = Searcher(engine="front")
        searcher.report(Shape((5, 4)), "min")
        del walks[:]
        shared = outcome(lambda: searcher.report(Shape(dims), "min"))
        assert walks == []
        config = SearchConfig(mode="min")
        assert shared == outcome(lambda: extremal_size(Shape(dims), config))
        assert shared == outcome(lambda: unfolded_report(Shape(dims), config))

    def test_a_cubic_unit_side_twin_is_walked(self, walks):
        searcher = Searcher(engine="front")
        searcher.report(Shape((3, 3)), "min", cubic=True)
        del walks[:]
        shared = outcome(lambda: searcher.report(Shape((3, 3, 1)), "min", cubic=True))
        assert len(walks) > 0
        config = SearchConfig(mode="min", cubic=True)
        assert shared == outcome(lambda: unfolded_report(Shape((3, 3, 1)), config))

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_a_box_replays_its_faces(self, walks, mode):
        shape = Shape((4, 3, 2))
        fresh = outcome(lambda: extremal_size(shape, SearchConfig(mode=mode)))
        walked_fresh = len(walks)
        searcher = Searcher(engine="front")
        for face in [(4, 3), (3, 4), (4, 2), (3, 2)]:
            searcher.report(Shape(face), mode)
        walked_faces = len(walks)
        assert outcome(lambda: searcher.report(shape, mode)) == fresh
        assert len(walks) - walked_faces < walked_fresh
        assert all(dims == (1,) or 1 not in dims for dims in walks)

    def test_fourteen_unit_sides_walk_only_the_core(self, walks):
        shape = Shape((5, 4) + (1,) * 14)
        report = Searcher(engine="front").report(shape, "max")
        assert walks and all(dims == (1,) or 1 not in dims for dims in walks)
        assert (report.value, report.nodes_explored, report.memo_hits) == (14, 755, 88)
        assert report.witness.shape == shape and is_maximal(report.witness)


class TestRegionTables:
    def test_each_region_table_is_built_once_and_shared_by_both_modes(self, walks, monkeypatch):
        built = []

        class Counted(search._Region):
            __slots__ = ()

            def __init__(self, dims, cubic):
                built.append((dims, cubic))
                super().__init__(dims, cubic)

        search._region.cache_clear()
        monkeypatch.setattr(search, "_Region", Counted)
        walked = {}  # every (region, cubic) walked so far, in first-walk order
        try:
            # each run walks every region afresh, but builds only the tables
            # no earlier run of either mode built
            for mode in ("min", "max", "min", "max"):
                for dims, cubic in [((4, 3), False), ((3, 2, 2), False), ((4, 4), True), ((3, 3, 3), True)]:
                    del walks[:]
                    extremal_size(Shape(dims), SearchConfig(mode=mode, cubic=cubic))
                    walked.update(dict.fromkeys((region, cubic) for region in walks))
                    assert built == list(walked), (mode, dims, cubic)
        finally:
            search._region.cache_clear()

    def test_a_region_table_decodes_to_its_candidates(self):
        for dims, cubic in dict.fromkeys((dims, cubic) for dims, _, cubic in STORE_JOBS):
            table = search._region(dims, cubic)
            full = ((0,) * len(dims), dims)
            assert [(lo, tuple(a + s for a, s in zip(lo, table.subs[k])))
                    for lo, k in zip(table.lo, table.sub)] == [
                c for c in brick_corners(Shape(dims), cubic) if c != full], (dims, cubic)
            # distinct shapes in first-seen order, each indexed by some candidate
            assert all(0 <= k < len(table.subs) for k in table.sub), (dims, cubic)
            assert list(dict.fromkeys(table.subs[k] for k in table.sub)) == table.subs, (dims, cubic)
            # every row against the scalar predicates on the decoded candidates
            bricks = decoded_candidates(table)
            cells = sum(1 << i for i, b in enumerate(bricks) if b.is_cell)
            assert table.cells == cells, (dims, cubic)
            for j, c in enumerate(bricks):
                later = keep = hit = met = 0
                for i, b in enumerate(bricks):
                    apart = disjoint(c, b)
                    later |= (apart and i > j) << i
                    keep |= (i != j and (apart or contains(b, c))) << i
                    hit |= (not (apart or contains(c, b))) << i
                    met += b.is_cell and not apart
                assert (table.later[j], table.keep[j], table.hit[j], table.met[j]) == (
                    later, keep, hit, met), (dims, cubic, j)


# sha256 of repr(sorted(fresh_outcomes(cap).items())): every value, witness,
# node count, memo hit count and cap message of STORE_JOBS under each cap.
OUTCOME_DIGESTS = {
    DEFAULT_NODE_CAP: "851e4cd0fbb54f32f68306f83844596f7be2708111a7d652950bf28ae619e8b4",
    300: "ade9dac4a4551c643fbd89268ec642d34e167bc4ae9ee6dcbb840e92c5f6ffe6",
    50: "c85523c6c5ff1d197ba679ee228f97bdbc48c2af9da1d24dcf881332c943f043",
    2000: "e0116eac7370abf3fa49da69559007c3a70fb36c6fab570856ff299e292b63be",
}


def test_outcome_corpus_is_pinned():
    # A digest that moves is a changed report: re-pin it; cached reports carry
    # these, and ENGINE_VERSION follows the source, so old rows are recomputed.
    digests = {cap: hashlib.sha256(repr(sorted(fresh_outcomes(cap).items())).encode()).hexdigest()
               for cap in OUTCOME_DIGESTS}
    assert digests == OUTCOME_DIGESTS


class UnfoldedEngine(search._FrontEngine):
    """The front engine with every region walked as given, sides of length 1 and all."""

    def core(self, dims):
        return dims


def unfolded_report(shape, config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_FrontEngine", UnfoldedEngine)
        return extremal_size(shape, config)


# Every axis order with d <= 4, sides <= 6 and at most the front cap of
# bricks, both modes; cubic only where a side is 1.
UNIT_SIDE_JOBS = [
    (dims, mode, cubic)
    for d in range(1, 5)
    for dims in itertools.product(range(1, 7), repeat=d)
    if brick_count(Shape(dims)) <= ENGINES["front"]
    for mode in ("min", "max")
    for cubic in (False, True)
    if not cubic or 1 in dims
]


def test_axis_assignment_leaves_extra_unit_sides_unpaired():
    assert search._axis_assignment((3, 2, 3), (3, 3, 2)) == (0, 2, 1)
    assert search._axis_assignment((5, 4), (4, 1, 5, 1)) == (1, None, 0, None)
    assert search._axis_assignment((1,), (1, 1, 1)) == (0, None, None)


@pytest.mark.parametrize("node_cap", [DEFAULT_NODE_CAP, 50, 300, 2000])
def test_a_unit_side_run_equals_the_unfolded_walk(node_cap):
    """Dropping the sides of length 1 in every region keeps the value, the
    witness, the counts and where a node cap stops the run."""
    for dims, mode, cubic in UNIT_SIDE_JOBS:
        config = SearchConfig(mode=mode, cubic=cubic, node_cap=node_cap)
        folded = outcome(lambda: extremal_size(Shape(dims), config))
        assert folded == outcome(lambda: unfolded_report(Shape(dims), config)), (dims, mode, cubic)


@pytest.mark.parametrize("dims,cubic", [((4, 3), False), ((3, 3, 2), False), ((4, 4), True)],
                         ids=["4,3", "3,3,2", "4,4-cubic"])
@pytest.mark.parametrize("mode", ["min", "max"])
def test_every_node_cap_stops_where_the_pop_time_walk_does(monkeypatch, dims, cubic, mode):
    """Counting a run of dead children in one step keeps each cap's message,
    ``cap + 1`` nodes and memo hits, on every cap up to the run's total."""
    def run(node_cap):
        config = SearchConfig(mode=mode, cubic=cubic, node_cap=node_cap)
        return outcome(lambda: extremal_size(Shape(dims), config))

    total = run(DEFAULT_NODE_CAP)[2]
    walked = [run(cap) for cap in range(1, total + 1)]
    monkeypatch.setattr(search, "_saturated_front_masks", popped_front_masks)
    assert walked == [run(cap) for cap in range(1, total + 1)]


@functools.lru_cache(maxsize=None)
def unpruned_value(key, mode, cubic):
    """The front recursion with no bound: the best over every saturated front."""
    base = 1 if not cubic or len(set(key)) == 1 else 0
    pick = min if mode == "min" else max
    return pick(
        base + sum(unpruned_value(tuple(sorted(m.sides())), mode, cubic) for m in front.members)
        for front in enumerate_saturated_fronts(Shape(key), cubic=cubic)
    )


# Every axis order with d <= 3 and sides <= 3, and with d = 4 and sides <= 2;
# plus 2-D boxes up to 6 with a side of at most 3, where a min bound that
# prunes too much shows (cubic 1x6 and 3x6 min).
PRUNING_SHAPES = [
    dims
    for d, top in [(1, 3), (2, 6), (3, 3), (4, 2)]
    for dims in itertools.product(range(1, top + 1), repeat=d)
    if min(dims) <= 3
]


# Brick max regions with slab pairs up to the front cap, past PRUNING_SHAPES.
SEEDED_SHAPES = [(4, 4), (5, 3), (5, 4), (6, 3), (4, 3, 2), (3, 1, 5)]


def assert_witness_top_layer_is_the_first_optimal_front(dims, mode, cubic):
    shape = Shape(dims)
    pick = min if mode == "min" else max
    fronts = [front.members for front in enumerate_saturated_fronts(shape, cubic)]
    totals = [sum(unpruned_value(tuple(sorted(m.sides())), mode, cubic) for m in members)
              for members in fronts]
    first = fronts[totals.index(pick(totals))]
    report = extremal_size(shape, SearchConfig(mode=mode, cubic=cubic))
    assert tuple(max_elements(report.witness)) == first, dims


class TestBranchAndBound:
    @pytest.mark.parametrize("mode", ["min", "max"])
    @pytest.mark.parametrize("cubic", [False, True])
    def test_pruned_search_matches_the_unpruned_recursion(self, mode, cubic):
        config = SearchConfig(mode=mode, cubic=cubic)
        for dims in PRUNING_SHAPES:
            if brick_count(Shape(dims), cubic) > ENGINES["front"]:
                continue
            report = extremal_size(Shape(dims), config)
            assert report.value == unpruned_value(tuple(sorted(dims)), mode, cubic), dims
            assert is_laminar(report.witness.bricks), dims
            assert is_maximal(report.witness), dims
            assert len(report.witness) == report.value, dims

    @pytest.mark.parametrize("mode", ["min", "max"])
    @pytest.mark.parametrize("cubic", [False, True])
    def test_witness_top_layer_is_the_first_optimal_front(self, mode, cubic):
        for dims in PRUNING_SHAPES:
            if brick_count(Shape(dims), cubic) <= ENGINES["front"]:
                assert_witness_top_layer_is_the_first_optimal_front(dims, mode, cubic)

    @pytest.mark.parametrize("dims", SEEDED_SHAPES, ids=lambda dims: ",".join(map(str, dims)))
    def test_a_seeded_witness_top_layer_is_the_first_optimal_front(self, dims):
        # a slab pair seeds the max incumbent of these regions and of most of their sub-regions
        assert search._region(dims, False).pairs
        assert_witness_top_layer_is_the_first_optimal_front(dims, "max", False)

    def test_cubic_7x7_max_reaches_the_theorem_3_bound(self):
        # 7 + 1 is a power of two, so the bound 21 is attained.
        report = extremal_size(Shape((7, 7)), SearchConfig(mode="max", cubic=True))
        assert report.value == max_cube_system_bound(2, 7) == 21
        assert report.witness.cubic
        assert is_laminar(report.witness.bricks)
        assert is_maximal(report.witness)
        assert len(report.witness) == 21


def slab(dims, axis, lo, hi):
    """The brick ``[lo, hi]`` on ``axis``, every other side in full."""
    return Brick(tuple(lo if i == axis else 0 for i in range(len(dims))),
                 tuple(hi if i == axis else m for i, m in enumerate(dims)))


class TestSlabPairSeed:
    @pytest.mark.parametrize("dims", [(5, 4), (6, 3), (4, 3, 2), (5, 1, 3), (3, 3, 2, 2)],
                             ids=lambda dims: ",".join(map(str, dims)))
    def test_every_slab_pair_is_a_saturated_front(self, dims):
        table = search._region(dims, False)
        bricks = decoded_candidates(table)
        expected = [(slab(dims, i, 0, b), slab(dims, i, b + 1, m))
                    for i, m in enumerate(dims) for b in range(1, m - 1)]
        assert [(bricks[a], bricks[b]) for a, b in table.pairs] == expected
        for pair in expected:
            assert front_is_saturated(Front(Shape(dims), pair)), pair

    def test_cubic_tables_have_no_pairs(self):
        assert search._region((5, 2), True).pairs == search._region((4, 4), True).pairs == []

    def test_an_unsaturated_pair_raises_instead_of_seeding(self, monkeypatch):
        dims = (5, 4)
        first = slab(dims, 0, 0, 1)

        class Tampered(IntervalMasks):
            def relations(self, lo, hi):  # every candidate contains [0, 1] x [0, 4]
                inside, around, apart = super().relations(lo, hi)
                return inside, around | (self.all if (lo, hi) == (first.lo, first.hi) else 0), apart

        search._region.cache_clear()
        monkeypatch.setattr(search, "IntervalMasks", Tampered)
        try:
            with pytest.raises(EngineFault, match="are not a saturated front"):
                extremal_size(Shape(dims), SearchConfig(mode="max"))
        finally:
            search._region.cache_clear()


class TestReach:
    # Node caps far below what the engine version "3" bounds needed: 7.52 M
    # nodes for brick 6x6 max, 2.79 M for cubic 7x7 min.
    def test_brick_6x6_max(self):
        config = SearchConfig(mode="max", brick_count_cap=441, node_cap=10 ** 6)
        report = extremal_size(Shape((6, 6)), config)
        assert report.value == max_rect_system_size(6, 6) == 23
        assert is_maximal(report.witness)
        assert len(report.witness) == 23

    def test_cubic_7x7_min(self):
        report = extremal_size(Shape((7, 7)), SearchConfig(mode="min", cubic=True, node_cap=10 ** 5))
        assert report.value == 7
        assert is_maximal(report.witness)
        assert len(report.witness) == 7

    def test_prior_work_up_to_side_10(self):
        # 10x10 max (3,025 bricks, value 59) took 25.8 M nodes before the slab
        # pair seed of engine version "10", and 89,704 with it.
        rows = prior_work_rows(Searcher(brick_count_cap=3025), 10)
        assert len(rows) == 55 and all(row["status"] == "PASS" for row in rows), rows

    def test_brick_6x6_min(self):
        # 18,509,241 nodes without the saturation look-ahead of engine version "7"
        config = SearchConfig(mode="min", brick_count_cap=441, node_cap=10 ** 5)
        report = extremal_size(Shape((6, 6)), config)
        assert report.value == min_brick_system_size(Shape((6, 6))) == 11
        assert is_laminar(report.witness.bricks)
        assert is_maximal(report.witness)
        assert len(report.witness) == 11


class TestFlatSearch:
    @pytest.mark.parametrize(
        "dims,mode,cubic,expected",
        [
            ((2, 2), "min", False, 3),
            ((2, 1), "min", False, 2),
            ((2, 1), "max", False, 2),
            ((3, 3), "max", True, 5),
        ],
    )
    def test_known_values(self, dims, mode, cubic, expected):
        report = flat_extremal_size(Shape(dims), SearchConfig(mode=mode, cubic=cubic))
        assert report.value == expected

    def test_default_cap_is_strict(self):
        assert brick_count(Shape((3, 4))) == 60
        with pytest.raises(CapExceeded):
            flat_extremal_size(Shape((3, 4)), SearchConfig(mode="min"))

    def test_witness_is_maximal(self):
        report = flat_extremal_size(Shape((3, 2)), SearchConfig(mode="max"))
        assert is_maximal(report.witness)
        assert len(report.witness) == report.value


@functools.lru_cache(maxsize=None)
def first_extreme_families(dims, cubic, cap):
    """The first smallest and first largest system that the unpruned
    enumeration yields, as canonical JSON bytes keyed by mode."""
    first = {}
    for system in enumerate_maximal_systems(Shape(dims), cubic, cap):
        if "min" not in first or len(system) < len(first["min"]):
            first["min"] = system
        if "max" not in first or len(system) > len(first["max"]):
            first["max"] = system
    return {mode: dumps_canonical(system_to_dict(system)) for mode, system in first.items()}


# Every axis order with d <= 4 and sides <= 6 whose universe has at most 40 bricks.
FLAT_SHAPES = [
    dims
    for d in range(1, 5)
    for dims in itertools.product(range(1, 7), repeat=d)
    if brick_count(Shape(dims)) <= 40
]


class TestFlatBranchAndBound:
    @pytest.mark.parametrize("mode", ["min", "max"])
    @pytest.mark.parametrize("cubic", [False, True])
    def test_bounded_walk_keeps_the_first_extreme_family(self, mode, cubic):
        for dims in FLAT_SHAPES:
            report = flat_extremal_size(Shape(dims), SearchConfig(mode=mode, cubic=cubic))
            witness = dumps_canonical(system_to_dict(report.witness))
            assert witness == first_extreme_families(dims, cubic, 40)[mode], dims
            assert report.value == len(report.witness), dims

    # Past the default cap of 40 bricks, where the colour classes of the max
    # prune are larger: 5x4 has 150 bricks, 6x3 126, 3x3x2 108 and 4x4 100;
    # in cubes, 3x3x3x3 has 98, 6x5 and 4x4x3 70 and 5x5 55; 3x2x2x2 has 162.
    @pytest.mark.parametrize("dims,cubic,values", [
        ((5, 4), False, (8, 14)), ((4, 4), False, (7, 11)), ((6, 3), False, (8, 13)),
        ((3, 3, 2), False, (6, 11)), ((5, 5), True, (5, 11)), ((6, 5), True, (5, 11)),
        ((4, 4, 3), True, (3, 9)), ((3, 3, 3, 3), True, (3, 17)), ((3, 2, 2, 2), False, (6, 9)),
    ], ids=["5,4", "4,4", "6,3", "3,3,2", "5,5-cubic", "6,5-cubic", "4,4,3-cubic",
            "3,3,3,3-cubic", "3,2,2,2"])
    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_bounded_walk_keeps_the_first_extreme_family_past_the_cap(self, dims, cubic, values,
                                                                      mode):
        cap = brick_count(Shape(dims), cubic)
        config = SearchConfig(mode=mode, cubic=cubic, brick_count_cap=cap)
        report = flat_extremal_size(Shape(dims), config)
        witness = dumps_canonical(system_to_dict(report.witness))
        assert witness == first_extreme_families(dims, cubic, cap)[mode]
        assert report.value == len(report.witness) == dict(zip(("min", "max"), values))[mode]

    # Flat 5,4 max spends 2,421 nodes finding the optimum and 23 more in the walk to its witness.
    @pytest.mark.parametrize("node_cap", [500, 2420, 2421, 2443],
                             ids=["clique-500", "clique-last", "walk-first", "walk-last"])
    def test_node_cap_stops_either_phase_of_the_max_search(self, node_cap):
        config = SearchConfig(mode="max", brick_count_cap=150, node_cap=node_cap)
        with pytest.raises(CapExceeded) as err:
            flat_extremal_size(Shape((5, 4)), config)
        assert err.value.nodes_explored == node_cap + 1
        assert str(err.value) == f"node cap {node_cap} exceeded"
        config.node_cap = 2444
        assert flat_extremal_size(Shape((5, 4)), config).nodes_explored == 2444

    # Flat 5,4 min spends 13,336 nodes in the domination walk and 9 more in the lex walk
    # to its witness.
    @pytest.mark.parametrize("node_cap", [500, 13335, 13336, 13344],
                             ids=["domination-500", "domination-last", "walk-first", "walk-last"])
    def test_node_cap_stops_either_phase_of_the_min_search(self, node_cap):
        config = SearchConfig(mode="min", brick_count_cap=150, node_cap=node_cap)
        with pytest.raises(CapExceeded) as err:
            flat_extremal_size(Shape((5, 4)), config)
        assert err.value.nodes_explored == node_cap + 1
        assert str(err.value) == f"node cap {node_cap} exceeded"
        config.node_cap = 13345
        assert flat_extremal_size(Shape((5, 4)), config).nodes_explored == 13345

    def test_a_walk_that_never_reaches_the_optimum_raises(self, monkeypatch):
        # an optimum one too large has no family of its size, so no witness: no report
        largest = search._largest_clique
        monkeypatch.setattr(search, "_largest_clique",
                            lambda compat, counter: largest(compat, counter) + 1)
        with pytest.raises(EngineFault, match="no max family of size 8 in"):
            flat_extremal_size(Shape((3, 3)), SearchConfig(mode="max"))
        # a StopIteration would end the map early and leave a silently shorter list
        shapes = [Shape((2, 2)), Shape((3, 3))]
        with pytest.raises(EngineFault, match="no max family of size 4 in"):
            list(map(lambda s: flat_extremal_size(s, SearchConfig(mode="max")).value, shapes))

    def test_a_max_walk_past_an_undercounted_optimum_raises(self, monkeypatch):
        # an optimum one too small: a node holding that many bricks still has candidates
        largest = search._largest_clique
        monkeypatch.setattr(search, "_largest_clique",
                            lambda compat, counter: largest(compat, counter) - 1)
        with pytest.raises(EngineFault, match="a max family past size 6 in"):
            flat_extremal_size(Shape((3, 3)), SearchConfig(mode="max"))

    def test_a_min_walk_that_never_reaches_the_optimum_raises(self, monkeypatch):
        # an optimum one too small has no family of its size either
        smallest = search._smallest_families
        monkeypatch.setattr(search, "_smallest_families",
                            lambda *args, **kwargs: (smallest(*args, **kwargs)[0] - 1, []))
        with pytest.raises(EngineFault, match="no min family of size 4 in"):
            flat_extremal_size(Shape((3, 3)), SearchConfig(mode="min"))


# Every axis order with d <= 3 and sides <= 6 whose universe has at most 40
# bricks, under each cubic flag.
COLOUR_UNIVERSES = [
    (dims, cubic)
    for d in (1, 2, 3)
    for dims in itertools.product(range(1, 7), repeat=d)
    for cubic in (False, True)
    if brick_count(Shape(dims), cubic) <= 40
]


def largest_laminar(bricks):
    """The most pairwise compatible bricks of the list, by exhaustive search."""
    if not bricks:
        return 0
    first, rest = bricks[0], bricks[1:]
    return max(largest_laminar(rest),
               1 + largest_laminar([b for b in rest if compatible(first, b)]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_colour_classes_bound_every_laminar_subfamily(data):
    # The flat max prune reads the classes off the walk's compat rows; check
    # them against the scalar predicate.
    dims, cubic = data.draw(st.sampled_from(COLOUR_UNIVERSES))
    shape = Shape(dims)
    corners = list(brick_corners(shape, cubic))
    pmask = data.draw(st.integers(0, (1 << len(corners)) - 1))
    table = IntervalMasks(shape, corners)
    compat = [table.compatible(lo, hi) for lo, hi in corners]
    classes = list(search._colour_classes(pmask, compat))
    assert all(classes)
    assert sum(c.bit_count() for c in classes) == pmask.bit_count()  # disjoint, given the cover
    assert functools.reduce(int.__or__, classes, 0) == pmask
    bricks = [Brick(lo, hi) for lo, hi in corners]
    for colour in classes:
        members = mask_members(colour, bricks)
        assert not any(compatible(a, b) for a, b in itertools.combinations(members, 2))
    assert len(classes) >= largest_laminar(mask_members(pmask, bricks))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_largest_clique_is_the_largest_laminar_subfamily(data):
    # A drawn sub-universe, its bricks in a drawn order, so any labelling is met.
    dims, cubic = data.draw(st.sampled_from(COLOUR_UNIVERSES))
    corners = list(brick_corners(Shape(dims), cubic))
    picked = data.draw(st.lists(st.sampled_from(range(len(corners))), unique=True))
    table = IntervalMasks(Shape(dims), corners)
    rows = [sum(1 << k for k, j in enumerate(picked) if table.compatible(*corners[i]) >> j & 1)
            for i in picked]
    assert search._largest_clique(rows, search._Counter(DEFAULT_NODE_CAP)) == largest_laminar(
        [Brick(*corners[i]) for i in picked])


@pytest.mark.parametrize("dims,cubic", [((3, 3), False), ((3, 2, 2), False), ((6, 6), True)],
                         ids=["3,3", "3,2,2", "6,6-cubic"])
def test_degree_rows_relabel_the_compatibility_rows(dims, cubic):
    # Rank r is the r-th brick by falling row size, equal sizes in brick order.
    table = _universe_table(Shape(dims), cubic)
    compat, rows = table.compat, table.by_degree()
    order = sorted(range(len(compat)), key=lambda k: (-compat[k].bit_count(), k))
    assert all(rows[r] >> s & 1 == compat[order[r]] >> order[s] & 1
               for r in range(len(rows)) for s in range(len(rows)))
    assert table.by_degree() is rows  # built once per table


class TestOracleEquivalence:
    # Past the flat engine's default cap of 40: 5x4 has 150 bricks and 3x3x3 has 216.
    @pytest.mark.parametrize("dims", [(4,), (2, 2), (3, 2), (2, 4), (3, 3), (2, 2, 2), (1, 2, 3),
                                      (5, 4), (3, 3, 3)])
    @pytest.mark.parametrize("mode", ["min", "max"])
    @pytest.mark.parametrize("cubic", [False, True])
    def test_engines_agree(self, dims, mode, cubic):
        shape = Shape(dims)
        config = SearchConfig(mode=mode, cubic=cubic, brick_count_cap=216)
        assert extremal_size(shape, config).value == flat_extremal_size(shape, config).value

    # Max runs on universes of up to 324 bricks that both engines finish in well under a
    # second, each capped at its own brick count; cubic 4x4x4 is left out (front max 0.4 s).
    @pytest.mark.parametrize("dims,cubic,bricks,value", [
        ((6, 4), False, 210, 16), ((4, 4, 2), False, 300, 15), ((3, 3, 2, 2), False, 324, 15),
        ((7, 7), True, 140, 21)], ids=["6,4", "4,4,2", "3,3,2,2", "7,7-cubic"])
    def test_engines_agree_on_larger_max_runs(self, dims, cubic, bricks, value):
        shape = Shape(dims)
        assert brick_count(shape, cubic) == bricks
        config = SearchConfig(mode="max", cubic=cubic, brick_count_cap=bricks)
        assert extremal_size(shape, config).value == value
        assert flat_extremal_size(shape, config).value == value

    # Min runs that the domination walk finishes in about 0.2 s each (the lex walk alone
    # took about 1 s): 6x4 has 210 bricks and 5x5 225.
    @pytest.mark.parametrize("dims,bricks,value", [((6, 4), 210, 9), ((5, 5), 225, 9)],
                             ids=["6,4", "5,5"])
    def test_engines_agree_on_larger_min_runs(self, dims, bricks, value):
        shape = Shape(dims)
        assert brick_count(shape) == bricks
        config = SearchConfig(mode="min", brick_count_cap=bricks)
        assert extremal_size(shape, config).value == value
        report = flat_extremal_size(shape, config)
        assert report.value == len(report.witness) == value
        assert is_maximal(report.witness)


# Every canonical shape with d <= 3 and sides <= 6 whose universe has at most
# 20 bricks, under each cubic flag.
SMALL_UNIVERSES = [
    (dims, cubic)
    for d in (1, 2, 3)
    for dims in itertools.combinations_with_replacement(range(6, 0, -1), d)
    for cubic in (False, True)
    if brick_count(Shape(dims), cubic) <= 20
]


def family_walks(dims, cubic):
    """The families of the domination walk and of the lex walk, both unpruned."""
    shape = Shape(dims)
    dominating = list(search._dominating_families(shape, cubic, search._Counter(DEFAULT_NODE_CAP),
                                                  lambda size: False))
    lex = list(search._maximal_families(shape, cubic, search._Counter(DEFAULT_NODE_CAP),
                                        lambda *node: False))
    return dominating, lex


class TestDominatingFamilies:
    @pytest.mark.parametrize("dims,cubic", SMALL_UNIVERSES)
    def test_every_maximal_family_once(self, dims, cubic):
        dominating, lex = family_walks(dims, cubic)
        assert len(dominating) == len(set(dominating))
        assert set(dominating) == set(lex)

    # Universes of 54 to 150 bricks; 5x4 has 125,216 maximal families.
    @pytest.mark.parametrize("dims", [(4, 3), (3, 2, 2), (2, 2, 2, 2), (5, 4)])
    def test_every_maximal_family_once_past_the_small_universes(self, dims):
        dominating, lex = family_walks(dims, False)
        assert len(dominating) == len(set(dominating)) == len(lex)
        assert set(dominating) == set(lex)

    def test_listing_masks_follow_the_domination_walk(self):
        dominating, lex = family_walks((3, 3), False)
        assert list(search._maximal_family_masks(Shape((3, 3)), False, 40)) == dominating
        assert dominating != lex  # so the lex order of enumerate_maximal_systems is its own


class TestEnumerateMaximalSystems:
    @pytest.mark.parametrize("dims,cubic", SMALL_UNIVERSES)
    def test_every_maximal_family_is_enumerated(self, dims, cubic):
        # Reference: grow laminar families brick by brick with the scalar
        # predicate; keep those a scalar scan finds no addable brick for.
        shape = Shape(dims)
        universe = list(enumerate_bricks(shape, cubic))

        def laminar_families(start, chosen):
            yield chosen
            for i in range(start, len(universe)):
                if all(compatible(universe[i], member) for member in chosen):
                    yield from laminar_families(i + 1, chosen + (universe[i],))

        reference = {
            family for family in laminar_families(0, ())
            if not any(b not in family and all(compatible(b, m) for m in family)
                       for b in universe)
        }
        systems = [s.bricks for s in enumerate_maximal_systems(shape, cubic)]
        assert len(systems) == len(set(systems))
        assert set(systems) == reference

    def test_single_cell(self):
        systems = list(enumerate_maximal_systems(Shape((1,))))
        assert len(systems) == 1
        assert systems[0].bricks == (B((0,), (1,)),)

    def test_segment_two(self):
        got = {s.bricks for s in enumerate_maximal_systems(Shape((2,)))}
        assert got == {
            (B((0,), (1,)), B((0,), (2,))),
            (B((0,), (2,)), B((1,), (2,))),
        }

    def test_each_system_appears_once_and_is_maximal(self):
        seen = set()
        for system in enumerate_maximal_systems(Shape((3, 2))):
            assert system.bricks not in seen
            seen.add(system.bricks)
            assert is_maximal(system)
        assert len(seen) == 30

    def test_square_systems_of_the_2_cube(self):
        systems = list(enumerate_maximal_systems(Shape((2, 2)), cubic=True))
        assert {len(s) for s in systems} == {2}
        assert len(systems) == 4

    def test_symmetry_deduplication(self):
        plain = list(enumerate_maximal_systems(Shape((2, 2))))
        assert len(plain) == 8
        assert len({canonical_form(s).bricks for s in plain}) == 1

    def test_extremes_match_the_closed_forms(self):
        sizes = [len(s) for s in enumerate_maximal_systems(Shape((3, 3)))]
        assert min(sizes) == min_brick_system_size(Shape((3, 3)))
        assert max(sizes) == max_rect_system_size(3, 3)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_maximal_systems(Shape((3, 3)), cap=10))


def test_computed_values_respect_the_closed_form_bounds():
    from islands import max_brick_system_bounds, max_cube_system_bound

    for dims in [(2, 2), (3, 3), (2, 4), (2, 2, 2), (1, 2, 3), (4,)]:
        shape = Shape(dims)
        top = extremal_size(shape, SearchConfig(mode="max")).value
        bounds = max_brick_system_bounds(shape)
        assert bounds.lower <= top <= bounds.upper
    for d, m in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        cube = Shape((m,) * d)
        top = extremal_size(cube, SearchConfig(mode="max", cubic=True)).value
        assert top <= max_cube_system_bound(d, m)
        assert extremal_size(cube, SearchConfig(mode="min", cubic=True)).value == m


@pytest.mark.parametrize(
    "search,dims,mode,cubic,expected",
    [
        (extremal_size, (5, 4), "max", False, (14, 755, 88)),
        (extremal_size, (4, 3, 2), "max", False, (13, 855, 100)),
        (extremal_size, (2, 2, 2, 2), "min", False, (5, 121, 22)),
        (extremal_size, (3, 3, 3), "max", True, (9, 109, 1)),
        (flat_extremal_size, (3, 3), "max", False, (7, 31, 0)),
        (flat_extremal_size, (5, 4), "max", False, (14, 2444, 0)),
        (flat_extremal_size, (2, 2, 2), "min", False, (4, 63, 0)),
        (extremal_size, (5, 4), "min", False, (8, 2475, 88)),
        (extremal_size, (4, 3, 2), "min", False, (7, 1235, 100)),
        (extremal_size, (7, 7), "min", True, (7, 1484, 15)),
        (extremal_size, (4, 4, 4), "min", True, (4, 240, 3)),
        (extremal_size, (4, 1, 3), "max", False, (9, 213, 32)),
        (extremal_size, (1, 3, 2), "min", False, (4, 41, 7)),
        (extremal_size, (2, 1, 2, 1), "max", False, (3, 13, 2)),
        (extremal_size, (6, 6), "max", True, (13, 3982, 10)),
        (extremal_size, (7, 7), "max", True, (21, 5117, 15)),
    ],
)
def test_engine_counters_are_pinned(search, dims, mode, cubic, expected):
    # The walks read the region and compatibility masks; a wrong mask moves a count.
    # A count that moves is re-pinned here; cached reports carry these counts, and
    # ENGINE_VERSION follows the source, so rows of the old walk are recomputed.
    # Each row runs at its own universe's size as the brick cap (150 for flat 5,4).
    shape = Shape(dims)
    report = search(shape, SearchConfig(mode=mode, cubic=cubic,
                                        brick_count_cap=brick_count(shape, cubic)))
    assert (report.value, report.nodes_explored, report.memo_hits) == expected


# Bricks written as "lo-hi" digit strings.  4,5 max replays a memo entry of
# 1,2 into 2,1; 2,3,2 max and 2,3,4 max replay entries with two equal sides,
# where only the stable-sort pairing of equal axes gives these bricks.  The
# shapes with a side of 1 are solved without it and lifted back.
PINNED_WITNESSES = [
    ((4, 5), "max", "00-11 00-15 00-45 02-13 02-15 04-15 20-31 20-41 20-45 22-33 22-43 22-45 "
                    "24-35 24-45"),
    ((2, 3, 4), "min", "000-111 000-114 000-124 000-134 000-234 002-113 002-114"),
    ((3, 4, 2), "max", "000-111 000-112 000-142 000-342 020-131 020-132 020-142 200-311 200-312 "
                       "200-342 220-331 220-332 220-342"),
    ((2, 3, 2), "max", "000-111 000-112 000-212 000-232 020-131 020-132 020-232"),
    ((2, 3, 4), "max", "000-111 000-211 000-214 000-234 002-113 002-114 002-214 020-131 020-231 "
                       "020-234 022-133 022-134 022-234"),
    ((4, 1, 3), "max", "000-111 000-113 000-413 002-113 200-311 200-411 200-413 202-313 202-413"),
    ((1, 3, 2), "min", "000-111 000-112 000-122 000-132"),
    ((2, 1, 2, 1), "max", "0000-1111 0000-1121 0000-2121"),
]


@pytest.mark.parametrize("dims,mode,bricks", PINNED_WITNESSES,
                         ids=[f"{','.join(map(str, d))}-{m}" for d, m, _ in PINNED_WITNESSES])
def test_witness_bricks_are_pinned(dims, mode, bricks):
    report = extremal_size(Shape(dims), SearchConfig(mode=mode))
    found = " ".join(
        "".join(map(str, b.lo)) + "-" + "".join(map(str, b.hi)) for b in report.witness.bricks
    )
    assert found == bricks
    assert report.value == len(bricks.split())


def brick_digits(bricks):
    return " ".join("".join(map(str, b.lo)) + "-" + "".join(map(str, b.hi)) for b in bricks)


# The flat engine keeps the first extreme family in its walk order; so do these pins.
@pytest.mark.parametrize("dims,mode,bricks", [
    ((3, 3), "max", "00-11 00-12 00-13 00-33 20-31 20-32 20-33"),
    ((2, 2, 2), "min", "000-111 000-112 000-122 000-222"),
    ((3, 2), "max", "00-11 00-12 00-32 20-31 20-32"),
], ids=["3,3-max", "2,2,2-min", "3,2-max"])
def test_flat_witness_bricks_are_pinned(dims, mode, bricks):
    report = flat_extremal_size(Shape(dims), SearchConfig(mode=mode))
    assert brick_digits(report.witness.bricks) == bricks
    assert report.value == len(bricks.split())


def test_maximal_system_order_is_pinned():
    systems = [brick_digits(s.bricks) for s in enumerate_maximal_systems(Shape((3, 2)))]
    assert len(systems) == 30
    assert systems[:2] == ["00-11 00-12 00-22 00-32", "00-11 00-12 00-32 20-31 20-32"]
    digest = hashlib.sha256("\n".join(systems).encode()).hexdigest()
    assert digest == "f68c8d2b74ac399528006b5690fb55d6bf10439a203d0281af13cc6e22ace950"


def test_report_is_a_frozen_record():
    report = extremal_size(Shape((2, 2)), SearchConfig(mode="min"))
    assert dataclasses.is_dataclass(report)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.value = 0

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islands import (
    Brick,
    DimensionMismatch,
    IslandSystem,
    Shape,
    brick_count,
    canonical_form,
    compatible,
    contains,
    disjoint,
    enumerate_bricks,
    enumerate_maximal_systems,
    symmetric_images,
)
from islands.geometry import IntervalMasks, brick_corners

from conftest import B, laminar_systems


class TestShape:
    def test_valid(self):
        s = Shape((2, 3, 1))
        assert s.ndim == 3
        assert not s.is_cube
        assert Shape((4, 4)).is_cube
        assert s.full_brick() == B((0, 0, 0), (2, 3, 1))

    @pytest.mark.parametrize("dims", [(), (0,), (-1, 2), (2, 0)])
    def test_invalid(self, dims):
        with pytest.raises(ValueError):
            Shape(dims)

    @pytest.mark.parametrize("dims", [(2.7,), (2, 2.0), ("2",), (True, 2)])
    def test_non_integer_side_is_rejected(self, dims):
        with pytest.raises(ValueError, match="integers"):
            Shape(dims)


class TestBrick:
    def test_valid(self):
        b = B((0, 1), (2, 3))
        assert b.sides() == (2, 2)
        assert b.is_cube
        assert not b.is_cell
        assert B((1, 1), (2, 2)).is_cell
        assert b.valid_in(Shape((2, 3)))
        assert not b.valid_in(Shape((2, 2)))
        assert not b.valid_in(Shape((2, 3, 4)))

    @pytest.mark.parametrize("lo,hi", [((0,), (0,)), ((1,), (0,)), ((-1,), (1,)), ((0, 0), (1,))])
    def test_invalid(self, lo, hi):
        with pytest.raises(ValueError):
            Brick(lo, hi)

    @pytest.mark.parametrize("lo,hi", [((0,), (2.9,)), ((0.0,), (1,)), (("0",), (1,)),
                                       ((0, 0), (True, 2))])
    def test_non_integer_corner_is_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="integers"):
            Brick(lo, hi)

    def test_ordering_is_lexicographic_on_corners(self):
        bricks = list(enumerate_bricks(Shape((2, 2))))
        assert bricks == sorted(bricks, key=lambda b: b.lo + b.hi)


class TestPredicates:
    def test_contains(self):
        assert contains(B((0, 0), (2, 2)), B((0, 0), (1, 1)))
        b = B((0, 1), (3, 2))
        assert contains(b, b)
        assert not contains(B((0, 0), (1, 2)), B((0, 0), (2, 1)))
        assert not contains(B((0, 0), (2, 1)), B((0, 0), (1, 2)))

    def test_disjoint_uses_closed_boxes(self):
        # sharing only the corner point (1,1) still counts as intersecting
        assert not disjoint(B((0, 0), (1, 1)), B((1, 1), (2, 2)))
        assert disjoint(B((0, 0), (1, 1)), B((2, 0), (3, 1)))
        assert not disjoint(B((0, 0), (1, 1)), B((0, 0), (2, 2)))

    def test_compatible(self):
        assert not compatible(B((0, 0), (1, 1)), B((1, 1), (2, 2)))
        assert compatible(B((0, 0), (1, 1)), B((0, 0), (3, 3)))
        assert compatible(B((0, 0), (1, 3)), B((2, 0), (3, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(B((0,), (1,)), B((0, 0), (1, 1)))
        with pytest.raises(DimensionMismatch):
            disjoint(B((0,), (1,)), B((0, 0), (1, 1)))
        with pytest.raises(DimensionMismatch):
            compatible(B((0,), (1,)), B((0, 0), (1, 1)))

    @pytest.mark.parametrize("call", [
        lambda: B((0, 0), (1, 1)).translate((1,)),
        lambda: B((0,), (1,)).translate((1, 2)),
    ], ids=["short-offset", "long-offset"])
    def test_moving_a_brick_across_dimensions_is_a_mismatch(self, call):
        # zip would drop the extra axes and return a brick of the wrong dimension
        with pytest.raises(DimensionMismatch):
            call()

    @pytest.mark.parametrize("dims", [(3,), (2, 2), (3, 3), (2, 2, 2)])
    def test_order_and_symmetry_properties(self, dims):
        bricks = list(enumerate_bricks(Shape(dims)))
        for a in bricks:
            assert contains(a, a)
            for b in bricks:
                assert disjoint(a, b) == disjoint(b, a)
                assert compatible(a, b) == compatible(b, a)
                if contains(a, b) and contains(b, a):
                    assert a == b
                if disjoint(a, b):
                    assert not contains(a, b) and not contains(b, a)

    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
    def test_predicates_match_their_lattice_point_definitions(self, dims):
        # closed integer boxes meet iff they share a lattice point
        def points(b):
            return set(itertools.product(*(range(a, h + 1) for a, h in zip(b.lo, b.hi))))

        bricks = list(enumerate_bricks(Shape(dims)))
        for a in bricks:
            for b in bricks:
                assert contains(a, b) == (points(b) <= points(a))
                assert disjoint(a, b) == (not points(a) & points(b))

    def test_contains_transitive(self):
        bricks = list(enumerate_bricks(Shape((3, 3))))
        for a, b in itertools.permutations(bricks, 2):
            if not contains(a, b):
                continue
            for c in bricks:
                if contains(b, c):
                    assert contains(a, c)


@st.composite
def candidate_lists(draw):
    """A shape with d <= 4, a cubic flag, and a shuffled sub-list of its bricks."""
    d = draw(st.integers(1, 4))
    max_side = {1: 6, 2: 4, 3: 3, 4: 2}[d]
    shape = Shape(tuple(draw(st.integers(1, max_side)) for _ in range(d)))
    cubic = draw(st.booleans())
    universe = list(enumerate_bricks(shape, cubic))
    candidates = draw(st.permutations(universe))[: draw(st.integers(0, len(universe)))]
    return shape, universe, candidates


class TestIntervalMasks:
    @settings(max_examples=30, deadline=None)
    @given(candidate_lists())
    def test_masks_agree_with_the_scalar_predicates(self, case):
        shape, universe, candidates = case
        table = IntervalMasks(shape, ((b.lo, b.hi) for b in candidates))
        assert table.all == (1 << len(candidates)) - 1
        for query in universe:
            inside, around, apart = table.relations(query.lo, query.hi)
            for i, other in enumerate(candidates):
                assert (inside >> i) & 1 == contains(query, other)
                assert (around >> i) & 1 == contains(other, query)
                assert (apart >> i) & 1 == disjoint(query, other)
                assert (inside & around) >> i & 1 == (query == other)


class TestEnumeration:
    def test_single_cell(self):
        assert list(enumerate_bricks(Shape((1,)))) == [B((0,), (1,))]

    def test_2x2_has_nine_bricks(self):
        bricks = list(enumerate_bricks(Shape((2, 2))))
        assert len(bricks) == 9
        assert len(set(bricks)) == 9

    def test_3x3_cubic_breakdown(self):
        cubes = list(enumerate_bricks(Shape((3, 3)), cubic=True))
        assert len(cubes) == 14
        by_side = {}
        for c in cubes:
            by_side.setdefault(c.sides()[0], 0)
            by_side[c.sides()[0]] += 1
        assert by_side == {1: 9, 2: 4, 3: 1}

    def test_lexicographic_order(self):
        for dims, cubic in [((3, 2), False), ((3, 3), True), ((2, 2, 2), False)]:
            bricks = list(enumerate_bricks(Shape(dims), cubic=cubic))
            assert bricks == sorted(bricks)

    @pytest.mark.parametrize("dims", [(1,), (4,), (2, 2), (3, 2), (1, 1, 1), (2, 2, 2), (7, 7, 7)])
    @pytest.mark.parametrize("cubic", [False, True])
    def test_count_matches_enumeration(self, dims, cubic):
        shape = Shape(dims)
        expected = brick_count(shape, cubic)
        if expected > 3000:
            return
        bricks = list(enumerate_bricks(shape, cubic))
        assert len(bricks) == expected
        assert len(set(bricks)) == expected
        for b in bricks:
            assert b.valid_in(shape)
            if cubic:
                assert b.is_cube

    def test_counts_against_direct_sums(self):
        # independent closed forms evaluated by explicit summation
        assert brick_count(Shape((7, 7, 7)), cubic=True) == sum((8 - s) ** 3 for s in range(1, 8))
        assert brick_count(Shape((2, 2))) == 9
        assert brick_count(Shape((1, 1, 1, 1))) == 1
        assert brick_count(Shape((5, 3))) == (5 * 6 // 2) * (3 * 4 // 2)


def reference_images(shape, corners):
    """``symmetric_images`` by its definition: the axis permutations that keep
    side lengths, filtered from all d! of them, each with every flip mask, and
    each applied to every pair axis by axis."""
    dims = shape.dims
    d = len(dims)
    for perm in itertools.permutations(range(d)):
        if any(dims[p] != m for p, m in zip(perm, dims)):
            continue
        for flips in itertools.product((False, True), repeat=d):
            images = []
            for lo, hi in corners:
                image_lo, image_hi = [], []
                for i in range(d):
                    a, b = lo[perm[i]], hi[perm[i]]
                    if flips[i]:
                        a, b = dims[i] - b, dims[i] - a
                    image_lo.append(a)
                    image_hi.append(b)
                images.append((tuple(image_lo), tuple(image_hi)))
            yield images


# Every ordered shape with d <= 4 and sides <= 3, with both cubic flags.
SMALL_UNIVERSES = [(Shape(dims), cubic) for d in range(1, 5)
                   for dims in itertools.product(range(1, 4), repeat=d)
                   for cubic in (False, True)]


class TestSymmetries:
    def test_group_sizes(self):
        assert sum(1 for _ in symmetric_images(Shape((2, 1)), [])) == 4
        assert sum(1 for _ in symmetric_images(Shape((3, 3)), [])) == 8
        assert sum(1 for _ in symmetric_images(Shape((2, 2, 2)), [])) == 48

    def test_order_is_that_of_the_filtered_permutations(self):
        for shape, cubic in SMALL_UNIVERSES:
            corners = list(brick_corners(shape, cubic))
            assert list(symmetric_images(shape, corners)) == \
                list(reference_images(shape, corners)), (shape, cubic)

    def test_each_image_permutes_the_universe_and_the_first_is_the_identity(self):
        for shape, cubic in SMALL_UNIVERSES:
            corners = list(brick_corners(shape, cubic))  # sorted, as bricks are
            images = list(symmetric_images(shape, corners))
            assert images[0] == corners
            for image in images:
                assert sorted(image) == corners, (shape, cubic)

    def test_distinct_sides_walk_no_permutation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("walked all d! permutations")

        monkeypatch.setattr(itertools, "permutations", refuse)
        shape = Shape(tuple(range(1, 10)))
        cell = ((0,) * 9, (1,) * 9)
        images = list(symmetric_images(shape, [cell]))
        assert len(images) == 2 ** 9
        # no axis moves: each flip mask takes the cell to the corner it names
        assert images == [[(tuple(m - 1 if f else 0 for m, f in zip(shape.dims, flips)),
                            tuple(m if f else 1 for m, f in zip(shape.dims, flips)))]
                          for flips in itertools.product((False, True), repeat=9)]

    def test_canonical_form_is_the_least_reference_image(self):
        for shape, cubic in SMALL_UNIVERSES:
            if brick_count(shape, cubic) > 40:
                continue
            universe = list(brick_corners(shape, cubic))
            index = {pair: i for i, pair in enumerate(universe)}
            group = list(reference_images(shape, universe))
            for system in enumerate_maximal_systems(shape, cubic):
                members = [index[b.lo, b.hi] for b in system.bricks]
                least = min(sorted(image[i] for i in members) for image in group)
                canonical = canonical_form(system)
                assert (canonical.shape, canonical.cubic) == (shape, cubic)
                assert canonical.bricks == tuple(Brick(lo, hi) for lo, hi in least), system

    def test_canonical_2x2_reflection(self):
        shape = Shape((2, 2))
        system = IslandSystem(shape, [B((1, 1), (2, 2)), B((0, 0), (2, 2))])
        assert canonical_form(system).bricks == (B((0, 0), (1, 1)), B((0, 0), (2, 2)))

    def test_canonical_identifies_mirror_systems(self):
        shape = Shape((2, 1))
        left = IslandSystem(shape, [shape.full_brick(), B((0, 0), (1, 1))])
        right = IslandSystem(shape, [shape.full_brick(), B((1, 0), (2, 1))])
        assert canonical_form(left) == canonical_form(right)

    @pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2), (3, 2)])
    def test_canonical_invariant_under_group(self, dims):
        shape = Shape(dims)
        for system in itertools.islice(enumerate_maximal_systems(shape), 25):
            reference = canonical_form(system)
            corners = [(b.lo, b.hi) for b in system.bricks]
            for image in symmetric_images(shape, corners):
                moved = IslandSystem(shape, [Brick(lo, hi) for lo, hi in image])
                assert canonical_form(moved) == reference

    @settings(max_examples=60)
    @given(laminar_systems())
    def test_canonical_idempotent(self, system):
        once = canonical_form(system)
        assert canonical_form(once) == once

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islands import (
    IslandSystem,
    SearchConfig,
    Shape,
    addable_bricks,
    brick_count,
    compatible,
    contains,
    enumerate_bricks,
    enumerate_maximal_systems,
    flat_extremal_size,
    gap_profiles,
    is_laminar,
    is_maximal,
    max_elements,
    nested_min_system,
    non_maximal_restrictions,
    restrict,
    subdivision_system,
)
from islands import system as system_module

from conftest import B, laminar_systems


class TestIslandSystem:
    def test_normalizes_sorted_and_deduplicated(self):
        shape = Shape((2, 2))
        m = shape.full_brick()
        cell = B((0, 0), (1, 1))
        system = IslandSystem(shape, [m, cell, m])
        assert system.bricks == (cell, m)
        assert len(system) == 2
        assert cell in system

    def test_rejects_out_of_shape_bricks(self):
        with pytest.raises(ValueError):
            IslandSystem(Shape((2, 2)), [B((0, 0), (3, 1))])

    def test_rejects_non_cubes_when_cubic(self):
        with pytest.raises(ValueError):
            IslandSystem(Shape((2, 2)), [B((0, 0), (2, 1))], cubic=True)


class TestLaminar:
    def test_empty_is_laminar(self):
        assert is_laminar([])

    def test_corner_contact_is_not(self):
        assert not is_laminar([B((0, 0), (1, 1)), B((1, 1), (2, 2))])

    @pytest.mark.parametrize("dims", [(3,), (2, 2), (3, 2), (2, 2, 2)])
    def test_nested_construction_is_laminar(self, dims):
        assert is_laminar(nested_min_system(Shape(dims)).bricks)


FAMILY_SHAPES = [(3,), (3, 3), (3, 2, 2), (2, 2, 2, 2)]


def reference_non_maximal_restrictions(system):
    return [b for b in system if not is_maximal(restrict(system, b))]


@st.composite
def arbitrary_families(draw):
    """Any subfamily, laminar or not, of a small universe, under either flag."""
    shape = Shape(draw(st.sampled_from(FAMILY_SHAPES)))
    cubic = draw(st.booleans())
    universe = list(enumerate_bricks(shape, cubic))
    return IslandSystem(shape, draw(st.lists(st.sampled_from(universe), max_size=12)), cubic)


def scalar_max_elements(system):
    """The O(n²) definition: members no other member contains, full brick left out."""
    full = system.shape.full_brick()
    rest = [b for b in system.bricks if b != full]
    return [b for b in rest if not any(o != b and contains(o, b) for o in rest)]


class TestMaxElements:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(arbitrary_families(), laminar_systems(), laminar_systems(cubic=True)))
    def test_matches_the_quadratic_definition(self, system):
        assert max_elements(system) == scalar_max_elements(system)

    def test_only_full_brick(self):
        shape = Shape((2, 2))
        assert max_elements(IslandSystem(shape, [shape.full_brick()])) == []

    def test_nested_2x2(self):
        system = nested_min_system(Shape((2, 2)))
        assert system.bricks == (B((0, 0), (1, 1)), B((0, 0), (2, 1)), B((0, 0), (2, 2)))
        assert max_elements(system) == [B((0, 0), (2, 1))]

    def test_two_disjoint_cells(self):
        shape = Shape((3, 3))
        cells = [B((0, 0), (1, 1)), B((2, 2), (3, 3))]
        system = IslandSystem(shape, [shape.full_brick()] + cells)
        assert max_elements(system) == cells


class TestAddable:
    def test_single_cell_shape_saturated(self):
        shape = Shape((1,))
        assert addable_bricks(IslandSystem(shape, [shape.full_brick()])) == []

    def test_bricks_can_extend(self):
        system = IslandSystem(Shape((2, 2)), [B((0, 0), (2, 2)), B((0, 0), (1, 1))])
        additions = addable_bricks(system)
        assert B((0, 0), (1, 2)) in additions
        assert B((0, 0), (2, 1)) in additions
        assert additions == sorted(additions)

    def test_squares_cannot(self):
        system = IslandSystem(
            Shape((2, 2)), [B((0, 0), (2, 2)), B((0, 0), (1, 1))], cubic=True
        )
        assert addable_bricks(system) == []
        assert is_maximal(system)

    def test_maximality_flips_with_cubic_flag(self):
        bricks = [B((0, 0), (2, 2)), B((0, 0), (1, 1))]
        assert is_maximal(IslandSystem(Shape((2, 2)), bricks, cubic=True))
        assert not is_maximal(IslandSystem(Shape((2, 2)), bricks, cubic=False))

    def test_single_brick_in_tiny_cube(self):
        shape = Shape((1, 1, 1))
        assert is_maximal(IslandSystem(shape, [shape.full_brick()]))

    def test_subdivision_is_maximal(self):
        assert is_maximal(subdivision_system(2, 2))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
    def test_maximal_means_every_insertion_breaks_laminarity(self, dims):
        shape = Shape(dims)
        for system in enumerate_maximal_systems(shape):
            members = set(system.bricks)
            for brick in enumerate_bricks(shape):
                if brick not in members:
                    assert not is_laminar(list(system.bricks) + [brick])


# Every canonical shape with d <= 4 whose universe has at most 40 bricks.
SMALL_SHAPES = [
    Shape(dims)
    for d in range(1, 5)
    for dims in itertools.combinations_with_replacement(range(8, 0, -1), d)
    if brick_count(Shape(dims)) <= 40
]


def scalar_addable(system):
    """Reference addability scan over the scalar predicates."""
    return [
        cand
        for cand in enumerate_bricks(system.shape, system.cubic)
        if cand not in system.bricks and all(compatible(cand, b) for b in system.bricks)
    ]


def scalar_greedy(system):
    while additions := scalar_addable(system):
        system = IslandSystem(system.shape, system.bricks + (additions[0],), cubic=system.cubic)
    return system


class TestAgainstScalarScan:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(laminar_systems(), laminar_systems(cubic=True)))
    def test_masks_match_the_scalar_scan(self, system):
        completed = scalar_greedy(system)
        for case in (system, completed):
            expected = scalar_addable(case)
            assert addable_bricks(case) == expected
            assert is_maximal(case) == (not expected)


class TestUniverseMasks:
    def test_each_universe_table_is_built_once(self, monkeypatch):
        # 69 canonical shapes with d <= 4 and sides <= 4: more universes than a
        # 64-slot LRU holds, so one cycling through them would rebuild every table
        built = []
        real = system_module.IntervalMasks

        def counting(shape, corners):
            built.append(shape)
            return real(shape, corners)

        shapes = [
            Shape(dims)
            for d in range(1, 5)
            for dims in itertools.combinations_with_replacement(range(4, 0, -1), d)
        ]
        assert len(shapes) == 69
        system_module._universe_masks.cache_clear()
        monkeypatch.setattr(system_module, "IntervalMasks", counting)
        for _ in range(2):
            for shape in shapes:
                assert is_maximal(nested_min_system(shape))
        assert built == shapes
        # the flat walk reads the same (4, 3) table
        flat_extremal_size(Shape((4, 3)), SearchConfig(mode="max", brick_count_cap=60))
        assert len(built) == 69


class TestRestrict:
    def test_restrict_to_full_brick_is_identity(self):
        system = nested_min_system(Shape((3, 2)))
        again = restrict(system, Shape((3, 2)).full_brick())
        assert again == system

    def test_restrict_nested_2x2(self):
        system = nested_min_system(Shape((2, 2)))
        sub = restrict(system, B((0, 0), (2, 1)))
        assert sub.shape == Shape((2, 1))
        assert sub.bricks == (B((0, 0), (1, 1)), B((0, 0), (2, 1)))

    def test_restrict_subdivision_leaf(self):
        system = subdivision_system(2, 2)
        leaf = B((2, 2), (3, 3))
        sub = restrict(system, leaf)
        assert sub.shape == Shape((1, 1))
        assert sub.bricks == (B((0, 0), (1, 1)),)

    def test_restrict_requires_membership(self):
        system = nested_min_system(Shape((2, 2)))
        with pytest.raises(ValueError):
            restrict(system, B((1, 1), (2, 2)))

    @pytest.mark.parametrize("dims", [(3,), (2, 2), (3, 2), (2, 2, 2)])
    def test_restriction_of_maximal_is_maximal(self, dims):
        shape = Shape(dims)
        for system in enumerate_maximal_systems(shape):
            assert shape.full_brick() in system
            for member in system:
                assert is_maximal(restrict(system, member))

    def test_restriction_property_over_every_small_shape(self):
        # full sweep of the same property over every shape the flat search
        # allows, through the reference and through the mask check
        for shape in SMALL_SHAPES:
            for system in enumerate_maximal_systems(shape):
                assert shape.full_brick() in system
                for member in system:
                    assert is_maximal(restrict(system, member))
                assert non_maximal_restrictions(system) == []

    @pytest.mark.parametrize("cubic", [False, True])
    def test_unchecked_systems_equal_checked_ones(self, cubic):
        # enumerate_maximal_systems and restrict skip the constructor's sorting
        # and validation; rebuilding through it must change nothing
        for dims in [(6,), (4, 2), (3, 3), (3, 2, 1), (2, 2, 2), (2, 2, 1, 1)]:
            shape = Shape(dims)
            for system in enumerate_maximal_systems(shape, cubic):
                assert system == IslandSystem(shape, system.bricks, cubic=cubic)
                assert type(system.bricks) is tuple
                for member in system:
                    sub = restrict(system, member)
                    assert sub == IslandSystem(sub.shape, sub.bricks, cubic=cubic)
                    assert type(sub.bricks) is tuple


class TestNonMaximalRestrictions:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(arbitrary_families(), laminar_systems(), laminar_systems(cubic=True)))
    def test_matches_the_reference(self, system):
        assert non_maximal_restrictions(system) == reference_non_maximal_restrictions(system)

    def test_seeded_families_reach_both_outcomes(self):
        # the comparison above is not vacuous: drawn families go both ways
        rng = random.Random(11)
        flagged = total = 0
        for dims, cubic in itertools.product(FAMILY_SHAPES, (False, True)):
            universe = list(enumerate_bricks(Shape(dims), cubic))
            for _ in range(60):
                picks = rng.sample(universe, rng.randint(0, min(8, len(universe))))
                system = IslandSystem(Shape(dims), picks, cubic)
                bad = reference_non_maximal_restrictions(system)
                assert non_maximal_restrictions(system) == bad
                flagged += bool(bad)
                total += 1
        assert 0 < flagged < total


class TestGapProfiles:
    def test_edge_count(self):
        system = nested_min_system(Shape((2, 2, 2)))
        profiles = gap_profiles(system.shape, max_elements(system))
        assert len(profiles) == 3 * 4  # d * 2^(d-1)

    def test_two_cell_example(self):
        shape = Shape((3, 3))
        system = IslandSystem(
            shape, [shape.full_brick(), B((0, 0), (1, 1)), B((2, 2), (3, 3))]
        )
        profiles = gap_profiles(shape, max_elements(system))
        profiles = {(p.free_dim, p.sides): p for p in profiles}
        bottom = profiles[(0, (0,))]
        assert bottom.covered == ((0, 1),)
        (gap,) = bottom.gaps
        assert (gap.start, gap.end, gap.length) == (1, 3, 2)
        assert gap.left_elementary is True
        assert gap.right_elementary is None  # runs out at the corner

    def test_single_front_system_covers_one_run_per_edge_it_meets(self):
        shape = Shape((3, 2))
        member = B((0, 0), (2, 2))
        system = IslandSystem(shape, [shape.full_brick(), member])
        for profile in gap_profiles(shape, max_elements(system)):
            others = [j for j in range(2) if j != profile.free_dim]
            meets = all(
                member.lo[j] == 0 if side == 0 else member.hi[j] == shape.dims[j]
                for j, side in zip(others, profile.sides)
            )
            assert len(profile.covered) == (1 if meets else 0)

    @pytest.mark.parametrize("dims", [(3, 2), (2, 2, 2)])
    def test_covered_and_gaps_partition_each_edge(self, dims):
        shape = Shape(dims)
        for system in enumerate_maximal_systems(shape):
            for profile in gap_profiles(shape, max_elements(system)):
                edge_len = dims[profile.free_dim]
                pieces = [(a, b) for a, b in profile.covered]
                pieces += [(g.start, g.end) for g in profile.gaps]
                pieces.sort()
                position = 0
                for a, b in pieces:
                    assert a == position
                    position = b
                assert position == edge_len


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_one_dimensional_rigidity(m):
    # every maximal system of a segment of length m has exactly m members
    for system in enumerate_maximal_systems(Shape((m,))):
        assert len(system) == m


def test_corner_and_gap_structure_over_every_small_shape():
    """Corner occupation and short gaps, swept over every flat-searchable shape.

    Whenever a maximal system has more than one maximal member, each corner
    cell of the box lies in some maximal member, every edge gap has length
    at most 2, and no length-2 gap sits between two elementary cells.
    """
    from islands import Brick

    for d in range(1, 5):
        for dims in itertools.combinations_with_replacement(range(8, 0, -1), d):
            shape = Shape(dims)
            if brick_count(shape) > 40:
                continue
            corner_cells = []
            for corner in itertools.product((0, 1), repeat=d):
                lo = tuple(0 if side == 0 else m - 1 for side, m in zip(corner, dims))
                corner_cells.append(Brick(lo, tuple(a + 1 for a in lo)))
            for system in enumerate_maximal_systems(shape):
                members = max_elements(system)
                if len(members) <= 1:
                    continue
                for cell in corner_cells:
                    assert any(contains(member, cell) for member in members), (dims, cell)
                for profile in gap_profiles(shape, members):
                    for gap in profile.gaps:
                        assert gap.length <= 2, (dims, gap)
                        assert gap.left_elementary is not None, (dims, gap)
                        assert gap.right_elementary is not None, (dims, gap)
                        if gap.length == 2:
                            assert not (gap.left_elementary and gap.right_elementary)

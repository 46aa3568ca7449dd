import dataclasses
import itertools

import pytest

from islands import (
    CapExceeded,
    Front,
    SearchConfig,
    Shape,
    brick_count,
    canonical_form,
    enumerate_maximal_systems,
    enumerate_saturated_fronts,
    extremal_size,
    flat_extremal_size,
    is_maximal,
    max_rect_system_size,
    min_brick_system_size,
)

from conftest import B


def front_sets(dims, cubic=False):
    return {
        frozenset(f.members) for f in enumerate_saturated_fronts(Shape(dims), cubic=cubic)
    }


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

    def test_generated_in_lexicographic_order(self):
        fronts = [f.members for f in enumerate_saturated_fronts(Shape((3, 3)))]
        assert fronts == sorted(fronts)

    def test_front_type_rejects_bad_members(self):
        shape = Shape((2, 2))
        with pytest.raises(ValueError):
            Front(shape, (shape.full_brick(),))
        with pytest.raises(ValueError):
            Front(shape, (B((0, 0), (1, 1)), B((1, 1), (2, 2))))

    @pytest.mark.parametrize(
        "dims,cubic", [((3,), False), ((2, 2), False), ((3, 3), True), ((2, 2, 1), False)]
    )
    def test_generator_matches_brute_force_over_all_disjoint_families(self, dims, cubic):
        from islands import disjoint, enumerate_bricks, front_is_saturated

        shape = Shape(dims)
        full = shape.full_brick()
        candidates = [b for b in enumerate_bricks(shape, cubic) if b != full]
        brute = set()
        for r in range(len(candidates) + 1):
            for combo in itertools.combinations(candidates, r):
                if all(disjoint(a, b) for a, b in itertools.combinations(combo, 2)):
                    front = Front(shape, combo)
                    if front_is_saturated(front, cubic):
                        brute.add(frozenset(combo))
        generated = {
            frozenset(f.members)
            for f in enumerate_saturated_fronts(shape, cubic=cubic)
        }
        assert generated == brute

    def test_region_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_saturated_fronts(Shape((9, 9)), brick_count_cap=40))


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
            assert report.witness.is_laminar
            assert is_maximal(report.witness)

    def test_witness_valid_without_symmetry_memoization(self):
        report = extremal_size(Shape((2, 3)), SearchConfig(mode="min", use_symmetry=False))
        assert len(report.witness) == report.value == min_brick_system_size(Shape((2, 3)))
        assert is_maximal(report.witness)

    def test_memoization_reports_hits(self):
        report = extremal_size(Shape((3, 3)), SearchConfig(mode="min"))
        assert report.memo_hits > 0

    def test_symmetry_toggle_preserves_values(self):
        for dims in [(3, 2), (2, 3), (2, 2, 3), (4, 1, 2)]:
            for mode in ("min", "max"):
                with_sym = extremal_size(Shape(dims), SearchConfig(mode=mode))
                without = extremal_size(
                    Shape(dims), SearchConfig(mode=mode, use_symmetry=False)
                )
                assert with_sym.value == without.value

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

    def test_node_cap_carries_partial_statistics(self):
        with pytest.raises(CapExceeded) as err:
            extremal_size(Shape((3, 3)), SearchConfig(mode="min", node_cap=5))
        assert err.value.nodes_explored > 0

    def test_cubic_mode_in_a_non_cube_box(self):
        # cubes in a 2x1 box: a single cell blocks everything else
        report = extremal_size(Shape((2, 1)), SearchConfig(mode="max", cubic=True))
        assert report.value == 1
        assert is_maximal(report.witness)


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


class TestOracleEquivalence:
    @pytest.mark.parametrize("dims", [(4,), (2, 2), (3, 2), (2, 4), (3, 3), (2, 2, 2), (1, 2, 3)])
    @pytest.mark.parametrize("mode", ["min", "max"])
    @pytest.mark.parametrize("cubic", [False, True])
    def test_engines_agree(self, dims, mode, cubic):
        shape = Shape(dims)
        front = extremal_size(shape, SearchConfig(mode=mode, cubic=cubic))
        flat = flat_extremal_size(shape, SearchConfig(mode=mode, cubic=cubic))
        assert front.value == flat.value


class TestEnumerateMaximalSystems:
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
        deduped = list(enumerate_maximal_systems(Shape((2, 2)), up_to_symmetry=True))
        assert len(plain) == 8
        assert len(deduped) == 1
        assert {canonical_form(s).bricks for s in plain} == {s.bricks for s in deduped}

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


def test_report_is_a_frozen_record():
    report = extremal_size(Shape((2, 2)), SearchConfig(mode="min"))
    assert dataclasses.is_dataclass(report)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.value = 0

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from islands import (
    BoundPair,
    Shape,
    max_brick_system_bounds,
    max_cube_system_bound,
    max_rect_system_size,
    min_brick_system_size,
    nested_cubes,
)


class TestMinBrickSize:
    @pytest.mark.parametrize(
        "dims,expected", [((1, 1, 1), 1), ((5, 3), 7), ((2, 2, 2), 4), ((6,), 6)]
    )
    def test_values(self, dims, expected):
        assert min_brick_system_size(Shape(dims)) == expected

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=4), st.randoms())
    def test_symmetric_under_permutation(self, dims, rng):
        shuffled = list(dims)
        rng.shuffle(shuffled)
        assert min_brick_system_size(Shape(tuple(dims))) == min_brick_system_size(
            Shape(tuple(shuffled))
        )


class TestMaxRectSize:
    @pytest.mark.parametrize("m1,m2,expected", [(1, 1, 1), (2, 2, 3), (3, 3, 7), (2, 4, 6)])
    def test_values(self, m1, m2, expected):
        assert max_rect_system_size(m1, m2) == expected

    @given(st.integers(1, 30), st.integers(1, 30))
    def test_symmetric(self, m1, m2):
        assert max_rect_system_size(m1, m2) == max_rect_system_size(m2, m1)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            max_rect_system_size(0, 3)


class TestSquareFormulas:
    def test_min_square_size(self):
        assert len(nested_cubes(2, 4)) == 4  # theorem 2 at d = 2: m squares

    def test_max_square_bound(self):
        assert max_cube_system_bound(2, 3) == 5
        assert max_cube_system_bound(2, 1) == 1
        assert max_cube_system_bound(2, 2) == Fraction(8, 3)


class TestSandwichBounds:
    def test_2x2x2(self):
        bounds = max_brick_system_bounds(Shape((2, 2, 2)))
        assert bounds.lower == 4
        assert bounds.upper == Fraction(23, 4)

    def test_unit_cube(self):
        bounds = max_brick_system_bounds(Shape((1, 1, 1)))
        assert bounds.lower == 0
        assert bounds.upper == 1

    def test_one_dimension_collapses_to_m(self):
        bounds = max_brick_system_bounds(Shape((5,)))
        assert bounds.lower == bounds.upper == 5

    @pytest.mark.parametrize("m1,m2", list(itertools.product(range(1, 7), repeat=2)))
    def test_2d_lower_closed_form_and_exact_value_inside(self, m1, m2):
        bounds = max_brick_system_bounds(Shape((m1, m2)))
        assert bounds.lower == Fraction(m1 * m2 + m1 + m2, 2) - 1
        assert bounds.lower <= max_rect_system_size(m1, m2) <= bounds.upper

    def test_lower_never_exceeds_upper(self):
        for d in range(1, 5):
            for dims in itertools.combinations_with_replacement(range(6, 0, -1), d):
                bounds = max_brick_system_bounds(Shape(dims))
                assert bounds.lower <= bounds.upper

    def test_bound_pair_rejects_inversion(self):
        with pytest.raises(ValueError):
            BoundPair(Fraction(2), Fraction(1))


class TestCubeBound:
    @pytest.mark.parametrize(
        "d,m,expected", [(2, 3, 5), (3, 3, 9), (2, 1, 1), (5, 1, 1), (2, 2, Fraction(8, 3))]
    )
    def test_values(self, d, m, expected):
        assert max_cube_system_bound(d, m) == expected

    def test_matches_square_bound_in_2d(self):
        for m in range(1, 10):
            assert max_cube_system_bound(2, m) == Fraction(m * (m + 2), 3)


class TestSubdivisionSize:
    """The cube bound at m = 2^k - 1: the size of the subdivision of depth k."""

    @pytest.mark.parametrize("d,k,expected", [(2, 2, 5), (3, 3, 73), (4, 1, 1), (1, 5, 31)])
    def test_values(self, d, k, expected):
        assert max_cube_system_bound(d, 2 ** k - 1) == expected

    def test_recurrence(self):
        for d in range(1, 5):
            for k in range(2, 5):
                size = max_cube_system_bound(d, 2 ** k - 1)
                assert size == 2 ** d * max_cube_system_bound(d, 2 ** (k - 1) - 1) + 1

    def test_integral_at_power_of_two_sides(self):
        for d in range(1, 5):
            for k in range(1, 5):
                assert max_cube_system_bound(d, 2 ** k - 1).denominator == 1

import hashlib
import tracemalloc

import pytest

from islands import (
    Shape,
    enumerate_maximal_systems,
    is_laminar,
    is_maximal,
    max_cube_system_bound,
    max_elements,
    maximal_segment_systems,
    min_brick_system_size,
    minimal_maximal_systems,
    nested_cubes,
    nested_min_system,
    subdivision_system,
)

from islands.serialize import dumps_canonical, system_to_dict

from conftest import B


class TestNestedMinSystem:
    def test_segment_is_a_chain(self):
        system = nested_min_system(Shape((4,)))
        assert system.bricks == tuple(B((0,), (n,)) for n in range(1, 5))

    def test_2x2_exact_bricks(self):
        system = nested_min_system(Shape((2, 2)))
        assert set(system.bricks) == {
            B((0, 0), (1, 1)),
            B((0, 0), (2, 1)),
            B((0, 0), (2, 2)),
        }

    def test_unit_cube_is_single_brick(self):
        system = nested_min_system(Shape((1, 1, 1)))
        assert system.bricks == (B((0, 0, 0), (1, 1, 1)),)

    @pytest.mark.parametrize("dims", [(5,), (2, 3), (4, 1), (2, 2, 2), (3, 1, 2), (2, 1, 2, 1)])
    def test_size_and_maximality(self, dims):
        shape = Shape(dims)
        system = nested_min_system(shape)
        assert len(system) == min_brick_system_size(shape)
        assert is_laminar(system.bricks)
        assert shape.full_brick() in system
        assert is_maximal(system)


class TestSegmentSystems:
    def test_catalan_counts(self):
        counts = [len(maximal_segment_systems(m)) for m in range(1, 7)]
        assert counts == [1, 2, 5, 14, 42, 132]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_exhaustive_enumeration(self, m):
        # the recursive builder against the flat search, as literal interval sets
        built = {frozenset(intervals) for intervals in maximal_segment_systems(m)}
        found = {
            frozenset((b.lo[0], b.hi[0]) for b in system)
            for system in enumerate_maximal_systems(Shape((m,)))
        }
        assert built == found

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_all_have_size_m(self, m):
        for intervals in maximal_segment_systems(m):
            assert len(intervals) == m

    def test_an_empty_segment_is_refused(self):
        with pytest.raises(ValueError, match="segment length must be positive"):
            maximal_segment_systems(0)


class TestMinimalMaximalSystems:
    def test_2x1_exact_family(self):
        got = {frozenset(system.bricks) for system in minimal_maximal_systems(Shape((2, 1)))}
        m = B((0, 0), (2, 1))
        assert got == {
            frozenset({B((0, 0), (1, 1)), m}),
            frozenset({B((1, 0), (2, 1)), m}),
        }

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_segment_shape_yields_every_maximal_system(self, m):
        got = {system.bricks for system in minimal_maximal_systems(Shape((m,)))}
        everything = {system.bricks for system in enumerate_maximal_systems(Shape((m,)))}
        assert got == everything

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 2, 2), (4, 3), (3, 1, 2), (2, 2, 2, 2)])
    def test_outputs_are_distinct_minimal_and_maximal(self, dims):
        shape = Shape(dims)
        expected = min_brick_system_size(shape)
        seen = set()
        for system in minimal_maximal_systems(shape):
            assert system.bricks not in seen
            seen.add(system.bricks)
            assert len(system) == expected
            assert is_maximal(system)

    def test_2x2_count(self):
        assert sum(1 for _ in minimal_maximal_systems(Shape((2, 2)))) == 8

    # count, then sha256 of the canonical JSON lines sorted (the set of systems) and
    # as yielded (their order); (4, 3)'s second digest is also the pinned stdout of
    # `islands construct minimal-family --shape 4,3` in tests/test_cli.py
    FAMILY_DIGESTS = {
        (2, 1): (2, "24bb269cbc4590dd93499ab35e6e89e91dc87434d3fa584fe07c12a9325a359b",
                 "24bb269cbc4590dd93499ab35e6e89e91dc87434d3fa584fe07c12a9325a359b"),
        (2, 2): (8, "6d829fcc8590f2d02bff9440167b3966e2d4ea3b6e43e6a33f0b2b9a458a649c",
                 "3d94ed5b685eddd7579ff5395d41531d7f74ad774f729733baa80bc91f812298"),
        (4, 3): (368, "61fd8fa37ceba1405d8bf5ef7a4619543f1b138f7261754858c4c01616047ea9",
                 "b9a6c40c83591a3eac8e12e1a5a6c3b0949e836516f2648aa02d032c9c66dc30"),
        (5, 3): (1224, "b5a21a2a36beb037d406eff7b2b472b83606ca8a888af33c2d690d37224fce1d",
                 "54e4186b85aee285fb4fbd95d6fbd180b1a4e05eab8e0a20178e8c4f8ef9593e"),
        (3, 2, 2): (200, "292588b19544ff68e212b6ac06e567f8bc69cba307b7d75827615294b22eec8d",
                    "9365a5d6736a250fc5ce36b2c5b008c09be675af785ce0d620deb54ffbfa14df"),
        (2, 2, 2, 2): (384, "d01191b47e410567245ee301de4cf541cc77e6501a323a5e031d4355d66e5e9e",
                       "f9238cd61c356f3f7dbbcf71169620e2a09e7a7c7d479a1ff03d7e2bab697e9b"),
    }

    @pytest.mark.parametrize("dims", sorted(FAMILY_DIGESTS), ids=str)
    def test_family_set_and_order_are_pinned(self, dims):
        lines = [dumps_canonical(system_to_dict(system)) + "\n"
                 for system in minimal_maximal_systems(Shape(dims))]
        digest = [hashlib.sha256("".join(order).encode()).hexdigest()
                  for order in (sorted(lines), lines)]
        assert (len(lines), *digest) == self.FAMILY_DIGESTS[dims]

    def test_stream_memory_does_not_grow_with_its_output(self):
        # 1,224 systems; a set of the yielded systems alone would trace over 1 MB
        for m in range(1, 6):
            maximal_segment_systems(m)
        tracemalloc.start()
        try:
            count = sum(1 for _ in minimal_maximal_systems(Shape((5, 3))))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 1224
        assert peak < 500_000


class TestNestedCubes:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_dimensional_matches_nested_min(self, m):
        assert set(nested_cubes(1, m).bricks) == set(nested_min_system(Shape((m,))).bricks)

    def test_2d_side_two(self):
        system = nested_cubes(2, 2)
        assert system.bricks == (B((0, 0), (1, 1)), B((0, 0), (2, 2)))
        assert system.cubic
        assert is_maximal(system)

    def test_3d_side_three(self):
        system = nested_cubes(3, 3)
        assert len(system) == 3
        assert is_maximal(system)

    @pytest.mark.parametrize("d,m", [(0, 1), (1, 0), (-1, 3)])
    def test_invalid_parameters(self, d, m):
        with pytest.raises(ValueError):
            nested_cubes(d, m)


class TestSubdivisionSystem:
    def test_2d_level_two_exact(self):
        system = subdivision_system(2, 2)
        assert set(system.bricks) == {
            B((0, 0), (3, 3)),
            B((0, 0), (1, 1)),
            B((2, 0), (3, 1)),
            B((0, 2), (1, 3)),
            B((2, 2), (3, 3)),
        }

    @pytest.mark.parametrize(
        "d,k,size", [(1, 1, 1), (2, 2, 5), (3, 2, 9), (2, 3, 21), (3, 3, 73)]
    )
    def test_sizes(self, d, k, size):
        system = subdivision_system(d, k)
        assert len(system) == size
        assert size == max_cube_system_bound(d, 2 ** k - 1)
        assert system.shape == Shape((2 ** k - 1,) * d)

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_laminar_cubic_and_maximal(self, d, k):
        system = subdivision_system(d, k)
        assert system.cubic
        assert is_laminar(system.bricks)
        assert is_maximal(system)

    def test_top_layer_is_the_corner_copies(self):
        system = subdivision_system(2, 3)
        tops = max_elements(system)
        assert len(tops) == 4
        assert all(t.sides() == (3, 3) for t in tops)

    @pytest.mark.parametrize("d,k", [(0, 1), (1, 0)])
    def test_invalid_parameters(self, d, k):
        with pytest.raises(ValueError):
            subdivision_system(d, k)


def test_every_constructor_output_is_laminar_with_full_brick():
    cases = [nested_min_system(Shape(dims)) for dims in [(3, 3), (2, 1, 2), (4, 2)]]
    cases += [nested_cubes(2, 4), nested_cubes(3, 2), subdivision_system(2, 2)]
    for system in cases:
        assert is_laminar(system.bricks)
        assert system.shape.full_brick() in system

"""Acceptance suite: every headline claim, recomputed by exhaustive search.

Each test prints one line, ``criterion N [PASS|FAIL] description (elapsed)``,
and asserts exact integer equality; there are no tolerances anywhere.
"""

import itertools
import time

import pytest

from islands import (
    Brick,
    SearchConfig,
    Shape,
    brick_count,
    contains,
    enumerate_maximal_systems,
    extremal_size,
    flat_extremal_size,
    gap_profiles,
    is_maximal,
    max_brick_system_bounds,
    max_cube_system_bound,
    max_elements,
    max_rect_system_size,
    min_brick_system_size,
    minimal_maximal_systems,
    nested_cubes,
    nested_min_system,
    restrict,
    subdivision_system,
)


def report(number, description, failures, started, budget_s):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} [{status}] {description} ({elapsed:.1f}s)")
    assert not failures, failures[:10]
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"


def canonical_shapes(max_dim, max_side):
    for d in range(1, max_dim + 1):
        for dims in itertools.combinations_with_replacement(range(max_side, 0, -1), d):
            yield dims


@pytest.fixture(scope="session")
def maximal_systems_of():
    cache = {}

    def get(dims):
        if dims not in cache:
            cache[dims] = list(enumerate_maximal_systems(Shape(dims), cap=60))
        return cache[dims]

    return get


def test_criterion_1_minimum_brick_system_size():
    started = time.perf_counter()
    shapes = [(m,) for m in range(1, 7)]
    shapes += [(m1, m2) for m1 in range(1, 5) for m2 in range(1, 5)]
    shapes += list(itertools.product((1, 2), repeat=3)) + [(2, 2, 3)]
    shapes += [(1, m2, m3) for m2 in range(1, 5) for m3 in range(1, 5)]
    failures = []
    for dims in shapes:
        shape = Shape(dims)
        expected = min_brick_system_size(shape)
        actual = extremal_size(shape, SearchConfig(mode="min")).value
        if actual != expected:
            failures.append((dims, expected, actual))
    report(1, f"minimum maximal-system size on {len(shapes)} cuboids", failures, started, 300)


def test_criterion_2_exact_two_dimensional_maximum():
    started = time.perf_counter()
    pairs = [(m1, m2) for m1 in range(1, 4) for m2 in range(1, 4)] + [(2, 4), (4, 2)]
    failures = []
    for m1, m2 in pairs:
        expected = max_rect_system_size(m1, m2)
        actual = extremal_size(Shape((m1, m2)), SearchConfig(mode="max")).value
        if actual != expected:
            failures.append(((m1, m2), expected, actual))
    report(2, f"exact rectangle maximum on {len(pairs)} boxes", failures, started, 300)


def test_criterion_3_minimum_cubic_system_size():
    started = time.perf_counter()
    cases = [(2, m) for m in range(1, 5)] + [(3, m) for m in range(1, 4)]
    failures = []
    for d, m in cases:
        actual = extremal_size(Shape((m,) * d), SearchConfig(mode="min", cubic=True)).value
        if actual != m:
            failures.append(((d, m), m, actual))
    report(3, f"minimum cubic-system size on {len(cases)} cubes", failures, started, 300)


def test_criterion_4_cubic_maximum_bound_and_equality():
    started = time.perf_counter()
    cases = [(2, m) for m in range(1, 5)] + [(3, m) for m in range(1, 4)]
    failures = []
    for d, m in cases:
        bound = int(max_cube_system_bound(d, m))
        actual = extremal_size(Shape((m,) * d), SearchConfig(mode="max", cubic=True)).value
        if actual > bound:
            failures.append(((d, m), f"<= {bound}", actual))
        if (d, m) == (2, 3) and actual != 5:
            failures.append(((d, m), 5, actual))
        if (d, m) == (3, 3) and actual != 9:
            failures.append(((d, m), 9, actual))
    report(4, f"cubic maximum bound on {len(cases)} cubes, equality at side 3", failures,
           started, 600)


def test_criterion_5_construction_maximality():
    started = time.perf_counter()
    failures = []
    checked = 0
    for dims in canonical_shapes(4, 5):
        system = nested_min_system(Shape(dims))
        checked += 1
        if len(system) != min_brick_system_size(Shape(dims)) or not is_maximal(system):
            failures.append(("nested-min", dims))
    for dims in [(2, 5, 1, 3), (1, 4, 2), (3, 5)]:  # spot-check unsorted side orders
        if not is_maximal(nested_min_system(Shape(dims))):
            failures.append(("nested-min", dims))
    for d in range(1, 4):
        for m in range(1, 6):
            system = nested_cubes(d, m)
            checked += 1
            if len(system) != m or not is_maximal(system):
                failures.append(("nested-cubes", (d, m)))
    for d in range(1, 4):
        for k in range(1, 4):
            system = subdivision_system(d, k)
            checked += 1
            if len(system) != max_cube_system_bound(d, 2 ** k - 1) or not is_maximal(system):
                failures.append(("subdivision", (d, k)))
    report(5, f"maximality of {checked} constructed systems", failures, started, 120)


def test_criterion_6_classification_completeness(maximal_systems_of):
    started = time.perf_counter()
    failures = []
    for dims in [(2, 1), (2, 2), (2, 3), (3, 3), (2, 2, 2)]:
        shape = Shape(dims)
        generated = {system.bricks for system in minimal_maximal_systems(shape)}
        best = min(len(system) for system in maximal_systems_of(dims))
        smallest = {
            system.bricks for system in maximal_systems_of(dims) if len(system) == best
        }
        if best != min_brick_system_size(shape):
            failures.append((dims, "oracle minimum differs from closed form", best))
        if generated != smallest:
            only_generated = generated - smallest
            only_oracle = smallest - generated
            failures.append((dims, f"{len(only_generated)} extra", f"{len(only_oracle)} missing"))
    report(6, "generator emits exactly the minimum-size systems on 5 shapes", failures,
           started, 900)


def test_criterion_7_oracle_equivalence():
    started = time.perf_counter()
    shapes = [
        dims
        for dims in canonical_shapes(4, 8)
        if brick_count(Shape(dims)) <= 40
    ]
    failures = []
    for dims in shapes:
        shape = Shape(dims)
        for cubic in (False, True):
            for mode in ("min", "max"):
                values = {
                    "front": extremal_size(
                        shape, SearchConfig(mode=mode, cubic=cubic)
                    ).value,
                    "flat": flat_extremal_size(
                        shape, SearchConfig(mode=mode, cubic=cubic)
                    ).value,
                }
                if len(set(values.values())) != 1:
                    failures.append((dims, cubic, mode, values))
    report(7, f"engine agreement on {len(shapes)} shapes x both modes x both flags",
           failures, started, 600)


def _corner_cells(shape):
    for corner in itertools.product((0, 1), repeat=shape.ndim):
        lo = tuple(0 if side == 0 else m - 1 for side, m in zip(corner, shape.dims))
        yield Brick(lo, tuple(a + 1 for a in lo))


def test_criterion_8_structure_of_every_maximal_system(maximal_systems_of):
    started = time.perf_counter()
    failures = []
    for dims in [(3, 3), (2, 3), (2, 2, 2)]:
        shape = Shape(dims)
        for system in maximal_systems_of(dims):
            members = max_elements(system)
            if shape.full_brick() not in system:
                failures.append((dims, "full brick missing", system.bricks))
            for member in system:
                if not is_maximal(restrict(system, member)):
                    failures.append((dims, "restriction not maximal", member))
            if len(members) <= 1:
                continue
            for cell in _corner_cells(shape):
                if not any(contains(member, cell) for member in members):
                    failures.append((dims, "unoccupied corner", cell))
            for profile in gap_profiles(shape, members):
                for gap in profile.gaps:
                    if gap.length > 2:
                        failures.append((dims, "gap longer than 2", gap))
                    elif gap.left_elementary is None or gap.right_elementary is None:
                        failures.append((dims, "gap reaches a corner", gap))
                    elif gap.length == 2 and gap.left_elementary and gap.right_elementary:
                        failures.append((dims, "length-2 gap between two cells", gap))
    for m in range(1, 7):
        for system in enumerate_maximal_systems(Shape((m,))):
            if len(system) != m:
                failures.append(((m,), "segment system of wrong size", system.bricks))
    report(8, "corner, gap, restriction and segment structure of every maximal system",
           failures, started, 300)


def test_criterion_9_sandwich_and_recorded_3d_maximum():
    started = time.perf_counter()
    shape = Shape((2, 2, 2))
    bounds = max_brick_system_bounds(shape)
    value = flat_extremal_size(shape, SearchConfig(mode="max")).value
    failures = []
    if not bounds.lower <= value:
        failures.append(("below sandwich lower bound", bounds.lower, value))
    if not value <= bounds.upper:
        failures.append(("above sandwich upper bound", bounds.upper, value))
    print(f"recorded: maximum maximal-system size in the 2x2x2 box = {value} "
          f"(sandwich [{bounds.lower}, {bounds.upper}])")
    report(9, f"3d maximum {value} sits in the sandwich", failures, started, 600)

"""Exact combinatorics of brick and cubic island systems in integer boxes.

Constructs, verifies, enumerates and searches laminar families of
axis-aligned lattice bricks: the minimum and maximum sizes of maximal
systems, the extremal constructions attaining them, and the structural
facts every maximal system obeys.
"""

from .constructors import (
    maximal_segment_systems,
    minimal_maximal_systems,
    nested_cubes,
    nested_min_system,
    subdivision_system,
)
from .errors import CapExceeded, DimensionMismatch, IslandError
from .formulas import (
    BoundPair,
    max_brick_system_bounds,
    max_cube_system_bound,
    max_rect_system_size,
    min_brick_system_size,
)
from .geometry import (
    Brick,
    Shape,
    brick_count,
    canonical_bricks,
    compatible,
    contains,
    disjoint,
    enumerate_bricks,
    shape_symmetries,
    transform_brick,
)
from .search import (
    ENGINE_VERSION,
    ExtremalReport,
    Front,
    SearchConfig,
    enumerate_maximal_systems,
    enumerate_saturated_fronts,
    extremal_size,
    flat_extremal_size,
    front_is_saturated,
)
from .system import (
    EdgeGap,
    GapProfile,
    IslandSystem,
    addable_bricks,
    canonical_form,
    gap_profiles,
    is_laminar,
    is_maximal,
    max_elements,
    non_maximal_restrictions,
    restrict,
)

__version__ = "0.1.0"

__all__ = [
    "Brick",
    "BoundPair",
    "CapExceeded",
    "DimensionMismatch",
    "EdgeGap",
    "ENGINE_VERSION",
    "ExtremalReport",
    "Front",
    "GapProfile",
    "IslandError",
    "IslandSystem",
    "SearchConfig",
    "Shape",
    "addable_bricks",
    "brick_count",
    "canonical_bricks",
    "canonical_form",
    "compatible",
    "contains",
    "disjoint",
    "enumerate_bricks",
    "enumerate_maximal_systems",
    "enumerate_saturated_fronts",
    "extremal_size",
    "flat_extremal_size",
    "front_is_saturated",
    "gap_profiles",
    "is_laminar",
    "is_maximal",
    "max_brick_system_bounds",
    "max_cube_system_bound",
    "max_elements",
    "max_rect_system_size",
    "maximal_segment_systems",
    "min_brick_system_size",
    "minimal_maximal_systems",
    "nested_cubes",
    "nested_min_system",
    "non_maximal_restrictions",
    "restrict",
    "shape_symmetries",
    "subdivision_system",
    "transform_brick",
]

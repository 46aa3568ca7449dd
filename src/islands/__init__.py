"""Exact combinatorics of brick and cubic island systems in integer boxes.

Constructs, verifies, enumerates and searches laminar families of
axis-aligned lattice bricks: the minimum and maximum sizes of maximal
systems, the extremal constructions attaining them, and the structural
facts every maximal system obeys.
"""

import types as _types

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
    compatible,
    contains,
    disjoint,
    enumerate_bricks,
    symmetric_images,
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
    restrict,
)

__version__ = "0.1.0"

# Every public binding above, and no module: the import block is the one list.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))

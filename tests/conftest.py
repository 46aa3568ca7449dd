import os
from pathlib import Path

from hypothesis import strategies as st

from islands import Brick, IslandSystem, Shape, compatible, enumerate_bricks

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """The environment of a child Python that imports ``islands`` from ``src``."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))


def B(lo, hi) -> Brick:
    return Brick(tuple(lo), tuple(hi))


@st.composite
def shapes(draw, max_dim=3, max_side=3):
    d = draw(st.integers(1, max_dim))
    return Shape(tuple(draw(st.integers(1, max_side)) for _ in range(d)))


@st.composite
def laminar_systems(draw, cubic=False):
    """A random valid island system: greedy-filter a random brick sample."""
    shape = draw(shapes())
    universe = list(enumerate_bricks(shape, cubic))
    picks = draw(st.lists(st.sampled_from(universe), max_size=8))
    chosen = []
    for brick in picks:
        if all(compatible(brick, other) for other in chosen):
            chosen.append(brick)
    return IslandSystem(shape, chosen, cubic=cubic)

import pytest

from isodiam.geometry import Ball, Space, bisector
from isodiam.regions import uniform_in_ball
from isodiam.rng import substream

SPACES = [Space.sphere(2), Space.euclidean(2), Space.hyperbolic(2)]
SPACE_IDS = ["S2", "E2", "H2"]


@pytest.fixture(params=SPACES, ids=SPACE_IDS)
def space(request):
    return request.param


def random_points(space, n, seed, spread=1.2):
    """Points scattered in a ball of the given radius around the base point."""
    rng = substream(seed)
    return uniform_in_ball(space, Ball(space.base_point, spread), rng, size=n)


def random_pairs(space, n, seed, spread=1.2):
    pts = random_points(space, 2 * n, seed, spread)
    return pts[:n], pts[n:]


def random_plane(space, rng):
    """The bisector of two random points near the base point, either way round."""
    near = Ball(space.base_point, 0.8)
    h = bisector(space, uniform_in_ball(space, near, rng), uniform_in_ball(space, near, rng))
    return h.flipped() if rng.random() < 0.5 else h

import sys

import numpy as np
import pytest

import isodiam.cli  # noqa: F401  (loaded up front, so stream_keys patches every namespace)
from isodiam import rng as isodiam_rng
from isodiam.geometry import Ball, Space, bisector, geodesic_point
from isodiam.regions import Difference, Union, uniform_in_ball
from isodiam.rng import substream

SPACES = [Space.sphere(2), Space.euclidean(2), Space.hyperbolic(2)]
SPACE_IDS = ["S2", "E2", "H2"]
#: S^n, H^n and R^n for n = 2..5, with ids in the style of SPACE_IDS
SPACES_TO_5 = [Space(c, n) for c in (1, -1, 0) for n in range(2, 6)]
SPACES_TO_5_IDS = [{1: "S", -1: "H", 0: "E"}[s.curvature] + str(s.dim) for s in SPACES_TO_5]


@pytest.fixture(params=SPACES, ids=SPACE_IDS)
def space(request):
    return request.param


@pytest.fixture
def stream_keys(monkeypatch):
    """Record the (seed, *path) key of every stream opened while the test runs.

    ``substream`` is replaced in every ``isodiam`` module namespace that holds
    it, since the modules import it by name.
    """
    keys = []
    original = isodiam_rng.substream

    def recording(seed, *path):
        keys.append((int(seed),) + tuple(int(p) for p in path))
        return original(seed, *path)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "isodiam" and getattr(module, "substream", None) is original:
            monkeypatch.setattr(module, "substream", recording)
    return keys


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


def _first_axis(space):
    axis = np.zeros(space.ambient_dim)
    axis[0] = 1.0
    return axis


def dented_ball_region(space):
    """Ball of radius 0.8 at the pole minus the ball of radius 0.25 centred 0.45
    along the first axis."""
    pole = space.base_point
    dent_center = geodesic_point(space, pole, _first_axis(space), 0.45)
    return Difference(Ball(pole, 0.8), Ball(dent_center, 0.25))


def two_caps_region(space):
    """Union of two balls of radius 0.52 centred 0.17 either way along the first
    axis from the pole."""
    pole = space.base_point
    axis = _first_axis(space)
    c1 = geodesic_point(space, pole, axis, 0.17)
    c2 = geodesic_point(space, pole, -axis, 0.17)
    return Union((Ball(c1, 0.52), Ball(c2, 0.52)))


def dumbbell_region(space):
    """Union of two balls of radius 0.3 centred 0.5 either way along the first
    axis from the pole: it fills under a third of its envelope, so a flow
    rebases it to a union of member balls."""
    pole = space.base_point
    axis = _first_axis(space)
    return Union((Ball(geodesic_point(space, pole, axis, 0.5), 0.3),
                  Ball(geodesic_point(space, pole, -axis, 0.5), 0.3)))

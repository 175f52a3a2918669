"""The compiled membership evaluator against a plain per-point evaluator.

The reference below follows the definitions one point at a time: geodesic
distance for balls, ``side`` for half spaces and the H^+ tie rule, and
``reflect`` for the mirror image under a symmetrization plane.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodiam import regions
from isodiam.geometry import (
    EUCLIDEAN,
    SIDE_TOL,
    Ball,
    Space,
    distance,
    normalize_to_space,
    plane_eval,
    reflect,
    side,
)
from isodiam.regions import (
    Difference,
    HalfSpace,
    Intersection,
    Symmetrized,
    Union,
    bounding_ball,
    contains,
    diameter,
    uniform_in_ball,
)
from isodiam.rng import substream

from conftest import random_plane

SPACES = {f"{name}{n}": Space(curvature, n)
          for name, curvature in (("R", 0), ("S", 1), ("H", -1)) for n in (2, 3)}


def reference(space, region, x) -> bool:
    if isinstance(region, Ball):
        return bool(distance(space, x, region.center) <= region.radius)
    if isinstance(region, HalfSpace):
        return side(space, region.plane, x) >= 0
    if isinstance(region, Union):
        return any(reference(space, c, x) for c in region.children)
    if isinstance(region, Intersection):
        return all(reference(space, c, x) for c in region.children)
    if isinstance(region, Difference):
        return reference(space, region.a, x) and not reference(space, region.b, x)
    if isinstance(region, Symmetrized):
        here = reference(space, region.inner, x)

        def there():
            return reference(space, region.inner, reflect(space, region.plane, x))

        if side(space, region.plane, x) >= 0:
            return here or there()
        return here and there()
    raise TypeError(type(region).__name__)


def _random_ball(space, rng):
    pole = Ball(space.base_point, 0.6)
    return Ball(uniform_in_ball(space, pole, rng), float(rng.uniform(0.2, 0.7)))


def _base_region(space, kind, rng):
    balls = [_random_ball(space, rng) for _ in range(4)]
    if kind == 0:
        return Union(tuple(balls[:int(rng.integers(2, 5))]))
    if kind == 1:
        return Difference(balls[0], Union(tuple(balls[1:3])))
    if kind == 2:
        return Intersection((balls[0], HalfSpace(random_plane(space, rng)), balls[1]))
    return Union((Difference(balls[0], balls[1]),
                  Intersection((balls[2], HalfSpace(random_plane(space, rng)))), balls[3]))


def _planes(region):
    if isinstance(region, Symmetrized):
        return [region.plane] + _planes(region.inner)
    if isinstance(region, HalfSpace):
        return [region.plane]
    if isinstance(region, (Union, Intersection)):
        return [p for c in region.children for p in _planes(c)]
    if isinstance(region, Difference):
        return _planes(region.a) + _planes(region.b)
    return []


def _on_plane(space, plane, pts):
    """The midpoints of x and its mirror: points on the plane itself."""
    raw = pts + reflect(space, plane, pts)
    return raw / 2.0 if space.curvature == EUCLIDEAN else normalize_to_space(space, raw)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(space_name=st.sampled_from(sorted(SPACES)), depth=st.integers(0, 9),
       kind=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_matches_per_point_reference(space_name, depth, kind, seed):
    space = SPACES[space_name]
    rng = substream(seed)
    region = _base_region(space, kind, rng)
    for _ in range(depth):
        region = Symmetrized(random_plane(space, rng), region)
    pts = [uniform_in_ball(space, bounding_ball(space, region), rng, size=40)]
    for plane in _planes(region):
        on = _on_plane(space, plane, uniform_in_ball(space, Ball(space.base_point, 0.8), rng, 12))
        assert np.all(np.abs(plane_eval(space, plane, on)) <= SIDE_TOL)
        pts.append(on)
    pts = np.concatenate(pts)
    expected = np.array([reference(space, region, x) for x in pts])
    assert np.array_equal(contains(space, region, pts), expected)


def _assert_matches_reference(space, region, pts):
    expected = np.array([reference(space, region, x) for x in pts])
    assert 0 < expected.sum() < len(pts)
    assert np.array_equal(contains(space, region, pts), expected)


@pytest.mark.parametrize("space_name", sorted(SPACES))
def test_union_cut_by_twelve_guard_balls(space_name):
    """A campaign region: a union intersected with 12 balls of radius D
    about points of it, as the diameter trim builds them."""
    space = SPACES[space_name]
    rng = substream(73)
    union = Union(tuple(_random_ball(space, rng) for _ in range(3)))
    envelope = bounding_ball(space, union)
    pts = uniform_in_ball(space, envelope, rng, size=400)
    members = pts[contains(space, union, pts)]
    D = 0.7 * diameter(space, members)[0]
    region = Intersection((union,) + tuple(Ball(w, D) for w in members[:12]))
    _assert_matches_reference(space, region, pts)


@pytest.mark.parametrize("space_name", sorted(SPACES))
def test_union_of_192_balls(space_name):
    """A flow's sparse rebase region, and the dense one: its envelope less
    the union."""
    space = SPACES[space_name]
    rng = substream(74)
    envelope = Ball(space.base_point, 0.8)
    centers = uniform_in_ball(space, envelope, rng, size=192)
    union = Union(tuple(Ball(c, 0.4 * 192 ** (-1 / space.dim)) for c in centers))
    pts = uniform_in_ball(space, envelope, rng, size=150)
    _assert_matches_reference(space, union, pts)
    _assert_matches_reference(space, Difference(envelope, union), pts)


@pytest.mark.parametrize("space_name", sorted(SPACES))
def test_each_symmetrized_level_at_most_doubles_the_queries(space_name, monkeypatch):
    space = SPACES[space_name]
    batches = []
    compile_group = regions._ball_group

    def counting_group(space, balls):
        group = compile_group(space, balls)

        def counted(pts):
            batches.append(len(pts))
            return group(pts)

        return counted

    monkeypatch.setattr(regions, "_ball_group", counting_group)
    rng = substream(71)
    region = _random_ball(space, rng)
    depth = 8
    for _ in range(depth):
        region = Symmetrized(random_plane(space, rng), region)
    pts = uniform_in_ball(space, bounding_ball(space, region), rng, size=500)
    contains(space, region, pts)
    assert 0 < len(batches) <= 2**depth

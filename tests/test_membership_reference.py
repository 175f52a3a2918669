"""The compiled membership evaluator against a plain per-point evaluator.

The reference below follows the definitions one point at a time: geodesic
distance for balls (one vector distance to the ball children of a union),
and, under a symmetrization plane, ``side`` with the H^+ tie rule and
``reflect`` for the mirror image.  A flow carries its rebase's core
balls up the chain as plain ball children of a union over each level; those
wrapped chains are checked against the reference over the plain chain,
which never sees the cores.
"""

import functools
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodiam import regions
from isodiam.geometry import (
    EUCLIDEAN,
    SIDE_TOL,
    Ball,
    Hyperplane,
    Space,
    distance,
    geodesic_point,
    normalize_to_space,
    plane_eval,
    random_unit_tangent,
    reflect,
    side,
    tangent_toward,
)
from isodiam.regions import (
    Difference,
    Intersection,
    Symmetrized,
    Union,
    bounding_ball,
    contains,
    diameter,
    uniform_in_ball,
    volume_estimate,
)
from isodiam.rng import substream
from isodiam.symmetrize import (
    CORE_MARGIN,
    REBASE_CORES,
    MetricsConfig,
    _map_cores,
    _rebase_approximation,
)

from conftest import dented_ball_region, dumbbell_region, random_plane

SPACES = {f"{name}{n}": Space(curvature, n)
          for name, curvature in (("R", 0), ("S", 1), ("H", -1)) for n in (2, 3)}


def reference(space, region, x) -> bool:
    if isinstance(region, Ball):
        return bool(distance(space, x, region.center) <= region.radius)
    if isinstance(region, Union):
        balls = [c for c in region.children if isinstance(c, Ball)]
        if balls and np.any(distance(space, x, np.stack([b.center for b in balls]))
                            <= np.array([b.radius for b in balls])):
            return True
        return any(reference(space, c, x) for c in region.children if not isinstance(c, Ball))
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
        return Intersection((balls[0], balls[1]))
    return Union((Difference(balls[0], balls[1]),
                  Intersection((balls[2], _random_ball(space, rng))), balls[3]))


def _planes(region):
    if isinstance(region, Symmetrized):
        return [region.plane] + _planes(region.inner)
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

    def counting_group(space, centers, radii):
        group = compile_group(space, centers, radii)

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




def _wrap(space, plane, region, cores):
    """One level as ``flow_step`` builds it: the symmetrized region, in a
    union with the images of its cores when any remain; and those images."""
    cores = _map_cores(space, plane, cores)
    level = Symmetrized(plane, region)
    return (Union((level,) + cores) if cores else level), cores


def _levels(space, base, cores, planes):
    """(plain, wrapped, cores) of each level of the chain over ``base``."""
    plain = wrapped = base
    out = []
    for plane in planes:
        plain = Symmetrized(plane, plain)
        wrapped, cores = _wrap(space, plane, wrapped, cores)
        out.append((plain, wrapped, cores))
    return out


REBASE_SPACES = ["H2", "H3", "R2", "S2", "S3"]


@functools.lru_cache(maxsize=None)
def _rebased(space_name, dense):
    """A flow's rebase of the dented ball (dense: the envelope less a union of
    holes) or of the dumbbell (sparse: a union of member balls), with its cores."""
    space = SPACES[space_name]
    region = dented_ball_region(space) if dense else dumbbell_region(space)
    target = volume_estimate(space, region, 4000, substream(91)).value
    base, cores = _rebase_approximation(space, region, target,
                                        MetricsConfig(volume_samples=2000), substream(92))
    assert isinstance(base, Difference if dense else Union)
    assert 0 < len(cores) <= REBASE_CORES
    return base, cores


def _carried(space, cores, planes):
    """The cores' images at the top of the chain, carried through the planes
    (innermost first) by the test itself: a core centred within CORE_MARGIN
    of a plane is dropped, one on its negative side is mirrored."""
    out = []
    for core in cores:
        c = core.center
        for plane in planes:
            v = plane.orientation * plane_eval(space, plane, c)
            if abs(v) <= CORE_MARGIN:
                break
            if v < 0:
                c = reflect(space, plane, c)
        else:
            out.append(Ball(c, core.radius))
    return out


def _beside_cores(space, plain, images, rng):
    """Rows 5e-4 beyond the rim of each core image that lie outside the
    region: the rows a core grown by 1e-3 would claim.  Up to two of 32 rim
    points per image that the evaluator of the plain chain rejects."""
    out = [np.empty((0, space.ambient_dim))]
    for core in images:
        rim = geodesic_point(space, core.center,
                             random_unit_tangent(space, core.center, rng, 32), core.radius + 5e-4)
        out.append(rim[~contains(space, plain, rim)][:2])
    return np.concatenate(out)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(space_name=st.sampled_from(REBASE_SPACES), dense=st.booleans(), depth=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
def test_wrapped_rebase_chains_match_the_reference(space_name, dense, depth, seed):
    """Rebased regions under 1-9 random planes, each level wrapped with its
    core images as the flow wraps it: every row, uniform in the envelope,
    inside a core image, just beyond its rim, or on a plane, is decided as
    the reference decides it over the plain chain."""
    space = SPACES[space_name]
    base, cores = _rebased(space_name, dense)
    rng = substream(seed)
    planes = [random_plane(space, rng) for _ in range(depth)]
    plain, region, images = _levels(space, base, cores, planes)[-1]
    carried = _carried(space, cores, planes)
    assert len(images) == len(carried)
    for got, want in zip(images, carried):
        assert np.array_equal(got.center, want.center) and got.radius == want.radius
    assert isinstance(region, Union) == bool(images)
    pts = [uniform_in_ball(space, bounding_ball(space, region), rng, size=40),
           _beside_cores(space, plain, images, rng)]
    pts += [uniform_in_ball(space, core, rng, size=2) for core in images[:4]]
    for plane in planes:
        on = _on_plane(space, plane, uniform_in_ball(space, Ball(space.base_point, 0.8), rng, 8))
        pts.append(on)
    pts = np.concatenate(pts)
    expected = np.array([reference(space, plain, x) for x in pts])
    assert np.array_equal(contains(space, region, pts), expected)


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize("space_name", REBASE_SPACES)
def test_wrapped_levels_keep_the_plain_envelope(space_name, dense):
    """Each wrapped level's bounding ball is the plain level's, bit for bit,
    and so is its symmetrized depth: the candidate comes first in the union,
    and its envelope holds every core image."""
    space = SPACES[space_name]
    base, cores = _rebased(space_name, dense)
    rng = substream(79)
    wrapped_levels = 0
    for plain, wrapped, images in _levels(space, base, cores,
                                          [random_plane(space, rng) for _ in range(9)]):
        want, got = bounding_ball(space, plain), bounding_ball(space, wrapped)
        assert np.array_equal(got.center, want.center) and got.radius == want.radius
        assert regions.symmetrized_depth(wrapped) == regions.symmetrized_depth(plain)
        wrapped_levels += bool(images)
    assert wrapped_levels > 0


@pytest.mark.parametrize("v, kept", [(0.5 * CORE_MARGIN, None), (-0.5 * CORE_MARGIN, None),
                                     (2 * CORE_MARGIN, "same"), (-2 * CORE_MARGIN, "mirror")],
                         ids=["within-plus", "within-minus", "beyond-plus", "beyond-minus"])
def test_a_core_centred_within_the_margin_of_a_plane_is_dropped(v, kept):
    """A deliberately false core about the pole, outside its region: one
    centred within CORE_MARGIN (in form value) of the plane is dropped, so
    the rows around it are decided by the chain; one just beyond the margin
    is kept or mirrored."""
    space = SPACES["S2"]
    pole = space.base_point
    far = [geodesic_point(space, pole, np.array([0.0, s, 0.0]), 1.2) for s in (1.0, -1.0)]
    bogus = Ball(pole, 0.2)
    plane = Hyperplane(np.array([np.sqrt(1.0 - v * v), 0.0, v]))
    region, cores = _wrap(space, plane, Union(tuple(Ball(c, 0.3) for c in far)), (bogus,))
    if kept is None:
        assert cores == () and isinstance(region, Symmetrized)
        pts = uniform_in_ball(space, bogus, substream(93), size=50)
        _assert_matches_reference_all_out(space, region, pts)
    else:
        (core,) = cores
        assert core.radius == 0.2
        want = pole if kept == "same" else reflect(space, plane, pole)
        assert np.array_equal(core.center, want)


def _assert_matches_reference_all_out(space, region, pts):
    assert not any(reference(space, region, x) for x in pts)
    assert not contains(space, region, pts).any()


def _cored_base(space, rng, cores):
    """A union of three random balls, and the first ``cores`` of their
    concentric half balls as its cores."""
    balls = [_random_ball(space, rng) for _ in range(3)]
    return Union(tuple(balls)), tuple(Ball(b.center, b.radius / 2.0) for b in balls[:cores])


def _wrapped_chain(space, rng, depth, cores):
    """A cored base under ``depth`` (at least 1) random planes, each level
    wrapped as the flow wraps it; and the plain chain."""
    base, images = _cored_base(space, rng, cores)
    plain, wrapped, _ = _levels(space, base, images,
                                [random_plane(space, rng) for _ in range(depth)])[-1]
    return wrapped, plain


def _count_groups(monkeypatch):
    """The (centers, radii) of each ball group ``_ball_group`` packs, from here on."""
    groups = []
    ball_group = regions._ball_group

    def counting_group(space, centers, radii):
        groups.append((centers, radii))
        return ball_group(space, centers, radii)

    monkeypatch.setattr(regions, "_ball_group", counting_group)
    return groups


@pytest.mark.parametrize("space_name", sorted(SPACES))
def test_repeated_queries_compile_a_chain_once(space_name, monkeypatch):
    """Every query after the first reuses the wrapped chain's evaluator: no
    ball group is packed again, and the packed arrays it shares are read-only."""
    space = SPACES[space_name]
    groups = _count_groups(monkeypatch)
    rng = substream(75)
    region, _ = _wrapped_chain(space, rng, 6, cores=2)
    pts = uniform_in_ball(space, bounding_ball(space, region), rng, size=200)
    first = contains(space, region, pts)
    built = len(groups)
    assert built > 0
    for _ in range(3):
        assert np.array_equal(contains(space, region, pts), first)
        assert contains(space, region, pts[0]) == first[0]
    assert len(groups) == built
    for centers, radii in groups:
        assert not centers.flags.writeable and not radii.flags.writeable


@pytest.mark.parametrize("space_name", sorted(SPACES))
def test_a_growing_chain_compiles_each_level_once(space_name, monkeypatch):
    """As a flow grows its wrapped chain, one level per step, queried several
    times a step, each level packs its core images once, on its first query,
    and reuses the chain below."""
    space = SPACES[space_name]
    groups = _count_groups(monkeypatch)
    rng = substream(76)
    region, cores = _cored_base(space, rng, 2)
    # compile the base first, so each step below counts its own level alone
    contains(space, region, region.children[0].center)
    for _ in range(8):
        built = len(groups)
        region, cores = _wrap(space, random_plane(space, rng), region, cores)
        pts = uniform_in_ball(space, bounding_ball(space, region), rng, size=100)
        for _ in range(4):
            contains(space, region, pts)
        assert [len(radii) for _, radii in groups[built:]] == ([len(cores)] if cores else [])


@pytest.mark.parametrize("space_name", sorted(SPACES))
def test_cold_warm_and_threaded_masks_agree(space_name):
    """A wrapped chain whose base has as many cores as leaves answers as the
    reference does over the plain chain with a cold cache, with a warm one,
    and from two threads querying one fresh copy of it at once."""
    space = SPACES[space_name]
    region, plain = _wrapped_chain(space, substream(77), 5, cores=3)
    fresh, _ = _wrapped_chain(space, substream(77), 5, cores=3)
    pts = uniform_in_ball(space, bounding_ball(space, region), substream(78), size=120)
    expected = np.array([reference(space, plain, x) for x in pts])
    for cached in (regions._compile, regions.bounding_ball, regions.symmetrized_depth):
        cached.cache_clear()
    assert np.array_equal(contains(space, region, pts), expected)
    assert np.array_equal(contains(space, region, pts), expected)
    barrier = threading.Barrier(2, timeout=60.0)

    def query():
        barrier.wait()
        return contains(space, fresh, pts)

    with ThreadPoolExecutor(max_workers=2) as pool:
        masks = [f.result() for f in [pool.submit(query) for _ in range(2)]]
    for mask in masks:
        assert np.array_equal(mask, expected)

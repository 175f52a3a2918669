import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from isodiam.geometry import (
    Ball,
    Hyperplane,
    Space,
    _radial_coeffs,
    ball_volume,
    bisector,
    distance,
    form,
    geodesic_point,
    random_unit_tangent,
    reflect,
    side,
)
from isodiam.regions import (
    DEFAULT_DEPTH_CAP,
    Difference,
    Intersection,
    PointCloud,
    RegionDepthError,
    Symmetrized,
    VolumeEstimate,
    Union,
    _BLOCK,
    _ball_blocks,
    _pairwise_extremes,
    bounding_ball,
    contains,
    diameter,
    hausdorff,
    sample,
    symmetrized_depth,
    uniform_in_ball,
    volume_estimate,
)
from isodiam.rng import substream

from conftest import SPACES_TO_5, SPACES_TO_5_IDS, dented_ball_region, random_plane, random_points

S2 = Space.sphere(2)
E2 = Space.euclidean(2)
H2 = Space.hyperbolic(2)
E = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])
SPACES_TO_4 = [s for s in SPACES_TO_5 if s.dim <= 4]
SPACES_TO_4_IDS = [i for s, i in zip(SPACES_TO_5, SPACES_TO_5_IDS) if s.dim <= 4]


def three_chunk_cloud(space, n, seed):
    """A cloud for the multi-chunk metric tests; on H2 it reaches 3 from the base point."""
    return random_points(space, n, seed, spread=3.0 if space == H2 else 1.2)


def rows_last(pts, rows):
    """The cloud reordered so that the given rows sit at its end, in the last chunk."""
    rest = np.setdiff1d(np.arange(len(pts)), rows)
    return pts[np.concatenate([rest, rows])]


def plane_through_pole(space):
    n = np.zeros(space.ambient_dim)
    n[0] = 1.0
    return Hyperplane(n, 1)


class TestContains:
    def test_ball_contains_center(self):
        assert contains(S2, Ball(E, 1.0), E)

    def test_ball_boundary_semantics(self):
        x = geodesic_point(S2, E, EX, 0.5)
        assert contains(S2, Ball(E, 0.5 + 1e-9), x)
        assert not contains(S2, Ball(E, 0.5 - 1e-9), x)

    def test_csg_boolean_algebra(self, space):
        pole = space.base_point
        a = Ball(pole, 0.8)
        off = geodesic_point(space, pole, plane_through_pole(space).normal
                             if space.curvature == 0 else
                             np.eye(space.ambient_dim)[0], 0.5)
        b = Ball(off, 0.4)
        pts = random_points(space, 500, seed=40, spread=1.4)
        in_a = contains(space, a, pts)
        in_b = contains(space, b, pts)
        assert np.array_equal(contains(space, Union((a, b)), pts), in_a | in_b)
        assert np.array_equal(contains(space, Intersection((a, b)), pts), in_a & in_b)
        assert np.array_equal(contains(space, Difference(a, b), pts), in_a & ~in_b)

    def test_symmetrized_of_symmetric_region_matches_inner(self, space):
        # a ball centered on the plane is sigma-invariant, so membership reduces
        h = plane_through_pole(space)
        ball = Ball(space.base_point, 0.7)
        tau = Symmetrized(h, ball)
        pts = random_points(space, 1000, seed=41, spread=1.3)
        assert np.array_equal(contains(space, tau, pts), contains(space, ball, pts))

    def test_symmetrized_of_offside_ball_matches_mirror(self, space):
        # ball strictly inside H^-: the symmetrization is the reflected ball
        h = plane_through_pole(space)
        axis = np.zeros(space.ambient_dim)
        axis[0] = -1.0
        center = geodesic_point(space, space.base_point, axis, 0.6)
        ball = Ball(center, 0.3)
        if side(space, h, center) > 0:
            h = h.flipped()
        assert side(space, h, center) == -1
        tau = Symmetrized(h, ball)
        mirror = Ball(reflect(space, h, center), 0.3)
        pts = random_points(space, 1000, seed=42, spread=1.3)
        assert np.array_equal(contains(space, tau, pts), contains(space, mirror, pts))

    def test_counting_identity_exact(self, space):
        pole = space.base_point
        axis = np.zeros(space.ambient_dim)
        axis[0] = 1.0
        x = Union((Ball(geodesic_point(space, pole, axis, 0.45), 0.5),
                   Difference(Ball(pole, 0.6), Ball(geodesic_point(space, pole, -axis, 0.3), 0.2))))
        rng = substream(43)
        for k in range(5):
            a = uniform_in_ball(space, Ball(pole, 1.2), rng)
            b = uniform_in_ball(space, Ball(pole, 1.2), rng)
            h = bisector(space, a, b)
            tau = Symmetrized(h, x)
            pts = uniform_in_ball(space, Ball(pole, 1.3), rng, size=2000)
            mirrored = reflect(space, h, pts)
            lhs = contains(space, tau, pts).astype(int) + contains(space, tau, mirrored).astype(int)
            rhs = contains(space, x, pts).astype(int) + contains(space, x, mirrored).astype(int)
            assert np.array_equal(lhs, rhs)

    def test_depth_cap_enforced(self):
        region = Ball(E, 0.5)
        h = plane_through_pole(S2)
        for _ in range(DEFAULT_DEPTH_CAP + 1):
            region = Symmetrized(h, region)
        with pytest.raises(RegionDepthError):
            contains(S2, region, E)
        assert symmetrized_depth(region) == DEFAULT_DEPTH_CAP + 1

    def test_scalar_and_batch_agree(self, space):
        ball = Ball(space.base_point, 0.6)
        pts = random_points(space, 50, seed=44)
        batch = contains(space, ball, pts)
        each = np.array([contains(space, ball, p) for p in pts])
        assert np.array_equal(batch, each)


class TestBoundingBall:
    def test_ball_bounds_itself(self):
        b = Ball(E, 0.4)
        assert bounding_ball(S2, b) is b

    def test_union_bound_contains_by_sampling(self, space):
        h = plane_through_pole(space)
        axis = np.zeros(space.ambient_dim)
        axis[0] = 1.0
        ball = Ball(geodesic_point(space, space.base_point, axis, 0.5), 0.35)
        mirrored = Ball(reflect(space, h, ball.center), ball.radius)
        region = Union((ball, mirrored))
        env = bounding_ball(space, region)
        cloud = sample(space, region, 800.0, substream(46))
        assert len(cloud) > 0
        assert np.all(distance(space, cloud.points, env.center) <= env.radius + 1e-9)

    def test_intersection_uses_smallest_child(self):
        a = Ball(E, 0.3)
        b = Ball(E, 0.9)
        assert bounding_ball(S2, Intersection((b, a))).radius == 0.3

    def test_symmetrized_bound_covers_both_sides(self, space):
        h = plane_through_pole(space)
        axis = np.zeros(space.ambient_dim)
        axis[0] = -1.0
        ball = Ball(geodesic_point(space, space.base_point, axis, 0.6), 0.3)
        tau = Symmetrized(h, ball)
        env = bounding_ball(space, tau)
        cloud = sample(space, tau, 600.0, substream(47))
        assert np.all(distance(space, cloud.points, env.center) <= env.radius + 1e-9)


class TestSample:
    def test_ball_envelope_accepts_everything(self):
        cloud = sample(S2, Ball(E, 0.7), 2000.0, substream(48))
        expected = 2000.0 * ball_volume(S2, 0.7)
        assert len(cloud) == int(np.ceil(expected))
        assert cloud.weight == pytest.approx(1 / 2000.0)

    def test_empty_intersection_keeps_no_points_silently(self):
        # every caller checks the count and says so once, in its own words
        a = Ball(geodesic_point(S2, E, EX, 1.2), 0.2)
        b = Ball(geodesic_point(S2, E, -EX, 1.2), 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = sample(S2, Intersection((a, b)), 500.0, substream(49))
        assert len(cloud) == 0

    def test_cap_count_within_3_sigma(self):
        # cap area oracle: 2*pi*(1 - cos r)
        r = math.pi / 4
        density = 1e4
        region = Difference(Ball(E, math.pi / 2), Ball(geodesic_point(S2, E, EX, 2.0), 0.01))
        env_vol = ball_volume(S2, math.pi / 2)
        cap_vol = 2 * math.pi * (1 - math.cos(r))
        cloud = sample(S2, Ball(E, r), density, substream(50))
        # envelope is the cap itself here, so make a nontrivial variant too
        tau = Intersection((Ball(E, math.pi / 2), Ball(E, r)))
        cloud2 = sample(S2, tau, density, substream(51))
        n = int(np.ceil(density * env_vol))
        p = cap_vol / env_vol
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(len(cloud2) - n * p) <= 3 * sigma
        assert abs(len(cloud) - density * cap_vol) <= 1

    def test_membership_of_samples(self, space):
        region = Difference(Ball(space.base_point, 0.8),
                            Ball(space.base_point, 0.3))
        cloud = sample(space, region, 500.0, substream(52))
        assert np.all(contains(space, region, cloud.points))

    def test_determinism(self, space):
        a = sample(space, Ball(space.base_point, 0.9), 700.0, substream(53))
        b = sample(space, Ball(space.base_point, 0.9), 700.0, substream(53))
        assert np.array_equal(a.points, b.points)

    def test_volume_estimate_property(self):
        cloud = PointCloud(points=np.zeros((7, 3)), weight=0.25)
        assert cloud.volume_estimate == pytest.approx(7 * 0.25)


RADIAL_SPACES = {"R2": E2, "S2": S2, "H2": H2, "S3": Space.sphere(3), "H3": Space.hyperbolic(3),
                 "S4": Space.sphere(4), "H4": Space.hyperbolic(4)}
RADIAL_CASES = [(name, r) for name, space in RADIAL_SPACES.items()
                for r in [1e-6, 0.7] + {1: [3.0, math.pi], 0: [], -1: [5.0]}[space.curvature]]


class FixedRadii:
    """A generator whose uniforms are fixed, so a test chooses the radius quantiles."""

    def __init__(self, seed, u):
        self._rng = substream(seed)
        self._u = np.asarray(u, dtype=float)

    def standard_normal(self, shape):
        return self._rng.standard_normal(shape)

    def random(self, m):
        assert m == len(self._u)
        return self._u.copy()


def radial_density(space):
    k = space.dim - 1
    return {1: lambda s: math.sin(s) ** k, 0: lambda s: s ** k,
            -1: lambda s: math.sinh(s) ** k}[space.curvature]


def reference_quantile(space, r, u):
    """Bisection on the adaptive-quadrature CDF; beyond the median, on the outer mass."""
    f = radial_density(space)

    def mass(a, b):
        # quad reports roundoff on intervals a few hundred ulps wide next to the
        # rim, where its value is already exact to far more than the 1e-12 asked
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            return integrate.quad(f, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]

    total = mass(0.0, r)
    lo, hi = 0.0, r
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = mass(0.0, mid) <= u * total if u <= 0.5 else (1.0 - u) * total <= mass(mid, r)
        lo, hi = (mid, hi) if below else (lo, mid)
    return 0.5 * (lo + hi)


def radius_from_pole(space, pts):
    """Distance of each point from the base point, with full relative precision."""
    rho = np.linalg.norm(pts[:, :-1], axis=1)
    if space.curvature == 1:
        return np.arctan2(rho, pts[:, -1])
    if space.curvature == -1:
        return np.arcsinh(rho)
    return np.linalg.norm(pts, axis=1)


#: antiderivatives of sin^(n-1) and sinh^(n-1) vanishing at 0, up to a constant factor
RADIAL_MASS = {
    (1, 2): lambda t: 1.0 - np.cos(t),
    (-1, 2): lambda t: np.cosh(t) - 1.0,
    (1, 3): lambda t: t - np.sin(t) * np.cos(t),
    (-1, 3): lambda t: np.sinh(t) * np.cosh(t) - t,
    (1, 4): lambda t: 2 / 3 - np.cos(t) + np.cos(t) ** 3 / 3,
    (-1, 4): lambda t: np.cosh(t) ** 3 / 3 - np.cosh(t) + 2 / 3,
}


def transported_frame(space, R, w, rng):
    """A ball center R from the base point along the unit spatial direction w, and
    an orthonormal tangent frame there: the geodesic's velocity, then an
    orthonormal complement of w in the spatial coordinates, padded with a zero."""
    n = space.dim
    q, _ = np.linalg.qr(np.column_stack([w, rng.standard_normal((n, n - 1))]))
    if space.curvature == 1:
        center = np.append(math.sin(R) * w, math.cos(R))
        velocity = np.append(math.cos(R) * w, -math.sin(R))
    else:
        center = np.append(math.sinh(R) * w, math.cosh(R))
        velocity = np.append(math.cosh(R) * w, math.sinh(R))
    rest = np.column_stack([q[:, 1:].T, np.zeros(n - 1)])
    return center, np.vstack([velocity, rest])


ISOTROPY_CASES = [("S2", 0.7), ("S2", 3.0), ("H2", 0.7), ("H2", 3.0),
                  ("H2", 8.0), ("H2", 12.0), ("H3", 8.0), ("H3", 12.0)]


def radial_cdf(space, r):
    """Closed-form CDF of the radius of a uniform draw in a ball of radius r."""
    if space.curvature == 0:
        return lambda t: (t / r) ** space.dim
    mass = RADIAL_MASS[space.curvature, space.dim]
    return lambda t: mass(t) / mass(r)


class TestUniformInBall:
    @pytest.mark.parametrize("name, r", RADIAL_CASES)
    def test_quantiles_match_brute_force(self, name, r):
        space = RADIAL_SPACES[name]
        u = np.array([0.0, 1e-12, 0.5, 1.0 - 2.0 ** -53, 1.0])
        pts = uniform_in_ball(space, Ball(space.base_point, r), FixedRadii(58, u), size=len(u))
        t = radius_from_pole(space, pts)
        want = np.array([reference_quantile(space, r, v) for v in u])
        assert np.max(np.abs(t - want)) <= 1e-12

    @pytest.mark.parametrize("name", RADIAL_SPACES)
    def test_radius_ks_on_a_million_draws(self, name):
        space = RADIAL_SPACES[name]
        ball = Ball(space.base_point, 2.5 if space.curvature == 1 else 1.2)
        rng = substream(59)
        ts = []
        for _ in range(5):
            pts = uniform_in_ball(space, ball, rng, size=200_000)
            assert np.all(contains(space, ball, pts))
            ts.append(radius_from_pole(space, pts))
        res = stats.kstest(np.concatenate(ts), radial_cdf(space, ball.radius))
        assert res.pvalue > 0.01

    @pytest.mark.parametrize("name", RADIAL_SPACES)
    def test_draws_inside_off_center_balls(self, name):
        space = RADIAL_SPACES[name]
        rng = substream(60)
        for r in (0.1, 0.7, 2.0):
            ball = Ball(uniform_in_ball(space, Ball(space.base_point, 1.0), rng), r)
            assert np.all(contains(space, ball, uniform_in_ball(space, ball, rng, size=20_000)))
            near_rim = 1.0 - np.logspace(-3, -9, 7)
            rim = uniform_in_ball(space, ball, FixedRadii(61, near_rim), size=len(near_rim))
            assert np.all(contains(space, ball, rim))

    @pytest.mark.parametrize("name, R", ISOTROPY_CASES)
    def test_isotropic_off_the_pole(self, name, R):
        """Radius and direction of draws in a ball centred R from the pole follow
        the radial law and the uniform law on the unit sphere, measured in a
        frame built here rather than by ``geometry.frame``."""
        space = RADIAL_SPACES[name]
        rng = substream(65, ISOTROPY_CASES.index((name, R)))
        w = rng.standard_normal(space.dim)
        center, axes = transported_frame(space, R, w / np.linalg.norm(w), rng)
        ball = Ball(center, 0.5)
        pts = uniform_in_ball(space, ball, rng, size=20_000)
        assert np.all(contains(space, ball, pts))
        res = stats.kstest(distance(space, center, pts), radial_cdf(space, ball.radius))
        assert res.pvalue > 0.01
        # sin t or sinh t times the direction's coordinates in the test's frame
        sign = 1.0 if space.curvature == 1 else -1.0
        y = sign * form(space, pts[:, None, :], axes[None, :, :])
        if space.dim == 3:
            res = stats.kstest(y[:, 0] / np.linalg.norm(y, axis=1), "uniform", args=(-1.0, 2.0))
            assert res.pvalue > 0.01
        res = stats.kstest(np.arctan2(y[:, -1], y[:, -2]), "uniform",
                           args=(-math.pi, 2.0 * math.pi))
        assert res.pvalue > 0.01

    def test_mean_radius_spherical_oracle(self):
        # quadrature oracle: E[t] = int t sin t / int sin t over [0, pi/2]
        r = math.pi / 2
        num = integrate.quad(lambda t: t * math.sin(t), 0, r)[0]
        den = integrate.quad(math.sin, 0, r)[0]
        rng = substream(54)
        pts = uniform_in_ball(S2, Ball(E, r), rng, size=40000)
        ts = distance(S2, pts, E)
        mean = float(np.mean(ts))
        sigma = float(np.std(ts) / math.sqrt(len(ts)))
        assert abs(mean - num / den) <= 3 * sigma

    def test_euclidean_radius_ks(self):
        r = 1.7
        rng = substream(55)
        pts = uniform_in_ball(E2, Ball(np.zeros(2), r), rng, size=5000)
        ts = np.linalg.norm(pts, axis=1)
        res = stats.kstest(ts, lambda t: (t / r) ** 2)
        assert res.pvalue > 0.01

    def test_outputs_inside_ball(self, space):
        ball = Ball(space.base_point, 0.9)
        rng = substream(56)
        pts = uniform_in_ball(space, ball, rng, size=3000)
        assert np.all(contains(space, ball, pts))

    def test_single_draw_shape(self, space):
        rng = substream(57)
        p = uniform_in_ball(space, Ball(space.base_point, 0.5), rng)
        assert p.shape == (space.ambient_dim,)


class TestDiameter:
    def test_two_points(self, space):
        pts = random_points(space, 2, seed=58)
        d, a, b = diameter(space, pts)
        assert d == pytest.approx(float(distance(space, pts[0], pts[1])), abs=1e-14)

    def test_cap_cloud_diameter_bound(self):
        r = 0.6
        cloud = sample(S2, Ball(E, r), 3000.0, substream(59))
        d, _, _ = diameter(S2, cloud)
        assert d <= 2 * r + 1e-9
        assert d >= 2 * r - 0.05

    def test_against_double_loop_oracle(self, space):
        pts = random_points(space, 50, seed=60)
        best = -1.0
        pair = None
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = float(distance(space, pts[i], pts[j]))
                if d > best:
                    best, pair = d, (i, j)
        d, a, b = diameter(space, pts)
        assert abs(d - best) <= 1e-12
        assert {tuple(a), tuple(b)} == {tuple(pts[pair[0]]), tuple(pts[pair[1]])}

    def test_three_chunks_against_distance_matrix(self, space):
        pts = three_chunk_cloud(space, 1200, seed=65)
        dist = distance(space, pts[:, None, :], pts[None, :, :])
        pts = rows_last(pts, np.unravel_index(np.argmax(dist), dist.shape))
        dist = distance(space, pts[:, None, :], pts[None, :, :])
        diam, bi, bj, spacing = _pairwise_extremes(space, pts)
        assert bi != bj
        assert abs(float(dist[bi, bj]) - diam) <= 1e-9
        assert abs(float(dist.max()) - diam) <= 1e-9
        np.fill_diagonal(dist, np.inf)
        assert abs(float(dist.min(axis=1).mean()) - spacing) <= 1e-9

    def test_empty_cloud_raises(self):
        with pytest.raises(ValueError):
            diameter(S2, np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows_are_refused_by_name(self, bad):
        # a NaN row used to drop out of the scan and leave a diameter of 0.0
        pts = [[0.0, 0.0, 1.0], [bad, 0.0, 1.0], [0.1, 0.0, 0.995], [0.0, bad, 1.0]]
        with pytest.raises(ValueError) as info:
            diameter(S2, pts)
        assert str(info.value) == (f"diameter of a cloud with non-finite coordinates: "
                                   f"row 1 is [{bad}, 0.0, 1.0]")


class TestHausdorff:
    def test_identical_clouds(self, space):
        pts = random_points(space, 300, seed=61)
        # floor comes from arccos/arccosh conditioning at zero distance
        assert hausdorff(space, pts, pts) <= 1e-7

    def test_singletons(self, space):
        a, b = random_points(space, 2, seed=62)
        assert hausdorff(space, a[None, :], b[None, :]) == pytest.approx(
            float(distance(space, a, b)), abs=1e-12)

    def test_three_point_enumeration(self, space):
        a = random_points(space, 3, seed=63)
        b = random_points(space, 3, seed=64)
        directed_ab = max(min(float(distance(space, x, y)) for y in b) for x in a)
        directed_ba = max(min(float(distance(space, x, y)) for x in a) for y in b)
        assert hausdorff(space, a, b) == pytest.approx(max(directed_ab, directed_ba), abs=1e-12)

    def test_three_chunks_against_distance_matrix(self, space):
        a = three_chunk_cloud(space, 1200, seed=66)
        b = three_chunk_cloud(space, 1100, seed=67)
        dist = distance(space, a[:, None, :], b[None, :, :])
        brute = max(float(dist.min(axis=1).max()), float(dist.min(axis=0).max()))
        a = rows_last(a, [np.argmax(dist.min(axis=1))])
        b = rows_last(b, [np.argmax(dist.min(axis=0))])
        assert abs(hausdorff(space, a, b) - brute) <= 1e-9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            hausdorff(S2, np.zeros((0, 3)), np.zeros((1, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("which", ["first", "second"])
    def test_non_finite_rows_are_refused_by_name(self, which, bad):
        good = np.array([[0.0, 0.0, 1.0], [0.1, 0.0, math.sqrt(0.99)]])
        broken = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [bad, 0.0, 1.0]])
        with pytest.raises(ValueError) as info:
            hausdorff(S2, *((broken, good) if which == "first" else (good, broken)))
        assert str(info.value) == (f"hausdorff of the {which} cloud with non-finite "
                                   f"coordinates: row 2 is [{bad}, 0.0, 1.0]")


class TestDiameterMonotonicity:
    def test_symmetrized_cloud_never_wider(self, space):
        # tau is carved out of X union sigma(X), so its sampled diameter stays
        # below the diameter of the X cloud augmented with its reflections
        pole = space.base_point
        D = 1.2
        axis = np.zeros(space.ambient_dim)
        axis[0] = 1.0
        x = Difference(Ball(pole, D / 2.0),
                       Ball(geodesic_point(space, pole, axis, 0.3), 0.2))
        h = bisector(space, geodesic_point(space, pole, axis, 0.4), pole)
        tau = Symmetrized(h, x)
        tau_cloud = sample(space, tau, 800.0, substream(71))
        x_cloud = sample(space, x, 800.0, substream(72))
        augmented = np.vstack([x_cloud.points, reflect(space, h, x_cloud.points)])
        d_tau, _, _ = diameter(space, tau_cloud)
        d_aug, _, _ = diameter(space, augmented)
        assert d_tau <= d_aug + 1e-9
        # and the exact oracle bound: symmetrization never increases the diameter
        assert d_tau <= D + 1e-9


class TestVolumeEstimate:
    def test_cap_oracle(self):
        # pi/4 cap written so its envelope stays the loose pi/2 ball
        half = Ball(E, math.pi / 2)
        region = Difference(half, Difference(half, Ball(E, math.pi / 4)))
        est = volume_estimate(S2, region, 40000, substream(65))
        truth = 2 * math.pi * (1 - math.cos(math.pi / 4))
        assert est.std_error > 0
        assert abs(est.value - truth) <= 3 * est.std_error

    def test_self_difference_is_empty(self, space):
        b = Ball(space.base_point, 0.5)
        est = volume_estimate(space, Difference(b, b), 2000, substream(66))
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_symmetrization_preserves_volume(self, space):
        pole = space.base_point
        axis = np.zeros(space.ambient_dim)
        axis[0] = 1.0
        x = Union((Ball(geodesic_point(space, pole, axis, 0.4), 0.45), Ball(pole, 0.5)))
        h = bisector(space, geodesic_point(space, pole, axis, 0.3), pole)
        tau = Symmetrized(h, x)
        ex = volume_estimate(space, x, 60000, substream(67))
        et = volume_estimate(space, tau, 60000, substream(68))
        combined = math.hypot(ex.std_error, et.std_error)
        assert abs(ex.value - et.value) <= 3 * combined

    def test_min_samples_enforced(self):
        with pytest.raises(ValueError):
            volume_estimate(S2, Ball(E, 0.5), 50, substream(69))

    @pytest.mark.parametrize("samples", [150.7, 200.0, True, "200", math.nan])
    def test_rejects_non_integer_samples(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            volume_estimate(S2, Ball(E, 0.5), samples, substream(69))

    def test_takes_numpy_integer_samples(self):
        est = volume_estimate(S2, Ball(E, 0.5), np.int64(500), substream(69))
        assert est == volume_estimate(S2, Ball(E, 0.5), 500, substream(69))
        assert type(est.samples_used) is int

    @pytest.mark.parametrize("size", [100, _BLOCK, 6 * _BLOCK + 1695])
    @pytest.mark.parametrize("space", SPACES_TO_4, ids=SPACES_TO_4_IDS)
    def test_blocks_match_one_whole_batch(self, space, size):
        """The blocks have the bits of draws solved and formed in one batch, and
        the volume estimate those of one contains call on them."""
        region = Symmetrized(random_plane(space, substream(73)), dented_ball_region(space))
        env = bounding_ball(space, region)
        blocks = list(_ball_blocks(space, env, substream(74), size))
        assert [len(b) for b in blocks] == [min(_BLOCK, size - i) for i in range(0, size, _BLOCK)]
        rng = substream(74)
        dirs = random_unit_tangent(space, env.center, rng, size)
        a, b = _radial_coeffs(space, env.radius, rng.random(size))
        whole = np.asarray(a)[..., None] * env.center + np.asarray(b)[..., None] * dirs
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        assert uniform_in_ball(space, env, substream(74), size=size).tobytes() == whole.tobytes()
        inside = contains(space, region, whole)
        assert np.array_equal(np.concatenate([contains(space, region, b) for b in blocks]),
                              inside)
        p = np.count_nonzero(inside) / size
        v_env = ball_volume(space, env.radius)
        est = volume_estimate(space, region, size, substream(74))
        assert est == VolumeEstimate(value=v_env * p,
                                     std_error=v_env * math.sqrt(p * (1.0 - p) / size),
                                     samples_used=size)

    def test_ball_matches_quadrature_over_seeds(self):
        # statistical calibration of the estimator over 100 seeds
        region = Intersection((Ball(E, 1.1), Ball(E, 0.8)))
        truth = ball_volume(S2, 0.8)
        hits = 0
        for seed in range(100):
            est = volume_estimate(S2, region, 4000, substream(seed))
            if abs(est.value - truth) <= 3 * est.std_error:
                hits += 1
        assert hits >= 96

    #: 40-digit closed forms of the ball volume on S^n, H^n and R^n, n = 2, 3
    CLOSED_FORMS = {
        (1, 2): lambda r: 2 * mpmath.pi * (1 - mpmath.cos(r)),
        (-1, 2): lambda r: 2 * mpmath.pi * (mpmath.cosh(r) - 1),
        (0, 2): lambda r: mpmath.pi * r ** 2,
        (1, 3): lambda r: mpmath.pi * (2 * r - mpmath.sin(2 * r)),
        (-1, 3): lambda r: mpmath.pi * (mpmath.sinh(2 * r) - 2 * r),
        (0, 3): lambda r: 4 * mpmath.pi * r ** 3 / 3,
    }

    @pytest.mark.parametrize("curvature, dim, offset, radius", [
        (1, 2, 0.0, 0.8), (1, 2, 1.1, 0.3), (1, 2, 0.0, math.pi),
        (1, 3, 0.4, 1.7), (1, 3, 0.0, 3.0),
        (-1, 2, 0.0, 0.8), (-1, 2, 2.5, 3.0), (-1, 3, 1.0, 1.7), (-1, 3, 0.0, 6.0),
        (0, 2, 0.0, 0.8), (0, 2, 4.0, 2.0), (0, 3, 1.5, 1.7), (0, 3, 0.0, 20.0),
    ])
    def test_lone_ball_is_its_closed_form(self, curvature, dim, offset, radius):
        """A lone ball's volume is exact at any n: the closed form within
        ball_volume's stated 5.9e-16, with no sampling error and no draw."""
        space = Space(curvature, dim)
        axis = np.zeros(space.ambient_dim)
        axis[0] = 1.0
        center = geodesic_point(space, space.base_point, axis, offset)
        rng = substream(75)
        est = volume_estimate(space, Ball(center, radius), 20000, rng)
        with mpmath.workdps(40):
            truth = self.CLOSED_FORMS[curvature, dim](mpmath.mpf(radius))
            assert float(abs(est.value - truth) / truth) <= 5.9e-16
        assert est.value == ball_volume(space, radius)
        assert est.std_error == 0.0
        assert est.samples_used == 0
        # the rng is untouched: its next draw is a fresh generator's
        assert np.array_equal(rng.random(4), substream(75).random(4))

    def test_lone_ball_far_out_on_h2_is_one_value(self):
        """An H2 ball centred 12 from the pole has one volume at every azimuth."""
        values = set()
        for a in np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False):
            center = geodesic_point(H2, H2.base_point, np.array([math.cos(a), math.sin(a), 0.0]),
                                    12.0)
            est = volume_estimate(H2, Ball(center, 0.7), 20000, substream(76))
            values.add((est.value, est.std_error, est.samples_used))
        assert values == {(ball_volume(H2, 0.7), 0.0, 0)}

    def test_sampled_volume_needs_rng(self):
        union = Union((Ball(E, 0.5), Ball(geodesic_point(S2, E, EX, 0.6), 0.5)))
        with pytest.raises(ValueError) as info:
            volume_estimate(S2, union, 1000, None)
        assert str(info.value) == "sampling the volume of a Union needs a generator"

    def test_lone_ball_needs_no_rng_but_checks_samples(self):
        assert volume_estimate(S2, Ball(E, 0.5), 100, None) == VolumeEstimate(
            value=ball_volume(S2, 0.5), std_error=0.0, samples_used=0)
        with pytest.raises(ValueError, match="samples must be at least 100"):
            volume_estimate(S2, Ball(E, 0.5), 50, None)

    def test_determinism(self, space):
        b = Ball(space.base_point, 0.7)
        dented = Difference(b, Ball(space.base_point, 0.2))
        r1 = volume_estimate(space, dented, 5000, substream(70))
        r2 = volume_estimate(space, dented, 5000, substream(70))
        assert r1 == r2

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodiam.convexity import (
    ball_convexity_probe,
    hemisphere_center,
    hull_diameter_check,
    min_norm_point,
)
from isodiam.geometry import (
    Ball,
    Space,
    distance,
    geodesic_point,
    tangent_toward,
)
from isodiam.regions import sample, uniform_in_ball
from isodiam.rng import substream

from conftest import random_points

S2 = Space.sphere(2)
S3 = Space.sphere(3)
E2 = Space.euclidean(2)
H2 = Space.hyperbolic(2)
E = np.array([0.0, 0.0, 1.0])
ANTIPODAL_SIX = np.array([
    [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
])


def min_norm_oracle(points):
    """Exhaustive minimum-norm point over all affinely small subsets.

    By Caratheodory the minimizer is the affine minimizer of some subset of at
    most d+1 points with nonnegative weights; enumerate them all.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    best = None
    best_norm = np.inf
    for size in range(1, min(d + 1, n) + 1):
        for idx in itertools.combinations(range(n), size):
            A = pts[list(idx)]
            k = len(idx)
            M = np.zeros((k + 1, k + 1))
            M[:k, :k] = A @ A.T
            M[:k, k] = 1.0
            M[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            w = sol[:k]
            if np.any(w < -1e-12):
                continue
            w = np.clip(w, 0.0, None)
            w = w / w.sum()
            z = w @ A
            nz = float(z @ z)
            if nz < best_norm:
                best_norm = nz
                best = z
    return best


class TestMinNormPoint:
    def test_symmetric_pair(self):
        assert np.allclose(min_norm_point([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5], atol=1e-10)

    def test_origin_in_hull(self):
        assert np.allclose(min_norm_point([[1.0, 0.0], [-1.0, 0.0]]), [0.0, 0.0], atol=1e-12)

    def test_against_enumeration_oracle(self):
        rng = substream(80)
        clouds = [rng.normal(size=(20, 3)) + rng.normal(size=3) * 0.8 for _ in range(12)]
        base = rng.normal(size=(6, 3)) + np.array([1.5, 0.3, -0.2])
        t = rng.uniform(-1.0, 2.0, size=8)
        clouds += [
            # duplicated points
            np.vstack([base, base[:3], base[:1]]),
            # collinear points
            np.array([1.0, 2.0, -0.5]) + t[:, None] * np.array([0.5, -1.0, 1.0]),
            # the origin on a hull edge
            np.array([[1.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.3, 1.0, 0.5], [0.1, 0.8, 1.2]]),
            ANTIPODAL_SIX,
        ]
        for pts in clouds:
            z = min_norm_point(pts)
            z0 = min_norm_oracle(pts)
            assert abs(np.linalg.norm(z) - np.linalg.norm(z0)) <= 1e-6

    def test_variational_inequality(self):
        rng = substream(81)
        for trial in range(20):
            pts = rng.normal(size=(15, 4)) + np.array([0.3, 0.0, 0.0, 0.1])
            z = min_norm_point(pts)
            gaps = (pts - z) @ z
            assert float(gaps.min()) >= -1e-8

    def test_single_point(self):
        assert np.allclose(min_norm_point([[2.0, 1.0]]), [2.0, 1.0])

    @pytest.mark.parametrize("pts, exact", [
        (np.eye(2), [0.5, 0.5]),
        (np.eye(3), [1 / 3] * 3),
        (np.eye(4), [0.25] * 4),
        (np.eye(5), [0.2] * 5),
        (np.eye(6), [1 / 6] * 6),
        ([[1.0, -1.0], [1.0, 3.0]], [1.0, 0.0]),
        ([[1.0, 1.0, -1.0], [1.0, 1.0, 3.0]], [1.0, 1.0, 0.0]),
        ([[3.0, 1.0], [1.0, 3.0]], [2.0, 2.0]),
    ], ids=["e1-e2", "e1-e3", "e1-e4", "e1-e5", "e1-e6", "segment-foot-2d",
            "segment-foot-3d", "symmetric-pair"])
    def test_closed_forms_within_two_ulps(self, pts, exact):
        """The simplex of unit vectors, the foot of a segment and the
        symmetric pair, to 2 ulps of the largest point norm."""
        pts = np.asarray(pts, dtype=float)
        ulp = np.spacing(np.linalg.norm(pts, axis=1).max())
        assert np.abs(min_norm_point(pts) - exact).max() <= 2 * ulp

    def test_tiny_points_keep_their_vertex(self):
        # the absolute zero test and the unscaled reduction both gave [0, 0]
        z = min_norm_point([[1e-13, 2e-13], [3e-13, 1e-13]])
        assert np.array_equal(z, [1e-13, 2e-13])

    def test_huge_points_stay_finite(self):
        # the unscaled reduction gave [nan, nan]
        z = min_norm_point([[1e200, 1e200], [2e200, 1e200]])
        assert np.array_equal(z, [1e200, 1e200])

    def test_scales_with_the_points_bit_for_bit(self):
        rng = substream(85)
        clouds = [
            rng.normal(size=(30, 3)) + np.array([1.2, -0.4, 0.7]),
            rng.normal(size=(9, 5)) * np.array([1e-3, 1.0, 1e3, 1.0, 1.0]) + 0.5,
            np.array([[1e-13, 2e-13], [3e-13, 1e-13]]),
            ANTIPODAL_SIX,
        ]
        for pts in clouds:
            z = min_norm_point(pts)
            for k in range(-60, 61):
                assert np.array_equal(min_norm_point(np.ldexp(pts, k)), np.ldexp(z, k)), k

    @pytest.mark.parametrize("pts, message", [
        ([[np.nan, 0.0], [1.0, 1.0]], r"point 0 is not finite: \[nan, 0.0\]"),
        ([[1.0, 1.0], [2.0, 0.5], [0.0, -np.inf]], r"point 2 is not finite: \[0.0, -inf\]"),
    ], ids=["nan", "inf"])
    def test_non_finite_point_named(self, pts, message):
        with pytest.raises(ValueError, match=message):
            min_norm_point(pts)

    def test_iteration_cap_raises(self, monkeypatch):
        """A solve that never makes the entering weight positive cycles until
        the cap of 3N passive-set solves, and no point is returned."""
        monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond=None: (-np.ones(a.shape[1]),))
        with pytest.raises(RuntimeError, match="cap of 6 iterations"):
            min_norm_point([[1.0, 0.0], [0.0, 1.0]])


def scipy_min_norm_point(points):
    """The least-distance reduction solved by ``scipy.optimize.nnls``: the
    reference the numpy solve must be at least as exact as."""
    from scipy.optimize import nnls

    pts = np.asarray(points, dtype=float)
    target = np.zeros(pts.shape[1] + 1)
    target[-1] = 1.0
    u, _ = nnls(np.vstack([pts.T, np.ones(pts.shape[0])]), target)
    z = (u @ pts) / u.sum()
    return np.zeros(pts.shape[1]) if float(z @ z) <= 1e-24 else z


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=st.integers(2, 6), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       shift=st.floats(0.0, 3.0),
       kind=st.sampled_from(["plain", "duplicates", "collinear", "origin-on-face"]))
def test_at_least_as_exact_as_scipy(d, n, seed, shift, kind):
    """Clouds with duplicated points, collinear points and the origin on a
    face: the KKT gap min (p - z).z is no worse than the scipy solve's, and
    |z| agrees with it and, for clouds of at most 8 points, with the
    enumeration oracle, each to 4 ulps of the largest point norm."""
    rng = np.random.default_rng(seed)
    if kind == "collinear":
        pts = rng.normal(size=d) + rng.uniform(-1.0, 2.0, size=(n, 1)) * rng.normal(size=d)
    else:
        pts = rng.normal(size=(n, d)) + shift * rng.normal(size=d)
    if kind == "duplicates":
        pts = pts[rng.integers(0, max(1, n // 3), size=n)]
    elif kind == "origin-on-face":
        pts[:, 0] = np.abs(pts[:, 0])
        pts[: max(1, n // 4), 0] = 0.0
    z = min_norm_point(pts)
    z0 = scipy_min_norm_point(pts)
    scale = float(np.linalg.norm(pts, axis=1).max())
    tol = 4 * np.spacing(scale)
    assert float(((pts - z) @ z).min()) >= float(((pts - z0) @ z0).min()) - tol * scale
    assert abs(np.linalg.norm(z) - np.linalg.norm(z0)) <= tol
    if n <= 8:
        assert abs(np.linalg.norm(z) - np.linalg.norm(min_norm_oracle(pts))) <= tol


class TestHemisphereCenter:
    def test_small_cap_certificate(self):
        cloud = sample(S2, Ball(E, 0.3), 2000.0, substream(82))
        cert = hemisphere_center(cloud)
        assert cert is not None
        direction = cert.z / np.linalg.norm(cert.z)
        assert distance(S2, direction, E) < 0.2
        assert cert.min_margin > 0
        assert np.all(cloud.points @ cert.z >= cert.min_margin)

    def test_antipodal_frame_has_none(self):
        assert hemisphere_center(ANTIPODAL_SIX) is None

    def test_always_found_below_diameter_bound(self):
        # sufficient condition: diameter below arccos(-1/(n+1))
        for space, seed0 in ((S2, 83), (S3, 84)):
            bound = math.acos(-1.0 / (space.dim + 1))
            found = 0
            for k in range(40):
                rng = substream(seed0, k)
                rho = 0.999 * (bound - 1e-6) / 2.0 * float(rng.uniform(0.2, 1.0))
                center = uniform_in_ball(space, Ball(space.base_point, 1.0), rng)
                pts = uniform_in_ball(space, Ball(center, rho), rng, size=60)
                d = max(float(distance(space, a, b)) for a in pts for b in pts)
                if d >= bound - 1e-6:
                    continue
                cert = hemisphere_center(pts)
                assert cert is not None
                assert cert.min_margin > 0
                found += 1
            assert found >= 35


class TestHullDiameterCheck:
    def test_two_point_segment(self, space):
        pts = random_points(space, 2, seed=93, spread=0.5)
        d0, d1 = hull_diameter_check(space, pts, 500, seed=94)
        assert d0 == pytest.approx(float(distance(space, pts[0], pts[1])), abs=1e-12)
        assert d1 <= d0 + 1e-9
        assert d1 >= d0 - 1e-9

    def test_cap_boundary_cloud(self):
        # points on a cap boundary: hull diameter equals the sampled diameter
        rng = substream(95)
        angles = rng.uniform(0.0, 2 * math.pi, size=120)
        rho = 0.55
        pts = np.stack([np.sin(rho) * np.cos(angles),
                        np.sin(rho) * np.sin(angles),
                        np.full_like(angles, math.cos(rho))], axis=1)
        d0, d1 = hull_diameter_check(S2, pts, 4000, seed=96)
        assert d0 <= math.pi / 2 + 1e-9
        assert d1 <= d0 + 1e-9
        assert d1 >= d0 - 2e-3

    def test_euclidean_triangle(self):
        tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        d0, d1 = hull_diameter_check(E2, tri, 1000, seed=97)
        assert d0 == pytest.approx(math.sqrt(5.0))
        assert d1 == pytest.approx(math.sqrt(5.0), abs=1e-9)

    def test_spherical_hypothesis_enforced(self):
        pts = np.array([E, [math.sin(2.0), 0.0, math.cos(2.0)]])
        with pytest.raises(ValueError):
            hull_diameter_check(S2, pts, 100, seed=98)

    @pytest.mark.parametrize("hull_samples, message", [
        (2.5, "hull_samples must be an integer, got 2.5"),
        (True, "hull_samples must be an integer, got True"),
        (0, "hull_samples must be at least 1, got 0"),
    ])
    def test_hull_samples_must_be_a_count(self, hull_samples, message):
        pts = random_points(E2, 30, seed=99, spread=0.6)
        with pytest.raises(ValueError, match=message):
            hull_diameter_check(E2, pts, hull_samples, seed=200)

    def test_non_finite_rows_are_refused_by_name(self):
        pts = random_points(E2, 30, seed=99, spread=0.6)
        pts[4, 1] = math.nan
        with pytest.raises(ValueError, match="row 4 is"):
            hull_diameter_check(E2, pts, 100, seed=200)

    def test_hull_samples_take_numpy_integers(self):
        pts = random_points(E2, 30, seed=99, spread=0.6)
        assert hull_diameter_check(E2, pts, np.int64(500), seed=200) == \
            hull_diameter_check(E2, pts, 500, seed=200)

    def test_hull_never_exceeds(self, space):
        for k in range(5):
            pts = random_points(space, 30, seed=99 + k, spread=0.6)
            d0, d1 = hull_diameter_check(space, pts, 1500, seed=200 + k)
            assert d1 <= d0 + 1e-9


class TestBallConvexityProbe:
    def test_hyperbolic_balls_convex(self):
        for r in (0.5, 2.0):
            count, witness = ball_convexity_probe(H2, Ball(H2.base_point, r), 4000, seed=101)
            assert count == 0
            assert witness is None

    def test_small_spherical_cap_convex(self):
        count, witness = ball_convexity_probe(S2, Ball(E, math.pi / 4), 4000, seed=102)
        assert count == 0

    def test_large_spherical_cap_not_convex(self):
        count, witness = ball_convexity_probe(S2, Ball(E, 3 * math.pi / 4), 4000, seed=103)
        assert count >= 1
        assert witness is not None
        x, y = witness
        # the witness pair really does have its midpoint outside
        u, t = tangent_toward(S2, x, y)
        mid = geodesic_point(S2, x, u, t / 2)
        assert float(distance(S2, mid, E)) > 3 * math.pi / 4 + 1e-9

    def test_euclidean_balls_convex(self):
        count, _ = ball_convexity_probe(E2, Ball(np.zeros(2), 1.5), 4000, seed=104)
        assert count == 0

    @pytest.mark.parametrize("trials, message", [
        (2.5, "trials must be an integer, got 2.5"),
        (True, "trials must be an integer, got True"),
        (0, "trials must be at least 1, got 0"),
    ])
    def test_trials_must_be_a_count(self, trials, message):
        with pytest.raises(ValueError, match=message):
            ball_convexity_probe(S2, Ball(E, 1.0), trials, seed=105)

    def test_trials_take_numpy_integers(self):
        count, _ = ball_convexity_probe(S2, Ball(E, 3 * math.pi / 4), np.int64(2000), seed=105)
        assert count == ball_convexity_probe(S2, Ball(E, 3 * math.pi / 4), 2000, seed=105)[0]

    def test_determinism(self):
        a = ball_convexity_probe(S2, Ball(E, 3 * math.pi / 4), 2000, seed=105)
        b = ball_convexity_probe(S2, Ball(E, 3 * math.pi / 4), 2000, seed=105)
        assert a[0] == b[0]
        assert np.array_equal(a[1][0], b[1][0])

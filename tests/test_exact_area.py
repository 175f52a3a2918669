"""Exact areas of n = 2 regions from boundary arcs (``regions.exact_area``).

Every test that knows the true area also checks the stated ``std_error``: it
must exceed the error measured there at least ten times over.  The one
exception is an arc that passes near the antipode of the base point
(``TestNearTheAntipode``), where the quadrature's error can exceed it.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodiam.experiments import random_admissible_region
from isodiam.geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    Ball,
    Space,
    ball_volume,
    distance,
    frame,
    geodesic_point,
    reflect,
)
from isodiam.regions import (
    Difference,
    Intersection,
    Symmetrized,
    Union,
    _arc_area,
    _arcs,
    _leaf_balls,
    _omega_integrals,
    _pack,
    exact_area,
    volume_estimate,
)
from isodiam.rng import substream
from isodiam.symmetrize import RandomThroughPole, choose_hyperplane

from conftest import dented_ball_region

S2 = Space.sphere(2)
H2 = Space.hyperbolic(2)
R2 = Space.euclidean(2)
#: the n = 2 benchmark campaigns: (curvature, D, seed), each at region density 600
CAMPAIGNS = [(0, 1.0, 531), (1, 1.0, 532), (1, 2.0, 533), (-1, 1.0, 534), (-1, 1.5, 535)]


def assert_exact(est, truth, rel):
    """The area is within rel of truth, and its std_error is at least ten
    times its error."""
    err = abs(est.value - truth)
    assert err <= rel * abs(truth)
    assert 10.0 * err <= est.std_error


def _off_pole(space, t, angle=0.0):
    """The point t from the base point toward the given angle."""
    u = np.zeros(space.ambient_dim)
    u[0], u[1] = math.cos(angle), math.sin(angle)
    return geodesic_point(space, space.base_point, u, t) if t > 0 else space.base_point


def _toward(space, c, angle, t):
    """The point t from c toward the given angle of c's frame."""
    e = frame(space, c)
    return geodesic_point(space, c, math.cos(angle) * e[0] + math.sin(angle) * e[1], t)


def _lens(space, r, x, y):
    """Area of the intersection of the discs of radius r about x and y, to 40
    digits: the circular segments on R2, and by Gauss-Bonnet on S2 and H2,
    where the area is K (2 (pi - beta) - 4 alpha cs(r)) for alpha the half
    angle the lens subtends at a centre and beta the angle between the radii
    at a vertex."""
    with mpmath.workdps(40):
        x, y, r = [mpmath.mpf(float(v)) for v in x], [mpmath.mpf(float(v)) for v in y], \
            mpmath.mpf(r)
        dot = x[0] * y[0] + x[1] * y[1]
        if space.curvature == EUCLIDEAN:
            s = mpmath.sqrt((x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2)
            return float(2 * r * r * mpmath.acos(s / (2 * r)) - s * mpmath.sqrt(4 * r * r - s * s) / 2)
        if space.curvature == HYPERBOLIC:
            form = x[2] * y[2] - dot
            s = mpmath.acosh(form / mpmath.sqrt((x[2] ** 2 - x[0] ** 2 - x[1] ** 2)
                                                * (y[2] ** 2 - y[0] ** 2 - y[1] ** 2)))
            cs, sn, cs_s, sn_s = mpmath.cosh(r), mpmath.sinh(r), mpmath.cosh(s), mpmath.sinh(s)
            alpha = mpmath.acos(cs * (cs_s - 1) / (sn * sn_s))
            beta = mpmath.acos((cs * cs - cs_s) / (sn * sn))
            return float(4 * alpha * cs - 2 * (mpmath.pi - beta))
        s = mpmath.acos((dot + x[2] * y[2]) / mpmath.sqrt(
            (x[0] ** 2 + x[1] ** 2 + x[2] ** 2) * (y[0] ** 2 + y[1] ** 2 + y[2] ** 2)))
        cs, sn, cs_s, sn_s = mpmath.cos(r), mpmath.sin(r), mpmath.cos(s), mpmath.sin(s)
        alpha = mpmath.acos(cs * (1 - cs_s) / (sn * sn_s))
        beta = mpmath.acos((cs_s - cs * cs) / (sn * sn))
        return float(2 * (mpmath.pi - beta) - 4 * alpha * cs)


class TestDiscs:
    def test_lone_ball_is_ball_volume(self, space):
        ball = Ball(_off_pole(space, 0.4), 0.7)
        est = exact_area(space, ball)
        assert est.value == ball_volume(space, 0.7)
        assert est.std_error == 0.0

    @pytest.mark.parametrize("space, reach", [(S2, 1.5), (H2, 3.0)], ids=["S2", "H2"])
    def test_off_centre_discs_match_ball_volume(self, space, reach):
        for t in np.linspace(0.0, reach, 7):
            for k, r in enumerate((0.1, 0.5, 1.0, 1.3)):
                disc = Union((Ball(_off_pole(space, t, angle=0.7 * k), r),))
                assert_exact(exact_area(space, disc), ball_volume(space, r), 4e-15)

    def test_lens_against_its_closed_form(self, space):
        r, s = 0.5, 0.6
        a = Ball(_off_pole(space, 0.2), r)
        b = Ball(_toward(space, a.center, 1.0, s), r)
        lens, v = _lens(space, r, a.center, b.center), ball_volume(space, r)
        assert_exact(exact_area(space, Intersection((a, b))), lens, 4e-15)
        assert_exact(exact_area(space, Union((a, b))), 2.0 * v - lens, 4e-15)
        assert_exact(exact_area(space, Difference(a, b)), v - lens, 4e-15)

    def test_other_nodes_and_dimensions_are_refused(self, space):
        ball = Ball(space.base_point, 0.5)
        plane = choose_hyperplane(space, RandomThroughPole(), None, substream(1))
        for region in (Symmetrized(plane, ball), Union((ball, Symmetrized(plane, ball)))):
            with pytest.raises(ValueError, match="Symmetrized"):
                exact_area(space, region)
        s3 = Space(space.curvature, 3)
        with pytest.raises(ValueError, match="dimension 2, got 3"):
            exact_area(s3, Ball(s3.base_point, 0.5))


class TestDegenerateArcs:
    R1, R2 = 0.4, 0.25

    def _pair(self, space, gap):
        """A disc of radius R1 and one of radius R2 centred R1 + gap from it."""
        a = Ball(_off_pole(space, 0.3), self.R1)
        return a, Ball(_toward(space, a.center, 0.0, self.R1 + gap), self.R2)

    def test_externally_tangent_discs(self, space):
        a, b = self._pair(space, self.R2)
        v1, v2 = ball_volume(space, self.R1), ball_volume(space, self.R2)
        assert_exact(exact_area(space, Union((a, b))), v1 + v2, 4e-15)
        assert_exact(exact_area(space, Difference(a, b)), v1, 4e-15)
        assert exact_area(space, Intersection((a, b))).value == 0.0

    def test_internally_tangent_discs(self, space):
        a, b = self._pair(space, -self.R2)
        v1, v2 = ball_volume(space, self.R1), ball_volume(space, self.R2)
        assert_exact(exact_area(space, Union((a, b))), v1, 4e-15)
        assert_exact(exact_area(space, Intersection((a, b))), v2, 4e-15)
        assert_exact(exact_area(space, Difference(a, b)), v1 - v2, 4e-15)

    def test_coincident_guard_balls_count_once(self, space):
        a, b = self._pair(space, -0.1)
        guard = Ball(b.center.copy(), b.radius)
        once = exact_area(space, Intersection((a, b)))
        assert exact_area(space, Intersection((a, b, guard, b))) == once
        centers, _, radii, *_ = _arcs(space, Intersection((a, b, guard)),
                                      *_pack([a, b, guard, b]))
        assert radii.size == 2 and centers.shape == (2, space.ambient_dim)

    def test_concentric_discs_without_crossings(self, space):
        c = _off_pole(space, 0.5)
        annulus = Difference(Ball(c, 0.6), Ball(c, 0.35))
        _, _, _, circle, lo, hi, side = _arcs(space, annulus, *_pack(_leaf_balls(annulus)))
        assert circle.tolist() == [0, 1] and np.all(hi - lo == 2.0 * math.pi)
        assert side.tolist() == [1, -1]
        assert_exact(exact_area(space, annulus),
                     ball_volume(space, 0.6) - ball_volume(space, 0.35), 4e-15)

    def test_three_circles_through_a_point(self, space):
        # every pair crosses at the centre c, whose two crossings on each
        # circle land within rounding of each other
        r, c = 0.5, _off_pole(space, 0.3)
        discs = tuple(Ball(_toward(space, c, 2.0 * math.pi * k / 3.0, r), r) for k in range(3))
        union = Union(discs)
        _, _, _, _, lo, hi, _ = _arcs(space, union, *_pack(list(discs)))
        assert np.sort(hi - lo)[0] < 1e-15
        truth = 3.0 * ball_volume(space, r) - sum(
            _lens(space, r, discs[k].center, discs[k - 1].center) for k in range(3))
        assert_exact(exact_area(space, union), truth, 4e-15)

    def test_circle_within_probe_reach_of_a_midpoint(self, space):
        # b passes 0.5e-9 outside a at a's one arc's midpoint (phi = pi), so
        # a probe 1e-9 outside a there would land in b
        a, _ = self._pair(space, 0.0)
        b = Ball(_toward(space, a.center, math.pi, self.R1 + self.R2 + 0.5e-9), self.R2)
        midpoint = _toward(space, a.center, math.pi, self.R1)
        assert abs(float(distance(space, midpoint, b.center)) - self.R2) < 1e-9
        v1, v2 = ball_volume(space, self.R1), ball_volume(space, self.R2)
        assert_exact(exact_area(space, Union((a, b))), v1 + v2, 4e-15)
        assert_exact(exact_area(space, Difference(a, b)), v1, 4e-15)


@pytest.mark.parametrize("space", [S2, H2], ids=["S2", "H2"])
def test_symmetrized_chains_keep_their_area(space):
    """Two-point symmetrization preserves area: dented-ball chains under
    random planes through the pole keep their depth-0 area to 1e-13 at every
    depth up to 6.  The boundary of S_H(A) lies on the circles of A and
    their mirrors in H, so each level adds the mirrors of the circles below."""
    region = dented_ball_region(space)
    balls = _leaf_balls(region)
    truth = exact_area(space, region).value
    rng = substream(3)
    for _ in range(6):
        plane = choose_hyperplane(space, RandomThroughPole(), None, rng)
        balls = balls + [Ball(reflect(space, plane, b.center), b.radius) for b in balls]
        region = Symmetrized(plane, region)
        assert_exact(_arc_area(space, region, *_pack(balls)), truth, 1e-13)


@pytest.mark.parametrize("curvature, D, seed", CAMPAIGNS,
                         ids=[f"{c}-{D}-{s}" for c, D, s in CAMPAIGNS])
def test_monte_carlo_volume_agrees_with_the_exact_area(curvature, D, seed):
    """``verify`` no longer estimates n = 2 volumes, so the estimator is held
    to the exact area here: on trials 1-8 of each n = 2 benchmark campaign,
    the 100k-draw estimate of stream (trial, 2) lies within 4 sigma."""
    space = Space(curvature, 2)
    for trial in range(1, 9):
        region = random_admissible_region(space, D, 4, substream(seed, trial, 0), density=600.0)
        exact = exact_area(space, region)
        est = volume_estimate(space, region, 100_000, substream(seed, trial, 2))
        if isinstance(region, Ball):
            assert est.value == exact.value and est.std_error == exact.std_error == 0.0
        else:
            assert abs(est.value - exact.value) <= 4.0 * est.std_error
            assert 0.0 < exact.std_error < 1e-13 * exact.value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(space=st.sampled_from([S2, H2, R2]), reach=st.floats(0.0, 1.0),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_frame_orients_its_circle(space, reach, angle):
    """A circle's orientation in the chart is the sign of det F for its
    frame F: omega's integral around the circle of radius 1e-3 about the
    centre has that sign, for centres up to pi - 2e-3 from the pole on S2
    (kept clear of the antipode, where the chart folds), 8 on H2 and 20 on
    R2."""
    c = _off_pole(space, reach * {1: math.pi - 2e-3, -1: 8.0, 0: 20.0}[space.curvature], angle)
    f = frame(space, c)
    turning, _ = _omega_integrals(space, c[None], f[None], np.array([1e-3]), np.zeros(1),
                                  np.array([2.0 * math.pi]))
    assert np.sign(turning[0]) == np.sign(np.linalg.det(f)) != 0.0


def _at(theta, azimuth):
    """The S2 point theta from the pole at the given azimuth."""
    return np.array([math.sin(theta) * math.cos(azimuth),
                     math.sin(theta) * math.sin(azimuth), math.cos(theta)])


class TestNearTheAntipode:
    """Regions of S2 near, or holding, the antipode -e of the base point,
    where the chart omega pulls back from folds."""

    def test_lens_beside_the_antipode(self):
        """One centre 5e-4 from -e, well inside its circle of radius 0.4.
        b's arc passes 0.1 from -e, where omega's terms grow and the
        quadrature, not rounding, sets the error (2.3e-14 here), so the
        std_error is not held to ten times it."""
        a, b = Ball(_at(math.pi - 5e-4, 0.0), 0.4), Ball(_at(math.pi - 0.5, 1.0), 0.4)
        lens = _lens(S2, 0.4, a.center, b.center)
        assert abs(exact_area(S2, Intersection((a, b))).value - lens) <= 1e-12 * lens

    def test_annulus_about_the_antipode(self):
        e = S2.base_point
        annulus = Difference(Ball(-e, 1.0), Ball(-e, 0.5))
        assert_exact(exact_area(S2, annulus), ball_volume(S2, 1.0) - ball_volume(S2, 0.5), 4e-15)

    def test_union_holding_the_antipode(self):
        e = S2.base_point
        assert_exact(exact_area(S2, Union((Ball(-e, 1.0), Ball(-e, 0.5)))),
                     ball_volume(S2, 1.0), 4e-15)

    def test_discs_holding_the_antipode_keep_their_mirror_image_area(self):
        """Two discs centred 2.5 from the pole, the one of radius 1.0 holding
        -e.  Their mirror image in the equator, centred 0.64 from the pole,
        lies clear of -e and has the same area, which 400k Monte Carlo draws
        confirm."""
        balls = [Ball(_at(2.5, 0.0), 1.0), Ball(_at(2.5, 0.8), 0.7)]
        mirrored = [Ball(b.center * np.array([1.0, 1.0, -1.0]), b.radius) for b in balls]
        est, image = exact_area(S2, Union(tuple(balls))), exact_area(S2, Union(tuple(mirrored)))
        assert abs(est.value - image.value) <= 1e-14 * image.value
        assert abs(est.value - image.value) <= est.std_error
        mc = volume_estimate(S2, Union(tuple(balls)), 400_000, substream(30))
        assert abs(mc.value - est.value) <= 4.0 * mc.std_error

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from isodiam.geometry import (
    UNIT_TOL,
    _SERIES_MAX,
    Ball,
    Hyperplane,
    Space,
    _mass_series,
    _radial_mass,
    _radius_solve,
    ball_volume,
    bisector,
    check_point,
    decode_key,
    distance,
    form,
    form_rows,
    frame,
    geodesic_point,
    key_threshold,
    normalize_to_space,
    pair_key,
    plane_eval,
    project_gnomonic,
    random_unit_tangent,
    reflect,
    screen_keys,
    side,
    sphere_area,
    tangent_norm,
    tangent_toward,
    validate_ball,
    validate_hyperplane,
)
from isodiam.rng import substream

from conftest import SPACES_TO_5, SPACES_TO_5_IDS, random_pairs, random_points

S2 = Space.sphere(2)
E2 = Space.euclidean(2)
H2 = Space.hyperbolic(2)
E = np.array([0.0, 0.0, 1.0])
FRAME_SPACES = {"S2": S2, "S3": Space.sphere(3), "H2": H2, "H3": Space.hyperbolic(3)}
#: eight ulps; the worst frame error seen over 40,000 points per space was six
FRAME_TOL = 8 * np.finfo(float).eps
#: the spaces whose radii ``_radius_solve`` solves, S^n and H^n for n = 3..6
SOLVE_SPACES = [Space(c, n) for c in (1, -1) for n in range(3, 7)]
SOLVE_SPACE_IDS = [("S" if s.curvature == 1 else "H") + str(s.dim) for s in SOLVE_SPACES]


def point_from_pole(space, t, w):
    """The point at distance t from the base point along the spatial direction w."""
    w = np.asarray(w, dtype=float)
    w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    t = np.asarray(t, dtype=float)[..., None]
    if space.curvature == 1:
        return np.concatenate([np.sin(t) * w, np.cos(t)], axis=-1)
    return np.concatenate([np.sinh(t) * w, np.cosh(t)], axis=-1)


class TestSpace:
    def test_ambient_dims(self):
        assert S2.ambient_dim == 3
        assert E2.ambient_dim == 2
        assert Space.hyperbolic(3).ambient_dim == 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Space(2, 2)
        with pytest.raises(ValueError):
            Space(1, 1)

    @pytest.mark.parametrize("value", [2.5, True, "3"], ids=["fraction", "bool", "string"])
    @pytest.mark.parametrize("field", ["curvature", "dim"])
    def test_fields_must_be_integers(self, field, value):
        args = {"curvature": 1, "dim": 3, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            Space(**args)

    def test_numpy_integers_stored_as_ints(self):
        space = Space(np.int64(-1), np.int64(3))
        assert type(space.curvature) is int and type(space.dim) is int
        assert space == Space.hyperbolic(3) and space.ambient_dim == 4

    def test_base_point_is_valid(self, space):
        check_point(space, space.base_point)


class TestForm:
    def test_hyperbolic_base_point(self):
        assert form(H2, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]) == 1.0

    def test_spherical_orthogonal(self):
        assert form(S2, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == 0.0

    def test_hyperbolic_spacelike_unit(self):
        assert form(H2, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            form(S2, [1.0, 0.0], [0.0, 1.0, 0.0])


class TestDistance:
    def test_spherical_quarter_turn(self):
        assert distance(S2, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(math.pi / 2)

    def test_hyperbolic_unit_speed(self):
        x = [math.sinh(1.0), 0.0, math.cosh(1.0)]
        assert distance(H2, [0.0, 0.0, 1.0], x) == pytest.approx(1.0, abs=1e-12)

    def test_identity(self, space):
        p = random_points(space, 1, seed=10)[0]
        assert distance(space, p, p) <= 1e-7

    def test_symmetry_and_positivity(self, space):
        xs, ys = random_pairs(space, 200, seed=11)
        d1 = distance(space, xs, ys)
        d2 = distance(space, ys, xs)
        assert np.allclose(d1, d2, atol=1e-12)
        assert np.all(d1 >= 0.0)


def _vectors(data, space, rows):
    """Random ambient vectors of magnitudes 1e-3 to 1e3, not on the quadric."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = substream(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
    return rng.standard_normal((rows, space.ambient_dim)) * scale


#: every curvature with n = 2..6, so ambient dimensions 2..7
KEY_SPACES = [Space(c, n) for c in (1, 0, -1) for n in range(2, 9)]


class TestPairKey:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(space=st.sampled_from(KEY_SPACES), m=st.integers(1, 40), n=st.integers(1, 40),
           data=st.data())
    def test_same_bits_at_every_shape(self, space, m, n, data):
        # one pair's key alone, in a batch of pairs and in a broadcast block
        x = _vectors(data, space, m)
        y = _vectors(data, space, n)
        block = pair_key(space, x[:, None], y)
        assert block.shape == (m, n)
        rng = substream(m, n)
        rows = rng.integers(0, m, 30)
        cols = rng.integers(0, n, 30)
        assert np.array_equal(pair_key(space, x[rows], y[cols]), block[rows, cols])
        for i, j in zip(rows[:5], cols[:5]):
            assert pair_key(space, x[i], y[j]) == block[i, j]
            assert distance(space, x[i], y[j]) == decode_key(space, block[i, j])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(space=st.sampled_from(KEY_SPACES), data=st.data())
    def test_form_is_the_left_to_right_sum(self, space, data):
        # the sequential sum, whose bits np.sum also gives below 8 terms, so
        # there distance, greedy acceptance, rebase radii and envelopes keep
        # the bits of the np.sum kernel; from 8 terms np.sum adds pairwise and
        # rounds otherwise, so on S^7, H^8, R^8 and up they move by an ulp
        x = _vectors(data, space, 50)
        y = _vectors(data, space, 50)
        k = space.ambient_dim - (space.curvature == -1)
        ref = []
        for u, v in zip(x.tolist(), y.tolist()):
            total = u[0] * v[0]
            for j in range(1, k):
                total += u[j] * v[j]
            ref.append(u[-1] * v[-1] - total if space.curvature == -1 else total)
        assert np.array_equal(form(space, x, y), np.array(ref))
        if space.curvature == 1:
            assert np.array_equal(pair_key(space, x, y), -form(space, x, y))
        if k >= 8:
            return
        summed = np.sum(x[:, :k] * y[:, :k], axis=-1)
        if space.curvature == -1:
            summed = x[:, -1] * y[:, -1] - summed
        assert np.array_equal(form(space, x, y), summed)
        if space.curvature == 0:
            assert np.array_equal(pair_key(space, x, y), np.sum((x - y) ** 2, axis=-1))
            assert np.array_equal(distance(space, x, y), np.linalg.norm(x - y, axis=-1))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(2, 8), m=st.integers(1, 40), data=st.data())
    def test_sphere_key_is_the_negated_term_sum(self, n, m, data):
        # -form(x, y) has the bits of the sum of the negated terms,
        # (-x_0 y_0) + (-x_1 y_1) + ..., as rounding is symmetric in sign;
        # only an exact 0 could differ, in its sign, and decode the same
        space = Space.sphere(n)
        x = _vectors(data, space, m)
        y = _vectors(data, space, m)
        for a, b in ((x, y), (x[:, None], y)):
            total = -a[..., 0] * b[..., 0]
            for j in range(1, space.ambient_dim):
                total = total + -a[..., j] * b[..., j]
            assert pair_key(space, a, b).tobytes() == total.tobytes()

    def test_keys_increase_with_distance(self, space):
        xs, ys = random_pairs(space, 200, seed=12)
        order = np.argsort(distance(space, xs, ys), kind="stable")
        assert np.all(np.diff(pair_key(space, xs, ys)[order]) >= 0.0)

    def test_decode_clamps_drift(self):
        assert decode_key(S2, -1.0 - 1e-15) == 0.0
        assert decode_key(H2, 1.0 - 1e-15) == 0.0
        assert decode_key(E2, 0.0) == 0.0


class TestFormRows:
    def test_a_fresh_array_of_the_forms_rows(self, space):
        # a copy on every space, not x itself on S^n and R^n: numpy sends
        # a @ a.T on one buffer to BLAS syrk, which rounds differently from
        # gemm, so a product such as centers @ form_rows(centers).T would
        # move by an ulp
        x = random_points(space, 20, seed=14)
        y = random_points(space, 30, seed=15)
        out = form_rows(space, x)
        assert not np.shares_memory(out, x)
        spatial = space.dim if space.curvature == -1 else 0
        assert np.array_equal(out[:, :spatial], -x[:, :spatial])
        assert np.array_equal(out[:, spatial:], x[:, spatial:])
        assert np.allclose(out @ y.T, form(space, x[:, None], y), rtol=1e-13, atol=1e-13)


def _screen_rows(space, rng, rows, reach, zeros):
    """Rows on S^n, on H^n out to ``reach`` from the pole, or in R^n of norm up
    to ``reach``, with a share ``zeros`` of coordinates -0.0 or 0.0."""
    n = space.dim
    w = rng.standard_normal((rows, n))
    w[rng.random(w.shape) < zeros] = -0.0
    w[rng.random(w.shape) < zeros] = 0.0
    # the first row reaches the limit
    t = reach * rng.random((rows, 1))
    t[0] = reach
    if space.curvature == 0:
        return w * (t / np.maximum(np.linalg.norm(w, axis=1), 1e-300)[:, None])
    norm = np.linalg.norm(w, axis=1)[:, None]
    w = np.where(norm > 0.0, w / np.where(norm > 0.0, norm, 1.0), np.eye(n)[0])
    if space.curvature == 1:
        t = rng.uniform(0.0, math.pi, (rows, 1))
        return np.hstack([np.sin(t) * w, np.cos(t)])
    return np.hstack([np.sinh(t) * w, np.cosh(t)])


#: S2-S5, H2-H5 and R2-R5
SCREEN_SPACES = [Space(c, n) for c in (1, -1, 0) for n in range(2, 6)]


class TestScreenKeys:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(space=st.sampled_from(SCREEN_SPACES), m=st.integers(1, 30), n=st.integers(1, 30),
           reach=st.floats(0.0, 1.0), zeros=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_within_delta_of_pair_key(self, space, m, n, reach, zeros, seed):
        # reach runs to R = 20 on H^n and to |x| = 1e3 on R^n; some rows of b
        # repeat rows of a, and some rows of a repeat each other
        rng = substream(seed)
        reach *= 20.0 if space.curvature == -1 else 1e3
        a = _screen_rows(space, rng, m, reach, zeros)
        repeated = rng.random(m) < 0.3
        repeated[0] = False
        a[repeated] = a[rng.integers(0, m, int(repeated.sum()))]
        b = _screen_rows(space, rng, n, reach, zeros)
        shared = rng.random(n) < 0.3
        b[shared] = a[rng.integers(0, m, int(shared.sum()))]
        screened, delta = screen_keys(space, a, b)
        exact = pair_key(space, a[:, None], b)
        assert screened.shape == exact.shape == (m, n)
        assert math.isfinite(delta) and delta >= 0.0
        assert np.all(np.abs(screened - exact) <= delta)


def _consecutive_floats(g, n):
    """The n floats below g, g, and the n floats above it, in increasing order."""
    below, above = [g], [g]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[::-1] + above[1:])


class TestKeyThreshold:
    @pytest.mark.parametrize("space, D", [
        (S2, 1e-8), (S2, 1.2), (S2, math.pi - 1e-9),
        (H2, 1e-8), (H2, 1.2), (H2, 20.0),
        (E2, 1e-8), (E2, 1.2), (E2, 1e6),
    ], ids=["S2-1e-8", "S2-1.2", "S2-pi", "H2-1e-8", "H2-1.2", "H2-20",
            "R2-1e-8", "R2-1.2", "R2-1e6"])
    def test_largest_key_within_D(self, space, D):
        g = key_threshold(space, D)
        assert decode_key(space, g) <= D < decode_key(space, np.nextafter(g, np.inf))
        # key <= g stands for distance <= D only where decode_key is
        # non-decreasing, and is the same function on arrays as on scalars
        around = _consecutive_floats(g, 4000)
        decoded = decode_key(space, around)
        assert np.all(np.diff(decoded) >= 0.0)
        assert np.array_equal(decoded, [decode_key(space, v) for v in around])


class TestGeodesic:
    def test_quarter_great_circle(self):
        out = geodesic_point(S2, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], math.pi / 2)
        assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-12)

    def test_hyperbolic_parameterization(self):
        out = geodesic_point(H2, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], 1.0)
        assert np.allclose(out, [math.sinh(1.0), 0.0, math.cosh(1.0)], atol=1e-12)

    def test_zero_arc_is_identity(self, space):
        z = space.base_point
        u = frame(space, z)[0]
        assert np.allclose(geodesic_point(space, z, u, 0.0), z, atol=1e-15)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            geodesic_point(S2, [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], 0.3)

    def test_arc_length_matches_distance(self, space):
        z = random_points(space, 50, seed=12)
        u, _ = tangent_toward(space, z, random_points(space, 50, seed=13))
        t = np.linspace(0.05, 1.2, 50)
        x = geodesic_point(space, z, u, t)
        assert np.allclose(distance(space, z, x), t, atol=1e-9)


class TestTangentToward:
    def test_spherical_round_trip(self):
        u, t = tangent_toward(S2, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert t == pytest.approx(math.pi / 2)
        assert np.allclose(u, [0.0, 1.0, 0.0], atol=1e-12)

    def test_hyperbolic_round_trip(self):
        x = np.array([math.sinh(1.0), 0.0, math.cosh(1.0)])
        u, t = tangent_toward(H2, [0.0, 0.0, 1.0], x)
        assert t == pytest.approx(1.0)
        assert np.allclose(u, [1.0, 0.0, 0.0], atol=1e-12)

    def test_euclidean_normalized_difference(self):
        u, t = tangent_toward(E2, [0.0, 0.0], [3.0, 4.0])
        assert t == pytest.approx(5.0)
        assert np.allclose(u, [0.6, 0.8])

    def test_coincident_raises(self, space):
        p = space.base_point
        with pytest.raises(ValueError):
            tangent_toward(space, p, p)

    def test_antipodal_raises(self):
        with pytest.raises(ValueError):
            tangent_toward(S2, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0])

    def test_exp_log_round_trip(self, space):
        xs, ys = random_pairs(space, 500, seed=14)
        u, t = tangent_toward(space, xs, ys)
        back = geodesic_point(space, xs, u, t)
        assert np.max(np.linalg.norm(back - ys, axis=1)) <= 1e-9


class TestNormalize:
    def test_spherical_rescale(self):
        assert np.allclose(normalize_to_space(S2, [2.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_hyperbolic_rescale(self):
        assert np.allclose(normalize_to_space(H2, [0.0, 0.0, 2.0]), [0.0, 0.0, 1.0])

    def test_idempotent_on_valid_points(self, space):
        pts = random_points(space, 100, seed=15)
        again = normalize_to_space(space, pts)
        assert np.allclose(again, pts, atol=1e-15)

    def test_sign_fix_restores_upper_sheet(self):
        out = normalize_to_space(H2, [0.0, 0.0, -3.0])
        assert out[-1] == 1.0

    def test_rejects_wrong_signature(self):
        with pytest.raises(ValueError):
            normalize_to_space(H2, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            normalize_to_space(S2, [0.0, 0.0, 0.0])


class TestBisector:
    def test_spherical_symmetry_example(self):
        h = bisector(S2, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        n = h.normal / np.linalg.norm(h.normal)
        assert np.allclose(np.abs(n), [math.sqrt(0.5), math.sqrt(0.5), 0.0])
        assert side(S2, h, [1.0, 0.0, 0.0]) == 1

    def test_midpoint_on_plane(self, space):
        xs, ys = random_pairs(space, 100, seed=16)
        for x, y in zip(xs[:20], ys[:20]):
            h = bisector(space, x, y)
            u, t = tangent_toward(space, x, y)
            m = geodesic_point(space, x, u, t / 2)
            assert abs(plane_eval(space, h, m)) <= 1e-9

    def test_hyperbolic_mirror_pair(self):
        x = np.array([math.sinh(1.0), 0.0, math.cosh(1.0)])
        y = np.array([-math.sinh(1.0), 0.0, math.cosh(1.0)])
        h = bisector(H2, x, y)
        assert np.allclose(h.normal, [2 * math.sinh(1.0), 0.0, 0.0])
        assert form(H2, h.normal, h.normal) < 0
        validate_hyperplane(H2, h)

    def test_equidistance_on_plane(self, space):
        # project random points onto the bisector, then compare distances
        xs, ys = random_pairs(space, 50, seed=17)
        zs = random_points(space, 50, seed=18)
        worst = 0.0
        for x, y, z in zip(xs, ys, zs):
            h = bisector(space, x, y)
            p = h.normal
            q = form(space, p, p)
            v = plane_eval(space, h, z)
            on_plane = z - (v / q) * p
            if space.curvature != 0:
                on_plane = normalize_to_space(space, on_plane)
            assert side(space, h, on_plane) == 0 or abs(plane_eval(space, h, on_plane)) < 1e-9
            worst = max(worst, abs(distance(space, on_plane, x) - distance(space, on_plane, y)))
        assert worst <= 1e-9

    def test_degenerate_pairs_raise(self):
        with pytest.raises(ValueError):
            bisector(S2, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            bisector(S2, [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])


class TestReflect:
    def test_involution(self, space):
        xs, ys = random_pairs(space, 300, seed=19)
        for x, y in zip(xs[:40], ys[:40]):
            h = bisector(space, x, y)
            pts = random_points(space, 50, seed=20)
            twice = reflect(space, h, reflect(space, h, pts))
            assert np.max(np.linalg.norm(twice - pts, axis=1)) <= 1e-12

    def test_bisector_swaps_endpoints(self, space):
        xs, ys = random_pairs(space, 100, seed=21)
        for x, y in zip(xs, ys):
            h = bisector(space, x, y)
            assert np.linalg.norm(reflect(space, h, x) - y) <= 1e-12

    def test_fixes_plane_points(self, space):
        xs, ys = random_pairs(space, 20, seed=22)
        for x, y in zip(xs, ys):
            h = bisector(space, x, y)
            q = form(space, h.normal, h.normal)
            z = random_points(space, 1, seed=23)[0]
            z = z - (plane_eval(space, h, z) / q) * h.normal
            if space.curvature != 0:
                z = normalize_to_space(space, z)
            assert np.linalg.norm(reflect(space, h, z) - z) <= 1e-12

    def test_isometry(self, space):
        xs, ys = random_pairs(space, 500, seed=24)
        a, b = random_pairs(space, 1, seed=25)
        h = bisector(space, a[0], b[0])
        d_before = distance(space, xs, ys)
        d_after = distance(space, reflect(space, h, xs), reflect(space, h, ys))
        assert np.max(np.abs(d_after - d_before)) <= 1e-10


class TestSide:
    def test_reflection_flips_sides(self, space):
        xs, ys = random_pairs(space, 100, seed=26)
        h = bisector(space, xs[0], ys[0])
        pts = random_points(space, 200, seed=27)
        s = np.asarray(side(space, h, pts))
        flipped = np.asarray(side(space, h, reflect(space, h, pts)))
        strict = np.abs(plane_eval(space, h, pts)) > 1e-9
        assert np.all(s[strict] == -flipped[strict])

    def test_on_plane_reports_zero(self):
        h = Hyperplane(np.array([1.0, 0.0, 0.0]), 1)
        assert side(S2, h, [0.0, 0.0, 1.0]) == 0

    def test_bisector_orientation_convention(self, space):
        xs, ys = random_pairs(space, 50, seed=28)
        for x, y in zip(xs, ys):
            assert side(space, bisector(space, x, y), x) == 1


class TestGnomonic:
    def test_base_point_fixed(self):
        assert np.allclose(project_gnomonic(S2, E), E)
        assert np.allclose(project_gnomonic(H2, E), E)

    def test_hyperbolic_closed_form(self):
        t = 0.85
        img = project_gnomonic(H2, [math.sinh(t), 0.0, math.cosh(t)])
        assert np.allclose(img, [math.tanh(t), 0.0, 1.0], atol=1e-14)

    def test_images_inside_unit_ball(self):
        pts = random_points(H2, 200, seed=29, spread=2.0)
        img = project_gnomonic(H2, pts)
        assert np.all(np.linalg.norm(img[:, :-1], axis=1) < 1.0)

    def test_rejects_far_hemisphere(self):
        with pytest.raises(ValueError):
            project_gnomonic(S2, [0.0, 0.0, -1.0])

    def test_geodesics_map_to_lines(self, space):
        # three points on one geodesic must project to collinear images
        if space.curvature == 0:
            pytest.skip("identity map")
        zs = random_points(space, 100, seed=30, spread=0.3)
        worst = 0.0
        for z in zs:
            u, _ = tangent_toward(space, z, space.base_point)
            trio = geodesic_point(space, z, u, np.array([-0.4, 0.1, 0.5]))
            img = project_gnomonic(space, trio)
            v1 = img[1] - img[0]
            v2 = img[2] - img[0]
            v1 = v1 / np.linalg.norm(v1)
            resid = v2 - (v2 @ v1) * v1
            worst = max(worst, float(np.linalg.norm(resid)))
        assert worst <= 1e-9


class TestBallVolume:
    def test_spherical_cap_closed_form(self):
        r = math.pi / 4
        assert ball_volume(S2, r) == pytest.approx(2 * math.pi * (1 - math.cos(r)), abs=1e-9)

    def test_hyperbolic_closed_form(self):
        assert ball_volume(H2, 1.0) == pytest.approx(2 * math.pi * (math.cosh(1.0) - 1), abs=1e-9)

    def test_full_sphere(self):
        assert ball_volume(S2, math.pi) == pytest.approx(4 * math.pi, abs=1e-9)

    def test_euclidean_disk(self):
        assert ball_volume(E2, 2.0) == pytest.approx(4 * math.pi, abs=1e-9)

    def test_strictly_increasing(self, space):
        hi = math.pi if space.curvature == 1 else 3.0
        rs = np.linspace(0.05, hi, 25)
        vols = [ball_volume(space, r) for r in rs]
        assert all(b > a for a, b in zip(vols, vols[1:]))

    def test_higher_dimension_euclidean(self):
        assert ball_volume(Space.euclidean(3), 1.0) == pytest.approx(4 * math.pi / 3, abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ball_volume(S2, 3.5)
        with pytest.raises(ValueError):
            ball_volume(E2, -1.0)

    @pytest.mark.parametrize("space", SPACES_TO_5, ids=SPACES_TO_5_IDS)
    def test_as_exact_as_quadrature(self, space):
        """Against a 40-digit reference, the worst relative error over the radii
        is at most that of the adaptive quadrature ball_volume once used, plus
        one rounding."""
        n, k = space.dim, space.dim - 1
        f = {1: math.sin, -1: math.sinh, 0: lambda t: t}[space.curvature]
        g = {1: mpmath.sin, -1: mpmath.sinh, 0: lambda t: t}[space.curvature]
        area = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
        rs = list(np.geomspace(1e-6, 3.1, 40)) + ([5.0, 10.0, 20.0] if space.curvature == -1
                                                  else [])
        worst_quad = worst = 0.0
        with mpmath.workdps(40):
            for r in rs:
                exact = area * mpmath.quad(lambda t: g(t) ** k, [0, mpmath.mpf(r)])
                quad = integrate.quad(lambda t: f(t) ** k, 0.0, r, epsabs=1e-14,
                                      epsrel=1e-12, limit=200)[0] * sphere_area(n)
                worst_quad = max(worst_quad, float(abs(quad / exact - 1)))
                worst = max(worst, float(abs(ball_volume(space, r) / exact - 1)))
        assert worst <= worst_quad + 2.2e-16

    @pytest.mark.parametrize("n", [6, 8, 10, 16])
    def test_spheres_above_five_stay_near_quadrature(self, n):
        """S^n for n > 5, against a 17-piece 40-digit reference (one undivided
        mpmath.quad is off by 7e-9 for sin^9): within 2e-15 relative from
        r = 0.05 to 3.1, and on both sides of pi/2, where the positive series
        hands over to the reduction formula.  The adaptive quadrature once
        used reached 1.2e-15 on S16; the Taylor switch at 0.8 left 2.2e-14."""
        k = n - 1
        rs = list(np.linspace(0.05, 3.1, 62)) + [math.pi / 2, np.nextafter(math.pi / 2, 0.0)]
        worst = 0.0
        with mpmath.workdps(40):
            area = 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2)
            for r in rs:
                cuts = [mpmath.mpf(float(r)) * i / 17 for i in range(18)]
                exact = area * mpmath.quad(lambda t: mpmath.sin(t) ** k, cuts)
                worst = max(worst, float(abs(ball_volume(Space.sphere(n), r) / exact - 1)))
        assert worst <= 2e-15


class TestBitExactRewrites:
    """Cheaper arithmetic that must keep the bits of the formulas it replaced."""

    @pytest.mark.parametrize("space", SPACES_TO_5, ids=SPACES_TO_5_IDS)
    def test_random_unit_tangent_has_the_bits_of_the_norm_formula(self, space):
        n = space.dim
        if space.curvature == 0:
            z = np.linspace(-0.7, 0.4, n)
        else:
            z = point_from_pole(space, 0.7, np.linspace(1.0, 0.2, n))
        u = random_unit_tangent(space, z, substream(64), 20_000)
        coeffs = substream(64).standard_normal((20_000, n))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        assert u.tobytes() == (coeffs @ frame(space, z)[:n]).tobytes()

    @pytest.mark.parametrize("space", [s for s in SPACES_TO_5 if s.curvature != 0],
                             ids=[i for i in SPACES_TO_5_IDS if not i.startswith("E")])
    def test_radial_mass_series_has_the_bits_of_polyval(self, space):
        k = space.dim - 1
        rng = substream(65)
        small = rng.uniform(0.0, _SERIES_MAX, 20_000)
        small[:2] = 0.0, np.nextafter(_SERIES_MAX, 0.0)
        mixed = rng.uniform(0.0, 3.0, 20_000)
        for h in (small, mixed):
            rows = h < _SERIES_MAX
            hs = h[rows]
            ref = hs ** (k + 1) * np.polynomial.polynomial.polyval(
                hs * hs, _mass_series(space.curvature, k))
            assert _radial_mass(space, h)[0][rows].tobytes() == ref.tobytes()


    @pytest.mark.parametrize("space", SOLVE_SPACES, ids=SOLVE_SPACE_IDS)
    @pytest.mark.parametrize("r", [0.3, 1.2, "far"])
    def test_radius_solve_rows_have_the_bits_of_one_batch(self, space, r):
        # each row stops at its own convergence, so any split of the rows
        # gives the bits of one batch: past the pi/2 fold on S, far out on H
        r = (3.0 if space.curvature == 1 else 8.0) if r == "far" else r
        u = substream(66).random(4200)
        u[:4] = 0.0, 1e-300, 0.5, np.nextafter(1.0, 0.0)
        whole = _radius_solve(space, r, u)
        for size, rows in ((4097, u.size), (7, 1400)):
            parts = [_radius_solve(space, r, u[i:min(i + size, rows)])
                     for i in range(0, rows, size)]
            assert np.concatenate(parts).tobytes() == whole[:rows].tobytes()
        for i in range(0, u.size, 42):
            assert _radius_solve(space, r, u[i:i + 1]).tobytes() == whole[i:i + 1].tobytes()


def _radial_antiderivative(curvature, k, t):
    """int_0^t sin^k or sinh^k, by the reduction formula, in mpmath."""
    if k < 2:
        return t if k == 0 else (1 - mpmath.cos(t) if curvature == 1 else mpmath.cosh(t) - 1)
    below = mpmath.mpf(k - 1) / k * _radial_antiderivative(curvature, k - 2, t)
    if curvature == 1:
        return below - mpmath.sin(t) ** (k - 1) * mpmath.cos(t) / k
    return mpmath.sinh(t) ** (k - 1) * mpmath.cosh(t) / k - below


def _exact_quantile(curvature, k, r, u):
    """The radius t with int_0^t = u int_0^r, by 50-digit bracketed Newton."""
    with mpmath.workdps(50):
        r, u = mpmath.mpf(r), mpmath.mpf(float(u))
        target = u * _radial_antiderivative(curvature, k, r)
        density = mpmath.sin if curvature == 1 else mpmath.sinh
        lo, hi, t = mpmath.mpf(0), r, r * u ** (mpmath.mpf(1) / (k + 1))
        for _ in range(200):
            g = _radial_antiderivative(curvature, k, t) - target
            lo, hi = (t, hi) if g <= 0 else (lo, t)
            step = t - g / density(t) ** k if t > 0 else 0.5 * (lo + hi)
            step = step if lo <= step <= hi else 0.5 * (lo + hi)
            if abs(step - t) <= mpmath.mpf(10) ** -45 * t:
                return float(step)
            t = step
        raise AssertionError("no root")


class TestRadiusSolve:
    @pytest.mark.parametrize("space", SOLVE_SPACES, ids=SOLVE_SPACE_IDS)
    @pytest.mark.parametrize("r", [0.3, 1.2, "far"])
    def test_within_three_ulps_of_the_exact_quantile(self, space, r):
        # each row stops at its own convergence; over 24,000 rows the batch
        # solve this replaced, where every row stepped until the slowest had
        # converged, was as far out: 3 ulps at worst, 0.240 ulp on average
        # against 0.241 now
        r = (3.0 if space.curvature == 1 else 8.0) if r == "far" else r
        u = substream(67, space.dim, int(10 * r)).random(100)
        u[:3] = 1e-12, 0.5, np.nextafter(1.0, 0.0)
        want = np.array([_exact_quantile(space.curvature, space.dim - 1, r, v) for v in u])
        got = _radius_solve(space, r, u)
        assert np.max(np.abs(got - want) / np.spacing(want)) <= 3.0


class TestTangentBasis:
    def test_orthonormal_rows(self, space):
        for seed in range(5):
            z = random_points(space, 1, seed=31 + seed)[0]
            basis = frame(space, z)[:space.dim]
            assert basis.shape == (space.dim, space.ambient_dim)
            for row in basis:
                if space.curvature != 0:
                    assert abs(form(space, row, z)) <= 1e-10
                assert abs(tangent_norm(space, row) - 1.0) <= 1e-10

    def test_quadric_preserved_along_random_geodesics(self, space):
        if space.curvature == 0:
            return
        z = random_points(space, 200, seed=36)
        u = frame(space, space.base_point)[0]
        pts = geodesic_point(space, space.base_point, u, np.linspace(0.0, 1.5, 200))
        assert np.max(np.abs(form(space, pts, pts) - 1.0)) <= 1e-10


def _frame_of_one_point(space, z):
    """``frame`` as it was for one point at a time, the reference for a batch."""
    d = space.ambient_dim
    zb, ze = z[:-1], float(z[-1])
    q = float(zb @ zb)
    if space.curvature == 0 or (ze > 0.0 and q < np.finfo(float).tiny):
        return np.eye(d)
    if space.curvature == -1:
        f = np.empty((d, d))
        f[:-1, :-1] = np.eye(d - 1) + np.outer(zb, zb) / (1.0 + ze)
        f[:-1, -1] = f[-1, :-1] = zb
        f[-1, -1] = ze
        return f
    v = z.copy()
    v[-1] = -q / (1.0 + ze) if ze > 0.0 else ze - 1.0
    return np.eye(d) - np.outer(v, v) * (2.0 / float(v @ v))


class TestFrame:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(space_name=st.sampled_from(sorted(FRAME_SPACES)), data=st.data(),
           w=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    def test_symmetric_isometry_onto_the_point(self, space_name, data, w):
        space = FRAME_SPACES[space_name]
        n = space.dim
        assume(np.linalg.norm(w[:n]) > 1e-3)
        if space.curvature == 1:
            edges, top = [1e-12, 1e-6, math.pi / 2, math.pi - 1e-9], math.pi - 1e-9
        else:
            edges, top = [1e-12, 7.0, 10.0, 20.0], 20.0
        t = data.draw(st.one_of(st.sampled_from(edges), st.floats(1e-12, top)))
        z = point_from_pole(space, t, w[:n])
        f = frame(space, z)
        assert np.array_equal(f, f.T)
        assert np.max(np.abs(f[:, -1] - z)) <= FRAME_TOL
        rows = f[:n]
        sign, scale = (1.0, 1.0) if space.curvature == 1 else (-1.0, z[-1] ** 2)
        gram = sign * form(space, rows[:, None, :], rows[None, :, :])
        assert np.max(np.abs(gram - np.eye(n))) <= FRAME_TOL * scale
        assert np.max(np.abs(form(space, rows, z))) <= FRAME_TOL * scale
        if space.curvature == 1:
            assert np.max(np.abs(f @ f - np.eye(n + 1))) <= FRAME_TOL

    @pytest.mark.parametrize("space", [S2, Space.sphere(3), E2, H2, Space.hyperbolic(3)],
                             ids=["S2", "S3", "E2", "H2", "H3"])
    def test_identity_at_the_base_point(self, space):
        for e in (space.base_point, np.where(space.base_point == 0.0, -0.0, space.base_point)):
            f = frame(space, e)
            assert np.array_equal(f, np.eye(space.ambient_dim))
            assert not np.signbit(f).any()

    @pytest.mark.parametrize("space", [S2, H2], ids=["S2", "H2"])
    def test_finite_where_the_offset_squared_underflows(self, space):
        z = np.array([1e-170, 0.0, 1.0])
        assert np.max(np.abs(frame(space, z)[:, -1] - z)) <= 1e-169

    def test_antipode_flips_the_last_axis(self):
        assert np.array_equal(frame(S2, -E), np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("space", [S2, H2, E2], ids=["S2", "H2", "R2"])
    def test_a_batch_has_the_bits_of_each_point(self, space):
        e = space.base_point
        underflow = e.copy()
        underflow[0] = 1e-170
        edge = [e, np.where(e == 0.0, -0.0, e), underflow] + ([-e] if space.curvature == 1 else [])
        rng = substream(64)
        top = math.pi - 1e-9 if space.curvature == 1 else 20.0
        t = np.concatenate([[1e-12, 1e-6, 0.5, 3.0], rng.uniform(0.0, top, 60)])
        if space.curvature == 0:
            far = 10.0 ** rng.uniform(-12, 3, (t.size, 1)) * rng.standard_normal((t.size, 2))
        else:
            far = point_from_pole(space, t, rng.standard_normal((t.size, 2)))
        z = np.vstack([edge, far])
        got = frame(space, z)
        assert got.shape == (len(z), space.ambient_dim, space.ambient_dim)
        for row, f in zip(z, got):
            want = _frame_of_one_point(space, row)
            assert f.tobytes() == want.tobytes()
            assert frame(space, row).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(FRAME_SPACES))
    def test_random_tangents_pass_the_unit_check(self, name):
        """Draws are unit tangents within UNIT_TOL, the bound geodesic_point holds
        them to, wherever float coordinates can show it: to 7 from the pole on H^n."""
        space = FRAME_SPACES[name]
        rng = substream(62)
        far = 7.0 if space.curvature == -1 else math.pi - 1e-6
        for t in (1e-9, 0.5, 2.0, far):
            z = point_from_pole(space, t, rng.standard_normal(space.dim))
            u = random_unit_tangent(space, z, rng, 1000)
            assert np.max(np.abs(tangent_norm(space, u) - 1.0)) <= UNIT_TOL
            assert np.max(np.abs(form(space, u, z))) <= UNIT_TOL


class TestValidation:
    def test_point_invariants(self):
        check_point(S2, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            check_point(S2, [1.1, 0.0, 0.0])
        with pytest.raises(ValueError):
            check_point(H2, [0.0, 0.0, -1.0])

    @pytest.mark.parametrize("space", [H2, Space.hyperbolic(3)], ids=["H2", "H3"])
    @pytest.mark.parametrize("R", [7.0, 10.0, 15.0, 20.0])
    def test_far_points_pass(self, space, R):
        w = substream(63).standard_normal((500, space.dim))
        pts = point_from_pole(space, np.full(500, R), w)
        check_point(space, pts)
        if R <= 15.0:
            # from R = 19 on, B(x, x) of some of these points rounds to 0 or
            # below, and normalize_to_space refuses them
            check_point(space, normalize_to_space(space, pts))

    @pytest.mark.parametrize("space", [H2, Space.hyperbolic(3)], ids=["H2", "H3"])
    @pytest.mark.parametrize("R", [0.0, 7.0, 10.0, 15.0, 20.0])
    def test_off_quadric_by_1e6_relative_fails(self, space, R):
        w = substream(64).standard_normal(space.dim)
        x = point_from_pole(space, R, w)
        rest = float(x[:-1] @ x[:-1])
        for off in (1e-6, -1e-6):
            # x_e^2 - |x_rest|^2 - 1 = off * x_e^2 exactly in real arithmetic
            x[-1] = math.sqrt((1.0 + rest) / (1.0 - off))
            with pytest.raises(ValueError, match="quadric"):
                check_point(space, x)

    def test_hyperplane_signature(self):
        with pytest.raises(ValueError):
            validate_hyperplane(H2, Hyperplane(np.array([0.0, 0.0, 1.0]), 1))
        validate_hyperplane(H2, Hyperplane(np.array([1.0, 0.0, 0.0]), 1))

    def test_ball_bounds(self):
        validate_ball(S2, Ball(E, math.pi / 2))
        with pytest.raises(ValueError):
            validate_ball(S2, Ball(E, 3.5))
        with pytest.raises(ValueError):
            validate_ball(S2, Ball(E, -0.1))

    def test_hyperplane_must_be_finite(self):
        with pytest.raises(ValueError, match="normal must be finite"):
            validate_hyperplane(S2, Hyperplane(np.array([math.nan, 0.0, 0.0]), 1))
        with pytest.raises(ValueError, match="normal must be finite"):
            validate_hyperplane(H2, Hyperplane(np.array([math.inf, 0.0, 0.0]), 1))
        with pytest.raises(ValueError, match="offset must be finite"):
            validate_hyperplane(Space.euclidean(2), Hyperplane(np.array([1.0, 0.0]), 1, math.nan))

import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from isodiam import symmetrize
from isodiam.experiments import CampaignConfig, verify_isodiametric
from isodiam.geometry import (
    Ball,
    Hyperplane,
    Space,
    ball_volume,
    bisector,
    decode_key,
    distance,
    geodesic_point,
    reflect,
    side,
    sphere_area,
)
from isodiam.regions import (
    Difference,
    NeighborIndex,
    Symmetrized,
    Union,
    bounding_ball,
    contains,
    diameter,
    sample,
    symmetrized_depth,
    uniform_in_ball,
    volume_estimate,
)
from isodiam.rng import substream
from isodiam.symmetrize import (
    FarthestPairBisector,
    MetricsConfig,
    RandomThroughPole,
    FlowStep,
    SphericalDiameterWarning,
    _map_cores,
    choose_hyperplane,
    equal_volume_radius,
    flow_step,
    run_flow,
    two_point_symmetrize,
)

from conftest import SPACES_TO_5, SPACES_TO_5_IDS, random_points

S2 = Space.sphere(2)
E = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])
FAST = MetricsConfig(cloud_density=400.0, volume_samples=2000)


def plane_through_pole(space):
    n = np.zeros(space.ambient_dim)
    n[0] = 1.0
    return Hyperplane(n, 1)


def _count_identity_checks(monkeypatch):
    """Record every counting-identity check a flow step runs."""
    checks = []
    real = symmetrize._check_counting_identity
    monkeypatch.setattr(symmetrize, "_check_counting_identity",
                        lambda *a: checks.append(a) or real(*a))
    return checks


def _count_pairwise_passes(monkeypatch):
    """Record every _pairwise_extremes call made from regions or symmetrize."""
    import isodiam.regions as reg
    import isodiam.symmetrize as sym
    real = reg._pairwise_extremes
    calls = []

    def counting(space, pts, *args, **kwargs):
        calls.append(len(pts))
        return real(space, pts, *args, **kwargs)

    monkeypatch.setattr(reg, "_pairwise_extremes", counting)
    monkeypatch.setattr(sym, "_pairwise_extremes", counting)
    return calls


def _count_index_builds(monkeypatch):
    """Record the points of every nearest-neighbor index built."""
    import isodiam.regions as reg
    real = reg.NeighborIndex
    built = []

    class Counting(real):
        def __init__(self, space, pts):
            built.append(pts)
            super().__init__(space, pts)

    monkeypatch.setattr(reg, "NeighborIndex", Counting)
    return built


def _record_samples(monkeypatch):
    """Record every cloud the flow samples: the reference first, then one per step."""
    import isodiam.symmetrize as sym
    real = sym.sample
    clouds = []

    def recording(*args, **kwargs):
        clouds.append(real(*args, **kwargs))
        return clouds[-1]

    monkeypatch.setattr(sym, "sample", recording)
    return clouds


class TestTwoPointSymmetrize:
    def test_ball_on_plane_is_fixed(self, space):
        h = plane_through_pole(space)
        ball = Ball(space.base_point, 0.7)
        tau = two_point_symmetrize(space, h, ball)
        # exact fixed point: returned unchanged
        assert tau is ball
        # and the wrapped node has identical membership anyway
        node = Symmetrized(h, ball)
        pts = random_points(space, 800, seed=110, spread=1.2)
        assert np.array_equal(contains(space, node, pts), contains(space, ball, pts))

    def test_offside_ball_becomes_mirror(self, space):
        h = plane_through_pole(space)
        axis = np.zeros(space.ambient_dim)
        axis[0] = 1.0
        center = geodesic_point(space, space.base_point, axis, 0.5)
        if side(space, h, center) > 0:
            h = h.flipped()
        ball = Ball(center, 0.25)
        tau = two_point_symmetrize(space, h, ball)
        assert isinstance(tau, Symmetrized)
        mirror = Ball(reflect(space, h, center), 0.25)
        pts = random_points(space, 800, seed=111, spread=1.0)
        assert np.array_equal(contains(space, tau, pts), contains(space, mirror, pts))

    def test_mirror_cap_union_counting_identity(self):
        # two disjoint congruent caps swap under their bisector
        c1 = geodesic_point(S2, E, EX, 0.6)
        c2 = geodesic_point(S2, E, -EX, 0.6)
        x = Union((Ball(c1, 0.25), Ball(c2, 0.25)))
        h = bisector(S2, c1, c2)
        tau = Symmetrized(h, x)
        rng = substream(112)
        pts = uniform_in_ball(S2, Ball(E, 1.2), rng, size=10_000)
        mirrored = reflect(S2, h, pts)
        lhs = contains(S2, tau, pts).astype(int) + contains(S2, tau, mirrored).astype(int)
        rhs = contains(S2, x, pts).astype(int) + contains(S2, x, mirrored).astype(int)
        assert np.array_equal(lhs, rhs)

    def test_symmetrized_pair_bound_exact(self, space):
        # min(d(x, y), d(x, sigma y)) never exceeds the source diameter bound
        pole = space.base_point
        D = 1.0
        region = Ball(pole, D / 2.0)
        axis = np.zeros(space.ambient_dim)
        axis[0] = 1.0
        h = bisector(space, geodesic_point(space, pole, axis, 0.35), pole)
        tau = Symmetrized(h, region)
        cloud = sample(space, tau, 900.0, substream(114))
        pts = cloud.points
        rng = substream(115)
        i = rng.integers(0, len(pts), size=4000)
        j = rng.integers(0, len(pts), size=4000)
        d_direct = distance(space, pts[i], pts[j])
        d_mirror = distance(space, pts[i], reflect(space, h, pts[j]))
        assert np.all(np.minimum(d_direct, d_mirror) <= D + 1e-9)


class TestChooseHyperplane:
    def test_two_point_cloud_gives_bisector(self, space):
        pts = random_points(space, 2, seed=116)
        h = choose_hyperplane(space, FarthestPairBisector(), (pts[0], pts[1]), substream(1))
        expected = bisector(space, pts[0], pts[1])
        ratio = h.normal / expected.normal
        assert np.allclose(ratio, ratio[0])

    def test_random_plane_passes_through_pole(self, space):
        for k in range(10):
            h = choose_hyperplane(space, RandomThroughPole(), None, substream(117, k))
            assert side(space, h, space.base_point) == 0

    def test_farthest_pair_orientation_keeps_pole(self, space):
        cloud = random_points(space, 60, seed=118)
        _, x, y = diameter(space, cloud)
        h = choose_hyperplane(space, FarthestPairBisector(), (x, y), substream(2))
        assert side(space, h, space.base_point) >= 0

    def test_farthest_pair_needs_a_pair(self):
        with pytest.raises(ValueError, match="at least two sample points"):
            choose_hyperplane(S2, FarthestPairBisector(), None, substream(4))


class TestEqualVolumeRadius:
    @pytest.mark.parametrize("space", SPACES_TO_5, ids=SPACES_TO_5_IDS)
    def test_inverts_ball_volume(self, space):
        rs = list(np.geomspace(1e-6, 3.1, 40)) + ([5.0, 10.0, 20.0] if space.curvature == -1
                                                  else [])
        for r in rs:
            v = ball_volume(space, r)
            back = ball_volume(space, equal_volume_radius(space, v))
            assert abs(back - v) <= 2e-15 * space.dim * v, r

    @pytest.mark.parametrize("n", [2, 5, 10, 30])
    def test_huge_hyperbolic_volumes(self, n):
        # the bracket's mass stays finite where a radius of 1 + asinh(m^(1/k)) overflows
        space = Space.hyperbolic(n)
        v = ball_volume(space, equal_volume_radius(space, 1e300))
        assert v == pytest.approx(1e300, rel=1e-13)

    def test_flow_flat_reference_radius(self):
        # the radius of flow-flat's pole cap comes back to within 2 ulps
        assert abs(equal_volume_radius(S2, ball_volume(S2, 0.8)) - 0.8) <= 2 * math.ulp(0.8)

    @pytest.mark.parametrize("space", SPACES_TO_5 + [Space.sphere(6), Space.sphere(10)],
                             ids=SPACES_TO_5_IDS + ["S6", "S10"])
    def test_tiny_volumes(self, space):
        # the Euclidean radius with the first curvature term, exact to O(t^5)
        n = space.dim
        for volume in (1e-30, 1e-200):
            t = (n * volume / sphere_area(n)) ** (1.0 / n)
            want = t * (1.0 + space.curvature * (n - 1) * t * t / (6.0 * (n + 2)))
            assert equal_volume_radius(space, volume) == pytest.approx(want, rel=1e-15)

    def test_total_sphere_volume(self):
        assert equal_volume_radius(S2, ball_volume(S2, math.pi)) == math.pi

    @pytest.mark.parametrize("volume", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_volume(self, volume):
        with pytest.raises(ValueError, match=f"got {volume}"):
            equal_volume_radius(S2, volume)


class TestFlow:
    def test_cap_at_pole_is_metric_stationary(self):
        report = run_flow(S2, Ball(E, 0.8), RandomThroughPole(), max_steps=8,
                          stop_epsilon=0.0, seed=119, metrics=FAST)
        base = report.steps[0]
        for rec in report.steps[1:]:
            assert abs(rec.volume.value - base.volume.value) <= \
                3 * math.hypot(rec.volume.std_error, base.volume.std_error) + 1e-12
            assert abs(rec.diameter - base.diameter) <= 2 * (rec.spacing + base.spacing)
            assert not rec.rebased

    def test_cap_at_pole_volume_is_exact_and_unchecked(self, monkeypatch):
        # every step leaves the cap unchanged: its volume is the closed form
        # with no draw, and the counting identity, which would compare the
        # cap with itself, is not checked
        checks = _count_identity_checks(monkeypatch)
        report = run_flow(S2, Ball(E, 0.8), RandomThroughPole(), max_steps=4,
                          stop_epsilon=0.0, seed=119, metrics=FAST)
        assert len(report.steps) == 5
        assert checks == []
        exact = ball_volume(S2, 0.8)
        assert [(s.volume.value, s.volume.std_error, s.volume.samples_used)
                for s in report.steps] == [(exact, 0.0, 0)] * 5
        assert [s["samples"] for s in report.to_dict()["steps"]] == [0] * 5

    def test_off_pole_cap_steps_check_and_draw(self, monkeypatch):
        # step 0 is the exact ball; each symmetrized step checks its counting
        # identity and draws its volume
        checks = _count_identity_checks(monkeypatch)
        report = run_flow(S2, Ball(geodesic_point(S2, E, EX, 0.3), 0.6), RandomThroughPole(),
                          max_steps=3, stop_epsilon=0.0, seed=119, metrics=FAST)
        assert len(checks) == 3
        assert [s["samples"] for s in report.to_dict()["steps"]] == [0, 2000, 2000, 2000]

    def test_reference_ball_initial_stops_immediately(self):
        report = run_flow(S2, Ball(E, 0.6), RandomThroughPole(), max_steps=50,
                          stop_epsilon=0.2, seed=120,
                          metrics=MetricsConfig(cloud_density=800.0, volume_samples=4000))
        assert report.converged
        assert len(report.steps) == 1

    def test_flow_step_contract(self):
        region = Difference(Ball(E, 0.7), Ball(geodesic_point(S2, E, EX, 0.4), 0.2))
        ref_cloud = sample(S2, Ball(E, 0.65), 400.0, substream(121))
        _, x, y = diameter(S2, sample(S2, region, 400.0, substream(122)))
        vol = volume_estimate(S2, region, 2000, substream(123))
        prev = FlowStep(step=0, volume=vol, diameter=1.4, hausdorff_to_reference=0.3,
                        spacing=0.05, plane=None, rebased=False, pair=(x, y))
        new_region, rec = flow_step(
            S2, region, FarthestPairBisector(), FAST, seed=124, step=1,
            reference_cloud=ref_cloud, prev=prev)
        assert rec.step == 1
        assert rec.plane is not None
        assert symmetrized_depth(new_region) == 1
        assert rec.volume.std_error > 0
        # the record's pair attains the diameter it reports
        assert distance(S2, *rec.pair) == pytest.approx(rec.diameter, abs=1e-12)
        # copies, not views that would keep the whole cloud alive in the report
        assert all(p.base is None for p in rec.pair)
        # the pair stays out of equality
        assert rec == dataclasses.replace(rec, pair=None)

    def test_spherical_diameter_warning(self):
        # a radius-2.2 cap has diameter above pi: its one step warns once
        big = Ball(geodesic_point(S2, E, EX, 0.2), 2.2)
        with pytest.warns(SphericalDiameterWarning) as record:
            run_flow(S2, big, RandomThroughPole(), max_steps=1, stop_epsilon=0.0,
                     seed=113, metrics=FAST)
        assert sum(issubclass(w.category, SphericalDiameterWarning) for w in record) == 1

    def test_small_cap_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SphericalDiameterWarning)
            report = run_flow(S2, Ball(geodesic_point(S2, E, EX, 0.2), 0.9),
                              RandomThroughPole(), max_steps=2, stop_epsilon=0.0,
                              seed=113, metrics=FAST)
        assert len(report.steps) == 3

    def test_one_pairwise_pass_per_cloud(self, monkeypatch):
        # step 0 and each of the k steps measure one cloud, once each
        calls = _count_pairwise_passes(monkeypatch)
        k = 4
        report = run_flow(S2, Ball(E, 0.6), RandomThroughPole(), max_steps=k,
                          stop_epsilon=0.0, seed=131, metrics=FAST)
        assert len(report.steps) == k + 1
        assert len(calls) == k + 1

    def test_one_index_per_cloud(self, monkeypatch):
        # the reference cloud is indexed once per flow, and each step's cloud
        # once, for its spacing and for the reference's Hausdorff direction
        built = _count_index_builds(monkeypatch)
        clouds = _record_samples(monkeypatch)
        k = 4
        report = run_flow(S2, Ball(E, 0.6), RandomThroughPole(), max_steps=k,
                          stop_epsilon=0.0, seed=131, metrics=FAST)
        assert len(report.steps) == k + 1
        assert len(clouds) == k + 2
        assert len(built) == k + 2
        for cloud in clouds:
            assert sum(pts is cloud.points for pts in built) == 1

    def test_farthest_flow_reuses_measured_pair(self, monkeypatch):
        # the bisector comes from the pair the previous step measured, with no
        # second pass over that cloud
        calls = _count_pairwise_passes(monkeypatch)
        k = 4
        region = Difference(Ball(E, 0.7), Ball(geodesic_point(S2, E, EX, 0.4), 0.2))
        report = run_flow(S2, region, FarthestPairBisector(), max_steps=k,
                          stop_epsilon=0.0, seed=133, metrics=FAST)
        assert len(report.steps) == k + 1
        assert len(calls) == k + 1

    def test_diameter_trace_non_increasing_with_slack(self):
        region = Difference(Ball(E, 0.75), Ball(geodesic_point(S2, E, EX, 0.4), 0.25))
        report = run_flow(S2, region, RandomThroughPole(), max_steps=10,
                          stop_epsilon=0.0, seed=125,
                          metrics=MetricsConfig(cloud_density=900.0, volume_samples=3000))
        for prev, cur in zip(report.steps, report.steps[1:]):
            if cur.rebased:
                continue
            assert cur.diameter <= prev.diameter + 2 * (prev.spacing + cur.spacing) + 1e-9

    def test_volume_constant_within_3_sigma(self):
        region = Difference(Ball(E, 0.75), Ball(geodesic_point(S2, E, EX, 0.4), 0.25))
        report = run_flow(S2, region, RandomThroughPole(), max_steps=8,
                          stop_epsilon=0.0, seed=126,
                          metrics=MetricsConfig(cloud_density=700.0, volume_samples=8000))
        base = report.steps[0]
        for rec in report.steps[1:]:
            if rec.rebased:
                break
            assert abs(rec.volume.value - base.volume.value) <= \
                3 * math.hypot(rec.volume.std_error, base.volume.std_error)

    def test_rebase_triggers_and_flags(self):
        region = Difference(Ball(E, 0.7), Ball(geodesic_point(S2, E, EX, 0.35), 0.25))
        metrics = MetricsConfig(cloud_density=500.0, volume_samples=3000, rebase_depth=2)
        report = run_flow(S2, region, RandomThroughPole(), max_steps=6,
                          stop_epsilon=0.0, seed=127, metrics=metrics)
        rebased_steps = [r.step for r in report.steps if r.rebased]
        assert rebased_steps
        assert all(not report.steps[s].rebased for s in (0, 1, 2))
        # volume calibration keeps the rebased region near the target
        for r in report.steps:
            assert abs(r.volume.value - report.steps[0].volume.value) <= 0.15

    def test_flow_step_wraps_its_candidate_with_the_mapped_cores(self):
        region = Difference(Ball(E, 0.7), Ball(geodesic_point(S2, E, EX, 0.4), 0.2))
        core = Ball(geodesic_point(S2, E, -EX, 0.3), 0.2)
        ref_cloud = sample(S2, Ball(E, 0.65), 400.0, substream(121))
        vol = volume_estimate(S2, region, 2000, substream(123))
        prev = FlowStep(step=0, volume=vol, diameter=1.4, hausdorff_to_reference=0.3,
                        spacing=0.05, plane=None, rebased=False, cores=(core,))
        new_region, rec = flow_step(S2, region, RandomThroughPole(), FAST, seed=124, step=1,
                                    reference_cloud=ref_cloud, prev=prev)
        # the candidate first, then the image of the core
        assert isinstance(new_region, Union)
        candidate, image = new_region.children
        assert isinstance(candidate, Symmetrized)
        assert candidate.inner is region and candidate.plane is rec.plane
        (want,) = _map_cores(S2, rec.plane, (core,))
        assert rec.cores == (image,)
        assert np.array_equal(image.center, want.center) and image.radius == core.radius

    def test_cores_stay_out_of_equality_and_reports(self, tmp_path, monkeypatch):
        # each step maps the cores it carries once, through its own plane
        planes = []
        map_cores = symmetrize._map_cores

        def counting(space, plane, cores):
            planes.append(plane)
            return map_cores(space, plane, cores)

        monkeypatch.setattr(symmetrize, "_map_cores", counting)
        region = Difference(Ball(E, 0.7), Ball(geodesic_point(S2, E, EX, 0.35), 0.25))
        metrics = MetricsConfig(cloud_density=500.0, volume_samples=3000, rebase_depth=2)
        report = run_flow(S2, region, RandomThroughPole(), max_steps=5,
                          stop_epsilon=0.0, seed=127, metrics=metrics)
        assert planes == [r.plane for r in report.steps[1:]]
        assert any(r.cores for r in report.steps)
        bare = dataclasses.replace(report, steps=[dataclasses.replace(r, cores=())
                                                  for r in report.steps])
        assert bare.steps == report.steps
        for rep, name in ((report, "cored"), (bare, "bare")):
            rep.write_csv(tmp_path / f"{name}.csv")
            rep.write_json(tmp_path / f"{name}.json")
        for ext in ("csv", "json"):
            assert (tmp_path / f"cored.{ext}").read_bytes() == (tmp_path / f"bare.{ext}").read_bytes()

    def test_flow_determinism_byte_identical(self, tmp_path):
        region = Difference(Ball(E, 0.7), Ball(geodesic_point(S2, E, EX, 0.4), 0.2))
        paths = []
        for k in (1, 2):
            rep = run_flow(S2, region, RandomThroughPole(), max_steps=4,
                           stop_epsilon=0.0, seed=128, metrics=FAST)
            csv_path = tmp_path / f"flow{k}.csv"
            json_path = tmp_path / f"flow{k}.json"
            rep.write_csv(csv_path)
            rep.write_json(json_path)
            paths.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert paths[0] == paths[1]

    def test_csv_has_step_rows_and_header(self, tmp_path):
        rep = run_flow(S2, Ball(E, 0.5), RandomThroughPole(), max_steps=3,
                       stop_epsilon=0.0, seed=129, metrics=FAST)
        out = tmp_path / "flow.csv"
        rep.write_csv(out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["step", "volume", "volume_stderr", "diameter", "hausdorff"]
        assert len(rows) == 1 + 3 + 1  # header + steps 0..3
        assert rows[1][7] == ""  # step 0 has no hyperplane

    def test_json_echoes_config(self, tmp_path):
        rep = run_flow(S2, Ball(E, 0.5), RandomThroughPole(), max_steps=2,
                       stop_epsilon=0.0, seed=130, metrics=FAST)
        out = tmp_path / "flow.json"
        rep.write_json(out)
        doc = json.loads(out.read_text())
        assert doc["seed"] == 130
        assert doc["config"]["strategy"]["kind"] == "RandomThroughPole"
        assert doc["config"]["metrics"]["volume_samples"] == FAST.volume_samples
        assert len(doc["steps"]) == len(rep.steps)

    def test_euclidean_and_hyperbolic_flows_run(self):
        for space in (Space.euclidean(2), Space.hyperbolic(2)):
            axis = np.zeros(space.ambient_dim)
            axis[0] = 1.0
            region = Difference(Ball(space.base_point, 0.8),
                                Ball(geodesic_point(space, space.base_point, axis, 0.4), 0.25))
            report = run_flow(space, region, RandomThroughPole(), max_steps=4,
                              stop_epsilon=0.0, seed=132,
                              metrics=MetricsConfig(cloud_density=400.0, volume_samples=6000))
            assert len(report.steps) == 5
            base = report.steps[0]
            for rec in report.steps[1:]:
                assert abs(rec.volume.value - base.volume.value) <= \
                    3 * math.hypot(rec.volume.std_error, base.volume.std_error)


@pytest.mark.parametrize("space", [S2, Space.hyperbolic(2), Space.euclidean(2),
                                   Space.sphere(3), Space.hyperbolic(3)],
                         ids=["S2", "H2", "R2", "S3", "H3"])
def test_nearest_distance_has_the_bits_of_the_per_centre_distances(space):
    # the rebase's distance to the nearest centre, from a NeighborIndex over
    # the centres; they are drawn from the points, as a rebase draws them,
    # so some distances are 0
    points = random_points(space, 3000, 133, spread=1.5)
    centers = points[substream(134).choice(len(points), size=192, replace=False)]
    dmin = np.full(len(points), np.inf)
    for c in centers:
        dmin = np.minimum(dmin, distance(space, points, c))
    keys, _ = NeighborIndex(space, centers).nearest(points)
    assert decode_key(space, keys).tobytes() == dmin.tobytes()


def test_sparse_rebase_refuses_a_quantile_on_its_centres():
    # two caps 2.0 apart fill about 6% of their envelope, so the rebase is
    # sparse; a target just under the member fraction puts k below the
    # member count, which is the centre count while it is at most 192
    region = Union((Ball(geodesic_point(S2, E, EX, 1.0), 0.2),
                    Ball(geodesic_point(S2, E, -EX, 1.0), 0.2)))
    env = bounding_ball(S2, region)
    members = int(contains(S2, region, uniform_in_ball(S2, env, substream(3), size=1000)).sum())
    assert 8 <= members <= 192
    target = (members - 1) / 1000 * ball_volume(S2, env.radius)
    with pytest.raises(ValueError, match=rf"quantile index k = {members - 1} falls on the zero "
                                         rf"distances of its {members} centres, drawn from "
                                         rf"{members} member proposals of 1000 "
                                         r"\(raise --volume-samples\)"):
        symmetrize._rebase_approximation(S2, region, target,
                                         MetricsConfig(volume_samples=1000), substream(3))
    # with 20 times the proposals, the members outnumber the 192 centres
    base, _ = symmetrize._rebase_approximation(S2, region, target,
                                               MetricsConfig(volume_samples=20000), substream(3))
    assert isinstance(base, Union) and len(base.children) == 192
    assert base.children[0].radius > 0.01


def test_campaign_computes_no_spacing(monkeypatch):
    # region admission and the trial diameters need only the farthest pair
    built = _count_index_builds(monkeypatch)
    calls = _count_pairwise_passes(monkeypatch)
    report = verify_isodiametric(CampaignConfig(
        curvature=1, dim=2, D=1.0, trials=4, seed=71, volume_samples=2000,
        region_density=300.0))
    assert len(report.records) == 4
    assert all(r.sampled_diameter > 0.0 for r in report.records)
    assert built == []
    assert calls == []


class TestCountsAndDensities:
    @pytest.mark.parametrize("field, value, message", [
        ("volume_samples", 2500.5, "volume_samples must be an integer, got 2500.5"),
        ("volume_samples", True, "volume_samples must be an integer, got True"),
        ("volume_samples", 50, "volume_samples must be at least 100, got 50"),
        ("rebase_depth", 2.5, "rebase_depth must be an integer, got 2.5"),
        ("rebase_depth", True, "rebase_depth must be an integer, got True"),
        ("rebase_depth", 0, "rebase_depth must be at least 1, got 0"),
        ("cloud_density", math.nan, "cloud_density must be finite and positive, got nan"),
        ("cloud_density", 0.0, "cloud_density must be finite and positive, got 0.0"),
        ("cloud_density", -5.0, "cloud_density must be finite and positive, got -5.0"),
        ("cloud_density", math.inf, "cloud_density must be finite and positive, got inf"),
        ("cloud_density", True, "cloud_density must be finite and positive, got True"),
        ("cloud_density", "1000", "cloud_density must be finite and positive, got '1000'"),
    ])
    def test_metrics_config_names_a_bad_value(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            MetricsConfig(**{field: value})

    @pytest.mark.parametrize("max_steps, message", [
        (2.5, "max_steps must be an integer, got 2.5"),
        (True, "max_steps must be an integer, got True"),
        (0, "max_steps must be at least 1, got 0"),
    ])
    def test_run_flow_names_a_bad_step_count(self, max_steps, message):
        with pytest.raises(ValueError, match=message):
            run_flow(S2, Ball(E, 0.6), RandomThroughPole(), max_steps=max_steps,
                     stop_epsilon=0.0, seed=3, metrics=FAST)

    def test_numpy_integers_are_counts(self):
        metrics = MetricsConfig(cloud_density=300.0, volume_samples=np.int64(1000),
                                rebase_depth=np.int32(2))
        report = run_flow(S2, Ball(E, 0.6), RandomThroughPole(), max_steps=np.int64(1),
                          stop_epsilon=0.0, seed=3, metrics=metrics)
        assert len(report.steps) == 2

    def test_numpy_integer_counts_write_the_plain_int_reports(self, tmp_path):
        reports = []
        for kind, cast in (("int", int), ("numpy", np.int64)):
            metrics = MetricsConfig(cloud_density=300.0, volume_samples=cast(1000),
                                    rebase_depth=cast(2))
            report = run_flow(S2, Ball(E, 0.6), RandomThroughPole(), max_steps=cast(1),
                              stop_epsilon=0.0, seed=3, metrics=metrics)
            report.write_csv(tmp_path / f"{kind}.csv")
            report.write_json(tmp_path / f"{kind}.json")
            reports.append([(tmp_path / f"{kind}.{ext}").read_bytes() for ext in ("csv", "json")])
        assert reports[0] == reports[1]

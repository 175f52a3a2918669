import json
import math
from dataclasses import astuple

import numpy as np
import pytest

from isodiam import experiments
from isodiam.experiments import (
    CampaignConfig,
    greedy_maximal,
    random_admissible_region,
    verify_isodiametric,
)
from isodiam.geometry import Ball, Space, ball_volume, distance, geodesic_point
from isodiam.regionio import region_digest
from isodiam.regions import (
    PointCloud,
    _pairwise_extremes,
    contains,
    exact_area,
    sample,
    uniform_in_ball,
)
from isodiam.rng import substream

from conftest import dented_ball_region, two_caps_region

S2 = Space.sphere(2)
E2 = Space.euclidean(2)
H2 = Space.hyperbolic(2)


class TestRandomAdmissibleRegion:
    def test_complexity_one_is_ball(self, space):
        region = random_admissible_region(space, 1.2, 1, substream(140))
        assert isinstance(region, Ball)
        assert region.radius <= 0.6 + 1e-12
        # stays admissible outright: any two points are within 2 * (D/2)

    def test_sampled_diameter_bounded(self, space):
        D = 1.3
        for seed in range(6):
            region = random_admissible_region(space, D, 4, substream(141 + seed))
            cloud = sample(space, region, 700.0, substream(9000 + seed))
            if len(cloud) < 2:
                continue
            diam = _pairwise_extremes(space, cloud.points)[0]
            assert diam <= D + 0.02  # fresh-sample slack just past the witness set

    def test_digests_distinct_across_seeds(self):
        digests = {region_digest(random_admissible_region(S2, 1.4, 4, substream(s), density=300.0))
                   for s in range(100)}
        assert len(digests) == 100

    def test_invalid_diameter_rejected(self):
        with pytest.raises(ValueError):
            random_admissible_region(S2, 3.5, 3, substream(1))
        with pytest.raises(ValueError):
            random_admissible_region(E2, -1.0, 3, substream(1))
        with pytest.raises(ValueError, match="diameter bound D"):
            random_admissible_region(E2, float("nan"), 3, substream(1))

    @pytest.mark.parametrize("complexity, message", [
        (2.5, "complexity must be an integer, got 2.5"),
        (True, "complexity must be an integer, got True"),
        (0, "complexity must be at least 1, got 0"),
    ])
    def test_complexity_must_be_a_count(self, complexity, message):
        with pytest.raises(ValueError, match=message):
            random_admissible_region(S2, 1.2, complexity, substream(1))

    def test_density_too_low_for_any_trim_cloud_refused(self):
        # 0.01 per unit area expects 0.008 samples in the ball of radius 0.5,
        # the largest region of diameter 1; seed 1's first draw is a union
        with pytest.raises(ValueError, match="^region density 0.01 expects fewer than 8 "):
            random_admissible_region(S2, 1.0, 4, substream(1), density=0.01)

    def test_density_enough_for_a_trim_cloud_is_taken(self):
        # 8.5 samples expected in the ball of radius 0.5, so no refusal
        density = 8.5 / ball_volume(S2, 0.5)
        random_admissible_region(S2, 1.0, 4, substream(1), density=density)

    def test_complexity_takes_numpy_integers(self):
        region = random_admissible_region(S2, 1.2, np.int64(1), substream(140))
        assert region_digest(region) == region_digest(
            random_admissible_region(S2, 1.2, 1, substream(140)))


class TestVerifyIsodiametric:
    def test_small_campaign_no_violations(self, tmp_path):
        config = CampaignConfig(curvature=1, dim=2, D=1.6, trials=8, seed=150,
                                volume_samples=20000, region_density=400.0)
        report = verify_isodiametric(config, out_csv=tmp_path / "v.csv",
                                     out_json=tmp_path / "v.json")
        assert report.violation_count == 0
        assert len(report.records) == 8
        # exact-ball trial sits at equality
        first = report.records[0]
        assert abs(first.margin) <= 3 * first.std_error + 1e-12
        summary = json.loads((tmp_path / "v.json").read_text())
        assert summary["violation_count"] == 0
        assert (tmp_path / "v.csv").read_text().startswith("trial,digest,volume")

    def test_euclidean_and_hyperbolic_smoke(self):
        for curvature, D in ((0, 1.0), (-1, 1.5)):
            config = CampaignConfig(curvature=curvature, dim=2, D=D, trials=5, seed=151,
                                    volume_samples=15000, region_density=400.0)
            report = verify_isodiametric(config)
            assert report.violation_count == 0
            assert report.max_margin <= 0  # random regions fall well short of the ball

    def test_margins_are_negative_for_random_regions(self):
        config = CampaignConfig(curvature=1, dim=2, D=2.0, trials=6, seed=152,
                                volume_samples=15000, region_density=400.0,
                                include_exact_ball=False)
        report = verify_isodiametric(config)
        assert all(r.margin < 0 for r in report.records)

    def test_report_determinism(self, tmp_path):
        config = CampaignConfig(curvature=1, dim=2, D=1.2, trials=4, seed=153,
                                volume_samples=10000, region_density=300.0)
        blobs = []
        for k in (1, 2):
            csv_path = tmp_path / f"r{k}.csv"
            json_path = tmp_path / f"r{k}.json"
            verify_isodiametric(config, out_csv=csv_path, out_json=json_path)
            blobs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("curvature, D", [(1, 1.6), (0, 1.0), (-1, 1.5)])
    def test_n2_volumes_are_exact_areas(self, curvature, D):
        config = CampaignConfig(curvature=curvature, dim=2, D=D, trials=6, seed=158,
                                region_density=300.0)
        report = verify_isodiametric(config)
        first = report.records[0]
        assert (first.volume, first.std_error, first.margin) == (
            ball_volume(config.space, D / 2.0), 0.0, 0.0)
        for rec in report.records[1:]:
            region = random_admissible_region(config.space, D, config.complexity,
                                              substream(158, rec.trial, 0), density=300.0)
            assert (rec.volume, rec.std_error) == astuple(exact_area(config.space, region))[:2]
        assert report.violation_count == 0

    def test_first_failing_trial_in_order_raises(self, monkeypatch):
        run_trial = experiments._run_trial

        def failing(config, trial):
            if trial in (2, 4):
                raise RuntimeError(f"trial {trial} failed")
            return run_trial(config, trial)

        monkeypatch.setattr(experiments, "_run_trial", failing)
        config = CampaignConfig(curvature=1, dim=2, D=1.2, trials=6, seed=156,
                                volume_samples=1000, region_density=200.0)
        with pytest.raises(RuntimeError, match="trial 2 failed"):
            verify_isodiametric(config)

    @pytest.mark.parametrize("field, value, message", [
        ("trials", 1.5, "trials must be an integer, got 1.5"),
        ("trials", True, "trials must be an integer, got True"),
        ("trials", 0, "trials must be at least 1, got 0"),
        ("volume_samples", 50, "volume_samples must be at least 100, got 50"),
        ("volume_samples", 150.7, "volume_samples must be an integer, got 150.7"),
        ("volume_samples", True, "volume_samples must be an integer, got True"),
        ("region_density", 0.0, "region_density must be finite and positive, got 0.0"),
        ("region_density", -3.0, "region_density must be finite and positive, got -3.0"),
        ("region_density", math.nan, "region_density must be finite and positive, got nan"),
        ("region_density", math.inf, "region_density must be finite and positive, got inf"),
        ("region_density", True, "region_density must be finite and positive, got True"),
        ("region_density", "600", "region_density must be finite and positive, got '600'"),
        ("D", True, "diameter bound D must be finite and positive, got True"),
        ("D", "1.2", "diameter bound D must be finite and positive, got '1.2'"),
        ("sigma_threshold", True, "sigma_threshold must be finite and non-negative, got True"),
        ("sigma_threshold", "3", "sigma_threshold must be finite and non-negative, got '3'"),
        ("include_exact_ball", 1, "include_exact_ball must be a bool, got 1"),
        ("include_exact_ball", "yes", "include_exact_ball must be a bool, got 'yes'"),
        ("complexity", 2.5, "complexity must be an integer, got 2.5"),
        ("complexity", True, "complexity must be an integer, got True"),
        ("complexity", 0, "complexity must be at least 1, got 0"),
    ])
    def test_config_rejects_bad_counts_by_name(self, field, value, message):
        # n = 3, where the floor of 100 volume samples binds
        settings = {"curvature": 1, "dim": 3, "D": 1.2, "trials": 3, "seed": 9, field: value}
        with pytest.raises(ValueError, match=message):
            CampaignConfig(**settings)

    def test_config_takes_numpy_integers(self):
        config = CampaignConfig(curvature=1, dim=2, D=1.2, trials=np.int64(3), seed=9,
                                volume_samples=np.int64(500), complexity=np.int64(2))
        assert config.trials == 3 and config.complexity == 2

    def test_config_stores_whole_space_and_seed_as_ints(self):
        config = CampaignConfig(curvature=1.0, dim=np.int64(2), D=1.2, trials=3, seed=9.0)
        assert [type(v) for v in (config.curvature, config.dim, config.seed)] == [int] * 3

    @pytest.mark.parametrize("field, value, message", [
        ("curvature", True, "curvature must be an integer, got True"),
        ("dim", 2.5, "dim must be an integer, got 2.5"),
        ("seed", 9.5, "seed must be an integer, got 9.5"),
        ("seed", True, "seed must be an integer, got True"),
        # the ranges stay with Space and substream, and so do their messages
        ("curvature", 2, "curvature must be -1, 0 or \\+1, got 2"),
        ("dim", 1, "dim must be >= 2, got 1"),
    ])
    def test_config_rejects_bad_space_and_seed_by_name(self, field, value, message):
        settings = {"curvature": 1, "dim": 2, "D": 1.2, "trials": 3, "seed": 9, field: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            CampaignConfig(**settings)

    def test_negative_seed_is_refused_by_substream(self):
        config = CampaignConfig(curvature=1, dim=2, D=1.2, trials=1, seed=-1)
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            verify_isodiametric(config)

    def test_numpy_integer_config_writes_the_plain_int_reports(self, tmp_path):
        plain = {"curvature": -1, "dim": 3, "trials": 2, "seed": 9, "volume_samples": 500,
                 "complexity": 2}
        reports = []
        for kind, cast in (("int", int), ("numpy", np.int64)):
            config = CampaignConfig(D=1.1, **{k: cast(v) for k, v in plain.items()})
            assert all(type(getattr(config, k)) is int for k in plain)
            verify_isodiametric(config, out_csv=tmp_path / f"{kind}.csv",
                                out_json=tmp_path / f"{kind}.json")
            reports.append([(tmp_path / f"{kind}.{ext}").read_bytes() for ext in ("csv", "json")])
        assert reports[0] == reports[1]

    def test_config_json_round_trip(self, tmp_path):
        config = CampaignConfig(curvature=-1, dim=3, D=1.1, trials=3, seed=9)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_dict()))
        assert CampaignConfig.from_json(path) == config


def _reference_greedy(space, D, candidate_count, seed, seed_with_ball=False):
    """The per-candidate loop: one distance from each candidate to the accepted set."""
    pole = space.base_point
    v_env = ball_volume(space, D)
    cand = uniform_in_ball(space, Ball(pole, D), substream(seed), size=candidate_count)
    if seed_with_ball:
        inner = distance(space, cand, pole) <= D / 2.0
        cand = np.concatenate([cand[inner], cand[~inner]])
    accepted = _reference_accept(space, D, cand)
    frac = len(accepted) / candidate_count
    sigma = v_env * math.sqrt(frac * (1.0 - frac) / candidate_count)
    deficit = ball_volume(space, D / 2.0) - v_env * frac
    return PointCloud(points=accepted, weight=v_env / candidate_count), deficit, sigma


def _reference_accept(space, D, cand):
    """The candidates, in order, that are within D of every one accepted before."""
    accepted = np.empty_like(cand)
    count = 0
    for x in cand:
        if count == 0 or bool(np.all(distance(space, accepted[:count], x) <= D)):
            accepted[count] = x
            count += 1
    return accepted[:count]


def _circle(space, D, count, seed):
    """count points spaced evenly on the circle of radius D / 2 about the pole,
    in random order: a point and its opposite are D apart to within rounding."""
    rng = substream(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi) + rng.permutation(count) * (2.0 * math.pi / count)
    u = np.zeros((count, space.ambient_dim))
    u[:, 0] = np.cos(theta)
    u[:, 1] = np.sin(theta)
    return geodesic_point(space, space.base_point, u, D / 2.0)


def _assert_matches_reference(space, D, count, seed, seed_with_ball=False):
    cloud, deficit, sigma = greedy_maximal(space, D, count, seed, seed_with_ball=seed_with_ball)
    ref_cloud, ref_deficit, ref_sigma = _reference_greedy(space, D, count, seed, seed_with_ball)
    assert cloud.points.tobytes() == ref_cloud.points.tobytes()
    assert cloud.weight == ref_cloud.weight
    assert np.float64(deficit).tobytes() == np.float64(ref_deficit).tobytes()
    assert np.float64(sigma).tobytes() == np.float64(ref_sigma).tobytes()


_REFERENCE_CASES = [(space, D, seed, False)
                    for space in (S2, H2, E2, Space.sphere(3), Space.hyperbolic(3))
                    for D in (0.5, 1.2, 2.0) for seed in (5, 6)]
_REFERENCE_CASES += [(space, 1.2, seed, True) for space in (S2, H2) for seed in (5, 6)]


class TestGreedyMaximal:
    @pytest.mark.parametrize(
        "space, D, seed, seed_with_ball", _REFERENCE_CASES,
        ids=[f"{'HRS'[s.curvature + 1]}{s.dim}-D{D}-seed{seed}" + ("-ball" if ball else "")
             for s, D, seed, ball in _REFERENCE_CASES])
    def test_matches_per_candidate_reference(self, space, D, seed, seed_with_ball):
        _assert_matches_reference(space, D, 3000, seed, seed_with_ball)

    @pytest.mark.parametrize("count", [1, 2, 31, 32, 33, 65])
    @pytest.mark.parametrize("space", [S2, H2, E2], ids=["S2", "H2", "R2"])
    def test_partial_and_exact_head_blocks_match_the_reference(self, space, count):
        # 31, 32 and 33 candidates end just short of, on and just past a block
        _assert_matches_reference(space, 2.0, count, 7)

    def test_narrow_filter_chunks_match_the_reference(self, monkeypatch):
        monkeypatch.setattr(experiments, "_FILTER_COLUMNS", 7)
        _assert_matches_reference(S2, 1.2, 3000, 5)
        _assert_matches_reference(H2, 1.2, 3000, 6, seed_with_ball=True)

    @pytest.mark.parametrize("block", [1, 700])
    def test_any_head_block_matches_the_reference(self, monkeypatch, block):
        # one head per block is the per-acceptance loop; 700 heads hold all 600
        monkeypatch.setattr(experiments, "_HEAD_BLOCK", block)
        _assert_matches_reference(S2, 1.2, 600, 5)
        _assert_matches_reference(Space.hyperbolic(3), 0.5, 600, 6)

    @pytest.mark.parametrize("D", [0.5, 1.2, 2.0])
    @pytest.mark.parametrize("space", [S2, H2, E2], ids=["S2", "H2", "R2"])
    def test_keys_at_the_threshold_match_the_reference(self, monkeypatch, space, D):
        # opposite points of a circle of diameter D have keys within the
        # screen's bound of g*, so pair_key must decide their columns
        cand = _circle(space, D, 400, seed=17)
        monkeypatch.setattr(experiments, "uniform_in_ball", lambda *args, size: cand[:size])
        confirmed = []
        real = experiments.pair_key

        def spy(sp, x, y):
            # the head block's keys are of one block against itself
            if not np.shares_memory(x, y):
                confirmed.append(len(y))
            return real(sp, x, y)

        monkeypatch.setattr(experiments, "pair_key", spy)
        cloud, _, _ = greedy_maximal(space, D, len(cand), 1)
        assert cloud.points.tobytes() == _reference_accept(space, D, cand).tobytes()
        assert sum(confirmed) > 0

    @pytest.mark.parametrize("count", [2.5, math.nan, math.inf, True, 2.0])
    def test_rejects_non_integer_candidate_count(self, count):
        with pytest.raises(ValueError, match="candidate_count"):
            greedy_maximal(S2, 1.0, count, 1)

    def test_accepts_numpy_integer_candidate_count(self):
        a = greedy_maximal(S2, 1.0, np.int64(500), 1)
        b = greedy_maximal(S2, 1.0, 500, 1)
        assert a[0].points.tobytes() == b[0].points.tobytes()
        assert (a[1], a[2]) == (b[1], b[2])

    def test_seeded_with_ball_reaches_ball_volume(self):
        cloud, deficit, sigma = greedy_maximal(S2, 1.2, 20000, seed=160, seed_with_ball=True)
        assert abs(deficit) <= 3 * sigma

    def test_unseeded_never_significantly_exceeds(self, space):
        _, deficit, sigma = greedy_maximal(space, 1.1, 15000, seed=161)
        assert deficit >= -3 * sigma

    def test_small_D_ratio_window(self):
        cloud, deficit, sigma = greedy_maximal(E2, 0.2, 20000, seed=162)
        vol = cloud.volume_estimate
        ball = ball_volume(E2, 0.1)
        assert 0.8 * ball <= vol <= ball + 3 * sigma

    def test_accepted_set_respects_diameter(self):
        cloud, _, _ = greedy_maximal(S2, 1.0, 4000, seed=163)
        pts = cloud.points
        diam = _pairwise_extremes(S2, pts)[0]
        assert diam <= 1.0 + 1e-12

    def test_determinism(self):
        a = greedy_maximal(S2, 1.3, 5000, seed=164)
        b = greedy_maximal(S2, 1.3, 5000, seed=164)
        assert np.array_equal(a[0].points, b[0].points)
        assert a[1] == b[1]


class TestFixtureRegions:
    def test_dented_ball_misses_the_dent(self, space):
        region = dented_ball_region(space)
        pole = space.base_point
        assert contains(space, region, pole)
        cloud = sample(space, region, 500.0, substream(165))
        assert np.all(contains(space, region, cloud.points))

    def test_two_caps_contains_pole_when_overlapping(self):
        region = two_caps_region(S2)
        assert contains(S2, region, S2.base_point)

import json

import numpy as np
import pytest

from isodiam.experiments import (
    CampaignConfig,
    greedy_maximal,
    random_admissible_region,
    verify_isodiametric,
)
from isodiam.geometry import Ball, Space, ball_volume
from isodiam.regionio import region_digest
from isodiam.regions import _pairwise_extremes, contains, sample
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

    def test_config_json_round_trip(self, tmp_path):
        config = CampaignConfig(curvature=-1, dim=3, D=1.1, trials=3, seed=9)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_dict()))
        assert CampaignConfig.from_json(path) == config


class TestGreedyMaximal:
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

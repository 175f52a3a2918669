"""Stream keys: every random stream is named once, by its (seed, *path) coordinate."""

import collections
import re

import numpy as np
import pytest

from isodiam.cli import main
from isodiam.experiments import CampaignConfig, random_admissible_region, verify_isodiametric
from isodiam.geometry import Ball, Space, geodesic_point
from isodiam.regionio import save_region
from isodiam.rng import substream
from isodiam.symmetrize import MetricsConfig, RandomThroughPole, run_flow

from conftest import dented_ball_region

S2 = Space.sphere(2)


@pytest.mark.parametrize("argv", [
    ["flow", "--region", "DENTED", "--steps", "3", "--seed", "12", "--out", "OUT",
     "--density", "300", "--volume-samples", "4000", "--rebase-depth", "1"],
    ["verify", "--space", "sphere", "--dim", "2", "--D", "1.2", "--trials", "3",
     "--seed", "11", "--samples", "2000", "--density", "300"],
    ["hull-check", "--region", "CAP", "--density", "300", "--hull-samples", "200",
     "--seed", "8"],
], ids=["flow", "verify", "hull-check"])
def test_no_stream_key_read_twice(tmp_path, stream_keys, argv):
    files = {"DENTED": str(tmp_path / "dented.json"), "CAP": str(tmp_path / "cap.json"),
             "OUT": str(tmp_path / "flow.csv")}
    save_region(files["DENTED"], S2, dented_ball_region(S2))
    # hull-check needs a spherical cloud of diameter at most pi/2
    save_region(files["CAP"], S2, Ball(S2.base_point, 0.6))
    assert main([files.get(a, a) for a in argv]) == 0
    assert stream_keys
    if argv[0] == "flow":
        # steps 2 and 3 rebase, each from its stream (k, 7)
        assert [key for key in stream_keys if key[-1] == 7] == [(12, 2, 7), (12, 3, 7)]
    repeated = [key for key, n in collections.Counter(stream_keys).items() if n > 1]
    assert repeated == []


def _off_pole_cap(space):
    axis = np.zeros(space.ambient_dim)
    axis[0] = 1.0
    return Ball(geodesic_point(space, space.base_point, axis, 0.3), 0.6)


@pytest.mark.parametrize("region, keys", [
    # step 0: volume, reference cloud, cloud; each step: plane, identity
    # check, volume, cloud, and the rebase when the chain would pass depth 1
    (dented_ball_region, [(0, 1), (0, 2), (0, 0),
                          (1, 3), (1, 4), (1, 1), (1, 0),
                          (2, 3), (2, 7), (2, 4), (2, 1), (2, 0)]),
    # every plane passes through the pole cap's centre, so each step leaves
    # the ball unchanged: no identity check, and no volume draw at any step
    (lambda space: Ball(space.base_point, 0.8), [(0, 2), (0, 0), (1, 3), (1, 0), (2, 3), (2, 0)]),
    # an off-pole ball has an exact volume at step 0 only; its steps are
    # symmetrized, so they check the identity and draw their volumes
    (_off_pole_cap, [(0, 2), (0, 0),
                     (1, 3), (1, 4), (1, 1), (1, 0),
                     (2, 3), (2, 7), (2, 4), (2, 1), (2, 0)]),
], ids=["dented-ball", "pole-cap", "off-pole-cap"])
def test_flow_step_reads_documented_keys(stream_keys, region, keys):
    seed = 5
    run_flow(S2, region(S2), RandomThroughPole(), max_steps=2, stop_epsilon=0.0,
             seed=seed, metrics=MetricsConfig(cloud_density=300.0, volume_samples=2000,
                                              rebase_depth=1))
    assert stream_keys == [(seed,) + key for key in keys]



@pytest.mark.parametrize("dim", [2, 3])
def test_verify_draws_volumes_only_for_n_at_least_3(stream_keys, dim):
    # an n = 2 trial volume is exact, and so is a lone ball's at any n, so
    # neither opens its stream (k, 2): trial 0 is the exact ball, and trials
    # 4 and 5 draw a complexity-1 ball
    config = CampaignConfig(curvature=1, dim=dim, D=1.2, trials=6, seed=13,
                            volume_samples=2000, region_density=300.0)
    report = verify_isodiametric(config)
    balls = [k for k in range(6) if k == 0 or isinstance(random_admissible_region(
        config.space, config.D, config.complexity, substream(13, k, 0),
        density=config.region_density), Ball)]
    assert balls == [0, 4, 5]
    assert all(report.records[k].std_error == 0.0 for k in balls)
    volume_keys = sorted(key for key in stream_keys if key[2:] == (2,))
    assert volume_keys == ([] if dim == 2 else [(13, k, 2) for k in (1, 2, 3)])


@pytest.mark.parametrize("seed, path, bad", [
    (2.5, (), "seed must be an integer, got 2.5"),
    (True, (), "seed must be an integer, got True"),
    (np.float64(0.5), (), "seed must be an integer, got"),
    ("3", (), "seed must be an integer, got '3'"),
    (float("nan"), (), "seed must be an integer, got nan"),
    (3, (1, 1.7), "path element 1 must be an integer, got 1.7"),
    (3, (False,), "path element 0 must be an integer, got False"),
    (3, (np.bool_(True), 2), "path element 0 must be an integer, got"),
], ids=["float-seed", "bool-seed", "numpy-float-seed", "str-seed", "nan-seed", "float-path",
        "bool-path", "numpy-bool-path"])
def test_substream_refuses_a_seed_it_would_truncate(seed, path, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        substream(seed, *path)


def test_substream_takes_integers_of_any_kind():
    want = substream(7, 2, 3).random(4)
    for seed, path in [(np.int64(7), (np.int32(2), np.uint8(3))), (7.0, (2, np.float64(3.0)))]:
        assert np.array_equal(substream(seed, *path).random(4), want)

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isodiam
from isodiam import experiments
from isodiam.cli import main
from isodiam.geometry import Ball, Space, ball_volume
from isodiam.regionio import save_region
from isodiam.regions import DEFAULT_DEPTH_CAP, Difference, Intersection, Union

from conftest import dented_ball_region

S2 = Space.sphere(2)
E = np.array([0.0, 0.0, 1.0])


@pytest.fixture
def cap_file(tmp_path):
    path = tmp_path / "cap.json"
    save_region(path, S2, Ball(E, 0.6))
    return str(path)


@pytest.fixture
def caps_file(tmp_path):
    c1 = np.array([math.sin(0.17), 0.0, math.cos(0.17)])
    c2 = np.array([-math.sin(0.17), 0.0, math.cos(0.17)])
    path = tmp_path / "caps.json"
    save_region(path, S2, Union((Ball(c1, 0.52), Ball(c2, 0.52))))
    return str(path)


class TestVolume:
    def test_cap_area_printed(self, capsys):
        rc = main(["volume", "--space", "sphere", "--dim", "2",
                   "--radius", "0.7853981633974483"])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert out.startswith("1.84030236902")
        assert abs(float(out) - 2 * math.pi * (1 - math.cos(math.pi / 4))) <= 1e-9

    def test_region_volume(self, cap_file, capsys):
        rc = main(["volume", "--space", "sphere", "--dim", "2", "--region", cap_file,
                   "--samples", "5000", "--seed", "4"])
        assert rc == 0
        assert "+-" in capsys.readouterr().out

    def test_ball_region_volume_is_exact(self, cap_file, capsys):
        # a lone ball's volume is its closed form, with no draw
        rc = main(["volume", "--space", "sphere", "--dim", "2", "--region", cap_file,
                   "--samples", "5000", "--seed", "4"])
        assert rc == 0
        assert capsys.readouterr().out == f"{ball_volume(S2, 0.6)!r} +- 0.0 (0 samples)\n"

    def test_non_ball_region_volume_draws_its_samples(self, tmp_path, capsys):
        path = tmp_path / "dented.json"
        save_region(path, S2, dented_ball_region(S2))
        rc = main(["volume", "--space", "sphere", "--dim", "2", "--region", str(path),
                   "--samples", "5000", "--seed", "4"])
        assert rc == 0
        assert capsys.readouterr().out.endswith(" (5000 samples)\n")

    def test_region_requires_seed(self, cap_file, capsys):
        rc = main(["volume", "--space", "sphere", "--dim", "2", "--region", cap_file])
        assert rc == 2

    def test_needs_radius_or_region(self, capsys):
        rc = main(["volume", "--space", "sphere", "--dim", "2"])
        assert rc == 2

    @pytest.mark.parametrize("space, dim", [("euclidean", "5"), ("sphere", "3"),
                                            ("hyperbolic", "2")])
    def test_region_space_must_match_flags(self, cap_file, capsys, space, dim):
        rc = main(["volume", "--space", space, "--dim", dim, "--region", cap_file,
                   "--samples", "1000", "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"--space {space} --dim {dim}" in captured.err
        assert "sphere of dim 2" in captured.err


class TestDiameter:
    def test_prints_value_and_pair(self, cap_file, capsys):
        rc = main(["diameter", "--region", cap_file, "--density", "500", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert float(out.splitlines()[0]) <= 1.2 + 1e-9
        assert "attained between" in out

    def test_missing_seed_is_usage_error(self, cap_file):
        assert main(["diameter", "--region", cap_file]) == 2


class TestFarFromThePole:
    @pytest.mark.parametrize("R", [8.0, 10.0, 12.0])
    @pytest.mark.parametrize("azimuth", range(5))
    def test_h2_annulus_volume_and_diameter(self, tmp_path, capsys, R, azimuth):
        phi = 0.3 + 2.0 * math.pi * azimuth / 5
        c = np.array([math.sinh(R) * math.cos(phi), math.sinh(R) * math.sin(phi), math.cosh(R)])
        path = tmp_path / "annulus.json"
        save_region(path, Space.hyperbolic(2), Difference(Ball(c, 0.5), Ball(c, 0.25)))
        rc = main(["volume", "--space", "hyperbolic", "--dim", "2", "--region", str(path),
                   "--samples", "20000", "--seed", "9"])
        out = capsys.readouterr().out
        assert rc == 0
        value, _, sigma = out.split()[:3]
        H2 = Space.hyperbolic(2)
        want = ball_volume(H2, 0.5) - ball_volume(H2, 0.25)
        assert abs(float(value) - want) <= 4.0 * float(sigma)
        rc = main(["diameter", "--region", str(path), "--density", "500", "--seed", "9"])
        assert rc == 0
        assert 0.9 <= float(capsys.readouterr().out.splitlines()[0]) <= 1.0 + 1e-5


class TestFlow:
    def test_csv_row_count_includes_step_zero(self, caps_file, tmp_path, capsys):
        out = tmp_path / "flow.csv"
        rc = main(["flow", "--region", caps_file, "--steps", "5", "--seed", "1",
                   "--out", str(out), "--density", "400", "--volume-samples", "2000"])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 5 + 1  # header, then steps 0..5

    def test_byte_identical_reruns(self, caps_file, tmp_path):
        outs = []
        for k in (1, 2):
            out = tmp_path / f"flow{k}.csv"
            jout = tmp_path / f"flow{k}.json"
            rc = main(["flow", "--region", caps_file, "--steps", "3", "--seed", "9",
                       "--out", str(out), "--json", str(jout),
                       "--density", "400", "--volume-samples", "2000"])
            assert rc == 0
            outs.append((out.read_bytes(), jout.read_bytes()))
        assert outs[0] == outs[1]

    def test_sparse_cloud_refused(self, tmp_path, capsys):
        # a cap of radius 0.05 holds 0.8 samples on average at density 100, so
        # the flow has no diameter or spacing to report, not 0.0 for both
        speck = tmp_path / "speck.json"
        save_region(speck, S2, Ball(E, 0.05))
        out = tmp_path / "flow.csv"
        rc = main(["flow", "--region", str(speck), "--steps", "3", "--seed", "1",
                   "--out", str(out), "--density", "100"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "flow step 0:" in err and "--density" in err
        assert not out.exists()

    def test_dense_rebase_on_its_centres_refused(self, tmp_path, capsys):
        # step 3 rebases the dented ball from 2000 proposals, 174 of them
        # outside it; a hole quantile k = 162 would fall on the zero distances
        # of the 174 hole centres, and holes of radius 0 leave the envelope
        dented = tmp_path / "dented.json"
        save_region(dented, S2, dented_ball_region(S2))
        out = tmp_path / "flow.csv"
        rc = main(["flow", "--region", str(dented), "--steps", "3", "--seed", "12",
                   "--out", str(out), "--density", "300", "--volume-samples", "2000",
                   "--rebase-depth", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: cannot calibrate a dense rebase: its quantile index k = 162 falls on the "
            "zero distances of its 174 centres, drawn from 174 outside proposals of 2000 "
            "(raise --volume-samples)\n")
        assert not out.exists()

    def test_epsilon_stops_early(self, cap_file, tmp_path, capsys):
        out = tmp_path / "flow.csv"
        rc = main(["flow", "--region", cap_file, "--steps", "50", "--seed", "2",
                   "--out", str(out), "--epsilon", "0.5",
                   "--density", "400", "--volume-samples", "2000"])
        assert rc == 0
        assert "converged=True" in capsys.readouterr().out
        with open(out) as fh:
            assert len(list(csv.reader(fh))) == 2  # header + step 0


class TestVerify:
    def test_exit_zero_without_violations(self, tmp_path, capsys):
        rc = main(["verify", "--space", "hyperbolic", "--dim", "2", "--D", "1.5",
                   "--trials", "4", "--seed", "7", "--samples", "8000",
                   "--density", "300", "--out", str(tmp_path / "v.csv"),
                   "--json", str(tmp_path / "v.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "violations=0" in out
        assert (tmp_path / "v.csv").exists()
        assert json.loads((tmp_path / "v.json").read_text())["violation_count"] == 0

    def test_samples_floor_binds_only_for_n_at_least_3(self, capsys):
        # n = 2 volumes are exact, so --samples goes unused there
        argv = ["verify", "--space", "sphere", "--D", "1.0", "--trials", "2", "--seed", "1",
                "--samples", "50"]
        assert main(argv + ["--dim", "2"]) == 0
        assert capsys.readouterr().out == "trials=2 violations=0 max_margin=0.0\n"
        assert main(argv + ["--dim", "3"]) == 2
        assert capsys.readouterr().err == "error: volume_samples must be at least 100, got 50\n"

    def test_usage_error_without_partial_output(self, tmp_path):
        out = tmp_path / "v.csv"
        rc = main(["verify", "--space", "sphere", "--dim", "2", "--trials", "4",
                   "--seed", "7", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_json_config_document(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps({"curvature": 1, "dim": 2, "D": 1.2, "trials": 3,
                                   "seed": 11, "volume_samples": 8000,
                                   "region_density": 300.0}))
        rc = main(["verify", "--config", str(cfg)])
        assert rc == 0
        assert "violations=0" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, named", [
        (["--trials", "7", "--D", "1.5", "--space", "euclidean", "--samples", "100"],
         "--space --D --trials --samples"),
        (["--density", "300"], "--density"),
        (["--complexity", "2", "--seed", "3", "--dim", "3"], "--dim --seed --complexity"),
    ], ids=["campaign-flags", "density", "complexity-seed-dim"])
    def test_config_rejects_campaign_flags(self, tmp_path, capsys, flags, named):
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps({"curvature": 1, "dim": 2, "D": 1.2, "trials": 3,
                                   "seed": 11}))
        out = tmp_path / "v.csv"
        rc = main(["verify", "--config", str(cfg), *flags, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"verify --config cannot be combined with {named}\n"
        assert not out.exists()


class TestGreedy:
    def test_reports_deficit(self, capsys):
        rc = main(["greedy", "--space", "sphere", "--dim", "2", "--D", "1.2",
                   "--candidates", "3000", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "deficit=" in out and "accepted=" in out


class TestHemisphere:
    def test_certificate_for_small_cap(self, cap_file, capsys):
        rc = main(["hemisphere", "--region", cap_file, "--density", "400", "--seed", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("certificate")

    def test_rejects_non_spherical(self, tmp_path, capsys):
        path = tmp_path / "e.json"
        save_region(path, Space.euclidean(2), Ball(np.zeros(2), 1.0))
        rc = main(["hemisphere", "--region", str(path), "--density", "300", "--seed", "6"])
        assert rc == 2


class TestHullCheck:
    def test_reports_both_diameters(self, cap_file, capsys):
        rc = main(["hull-check", "--region", cap_file, "--density", "300",
                   "--hull-samples", "500", "--seed", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cloud_diameter=" in out and "hull_diameter=" in out


class TestBallProbe:
    def test_convex_cap_clean(self, capsys):
        rc = main(["ball-probe", "--space", "sphere", "--dim", "2", "--radius",
                   str(math.pi / 4), "--trials", "2000", "--seed", "11"])
        assert rc == 0
        assert "violations=0" in capsys.readouterr().out

    def test_big_cap_finds_witness(self, capsys):
        rc = main(["ball-probe", "--space", "sphere", "--dim", "2", "--radius",
                   str(3 * math.pi / 4), "--trials", "2000", "--seed", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "witness" in out


def _run_isodiam(argv, timeout, **kwargs):
    """``python -m isodiam.cli argv`` in a fresh interpreter, which shows its
    warnings on stderr as a user sees them (pytest records them in-process)."""
    src = str(Path(isodiam.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "isodiam.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout, **kwargs)


def _one_core():
    """Pin the calling process to one core, where the platform allows it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("command, extra", [
        ("diameter", []), ("hemisphere", []), ("hull-check", ["--hull-samples", "10"]),
    ])
    def test_empty_region_says_so_once(self, tmp_path, command, extra):
        far = [Ball(np.array([s * math.sin(1.2), 0.0, math.cos(1.2)]), 0.2) for s in (1, -1)]
        path = tmp_path / "empty.json"
        save_region(path, S2, Intersection(tuple(far)))
        proc = _run_isodiam([command, "--region", str(path), "--seed", "3", *extra], 120)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert "region produced" in proc.stderr

    def test_oversized_sample_refused_before_drawing(self):
        # trial 0, the ball of radius 2 in H^5, asks for 319,815 proposals;
        # on one core no other trial starts before its refusal stops the
        # campaign (more cores would run trial 3, a slow O(n^2) farthest pair)
        proc = _run_isodiam(["verify", "--space", "hyperbolic", "--dim", "5", "--D", "4.0",
                             "--trials", "6", "--seed", "2", "--samples", "30000",
                             "--density", "300"], 30, preexec_fn=_one_core)
        assert proc.returncode == 2
        assert proc.stderr == ("error: sampling at density 300.0 over an envelope of volume "
                               "1066.05 needs 319815 proposals, more than 262144 at once\n")

    def test_malformed_region_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["diameter", "--region", str(bad), "--seed", "1"]) == 2

    def test_invalid_region_invariant(self, tmp_path):
        doc = {"space": {"curvature": 1, "dim": 2},
               "region": {"kind": "ball", "center": [0, 0, 1], "radius": -2.0}}
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps(doc))
        assert main(["diameter", "--region", str(bad), "--seed", "1"]) == 2

    @pytest.mark.parametrize("space, node, message", [
        ({"curvature": True, "dim": 2}, {"kind": "ball", "center": [0, 0, 1], "radius": 0.5},
         "space: curvature must be an integer, got True"),
        ({"curvature": 1, "dim": 2}, {"kind": "intersection", "children": [
            {"kind": "ball", "center": [0, 0, 1], "radius": 0.5},
            {"kind": "symmetrized", "normal": [1, 0, 0], "orientation": True,
             "inner": {"kind": "ball", "center": [0, 0, 1], "radius": 0.5}}]},
         "region.children[1]: orientation must be an integer, got True"),
        ({"curvature": 1, "dim": 2}, {"kind": "ball", "center": [0, 0, 1], "radius": True},
         "region: radius must be a number, got True"),
        ({"curvature": 1, "dim": 2},
         {"kind": "ball", "center": [False, False, True], "radius": 0.5},
         "region: center must be a list of numbers, got [False, False, True]"),
    ], ids=["curvature", "orientation", "radius", "center"])
    def test_boolean_region_value_rejected(self, tmp_path, capsys, space, node, message):
        bad = tmp_path / "boolean.json"
        bad.write_text(json.dumps({"space": space, "region": node}))
        rc = main(["diameter", "--region", str(bad), "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.strip() == f"region document error: {message}"

    @pytest.mark.parametrize("space, node", [
        ("sphere", {"kind": "ball", "center": [0, 0, 1], "radius": math.nan}),
        ("hyperbolic", {"kind": "ball", "center": [0, 0, 1], "radius": math.inf}),
        ("sphere", {"kind": "intersection", "children": [
            {"kind": "ball", "center": [0, 0, 1], "radius": 0.5},
            {"kind": "symmetrized", "normal": [math.nan, 0, 0], "orientation": 1,
             "inner": {"kind": "ball", "center": [0, 0, 1], "radius": 0.5}}]}),
    ], ids=["nan-radius", "inf-radius", "nan-normal"])
    def test_non_finite_region_value_rejected(self, tmp_path, capsys, space, node):
        curvature = {"sphere": 1, "hyperbolic": -1}[space]
        bad = tmp_path / "nonfinite.json"
        bad.write_text(json.dumps({"space": {"curvature": curvature, "dim": 2}, "region": node}))
        rc = main(["volume", "--space", space, "--dim", "2", "--region", str(bad),
                   "--samples", "1000", "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("node, expected", [
        ({"kind": "union", "children": [
            {"kind": "ball", "center": [0, 0, 1], "radius": 0.5},
            {"kind": "difference",
             "a": {"kind": "ball", "center": [0, 0, 1], "radius": 0.5},
             "b": {"kind": "ball", "center": [0, 0, 2], "radius": 0.2}}]},
         "region.children[1].b: point is not on the sphere quadric within tolerance"),
        ({"kind": "union", "children": [
            {"kind": "ball", "center": [0, 0, 1], "radius": 0.5},
            {"kind": "ball", "center": [0, 0, 1], "radius": math.nan}]},
         "region.children[1]: ball radius must be finite, got nan"),
        ({"kind": "intersection", "children": [
            {"kind": "ball", "center": [0, 0, 1], "radius": 0.5},
            {"kind": "symmetrized", "normal": [0, 0, 0], "orientation": 1,
             "inner": {"kind": "ball", "center": [0, 0, 1], "radius": 0.5}}]},
         "region.children[1]: hyperplane normal must be nonzero"),
        ({"kind": "union", "children": [
            {"kind": "ball", "center": [0, 0, 1], "radius": "wide"}]},
         "region.children[0]: radius must be a number, got 'wide'"),
        ({"kind": "intersection", "children": [
            {"kind": "ball", "center": [0, 0, 1], "radius": 0.5},
            {"kind": "symmetrized", "normal": [1, 0, 0], "orientation": math.nan,
             "inner": {"kind": "ball", "center": [0, 0, 1], "radius": 0.5}}]},
         "region.children[1]: orientation must be an integer, got nan"),
        ({"kind": "symmetrized", "normal": [1, 0, 0], "orientation": 1.5,
          "inner": {"kind": "ball", "center": [0, 0, 1], "radius": 0.5}},
         "region: orientation must be an integer, got 1.5"),
        ({"kind": "difference", "a": {"kind": "ball", "center": [0, 0, 1], "radius": 0.5},
          "b": {"kind": "ball", "center": [0, "x", 1], "radius": 0.2}},
         "region.b: center must be a list of numbers"),
        ({"kind": "symmetrized", "normal": [1, 0, 0], "orientation": 2,
          "inner": {"kind": "ball", "center": [0, 0, 1], "radius": 0.5}},
         "region: orientation must be +1 or -1, got 2"),
        ({"kind": "ball", "center": 5, "radius": 0.5},
         "region: center must be a list of numbers, got 5"),
        ({"kind": "ball", "center": [0, 0, 1], "radius": "0.5"},
         "region: radius must be a number, got '0.5'"),
        ({"kind": "ball", "center": ["0", "0", "1"], "radius": 0.5},
         "region: center must be a list of numbers, got ['0', '0', '1']"),
        # a bare half space is unbounded, so it is no node kind
        ({"kind": "intersection", "children": [
            {"kind": "ball", "center": [0, 0, 1], "radius": 0.5},
            {"kind": "halfspace", "normal": [1, 0, 0], "orientation": 1}]},
         "region.children[1]: unknown node kind 'halfspace'\n"),
    ], ids=["off-quadric-center", "nan-radius", "zero-normal", "string-radius",
            "nan-orientation", "fractional-orientation", "string-center", "orientation-2",
            "scalar-center", "numeric-string-radius", "numeric-string-center", "halfspace"])
    def test_unconvertible_region_field_named(self, tmp_path, capsys, node, expected):
        bad = tmp_path / "field.json"
        bad.write_text(json.dumps({"space": {"curvature": 1, "dim": 2}, "region": node}))
        rc = main(["volume", "--space", "sphere", "--dim", "2", "--region", str(bad),
                   "--samples", "1000", "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"region document error: {expected}")

    @pytest.mark.parametrize("argv", [
        ["diameter"],
        ["volume", "--space", "sphere", "--dim", "2", "--samples", "1000"],
        ["flow", "--steps", "2", "--out", "OUT"],
    ], ids=["diameter", "volume", "flow"])
    def test_over_deep_document_refused(self, tmp_path, capsys, argv):
        node = {"kind": "ball", "center": [0, 0, 1], "radius": 0.5}
        for _ in range(DEFAULT_DEPTH_CAP + 1):
            node = {"kind": "symmetrized", "normal": [1, 0, 0], "orientation": 1,
                    "inner": node}
        deep = tmp_path / "deep.json"
        deep.write_text(json.dumps({"space": {"curvature": 1, "dim": 2}, "region": node}))
        out = tmp_path / "flow.csv"
        argv = [str(out) if a == "OUT" else a for a in argv]
        rc = main(argv + ["--region", str(deep), "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (f"error: symmetrized nesting {DEFAULT_DEPTH_CAP + 1} "
                                f"exceeds cap {DEFAULT_DEPTH_CAP}\n")
        assert not out.exists()

    def test_density_too_low_for_any_trim_cloud_refused(self, tmp_path, capsys):
        # at 0.01 per unit area no trim cloud reaches 8 points, so every
        # trial would otherwise take its first complexity-1 draw, a plain ball
        out = tmp_path / "v.csv"
        rc = main(["verify", "--space", "sphere", "--dim", "2", "--D", "1.0", "--trials", "100",
                   "--seed", "1", "--density", "0.01", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: region density 0.01 expects fewer than 8 ")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_fractional_space_not_truncated(self, tmp_path, capsys):
        bad = tmp_path / "space.json"
        bad.write_text(json.dumps({"space": {"curvature": 1.9, "dim": 2}, "region": {
            "kind": "ball", "center": [0, 0, 1], "radius": 0.5}}))
        rc = main(["volume", "--space", "sphere", "--dim", "2", "--region", str(bad),
                   "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("region document error: space: curvature must be an "
                                "integer, got 1.9\n")

    @pytest.mark.parametrize("extra, expected", [
        ({"bogus": 3}, "unknown campaign config key 'bogus'"),
        ({"trials": "two"}, "campaign config key 'trials' must be int, got 'two'"),
        ({"include_exact_ball": 1}, "key 'include_exact_ball' must be bool"),
        ({"sigma_threshold": math.nan}, "sigma_threshold must be finite and non-negative"),
        ({"sigma_threshold": math.inf}, "sigma_threshold must be finite and non-negative"),
        ({"sigma_threshold": -1.0}, "sigma_threshold must be finite and non-negative"),
        ({"dim": 3, "volume_samples": 50}, "volume_samples must be at least 100, got 50"),
        ({"region_density": 0.0}, "region_density must be finite and positive, got 0.0"),
    ], ids=["unknown-key", "string-trials", "int-flag", "sigma-nan", "sigma-inf",
            "sigma-negative", "volume-samples", "region-density"])
    def test_malformed_verify_config(self, tmp_path, capsys, extra, expected):
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps({"curvature": 1, "dim": 2, "D": 1.2, "trials": 3,
                                   "seed": 11, **extra}))
        out = tmp_path / "v.csv"
        rc = main(["verify", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert expected in captured.err
        assert not out.exists()

    def test_bad_verify_config_runs_no_trial(self, tmp_path, capsys, monkeypatch):
        def no_trial(config, trial):
            raise AssertionError(f"trial {trial} ran")

        monkeypatch.setattr(experiments, "_run_trial", no_trial)
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps({"curvature": 1, "dim": 3, "D": 1.2, "trials": 3,
                                   "seed": 11, "volume_samples": 50}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "volume_samples must be at least 100, got 50" in capsys.readouterr().err

    def test_verify_config_missing_key(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps({"curvature": 1, "dim": 2, "D": 1.2, "trials": 3}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "campaign config lacks seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["volume", "--space", "sphere", "--dim", "2", "--radius", "nan"],
        ["volume", "--space", "euclidean", "--dim", "2", "--radius", "nan"],
        ["volume", "--space", "hyperbolic", "--dim", "2", "--radius", "nan"],
        ["volume", "--space", "euclidean", "--dim", "2", "--radius", "inf"],
        ["volume", "--space", "hyperbolic", "--dim", "2", "--radius", "800"],
        ["volume", "--space", "euclidean", "--dim", "5", "--radius", "1e80"],
        ["ball-probe", "--space", "sphere", "--dim", "2", "--radius", "-1",
         "--trials", "10", "--seed", "1"],
        ["ball-probe", "--space", "sphere", "--dim", "2", "--radius", "nan",
         "--trials", "10", "--seed", "1"],
    ], ids=["volume-nan-S2", "volume-nan-R2", "volume-nan-H2", "volume-inf-R2",
            "volume-overflow-H2", "volume-overflow-R5", "probe-negative", "probe-nan"])
    def test_bad_radius_prints_no_number(self, capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "radius" in captured.err

    @pytest.mark.parametrize("argv, name", [
        (["greedy", "--space", "sphere", "--dim", "2", "--D", "1.0",
          "--candidates", "0", "--seed", "1"], "candidate_count"),
        (["verify", "--space", "sphere", "--dim", "2", "--D", "1.0",
          "--trials", "0", "--seed", "1"], "trials"),
        (["verify", "--space", "sphere", "--dim", "2", "--D", "1.0",
          "--trials", "2", "--seed", "1", "--complexity", "0"], "complexity"),
        (["hull-check", "--region", "CAP", "--density", "300",
          "--hull-samples", "-5", "--seed", "8"], "hull_samples"),
        (["flow", "--region", "CAP", "--steps", "1", "--seed", "-1",
          "--out", "OUT"], "seed"),
        (["diameter", "--region", "CAP", "--density", "inf", "--seed", "1"], "density"),
        (["diameter", "--region", "CAP", "--density", "nan", "--seed", "1"], "density"),
        (["ball-probe", "--space", "sphere", "--dim", "2", "--radius", "0.5",
          "--trials", "0", "--seed", "1"], "trials"),
        (["ball-probe", "--space", "sphere", "--dim", "2", "--radius", "0.5",
          "--trials", "-5", "--seed", "1"], "trials"),
        (["greedy", "--space", "sphere", "--dim", "2", "--D", "nan",
          "--candidates", "100", "--seed", "1"], "diameter bound D"),
        (["greedy", "--space", "euclidean", "--dim", "2", "--D", "inf",
          "--candidates", "100", "--seed", "1"], "diameter bound D"),
        (["verify", "--space", "sphere", "--dim", "2", "--D", "nan",
          "--trials", "2", "--seed", "1", "--out", "OUT"], "diameter bound D"),
        (["flow", "--region", "CAP", "--steps", "2", "--seed", "1", "--out", "OUT",
          "--epsilon", "nan"], "stop_epsilon must be finite, got nan"),
        (["flow", "--region", "CAP", "--steps", "2", "--seed", "1", "--out", "OUT",
          "--epsilon", "inf"], "stop_epsilon must be finite, got inf"),
        (["flow", "--region", "CAP", "--steps", "2", "--seed", "1", "--out", "OUT",
          "--rebase-depth", "0"], "rebase_depth must be at least 1, got 0"),
        (["flow", "--region", "CAP", "--steps", "1", "--seed", "1", "--out", "OUT",
          "--rebase-depth", "25"], "rebase_depth must be at most the symmetrized depth cap 24, "
                                   "got 25"),
        (["flow", "--region", "CAP", "--steps", "2", "--seed", "1", "--out", "OUT",
          "--volume-samples", "50"], "samples must be at least 100, got 50"),
    ], ids=["greedy-candidates", "verify-trials", "verify-complexity",
            "hull-samples", "flow-seed", "density-inf", "density-nan",
            "probe-zero-trials", "probe-negative-trials", "greedy-D-nan",
            "greedy-D-inf-R2", "verify-D-nan", "flow-epsilon-nan", "flow-epsilon-inf",
            "flow-rebase-depth-0", "flow-rebase-depth-25", "flow-volume-samples"])
    def test_bad_count_named(self, cap_file, tmp_path, capsys, argv, name):
        out = tmp_path / "flow.csv"
        argv = [{"CAP": cap_file, "OUT": str(out)}.get(a, a) for a in argv]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert name in captured.err
        assert not out.exists()

    def test_verify_config_zero_trials(self, tmp_path, capsys):
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps({"curvature": 1, "dim": 2, "D": 1.2, "trials": 0,
                                   "seed": 11}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "trials must be at least 1, got 0" in capsys.readouterr().err


class TestReproducibility:
    def test_reports_independent_of_hash_seed(self, tmp_path):
        # str hashes are salted per process; no report byte may depend on one
        region = tmp_path / "dented.json"
        save_region(region, S2, dented_ball_region(S2))
        commands = [
            ["flow", "--region", str(region), "--steps", "3", "--seed", "12",
             "--out", "flow.csv", "--json", "flow.json",
             "--density", "400", "--volume-samples", "2000"],
            ["verify", "--space", "sphere", "--dim", "2", "--D", "1.2", "--trials", "3",
             "--seed", "11", "--samples", "5000", "--density", "300",
             "--out", "verify.csv", "--json", "verify.json"],
        ]
        src = str(Path(isodiam.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"hashseed-{hash_seed}"
            out.mkdir()
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            for argv in commands:
                subprocess.run([sys.executable, "-m", "isodiam.cli", *argv], cwd=out, env=env,
                               check=True, capture_output=True, timeout=300)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["flow.csv", "flow.json", "verify.csv", "verify.json"]
        assert outputs[0] == outputs[1]

"""Golden-byte guards on short flows: any change in membership arithmetic that
flips a single sample shows up as a different report digest.

The digests were recorded with numpy 2.4 / OpenBLAS on x86-64, before the
membership evaluator was compiled; a platform with a different BLAS may sum
in another order and legitimately disagree.
"""

import hashlib

from isodiam.experiments import dented_ball_region, two_caps_region
from isodiam.geometry import Space
from isodiam.symmetrize import MetricsConfig, RandomThroughPole, run_flow

S2 = Space.sphere(2)
H2 = Space.hyperbolic(2)


def _csv_digest(report, tmp_path):
    path = tmp_path / "flow.csv"
    report.write_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_s2_dented_ball_flow_across_a_rebase(tmp_path):
    report = run_flow(
        S2, dented_ball_region(S2), RandomThroughPole(), max_steps=7,
        stop_epsilon=0.0, seed=12,
        metrics=MetricsConfig(cloud_density=800.0, volume_samples=6000,
                              identity_check_points=300, rebase_depth=4))
    assert [s.rebased for s in report.steps].count(True) == 1
    assert _csv_digest(report, tmp_path) == S2_DENTED_DIGEST


def test_h2_two_caps_flow(tmp_path):
    report = run_flow(
        H2, two_caps_region(H2), RandomThroughPole(), max_steps=8,
        stop_epsilon=0.0, seed=3,
        metrics=MetricsConfig(cloud_density=400.0, volume_samples=3000,
                              identity_check_points=300))
    assert _csv_digest(report, tmp_path) == H2_CAPS_DIGEST


S2_DENTED_DIGEST = "571426f9429563a6d07ed09d1c6910999f381c900e0fb88905077c03acf8c726"
H2_CAPS_DIGEST = "9853537cac11b933772e0c2971d05792f9e74786c9312e928e5cffe6785f98b0"

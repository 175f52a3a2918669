"""Golden-byte guards on short flows and short verification campaigns: any
change in membership or sampling arithmetic that flips a single sample shows up
as a different report digest.

The digests were recorded with numpy 2.4 / OpenBLAS on x86-64.  The sample
metrics take no BLAS call: their distance keys are summed column by column
in a fixed order, and so are R^n ball memberships.  Only S^n and H^n ball
membership (one matrix product of the centers with the points per group of
balls) and plane membership still go through matrix products, so a platform
with a different BLAS may round a membership test near a boundary in another
way and legitimately disagree.

The three greedy digests hash the standard output of `isodiam greedy`.  They
were recorded while the probe still took one `distance` from each candidate
to the accepted set, and they hold for the running-maximum-key loop that
replaced it.

The R2 and H3 campaigns were first recorded before ball groups became
(balls, points) masks: one matrix product of the form-signed centers on H^n
in place of two einsum calls, and column-by-column keys on R^n in place of
an einsum.  Keys moved by an ulp on some entries (H^n, and R^n for n >= 3),
no membership decision moved, and none of the six digests changed.

The S2, H2 and R2 campaign digests were last re-recorded when n = 2 trial
volumes became exact areas from boundary arcs (``regions.exact_area``) in
place of 4000-draw Monte Carlo estimates.  Regions, clouds, sampled diameters
and trial 0, the exact ball, are unchanged; in trials 1-4 the volume moved by
at most 2.4% relative (within 2.4 of the old standard errors), the margin
with it, and the std_error became a rounding bound of order 1e-14.  The H3
digest and the flow digests did not change.  The digests went
S2 campaign 3fcee60634fde98dcac153f6c589f2e5a32379a97b208273085b26c99624fb56 ->
            8fd0c0bde2dcc77c7f5e6d63fe8b3849bf2fed65876ab20b7f6ff910ef91454d,
H2 campaign 2a7b21571c379abbe55ed75597b1f25dd79515800d80383f74f7e7f6ae62acc3 ->
            8a3eb1daf129e2e12efd2a13439351968c162a9e806e03b57830580b2e7b0bf7,
R2 campaign 8d2af212fa9afa29615f1fb77858ebeae582573a4bbf522454a5352efeaab692 ->
            45df9e52548c883c4312aac4d2ec915f48b0efe574c6718c7a3bce9482ef679e.

Before that, the digests were re-recorded when ball_volume moved from adaptive quadrature
to the closed-form radial mass, and equal_volume_radius from bisection to
1e-10 to the inverse of that mass.  Clouds, planes and rebase steps are
unchanged; volume, its standard error and the campaign margin moved by at
most 4.0e-16 relative, and the flows' Hausdorff distance by at most 3.6e-10
relative, through the reference ball's radius.  The digests went
S2 flow     20b517489e8fe5b00392e62620af4f959827c702568431b4be80f2ea6c413c46 ->
            7f4e59fdeb4025e0592b4417ce9eb3795cec97783c2f298b628e75f0943a14e5,
H2 flow     1a5c11e86fa143f182a029e8e29c48230a77fe146fd19414a6fc87ecd9db8266 ->
            4b8ef765a6fd9fc565e9bb0848ddf1102f4f8fe5aedf9ce3846fb81ef6e607ce,
S2 campaign cbda352b5d1c1cd408d66ec81bdbe87a56810a682042e8d7171430530e299bca ->
            3fcee60634fde98dcac153f6c589f2e5a32379a97b208273085b26c99624fb56,
H2 campaign 23b279d0f95892b7dc1f8026f0e4e0f5cc1a0a09f8782b3c95cb0a5728228b10 ->
            2a7b21571c379abbe55ed75597b1f25dd79515800d80383f74f7e7f6ae62acc3.

Before that, they were re-recorded when every sample metric (diameter, spacing,
Hausdorff distance, and the campaigns' sampled diameter) came to be decoded
from geometry.pair_key, the column-by-column kernel behind distance, in
place of matrix-product Gram keys.  Membership, sampling, volumes and planes
are unchanged; only those metric values moved, at most 3.7e-13 relative
(spacing), 1.1e-14 (Hausdorff), 1.4e-16 (flow diameter) and 3.1e-15
(sampled diameter).  The digests went
S2 flow     fd17b14d206a44eeb915f20b8a24f52b51b04142fc21b39a34c7f057c3d32b50 ->
            20b517489e8fe5b00392e62620af4f959827c702568431b4be80f2ea6c413c46,
H2 flow     68ed264308350697e5e0f3658eb67d835acbad74157eaae92adac61e4c870fe2 ->
            1a5c11e86fa143f182a029e8e29c48230a77fe146fd19414a6fc87ecd9db8266,
S2 campaign 6a4d40c658d2aef3bf14d66613cb2badaf2a2fa4e9414dedd7f1d7c53d8ec4e2 ->
            cbda352b5d1c1cd408d66ec81bdbe87a56810a682042e8d7171430530e299bca,
H2 campaign 6223ba7aac0ae0a0c4f9f7bbbc2b260c0b50986a971ae9988e535e6147406822 ->
            23b279d0f95892b7dc1f8026f0e4e0f5cc1a0a09f8782b3c95cb0a5728228b10.

Before that, the flow digests were re-recorded when every stream came to be
keyed directly by its (seed, step, role) coordinate instead of by an integer
hashed from it, a declared change: the planes and rebase steps are identical, the clouds and
volumes are redrawn, and before the rebase each step's volume stays within
1.2 sigma of the old one.  The digests went
S2 176ed60b3311ea23015014d665600376a0311c0938e7fac5800278515d701ffc ->
   fd17b14d206a44eeb915f20b8a24f52b51b04142fc21b39a34c7f057c3d32b50 and
H2 bd396193897bffae9bd18cb1417c8f5b74d7da7c058a00d44383c580a89ae956 ->
   68ed264308350697e5e0f3658eb67d835acbad74157eaae92adac61e4c870fe2.
Before that, when ball sampling moved from an interpolated trapezoid table to
the exact inverse CDF of the radial law, they were
S2 571426f9429563a6d07ed09d1c6910999f381c900e0fb88905077c03acf8c726 and
H2 9853537cac11b933772e0c2971d05792f9e74786c9312e928e5cffe6785f98b0.

The campaign digests were first recorded when tangent frames became the
closed-form boost and Householder maps; the Gram-Schmidt frames before them
gave S2 ef98701203c7ec55daf7eab7ce7e516688db28f313e78a069eaa3084a1fdbec7 and
H2 537dc8f316ca91926759672c6e6c3f32b3259f44f4d70ed660ed0f221fd1c9bf for the
same configurations.  The flow digests did not change then: a flow draws its
directions at the pole, where both frames are the identity.

No digest changed when the sample metrics moved from all-pairs Gram scans to
kd-tree nearest neighbors and a pruned farthest pair: each search picked the
scan's pair, and took its key with np.vecdot, which rounded as the scan's
matrix product did on these flows.

The S2 dumbbell flow, across two sparse rebases (a union of member balls),
and the H2 dented-ball flow, across one dense rebase (the envelope less
holes), were recorded before rebased regions carried certified core balls,
and hold with them: a core marks a row only where the whole chain accepts
it.  With the S2 dented-ball flow they cover both rebase branches and both
curved spaces.

All campaign digests were recorded with the trials run one after another.
They held, unchanged, while the trials ran on a thread pool, and the pool is
gone again.
"""

import hashlib

import pytest

from isodiam.cli import main
from isodiam.experiments import CampaignConfig, verify_isodiametric
from isodiam.geometry import Space
from isodiam.symmetrize import MetricsConfig, RandomThroughPole, run_flow

from conftest import dented_ball_region, dumbbell_region, two_caps_region

S2 = Space.sphere(2)
H2 = Space.hyperbolic(2)


def _csv_digest(report, tmp_path):
    path = tmp_path / "report.csv"
    report.write_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_s2_dented_ball_flow_across_a_rebase(tmp_path):
    report = run_flow(
        S2, dented_ball_region(S2), RandomThroughPole(), max_steps=7,
        stop_epsilon=0.0, seed=12,
        metrics=MetricsConfig(cloud_density=800.0, volume_samples=6000, rebase_depth=4))
    assert [s.rebased for s in report.steps].count(True) == 1
    assert _csv_digest(report, tmp_path) == S2_DENTED_DIGEST


def test_s2_dumbbell_flow_across_sparse_rebases(tmp_path):
    report = run_flow(
        S2, dumbbell_region(S2), RandomThroughPole(), max_steps=5,
        stop_epsilon=0.0, seed=21,
        metrics=MetricsConfig(cloud_density=400.0, volume_samples=3000, rebase_depth=2))
    assert [s.rebased for s in report.steps].count(True) == 2
    assert _csv_digest(report, tmp_path) == S2_DUMBBELL_DIGEST


def test_h2_dented_ball_flow_across_a_rebase(tmp_path):
    report = run_flow(
        H2, dented_ball_region(H2), RandomThroughPole(), max_steps=6,
        stop_epsilon=0.0, seed=22,
        metrics=MetricsConfig(cloud_density=400.0, volume_samples=3000, rebase_depth=3))
    assert [s.rebased for s in report.steps].count(True) == 1
    assert _csv_digest(report, tmp_path) == H2_DENTED_DIGEST


def test_h2_two_caps_flow(tmp_path):
    report = run_flow(
        H2, two_caps_region(H2), RandomThroughPole(), max_steps=8,
        stop_epsilon=0.0, seed=3,
        metrics=MetricsConfig(cloud_density=400.0, volume_samples=3000))
    assert _csv_digest(report, tmp_path) == H2_CAPS_DIGEST


@pytest.mark.parametrize("curvature, dim, D, seed, digest", [
    (1, 2, 1.0, 71, "8fd0c0bde2dcc77c7f5e6d63fe8b3849bf2fed65876ab20b7f6ff910ef91454d"),
    (-1, 2, 1.5, 72, "8a3eb1daf129e2e12efd2a13439351968c162a9e806e03b57830580b2e7b0bf7"),
    (0, 2, 1.0, 75, "45df9e52548c883c4312aac4d2ec915f48b0efe574c6718c7a3bce9482ef679e"),
    (-1, 3, 1.2, 80, "b054fdf5a6f23d84e081f21a91e70cd2fc15a0000e63e5ab60d83dde81192820"),
], ids=["S2", "H2", "R2", "H3"])
def test_short_campaign(tmp_path, curvature, dim, D, seed, digest):
    config = CampaignConfig(curvature=curvature, dim=dim, D=D, trials=5, seed=seed,
                            volume_samples=4000, region_density=300.0)
    assert _csv_digest(verify_isodiametric(config), tmp_path) == digest


@pytest.mark.parametrize("argv, digest", [
    (["--space", "sphere", "--dim", "2", "--D", "2.0", "--candidates", "5000", "--seed", "5"],
     "112fc15f7cb67c820881dc54f65e78c0b1d1599851fd12dfa2b9a97572c76970"),
    (["--space", "hyperbolic", "--dim", "2", "--D", "1.2", "--candidates", "5000", "--seed", "6"],
     "96012a12740c17eb7009751b9a234e1f4509413962c3fb81047170f98baa5bd6"),
    (["--space", "euclidean", "--dim", "2", "--D", "0.5", "--candidates", "5000", "--seed", "7",
      "--seed-ball"],
     "eea3f8b6621688184eaabb861d8a3cede7e078aad724fadbcaf93e05a2262bd3"),
], ids=["S2", "H2", "R2-seed-ball"])
def test_greedy_stdout(capsys, argv, digest):
    assert main(["greedy", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


S2_DENTED_DIGEST = "7f4e59fdeb4025e0592b4417ce9eb3795cec97783c2f298b628e75f0943a14e5"
H2_CAPS_DIGEST = "4b8ef765a6fd9fc565e9bb0848ddf1102f4f8fe5aedf9ce3846fb81ef6e607ce"
S2_DUMBBELL_DIGEST = "63aa3e9c7cdf536690b865c190e54ad562c948f80f1b0ed0a83e0594a1c8627a"
H2_DENTED_DIGEST = "b6bfd0457a6b6343081ee39bdb2d3c96dcb7f836e4e4b6023deb3c38eb9e5031"

"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail lines
as they complete.  All randomness is seed-pinned; reruns are bit-identical.
"""

import math
import time

import numpy as np
import pytest

from isodiam.convexity import ball_convexity_probe, hemisphere_center, hull_diameter_check
from isodiam.experiments import CampaignConfig, greedy_maximal, verify_isodiametric
from isodiam.geometry import (
    Ball,
    Space,
    ball_volume,
    bisector,
    distance,
    form,
    geodesic_point,
    normalize_to_space,
    project_gnomonic,
    reflect,
    side,
    tangent_toward,
)
from isodiam.regions import (
    Difference,
    _pairwise_extremes,
    Intersection,
    Symmetrized,
    bounding_ball,
    contains,
    sample,
    uniform_in_ball,
    volume_estimate,
)
from isodiam.rng import substream
from isodiam.symmetrize import MetricsConfig, RandomThroughPole, run_flow

from conftest import dented_ball_region, two_caps_region

S2 = Space.sphere(2)
S3 = Space.sphere(3)
E2 = Space.euclidean(2)
H2 = Space.hyperbolic(2)
ALL_SPACES = (S2, E2, H2)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:>2}: {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _random_case_region(space, rng):
    """Region of certified true diameter <= D, as a subset of a D/2 ball."""
    pole = space.base_point
    D = float(rng.uniform(0.9, 1.6))
    host = Ball(uniform_in_ball(space, Ball(pole, 0.3), rng), D / 2.0)
    kind = int(rng.integers(0, 3))
    if kind == 0:
        region = host
    elif kind == 1:
        dent = Ball(uniform_in_ball(space, Ball(host.center, D / 4.0), rng),
                    float(rng.uniform(0.15, 0.45)) * D / 2.0)
        region = Difference(host, dent)
    else:
        other = Ball(uniform_in_ball(space, Ball(host.center, D / 3.0), rng),
                     float(rng.uniform(0.4, 0.9)) * D / 2.0)
        region = Intersection((host, other))
    return region, D


def _random_plane(space, region, rng):
    env = bounding_ball(space, region)
    a = uniform_in_ball(space, env, rng)
    b = uniform_in_ball(space, env, rng)
    return bisector(space, a, b)


# criteria 3 and 9 share these flows; computed once per test session, with the
# build time charged to criterion 9's runtime budget
@pytest.fixture(scope="module")
def fixture_flows():
    t0 = time.monotonic()
    flows = {}
    flows["cap"] = run_flow(
        S2, Ball(S2.base_point, 0.8), RandomThroughPole(), max_steps=50,
        stop_epsilon=0.0, seed=401,
        metrics=MetricsConfig(cloud_density=2000.0, volume_samples=20000))
    flows["dented_ball"] = run_flow(
        S2, dented_ball_region(S2), RandomThroughPole(), max_steps=200,
        stop_epsilon=0.1, seed=12,
        metrics=MetricsConfig(cloud_density=2500.0, volume_samples=12000, rebase_depth=9))
    flows["two_caps"] = run_flow(
        S2, two_caps_region(S2), RandomThroughPole(),
        max_steps=200, stop_epsilon=0.1, seed=7,
        metrics=MetricsConfig(cloud_density=2500.0, volume_samples=10000, rebase_depth=10))
    return flows, time.monotonic() - t0


def test_criterion_01_counting_identity():
    t0 = time.monotonic()
    checked = 0
    failures = 0
    for k in range(50):
        space = ALL_SPACES[k % 3]
        region, _ = _random_case_region(space, substream(500, k, 0))
        plane = _random_plane(space, region, substream(500, k, 1))
        tau = Symmetrized(plane, region)
        env = bounding_ball(space, tau)
        pts = uniform_in_ball(space, env, substream(500, k, 2), size=10_000)
        mirrored = reflect(space, plane, pts)
        lhs = contains(space, tau, pts).astype(np.int8) \
            + contains(space, tau, mirrored).astype(np.int8)
        rhs = contains(space, region, pts).astype(np.int8) \
            + contains(space, region, mirrored).astype(np.int8)
        failures += int(np.count_nonzero(lhs != rhs))
        checked += pts.shape[0]
    elapsed = time.monotonic() - t0
    report(1, failures == 0 and elapsed < 60.0,
           f"counting identity exact at {checked} points over 50 pairs "
           f"({failures} failures, {elapsed:.1f}s)")


def test_criterion_02_volume_preservation():
    t0 = time.monotonic()
    worst = 0.0
    for k in range(50):
        space = ALL_SPACES[k % 3]
        region, _ = _random_case_region(space, substream(510, k, 0))
        plane = _random_plane(space, region, substream(510, k, 1))
        tau = Symmetrized(plane, region)
        ex = volume_estimate(space, region, 100_000, substream(510, k, 2))
        et = volume_estimate(space, tau, 100_000, substream(510, k, 3))
        combined = math.hypot(ex.std_error, et.std_error)
        sigmas = abs(et.value - ex.value) / combined if combined else 0.0
        worst = max(worst, sigmas)
    elapsed = time.monotonic() - t0
    report(2, worst <= 3.0 and elapsed < 120.0,
           f"volume preserved within 3 sigma on 50 cases at 1e5 samples "
           f"(worst {worst:.2f} sigma, {elapsed:.1f}s)")


def test_criterion_03_diameter_monotonicity(fixture_flows):
    flows, _ = fixture_flows
    t0 = time.monotonic()
    pair_checks = 0
    violations = 0
    for k in range(10):
        space = ALL_SPACES[k % 3]
        region, D = _random_case_region(space, substream(520, k, 0))
        plane = _random_plane(space, region, substream(520, k, 1))
        tau = Symmetrized(plane, region)
        cloud = sample(space, tau, 2000.0, substream(520, k, 2))
        pts = cloud.points
        if len(pts) < 2:
            continue
        s = np.asarray(side(space, plane, pts))
        rng = substream(520, k, 3)
        n_pairs = 10_000
        plus = np.flatnonzero(s >= 0)
        minus = np.flatnonzero(s < 0)
        if plus.size and minus.size:
            # bias toward genuine cross-side pairs, fill with uniform pairs
            i = np.concatenate([plus[rng.integers(0, plus.size, n_pairs // 2)],
                                rng.integers(0, len(pts), n_pairs // 2)])
            j = np.concatenate([minus[rng.integers(0, minus.size, n_pairs // 2)],
                                rng.integers(0, len(pts), n_pairs // 2)])
        else:
            i = rng.integers(0, len(pts), n_pairs)
            j = rng.integers(0, len(pts), n_pairs)
        d_direct = distance(space, pts[i], pts[j])
        d_mirror = distance(space, pts[i], reflect(space, plane, pts[j]))
        bound = np.minimum(d_direct, d_mirror)
        violations += int(np.count_nonzero(bound > D + 1e-9))
        pair_checks += n_pairs
    trace_ok = True
    for name, rep in flows.items():
        for prev, cur in zip(rep.steps, rep.steps[1:]):
            if cur.rebased:
                continue
            if cur.diameter > prev.diameter + 2.0 * (prev.spacing + cur.spacing) + 1e-9:
                trace_ok = False
    elapsed = time.monotonic() - t0
    report(3, violations == 0 and pair_checks >= 100_000 and trace_ok and elapsed < 60.0,
           f"min(d(x,y), d(x,sy)) <= D + 1e-9 on {pair_checks} pairs "
           f"({violations} violations), flow diameter traces non-increasing "
           f"({elapsed:.1f}s)")


def test_criterion_04_isodiametric_inequality():
    t0 = time.monotonic()
    campaigns = [
        CampaignConfig(curvature=0, dim=2, D=1.0, trials=100, seed=531,
                       volume_samples=100_000, region_density=600.0),
        CampaignConfig(curvature=1, dim=2, D=1.0, trials=100, seed=532,
                       volume_samples=100_000, region_density=600.0),
        CampaignConfig(curvature=1, dim=2, D=2.0, trials=100, seed=533,
                       volume_samples=100_000, region_density=600.0),
        CampaignConfig(curvature=-1, dim=2, D=1.0, trials=100, seed=534,
                       volume_samples=100_000, region_density=600.0),
        CampaignConfig(curvature=-1, dim=2, D=1.5, trials=100, seed=535,
                       volume_samples=100_000, region_density=600.0),
        # n = 3 spot checks
        CampaignConfig(curvature=0, dim=3, D=1.2, trials=15, seed=536,
                       volume_samples=100_000, region_density=400.0),
        CampaignConfig(curvature=1, dim=3, D=1.2, trials=15, seed=537,
                       volume_samples=100_000, region_density=400.0),
        CampaignConfig(curvature=-1, dim=3, D=1.2, trials=15, seed=538,
                       volume_samples=100_000, region_density=400.0),
    ]
    total_violations = 0
    trials = 0
    equality_ok = True
    for config in campaigns:
        rep = verify_isodiametric(config)
        total_violations += rep.violation_count
        trials += len(rep.records)
        first = rep.records[0]  # the exact-ball equality case
        if abs(first.margin) > 3.0 * first.std_error + 1e-12:
            equality_ok = False
    elapsed = time.monotonic() - t0
    report(4, total_violations == 0 and equality_ok and elapsed < 600.0,
           f"no 3-sigma excess over the D/2 ball in {trials} trials across "
           f"R2, S2, H2 and n=3 spot checks; exact-ball trials sit at equality "
           f"({elapsed:.1f}s)")


def test_criterion_05_hemisphere_certificates():
    t0 = time.monotonic()
    granted = 0
    needed = 0
    for space, base_seed in ((S2, 540), (S3, 541)):
        bound = math.acos(-1.0 / (space.dim + 1))
        made = 0
        k = 0
        while made < 100:
            rng = substream(base_seed, k)
            k += 1
            rho = (bound - 1e-6) / 2.0 * float(rng.uniform(0.15, 0.999))
            center = uniform_in_ball(space, Ball(space.base_point, 1.5), rng)
            pts = uniform_in_ball(space, Ball(center, rho), rng,
                                  size=int(rng.integers(20, 120)))
            diam = _pairwise_extremes(space, pts)[0]
            if diam >= bound - 1e-6:
                continue
            made += 1
            needed += 1
            cert = hemisphere_center(pts)
            if cert is not None and cert.min_margin > 0.0 \
                    and bool(np.all(pts @ cert.z > 0.0)):
                granted += 1
    antipodal = np.vstack([np.eye(3), -np.eye(3)])
    none_ok = hemisphere_center(antipodal) is None
    elapsed = time.monotonic() - t0
    report(5, granted == needed == 200 and none_ok and elapsed < 60.0,
           f"open-hemisphere certificates on {granted}/{needed} admissible clouds, "
           f"none for the antipodal frame ({elapsed:.1f}s)")


def test_criterion_06_ball_convexity():
    t0 = time.monotonic()
    clean = True
    for r in (0.5, 2.0, 5.0):
        count, _ = ball_convexity_probe(H2, Ball(H2.base_point, r), 10_000, seed=550)
        clean &= count == 0
    count_small, _ = ball_convexity_probe(S2, Ball(S2.base_point, math.pi / 4),
                                          10_000, seed=551)
    clean &= count_small == 0
    count_big, witness = ball_convexity_probe(S2, Ball(S2.base_point, 3 * math.pi / 4),
                                              10_000, seed=552)
    elapsed = time.monotonic() - t0
    report(6, clean and count_big >= 1 and witness is not None and elapsed < 60.0,
           f"hyperbolic and small spherical balls convex at 1e4 trials; "
           f"radius 3pi/4 cap yields {count_big} violations with a witness "
           f"({elapsed:.1f}s)")


def test_criterion_07_hull_diameter_identity():
    t0 = time.monotonic()
    ok = True
    worst_over = -np.inf
    worst_under = np.inf
    for k in range(50):
        space = ALL_SPACES[k % 3]
        rng = substream(560, k)
        if space.curvature == 1:
            rho = float(rng.uniform(0.1, math.pi / 4 - 1e-3))
        else:
            rho = float(rng.uniform(0.1, 0.8))
        center = uniform_in_ball(space, Ball(space.base_point, 0.8), rng)
        pts = uniform_in_ball(space, Ball(center, rho), rng,
                              size=int(rng.integers(30, 120)))
        d0, d1 = hull_diameter_check(space, pts, 2500, seed=5600 + k)
        over = d1 - d0
        worst_over = max(worst_over, over)
        worst_under = min(worst_under, over)
        if not (-2e-3 <= over <= 1e-9):
            ok = False
    elapsed = time.monotonic() - t0
    report(7, ok and elapsed < 120.0,
           f"hull-sample diameter within [diam-2e-3, diam+1e-9] on 50 clouds "
           f"(excess range [{worst_under:.2e}, {worst_over:.2e}], {elapsed:.1f}s)")


def test_criterion_08_geometry_kernel():
    t0 = time.monotonic()
    n = 10_000
    ok = True
    details = []
    for space in ALL_SPACES:
        rng = substream(570 + space.curvature)
        pole = space.base_point
        xs = uniform_in_ball(space, Ball(pole, 1.2), rng, size=n)
        ys = uniform_in_ball(space, Ball(pole, 1.2), rng, size=n)
        a = uniform_in_ball(space, Ball(pole, 1.0), rng)
        b = uniform_in_ball(space, Ball(pole, 1.0), rng)
        h = bisector(space, a, b)

        twice = reflect(space, h, reflect(space, h, xs))
        involution = float(np.max(np.linalg.norm(twice - xs, axis=1)))
        ok &= involution <= 1e-12

        iso = float(np.max(np.abs(
            distance(space, reflect(space, h, xs), reflect(space, h, ys))
            - distance(space, xs, ys))))
        ok &= iso <= 1e-10

        # points projected onto each pair's bisector are equidistant
        planes_p = xs - ys
        if space.curvature == 0:
            offs = (np.einsum("nd,nd->n", xs, xs) - np.einsum("nd,nd->n", ys, ys)) / 2.0
            vals = np.einsum("nd,nd->n", xs, planes_p) - offs
        else:
            offs = np.zeros(n)
            vals = form(space, xs, planes_p)
        zs = uniform_in_ball(space, Ball(pole, 1.2), substream(571), size=n)
        zvals = (np.einsum("nd,nd->n", zs, planes_p) - offs) if space.curvature == 0 \
            else form(space, zs, planes_p)
        qq = form(space, planes_p, planes_p)
        proj = zs - (zvals / qq)[:, None] * planes_p
        if space.curvature != 0:
            proj = normalize_to_space(space, proj)
        equi = float(np.max(np.abs(distance(space, proj, xs) - distance(space, proj, ys))))
        ok &= equi <= 1e-9

        u, t = tangent_toward(space, xs, ys)
        back = geodesic_point(space, xs, u, t)
        roundtrip = float(np.max(np.linalg.norm(back - ys, axis=1)))
        ok &= roundtrip <= 1e-9

        details.append(f"{space.name}: inv {involution:.1e} iso {iso:.1e} "
                       f"equi {equi:.1e} exp/log {roundtrip:.1e}")

    # gnomonic collinearity on both curved spaces
    collin_worst = 0.0
    for space in (S2, H2):
        rng = substream(572)
        zs = uniform_in_ball(space, Ball(space.base_point, 0.3), rng, size=n)
        us, _ = tangent_toward(space, zs, np.broadcast_to(space.base_point, zs.shape))
        imgs = []
        for tval in (-0.4, 0.1, 0.5):
            imgs.append(project_gnomonic(space, geodesic_point(space, zs, us, tval)))
        v1 = imgs[1] - imgs[0]
        v2 = imgs[2] - imgs[0]
        v1 /= np.linalg.norm(v1, axis=1, keepdims=True)
        resid = v2 - np.einsum("nd,nd->n", v2, v1)[:, None] * v1
        collin_worst = max(collin_worst, float(np.max(np.linalg.norm(resid, axis=1))))
    ok &= collin_worst <= 1e-9

    vol_dev = max(
        abs(ball_volume(S2, math.pi / 4) - 2 * math.pi * (1 - math.cos(math.pi / 4))),
        abs(ball_volume(H2, 1.0) - 2 * math.pi * (math.cosh(1.0) - 1.0)))
    ok &= vol_dev <= 1e-9
    elapsed = time.monotonic() - t0
    report(8, ok and elapsed < 60.0,
           "; ".join(details) + f"; collinearity {collin_worst:.1e}; "
           f"ball_volume vs closed forms {vol_dev:.1e} ({elapsed:.1f}s)")


def test_criterion_09_flow_fixed_point_and_convergence(fixture_flows):
    flows, build_time = fixture_flows
    t0 = time.monotonic()
    cap = flows["cap"]
    base = cap.steps[0]
    stationary = len(cap.steps) == 51
    for rec in cap.steps[1:]:
        stationary &= abs(rec.volume.value - base.volume.value) <= \
            3.0 * math.hypot(rec.volume.std_error, base.volume.std_error)
        stationary &= abs(rec.diameter - base.diameter) <= \
            2.0 * (rec.spacing + base.spacing)
        stationary &= rec.hausdorff_to_reference <= \
            base.hausdorff_to_reference + 2.0 * (rec.spacing + base.spacing)
    dented = flows["dented_ball"]
    caps = flows["two_caps"]
    dented_ok = dented.converged and len(dented.steps) - 1 <= 200 \
        and dented.steps[-1].hausdorff_to_reference < 0.1
    caps_ok = caps.converged and len(caps.steps) - 1 <= 200 \
        and caps.steps[-1].hausdorff_to_reference < 0.1
    elapsed = build_time + (time.monotonic() - t0)
    report(9, stationary and dented_ok and caps_ok and elapsed < 300.0,
           f"pole cap metric-stationary over 50 steps; dented ball reached "
           f"h={dented.steps[-1].hausdorff_to_reference:.3f} at step "
           f"{len(dented.steps) - 1}; two caps reached "
           f"h={caps.steps[-1].hausdorff_to_reference:.3f} at step "
           f"{len(caps.steps) - 1} ({elapsed:.1f}s)")


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    blobs = []
    for k in (1, 2):
        vc = tmp_path / f"verify{k}.csv"
        vj = tmp_path / f"verify{k}.json"
        config = CampaignConfig(curvature=1, dim=2, D=1.4, trials=6, seed=580,
                                volume_samples=20000, region_density=400.0)
        verify_isodiametric(config, out_csv=vc, out_json=vj)
        fc = tmp_path / f"flow{k}.csv"
        fj = tmp_path / f"flow{k}.json"
        rep = run_flow(S2, dented_ball_region(S2), RandomThroughPole(), max_steps=5,
                       stop_epsilon=0.0, seed=581,
                       metrics=MetricsConfig(cloud_density=600.0, volume_samples=4000))
        rep.write_csv(fc)
        rep.write_json(fj)
        cloud, deficit, sigma = greedy_maximal(S2, 1.2, 8000, seed=582)
        blobs.append((vc.read_bytes(), vj.read_bytes(), fc.read_bytes(),
                      fj.read_bytes(), cloud.points.tobytes(), deficit, sigma))
    identical = blobs[0] == blobs[1]
    elapsed = time.monotonic() - t0
    report(10, identical and elapsed < 120.0,
           f"verify, flow and greedy reports byte-identical "
           f"under repeated seeds "
           f"({elapsed:.1f}s)")

"""Command-line front end.

One binary with subcommands; every stochastic subcommand requires --seed, and
identical invocations produce byte-identical output files.  Lengths and radii
on the curved spaces are in radians of arc.  Exit status: 0 on success, 1 only
for a verify campaign violation, 2 on usage errors and refused input.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .convexity import ball_convexity_probe, hemisphere_center, hull_diameter_check
from .experiments import CampaignConfig, greedy_maximal, verify_isodiametric
from .geometry import SPHERICAL, _CURVATURE_NAMES, Ball, Space, ball_volume
from .regionio import RegionFormatError, load_region
from .regions import diameter, sample, volume_estimate
from .rng import substream
from .symmetrize import (
    FarthestPairBisector,
    MetricsConfig,
    RandomThroughPole,
    run_flow,
)

_SPACES = {name: curvature for curvature, name in _CURVATURE_NAMES.items()}


def _space_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", choices=sorted(_SPACES), required=True,
                   help="model space (curvature -1, 0 or +1)")
    p.add_argument("--dim", type=int, required=True, help="dimension n >= 2")


def _get_space(args) -> Space:
    return Space(_SPACES[args.space], args.dim)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isodiam",
        description="Constant-curvature geometry, two-point symmetrization flows, "
                    "and isodiametric verification campaigns.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", help="ball volume in closed form, or Monte Carlo region volume")
    _space_args(p)
    p.add_argument("--radius", type=float, help="ball radius (radians of arc when curved)")
    p.add_argument("--region", help="region document; estimates its volume instead")
    p.add_argument("--samples", type=int, default=100_000, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, help="RNG seed (required with --region)")

    p = sub.add_parser("diameter", help="sampled diameter of a region document")
    p.add_argument("--region", required=True, help="region document path")
    p.add_argument("--density", type=float, default=1000.0,
                   help="samples per unit volume")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")

    p = sub.add_parser("flow", help="iterated two-point symmetrization flow")
    p.add_argument("--region", required=True, help="initial region document")
    p.add_argument("--steps", type=int, required=True, help="maximum step count")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.add_argument("--out", required=True, help="per-step CSV output path")
    p.add_argument("--json", dest="json_out", help="optional JSON report path")
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="stop when Hausdorff to the reference ball drops below this "
                        "(0 runs all steps)")
    p.add_argument("--strategy", choices=["random", "farthest"], default="random",
                   help="hyperplane choice: random through the pole, or farthest-pair bisector")
    # MetricsConfig owns these defaults
    p.add_argument("--density", type=float, default=MetricsConfig.cloud_density,
                   help="metric cloud density")
    p.add_argument("--volume-samples", type=int, default=MetricsConfig.volume_samples,
                   help="Monte Carlo samples per step")
    p.add_argument("--rebase-depth", type=int, default=MetricsConfig.rebase_depth,
                   help="symmetrized chain depth before re-basing")

    p = sub.add_parser("verify", help="isodiametric verification campaign")
    p.add_argument("--config", help="campaign config as a JSON document, in place of the "
                                    "campaign flags (only --out and --json may join it)")
    p.add_argument("--space", choices=sorted(_SPACES), help="model space")
    p.add_argument("--dim", type=int, help="dimension n >= 2")
    p.add_argument("--D", type=float, dest="D",
                   help="diameter bound (in (0, pi) on the sphere)")
    p.add_argument("--trials", type=int, help="number of random regions")
    p.add_argument("--seed", type=int, help="RNG seed")
    # CampaignConfig owns these defaults; None marks a flag as not given
    p.add_argument("--samples", type=int, help="Monte Carlo volume samples per trial for "
                   f"n >= 3, at least 100 (default {CampaignConfig.volume_samples}); unused "
                   "at n = 2, where each volume is exact and its std_error a rounding bound")
    p.add_argument("--density", type=float, help="region sampling density "
                   f"(default {CampaignConfig.region_density})")
    p.add_argument("--complexity", type=int, help="max primitive balls per region "
                   f"(default {CampaignConfig.complexity})")
    p.add_argument("--out", help="per-trial CSV output path")
    p.add_argument("--json", dest="json_out", help="JSON summary output path")

    p = sub.add_parser("greedy", help="greedy diameter-bounded set probe")
    _space_args(p)
    p.add_argument("--D", type=float, required=True, dest="D", help="diameter bound")
    p.add_argument("--candidates", type=int, required=True, help="candidate point count")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.add_argument("--seed-ball", action="store_true",
                   help="process candidates inside the half-radius ball first")

    p = sub.add_parser("hemisphere", help="open-hemisphere certificate for a sampled cloud")
    p.add_argument("--region", required=True, help="spherical region document")
    p.add_argument("--density", type=float, default=1000.0, help="sampling density")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")

    p = sub.add_parser("hull-check", help="hull-sample diameter against the cloud diameter")
    p.add_argument("--region", required=True, help="region document")
    p.add_argument("--density", type=float, default=500.0, help="sampling density")
    p.add_argument("--hull-samples", type=int, default=2000, help="hull sample count")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")

    p = sub.add_parser("ball-probe", help="geodesic midpoint convexity probe of a ball")
    _space_args(p)
    p.add_argument("--radius", type=float, required=True, help="ball radius at the pole")
    p.add_argument("--trials", type=int, default=10_000, help="random pair count")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    return ap


def _cmd_volume(args) -> int:
    space = _get_space(args)
    if args.region:
        if args.seed is None:
            print("--seed is required with --region", file=sys.stderr)
            return 2
        file_space, region = load_region(args.region)
        if file_space != space:
            print(f"--space {args.space} --dim {args.dim} disagrees with the region "
                  f"document's space, {file_space.name} of dim {file_space.dim}",
                  file=sys.stderr)
            return 2
        est = volume_estimate(space, region, args.samples, substream(args.seed))
        print(f"{est.value!r} +- {est.std_error!r} ({est.samples_used} samples)")
        return 0
    if args.radius is None:
        print("one of --radius or --region is required", file=sys.stderr)
        return 2
    print(repr(ball_volume(space, args.radius)))
    return 0


def _cmd_diameter(args) -> int:
    space, region = load_region(args.region)
    cloud = sample(space, region, args.density, substream(args.seed))
    if len(cloud) < 2:
        print("region produced fewer than two samples", file=sys.stderr)
        return 2
    d, x, y = diameter(space, cloud)
    print(repr(d))
    print("attained between", np.array2string(x, separator=", "),
          "and", np.array2string(y, separator=", "))
    return 0


def _cmd_flow(args) -> int:
    space, region = load_region(args.region)
    strategy = RandomThroughPole() if args.strategy == "random" else FarthestPairBisector()
    metrics = MetricsConfig(cloud_density=args.density, volume_samples=args.volume_samples,
                            rebase_depth=args.rebase_depth)
    report = run_flow(space, region, strategy, max_steps=args.steps,
                      stop_epsilon=args.epsilon, seed=args.seed, metrics=metrics)
    report.write_csv(args.out)
    if args.json_out:
        report.write_json(args.json_out)
    last = report.steps[-1]
    print(f"steps={len(report.steps) - 1} converged={report.converged} "
          f"final_hausdorff={last.hausdorff_to_reference!r}")
    return 0


def _cmd_verify(args) -> int:
    flags = {"--space": args.space, "--dim": args.dim, "--D": args.D, "--trials": args.trials,
             "--seed": args.seed, "--samples": args.samples, "--density": args.density,
             "--complexity": args.complexity}
    if args.config:
        given = [flag for flag, val in flags.items() if val is not None]
        if given:
            print(f"verify --config cannot be combined with {' '.join(given)}",
                  file=sys.stderr)
            return 2
        config = CampaignConfig.from_json(args.config)
    else:
        missing = [flag for flag in ("--space", "--dim", "--D", "--trials", "--seed")
                   if flags[flag] is None]
        if missing:
            print(f"verify needs {' '.join(missing)} (or --config)", file=sys.stderr)
            return 2
        optional = {key: flags[flag] for flag, key in (("--samples", "volume_samples"),
                                                       ("--density", "region_density"),
                                                       ("--complexity", "complexity"))
                    if flags[flag] is not None}
        config = CampaignConfig(curvature=_SPACES[args.space], dim=args.dim, D=args.D,
                                trials=args.trials, seed=args.seed, **optional)
    report = verify_isodiametric(config, out_csv=args.out, out_json=args.json_out)
    print(f"trials={len(report.records)} violations={report.violation_count} "
          f"max_margin={report.max_margin!r}")
    return 1 if report.violation_count else 0


def _cmd_greedy(args) -> int:
    space = _get_space(args)
    cloud, deficit, sigma = greedy_maximal(space, args.D, args.candidates, args.seed,
                                           seed_with_ball=args.seed_ball)
    vol = ball_volume(space, args.D / 2.0)
    print(f"accepted={len(cloud)} volume={cloud.volume_estimate!r} "
          f"ball_volume={vol!r} deficit={deficit!r} sigma={sigma!r}")
    return 0


def _cmd_hemisphere(args) -> int:
    space, region = load_region(args.region)
    if space.curvature != SPHERICAL:
        print("hemisphere certificates are a spherical concept", file=sys.stderr)
        return 2
    cloud = sample(space, region, args.density, substream(args.seed))
    if len(cloud) == 0:
        print("region produced no samples", file=sys.stderr)
        return 2
    cert = hemisphere_center(cloud)
    if cert is None:
        print("none")
    else:
        print(f"certificate z={np.array2string(cert.z, separator=', ')} "
              f"margin={cert.min_margin!r}")
    return 0


def _cmd_hull_check(args) -> int:
    space, region = load_region(args.region)
    # the hull combinations draw from the root stream
    cloud = sample(space, region, args.density, substream(args.seed, 0))
    if len(cloud) < 2:
        print("region produced fewer than two samples", file=sys.stderr)
        return 2
    d0, d1 = hull_diameter_check(space, cloud, args.hull_samples, args.seed)
    print(f"cloud_diameter={d0!r} hull_diameter={d1!r}")
    return 0


def _cmd_ball_probe(args) -> int:
    space = _get_space(args)
    ball = Ball(space.base_point, args.radius)
    violations, witness = ball_convexity_probe(space, ball, args.trials, args.seed)
    print(f"violations={violations}")
    if witness is not None:
        print("witness", np.array2string(witness[0], separator=", "),
              np.array2string(witness[1], separator=", "))
    return 0


_DISPATCH = {
    "volume": _cmd_volume,
    "diameter": _cmd_diameter,
    "flow": _cmd_flow,
    "verify": _cmd_verify,
    "greedy": _cmd_greedy,
    "hemisphere": _cmd_hemisphere,
    "hull-check": _cmd_hull_check,
    "ball-probe": _cmd_ball_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args)
    except RegionFormatError as exc:
        print(f"region document error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

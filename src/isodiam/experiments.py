"""Campaign drivers: desk-scale numerical checks of the isodiametric inequality.

A verification campaign generates random sampled-admissible regions of
diameter at most D, estimates their volumes, and compares against the ball of
radius D/2; any excess beyond the sigma threshold is a finding.  The greedy
probe grows a diameter-bounded point set and accounts its volume by candidate
fraction.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .geometry import SPHERICAL, Ball, Space, ball_volume, distance, key_threshold, pair_key
from .regionio import region_digest
from .regions import (
    Difference,
    EmptyRegionWarning,
    Intersection,
    PointCloud,
    Union,
    _farthest_pair,
    sample,
    uniform_in_ball,
    volume_estimate,
)
from .rng import substream


class RegionGenerationError(RuntimeError):
    """Random admissible-region generation failed after bounded retries."""


#: fresh draws random_admissible_region makes before it gives up
_GENERATION_ATTEMPTS = 20


def _check_diameter_bound(space: Space, D: float) -> None:
    """Raise ValueError unless D is finite, positive, and below pi on the sphere."""
    if not (math.isfinite(D) and D > 0.0):
        raise ValueError(f"diameter bound D must be finite and positive, got {D}")
    if space.curvature == SPHERICAL and D >= math.pi:
        raise ValueError(f"diameter bound D must be below pi on the sphere, got {D}")


def random_admissible_region(space: Space, D: float, complexity: int,
                             rng: np.random.Generator, density: float = 600.0):
    """Random CSG region whose sampled diameter is at most D.

    Builds a union/intersection/difference combination of up to ``complexity``
    balls centered inside the ball of radius D/2 at the pole, then trims by
    intersecting with balls of radius D around witness sample points until the
    sampled diameter check passes.  Complexity 1 yields a plain ball of radius
    at most D/2.  Every attempt, trim cloud and witness choice is drawn from
    ``rng`` in turn.
    """
    _check_diameter_bound(space, D)
    pole = space.base_point
    half = D / 2.0
    for _ in range(_GENERATION_ATTEMPTS):
        k = int(rng.integers(1, complexity + 1))
        if k == 1:
            radius = half * float(rng.uniform(0.3, 1.0))
            center = uniform_in_ball(space, Ball(pole, half * 0.5), rng)
            region = Ball(center, min(radius, half))
            pad = float(distance(space, pole, center)) + region.radius
            if pad > half:
                region = Ball(center, max(half - float(distance(space, pole, center)), 0.1 * half))
            return region
        centers = uniform_in_ball(space, Ball(pole, half * 0.9), rng, size=k)
        radii = half * rng.uniform(0.25, 0.85, size=k)
        region = Ball(centers[0], float(radii[0]))
        for i in range(1, k):
            b = Ball(centers[i], float(radii[i]))
            op = rng.random()
            if op < 0.55:
                region = Union((region, b))
            elif op < 0.8:
                region = Intersection((region, b))
            else:
                region = Difference(region, b)
        trimmed = region
        for _ in range(8):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyRegionWarning)
                cloud = sample(space, trimmed, density, rng)
            if len(cloud) < 8:
                break
            diam, bi, bj = _farthest_pair(space, cloud.points)
            if diam <= D:
                return trimmed
            extra = rng.choice(len(cloud), size=min(10, len(cloud)), replace=False)
            witnesses = np.unique(np.concatenate([[bi, bj], extra]))
            guards = tuple(Ball(cloud.points[w], D) for w in witnesses)
            trimmed = Intersection((trimmed,) + guards)
    raise RegionGenerationError(f"no admissible region after {_GENERATION_ATTEMPTS} attempts")


@dataclass(frozen=True)
class CampaignConfig:
    """Settings for one isodiametric verification campaign."""

    curvature: int
    dim: int
    D: float
    trials: int
    seed: int
    volume_samples: int = 100_000
    region_density: float = 600.0
    complexity: int = 4
    include_exact_ball: bool = True
    sigma_threshold: float = 3.0

    def __post_init__(self):
        _check_diameter_bound(self.space, self.D)
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.complexity < 1:
            raise ValueError(f"complexity must be at least 1, got {self.complexity}")
        if not (math.isfinite(self.sigma_threshold) and self.sigma_threshold >= 0.0):
            raise ValueError(f"sigma_threshold must be finite and non-negative, "
                             f"got {self.sigma_threshold}")

    @property
    def space(self) -> Space:
        return Space(self.curvature, self.dim)

    @classmethod
    def from_json(cls, path) -> "CampaignConfig":
        """Load a config document; ValueError names any unknown, missing or mistyped key."""
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: campaign config must be a JSON object")
        kinds = {f.name: f for f in fields(cls)}
        for key, value in raw.items():
            if key not in kinds:
                raise ValueError(f"{path}: unknown campaign config key '{key}'")
            kind = kinds[key].type
            # bool is an int subclass, so a flag and a number are told apart first
            accepted = {"int": int, "float": (int, float), "bool": bool}[kind]
            if isinstance(value, bool) != (kind == "bool") or not isinstance(value, accepted):
                raise ValueError(f"{path}: campaign config key '{key}' must be {kind}, "
                                 f"got {value!r}")
        missing = [k for k, f in kinds.items() if f.default is MISSING and k not in raw]
        if missing:
            raise ValueError(f"{path}: campaign config lacks {', '.join(missing)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    digest: str
    volume: float
    std_error: float
    sampled_diameter: float
    margin: float
    violation: bool


@dataclass
class CampaignReport:
    config: CampaignConfig
    ball_reference_volume: float
    records: list

    @property
    def violation_count(self) -> int:
        return sum(1 for r in self.records if r.violation)

    @property
    def max_margin(self) -> float:
        return max(r.margin for r in self.records)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "digest", "volume", "std_error",
                        "sampled_diameter", "margin", "violation"])
            for r in self.records:
                w.writerow([r.trial, r.digest, repr(r.volume), repr(r.std_error),
                            repr(r.sampled_diameter), repr(r.margin), int(r.violation)])

    def summary_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "ball_reference_volume": self.ball_reference_volume,
            "trials": len(self.records),
            "violation_count": self.violation_count,
            "max_margin": self.max_margin,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def verify_isodiametric(config: CampaignConfig, out_csv=None, out_json=None) -> CampaignReport:
    """Run the volume-vs-ball comparison over random admissible regions.

    Trial 0 is the exact ball of radius D/2 when configured, reproducing the
    equality case; a violation is a trial whose volume exceeds the ball volume
    by more than sigma_threshold standard errors.  Violations are findings
    recorded in the report, not errors.
    """
    space = config.space
    pole = space.base_point
    v_ball = ball_volume(space, config.D / 2.0)
    records = []
    for trial in range(config.trials):
        if trial == 0 and config.include_exact_ball:
            region = Ball(pole, config.D / 2.0)
        else:
            region = random_admissible_region(space, config.D, config.complexity,
                                              substream(config.seed, trial, 0),
                                              density=config.region_density)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyRegionWarning)
            cloud = sample(space, region, config.region_density,
                           substream(config.seed, trial, 1))
        diam = _farthest_pair(space, cloud.points)[0] if len(cloud) else 0.0
        est = volume_estimate(space, region, config.volume_samples,
                              substream(config.seed, trial, 2))
        margin = est.value - v_ball
        records.append(TrialRecord(
            trial=trial, digest=region_digest(region), volume=est.value,
            std_error=est.std_error, sampled_diameter=diam, margin=margin,
            violation=margin > config.sigma_threshold * est.std_error,
        ))
    report = CampaignReport(config=config, ball_reference_volume=v_ball, records=records)
    if out_csv:
        report.write_csv(out_csv)
    if out_json:
        report.write_json(out_json)
    return report


def greedy_maximal(space: Space, D: float, candidate_count: int, seed: int,
                   seed_with_ball: bool = False):
    """Greedy diameter-D point set in the ball of radius D at the pole.

    Candidates are scattered uniformly; one is accepted exactly when it stays
    within D of every previously accepted point.  The accepted set's volume is
    accounted as accepted_count * envelope_volume / candidate_count; returns
    the accepted cloud, the deficit against the ball of radius D/2, and sigma.

    The test runs on keys: a candidate stays live while its largest
    ``pair_key`` to the accepted set is at most g* = ``key_threshold(D)``, the
    largest float that the ``decode_key`` in force maps to at most D.  The
    first live candidate is accepted, and one vector ``pair_key`` from it to
    the rest of the live set drops every candidate whose key is above g*.  A
    pair's key has the same bits in any batch shape and ``decode_key`` is
    non-decreasing, so this accepts exactly the candidates whose every
    ``distance`` is at most D.  The cost is O(accepted x live) key columns.

    sigma is the binomial error of independent draws.  Acceptance depends on
    the path taken, so sigma is only a lower bound on the seed-to-seed spread
    (the z-scores of 60 seeds spread 1.47, not 1).
    """
    _check_diameter_bound(space, D)
    if isinstance(candidate_count, bool) or not isinstance(candidate_count, numbers.Integral):
        raise ValueError(f"candidate_count must be an integer, got {candidate_count!r}")
    if candidate_count < 1:
        raise ValueError(f"candidate_count must be at least 1, got {candidate_count}")
    candidate_count = int(candidate_count)
    pole = space.base_point
    env = Ball(pole, D)
    v_env = ball_volume(space, D)
    rng = substream(seed)
    cand = uniform_in_ball(space, env, rng, size=candidate_count)
    if seed_with_ball:
        inner = distance(space, cand, pole) <= D / 2.0
        cand = np.concatenate([cand[inner], cand[~inner]])
    g_max = key_threshold(space, D)
    # one contiguous row per coordinate: a column mask of (ambient_dim, N)
    # costs less than a row mask of (N, ambient_dim)
    live = np.ascontiguousarray(cand.T)
    accepted = []
    while live.shape[1]:
        # a copy, so that no accepted point holds a dropped live block in memory
        x = live[:, 0].copy()
        accepted.append(x)
        rest = live[:, 1:]
        live = rest.take(np.flatnonzero(pair_key(space, x, rest.T) <= g_max), axis=1)
    frac = len(accepted) / candidate_count
    vol = v_env * frac
    sigma = v_env * math.sqrt(frac * (1.0 - frac) / candidate_count)
    deficit = ball_volume(space, D / 2.0) - vol
    cloud = PointCloud(points=np.array(accepted), weight=v_env / candidate_count)
    return cloud, deficit, sigma

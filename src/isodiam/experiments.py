"""Campaign drivers: desk-scale numerical checks of the isodiametric inequality.

A verification campaign generates random sampled-admissible regions of
diameter at most D, takes their volumes (exact from boundary arcs for n = 2,
Monte Carlo for n >= 3), and compares against the ball of radius D/2; any
excess beyond the sigma threshold is a finding.  The greedy
probe grows a diameter-bounded point set and accounts its volume by candidate
fraction.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .geometry import (
    SPHERICAL,
    Ball,
    Space,
    ball_volume,
    distance,
    key_threshold,
    pair_key,
    screen_keys,
)
from .regionio import region_digest, write_json
from .regions import (
    Difference,
    Intersection,
    PointCloud,
    Union,
    _check_count,
    _check_positive,
    _farthest_pair,
    _real,
    exact_area,
    sample,
    uniform_in_ball,
    volume_estimate,
)
from .rng import _whole, substream


class RegionGenerationError(ValueError):
    """Random admissible-region generation failed after bounded retries."""


#: fresh draws random_admissible_region makes before it gives up
_GENERATION_ATTEMPTS = 20
#: live candidates the greedy probe decides among themselves at once
_HEAD_BLOCK = 32
#: live columns the greedy filter holds keys for at once, per accepted head:
#: at 32 heads, 2^12 columns (1 MB of keys) took 1.3 s on the README's
#: 100k-candidate greedy and 2^14 columns (4 MB) 2.3 s, on a 2-vCPU host
_FILTER_COLUMNS = 2 ** 12


def _check_diameter_bound(space: Space, D: float) -> None:
    """Raise ValueError unless D is finite, positive, and below pi on the sphere."""
    _check_positive("diameter bound D", D)
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
    ``rng`` in turn.  A trim cloud under 8 points raises ValueError if the
    density expects under 8 in the ball of radius D/2, and so in any region.
    """
    _check_diameter_bound(space, D)
    _check_count("complexity", complexity, 1)
    pole = space.base_point
    half = D / 2.0
    for _ in range(_GENERATION_ATTEMPTS):
        k = int(rng.integers(1, complexity + 1))
        if k == 1:
            radius = half * float(rng.uniform(0.3, 1.0))
            center = uniform_in_ball(space, Ball(pole, half * 0.5), rng)
            from_pole = float(distance(space, pole, center))
            if from_pole + radius > half:  # from_pole <= half / 2
                radius = half - from_pole
            return Ball(center, radius)
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
            cloud = sample(space, trimmed, density, rng).points
            if len(cloud) < 8:
                if density * ball_volume(space, half) < 8.0:
                    raise ValueError(f"region density {density!r} expects fewer than 8 samples "
                                     f"in any region of diameter at most D = {D!r}, too few "
                                     f"to check one")
                break
            diam, bi, bj = _farthest_pair(space, cloud)
            if diam <= D:
                return trimmed
            extra = rng.choice(len(cloud), size=min(10, len(cloud)), replace=False)
            witnesses = np.unique(np.concatenate([[bi, bj], extra]))
            guards = tuple(Ball(cloud[w], D) for w in witnesses)
            trimmed = Intersection((trimmed,) + guards)
    raise RegionGenerationError(f"no admissible region after {_GENERATION_ATTEMPTS} attempts")


@dataclass(frozen=True)
class CampaignConfig:
    """Settings for one isodiametric verification campaign.

    ``volume_samples`` is the Monte Carlo draw count of each trial volume for
    n >= 3, at least 100, except a lone ball's (trial 0, and every
    complexity-1 draw), which is ``ball_volume``, draws nothing and leaves
    stream (k, 2) unopened.  At n = 2 it is unused, and any positive count
    is taken: each volume is exact, from the region's boundary arcs, and its
    std_error is a rounding bound.
    """

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
        # stored as ints, numpy's included, so the reports that echo them are
        # JSON; Space and substream keep their own range checks
        for name in ("curvature", "dim", "seed"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        # the floor of 100 draws binds only where volumes are sampled, n >= 3
        for name, least in (("trials", 1), ("volume_samples", 100 if self.dim >= 3 else 1)):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), least))
        _check_positive("region_density", self.region_density)
        object.__setattr__(self, "complexity", _check_count("complexity", self.complexity, 1))
        sigma = self.sigma_threshold
        if not (_real(sigma) and math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(f"sigma_threshold must be finite and non-negative, got {sigma!r}")
        if not isinstance(self.include_exact_ball, bool):
            raise ValueError(f"include_exact_ball must be a bool, got {self.include_exact_ball!r}")

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
        write_json(path, self.summary_dict())


def _run_trial(config: CampaignConfig, trial: int):
    """(region, volume, sampled diameter) of one trial, from its own
    substreams alone.

    The volume is ``exact_area`` at n = 2 and ``volume_estimate`` for
    n >= 3, from stream (trial, 2) unless the region is a lone ball, whose
    volume is exact and draws nothing."""
    space = config.space
    if trial == 0 and config.include_exact_ball:
        region = Ball(space.base_point, config.D / 2.0)
    else:
        region = random_admissible_region(space, config.D, config.complexity,
                                          substream(config.seed, trial, 0),
                                          density=config.region_density)
    cloud = sample(space, region, config.region_density,
                   substream(config.seed, trial, 1)).points
    diam = _farthest_pair(space, cloud)[0] if len(cloud) else 0.0
    if space.dim == 2:
        return region, exact_area(space, region), diam
    rng = None if isinstance(region, Ball) else substream(config.seed, trial, 2)
    return region, volume_estimate(space, region, config.volume_samples, rng), diam


def verify_isodiametric(config: CampaignConfig, out_csv=None, out_json=None) -> CampaignReport:
    """Run the volume-vs-ball comparison over random admissible regions.

    Trial 0 is the exact ball of radius D/2 when configured, reproducing the
    equality case; a violation is a trial whose volume exceeds the ball volume
    by more than sigma_threshold standard errors.  Violations are findings
    recorded in the report, not errors.

    At n = 2 each volume is exact (``regions.exact_area``): a plain ball's is
    ``ball_volume`` with a std_error of 0, and any other region's std_error
    is a bound on the rounding of its arc integrals, so ``volume_samples`` is
    unused.  For n >= 3 the volume is a Monte Carlo estimate of
    ``volume_samples`` draws from stream (k, 2), with its binomial standard
    error, except a lone ball's: that is ``ball_volume`` with a std_error
    of 0, as at n = 2, and (k, 2) is not opened.

    The trials run one after another, each from its own substreams only;
    the first trial that raises stops the campaign with its error.
    """
    v_ball = ball_volume(config.space, config.D / 2.0)
    records = []
    for trial in range(config.trials):
        region, est, diam = _run_trial(config, trial)
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
    first ``_HEAD_BLOCK`` live candidates are decided among themselves from
    their own key matrix, in order: a head is accepted exactly when no head
    accepted before it has a key to it above g*.  The keys from the accepted
    heads to the rest of the live set, ``_FILTER_COLUMNS`` columns at a time,
    then drop every candidate with a key above g* to any of them.  Those keys
    are screened by one matrix product, ``screen_keys``, each within its
    bound delta of the ``pair_key``: a column whose largest screened key is
    at most g* - delta is kept and one whose largest is above g* + delta is
    dropped, and ``pair_key`` decides the columns in between (and any NaN).
    Heads precede every other live candidate, a pair's key has the same bits
    in any batch shape and either argument order, and ``decode_key`` is
    non-decreasing, so this accepts exactly the candidates whose every
    ``distance`` to an earlier accepted one is at most D.  The cost is
    O(accepted x live) screened keys, in one Python pass per block.

    sigma is the binomial error of independent draws.  Acceptance depends on
    the path taken, so sigma is only a lower bound on the seed-to-seed spread
    (the z-scores of 60 seeds spread 1.47, not 1).
    """
    _check_diameter_bound(space, D)
    candidate_count = _check_count("candidate_count", candidate_count, 1)
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
        block = live[:, :_HEAD_BLOCK].T
        # a NaN key conflicts, as a NaN distance is not at most D
        conflict = ~(pair_key(space, block[:, None, :], block) <= g_max)
        kept, blocked = [], np.zeros(len(block), dtype=bool)
        for i in range(len(block)):
            if not blocked[i]:
                kept.append(i)
                blocked |= conflict[i]
        # a copy, so that no accepted point holds a dropped live block in memory
        heads = block[kept]
        accepted.append(heads)
        rest = live[:, len(block):]
        keep = np.empty(rest.shape[1], dtype=bool)
        for start in range(0, rest.shape[1], _FILTER_COLUMNS):
            cols = rest[:, start:start + _FILTER_COLUMNS].T
            screened, delta = screen_keys(space, heads, cols)
            top = screened.max(axis=0)
            near = top <= g_max - delta
            # pair_key decides the columns the screen cannot, a NaN among
            # them; the maximum of keys holding a NaN is NaN, which is dropped
            unsure = np.flatnonzero(~(near | (top > g_max + delta)))
            if unsure.size:
                near[unsure] = (
                    pair_key(space, heads[:, None, :], cols[unsure]).max(axis=0) <= g_max)
            keep[start:start + len(cols)] = near
        live = rest.take(np.flatnonzero(keep), axis=1)
    points = np.concatenate(accepted)
    frac = len(points) / candidate_count
    vol = v_env * frac
    sigma = v_env * math.sqrt(frac * (1.0 - frac) / candidate_count)
    deficit = ball_volume(space, D / 2.0) - vol
    cloud = PointCloud(points=points, weight=v_env / candidate_count)
    return cloud, deficit, sigma

"""Two-point symmetrization as a region transformer, and the iterated flow.

A flow repeatedly symmetrizes a region across strategy-chosen hyperplanes and
tracks Monte Carlo metrics per step: volume (preserved), sampled diameter
(non-increasing), and Hausdorff distance to the reference ball, the
equal-volume ball at the base point.  Convergence is an experimental
observation, never asserted as a guarantee.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import (
    SPHERICAL,
    Ball,
    Hyperplane,
    Space,
    ball_volume,
    bisector,
    decode_key,
    distance,
    equal_volume_radius,
    plane_eval,
    random_unit_tangent,
    reflect,
    side,
    validate_hyperplane,
)
from .regionio import write_json
from .regions import (
    DEFAULT_DEPTH_CAP,
    Difference,
    NeighborIndex,
    PointCloud,
    Symmetrized,
    Union,
    VolumeEstimate,
    _check_count,
    _check_positive,
    _pairwise_extremes,
    bounding_ball,
    contains,
    hausdorff,
    sample,
    symmetrized_depth,
    uniform_in_ball,
    volume_estimate,
)
from .rng import substream


class SphericalDiameterWarning(UserWarning):
    """Sampled diameter is not below pi, outside the symmetrization hypothesis."""


class FlowInvariantError(RuntimeError):
    """A per-step exact invariant (the counting identity) failed."""


class FarthestPairBisector:
    """Bisector of the diameter-attaining sample pair, base point kept in H^+."""


class RandomThroughPole:
    """Uniform random hyperplane through the base point, random orientation."""


Strategy = FarthestPairBisector | RandomThroughPole


def choose_hyperplane(space: Space, strategy: Strategy, pair,
                      rng: np.random.Generator) -> Hyperplane:
    """Next symmetrization hyperplane under the strategy.

    ``pair`` is the diameter-attaining sample pair (x, y) of the current
    region's cloud, or None when that cloud has fewer than two points; only
    the farthest-pair strategy reads it.
    """
    pole = space.base_point
    if isinstance(strategy, FarthestPairBisector):
        if pair is None:
            raise ValueError("farthest-pair strategy needs at least two sample points")
        h = bisector(space, *pair)
        if side(space, h, pole) < 0:
            h = h.flipped()
        return h
    if isinstance(strategy, RandomThroughPole):
        u = random_unit_tangent(space, pole, rng)
        orientation = 1 if rng.random() < 0.5 else -1
        return Hyperplane(u, orientation)
    raise TypeError(f"unknown strategy {type(strategy).__name__}")


def two_point_symmetrize(space: Space, h: Hyperplane, region):
    """Two-point symmetrization of the region with respect to the hyperplane.

    Returns the Symmetrized node; membership follows the union rule on H^+
    and the intersection rule on H^-.  A ball whose center lies on the plane
    is its own symmetrization and is returned unchanged.  The spherical
    diameter hypothesis is checked by the flow, from the metrics it already
    records for the region's sample cloud.
    """
    validate_hyperplane(space, h)
    if isinstance(region, Ball) and side(space, h, region.center) == 0:
        return region
    return Symmetrized(h, region)


#: uniform points per step at which the counting identity is checked
IDENTITY_CHECK_POINTS = 1000
#: ball centres of a rebased region's union
REBASE_CENTERS = 192
#: core balls certified inside a rebased region, at most
REBASE_CORES = 32
#: each core radius undercuts its certified slack by this, and a core centre
#: nearer a symmetrization plane than this (in form value) is dropped.  The
#: slack is decoded from pair_key distances, which arccos and arccosh leave
#: off by up to sqrt(2 eps) ~ 1.5e-8 near 0; a core test of radius near 0
#: passes rows up to sqrt(2 delta) ~ 8e-8 beyond it, for delta ~ 3e-15, the
#: ball test's rounding on rows that drifted ~1e-16 per mirror over
#: DEFAULT_DEPTH_CAP levels.  Those sum to under 1e-7; this leaves a factor
#: of ten over them.
CORE_MARGIN = 1e-6


@dataclass(frozen=True)
class MetricsConfig:
    """Per-step metric settings and the symmetrized-chain depth budget."""

    cloud_density: float = 1000.0
    volume_samples: int = 20000
    #: each level of a symmetrized chain doubles the cost of a membership query
    rebase_depth: int = 9

    def __post_init__(self):
        _check_positive("cloud_density", self.cloud_density)
        # stored as ints, numpy's included, so the flow report that echoes them is JSON
        for name, least in (("volume_samples", 100), ("rebase_depth", 1)):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), least))
        if self.rebase_depth > DEFAULT_DEPTH_CAP:
            raise ValueError(f"rebase_depth must be at most the symmetrized depth cap "
                             f"{DEFAULT_DEPTH_CAP}, got {self.rebase_depth}")


@dataclass(frozen=True)
class FlowStep:
    """Metrics of one step's sample cloud.

    ``pair`` is the cloud's diameter-attaining sample pair (None under two
    points).  It feeds the next farthest-pair hyperplane.  ``cores`` are the
    core balls certified inside the step's region, which the next step maps
    through its plane (see ``flow_step``).  Both stay out of equality and of
    both report formats.
    """

    step: int
    volume: VolumeEstimate
    diameter: float
    hausdorff_to_reference: float
    spacing: float
    plane: Hyperplane | None
    rebased: bool
    pair: tuple | None = field(default=None, compare=False, repr=False)
    cores: tuple = field(default=(), compare=False, repr=False)


@dataclass
class FlowReport:
    space: Space
    steps: list
    reference_ball: Ball
    seed: int
    config: dict
    stop_epsilon: float
    converged: bool

    def write_csv(self, path) -> None:
        ad = self.space.ambient_dim
        header = ["step", "volume", "volume_stderr", "diameter", "hausdorff",
                  "spacing", "rebased", "orientation", "offset"]
        header += [f"normal_{i}" for i in range(ad)]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for rec in self.steps:
                row = [rec.step, repr(rec.volume.value), repr(rec.volume.std_error),
                       repr(rec.diameter), repr(rec.hausdorff_to_reference),
                       repr(rec.spacing), int(rec.rebased)]
                if rec.plane is None:
                    row += ["", ""] + [""] * ad
                else:
                    row += [rec.plane.orientation, repr(rec.plane.offset)]
                    row += [repr(float(v)) for v in rec.plane.normal]
                w.writerow(row)

    def to_dict(self) -> dict:
        return {
            "space": {"curvature": self.space.curvature, "dim": self.space.dim},
            "seed": self.seed,
            "config": self.config,
            "stop_epsilon": self.stop_epsilon,
            "converged": self.converged,
            "reference_ball": {"center": [float(v) for v in self.reference_ball.center],
                               "radius": float(self.reference_ball.radius)},
            "steps": [
                {
                    "step": rec.step,
                    "volume": rec.volume.value,
                    "volume_stderr": rec.volume.std_error,
                    "samples": rec.volume.samples_used,
                    "diameter": rec.diameter,
                    "hausdorff": rec.hausdorff_to_reference,
                    "spacing": rec.spacing,
                    "rebased": rec.rebased,
                    "plane": None if rec.plane is None else {
                        "normal": [float(v) for v in rec.plane.normal],
                        "orientation": rec.plane.orientation,
                        "offset": rec.plane.offset,
                    },
                }
                for rec in self.steps
            ],
        }

    def write_json(self, path) -> None:
        write_json(path, self.to_dict())


def _check_counting_identity(space: Space, plane: Hyperplane, inner, wrapped,
                             rng: np.random.Generator) -> None:
    """Exact pointwise identity behind volume preservation; raises on failure."""
    env = bounding_ball(space, wrapped)
    pts = uniform_in_ball(space, env, rng, size=IDENTITY_CHECK_POINTS)
    mirrored = reflect(space, plane, pts)
    lhs = contains(space, wrapped, pts).astype(int) + contains(space, wrapped, mirrored).astype(int)
    rhs = contains(space, inner, pts).astype(int) + contains(space, inner, mirrored).astype(int)
    bad = int(np.count_nonzero(lhs != rhs))
    if bad:
        raise FlowInvariantError(
            f"counting identity failed at {bad}/{IDENTITY_CHECK_POINTS} points")


def _rebase_approximation(space: Space, region, target_volume: float,
                          metrics: MetricsConfig, rng: np.random.Generator):
    """Fresh shallow ball-based approximation of the region, volume-calibrated.

    Regions filling most of their envelope become the envelope minus a union
    of hole balls around complement samples (the envelope boundary stays exact
    across re-bases); sparse regions become a union of balls around member
    samples (no envelope-scale inflation).  Either way the common radius is
    the empirical quantile over the calibration proposals that reproduces the
    target volume.

    Returns (region, cores), with up to REBASE_CORES core balls certified
    inside the region, built from the calibration proposals and their
    distances, with no further draw.  A proposal p at distance dmin from the
    nearest centre, and d_env from the envelope's, has certified radius
    rho = min(dmin - r, env.r - d_env) in the dense case (clear of every
    hole, inside the envelope) and rho = r - dmin in the sparse one (inside
    the nearest ball), less CORE_MARGIN.  ``_core_cover`` picks the cores.

    A rebase, dense or sparse, whose quantile index is at most its centre
    count would calibrate to the centres' own zero distances, so it raises
    ValueError.  Each proposal's distance to the nearest centre comes from
    a ``NeighborIndex`` over the centres.
    """
    env = bounding_ball(space, region)
    v_env = ball_volume(space, env.radius)
    n_cal = max(metrics.volume_samples, 1000)
    props = uniform_in_ball(space, env, rng, size=n_cal)
    member = contains(space, region, props)
    outside_idx = np.flatnonzero(~member)
    if outside_idx.size < 8:
        return env, ()
    member_idx = np.flatnonzero(member)
    if member_idx.size < 8:
        raise ValueError("cannot rebase a region with no sampled volume")
    dense = target_volume / v_env >= 0.55
    pool = outside_idx if dense else member_idx
    m = min(REBASE_CENTERS, pool.size)
    centers = props[rng.choice(pool, size=m, replace=False)]
    dmin = decode_key(space, NeighborIndex(space, centers).nearest(props)[0])
    if dense:
        k = int(round((1.0 - target_volume / v_env) * n_cal))
    else:
        k = int(round(target_volume / v_env * n_cal))
    k = min(max(k, 1), n_cal - 1)
    if k <= m:
        # each centre is a proposal at distance 0 from itself
        kind, drawn = ("dense", "outside") if dense else ("sparse", "member")
        raise ValueError(f"cannot calibrate a {kind} rebase: its quantile index k = {k} "
                         f"falls on the zero distances of its {m} centres, drawn from "
                         f"{pool.size} {drawn} proposals of {n_cal} "
                         f"(raise --volume-samples)")
    r = float(np.partition(dmin, k - 1)[k - 1]) + 1e-12
    balls = Union(tuple(Ball(c, r) for c in centers))
    if dense:
        d_env = distance(space, props, env.center)
        slack = np.minimum(dmin - r, env.radius - d_env)
        return Difference(env, balls), _core_cover(space, props, slack - CORE_MARGIN)
    return balls, _core_cover(space, props, r - dmin - CORE_MARGIN)


def _core_cover(space: Space, props: np.ndarray, rho: np.ndarray) -> tuple:
    """Up to REBASE_CORES balls B(p, rho_p) about the proposals, greedily.

    Each round takes the live proposal with the largest rho, then drops
    every proposal within rho of it, by one vector distance; a proposal is
    live while it is undropped and its rho is positive.
    """
    cores = []
    live = np.flatnonzero(rho > 0.0)
    while live.size and len(cores) < REBASE_CORES:
        i = live[np.argmax(rho[live])]
        cores.append(Ball(props[i], rho[i]))
        live = live[distance(space, props[live], props[i]) > rho[i]]
    return tuple(cores)


def _map_cores(space: Space, plane: Hyperplane, cores: tuple) -> tuple:
    """The images of core balls under the symmetrization across the plane.

    A core whose centre has signed plane value above CORE_MARGIN is kept, one
    below -CORE_MARGIN moves to its mirror image, and one nearer the plane
    than that is dropped, as its side is not decided exactly there.

    Why an image lies inside the symmetrized region.  Let A hold B(c, rho),
    and S be the rule: x on the closed H^+ (the SIDE_TOL tie band included)
    is in S(A) if x or its mirror is in A, x on H^- if both are.  S is
    monotone, so S(A) contains S(B(c, rho)).  With c strictly in H^+, that
    is B(c, rho) again: a row of B on H^+ is in by itself, and the mirror of
    a row of B on H^- is nearer c than the row.  With c strictly in H^-, it
    is the mirror ball B(sigma c, rho): a row on H^+ has its mirror in
    B(c, rho), and a row on H^- has both itself and its mirror there, as c
    and the row share a side.  The evaluator tests a rounded ball on rounded
    mirrors, so each core radius undercuts its certified slack by
    CORE_MARGIN, which covers those errors (see there).
    """
    if not cores:
        return ()
    centers = np.stack([b.center for b in cores])
    v = plane.orientation * plane_eval(space, plane, centers)
    keep = np.flatnonzero(np.abs(v) > CORE_MARGIN)
    below = keep[v[keep] < 0.0]
    if below.size:
        centers[below] = reflect(space, plane, centers[below])
    return tuple(Ball(centers[i], cores[i].radius) for i in keep)


def _volume(space: Space, region, metrics: MetricsConfig, seed: int,
            step: int) -> VolumeEstimate:
    """The step's volume estimate from stream (step, 1), which a lone ball,
    whose volume is exact, does not open."""
    rng = None if isinstance(region, Ball) else substream(seed, step, 1)
    return volume_estimate(space, region, metrics.volume_samples, rng)


def _measure(space: Space, region, metrics: MetricsConfig, step: int, rng: np.random.Generator,
             reference_cloud: PointCloud, volume: VolumeEstimate, plane: Hyperplane | None,
             rebased: bool, cores: tuple = ()):
    """Sample the step's cloud, run each metric on it once, and build its record.

    The spacing and the Hausdorff distance share the cloud's kd-tree.  A
    cloud of fewer than two samples has neither a diameter nor a spacing, so
    it raises ValueError naming the step and the density.
    """
    cloud = sample(space, region, metrics.cloud_density, rng)
    if len(cloud) < 2:
        raise ValueError(f"flow step {step}: the metric cloud has {len(cloud)} sample(s) at "
                         f"density {metrics.cloud_density!r}; its diameter and spacing need "
                         f"at least two (raise --density)")
    diam, bi, bj, spacing = _pairwise_extremes(space, cloud)
    h = hausdorff(space, cloud, reference_cloud)
    # copies, so that the report's records do not keep every cloud alive
    pair = (cloud.points[bi].copy(), cloud.points[bj].copy())
    return FlowStep(step=step, volume=volume, diameter=diam, hausdorff_to_reference=h,
                    spacing=spacing, plane=plane, rebased=rebased, pair=pair, cores=cores)


def flow_step(space: Space, region, strategy: Strategy, metrics: MetricsConfig, seed: int,
              step: int, reference_cloud: PointCloud, prev: FlowStep):
    """One symmetrization step; returns (new region, its FlowStep record).

    ``prev`` is the record of the previous step's cloud; the farthest-pair
    strategy bisects its ``pair``.  On the sphere, a sampled diameter plus
    twice the spacing of at least pi warns with SphericalDiameterWarning.
    Re-bases the region to a calibrated ball union when the symmetrized chain
    would exceed the configured depth.

    The core balls certified inside the region, ``prev.cores`` or a rebase's
    own, are mapped through the plane (``_map_cores``), and the new region is
    the union of the symmetrized candidate and their images, candidate
    first, so that its envelope is the candidate's.  The union tests the
    cores as one packed ball group, and queries the chain only on the rows
    outside them; the set, and every mask, is the candidate's.

    A ball whose centre lies on the plane is returned unchanged, so the
    counting identity would compare it with itself: that step opens neither
    its check stream (k, 4) nor, as a lone ball's volume is exact, its
    volume stream (k, 1).
    """
    if space.curvature == SPHERICAL and prev.diameter + 2.0 * prev.spacing >= math.pi:
        warnings.warn("sampled diameter is not below pi; symmetrization properties "
                      "are not guaranteed", SphericalDiameterWarning, stacklevel=2)
    plane = choose_hyperplane(space, strategy, prev.pair, substream(seed, step, 3))
    # the candidate is one level deeper, or is the unchanged ball, which a
    # rebase_depth of at least 1 never rebases
    rebased = symmetrized_depth(region) + 1 > metrics.rebase_depth
    base, cores = region, prev.cores
    if rebased:
        base, cores = _rebase_approximation(space, region, prev.volume.value, metrics,
                                            substream(seed, step, 7))
    candidate = two_point_symmetrize(space, plane, base)
    cores = _map_cores(space, plane, cores)
    if cores:
        candidate = Union((candidate,) + cores)
    if candidate is not base:
        _check_counting_identity(space, plane, base, candidate, substream(seed, step, 4))
    vol = _volume(space, candidate, metrics, seed, step)
    return candidate, _measure(space, candidate, metrics, step, substream(seed, step, 0),
                               reference_cloud, vol, plane, rebased, cores)


def run_flow(space: Space, initial, strategy: Strategy, max_steps: int, stop_epsilon: float,
             seed: int, metrics: MetricsConfig | None = None) -> FlowReport:
    """Iterate symmetrization steps until the sampled Hausdorff distance to the
    reference ball drops below stop_epsilon, or max_steps is reached.

    The reference ball sits at the base point with the radius whose ball
    volume matches the initial volume estimate.  Non-convergence is reported,
    not raised.  The stop criterion compares sample clouds, so it carries the
    sampling slack recorded per step in the ``spacing`` column.
    """
    max_steps = _check_count("max_steps", max_steps, 1)
    if not math.isfinite(stop_epsilon):
        raise ValueError(f"stop_epsilon must be finite, got {stop_epsilon}")
    metrics = metrics or MetricsConfig()
    vol0 = _volume(space, initial, metrics, seed, 0)
    if vol0.value <= 0.0:
        raise ValueError("initial region has zero estimated volume")
    ref_ball = Ball(space.base_point, equal_volume_radius(space, vol0.value))
    ref_cloud = sample(space, ref_ball, metrics.cloud_density, substream(seed, 0, 2))
    rec = _measure(space, initial, metrics, 0, substream(seed, 0, 0), ref_cloud, vol0, None,
                   False)
    steps = [rec]
    config = {
        "strategy": {"kind": type(strategy).__name__},
        "metrics": asdict(metrics),
        "max_steps": max_steps,
    }
    region = initial
    converged = rec.hausdorff_to_reference < stop_epsilon
    step = 1
    while not converged and step <= max_steps:
        region, rec = flow_step(space, region, strategy, metrics, seed, step, ref_cloud, rec)
        steps.append(rec)
        converged = rec.hausdorff_to_reference < stop_epsilon
        step += 1
    return FlowReport(space=space, steps=steps, reference_ball=ref_ball, seed=int(seed),
                      config=config, stop_epsilon=float(stop_epsilon), converged=converged)

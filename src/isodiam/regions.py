"""Exact membership oracles for compact sets, with sampling and Monte Carlo metrics.

A region is an immutable CSG tree over geodesic balls and half spaces, plus
symmetrization nodes realizing the two-point rearrangement.  Membership is
evaluated exactly (no discretization) by an evaluator compiled once per query
from the tree; each Symmetrized level at most doubles the inner queries.  All
randomness is confined to the sampled metrics, which quote their own standard
errors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    SIDE_TOL,
    SPHERICAL,
    Ball,
    Hyperplane,
    Space,
    ball_volume,
    distance,
    geodesic_point,
    normalize_to_space,
    random_unit_tangent,
    reflect,
    tangent_toward,
)
from .rng import substream

#: each chained Symmetrized node at most doubles the membership queries; cap the chain
DEFAULT_DEPTH_CAP = 24
#: rows of the distance matrix the pairwise metrics hold at once
_CHUNK = 512


class UnboundedRegionError(ValueError):
    """The region admits no bounding ball (e.g. a bare half space off the sphere)."""


class RegionDepthError(RuntimeError):
    """Symmetrized nesting exceeds the evaluation depth cap."""


class EmptyRegionWarning(UserWarning):
    """Rejection sampling produced no points; the region may be empty."""


@dataclass(frozen=True, eq=False)
class HalfSpace:
    plane: Hyperplane


@dataclass(frozen=True, eq=False)
class Union:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("union needs at least one child")


@dataclass(frozen=True, eq=False)
class Intersection:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("intersection needs at least one child")


@dataclass(frozen=True, eq=False)
class Difference:
    a: object
    b: object


@dataclass(frozen=True, eq=False)
class Symmetrized:
    """Two-point symmetrization of ``inner`` with respect to the plane's H^+."""

    plane: Hyperplane
    inner: object


#: any node of the region tree (geometry.Ball doubles as the leaf node)
Region = Ball | HalfSpace | Union | Intersection | Difference | Symmetrized


def symmetrized_depth(region) -> int:
    """Maximum nesting depth of Symmetrized nodes in the tree."""
    if isinstance(region, Symmetrized):
        return 1 + symmetrized_depth(region.inner)
    if isinstance(region, (Union, Intersection)):
        return max(symmetrized_depth(c) for c in region.children)
    if isinstance(region, Difference):
        return max(symmetrized_depth(region.a), symmetrized_depth(region.b))
    return 0


def _ball_group(space: Space, balls):
    """Membership of pts in each of several balls at once, as pts -> (N, M) mask.

    Centers and thresholds are packed once, at compile time.  Comparisons are
    in form space (cos r on S, cosh r on H, r^2 on R), so every ball leaf in a
    tree goes through the identical arithmetic.
    """
    centers = np.stack([b.center for b in balls])
    radii = np.array([b.radius for b in balls])
    if space.curvature == SPHERICAL:
        centers_t = np.ascontiguousarray(centers.T)
        cos_r = np.cos(radii)[None, :]
        return lambda pts: pts @ centers_t >= cos_r
    if space.curvature == EUCLIDEAN:
        leaves = [(b.center, b.radius * b.radius) for b in balls]

        def euclidean(pts):
            out = np.empty((pts.shape[0], len(leaves)), dtype=bool)
            for j, (c, r2) in enumerate(leaves):
                d = pts - c
                out[:, j] = np.einsum("nd,nd->n", d, d) <= r2
            return out

        return euclidean
    axis = centers[:, -1]
    rest = centers[:, :-1]
    cosh_r = np.cosh(radii)[None, :]

    def hyperbolic(pts):
        g = np.einsum("n,m->nm", pts[:, -1], axis) - np.einsum("nd,md->nm", pts[:, :-1], rest)
        return g <= cosh_r

    return hyperbolic


def _plane_form(space: Space, plane: Hyperplane):
    """pts -> form values against the plane as one matvec (sign-adjusted for B)."""
    p = plane.normal
    if space.curvature == HYPERBOLIC:
        q = np.empty_like(p)
        q[:-1] = -p[:-1]
        q[-1] = p[-1]
    else:
        q = p
    if space.curvature == EUCLIDEAN:
        offset = plane.offset
        return lambda pts: pts @ q - offset
    return lambda pts: pts @ q


def compile_region(space: Space, region):
    """Walk the tree once and return its exact membership evaluator.

    The evaluator maps an (N, d) batch to a fresh boolean mask of length N.
    Union and Intersection nodes test their ball children as one packed
    group, then visit the other children only on the rows still undecided.
    A Symmetrized node calls its inner evaluator at most twice per batch, so
    a chain of depth d costs at most 2^d inner calls.
    """
    if isinstance(region, Ball):
        group = _ball_group(space, [region])
        return lambda pts: group(pts)[:, 0]
    if isinstance(region, HalfSpace):
        values = _plane_form(space, region.plane)
        orientation = region.plane.orientation
        return lambda pts: orientation * values(pts) >= -SIDE_TOL
    if isinstance(region, (Union, Intersection)):
        balls = [c for c in region.children if isinstance(c, Ball)]
        group = _ball_group(space, balls) if balls else None
        rest = [compile_region(space, c) for c in region.children if not isinstance(c, Ball)]
        is_union = isinstance(region, Union)

        def boolean(pts):
            if group is not None:
                res = group(pts).any(axis=1) if is_union else group(pts).all(axis=1)
            else:
                res = np.full(pts.shape[0], not is_union)
            for child in rest:
                # a union settles rows already inside, an intersection rows outside
                idx = np.flatnonzero(res != is_union)
                if idx.size == 0:
                    break
                res[idx] = child(pts[idx])
            return res

        return boolean
    if isinstance(region, Difference):
        a = compile_region(space, region.a)
        b = compile_region(space, region.b)

        def difference(pts):
            res = a(pts)
            idx = np.flatnonzero(res)
            if idx.size:
                res[idx] = ~b(pts[idx])
            return res

        return difference
    if isinstance(region, Symmetrized):
        inner = compile_region(space, region.inner)
        plane = region.plane
        values = _plane_form(space, plane)
        p = plane.normal
        if space.curvature == HYPERBOLIC:
            qq = p[-1] * p[-1] - p[:-1] @ p[:-1]
        else:
            qq = p @ p
        scale = 2.0 / qq
        orientation = plane.orientation

        def symmetrized(pts):
            # x is in the symmetrization iff (x in A or sigma x in A) on H^+ and
            # (x in A and sigma x in A) on H^-; the first query settles every
            # row whose answer agrees with its side, and only the others get
            # mirrored.  Mirrors skip renormalization; the drift per
            # reflection is ~1e-16 against membership tolerances of 1e-10.
            v = values(pts)
            on_plus = orientation * v >= -SIDE_TOL
            res = inner(pts)
            need = np.flatnonzero(res != on_plus)
            if need.size:
                mirrors = pts[need] - (scale * v[need])[:, None] * p
                res[need] = inner(mirrors)
            return res

        return symmetrized
    raise ValueError(f"unknown region node {type(region).__name__}")


def contains(space: Space, region, x):
    """Exact membership of x in the region.

    Points exactly on a symmetrization plane use the H^+ rule (closed half
    space).  Accepts a single point (returns bool) or an (N, d) batch.
    """
    depth = symmetrized_depth(region)
    if depth > DEFAULT_DEPTH_CAP:
        raise RegionDepthError(f"symmetrized nesting {depth} exceeds cap {DEFAULT_DEPTH_CAP}")
    evaluate = compile_region(space, region)
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        return bool(evaluate(pts[None, :])[0])
    return evaluate(pts)


def _merge_two_balls(space: Space, a: Ball, b: Ball) -> Ball:
    d = float(distance(space, a.center, b.center))
    if space.curvature == SPHERICAL and d > math.pi - 1e-9:
        return Ball(a.center, math.pi)
    if d <= 1e-12:
        return Ball(a.center, max(a.radius, b.radius))
    if d + b.radius <= a.radius:
        return a
    if d + a.radius <= b.radius:
        return b
    r = (d + a.radius + b.radius) / 2.0
    if space.curvature == SPHERICAL and r >= math.pi:
        return Ball(a.center, math.pi)
    u, _ = tangent_toward(space, a.center, b.center)
    c = geodesic_point(space, a.center, u, r - a.radius)
    c = normalize_to_space(space, c) if space.curvature != EUCLIDEAN else c
    return Ball(c, r)


def _enclose_balls(space: Space, balls) -> Ball:
    out = balls[0]
    for b in balls[1:]:
        out = _merge_two_balls(space, out, b)
    return out


def bounding_ball(space: Space, region) -> Ball:
    """A ball guaranteed to contain the region; not necessarily minimal.

    Raises UnboundedRegionError where no finite envelope exists (bare half
    spaces off the sphere).  On the sphere the whole space is the radius-pi
    ball, so everything is boundable there.
    """
    if isinstance(region, Ball):
        return region
    if isinstance(region, HalfSpace):
        if space.curvature != SPHERICAL:
            raise UnboundedRegionError("half space has no bounding ball in this space")
        p = region.plane.normal * float(region.plane.orientation)
        return Ball(normalize_to_space(space, p), math.pi / 2.0)
    if isinstance(region, Union):
        return _enclose_balls(space, [bounding_ball(space, c) for c in region.children])
    if isinstance(region, Intersection):
        best = None
        for c in region.children:
            try:
                b = bounding_ball(space, c)
            except UnboundedRegionError:
                continue
            if best is None or b.radius < best.radius:
                best = b
        if best is None:
            raise UnboundedRegionError("intersection has no boundable child")
        return best
    if isinstance(region, Difference):
        return bounding_ball(space, region.a)
    if isinstance(region, Symmetrized):
        inner = bounding_ball(space, region.inner)
        mirrored = Ball(reflect(space, region.plane, inner.center), inner.radius)
        return _merge_two_balls(space, inner, mirrored)
    raise ValueError(f"unknown region node {type(region).__name__}")


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Weighted sample set drawn from a region; volume per sample is the weight."""

    points: np.ndarray
    weight: float

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def volume_estimate(self) -> float:
        return len(self) * self.weight


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    samples_used: int


def _radius_quantile(space: Space, n: int, r: float, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the radial density proportional to sin/sinh/t ** (n-1)."""
    if space.curvature == EUCLIDEAN:
        return r * u ** (1.0 / n)
    grid = np.linspace(0.0, r, 4097)
    f = np.sin(grid) ** (n - 1) if space.curvature == SPHERICAL else np.sinh(grid) ** (n - 1)
    steps = np.diff(grid) * (f[1:] + f[:-1]) / 2.0
    cdf = np.concatenate([[0.0], np.cumsum(steps)])
    return np.interp(u * cdf[-1], cdf, grid)


def uniform_in_ball(space: Space, ball: Ball, rng: np.random.Generator, size: int | None = None):
    """Point(s) uniform w.r.t. the volume measure inside a geodesic ball.

    Direction is uniform on the unit tangent sphere at the center; the radius
    is drawn by inverse CDF of the ball-volume integrand.
    """
    m = 1 if size is None else int(size)
    dirs = random_unit_tangent(space, ball.center, rng, m)
    u = rng.random(m)
    t = _radius_quantile(space, space.dim, ball.radius, u)
    pts = geodesic_point(space, np.asarray(ball.center, dtype=float), dirs, t)
    return pts[0] if size is None else pts


def sample(space: Space, region, density: float, seed: int) -> PointCloud:
    """Rejection-sample the region at the given density, deterministically.

    Draws ``ceil(density * volume(envelope))`` uniform proposals in the
    bounding ball and keeps the members, so the expected count is density
    times the region volume.
    """
    if not (math.isfinite(density) and density > 0.0):
        raise ValueError(f"density must be finite and positive, got {density}")
    env = bounding_ball(space, region)
    n_env = int(np.ceil(density * ball_volume(space, env.radius)))
    rng = substream(seed)
    props = uniform_in_ball(space, env, rng, size=n_env)
    keep = contains(space, region, props)
    pts = props[keep]
    if pts.shape[0] == 0:
        warnings.warn("rejection sampling accepted no points; region may be empty",
                      EmptyRegionWarning, stacklevel=2)
    return PointCloud(points=pts, weight=1.0 / density)


def _as_points(cloud) -> np.ndarray:
    return cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)


def _gram_distance_chunk(space: Space, block: np.ndarray, pts: np.ndarray):
    """All distances from a row block to pts, computed through one matmul.

    Returns a matrix increasing in distance, which _decode_gram turns back
    into distances: -cos d on the sphere, cosh d on the hyperboloid and
    squared distances in Euclidean space.  The sign flips are applied to the
    row block, where they are exact and cost the least.
    """
    if space.curvature == SPHERICAL:
        return (-block) @ pts.T
    if space.curvature == HYPERBOLIC:
        flip = block.copy()
        flip[:, :-1] *= -1.0
        return flip @ pts.T
    sq = (np.einsum("nd,nd->n", block, block)[:, None]
          + np.einsum("nd,nd->n", pts, pts)[None, :] - 2.0 * (block @ pts.T))
    return np.maximum(sq, 0.0)


def _decode_gram(space: Space, g):
    if space.curvature == SPHERICAL:
        return np.arccos(np.clip(-g, -1.0, 1.0))
    if space.curvature == HYPERBOLIC:
        return np.arccosh(np.clip(g, 1.0, None))
    return np.sqrt(g)


def _pairwise_extremes(space: Space, pts: np.ndarray):
    """Max pairwise distance with an attaining pair, plus mean nearest-neighbor spacing."""
    n = pts.shape[0]
    if n == 1:
        return 0.0, 0, 0, 0.0
    best = -np.inf
    bi = bj = 0
    nn = np.empty(n)
    for i0 in range(0, n, _CHUNK):
        block = pts[i0:i0 + _CHUNK]
        g = _gram_distance_chunk(space, block, pts)
        rows = np.arange(block.shape[0])
        g[rows, i0 + rows] = -np.inf
        r, c = divmod(int(np.argmax(g)), n)
        if g[r, c] > best:
            best = float(g[r, c])
            bi, bj = i0 + r, c
        g[rows, i0 + rows] = np.inf
        nn[i0:i0 + _CHUNK] = g.min(axis=1)
    diam = float(_decode_gram(space, best))
    spacing = float(np.mean(_decode_gram(space, nn)))
    return diam, bi, bj, spacing


def diameter(space: Space, cloud):
    """Exact max pairwise geodesic distance over the samples, with an attaining pair.

    A lower bound on the true diameter of the generating region.
    """
    pts = _as_points(cloud)
    if pts.shape[0] == 0:
        raise ValueError("diameter of an empty cloud")
    best, bi, bj, _ = _pairwise_extremes(space, pts)
    return best, pts[bi].copy(), pts[bj].copy()


def hausdorff(space: Space, a, b) -> float:
    """Hausdorff distance between two sample sets: the max of the directed max-mins."""
    pa = _as_points(a)
    pb = _as_points(b)
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise ValueError("hausdorff of an empty cloud")

    def directed(x, y):
        worst = -np.inf
        for i0 in range(0, x.shape[0], _CHUNK):
            g = _gram_distance_chunk(space, x[i0:i0 + _CHUNK], y)
            # nearest neighbor per row, then the worst row
            worst = max(worst, g.min(axis=1).max())
        return float(_decode_gram(space, worst))

    return max(directed(pa, pb), directed(pb, pa))


def volume_estimate(space: Space, region, samples: int, seed: int) -> VolumeEstimate:
    """Hit-or-miss Monte Carlo volume over the bounding ball.

    value = V(envelope) * hits / samples, with the exact binomial standard
    error of the estimator.
    """
    if samples < 100:
        raise ValueError(f"samples must be at least 100, got {samples}")
    env = bounding_ball(space, region)
    v_env = ball_volume(space, env.radius)
    rng = substream(seed)
    props = uniform_in_ball(space, env, rng, size=samples)
    hits = int(np.count_nonzero(contains(space, region, props)))
    p = hits / samples
    return VolumeEstimate(
        value=v_env * p,
        std_error=v_env * math.sqrt(p * (1.0 - p) / samples),
        samples_used=samples,
    )

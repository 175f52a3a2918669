"""Exact membership oracles for compact sets, with sampling and Monte Carlo metrics.

A region is an immutable CSG tree over geodesic balls and half spaces, plus
symmetrization nodes realizing the two-point rearrangement.  Membership is
evaluated exactly (no discretization) by an evaluator compiled once per node
and cached; each Symmetrized level at most doubles the inner queries.  All
randomness is confined to the sampled metrics, which quote their own standard
errors.  On S2, H2 and R2 the area of a tree of balls is also exact
(``exact_area``), integrated along its boundary arcs.

A flow's rebase certifies a few core balls inside its region, and the flow
(``symmetrize``) carries them up its chain as plain ball children of a
Union over each new level.  The Union evaluator tests its ball children as
one packed group, so the rows inside a core are decided without the chain.

The metrics of a sample cloud are exact searches over ``geometry.pair_key``
(-cos d, cosh d or d^2, increasing in d), the one kernel behind ``distance``
too.  It sums column by column, so a pair's key has the same bits in a scan
block as alone, and each reported distance, decoded from the key that won
its search, is ``distance`` of the pair to the bit.  A scan holds one
(chunk, n) block of keys at a time, screened by ``geometry.screen_keys``: one
matrix product, whose every key is within a bound delta of its pair_key
(4 (d + 2) eps times the product of the largest row norms, d = ambient_dim).
Only the entries the screen cannot rank, those within 2 delta of the block's
screened extreme, get their pair_key, and those keys pick the winner, so a
search finds the pair an all-pairs pair_key scan finds.  Nearest
neighbors, for the spacing and both Hausdorff directions, come from a
kd-tree that each PointCloud builds once and keeps: O(n log n) per cloud,
where a scan of all pairs was O(n^2).
The tree is on ambient coordinates on S^n and R^n, where the Euclidean
distance is the chord, and on the spatial part on H^n, where it overstates
the chord by at most cosh(rho) within rho of the base point, so a ball that
wide about the first neighbor holds the nearest point.  Rows whose ball
holds more points than the tree returned are ranked against the whole cloud;
far from the base point of H^n that is every row, the O(n^2) worst case.
The farthest pair prunes by the triangle inequality about a centre sample
and scans the keys of the surviving rows only; an annulus about the centre
keeps every row, its O(n^2) worst case.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    SIDE_TOL,
    SPHERICAL,
    _EPS,
    Ball,
    Hyperplane,
    Space,
    _radial_coeffs,
    ball_volume,
    decode_key,
    distance,
    form,
    form_rows,
    frame,
    geodesic_coeffs,
    geodesic_point,
    normalize_to_space,
    pair_key,
    random_unit_tangent,
    reflect,
    screen_keys,
    tangent_toward,
)

#: each chained Symmetrized node at most doubles the membership queries; cap the chain
DEFAULT_DEPTH_CAP = 24
#: (space, node) entries kept by each of the evaluator, envelope and depth
#: caches, which keep those nodes and the trees below them alive
_NODE_CACHE = 256
#: rows of the key matrix a scan holds at once
_CHUNK = 256
#: rows of ball draws solved and formed at once, and a volume estimate tests at once
_BLOCK = 2 ** 14
#: proposals ``sample`` draws at once, at most.  A proposal holds a few rows
#: of n + 1 floats (its point, direction and normal draw: 144 B on H^5) and
#: a float and a bool per ball of a packed membership group, up to 192 on a
#: flow's rebase union (1.7 KB), so 2^18 proposals take about 0.5 GB at
#: most.  No test, benchmark workload or README example asks for more than
#: 18,403.
_MAX_PROPOSALS = 2 ** 18
#: rows farthest from the centre whose own farthest points seed the diameter bound
_SEED_ROWS = 8
#: relative widening of kd-tree radii, far above the few ulps of a tree distance
_TREE_SLACK = 1e-12
#: tree neighbors fetched per row beyond the first it may take
_SPARE_NEIGHBORS = 1
#: longest arc piece one rule integrates.  On S2 discs of radius 0.1 to 1.3
#: centred up to 2.0 from the pole (and reaching at most 2.9 from it), pieces
#: of pi/4 erred at most 3.1e-15 relative; one piece per circle erred 8.6e-7
#: at radius 1.2 centred 1.0 from the pole, and 9.9e-3 at radius 0.8, 2.0
_PIECE = math.pi / 4.0
#: arc probes sit this far off their circle, times max(r, 1), or half the
#: way to the nearest other circle if that is closer
_PROBE = 1e-9
#: circles whose centre coordinates and radii all agree this closely are one
_SAME_CIRCLE = 1e-12
#: crossings of circles this close to tangency (1 - |cos| of the half angle
#: they cut) are dropped: the lens they bound has an area of about
#: (2e-10)^1.5 r^2, and its arcs are too short to probe
_TANGENT = 1e-10
#: an exact area's stated error is this many eps times the integral of the
#: size of omega's terms along the boundary arcs
_AREA_ROUNDING = 64.0


class UnboundedRegionError(ValueError):
    """The region admits no bounding ball (e.g. a bare half space off the sphere)."""


class RegionDepthError(ValueError):
    """Symmetrized nesting exceeds the evaluation depth cap."""


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


@functools.lru_cache(maxsize=_NODE_CACHE)
def symmetrized_depth(region) -> int:
    """Maximum nesting depth of Symmetrized nodes in the tree."""
    if isinstance(region, Symmetrized):
        return 1 + symmetrized_depth(region.inner)
    if isinstance(region, (Union, Intersection)):
        return max(symmetrized_depth(c) for c in region.children)
    if isinstance(region, Difference):
        return max(symmetrized_depth(region.a), symmetrized_depth(region.b))
    return 0


def _ball_group(space: Space, centers: np.ndarray, radii: np.ndarray):
    """Membership of pts in each of M balls at once, as pts -> (M, N) mask.

    The balls come packed as an (M, d) array of centers and M radii.  Row j
    holds ball j's test of the N points, so a Union or an Intersection
    reduces over axis 0, row by row.  Thresholds are packed once, at compile
    time.  Comparisons are in form space (cos r on S, cosh r on H, r^2 on R),
    so every ball leaf in a tree goes through the identical arithmetic: one
    matrix product of the centers' ``form_rows`` with pts.T on S^n and H^n,
    at least cos r on S^n and at most cosh r on H^n; on R^n, per ball, the
    key summed over contiguous coordinate rows, each differenced before it
    is squared, as in pair_key.

    BLAS products are not batch-independent: against the same rows computed
    in another batch, about 1 in 10^4 entries of a group's product differ in
    the last bit (10,677 of 1.8e8 for 224 balls on S2, S3, H2 and H3), and
    about 1 in 8e7 of a plane's matvec (``_plane_form``).  A mask can only
    move for a row within that bit of a rim.
    """
    if space.curvature != EUCLIDEAN:
        signed = form_rows(space, centers)
        threshold = geodesic_coeffs(space, radii)[0][:, None]
        inside = np.greater_equal if space.curvature == SPHERICAL else np.less_equal
        return lambda pts: inside(signed @ pts.T, threshold)
    leaves = list(zip(centers, radii * radii))

    def euclidean(pts):
        cols = np.ascontiguousarray(pts.T)
        out = np.empty((len(leaves), cols.shape[1]), dtype=bool)
        key = np.empty(cols.shape[1])
        term = np.empty_like(key)
        for j, (c, r2) in enumerate(leaves):
            np.subtract(cols[0], c[0], out=key)
            key *= key
            for i in range(1, cols.shape[0]):
                np.subtract(cols[i], c[i], out=term)
                term *= term
                key += term
            np.less_equal(key, r2, out=out[j])
        return out

    return euclidean


def _plane_form(space: Space, plane: Hyperplane):
    """pts -> form values against the plane as one matvec with its ``form_rows``."""
    q = form_rows(space, plane.normal)
    if space.curvature == EUCLIDEAN:
        offset = plane.offset
        return lambda pts: pts @ q - offset
    return lambda pts: pts @ q


def _pack(balls):
    """An (M, d) array of ball centers and an array of their M radii, made
    read-only: compiled nodes share them."""
    centers, radii = np.stack([b.center for b in balls]), np.array([b.radius for b in balls])
    centers.flags.writeable = radii.flags.writeable = False
    return centers, radii


@functools.lru_cache(maxsize=_NODE_CACHE)
def _compile(space: Space, region):
    """The tree's exact membership evaluator.

    Built once per (space, node) and cached, as are ``bounding_ball`` and
    ``symmetrized_depth``: nodes are immutable and hash by identity, so
    every later query of a region reuses its evaluator, and a flow's new
    Symmetrized level reuses the evaluator of the chain below it.
    Evaluators hold no state and packed arrays are read-only, so threads
    share them.

    The evaluator maps an (N, d) batch to a fresh boolean mask of length N.
    Union and Intersection nodes test their ball children as one packed
    group, an (M, N) mask with one ball per row reduced over axis 0, then
    visit the other children only on the rows still undecided.  A lone ball
    takes row 0 of its one-ball group.
    A Symmetrized node calls its inner evaluator at most twice per batch, so
    a chain of depth d costs at most 2^d inner calls.
    """
    if isinstance(region, Ball):
        group = _ball_group(space, *_pack([region]))
        return lambda pts: group(pts)[0]
    if isinstance(region, HalfSpace):
        values = _plane_form(space, region.plane)
        orientation = region.plane.orientation
        return lambda pts: orientation * values(pts) >= -SIDE_TOL
    if isinstance(region, (Union, Intersection)):
        balls = [c for c in region.children if isinstance(c, Ball)]
        group = _ball_group(space, *_pack(balls)) if balls else None
        rest = [_compile(space, c) for c in region.children if not isinstance(c, Ball)]
        is_union = isinstance(region, Union)

        def boolean(pts):
            if group is not None:
                res = group(pts).any(axis=0) if is_union else group(pts).all(axis=0)
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
        a = _compile(space, region.a)
        b = _compile(space, region.b)

        def difference(pts):
            res = a(pts)
            idx = np.flatnonzero(res)
            if idx.size:
                res[idx] = ~b(pts[idx])
            return res

        return difference
    if isinstance(region, Symmetrized):
        inner = _compile(space, region.inner)
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
            # row whose answer agrees with its side, and only the rest get
            # mirrored.  Mirrors skip renormalization; the drift per
            # reflection is ~1e-16 against membership tolerances of 1e-10.
            v = values(pts)
            res = inner(pts)
            need = np.flatnonzero(res != (orientation * v >= -SIDE_TOL))
            if need.size:
                mirrors = pts[need] - (scale * v[need])[:, None] * p
                res[need] = inner(mirrors)
            return res

        return symmetrized
    raise ValueError(f"unknown region node {type(region).__name__}")


def contains(space: Space, region, x):
    """Exact membership of x in the region.

    Points exactly on a symmetrization plane use the H^+ rule (closed half
    space).  Accepts a single point (returns bool) or an (N, d) batch.  The
    evaluator is ``_compile``'s, built on the first query of the region and
    cached.
    """
    depth = symmetrized_depth(region)
    if depth > DEFAULT_DEPTH_CAP:
        raise RegionDepthError(f"symmetrized nesting {depth} exceeds cap {DEFAULT_DEPTH_CAP}")
    evaluate = _compile(space, region)
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
    return Ball(normalize_to_space(space, geodesic_point(space, a.center, u, r - a.radius)), r)


def _enclose_balls(space: Space, balls) -> Ball:
    out = balls[0]
    for b in balls[1:]:
        out = _merge_two_balls(space, out, b)
    return out


@functools.lru_cache(maxsize=_NODE_CACHE)
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
    """Weighted sample set drawn from a region; volume per sample is the weight.

    The points are read-only, so the cloud keeps the kd-tree its metrics
    build on first use.
    """

    points: np.ndarray
    weight: float
    _index: "NeighborIndex | None" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return self.points.shape[0]

    def index(self, space: Space) -> "NeighborIndex":
        """The cloud's nearest-neighbor index, built on the first call."""
        if self._index is None:
            object.__setattr__(self, "_index", NeighborIndex(space, self.points))
        return self._index

    @property
    def volume_estimate(self) -> float:
        return len(self) * self.weight


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    samples_used: int


def uniform_in_ball(space: Space, ball: Ball, rng: np.random.Generator, size: int | None = None):
    """Point(s) uniform w.r.t. the volume measure inside a geodesic ball.

    The direction is uniform on the unit tangent sphere at the center.  The
    radius t is the exact inverse CDF, at u uniform on [0, 1), of the radial
    density t^(n-1), sin^(n-1) t or sinh^(n-1) t on [0, r]:

    - R^n: t = r u^(1/n);
    - S^2 and H^2: t = 2 asin(sqrt(u) sin(r/2)) and t = 2 asinh(sqrt(u) sinh(r/2)),
      evaluated without trigonometry as cos t = 1 - 2 u sin^2(r/2) and
      cosh t = 1 + 2 u sinh^2(r/2);
    - S^n and H^n, n >= 3: bracketed Newton iteration (with Halley's
      correction) on the exact CDF, the radial mass ``geometry._radial_mass``
      behind ``ball_volume``.

    Directions are drawn first, then u, one per point.  They lie on the
    closed-form tangent frame at the center (``geometry.frame``), orthonormal
    by construction even far out on H^n, so the points are formed without
    geodesic_point's per-row unit check.
    """
    blocks = list(_ball_blocks(space, ball, rng, 1 if size is None else int(size)))
    pts = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return pts[0] if size is None else pts


def _ball_blocks(space: Space, ball: Ball, rng: np.random.Generator, m: int):
    """The points of m draws in the ball, in blocks of _BLOCK rows (one empty
    block for m = 0): every direction is drawn, then every u, and each block
    solves its own radii, which are those of one whole batch, bit for bit."""
    dirs = random_unit_tangent(space, ball.center, rng, m)
    u = rng.random(m)
    center = np.asarray(ball.center, dtype=float)
    for i0 in range(0, max(m, 1), _BLOCK):
        rows = slice(i0, i0 + _BLOCK)
        a, b = _radial_coeffs(space, ball.radius, u[rows])
        pts = np.empty_like(dirs[rows])
        # column by column: a trailing axis of length n + 1 broadcasts slowly
        for j, cj in enumerate(center):
            pts[:, j] = a * cj + b * dirs[rows, j]
        yield pts


def sample(space: Space, region, density: float, rng: np.random.Generator) -> PointCloud:
    """Rejection-sample the region at the given density from the stream.

    Draws ``ceil(density * volume(envelope))`` uniform proposals in the
    bounding ball and keeps the members, so the expected count is density
    times the region volume; it may keep none.  A count above
    _MAX_PROPOSALS raises ValueError before anything is drawn.
    """
    _check_positive("density", density)
    env = bounding_ball(space, region)
    v_env = ball_volume(space, env.radius)
    wanted = density * v_env
    if not wanted <= _MAX_PROPOSALS:
        raise ValueError(f"sampling at density {density!r} over an envelope of volume "
                         f"{v_env:.6g} needs {wanted:.6g} proposals, more than "
                         f"{_MAX_PROPOSALS} at once")
    props = uniform_in_ball(space, env, rng, size=int(np.ceil(wanted)))
    return PointCloud(points=props[contains(space, region, props)], weight=1.0 / density)


def _as_points(cloud) -> np.ndarray:
    return cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)


def _key_slack(space: Space, pts: np.ndarray, from_c: np.ndarray) -> float:
    """A bound on how far a computed pair_key of two rows can sit from the key
    of the exact points of the space nearest to them.

    A key sums ambient_dim products of coordinates of norm at most sqrt(m),
    or on R^n of coordinate differences of norm at most 2 sqrt(m), so it
    rounds by less than 4 (ambient_dim + 2) eps m.  On S^n and H^n the rows
    also sit off their quadric by drift = max |Q(x) - 1|, which
    scales a key k by at most 1 + drift; |k| <= 2 k_c^2 + 1 for the largest
    key k_c from the centre (cosh 2r = 2 cosh^2 r - 1 on H^n).
    """
    sq = np.einsum("nd,nd->n", pts, pts)
    rounding = 4.0 * (space.ambient_dim + 2) * _EPS * float(sq.max())
    if space.curvature == EUCLIDEAN:
        return rounding
    quadric = sq if space.curvature == SPHERICAL else form(space, pts, pts)
    drift = float(np.abs(quadric - 1.0).max())
    return rounding + drift * (2.0 * float(np.max(from_c * from_c)) + 1.0)


def _farthest_pair(space: Space, pts: np.ndarray):
    """Max pairwise distance over the finite rows, with the first attaining pair (i, j).

    Exact against the all-pairs scan: the pair is the first maximum of the
    pair_keys in row-major order, and the distance is decoded from that key,
    like every other reported distance.
    With r_i the distance of row i from a centre c, a pair can reach the
    bound ``best`` only if both rows have r_i >= best - max r (triangle
    inequality).  ``best`` starts from the screened keys of the few rows
    farthest from c, less the screen's delta, and the keys are only scanned
    among the rows that pass, each bound widened by _key_slack.  An annulus
    around c keeps every row.  The scan screens a chunk of rows at a time:
    a chunk whose screened maximum plus delta is not above the best key so
    far is skipped, and otherwise only its entries within 2 delta of that
    maximum, which hold every entry whose pair_key may be the chunk's
    maximum, get their pair_key.
    """
    n = pts.shape[0]
    if n == 1:
        return 0.0, 0, 0
    # c is the sample nearest the ambient centroid
    off = pts - pts.mean(axis=0)
    c = int(np.argmin(np.einsum("nd,nd->n", off, off)))
    from_c = pair_key(space, pts[c], pts)
    m = min(_SEED_ROWS, n)
    seeds = np.argpartition(from_c, n - m)[n - m:]
    g, delta = screen_keys(space, pts[seeds], pts)
    g[np.arange(m), seeds] = -np.inf
    slack = _key_slack(space, pts, from_c)
    # the scan's pair has a computed key >= the scan's key of the best seed
    # pair, at least max(g) - delta, so its exact key is at least that less
    # three roundings, and no row is farther from c than max(radius)
    best = decode_key(space, g.max() - delta - 3.0 * slack)
    radius = decode_key(space, from_c + slack)
    keep = np.flatnonzero(radius >= best - radius.max())
    block = pts[keep]
    top = -np.inf
    bi = bj = 0
    for i0 in range(0, keep.size, _CHUNK):
        g, delta = screen_keys(space, block[i0:i0 + _CHUNK], block)
        rows = np.arange(g.shape[0])
        g[rows, i0 + rows] = -np.inf
        peak = g.max()
        if peak + delta <= top:
            continue
        # an entry whose pair_key may be the chunk's maximum is screened
        # within 2 delta of the screened maximum; pair_key decides among them
        r, col = divmod(np.flatnonzero(g >= peak - 2.0 * delta), keep.size)
        exact = pair_key(space, block[i0 + r], block[col])
        k = int(np.argmax(exact))
        if exact[k] > top:
            top = float(exact[k])
            bi, bj = int(keep[i0 + r[k]]), int(keep[col[k]])
    return float(decode_key(space, top)), bi, bj


def _tree_coords(space: Space, pts: np.ndarray) -> np.ndarray:
    """Coordinates whose Euclidean distance bounds the chord: ambient ones on
    S^n and R^n, the spatial part on H^n."""
    return pts[:, :-1] if space.curvature == HYPERBOLIC else pts


def _stretch(space: Space, pts: np.ndarray) -> float:
    """cosh rho for the farthest row, rho from the base point, on H^n; else 1.

    Within rho of the base point, chord <= |x - y| <= cosh(rho) chord in tree
    coordinates, where the chord is 2 sinh(d / 2) on H^n.
    """
    return float(pts[:, -1].max()) if space.curvature == HYPERBOLIC else 1.0


class NeighborIndex:
    """A kd-tree over a cloud in tree coordinates, for exact nearest neighbors."""

    def __init__(self, space: Space, pts: np.ndarray):
        # imported on first use, so that processes without a kd-tree load no scipy
        from scipy.spatial import cKDTree

        self.space = space
        self.points = pts
        self.tree = cKDTree(_tree_coords(space, pts))
        self.stretch = _stretch(space, pts)

    def nearest(self, q: np.ndarray, own=None):
        """(key, index) of the indexed point with the smallest pair_key to each row of q.

        ``own`` gives each row's own index in this cloud, which it may not
        take.  With t the tree distance to the first neighbor a row may take,
        its nearest point lies within stretch * t in tree coordinates, where
        the stretch, the larger ``_stretch`` of the cloud and of q, bounds
        the tree distance over the chord for both.
        The tree returns _SPARE_NEIGHBORS more neighbors; if the last lies
        beyond that ball (widened by _TREE_SLACK), they hold the ball and the
        keys rank them.  A row whose ball may hold more, which on S^n and R^n
        takes a tie and far out on H^n can be every row, is ranked against
        the whole cloud, as in an all-pairs scan, screened by ``screen_keys``
        so that pair_key ranks only the keys within 2 delta of each row's
        least screened key.  Ties go to the lower index.
        """
        n = self.points.shape[0]
        m = min(n, (1 if own is None else 2) + _SPARE_NEIGHBORS)
        dist, near = self.tree.query(_tree_coords(self.space, q), k=np.arange(1, m + 1))
        usable = dist if own is None else np.where(near == own[:, None], np.inf, dist)
        stretch = max(self.stretch, _stretch(self.space, q))
        radius = stretch * usable.min(axis=1) * (1.0 + _TREE_SLACK)
        wide = np.flatnonzero(dist[:, -1] <= radius) if m < n else np.arange(0)
        keys = pair_key(self.space, q[:, None], self.points[near])
        if own is not None:
            keys[near == own[:, None]] = np.inf
        best = keys.min(axis=1)
        cols = np.where(keys == best[:, None], near, n).min(axis=1)
        for i0 in range(0, wide.size, _CHUNK):
            rows = wide[i0:i0 + _CHUNK]
            g, delta = screen_keys(self.space, q[rows], self.points)
            if own is not None:
                g[np.arange(rows.size), own[rows]] = np.inf
            # an entry whose pair_key may be its row's least is screened within
            # 2 delta of the row's least screened key, and every screened key
            # beyond that exceeds the least pair_key; so with the pair_keys of
            # those entries in place, argmin takes the scan's column
            r, c = divmod(np.flatnonzero(g <= g.min(axis=1, keepdims=True) + 2.0 * delta),
                          g.shape[1])
            g[r, c] = pair_key(self.space, q[rows[r]], self.points[c])
            cols[rows] = np.argmin(g, axis=1)
            best[rows] = g[np.arange(rows.size), cols[rows]]
        return best, cols


def _index(space: Space, cloud) -> NeighborIndex:
    return cloud.index(space) if isinstance(cloud, PointCloud) else \
        NeighborIndex(space, _as_points(cloud))


def _pairwise_extremes(space: Space, pts):
    """Max pairwise distance with an attaining pair, plus mean nearest-neighbor spacing.

    ``pts`` is a PointCloud, whose kd-tree is built once and kept, or an
    array; either needs at least two points.
    """
    arr = _as_points(pts)
    if arr.shape[0] < 2:
        raise ValueError(f"nearest-neighbor spacing needs at least two points, got {arr.shape[0]}")
    diam, bi, bj = _farthest_pair(space, arr)
    index = _index(space, pts)
    keys, _ = index.nearest(arr, own=np.arange(arr.shape[0]))
    return diam, bi, bj, float(np.mean(decode_key(space, keys)))


def diameter(space: Space, cloud):
    """Exact max pairwise geodesic distance over the samples, with an attaining pair.

    A lower bound on the true diameter of the generating region.
    """
    pts = _as_points(cloud)
    if pts.shape[0] == 0:
        raise ValueError("diameter of an empty cloud")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ValueError(f"diameter of a cloud with non-finite coordinates: "
                         f"row {bad[0]} is {pts[bad[0]].tolist()}")
    best, bi, bj = _farthest_pair(space, pts)
    return best, pts[bi].copy(), pts[bj].copy()


def _directed(space: Space, x: np.ndarray, index: NeighborIndex) -> float:
    """max over the rows of x of the distance to their nearest indexed point.

    A row whose first tree neighbor is at tree distance t has its nearest
    chord in [t / stretch, t], so only the rows with t >= max t / stretch
    can attain the max, and only they are ranked by key.
    """
    stretch = max(index.stretch, _stretch(space, x))
    reach = index.tree.query(_tree_coords(space, x), k=1)[0]
    rows = np.flatnonzero(reach >= reach.max() / stretch * (1.0 - _TREE_SLACK))
    keys, _ = index.nearest(x[rows])
    return float(decode_key(space, keys.max()))


def hausdorff(space: Space, a, b) -> float:
    """Hausdorff distance between two sample sets: the max of the directed max-mins.

    Each direction queries the other set's kd-tree; a PointCloud keeps its
    tree, so a reference cloud is indexed once however often it is compared.
    """
    pa = _as_points(a)
    pb = _as_points(b)
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise ValueError("hausdorff of an empty cloud")
    return max(_directed(space, pa, _index(space, b)), _directed(space, pb, _index(space, a)))


def _check_count(name: str, value, least: int) -> int:
    """value as an int; raise ValueError, naming the value, unless it is an
    integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _real(value) -> bool:
    """Whether value is a real number: a bool, though an int, is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_positive(name: str, value) -> None:
    """Raise ValueError, naming the value, unless it is a finite positive _real."""
    if not (_real(value) and math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def volume_estimate(space: Space, region, samples: int,
                    rng: np.random.Generator | None) -> VolumeEstimate:
    """Hit-or-miss Monte Carlo volume over the bounding ball.

    value = V(envelope) * hits / samples, with the exact binomial standard
    error of the estimator.  The points are ``uniform_in_ball``'s, tested
    in its blocks (``_ball_blocks``), so a call holds one block's membership
    temporaries at a time.

    A lone Ball, at any n, is its own envelope, and its volume is the closed
    form: ``ball_volume`` with a std_error of 0.0 and samples_used 0, as in
    ``exact_area``.  It draws nothing, so its rng may be None and its
    caller need not open a stream.  ``samples`` is checked either way.
    """
    samples = _check_count("samples", samples, 100)
    if isinstance(region, Ball):
        return VolumeEstimate(value=ball_volume(space, region.radius), std_error=0.0,
                              samples_used=0)
    env = bounding_ball(space, region)
    v_env = ball_volume(space, env.radius)
    hits = sum(int(np.count_nonzero(contains(space, region, pts)))
               for pts in _ball_blocks(space, env, rng, samples))
    p = hits / samples
    return VolumeEstimate(
        value=v_env * p,
        std_error=v_env * math.sqrt(p * (1.0 - p) / samples),
        samples_used=samples,
    )


def exact_area(space: Space, region) -> VolumeEstimate:
    """The exact area of a region of S2, H2 or R2 built of Ball, Union,
    Intersection and Difference nodes, from its boundary arcs.

    A lone Ball is ``ball_volume`` with a std_error of 0.0.  Any other region
    is ``_arc_area`` of its leaf circles, with a std_error that bounds its
    rounding, above 0 unless the region is empty.  Every other node raises
    ValueError.
    """
    if space.dim != 2:
        raise ValueError(f"exact area needs a space of dimension 2, got {space.dim}")
    if isinstance(region, Ball):
        return VolumeEstimate(value=ball_volume(space, region.radius), std_error=0.0,
                              samples_used=0)
    return _arc_area(space, region, *_pack(_leaf_balls(region)))


def _leaf_balls(region) -> list:
    """The leaf balls of a tree of Ball, Union, Intersection and Difference nodes."""
    if isinstance(region, Ball):
        return [region]
    if isinstance(region, (Union, Intersection)):
        return [b for c in region.children for b in _leaf_balls(c)]
    if isinstance(region, Difference):
        return _leaf_balls(region.a) + _leaf_balls(region.b)
    raise ValueError(f"exact area takes Ball, Union, Intersection and Difference nodes, "
                     f"not {type(region).__name__}")


def _on_circles(space: Space, centers, frames, t, phi):
    """The points at angle phi on the circles of radius t about the centres,
    phi measured from row 0 of each frame toward row 1; broadcasts."""
    a, b = geodesic_coeffs(space, t)
    u = np.cos(phi)[..., None] * frames[..., 0, :] + np.sin(phi)[..., None] * frames[..., 1, :]
    return a[..., None] * centers + b[..., None] * u


@functools.cache
def _gauss_legendre():
    """The 24-point Gauss-Legendre nodes and weights on [-1, 1], made on first
    use: ``leggauss`` is a LAPACK call, whose first use costs about 1 MB of
    resident memory that a process drawing no exact area need not hold."""
    return np.polynomial.legendre.leggauss(24)


def _omega_integrals(space: Space, centers, frames, t, lo, hi):
    """The integrals of omega and of the size of its two terms along each arc
    lo <= phi <= hi of the circle of radius t about its centre, from 24-point
    Gauss-Legendre on pieces of at most _PIECE.

    omega is (x0 dx1 - x1 dx0) / (1 + x_e) on S2 and H2, the Lambert
    azimuthal equal-area chart at the base point pulled back, and
    (x0 dx1 - x1 dx0) / 2 on R2, so a boundary walked with the region on its
    left, clear of the antipode of the base point, integrates to its area.
    """
    pieces = np.maximum(np.ceil((hi - lo) / _PIECE), 1).astype(int)
    arc = np.repeat(np.arange(lo.size), pieces)
    k = np.arange(arc.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    half = ((hi - lo) / (2.0 * pieces))[arc]
    nodes, weights = _gauss_legendre()
    phi = (lo[arc] + (2 * k + 1) * half)[:, None] + half[:, None] * nodes
    # x in _on_circles' expression order, so the nodes have its bits
    a, b = geodesic_coeffs(space, t[arc, None, None])
    e, cos, sin = frames[arc, None], np.cos(phi)[..., None], np.sin(phi)[..., None]
    x = a * centers[arc, None] + b * (cos * e[..., 0, :] + sin * e[..., 1, :])
    dx = b * (cos * e[..., 1, :] - sin * e[..., 0, :])
    p, q = x[..., 0] * dx[..., 1], x[..., 1] * dx[..., 0]
    den = 2.0 if space.curvature == EUCLIDEAN else 1.0 + x[..., -1]
    w = half[:, None] * weights
    value = np.bincount(arc, ((p - q) / den * w).sum(axis=1), minlength=lo.size)
    size = np.bincount(arc, ((np.abs(p) + np.abs(q)) / np.abs(den) * w).sum(axis=1),
                       minlength=lo.size)
    return value, size


def _angles_on(space: Space, centers, frames, radii, x):
    """The angle of each point x on its circle, in that circle's frame."""
    a, _ = geodesic_coeffs(space, radii)
    u = x - a[..., None] * centers
    sign = -1.0 if space.curvature == HYPERBOLIC else 1.0
    return np.arctan2(sign * form(space, u, frames[..., 1, :]),
                      sign * form(space, u, frames[..., 0, :]))


def _arc_area(space: Space, region, centers, radii) -> VolumeEstimate:
    """The area of a region of S2, H2 or R2 whose boundary lies on the given
    circles: the sum of omega (``_omega_integrals``) along its boundary arcs
    (``_arcs``), each signed by the side the region lies on and by its
    circle's orientation in the chart, the sign of det F for the circle's
    ``geometry.frame`` F: -1 for a Householder reflection on S2, +1 for the
    identity, for a Lorentz boost on H2 and on R2.  On S2, omega's integral
    around a region that holds the antipode of the base point is its area
    less 4 pi, the sphere's.

    ``region`` may be any node ``contains`` evaluates, a Symmetrized chain
    too, if the circles hold its boundary: for S_H(A), those of A and their
    mirrors in H.  The std_error is _AREA_ROUNDING eps times the integral of
    omega's two terms in size along the boundary arcs, a bound on the
    rounding of the sum; it is 0 only for an empty region, whose area is 0.
    """
    centers, frames, radii, circle, lo, hi, side = _arcs(space, region, centers, radii)
    edge = np.flatnonzero(side)
    value, size = _omega_integrals(space, centers[circle[edge]], frames[circle[edge]],
                                   radii[circle[edge]], lo[edge], hi[edge])
    turning = np.sign(np.linalg.det(frames))
    area = float(np.sum(side[edge] * turning[circle[edge]] * value))
    if space.curvature == SPHERICAL and contains(space, region, -space.base_point):
        area += 4.0 * math.pi
    return VolumeEstimate(value=area, std_error=_AREA_ROUNDING * _EPS * float(size.sum()),
                          samples_used=0)


def _arcs(space: Space, region, centers, radii):
    """The distinct circles, cut into arcs at their crossings, and the side of
    each arc the region lies on.

    Returns (centers, frames, radii) of the distinct circles, each frame
    ``geometry.frame`` of its centre, then per arc its circle, its angles
    lo <= phi <= hi and its side: 1 with the region inside the circle, -1
    outside, 0 for an arc that is no boundary.

    - Circles whose centres and radii agree within _SAME_CIRCLE are one.
    - Circle i is x(phi) = a c + b (cos phi e1 + sin phi e2).  Its key
      against circle j is A cos phi + B sin phi + C, which meets j's
      threshold (cos r_j, cosh r_j or r_j^2) at
      atan2(B, A) +- acos((threshold - C) / hypot(A, B)); A, B and C are
      one (n, n) array each, for n circles.  Each crossing point is formed once, on the
      lower-numbered circle, and its angle on the other is read off, so both
      arcs end at the same point.  Crossings within _TANGENT of tangency are
      dropped.
    - Each arc takes one probe pair, at radius r - d and r + d, where d is
      _PROBE max(r, 1) or half the distance to the nearest other circle if
      that is less: at the midpoint, or a quarter of the way from either end
      if another circle passes nearer the midpoint.  All the probes go to
      one ``contains`` batch.

    Merging circles that differ by up to _SAME_CIRCLE moves the area by at
    most about that much times their length, and a dropped near-tangent
    crossing leaves out a lens of about (2 _TANGENT)^1.5 r^2.
    """
    key = np.column_stack([centers, radii])
    same = (np.abs(key[:, None] - key[None]) <= _SAME_CIRCLE).all(axis=2)
    keep = ~np.triu(same, 1).any(axis=0)
    centers, radii = centers[keep], radii[keep]
    n = radii.size
    frames = frame(space, centers)
    a, b = geodesic_coeffs(space, radii)
    e1, e2 = frames[:, 0], frames[:, 1]
    if space.curvature == EUCLIDEAN:
        diff = centers[:, None] - centers[None]
        A = 2.0 * b[:, None] * np.einsum("ijd,id->ij", diff, e1)
        B = 2.0 * b[:, None] * np.einsum("ijd,id->ij", diff, e2)
        C = np.einsum("ijd,ijd->ij", diff, diff) + (b * b)[:, None]
        threshold = radii * radii
    else:
        signed = form_rows(space, centers)
        A = b[:, None] * (e1 @ signed.T)
        B = b[:, None] * (e2 @ signed.T)
        C = a[:, None] * (centers @ signed.T)
        threshold = a  # cos r or cosh r
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (threshold[None] - C) / np.hypot(A, B)
    sharp = np.abs(q) <= 1.0 - _TANGENT
    i, j = np.nonzero(np.triu(sharp & sharp.T, 1))
    turn = np.arccos(q[i, j])
    phi = np.arctan2(B[i, j], A[i, j])[:, None] + np.stack([turn, -turn], axis=1)
    x = _on_circles(space, centers[i, None], frames[i, None], radii[i, None], phi)
    angles = np.full((n, n, 2), np.nan)
    angles[i, j] = phi
    angles[j, i] = _angles_on(space, centers[j, None], frames[j, None], radii[j, None], x)
    lo = np.sort(np.mod(angles.reshape(n, 2 * n), 2.0 * math.pi), axis=1)
    cuts = np.count_nonzero(~np.isnan(lo), axis=1)
    hi = np.empty_like(lo)
    hi[:, :-1] = lo[:, 1:]
    cut = np.flatnonzero(cuts)
    hi[cut, cuts[cut] - 1] = lo[cut, 0] + 2.0 * math.pi
    whole = cuts == 0
    lo[whole, 0], hi[whole, 0] = 0.0, 2.0 * math.pi
    in_use = np.arange(2 * n) < np.maximum(cuts, 1)[:, None]
    circle = np.nonzero(in_use)[0]
    lo, hi = lo[in_use], hi[in_use]
    # probe where the nearest other circle is farthest, the midpoint if it is clear
    where = lo[:, None] + np.array([0.5, 0.25, 0.75]) * (hi - lo)[:, None]
    on = _on_circles(space, centers[circle, None], frames[circle, None],
                     radii[circle, None], where)
    gap = np.abs(decode_key(space, pair_key(space, on[:, :, None], centers)) - radii)
    rows = np.arange(circle.size)
    gap[rows, :, circle] = np.inf
    clear = gap.min(axis=2)
    step = _PROBE * np.maximum(radii[circle], 1.0)
    pick = np.argmax(np.minimum(clear, 2.0 * step[:, None]), axis=1)
    offset = np.minimum(step, 0.5 * clear[rows, pick])
    probe = np.tile(where[rows, pick], 2)
    member = contains(space, region, _on_circles(
        space, np.tile(centers[circle], (2, 1)), np.tile(frames[circle], (2, 1, 1)),
        np.concatenate([radii[circle] - offset, radii[circle] + offset]), probe))
    side = member[:circle.size].astype(int) - member[circle.size:]
    return centers, frames, radii, circle, lo, hi, side

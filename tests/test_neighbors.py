"""The kd-tree nearest neighbors and the pruned farthest pair in isodiam.regions,
against an all-pairs scan of geometry.pair_key, which stays here as the
brute-force reference.

pair_key sums column by column, so a pair's key has the same bits in a scan
block as in a search's small batch.  Each search must therefore pick the
scan's pair (ties to the lowest index) and report the distance decoded from
the scan's key to the bit: the diameter, every nearest-neighbor key, the
spacing and the Hausdorff distance.  Every reported distance is also
``distance`` of the pair that attained it.  Against exact rational keys,
pair_key is within a few ulps on R^n, where the matrix-product Gram form
|x|^2 + |y|^2 - 2 x.y it replaced cancelled, so the reported R^n distances
are no farther from 40-digit values than the old scan's.  On S^n and H^n it
is within the a-priori bound of a d-term dot product but not as tight as
the matrix product was: its RMS key error is held to twice the old one's.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodiam import regions
from isodiam.geometry import (
    Ball,
    Space,
    decode_key,
    distance,
    geodesic_point,
    pair_key,
    random_unit_tangent,
)
from isodiam.regions import (
    NeighborIndex,
    PointCloud,
    _farthest_pair,
    _pairwise_extremes,
    diameter,
    hausdorff,
    uniform_in_ball,
)
from isodiam.rng import substream

SPACES = {"R2": Space.euclidean(2), "S2": Space.sphere(2), "H2": Space.hyperbolic(2),
          "S3": Space.sphere(3)}
H2 = SPACES["H2"]
#: rows of the key matrix the reference scan holds at once
CHUNK = 512
#: cloud shapes; "far" is an H2 cloud 10 to 15 from the pole, drawn on H2 only
KINDS = ("ball", "duplicates", "pair", "close", "annulus", "polygon", "far")
EPS = np.finfo(float).eps


def scan_keys(space, x, y):
    """The full key matrix, in row chunks."""
    return np.vstack([pair_key(space, x[i0:i0 + CHUNK, None], y)
                      for i0 in range(0, x.shape[0], CHUNK)])


def scan_extremes(space, pts):
    """The all-pairs scan: max key, its first pair in row-major order, and
    each row's min key to another row with the first column attaining it."""
    g = scan_keys(space, pts, pts)
    rows = np.arange(pts.shape[0])
    g[rows, rows] = -np.inf
    bi, bj = divmod(int(np.argmax(g)), pts.shape[0])
    top = float(g[bi, bj])
    g[rows, rows] = np.inf
    return top, bi, bj, g.min(axis=1), np.argmin(g, axis=1)


def scan_directed(space, x, y):
    """The scan's directed Hausdorff key: max over rows of x of the min key to y."""
    return float(scan_keys(space, x, y).min(axis=1).max())


def _pole_ball(space, rng, n, spread):
    return uniform_in_ball(space, Ball(space.base_point, spread), rng, size=n)


def make_cloud(space, kind, n, seed):
    """A cloud of the given kind with about n points."""
    rng = substream(seed)
    if kind == "ball":
        return _pole_ball(space, rng, n, float(rng.uniform(0.5, 1.5)))
    if kind == "duplicates":
        base = _pole_ball(space, rng, max(n // 3, 1), 0.8)
        return base[rng.integers(0, base.shape[0], size=n)]
    if kind == "pair":
        return _pole_ball(space, rng, 2, 1.0)
    if kind == "close":
        base = _pole_ball(space, rng, max(n // 2, 1), 0.8)
        partners = np.array([geodesic_point(space, p, random_unit_tangent(space, p, rng), 1e-9)
                             for p in base])
        both = np.vstack([base, partners])
        return both[rng.permutation(both.shape[0])]
    if kind == "annulus":
        # a ring about the pole plus the pole itself: every row is as far from
        # the centre as any other, so the pruning keeps them all
        e = space.base_point
        ring = geodesic_point(space, e, random_unit_tangent(space, e, rng, n), 0.7)
        return np.vstack([ring, e])
    if kind == "polygon":
        # the vertices of a regular polygon about the pole, each repeated: many
        # pairs are farthest or nearest to within rounding, and repeats tie
        sides = max(n // 3, 2)
        theta = rng.uniform(0.0, 2.0 * np.pi) + np.arange(sides) * (2.0 * np.pi / sides)
        u = np.zeros((sides, space.ambient_dim))
        u[:, 0] = np.cos(theta)
        u[:, 1] = np.sin(theta)
        ring = geodesic_point(space, space.base_point, u, float(rng.uniform(0.3, 1.2)))
        return ring[rng.integers(0, sides, size=n)]
    # far out on H2, where the tree's stretch cosh(rho) is 1e4 to 2e6
    e = H2.base_point
    center = geodesic_point(H2, e, random_unit_tangent(H2, e, rng), float(rng.uniform(10, 15)))
    return uniform_in_ball(H2, Ball(center, float(rng.uniform(0.2, 1.0))), rng, size=n)


cloud_args = dict(space_name=st.sampled_from(sorted(SPACES)), kind=st.sampled_from(KINDS),
                  n=st.integers(2, 700), seed=st.integers(0, 2**32 - 1))


def _space(space_name, kind):
    return H2 if kind == "far" else SPACES[space_name]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(**cloud_args)
def test_farthest_pair_is_the_scans(space_name, kind, n, seed):
    space = _space(space_name, kind)
    pts = make_cloud(space, kind, n, seed)
    top, bi, bj, _, _ = scan_extremes(space, pts)
    d, i, j = _farthest_pair(space, pts)
    assert (i, j) == (bi, bj)
    assert d == float(decode_key(space, top))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(**cloud_args)
def test_spacing_neighbors_are_the_scans(space_name, kind, n, seed):
    space = _space(space_name, kind)
    pts = make_cloud(space, kind, n, seed)
    _, _, _, nn, nearest = scan_extremes(space, pts)
    index = NeighborIndex(space, pts)
    own = np.arange(pts.shape[0])
    keys, cols = index.nearest(pts, own=own)
    assert np.all(cols != own)
    # of equal points, the one with the lowest index, as the scan's argmin
    same = (pts[cols][:, None, :] == pts[None, :, :]).all(axis=2)
    same[own, own] = False
    assert np.all(cols == np.argmax(same, axis=1))
    assert np.array_equal(cols, nearest)
    assert np.array_equal(keys, nn)
    spacing = _pairwise_extremes(space, pts)[3]
    assert spacing == float(np.mean(decode_key(space, nn)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(**cloud_args, other=st.sampled_from(KINDS), m=st.integers(1, 300))
def test_hausdorff_is_the_scans(space_name, kind, n, seed, other, m):
    space = _space(space_name, kind)
    if (other == "far") != (kind == "far"):
        other = kind
    a = make_cloud(space, kind, n, seed)
    b = make_cloud(space, other, m, seed + 1)
    ref_key = max(scan_directed(space, a, b), scan_directed(space, b, a))
    h = hausdorff(space, a, b)
    assert h == hausdorff(space, PointCloud(a, 1.0), PointCloud(b, 1.0))
    assert h == float(decode_key(space, ref_key))


@pytest.mark.parametrize("space_name", sorted(SPACES))
@pytest.mark.parametrize("n", [12, 61, 700])
def test_pair_key_decides_the_screened_ties(monkeypatch, space_name, n):
    # in a polygon with repeated vertices the screen leaves many candidates
    # for the farthest pair and each row's nearest point, and pair_key picks
    # the scan's first one among them
    space = SPACES[space_name]
    pts = make_cloud(space, "polygon", n, seed=n)
    decided = []
    real = regions.pair_key

    def spy(sp, x, y):
        # the confirmations take pairs of rows; the other calls a block
        if np.ndim(x) == 2 and np.ndim(y) == 2:
            decided.append(len(x))
        return real(sp, x, y)

    monkeypatch.setattr(regions, "pair_key", spy)
    d, i, j = _farthest_pair(space, pts)
    farthest = list(decided)
    index = NeighborIndex(space, pts)
    keys, cols = index.nearest(pts, own=np.arange(n))
    nearest_rows = decided[len(farthest):]
    monkeypatch.undo()
    top, bi, bj, nn, nearest = scan_extremes(space, pts)
    assert (i, j) == (bi, bj)
    assert d == float(decode_key(space, top))
    assert max(farthest) > 1
    # rows with three or more copies hold a tie, so they are ranked in full
    assert sum(nearest_rows) > 0
    assert np.array_equal(cols, nearest)
    assert np.array_equal(keys, nn)


def test_h2_stretch_is_needed_far_out():
    # far from the pole the first tree neighbor of a row is often not its
    # nearest point, so a search without the cosh(rho) ball would be wrong
    pts = make_cloud(H2, "far", 300, seed=5)
    index = NeighborIndex(H2, pts)
    own = np.arange(pts.shape[0])
    _, first = index.tree.query(pts[:, :-1], k=2)
    _, cols = index.nearest(pts, own=own)
    assert index.stretch > 1e4
    assert np.count_nonzero(first[:, 1] != cols) > 0
    _, _, _, _, nearest = scan_extremes(H2, pts)
    assert np.array_equal(cols, nearest)


def test_two_point_cloud():
    for space in SPACES.values():
        pts = make_cloud(space, "pair", 2, seed=7)
        d, i, j = _farthest_pair(space, pts)
        assert (i, j) == (0, 1)
        diam, _, _, spacing = _pairwise_extremes(space, pts)
        assert diam == d
        assert spacing == d
        assert math.isfinite(d) and d > 0.0


SELF_SPACES = {**SPACES, "H3": Space.hyperbolic(3)}


def _attained(space, x, other):
    """The distance from each row of x to its nearest point in ``other`` by
    the search, and that point's index."""
    index = NeighborIndex(space, other)
    own = np.arange(x.shape[0]) if x is other else None
    keys, cols = index.nearest(x, own=own)
    return decode_key(space, keys), cols


def _check_self_consistent(space, a, b):
    d, x, y = diameter(space, a)
    assert d == float(distance(space, x, y))
    if a.shape[0] > 1:
        spacings, cols = _attained(space, a, a)
        assert np.array_equal(spacings, distance(space, a, a[cols]))
        assert _pairwise_extremes(space, a)[3] == float(np.mean(spacings))
    # the Hausdorff distance is the larger directed max-min, at the pair that attains it
    candidates = []
    for x, y in ((a, b), (b, a)):
        reach, cols = _attained(space, x, y)
        row = int(np.argmax(reach))
        candidates.append((float(reach[row]), x[row], y[cols[row]]))
    h, x, y = max(candidates, key=lambda c: c[0])
    assert hausdorff(space, a, b) == h == float(distance(space, x, y))


@pytest.mark.parametrize("space_name", sorted(SELF_SPACES))
@pytest.mark.parametrize("seed", range(8))
def test_reported_distances_are_distance_of_their_pairs(space_name, seed):
    # before pair_key, the scans' matrix-product keys and the keys distance
    # took could differ in the last ulp
    space = SELF_SPACES[space_name]
    rng = substream(900, seed)
    n, m = (int(v) for v in rng.integers(2, 400, size=2))
    a = _pole_ball(space, rng, n, 0.7)
    b = _pole_ball(space, rng, m, 0.7)
    _check_self_consistent(space, a, b)


@pytest.mark.parametrize("seed", [1, 11, 13, 29, 42])
def test_two_points_against_one_on_s3(seed):
    # seeds where the Hausdorff key of the old 2-by-1 matrix product sat one
    # ulp away from the key distance takes
    space = SELF_SPACES["S3"]
    rng = substream(seed)
    a = _pole_ball(space, rng, 2, 1.0)
    b = _pole_ball(space, rng, 1, 1.0)
    assert hausdorff(space, a, b) == float(distance(space, a, b[0]).max())
    _check_self_consistent(space, a, b)


def exact_distance(space, x, y):
    """The distance of two float points to 40 digits: between the rays on S^n
    and H^n, so that a point's own rounding off the quadric does not count."""
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(v)) for v in x]
        y = [mpmath.mpf(float(v)) for v in y]
        if space.curvature == 0:
            return mpmath.sqrt(mpmath.fsum((u - v) ** 2 for u, v in zip(x, y)))
        sign = [-1] * (len(x) - 1) + [1] if space.curvature == -1 else [1] * len(x)

        def form(u, v):
            return mpmath.fsum(s * a * b for s, a, b in zip(sign, u, v))

        c = form(x, y) / mpmath.sqrt(form(x, x) * form(y, y))
        if space.curvature == 1:
            return mpmath.acos(min(max(c, -1), 1))
        return mpmath.acosh(max(c, 1))


def exact_key(space, x, y):
    """pair_key of two float points in exact rational arithmetic."""
    x = [Fraction(float(v)) for v in x]
    y = [Fraction(float(v)) for v in y]
    if space.curvature == 0:
        return sum((u - v) ** 2 for u, v in zip(x, y))
    dot = sum(u * v for u, v in zip(x[:-1], y[:-1]))
    if space.curvature == 1:
        return -(dot + x[-1] * y[-1])
    return x[-1] * y[-1] - dot


def gamma(k):
    """gamma_k = k u / (1 - k u), u the unit roundoff (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1)."""
    return Fraction(k) * Fraction(EPS / 2) / (1 - k * Fraction(EPS / 2))


def key_bound(space, x, y):
    """The a-priori error bound of a key: gamma_d sum |x_j y_j| for the d-term
    dot product on S^n and H^n, and gamma_(d+2) times the key for the sum of
    d rounded squares of rounded differences on R^n."""
    d = space.ambient_dim
    if space.curvature == 0:
        return gamma(d + 2) * exact_key(space, x, y)
    return gamma(d) * sum(abs(Fraction(float(u)) * Fraction(float(v))) for u, v in zip(x, y))


def gram_keys(space, x, y):
    """The matrix-product Gram keys the scans took before pair_key, in the
    scan's row chunks, kept here only to compare their accuracy with it."""
    def chunk(u):
        if space.curvature == 1:
            return (-u) @ y.T
        if space.curvature == -1:
            return (u * np.r_[-np.ones(u.shape[1] - 1), 1.0]) @ y.T
        sq = (np.einsum("nd,nd->n", u, u)[:, None] + np.einsum("nd,nd->n", y, y)[None, :]
              - 2.0 * (u @ y.T))
        return np.maximum(sq, 0.0)

    return np.vstack([chunk(x[i0:i0 + CHUNK]) for i0 in range(0, x.shape[0], CHUNK)])


def exactness_clouds(case):
    """Two clouds: balls about the pole, or 2000 and 1000 points within about
    1e-3 of (3, 4) on R2, where the Gram form cancels."""
    if case == "R2 far":
        rng = substream(41)
        return tuple(np.array([3.0, 4.0]) + 1e-3 * rng.standard_normal((n, 2))
                     for n in (2000, 1000))
    if case in SPACES:
        return (make_cloud(SPACES[case], "ball", 600, seed=11),
                make_cloud(SPACES[case], "ball", 500, seed=12))
    space = SELF_SPACES[case]
    rng = substream(43)
    return _pole_ball(space, rng, 600, 1.0), _pole_ball(space, rng, 500, 1.0)


@pytest.mark.parametrize("case", ["R2", "S2", "H2", "S3", "H3", "R2 far"])
def test_as_exact_as_the_scan(case):
    # each picked nearest-neighbor key is within the a-priori bound of its
    # exact rational value, and is compared with the matrix-product key the
    # scan took for the same pair
    space = SELF_SPACES[case.split()[0]]
    a, b = exactness_clouds(case)
    index = NeighborIndex(space, a)
    own = np.arange(a.shape[0])
    keys, cols = index.nearest(a, own=own)
    old_keys = gram_keys(space, a, a)
    old_keys[own, own] = np.inf
    exact_keys = [exact_key(space, a[i], a[j]) for i, j in zip(own, cols)]
    new_err = np.array([float(abs(Fraction(float(k)) - e)) for k, e in zip(keys, exact_keys)])
    old_err = np.array([float(abs(Fraction(float(k)) - e))
                        for k, e in zip(old_keys[own, cols], exact_keys)])
    assert all(Fraction(e) <= key_bound(space, a[i], a[j]) for e, i, j in zip(new_err, own, cols))
    if space.curvature != 0:
        # not at least as exact: the column sum rounds each product and each
        # partial sum, and the matrix product's keys were tighter.  Over the
        # nearest pairs of 20 clouds per space, the RMS key error was 1.1 to
        # 1.7 times the matrix product's, and the decoded spacing, nearest
        # distances and Hausdorff distance came out ahead of or behind the
        # scan's from cloud to cloud
        assert np.sqrt(np.mean(new_err ** 2)) <= 2.0 * np.sqrt(np.mean(old_err ** 2))
        return
    # on R^n about 2 ulps of the key, where the Gram form cancelled
    assert new_err.max() < old_err.max() / 100

    # against 40-digit distances of the picked pairs, the spacing, every
    # nearest-neighbor distance and the Hausdorff distance are no farther off
    # than the scan's values, within one ulp
    exact = [exact_distance(space, a[i], a[j]) for i, j in zip(own, cols)]
    spacing = float(mpmath.fsum(exact) / len(exact))
    new = _pairwise_extremes(space, a)[3]
    old_nn = decode_key(space, old_keys.min(axis=1))
    assert abs(new - spacing) <= abs(float(np.mean(old_nn)) - spacing) + np.spacing(spacing)
    assert abs(new - spacing) <= 2 * EPS * spacing
    exact = np.array([float(e) for e in exact])
    assert np.abs(decode_key(space, keys) - exact).max() <= \
        np.abs(old_nn - exact).max() + np.spacing(exact.max())

    # the Hausdorff distance is the larger directed one, at the pair it picks
    x, y = max((a, b), (b, a), key=lambda xy: scan_directed(space, *xy))
    keys = scan_keys(space, x, y)
    row = int(np.argmax(keys.min(axis=1)))
    col = int(np.argmin(keys[row]))
    directed = float(exact_distance(space, x[row], y[col]))
    old = float(decode_key(space, gram_keys(space, x, y).min(axis=1).max()))
    assert abs(hausdorff(space, a, b) - directed) <= abs(old - directed) + np.spacing(directed)

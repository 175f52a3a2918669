"""The kd-tree nearest neighbors and the pruned farthest pair in isodiam.regions,
against the all-pairs Gram scan they replaced, which stays here as the
brute-force reference.

Each search picks a pair and reports the distance decoded from that pair's
Gram key, taken row by row with np.vecdot.  The pair must be the scan's
pair or tie it within the key's rounding, and the diameter must be the
scan's to the bit.  On generic clouds within 3 of the pole, spacing and
Hausdorff distance agree with the scan to 1e-12 relative: the scan took its
keys from a matrix product, whose rounding of an entry can depend on the
matrix shape (a 2-by-1 product is not rounded as a 512-by-n one is).
Duplicates, pairs 1e-9 apart and random rings hold near-coincident points,
whose distances no key resolves; there the picked pairs must tie the scan's
within the rounding.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodiam.geometry import Ball, Space, geodesic_point, random_unit_tangent
from isodiam.regions import (
    NeighborIndex,
    PointCloud,
    _decode_gram,
    _farthest_pair,
    _gram_distance_chunk,
    _pairwise_extremes,
    hausdorff,
    uniform_in_ball,
)
from isodiam.rng import substream

SPACES = {"R2": Space.euclidean(2), "S2": Space.sphere(2), "H2": Space.hyperbolic(2),
          "S3": Space.sphere(3)}
H2 = SPACES["H2"]
#: rows of the key matrix the reference scan holds at once, as the old scan did
CHUNK = 512
#: cloud shapes; "far" is an H2 cloud 10 to 15 from the pole, drawn on H2 only
KINDS = ("ball", "duplicates", "pair", "close", "annulus", "far")
#: kinds whose spacing and Hausdorff distance hold 1e-12 relative; the others
#: place points so close that one ulp of a key moves a decoded distance more
GENERIC = ("ball", "pair")


def scan_extremes(space, pts):
    """The all-pairs scan: max key, its first pair in row-major order, and
    each row's min key to another row."""
    n = pts.shape[0]
    best = -np.inf
    bi = bj = 0
    nn = np.empty(n)
    for i0 in range(0, n, CHUNK):
        block = pts[i0:i0 + CHUNK]
        g = _gram_distance_chunk(space, block, pts)
        rows = np.arange(block.shape[0])
        g[rows, i0 + rows] = -np.inf
        r, c = divmod(int(np.argmax(g)), n)
        if g[r, c] > best:
            best = float(g[r, c])
            bi, bj = i0 + r, c
        g[rows, i0 + rows] = np.inf
        nn[i0:i0 + CHUNK] = g.min(axis=1)
    return best, bi, bj, nn


def scan_keys(space, x, y):
    """The full key matrix, in the scan's row chunks."""
    return np.vstack([_gram_distance_chunk(space, x[i0:i0 + CHUNK], y)
                      for i0 in range(0, x.shape[0], CHUNK)])


def scan_directed(space, x, y):
    """The scan's directed Hausdorff key: max over rows of x of the min key to y."""
    return float(scan_keys(space, x, y).min(axis=1).max())


def key_rounding(space, *clouds):
    """How far two evaluations of one key may differ: a few ulps of the largest
    squared coordinate norm, which bounds every product the key sums."""
    m = max(float(np.einsum("nd,nd->n", c, c).max()) for c in clouds)
    return 16 * space.ambient_dim * np.finfo(float).eps * m


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
    top, bi, bj, _ = scan_extremes(space, pts)
    d, i, j = _farthest_pair(space, pts)
    assert i != j
    keys = scan_keys(space, pts, pts)
    assert (i, j) == (bi, bj) or keys[i, j] >= top - key_rounding(space, pts)
    assert d == float(_decode_gram(space, top))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(**cloud_args)
def test_spacing_neighbors_are_the_scans(space_name, kind, n, seed):
    space = _space(space_name, kind)
    pts = make_cloud(space, kind, n, seed)
    _, _, _, nn = scan_extremes(space, pts)
    index = NeighborIndex(space, pts)
    own = np.arange(pts.shape[0])
    keys, cols = index.nearest(pts, index.stretch, own=own)
    assert np.all(cols != own)
    # of equal points, the one with the lowest index, as the scan's argmin
    same = (pts[cols][:, None, :] == pts[None, :, :]).all(axis=2)
    same[own, own] = False
    assert np.all(cols == np.argmax(same, axis=1))
    picked = scan_keys(space, pts, pts)[own, cols]
    assert np.all(picked <= nn + key_rounding(space, pts))
    spacing = _pairwise_extremes(space, pts)[3]
    assert spacing == float(np.mean(_decode_gram(space, keys)))
    if kind in GENERIC:
        ref = float(np.mean(_decode_gram(space, nn)))
        assert abs(spacing - ref) <= 1e-12 * ref


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
    tie = key_rounding(space, a, b)
    assert _decode_gram(space, ref_key - tie) <= h <= _decode_gram(space, ref_key + tie)
    if kind in GENERIC and other in GENERIC:
        ref = float(_decode_gram(space, ref_key))
        assert abs(h - ref) <= 1e-12 * ref


def test_h2_stretch_is_needed_far_out():
    # far from the pole the first tree neighbor of a row is often not its
    # nearest point, so a search without the cosh(rho) ball would be wrong
    pts = make_cloud(H2, "far", 300, seed=5)
    index = NeighborIndex(H2, pts)
    own = np.arange(pts.shape[0])
    _, first = index.tree.query(pts[:, :-1], k=2)
    _, cols = index.nearest(pts, index.stretch, own=own)
    assert index.stretch > 1e4
    assert np.count_nonzero(first[:, 1] != cols) > 0
    _, _, _, nn = scan_extremes(H2, pts)
    assert np.all(scan_keys(H2, pts, pts)[own, cols] <= nn + key_rounding(H2, pts))


def test_two_point_cloud():
    for space in SPACES.values():
        pts = make_cloud(space, "pair", 2, seed=7)
        d, i, j = _farthest_pair(space, pts)
        assert (i, j) == (0, 1)
        diam, _, _, spacing = _pairwise_extremes(space, pts)
        assert diam == d
        assert spacing == pytest.approx(d, rel=1e-12)
        assert math.isfinite(d) and d > 0.0


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


@pytest.mark.parametrize("space_name", ["R2", "S2", "H2"])
def test_as_exact_as_the_scan(space_name):
    # against 40-digit distances of the picked pairs, the new spacing and
    # Hausdorff distance are no farther off than the scan's, within one ulp
    space = SPACES[space_name]
    a = make_cloud(space, "ball", 600, seed=11)
    b = make_cloud(space, "ball", 500, seed=12)
    _, _, _, nn = scan_extremes(space, a)
    index = NeighborIndex(space, a)
    own = np.arange(a.shape[0])
    keys, cols = index.nearest(a, index.stretch, own=own)
    exact = [exact_distance(space, a[i], a[j]) for i, j in zip(own, cols)]
    spacing = float(mpmath.fsum(exact) / len(exact))
    new = _pairwise_extremes(space, a)[3]
    old = float(np.mean(_decode_gram(space, nn)))
    assert abs(new - spacing) <= abs(old - spacing) + np.spacing(spacing)
    exact = np.array([float(e) for e in exact])
    assert np.abs(_decode_gram(space, keys) - exact).max() <= \
        np.abs(_decode_gram(space, nn) - exact).max() + np.spacing(exact.max())

    # the Hausdorff distance is the larger directed one, at the pair it picks
    x, y = max((a, b), (b, a), key=lambda xy: scan_directed(space, *xy))
    keys = scan_keys(space, x, y)
    row = int(np.argmax(keys.min(axis=1)))
    col = int(np.argmin(keys[row]))
    directed = float(exact_distance(space, x[row], y[col]))
    old = float(_decode_gram(space, keys[row, col]))
    new = hausdorff(space, a, b)
    assert abs(new - directed) <= abs(old - directed) + np.spacing(directed)

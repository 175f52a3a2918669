"""Hemisphere certificates, convex hulls through the gnomonic model, and convexity probes.

The hemisphere test runs the minimum-norm-point construction: the point z of
the Euclidean convex hull closest to the origin certifies containment in the
open hemisphere {x : <x, z> > 0} whenever it is nonzero with positive margins.
The hull check never works on the curved spaces directly; it rotates the
certificate direction onto the base point, projects centrally, and samples
the affine model, where geodesic segments are straight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    SPHERICAL,
    Ball,
    Space,
    distance,
    frame,
    geodesic_point,
    normalize_to_space,
    project_gnomonic,
    tangent_toward,
    validate_ball,
)
from .regions import _as_points, _check_count, diameter, uniform_in_ball
from .rng import substream


@dataclass(frozen=True, eq=False)
class HemisphereCertificate:
    """Witness that every sample has <x, z> >= min_margin > 0."""

    z: np.ndarray
    min_margin: float


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |A x - b| over x >= 0 by Lawson and Hanson's active-set method,
    within 3n least-squares solves on the free set."""
    m, n = A.shape
    tol = 10.0 * max(m, n) * np.finfo(float).eps * float(np.abs(A).sum(axis=0).max())
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    solves = 0
    while not free.all() and float((w := A.T @ (b - A @ x))[~free].max()) > tol:
        free[np.argmax(np.where(free, -np.inf, w))] = True
        while True:
            solves += 1
            if solves > 3 * n:
                raise RuntimeError(f"NNLS did not converge within its cap of {3 * n} iterations")
            s = np.zeros(n)
            AF = A[:, free]
            s[free] = np.linalg.lstsq(AF, b, rcond=None)[0]
            # one refinement step: lstsq's SVD alone can leave AF^T r 10x a QR solve's
            s[free] += np.linalg.lstsq(AF, b - AF @ s[free], rcond=None)[0]
            if (s[free] > 0.0).all():
                break
            blocked = np.flatnonzero(free & (s <= 0.0))
            # x >= 0 >= s on the blocked set, so x - s > 0 wherever x > 0
            xb = x[blocked]
            steps = np.divide(xb, xb - s[blocked], out=np.zeros_like(xb), where=xb > 0.0)
            x += float(steps.min()) * (s - x)
            x[blocked[np.argmin(steps)]] = 0.0
            free &= x > 0.0
            x[~free] = 0.0
        x = s
    return x


def min_norm_point(points) -> np.ndarray:
    """Point of the Euclidean convex hull closest to the origin.

    Lawson and Hanson's least-distance reduction (Solving Least Squares
    Problems, ch. 23) makes this one nonnegative least-squares problem: at the
    minimum of |P^T u|^2 + (sum u - 1)^2 over u >= 0, u / sum u are the hull
    weights of the nearest point.  The points are first divided by the power
    of two s nearest their largest norm, which is exact, so the result scales
    with the points bit for bit and unit vectors are solved as given.
    Returns the zero vector when the hull contains the origin.

    Parameters
    ----------
    points : array-like, shape (N, d)

    Returns
    -------
    ndarray, shape (d,)
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] == 0:
        raise ValueError("need a nonempty (N, d) array of points")
    bad = ~np.isfinite(P).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"point {i} is not finite: {P[i].tolist()}")
    frac, exp = math.frexp(float(np.hypot.reduce(np.abs(P), axis=1, initial=0.0).max()))
    scale = math.ldexp(1.0, exp if frac >= math.sqrt(0.5) else exp - 1)
    P = P / scale
    target = np.zeros(P.shape[1] + 1)
    target[-1] = 1.0
    u = _nnls(np.vstack([P.T, np.ones(P.shape[0])]), target)
    z = (u @ P) / u.sum()
    if float(z @ z) <= 1e-24:
        return np.zeros(P.shape[1])
    return z * scale


def hemisphere_center(cloud) -> HemisphereCertificate | None:
    """Open-hemisphere certificate for a spherical sample set, or None.

    z is the minimum-norm point of the samples' Euclidean hull; a certificate
    exists whenever the sampled diameter is below arccos(-1/(n+1)).
    """
    pts = _as_points(cloud)
    z = min_norm_point(pts)
    if float(np.linalg.norm(z)) <= 1e-9:
        return None
    margin = float(np.min(pts @ z))
    if margin <= 0.0:
        return None
    return HemisphereCertificate(z=z, min_margin=margin)


class NoHemisphereError(ValueError):
    """Spherical hull operations require an open-hemisphere certificate."""


def hull_diameter_check(space: Space, cloud, hull_samples: int, seed: int):
    """Sampled diameter of the cloud and of a dense hull sample; the hull one
    must never exceed the first beyond numeric tolerance.

    Hull samples are random convex combinations in the projected model mapped
    back to the space, plus the original samples themselves.  Spherical clouds
    must have sampled diameter at most pi/2.
    """
    hull_samples = _check_count("hull_samples", hull_samples, 1)
    pts = _as_points(cloud)
    d0, _, _ = diameter(space, pts)
    if space.curvature == SPHERICAL:
        if d0 > math.pi / 2.0 + 1e-9:
            raise ValueError(f"spherical cloud diameter {d0:.6f} exceeds pi/2")
        cert = hemisphere_center(pts)
        if cert is None:
            raise NoHemisphereError("no open-hemisphere certificate for the samples")
        # frame(u) is a symmetric involution taking u to the base point
        pts = pts @ frame(space, cert.z / np.linalg.norm(cert.z))
    proj = project_gnomonic(space, pts)
    rng = substream(seed)
    k = min(space.dim + 1, proj.shape[0])
    idx = rng.integers(0, proj.shape[0], size=(hull_samples, k))
    wts = rng.standard_exponential((hull_samples, k))
    wts /= wts.sum(axis=1, keepdims=True)
    combos = np.einsum("mk,mkd->md", wts, proj[idx])
    hull_pts = np.vstack([pts, normalize_to_space(space, combos)])
    d1, _, _ = diameter(space, hull_pts)
    return d0, d1


def ball_convexity_probe(space: Space, ball: Ball, trials: int, seed: int):
    """Sample point pairs in the ball and test geodesic midpoint membership.

    Returns the violation count and a witness pair when one exists.  Convex
    balls give zero violations; spherical balls of radius in [pi/2, pi) do not.
    """
    validate_ball(space, ball)
    trials = _check_count("trials", trials, 1)
    rng = substream(seed)
    xs = uniform_in_ball(space, ball, rng, size=trials)
    ys = uniform_in_ball(space, ball, rng, size=trials)
    t = distance(space, xs, ys)
    usable = t > 1e-9
    if space.curvature == SPHERICAL:
        usable &= t < math.pi - 1e-9
    xs_u, ys_u, t_u = xs[usable], ys[usable], t[usable]
    if xs_u.shape[0] == 0:
        return 0, None
    u, _ = tangent_toward(space, xs_u, ys_u)
    mid = geodesic_point(space, xs_u, u, t_u / 2.0)
    outside = distance(space, mid, ball.center) > ball.radius + 1e-9
    count = int(np.count_nonzero(outside))
    witness = None
    if count:
        k = int(np.flatnonzero(outside)[0])
        witness = (xs_u[k].copy(), ys_u[k].copy())
    return count, witness

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
    geodesic_point,
    normalize_to_space,
    project_gnomonic,
    tangent_toward,
    validate_ball,
)
from .regions import _as_points, diameter, uniform_in_ball
from .rng import substream


@dataclass(frozen=True, eq=False)
class HemisphereCertificate:
    """Witness that every sample has <x, z> >= min_margin > 0."""

    z: np.ndarray
    min_margin: float


def _affine_minimizer(A: np.ndarray) -> np.ndarray:
    """Coefficients summing to 1 that minimize |sum_i alpha_i A_i| over the affine hull."""
    k = A.shape[0]
    M = np.zeros((k + 1, k + 1))
    M[:k, :k] = A @ A.T
    M[:k, k] = 1.0
    M[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    return sol[:k]


def min_norm_point(points) -> np.ndarray:
    """Point of the Euclidean convex hull closest to the origin (Wolfe's method).

    Maintains an affinely independent active set; major cycles add the most
    violating vertex, minor cycles walk back into the simplex.  Terminates
    when the duality gap <z, z> - min_i <z, p_i> is at most 1e-10 (relative
    to max(1, <z, z>)), or after 16 (N + d) + 64 major cycles; returns the
    zero vector when the hull contains the origin.

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
    start = int(np.argmin(np.einsum("nd,nd->n", P, P)))
    active = [start]
    w = np.array([1.0])
    z = P[start].copy()
    for _ in range(16 * (P.shape[0] + P.shape[1]) + 64):
        dots = P @ z
        zz = float(z @ z)
        j = int(np.argmin(dots))
        if zz - dots[j] <= 1e-10 * max(1.0, zz):
            break
        if j in active:
            break
        active.append(j)
        w = np.append(w, 0.0)
        while True:
            A = P[active]
            v = _affine_minimizer(A)
            if np.all(v > 1e-12):
                w = v
                break
            drop = v <= 1e-12
            theta = float(np.min(w[drop] / (w[drop] - v[drop])))
            w = (1.0 - theta) * w + theta * v
            keep = w > 1e-12
            if not np.any(keep):
                keep[int(np.argmax(w))] = True
            active = [a for a, k in zip(active, keep) if k]
            w = w[keep]
            w = w / w.sum()
        z = w @ P[active]
    if float(z @ z) <= 1e-24:
        return np.zeros(P.shape[1])
    return z


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


def _householder_to_base(u: np.ndarray) -> np.ndarray:
    """Orthogonal map sending the unit vector u to the last-axis unit vector."""
    d = u.shape[0]
    e = np.zeros(d)
    e[-1] = 1.0
    v = u - e
    nv2 = float(v @ v)
    if nv2 < 1e-26:
        return np.eye(d)
    return np.eye(d) - 2.0 * np.outer(v, v) / nv2


class NoHemisphereError(ValueError):
    """Spherical hull operations require an open-hemisphere certificate."""


def hull_diameter_check(space: Space, cloud, hull_samples: int, seed: int):
    """Sampled diameter of the cloud and of a dense hull sample; the hull one
    must never exceed the first beyond numeric tolerance.

    Hull samples are random convex combinations in the projected model mapped
    back to the space, plus the original samples themselves.  Spherical clouds
    must have sampled diameter at most pi/2.
    """
    if hull_samples < 1:
        raise ValueError(f"hull_samples must be at least 1, got {hull_samples}")
    pts = _as_points(cloud)
    d0, _, _ = diameter(space, pts)
    if space.curvature == SPHERICAL:
        if d0 > math.pi / 2.0 + 1e-9:
            raise ValueError(f"spherical cloud diameter {d0:.6f} exceeds pi/2")
        cert = hemisphere_center(pts)
        if cert is None:
            raise NoHemisphereError("no open-hemisphere certificate for the samples")
        pts = pts @ _householder_to_base(cert.z / np.linalg.norm(cert.z)).T
    proj = project_gnomonic(space, pts)
    rng = substream(seed)
    k = min(space.dim + 1, proj.shape[0])
    idx = rng.integers(0, proj.shape[0], size=(int(hull_samples), k))
    wts = rng.standard_exponential((int(hull_samples), k))
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
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = substream(seed)
    xs = uniform_in_ball(space, ball, rng, size=int(trials))
    ys = uniform_in_ball(space, ball, rng, size=int(trials))
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

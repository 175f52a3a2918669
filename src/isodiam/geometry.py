"""Ambient-coordinate kernel for the three model spaces of constant curvature.

The sphere S^n sits in R^{n+1} as the unit quadric of the standard scalar
product; hyperbolic space H^n is the upper sheet of the hyperboloid model,
the unit quadric of the bilinear form B(x, y) = x_e y_e - <x_0, y_0> (last
coordinate is the distinguished axis); Euclidean space is R^n itself.

Everything here is a pure function of immutable values.  Point-valued
arguments are plain float arrays of length ``ambient_dim`` and most
operations broadcast over a leading batch axis, numpy style.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .rng import _whole

SPHERICAL = 1
EUCLIDEAN = 0
HYPERBOLIC = -1

#: tolerance for quadric membership checks
POINT_TOL = 1e-10
#: tolerance on the length of a unit tangent vector
UNIT_TOL = 1e-8
#: |form value| at or below this counts as lying on a hyperplane
SIDE_TOL = 1e-12
#: unit of the rounding bounds: the gap between 1 and the next float
_EPS = float(np.finfo(float).eps)

_CURVATURE_NAMES = {SPHERICAL: "sphere", EUCLIDEAN: "euclidean", HYPERBOLIC: "hyperbolic"}


@dataclass(frozen=True)
class Space:
    """A model space of constant curvature: +1, 0 or -1, with dimension n >= 2."""

    curvature: int
    dim: int

    def __post_init__(self):
        # stored as ints, numpy's included; a bool, a fraction or a string is refused
        for name in ("curvature", "dim"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.curvature not in (-1, 0, 1):
            raise ValueError(f"curvature must be -1, 0 or +1, got {self.curvature}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")

    @property
    def ambient_dim(self) -> int:
        return self.dim if self.curvature == EUCLIDEAN else self.dim + 1

    @property
    def name(self) -> str:
        return _CURVATURE_NAMES[self.curvature]

    @property
    def base_point(self) -> np.ndarray:
        """The distinguished reference point: last-axis unit vector, or the origin."""
        e = np.zeros(self.ambient_dim)
        if self.curvature != EUCLIDEAN:
            e[-1] = 1.0
        return e

    @classmethod
    def sphere(cls, dim: int = 2) -> "Space":
        return cls(SPHERICAL, dim)

    @classmethod
    def euclidean(cls, dim: int = 2) -> "Space":
        return cls(EUCLIDEAN, dim)

    @classmethod
    def hyperbolic(cls, dim: int = 2) -> "Space":
        return cls(HYPERBOLIC, dim)


def _columns(space: Space, x, y):
    """x and y as float arrays, each with ambient_dim columns."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = space.ambient_dim
    if x.shape[-1] != d or y.shape[-1] != d:
        raise ValueError(
            f"dimension mismatch: expected length {d}, got {x.shape[-1]} and {y.shape[-1]}"
        )
    return x, y


def form(space: Space, x, y):
    """Ambient bilinear form: the scalar product, or B(x, y) when hyperbolic.

    Summed column by column, left to right (np.sum's order below 8 terms), so
    an entry gets the same bits in a batch of any shape as alone.

    Parameters
    ----------
    x, y : array-like, shape (..., ambient_dim)
        Vectors (not necessarily on the quadric).  Broadcasts over leading axes.

    Returns
    -------
    float or ndarray
    """
    x, y = _columns(space, x, y)
    # on H^n the spatial terms are negated: ((-a) + (-b)) + c has the bits
    # of c - (a + b), as rounding is symmetric in sign
    spatial = space.dim if space.curvature == HYPERBOLIC else 0
    return _add_up((-x[..., j] if j < spatial else x[..., j]) * y[..., j]
                   for j in range(space.ambient_dim))


def _add_up(terms):
    """Add the terms left to right into the first, in place."""
    total = next(terms)
    for term in terms:
        total += term
    return total


def check_point(space: Space, x) -> None:
    """Raise ValueError unless x satisfies the Point invariant of the space.

    On the hyperboloid the quadric tolerance is POINT_TOL * x_e^2, relative to
    the size of the terms of B(x, x), so points far from the pole that
    ``normalize_to_space`` returns are accepted.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != space.ambient_dim:
        raise ValueError(f"expected ambient dimension {space.ambient_dim}, got {x.shape[-1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point has non-finite coordinates")
    tol = POINT_TOL * x[..., -1] ** 2 if space.curvature == HYPERBOLIC else POINT_TOL
    if space.curvature != EUCLIDEAN and np.any(np.abs(form(space, x, x) - 1.0) > tol):
        raise ValueError(f"point is not on the {space.name} quadric within tolerance")
    if space.curvature == HYPERBOLIC and np.any(x[..., -1] < 1.0 - POINT_TOL):
        raise ValueError("point is not on the upper hyperboloid sheet")


def tangent_norm(space: Space, v):
    """Length of a tangent vector in the tangent-space inner product."""
    if space.curvature == HYPERBOLIC:
        q = -form(space, v, v)
    else:
        q = form(space, v, v)
    return np.sqrt(np.maximum(q, 0.0))


def pair_key(space: Space, x, y):
    """A key increasing in the distance of x and y, broadcasting like ``form``.

    -cos d = -form(x, y) on S^n, cosh d = B(x, y) on H^n and d^2 on R^n,
    where the coordinates are differenced before they are squared, as
    |x|^2 + |y|^2 - 2 x.y cancels for near points far from the origin.
    Summed column by column, so a pair's key has the same bits alone, in a
    batch or in a broadcast block.
    """
    if space.curvature == HYPERBOLIC:
        return form(space, x, y)
    if space.curvature == SPHERICAL:
        # (-a) + (-b) has the bits of -(a + b)
        return -form(space, x, y)
    x, y = _columns(space, x, y)
    return _add_up((x[..., j] - y[..., j]) ** 2 for j in range(space.dim))


def form_rows(space: Space, x) -> np.ndarray:
    """A fresh copy of the rows x, with the spatial part negated on H^n, so
    that one matrix product ``form_rows(space, a) @ b.T`` holds the ambient
    form of every row of a with every row of b.

    It copies on every space: numpy sends ``a @ a.T`` on one buffer to BLAS
    syrk, which rounds differently from the gemm of two buffers, so a product
    of rows with their own form rows must not share the buffer.
    """
    out = np.array(x, dtype=float)
    if space.curvature == HYPERBOLIC:
        out[..., :-1] *= -1.0
    return out


def screen_keys(space: Space, a, b):
    """Every row-of-a x row-of-b key by one matrix product, and a bound delta
    on how far each can be from its ``pair_key``.

    On S^n the product is of the negated rows of a with the rows of b, and
    on H^n of ``form_rows`` of a with them; on R^n it is of rows extended by
    their squared norms, so it sums
    |x|^2 + |y|^2 - 2 x.y.  A sum of k rounded products, in any order, errs
    by at most gamma_k ~ k eps / 2 times the sum of their sizes.  With
    d = ambient_dim, on S^n and H^n both keys are such d-term sums, of sizes
    at most |x| |y|, so they differ by at most d eps |x| |y|; on R^n
    ``pair_key`` errs by at most gamma_(d+2) |x - y|^2 and the screened key,
    whose squared norms carry gamma_d each, by (gamma_(d+2) + gamma_d)
    (|x| + |y|)^2.  delta = 4 (d + 2) eps max|x| max|y|, with
    (max|x| + max|y|)^2 on R^n, exceeds either bound at least 2.6 times,
    which absorbs the rounding of delta and of the comparisons made with it.
    The bits of a screened key depend on the shape of the product; only
    ``pair_key``'s may decide a search.
    """
    x, y = _columns(space, a, b)
    sq_x = np.einsum("nd,nd->n", x, x)
    sq_y = np.einsum("nd,nd->n", y, y)
    size_x = math.sqrt(float(sq_x.max(initial=0.0)))
    size_y = math.sqrt(float(sq_y.max(initial=0.0)))
    d = space.ambient_dim
    if space.curvature == EUCLIDEAN:
        xe = np.column_stack([-2.0 * x, sq_x, np.ones_like(sq_x)])
        ye = np.column_stack([y, np.ones_like(sq_y), sq_y])
        return xe @ ye.T, 4.0 * (d + 2) * _EPS * (size_x + size_y) ** 2
    signed = -x if space.curvature == SPHERICAL else form_rows(space, x)
    return signed @ y.T, 4.0 * (d + 2) * _EPS * size_x * size_y


def decode_key(space: Space, g):
    """The distance whose ``pair_key`` is g; keys outside the domain of arccos
    or arcosh are clamped, absorbing 1e-12-scale drift off the quadric."""
    if space.curvature == SPHERICAL:
        return np.arccos(np.clip(-g, -1.0, 1.0))
    if space.curvature == HYPERBOLIC:
        return np.arccosh(np.clip(g, 1.0, None))
    return np.sqrt(np.maximum(g, 0.0))


def key_threshold(space: Space, D: float) -> float:
    """The largest finite float g whose ``decode_key`` is at most D >= 0.

    As ``decode_key`` is non-decreasing, ``pair_key(x, y) <= key_threshold(D)``
    holds exactly when ``distance(x, y) <= D``.  Found by bisection on the
    bit patterns of the floats, ranked as integers in the order of their values.
    """
    lo, hi = _float_rank(-math.inf), _float_rank(math.inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if decode_key(space, _ranked_float(mid)) <= D:
            lo = mid
        else:
            hi = mid
    return _ranked_float(lo)


def _float_rank(g: float) -> int:
    """An integer increasing with the float g (both zeros rank 0)."""
    bits = struct.unpack("<q", struct.pack("<d", g))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _ranked_float(rank: int) -> float:
    """The float of that ``_float_rank``."""
    bits = rank if rank >= 0 else -rank | (1 << 63)
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def distance(space: Space, x, y):
    """Geodesic distance between points: ``decode_key`` of ``pair_key``."""
    return decode_key(space, pair_key(space, x, y))


def _radial(values):
    """Append a broadcast axis so scalars/batches multiply ambient vectors."""
    a = np.asarray(values, dtype=float)
    return a[..., None] if a.ndim else a


def geodesic_point(space: Space, z, u, t):
    """Point at arc length |t| along the unit-speed geodesic from z with direction u.

    Parameters
    ----------
    z : array-like, shape (..., ambient_dim)
        Base point on the quadric.
    u : array-like, shape (..., ambient_dim)
        Unit tangent vector(s) at z.
    t : float or array-like
        Arc-length parameter(s).

    Returns
    -------
    ndarray
        ``cos(t) z + sin(t) u`` on the sphere, ``cosh(t) z + sinh(t) u`` on the
        hyperboloid, ``z + t u`` in Euclidean space.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    tn = tangent_norm(space, u)
    if np.any(np.abs(tn - 1.0) > UNIT_TOL):
        raise ValueError("direction is not a unit tangent vector")
    a, b = geodesic_coeffs(space, t)
    return _radial(a) * z + _radial(b) * u


def geodesic_coeffs(space: Space, t):
    """(a, b) with a z + b u at arc length t from z along the unit tangent u:
    (cos t, sin t) on the sphere, (cosh t, sinh t) on the hyperboloid and
    (1, t) in Euclidean space; broadcasts over t."""
    if space.curvature == SPHERICAL:
        return np.cos(t), np.sin(t)
    if space.curvature == HYPERBOLIC:
        return np.cosh(t), np.sinh(t)
    return np.ones_like(t), t


def tangent_toward(space: Space, z, x):
    """Unit tangent at z pointing to x, and the distance, inverting geodesic_point.

    Raises for coincident inputs, and for antipodal spherical inputs where the
    geodesic is not unique.
    """
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    t = distance(space, z, x)
    if np.any(t < 1e-12):
        raise ValueError("coincident points have no direction")
    if space.curvature == SPHERICAL and np.any(t > math.pi - 1e-9):
        raise ValueError("antipodal points: geodesic direction is not unique")
    v = x - _radial(geodesic_coeffs(space, t)[0]) * z
    u = v / _radial(tangent_norm(space, v))
    return u, t


def normalize_to_space(space: Space, raw):
    """Rescale a raw ambient vector onto the quadric; identity on valid points.

    Hyperbolic vectors additionally get their sign fixed so the last
    coordinate is positive (upper sheet).
    """
    raw = np.asarray(raw, dtype=float)
    if space.curvature == EUCLIDEAN:
        if not np.all(np.isfinite(raw)):
            raise ValueError("non-finite input")
        return raw.copy()
    q = form(space, raw, raw)
    if space.curvature == SPHERICAL:
        if np.any(q <= 1e-30):
            raise ValueError("cannot normalize the zero vector onto the sphere")
        return raw / _radial(np.sqrt(q))
    if np.any(q <= 1e-30):
        raise ValueError("vector does not have timelike signature")
    y = raw / _radial(np.sqrt(q))
    sign = np.where(y[..., -1] < 0.0, -1.0, 1.0)
    return y * _radial(sign)


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """A totally geodesic (n-1)-subspace with a chosen positive side.

    Stored by an ambient normal vector ``p``; on the quadrics the hyperplane is
    {x : form(x, p) = 0} and in Euclidean space {x : <x, p> = offset}.  The
    closed half space H^+ is where ``orientation * (form value)`` is >= 0.
    """

    normal: np.ndarray
    orientation: int = 1
    offset: float = 0.0

    def __post_init__(self):
        normal = np.array(self.normal, dtype=float)
        normal.flags.writeable = False
        object.__setattr__(self, "normal", normal)
        if self.orientation not in (-1, 1):
            raise ValueError(f"orientation must be +1 or -1, got {self.orientation}")
        object.__setattr__(self, "offset", float(self.offset))

    def flipped(self) -> "Hyperplane":
        return Hyperplane(self.normal, -self.orientation, self.offset)


def validate_hyperplane(space: Space, h: Hyperplane) -> None:
    """Raise ValueError unless h is a valid hyperplane of the space."""
    p = h.normal
    if p.shape != (space.ambient_dim,):
        raise ValueError(f"normal must have length {space.ambient_dim}, got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"hyperplane normal must be finite, got {p.tolist()}")
    if not math.isfinite(h.offset):
        raise ValueError(f"hyperplane offset must be finite, got {h.offset}")
    q = form(space, p, p)
    if space.curvature == HYPERBOLIC:
        if q >= 0.0:
            raise ValueError("hyperbolic hyperplane normal must satisfy B(p, p) < 0")
    elif np.dot(p, p) <= 0.0:
        raise ValueError("hyperplane normal must be nonzero")
    if space.curvature != EUCLIDEAN and h.offset != 0.0:
        raise ValueError("offset is only meaningful for Euclidean hyperplanes")


def plane_eval(space: Space, h: Hyperplane, x):
    """Signed form value of x against the hyperplane (before orientation)."""
    v = form(space, x, h.normal)
    if space.curvature == EUCLIDEAN:
        return v - h.offset
    return v


def side(space: Space, h: Hyperplane, x):
    """Which closed half space contains x: +1, -1, or 0 on the hyperplane itself."""
    v = plane_eval(space, h, x)
    s = np.where(np.abs(v) <= SIDE_TOL, 0, np.sign(h.orientation * v)).astype(int)
    return int(s) if s.ndim == 0 else s


def reflect(space: Space, h: Hyperplane, x):
    """Reflected image of x through the hyperplane; renormalized to the quadric.

    An involution that fixes the hyperplane pointwise and preserves all
    pairwise geodesic distances.
    """
    p = h.normal
    v = plane_eval(space, h, x)
    q = form(space, p, p)
    y = np.asarray(x, dtype=float) - _radial(2.0 * v / q) * p
    if space.curvature == EUCLIDEAN:
        return y
    return normalize_to_space(space, y)


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed geodesic ball; radius is capped at pi on the sphere.

    Radius exactly pi (the whole sphere) is admitted so that bounding
    envelopes can degrade gracefully; region documents stay strictly below.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.array(self.center, dtype=float)
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))


def validate_ball(space: Space, b: Ball) -> None:
    """Raise ValueError unless b is a valid ball of the space."""
    check_point(space, b.center)
    if not math.isfinite(b.radius):
        raise ValueError(f"ball radius must be finite, got {b.radius}")
    if b.radius <= 0.0:
        raise ValueError(f"ball radius must be positive, got {b.radius}")
    if space.curvature == SPHERICAL and b.radius > math.pi:
        raise ValueError(f"spherical ball radius must be at most pi, got {b.radius}")


def bisector(space: Space, x, y) -> Hyperplane:
    """Perpendicular bisector hyperplane of the segment [x, y], with x in H^+.

    On the quadrics the ambient normal is x - y: a point z is equidistant from
    x and y exactly when form(z, x - y) = 0, by the distance formulas.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = distance(space, x, y)
    if d < 1e-12:
        raise ValueError("bisector of coincident points is degenerate")
    if space.curvature == SPHERICAL and d > math.pi - 1e-9:
        raise ValueError("bisector of antipodal points is not unique")
    p = x - y
    offset = 0.0
    if space.curvature == EUCLIDEAN:
        offset = (np.dot(x, x) - np.dot(y, y)) / 2.0
    h = Hyperplane(p, 1, offset)
    if plane_eval(space, h, x) < 0.0:
        h = h.flipped()
    return h


def project_gnomonic(space: Space, x):
    """Central projection x -> x / x_e into the affine plane through the base point.

    Geodesic segments map to straight Euclidean segments, hyperbolic space maps
    into the open unit ball of the plane, and the identity is returned for
    Euclidean input (the space is its own affine model).  Spherical points must
    lie in the open hemisphere around the base point.
    """
    x = np.asarray(x, dtype=float)
    if space.curvature == EUCLIDEAN:
        return x.copy()
    w = x[..., -1]
    if space.curvature == SPHERICAL and np.any(w <= 1e-12):
        raise ValueError("spherical point outside the open hemisphere around the base point")
    return x / _radial(w)


def sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


#: powers of h^2 computed for the mass series, enough below _SERIES_MAX for n <= 60
_SERIES_TERMS = 40
#: below this radius the mass comes from its Taylor series: the closed forms
#: cancel near 0 (on S5, 3.5e-14 relative at 0.3, where a switch at 0.25 left
#: them, and all digits at 1e-6).  Every row of the campaign's S3 and H3
#: balls (radii 0.18 to 0.78) is below it, so their solves run the series
#: alone: 13-16 ms for 1e5 draws at 0.6 (x86-64, numpy 2.4).
_SERIES_MAX = 0.8
#: cap on the iteration, which takes 2 to 8 steps on 1e5 draws at r from 0.3 to 3.1
_MAX_STEPS = 64
#: Halley's error is about cubic in the last step, so a step below 1e-6 of h
#: (the radius, or on the sphere the distance to the antipode if nearer) and
#: of 1/k leaves an error far below one ulp; far out on H^n, where the mass
#: grows like e^(k h), 1e-6 of h alone left an ulp (H3 at 20)
_STEP_TOL = 1e-6


@functools.lru_cache(maxsize=None)
def _mass_series(curvature: int, k: int) -> tuple:
    """c_j with  int_0^h sin^k (or sinh^k) = h^(k+1) * sum_j c_j h^(2j).

    The coefficients of (sin s / s)^k, or (sinh s / s)^k, integrated termwise,
    up to the last whose term at h = _SERIES_MAX exceeds 2^-56 of the first:
    8 for n = 2, 13 for n = 5 and 17 for n = 10, where 12 lost 1.9e-11.
    """
    base = np.array([(-curvature) ** j / math.factorial(2 * j + 1)
                     for j in range(_SERIES_TERMS)])
    power = np.zeros(_SERIES_TERMS)
    power[0] = 1.0
    for _ in range(k):
        power = np.convolve(power, base)[:_SERIES_TERMS]
    coeffs = power / (k + 1 + 2 * np.arange(_SERIES_TERMS))
    size = np.abs(coeffs) * _SERIES_MAX ** (2 * np.arange(_SERIES_TERMS))
    return tuple(coeffs[:np.flatnonzero(size > 2.0 ** -56 * coeffs[0])[-1] + 1])


def _radial_mass(space: Space, h: np.ndarray):
    """int_0^h f for the radial density f = sin^k, sinh^k or t^k, k = n - 1,
    at radii h (a 1-d array), with (sn, cs) = (sin h, cos h), (sinh h, cosh h)
    or (h, 1), so that f = sn^k and f'/f = k cs / sn.

    R^n: h^n / n.  S^n and H^n: the closed forms h (k even) or 2 sin^2(h/2),
    2 sinh^2(h/2) (k odd, where 1 - cos h cancels), raised by the reduction
    formula M_j = +-((j-1)/j M_(j-2) - sn^(j-1) cs / j), then a series on
    the rows below a switch radius, which alone is computed when every row is
    below it, as at the campaign's radii: the Taylor series below
    _SERIES_MAX, except on S^n for n > 5, where the reduction formula cancels
    up to pi/2 and ``_beta_mass`` takes every row below it.  Where both
    branches have rows, the closed forms run on every row: computing each
    branch on its own rows alone cost more, in indexing.
    """
    k = space.dim - 1
    if space.curvature == EUCLIDEAN:
        return h ** (k + 1) / (k + 1), h, np.ones_like(h)
    sign, sin, cos = (1.0, np.sin, np.cos) if space.curvature == SPHERICAL else (
        -1.0, np.sinh, np.cosh)
    sn, cs = sin(h), cos(h)
    if space.curvature == SPHERICAL and k > 4:
        switch, series = math.pi / 2, _beta_mass
    else:
        switch, series = _SERIES_MAX, functools.partial(_series_mass, space.curvature)
    small = h < switch
    if small.all():
        return series(k, h), sn, cs
    mass, power = (2.0 * sin(0.5 * h) ** 2, sn * sn) if k % 2 else (h, sn)
    for j in range(k % 2 + 2, k + 1, 2):
        mass = sign * ((j - 1) / j * mass - power * cs / j)
        power = power * sn * sn
    mass[small] = series(k, h[small])
    return mass, sn, cs


def _beta_mass(k: int, h: np.ndarray) -> np.ndarray:
    """int_0^h sin^k on S^n, n > 5, for h below pi/2, by a series of positive terms.

    With y = sin^2(h/2), the mass is 2^k B(y; (k+1)/2, (k+1)/2), and the
    hypergeometric form of the incomplete beta function (DLMF 8.17) makes it
    sin^(k+1) h / (k+1) * 2F1(k+1, 1; (k+3)/2; y), summed until a term falls
    below 2^-56 of the sum: 63 to 81 terms for n = 6..24, as y <= 1/2.
    Above n = 5 the Taylor series and the reduction formula both cancel near
    h = 1 (2.7e-14 on S16 at 0.8, and 3e-15 at the best switch between them);
    this leaves about (k + 1) / 2 ulps, what the rounding of h itself costs,
    as h M'(h) / M(h) is near k + 1.
    """
    y = np.sin(0.5 * h) ** 2
    term = np.ones_like(h)
    total = np.ones_like(h)
    i = 0
    while np.any(term > 2.0 ** -56 * total):
        term *= (k + 1 + i) / (0.5 * (k + 3) + i) * y
        total += term
        i += 1
    return np.sin(h) ** (k + 1) / (k + 1) * total


def _series_mass(curvature: int, k: int, h: np.ndarray) -> np.ndarray:
    """h^(k+1) * sum_j c_j h^(2j) by Horner's rule in place, with the bits of
    np.polynomial.polynomial.polyval at a fraction of its cost."""
    coeffs = _mass_series(curvature, k)
    h2 = h * h
    acc = np.full_like(h, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= h2
        acc += c
    return h ** (k + 1) * acc


def _radius_solve(space: Space, r: float, u: np.ndarray) -> np.ndarray:
    """Radii t in [0, r] with int_0^t f = u int_0^r f, for the radial density f.

    Newton's method with Halley's second-order correction, kept inside a
    bracket: a step that leaves it, or has no slope to follow, bisects it.
    The seed is r u^(1/n) corrected by the first curvature term.  On the
    sphere a radius past pi/2 is measured from the antipode, so draws near a
    rim close to pi keep their digits.  Each row stops at the step where it
    converges, so its bits do not depend on the rows solved with it; the
    steps run on every row of u and update the live ones.
    """
    n = space.dim
    k = n - 1
    curvature = space.curvature
    if curvature == SPHERICAL and r > math.pi / 2:
        # int_0^r f = int_0^pi f - int_r^pi f, each from the half nearer 0
        beyond, half = _radial_mass(space, np.array([math.pi - r, math.pi / 2]))[0]
        total, fold = 2.0 * half - beyond, math.pi / 2
    else:
        total, beyond, fold = _radial_mass(space, np.array([r]))[0][0], 0.0, math.inf
    share = u * total
    # past the fold the residual is (1 - u) int_0^r f + int_r^pi f - int_t^pi f
    rest = (1.0 - u) * total + beyond
    lo = np.zeros_like(u)
    hi = np.full_like(u, r)
    # the Euclidean quantile, corrected by the first curvature term of the mass
    # t^n / n * (1 - K k n t^2 / (6 (n + 2))), by at most half (S^n near pi)
    seed = r * u ** (1.0 / n)
    t = np.minimum(seed * np.maximum(1 + curvature * k * (seed * seed - r * r) / (6.0 * (n + 2)),
                                     0.5), r)
    live = np.ones(u.shape, dtype=bool)
    for _ in range(_MAX_STEPS):
        far = t > fold
        h = np.where(far, math.pi - t, t)
        m, sn, cs = _radial_mass(space, h)
        g = np.where(far, rest - m, m - share)
        cs = np.where(far, -cs, cs)
        lo = np.where(g <= 0.0, t, lo)
        hi = np.where(g >= 0.0, t, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = g / sn ** k
            step = t - d / (1.0 - 0.5 * k * d * cs / sn)
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        moving = np.abs(step - t) > _STEP_TOL * np.minimum(h, 1.0 / k)
        t = np.where(live, step, t)
        live &= moving
        if not live.any():
            break
    return t


def _radial_coeffs(space: Space, r: float, u: np.ndarray):
    """Coefficients (a, b) of the draws a * center + b * direction in a ball
    of radius r, at radius quantiles u, row by row.

    ``geodesic_coeffs`` of the draw's radius t: the exact inverse CDF of the
    radial density at u, which on S^n and H^n, n >= 3, is ``_radius_solve``'s.
    """
    n = space.dim
    if space.curvature == EUCLIDEAN:
        return 1.0, r * u ** (1.0 / n)
    if n == 2:
        # t = 2 asin(sqrt(u) sin(r/2)) or 2 asinh(sqrt(u) sinh(r/2)), through
        # 1 - cos t = 2 sin^2(t/2) and cosh t - 1 = 2 sinh^2(t/2)
        if space.curvature == SPHERICAL:
            v = u * math.sin(r / 2.0) ** 2
            return 1.0 - 2.0 * v, 2.0 * np.sqrt(v * (1.0 - v))
        v = u * math.sinh(r / 2.0) ** 2
        return 1.0 + 2.0 * v, 2.0 * np.sqrt(v * (1.0 + v))
    return geodesic_coeffs(space, _radius_solve(space, r, u))


def ball_volume(space: Space, r: float) -> float:
    """Volume of a geodesic ball of radius r: the surface measure of the unit
    (n-1)-sphere times ``_radial_mass`` at r.  Raises ValueError on overflow.

    Against a 40-digit reference the relative error is at most 5.9e-16 for
    n = 2..5 (r from 1e-6 to 3.1, to 20 on H^n), and on S^n for n = 6..16 at
    most 1.8e-15 (S16).  About 30 us a call.
    """
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"radius must be finite, got {r}")
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    if space.curvature == SPHERICAL and r > math.pi + 1e-12:
        raise ValueError(f"spherical radius must be at most pi, got {r}")
    h = min(r, math.pi) if space.curvature == SPHERICAL else r
    with np.errstate(over="ignore", invalid="ignore"):
        vol = sphere_area(space.dim) * float(_radial_mass(space, np.array([h]))[0][0])
    if not math.isfinite(vol):
        raise ValueError(f"ball volume overflows at radius {r}")
    return vol


def equal_volume_radius(space: Space, volume: float) -> float:
    """Radius r with ball_volume(r) = volume: ``_radius_solve`` on [0, hi],
    where hi's mass covers m = volume / sphere_area(n).  S^n: pi, which a
    volume of the whole sphere or more solves to; R^n: (n m)^(1/n), the answer;
    H^n: the lesser of that, as sinh t >= t, and 1/k + asinh((k m)^(1/k)),
    k = n - 1, as int_(t-1/k)^t sinh^k >= sinh^k(t - 1/k) / k, lest sinh
    overflow; its mass is within a factor of about e of m.
    """
    volume = float(volume)
    if not (math.isfinite(volume) and volume > 0.0):
        raise ValueError(f"volume must be finite and positive, got {volume}")
    n = space.dim
    m = volume / sphere_area(n)
    hi = math.pi if space.curvature == SPHERICAL else (n * m) ** (1.0 / n)
    if space.curvature == HYPERBOLIC:
        hi = min(hi, 1.0 / (n - 1) + math.asinh(((n - 1) * m) ** (1.0 / (n - 1))))
    with np.errstate(over="ignore"):  # sinh^2 past radius 355, unused for n = 2
        u = m / _radial_mass(space, np.array([hi]))[0][0]
        return float(_radius_solve(space, hi, np.array([u]))[0])


def frame(space: Space, z) -> np.ndarray:
    """Symmetric ambient isometry F with F e = z, where e is the base point.

    Rows 0..n-1 of F are an orthonormal tangent frame at z (orthonormal in
    the ambient scalar product, or in -B on the hyperboloid).  Closed forms:

    - H^n: the Lorentz boost [[I + zb zb^T / (1 + z_e), zb], [zb^T, z_e]],
      where zb holds the first n coordinates (Ratcliffe, Foundations of
      Hyperbolic Manifolds, section 3.1);
    - S^n: the Householder reflection I - 2 v v^T / |v|^2 with v = z - e,
      its own inverse; v_e = z_e - 1 is taken as -|zb|^2 / (1 + z_e) when
      z_e > 0, where the difference would cancel;
    - R^n, and z equal to e: the identity, which is also returned when |zb|^2
      underflows, where the reflection's v v^T / |v|^2 would divide 0 by 0.

    z is one point, shape (d,), for F of shape (d, d), or a batch, shape
    (..., d), for one F per point, shape (..., d, d), each with the bits of
    that point's own F.
    """
    d = space.ambient_dim
    z = np.asarray(z, dtype=float)
    check_point(space, z)
    zs = z.reshape(-1, d)
    f = np.eye(d)[None].repeat(zs.shape[0], axis=0)
    if space.curvature == EUCLIDEAN:
        return f.reshape(z.shape + (d,))
    zb, ze = zs[:, :-1], zs[:, -1]
    q = _dot_rows(zb, zb)
    if space.curvature == HYPERBOLIC:
        f[:, :-1, :-1] += zb[:, :, None] * zb[:, None, :] / (1.0 + ze)[:, None, None]
        f[:, :-1, -1] = f[:, -1, :-1] = zb
        f[:, -1, -1] = ze
    else:
        v = zs.copy()
        v[:, -1] = np.divide(-q, 1.0 + ze, out=ze - 1.0, where=ze > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # rows reset below
            f -= v[:, :, None] * v[:, None, :] * (2.0 / _dot_rows(v, v))[:, None, None]
    f[(ze > 0.0) & (q < np.finfo(float).tiny)] = np.eye(d)
    return f.reshape(z.shape + (d,))


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_i . b_i, each through numpy's kernel for the 1-D product
    a_i @ b_i (BLAS ddot, which may fuse multiply and add), so a row has the
    same bits in a batch as alone."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def random_unit_tangent(space: Space, z, rng: np.random.Generator, size: int | None = None):
    """Uniform random unit tangent vector(s) at z.

    Normal coefficients, scaled to unit length, on the closed-form tangent
    frame ``frame(space, z)[:n]``.
    """
    basis = frame(space, z)[:space.dim]
    m = 1 if size is None else int(size)
    coeffs = rng.standard_normal((m, space.dim))
    # the squares summed column by column, left to right: the bits of
    # np.linalg.norm(axis=1) for n < 8, at a fraction of its cost
    coeffs /= np.sqrt(_add_up(coeffs[:, j] * coeffs[:, j] for j in range(space.dim)))[:, None]
    u = coeffs @ basis
    return u[0] if size is None else u

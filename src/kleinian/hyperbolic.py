"""Upper half-plane model of the hyperbolic plane.

Points live in {z : Im z > 0}, isometries are real unimodular 2x2 matrices
acting by Mobius transformations, and the visual boundary is R u {oo}.
Boundary arcs are parametrised by the angle on the unit circle obtained from
the Cayley transform z -> (z - i)/(z + i), which maps the boundary
counterclockwise (increasing real coordinate sweeps increasing angle, with
oo at angle 0).  Each formula (action, distance, angles, directions, Busemann,
shadows) is one batch kernel at the end; the scalar primitives are its
one-row calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TOL = 1e-9
_TWO_PI = 2.0 * math.pi
_HALF_ROUNDS = 2.0 ** -1021  # below it t / 2 rounds, and 2 asinh(t / 2) = t


def _fold_angle(theta):
    """theta mod 2*pi in [0, 2*pi); % alone gives 2*pi for a tiny negative theta."""
    theta = theta % _TWO_PI
    return theta * (theta < _TWO_PI)


@dataclass(frozen=True)
class Point:
    """A point of the upper half-plane."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("point coordinates must be finite")
        if self.im <= 0.0:
            raise ValueError("point must have positive imaginary part")

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


#: Conventional origin used throughout: the point i.
ORIGIN = Point(0.0, 1.0)


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the boundary circle R u {oo}; value=inf encodes oo."""

    value: float

    def __post_init__(self):
        if math.isnan(self.value):
            raise ValueError("boundary coordinate must not be NaN")
        if math.isinf(self.value):
            # +oo and -oo are the same boundary point.
            object.__setattr__(self, "value", math.inf)

    @property
    def is_infinity(self) -> bool:
        return math.isinf(self.value)


INFINITY = BoundaryPoint(math.inf)


def boundary_angle(xi: BoundaryPoint) -> float:
    """Circle angle in [0, 2*pi) of a boundary point: :func:`boundary_angles`."""
    return float(boundary_angles(xi.value))


def boundary_from_angle(theta: float) -> BoundaryPoint:
    """Inverse of :func:`boundary_angle`: :func:`boundary_values` of theta."""
    return BoundaryPoint(float(boundary_values(_fold_angle(theta))))


class NonInvertibleMatrix(ValueError):
    pass


@dataclass(frozen=True)
class Isometry:
    """An orientation-preserving isometry, i.e. an element of PSL(2, R).

    The stored matrix is normalised to determinant 1 and to the canonical
    sign of :func:`canonical_signs`, so M and -M hash and compare equal.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        a, b, c, d = float(self.a), float(self.b), float(self.c), float(self.d)
        det = a * d - b * c
        if not math.isfinite(det) or det <= 0.0:
            raise NonInvertibleMatrix(f"matrix must have positive determinant, got {det}")
        s = math.sqrt(det)
        for name, value in zip("abcd", canonical_signs(a / s, b / s, c / s, d / s)):
            object.__setattr__(self, name, value)

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(1.0, 0.0, 0.0, 1.0)

    def matrix(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def compose(self, other: "Isometry") -> "Isometry":
        return Isometry(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __matmul__ = compose

    def inverse(self) -> "Isometry":
        return Isometry(self.d, -self.b, -self.c, self.a)

    def trace(self) -> float:
        return self.a + self.d

    def is_identity(self, tol: float = _TOL) -> bool:
        return abs(self.b) < tol and abs(self.c) < tol and abs(self.a - 1.0) < tol

    def apply(self, x: Point) -> Point:
        """The image of x: :func:`apply_many` on one matrix."""
        re, im = apply_many((((self.a, self.b), (self.c, self.d)),), x)
        return Point(float(re[0]), float(im[0]))

    def apply_boundary(self, xi: BoundaryPoint) -> BoundaryPoint:
        """The image of xi: :func:`apply_boundary_many` on one matrix."""
        return BoundaryPoint(float(apply_boundary_many(
            ((self.a, self.b), (self.c, self.d)), xi.value)))

    def classify(self) -> str:
        """One of 'identity', 'elliptic', 'parabolic', 'hyperbolic'."""
        t = abs(self.trace())
        if t > 2.0 + _TOL:
            return "hyperbolic"
        if t < 2.0 - _TOL:
            return "elliptic"
        return "identity" if self.is_identity() else "parabolic"

    def fixed_points(self):
        """Boundary fixed points.

        Hyperbolic elements give the ordered pair (attracting, repelling),
        parabolic elements a single point.  Elliptic elements and the
        identity are rejected.
        """
        kind = self.classify()
        if kind not in ("hyperbolic", "parabolic"):
            raise ValueError(f"no boundary fixed points for {kind} isometry")
        if kind == "parabolic":
            return INFINITY if abs(self.c) < _TOL else BoundaryPoint(
                (self.a - self.d) / (2.0 * self.c))
        pair = hyperbolic_fixed_points(((self.a, self.b), (self.c, self.d)))
        return tuple(BoundaryPoint(float(xi)) for xi in pair)

    def translation_length(self) -> float:
        """Displacement along the axis of a hyperbolic isometry."""
        if self.classify() != "hyperbolic":
            raise ValueError("translation length requires a hyperbolic isometry")
        return 2.0 * math.acosh(abs(self.trace()) / 2.0)


def distance(x: Point, y: Point) -> float:
    """Hyperbolic distance: :func:`distances_many` of one point."""
    return float(distances_many(x, np.array([y.re]), np.array([y.im]))[0])


def busemann(xi: BoundaryPoint, x1: Point, x2: Point) -> float:
    """Busemann cocycle: lim_{z -> xi} d(x1, z) - d(x2, z): :func:`busemann_many`.

    Sign convention pinned by the defining limit: moving x1 towards xi
    decreases the value.  For xi = oo this is ln(Im x2 / Im x1).
    """
    return float(busemann_many(xi.value, x1, x2))


@dataclass(frozen=True)
class BoundaryInterval:
    """A nonempty arc of the boundary circle, from angle lo counterclockwise
    to angle hi (angles in the Cayley-at-i parametrisation)."""

    lo_angle: float
    hi_angle: float
    full: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo_angle", _fold_angle(self.lo_angle))
        object.__setattr__(self, "hi_angle", _fold_angle(self.hi_angle))

    @staticmethod
    def full_circle() -> "BoundaryInterval":
        return BoundaryInterval(0.0, _TWO_PI, full=True)

    @property
    def lo(self) -> BoundaryPoint:
        return boundary_from_angle(self.lo_angle)

    @property
    def hi(self) -> BoundaryPoint:
        return boundary_from_angle(self.hi_angle)

    def width(self) -> float:
        if self.full:
            return _TWO_PI
        w = (self.hi_angle - self.lo_angle) % _TWO_PI
        return w if w > 0.0 else _TWO_PI

    def contains_angle(self, theta: float) -> bool:
        if self.full:
            return np.ones_like(theta, dtype=bool) if np.ndim(theta) else True
        return (theta - self.lo_angle) % _TWO_PI <= self.width()

    def contains(self, xi: BoundaryPoint) -> bool:
        return self.contains_angle(boundary_angle(xi))

    def complement(self) -> "BoundaryInterval":
        if self.full:
            raise ValueError("full circle has empty complement")
        return BoundaryInterval(self.hi_angle, self.lo_angle)


def boundary_at_angle(x: Point, theta: float) -> BoundaryPoint:
    """Boundary point at angle theta of the disk at x: :func:`boundary_values_at`."""
    return BoundaryPoint(float(boundary_values_at(x, _fold_angle(theta))))


def direction_from(x: Point, p: Point) -> BoundaryPoint:
    """Endpoint of the geodesic ray from x through p: :func:`directions_many`."""
    if p == x:
        raise ValueError("direction undefined: p coincides with x")
    return BoundaryPoint(float(directions_many(x, np.float64(p.re), np.float64(p.im))))


def direction_angle_from(x: Point, p: Point) -> float:
    """The angle in [0, 2*pi) of p in the disk at x: :func:`disk_angles_many`."""
    if p == x:
        raise ValueError("direction undefined: p coincides with x")
    return float(_fold_angle(disk_angles_many(x, np.float64(p.re), np.float64(p.im))))


def shadow(x: Point, y: Point, r: float) -> BoundaryInterval:
    """Arc of directions xi such that the ray [x, xi) meets the ball B(y, r):
    :func:`shadow_arcs`, or the full boundary when d(x, y) <= r."""
    if r <= 0.0:
        raise ValueError("shadow radius must be positive")
    re, im = np.array([y.re]), np.array([y.im])
    d = distances_many(x, re, im)
    if d[0] <= r:
        return BoundaryInterval.full_circle()
    lo, hi = shadow_arcs(x, re, im, d, r)
    return BoundaryInterval(float(lo[0]), float(hi[0]))


# ---------------------------------------------------------------------------
# Batch kernels over arrays of orbit points.


def frames_many(mats, x: Point, y: Point) -> tuple[np.ndarray, ...]:
    """Entries (F11, F12, F21, F22) of the frames F = K_x m K_y^-1 of (..., 2,
    2) matrices m, K_p: z -> (z - Re p) / Im p; F sends i to K_x(m.y), at
    d(x, m.y).  With u = a - c Re x (a at x = i), r = sqrt(Im y / Im x), s =
    sqrt(Im x Im y), F = (u r, (u Re y + b - d Re x) / s; c s, (c Re y + d) / r)."""
    mats = np.asarray(mats, dtype=np.float64)
    a, b, c, d = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]
    sx, sy = math.sqrt(x.im), math.sqrt(y.im)
    r, s = sy / sx, sx * sy
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: infinitely far
        if x != ORIGIN:
            a, b = a - x.re * c, b - x.re * d
        return a * r, (a * y.re + b) / s, c * s, (c * y.re + d) / r


def apply_many(mats, p: Point) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) arrays of the images of p under (n, 2, 2) unimodular m: the
    frames N = m K_p^-1 (:func:`frames_many` at x = i) send i to m.p, so Im =
    1 / (N21^2 + N22^2) and Re = (N11 N21 + N12 N22) Im, and neither cancels
    far from p.  :meth:`Isometry.apply` is its one-row call."""
    n11, n12, n21, n22 = frames_many(mats, ORIGIN, p)
    # Past double precision an image lies at Im 0: infinitely far.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        im = 1.0 / (n21 * n21 + n22 * n22)
        return (n11 * n21 + n12 * n22) * im, im


def distances_many(x: Point, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Hyperbolic distances from x to the points z = (re, im): 2 asinh(t / 2)
    with t = |x - z| / (sqrt(Im x) sqrt(Im z)), where nothing cancels, near 0
    included.  :func:`distance` is its one-row call."""
    # Overflow to inf is fine: such points are infinitely far.  So is a
    # point whose imaginary part underflowed to 0: it is dropped at inf.
    with np.errstate(over="ignore", divide="ignore"):
        return _twice_asinh_half(np.hypot(re - x.re, im - x.im)
                                 / (math.sqrt(x.im) * np.sqrt(im)))


def origin_distances_many(mats, x: Point = ORIGIN, y: Point = ORIGIN) -> np.ndarray:
    """Distances d(x, m.y) for (n, 2, 2) unimodular m, from the frames F of
    :func:`frames_many` (m itself at x = y = i), which move i by d: 4
    sinh^2(d / 2) = (F11 - F22)^2 + (F12 + F21)^2."""
    mats = np.asarray(mats)
    a, b, c, d = (frames_many(mats, x, y) if (x, y) != (ORIGIN, ORIGIN)
                  else (mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]))
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: outside every ball
        return _twice_asinh_half(np.hypot(a - d, b + c))


def conjugates_many(mats, entries) -> np.ndarray:
    """c^-1 m c for (n, 2, 2) matrices m and the entries (a, b, c, d) of a
    unimodular c; OverflowError where a product leaves double precision."""
    a, b, c, d = entries
    with np.errstate(all="ignore"):  # checked below
        out = np.array([[[d, -b], [-c, a]]]) @ mats @ np.array([[[a, b], [c, d]]])
    if not np.isfinite(out).all():
        raise OverflowError("a conjugate of these matrices leaves double precision")
    return out


def canonical_signs(a, b, c, d):
    """The entries (a, b, c, d) of matrices, elementwise, negated where the
    first of a, b, c beyond _TOL in size (of integers, the first nonzero one)
    is negative: one form of M and -M.  :class:`Isometry` is its one-row call."""
    k = 1 - 2 * ((a < -_TOL) | ((abs(a) <= _TOL) & ((b < -_TOL)
                                                      | ((abs(b) <= _TOL) & (c < -_TOL)))))
    return a * k, b * k, c * k, d * k


def _twice_asinh_half(t: np.ndarray) -> np.ndarray:
    """2 asinh(t / 2), and t itself below _HALF_ROUNDS, where t / 2 rounds."""
    d = 0.5 * t
    np.arcsinh(d, out=d)
    d *= 2.0
    np.copyto(d, t, where=t < _HALF_ROUNDS)
    return d


def disk_points_many(x: Point, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The points (re, im) in the disk model centred at x, as complex numbers."""
    q = ((re - x.re) + 1j * im) / x.im
    return (q - 1j) / (q + 1j)


def disk_angles_many(x: Point, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Angles in [-pi, pi] of the points (re, im) in the disk model centred at x."""
    w = disk_points_many(x, re, im)
    return np.arctan2(w.imag, w.real)


def boundary_values(theta: np.ndarray) -> np.ndarray:
    """Boundary coordinates -cot(theta / 2) at the circle angles theta, inf for oo."""
    s = np.sin(theta / 2.0)
    with np.errstate(all="ignore"):
        xi = -np.cos(theta / 2.0) / s
    return np.where(s == 0.0, np.inf, xi)


def boundary_angles(xi: np.ndarray) -> np.ndarray:
    """Circle angles in [0, 2*pi) of the boundary coordinates xi, +-inf for
    oo: xi = -cot(theta / 2), so (cos theta, sin theta) is a positive
    multiple of (xi^2 - 1, -2 xi)."""
    with np.errstate(over="ignore", invalid="ignore"):
        xi2 = xi * xi
        angles = _fold_angle(np.arctan2(-2.0 * xi, xi2 - 1.0))
    # Past |xi| = 1e154 xi^2 overflows; the angle is 0 there, as at infinity.
    return np.where(np.isinf(xi2), 0.0, angles)


def apply_boundary_many(mats, xi: np.ndarray) -> np.ndarray:
    """Images of the boundary coordinates xi (+-inf for oo) under a stack of
    (..., 2, 2) matrices, inf for oo."""
    mats = np.asarray(mats, dtype=np.float64)
    a, b, c, d = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]
    with np.errstate(all="ignore"):
        num, denom = a * xi + b, c * xi + d
        # Where a product overflowed, dividing through by xi keeps the image.
        big = ~(np.isfinite(num) & np.isfinite(denom))
        scale = np.where(big, 1.0 / np.abs(xi), 1.0)
        num = np.where(big, a + b / xi, num)
        denom = np.where(big, c + d / xi, denom)
        finite = np.where(np.abs(denom) < _TOL * np.maximum(scale, np.abs(num)),
                          np.inf, num / denom)
        at_inf = np.where(np.abs(c) < _TOL, np.inf, a / c)
    return np.where(np.isinf(xi), at_inf, finite)


def hyperbolic_fixed_points(mats) -> tuple[np.ndarray, np.ndarray]:
    """(attracting, repelling) boundary coordinates (inf for oo) of the fixed
    points of hyperbolic (..., 2, 2) matrices of determinant 1: the roots of
    c xi^2 + (d - a) xi - b = 0, the attracting one where the derivative
    1 / (c xi + d)^2 is below 1; for c = 0, oo and b / (d - a), with oo
    attracting where |a| > |d|.  :meth:`Isometry.fixed_points` is its one-row
    call."""
    mats = np.asarray(mats, dtype=np.float64)
    a, b, c, d = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]
    with np.errstate(all="ignore"):  # the c = 0 rows, replaced below
        disc = np.sqrt((a + d) ** 2 - 4.0)
        r1, r2 = (a - d + disc) / (2.0 * c), (a - d - disc) / (2.0 * c)
        first = (c * r1 + d) ** 2 > 1.0
        other = b / (d - a)
    flat, expands = np.abs(c) < _TOL, np.abs(a) > np.abs(d)
    return (np.where(flat, np.where(expands, np.inf, other), np.where(first, r1, r2)),
            np.where(flat, np.where(expands, other, np.inf), np.where(first, r2, r1)))


def boundary_values_at(x: Point, theta: np.ndarray) -> np.ndarray:
    """Boundary coordinates (+-inf for oo) at the angles theta of the disk at x."""
    with np.errstate(over="ignore"):
        return x.im * boundary_values(theta) + x.re


def boundary_angles_at(x: Point, theta: np.ndarray) -> np.ndarray:
    """Circle angles of the boundary points at the angles theta of the disk at x."""
    return boundary_angles(boundary_values_at(x, theta))


def directions_many(x: Point, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Boundary coordinates (+-inf for oo) of the rays from x through (re, im)."""
    return boundary_values_at(x, disk_angles_many(x, re, im))


def direction_angles_many(x: Point, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Boundary-circle angles of the ray directions from x through the
    points (re, im), in the global parametrisation of :func:`boundary_angles`;
    a point at x gets angle 0."""
    return boundary_angles(directions_many(x, re, im))


def busemann_many(xi: np.ndarray, x1: Point, x2: Point) -> np.ndarray:
    """Busemann cocycles toward the boundary coordinates xi (+-inf for oo):
    ln(Im x2 |x1 - xi|^2 / (Im x1 |x2 - xi|^2)), and ln(Im x2 / Im x1) at oo."""
    with np.errstate(invalid="ignore"):  # inf / inf at oo, replaced below
        ratio = np.hypot(x1.re - xi, x1.im) / np.hypot(x2.re - xi, x2.im)
    return np.log(x2.im / x1.im * np.where(np.isinf(xi), 1.0, ratio * ratio))


def shadow_arcs(x: Point, re, im, d, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Global angles (lo, hi) of the shadows cast from x by the balls of
    radius r about the points (re, im) at distances d > r: the arcs of
    half-width asin(sinh r / sinh d) about their directions in the disk at x."""
    phi = _fold_angle(disk_angles_many(x, re, im))
    half = np.arcsin(np.sinh(r) / np.sinh(d))
    return (boundary_angles_at(x, _fold_angle(phi - half)),
            boundary_angles_at(x, _fold_angle(phi + half)))

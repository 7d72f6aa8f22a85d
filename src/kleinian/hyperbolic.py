"""Upper half-plane model of the hyperbolic plane.

Points live in {z : Im z > 0}, isometries are real unimodular 2x2 matrices
acting by Mobius transformations, and the visual boundary is R u {oo}.
Boundary arcs are parametrised by the angle on the unit circle obtained from
the Cayley transform z -> (z - i)/(z + i), which maps the boundary
counterclockwise (increasing real coordinate sweeps increasing angle, with
oo at angle 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TOL = 1e-9
_TWO_PI = 2.0 * math.pi


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
    """Circle angle in [0, 2*pi) of a boundary point (Cayley transform at i)."""
    if xi.is_infinity:
        return 0.0
    # xi = -cot(theta/2), with theta/2 = atan2(1, -xi) in (0, pi).
    return 2.0 * math.atan2(1.0, -xi.value)


def boundary_from_angle(theta: float) -> BoundaryPoint:
    """Inverse of :func:`boundary_angle`."""
    theta = theta % _TWO_PI
    s = math.sin(theta / 2.0)
    if s == 0.0:
        return INFINITY
    return BoundaryPoint(-math.cos(theta / 2.0) / s)


class NonInvertibleMatrix(ValueError):
    pass


@dataclass(frozen=True)
class Isometry:
    """An orientation-preserving isometry, i.e. an element of PSL(2, R).

    The stored matrix is normalised to determinant 1 and to the canonical
    sign: the first entry of (a, b, c) that is not (numerically) zero is
    positive, so M and -M hash and compare equal.
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
        a, b, c, d = a / s, b / s, c / s, d / s
        for lead in (a, b, c):
            if abs(lead) > _TOL:
                if lead < 0.0:
                    a, b, c, d = -a, -b, -c, -d
                break
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

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
        z = x.as_complex()
        w = (self.a * z + self.b) / (self.c * z + self.d)
        return Point(w.real, w.imag)

    def apply_boundary(self, xi: BoundaryPoint) -> BoundaryPoint:
        if xi.is_infinity:
            if abs(self.c) < _TOL:
                return INFINITY
            return BoundaryPoint(self.a / self.c)
        denom = self.c * xi.value + self.d
        if abs(denom) < _TOL * max(1.0, abs(self.a * xi.value + self.b)):
            return INFINITY
        return BoundaryPoint((self.a * xi.value + self.b) / denom)

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
        if abs(self.c) < _TOL:
            if kind == "parabolic":
                return INFINITY
            other = BoundaryPoint(self.b / (self.d - self.a))
            if abs(self.a) > abs(self.d):  # derivative at oo is (a/d)... |a|>|d| expands
                return (INFINITY, other)
            return (other, INFINITY)
        if kind == "parabolic":
            return BoundaryPoint((self.a - self.d) / (2.0 * self.c))
        disc = math.sqrt(self.trace() ** 2 - 4.0)
        r1 = (self.a - self.d + disc) / (2.0 * self.c)
        r2 = (self.a - self.d - disc) / (2.0 * self.c)
        # |derivative| at a fixed point xi is 1/(c*xi + d)^2; attracting < 1.
        if (self.c * r1 + self.d) ** 2 > 1.0:
            return (BoundaryPoint(r1), BoundaryPoint(r2))
        return (BoundaryPoint(r2), BoundaryPoint(r1))

    def translation_length(self) -> float:
        """Displacement along the axis of a hyperbolic isometry."""
        if self.classify() != "hyperbolic":
            raise ValueError("translation length requires a hyperbolic isometry")
        return 2.0 * math.acosh(abs(self.trace()) / 2.0)


def distance(x: Point, y: Point) -> float:
    """Hyperbolic distance, d = arccosh(1 + |x-y|^2 / (2 Im x Im y))."""
    dre = x.re - y.re
    dim = x.im - y.im
    arg = 1.0 + (dre * dre + dim * dim) / (2.0 * x.im * y.im)
    return math.acosh(max(arg, 1.0))


def _to_infinity(xi: BoundaryPoint) -> Isometry:
    """An isometry sending xi to oo."""
    if xi.is_infinity:
        return Isometry.identity()
    return Isometry(0.0, -1.0, 1.0, -xi.value)


def busemann(xi: BoundaryPoint, x1: Point, x2: Point) -> float:
    """Busemann cocycle: lim_{z -> xi} d(x1, z) - d(x2, z).

    Sign convention pinned by the defining limit: moving x1 towards xi
    decreases the value.  For xi = oo this is ln(Im x2 / Im x1).
    """
    g = _to_infinity(xi)
    return math.log(g.apply(x2).im / g.apply(x1).im)


@dataclass(frozen=True)
class BoundaryInterval:
    """A nonempty arc of the boundary circle, from angle lo counterclockwise
    to angle hi (angles in the Cayley-at-i parametrisation)."""

    lo_angle: float
    hi_angle: float
    full: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo_angle", self.lo_angle % _TWO_PI)
        object.__setattr__(self, "hi_angle", self.hi_angle % _TWO_PI)

    @staticmethod
    def full_circle() -> "BoundaryInterval":
        return BoundaryInterval(0.0, _TWO_PI, full=True)

    @staticmethod
    def from_points(lo: BoundaryPoint, hi: BoundaryPoint) -> "BoundaryInterval":
        return BoundaryInterval(boundary_angle(lo), boundary_angle(hi))

    @staticmethod
    def centered(center: BoundaryPoint, half_width: float) -> "BoundaryInterval":
        theta = boundary_angle(center)
        return BoundaryInterval(theta - half_width, theta + half_width)

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

    def midpoint_angle(self) -> float:
        return (self.lo_angle + self.width() / 2.0) % _TWO_PI

    def midpoint(self) -> BoundaryPoint:
        return boundary_from_angle(self.midpoint_angle())

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

    def contains_interval(self, other: "BoundaryInterval") -> float:
        """Containment margin: min(gap at both ends); > 0 means other is
        strictly inside self.  Full circles contain everything."""
        if self.full:
            return math.inf
        if other.full:
            return -math.inf
        start_gap = (other.lo_angle - self.lo_angle) % _TWO_PI
        end_gap = self.width() - ((other.hi_angle - self.lo_angle) % _TWO_PI)
        if start_gap + other.width() > self.width():
            return -min(abs(start_gap), abs(end_gap))
        return min(start_gap, end_gap)

    def gap_to(self, other: "BoundaryInterval") -> float:
        """Minimal angular gap between two disjoint arcs (negative if they
        overlap)."""
        if self.full or other.full:
            return -math.inf
        # Overlap iff one contains an endpoint of the other.
        if (self.contains_angle(other.lo_angle) or self.contains_angle(other.hi_angle)
                or other.contains_angle(self.lo_angle)):
            return -1.0
        g1 = (other.lo_angle - self.hi_angle) % _TWO_PI
        g2 = (self.lo_angle - other.hi_angle) % _TWO_PI
        return min(g1, g2)

    def apply(self, g: Isometry) -> "BoundaryInterval":
        """Image arc; Mobius maps preserve the circular orientation."""
        if self.full:
            return self
        return BoundaryInterval.from_points(g.apply_boundary(self.lo),
                                            g.apply_boundary(self.hi))


def _to_center(x: Point) -> Isometry:
    """The isometry z -> (z - Re x)/Im x sending x to i."""
    s = math.sqrt(x.im)
    return Isometry(1.0 / s, -x.re / s, 0.0, s)


def angle_at(x: Point, xi: BoundaryPoint) -> float:
    """Angle of xi on the circle of the disk model centered at x."""
    return boundary_angle(_to_center(x).apply_boundary(xi))


def boundary_at_angle(x: Point, theta: float) -> BoundaryPoint:
    """Boundary point at the given angle of the disk model centered at x."""
    return _to_center(x).inverse().apply_boundary(boundary_from_angle(theta))


def direction_from(x: Point, p: Point) -> BoundaryPoint:
    """Endpoint of the geodesic ray from x through p."""
    return boundary_at_angle(x, direction_angle_from(x, p))


def direction_angle_from(x: Point, p: Point) -> float:
    """Like :func:`direction_from` but returns the angle in the disk at x."""
    g = _to_center(x)
    q = g.apply(p).as_complex()
    w = (q - 1j) / (q + 1j)  # Cayley: disk centered at image i
    if abs(w) == 0.0:
        raise ValueError("direction undefined: p coincides with x")
    return math.atan2(w.imag, w.real) % _TWO_PI


def shadow(x: Point, y: Point, r: float) -> BoundaryInterval:
    """Arc of directions xi such that the ray [x, xi) meets the ball B(y, r).

    In the disk model centered at x the shadow is the arc around the
    direction of y with half-width asin(sinh r / sinh d(x, y)).  Returns the
    full boundary when d(x, y) <= r.
    """
    if r <= 0.0:
        raise ValueError("shadow radius must be positive")
    d = distance(x, y)
    if d <= r:
        return BoundaryInterval.full_circle()
    half = math.asin(math.sinh(r) / math.sinh(d))
    phi = direction_angle_from(x, y)
    lo = boundary_at_angle(x, phi - half)
    hi = boundary_at_angle(x, phi + half)
    return BoundaryInterval.from_points(lo, hi)


def geodesic_point(x: Point, theta: float, t: float) -> Point:
    """Point at hyperbolic distance t along the ray from x with disk angle
    theta (in the disk model centered at x)."""
    rho = math.tanh(t / 2.0)
    w = rho * complex(math.cos(theta), math.sin(theta))
    q = 1j * (1.0 + w) / (1.0 - w)  # inverse Cayley, back to half-plane at i
    return _to_center(x).inverse().apply(Point(q.real, q.imag))


# ---------------------------------------------------------------------------
# Batch kernels over arrays of orbit points.


def apply_many(mats, p: Point) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) arrays of the images of p under a stack of (n, 2, 2)
    unimodular matrices."""
    mats = np.asarray(mats, dtype=np.float64)
    z = complex(p.re, p.im)
    w = (mats[:, 0, 0] * z + mats[:, 0, 1]) / (mats[:, 1, 0] * z + mats[:, 1, 1])
    return w.real, w.imag


def distances_many(x: Point, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Hyperbolic distances from x to the points (re, im), by the formula
    of :func:`distance`."""
    # Overflow to inf is fine: such points are infinitely far.  So is a
    # point whose imaginary part underflowed to 0: it is dropped at inf.
    with np.errstate(over="ignore", divide="ignore"):
        arg = 1.0 + ((re - x.re) ** 2 + (im - x.im) ** 2) / (2.0 * im * x.im)
    return np.arccosh(np.maximum(arg, 1.0))


def disk_points_many(x: Point, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The points (re, im) in the disk model centred at x, as complex numbers."""
    q = ((re - x.re) + 1j * im) / x.im
    return (q - 1j) / (q + 1j)


def direction_angles_many(x: Point, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Boundary-circle angles of the ray directions from x through the
    points (re, im), in the global parametrisation of :func:`boundary_angle`;
    a point at x gets angle 0."""
    w = disk_points_many(x, re, im)
    theta = np.arctan2(w.imag, w.real)  # disk angle at x
    s = np.sin(theta / 2.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xi = x.im * (-np.cos(theta / 2.0) / s) + x.re
        angles = np.arctan2(-2.0 * xi, xi * xi - 1.0) % _TWO_PI
    # A subnormal s overflows xi: the ray still ends at infinity, angle 0.
    return np.where((s == 0.0) | np.isinf(xi), 0.0, angles)

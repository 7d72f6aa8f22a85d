"""Scalar references for the batch kernels of `kleinian.hyperbolic`.

The library computes every formula (Möbius action, distance, boundary
angles, directions, shadows, fixed points) in one batch kernel, and its scalar
primitives are one-row calls of those kernels.  The tests compare
the kernels with these independent bodies instead: the same formulas in
`math`, one point at a time, moving x to i by the isometry
z -> (z - Re x) / Im x and applying matrices entry by entry.
"""

import math

from kleinian.hyperbolic import (
    INFINITY,
    BoundaryInterval,
    BoundaryPoint,
    Isometry,
    Point,
    _fold_angle,
)


def apply(g: Isometry, x: Point) -> Point:
    """The image of x under g, by the operations of `apply_many`: N = g K_x^-1
    sends i to g.x, so Im = 1 / (N21^2 + N22^2) and Re = (N11 N21 + N12 N22) Im."""
    s = math.sqrt(x.im)
    n11, n12 = g.a * s, (g.a * x.re + g.b) / s
    n21, n22 = g.c * s, (g.c * x.re + g.d) / s
    im = 1.0 / (n21 * n21 + n22 * n22)
    return Point((n11 * n21 + n12 * n22) * im, im)


def distance(x: Point, y: Point) -> float:
    """Hyperbolic distance, 2 asinh(t / 2) with t = |x - y| / (sqrt(Im x)
    sqrt(Im y)), and t itself where t / 2 would round."""
    t = math.hypot(x.re - y.re, x.im - y.im) / (math.sqrt(x.im) * math.sqrt(y.im))
    return t if t < 2.0 ** -1021 else 2.0 * math.asinh(0.5 * t)


def boundary_angle(xi: BoundaryPoint) -> float:
    """Circle angle in [0, 2*pi) of a boundary point (Cayley transform at i)."""
    if xi.is_infinity:
        return 0.0
    # xi = -cot(theta/2), with theta/2 = atan2(1, -xi) in (0, pi).
    return _fold_angle(2.0 * math.atan2(1.0, -xi.value))


def boundary_from_angle(theta: float) -> BoundaryPoint:
    """Inverse of :func:`boundary_angle`."""
    theta = theta % (2.0 * math.pi)
    s = math.sin(theta / 2.0)
    if s == 0.0:
        return INFINITY
    return BoundaryPoint(-math.cos(theta / 2.0) / s)


def apply_boundary(g: Isometry, xi: BoundaryPoint) -> BoundaryPoint:
    """The image of xi under g."""
    if xi.is_infinity:
        if abs(g.c) < 1e-9:
            return INFINITY
        return BoundaryPoint(g.a / g.c)
    x = xi.value
    num, denom, scale = g.a * x + g.b, g.c * x + g.d, 1.0
    if not (math.isfinite(num) and math.isfinite(denom)):
        # A product overflowed; dividing through by x keeps the image.
        num, denom, scale = g.a + g.b / x, g.c + g.d / x, 1.0 / abs(x)
    if abs(denom) < 1e-9 * max(scale, abs(num)):
        return INFINITY
    return BoundaryPoint(num / denom)


def fixed_points(g: Isometry) -> tuple[BoundaryPoint, BoundaryPoint]:
    """(attracting, repelling) fixed points of a hyperbolic g."""
    if abs(g.c) < 1e-9:
        other = BoundaryPoint(g.b / (g.d - g.a))
        # The derivative at oo is d / a: oo attracts where |a| > |d|.
        return (INFINITY, other) if abs(g.a) > abs(g.d) else (other, INFINITY)
    disc = math.sqrt(g.trace() ** 2 - 4.0)
    r1 = (g.a - g.d + disc) / (2.0 * g.c)
    r2 = (g.a - g.d - disc) / (2.0 * g.c)
    # |derivative| at a fixed point xi is 1/(c xi + d)^2; attracting < 1.
    if (g.c * r1 + g.d) ** 2 > 1.0:
        return BoundaryPoint(r1), BoundaryPoint(r2)
    return BoundaryPoint(r2), BoundaryPoint(r1)


def to_center(x: Point) -> Isometry:
    """The isometry z -> (z - Re x)/Im x sending x to i."""
    s = math.sqrt(x.im)
    return Isometry(1.0 / s, -x.re / s, 0.0, s)


def boundary_at_angle(x: Point, theta: float) -> BoundaryPoint:
    """Boundary point at the given angle of the disk model centered at x."""
    return apply_boundary(to_center(x).inverse(), boundary_from_angle(theta))


def direction_angle_from(x: Point, p: Point) -> float:
    """Angle in [0, 2*pi) of the ray from x through p, in the disk at x."""
    q = apply(to_center(x), p).as_complex()
    w = (q - 1j) / (q + 1j)  # Cayley: disk centered at image i
    if abs(w) == 0.0:
        raise ValueError("direction undefined: p coincides with x")
    return _fold_angle(math.atan2(w.imag, w.real))


def direction_from(x: Point, p: Point) -> BoundaryPoint:
    """Endpoint of the geodesic ray from x through p."""
    return boundary_at_angle(x, direction_angle_from(x, p))


def shadow(x: Point, y: Point, r: float) -> BoundaryInterval:
    """Arc of directions whose ray from x meets the ball B(y, r): the arc of
    half-width asin(sinh r / sinh d(x, y)) about the direction of y in the
    disk at x, or the full boundary when d(x, y) <= r."""
    d = distance(x, y)
    if d <= r:
        return BoundaryInterval.full_circle()
    half = math.asin(math.sinh(r) / math.sinh(d))
    phi = direction_angle_from(x, y)
    return BoundaryInterval(boundary_angle(boundary_at_angle(x, phi - half)),
                            boundary_angle(boundary_at_angle(x, phi + half)))

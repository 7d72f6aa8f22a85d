import math
import tracemalloc
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kleinian.hyperbolic import (
    _ROW_CHUNK,
    BoundaryInterval,
    BoundaryPoint,
    INFINITY,
    Isometry,
    ORIGIN,
    Point,
    apply_boundary_many,
    apply_many,
    boundary_angle,
    boundary_angles,
    boundary_angles_at,
    boundary_at_angle,
    boundary_from_angle,
    boundary_values,
    busemann,
    direction_angle_from,
    direction_angles_many,
    direction_from,
    distance,
    distances_many,
    hyperbolic_fixed_points,
    origin_distances_many,
    shadow,
)

import scalar_reference as ref


@pytest.fixture
def rng(request):
    """A generator of the test's own, seeded from its name, so that its
    inputs do not depend on which tests ran before it."""
    return np.random.default_rng(zlib.crc32(request.node.name.encode()))


def random_point(rng) -> Point:
    return Point(float(rng.uniform(-5, 5)), float(math.exp(rng.uniform(-2, 2))))


def to_center(x: Point) -> Isometry:
    """The isometry z -> (z - Re x)/Im x sending x to i."""
    return Isometry(1.0, -x.re, 0.0, x.im)


def angle_at(x: Point, xi: BoundaryPoint) -> float:
    """Angle of xi on the circle of the disk model centred at x."""
    return boundary_angle(to_center(x).apply_boundary(xi))


def geodesic_point(x: Point, theta: float, t: float) -> Point:
    """Point at hyperbolic distance t along the ray from x with disk angle
    theta (in the disk model centred at x)."""
    w = math.tanh(t / 2.0) * complex(math.cos(theta), math.sin(theta))
    q = 1j * (1.0 + w) / (1.0 - w)  # inverse Cayley, back to half-plane at i
    return ref.apply(to_center(x).inverse(), Point(q.real, q.imag))


def random_isometry(rng) -> Isometry:
    while True:
        a, b, c, d = rng.uniform(-2, 2, size=4)
        if a * d - b * c > 0.1:
            return Isometry(float(a), float(b), float(c), float(d))


# ---------------------------------------------------------------------------
# Distance.


def test_distance_vertical_axis_closed_form():
    for t in (0.1, 1.0, 2.5, 10.0):
        assert distance(ORIGIN, Point(0.0, math.exp(t))) == pytest.approx(t)


def test_distance_horizontal_translation_closed_form():
    # d(i, n + i) = arccosh(1 + n^2 / 2)
    for n in (1, 2, 7, 100):
        expected = math.acosh(1.0 + n * n / 2.0)
        assert distance(ORIGIN, Point(float(n), 1.0)) == pytest.approx(expected)


def test_distance_symmetry_and_identity(rng):
    for _ in range(100):
        x, y = random_point(rng), random_point(rng)
        assert distance(x, y) == pytest.approx(distance(y, x))
        assert distance(x, x) == 0.0


def test_triangle_inequality_bulk(rng):
    # All 10^6 ordered triples of 100 points, from one row of distances each.
    points = [random_point(rng) for _ in range(100)]
    re, im = np.array([p.re for p in points]), np.array([p.im for p in points])
    d = np.array([distances_many(p, re, im) for p in points])
    # d[i, k] <= d[i, j] + d[j, k] for every (i, j, k).
    assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-7)


def test_distance_isometry_invariance(rng):
    for _ in range(1000):
        g = random_isometry(rng)
        x, y = random_point(rng), random_point(rng)
        assert distance(g.apply(x), g.apply(y)) == pytest.approx(
            distance(x, y), abs=1e-9)


# ---------------------------------------------------------------------------
# Isometries.


def test_determinant_normalized_and_sign_canonical():
    g = Isometry(2.0, 0.0, 0.0, 2.0)
    assert g.is_identity()
    h1 = Isometry(3.0, 1.0, 0.0, 1.0 / 3.0)
    h2 = Isometry(-3.0, -1.0, 0.0, -1.0 / 3.0)
    assert h1 == h2


def test_compose_inverse_identity(rng):
    for _ in range(200):
        g = random_isometry(rng)
        gi = g @ g.inverse()
        assert gi.is_identity(tol=1e-9)


def test_apply_matches_mobius_formula():
    g = Isometry(2.0, 1.0, 1.0, 1.0)
    z = complex(0.5, 2.0)
    w = (g.a * z + g.b) / (g.c * z + g.d)
    p = g.apply(Point(z.real, z.imag))
    assert p.as_complex() == pytest.approx(w)


def test_apply_forms_the_frame_at_i_too():
    # N12 = (a Re p + b) / sqrt(Im p) is formed at p = i as well, where it
    # turns b = -0.0 into +0.0: Re stays +0.0, which prints as 0, not -0.
    # (The inverse of a diagonal letter has these signed zeros.)
    re, im = apply_many(np.array([[[1.0, -0.0], [-0.0, 1.0]]]), ORIGIN)
    assert (re.tobytes(), im.tobytes()) == (np.zeros(1).tobytes(), np.ones(1).tobytes())


def test_classification():
    assert Isometry(3.0, 0.0, 0.0, 1.0 / 3.0).classify() == "hyperbolic"
    assert Isometry(1.0, 1.0, 0.0, 1.0).classify() == "parabolic"
    t = 0.7
    rot = Isometry(math.cos(t), -math.sin(t), math.sin(t), math.cos(t))
    assert rot.classify() == "elliptic"
    assert Isometry.identity().classify() == "identity"


def test_fixed_points_attracting_first():
    a = Isometry(3.0, 0.0, 0.0, 1.0 / 3.0)  # z -> 9z, attracts to infinity
    att, rep = a.fixed_points()
    assert att.is_infinity
    assert rep.value == pytest.approx(0.0)
    att2, rep2 = a.inverse().fixed_points()
    assert att2.value == pytest.approx(0.0)
    assert rep2.is_infinity


def test_translation_length_equals_axis_displacement():
    a = Isometry(3.0, 0.0, 0.0, 1.0 / 3.0)
    assert a.translation_length() == pytest.approx(2.0 * math.log(3.0))
    # Displacement on the axis attains the translation length.
    assert distance(ORIGIN, a.apply(ORIGIN)) == pytest.approx(2.0 * math.log(3.0))
    # Off-axis displacement is strictly larger.
    p = Point(2.0, 1.0)
    assert distance(p, a.apply(p)) > a.translation_length()


def test_translation_length_conjugation_invariant(rng):
    a = Isometry(3.0, 0.0, 0.0, 1.0 / 3.0)
    for _ in range(50):
        c = random_isometry(rng)
        conj = c @ a @ c.inverse()
        assert conj.translation_length() == pytest.approx(
            a.translation_length(), abs=1e-9)


def test_boundary_action_pole_goes_to_infinity():
    g = Isometry(0.0, -1.0, 1.0, 0.0)  # z -> -1/z
    assert g.apply_boundary(BoundaryPoint(0.0)).is_infinity
    assert g.apply_boundary(INFINITY).value == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Boundary parametrisation.


def test_boundary_angle_round_trip():
    for xi in (-10.0, -1.0, 0.0, 0.5, 3.0, 100.0):
        theta = boundary_angle(BoundaryPoint(xi))
        back = boundary_from_angle(theta)
        assert back.value == pytest.approx(xi, abs=1e-9)
    assert boundary_angle(INFINITY) == 0.0
    assert boundary_from_angle(0.0).is_infinity


def test_boundary_angle_monotone_in_xi():
    xs = [-50.0, -2.0, 0.0, 1.0, 40.0]
    angles = [boundary_angle(BoundaryPoint(x)) for x in xs]
    assert angles == sorted(angles)


# % 2 pi alone rounds each of these angles to exactly 2 pi, which is angle 0.
@pytest.mark.parametrize("angle", [
    lambda: direction_angles_many(ORIGIN, np.array([1e-17]), np.array([2.0]))[0],
    lambda: direction_angle_from(ORIGIN, Point(1e-17, 2.0)),
    lambda: boundary_angles_at(ORIGIN, np.array([2.0 * math.pi]))[0],
    lambda: BoundaryInterval(-1e-17, 1.0).lo_angle,
    lambda: boundary_angle(BoundaryPoint(1e20)),
], ids=["direction_angles_many", "direction_angle_from", "boundary_angles_at",
        "BoundaryInterval", "boundary_angle"])
def test_angles_at_two_pi_fold_to_zero(angle):
    assert angle() == 0.0


# ---------------------------------------------------------------------------
# Busemann cocycle.


def test_busemann_at_infinity_closed_form():
    x1 = Point(3.0, 2.0)
    x2 = Point(-1.0, 0.5)
    assert busemann(INFINITY, x1, x2) == pytest.approx(math.log(0.5 / 2.0))


def test_busemann_cocycle_and_antisymmetry(rng):
    for _ in range(200):
        xi = BoundaryPoint(float(rng.uniform(-5, 5)))
        x1, x2, x3 = random_point(rng), random_point(rng), random_point(rng)
        b12 = busemann(xi, x1, x2)
        b23 = busemann(xi, x2, x3)
        b13 = busemann(xi, x1, x3)
        assert b13 == pytest.approx(b12 + b23, abs=1e-9)
        assert busemann(xi, x2, x1) == pytest.approx(-b12, abs=1e-9)


def test_busemann_is_distance_difference_limit():
    xi = BoundaryPoint(2.0)
    x1, x2 = Point(0.3, 1.0), Point(-1.0, 2.0)
    target = busemann(xi, x1, x2)
    theta = angle_at(x1, xi)
    prev_gap = None
    for t in (5.0, 10.0, 20.0):
        z = geodesic_point(x1, theta, t)
        gap = abs((distance(x1, z) - distance(x2, z)) - target)
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-3


def test_busemann_bounded_by_distance(rng):
    for _ in range(200):
        xi = BoundaryPoint(float(rng.uniform(-5, 5)))
        x1, x2 = random_point(rng), random_point(rng)
        assert abs(busemann(xi, x1, x2)) <= distance(x1, x2) + 1e-9


# ---------------------------------------------------------------------------
# Boundary intervals.


def test_interval_membership_and_width():
    arc = BoundaryInterval(0.5, 1.5)
    assert arc.width() == pytest.approx(1.0)
    assert arc.contains_angle(1.0)
    assert not arc.contains_angle(2.0)
    wrap = BoundaryInterval(6.0, 0.5)
    assert wrap.contains_angle(0.1)
    assert wrap.contains_angle(6.2)
    assert not wrap.contains_angle(3.0)


def test_interval_complement_partitions_circle():
    arc = BoundaryInterval(1.0, 2.5)
    comp = arc.complement()
    for theta in np.linspace(0.0, 2.0 * math.pi, 97):
        assert arc.contains_angle(theta) or comp.contains_angle(theta)


# ---------------------------------------------------------------------------
# Directions, shadows, geodesics.


def test_geodesic_point_distance_and_direction(rng):
    for _ in range(100):
        x = random_point(rng)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        t = float(rng.uniform(0.1, 8.0))
        p = geodesic_point(x, theta, t)
        assert distance(x, p) == pytest.approx(t, abs=1e-8)
        assert math.cos(direction_angle_from(x, p) - theta) == pytest.approx(
            1.0, abs=1e-8)


def test_direction_from_a_point_to_itself_is_undefined():
    x = Point(0.3, 1.7)
    for direction in (direction_angle_from, direction_from):
        with pytest.raises(ValueError, match="coincides"):
            direction(x, Point(0.3, 1.7))


def test_direction_round_trip_through_boundary():
    x = Point(0.7, 1.3)
    p = Point(4.0, 0.2)
    xi = direction_from(x, p)
    assert angle_at(x, xi) == pytest.approx(direction_angle_from(x, p), abs=1e-9)


def _min_distance_to_ray(x: Point, theta: float, y: Point) -> float:
    """Ternary search for min_t d(geodesic_point(x, theta, t), y)."""
    lo, hi = 0.0, ref.distance(x, y) + 5.0
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if ref.distance(geodesic_point(x, theta, m1), y) < ref.distance(
                geodesic_point(x, theta, m2), y):
            hi = m2
        else:
            lo = m1
    return ref.distance(geodesic_point(x, theta, lo), y)


def test_shadow_against_ray_shooting_oracle(rng):
    hits = 0
    for _ in range(100):
        x, y = random_point(rng), random_point(rng)
        d = ref.distance(x, y)
        r = float(rng.uniform(0.3, 2.0))
        if d <= r + 0.05:
            continue
        hits += 1
        half = math.asin(math.sinh(r) / math.sinh(d))
        phi = direction_angle_from(x, y)
        eps = 1e-3
        inside = _min_distance_to_ray(x, phi + (half - eps), y)
        outside = _min_distance_to_ray(x, phi + (half + eps), y)
        assert inside < r < outside
        arc = shadow(x, y, r)
        assert arc.contains(boundary_at_angle(x, phi + (half - eps)))
        assert not arc.contains(boundary_at_angle(x, phi + (half + eps)))
        assert arc.contains(boundary_at_angle(x, phi - (half - eps)))
        assert not arc.contains(boundary_at_angle(x, phi - (half + eps)))
    assert hits >= 50


def test_shadow_full_circle_when_inside_ball():
    assert shadow(ORIGIN, Point(0.1, 1.0), 1.0).full


def test_shadow_width_decays_like_exp_minus_distance():
    r = 1.0
    for d in (5.0, 8.0, 12.0):
        y = Point(0.0, math.exp(d))
        w = shadow(ORIGIN, y, r).width()
        # width ~ 4 sinh(r) e^{-d} for large d
        assert w * math.exp(d) == pytest.approx(4.0 * math.sinh(r), rel=0.05)


# ---------------------------------------------------------------------------
# Property-based checks.


finite_points = st.builds(
    Point,
    st.floats(-20.0, 20.0, allow_nan=False),
    st.floats(0.05, 20.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(finite_points, finite_points, finite_points)
def test_triangle_inequality_property(x, y, z):
    # Slack covers acosh roundoff for nearly collinear configurations.
    d_xy, d_xz = distances_many(x, np.array([y.re, z.re]), np.array([y.im, z.im]))
    d_yz = distances_many(y, np.array([z.re]), np.array([z.im]))[0]
    assert d_xz <= d_xy + d_yz + 1e-7


@settings(max_examples=200, deadline=None)
@given(finite_points, finite_points)
def test_distance_positive_definite(x, y):
    d = distance(x, y)
    assert d >= 0.0
    if (x.re, x.im) != (y.re, y.im):
        separated = abs(x.re - y.re) > 1e-12 or abs(x.im - y.im) > 1e-12
        if separated:
            assert d > 0.0


@pytest.mark.parametrize("gap", [1e-9, 1e-11, 1e-15])
def test_distance_resolves_points_closer_than_rounding(gap):
    # 1 + |x-y|^2 / 2 rounds to 1 here; the distance is still gap to first order.
    x, y = Point(0.0, 1.0), Point(gap, 1.0)
    assert distance(x, y) == pytest.approx(gap, rel=1e-6, abs=0)
    assert distances_many(x, np.array([gap]), np.array([1.0]))[0] == ref.distance(x, y)


def test_distances_below_the_normal_range_do_not_vanish():
    # Half of the least subnormal rounds to 0; the distance is t itself there.
    x, y = ORIGIN, Point(5e-324, 1.0)
    assert distance(x, y) == 5e-324
    assert distances_many(x, np.array([y.re]), np.array([y.im]))[0] == 5e-324


def test_distance_near_zero_does_not_cancel():
    # y = e^t i lies at exactly log(Im y) from i.  Through arccosh(1 + t)
    # the distance 2e-6 came out as 1.99998e-6.
    y = Point(0.0, math.exp(2e-6))
    exact = math.log1p(y.im - 1.0)  # y.im - 1 is exact
    assert distance(ORIGIN, y) == pytest.approx(exact, rel=1e-14, abs=0.0)
    assert distances_many(ORIGIN, np.array([0.0]), np.array([y.im]))[0] == pytest.approx(
        exact, rel=1e-14, abs=0.0)


def test_points_near_the_axis_keep_their_distances_and_images():
    # 2 Im x Im y underflowed to 0 here, and distance raised ZeroDivisionError.
    x, y = Point(0.0, 1e-200), Point(1.0, 1e-200)
    want = 2.0 * math.asinh(0.5e200)
    assert distance(x, y) == pytest.approx(want, rel=1e-15)
    assert distances_many(x, np.array([y.re]), np.array([y.im]))[0] == pytest.approx(
        want, rel=1e-15)
    a = Isometry(3.0, 0.0, 0.0, 1.0 / 3.0)
    image = a.apply(y)
    assert (image.re, image.im) == pytest.approx((9.0, 9e-200), rel=1e-15)


def _iwasawa(x, t, theta):
    """The isometry n(x) a(t) k(theta); every isometry is one of these."""
    c, s = math.cos(theta), math.sin(theta)
    return (Isometry(1.0, x, 0.0, 1.0) @ Isometry(math.exp(t), 0.0, 0.0, math.exp(-t))
            @ Isometry(c, s, -s, c))


# Built from three parameters, so no draw is filtered out.
isometries = st.builds(_iwasawa, st.floats(-3.0, 3.0), st.floats(-1.5, 1.5),
                       st.floats(-math.pi, math.pi))


@settings(max_examples=200, deadline=None)
@given(finite_points, st.lists(st.tuples(isometries, finite_points),
                               min_size=1, max_size=20))
# A subnormal Re x tilts the vertical ray by a subnormal angle.
@example(Point(1.1125369292536007e-308, 1.0),
         [(Isometry(0.0, 1.0, -1.0, 0.0), Point(0.0, 2.0))])
def test_batch_kernels_match_scalar_primitives(x, items):
    gs, ps = zip(*items)
    assume(all(ref.distance(x, p) > 1e-3 for p in ps))
    re, im = apply_many(np.array([[[g.a, g.b], [g.c, g.d]] for g in gs]), x)
    images = [ref.apply(g, x) for g in gs]
    assert re == pytest.approx([q.re for q in images], rel=1e-12, abs=1e-12)
    assert im == pytest.approx([q.im for q in images], rel=1e-12, abs=1e-12)

    pre = np.array([p.re for p in ps])
    pim = np.array([p.im for p in ps])
    assert distances_many(x, pre, pim) == pytest.approx(
        [ref.distance(x, p) for p in ps], rel=1e-12, abs=1e-12)
    angles = direction_angles_many(x, pre, pim)
    for theta, p in zip(angles, ps):
        expected = ref.boundary_angle(ref.direction_from(x, p))
        # Compare on the circle: 0 and 2 pi are the same direction.
        gap = (theta - expected + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(gap) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(finite_points, st.lists(isometries, min_size=1, max_size=20))
def test_scalar_and_batch_mobius_actions_agree_bit_for_bit(p, gs):
    # The reference body does the kernel's operations one point at a time.
    re, im = apply_many(np.array([[[g.a, g.b], [g.c, g.d]] for g in gs]), p)
    images = [ref.apply(g, p) for g in gs]
    assert [(q.re, q.im) for q in images] == list(zip(re.tolist(), im.tolist()))


def test_apply_many_maps_slices_of_rows_as_the_one_row_action(rng):
    # Past _ROW_CHUNK rows apply_many maps a slice at a time into its two
    # outputs: across the slice edges each row is the one-row Isometry.apply
    # bit for bit, and over 2 slices and 5 rows it holds, beside its outputs,
    # what a one-slice call holds in all.  Measured: within 0.1% of that;
    # mapped unsliced, these rows held 1.25 times that, and more rows hold
    # more.  5% is allowed.
    n = 2 * _ROW_CHUNK + 5
    mats = rng.normal(size=(n, 2, 2))
    mats[np.linalg.det(mats) < 0.0, 0] *= -1.0
    mats /= np.sqrt(np.linalg.det(mats))[:, None, None]
    p = random_point(rng)
    edges = [0, _ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1, 2 * _ROW_CHUNK - 1,
             2 * _ROW_CHUNK, n - 1]
    gs = [Isometry(*mats[i].ravel()) for i in edges]  # rows of Isometry's own bits
    for i, g in zip(edges, gs):
        mats[i] = np.reshape(g.matrix(), (2, 2))

    def traced(rows):
        tracemalloc.start()
        try:
            return (*apply_many(rows, p), tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    re, im, peak = traced(mats)
    for i, g in zip(edges, gs):
        q = g.apply(p)
        assert (re[i], im[i]) == (q.re, q.im)
    assert peak - re.nbytes - im.nbytes <= 1.05 * traced(mats[:_ROW_CHUNK])[2]


@settings(max_examples=100, deadline=None)
@given(st.lists(isometries, min_size=1, max_size=20))
@example([Isometry(1.0, 1e-9, 0.0, 1.0), Isometry.identity()])
# Half of the least subnormal distance rounds to 0.
@example([_iwasawa(5e-324, 0.0, 0.0)])
def test_origin_distances_need_no_image_point(gs):
    # 4 sinh^2(d / 2) = ||m||_F^2 - 2 det m = (a - d)^2 + (b + c)^2: the
    # kernel is accurate relative to d, near 0 too, where the point formula's
    # acosh(1 + t) is not.  Compared as exact rationals: (2 sinh(d / 2))^2
    # from the kernel's d against ||m||_F^2 / det m - 2 of the float entries.
    mats = np.array([[[g.a, g.b], [g.c, g.d]] for g in gs])
    for g, dist in zip(gs, origin_distances_many(mats)):
        a, b, c, d = (Fraction(v) for v in g.matrix())
        exact = ((a - d) ** 2 + (b + c) ** 2) / (a * d - b * c)
        # 2 sinh(d / 2) is d itself where d / 2 would round.
        got = Fraction(dist if dist < 2.0 ** -1021 else 2.0 * math.sinh(dist / 2.0)) ** 2
        assert got == exact == 0 or abs(got / exact - 1) <= 1e-14


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(isometries, st.floats(0.05, 3.0)), min_size=1, max_size=20))
# The axis of a diagonal matrix ends at oo: the c = 0 case, both ways round.
@example([(Isometry.identity(), 1.0), (Isometry.identity(), -1.0)])
def test_fixed_points_on_arrays_match_scalar_calls(items):
    gs = [g.inverse() @ Isometry(math.exp(t), 0.0, 0.0, math.exp(-t)) @ g for g, t in items]
    att, rep = hyperbolic_fixed_points(np.array([[[g.a, g.b], [g.c, g.d]] for g in gs]))
    for g, *got in zip(gs, att.tolist(), rep.tolist()):
        assert g.fixed_points() == tuple(BoundaryPoint(v) for v in got)
        for v, expected in zip(got, ref.fixed_points(g)):
            assert math.isinf(v) == expected.is_infinity
            if not math.isinf(v):
                assert v == pytest.approx(expected.value, rel=1e-9, abs=1e-12)


arc_angles = st.floats(-10.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(finite_points, st.lists(arc_angles, min_size=1, max_size=20))
@example(ORIGIN, [0.0, 5e-324, 1e-307, 2.0 * math.pi, -math.pi])
def test_boundary_angles_at_matches_scalar_boundary_at_angle(x, thetas):
    angles = boundary_angles_at(x, np.array(thetas))
    for got, theta in zip(angles, thetas):
        assert 0.0 <= got < 2.0 * math.pi
        expected = ref.boundary_angle(ref.boundary_at_angle(x, theta))
        gap = (got - expected + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(gap) <= 1e-8


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(isometries, st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
                min_size=1, max_size=20))
# z -> -1/z sends 0 (angle pi, up to rounding) to oo and oo (angle 0) to 0;
# a translation fixes oo.
@example([(Isometry(0.0, -1.0, 1.0, 0.0), math.pi), (Isometry(0.0, -1.0, 1.0, 0.0), 0.0),
          (Isometry(1.0, 1.0, 0.0, 1.0), 0.0)])
# The smallest normal angle sits at xi = -9e307, where a * xi + b overflows.
@example([(_iwasawa(1.0, -1.0, 1.0), 2.2250738585072014e-308)])
def test_boundary_action_on_arrays_matches_scalar_calls(items):
    gs, thetas = zip(*items)
    xi = boundary_values(np.array(thetas))
    points = [ref.boundary_from_angle(theta) for theta in thetas]
    assert [math.isinf(v) for v in xi] == [p.is_infinity for p in points]
    assert xi[np.isfinite(xi)] == pytest.approx(
        [p.value for p in points if not p.is_infinity], rel=1e-12)
    images = apply_boundary_many(np.array([[[g.a, g.b], [g.c, g.d]] for g in gs]), xi)
    for got, g, p in zip(boundary_angles(images), gs, points):
        assert 0.0 <= got < 2.0 * math.pi
        expected = ref.boundary_angle(ref.apply_boundary(g, p))
        gap = (got - expected + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(gap) <= 1e-8


@settings(max_examples=200, deadline=None)
@given(arc_angles, arc_angles, st.booleans(),
       st.lists(arc_angles, min_size=1, max_size=20))
def test_contains_angle_on_arrays_matches_scalar_calls(lo, hi, full, thetas):
    arc = BoundaryInterval.full_circle() if full else BoundaryInterval(lo, hi)
    batch = np.broadcast_to(arc.contains_angle(np.array(thetas)), len(thetas))
    assert batch.tolist() == [arc.contains_angle(t) for t in thetas]

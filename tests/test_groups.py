import io
import itertools
import json
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kleinian.hyperbolic import (
    BoundaryInterval, BoundaryPoint, Isometry, ORIGIN, Point, apply_many, boundary_angle,
    distance, distances_many, origin_distances_many)
from kleinian import groups
from kleinian.counting import estimate_exponent, make_report
from kleinian.groups import (
    BudgetExceeded,
    GroupSpec,
    MarginViolation,
    NonHyperbolicGenerator,
    conjugate,
    cyclic_spec,
    enumerate_orbit,
    modular_lattice_spec,
    nested_subgroup_spec,
    ping_pong_certificate,
    propose_intervals,
    schottky_spec,
    spec_from_json,
    spec_to_json,
    verify_ping_pong,
    word_matrix,
)

import scalar_reference as ref

A = Isometry(3.0, 0.0, 0.0, 1.0 / 3.0)
B = Isometry(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0)
PARABOLIC = Isometry(1.0, 1.0, 0.0, 1.0)
E = math.exp(0.5)
HYPERBOLIC_CYCLIC = Isometry(E, 0.0, 0.0, 1.0 / E)

RNG = np.random.default_rng(31)


# ---------------------------------------------------------------------------
# Ping-pong certification.


def test_schottky_pair_certifies_with_positive_margin():
    cert = ping_pong_certificate(schottky_spec(A, B))
    assert cert.margin > 0.0
    assert len(cert.intervals) == 4


def test_shared_axis_generators_fail():
    # a and a^2 share the axis {0, infinity}: their letter arcs collide.
    with pytest.raises(MarginViolation) as err:
        propose_intervals(groups._letters((A, A @ A)))
    assert err.value.letters is None or len(err.value.letters) == 2


def test_generator_with_its_inverse_fails():
    with pytest.raises(MarginViolation):
        propose_intervals(groups._letters((A, A.inverse())))


def test_non_hyperbolic_generator_rejected():
    with pytest.raises(NonHyperbolicGenerator):
        propose_intervals(groups._letters((A, PARABOLIC)))


def test_verify_rejects_overlapping_candidate_arcs():
    good = propose_intervals(groups._letters((A, B)))
    bad = (good[0], good[0], good[2], good[3])
    with pytest.raises(MarginViolation) as err:
        verify_ping_pong((A, B), bad)
    assert err.value.letters == (0, 1)


def test_nested_subgroup_without_certificate_is_refused():
    # With alpha of order 2 the nested letters are b, a^-1 b a, b: words in
    # them are not distinct elements, and no ping-pong certificate exists.
    R_pi = Isometry(0.0, -1.0, 1.0, 0.0)
    with pytest.raises(MarginViolation):
        enumerate_orbit(nested_subgroup_spec(R_pi, B, 2), max_word_length=3)


def test_parabolic_nested_certificate_search_ends_in_bounded_time():
    # 20,002 letters clustering at infinity: every candidate arc system
    # fails, and the search still ends within seconds.
    spec = nested_subgroup_spec(PARABOLIC, B, 10_000)
    t0 = time.perf_counter()
    with pytest.raises(MarginViolation):
        enumerate_orbit(spec, max_radius=5.0)
    assert time.perf_counter() - t0 < 5.0


# All-pairs reference of the ping-pong conditions on (lo, hi) angle pairs,
# by the scalar boundary primitives.
_TWO_PI = 2.0 * math.pi


def _ref_width(arc):
    w = (arc[1] - arc[0]) % _TWO_PI
    return w if w > 0.0 else _TWO_PI


def _ref_holds(arc, theta):
    return (theta - arc[0]) % _TWO_PI <= _ref_width(arc)


def _ref_gap(a, b):
    """Least gap between two arcs, -1 if they overlap."""
    if _ref_holds(a, b[0]) or _ref_holds(a, b[1]) or _ref_holds(b, a[0]):
        return -1.0
    return min((b[0] - a[1]) % _TWO_PI, (a[0] - b[1]) % _TWO_PI)


def _ref_inside(outer, inner):
    """Least gap between the ends of inner and of outer, <= 0 unless inner
    lies strictly inside outer."""
    start = (inner[0] - outer[0]) % _TWO_PI
    end = _ref_width(outer) - (inner[1] - outer[0]) % _TWO_PI
    if start + _ref_width(inner) > _ref_width(outer):
        return -min(abs(start), abs(end))
    return min(start, end)


def _ref_image(g, arc):
    """The image arc of arc under g, which keeps the circular orientation."""
    return tuple(ref.boundary_angle(ref.apply_boundary(g, ref.boundary_from_angle(t)))
                 for t in arc)


def _ref_margin(letters, arcs):
    """Ping-pong margin of the letter arcs by all pairs, None if it fails."""
    margin = math.inf
    for a, b in itertools.combinations(arcs, 2):
        gap = _ref_gap(a, b)
        if gap <= 0.0:
            return None
        margin = min(margin, gap)
    for i, ell in enumerate(letters):
        inside = _ref_inside(arcs[i], _ref_image(ell, arcs[i ^ 1][::-1]))
        if not inside > 0.0:
            return None
        margin = min(margin, inside)
    return margin


def _folded(lo, hi):
    arc = BoundaryInterval(lo, hi)
    return arc.lo_angle, arc.hi_angle


def _ref_candidates(letters):
    """The centred and the isometric-circle candidate families of
    :func:`propose_intervals`, one list of letter arcs per candidate."""
    centers = [boundary_angle(ell.fixed_points()[0]) for ell in letters]
    angles = sorted(centers)
    max_half = 0.5 * min((angles[(k + 1) % len(angles)] - angles[k]) % _TWO_PI
                         for k in range(len(angles)))
    centred = [[_folded(c - max_half * frac, c + max_half * frac) for c in centers]
               for frac in np.linspace(0.05, 0.98, 80)]
    if any(l.c == 0.0 for l in letters):
        return centred, []
    isometric = [[(_ref_angle(l.a / l.c - (1.0 + eps) / abs(l.c)),
                   _ref_angle(l.a / l.c + (1.0 + eps) / abs(l.c)))
                  for l in letters] for eps in map(float, np.geomspace(1e-6, 0.5, 30))]
    return centred, isometric


def _ref_angle(xi):
    """boundary_angle of xi; NaN, which fails every arc test, for NaN."""
    return math.nan if math.isnan(xi) else ref.boundary_angle(BoundaryPoint(xi))


def _ref_propose(letters):
    """(family index, arcs) of the first best candidate of the first family
    with a certified one, or None."""
    for index, family in enumerate(_ref_candidates(letters)):
        best, best_margin = None, 0.0
        for arcs in family:
            margin = _ref_margin(letters, arcs)
            if margin is not None and margin > best_margin:
                best, best_margin = arcs, margin
        if best is not None:
            return index, best
    return None


def _isometry_letters(gens):
    """The letters g1, g1^-1, g2, g2^-1, ... as isometries, for the references."""
    return [h for g in gens for h in (g, g.inverse())]


def _nested_generators(spec):
    """The generators alpha^-n beta alpha^n of a nested spec, as isometries."""
    return [Isometry(*m.ravel()) for m in groups._free_letters(spec)[::2]]


def _hyperbolic(t, g):
    return g.inverse() @ Isometry(math.exp(t), 0.0, 0.0, math.exp(-t)) @ g


_any_isometry = st.builds(lambda x, t, theta: Isometry(1.0, x, 0.0, 1.0)
                          @ Isometry(math.exp(t), 0.0, 0.0, math.exp(-t)) @ _rotation(theta),
                          st.floats(-3.0, 3.0), st.floats(-1.5, 1.5), st.floats(-math.pi, math.pi))
_letter_systems = st.one_of(
    st.lists(st.builds(_hyperbolic, st.floats(0.1, 3.0), _any_isometry), min_size=1, max_size=3),
    st.builds(lambda t: [_rotation(t).inverse() @ g @ _rotation(t) for g in (A, B)],
              st.floats(-math.pi, math.pi)),
    st.builds(lambda t, depth: _nested_generators(
        conjugate(nested_subgroup_spec(A, B, depth), _rotation(t))),
        st.floats(-math.pi, math.pi), st.integers(0, 6)),
)


@st.composite
def _arc_systems(draw):
    """(generators, letter arcs): disjoint arcs centred at the attracting
    fixed points with a drawn half-width, arbitrary arcs, or such centred
    arcs with the first letter's arc also put in the second letter's place."""
    gens = draw(_letter_systems)
    letters = _isometry_letters(gens)
    kind = draw(st.sampled_from(["centred", "arbitrary", "duplicated"]))
    if kind == "arbitrary":
        ends = st.tuples(st.floats(0.0, 7.0), st.floats(0.0, 7.0))
        arcs = draw(st.lists(ends, min_size=len(letters), max_size=len(letters)))
        return gens, [_folded(*arc) for arc in arcs]
    centred, _ = _ref_candidates(letters)
    arcs = centred[draw(st.integers(0, len(centred) - 1))]
    if kind == "duplicated":
        arcs = [arcs[0], arcs[0], *arcs[2:]]
    return gens, arcs


# The library takes image angles from the batch kernel, atan2(-2 xi, xi^2 - 1),
# the reference from 2 atan2(1, -xi): they may round an angle (< 2 pi) an ulp
# apart, which a margin near 1e-7 sees as more than 1e-9 relative.
_MARGIN_ULPS = 16 * math.ulp(_TWO_PI)
# The examples: a certified pair of arcs for A, and the arcs and the isometry
# of the former BoundaryInterval margin, gap and image tests.
_G = Isometry(2.0, 1.0, 1.0, 1.0)


@settings(max_examples=60, deadline=2000)
@given(_arc_systems())
@example(([A], [(2.0 * math.pi - 1.0, 1.0), (math.pi - 1.0, math.pi + 1.0)]))
@example(([A], [(1.0, 3.0), (1.5, 2.5)]))
@example(([A], [(0.0, 1.0), (2.0, 3.0)]))
@example(([A], [(0.0, 1.0), (0.5, 2.0)]))
@example(([_G], [(4.5, 5.8), (1.0, 2.0)]))
@example(([_G], [(1.0, 2.0), (1.0, 2.0)]))
def test_ping_pong_margin_matches_all_pairs_reference(system):
    gens, arcs = system
    ref = _ref_margin(_isometry_letters(gens), arcs)
    overlaps = [(i, j) for i, j in itertools.combinations(range(len(arcs)), 2)
                if _ref_gap(arcs[i], arcs[j]) <= 0.0]
    try:
        cert = verify_ping_pong(gens, [BoundaryInterval(*arc) for arc in arcs])
    except MarginViolation as err:
        assert ref is None
        if len(overlaps) == 1:  # such as a letter's arc put in its inverse's place
            assert err.letters == overlaps[0]
    else:
        assert ref is not None
        assert cert.margin == pytest.approx(ref, rel=1e-9, abs=_MARGIN_ULPS)


@settings(max_examples=30, deadline=5000)
@given(_letter_systems)
@example([A, B])
@example(_nested_generators(nested_subgroup_spec(A, B, 4)))
def test_proposed_arcs_match_the_all_pairs_reference(gens):
    letters = _isometry_letters(gens)
    ref = _ref_propose(letters)
    try:
        arcs = [(arc.lo_angle, arc.hi_angle) for arc in propose_intervals(groups._letters(gens))]
    except MarginViolation:
        assert ref is None
        return
    assert ref is not None
    family, ref_arcs = ref
    if family == 0:
        assert arcs == ref_arcs
    else:  # the batch angle kernel may round the other way
        assert np.allclose(arcs, ref_arcs, rtol=0.0, atol=1e-14)
    cert = verify_ping_pong(gens, [BoundaryInterval(*arc) for arc in arcs])
    assert cert.margin == pytest.approx(_ref_margin(letters, arcs), rel=1e-9, abs=_MARGIN_ULPS)


def test_random_reduced_words_are_not_identity():
    spec = schottky_spec(A, B)
    mats = []
    for _ in range(1000):
        length = int(RNG.integers(1, 9))
        word = []
        while len(word) < length:
            s = int(RNG.integers(1, 3)) * (1 if RNG.random() < 0.5 else -1)
            if word and s == -word[-1]:
                continue
            word.append(s)
        m = word_matrix(spec, word)
        assert not Isometry(*m.ravel()).is_identity(tol=1e-6)
        mats.append(m)
    # Free group: every orbit point moves.
    re, im = apply_many(np.reshape(mats, (-1, 2, 2)), ORIGIN)
    assert np.all(distances_many(ORIGIN, re, im) > 0.1)


# ---------------------------------------------------------------------------
# Cyclic censuses.


def test_parabolic_census_closed_form_distances():
    census = enumerate_orbit(cyclic_spec(PARABOLIC), max_word_length=50)
    assert len(census) == 101
    by_wl = {}
    for i in range(len(census)):
        by_wl.setdefault(int(census.word_lengths[i]), []).append(
            census.distances[i])
    for n in range(1, 51):
        expected = math.acosh(1.0 + n * n / 2.0)
        for d in by_wl[n]:
            assert d == pytest.approx(expected, abs=1e-9)


def test_hyperbolic_cyclic_census_distances_are_multiples():
    census = enumerate_orbit(cyclic_spec(HYPERBOLIC_CYCLIC), max_word_length=30)
    assert len(census) == 61
    for i in range(len(census)):
        assert census.distances[i] == pytest.approx(
            float(census.word_lengths[i]), abs=1e-9)


def test_cyclic_radius_cap_completeness():
    census = enumerate_orbit(cyclic_spec(HYPERBOLIC_CYCLIC), max_radius=10.2)
    assert len(census) == 21
    assert census.completeness_radius == pytest.approx(10.2)


def _exact_powers(g, n_max):
    """{n: (a, b, c, d)} for |n| <= n_max: the exact powers of the given
    float matrix, scaled to integers, from its adjugate for n < 0."""
    entries = [Fraction(v) for v in g.matrix()]
    den = max(v.denominator for v in entries)
    a, b, c, d = (int(v * den) for v in entries)
    out = {}
    for sign, (a0, b0, c0, d0) in ((1, (a, b, c, d)), (-1, (d, -b, -c, a))):
        m = (1, 0, 0, 1)
        for n in range(n_max + 1):
            out[sign * n] = m
            p, q, r, s = m
            m = (p * a0 + q * c0, p * b0 + q * d0, r * a0 + s * c0, r * b0 + s * d0)
    return out


def _exact_distances(g, x, y, n_max):
    """d(x, g^n y) for |n| <= n_max, from the given floats in integer
    arithmetic, so that no power loses precision.  With x = X / D and
    y = Y / D, sinh^2(d / 2) = |X (c Y + d D) - D (a Y + b D)|^2 /
    (4 Im X Im Y D^2 det) for the power (a, b, c, d), whatever its scale;
    each side is cut to its leading 64 bits only for the final division."""
    coords = [Fraction(v) for v in (x.re, x.im, y.re, y.im)]
    den = max(v.denominator for v in coords)
    xr, xi, yr, yi = (int(v * den) for v in coords)
    powers = _exact_powers(g, n_max)
    a, b, c, d = powers[1]
    scales = [4 * xi * yi * den * den]  # times det g^n = (det g)^|n|
    for _ in range(n_max):
        scales.append(scales[-1] * (a * d - b * c))
    out = {}
    for n, (a, b, c, d) in powers.items():
        ur, ui = c * yr + d * den, c * yi
        vr, vi = a * yr + b * den, a * yi
        zr, zi = xr * ur - xi * ui - den * vr, xr * ui + xi * ur - den * vi
        cut = max(max(abs(zr), abs(zi)).bit_length() - 64, 0)
        scale = scales[abs(n)]
        low = max(scale.bit_length() - 64, 0)
        sinh2 = math.ldexp(((zr >> cut) ** 2 + (zi >> cut) ** 2) / (scale >> low), 2 * cut - low)
        out[n] = 2.0 * math.asinh(math.sqrt(sinh2))
    return out


def _close(a, b, rel):
    """a and b agree elementwise to ``rel`` times max(|b|, 1): relative, but
    absolute below 1, where a power that lands on x is a few ulps from it."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(b), 1.0)))


@pytest.mark.parametrize("g, y, max_word_length, max_radius, n_max, size", [
    # y lies 10 translation lengths up the axis: the ball at x = i holds
    # n = -12..-7 (d(i, g^-13 y) is 3 but rounds above it), not the identity.
    (HYPERBOLIC_CYCLIC, Point(0.0, math.exp(10.0)), None, 3.0, 40, 6),
    # y = 3000 + i: the ball holds n = -3004..-2996.
    (PARABOLIC, Point(3000.0, 1.0), None, 3.0, 3100, 9),
    # Word-length cap while the orbit still approaches x: the excluded
    # power g^-10 lands on x, so the census is complete only up to 0.
    (HYPERBOLIC_CYCLIC, Point(0.0, math.exp(10.0)), 3, None, 40, 7),
    (PARABOLIC, Point(-0.4, 0.8), 40, None, 60, 81),
    # The word-length cap cuts the ball: g^31 is nearer than R.
    (PARABOLIC, Point(0.3, 2.0), 30, 12.0, 60, 61),
    # The nearest excluded power is the vertex g^-3000, which lands on x.
    (PARABOLIC, Point(3000.0, 1.0), 3, None, 3100, 7),
], ids=["hyperbolic-far-basepoint", "parabolic-far-basepoint",
        "word-length-cap-approaching", "parabolic-word-length-moved",
        "parabolic-radius-and-word-length", "parabolic-word-length-cap-approaching"])
def test_cyclic_census_matches_brute_force(g, y, max_word_length, max_radius,
                                           n_max, size):
    census = enumerate_orbit(cyclic_spec(g), ORIGIN, y,
                             max_word_length=max_word_length,
                             max_radius=max_radius)
    powers = _exact_distances(g, ORIGIN, y, n_max)
    inside = {n for n, d in powers.items()
              if (max_word_length is None or abs(n) <= max_word_length)
              and (max_radius is None or d <= max_radius)}
    assert len(inside) == size
    exponents = [w[0] * len(w) if w else 0 for w in census.words]
    assert sorted(exponents) == sorted(inside)
    assert _close(census.distances, sorted(powers[n] for n in inside), 1e-13)
    assert np.array_equal(census.word_lengths, np.abs(exponents))
    excluded = [d for n, d in powers.items() if n not in inside]
    expected = min(excluded + ([max_radius] if max_radius is not None else []))
    assert _close(census.completeness_radius, expected, 1e-13)


def test_parabolic_census_at_a_far_basepoint_ends_at_once():
    # The powers of g approach x only near n = -1e9; the census of word
    # length 3 must not walk there to find its completeness radius.
    t0 = time.perf_counter()
    census = enumerate_orbit(cyclic_spec(PARABOLIC), ORIGIN, Point(1e9 + 0.5, 1.0),
                             max_word_length=3)
    assert time.perf_counter() - t0 < 1.0
    assert sorted(census.words.exponents.tolist()) == list(range(-3, 4))
    # g^-1e9 and g^-(1e9 + 1) send y to 0.5 + i and -0.5 + i.
    assert census.completeness_radius == distance(ORIGIN, Point(0.5, 1.0))


def test_parabolic_ball_at_the_budget_edge(monkeypatch):
    spec = cyclic_spec(PARABOLIC)
    assert len(enumerate_orbit(spec, max_radius=18.0, budget=16207)) == 16207

    def no_powers(*args):
        raise AssertionError("a power was formed")

    # Every power's distance goes through groups.origin_distances_many.
    monkeypatch.setattr(groups, "origin_distances_many", no_powers)
    with pytest.raises(BudgetExceeded):
        enumerate_orbit(spec, max_radius=18.0, budget=16206)


@pytest.mark.parametrize("g, x, y, limits, error, match, formed", [
    # The frame K_x g K_y^-1 of the basepoints leaves double precision.
    (HYPERBOLIC_CYCLIC, Point(-1e308, 1.0), Point(1e308, 1.0), {"max_radius": 5.0},
     OverflowError, "at these basepoints", False),
    # The ball about n = -23 reaches past |n| = 1418, where lam^n leaves
    # double precision (it is capped at R = 1400, not at the word length).
    (HYPERBOLIC_CYCLIC, ORIGIN, Point(0.0, 1e10), {"max_word_length": 10 ** 7},
     OverflowError, "in this ball", False),
    # The ball lies about n = -1e17, past the integers that doubles hold.
    (PARABOLIC, ORIGIN, Point(1e17, 1.0), {"max_radius": 5.0},
     OverflowError, "beyond exact double precision", False),
    # The frame divides b by 1e200: powers within R have entries past 1e308.
    (Isometry(E, 1e100, 0.0, 1.0 / E), Point(0.0, 1e200), Point(0.0, 1e200),
     {"max_radius": 1000.0}, OverflowError, "in this ball", True),
    # g^+-4 lie at exactly R, which the inverted window rounds out of it: 8
    # powers pass the pre-check, and the ball holds 9.
    (PARABOLIC, ORIGIN, ORIGIN, {"max_radius": 2.0 * math.asinh(2.0), "budget": 8},
     BudgetExceeded, "budget 8", True),
], ids=["frame", "power-in-ball", "exponent", "matrix-in-ball", "budget-after-rounding"])
def test_each_cyclic_guard_is_reached(monkeypatch, g, x, y, limits, error, match, formed):
    # Whether the powers were formed tells the guard before them from the
    # one after, where they share a message.
    rows = []
    distances = groups.origin_distances_many

    def counted(mats, *args):
        rows.append(len(mats))
        return distances(mats, *args)

    monkeypatch.setattr(groups, "origin_distances_many", counted)
    with pytest.raises(error, match=match):
        enumerate_orbit(cyclic_spec(g), x, y, **limits)
    assert bool(rows) == formed


def test_parabolic_powers_past_the_point_formula_keep_their_distances():
    # d(i, g^n i) = 2 asinh(1e200 |n| / 2) is about 921 + 2 log |n|, but the
    # point formula's |z - i|^2 overflows: these powers take their distance
    # from 2 cosh d = ||g^n||_F^2 instead of being dropped.
    g = Isometry(1.0, 1e200, 0.0, 1.0)
    census = enumerate_orbit(cyclic_spec(g), max_radius=925.0)
    exponents = census.words.exponents.tolist()
    assert sorted(exponents) == list(range(-7, 8))
    exact = [2.0 * math.asinh(1e200 * abs(n) / 2.0) for n in exponents]
    assert np.allclose(census.distances, exact, rtol=1e-14, atol=0.0)
    assert census.completeness_radius == 925.0


def _exact_power_distance(g, n):
    """d(i, g^n i) for the exact n-th power of the float matrix g, by
    repeated squaring (the adjugate for n < 0).  The entries are the
    Fractions of the floats over their common power-of-two denominator, so
    the products are of integers; cosh d = ||M||_F^2 / (2 det M) for any M
    with positive determinant, whatever its scale."""
    entries = [Fraction(v) for v in g.matrix()]
    den = max(v.denominator for v in entries)
    a, b, c, d = (int(v * den) for v in entries)
    base = (a, b, c, d) if n >= 0 else (d, -b, -c, a)
    m = (1, 0, 0, 1)
    for bit in bin(abs(n))[2:]:
        p, q, r, s = m
        m = (p * p + q * r, p * q + q * s, r * p + s * r, r * q + s * s)
        if bit == "1":
            p, q, r, s = m
            m = (p * base[0] + q * base[2], p * base[1] + q * base[3],
                 r * base[0] + s * base[2], r * base[1] + s * base[3])
    p, q, r, s = m
    return math.acosh((p * p + q * q + r * r + s * s) / (2 * (p * s - q * r)))


@pytest.mark.parametrize("generator, radius, size, checked, theta", [
    *[(PARABOLIC, 18.0, 16207, (100, 1000, 4000, 8000), t) for t in (0.7, 2.3, -1.1)],
    # R30.5, not R30, where d(+-30) = 30 up to rounding.
    *[(HYPERBOLIC_CYCLIC, 30.5, 61, (10, 20, 30), t) for t in (0.7, 2.3, -1.1)],
], ids=["0.7", "2.3", "-1.1", "e-half-R30.5-0.7", "e-half-R30.5-2.3", "e-half-R30.5--1.1"])
def test_rotated_parabolic_powers_keep_their_distances(generator, radius, size, checked, theta):
    # The rotation k fixes i, so k^-1 g k has the builtin ball.
    k = _rotation(theta)
    census = enumerate_orbit(cyclic_spec(k.inverse() @ generator @ k), max_radius=radius)
    builtin = enumerate_orbit(cyclic_spec(generator), max_radius=radius)
    exponents = census.words.exponents.tolist()
    assert sorted(exponents) == sorted(builtin.words.exponents.tolist())
    assert len(exponents) == size
    row = {n: i for i, n in enumerate(exponents)}
    g = census.spec.generators[0]
    for n in checked:
        for m in (n, -n):
            assert abs(census.distances[row[m]] - _exact_power_distance(g, m)) <= 1e-8


@pytest.mark.parametrize("generator, word_length", [(A, 200), (HYPERBOLIC_CYCLIC, 300)],
                         ids=["alpha-L200", "e-half-L300"])
@pytest.mark.parametrize("theta", [0.0, 0.7, 1.4, 2.3, -1.1])
def test_rotated_hyperbolic_powers_match_exact_arithmetic(generator, word_length, theta):
    # Every power within the word length is present, at the distance of the
    # exact power of the float matrix, for basepoints on and off its axis
    # (k^-1(81 i) is g^2 i for alpha).  Farther along the axis, at
    # k^-1(9^+-24 i), Im y is below the rounding of Re y, and no evaluation
    # in double precision matches the exact powers.
    k = _rotation(theta)
    g = k.inverse() @ generator @ k
    for y in (ORIGIN, Point(0.3, 2.0), Point(-0.4, 0.8), k.inverse().apply(Point(0.0, 81.0))):
        census = enumerate_orbit(cyclic_spec(g), y=y, max_word_length=word_length)
        exponents = census.words.exponents.tolist()
        assert sorted(exponents) == list(range(-word_length, word_length + 1))
        exact = _exact_distances(g, ORIGIN, y, word_length + 1)
        assert _close(census.distances, [exact[n] for n in exponents], 1e-12)
        beyond = word_length + 1
        assert _close(census.completeness_radius, min(exact[beyond], exact[-beyond]), 1e-12)


def test_deep_cyclic_power_overflow_is_capped_gracefully():
    census = enumerate_orbit(cyclic_spec(A), max_word_length=500)
    # Powers beyond float range are excluded but the census stays valid.
    assert np.isfinite(census.mats).all()
    assert np.all(np.diff(census.distances) >= 0.0)


def _rotation(theta):
    """The rotation about i by angle theta."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return Isometry(c, s, -s, c)


def test_rotated_hyperbolic_census_holds_every_power():
    # The entries of the powers of a rotated hyperbolic element pass 1e8
    # long before word length 200; in closed form every power is present,
    # at the distance of the exact power of the float matrix.
    k = _rotation(0.7)
    census = enumerate_orbit(cyclic_spec(k.inverse() @ A @ k), max_word_length=200)
    exponents = census.words.exponents.tolist()
    assert sorted(exponents) == list(range(-200, 201))
    g = census.spec.generators[0]
    assert _close(census.distances, [_exact_power_distance(g, n) for n in exponents], 1e-12)


@pytest.mark.parametrize("theta", [0.7, 1.4])
def test_cyclic_walk_claims_no_power_it_lost(theta):
    # y = g^N i lies |N| log 9 from i (the rotation k fixes i).  Every
    # power within the word length is formed, however far y is, and every
    # power nearer than the claimed radius, in exact arithmetic on the
    # given floats, must be in the census.
    k = _rotation(theta)
    g = k.inverse() @ A @ k
    for n_target in range(-24, 25, 4):
        y = k.inverse().apply(Point(0.0, 9.0 ** n_target))
        census = enumerate_orbit(cyclic_spec(g), y=y, max_word_length=200)
        exact = _exact_distances(g, ORIGIN, y, 50)
        assert sorted(census.words.exponents.tolist()) == list(range(-200, 201))
        # The bound is attained when x, y and the lost power lie in order on
        # the axis; a power that far is a rounding error from the radius.
        near = {n for n, d in exact.items() if d < census.completeness_radius - 1e-9}
        missing = near - set(census.words.exponents.tolist())
        assert not missing, (n_target, sorted(missing))


def test_orbit_points_that_underflow_are_dropped_without_warnings():
    # Conjugated by a rotation and then by A, some orbit points of the
    # nested subgroup come so close to the real axis that their imaginary
    # parts underflow to 0: they lie at distance inf, outside the ball.
    spec = conjugate(conjugate(nested_subgroup_spec(A, B, 4), _rotation(0.7)), A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        census = enumerate_orbit(spec, max_radius=20.0)
    assert len(census) > 1
    assert census.distances[-1] <= 20.0


# ---------------------------------------------------------------------------
# Free (Schottky) censuses.


@pytest.fixture(scope="module")
def schottky_census():
    return enumerate_orbit(schottky_spec(A, B), max_word_length=8)


def test_census_sorted_and_starts_at_identity(schottky_census):
    c = schottky_census
    assert np.all(np.diff(c.distances) >= 0.0)
    assert c.distances[0] == 0.0
    assert c.word_lengths[0] == 0
    assert c.element(0).is_identity()


def test_census_size_is_free_group_ball(schottky_census):
    # 1 + 4 * sum_{k=1..8} 3^(k-1) reduced words
    expected = 1 + 4 * sum(3 ** (k - 1) for k in range(1, 9))
    assert len(schottky_census) == expected


def test_census_distances_match_word_matrices(schottky_census):
    c = schottky_census
    idx = RNG.choice(len(c), size=500, replace=False)
    for i in idx:
        g = c.element(int(i))
        assert ref.distance(ORIGIN, ref.apply(g, ORIGIN)) == pytest.approx(
            c.distances[int(i)], abs=1e-8)
        w = c.word(int(i))
        assert len(w) == c.word_lengths[int(i)]
        m = Isometry(*word_matrix(c.spec, w).ravel())
        assert np.allclose([m.a, m.b, m.c, m.d],
                           [g.a, g.b, g.c, g.d], atol=1e-8)


def test_generator_displacements(schottky_census):
    # d(i, a.i) = d(i, b.i) = 2 ln 3 for both generators.
    wl1 = schottky_census.distances[schottky_census.word_lengths == 1]
    assert len(wl1) == 4
    for d in wl1:
        assert d == pytest.approx(2.0 * math.log(3.0), abs=1e-9)


def test_radius_capped_free_census_is_complete(schottky_census):
    # Elements within the completeness radius of a deeper census coincide
    # with a radius-capped enumeration.
    capped = enumerate_orbit(schottky_spec(A, B), max_radius=9.0)
    assert capped.completeness_radius >= 9.0
    reference = schottky_census.distances[schottky_census.distances <= 9.0]
    assert len(capped) == len(reference)
    assert np.allclose(np.sort(capped.distances), np.sort(reference), atol=1e-9)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_orbit(schottky_spec(A, B), max_word_length=10, budget=100)


def test_a_bound_that_stops_pruning_meets_the_budget(monkeypatch):
    # With no clearance every word is kept for its subtree, so a radius
    # census grows its frontier threefold a level while its rows stay put.
    monkeypatch.setattr(groups, "_halfplane_clearance",
                        lambda lo, hi, g11, g12, g22: np.zeros(len(g11)))
    with pytest.raises(BudgetExceeded, match="frontier"):
        enumerate_orbit(schottky_spec(A, B), max_radius=5.0, budget=10_000)


def _brute_force_words(spec, x, y, depth, within=math.inf):
    """{word: d(x, w.y)} over the reduced words of length <= depth in the
    letters +-1, +-2 with d <= within: every product, one level at a time,
    with no pruning and no half-planes."""
    signs = np.array([1, -1, 2, -2])
    lmats = np.array([word_matrix(spec, (s,)) for s in signs])
    words, mats, out = np.zeros((1, 0), int), np.eye(2)[None], {}
    for level in range(depth + 1):
        if level:
            last = words[:, -1] if level > 1 else np.zeros(len(words), int)
            parent, li = np.nonzero(last[:, None] != -signs)
            words = np.column_stack([words[parent], signs[li]])
            mats = mats[parent] @ lmats[li]
        dist = distances_many(x, *apply_many(mats, y))
        near = dist <= within
        out.update(zip(map(tuple, words[near].tolist()), dist[near].tolist()))
    return out


def _assert_free_census_matches_brute_force(spec, x, y, max_word_length, max_radius,
                                            depth=8):
    """The census at these limits holds exactly the brute-force words within
    them; a radius-only census is checked against words of length <= depth."""
    census = enumerate_orbit(spec, x, y, max_word_length=max_word_length,
                             max_radius=max_radius)
    words = _brute_force_words(spec, x, y, depth if max_word_length is None
                               else max_word_length + 3,
                               math.inf if max_radius is None else max_radius)
    inside = {w: d for w, d in words.items()
              if (max_word_length is None or len(w) <= max_word_length)
              and (max_radius is None or d <= max_radius)}
    if max_word_length is None:
        # The brute force is deep enough: no word of its last level is inside.
        assert max(map(len, inside), default=0) < depth
    got = [census.word(i) for i in range(len(census))]
    assert set(got) == set(inside) and len(got) == len(inside)
    assert np.allclose(census.distances, [inside[w] for w in got], atol=1e-9)
    assert np.array_equal(census.word_lengths, [len(w) for w in got])
    if max_radius is not None:
        assert census.completeness_radius <= max_radius
    else:
        # No word, of any length up to three past the cap, is nearer than the
        # completeness radius yet missing from the census.
        assert {w for w, d in words.items() if d <= census.completeness_radius} <= set(got)


# y = 0.01i, 0.3 + 0.05i and -2 + 0.2i lie in letter half-planes, where the
# subtree bound is taken from the nearest point outside them.
_IN_HALF_PLANES = [Point(0.0, 0.01), Point(0.3, 0.05), Point(-2.0, 0.2)]
_IN_HALF_PLANE_IDS = ["0.01i", "0.3+0.05i", "-2+0.2i"]


@pytest.mark.parametrize("x, y, max_word_length, max_radius", [
    (Point(0.3, 1.7), Point(-0.4, 0.8), None, 6.0),
    (Point(0.3, 1.7), Point(-0.4, 0.8), 4, None),
    (Point(0.3, 1.7), Point(-0.4, 0.8), 3, 5.0),
    # d(x, y) = ln 50 > 1: the identity is outside the ball, a^-2 is inside.
    (ORIGIN, Point(0.0, 50.0), 2, 1.0),
    *[(ORIGIN, y, None, 5.0) for y in _IN_HALF_PLANES],
    *[(ORIGIN, y, 6, None) for y in _IN_HALF_PLANES],
], ids=["radius", "word-length", "combined", "identity-outside",
        *[f"half-plane-{i}-radius" for i in _IN_HALF_PLANE_IDS],
        *[f"half-plane-{i}-word-length" for i in _IN_HALF_PLANE_IDS]])
def test_free_census_matches_brute_force(x, y, max_word_length, max_radius):
    _assert_free_census_matches_brute_force(schottky_spec(A, B), x, y,
                                            max_word_length, max_radius)


def test_basepoint_in_a_letter_half_plane_proves_a_radius():
    spec = schottky_spec(A, B)
    for y in _IN_HALF_PLANES:
        assert enumerate_orbit(spec, y=y, max_word_length=8).completeness_radius > 6.0
    # Enough of one for an exponent estimate near the group's 0.657.
    census = enumerate_orbit(spec, y=_IN_HALF_PLANES[0], max_word_length=10)
    assert abs(estimate_exponent(make_report(census)).point_estimate - 0.66) < 0.05
    # Deep in a half-plane, a shallow census proves no radius at all, and
    # says so with a negative one.
    shallow = enumerate_orbit(spec, y=Point(0.0, 1e-6), max_word_length=1)
    assert shallow.completeness_radius < -10.0


@settings(max_examples=50, deadline=1000)
@given(x=st.builds(Point, st.floats(-0.25, 0.25), st.floats(0.8, 1.25)),
       y=st.builds(Point, st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-5.0, 5.0)),
                   st.floats(-3.0, 1.0).map(lambda t: 10.0 ** t)),
       radius=st.floats(0.0, 4.5))
# Deep inside the half-planes of a^-1 (near 0), b and b^-1 (near +-1) and a
# (towards infinity).
@example(x=ORIGIN, y=Point(0.0, 1e-3), radius=4.5)
@example(x=ORIGIN, y=Point(1.0, 1e-3), radius=4.5)
@example(x=ORIGIN, y=Point(-1.0, 1e-3), radius=4.5)
@example(x=ORIGIN, y=Point(5.0, 10.0), radius=4.5)
def test_radius_census_matches_brute_force_at_any_basepoint(x, y, radius):
    _assert_free_census_matches_brute_force(schottky_spec(A, B), x, y, None, radius, depth=9)


def _read_rows(census, first):
    """Read the row column ``first`` of a census whose rows were not read
    yet; that read fills all three."""
    assert "_rows" in vars(census) and first not in vars(census)
    getattr(census, first)
    assert "_rows" not in vars(census)
    assert all(name in vars(census) for name in ("word_lengths", "mats", "words"))


def _reference_free_census(spec, x, y, max_word_length, max_radius):
    """(mats, distances, word_lengths, letters, completeness_radius) by a
    level-at-a-time search: one np.nonzero over a (letter, parent) mask
    builds all children of a level in letter-major order, the levels are
    concatenated, and one stable sort by distance orders the census.  A
    conjugated spec conjugates the census of its inner spec, as the library
    does."""
    if spec.kind == "conjugated":
        c = spec.conjugator
        *cols, radius = _reference_free_census(spec.inner, c.apply(x), c.apply(y),
                                                max_word_length, max_radius)
        cm = np.array([[c.a, c.b], [c.c, c.d]])
        cinv = np.array([[c.d, -c.b], [-c.c, c.a]])
        return (cinv[None, :, :] @ cols[0] @ cm[None, :, :], *cols[1:], radius)
    lmats = groups._free_letters(spec)
    n_letters = len(lmats)
    codes = groups.signed_letter(np.arange(n_letters)).astype(
        np.min_scalar_type(-n_letters))
    lo, hi, shift = groups._certified_halfplanes(spec, y)
    radius = math.inf if max_radius is None else max_radius

    def subtree_bound(mats, last):
        gram = groups._preimage_gram(mats, x)
        clearance = np.stack([groups._halfplane_clearance(lo[m:m + 1], hi[m:m + 1], *gram)
                              for m in range(n_letters)])
        clearance[last ^ 1, np.arange(len(last))] = np.inf
        return clearance.min(axis=0) - shift

    mats, last, words = np.eye(2)[None], np.array([-1]), np.zeros((1, 0), codes.dtype)
    dist, bound = origin_distances_many(mats, x, y), np.zeros(1)
    levels = []
    bound_floor = math.inf
    for level in itertools.count():
        take = dist <= radius
        levels.append((mats[take], dist[take], np.full(int(take.sum()), level), words[take]))
        keep = bound <= radius
        bound_floor = min(bound_floor, float(bound[~keep].min(initial=math.inf)))
        mats, last, words, bound = mats[keep], last[keep], words[keep], bound[keep]
        if max_word_length is not None and level >= max_word_length:
            bound_floor = min(bound_floor, float(bound.min(initial=math.inf)))
            break
        if not len(mats):
            break
        li, p = np.nonzero(last != (np.arange(n_letters)[:, None] ^ 1))
        mats, last = mats[p] @ lmats[li], li
        words = np.concatenate([words[p], codes[li, None]], axis=1)
        dist = origin_distances_many(mats, x, y)
        bound = subtree_bound(mats, li)
    # The word matrix is as wide as the longest census word.
    mats, dists, wls, words = zip(*[lv for lv in levels if len(lv[1])] or levels[:1])
    width = words[-1].shape[1]
    words = np.concatenate([np.pad(w, ((0, 0), (0, width - w.shape[1]))) for w in words])
    dists = np.concatenate(dists)
    order = np.argsort(dists, kind="stable")
    return (np.concatenate(mats)[order], dists[order], np.concatenate(wls)[order],
            words[order], min(bound_floor, radius))


_C = Isometry(1.0, 0.5, 0.0, 1.0)


@pytest.mark.parametrize("spec, x, y, max_word_length, max_radius", [
    # x = y = i: many distance ties, whose order the stable sort keeps.
    (schottky_spec(A, B), ORIGIN, ORIGIN, 8, None),
    (schottky_spec(A, B), Point(0.3, 1.7), Point(-0.4, 0.8), None, 6.0),
    (schottky_spec(A, B), Point(0.3, 1.7), Point(-0.4, 0.8), 4, 5.0),
    (schottky_spec(A, B), ORIGIN, Point(0.0, 50.0), 2, 1.0),
    # Only the subtree of `a` reaches the radius, so at level 2 the letter
    # A cancels every frontier word and extends none.
    (schottky_spec(A, B), Point(0.0, 30.0), ORIGIN, None, 2.0),
    (nested_subgroup_spec(A, B, 4), ORIGIN, ORIGIN, None, 16.0),
    (conjugate(schottky_spec(A, B), _C), ORIGIN, ORIGIN, 6, None),
    # y in a letter half-plane: the bounds are shifted by d(y, y0).
    (schottky_spec(A, B), ORIGIN, Point(0.3, 0.05), None, 6.0),
    (schottky_spec(A, B), ORIGIN, ORIGIN, None, 9.0),
    (schottky_spec(A, B), Point(0.3, 1.7), Point(-0.4, 0.8), 6, 7.0),
    (nested_subgroup_spec(A, B, 4), ORIGIN, ORIGIN, None, 17.0),
    (conjugate(nested_subgroup_spec(A, B, 4), A), ORIGIN, ORIGIN, None, 16.0),
    # y in beta's half-plane: y0 lies on its boundary, so a child's image
    # half-plane bound can be reached exactly.
    (nested_subgroup_spec(A, B, 4), ORIGIN, Point(1.0, 0.2), None, 16.0),
], ids=["schottky-L8-ties", "radius", "combined", "identity-outside",
        "one-letter-frontier", "nested-R16", "conjugated-L6", "half-plane-R6",
        "schottky-R9", "moved-L6-R7", "nested-R17", "nested-conjugate-R16",
        "nested-half-plane-R16"])
def test_free_census_rows_match_level_at_a_time_reference(spec, x, y, max_word_length,
                                                          max_radius):
    # Row order sets the bytes of every artifact, so compare arrays, not sets.
    census = enumerate_orbit(spec, x, y, max_word_length=max_word_length,
                             max_radius=max_radius)
    _read_rows(census, "words")
    mats, dists, wls, letters, radius = _reference_free_census(
        spec, x, y, max_word_length, max_radius)
    assert np.array_equal(census.mats, mats)
    assert np.array_equal(census.distances, dists)
    assert np.array_equal(census.word_lengths, wls)
    assert census.words.letters.dtype == letters.dtype
    assert np.array_equal(census.words.letters, letters)
    assert census.completeness_radius == radius


def _exact_word_matrices(spec, words):
    """The exact products of the float letters of ``spec`` (the letters the
    census multiplies) along each word, as integer matrices over a common
    power-of-two scale, which the distances of :func:`_exact_distances_of`
    do not see.  Shared prefixes are multiplied once."""
    letters = ping_pong_certificate(spec).letters
    den = max(Fraction(v).denominator for v in letters.ravel().tolist())
    ints = {int(groups.signed_letter(i)): tuple(int(Fraction(v) * den) for v in g.ravel().tolist())
            for i, g in enumerate(letters)}
    memo = {(): (1, 0, 0, 1)}

    def product(w):
        if w not in memo:
            p, q, r, s = product(w[:-1])
            a, b, c, d = ints[w[-1]]
            memo[w] = (p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d)
        return memo[w]

    return [product(tuple(w)) for w in words]


def _exact_distances_of(mats, x, y):
    """d(x, m.y) for integer matrices m = (a, b, c, d) of positive
    determinant, whatever their scale, at the float basepoints as exact
    rationals: with x = X / D and y = Y / D, sinh^2(d / 2) =
    |X (c Y + d D) - D (a Y + b D)|^2 / (4 Im X Im Y D^2 det m), rounded once
    by Python's exact integer division; past double precision, d = log(4
    sinh^2(d / 2)) to far below an ulp."""
    coords = [Fraction(v) for v in (x.re, x.im, y.re, y.im)]
    den = max(v.denominator for v in coords)
    xr, xi, yr, yi = (int(v * den) for v in coords)
    out = []
    for a, b, c, d in mats:
        ur, ui = c * yr + d * den, c * yi
        vr, vi = a * yr + b * den, a * yi
        zr, zi = xr * ur - xi * ui - den * vr, xr * ui + xi * ur - den * vi
        num, scale = zr * zr + zi * zi, 4 * xi * yi * den * den * (a * d - b * c)
        if num.bit_length() - scale.bit_length() > 1000:
            out.append(math.log(4 * num) - math.log(scale))
        else:
            out.append(2.0 * math.asinh(math.sqrt(num / scale)))
    return out


def _rotated(theta, *generators):
    k = _rotation(theta)
    return tuple(k.inverse() @ g @ k for g in generators)


@pytest.mark.parametrize("spec, x, y, max_word_length", [
    (schottky_spec(*_rotated(0.7, A, B)), ORIGIN, ORIGIN, 8),
    (schottky_spec(A, B), ORIGIN, ORIGIN, 8),
    (schottky_spec(A, B), Point(0.3, 1.7), Point(-0.4, 0.8), 8),
    *[(nested_subgroup_spec(A, B, depth), ORIGIN, ORIGIN, 3) for depth in (4, 6, 8)],
    (schottky_spec(A, B), Point(0.0, 1e-200), Point(0.0, 1e-200), 3),
    (schottky_spec(A, B), ORIGIN, Point(0.3, 1e-200), 3),
], ids=["schottky-L8-rotated-0.7", "schottky-L8", "schottky-L8-moved",
        "nested-4-L3", "nested-6-L3", "nested-8-L3", "schottky-L3-at-1e-200i",
        "schottky-L3-to-0.3+1e-200i"])
def test_free_census_distances_match_exact_products(spec, x, y, max_word_length):
    # Every row's distance is that of the exact product of the float letters
    # along its word; formed from an image point, distances far from i lost
    # up to whole units (nested depth 8 listed rows at 0 and inf), and
    # basepoints at 1e-200 i raised ZeroDivisionError.
    census = enumerate_orbit(spec, x, y, max_word_length=max_word_length)
    exact = _exact_distances_of(_exact_word_matrices(spec, census.words), x, y)
    assert _close(census.distances, exact, 1e-12)


def test_schottky_l10_farthest_distances_match_exact_products():
    census = enumerate_orbit(schottky_spec(A, B), max_word_length=10)
    rows = range(len(census) - 3000, len(census))
    words = [census.words[i] for i in rows]
    exact = _exact_distances_of(_exact_word_matrices(census.spec, words), ORIGIN, ORIGIN)
    assert _close(census.distances[rows.start:], exact, 1e-12)


@pytest.mark.parametrize("x, y", [(ORIGIN, ORIGIN), (Point(0.3, 1.7), Point(-0.4, 0.8))],
                         ids=["i", "moved"])
def test_lattice_distances_are_exact(x, y):
    # The rows are exact integers, so their exact distances are those of the
    # group elements; at x = y = i the frame is the row itself, and ties in
    # exact distance stay ties.
    census = enumerate_orbit(modular_lattice_spec(), x, y, max_radius=9.0)
    rows = census.mats.reshape(-1, 4).tolist()
    assert _close(census.distances, _exact_distances_of(rows, x, y), 1e-12)
    if x == y == ORIGIN:
        # Rows with one (a - d)^2 + (b + c)^2 are at one distance, bit for bit.
        m = census.mats
        key = (m[:, 0, 0] - m[:, 1, 1]) ** 2 + (m[:, 0, 1] + m[:, 1, 0]) ** 2
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        assert np.array_equal(census.distances, census.distances[first][inverse])


@pytest.mark.parametrize("spec, y, max_word_length", [
    (schottky_spec(A, B), Point(-0.4, 0.8), 8),
    (nested_subgroup_spec(A, B, 8), ORIGIN, 3),
], ids=["schottky-L8-moved", "nested-8-L3"])
def test_atom_positions_match_exact_products(spec, y, max_word_length):
    # The measures' atoms w.y, against the exact images under the exact
    # products: Im to 1e-12 relative (it was off by 340% at depth 8), Re to
    # 1e-12 of |w.y|, the precision a float Re can hold near the axis.
    census = enumerate_orbit(spec, y=y, max_word_length=max_word_length)
    re, im = census.positions
    coords = [Fraction(v) for v in (y.re, y.im)]
    den = max(v.denominator for v in coords)
    yr, yi = (int(v * den) for v in coords)
    exact = []
    for a, b, c, d in _exact_word_matrices(spec, census.words):
        nr, ni, dr, di = a * yr + b * den, a * yi, c * yr + d * den, c * yi
        n2 = dr * dr + di * di
        exact.append(((nr * dr + ni * di) / n2, (ni * dr - nr * di) / n2))
    exact_re, exact_im = np.array(exact).T
    assert np.all(np.abs(im - exact_im) <= 1e-12 * exact_im)
    assert np.all(np.abs(re - exact_re) <= 1e-12 * np.hypot(exact_re, exact_im))


def test_nested_depths_state_one_completeness_radius():
    # The subtree bound reads each word's Gram matrix, which keeps its
    # precision where the imaginary part of the point w^-1.x was lost (depth
    # 8 stated radius 0.0), so every depth proves the same radius at L3.
    radii = {depth: enumerate_orbit(nested_subgroup_spec(A, B, depth),
                                    max_word_length=3).completeness_radius
             for depth in range(4, 9)}
    assert len(set(radii.values())) == 1, radii
    assert radii[8] > 7.0


def test_rotated_nested_pair_has_the_builtin_distances():
    # The rotation k fixes i, so the nested subgroup of the rotated pair has
    # the builtin ball; at R21 its census listed one extra word at 0.0,
    # which lies at 37.83.
    builtin = enumerate_orbit(nested_subgroup_spec(A, B, 4), max_radius=22.0)
    rotated = enumerate_orbit(nested_subgroup_spec(*_rotated(-0.5, A, B), 4), max_radius=22.0)
    assert len(rotated) == len(builtin) == 53921
    assert np.count_nonzero(rotated.distances <= 21.0) == 29895
    assert np.allclose(rotated.distances, builtin.distances, rtol=0.0, atol=1e-9)
    assert rotated.completeness_radius == builtin.completeness_radius == 22.0


# The nested pairs of the conjugation-invariance and letter tests: the
# builtin pair; a parabolic alpha with beta the translation by 5 along the
# geodesic from -1 to 1; and an elliptic alpha, the rotation about 8i by 2.
_P3 = Isometry(1.0, 3.0, 0.0, 1.0)
_BETA5 = Isometry(math.cosh(2.5), math.sinh(2.5), math.sinh(2.5), math.cosh(2.5))
_ROT_8I = (Isometry(math.sqrt(8.0), 0.0, 0.0, 1.0 / math.sqrt(8.0)) @ _rotation(2.0)
           @ Isometry(1.0 / math.sqrt(8.0), 0.0, 0.0, math.sqrt(8.0)))
_ANGLES = np.linspace(-3.0, 3.0, 25)  # -3, -2.75, ..., 3


def _assert_same_census(census, reference):
    assert len(census) == len(reference)
    assert census.completeness_radius == reference.completeness_radius
    assert np.allclose(census.distances, reference.distances, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("depth", [1, 4, 8, 12])
def test_rotated_nested_pair_has_the_builtin_census_at_every_angle(depth):
    # The rotation about i keeps every orbit distance from i.  Letters
    # composed in the rotated frame certified 5 of these 25 angles at depths
    # 1, 4 and 8, and 1 of 25 at depth 12; in alpha's eigenframe all do.
    builtin = enumerate_orbit(nested_subgroup_spec(A, B, depth), max_radius=12.0)
    for theta in _ANGLES:
        rotated = nested_subgroup_spec(*_rotated(theta, A, B), depth)
        _assert_same_census(enumerate_orbit(rotated, max_radius=12.0), builtin)


@pytest.mark.parametrize("depth", range(2, 9))
def test_rotated_parabolic_nested_pair_has_the_unrotated_census(depth):
    # At this angle no certificate was found for the composed letters.
    reference = enumerate_orbit(nested_subgroup_spec(_P3, _BETA5, depth), max_radius=20.0)
    rotated = nested_subgroup_spec(*_rotated(-2.0, _P3, _BETA5), depth)
    assert groups._normal_form(rotated).kind == "conjugated"
    _assert_same_census(enumerate_orbit(rotated, max_radius=20.0), reference)


def test_a_rotated_nested_spec_is_certified_in_its_eigenframe():
    # Called on the rotated spec itself, not on the inner spec that its
    # census enumerates, the certificate is the eigenframe's.
    spec = nested_subgroup_spec(*_rotated(0.7, A, B), 4)
    inner = groups._normal_form(spec).inner
    certificate = ping_pong_certificate(spec)
    assert certificate == ping_pong_certificate(inner)
    assert np.array_equal(certificate.letters, groups._free_letters(inner))
    assert certificate.margin > 0.0


def test_rotated_elliptic_nested_pair_has_the_unrotated_census():
    # An elliptic alpha has no eigenframe: its letters are the real parts of
    # the closed form, in the frame it is given in.
    reference = enumerate_orbit(nested_subgroup_spec(_ROT_8I, B, 2), max_radius=16.0)
    assert len(reference) == 345
    for theta in (-2.5, 0.7):
        rotated = nested_subgroup_spec(*_rotated(theta, _ROT_8I, B), 2)
        assert groups._normal_form(rotated) == rotated
        _assert_same_census(enumerate_orbit(rotated, max_radius=16.0), reference)


def _fractions(g: Isometry):
    return [[Fraction(g.a), Fraction(g.b)], [Fraction(g.c), Fraction(g.d)]]


def _exact_nested_letters(alpha, beta, depth):
    """alpha^-n beta^+-1 alpha^n for n = 0 .. depth, in the letter order of
    the library, each entry rounded once from the exact product of the
    rational matrices alpha and beta.  With alpha = A / s and beta = B / t
    for integer matrices A and B, a letter is adj(A)^n B A^n / (det(A)^n t),
    and its inverse adj(A)^n adj(B) A^n t / (det(A)^n det(B)), in integers."""
    def ints(m):
        scale = math.lcm(*(v.denominator for row in m for v in row))
        return [[int(v * scale) for v in row] for row in m], scale

    def mul(p, q):
        return [[p[i][0] * q[0][j] + p[i][1] * q[1][j] for j in range(2)] for i in range(2)]

    def adj(p):
        return [[p[1][1], -p[0][1]], [-p[1][0], p[0][0]]]

    def det(p):
        return p[0][0] * p[1][1] - p[0][1] * p[1][0]

    (a, _), (b, t) = ints(alpha), ints(beta)
    m, m_inv, scale, letters = b, adj(b), 1, []
    for _ in range(depth + 1):
        letters.append([[v / (scale * t) for v in row] for row in m])
        letters.append([[v * t / (scale * det(b)) for v in row] for row in m_inv])
        m, m_inv, scale = mul(mul(adj(a), m), a), mul(mul(adj(a), m_inv), a), scale * det(a)
    return np.array(letters)


def _letter_error(mats, exact):
    """The largest error of the float matrices against the exact ones, each
    relative to its exact matrix's largest entry, and up to sign."""
    top = np.abs(exact).max(axis=(1, 2))
    return float((np.minimum(np.abs(mats - exact).max(axis=(1, 2)),
                             np.abs(mats + exact).max(axis=(1, 2))) / top).max())


def _nested_letter_error(alpha, beta, depth, reference=None):
    """The error of the letters of nested(alpha, beta, depth), and of its
    first and last one-letter words, against the exact letters of
    ``reference`` (a matrix of Fractions, default alpha's) and beta."""
    spec = nested_subgroup_spec(alpha, beta, depth)
    if reference is None:
        reference = _fractions(alpha)
    exact = _exact_nested_letters(reference, _fractions(beta), depth)
    signs = (1, -1, depth + 1, -depth - 1)
    words = np.array([word_matrix(spec, (s,)) for s in signs])
    return max(_letter_error(groups._free_letters(spec), exact),
               _letter_error(words, exact[[0, 1, -2, -1]]))


def test_nested_letters_match_exact_products():
    # Composed one Isometry at a time, each product rescaled by the square
    # root of its cancelling determinant, the rotated depth-8 letters were
    # off by 3.8e-6, and depth 12 raised NonInvertibleMatrix.  Closed form:
    # the diagonal pair to depth 12 within 1e-15, and the elliptic alpha.
    assert _nested_letter_error(A, B, 12) <= 1e-15
    assert _nested_letter_error(_ROT_8I, B, 2) <= 1e-14
    # A rotated alpha's letters depend on its eigenvalue ratio to the power
    # 2n, so its last-bit rounding and the few ulps by which det(alpha) is
    # not 1 are amplified 2n-fold (7.3e-15 at worst).
    assert max(_nested_letter_error(*_rotated(theta, A, B), 12) for theta in _ANGLES) <= 1e-14


def test_rotated_parabolic_letters_match_exact_products_at_depth_200():
    alpha, beta = _rotated(-2.0, _P3, _BETA5)
    frame = groups._normal_form(nested_subgroup_spec(alpha, beta, 200))
    # Against the exact parabolic c^-1 alpha' c of the eigenframe, here as
    # det(c) c^-1 alpha' c: the letters do not see a scalar factor.
    c = np.array(_fractions(frame.conjugator), dtype=object)
    c_adj = np.array([[c[1, 1], -c[0, 1]], [-c[1, 0], c[0, 0]]], dtype=object)
    snapped = c_adj @ np.array(_fractions(frame.inner.generators[0]), dtype=object) @ c
    assert _nested_letter_error(alpha, beta, 200, snapped) <= 1e-14
    # Against the float alpha, whose trace is 2 + 5.6e-17: its letters leave
    # those of a parabolic by n^2 times that (1.9e-12 at depth 200).
    assert _nested_letter_error(alpha, beta, 200) <= 1e-11


def _exact_clearance(lo, hi, u, v):
    """d(z, D) for z = u + iv and the half-plane D spanned by the arc from lo
    counterclockwise to hi, in exact rationals on the float arc ends p, q:
    sinh d(z, dD) = |(u - p)(u - q) + v^2| / (v |p - q|), or |u - p| / v for
    an end q at oo.  z is in D iff z lies under the half-circle exactly when
    the arc is the bounded interval between p and q; iff u is in the arc
    when dD is a vertical line."""
    arc = BoundaryInterval(lo, hi)
    p, q = arc.lo, arc.hi
    if p.is_infinity or q.is_infinity:
        xi = Fraction(q.value if p.is_infinity else p.value)
        ratio = abs(Fraction(u) - xi) / Fraction(v)
        inside = arc.contains(BoundaryPoint(u))
    else:
        p, q = Fraction(p.value), Fraction(q.value)
        power = (Fraction(u) - p) * (Fraction(u) - q) + Fraction(v) ** 2
        ratio = abs(power) / (Fraction(v) * abs(p - q))
        inside = (power < 0) == arc.contains(BoundaryPoint(float((p + q) / 2)))
    return 0.0 if inside else math.asinh(ratio)


_POINTS = st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-3.0, 1.0).map(lambda t: 10.0 ** t)),
                   min_size=1, max_size=20)


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(-math.pi, math.pi), points=_POINTS, end=st.floats(0.01, 6.27))
def test_halfplane_clearance_matches_exact_arithmetic(theta, points, end):
    # The certified arcs of a rotated Schottky pair, and two arcs with an end
    # at oo (angle 0 exactly), whose boundary geodesics are vertical lines.
    cert = ping_pong_certificate(conjugate(schottky_spec(A, B), _rotation(theta)))
    arcs = [(arc.lo_angle, arc.hi_angle) for arc in cert.intervals] + [(0.0, end), (end, 0.0)]
    lo, hi = map(np.array, zip(*arcs))
    u, v = map(np.array, zip(*points))
    # Each point z = u + iv as its Gram matrix: K_z^-1 has rows (sqrt v, u / sqrt v), (0, 1 / sqrt v).
    gram = groups._gram(np.sqrt(v), u / np.sqrt(v), np.zeros_like(v), 1.0 / np.sqrt(v))
    exact = [[_exact_clearance(a, b, *z) for z in points] for a, b in arcs]
    for m in range(len(arcs)):
        got = groups._halfplane_clearance(lo[m:m + 1], hi[m:m + 1], *gram)
        assert np.allclose(got, exact[m], rtol=0.0, atol=1e-9)
    least = groups._halfplane_clearance(lo, hi, *gram)
    assert np.allclose(least, np.min(exact, axis=0), rtol=0.0, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(-math.pi, math.pi), points=_POINTS)
def test_shift_is_the_exact_distance_out_of_the_half_planes(theta, points):
    # d(y, y0): the distance from y to the complement of the half-plane it
    # lies in (the arc with its ends swapped), 0 if it lies in none.
    spec = conjugate(schottky_spec(A, B), _rotation(theta))
    for u, v in points:
        lo, hi, shift = groups._certified_halfplanes(spec, Point(u, v))
        exact = max(_exact_clearance(b, a, u, v) for a, b in zip(lo, hi))
        assert shift == pytest.approx(exact, rel=0.0, abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(theta=st.floats(-math.pi, math.pi))
def test_words_send_y_into_the_half_plane_of_their_first_letter(theta):
    # Ping-pong: a reduced word starting with letter m maps y = i, which
    # clears every half-plane, into D_m.
    spec = conjugate(schottky_spec(A, B), _rotation(theta))
    lo, hi, shift = groups._certified_halfplanes(spec, ORIGIN)
    assert shift == 0.0
    census = enumerate_orbit(spec, max_word_length=6)
    first = census.words.letters[:, 0].astype(np.int64)
    mats = census.mats
    gram = groups._gram(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])
    for m in range(len(lo)):
        mine = first == groups.signed_letter(m)
        assert mine.sum() == (3 ** 6 - 1) // 2  # 3^(k-1) words of each length k
        assert not groups._halfplane_clearance(lo[m:m + 1], hi[m:m + 1],
                                               *(g[mine] for g in gram)).any()


def _retained_bytes(census):
    return (census.mats.nbytes + census.distances.nbytes
            + census.word_lengths.nbytes + census.words.letters.nbytes)


@pytest.mark.parametrize("spec, max_word_length, max_radius, ratio", [
    (schottky_spec(A, B), 10, None, 2.0),
    (nested_subgroup_spec(A, B, 4), None, 18.0, 8.0),
], ids=["schottky-L10", "nested-R18"])
def test_free_search_peak_memory_is_a_small_multiple_of_the_census(
        spec, max_word_length, max_radius, ratio):
    # The search holds one letter's children at a time, and the deferred
    # sort, which reading the rows runs inside the window, one extra column
    # at a time.
    tracemalloc.start()
    try:
        census = enumerate_orbit(spec, max_word_length=max_word_length,
                                 max_radius=max_radius)
        retained = _retained_bytes(census)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ratio * retained


def test_radius_bounded_free_search_forms_no_child_out_of_its_letters_reach(monkeypatch):
    # A parent too far from a letter's half-plane for the radius gets no
    # child of that letter: at nested depth 4, R18 the search forms 43,935
    # children for a census of 5,229 (103,619 when every allowed child was
    # formed and then tested).
    formed = []
    distances = groups.origin_distances_many

    def counted(mats, *args):
        formed.append(len(mats))
        return distances(mats, *args)

    monkeypatch.setattr(groups, "origin_distances_many", counted)
    census = enumerate_orbit(nested_subgroup_spec(A, B, 4), max_radius=18.0)
    assert len(census) == 5229
    assert sum(formed) - 1 <= 10 * len(census)  # the root is formed too


def test_lattice_census_peak_memory_is_a_small_multiple_of_the_census():
    # The ball is enumerated in pieces of bounded size, kept until the rows
    # are read; reading them stacks the rows once, computes the word lengths
    # slice by slice and reorders the rows in place, one entry column at a
    # time.
    tracemalloc.start()
    try:
        census = enumerate_orbit(modular_lattice_spec(), max_radius=11.0)
        enumerated = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        census.mats
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    retained = census.mats.nbytes + census.distances.nbytes + census.word_lengths.nbytes
    assert enumerated <= 1.5 * retained
    assert read <= 2.5 * retained


_ROTATION = Isometry(math.cos(0.35), math.sin(0.35), -math.sin(0.35), math.cos(0.35))


@pytest.mark.parametrize("spec, limits", [
    (schottky_spec(A, B), {"max_word_length": 8}),
    (schottky_spec(A, B), {"max_radius": 12.0, "y": Point(-0.4, 0.8)}),
    (nested_subgroup_spec(A, B, 4), {"max_radius": 14.0}),
    (conjugate(schottky_spec(A, B), _ROTATION), {"max_word_length": 6, "x": Point(0.1, 0.9)}),
    (cyclic_spec(PARABOLIC), {"max_radius": 12.0, "x": Point(0.3, 1.7)}),
    (modular_lattice_spec(), {"max_radius": 7.0, "y": Point(0.2, 1.3)}),
    (conjugate(modular_lattice_spec(), _ROTATION), {"max_radius": 6.0}),
], ids=["schottky-L8", "schottky-R12", "nested-R14", "conjugated-schottky", "parabolic",
        "lattice", "conjugated-lattice"])
def test_counting_census_holds_no_row_columns(spec, limits):
    # A counting census has the distances and the completeness radius of
    # the full census, bit for bit, and no rows: reading one raises rather
    # than enumerating again.
    full = enumerate_orbit(spec, **limits)
    census = enumerate_orbit(spec, rows=False, **limits)
    assert census.distances.tobytes() == full.distances.tobytes()
    assert census.completeness_radius == full.completeness_radius
    assert vars(census)["_rows"] is None
    for name in ("mats", "word_lengths", "words", "positions"):
        with pytest.raises(ValueError, match="rows=False"):
            getattr(census, name)
        assert name not in vars(census)


def test_counting_free_search_peak_memory_is_a_small_multiple_of_the_distances():
    # Without rows the search keeps only distance pieces, beside its
    # frontier and one letter's children.  Measured at Schottky L10: 4.8
    # times the distances' bytes; keeping the rows it peaks at 10.0 times.
    tracemalloc.start()
    try:
        census = enumerate_orbit(schottky_spec(A, B), max_word_length=10, rows=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(census) == 2 * 3 ** 10 - 1
    assert peak <= 6.0 * census.distances.nbytes


# ---------------------------------------------------------------------------
# Rows ordered on first read, against eager references.


def _reference_cyclic_census(g, x, y, exponents, max_radius, n_max):
    """(mats, distances, exponents, completeness_radius) of the powers g^n
    for the given n, from the exact powers of the float matrix g (scaled to
    determinant 1, in the sign convention of :class:`Isometry`), listed as
    n = 0, 1, 2, ..., then -1, -2, ... and stably sorted by exact distance.
    The radius is the least of R and the exact distances of the powers with
    |n| <= n_max that are not in the census."""
    def unit(m):
        det = m[0] * m[3] - m[1] * m[2]
        a, b, c, d = Isometry(*(math.sqrt(v * v / det) * (1 if v >= 0 else -1)
                                for v in m)).matrix()
        return [[a, b], [c, d]]

    powers, exact = _exact_powers(g, n_max), _exact_distances(g, x, y, n_max)
    walk = sorted(n for n in exponents if n >= 0) + sorted(
        (n for n in exponents if n < 0), reverse=True)
    dists = np.array([exact[n] for n in walk])
    order = np.argsort(dists, kind="stable")
    inside = set(exponents)
    radius = min([math.inf if max_radius is None else max_radius]
                 + [d for n, d in exact.items() if n not in inside])
    return (np.array([unit(powers[n]) for n in walk])[order], dists[order],
            np.array(walk)[order], radius)


def _reference_lattice_census(x, y, max_radius, max_word_length):
    """(mats, distances, word_lengths, completeness_radius) of the lattice
    ball, from its rows in a shuffled order: distances and word lengths
    recomputed per row, then the 6-key sort by (distance, word length, a, b,
    c, d), a total order on distinct rows."""
    ball = enumerate_orbit(modular_lattice_spec(), x, y, max_radius=max_radius)
    rows = ball.mats.reshape(-1, 4)[np.random.default_rng(5).permutation(len(ball))]
    dists = origin_distances_many(rows.reshape(-1, 2, 2), x, y)
    wls = groups._st_word_lengths(rows)
    radius = max_radius
    if max_word_length is not None:
        long = wls > max_word_length
        radius = min([radius, *dists[long]])
        rows, dists, wls = rows[~long], dists[~long], wls[~long]
    order = np.lexsort((rows[:, 3], rows[:, 2], rows[:, 1], rows[:, 0], wls, dists))
    return rows[order].reshape(-1, 2, 2), dists[order], wls[order], radius


@pytest.mark.parametrize("x, y, max_word_length, first", [
    (ORIGIN, ORIGIN, None, "mats"),
    (ORIGIN, ORIGIN, 10, "word_lengths"),
    (Point(0.3, 1.7), Point(-0.4, 0.8), None, "words"),
], ids=["R9", "R9-L10", "R9-moved"])
def test_lattice_rows_ordered_on_first_read_match_the_six_key_sort(x, y, max_word_length,
                                                                   first):
    census = enumerate_orbit(modular_lattice_spec(), x, y, max_radius=9.0,
                             max_word_length=max_word_length)
    _read_rows(census, first)
    mats, dists, wls, radius = _reference_lattice_census(x, y, 9.0, max_word_length)
    assert census.mats.dtype == mats.dtype and np.array_equal(census.mats, mats)
    assert np.array_equal(census.distances, dists)
    assert census.word_lengths.dtype == wls.dtype
    assert np.array_equal(census.word_lengths, wls)
    assert census.words is None
    assert census.completeness_radius == radius
    if max_word_length is not None:
        assert radius < 9.0


def test_lattice_rows_with_entries_past_two_to_the_fifteen_match_the_six_key_sort():
    # Far up the cusp the ball holds translations T^t with |t| > 2^15, whose
    # entries no fixed 16-bit field of a packed key holds.
    p = Point(0.3, 5000.0)
    census = enumerate_orbit(modular_lattice_spec(), p, p, max_radius=4.0)
    mats, dists, wls, radius = _reference_lattice_census(p, p, 4.0, None)
    assert np.abs(mats).max() > 1 << 15
    assert np.array_equal(census.mats, mats)
    assert np.array_equal(census.distances, dists)
    assert np.array_equal(census.word_lengths, wls)


@pytest.mark.parametrize("scale", [1, 1 << 20, 1 << 40], ids=["one-key", "two-keys", "four-keys"])
def test_packed_order_is_the_lexsort_permutation(scale):
    rng = np.random.default_rng(scale)
    cols = [rng.integers(-scale, scale + 1, 5000) for _ in range(4)]
    cols.append(rng.integers(0, 3, 5000))  # a primary key with many ties
    assert np.array_equal(groups._packed_order(cols), np.lexsort(cols))


_CHUNK = groups._ROW_CHUNK


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_right_products_equal_the_stacked_product_to_the_bit(n):
    # Chunks of 2-D products over the (2n, 2) view, with signed zeros and
    # entries whose products overflow or underflow.
    rng = np.random.default_rng(n)
    mats = rng.standard_normal((n, 2, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2, 2))
    mats.ravel()[::7] = 0.0
    mats.ravel()[3::11] = -0.0
    for m in (*groups._free_letters(schottky_spec(A, B)), np.array([[-0.0, 1e300], [1e-300, 0.0]])):
        with np.errstate(over="ignore", invalid="ignore"):
            want = mats @ m
            got = groups._right_products(mats, m)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _shuffled(values):
    return np.random.default_rng(5).permutation(values)


@pytest.mark.parametrize("make", [
    lambda: np.zeros(0),
    lambda: np.array([2.5]),
    lambda: np.full(1000, 3.0),
    lambda: _shuffled(np.arange(5000.0)),
    lambda: np.array([0.0, -0.0, 1.0, -0.0, 0.0, 1.0, -1.0]),
    lambda: _shuffled(enumerate_orbit(schottky_spec(A, B), max_word_length=8).distances),
    lambda: _shuffled(enumerate_orbit(modular_lattice_spec(), max_radius=10.0).distances),
    lambda: np.random.default_rng(6).integers(0, 50, 3 * _CHUNK + 5).astype(float),
], ids=["empty", "one-row", "all-equal", "no-ties", "signed-zeros", "schottky-L8-ties",
        "lattice-R10", "ties-across-slices"])
def test_stable_order_is_the_stable_argsort(make):
    d = make()
    order = groups._stable_order(d)
    assert order.dtype == np.int64
    assert np.array_equal(order, np.argsort(d, kind="stable"))


def test_word_length_search_bounds_only_its_last_level(monkeypatch):
    # Without a radius every subtree bound is finite, so below the last
    # level none prunes; only the 4 * 3^5 words of level 6 are bounded, and
    # their bounds set the completeness radius.
    bounded = []
    gram = groups._preimage_gram

    def counted(mats, x):
        bounded.append(len(mats))
        return gram(mats, x)

    monkeypatch.setattr(groups, "_preimage_gram", counted)
    census = enumerate_orbit(schottky_spec(A, B), max_word_length=6)
    assert sum(bounded) == 972
    monkeypatch.setattr(groups, "_preimage_gram", gram)
    reference = _reference_free_census(schottky_spec(A, B), ORIGIN, ORIGIN, 6, None)
    assert census.completeness_radius == reference[4]


@pytest.mark.parametrize("g, y, max_word_length, max_radius, first, n_max", [
    (PARABOLIC, Point(0.3, 2.0), None, 12.0, "words", 800),
    (HYPERBOLIC_CYCLIC, Point(-0.5, 0.7), 40, None, "mats", 41),
    (PARABOLIC, Point(-0.4, 0.8), 40, None, "word_lengths", 41),
    (PARABOLIC, Point(0.3, 2.0), 30, 12.0, "mats", 31),
    (PARABOLIC, Point(3000.0, 1.0), 3, None, "words", 3001),
], ids=["parabolic-R12", "hyperbolic-L40", "parabolic-L40-moved", "parabolic-R12-L30",
        "parabolic-L3-far"])
def test_cyclic_rows_ordered_on_first_read_match_an_eager_sort(g, y, max_word_length,
                                                              max_radius, first, n_max):
    census = enumerate_orbit(cyclic_spec(g), ORIGIN, y, max_word_length=max_word_length,
                             max_radius=max_radius)
    _read_rows(census, first)
    mats, dists, exponents, radius = _reference_cyclic_census(
        g, ORIGIN, y, census.words.exponents.tolist(), max_radius, n_max)
    assert _close(census.mats, mats, 1e-13)
    assert _close(census.distances, dists, 1e-13)
    assert np.array_equal(census.words.exponents, exponents)
    assert np.array_equal(census.word_lengths, np.abs(exponents))
    assert _close(census.completeness_radius, radius, 1e-13)


# ---------------------------------------------------------------------------
# Modular lattice census vs an independent algebraic oracle.


def _ext_gcd(a, b):
    if b == 0:
        return a, 1, 0
    g, u, v = _ext_gcd(b, a % b)
    return g, v, u - (a // b) * v


def _oracle_lattice_elements(R):
    """All canonical unimodular integer matrices with d(i, g.i) <= R,
    enumerated from the closed form cosh d = (a^2+b^2+c^2+d^2)/2."""
    bound = 2.0 * math.cosh(R)
    out = set()
    m = int(math.isqrt(int(bound))) + 2
    for c in range(-m, m + 1):
        for d in range(-m, m + 1):
            if c == 0 and d == 0:
                continue
            g, u, v = _ext_gcd(c, d)
            if abs(g) != 1:
                continue
            # a*d - b*c = 1 with (a, b) = (v, -u) * sign(g) plus the
            # t-parameter family (a + t*c, b + t*d).
            a0, b0 = g * v, -g * u
            norm_cd = c * c + d * d
            # Quadratic in t: (a0 + t c)^2 + (b0 + t d)^2 <= bound - norm_cd
            rem = bound - norm_cd
            if rem < 0:
                continue
            mid = -(a0 * c + b0 * d) / norm_cd
            half = math.sqrt(rem / norm_cd) if rem / norm_cd > 0 else 0.0
            for t in range(math.floor(mid - half) - 1, math.ceil(mid + half) + 2):
                a, b = a0 + t * c, b0 + t * d
                if a * a + b * b + norm_cd <= bound + 1e-9:
                    key = (a, b, c, d)
                    if (c, d) < (0, 0) or ((c, d) == (0, 0)):
                        key = (-a, -b, -c, -d)
                    # Canonical sign: make the pair (c, d) lexicographically
                    # positive (first nonzero of (c, d) positive).
                    if c < 0 or (c == 0 and d < 0):
                        key = (-a, -b, -c, -d)
                    else:
                        key = (a, b, c, d)
                    out.add(key)
    # c = d = 0 is impossible for det 1 except with a*d=1: handled above? No:
    # c=0, d=+-1 is covered; the identity family has c=0, d=1.
    return out


def _canonical(mat):
    a, b, c, d = mat
    if c < 0 or (c == 0 and d < 0) or (c == 0 and d == 0 and a < 0):
        return (-a, -b, -c, -d)
    return (a, b, c, d)


@pytest.fixture(scope="module")
def lattice_census():
    return enumerate_orbit(modular_lattice_spec(), max_radius=6.0)


def test_lattice_census_matches_algebraic_oracle(lattice_census):
    got = set()
    for i in range(len(lattice_census)):
        m = lattice_census.mats[i]
        got.add(_canonical((int(round(m[0, 0])), int(round(m[0, 1])),
                            int(round(m[1, 0])), int(round(m[1, 1])))))
    for R in (3.0, 4.5, 6.0):
        oracle = {_canonical(k) for k in _oracle_lattice_elements(R)}
        bfs = {k for k in got
               if math.acosh(sum(v * v for v in k) / 2.0) <= R + 1e-9}
        assert bfs == oracle
    assert len(got) == len(lattice_census)  # no duplicates


def test_lattice_distances_match_closed_form(lattice_census):
    c = lattice_census
    m = c.mats.astype(np.float64)
    norms = (m ** 2).sum(axis=(1, 2))
    expected = np.arccosh(np.maximum(norms / 2.0, 1.0))
    assert np.allclose(c.distances, expected, atol=1e-9)


def test_lattice_horizon_doubling_is_stable(lattice_census):
    deeper = enumerate_orbit(modular_lattice_spec(), max_radius=9.0)
    n_small = int(np.searchsorted(lattice_census.distances, 6.0, side="right"))
    n_deep = int(np.searchsorted(deeper.distances, 6.0, side="right"))
    assert n_small == n_deep


def test_lattice_exact_integer_matrices(lattice_census):
    m = lattice_census.mats
    assert m.dtype.kind == "i" or np.allclose(m, np.round(m))
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    assert np.all(det == 1)


def test_lattice_census_matches_oracle_at_moved_basepoints():
    x, y, R = Point(0.3, 1.7), Point(-0.4, 0.8), 5.0
    census = enumerate_orbit(modular_lattice_spec(), x, y, max_radius=R)
    got = {_canonical(tuple(int(v) for v in m.ravel())) for m in census.mats}
    assert len(got) == len(census)
    # d(i, g.i) <= d(i, x) + d(x, g.y) + d(y, i), so the ball at (x, y) lies
    # in the oracle's ball at i of the larger radius.
    wide = _oracle_lattice_elements(R + ref.distance(ORIGIN, x) + ref.distance(ORIGIN, y))
    oracle = {_canonical(k) for k in wide
              if ref.distance(x, ref.apply(Isometry(*map(float, k)), y)) <= R}
    assert got == oracle
    for i in range(len(census)):
        assert census.distances[i] == pytest.approx(
            ref.distance(x, ref.apply(census.element(i), y)), abs=1e-9)


def _bfs_word_lengths(x, y, radius, slack=3.0):
    """Word lengths in S, T, T^-1 of the lattice elements with
    d(x, g.y) <= radius, by a breadth-first search over the elements with
    d(x, g.y) <= radius + slack (sign-canonical integer tuples)."""
    def canonical(a, b, c, d):
        return (a, b, c, d) if (a or b or c) > 0 else (-a, -b, -c, -d)

    def dist(g):
        return ref.distance(x, ref.apply(Isometry(*map(float, g)), y))

    level = {(1, 0, 0, 1): 0}
    frontier = [(1, 0, 0, 1)]
    while frontier:
        nxt = []
        for a, b, c, d in frontier:
            for g in ((b, -a, d, -c), (a, a + b, c, c + d), (a, b - a, c, d - c)):
                g = canonical(*g)
                if g not in level and dist(g) <= radius + slack:
                    level[g] = level[(a, b, c, d)] + 1
                    nxt.append(g)
        frontier = nxt
    return {g: n for g, n in level.items() if dist(g) <= radius}


@pytest.mark.parametrize("x, y", [(ORIGIN, ORIGIN),
                                  (Point(0.3, 1.7), Point(-0.4, 0.8))],
                         ids=["default", "moved"])
def test_lattice_word_lengths_match_bfs(x, y):
    census = enumerate_orbit(modular_lattice_spec(), x, y, max_radius=7.0)
    got = {tuple(int(v) for v in m.ravel()): int(n)
           for m, n in zip(census.mats, census.word_lengths)}
    assert got == _bfs_word_lengths(x, y, 7.0)


def test_lattice_word_length_limit_and_completeness(lattice_census):
    capped = enumerate_orbit(modular_lattice_spec(), max_radius=6.0,
                             max_word_length=8)
    short = lattice_census.word_lengths <= 8
    assert np.array_equal(capped.mats, lattice_census.mats[short])
    assert np.array_equal(capped.distances, lattice_census.distances[short])
    assert capped.completeness_radius == lattice_census.distances[~short].min()
    assert capped.completeness_radius < 6.0
    assert lattice_census.completeness_radius == 6.0


def test_lattice_basepoints_off_the_fundamental_domain(lattice_census):
    # 0.3 + 0.1i = g.i for an integer g, so its ball is conjugate to the
    # one at i; the enumeration reduces it instead of scanning 1/Im rows.
    p = Point(0.3, 0.1)
    moved = enumerate_orbit(modular_lattice_spec(), p, p, max_radius=6.0)
    assert np.allclose(moved.distances, lattice_census.distances, atol=1e-9)
    # Near a cusp the ball holds ~1e21 translates: refused, not allocated.
    cusp = Point(0.0, 1e-20)
    with pytest.raises(BudgetExceeded):
        enumerate_orbit(modular_lattice_spec(), cusp, cusp, max_radius=5.0)


def test_lattice_needs_a_radius():
    with pytest.raises(ValueError):
        enumerate_orbit(modular_lattice_spec(), max_word_length=5)


@pytest.mark.parametrize("max_word_length", [None, 3])
def test_an_empty_lattice_ball_has_empty_integer_rows(max_word_length):
    census = enumerate_orbit(modular_lattice_spec(), max_radius=-1.0,
                             max_word_length=max_word_length)
    assert len(census) == 0 and census.completeness_radius == -1.0
    assert census.mats.shape == (0, 2, 2) and census.mats.dtype == np.int64
    assert census.word_lengths.shape == (0,) and census.word_lengths.dtype == np.int64


def test_lattice_overflow_guard():
    with pytest.raises(OverflowError):
        enumerate_orbit(modular_lattice_spec(), max_radius=25.0)


# ---------------------------------------------------------------------------
# Conjugation and nesting.


def test_conjugated_census_distances_are_self_consistent():
    c = Isometry(1.0, 0.7, 0.3, 1.3)
    conj = enumerate_orbit(conjugate(schottky_spec(A, B), c), max_word_length=5)
    base = enumerate_orbit(schottky_spec(A, B), c.apply(ORIGIN), c.apply(ORIGIN),
                           max_word_length=5)
    # Stored distances agree with recomputed d(x, g.y) for the stored
    # conjugated matrices ...
    for i in RNG.choice(len(conj), size=100, replace=False):
        g = conj.element(int(i))
        assert ref.distance(ORIGIN, ref.apply(g, ORIGIN)) == pytest.approx(
            conj.distances[int(i)], abs=1e-7)
    # ... and with the inner group's census at the moved basepoints.
    assert len(base) == len(conj)
    assert np.allclose(np.sort(base.distances), np.sort(conj.distances),
                       atol=1e-8)


def test_conjugated_census_matrices_are_conjugated():
    c = Isometry(1.0, 0.7, 0.3, 1.3)
    conj = enumerate_orbit(conjugate(cyclic_spec(A), c), max_word_length=3)
    expected = c.inverse() @ A @ c
    found = [conj.element(i) for i in range(len(conj))
             if conj.word_lengths[i] == 1]
    mats = {tuple(np.round([g.a, g.b, g.c, g.d], 9)) for g in found}
    assert tuple(np.round([expected.a, expected.b, expected.c, expected.d], 9)) in mats


@pytest.mark.parametrize("spec, letter", [
    (cyclic_spec(A), 0), (cyclic_spec(A), 2), (cyclic_spec(A), -2),
    (schottky_spec(A, B), 3), (nested_subgroup_spec(A, B, depth=2), -4)])
def test_word_matrix_rejects_letters_outside_the_alphabet(spec, letter):
    with pytest.raises(ValueError, match=f"letter {letter} is outside"):
        word_matrix(spec, (1, letter))


def test_nested_subgroup_letters_are_conjugated_generators():
    spec = nested_subgroup_spec(A, B, depth=2)
    census = enumerate_orbit(spec, max_word_length=1)
    # Letters b_n = a^-n b a^n for n = 0..depth, plus inverses and identity.
    assert len(census) == 1 + 2 * 3
    expected = {0: B, 1: A.inverse() @ B @ A,
                2: A.inverse() @ A.inverse() @ B @ A @ A}
    dists = sorted(census.distances[census.word_lengths == 1])
    want = sorted(distance(ORIGIN, g.apply(ORIGIN)) for g in expected.values()
                  for _ in range(2))
    assert np.allclose(dists, want, atol=1e-8)


def test_census_monotone_in_truncation():
    shallow = enumerate_orbit(schottky_spec(A, B), max_word_length=4)
    deep = enumerate_orbit(schottky_spec(A, B), max_word_length=6)
    assert len(deep) > len(shallow)
    assert deep.completeness_radius >= shallow.completeness_radius


# ---------------------------------------------------------------------------
# Serialization round-trips.


@pytest.mark.parametrize("spec", [
    schottky_spec(A, B),
    cyclic_spec(PARABOLIC),
    cyclic_spec(HYPERBOLIC_CYCLIC),
    modular_lattice_spec(),
    nested_subgroup_spec(A, B, depth=3),
    conjugate(cyclic_spec(A), Isometry(1.0, 0.5, 0.0, 1.0)),
])
def test_spec_json_round_trip(spec):
    text = spec_to_json(spec)
    back = spec_from_json(text)
    assert back.kind == spec.kind
    assert back.depth == spec.depth
    for g, h in zip(back.generators, spec.generators):
        assert np.allclose([g.a, g.b, g.c, g.d], [h.a, h.b, h.c, h.d])
    json.loads(text)  # valid JSON document


@pytest.mark.parametrize("build, error", [
    (lambda: schottky_spec(A, PARABOLIC), NonHyperbolicGenerator),
    (lambda: GroupSpec("schottky"), ValueError),
    (lambda: cyclic_spec(_rotation(0.5)), ValueError),
    (lambda: cyclic_spec(Isometry.identity()), ValueError),
    (lambda: GroupSpec("cyclic_parabolic", generators=(A,)), ValueError),
    (lambda: GroupSpec("cyclic_hyperbolic", generators=(A, B)), ValueError),
    (lambda: nested_subgroup_spec(A, B, -1), ValueError),
    (lambda: nested_subgroup_spec(A, B, 2.0), ValueError),
    (lambda: nested_subgroup_spec(A, B, True), ValueError),
    (lambda: spec_from_json('{"kind": "nested_subgroup", "depth": 1}'), ValueError),
    (lambda: _conjugation_chain(65), ValueError),
], ids=["schottky-parabolic", "schottky-empty", "cyclic-elliptic", "cyclic-identity",
        "parabolic-on-hyperbolic", "cyclic-two-generators", "nested-negative-depth",
        "nested-float-depth", "nested-bool-depth", "nested-json-without-generators",
        "conjugated-65-deep"])
def test_every_constructor_meets_the_spec_rules(build, error):
    with pytest.raises(error):
        build()


def _conjugation_chain(n):
    """The Schottky pair conjugated n times by the identity."""
    spec = schottky_spec(A, B)
    for _ in range(n):
        spec = conjugate(spec, Isometry.identity())
    return spec


def test_a_64_deep_conjugation_chain_is_a_group():
    census = enumerate_orbit(_conjugation_chain(64), max_word_length=2)
    assert len(census) == 17


def test_spec_json_numbers_are_decimal_strings():
    doc = json.loads(spec_to_json(schottky_spec(A, B)))
    entry = doc["generators"][0][0][0]
    assert isinstance(entry, str)
    assert float(entry) == 3.0


def test_census_csv_round_trip(schottky_census):
    buf = io.StringIO()
    schottky_census.write_csv(buf, header_lines=("example",))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# example"
    assert lines[1] == "distance,word_length,a,b,c,d"
    assert len(lines) == 2 + len(schottky_census)
    row = lines[2].split(",")
    assert float(row[0]) == 0.0
    assert int(row[1]) == 0
    # 12 significant digits on a representative non-trivial row
    deep = lines[-1].split(",")
    assert float(deep[0]) == pytest.approx(schottky_census.distances[-1],
                                           rel=1e-11)


def test_enumerate_requires_a_limit():
    with pytest.raises(ValueError):
        enumerate_orbit(schottky_spec(A, B))

import io
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from kleinian.hyperbolic import Isometry, ORIGIN, Point, distance
from kleinian import groups
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
        propose_intervals((A, A @ A))
    assert err.value.letters is None or len(err.value.letters) == 2


def test_generator_with_its_inverse_fails():
    with pytest.raises(MarginViolation):
        propose_intervals((A, A.inverse()))


def test_non_hyperbolic_generator_rejected():
    with pytest.raises(NonHyperbolicGenerator):
        propose_intervals((A, PARABOLIC))


def test_verify_rejects_overlapping_candidate_arcs():
    good = propose_intervals((A, B))
    bad = (good[0], good[0], good[2], good[3])
    with pytest.raises(MarginViolation) as err:
        verify_ping_pong((A, B), bad)
    assert err.value.letters == (0, 1)


def test_random_reduced_words_are_not_identity():
    spec = schottky_spec(A, B)
    for _ in range(1000):
        length = int(RNG.integers(1, 9))
        word = []
        while len(word) < length:
            s = int(RNG.integers(1, 3)) * (1 if RNG.random() < 0.5 else -1)
            if word and s == -word[-1]:
                continue
            word.append(s)
        m = word_matrix(spec, word)
        assert not m.is_identity(tol=1e-6)
        # Free group: the orbit point moves.
        assert distance(ORIGIN, m.apply(ORIGIN)) > 0.1


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


def _brute_force_powers(g, x, y, n_max):
    """{n: d(x, g^n y)} for |n| <= n_max, powers by repeated products."""
    out = {0: distance(x, y)}
    for sign, step in ((1, g), (-1, g.inverse())):
        m = Isometry.identity()
        for n in range(1, n_max + 1):
            m = m @ step
            out[sign * n] = distance(x, m.apply(y))
    return out


@pytest.mark.parametrize("g, y, max_word_length, max_radius, n_max, size", [
    # y lies 10 translation lengths up the axis: the ball at x = i holds
    # n = -12..-7 (d(i, g^-13 y) is 3 but rounds above it), not the identity.
    (HYPERBOLIC_CYCLIC, Point(0.0, math.exp(10.0)), None, 3.0, 40, 6),
    # y = 3000 + i: the ball holds n = -3004..-2996.
    (PARABOLIC, Point(3000.0, 1.0), None, 3.0, 3100, 9),
    # Word-length cap while the orbit still approaches x: the excluded
    # power g^-10 lands on x, so the census is complete only up to 0.
    (HYPERBOLIC_CYCLIC, Point(0.0, math.exp(10.0)), 3, None, 40, 7),
], ids=["hyperbolic-far-basepoint", "parabolic-far-basepoint",
        "word-length-cap-approaching"])
def test_cyclic_census_matches_brute_force(g, y, max_word_length, max_radius,
                                           n_max, size):
    census = enumerate_orbit(cyclic_spec(g), ORIGIN, y,
                             max_word_length=max_word_length,
                             max_radius=max_radius)
    powers = _brute_force_powers(g, ORIGIN, y, n_max)
    inside = {n for n, d in powers.items()
              if (max_word_length is None or abs(n) <= max_word_length)
              and (max_radius is None or d <= max_radius)}
    assert len(inside) == size
    exponents = [w[0] * len(w) if w else 0 for w in census.words]
    assert sorted(exponents) == sorted(inside)
    assert list(census.distances) == sorted(powers[n] for n in inside)
    assert np.array_equal(census.word_lengths, np.abs(exponents))
    excluded = [d for n, d in powers.items() if n not in inside]
    expected = min(excluded + ([max_radius] if max_radius is not None else []))
    assert census.completeness_radius == expected


def test_deep_cyclic_power_overflow_is_capped_gracefully():
    census = enumerate_orbit(cyclic_spec(A), max_word_length=500)
    # Powers beyond float range are excluded but the census stays valid.
    assert np.isfinite(census.mats).all()
    assert np.all(np.diff(census.distances) >= 0.0)


def _rotation(theta):
    """The rotation about i by angle theta."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return Isometry(c, s, -s, c)


def test_cyclic_walk_ends_where_the_determinant_is_lost():
    # The entries of the powers of a rotated hyperbolic element pass 1e8,
    # and its determinant is lost, long before they reach 1e70; the walk
    # ends there.
    k = _rotation(0.7)
    census = enumerate_orbit(cyclic_spec(k.inverse() @ A @ k), max_word_length=200)
    assert 17 <= len(census) < 401
    assert math.isfinite(census.completeness_radius)
    # The rotation fixes i, so d(i, g^n i) = |n| log 9 while the powers are
    # still accurate.
    near = census.word_lengths <= 8
    assert near.sum() == 17
    assert np.allclose(census.distances[near],
                       census.word_lengths[near] * math.log(9.0), atol=1e-6)


def _exact_distances(g, x, y, n_max):
    """d(x, g^n y) for |n| <= n_max, from the given floats in rational
    arithmetic, so that no power loses precision."""
    out = {}
    xr, xi, yr, yi = (Fraction(v) for v in (x.re, x.im, y.re, y.im))
    for sign, step in ((1, g), (-1, g.inverse())):
        a0, b0, c0, d0 = (Fraction(v) for v in step.matrix())
        a, b, c, d = 1, 0, 0, 1
        for n in range(n_max + 1):
            den = (c * yr + d) ** 2 + (c * yi) ** 2
            wr = ((a * yr + b) * (c * yr + d) + a * c * yi * yi) / den
            wi = (a * d - b * c) * yi / den
            cosh = 1 + ((xr - wr) ** 2 + (xi - wi) ** 2) / (2 * xi * wi)
            out[sign * n] = math.acosh(float(cosh))
            a, b, c, d = a * a0 + b * c0, a * b0 + b * d0, c * a0 + d * c0, c * b0 + d * d0
    return out


@pytest.mark.parametrize("theta", [0.7, 1.4])
def test_cyclic_walk_claims_no_power_it_lost(theta):
    # y = g^N i lies |N| log 9 from i (the rotation k fixes i).  The powers
    # toward a far y lose their determinant before the walk passes its
    # nearest one; every power nearer than the claimed radius, in exact
    # arithmetic on the given floats, must still be in the census.
    k = _rotation(theta)
    g = k.inverse() @ A @ k
    for n_target in range(-24, 25, 4):
        y = k.inverse().apply(Point(0.0, 9.0 ** n_target))
        census = enumerate_orbit(cyclic_spec(g), y=y, max_word_length=200)
        exact = _exact_distances(g, ORIGIN, y, 50)
        assert min(exact[50], exact[-50]) > census.completeness_radius
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
        assert distance(ORIGIN, g.apply(ORIGIN)) == pytest.approx(
            c.distances[int(i)], abs=1e-8)
        w = c.word(int(i))
        assert len(w) == c.word_lengths[int(i)]
        m = word_matrix(c.spec, w)
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


def _brute_force_words(spec, x, y, depth):
    """{word: d(x, w.y)} over the reduced words of length <= depth, by a
    plain recursion over the letters +-1, +-2."""
    letters = {s: word_matrix(spec, (s,)) for s in (1, -1, 2, -2)}
    out = {}

    def visit(word, m):
        out[word] = distance(x, m.apply(y))
        if len(word) < depth:
            for s, g in letters.items():
                if not word or s != -word[-1]:
                    visit(word + (s,), m @ g)

    visit((), Isometry.identity())
    return out


@pytest.mark.parametrize("x, y, max_word_length, max_radius", [
    (Point(0.3, 1.7), Point(-0.4, 0.8), None, 6.0),
    (Point(0.3, 1.7), Point(-0.4, 0.8), 4, None),
    (Point(0.3, 1.7), Point(-0.4, 0.8), 3, 5.0),
    # d(x, y) = ln 50 > 1: the identity is outside the ball, a^-2 is inside.
    (ORIGIN, Point(0.0, 50.0), 2, 1.0),
], ids=["radius", "word-length", "combined", "identity-outside"])
def test_free_census_matches_brute_force(x, y, max_word_length, max_radius):
    spec = schottky_spec(A, B)
    census = enumerate_orbit(spec, x, y, max_word_length=max_word_length,
                             max_radius=max_radius)
    depth = 8 if max_word_length is None else max_word_length
    words = _brute_force_words(spec, x, y, depth)
    inside = {w: d for w, d in words.items()
              if max_radius is None or d <= max_radius}
    if max_word_length is None:
        # The recursion is deep enough: no word of its last level is inside.
        assert max(len(w) for w in inside) < depth
    got = [census.word(i) for i in range(len(census))]
    assert set(got) == set(inside) and len(got) == len(inside)
    assert np.allclose(census.distances, [inside[w] for w in got], atol=1e-9)
    assert np.array_equal(census.word_lengths, [len(w) for w in got])
    if max_radius is not None:
        assert census.completeness_radius <= max_radius


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
    wide = _oracle_lattice_elements(R + distance(ORIGIN, x) + distance(ORIGIN, y))
    oracle = {_canonical(k) for k in wide
              if distance(x, Isometry(*map(float, k)).apply(y)) <= R}
    assert got == oracle
    for i in range(len(census)):
        assert census.distances[i] == pytest.approx(
            distance(x, census.element(i).apply(y)), abs=1e-9)


def _bfs_word_lengths(x, y, radius, slack=3.0):
    """Word lengths in S, T, T^-1 of the lattice elements with
    d(x, g.y) <= radius, by a breadth-first search over the elements with
    d(x, g.y) <= radius + slack (sign-canonical integer tuples)."""
    def canonical(a, b, c, d):
        return (a, b, c, d) if (a or b or c) > 0 else (-a, -b, -c, -d)

    def dist(g):
        return distance(x, Isometry(*map(float, g)).apply(y))

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
        assert distance(ORIGIN, g.apply(ORIGIN)) == pytest.approx(
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

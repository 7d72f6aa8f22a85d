import dataclasses
import io
import math

import numpy as np
import pytest

from kleinian.hyperbolic import (
    BoundaryInterval,
    Isometry,
    ORIGIN,
    Point,
    boundary_angle,
    direction_angles_many,
    distance,
    distances_many,
    shadow,
)
from kleinian.groups import (
    OrbitCensus,
    cyclic_spec,
    enumerate_orbit,
    nested_subgroup_spec,
    ping_pong_certificate,
    schottky_spec,
    word_matrix,
)
from kleinian.patterson import (
    DegenerateNormalizer,
    MismatchedConstruction,
    ModifierH,
    UNIT_MODIFIER,
    atom_positions,
    boundary_histogram,
    conformal_ratio_audit,
    default_horizon,
    equivariance_audit,
    histogram_distance,
    orbital_measure,
    radial_limit_points,
    render_ppm,
    shadow_cover_bound,
    shadow_lemma_audit,
    shadow_mass,
    word_interval,
)
from kleinian.sequences import SequenceProbe, critical_exponent

A = Isometry(3.0, 0.0, 0.0, 1.0 / 3.0)
B = Isometry(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0)
PARABOLIC = Isometry(1.0, 1.0, 0.0, 1.0)


@pytest.fixture(scope="module")
def spec():
    return schottky_spec(A, B)


@pytest.fixture(scope="module")
def census8(spec):
    return enumerate_orbit(spec, max_word_length=8)


@pytest.fixture(scope="module")
def census11(spec):
    return enumerate_orbit(spec, max_word_length=11)


# ---------------------------------------------------------------------------
# Measure construction.


def test_identity_only_census_is_a_point_mass():
    census = enumerate_orbit(cyclic_spec(A), max_word_length=0)
    mu = orbital_measure(census, s=0.7)
    assert len(mu) == 1
    assert mu.total_mass() == 1.0
    assert mu.atom_re[0] == pytest.approx(0.0)
    assert mu.atom_im[0] == pytest.approx(1.0)


@pytest.mark.parametrize("s", [0.3, 0.6685, 1.5])
def test_basepoint_measure_has_unit_mass(census8, s):
    mu = orbital_measure(census8, s)
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_atom_positions_match_word_matrices(census8):
    pre, pim = atom_positions(census8)
    rng = np.random.default_rng(2)
    y = census8.basepoint_y
    for i in rng.integers(0, len(census8), size=40):
        g = Isometry(*census8.mats[i].reshape(4))
        p = g.apply(y)
        assert p.re == pytest.approx(pre[i], abs=1e-9)
        assert p.im == pytest.approx(pim[i], abs=1e-9)


def test_parabolic_weights_follow_closed_form():
    census = enumerate_orbit(cyclic_spec(PARABOLIC), max_word_length=40)
    s = 0.6
    mu = orbital_measure(census, s)
    # d(i, p^n . i) = arccosh(1 + n^2 / 2), so unnormalized weights are
    # e^{-s arccosh(1 + n^2/2)}; verify against the stored words.
    w = mu.weights
    norm = math.exp(mu.log_normalizer)
    for i, word in enumerate(census.words):
        n = len(word)
        expected = math.exp(-s * math.acosh(1.0 + n * n / 2.0)) / norm
        assert w[i] == pytest.approx(expected, rel=1e-12)
    # The heaviest nontrivial atoms are the two single-step translates.
    nontrivial = census.word_lengths > 0
    heaviest = w[nontrivial].max()
    ones = w[census.word_lengths == 1]
    assert len(ones) == 2
    assert np.all(ones == pytest.approx(heaviest))


@pytest.mark.parametrize("x", [None, Point(0.3, 1.7)])
def test_measure_distances_are_the_viewpoint_distances(census8, x):
    mu = orbital_measure(census8, 0.7, x=x)
    expected = distances_many(mu.basepoint, mu.atom_re, mu.atom_im)
    assert np.array_equal(mu.distances, expected)


def test_polynomial_modifier_scales_weights():
    census = enumerate_orbit(cyclic_spec(A), max_word_length=10)
    s, beta = 0.8, 1.5
    mu0 = orbital_measure(census, s)
    mu1 = orbital_measure(census, s, h=ModifierH("polynomial", beta))
    pre, pim = atom_positions(census)
    d = np.arccosh(1.0 + ((pre - 0.0) ** 2 + (pim - 1.0) ** 2) / (2.0 * pim))
    gauge = (1.0 + d) ** beta
    ratio = (mu1.weights / mu0.weights) / gauge
    # Up to the (constant) normalizer ratio, weights differ by (1 + d)^beta.
    assert ratio.max() / ratio.min() == pytest.approx(1.0, rel=1e-9)


def test_modifier_validation():
    with pytest.raises(ValueError):
        ModifierH("exponential", 1.0)
    with pytest.raises(ValueError):
        ModifierH("polynomial", -0.5)


def test_degenerate_normalizer_raises():
    # A census whose only atom is astronomically far away: every series
    # term underflows at s = 1.
    t = math.exp(350.0)
    census = OrbitCensus(
        distances=np.array([700.0]),
        word_lengths=np.array([1]),
        mats=np.array([[[t, 0.0], [0.0, 1.0 / t]]]),
        words=((1,),),
        basepoint_x=ORIGIN,
        basepoint_y=ORIGIN,
        completeness_radius=701.0,
        spec=None,
    )
    with pytest.raises(DegenerateNormalizer):
        orbital_measure(census, s=1.0)


# ---------------------------------------------------------------------------
# Conformality.


def test_conformal_ratio_identity_random_viewpoints(census8):
    rng = np.random.default_rng(4)
    s = 0.6685
    mu = orbital_measure(census8, s)
    for _ in range(20):
        xp = Point(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0))
        audit = conformal_ratio_audit(mu, orbital_measure(census8, s, x=xp))
        assert audit.max_deviation <= 1e-12


def test_conformal_ratio_same_viewpoint_is_exact(census8):
    mu = orbital_measure(census8, 0.5)
    audit = conformal_ratio_audit(mu, orbital_measure(census8, 0.5, x=ORIGIN))
    assert audit.max_deviation == 0.0


def test_conformal_audit_catches_weights_of_another_viewpoint(census8):
    # The audit recomputes the distances from each measure's basepoint, so a
    # measure whose weights and distances belong to another viewpoint fails.
    mu = orbital_measure(census8, 0.5)
    moved = dataclasses.replace(orbital_measure(census8, 0.5, x=Point(0.3, 1.4)),
                                basepoint=Point(-0.3, 1.4))
    assert conformal_ratio_audit(mu, moved).max_deviation > 1e-3


def test_busemann_gap_shrinks_toward_boundary(census8):
    mu = orbital_measure(census8, 0.6685)
    mu_p = orbital_measure(census8, 0.6685, x=Point(0.4, 0.7))
    audit = conformal_ratio_audit(mu, mu_p, far_count=100)
    assert audit.max_gap_beyond(15.0) < 1e-3
    # The finite-distance correction decays with atom depth.
    assert audit.max_gap_beyond(15.0) < audit.busemann_gaps.max() or (
        audit.busemann_gaps.max() < 1e-3)


def test_mismatched_measures_rejected(census8):
    mu = orbital_measure(census8, 0.5)
    with pytest.raises(MismatchedConstruction):
        conformal_ratio_audit(mu, orbital_measure(census8, 0.6))
    beta = ModifierH("polynomial", 1.0)
    with pytest.raises(MismatchedConstruction):
        conformal_ratio_audit(orbital_measure(census8, 0.5, h=beta),
                              orbital_measure(census8, 0.5, x=Point(1.0, 1.0),
                                              h=beta))


# ---------------------------------------------------------------------------
# Equivariance.


def test_equivariance_identity_letter(census8):
    audit = equivariance_audit(census8, 0, s=0.6685)
    assert audit.max_discrepancy == 0.0
    assert audit.leakage == 0.0
    assert audit.unmatched == 0


@pytest.mark.parametrize("letter", [1, -1, 2, -2])
def test_equivariance_matched_atoms_agree(census8, letter):
    audit = equivariance_audit(census8, letter, s=0.6685)
    assert audit.max_discrepancy <= 1e-12
    # Words not starting with the letter shift out of the truncation:
    # 3 * 3^(L-1) of them at the cap L = 8.
    assert audit.unmatched == 3 * 3 ** 7


def test_equivariance_leakage_shrinks_with_depth(spec, census8):
    s = 0.6685
    deep = enumerate_orbit(spec, max_word_length=9)
    shallow = equivariance_audit(census8, 1, s)
    deeper = equivariance_audit(deep, 1, s)
    assert deeper.leakage < shallow.leakage
    assert deeper.leakage > 0.0


def test_cyclic_equivariance_leakage_is_the_boundary_atom():
    length = 12
    census = enumerate_orbit(cyclic_spec(A), max_word_length=length)
    s = 0.4
    audit = equivariance_audit(census, 1, s)
    mu = orbital_measure(census, s)
    # Only the extreme negative power a^(-L) shifts out of a symmetric
    # truncation under a^(-1) pullback.
    idx = [i for i, w in enumerate(census.words)
           if w == tuple([-1] * length)]
    assert len(idx) == 1
    assert audit.unmatched == 1
    assert audit.leakage == pytest.approx(float(mu.weights[idx[0]]), rel=1e-12)
    assert audit.max_discrepancy <= 1e-14


def _reduce_prefix(letter: int, word: tuple) -> tuple:
    """Reduced word of letter^-1 * word (signed generator indices)."""
    if word and word[0] == letter:
        return tuple(word[1:])
    return (-letter,) + tuple(word)


def _reference_shifted_index(census, letter):
    """Index of the reduced word letter^-1 w for each census word w, or -1,
    by reducing word tuples and looking them up in a dict."""
    index = {w: i for i, w in enumerate(census.words)}
    return [index.get(_reduce_prefix(letter, w), -1) for w in census.words]


def _reference_equivariance_audit(census, letter, s):
    """The equivariance audit as a loop over the census words."""
    mu = orbital_measure(census, s)
    g0 = word_matrix(census.spec, (letter,))
    w_pull = orbital_measure(census, s, x=g0.inverse().apply(census.basepoint_x)).weights
    w_mu = mu.weights
    max_disc = leakage = 0.0
    matched = unmatched = 0
    for i, j in enumerate(_reference_shifted_index(census, letter)):
        if j < 0:
            leakage += w_mu[i]
            unmatched += 1
        else:
            max_disc = max(max_disc, abs(w_mu[i] - w_pull[j]))
            matched += 1
    return max_disc, leakage, matched, unmatched


_AUDIT_CENSUSES = {
    "schottky-L8-moved": lambda: enumerate_orbit(
        schottky_spec(A, B), Point(0.3, 1.7), Point(-0.4, 0.8), max_word_length=8),
    "schottky-R9": lambda: enumerate_orbit(schottky_spec(A, B), max_radius=9.0),
    "nested-R15": lambda: enumerate_orbit(nested_subgroup_spec(A, B, 4), max_radius=15.0),
    "cyclic-hyperbolic-L12": lambda: enumerate_orbit(cyclic_spec(A), max_word_length=12),
    "cyclic-parabolic-R8": lambda: enumerate_orbit(cyclic_spec(PARABOLIC), max_radius=8.0),
}


@pytest.mark.parametrize("letter", [1, -1, 2, -2])
@pytest.mark.parametrize("case", list(_AUDIT_CENSUSES))
def test_equivariance_audit_matches_dict_reference(case, letter):
    census = _AUDIT_CENSUSES[case]()
    shifted = census.words.shifted_index(letter)
    assert shifted.tolist() == _reference_shifted_index(census, letter)
    if case.startswith("cyclic") and abs(letter) == 2:
        return  # a cyclic group has no second generator to pull back by
    s = 0.6685
    max_disc, leakage, matched, unmatched = _reference_equivariance_audit(
        census, letter, s)
    audit = equivariance_audit(census, letter, s)
    assert (audit.matched, audit.unmatched) == (matched, unmatched)
    assert audit.max_discrepancy == max_disc
    assert audit.leakage == pytest.approx(leakage, rel=1e-12, abs=0.0)


def test_equivariance_audit_rejects_a_letter_outside_the_group():
    census = enumerate_orbit(cyclic_spec(A), max_word_length=6)
    with pytest.raises(ValueError, match="letter 2 is outside"):
        equivariance_audit(census, 2, 0.5)


# ---------------------------------------------------------------------------
# Shadow masses.


def test_full_circle_shadow_is_total_mass(census8):
    mu = orbital_measure(census8, 0.6685)
    full = BoundaryInterval.full_circle()
    assert shadow_mass(mu, full, horizon=0.0) == pytest.approx(
        mu.total_mass(), abs=1e-12)


def test_shadow_mass_additive_on_partition(census8):
    mu = orbital_measure(census8, 0.6685)
    arc = BoundaryInterval(0.7, 2.7)
    comp = arc.complement()
    total = shadow_mass(mu, arc) + shadow_mass(mu, comp)
    assert total == pytest.approx(mu.total_mass(), abs=1e-9)


def test_shadow_mass_monotone_in_horizon(census8):
    mu = orbital_measure(census8, 0.6685)
    arc = BoundaryInterval(0.0, 3.0)
    masses = [shadow_mass(mu, arc, horizon=t) for t in (0.0, 2.0, 5.0, 8.0)]
    assert masses == sorted(masses, reverse=True)
    assert masses[0] > masses[-1] >= 0.0


def test_shadow_lemma_ratios_bounded(census11):
    mu = orbital_measure(census11, 0.6685)
    audit = shadow_lemma_audit(census11, mu, alpha=0.6685, r=1.5)
    assert not audit.r_too_small
    assert audit.min_ratio > 0.0
    assert audit.max_ratio / audit.min_ratio <= 1e3


def test_shadow_lemma_tiny_radius_flagged(census8):
    # With a high horizon, hairline shadows of shallow elements can miss
    # every far atom; the audit must flag that instead of reporting zeros.
    mu = orbital_measure(census8, 0.6685)
    audit = shadow_lemma_audit(census8, mu, alpha=0.6685, r=1e-4,
                               word_lengths=(3,), horizon=10.5)
    assert audit.r_too_small
    assert audit.empty_shadows > 0


def test_shadow_lemma_matches_direct_shadow_mass(census8):
    # The prefix-table accumulation agrees with the direct per-arc sum.
    mu = orbital_measure(census8, 0.6685)
    horizon = default_horizon(census8)
    audit = shadow_lemma_audit(census8, mu, alpha=0.6685, r=1.5,
                               word_lengths=(4,))
    pre, pim = atom_positions(census8)
    sel = np.nonzero(census8.word_lengths == 4)[0]
    for k, i in enumerate(sel[:10]):
        arc = shadow(mu.basepoint, Point(float(pre[i]), float(pim[i])), 1.5)
        direct = shadow_mass(mu, arc, horizon=horizon)
        assert audit.masses[k] == pytest.approx(direct, abs=1e-12)


def test_shadow_cover_bound_holds(census8):
    mu = orbital_measure(census8, 0.6685)
    bound = shadow_cover_bound(census8, mu, radius=7.0, r=1.5)
    assert bound.count > 0
    assert bound.multiplicity >= 1
    assert bound.holds


@pytest.mark.parametrize("x", [None, Point(0.3, 1.7)])
def test_shadow_cover_bound_masses_are_shadow_masses(census8, x):
    mu = orbital_measure(census8, 0.6685, x=x)
    horizon = default_horizon(census8)
    radius, delta, r = 7.0, 1.0, 1.5
    bound = shadow_cover_bound(census8, mu, radius=radius, r=r, delta=delta)
    base = mu.basepoint
    arcs = []
    d = mu.distances
    for i in np.nonzero((d >= radius - delta) & (d <= radius + delta))[0]:
        p = Point(float(mu.atom_re[i]), float(mu.atom_im[i]))
        arcs.append(BoundaryInterval.full_circle() if distance(base, p) <= r
                    else shadow(base, p, r))
    assert bound.count == len(arcs) > 0
    assert bound.min_mass == min(shadow_mass(mu, arc, horizon=horizon)
                                 for arc in arcs)
    # The covered mass: every atom beyond the horizon in some shadow.
    angles = direction_angles_many(base, mu.atom_re, mu.atom_im)
    inside = np.zeros(len(mu), dtype=bool)
    for arc in arcs:
        inside |= arc.contains_angle(angles)
    far = d >= horizon
    assert bound.covered_mass == math.fsum(mu.weights[far & inside])


# ---------------------------------------------------------------------------
# Radial limit points.


def test_depth_one_limit_points_are_arc_midpoints(spec):
    cert = ping_pong_certificate(spec)
    points = radial_limit_points(spec, depth=1)
    assert len(points) == 4
    for rlp, arc in zip(points, cert.intervals):
        assert rlp.angle == pytest.approx(arc.midpoint_angle(), abs=1e-12)


def test_limit_points_have_distinct_codings(spec):
    points = radial_limit_points(spec, depth=3)
    assert len(points) == 4 * 3 * 3
    angles = sorted(p.angle for p in points)
    gaps = np.diff(angles)
    assert gaps.min() > 1e-6


def test_limit_points_lie_in_their_first_letter_arc(spec):
    cert = ping_pong_certificate(spec)
    for rlp in radial_limit_points(spec, depth=3):
        first = rlp.word[0]
        # Signed letter k maps to certificate slot 2(|k|-1) + (k < 0).
        slot = 2 * (abs(first) - 1) + (1 if first < 0 else 0)
        assert cert.intervals[slot].contains_angle(rlp.angle)


def test_word_intervals_nest(spec):
    for w in ((0, 3), (2, 0), (1, 2)):
        outer = word_interval(spec, w[:1])
        inner = word_interval(spec, w)
        assert outer.contains_interval(inner) > 0.0


def test_attracting_fixed_points_sit_in_generator_arcs(spec):
    cert = ping_pong_certificate(spec)
    for slot, g in zip((0, 1, 2, 3), (A, A.inverse(), B, B.inverse())):
        attracting, _ = g.fixed_points()
        assert cert.intervals[slot].contains(attracting)


# ---------------------------------------------------------------------------
# Histogram and render.


def test_histogram_conserves_mass(census8):
    mu = orbital_measure(census8, 0.6685)
    hist = boundary_histogram(mu, bins=256)
    assert float(hist.mass.sum()) == pytest.approx(mu.total_mass(), abs=1e-9)
    assert len(hist.mass) == 256
    assert hist.bin_lo[0] == 0.0
    assert hist.bin_hi[-1] == pytest.approx(2.0 * math.pi)


def test_histogram_csv_format(census8):
    mu = orbital_measure(census8, 0.6685)
    hist = boundary_histogram(mu, bins=16)
    buf = io.StringIO()
    hist.write_csv(buf, header_lines=("meta",))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "bin_lo,bin_hi,mass"
    assert len(lines) == 2 + 16


def test_histogram_distance_metric_basics(census8):
    mu = orbital_measure(census8, 0.6685)
    h1 = boundary_histogram(mu, bins=64)
    h2 = boundary_histogram(mu, bins=64, horizon=5.0)
    assert histogram_distance(h1, h1) == 0.0
    assert histogram_distance(h1, h2) == pytest.approx(
        histogram_distance(h2, h1))
    with pytest.raises(ValueError):
        histogram_distance(h1, boundary_histogram(mu, bins=32))


def test_render_header_and_determinism(census8):
    mu = orbital_measure(census8, 0.6685)
    out1, out2 = io.BytesIO(), io.BytesIO()
    render_ppm(mu, out1, size=128)
    render_ppm(mu, out2, size=128)
    data = out1.getvalue()
    assert data.startswith(b"P6\n128 128\n255\n")
    assert len(data) == len(b"P6\n128 128\n255\n") + 3 * 128 * 128
    assert data == out2.getvalue()


# ---------------------------------------------------------------------------
# Slow-gauge neutrality.


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_polynomial_gauge_preserves_growth_exponent(beta):
    # The series terms e^{delta n} (1 + n)^beta and e^{delta n} have the
    # same critical exponent; at horizon 2000 the tail rates differ by
    # beta ln(n)/n, well inside the 1e-2 agreement target.
    delta = 0.6685
    n = np.arange(2001)
    gauge = ModifierH("polynomial", beta) if beta > 0 else UNIT_MODIFIER
    lu = delta * n + gauge.log_value(n.astype(float))
    pair = critical_exponent(SequenceProbe.from_log(lu))
    base = critical_exponent(SequenceProbe.from_log(delta * n))
    assert abs(pair.from_terms - base.from_terms) <= 1e-2
    assert abs(pair.from_partial_sums - base.from_partial_sums) <= 1e-2

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
    apply_boundary_many,
    apply_many,
    boundary_angles,
    boundary_angle,
    direction_angles_many,
    disk_points_many,
    distance,
    distances_many,
    shadow,
)
from kleinian.groups import (
    OrbitCensus,
    conjugate,
    cyclic_spec,
    enumerate_orbit,
    modular_lattice_spec,
    nested_subgroup_spec,
    ping_pong_certificate,
    schottky_spec,
    signed_letter,
    word_matrix,
)
from kleinian import patterson
from kleinian.counting import poincare_partial
from kleinian.patterson import (
    CensusAtoms,
    DegenerateNormalizer,
    MismatchedConstruction,
    ModifierH,
    UNIT_MODIFIER,
    boundary_histogram,
    conformal_ratio_audit,
    default_horizon,
    equivariance_audit,
    orbital_measure,
    render_ppm,
    shadow_cover_bound,
    shadow_lemma_audit,
    shadow_mass,
)
from kleinian.sequences import SequenceProbe, critical_exponent

import scalar_reference as ref

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
    assert math.fsum(mu.weights) == 1.0
    assert mu.atom_re[0] == pytest.approx(0.0)
    assert mu.atom_im[0] == pytest.approx(1.0)


@pytest.mark.parametrize("s", [0.3, 0.6685, 1.5])
def test_basepoint_measure_has_unit_mass(census8, s):
    mu = orbital_measure(census8, s)
    assert math.fsum(mu.weights) == pytest.approx(1.0, abs=1e-12)


def test_atom_positions_match_word_matrices(census8):
    pre, pim = census8.positions
    rng = np.random.default_rng(2)
    y = census8.basepoint_y
    for i in rng.integers(0, len(census8), size=40):
        g = Isometry(*census8.mats[i].reshape(4))
        p = ref.apply(g, y)
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
    if x is None:  # the census's own distances, not a recomputation
        assert mu.distances is census8.distances
    else:
        expected = distances_many(mu.basepoint, mu.atom_re, mu.atom_im)
        assert np.array_equal(mu.distances, expected)


_ROTATION = Isometry(math.cos(0.35), math.sin(0.35), -math.sin(0.35), math.cos(0.35))


@pytest.mark.parametrize("spec, limits", [
    (schottky_spec(A, B), {"max_word_length": 8, "y": Point(-0.4, 0.8)}),
    (cyclic_spec(PARABOLIC), {"max_radius": 12.0, "x": Point(0.3, 1.7)}),
    (modular_lattice_spec(), {"max_radius": 7.0, "y": Point(0.2, 1.3)}),
    (nested_subgroup_spec(A, B, 4), {"max_radius": 14.0}),
    (conjugate(schottky_spec(A, B), _ROTATION), {"max_word_length": 7, "x": Point(0.1, 0.9)}),
], ids=["schottky", "cyclic", "lattice", "nested", "conjugated"])
def test_census_distances_match_the_point_formula(spec, limits):
    # The measures read the census's distances, formed from the matrices;
    # the distances of the mapped orbit points agree with them to rounding.
    census = enumerate_orbit(spec, **limits)
    d = distances_many(census.basepoint_x, *census.positions)
    np.testing.assert_allclose(d, census.distances, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("max_word_length", [8, 10, 11])
def test_basepoint_weights_follow_the_census_order(request, spec, max_word_length):
    census = (enumerate_orbit(spec, max_word_length=10) if max_word_length == 10
              else request.getfixturevalue(f"census{max_word_length}"))
    s = 0.75
    mu = orbital_measure(census, s)
    assert np.count_nonzero(np.diff(mu.weights) > 0.0) == 0
    # Under the unit gauge the identity row is the logsumexp's max, 0.
    assert mu.log_normalizer == math.log(poincare_partial(census, s))


def test_polynomial_modifier_scales_weights():
    census = enumerate_orbit(cyclic_spec(A), max_word_length=10)
    s, beta = 0.8, 1.5
    mu0 = orbital_measure(census, s)
    mu1 = orbital_measure(census, s, h=ModifierH("polynomial", beta))
    pre, pim = census.positions
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
    deep = audit.busemann_gaps[audit.busemann_distances >= 15.0]
    assert len(deep) > 0 and deep.max() < 1e-3
    # The finite-distance correction decays with atom depth.
    assert deep.max() < audit.busemann_gaps.max() or (
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
    (a, b), (c, d) = word_matrix(census.spec, (letter,))
    re, im = apply_many([[[d, -b], [-c, a]]], census.basepoint_x)
    w_pull = orbital_measure(census, s, x=Point(float(re[0]), float(im[0]))).weights
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
        math.fsum(mu.weights), abs=1e-12)


def test_shadow_mass_additive_on_partition(census8):
    mu = orbital_measure(census8, 0.6685)
    arc = BoundaryInterval(0.7, 2.7)
    comp = arc.complement()
    total = shadow_mass(mu, arc) + shadow_mass(mu, comp)
    assert total == pytest.approx(math.fsum(mu.weights), abs=1e-9)


def test_shadow_mass_monotone_in_horizon(census8):
    mu = orbital_measure(census8, 0.6685)
    arc = BoundaryInterval(0.0, 3.0)
    masses = [shadow_mass(mu, arc, horizon=t) for t in (0.0, 2.0, 5.0, 8.0)]
    assert masses == sorted(masses, reverse=True)
    assert masses[0] > masses[-1] >= 0.0


def test_shadow_lemma_ratios_bounded(census11):
    mu = orbital_measure(census11, 0.6685)
    audit = shadow_lemma_audit(census11, mu, alpha=0.6685, r=1.5)
    assert audit.empty_shadows == 0
    assert audit.min_ratio > 0.0
    assert audit.max_ratio / audit.min_ratio <= 1e3


def test_shadow_lemma_tiny_radius_flagged(census8):
    # With a high horizon, hairline shadows of shallow elements can miss
    # every far atom; the audit must flag that instead of reporting zeros.
    mu = orbital_measure(census8, 0.6685)
    audit = shadow_lemma_audit(census8, mu, alpha=0.6685, r=1e-4,
                               word_lengths=(3,), horizon=10.5)
    assert audit.empty_shadows > 0


def test_shadow_lemma_matches_direct_shadow_mass(census8):
    # The prefix-table accumulation agrees with the direct per-arc sum.
    mu = orbital_measure(census8, 0.6685)
    horizon = default_horizon(census8)
    audit = shadow_lemma_audit(census8, mu, alpha=0.6685, r=1.5,
                               word_lengths=(4,))
    pre, pim = census8.positions
    sel = np.nonzero(census8.word_lengths == 4)[0]
    for k, i in enumerate(sel[:10]):
        arc = shadow(mu.basepoint, Point(float(pre[i]), float(pim[i])), 1.5)
        direct = shadow_mass(mu, arc, horizon=horizon)
        assert audit.masses[k] == pytest.approx(direct, abs=1e-12)


def _reference_shadow_lemma_audit(census, mu, alpha, r, word_lengths=(3, 4, 5, 6, 7),
                                  horizon=None):
    """(distances, masses, ratios) of the shadow-lemma audit as a loop over
    the band elements that builds each shadow arc with the scalar reference
    `shadow` and reads its mass off the sorted-angle prefix table."""
    if horizon is None:
        horizon = default_horizon(census)
    base = mu.basepoint
    far = mu.distances >= horizon
    angles = direction_angles_many(base, mu.atom_re[far], mu.atom_im[far])
    order = np.argsort(angles, kind="stable")
    angles = angles[order]
    prefix = np.concatenate([[0.0], np.cumsum(mu.weights[far][order])])
    total = prefix[-1]
    dists, masses = [], []
    for i in np.nonzero(np.isin(census.word_lengths, word_lengths))[0]:
        p = Point(float(mu.atom_re[i]), float(mu.atom_im[i]))
        d = ref.distance(base, p)
        arc = ref.shadow(base, p, r) if d > 0 else BoundaryInterval.full_circle()
        if arc.full:
            m = total
        else:
            lo = arc.lo_angle
            hi = (lo + arc.width()) % (2.0 * math.pi)
            i_lo = np.searchsorted(angles, lo, side="left")
            i_hi = np.searchsorted(angles, hi, side="right")
            m = (prefix[i_hi] - prefix[i_lo] if lo <= hi
                 else (total - prefix[i_lo]) + prefix[i_hi])
        dists.append(d)
        masses.append(float(m))
    dists, masses = np.array(dists), np.array(masses)
    return dists, masses, masses * np.exp(alpha * dists)


@pytest.mark.parametrize("case, x, r, kwargs", [
    ("census11", None, 1.5, {}),
    ("census8", Point(0.3, 1.7), 1.5, {}),
    ("census8", Point(-0.5, 0.6), 0.3, {}),
    ("census8", None, 4.0, {"horizon": 0.0, "word_lengths": range(9)}),
    ("census8", None, 1e-4, {"horizon": 10.5, "word_lengths": (3,)}),
], ids=["L11", "L8-moved", "L8-moved-r0.3", "L8-all-lengths", "L8-hairline"])
def test_shadow_lemma_audit_matches_the_per_element_loop(request, case, x, r, kwargs):
    census = request.getfixturevalue(case)
    mu = orbital_measure(census, 0.6685, x=x)
    audit = shadow_lemma_audit(census, mu, alpha=0.6685, r=r, **kwargs)
    dists, masses, ratios = _reference_shadow_lemma_audit(census, mu, 0.6685, r, **kwargs)
    assert np.array_equal(audit.masses, masses)
    assert audit.empty_shadows == int((masses == 0.0).sum())
    np.testing.assert_allclose(audit.distances, dists, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(audit.ratios, ratios, rtol=1e-13)


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
def test_shadow_lemma_audit_rejects_a_radius_that_is_not_positive(census8, r):
    mu = orbital_measure(census8, 0.6685)
    with pytest.raises(ValueError, match="positive"):
        shadow_lemma_audit(census8, mu, alpha=0.6685, r=r)


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
# Coding intervals.


def word_interval(spec, word_indices):
    """Nested coding interval of a reduced word: the image of the last
    letter's ping-pong arc under the preceding prefix, which keeps the
    circular orientation of its ends."""
    arc = ping_pong_certificate(spec).intervals[word_indices[-1]]
    g = word_matrix(spec, tuple(map(signed_letter, word_indices[:-1])))
    lo, hi = boundary_angles(apply_boundary_many(g, np.array([arc.lo.value, arc.hi.value])))
    return BoundaryInterval(float(lo), float(hi))


def test_word_intervals_nest(spec):
    for w in ((0, 3), (2, 0), (1, 2)):
        outer = word_interval(spec, w[:1])
        inner = word_interval(spec, w)
        # outer holds both ends of inner, and inner does not run round the
        # circle through the start of outer: inner lies inside outer.
        assert outer.contains_angle(inner.lo_angle) and outer.contains_angle(inner.hi_angle)
        assert not inner.contains_angle(outer.lo_angle)
        assert inner.width() < outer.width()


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
    assert float(hist.mass.sum()) == pytest.approx(math.fsum(mu.weights), abs=1e-9)
    assert len(hist.mass) == 256
    assert hist.bin_lo[0] == 0.0
    assert hist.bin_hi[-1] == pytest.approx(2.0 * math.pi)


@pytest.mark.parametrize("x", [None, Point(0.3, 1.7)], ids=["basepoint", "moved"])
def test_far_atom_angles_are_computed_once_per_viewpoint_and_horizon(census8, monkeypatch, x):
    # Ragged chunks must give the bytes of one call of the kernel.
    monkeypatch.setattr(patterson, "_ANGLE_CHUNK", 1000)
    calls = []

    def kernel(*args):
        calls.append(len(args[1]))
        return direction_angles_many(*args)

    monkeypatch.setattr(patterson, "direction_angles_many", kernel)
    atoms = CensusAtoms(census8)
    chunks = -(-len(census8) // 1000)
    for horizon in (3.0, 0.0):
        for s in (0.8, 0.7, 0.9):
            mu = orbital_measure(census8, s, x=x, atoms=atoms)
            far = mu.distances >= horizon
            want = direction_angles_many(mu.basepoint, mu.atom_re[far], mu.atom_im[far])
            hist = boundary_histogram(mu, bins=97, horizon=horizon)
            mass, _ = np.histogram(want, bins=np.linspace(0.0, 2.0 * math.pi, 98),
                                   weights=mu.weights[far])
            assert hist.mass.tobytes() == mass.tobytes()
            angles, _ = patterson._far_atoms(mu, horizon)
            assert angles.tobytes() == want.tobytes()
        assert len(calls) == chunks and sum(calls) == far.sum()
        calls.clear()
    # Once the atoms are freed, each call computes the angles again.
    del atoms
    angles, _ = patterson._far_atoms(mu, 0.0)
    assert angles.tobytes() == want.tobytes() and len(calls) == chunks


def _reference_render_ppm(mu, size):
    """The render's pixel data with every atom mapped and added in one pass."""
    w = disk_points_many(mu.basepoint, mu.atom_re, mu.atom_im)
    px = np.clip(((w.real + 1.0) / 2.0 * size).astype(np.int64), 0, size - 1)
    py = np.clip(((1.0 - (w.imag + 1.0) / 2.0) * size).astype(np.int64), 0, size - 1)
    density = np.zeros((size, size))
    np.add.at(density, (py, px), mu.weights)
    gray = (255.0 * (1.0 - density / density.max())).astype(np.uint8)
    return np.repeat(gray[:, :, None], 3, axis=2).tobytes()


@pytest.mark.parametrize("x", [None, Point(0.3, 1.7)], ids=["basepoint", "moved"])
def test_render_in_ragged_chunks_matches_one_pass(spec, monkeypatch, x):
    # 161 atoms in chunks of 10, the last one ragged.  At s = 0.3 every
    # atom weighs over 1/255 of the heaviest, so each one shows in the bytes.
    monkeypatch.setattr(patterson, "_ANGLE_CHUNK", 10)
    mu = orbital_measure(enumerate_orbit(spec, max_word_length=4), 0.3, x=x)
    assert mu.weights.min() > mu.weights.max() / 255.0
    fh = io.BytesIO()
    render_ppm(mu, fh)
    assert fh.getvalue() == b"P6\n1024 1024\n255\n" + _reference_render_ppm(mu, 1024)


def test_histogram_csv_format(census8):
    mu = orbital_measure(census8, 0.6685)
    hist = boundary_histogram(mu, bins=16)
    buf = io.StringIO()
    hist.write_csv(buf, header_lines=("meta",))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "bin_lo,bin_hi,mass"
    assert len(lines) == 2 + 16


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

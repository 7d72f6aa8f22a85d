import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kleinian.hyperbolic import Isometry
from kleinian.groups import enumerate_orbit, schottky_spec
from kleinian.counting import estimate_exponent, make_report
from kleinian.sequences import (
    AllZero,
    HypothesisViolated,
    NotSubmultiplicative,
    SequenceProbe,
    critical_exponent,
    divergence_argument_check,
    envelope_constant,
    fait_check,
    fekete_check,
    lemma1_check,
    minimal_fait_scale,
)


# ---------------------------------------------------------------------------
# Probe construction.


def test_probe_rejects_negative_values():
    with pytest.raises(ValueError):
        SequenceProbe.from_values([1.0, -2.0, 3.0])


def test_probe_rejects_all_zero():
    with pytest.raises(AllZero):
        SequenceProbe.from_values([0.0, 0.0, 0.0])


def test_probe_rejects_nan_and_short():
    with pytest.raises(ValueError):
        SequenceProbe.from_log([0.0, math.nan])
    with pytest.raises(ValueError):
        SequenceProbe.from_log([0.0])


def test_probe_accepts_zero_terms_as_neg_inf():
    probe = SequenceProbe.from_values([0.0, 1.0, 0.0, 2.0])
    assert probe.log_u[0] == -math.inf
    assert probe.log_u[2] == -math.inf


# ---------------------------------------------------------------------------
# Critical exponent of a sequence.


def test_exponent_of_geometric_sequence():
    n = np.arange(2001)
    pair = critical_exponent(SequenceProbe.from_log(0.7 * n))
    assert pair.from_terms == pytest.approx(0.7, abs=1e-12)
    assert pair.from_partial_sums == pytest.approx(0.7, abs=1e-2)


def test_exponent_ignores_polynomial_factor():
    n = np.arange(2001)
    lu = 0.4 * n + np.log(np.maximum(n, 1))
    pair = critical_exponent(SequenceProbe.from_log(lu))
    assert pair.from_terms == pytest.approx(0.4, abs=1e-2)
    assert pair.from_partial_sums == pytest.approx(0.4, abs=1e-2)


def test_exponent_agreement_on_random_log_lipschitz_sequences():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        increments = rng.uniform(0.05, 0.95, size=1500)
        pair = critical_exponent(SequenceProbe.from_log(np.cumsum(increments)))
        worst = max(worst, abs(pair.from_terms - pair.from_partial_sums))
    assert worst <= 1e-2


def test_exponent_of_alternating_blocks_is_the_limsup():
    # Growth rate alternates between 0.3 and 0.6 on blocks of length 100:
    # liminf and limsup of (1/n) ln u_n genuinely differ, and both
    # estimates see only the limsup.
    n = np.arange(4001)
    rate = np.where((n // 100) % 2 == 0, 0.3, 0.6)
    pair = critical_exponent(SequenceProbe.from_log(rate * n))
    assert pair.from_terms == pytest.approx(0.6, abs=0.02)
    assert pair.from_partial_sums == pytest.approx(0.6, abs=0.02)


def test_exponent_sees_late_spike_only_with_long_enough_horizon():
    lu = np.zeros(1201)
    lu[1000] = 300.0
    pair = critical_exponent(SequenceProbe.from_log(lu))
    assert pair.from_terms == pytest.approx(0.3, abs=1e-9)
    assert pair.from_partial_sums >= 0.25
    # Truncating before the spike hides it entirely.
    short = critical_exponent(SequenceProbe.from_log(lu[:900]))
    assert short.from_terms == pytest.approx(0.0, abs=1e-9)
    assert short.from_partial_sums <= 0.01


# ---------------------------------------------------------------------------
# Series classification.


def classifications_agree(report) -> bool:
    """Whether the term and partial-sum series get the same class at every
    grid s outside the neutral band around the common exponent."""
    center = max(report.exponents.from_terms, report.exponents.from_partial_sums)
    return all(cu == cs for s, cu, cs in zip(report.s_grid,
                                             report.classification_terms,
                                             report.classification_sums)
               if abs(s - center) > report.neutral_band)


def test_lemma1_geometric_classification():
    n = np.arange(3001)
    probe = SequenceProbe.from_log(0.5 * n)
    report = lemma1_check(probe, s_grid=[0.3, 0.4, 0.45, 0.55, 0.6, 0.7])
    assert report.classification_terms == (
        "growing", "growing", "growing", "bounded", "bounded", "bounded")
    assert report.classification_terms == report.classification_sums
    assert classifications_agree(report)
    assert report.agreement <= 1e-2


def test_lemma1_neutral_band_suppresses_borderline_disagreement():
    n = np.arange(3001)
    probe = SequenceProbe.from_log(0.5 * n)
    # s right at the exponent is inconclusive at any finite horizon; the
    # band keeps the agreement verdict from depending on it.
    report = lemma1_check(probe, s_grid=[0.5])
    assert report.neutral_band == 0.02
    assert classifications_agree(report)


# ---------------------------------------------------------------------------
# Submultiplicativity and root convergence.


def test_fekete_exact_geometric():
    n = np.arange(201)
    report = fekete_check(SequenceProbe.from_log(math.log(3.0) * n))
    assert report.gap == pytest.approx(0.0, abs=1e-12)
    assert report.log_root_inf == pytest.approx(math.log(3.0), abs=1e-12)


def test_fekete_prefactor_above_one_converges_from_above():
    # u_n = c r^n with c >= 1 is submultiplicative; the n-th roots decrease
    # to r with gap (ln c)/n at the horizon.
    c, r, n_max = 2.0, 1.5, 400
    n = np.arange(n_max + 1)
    report = fekete_check(SequenceProbe.from_log(math.log(c) + math.log(r) * n))
    assert report.log_root_inf == pytest.approx(
        math.log(r) + math.log(c) / n_max, abs=1e-12)
    assert report.gap == pytest.approx(0.0, abs=1e-12)


def test_fekete_detects_planted_violation():
    n = np.arange(201)
    lu = math.log(2.0) * n.astype(float)
    lu[100] += 1.0
    with pytest.raises(NotSubmultiplicative) as exc:
        fekete_check(SequenceProbe.from_log(lu))
    n0, m0 = exc.value.witness
    assert n0 + m0 == 100


def test_fekete_requires_positive_terms():
    with pytest.raises(ValueError):
        fekete_check(SequenceProbe.from_values([1.0, 2.0, 0.0, 8.0]))


# ---------------------------------------------------------------------------
# Windowed supermultiplicativity.


def test_fait_geometric_sequence():
    n = np.arange(1001)
    report = fait_check(SequenceProbe.from_log(0.5 * n), kappa=2)
    assert report.log_limit == pytest.approx(0.5, abs=1e-2)
    assert report.tail_oscillation <= 1e-3
    assert report.envelope_constant == pytest.approx(1.0, rel=0.01)
    assert report.chain_constant <= 1.0 + 1e-9


def test_fait_rejects_isolated_spike():
    lu = np.zeros(201)
    lu[50] = 100.0
    with pytest.raises(HypothesisViolated) as exc:
        fait_check(SequenceProbe.from_log(lu), kappa=2)
    k, l = exc.value.witness
    assert k == 50 or l == 50


def test_fait_kappa_must_be_positive():
    with pytest.raises(ValueError):
        fait_check(SequenceProbe.from_log(np.arange(10.0)), kappa=0)


def test_minimal_fait_scale_repairs_violation():
    rng = np.random.default_rng(3)
    lu = 0.5 * np.arange(301) + rng.uniform(-1.0, 1.0, size=301)
    probe = SequenceProbe.from_log(lu)
    scale = minimal_fait_scale(probe, kappa=2)
    report = fait_check(probe, kappa=2, scale=scale * (1.0 + 1e-9))
    assert report.scale == pytest.approx(scale, rel=1e-6)
    if scale > 1.0:
        with pytest.raises(HypothesisViolated):
            fait_check(probe, kappa=2, scale=scale / 2.0)


def test_envelope_constant_nonincreasing_in_base():
    probe = SequenceProbe.from_log(0.5 * np.arange(301))
    values = [envelope_constant(probe, b) for b in (0.45, 0.5, 0.55)]
    assert values[0] >= values[1] >= values[2]
    assert values[1] == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# Divergence argument for rescaled counts.


def test_divergence_recovers_growth_rate():
    n = np.arange(1, 5001)
    report = divergence_argument_check(SequenceProbe.from_log(0.8 * n))
    assert report.subadditive
    assert report.growth_rate == pytest.approx(0.8, abs=1e-3)
    assert report.tail_lower_bound >= 1.0 - 1e-9


def test_divergence_rate_tightens_on_long_horizon():
    n = np.arange(1, 2_000_001)
    report = divergence_argument_check(
        SequenceProbe.from_log(1.0 * n), rng=np.random.default_rng(7))
    assert report.subadditive
    assert report.growth_rate == pytest.approx(1.0, abs=1e-6)


def test_divergence_constant_sequence_rate_decays():
    # w == 1 gives W~_n = 1 + n(n+1)/2, so the rate proxy is ~ 2 ln(n)/n.
    probe = SequenceProbe.from_values(np.ones(3000))
    report = divergence_argument_check(probe)
    assert report.subadditive
    assert 0.0 < report.growth_rate < 0.01


def test_divergence_hypothesis_violation_witnessed():
    lw = np.zeros(100)
    lw[1] = 50.0  # w_2 = e^50 > W_1 * W_1 = 1
    with pytest.raises(HypothesisViolated) as exc:
        divergence_argument_check(SequenceProbe.from_log(lw))
    assert sum(exc.value.witness) == 2


# ---------------------------------------------------------------------------
# Annular orbit counts feed the sequence engine end to end.


@pytest.fixture(scope="module")
def schottky_annular():
    a = Isometry(3.0, 0.0, 0.0, 1.0 / 3.0)
    b = Isometry(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0)
    census = enumerate_orbit(schottky_spec(a, b), max_word_length=12)
    report = make_report(census, step=1.0, delta=1.0)
    delta_hat = estimate_exponent(make_report(census)).point_estimate
    return report, delta_hat


def test_annular_counts_satisfy_windowed_hypothesis(schottky_annular):
    report, delta_hat = schottky_annular
    probe = SequenceProbe.from_values(report.annular.astype(float))
    assert minimal_fait_scale(probe, kappa=2) == 1.0
    fait = fait_check(probe, kappa=2)
    assert fait.log_limit == pytest.approx(delta_hat, abs=0.1)


def test_annular_counts_divergence_argument(schottky_annular):
    report, delta_hat = schottky_annular
    rates = []
    for s in (0.4, 0.5, 0.6):
        lw = np.log(report.annular[1:].astype(float)) - s * report.radii[1:]
        # Fold the hypothesis constant into the sequence: w' = c w turns
        # w_{n+m} <= c W_n W_m into the clean form checked below.
        lw1 = np.concatenate([[-np.inf], lw])
        lW = np.logaddexp.accumulate(lw1)
        worst = 0.0
        n_max = len(lw1) - 1
        for n in range(1, n_max):
            m = np.arange(1, n_max - n + 1)
            worst = max(worst, float((lw1[n + m] - lW[n] - lW[m]).max()))
        scaled = SequenceProbe.from_log(lw + worst + 1e-9)
        rep = divergence_argument_check(scaled)
        assert rep.subadditive
        # The finite-horizon rate upper-bounds the limit delta - s > 0.
        assert rep.growth_rate >= delta_hat - s > 0.0
        rates.append(rep.growth_rate)
    assert rates[0] > rates[1] > rates[2]


# ---------------------------------------------------------------------------
# Property tests.


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=2.0),
                min_size=3, max_size=40))
def test_concave_log_sequences_are_submultiplicative(increments):
    # Decreasing increments make ln u_n concave with u_0 = 1, which forces
    # u_{n+m} <= u_n u_m; fekete_check must accept every such sequence.
    steps = np.sort(np.array(increments))[::-1]
    lu = np.concatenate([[0.0], np.cumsum(steps)])
    report = fekete_check(SequenceProbe.from_log(lu))
    assert report.gap >= -1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_exponent_scale_covariance(log_c, seed):
    rng = np.random.default_rng(seed)
    lu = np.cumsum(rng.uniform(0.1, 0.9, size=400))
    base = critical_exponent(SequenceProbe.from_log(lu))
    scaled = critical_exponent(SequenceProbe.from_log(lu + log_c))
    # A constant factor c moves each tail rate by ln(c)/n.
    tol = abs(log_c) / (0.8 * 399) + 1e-12
    assert abs(scaled.from_terms - base.from_terms) <= tol
    assert abs(scaled.from_partial_sums - base.from_partial_sums) <= tol

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from kleinian.hyperbolic import Isometry, ORIGIN, Point
from kleinian.groups import (
    OrbitCensus,
    cyclic_spec,
    enumerate_orbit,
    modular_lattice_spec,
    schottky_spec,
)
from kleinian.counting import (
    IncompleteCensus,
    InsufficientData,
    NoCertificate,
    annular_count,
    boundedness_audit,
    estimate_exponent,
    make_report,
    orbital_count,
    poincare_partial,
    separation_certificate,
)

A = Isometry(3.0, 0.0, 0.0, 1.0 / 3.0)
B = Isometry(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0)
PARABOLIC = Isometry(1.0, 1.0, 0.0, 1.0)
E = math.exp(0.5)
HYPERBOLIC_CYCLIC = Isometry(E, 0.0, 0.0, 1.0 / E)


def synthetic_census(distances, word_lengths=None):
    distances = np.sort(np.asarray(distances, dtype=np.float64))
    n = len(distances)
    if word_lengths is None:
        word_lengths = np.arange(n)
    return OrbitCensus(
        distances=distances,
        word_lengths=np.asarray(word_lengths, dtype=np.int64),
        mats=np.tile(np.eye(2), (n, 1, 1)),
        words=None,
        basepoint_x=ORIGIN,
        basepoint_y=ORIGIN,
        completeness_radius=float(distances[-1]),
        spec=None,
    )


# ---------------------------------------------------------------------------
# Counts against closed forms.


def test_parabolic_count_closed_form():
    census = enumerate_orbit(cyclic_spec(PARABOLIC), max_word_length=200)
    # d(i, p^n . i) = arccosh(1 + n^2/2) <= R iff |n| <= sqrt(2 cosh R - 2)
    r = 2.0 * math.log(10.0) + 0.02
    n_max = int(math.floor(math.sqrt(2.0 * math.cosh(r) - 2.0)))
    assert n_max == 10
    assert orbital_count(census, r) == 2 * n_max + 1 == 21


def test_hyperbolic_cyclic_count_closed_form():
    census = enumerate_orbit(cyclic_spec(HYPERBOLIC_CYCLIC), max_word_length=100)
    for r in (0.5, 1.0, 5.5, 20.2):
        assert orbital_count(census, r) == 2 * int(r) + 1


def test_annular_count_closed_interval():
    census = synthetic_census([0.0, 1.0, 2.0, 3.0, 4.0])
    assert annular_count(census, 2.0, delta=1.0) == 3
    assert annular_count(census, 0.5, delta=0.5) == 2


def test_count_beyond_completeness_raises():
    census = enumerate_orbit(cyclic_spec(HYPERBOLIC_CYCLIC), max_radius=10.0)
    with pytest.raises(IncompleteCensus):
        orbital_count(census, 11.0)
    with pytest.raises(IncompleteCensus):
        annular_count(census, 10.0, delta=1.0)


# ---------------------------------------------------------------------------
# Poincare partial sums.


def test_poincare_partial_geometric_series_oracle():
    census = enumerate_orbit(cyclic_spec(HYPERBOLIC_CYCLIC), max_word_length=300)
    for s in (0.2, 0.7, 1.5):
        q = math.exp(-s)
        expected = 1.0 + 2.0 * (q - q ** 301) / (1.0 - q)
        assert poincare_partial(census, s) == pytest.approx(expected, rel=1e-12)


def test_poincare_partial_monotone_in_s():
    census = enumerate_orbit(schottky_spec(A, B), max_word_length=6)
    values = [poincare_partial(census, s) for s in (0.3, 0.5, 0.8, 1.2)]
    assert values == sorted(values, reverse=True)


def test_poincare_partial_parabolic_divergent_at_half():
    # At s = 1/2 the partial sums grow like a harmonic series: the slope of
    # the partial sum against ln(truncation) is positive and bounded.
    sums, lengths = [], (200, 400, 800, 1600, 3200)
    for n in lengths:
        census = enumerate_orbit(cyclic_spec(PARABOLIC), max_word_length=n)
        sums.append(poincare_partial(census, 0.5))
    slopes = [(sums[i + 1] - sums[i]) / math.log(lengths[i + 1] / lengths[i])
              for i in range(len(sums) - 1)]
    # Sum 2 n^{-2s} at s = 1/2 gives increments ~ 2 per ln n.
    for sl in slopes:
        assert 1.5 < sl < 2.5


# ---------------------------------------------------------------------------
# Exponent estimation.


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.9])
def test_estimator_recovers_planted_exponent(delta):
    # N(R) = e^{delta R} exactly when distances are (1/delta) ln k.
    k = np.arange(1, 200_001)
    census = synthetic_census(np.log(k) / delta)
    report = make_report(census, r_max=census.completeness_radius - 1.0)
    est = estimate_exponent(report)
    assert est.point_estimate == pytest.approx(delta, rel=0.02)
    assert est.spread < 0.05 * delta


def test_estimator_insufficient_data():
    census = synthetic_census(np.linspace(0.0, 3.0, 20))
    report = make_report(census)
    with pytest.raises(InsufficientData):
        estimate_exponent(report)


def test_estimate_json_round_trip():
    k = np.arange(1, 20_001)
    census = synthetic_census(np.log(k) / 0.5)
    est = estimate_exponent(make_report(census, r_max=18.0))
    doc = json.loads(est.to_json())
    assert set(doc) == {"point_estimate", "window", "slopes", "spread"}
    assert doc["point_estimate"] == est.point_estimate
    assert doc["spread"] == pytest.approx(max(doc["slopes"]) - min(doc["slopes"]))


def test_annular_estimate_agrees_with_ball_estimate():
    census = enumerate_orbit(schottky_spec(A, B), max_word_length=11)
    report = make_report(census)
    ball = estimate_exponent(report)
    ann = estimate_exponent(dataclasses.replace(report, counts=report.annular))
    assert abs(ball.point_estimate - ann.point_estimate) <= (
        ball.spread + ann.spread)


def test_lattice_estimate_basepoint_independent():
    x = Point(0.3, 1.7)
    y = Point(-0.4, 0.8)
    moved = enumerate_orbit(modular_lattice_spec(), x, y, max_radius=11.0)
    est = estimate_exponent(make_report(moved), r_min=6.0)
    assert est.point_estimate == pytest.approx(1.0, abs=0.1)


def test_report_csv_format():
    census = synthetic_census(np.log(np.arange(1, 5001)) / 0.5)
    report = make_report(census, r_max=15.0)
    buf = io.StringIO()
    report.write_csv(buf, header_lines=("meta",))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "R,N,n,logN"
    row = lines[2].split(",")
    assert len(row) == 4
    assert float(row[3]) == pytest.approx(math.log(float(row[1])))


# ---------------------------------------------------------------------------
# Boundedness audit.


def test_boundedness_audit_flat_for_planted_exponent():
    census = synthetic_census(np.log(np.arange(1, 100_001)) / 0.5)
    report = make_report(census, r_max=census.completeness_radius - 1.0)
    sup, inf = boundedness_audit(report, 0.5, r_min=5.0)
    assert sup / inf <= 1.1


def test_boundedness_audit_detects_wrong_exponent():
    census = synthetic_census(np.log(np.arange(1, 100_001)) / 0.5)
    report = make_report(census, r_max=census.completeness_radius - 1.0)
    sup, inf = boundedness_audit(report, 0.8, r_min=5.0)
    assert sup / inf > 20.0


# ---------------------------------------------------------------------------
# Separation certificates.


def test_separation_certificate_is_sound():
    h_census = enumerate_orbit(cyclic_spec(A), max_word_length=200)
    cert = separation_certificate(h_census, B, np.arange(0.05, 1.0, 0.01))
    # Recompute the certified inequality from scratch.
    o = h_census.basepoint_x
    d_g = math.acosh(1.0 + (abs(B.apply(o).as_complex() - o.as_complex()) ** 2)
                     / (2.0 * B.apply(o).im * o.im))
    nontrivial = h_census.distances[h_census.word_lengths > 0]
    product = math.exp(-cert.s0 * d_g) * float(
        np.exp(-cert.s0 * nontrivial).sum())
    assert product > 1.0
    assert cert.product_value == pytest.approx(product, rel=1e-9)
    # The certificate grid is searched from above: no larger grid s works.
    s_next = cert.s0 + 0.01
    worse = math.exp(-s_next * d_g) * float(np.exp(-s_next * nontrivial).sum())
    assert worse <= 1.0


def test_separation_analytic_prediction_for_axis_subgroup():
    # For H = <a> with translation length 2 ln 3 and witness displacement
    # 2 ln 3, the minorant diverges exactly below the root of
    # 2 e^{-2 s ln 3} / (1 - e^{-2 s ln 3}) * e^{-2 s ln 3}-free analysis;
    # coarse form: s0 < ln 2 / (2 ln 3).
    h_census = enumerate_orbit(cyclic_spec(A), max_word_length=200)
    cert = separation_certificate(h_census, B, np.arange(0.01, 1.0, 0.01))
    assert 0.05 <= cert.s0 < math.log(2.0) / (2.0 * math.log(3.0)) + 0.01


def test_separation_no_certificate_on_high_grid():
    h_census = enumerate_orbit(cyclic_spec(A), max_word_length=50)
    with pytest.raises(NoCertificate):
        separation_certificate(h_census, B, [2.0, 3.0])


def test_separation_requires_nontrivial_subgroup():
    census = synthetic_census([0.0], word_lengths=[0])
    with pytest.raises(NoCertificate):
        separation_certificate(census, B, [0.1, 0.2])


# ---------------------------------------------------------------------------
# Slope settling (finite-scale limit behaviour).


def test_sliding_spread_shrinks_with_horizon():
    k = np.arange(1, 500_001)
    rng = np.random.default_rng(5)
    noisy = np.log(k) / 0.6 + rng.normal(0.0, 0.01, size=len(k))
    census = synthetic_census(np.abs(noisy))
    full = estimate_exponent(make_report(census, r_max=20.0))
    half = estimate_exponent(make_report(census, r_max=10.0))
    assert full.spread < half.spread

"""Acceptance gate: thirteen numbered end-to-end criteria with explicit
tolerances.  Each test prints a single PASS/FAIL line (run pytest with -s
to see them on success)."""

import io
import math
import time

import numpy as np
import pytest

from kleinian import cli, counting, groups, patterson, sequences
from kleinian.hyperbolic import Isometry, Point, apply_many, distances_many

A = Isometry(3.0, 0.0, 0.0, 1.0 / 3.0)
B = Isometry(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0)
PARABOLIC = Isometry(1.0, 1.0, 0.0, 1.0)
E = math.exp(0.5)
HYPERBOLIC_CYCLIC = Isometry(E, 0.0, 0.0, 1.0 / E)


def report(num, name, ok, detail):
    print(f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def lattice_census():
    return groups.enumerate_orbit(groups.modular_lattice_spec(),
                                  max_radius=12.0)


@pytest.fixture(scope="module")
def schottky_spec():
    return groups.schottky_spec(A, B)


@pytest.fixture(scope="module")
def schottky12(schottky_spec):
    return groups.enumerate_orbit(schottky_spec, max_word_length=12)


@pytest.fixture(scope="module")
def schottky_delta(schottky12):
    est = counting.estimate_exponent(counting.make_report(schottky12))
    return est


def _half_window_estimate(report_full, census):
    """Estimate over the shortest window from the grid start that reaches at
    least half the full horizon and still has enough data for two
    sliding-window slopes."""
    full_top = report_full.radii[-1]
    for r_max in np.arange(full_top / 2.0, full_top, 0.5):
        try:
            est = counting.estimate_exponent(
                counting.make_report(census, r_max=r_max))
        except counting.InsufficientData:
            continue
        if len(est.slopes) >= 2 and est.spread > 0.0:
            return est, float(r_max)
    raise counting.InsufficientData("no usable half window")


def test_criterion_01_parabolic_distance_law():
    # |d(i, p^n . i) - 2 ln n| <= 0.05 for 10 <= n <= 10^4; runtime < 1 s.
    t0 = time.time()
    base = Point(0.0, 1.0)
    n = np.arange(10, 10_001)
    powers = np.empty((len(n), 2, 2), dtype=np.float64)
    g = np.linalg.matrix_power(np.array([[1.0, 1.0], [0.0, 1.0]]), 10)
    step = np.array([[1.0, 1.0], [0.0, 1.0]])
    for k in range(len(n)):
        powers[k] = g
        g = g @ step
    re, im = apply_many(powers, base)
    gaps = np.abs(distances_many(base, re, im) - 2.0 * np.log(n))
    elapsed = time.time() - t0
    worst = float(gaps.max())
    report(1, "parabolic distance law", worst <= 0.05 and elapsed < 1.0,
           f"max |d - 2 ln n| = {worst:.4f} <= 0.05, {elapsed:.2f}s < 1s")


def test_criterion_02_parabolic_exponent():
    # Estimate in [0.45, 0.55] at R_max = 18; runtime < 5 s.
    t0 = time.time()
    census = groups.enumerate_orbit(groups.cyclic_spec(PARABOLIC),
                                    max_radius=18.0)
    est = counting.estimate_exponent(counting.make_report(census))
    elapsed = time.time() - t0
    ok = 0.45 <= est.point_estimate <= 0.55 and elapsed < 5.0
    report(2, "parabolic exponent", ok,
           f"estimate {est.point_estimate:.4f} in [0.45, 0.55], "
           f"{elapsed:.2f}s < 5s")


def test_criterion_03_cyclic_hyperbolic_exponent():
    # Estimate <= 0.05 at R_max = 30; runtime < 1 s.
    t0 = time.time()
    census = groups.enumerate_orbit(groups.cyclic_spec(HYPERBOLIC_CYCLIC),
                                    max_radius=30.0)
    est = counting.estimate_exponent(counting.make_report(census))
    elapsed = time.time() - t0
    ok = est.point_estimate <= 0.05 and elapsed < 1.0
    report(3, "cyclic hyperbolic exponent", ok,
           f"estimate {est.point_estimate:.4f} <= 0.05, {elapsed:.2f}s < 1s")


def test_criterion_04_lattice_exponent(lattice_census):
    # Estimate in [0.9, 1.1] at R_max = 12 over the window [6, 12] with a
    # census of >= 10^4 elements; runtime < 60 s.
    t0 = time.time()
    est = counting.estimate_exponent(counting.make_report(lattice_census),
                                     r_min=6.0)
    elapsed = time.time() - t0
    ok = (0.9 <= est.point_estimate <= 1.1 and len(lattice_census) >= 10 ** 4
          and elapsed < 60.0)
    report(4, "modular lattice exponent", ok,
           f"estimate {est.point_estimate:.4f} in [0.9, 1.1], "
           f"{len(lattice_census)} >= 1e4 elements, {elapsed:.1f}s < 60s")


def test_criterion_05_slope_spread_halves(lattice_census, schottky12):
    # Sliding-window slope spread at the full horizon < 50% of the spread
    # at half the horizon, for the lattice and one Schottky group;
    # runtime < 60 s.
    t0 = time.time()
    rep_lat = counting.make_report(lattice_census)
    full_lat = counting.estimate_exponent(rep_lat)
    half_lat, r_lat = _half_window_estimate(rep_lat, lattice_census)
    ratio_lat = full_lat.spread / half_lat.spread

    rep_sch = counting.make_report(schottky12)
    full_sch = counting.estimate_exponent(rep_sch)
    half_sch, r_sch = _half_window_estimate(rep_sch, schottky12)
    ratio_sch = full_sch.spread / half_sch.spread
    elapsed = time.time() - t0
    ok = ratio_lat < 0.5 and ratio_sch < 0.5 and elapsed < 60.0
    report(5, "slope spread halves with horizon", ok,
           f"lattice spread ratio {ratio_lat:.3f} < 0.5 (half window to "
           f"{r_lat:.1f}), schottky ratio {ratio_sch:.3f} < 0.5 (half "
           f"window to {r_sch:.1f}), {elapsed:.1f}s < 60s")


def test_criterion_06_two_sided_growth(lattice_census):
    # sup/inf of N(R) e^(-delta_hat R) over R in [6, 12] has ratio <= 20.
    est = counting.estimate_exponent(counting.make_report(lattice_census),
                                     r_min=6.0)
    rep = counting.make_report(lattice_census, r_min=6.0, r_max=11.0)
    sup, inf = counting.boundedness_audit(rep, est.point_estimate)
    ratio = sup / inf
    report(6, "two-sided growth audit", ratio <= 20.0,
           f"sup/inf N(R)e^(-dR) = {ratio:.3f} <= 20 over [6, 11]")


def test_criterion_07_separation_certificate(schottky_delta):
    # s0 >= 0.05 > 0 = delta of <a>, and s0 <= delta_hat + spread;
    # runtime < 30 s.
    t0 = time.time()
    h_census = groups.enumerate_orbit(groups.cyclic_spec(A),
                                      max_word_length=200)
    cert = counting.separation_certificate(h_census, B,
                                           np.arange(0.01, 1.01, 0.01))
    elapsed = time.time() - t0
    upper = schottky_delta.point_estimate + schottky_delta.spread
    ok = 0.05 <= cert.s0 <= upper and elapsed < 30.0
    report(7, "exponent separation certificate", ok,
           f"s0 = {cert.s0:.3f} in [0.05, {upper:.3f}], {elapsed:.1f}s < 30s")


def test_criterion_08_conjugation_invariance():
    # Nested-subgroup exponent at depth 4 agrees with its conjugate by
    # alpha within combined spreads.
    nested = groups.nested_subgroup_spec(A, B, depth=4)
    conj = groups.conjugate(nested, A)
    est_n = counting.estimate_exponent(counting.make_report(
        groups.enumerate_orbit(nested, max_radius=17.0)))
    # The conjugate sees the same group from the alpha-shifted basepoint,
    # so it needs extra radius for comparable statistics.
    est_c = counting.estimate_exponent(counting.make_report(
        groups.enumerate_orbit(conj, max_radius=20.0)))
    gap = abs(est_n.point_estimate - est_c.point_estimate)
    combined = est_n.spread + est_c.spread
    report(8, "conjugation invariance", gap <= combined,
           f"|{est_n.point_estimate:.4f} - {est_c.point_estimate:.4f}| = "
           f"{gap:.4f} <= combined spread {combined:.4f}")


def test_criterion_09_sequence_suites(schottky12):
    # Agreement <= 1e-2 on 200 random sequences; exact fekete on closed
    # forms; fait on e^(delta n) and on measured annular counts with the
    # measured (C, kappa); divergence recovers L within 1e-2.  < 30 s.
    t0 = time.time()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(200):
        rate = rng.uniform(0.05, 1.0)
        steps = rng.uniform(rate - 0.02, rate + 0.02, size=1500)
        pair = sequences.critical_exponent(sequences.SequenceProbe.from_log(
            np.concatenate([[0.0], np.cumsum(steps)])))
        worst = max(worst, abs(pair.from_terms - pair.from_partial_sums))

    fek = sequences.fekete_check(sequences.SequenceProbe.from_log(
        math.log(2.0) * np.arange(1001)))

    fait_geo = sequences.fait_check(sequences.SequenceProbe.from_log(
        0.6685 * np.arange(1001)), kappa=2)

    rep_ann = counting.make_report(schottky12, step=1.0, delta=1.0)
    probe_ann = sequences.SequenceProbe.from_values(
        rep_ann.annular.astype(float))
    kappa = 2
    scale = sequences.minimal_fait_scale(probe_ann, kappa)
    fait_ann = sequences.fait_check(probe_ann, kappa,
                                    scale=scale * (1.0 + 1e-9))

    div = sequences.divergence_argument_check(
        sequences.SequenceProbe.from_log(0.8 * np.arange(1, 5001)))
    elapsed = time.time() - t0
    ok = (worst <= 1e-2 and abs(fek.gap) <= 1e-12
          and abs(fait_geo.log_limit - 0.6685) <= 5e-3
          and fait_ann.envelope_constant < 10.0
          and abs(div.growth_rate - 0.8) <= 1e-2 and elapsed < 30.0)
    report(9, "sequence suites", ok,
           f"agreement {worst:.2e} <= 1e-2, fekete gap {fek.gap:.1e}, "
           f"fait limit {fait_geo.log_limit:.4f}, annular (C, kappa) = "
           f"({scale:.2f}, {kappa}), divergence L {div.growth_rate:.4f}, "
           f"{elapsed:.1f}s < 30s")


def test_criterion_10_conformality(schottky_spec, schottky_delta):
    # Max atom-ratio deviation <= 1e-12 across 20 random viewpoint pairs.
    census = groups.enumerate_orbit(schottky_spec, max_word_length=9)
    s = schottky_delta.point_estimate + 0.1
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        x = Point(float(rng.uniform(-2, 2)), float(math.exp(rng.uniform(-1, 1))))
        xp = Point(float(rng.uniform(-2, 2)), float(math.exp(rng.uniform(-1, 1))))
        aud = patterson.conformal_ratio_audit(
            patterson.orbital_measure(census, s, x=x),
            patterson.orbital_measure(census, s, x=xp))
        worst = max(worst, aud.max_deviation)
    report(10, "conformality", worst <= 1e-12,
           f"max ratio deviation {worst:.2e} <= 1e-12 over 20 pairs")


def test_criterion_11_equivariance(schottky_spec, schottky_delta):
    # Matched-weight discrepancy <= 1e-12 and leakage at L = 10 below
    # leakage at L = 8, for one generator.
    s = schottky_delta.point_estimate + 0.1
    c10 = groups.enumerate_orbit(schottky_spec, max_word_length=10)
    c8 = groups.enumerate_orbit(schottky_spec, max_word_length=8)
    a10 = patterson.equivariance_audit(c10, 1, s)
    a8 = patterson.equivariance_audit(c8, 1, s)
    ok = a10.max_discrepancy <= 1e-12 and a10.leakage < a8.leakage
    report(11, "equivariance", ok,
           f"discrepancy {a10.max_discrepancy:.2e} <= 1e-12, leakage "
           f"{a10.leakage:.4f} (L=10) < {a8.leakage:.4f} (L=8)")


def test_criterion_12_shadow_lemma(schottky_spec, schottky_delta):
    # Shadow-mass ratios at alpha = delta_hat, r = 1.5, word lengths 3-7:
    # all positive with max/min <= 1e3; runtime < 60 s.
    t0 = time.time()
    census = groups.enumerate_orbit(schottky_spec, max_word_length=11)
    delta_hat = schottky_delta.point_estimate
    mu = patterson.orbital_measure(census, delta_hat + 0.1)
    aud = patterson.shadow_lemma_audit(census, mu, alpha=delta_hat, r=1.5,
                                       word_lengths=(3, 4, 5, 6, 7))
    ratio = aud.max_ratio / aud.min_ratio if aud.min_ratio > 0 else math.inf
    elapsed = time.time() - t0
    ok = (aud.empty_shadows == 0 and aud.min_ratio > 0.0 and ratio <= 1e3
          and elapsed < 60.0)
    report(12, "shadow lemma audit", ok,
           f"all {len(aud.ratios)} ratios positive, max/min {ratio:.1f} "
           f"<= 1e3, {elapsed:.1f}s < 60s")


def test_criterion_13_render_determinism(tmp_path):
    # Two cmd_patterson --render runs with identical config and seed give
    # byte-identical PPM files.
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        rc = cli.main(["patterson", "--config", "schottky",
                       "--max-word-length", "8", "--seed", "0",
                       "--render", "--out", str(d)])
        assert rc == 0
    b1 = (d1 / "render.ppm").read_bytes()
    b2 = (d2 / "render.ppm").read_bytes()
    report(13, "rendering determinism", b1 == b2,
           f"two renders byte-identical ({len(b1)} bytes)")

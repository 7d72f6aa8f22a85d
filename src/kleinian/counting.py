"""Orbital counting, Poincare series truncations, exponent estimation, and
the exponent-separation certificate."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .hyperbolic import Isometry, Point, distance
from .groups import OrbitCensus, _table_chunks, _write_table


class IncompleteCensus(ValueError):
    pass


class InsufficientData(ValueError):
    pass


class NoCertificate(RuntimeError):
    pass


def orbital_count(census: OrbitCensus, radius: float) -> int:
    """Number of census elements with distance <= radius (closed)."""
    if radius > census.completeness_radius:
        raise IncompleteCensus(
            f"radius {radius} exceeds completeness radius "
            f"{census.completeness_radius}")
    return int(np.searchsorted(census.distances, radius, side="right"))


def annular_count(census: OrbitCensus, radius: float, delta: float = 1.0) -> int:
    """Number of elements with radius - delta <= distance <= radius + delta."""
    if radius + delta > census.completeness_radius:
        raise IncompleteCensus(
            f"outer radius {radius + delta} exceeds completeness radius "
            f"{census.completeness_radius}")
    hi = np.searchsorted(census.distances, radius + delta, side="right")
    lo = np.searchsorted(census.distances, radius - delta, side="left")
    return int(hi - lo)


def poincare_partial(census: OrbitCensus, s: float) -> float:
    """Truncated series sum over the census of e^(-s * distance).

    Terms are accumulated in ascending-distance order with compensated
    summation, so the result is deterministic and monotone decreasing in s.
    """
    if len(census) == 0:
        raise ValueError("census is empty")
    return float(math.fsum(np.exp(-s * census.distances)))


@dataclass(frozen=True)
class CountingReport:
    """Counts N(R) and annular counts n(R, delta) on a radius grid."""

    radii: np.ndarray
    counts: np.ndarray
    annular: np.ndarray
    delta: float

    def write_csv(self, fh, header_lines=()) -> None:
        # math.log, not np.log, which may differ in the last bit.
        logn = np.full(len(self.counts), -math.inf)
        pos = self.counts > 0
        logn[pos] = list(map(math.log, self.counts[pos].tolist()))
        _write_table(fh, header_lines, "R,N,n,logN", _table_chunks(
            "%.12g,%d,%d,%.12g", (self.radii, self.counts, self.annular, logn)))


def make_report(census: OrbitCensus, r_min: float = 0.0,
                r_max: float | None = None, step: float = 0.5,
                delta: float = 1.0) -> CountingReport:
    complete = r_max is None
    if complete:
        r_max = census.completeness_radius - delta
    radii = np.arange(r_min, r_max + 1e-12, step)
    if complete:  # the slack may add a radius whose annulus is incomplete
        radii = radii[radii + delta <= census.completeness_radius]
    counts = np.array([orbital_count(census, r) for r in radii])
    annular = np.array([annular_count(census, r, delta) for r in radii])
    return CountingReport(radii=radii, counts=counts, annular=annular, delta=delta)


@dataclass(frozen=True)
class ExponentEstimate:
    """Least-squares growth exponent of ln N(R) with sliding-window spread."""

    point_estimate: float
    window: tuple[float, float]
    slopes: tuple[float, ...]
    spread: float

    def to_json(self) -> str:
        return json.dumps({
            "point_estimate": self.point_estimate,
            "window": list(self.window),
            "slopes": list(self.slopes),
            "spread": self.spread,
        }, indent=2)


_MIN_COUNT = 50
_SLIDE_WIDTH = 4.0


def estimate_exponent(report: CountingReport, r_min: float | None = None,
                      r_max: float | None = None) -> ExponentEstimate:
    """Slope of ln N(R) over [r_min, r_max].

    r_min is raised to the first grid radius with N >= 50 so the regression
    only sees statistically meaningful counts; sliding sub-windows of width
    4.0 quantify how far the finite-scale slope is from settling.
    """
    radii = report.radii
    eligible = report.counts >= _MIN_COUNT
    if r_min is not None:
        eligible &= radii >= r_min
    if r_max is not None:
        eligible &= radii <= r_max
    if eligible.sum() < 3:
        raise InsufficientData(
            f"need at least 3 grid radii with N >= {_MIN_COUNT}")
    radii = radii[eligible]
    logs = np.log(report.counts[eligible].astype(np.float64))
    slope = float(np.polyfit(radii, logs, 1)[0])

    span = radii[-1] - radii[0]
    step = report.radii[1] - report.radii[0] if len(report.radii) > 1 else span
    # Sliding width 4.0, shrunk on short windows so at least two
    # sub-windows exist and the spread stays informative.
    width = _SLIDE_WIDTH if span >= 1.5 * _SLIDE_WIDTH else max(span / 2.0, 2.0 * step)
    slopes = []
    start = radii[0]
    while start <= radii[-1] - width + 1e-9:
        m = (radii >= start - 1e-9) & (radii <= start + width + 1e-9)
        if m.sum() >= 3:
            slopes.append(float(np.polyfit(radii[m], logs[m], 1)[0]))
        start += step
    if not slopes:
        slopes = [slope]
    return ExponentEstimate(
        point_estimate=slope,
        window=(float(radii[0]), float(radii[-1])),
        slopes=tuple(slopes),
        spread=float(max(slopes) - min(slopes)),
    )


def boundedness_audit(report: CountingReport, delta_hat: float,
                      r_min: float = 0.0) -> tuple[float, float]:
    """(sup, inf) of N(R) e^(-delta_hat R) over grid radii >= r_min with
    N(R) > 0."""
    mask = (report.radii >= r_min) & (report.counts > 0)
    if not mask.any():
        raise InsufficientData("no grid radii with positive counts")
    ratios = report.counts[mask] * np.exp(-delta_hat * report.radii[mask])
    return float(ratios.max()), float(ratios.min())


@dataclass(frozen=True)
class SeparationCertificate:
    """Witness that the free product of the subgroup with <g> has critical
    exponent at least s0: the geometric-series minorant diverges there."""

    s0: float
    witness: Isometry
    subgroup_sum: float
    product_value: float


def separation_certificate(h_census: OrbitCensus, g: Isometry,
                           s_grid) -> SeparationCertificate:
    """Largest grid s0 with e^(-s0 d(o, g.o)) * sum_{h != id} e^(-s0 d(o, h.o))
    strictly above 1.  One-sided: failure only means the truncation was too
    small, and raises :class:`NoCertificate`.
    """
    o = h_census.basepoint_x
    d_g = distance(o, g.apply(o))
    nontrivial = h_census.distances[h_census.word_lengths > 0]
    if len(nontrivial) == 0:
        raise NoCertificate("subgroup census has no nontrivial elements")
    for s in sorted(s_grid, reverse=True):
        partial = float(math.fsum(np.exp(-s * nontrivial)))
        value = math.exp(-s * d_g) * partial
        if value > 1.0:
            return SeparationCertificate(
                s0=float(s), witness=g, subgroup_sum=partial, product_value=value)
    raise NoCertificate("no grid point certifies divergence of the minorant")

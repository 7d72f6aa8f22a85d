"""The shared CSV table writer against per-row f-string writers.

The reference writers below format one row at a time, the way the census,
report, measure and histogram tables were first written; the shared writer
must give the same bytes.
"""

import functools
import io
import math

import numpy as np
import pytest

from kleinian.counting import make_report
from kleinian.groups import (
    conjugate,
    enumerate_orbit,
    modular_lattice_spec,
    schottky_spec,
)
from kleinian.hyperbolic import Isometry, Point
from kleinian.patterson import boundary_histogram, orbital_measure

A = Isometry(3.0, 0.0, 0.0, 1.0 / 3.0)
B = Isometry(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0)
HEADER = ("tool_version=0.1.0", "config_hash=0123456789abcdef", "seed=0")


def _header(fh, header_lines, columns):
    for line in header_lines:
        fh.write(f"# {line}\n")
    fh.write(columns + "\n")


def census_rows(census, fh, header_lines=()):
    _header(fh, header_lines, "distance,word_length,a,b,c,d")
    for k in range(len(census)):
        m = census.mats[k]
        fh.write(f"{census.distances[k]:.12g},{int(census.word_lengths[k])},"
                 f"{m[0, 0]:.12g},{m[0, 1]:.12g},{m[1, 0]:.12g},{m[1, 1]:.12g}\n")


def report_rows(report, fh, header_lines=()):
    _header(fh, header_lines, "R,N,n,logN")
    for r, n_total, n_ann in zip(report.radii, report.counts, report.annular):
        logn = math.log(n_total) if n_total > 0 else float("-inf")
        fh.write(f"{r:.12g},{int(n_total)},{int(n_ann)},{logn:.12g}\n")


def measure_rows(mu, fh, header_lines=()):
    _header(fh, header_lines, "atom_re,atom_im,weight,word_length")
    w = mu.weights
    for k in range(len(mu)):
        fh.write(f"{mu.atom_re[k]:.12g},{mu.atom_im[k]:.12g},"
                 f"{w[k]:.12g},{int(mu.word_lengths[k])}\n")


def histogram_rows(hist, fh, header_lines=()):
    _header(fh, header_lines, "bin_lo,bin_hi,mass")
    for lo, hi, m in zip(hist.bin_lo, hist.bin_hi, hist.mass):
        fh.write(f"{lo:.12g},{hi:.12g},{m:.12g}\n")


@functools.lru_cache
def _schottky(max_word_length):
    return enumerate_orbit(schottky_spec(A, B), max_word_length=max_word_length)


def _lattice():
    census = enumerate_orbit(modular_lattice_spec(), max_radius=8.0)
    assert census.mats.dtype == np.int64
    return census


def _conjugated_lattice():
    c = Isometry(0.8, 0.3, -0.2, 1.175)
    return enumerate_orbit(conjugate(modular_lattice_spec(), c), max_radius=7.0)


def _report_with_zero_counts():
    # y = 5i lies log 5 from x = i, so N(R) = 0 and logN = -inf for R < log 5.
    census = enumerate_orbit(modular_lattice_spec(), y=Point(0.0, 5.0),
                             max_radius=9.0)
    report = make_report(census)
    assert report.counts[0] == 0
    return report


# Schottky L10 has 118,097 elements: the measure spans several write chunks.
CASES = {
    "lattice-census": (_lattice, census_rows),
    "conjugated-lattice-census": (_conjugated_lattice, census_rows),
    "schottky-census": (lambda: _schottky(8), census_rows),
    "report-with-zero-counts": (_report_with_zero_counts, report_rows),
    "schottky-report": (lambda: make_report(_schottky(8)), report_rows),
    "measure": (lambda: orbital_measure(_schottky(10), 0.7, x=Point(0.3, 1.7)),
                measure_rows),
    "histogram": (lambda: boundary_histogram(orbital_measure(_schottky(8), 0.7),
                                             bins=97, horizon=3.0),
                  histogram_rows),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_shared_writer_matches_per_row_reference(case):
    make, reference = CASES[case]
    table = make()
    for header in ((), HEADER):
        got, want = io.StringIO(), io.StringIO()
        table.write_csv(got, header_lines=header)
        reference(table, want, header_lines=header)
        assert got.getvalue() == want.getvalue()

"""The shared CSV table writer against per-row f-string writers.

The reference writers below format one row at a time, the way the census,
report, measure and histogram tables were first written; the shared writer,
which formats a chunk of rows with one ``%``, must give the same bytes.
"""

import dataclasses
import functools
import io
import math

import numpy as np
import pytest

from kleinian import groups
from kleinian.counting import make_report
from kleinian.groups import (
    _filled_chunks,
    _table_chunks,
    conjugate,
    enumerate_orbit,
    modular_lattice_spec,
    schottky_spec,
)
from kleinian.hyperbolic import Isometry, Point
from kleinian import patterson
from kleinian.patterson import (
    _ATOM_ROW,
    MEASURE_COLUMNS,
    BoundaryHistogram,
    boundary_histogram,
    measure_csv_chunks,
    orbital_measure,
)

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


@pytest.mark.parametrize("spec, max_word_length, dtype", [
    (schottky_spec(A, B), 8, np.uint8),
    (groups.GroupSpec("schottky", generators=(A,)), 300, np.uint16),
], ids=["schottky-L8", "one-generator-L300"])
def test_free_word_lengths_are_narrow_and_print_as_int64(spec, max_word_length, dtype):
    # Each level's word lengths have the narrowest type of the level, so
    # the column has the narrowest unsigned type of its longest word; its
    # census and measure text is that of the int64 column.
    census = enumerate_orbit(spec, max_word_length=max_word_length)
    wls = census.word_lengths
    assert wls.dtype == dtype == np.min_scalar_type(wls.max())
    mu = orbital_measure(census, 0.8)
    for table in (census, mu):
        got, want = io.StringIO(), io.StringIO()
        table.write_csv(got)
        dataclasses.replace(table, word_lengths=wls.astype(np.int64)).write_csv(want)
        assert got.getvalue() == want.getvalue()


def _extreme_lattice_entries():
    m = groups._LATTICE_ENTRY_MAX
    mats = np.array([[[m, -m], [0, 1]], [[-m, 0], [m, -1]], [[0, 0], [0, 0]]])
    return groups.OrbitCensus(distances=np.array([0.0, 1.5, 2.25]),
                              word_lengths=np.array([0, 3, 7]), mats=mats, words=None,
                              basepoint_x=Point(0.0, 1.0), basepoint_y=Point(0.0, 1.0),
                              completeness_radius=3.0)


@pytest.mark.parametrize("make", [
    lambda: enumerate_orbit(modular_lattice_spec(), max_radius=10.0),
    lambda: enumerate_orbit(modular_lattice_spec(), Point(0.3, 1.7), Point(-0.4, 0.8),
                            max_radius=9.0),
    _extreme_lattice_entries,
], ids=["lattice-R10", "lattice-moved", "extreme-entries"])
def test_integer_entries_print_as_their_float_rendering(make):
    # Integer matrix columns print with %d, float ones with %.12g; below
    # 1e12 both give the same bytes.
    census = make()
    assert census.mats.dtype.kind == "i"
    as_float = dataclasses.replace(census, mats=census.mats.astype(np.float64))
    got, want = io.StringIO(), io.StringIO()
    census.write_csv(got, header_lines=HEADER)
    as_float.write_csv(want, header_lines=HEADER)
    assert got.getvalue() == want.getvalue()


def _first_rows(table, n):
    """The table cut to its first n rows."""
    return dataclasses.replace(table, **{
        f.name: getattr(table, f.name)[:n] for f in dataclasses.fields(table)
        if isinstance(getattr(table, f.name), np.ndarray)})


@pytest.mark.parametrize("make", [
    lambda: enumerate_orbit(schottky_spec(A, B), max_word_length=6),
    lambda: enumerate_orbit(modular_lattice_spec(), max_radius=8.0),
    _conjugated_lattice,
], ids=["schottky", "lattice", "conjugated-lattice"])
def test_first_rows_of_a_census_whose_rows_were_not_read(make):
    # dataclasses.replace reads every field, so it gives an eager census.
    pending, eager = make(), make()
    assert "_rows" in vars(pending)
    cut = _first_rows(pending, 7)
    assert "_rows" not in vars(cut)
    assert [f.name for f in dataclasses.fields(cut)] == [
        f.name for f in dataclasses.fields(eager)]
    for f in dataclasses.fields(cut):
        got, want = getattr(cut, f.name), getattr(eager, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want[:7])
        elif isinstance(want, groups._FreeWords):
            assert np.array_equal(got.letters, want.letters)
        else:
            assert got == want


# A small chunk puts every chunk boundary within a few rows; the cases above
# cover the real chunk size.
CHUNK = 4
SIZES = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("n", SIZES)
def test_shared_writer_at_chunk_boundaries(monkeypatch, case, n):
    monkeypatch.setattr(groups, "_TABLE_CHUNK", CHUNK)
    make, reference = CASES[case]
    table = _first_rows(make(), n)
    got, want = io.StringIO(), io.StringIO()
    table.write_csv(got, header_lines=HEADER)
    reference(table, want, header_lines=HEADER)
    assert got.getvalue() == want.getvalue()
    assert got.getvalue().count("\n") == len(HEADER) + 1 + n


# Values whose %.12g takes every form: signed zero, infinities, nan, a
# subnormal, a large exponent, and 1e16, which needs the exponent form.
SPECIAL = np.array([-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 1e16,
                    0.1, -2.5, 123456789012345.0])


@pytest.mark.parametrize("n", (*SIZES, len(SPECIAL)))
def test_special_floats_in_every_column(monkeypatch, n):
    monkeypatch.setattr(groups, "_TABLE_CHUNK", CHUNK)
    values = np.resize(SPECIAL, n)
    hist = BoundaryHistogram(bin_lo=values, bin_hi=values[::-1], mass=np.roll(values, 1))
    got, want = io.StringIO(), io.StringIO()
    hist.write_csv(got)
    histogram_rows(hist, want)
    assert got.getvalue() == want.getvalue()
    # The same values rendered into the measure's chunk templates, whose
    # weight slot is then filled with the text of each value.
    got, want = _filled_atom_rows(values, values[::-1], np.roll(values, 1))
    assert got == want


def _filled_atom_rows(re, im, weights):
    """(measure rows filled by _filled_chunks, the per-row reference), with
    word lengths drawn from the row index."""
    wl = np.arange(len(weights)) % 7
    got = "".join(_filled_chunks(list(_table_chunks(_ATOM_ROW, (re, im, wl))), weights))
    return got, "".join(f"{a:.12g},{b:.12g},{w:.12g},{k}\n"
                        for a, b, w, k in zip(re, im, weights, wl))


# NaNs of three bit patterns, all rendered 'nan'.
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                dtype=np.uint64).view(np.float64)
# Weight columns whose runs of equal bits fall every way across the chunks
# of CHUNK rows.
WEIGHT_RUNS = {
    "runs-across-chunks": np.repeat([0.5, 0.25, 1.0 / 3.0, 0.5], [6, 3, 5, 2]),
    "chunk-is-one-run": np.repeat([0.1, 0.2, 0.1], [CHUNK, CHUNK, 1]),
    "no-runs": np.arange(1.0, 12.0) / 7.0,
    "one-row-chunk": np.repeat([0.75, 0.125], [CHUNK, 1]),
    "signed-zeros-nans-infinities": np.concatenate([
        [0.0, -0.0, -0.0, 0.0, 0.0], NANS[[0, 0, 1, 2, 2, 0]],
        [math.inf, math.inf, -math.inf, -math.inf, math.inf, 5e-324, -5e-324, -0.0]]),
}


@pytest.mark.parametrize("case", sorted(WEIGHT_RUNS))
def test_filled_weights_match_per_row_reference(monkeypatch, case):
    monkeypatch.setattr(groups, "_TABLE_CHUNK", CHUNK)
    weights = WEIGHT_RUNS[case]
    atoms = np.linspace(-1.0, 1.0, len(weights))
    for w in (weights, weights[::-1].copy()):
        got, want = _filled_atom_rows(atoms, atoms[::-1], w)
        assert got == want
        assert got.count("\n") == len(w)


def _measure_text(mu):
    """The per-row reference text of a measure CSV with no header lines."""
    want = io.StringIO()
    measure_rows(mu, want)
    return want.getvalue()


@pytest.mark.parametrize("x", [None, Point(0.3, 1.7)], ids=["basepoint", "moved"])
@pytest.mark.parametrize("n", SIZES[1:])
def test_measures_of_one_census_share_their_atom_text(monkeypatch, x, n):
    # An empty census has no measure, so sizes start at one row.  Every
    # split of the rows, as the CLI's two processes take them, renders each
    # chunk's atom columns once for all three measures.
    monkeypatch.setattr(groups, "_TABLE_CHUNK", CHUNK)
    rendered = []
    table_chunks = patterson._table_chunks

    def spy(fmt, cols):
        for chunk in table_chunks(fmt, cols):
            rendered.append(chunk)
            yield chunk

    monkeypatch.setattr(patterson, "_table_chunks", spy)
    census = _first_rows(_schottky(8), n)
    mus = [orbital_measure(census, s, x=x) for s in (0.78, 0.73, 0.7)]
    for split in range(n + 1):
        rendered.clear()
        parts = [*measure_csv_chunks(mus, slice(split)),
                 *measure_csv_chunks(mus, slice(split, None))]
        assert len(rendered) == len(parts) == -(-split // CHUNK) - (-(n - split) // CHUNK)
        for mu, texts in zip(mus, zip(*parts)):
            assert MEASURE_COLUMNS + "\n" + "".join(texts) == _measure_text(mu)


@pytest.mark.parametrize("chunk", (3, CHUNK, 5))
def test_measure_weight_runs_across_chunks(monkeypatch, chunk):
    # At x = y a weight is a function of the distance, so the distance-sorted
    # rows hold runs of equal weights, some across a chunk boundary.
    monkeypatch.setattr(groups, "_TABLE_CHUNK", chunk)
    mu = orbital_measure(_schottky(3), 0.7)
    bits = mu.weights.view(np.int64)
    assert (bits[chunk::chunk] == bits[chunk - 1:-1:chunk]).any()
    got, want = io.StringIO(), io.StringIO()
    mu.write_csv(got, header_lines=HEADER)
    measure_rows(mu, want, header_lines=HEADER)
    assert got.getvalue() == want.getvalue()


def test_measure_family_at_the_real_chunk_size():
    census = _first_rows(_schottky(10), 2 * groups._TABLE_CHUNK + 1)
    mus = [orbital_measure(census, s) for s in (0.7, 0.9)]
    parts = list(measure_csv_chunks(mus))
    assert len(parts) == 3
    for mu, texts in zip(mus, zip(*parts)):
        got = io.StringIO()
        mu.write_csv(got)
        assert got.getvalue() == MEASURE_COLUMNS + "\n" + "".join(texts) == _measure_text(mu)


def test_measure_atoms_must_be_of_its_census():
    mus = [orbital_measure(_schottky(n), 0.7) for n in (3, 4)]
    with pytest.raises(ValueError, match="another census"):
        measure_csv_chunks(mus)

"""Finite-truncation orbital measures: atomic measures on orbit points,
exact conformality and equivariance audits, shadow-mass statistics, and
boundary renders.

Atoms live at interior orbit points gamma.y; boundary pushforwards use the
direction-from-basepoint map with a horizon cutoff.  All mass bookkeeping
is done in log-space so deep truncations at large s stay representable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .hyperbolic import (
    _TWO_PI,
    BoundaryInterval,
    Point,
    apply_many,
    arc_widths,
    busemann_many,
    direction_angles_many,
    directions_many,
    disk_points_many,
    distances_many,
    shadow_arcs,
)
# Unused here; perfbench/spans.py wraps these scalar primitives by name.
from .hyperbolic import busemann, direction_from, distance, shadow
from .groups import OrbitCensus, _filled_chunks, _table_chunks, _write_table, word_matrix

_LOG_FLOOR = -690.0  # below exp() underflow in linear scale
_COVER_GRID = 4096  # directions at which shadow_cover_bound counts the cover
_ANGLE_CHUNK = 1 << 16  # atoms per batch of direction angles and disk points


class DegenerateNormalizer(ValueError):
    pass


class MismatchedConstruction(ValueError):
    pass


# ---------------------------------------------------------------------------
# Modifier gauges.


@dataclass(frozen=True)
class ModifierH:
    """Nondecreasing slow-growth gauge h multiplying the series terms;
    either the constant 1 or (1 + t)^beta."""

    kind: str = "unit"
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("unit", "polynomial"):
            raise ValueError(f"unknown modifier kind {self.kind!r}")
        if self.beta < 0.0:
            raise ValueError("modifier exponent must be >= 0")

    def log_value(self, t):
        if self.kind == "unit":
            return np.zeros_like(np.asarray(t, dtype=np.float64))
        return self.beta * np.log1p(np.asarray(t, dtype=np.float64))


UNIT_MODIFIER = ModifierH()


# ---------------------------------------------------------------------------
# Orbital measures.


# A measure CSV row with every column rendered but the weight.  A formatted
# number holds only digits, '.', 'e', '+', '-', 'inf' or 'nan', never '%', so
# the weight's slot ('%%' renders as '%') is the only conversion left; it
# takes the weight's text from :func:`_filled_chunks`.
_ATOM_ROW = "%.12g,%.12g,%%s,%d"
MEASURE_COLUMNS = "atom_re,atom_im,weight,word_length"


@dataclass(frozen=True)
class AtomicMeasure:
    """Weighted atoms at orbit points, with weights e^(-s d(x, p)) h(d)
    normalized by the truncated series at the census basepoint, so the
    measure viewed from the basepoint has unit mass.

    ``distances`` holds d(x, p) for every atom p, x being the viewpoint
    ``basepoint``: the distances the weights were computed from (at the
    census basepoint, the census's own ``distances``), which the audits, the
    histogram and the render read instead of recomputing them.
    ``far_angles`` is the census's cache of far-atom direction angles
    (:func:`_far_atoms`), shared by all of its measures.
    """

    atom_re: np.ndarray
    atom_im: np.ndarray
    log_weights: np.ndarray
    word_lengths: np.ndarray
    distances: np.ndarray
    basepoint: Point
    target: Point
    s: float
    modifier: ModifierH
    log_normalizer: float
    far_angles: dict = field(repr=False, compare=False)

    def __len__(self):
        return len(self.log_weights)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def write_csv(self, fh, header_lines=()) -> None:
        _write_table(fh, header_lines, MEASURE_COLUMNS,
                     itertools.chain.from_iterable(measure_csv_chunks([self])))


def measure_csv_chunks(measures, rows: slice = slice(None)):
    """For each chunk of the rows ``rows`` (a slice), the CSV text of those
    rows in each of ``measures``, measures on the atoms of one census: the
    atom columns are rendered once per chunk, and each measure fills in the
    text of its weights."""
    mu = measures[0]
    if any(m.atom_re is not mu.atom_re for m in measures):
        raise ValueError("measures of another census")
    templates = itertools.tee(_table_chunks(
        _ATOM_ROW, (mu.atom_re[rows], mu.atom_im[rows], mu.word_lengths[rows])), len(measures))
    return zip(*(_filled_chunks(t, m.weights[rows])
                 for t, m in zip(templates, measures)))


def _logsumexp(a: np.ndarray) -> float:
    m = float(a.max())
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(np.exp(a - m)))


def orbital_measure(census: OrbitCensus, s: float, x: Point | None = None,
                    h: ModifierH = UNIT_MODIFIER) -> AtomicMeasure:
    """Truncated orbital measure with atoms at gamma.y.

    The normalizer is always the truncated series at the census basepoint,
    so measures at different viewpoints x form one conformal family sharing
    a normalization, and the basepoint measure has unit mass exactly; it is
    summed once per census, s and h (``census.log_normalizers``).  The
    atoms, their word lengths and their basepoint distances are the
    census's own arrays.
    """
    if len(census) == 0:
        raise ValueError("census is empty")
    if x is None:
        x = census.basepoint_x
    pre, pim = census.positions
    d_base = census.distances
    log_norms = census.log_normalizers
    if (s, h) not in log_norms:
        log_norms[s, h] = _logsumexp(-s * d_base + h.log_value(d_base))
    log_norm = log_norms[s, h]
    if log_norm < _LOG_FLOOR:
        raise DegenerateNormalizer(
            f"truncated normalizer exp({log_norm:.1f}) underflows")
    d_x = d_base if x == census.basepoint_x else distances_many(x, pre, pim)
    log_w = -s * d_x + h.log_value(d_x) - log_norm
    return AtomicMeasure(
        atom_re=pre, atom_im=pim, log_weights=log_w,
        word_lengths=census.word_lengths, distances=d_x, basepoint=x,
        target=census.basepoint_y, s=s, modifier=h, log_normalizer=log_norm,
        far_angles=census.far_angles)


def _far_atoms(mu: AtomicMeasure, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """(direction angles from the basepoint, weights) of the atoms at
    distance >= horizon, in atom order.  The angles depend only on the
    atoms, the basepoint and the horizon, so they are computed once for all
    the measures of a census."""
    far = mu.distances >= horizon
    cache = mu.far_angles
    key = (mu.basepoint, horizon)
    if key not in cache:
        # A chunk at a time keeps the complex temporaries of the kernel small.
        angles = np.empty(int(far.sum()))
        n = 0
        for i in range(0, len(far), _ANGLE_CHUNK):
            part = slice(i, i + _ANGLE_CHUNK)
            chunk = direction_angles_many(mu.basepoint, mu.atom_re[part][far[part]],
                                          mu.atom_im[part][far[part]])
            angles[n:n + len(chunk)] = chunk
            n += len(chunk)
        angles.flags.writeable = False
        cache[key] = angles
    return cache[key], np.exp(mu.log_weights[far])


# ---------------------------------------------------------------------------
# Conformality audit.


@dataclass(frozen=True)
class ConformalAudit:
    """Exact atom-ratio check plus the Busemann limit diagnostic on the
    farthest atoms."""

    max_deviation: float
    busemann_gaps: np.ndarray
    busemann_distances: np.ndarray


def conformal_ratio_audit(mu: AtomicMeasure, mu_prime: AtomicMeasure,
                          far_count: int = 50) -> ConformalAudit:
    """Compare atom-weight ratios of two measures of one family against
    e^(-s (d(x', p) - d(x, p))) with independently recomputed distances.

    The ratio uses unnormalized weights (the shared normalizer cancels), so
    the identity is algebraic and must hold to rounding.  For the
    ``far_count`` farthest atoms the finite-distance difference is also
    compared with the Busemann cocycle toward the atom's direction; that
    gap shrinks as atoms approach the boundary.
    """
    if (len(mu) != len(mu_prime) or mu.s != mu_prime.s
            or mu.modifier != mu_prime.modifier or mu.target != mu_prime.target
            or mu.log_normalizer != mu_prime.log_normalizer):
        raise MismatchedConstruction(
            "measures must come from the same census, s, target, and gauge")
    if mu.modifier.kind != "unit":
        raise MismatchedConstruction(
            "the exact ratio identity requires the unit gauge")
    x, xp = mu.basepoint, mu_prime.basepoint
    d_x, d_xp = (distances_many(v, mu.atom_re, mu.atom_im) for v in (x, xp))
    ratio = np.exp(mu_prime.log_weights - mu.log_weights)
    predicted = np.exp(-mu.s * (d_xp - d_x))
    max_dev = float(np.abs(ratio - predicted).max())

    far = np.argsort(d_x)[::-1][:far_count]
    far = far[d_x[far] >= 1e-9]  # an atom at x has no direction
    xi = directions_many(x, mu.atom_re[far], mu.atom_im[far])
    return ConformalAudit(
        max_deviation=max_dev,
        busemann_gaps=np.abs((d_xp[far] - d_x[far]) - busemann_many(xi, xp, x)),
        busemann_distances=d_x[far])


# ---------------------------------------------------------------------------
# Equivariance audit.


@dataclass(frozen=True)
class EquivarianceAudit:
    """Pushforward identity g*mu_{x,y} = mu_{g^-1 x, y} checked atom by
    atom on a word-length truncation; atoms whose shifted word leaves the
    truncation are reported as leakage mass, not errors."""

    max_discrepancy: float
    leakage: float
    matched: int
    unmatched: int


def equivariance_audit(census: OrbitCensus, g0_letter: int, s: float) -> EquivarianceAudit:
    """Check g*mu_{x,y} against mu_{g^-1 x, y} on a word-truncated census,
    x and y its basepoints, with the unit gauge.

    ``g0_letter`` is a signed 1-based generator index (0 means the
    identity).  The pulled-back atom for census word w sits at the orbit
    point of the reduced word g0^-1 w; atoms whose shifted word is outside
    the truncation contribute to leakage.
    """
    if census.words is None:
        raise ValueError("equivariance audit needs word metadata")
    mu = orbital_measure(census, s)
    if g0_letter == 0:
        return EquivarianceAudit(0.0, 0.0, matched=len(mu), unmatched=0)
    (a, b), (c, d) = word_matrix(census.spec, (g0_letter,))
    re, im = apply_many([[[d, -b], [-c, a]]], census.basepoint_x)  # g0^-1 x
    mu_pull = orbital_measure(census, s, x=Point(float(re[0]), float(im[0])))
    # (g0*mu)(atom of word g0^-1 w) = mu(atom of word w); compare with the
    # measure at g0^-1 x evaluated on the same atom.
    j = census.words.shifted_index(g0_letter)
    hit = j >= 0
    w_mu = mu.weights
    disc = np.abs(w_mu[hit] - mu_pull.weights[j[hit]])
    return EquivarianceAudit(max_discrepancy=float(disc.max(initial=0.0)),
                             leakage=math.fsum(w_mu[~hit]),
                             matched=int(hit.sum()), unmatched=int((~hit).sum()))


# ---------------------------------------------------------------------------
# Shadow masses and the shadow-lemma audit.


def default_horizon(census: OrbitCensus) -> float:
    return 0.5 * census.completeness_radius


def shadow_mass(mu: AtomicMeasure, arc: BoundaryInterval,
                horizon: float = 0.0) -> float:
    """Mass of atoms at or beyond the horizon whose direction from the
    basepoint lies in the arc.  At horizon 0 every atom participates (the
    basepoint atom gets the conventional direction angle 0)."""
    angles, weights = _far_atoms(mu, horizon)
    return math.fsum(weights[arc.contains_angle(angles)])


@dataclass(frozen=True)
class ShadowAudit:
    """Per-element shadow masses against e^(-alpha d); ratios within a
    bounded band witness the finite-scale shadow-lemma behaviour."""

    distances: np.ndarray
    masses: np.ndarray
    ratios: np.ndarray
    alpha: float
    r: float
    empty_shadows: int

    @property
    def min_ratio(self) -> float:
        pos = self.ratios[self.ratios > 0.0]
        return float(pos.min()) if len(pos) else 0.0

    @property
    def max_ratio(self) -> float:
        return float(self.ratios.max()) if len(self.ratios) else 0.0


def shadow_lemma_audit(census: OrbitCensus, mu: AtomicMeasure, alpha: float,
                       r: float, word_lengths=(3, 4, 5, 6, 7),
                       horizon: float | None = None) -> ShadowAudit:
    """For census elements with word length in the given band, compute
    mass(shadow of gamma.o at radius r) * e^(alpha d(o, gamma.o)).

    Shadows are cast from the measure's basepoint; the word-length band
    should avoid the truncation edge, whose shadows lose tail mass.
    Atom masses are read off a sorted-angle prefix table at the arc
    endpoints, so the audit is linear in census size per element band.
    """
    if not r > 0.0:
        raise ValueError("shadow radius must be positive")
    if horizon is None:
        horizon = default_horizon(census)
    angles, weights = _far_atoms(mu, horizon)
    order = np.argsort(angles, kind="stable")
    angles = angles[order]
    prefix = np.zeros(len(order) + 1)  # in place: a take in mode "raise" buffers its out
    np.cumsum(np.take(weights, order, out=prefix[1:], mode="clip"), out=prefix[1:])
    del order, weights
    total = prefix[-1]

    band = np.isin(census.word_lengths, np.asarray(word_lengths))
    d = mu.distances[band]
    masses = np.full(len(d), total)
    # Elements farther than r cast a shadow arc; the others the circle.
    arc = d > r
    lo, hi = shadow_arcs(mu.basepoint, mu.atom_re[band][arc], mu.atom_im[band][arc],
                         d[arc], r)
    hi = (lo + arc_widths(lo, hi)) % _TWO_PI
    i_lo = np.searchsorted(angles, lo, side="left")
    i_hi = np.searchsorted(angles, hi, side="right")
    masses[arc] = np.where(lo <= hi, prefix[i_hi] - prefix[i_lo],
                           (total - prefix[i_lo]) + prefix[i_hi])
    return ShadowAudit(
        distances=d, masses=masses, ratios=masses * np.exp(alpha * d),
        alpha=alpha, r=r, empty_shadows=int((masses == 0.0).sum()))


@dataclass(frozen=True)
class CoverBound:
    """Arithmetic of the shadow-cover counting bound on one annulus:
    count * min shadow mass <= multiplicity * covered mass."""

    radius: float
    delta: float
    count: int
    min_mass: float
    multiplicity: int
    covered_mass: float

    @property
    def holds(self) -> bool:
        return self.count * self.min_mass <= self.multiplicity * self.covered_mass + 1e-12


def shadow_cover_bound(census: OrbitCensus, mu: AtomicMeasure, radius: float,
                       r: float, delta: float = 1.0) -> CoverBound:
    """Empirical multiplicity of the shadow cover over one annulus of orbit
    points, with the induced count bound checked exactly on the census."""
    d = mu.distances
    sel = np.nonzero((d >= radius - delta) & (d <= radius + delta))[0]
    if len(sel) == 0:
        raise ValueError("annulus contains no census elements")
    far = sel[d[sel] > r]  # the others' shadows are the circle
    lo, hi = shadow_arcs(mu.basepoint, mu.atom_re[far], mu.atom_im[far], d[far], r)
    arcs = ([BoundaryInterval.full_circle()] * (len(sel) - len(far))
            + list(map(BoundaryInterval, lo.tolist(), hi.tolist())))
    thetas = np.linspace(0.0, _TWO_PI, _COVER_GRID, endpoint=False)
    mult = np.zeros(_COVER_GRID, dtype=np.int64)
    angles, weights = _far_atoms(mu, default_horizon(census))
    # Mass of atoms falling in the union of the shadows (grid-rounded
    # membership is only used for multiplicity; the union mass is exact).
    in_union = np.zeros(len(angles), dtype=bool)
    masses = []
    for arc in arcs:
        mult += arc.contains_angle(thetas)
        inside = arc.contains_angle(angles)
        masses.append(math.fsum(weights[inside]))
        in_union |= inside
    covered = math.fsum(weights[in_union])
    return CoverBound(
        radius=radius, delta=delta, count=len(sel),
        min_mass=min(masses), multiplicity=int(mult.max()),
        covered_mass=covered)


# ---------------------------------------------------------------------------
# Boundary histogram and limit-set render.


@dataclass(frozen=True)
class BoundaryHistogram:
    bin_lo: np.ndarray
    bin_hi: np.ndarray
    mass: np.ndarray

    def write_csv(self, fh, header_lines=()) -> None:
        _write_table(fh, header_lines, "bin_lo,bin_hi,mass", _table_chunks(
            "%.12g,%.12g,%.12g", (self.bin_lo, self.bin_hi, self.mass)))


def boundary_histogram(mu: AtomicMeasure, bins: int = 360,
                       horizon: float = 0.0) -> BoundaryHistogram:
    """Pushforward of the far atoms to the circle, binned by direction
    angle from the basepoint."""
    angles, weights = _far_atoms(mu, horizon)
    edges = np.linspace(0.0, _TWO_PI, bins + 1)
    mass, _ = np.histogram(angles, bins=edges, weights=weights)
    return BoundaryHistogram(bin_lo=edges[:-1], bin_hi=edges[1:], mass=mass)


def render_ppm(mu: AtomicMeasure, fh, size: int = 1024) -> None:
    """Binary PPM (P6) of the atom density in the disk model centered at
    the measure's basepoint: white background, grayscale by accumulated
    weight, deterministic for identical inputs.  It holds the density, one
    RGB buffer and one chunk's temporaries: the gray levels are computed in
    the density array, by the element operations of 255 (1 - density /
    peak), and cast into the buffer."""
    density = np.zeros((size, size), dtype=np.float64)
    # A chunk at a time, in atom order, so the sums are those of one pass.
    for i in range(0, len(mu), _ANGLE_CHUNK):
        part = slice(i, i + _ANGLE_CHUNK)
        w = disk_points_many(mu.basepoint, mu.atom_re[part], mu.atom_im[part])
        px = np.clip(((w.real + 1.0) / 2.0 * size).astype(np.int64), 0, size - 1)
        py = np.clip(((1.0 - (w.imag + 1.0) / 2.0) * size).astype(np.int64), 0, size - 1)
        np.add.at(density, (py, px), np.exp(mu.log_weights[part]))
    peak = density.max()
    rgb = np.empty((size, size, 3), dtype=np.uint8)
    if peak > 0.0:
        np.divide(density, peak, out=density)
        np.subtract(1.0, density, out=density)
        np.multiply(255.0, density, out=density)
        rgb[...] = density[:, :, None]  # the cast of astype(np.uint8)
    else:
        rgb.fill(255)
    fh.write(b"P6\n%d %d\n255\n" % (size, size))
    fh.write(rgb.data)

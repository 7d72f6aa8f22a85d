"""Finite-truncation orbital measures: atomic measures on orbit points,
exact conformality and equivariance audits, shadow-mass statistics, radial
limit-point sampling for free groups, and boundary renders.

Atoms live at interior orbit points gamma.y; boundary pushforwards use the
direction-from-basepoint map with a horizon cutoff.  All mass bookkeeping
is done in log-space so deep truncations at large s stay representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hyperbolic import (
    _TWO_PI,
    BoundaryInterval,
    BoundaryPoint,
    Point,
    apply_many,
    boundary_angle,
    direction_angles_many,
    direction_from,
    distance,
    distances_many,
    busemann,
    shadow,
)
from .groups import (GroupSpec, OrbitCensus, ping_pong_certificate, signed_letter,
                     word_matrix)

_LOG_FLOOR = -690.0  # below exp() underflow in linear scale


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


def atom_positions(census: OrbitCensus) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) arrays of the orbit points gamma.y of a census."""
    return apply_many(census.mats, census.basepoint_y)


@dataclass(frozen=True)
class AtomicMeasure:
    """Weighted atoms at orbit points, with weights e^(-s d(x, p)) h(d)
    normalized by the truncated series at the census basepoint, so the
    measure viewed from the basepoint has unit mass."""

    atom_re: np.ndarray
    atom_im: np.ndarray
    log_weights: np.ndarray
    word_lengths: np.ndarray
    basepoint: Point
    target: Point
    s: float
    modifier: ModifierH
    log_normalizer: float

    def __len__(self):
        return len(self.log_weights)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def total_mass(self) -> float:
        return float(math.fsum(np.exp(self.log_weights)))

    def write_csv(self, fh, header_lines=()) -> None:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("atom_re,atom_im,weight,word_length\n")
        w = self.weights
        for k in range(len(self)):
            fh.write(f"{self.atom_re[k]:.12g},{self.atom_im[k]:.12g},"
                     f"{w[k]:.12g},{int(self.word_lengths[k])}\n")


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
    a normalization, and the basepoint measure has unit mass exactly.
    """
    if len(census) == 0:
        raise ValueError("census is empty")
    if x is None:
        x = census.basepoint_x
    pre, pim = atom_positions(census)
    d_base = distances_many(census.basepoint_x, pre, pim)
    log_norm_terms = -s * d_base + h.log_value(d_base)
    log_norm = _logsumexp(log_norm_terms)
    if log_norm < _LOG_FLOOR:
        raise DegenerateNormalizer(
            f"truncated normalizer exp({log_norm:.1f}) underflows")
    d_x = distances_many(x, pre, pim)
    log_w = -s * d_x + h.log_value(d_x) - log_norm
    return AtomicMeasure(
        atom_re=pre, atom_im=pim, log_weights=log_w,
        word_lengths=census.word_lengths.copy(), basepoint=x,
        target=census.basepoint_y, s=s, modifier=h, log_normalizer=log_norm)


# ---------------------------------------------------------------------------
# Conformality audit.


@dataclass(frozen=True)
class ConformalAudit:
    """Exact atom-ratio check plus the Busemann limit diagnostic on the
    farthest atoms."""

    max_deviation: float
    busemann_gaps: np.ndarray
    busemann_distances: np.ndarray

    def max_gap_beyond(self, radius: float) -> float:
        mask = self.busemann_distances >= radius
        if not mask.any():
            return math.nan
        return float(self.busemann_gaps[mask].max())


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
    d_x = distances_many(x, mu.atom_re, mu.atom_im)
    d_xp = distances_many(xp, mu.atom_re, mu.atom_im)
    ratio = np.exp(mu_prime.log_weights - mu.log_weights)
    predicted = np.exp(-mu.s * (d_xp - d_x))
    max_dev = float(np.abs(ratio - predicted).max())

    base = mu.basepoint
    d_base = distances_many(base, mu.atom_re, mu.atom_im)
    order = np.argsort(d_base)[::-1][:far_count]
    gaps, dists = [], []
    for i in order:
        p = Point(float(mu.atom_re[i]), float(mu.atom_im[i]))
        if distance(base, p) < 1e-9:
            continue
        xi = direction_from(base, p)
        gaps.append(abs((d_xp[i] - d_x[i]) - busemann(xi, xp, x)))
        dists.append(float(d_base[i]))
    return ConformalAudit(
        max_deviation=max_dev,
        busemann_gaps=np.array(gaps),
        busemann_distances=np.array(dists))


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


def equivariance_audit(census: OrbitCensus, g0_letter: int, s: float,
                       x: Point | None = None,
                       h: ModifierH = UNIT_MODIFIER) -> EquivarianceAudit:
    """Check g*mu_{x,y} against mu_{g^-1 x, y} on a word-truncated census.

    ``g0_letter`` is a signed 1-based generator index (0 means the
    identity).  The pulled-back atom for census word w sits at the orbit
    point of the reduced word g0^-1 w; atoms whose shifted word is outside
    the truncation contribute to leakage.
    """
    if census.words is None:
        raise ValueError("equivariance audit needs word metadata")
    if x is None:
        x = census.basepoint_x
    mu = orbital_measure(census, s, x=x, h=h)
    if g0_letter == 0:
        return EquivarianceAudit(0.0, 0.0, matched=len(mu), unmatched=0)
    g0 = word_matrix(census.spec, (g0_letter,))
    mu_pull = orbital_measure(census, s, x=g0.inverse().apply(x), h=h)
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
    d = distances_many(mu.basepoint, mu.atom_re, mu.atom_im)
    far = d >= horizon
    angles = direction_angles_many(mu.basepoint, mu.atom_re, mu.atom_im)
    mask = far & arc.contains_angle(angles)
    if not mask.any():
        return 0.0
    return float(math.fsum(np.exp(mu.log_weights[mask])))


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

    @property
    def r_too_small(self) -> bool:
        return self.empty_shadows > 0


def shadow_lemma_audit(census: OrbitCensus, mu: AtomicMeasure, alpha: float,
                       r: float, word_lengths=(3, 4, 5, 6, 7),
                       horizon: float | None = None) -> ShadowAudit:
    """For census elements with word length in the given band, compute
    mass(shadow of gamma.o at radius r) * e^(alpha d(o, gamma.o)).

    Shadows are cast from the measure's basepoint; the word-length band
    should avoid the truncation edge, whose shadows lose tail mass.
    Atom masses are accumulated through a sorted-angle prefix table so the
    audit is linear in census size per element band.
    """
    if horizon is None:
        horizon = default_horizon(census)
    base = mu.basepoint
    d_atoms = distances_many(base, mu.atom_re, mu.atom_im)
    far = d_atoms >= horizon
    angles = direction_angles_many(base, mu.atom_re, mu.atom_im)[far]
    weights = np.exp(mu.log_weights[far])
    order = np.argsort(angles, kind="stable")
    angles = angles[order]
    prefix = np.concatenate([[0.0], np.cumsum(weights[order])])
    total = prefix[-1]

    def arc_weight(arc: BoundaryInterval) -> float:
        if arc.full:
            return float(total)
        lo = arc.lo_angle
        hi = (arc.lo_angle + arc.width()) % _TWO_PI
        i_lo = np.searchsorted(angles, lo, side="left")
        i_hi = np.searchsorted(angles, hi, side="right")
        if lo <= hi:
            return float(prefix[i_hi] - prefix[i_lo])
        return float((total - prefix[i_lo]) + prefix[i_hi])

    band = np.isin(census.word_lengths, np.asarray(word_lengths))
    pre, pim = atom_positions(census)
    dists, masses, ratios = [], [], []
    empty = 0
    for i in np.nonzero(band)[0]:
        p = Point(float(pre[i]), float(pim[i]))
        d = distance(base, p)
        m = arc_weight(shadow(base, p, r)) if d > 0 else float(total)
        if m == 0.0:
            empty += 1
        dists.append(d)
        masses.append(m)
        ratios.append(m * math.exp(alpha * d))
    return ShadowAudit(
        distances=np.array(dists), masses=np.array(masses),
        ratios=np.array(ratios), alpha=alpha, r=r, empty_shadows=empty)


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
                       r: float, delta: float = 1.0,
                       horizon: float | None = None,
                       grid: int = 4096) -> CoverBound:
    """Empirical multiplicity of the shadow cover over one annulus of orbit
    points, with the induced count bound checked exactly on the census."""
    if horizon is None:
        horizon = default_horizon(census)
    base = mu.basepoint
    pre, pim = atom_positions(census)
    d = distances_many(base, pre, pim)
    sel = np.nonzero((d >= radius - delta) & (d <= radius + delta))[0]
    if len(sel) == 0:
        raise ValueError("annulus contains no census elements")
    arcs = []
    for i in sel:
        p = Point(float(pre[i]), float(pim[i]))
        if distance(base, p) <= r:
            arcs.append(BoundaryInterval.full_circle())
        else:
            arcs.append(shadow(base, p, r))
    thetas = np.linspace(0.0, _TWO_PI, grid, endpoint=False)
    mult = np.zeros(grid, dtype=np.int64)
    union = np.zeros(grid, dtype=bool)
    for arc in arcs:
        m = arc.contains_angle(thetas)
        mult += m
        union |= m
    masses = [shadow_mass(mu, arc, horizon=horizon) for arc in arcs]
    d_atoms = distances_many(base, mu.atom_re, mu.atom_im)
    angs = direction_angles_many(base, mu.atom_re, mu.atom_im)
    far = d_atoms >= horizon
    # Mass of atoms falling in the union of the shadows (grid-rounded
    # membership is only used for multiplicity; the union mass is exact).
    in_union = np.zeros(len(angs), dtype=bool)
    for arc in arcs:
        in_union |= arc.contains_angle(angs)
    covered = float(math.fsum(np.exp(mu.log_weights[far & in_union])))
    return CoverBound(
        radius=radius, delta=delta, count=len(sel),
        min_mass=float(min(masses)), multiplicity=int(mult.max()),
        covered_mass=covered)


# ---------------------------------------------------------------------------
# Radial limit points of free groups.


def _reduced_words(n_letters: int, depth: int):
    words = [(i,) for i in range(n_letters)]
    for _ in range(depth - 1):
        words = [w + (j,) for w in words for j in range(n_letters)
                 if j != w[-1] ^ 1]
    return words


def word_interval(spec: GroupSpec, word_indices: tuple) -> BoundaryInterval:
    """Nested coding interval of a reduced word: the image of the last
    letter's ping-pong arc under the preceding prefix."""
    cert = ping_pong_certificate(spec)
    arc = cert.intervals[word_indices[-1]]
    prefix = word_matrix(spec, tuple(map(signed_letter, word_indices[:-1])))
    return arc.apply(prefix)


@dataclass(frozen=True)
class RadialLimitPoint:
    word: tuple  # signed generator indices
    point: BoundaryPoint
    angle: float


def radial_limit_points(spec: GroupSpec, depth: int) -> list[RadialLimitPoint]:
    """One boundary point per reduced word of the given length: the word's
    prefix applied to the midpoint of the last letter's certified arc.
    Distinct codings give distinct points (nested disjoint arcs)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cert = ping_pong_certificate(spec)
    out = []
    for w in _reduced_words(len(cert.intervals), depth):
        prefix = word_matrix(spec, tuple(map(signed_letter, w[:-1])))
        xi = prefix.apply_boundary(cert.intervals[w[-1]].midpoint())
        out.append(RadialLimitPoint(word=tuple(map(signed_letter, w)), point=xi,
                                    angle=boundary_angle(xi)))
    return out


# ---------------------------------------------------------------------------
# Boundary histogram and limit-set render.


@dataclass(frozen=True)
class BoundaryHistogram:
    bin_lo: np.ndarray
    bin_hi: np.ndarray
    mass: np.ndarray

    def write_csv(self, fh, header_lines=()) -> None:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("bin_lo,bin_hi,mass\n")
        for lo, hi, m in zip(self.bin_lo, self.bin_hi, self.mass):
            fh.write(f"{lo:.12g},{hi:.12g},{m:.12g}\n")


def boundary_histogram(mu: AtomicMeasure, bins: int = 360,
                       horizon: float = 0.0) -> BoundaryHistogram:
    """Pushforward of the far atoms to the circle, binned by direction
    angle from the basepoint."""
    d = distances_many(mu.basepoint, mu.atom_re, mu.atom_im)
    far = d >= horizon
    angles = direction_angles_many(mu.basepoint, mu.atom_re, mu.atom_im)[far]
    weights = np.exp(mu.log_weights[far])
    edges = np.linspace(0.0, _TWO_PI, bins + 1)
    mass, _ = np.histogram(angles, bins=edges, weights=weights)
    return BoundaryHistogram(bin_lo=edges[:-1], bin_hi=edges[1:], mass=mass)


def histogram_distance(h1: BoundaryHistogram, h2: BoundaryHistogram) -> float:
    """Total-variation-style distance between two histograms on one grid."""
    if len(h1.mass) != len(h2.mass):
        raise ValueError("histograms use different grids")
    return 0.5 * float(np.abs(h1.mass - h2.mass).sum())


def render_ppm(mu: AtomicMeasure, fh, size: int = 1024,
               horizon: float = 0.0) -> None:
    """Binary PPM (P6) of the atom density in the disk model centered at
    the measure's basepoint: white background, grayscale by accumulated
    weight, deterministic for identical inputs."""
    x = mu.basepoint
    q = ((mu.atom_re - x.re) + 1j * mu.atom_im) / x.im
    w = (q - 1j) / (q + 1j)  # disk model, basepoint at the center
    d = distances_many(x, mu.atom_re, mu.atom_im)
    keep = d >= horizon
    px = np.clip(((w.real[keep] + 1.0) / 2.0 * size).astype(np.int64), 0, size - 1)
    py = np.clip(((1.0 - (w.imag[keep] + 1.0) / 2.0) * size).astype(np.int64), 0, size - 1)
    density = np.zeros((size, size), dtype=np.float64)
    np.add.at(density, (py, px), np.exp(mu.log_weights[keep]))
    peak = density.max()
    if peak > 0.0:
        gray = (255.0 * (1.0 - density / peak)).astype(np.uint8)
    else:
        gray = np.full((size, size), 255, dtype=np.uint8)
    fh.write(b"P6\n%d %d\n255\n" % (size, size))
    fh.write(np.repeat(gray[:, :, None], 3, axis=2).tobytes())

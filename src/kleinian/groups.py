"""Declarative group constructions, ping-pong certification, and
radius/word-length bounded orbit enumeration.

A group is described by a :class:`GroupSpec`; :func:`enumerate_orbit` turns a
spec plus basepoints and limits into an :class:`OrbitCensus`, the multiset of
orbit distances that every counting routine consumes.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .hyperbolic import (
    ORIGIN,
    BoundaryInterval,
    BoundaryPoint,
    Isometry,
    Point,
    apply_many,
    boundary_angle,
    distance,
    distances_many,
)

KINDS = (
    "schottky",
    "cyclic_hyperbolic",
    "cyclic_parabolic",
    "modular_lattice",
    "conjugated",
    "nested_subgroup",
)

# Largest supported lattice entry: it bounds sqrt(2 cosh R), the largest
# entry of a ball element at x = y = i, and the matrices that reduce the
# basepoints into the fundamental domain.
_LATTICE_ENTRY_MAX = (1 << 15) - 1
_LATTICE_CHUNK = 1 << 18  # bottom rows per batch of the lattice enumeration
_TABLE_CHUNK = 1 << 14  # rows formatted per write of a CSV table


class NonHyperbolicGenerator(ValueError):
    pass


class MarginViolation(ValueError):
    def __init__(self, message, letters=None):
        super().__init__(message)
        self.letters = letters


class BudgetExceeded(RuntimeError):
    pass


class InsufficientLimits(ValueError):
    """The given limits do not bound the census of this group."""


@dataclass(frozen=True)
class GroupSpec:
    """Declarative description of a discrete group of isometries."""

    kind: str
    generators: tuple[Isometry, ...] = ()
    conjugator: Isometry | None = None
    inner: "GroupSpec | None" = None
    depth: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == "conjugated" and (self.inner is None or self.conjugator is None):
            raise ValueError("a conjugated group needs 'inner' and 'conjugator'")


def schottky_spec(g1: Isometry, g2: Isometry) -> GroupSpec:
    for g in (g1, g2):
        if g.classify() != "hyperbolic":
            raise NonHyperbolicGenerator(f"generator {g} is {g.classify()}")
    return GroupSpec("schottky", generators=(g1, g2))


def cyclic_spec(g: Isometry) -> GroupSpec:
    kind = g.classify()
    if kind == "hyperbolic":
        return GroupSpec("cyclic_hyperbolic", generators=(g,))
    if kind == "parabolic":
        return GroupSpec("cyclic_parabolic", generators=(g,))
    raise ValueError(f"cyclic spec needs a hyperbolic or parabolic generator, got {kind}")


def modular_lattice_spec() -> GroupSpec:
    return GroupSpec("modular_lattice")


def nested_subgroup_spec(alpha: Isometry, beta: Isometry, depth: int) -> GroupSpec:
    """The subgroup generated by {alpha^-n beta alpha^n : 0 <= n <= depth}."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return GroupSpec("nested_subgroup", generators=(alpha, beta), depth=depth)


def conjugate(spec: GroupSpec, c: Isometry) -> GroupSpec:
    """The group c^-1 . spec . c."""
    return GroupSpec("conjugated", conjugator=c, inner=spec)


# ---------------------------------------------------------------------------
# JSON and CSV.  JSON matrices are row-major, numbers are decimal strings.

def _mat_to_json(g: Isometry):
    return [[repr(g.a), repr(g.b)], [repr(g.c), repr(g.d)]]


def _mat_from_json(doc) -> Isometry:
    (a, b), (c, d) = doc
    return Isometry(float(a), float(b), float(c), float(d))


def spec_to_json_dict(spec: GroupSpec) -> dict:
    doc = {"model": "upper_half_plane", "kind": spec.kind}
    if spec.generators:
        doc["generators"] = [_mat_to_json(g) for g in spec.generators]
    if spec.conjugator is not None:
        doc["conjugator"] = _mat_to_json(spec.conjugator)
    if spec.inner is not None:
        doc["inner"] = spec_to_json_dict(spec.inner)
    if spec.depth is not None:
        doc["depth"] = spec.depth
    return doc


def spec_from_json_dict(doc: dict) -> GroupSpec:
    if not isinstance(doc, dict):
        raise ValueError("a group document must be a JSON object")
    if doc.get("model", "upper_half_plane") != "upper_half_plane":
        raise ValueError(f"unsupported model {doc.get('model')!r}")
    kind = doc["kind"]
    generators = tuple(_mat_from_json(m) for m in doc.get("generators", []))
    if kind == "nested_subgroup":
        return nested_subgroup_spec(*generators, doc.get("depth"))
    conjugator = doc.get("conjugator")
    if conjugator is not None:
        conjugator = _mat_from_json(conjugator)
    inner = doc.get("inner")
    if inner is not None:
        inner = spec_from_json_dict(inner)
    return GroupSpec(kind, generators=generators, conjugator=conjugator,
                     inner=inner, depth=doc.get("depth"))


def spec_to_json(spec: GroupSpec) -> str:
    return json.dumps(spec_to_json_dict(spec), indent=2)


def spec_from_json(text: str) -> GroupSpec:
    return spec_from_json_dict(json.loads(text))


def _write_table(fh, header_lines, columns: str, fmt: str, cols) -> None:
    """CSV table: '# ' header lines, the column line, then ``fmt % row`` per
    row of the aligned 1-d arrays ``cols``, a bounded chunk at a time."""
    for line in header_lines:
        fh.write(f"# {line}\n")
    fh.write(columns + "\n")
    row = (fmt + "\n").__mod__
    for i in range(0, len(cols[0]), _TABLE_CHUNK):
        fh.writelines(map(row, zip(*(c[i:i + _TABLE_CHUNK].tolist() for c in cols))))


# ---------------------------------------------------------------------------
# Ping-pong certification.

@dataclass(frozen=True)
class PingPongCertificate:
    """Disjoint boundary arcs, one per generator letter, with the letter
    mapping condition verified: each letter sends the complement of its
    inverse's arc strictly into its own arc."""

    intervals: tuple[BoundaryInterval, ...]
    margin: float


def _letters(generators) -> list[Isometry]:
    out = []
    for g in generators:
        out.append(g)
        out.append(g.inverse())
    return out


def verify_ping_pong(generators, candidate_intervals) -> PingPongCertificate:
    """Check the ping-pong conditions for the given letter arcs.

    ``candidate_intervals`` holds one arc per letter in the order
    g1, g1^-1, g2, g2^-1, ...  Raises :class:`MarginViolation` when arcs
    overlap or a letter image escapes, :class:`NonHyperbolicGenerator` for a
    non-hyperbolic generator.
    """
    for g in generators:
        if g.classify() != "hyperbolic":
            raise NonHyperbolicGenerator(f"generator is {g.classify()}")
    letters = _letters(generators)
    intervals = tuple(candidate_intervals)
    if len(intervals) != len(letters):
        raise ValueError("need one candidate interval per generator letter")

    margin = math.inf
    for i in range(len(intervals)):
        for j in range(i + 1, len(intervals)):
            gap = intervals[i].gap_to(intervals[j])
            if gap <= 0.0:
                raise MarginViolation(
                    f"letter arcs {i} and {j} are not disjoint", letters=(i, j))
            margin = min(margin, gap)

    for i, ell in enumerate(letters):
        inv = i ^ 1
        image = intervals[inv].complement().apply(ell)
        inside = intervals[i].contains_interval(image)
        if inside <= 0.0:
            raise MarginViolation(
                f"image of letter {i} escapes its arc by {-inside:.3g}",
                letters=(i, inv))
        margin = min(margin, inside)
    return PingPongCertificate(intervals, margin)


def propose_intervals(generators) -> tuple[BoundaryInterval, ...]:
    """Auto-propose letter arcs centered at the attracting fixed points,
    scanning the common half-width for the best certified margin."""
    letters = _letters(generators)
    centers = []
    for ell in letters:
        if ell.classify() != "hyperbolic":
            raise NonHyperbolicGenerator(f"letter is {ell.classify()}")
        centers.append(ell.fixed_points()[0])
    # Half-width limited by half the smallest gap between arc centers.
    angles = sorted(boundary_angle(c) for c in centers)
    gaps = [(angles[(k + 1) % len(angles)] - angles[k]) % (2 * math.pi)
            for k in range(len(angles))]
    max_half = 0.5 * min(gaps)
    best = None
    best_margin = 0.0
    for frac in np.linspace(0.05, 0.98, 80):
        half = max_half * frac
        cand = tuple(BoundaryInterval.centered(c, half) for c in centers)
        try:
            cert = verify_ping_pong(generators, cand)
        except MarginViolation:
            continue
        if cert.margin > best_margin:
            best_margin = cert.margin
            best = cand
    if best is not None:
        return best
    # Fallback for letter systems whose arcs have very different sizes
    # (e.g. conjugate families clustering at a point): the letter
    # [[a, b], [c, d]] with c != 0 maps the exterior of |c xi + d| = 1 onto
    # the interior of |c xi - a| = 1, so (a/c - 1/|c|, a/c + 1/|c|) is a
    # natural per-letter arc.  verify_ping_pong keeps this rigorous.
    if all(ell.c != 0.0 for ell in letters):
        # The bare isometric intervals map exactly onto each other (zero
        # margin); expanding them by 1 + eps shrinks the images strictly
        # inside, as long as the expanded arcs stay disjoint.
        for eps in np.geomspace(1e-6, 0.5, 30):
            cand = tuple(
                BoundaryInterval.from_points(
                    BoundaryPoint(ell.a / ell.c - (1.0 + eps) / abs(ell.c)),
                    BoundaryPoint(ell.a / ell.c + (1.0 + eps) / abs(ell.c)))
                for ell in letters)
            try:
                cert = verify_ping_pong(generators, cand)
            except MarginViolation:
                continue
            if cert.margin > best_margin:
                best_margin = cert.margin
                best = cand
        if best is not None:
            return best
    raise MarginViolation("no certified interval system found for the generators")


@functools.lru_cache(maxsize=64)
def ping_pong_certificate(spec: GroupSpec) -> PingPongCertificate:
    """Certified interval system (auto-proposed arcs) for the letters of a
    spec that is free on :func:`_free_generators`."""
    gens = _free_generators(spec)
    return verify_ping_pong(gens, propose_intervals(gens))


# ---------------------------------------------------------------------------
# Censuses.

def signed_letter(i):
    """Signed 1-based generator index of letter i in the letter order g1,
    g1^-1, g2, g2^-1, ...; elementwise on integer arrays."""
    return (i // 2 + 1) * (1 - 2 * (i % 2))


def _lookup(keys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of each target among the distinct ``keys``, or -1."""
    order = np.argsort(keys)
    pos = order[np.minimum(np.searchsorted(keys, targets, sorter=order), len(keys) - 1)]
    return np.where(keys[pos] == targets, pos, -1)


class _PowerWords(Sequence):
    """Words of powers of one generator, stored as signed exponents: item i
    is ``(1,) * n`` for exponent n >= 0 and ``(-1,) * -n`` otherwise."""

    def __init__(self, exponents):
        self.exponents = np.asarray(exponents, dtype=np.int64)

    def __len__(self):
        return len(self.exponents)

    def __getitem__(self, i):
        n = int(self.exponents[i])
        return (1,) * n if n >= 0 else (-1,) * -n

    def take(self, order):
        return _PowerWords(self.exponents[order])

    def shifted_index(self, letter: int) -> np.ndarray:
        """Index of the reduced word letter^-1 w for each word w, or -1:
        g^-1 g^n = g^(n-1) and g g^n = g^(n+1)."""
        if abs(letter) != 1:
            return np.full(len(self), -1)
        return _lookup(self.exponents, self.exponents - letter)


class _FreeWords(Sequence):
    """Reduced words stored as the rows of an integer matrix of signed
    letters (see :func:`signed_letter`), zero-padded on the right: item i is
    the tuple of the nonzero entries of row i."""

    def __init__(self, letters: np.ndarray):
        self.letters = letters

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        row = self.letters[i]
        return tuple(int(s) for s in row[row != 0])

    def take(self, order):
        return _FreeWords(self.letters[order])

    def shifted_index(self, letter: int) -> np.ndarray:
        """Index of the reduced word letter^-1 w for each word w, or -1:
        w loses its first letter if that is ``letter``, else gains -letter."""
        rows = np.pad(self.letters, ((0, 0), (0, 1)))  # room to prepend
        drop = rows[:, 0] == letter
        shifted = np.zeros_like(rows)
        shifted[drop, :-1] = rows[drop, 1:]
        shifted[~drop, 1:] = rows[~drop, :-1]
        shifted[~drop, 0] = -letter
        # One sortable key per row: its bytes.
        row_bytes = np.dtype((np.void, rows.shape[1] * rows.itemsize))
        keys = np.stack([rows, shifted]).view(row_bytes)
        return _lookup(keys[0, :, 0], keys[1, :, 0])


@dataclass(frozen=True)
class OrbitCensus:
    """Sorted multiset of orbit distances d(x, gamma.y) with word metadata.

    ``mats`` is an (n, 2, 2) array aligned with ``distances`` and
    ``word_lengths``.  ``words`` is a lazy sequence whose item i is the word
    of element i as a tuple of signed 1-based generator indices, None for
    the lattice.  The free constructions store the words as a zero-padded
    matrix of signed letters, one row per element, and the cyclic groups as
    signed exponents; a tuple is built only when an item is read.  Both
    give ``words.shifted_index(letter)``, the index of the reduced word
    letter^-1 w for every word w (-1 where it is not in the census).
    """

    distances: np.ndarray
    word_lengths: np.ndarray
    mats: np.ndarray
    words: Sequence | None
    basepoint_x: Point
    basepoint_y: Point
    completeness_radius: float
    spec: GroupSpec | None = None

    def __len__(self):
        return len(self.distances)

    def element(self, i: int) -> Isometry:
        m = self.mats[i]
        return Isometry(float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1]))

    def word(self, i: int):
        return None if self.words is None else self.words[i]

    def write_csv(self, fh, header_lines=()) -> None:
        m = self.mats
        _write_table(fh, header_lines, "distance,word_length,a,b,c,d",
                     "%.12g,%d,%.12g,%.12g,%.12g,%.12g",
                     (self.distances, self.word_lengths,
                      m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]))


def _free_generators(spec: GroupSpec) -> tuple[Isometry, ...]:
    """Generator list of the constructions that are free on their
    generators (Schottky, nested conjugates, the rank-one cyclics, and
    conjugates of these)."""
    if spec.kind in ("schottky", "cyclic_hyperbolic", "cyclic_parabolic"):
        return tuple(spec.generators)
    if spec.kind == "nested_subgroup":
        alpha, beta = spec.generators
        gens = []
        a_pow = Isometry.identity()
        for _ in range(spec.depth + 1):
            gens.append(a_pow.inverse() @ beta @ a_pow)
            a_pow = alpha @ a_pow
        return tuple(gens)
    if spec.kind == "conjugated":
        c = spec.conjugator
        return tuple(c.inverse() @ g @ c for g in _free_generators(spec.inner))
    raise ValueError(f"no free letters for kind {spec.kind!r}")


def word_matrix(spec: GroupSpec, word) -> Isometry:
    """Evaluate a reduced word (signed 1-based generator indices)."""
    letters = _letters(_free_generators(spec))
    m = Isometry.identity()
    for s in word:
        if not 1 <= abs(s) <= len(letters) // 2:
            raise ValueError(f"letter {s} is outside the letters "
                             f"+-1..+-{len(letters) // 2} of {spec.kind!r}")
        idx = 2 * (abs(s) - 1) + (0 if s > 0 else 1)
        m = m @ letters[idx]
    return m


def _census(mats, dists, wls, words, x, y, completeness, spec):
    dists = np.asarray(dists, dtype=np.float64)
    order = np.argsort(dists, kind="stable")
    return OrbitCensus(
        distances=dists[order],
        word_lengths=np.asarray(wls, dtype=np.int64)[order],
        mats=np.asarray(mats).reshape(-1, 2, 2)[order],
        words=None if words is None else words.take(order),
        basepoint_x=x,
        basepoint_y=y,
        completeness_radius=completeness,
        spec=spec,
    )


def _enumerate_cyclic(spec, x, y, max_word_length, max_radius, budget):
    """Powers g^n, walked outwards from n = 0 in both directions.  Since
    n -> cosh d(x, g^n y) is convex (g hyperbolic or parabolic), a direction
    stops at the first excluded power no nearer than the one before it:
    every later power is excluded and at least as far."""
    g = spec.generators[0]
    mats, dists, exponents, excluded = [], [], [], []
    for sign, step in ((1, g), (-1, g.inverse())):
        m, n, prev, d = Isometry.identity(), 0, math.inf, distance(x, y)
        while True:
            if ((max_word_length is not None and n > max_word_length)
                    or (max_radius is not None and d > max_radius)):
                excluded.append(d)
                if d >= prev:
                    break
            elif n > 0 or sign > 0:  # the identity is visited twice
                mats.append(np.array([[m.a, m.b], [m.c, m.d]]))
                dists.append(d)
                exponents.append(sign * n)
                if len(mats) > budget:
                    raise BudgetExceeded(f"census exceeds budget {budget}")
            try:  # a lost determinant, or an image of y off the half-plane
                nxt = m @ step
                lost = max(abs(nxt.a), abs(nxt.b), abs(nxt.c), abs(nxt.d)) > 1e70
                nxt_d = None if lost else distance(x, nxt.apply(y))
            except ValueError:
                lost = True
            if lost:
                # The next power is beyond double precision.  A power g^k moves
                # y at least |k| times the translation length (a parabolic g
                # gives no bound), so none from n + 1 on is nearer than this.
                ell = g.translation_length() if g.classify() == "hyperbolic" else 0.0
                excluded.append((n + 1) * ell - distance(x, y))
                break
            if n >= budget:
                raise BudgetExceeded(f"cyclic walk exceeds budget {budget}")
            m, n, prev, d = nxt, n + 1, d, nxt_d
    completeness = min(excluded) if excluded else math.inf
    if max_radius is not None:
        completeness = min(completeness, max_radius)
    exponents = np.array(exponents, dtype=np.int64)
    return _census(mats, dists, np.abs(exponents), _PowerWords(exponents),
                   x, y, completeness, spec)


def _halfplane_of_arc(arc: BoundaryInterval):
    """Geodesic half-plane spanned by a boundary arc (its convex hull).

    Returned as ("line", xi, side) for a vertical boundary geodesic, or
    ("circle", center, radius, outside) for a half-circle geodesic, where
    ``side``/``outside`` picks the half-plane containing the arc.
    """
    lo, hi = arc.lo, arc.hi
    mid = arc.midpoint()
    if lo.is_infinity or hi.is_infinity:
        xi = hi.value if lo.is_infinity else lo.value
        side = 1.0 if (not mid.is_infinity and mid.value > xi) else -1.0
        return ("line", xi, side)
    c = 0.5 * (lo.value + hi.value)
    r = 0.5 * abs(hi.value - lo.value)
    outside = mid.is_infinity or abs(mid.value - c) > r
    return ("circle", c, r, outside)


def _halfplane_clearance(hp, zre, zim):
    """Distance d(z, D) to a half-plane from :func:`_halfplane_of_arc`;
    zero for points inside.  Uses sinh d(z, geodesic) = |q| / (2 r Im z)
    with q = |z - c|^2 - r^2 (and its vertical-line limit)."""
    if hp[0] == "line":
        _, xi, side = hp
        t = zre - xi
        dist = np.arcsinh(np.abs(t) / zim)
        return np.where(t * side >= 0.0, 0.0, dist)
    _, c, r, outside = hp
    q = (zre - c) ** 2 + zim ** 2 - r * r
    dist = np.arcsinh(np.abs(q) / (2.0 * r * zim))
    inside = (q > 0.0) if outside else (q < 0.0)
    return np.where(inside, 0.0, dist)


def _certified_halfplanes(spec: GroupSpec, y: Point):
    """Half-plane system for rigorous subtree pruning, or None.

    Soundness: with certified disjoint letter arcs, each letter maps the
    convex hull of every other letter's arc (and of its own) into the
    convex hull of its own arc, so every reduced word starting with letter
    m sends y into D_m provided y itself clears all half-planes.  All
    descendants of a word w whose continuations start with m therefore lie
    in w.D_m, and d(x, w.D_m) = d(w^-1.x, D_m) bounds them from below.
    """
    try:
        cert = ping_pong_certificate(spec)
    except (MarginViolation, NonHyperbolicGenerator):
        return None
    planes = [_halfplane_of_arc(arc) for arc in cert.intervals]
    yre, yim = np.array([y.re]), np.array([y.im])
    for hp in planes:
        if float(_halfplane_clearance(hp, yre, yim)[0]) <= 0.0:
            return None
    return planes


def _enumerate_free(spec, x, y, max_word_length, max_radius, budget):
    """Pruned tree search over reduced words, one array step per level.

    Level k is the frontier of words of length k (the identity is level 0).
    Its elements within ``max_radius`` join the census; a word stays in the
    frontier while the half-plane bound of its subtree is within
    ``max_radius``, and each letter that does not cancel its last letter
    extends it to a child, in letter-major order.
    """
    letters = _letters(_free_generators(spec))
    lmats = np.stack([np.array([[l.a, l.b], [l.c, l.d]]) for l in letters])
    n_letters = len(lmats)
    codes = signed_letter(np.arange(n_letters)).astype(np.min_scalar_type(-n_letters))
    halfplanes = _certified_halfplanes(spec, y)
    if halfplanes is None and max_word_length is None:
        raise InsufficientLimits(
            "free enumeration needs max_word_length when the generators "
            "have no certified interval system")
    radius = math.inf if max_radius is None else max_radius

    def subtree_bound(mats, last):
        """Lower bound on d(x, w v . y) over the proper continuations v of
        each word w (v does not start with the letter cancelling w's last)."""
        # The adjugate of a unimodular matrix is its inverse.
        adj = np.stack([mats[:, 1, 1], -mats[:, 0, 1], -mats[:, 1, 0], mats[:, 0, 0]], axis=1)
        zre, zim = apply_many(adj.reshape(-1, 2, 2), x)
        clearance = np.stack([_halfplane_clearance(hp, zre, zim) for hp in halfplanes])
        clearance[last ^ 1, np.arange(len(last))] = np.inf
        return clearance.min(axis=0)

    mats, last, words = np.eye(2)[None], np.array([-1]), np.zeros((1, 0), codes.dtype)
    dist, bound = np.array([distance(x, y)]), np.zeros(1)
    levels, size = [], 0
    bound_floor = math.inf  # least lower bound of a subtree left out
    for level in itertools.count():
        take = dist <= radius
        levels.append((mats[take], dist[take], np.full(int(take.sum()), level), words[take]))
        size += len(levels[-1][1])
        if size > budget:
            raise BudgetExceeded(f"census exceeds budget {budget}")
        keep = bound <= radius
        bound_floor = min(bound_floor, float(bound[~keep].min(initial=math.inf)))
        mats, last, words, bound = mats[keep], last[keep], words[keep], bound[keep]
        if max_word_length is not None and level >= max_word_length:
            bound_floor = min(bound_floor, float(bound.min(initial=math.inf)))
            break
        if not len(mats):
            break
        li, p = np.nonzero(last != (np.arange(n_letters)[:, None] ^ 1))
        mats, last = mats[p] @ lmats[li], li
        words = np.concatenate([words[p], codes[li, None]], axis=1)
        dist = distances_many(x, *apply_many(mats, y))
        bound = np.zeros(len(li)) if halfplanes is None else subtree_bound(mats, li)
    mats, dists, wls, words = zip(*levels)
    width = words[-1].shape[1]
    words = np.concatenate([np.pad(w, ((0, 0), (0, width - w.shape[1]))) for w in words])
    return _census(np.concatenate(mats), np.concatenate(dists), np.concatenate(wls),
                   _FreeWords(words), x, y, min(bound_floor, radius), spec)


def _canonical_int_rows(rows: np.ndarray) -> np.ndarray:
    """Sign-canonicalize (n, 4) integer matrix rows in place convention:
    first nonzero of (a, b, c) positive."""
    a, b, c = rows[:, 0], rows[:, 1], rows[:, 2]
    lead = np.where(a != 0, a, np.where(b != 0, b, c))
    flip = lead < 0
    rows[flip] *= -1
    return rows


def _expand_ranges(lo, counts):
    """(owner, value) over the integer ranges lo[i] .. lo[i] + counts[i] - 1."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, lo[owner] + (np.arange(len(owner)) - starts[owner])


def _ext_gcd(c, d):
    """(g, u, v) with u c + v d = g = +-gcd(c, d), elementwise."""
    r0, r1 = c.copy(), d.copy()
    u0, u1 = np.ones_like(c), np.zeros_like(c)
    v0, v1 = np.zeros_like(c), np.ones_like(c)
    idx = np.nonzero(r1)[0]
    while len(idx):
        q = r0[idx] // r1[idx]
        r0[idx], r1[idx] = r1[idx], r0[idx] - q * r1[idx]
        u0[idx], u1[idx] = u1[idx], u0[idx] - q * u1[idx]
        v0[idx], v1[idx] = v1[idx], v0[idx] - q * v1[idx]
        idx = idx[r1[idx] != 0]
    return r0, u0, v0


def _st_word_lengths(rows: np.ndarray) -> np.ndarray:
    """Word lengths in S, T, T^-1 of (n, 4) integer rows (a, b, c, d), by a
    nearest-integer Euclid: while c != 0, right-multiply by T^k S with k
    minimising |d + k c| (the smaller |k| on a tie), which spends |k| + 1
    letters and at least halves |c|; the matrix is then +-T^b, |b| letters."""
    a, b, c, d = (rows[:, j].copy() for j in range(4))
    lengths = np.zeros(len(rows), dtype=np.int64)
    idx = np.nonzero(c)[0]
    while len(idx):
        ai, ci, di = a[idx], c[idx], d[idx]
        k = -di // ci
        r_lo, r_hi = np.abs(di + k * ci), np.abs(di + (k + 1) * ci)
        k += (r_hi < r_lo) | ((r_hi == r_lo) & (np.abs(k + 1) < np.abs(k)))
        a[idx], b[idx], c[idx], d[idx] = b[idx] + k * ai, -ai, di + k * ci, -ci
        lengths[idx] += np.abs(k) + 1
        idx = idx[c[idx] != 0]
    return lengths + np.abs(b)


def _reduce_basepoint(p: Point):
    """(h, q) with h in SL(2, Z), p = h.q and q in the standard fundamental
    domain |Re q| <= 1/2, |q| >= 1 (up to rounding)."""
    a, b, c, d = 1, 0, 0, 1
    q = complex(p.re, p.im)
    while True:
        n = math.floor(q.real + 0.5)
        q -= n
        b, d = b + n * a, d + n * c  # h T^n
        if abs(q) >= 1.0 - 1e-9:  # rounding must not flip q and -1/q forever
            break
        q = -1.0 / q
        a, b, c, d = -b, a, -d, c  # h S^-1
    if max(abs(a), abs(b), abs(c), abs(d)) > _LATTICE_ENTRY_MAX:
        raise OverflowError("basepoint outside the range of exact lattice arithmetic")
    return np.array([[a, b], [c, d]]), Point(q.real, q.imag)


def _enumerate_lattice(spec, x, y, max_word_length, max_radius, budget):
    """Lattice points g of the ball d(x, g.y) <= R, exactly.

    With x = k.x0 and y = h.y0 in the fundamental domain, the ball is k B
    h^-1 for the ball B at (x0, y0), whose elements (a, b; c, d) have
    |c y0 + d|^2 = Im y0 / Im(g.y0) <= (Im y0 / Im x0) e^R.  An extended gcd
    gives one g0 per coprime bottom row (c, d), c >= 0; the others are
    T^t g0, which move g0.y0 by t, so a quadratic bounds t.  ``budget``
    bounds the ball; elements longer than ``max_word_length`` are dropped,
    and the nearest of them bounds the completeness radius.
    """
    if max_radius is None:
        raise InsufficientLimits("lattice enumeration needs max_radius")
    if 2.0 * math.cosh(max_radius) > _LATTICE_ENTRY_MAX ** 2:
        raise OverflowError("max_radius too large for exact lattice arithmetic")
    k, x0 = _reduce_basepoint(x)
    h, y0 = _reduce_basepoint(y)
    h_inv = np.array([[h[1, 1], -h[0, 1]], [-h[1, 0], h[0, 0]]])
    # Relative float margins; the distance test below decides membership.
    cosh_r = math.cosh(max_radius) * (1.0 + 1e-9)
    row_bound = (y0.im / x0.im) * math.exp(max_radius) * (1.0 + 1e-9)
    c_all = np.arange(int(math.sqrt(row_bound) / y0.im) + 1)
    half = np.sqrt(np.maximum(row_bound - (c_all * y0.im) ** 2, 0.0))
    d_lo = np.ceil(-c_all * y0.re - half).astype(np.int64)
    d_hi = np.floor(-c_all * y0.re + half).astype(np.int64)
    d_lo[0], d_hi[0] = max(d_lo[0], 1), min(d_hi[0], 1)  # c = 0: only (0, 1)
    counts = np.maximum(d_hi - d_lo + 1, 0)
    c_step = max(1, _LATTICE_CHUNK // (2 * int(math.sqrt(row_bound)) + 2))
    completeness, total, out = max_radius, 0, []
    for c0 in range(0, len(c_all), c_step):
        owner, d = _expand_ranges(d_lo[c0:c0 + c_step], counts[c0:c0 + c_step])
        c = c_all[c0:c0 + c_step][owner]
        g, u, v = _ext_gcd(c, d)
        ok = np.abs(g) == 1
        c, d, g, u, v = c[ok], d[ok], g[ok], u[ok], v[ok]
        a0, b0 = v * g, -u * g  # a0 d - b0 c = g^2 = 1
        w_re, w_im = apply_many(np.stack([a0, b0, c, d], axis=1).reshape(-1, 2, 2), y0)
        rhs = 2.0 * x0.im * w_im * (cosh_r - 1.0) - (x0.im - w_im) ** 2
        half_t = np.sqrt(np.maximum(rhs, 0.0))
        t_lo = np.ceil(x0.re - w_re - half_t)
        n_t = np.where(rhs >= 0.0, np.floor(x0.re - w_re + half_t) - t_lo + 1.0, 0.0)
        if total + n_t.sum() > budget:
            raise BudgetExceeded(f"census exceeds budget {budget}")
        i, t = _expand_ranges(t_lo.astype(np.int64), n_t.astype(np.int64))
        g0 = np.stack([a0[i] + t * c[i], b0[i] + t * d[i], c[i], d[i]], axis=1)
        rows = _canonical_int_rows((k @ g0.reshape(-1, 2, 2) @ h_inv).reshape(-1, 4))
        dists = distances_many(x, *apply_many(rows.reshape(-1, 2, 2), y))
        inside = dists <= max_radius
        rows, dists = rows[inside], dists[inside]
        total += len(rows)
        wls = _st_word_lengths(rows)
        if max_word_length is not None:
            long = wls > max_word_length
            if long.any():
                completeness = min(completeness, float(dists[long].min()))
            rows, dists, wls = rows[~long], dists[~long], wls[~long]
        out.append((rows, dists, wls))
    rows, dists, wls = (np.concatenate(col) for col in zip(*out))
    # Distance ties keep the order of a word-length BFS over sorted rows.
    order = np.lexsort((rows[:, 3], rows[:, 2], rows[:, 1], rows[:, 0], wls, dists))
    return _census(rows[order].reshape(-1, 2, 2), dists[order], wls[order], None,
                   x, y, completeness, spec)


def _enumerate_conjugated(spec, x, y, max_word_length, max_radius, budget):
    c = spec.conjugator
    cx, cy = c.apply(x), c.apply(y)
    inner = enumerate_orbit(spec.inner, cx, cy, max_word_length=max_word_length,
                            max_radius=max_radius, budget=budget)
    cm = np.array([[c.a, c.b], [c.c, c.d]])
    cinv = np.array([[c.d, -c.b], [-c.c, c.a]])
    mats = cinv[None, :, :] @ inner.mats.astype(np.float64) @ cm[None, :, :]
    return dataclasses.replace(inner, mats=mats, basepoint_x=x, basepoint_y=y,
                               spec=spec)


def enumerate_orbit(spec: GroupSpec, x: Point = ORIGIN, y: Point = ORIGIN,
                    max_word_length: int | None = None,
                    max_radius: float | None = None,
                    budget: int = 10 ** 7) -> OrbitCensus:
    """Census of all distinct group elements within the given limits.

    The census is sorted by distance; ``completeness_radius`` is the radius
    up to which it is complete: proved by the ping-pong half-planes (free
    constructions), by convexity of n -> cosh d(x, g^n y) (cyclic groups) or
    by exact lattice-point enumeration (the modular lattice, which needs
    ``max_radius``).  Limits that cannot bound the census raise
    :class:`InsufficientLimits`.
    """
    if max_word_length is None and max_radius is None:
        raise InsufficientLimits(
            "at least one of max_word_length, max_radius is required")
    if spec.kind in ("cyclic_hyperbolic", "cyclic_parabolic"):
        return _enumerate_cyclic(spec, x, y, max_word_length, max_radius, budget)
    if spec.kind in ("schottky", "nested_subgroup"):
        if spec.kind == "schottky":
            ping_pong_certificate(spec)  # raises unless certified
        return _enumerate_free(spec, x, y, max_word_length, max_radius, budget)
    if spec.kind == "modular_lattice":
        return _enumerate_lattice(spec, x, y, max_word_length, max_radius, budget)
    if spec.kind == "conjugated":
        return _enumerate_conjugated(spec, x, y, max_word_length, max_radius, budget)
    raise ValueError(f"unsupported kind {spec.kind!r}")

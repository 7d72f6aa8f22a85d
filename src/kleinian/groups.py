"""Declarative group constructions, ping-pong certification, and
radius/word-length bounded orbit enumeration.

A group is described by a :class:`GroupSpec`; :func:`enumerate_orbit` turns a
spec plus basepoints and limits into an :class:`OrbitCensus`, the multiset of
orbit distances that every counting routine consumes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .hyperbolic import (
    _ROW_CHUNK,
    _TOL,
    _TWO_PI,
    ORIGIN,
    BoundaryInterval,
    Isometry,
    Point,
    _fold_angle,
    apply_boundary_many,
    apply_many,
    arc_widths,
    boundary_angles,
    boundary_values,
    canonical_signs,
    conjugates_many,
    distance,  # unused here; perfbench/spans.py wraps groups.distance by name
    frames_many,
    hyperbolic_fixed_points,
    hypot_distances,
    origin_distances_many,
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
# _ROW_CHUNK also gives the candidate bottom rows per chunk of a lattice
# enumeration, and the rows per piece of its census and per slice of its word
# lengths, so that what a lattice census holds beyond its rows is bounded; and
# the rows per 2-D product of the free search's children (:func:`_right_products`).
_TABLE_CHUNK = 1 << 14  # rows formatted per write of a CSV table
_MAX_NESTING = 64  # conjugations around a spec; each is a level of recursion
# Largest radius at which a cyclic ball is solved, below the R = 1419 where
# 2 sinh(R / 2) overflows and the 1410 past which no power is formed; no
# cyclic census claims completeness beyond it.
_CYCLIC_RADIUS_CAP = 1400.0


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
        """Every static rule a spec must meet, whatever built it."""
        kind, gens = self.kind, self.generators
        if kind not in KINDS:
            raise ValueError(f"unknown group kind {kind!r}")
        classes = [g.classify() for g in gens]
        if kind.startswith("cyclic_") and ["cyclic_" + c for c in classes] != [kind]:
            raise ValueError(f"a {kind} group needs one generator of that type, got {classes}")
        if kind == "schottky" and not gens:
            raise ValueError("a schottky group needs at least one generator")
        if kind == "schottky" and set(classes) != {"hyperbolic"}:
            raise NonHyperbolicGenerator(f"schottky generators must be hyperbolic, got {classes}")
        if kind == "nested_subgroup" and (len(gens) != 2 or type(self.depth) is not int
                                          or self.depth < 0):
            raise ValueError("a nested subgroup needs two generators and an integer "
                             f"depth >= 0, got {len(gens)} and {self.depth!r}")
        if kind == "conjugated" and (self.inner is None or self.conjugator is None):
            raise ValueError("a conjugated group needs 'inner' and 'conjugator'")
        nesting, inner = 0, self.inner
        while inner is not None:
            nesting, inner = nesting + 1, inner.inner
        if nesting > _MAX_NESTING:
            raise ValueError(f"a group nests {nesting} specs deep, more than {_MAX_NESTING}")


def schottky_spec(g1: Isometry, g2: Isometry) -> GroupSpec:
    return GroupSpec("schottky", generators=(g1, g2))


def cyclic_spec(g: Isometry) -> GroupSpec:
    """The cyclic group of a hyperbolic or parabolic g."""
    kind = "cyclic_parabolic" if g.classify() == "parabolic" else "cyclic_hyperbolic"
    return GroupSpec(kind, generators=(g,))


def modular_lattice_spec() -> GroupSpec:
    return GroupSpec("modular_lattice")


def nested_subgroup_spec(alpha: Isometry, beta: Isometry, depth: int) -> GroupSpec:
    """The subgroup generated by {alpha^-n beta alpha^n : 0 <= n <= depth}.
    alpha may be hyperbolic, parabolic or elliptic; the first two are
    enumerated and certified in alpha's eigenframe (:func:`_normal_form`)."""
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


def _table_chunks(fmt: str, cols):
    """The lines ``fmt % row`` of the rows of the aligned 1-d arrays ``cols``,
    joined into one string per chunk of rows.  Each chunk takes one ``%``:
    the row format repeated once per row, applied to the chunk's values
    interleaved row by row, so every value gets the conversion it gets alone."""
    k = len(cols)
    for i in range(0, len(cols[0]), _TABLE_CHUNK):
        parts = [c[i:i + _TABLE_CHUNK].tolist() for c in cols]
        values = [None] * (k * len(parts[0]))
        for j, part in enumerate(parts):
            values[j::k] = part
        yield (fmt + "\n") * len(parts[0]) % tuple(values)


def _filled_chunks(templates, col):
    """Each chunk template of :func:`_table_chunks` filled with the ``%.12g``
    text of its chunk of the 1-d float64 array ``col``, one value per
    remaining ``%s``.  A run of values with equal bits is formatted once, by
    one ``%`` per chunk over the runs' first values, and its text repeated:
    equal bits give equal text, and -0.0 and 0.0, or two NaNs of different
    bits, are never one run."""
    bits = np.ascontiguousarray(col, dtype=np.float64).view(np.int64)
    for i, t in zip(range(0, len(col), _TABLE_CHUNK), templates):
        part = bits[i:i + _TABLE_CHUNK]
        new = np.concatenate([[True], part[1:] != part[:-1]])  # run starts
        firsts = part[new].view(np.float64).tolist()
        text = np.array(("%.12g\n" * len(firsts) % tuple(firsts)).split("\n"), dtype=object)
        yield t % tuple(text[np.cumsum(new) - 1].tolist())


def _write_table(fh, header_lines, columns: str, chunks) -> None:
    """CSV table: '# ' header lines, the column line, then the row chunks."""
    for line in header_lines:
        fh.write(f"# {line}\n")
    fh.write(columns + "\n")
    fh.writelines(chunks)


# ---------------------------------------------------------------------------
# Ping-pong certification.

@dataclass(frozen=True)
class PingPongCertificate:
    """Disjoint boundary arcs, one per letter g1, g1^-1, g2, g2^-1, ..., each
    letter sending the complement of its inverse's arc strictly into its own."""

    intervals: tuple[BoundaryInterval, ...]
    margin: float
    letters: np.ndarray = field(compare=False)  # (2k, 2, 2), read-only


def _letters(generators) -> np.ndarray:
    """The (2k, 2, 2) stack of the letters g1, g1^-1, g2, g2^-1, ... of the
    isometries ``generators``."""
    return np.array([[[h.a, h.b], [h.c, h.d]] for g in generators
                     for h in (g, g.inverse())]).reshape(-1, 2, 2)


def _check_hyperbolic(lmats) -> None:
    """Raise unless every letter of det 1 in ``lmats`` has |trace| > 2."""
    trace = np.abs(lmats[:, 0, 0] + lmats[:, 1, 1])
    bad = np.nonzero(~(trace > 2.0 + _TOL))[0]
    if len(bad):
        raise NonHyperbolicGenerator(f"generator {bad[0] // 2 + 1} is not hyperbolic: "
                                     f"|trace| = {trace[bad[0]]:.9g}")


def _image_arcs(lmats, lo, hi):
    """(img_lo, img_hi): the angles of the arcs to which each letter of
    ``lmats`` maps the complement (hi[i^1], lo[i^1]) of its inverse's arc,
    for the letter arcs from ``lo`` counterclockwise to ``hi``."""
    inv = np.arange(len(lo)) ^ 1
    return boundary_angles(apply_boundary_many(
        lmats, boundary_values(np.stack([hi[inv], lo[inv]]))))


def _ping_pong_margin(lmats, lo, hi):
    """(margin, letters) of the letter arcs from the angles ``lo``
    counterclockwise to ``hi`` in [0, 2*pi), one per letter of ``lmats`` in
    the order of :func:`_letters`: the least gap between two arcs and between
    a letter's image of its inverse's complement and its own arc, and None;
    or, where a gap is not positive, its value and the letters at fault."""
    width = arc_widths(lo, hi)
    # Disjoint iff, in the order of lo, no arc reaches the start of the next.
    order = np.argsort(lo, kind="stable")
    nxt = np.roll(order, -1)
    reach = (lo[nxt] - lo[order]) % _TWO_PI - width[order]
    k = int(np.argmin(reach > 0.0))  # the first failure, if any; NaN fails
    if not reach[k] > 0.0:
        return float(reach[k]), tuple(sorted((int(order[k]), int(nxt[k]))))
    gap = float(((lo[nxt] - hi[order]) % _TWO_PI).min())
    img_lo, img_hi = _image_arcs(lmats, lo, hi)
    img_width = arc_widths(img_lo, img_hi)
    start, end = (img_lo - lo) % _TWO_PI, width - (img_hi - lo) % _TWO_PI
    inside = np.where(start + img_width > width, -np.minimum(np.abs(start), np.abs(end)),
                      np.minimum(start, end))
    k = int(np.argmin(inside > 0.0))
    if not inside[k] > 0.0:
        return float(inside[k]), (k, k ^ 1)
    return min(gap, float(inside.min())), None


def verify_ping_pong(generators, candidate_intervals) -> PingPongCertificate:
    """Check the ping-pong conditions for the given letter arcs.

    ``candidate_intervals`` holds one arc per letter in the order
    g1, g1^-1, g2, g2^-1, ...  Raises :class:`MarginViolation` when arcs
    overlap or a letter image escapes, :class:`NonHyperbolicGenerator` for a
    non-hyperbolic generator.
    """
    return _verified(_letters(generators), tuple(candidate_intervals))


def _verified(lmats, intervals) -> PingPongCertificate:
    """:func:`verify_ping_pong` on the (2k, 2, 2) letters ``lmats``."""
    _check_hyperbolic(lmats)
    if len(intervals) != len(lmats):
        raise ValueError("need one candidate interval per generator letter")
    lo, hi = np.array([(arc.lo_angle, arc.hi_angle) for arc in intervals]).T
    margin, bad = _ping_pong_margin(lmats, lo, hi)
    if bad is not None:
        raise MarginViolation(f"letter arcs {bad} fail ping-pong by {-margin:.3g}", letters=bad)
    lmats.setflags(write=False)
    return PingPongCertificate(intervals, margin, lmats)


def propose_intervals(lmats) -> tuple[BoundaryInterval, ...]:
    """Auto-propose arcs for the (2k, 2, 2) letters ``lmats`` (see
    :func:`_letters`): centered at the attracting fixed points with a common
    half-width, else about the isometric circles.  The first family with a
    certified candidate wins, and in it the first of the best margin."""
    _check_hyperbolic(lmats)
    centers = boundary_angles(hyperbolic_fixed_points(lmats)[0])
    # Half-width limited by half the smallest gap between arc centers.
    angles = np.sort(centers)
    max_half = 0.5 * float(((np.roll(angles, -1) - angles) % _TWO_PI).min())
    centered = ((_fold_angle(centers - half), _fold_angle(centers + half))
                for half in max_half * np.linspace(0.05, 0.98, 80))
    # Fallback for letter systems whose arcs differ much in size (e.g. conjugate
    # families clustering at a point): a letter [[a, b], [c, d]] with c != 0 maps
    # the exterior of |c xi + d| = 1 onto the interior of |c xi - a| = 1.  These
    # arcs a/c -+ 1/|c| map exactly onto each other (zero margin); widened by
    # 1 + eps, their images fall strictly inside while they stay disjoint.
    a, c = lmats[:, 0, 0], lmats[:, 1, 0]
    isometric = ((boundary_angles(a / c - (1.0 + eps) / np.abs(c)),
                  boundary_angles(a / c + (1.0 + eps) / np.abs(c)))
                 for eps in (np.geomspace(1e-6, 0.5, 30) if (c != 0.0).all() else ()))
    with np.errstate(over="ignore", invalid="ignore"):  # NaN arcs fail
        for family in (centered, isometric):
            best, best_margin = None, 0.0
            for lo, hi in family:
                margin, bad = _ping_pong_margin(lmats, lo, hi)
                if bad is None and margin > best_margin:
                    best, best_margin = (lo, hi), margin
            if best is not None:
                return tuple(map(BoundaryInterval, best[0].tolist(), best[1].tolist()))
    raise MarginViolation("no certified interval system found for the generators")


@functools.lru_cache(maxsize=64)
def ping_pong_certificate(spec: GroupSpec) -> PingPongCertificate:
    """Certified interval system (auto-proposed arcs) for the letters of a
    spec that is free on :func:`_free_letters`.  A nested spec is certified
    in alpha's eigenframe (:func:`_normal_form`), whose letters and arcs
    the certificate holds."""
    frame = _normal_form(spec)
    if spec.kind == "nested_subgroup" and frame.kind == "conjugated":
        return ping_pong_certificate(frame.inner)
    lmats = _free_letters(spec)
    return _verified(lmats, propose_intervals(lmats))


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

    def shifted_index(self, letter: int) -> np.ndarray:
        """Index of the reduced word letter^-1 w for each word w, or -1:
        w loses its first letter if that is ``letter``, else gains -letter."""
        n, width = self.letters.shape
        both = np.zeros((2 * n, width + 1), self.letters.dtype)  # room to prepend
        rows, shifted = both[:n], both[n:]
        rows[:, :-1] = self.letters
        drop = rows[:, 0] == letter
        shifted[drop, :-1] = rows[drop, 1:]
        shifted[~drop, 1:] = rows[~drop, :-1]
        shifted[~drop, 0] = -letter
        # The words and their shifts, sorted together by one lexsort: as the
        # words are distinct and so are the shifts, equal rows come in pairs,
        # the word (the lower index, by stability) before its shift.
        order = np.lexsort(both.T)
        same = np.ones(max(2 * n - 1, 0), dtype=bool)
        for col in both.T:  # a column at a time, to hold no sorted copy
            col = col[order]
            same &= col[1:] == col[:-1]
        pair = np.flatnonzero(same)
        index = np.full(n, -1)
        index[order[pair + 1] - n] = order[pair]
        return index


_ROW_COLUMNS = ("word_lengths", "mats", "words")


@dataclass(frozen=True)
class OrbitCensus:
    """Sorted multiset of orbit distances d(x, gamma.y) with word metadata.

    ``mats`` is an (n, 2, 2) array aligned with ``distances`` and
    ``word_lengths``, which a free construction holds at the narrowest
    unsigned type of its longest word (uint8 up to 255).  ``words`` is a
    lazy sequence whose item i is the word of element i as a tuple of
    signed 1-based generator indices, None for the lattice.  The free
    constructions store the words as a zero-padded matrix of signed
    letters, one row per element, and the cyclic groups as signed
    exponents; a tuple is built only when an item is read.  Both give
    ``words.shifted_index(letter)``, the index of the reduced word
    letter^-1 w for every word w (-1 where it is not in the census).

    A census from :func:`enumerate_orbit` holds its sorted distances and
    its completeness radius at once, and puts ``word_lengths``, ``mats``
    and ``words`` into distance order on the first read of any of them, so
    counting, which reads only the distances, never orders the rows.  A
    counting census (``enumerate_orbit(..., rows=False)``) holds no rows,
    and a read of one raises ValueError.
    """

    distances: np.ndarray
    word_lengths: np.ndarray
    mats: np.ndarray
    words: Sequence | None
    basepoint_x: Point
    basepoint_y: Point
    completeness_radius: float
    spec: GroupSpec | None = None

    @classmethod
    def _pending(cls, rows, **fields):
        """A census of the other ``fields`` whose row columns are the dict
        ``rows()``, called on the first read of any of them."""
        census = object.__new__(cls)
        census.__dict__.update(fields, _rows=rows)
        return census

    def __getattr__(self, name):
        # Reached only for an attribute not set: a pending census's rows.
        if name not in _ROW_COLUMNS or "_rows" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows = self.__dict__["_rows"]
        if rows is None:
            raise ValueError(f"no {name}: this census was enumerated with rows=False "
                             "and holds only its distances")
        self.__dict__.update(rows())
        del self.__dict__["_rows"]
        return self.__dict__[name]

    def __len__(self):
        return len(self.distances)

    @functools.cached_property
    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(re, im) arrays of the orbit points gamma.y, mapped on first read."""
        return apply_many(self.mats, self.basepoint_y)

    @functools.cached_property
    def log_normalizers(self) -> dict:
        """The log normalizers of this census's measures by (s, gauge),
        filled by :func:`kleinian.patterson.orbital_measure`, so that each
        exact sum is taken once."""
        return {}

    @functools.cached_property
    def far_angles(self) -> dict:
        """The far-atom angles of this census's measures by (viewpoint,
        horizon), filled by :func:`kleinian.patterson._far_atoms`."""
        return {}

    def element(self, i: int) -> Isometry:
        m = self.mats[i]
        return Isometry(float(m[0, 0]), float(m[0, 1]), float(m[1, 0]), float(m[1, 1]))

    def word(self, i: int):
        return None if self.words is None else self.words[i]

    def write_csv(self, fh, header_lines=()) -> None:
        m = self.mats
        # Integer entries (the lattice's, below 2^15) print the same with %d.
        entry = "%d" if m.dtype.kind == "i" else "%.12g"
        _write_table(fh, header_lines, "distance,word_length,a,b,c,d", _table_chunks(
            "%.12g,%d," + ",".join([entry] * 4),
            (self.distances, self.word_lengths,
             m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1])))


def _power_coefficients(lam, n):
    """(f(n), e(n)) with g^n = f(n) U + e(n) V for (lam, U, V) of
    :func:`_power_basis`: (1, n) for lam None, else (lam^n, lam^-n)."""
    return (np.ones_like(n), n) if lam is None else (lam ** n, lam ** -n)


def _power_basis(g: Isometry):
    """(lam, U, V) with g^n = f(n) U + e(n) V (:func:`_power_coefficients`)
    for g scaled to trace >= 0.  A parabolic g (or the identity) has lam
    None, U = I and V = g - I (Cayley-Hamilton); a hyperbolic or elliptic g
    has U, V the projections onto the eigenlines of its eigenvalues lam, mu:
    lam > 1 > mu for a hyperbolic g, and lam = conj(mu) on the unit circle
    for an elliptic one, whose powers are the real part of the complex sum."""
    h = np.reshape(g.matrix(), (2, 2)) * math.copysign(1.0, g.trace())
    (a, b), (c, d) = h.tolist()
    kind = g.classify()
    if kind in ("parabolic", "identity"):
        return None, np.eye(2), h - np.eye(2)
    if kind == "hyperbolic":
        # Eigenvalues without cancellation: exactly a and d where b c = 0.
        half = abs(a - d) / 2.0
        s = b * c / (half + math.sqrt(half * half + b * c))
        lam, mu = (a + s, d - s) if a >= d else (d + s, a - s)
    else:
        t = (a + d) / 2.0
        lam = complex(t, math.sqrt((1.0 - t) * (1.0 + t)))
        mu = lam.conjugate()
    return lam, (h - mu * np.eye(2)) / (lam - mu), (lam * np.eye(2) - h) / (lam - mu)


def _unit_column(m: np.ndarray) -> np.ndarray:
    """The longest column of m, scaled to length 1 and to a positive first
    nonzero entry: the unit vector of the range of a rank-one m."""
    norms = np.hypot(m[0], m[1])
    col = m[:, np.argmax(norms)] / norms.max()
    return -col if tuple(col) < (0.0, 0.0) else col


def _normal_form(spec: GroupSpec) -> GroupSpec:
    """A nested spec whose alpha is hyperbolic or parabolic in alpha's
    eigenframe, conjugate(nested(alpha', h^-1 beta h, depth), h^-1), where
    its letters keep their precision; any other spec, or one with h = I, as
    it is.  The columns of h are unit vectors of the ranges of U and V of
    :func:`_power_basis` (of V and its perpendicular for a parabolic alpha),
    scaled to det 1, so a fixed point at oo needs no case of its own.
    alpha' = h^-1 alpha h is built exactly, as diag(lam, 1/lam) or [[1, t],
    [0, 1]]: the deep letters would multiply its rounding by lam^(2n)."""
    if spec.kind != "nested_subgroup" or spec.generators[0].classify() not in (
            "hyperbolic", "parabolic"):
        return spec
    alpha, beta = spec.generators
    lam, u, v = _power_basis(alpha)
    p = _unit_column(v if lam is None else u)
    q = np.array([-p[1], p[0]]) if lam is None else _unit_column(v)
    det = p[0] * q[1] - p[1] * q[0]
    h = np.column_stack([p, math.copysign(1.0, det) * q]) / math.sqrt(abs(det))
    if (h == np.eye(2)).all():
        return spec
    alpha1 = (Isometry(1.0, float(p @ v @ q), 0.0, 1.0) if lam is None
              else Isometry(lam, 0.0, 0.0, 1.0 / lam))
    c = Isometry(h[1, 1], -h[0, 1], -h[1, 0], h[0, 0])  # h^-1
    beta1 = Isometry(*conjugates_many(  # c beta c^-1: conjugated by the adjugate of c
        np.reshape(beta.matrix(), (1, 2, 2)), (c.d, -c.b, -c.c, c.a)).ravel())
    return conjugate(nested_subgroup_spec(alpha1, beta1, spec.depth), c)


def _free_letters(spec: GroupSpec) -> np.ndarray:
    """The (2k, 2, 2) float letters g1, g1^-1, g2, g2^-1, ... of the
    constructions free on their generators (Schottky, nested conjugates, the
    rank-one cyclics, and conjugates of these).  A nested spec's letters
    alpha^-n beta^+-1 alpha^n are one batched product P(-n) beta^+-1 P(n),
    n = 0 .. depth, P(n) = alpha^n in the closed form of
    :func:`_power_basis`, formed in the frame of :func:`_normal_form`.  No
    letter is rescaled by its determinant, which cancels for large entries;
    letters past double precision raise OverflowError."""
    if spec.kind in ("schottky", "cyclic_hyperbolic", "cyclic_parabolic"):
        return _letters(spec.generators)
    frame = _normal_form(spec)
    with np.errstate(all="ignore"):  # checked below
        if frame.kind == "conjugated":
            letters = conjugates_many(_free_letters(frame.inner), frame.conjugator.matrix())
        elif frame.kind == "nested_subgroup":
            alpha, beta = frame.generators
            lam, u, v = _power_basis(alpha)
            n = np.arange(frame.depth + 1.0)[:, None, None, None]
            (f, e), (fi, ei) = _power_coefficients(lam, n), _power_coefficients(lam, -n)
            letters = ((fi * u + ei * v) @ _letters([beta]) @ (f * u + e * v)).real
        else:
            raise ValueError(f"no free letters for kind {spec.kind!r}")
    if not np.isfinite(letters).all():
        raise OverflowError(f"the letters of {spec.kind!r} leave double precision")
    return np.stack(canonical_signs(*letters.reshape(-1, 4).T), axis=-1).reshape(-1, 2, 2)


def word_matrix(spec: GroupSpec, word) -> np.ndarray:
    """The 2x2 float matrix of a reduced word (signed 1-based generator
    indices): the product of its letters of :func:`_free_letters`."""
    letters = _free_letters(spec)
    m = np.eye(2)
    for s in word:
        if not 1 <= abs(s) <= len(letters) // 2:
            raise ValueError(f"letter {s} is outside the letters "
                             f"+-1..+-{len(letters) // 2} of {spec.kind!r}")
        m = m @ letters[2 * (abs(s) - 1) + (s < 0)]
    return m


def _stack(pieces):
    """Concatenate a column's pieces, and empty the list so that the pieces
    can be released."""
    out = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    pieces.clear()
    return out


def _placed(pieces, rank):
    """A column's pieces in one array, row i of their concatenation at row
    rank[i], 2-D pieces zero-padded on the right to the widest, of the type
    that concatenating them gives; each piece is released once placed."""
    out = np.zeros((len(rank), *max(p.shape[1:] for p in pieces)),
                   np.result_type(*{p.dtype for p in pieces}))
    start = 0
    while pieces:
        p = pieces.pop(0)
        out[(rank[start:start + len(p)], *map(slice, p.shape[1:]))] = p
        start += len(p)
    return out


def _census(mats, dists, wls, words, x, y, completeness, spec, read_rows=None):
    """Census sorted by distance.  Each column is a list of pieces, and
    ``words`` is None or a pair of the word class and its pieces.  The
    distances are sorted now, the rows when they are first read, by
    ``read_rows`` called on the four columns (default
    :func:`_rows_by_distance`: ties in the given order)."""
    dists = [_stack(dists)]  # one piece, released once the rows are ordered
    return OrbitCensus._pending(
        functools.partial(read_rows or _rows_by_distance, dists, mats, wls, words),
        # Equal to dists[argsort(dists, kind="stable")]: no distance is NaN
        # or -0.0 (origin_distances_many gives 2 arcsinh of a hypot >= +0.0,
        # and a NaN fails the radius test).
        distances=np.sort(dists[0]), basepoint_x=x, basepoint_y=y,
        completeness_radius=completeness, spec=spec)


def _stable_order(d: np.ndarray) -> np.ndarray:
    """``np.argsort(d, kind="stable")`` of a 1-d d free of NaN, in about half
    the time and with no other n-element array: argsort d, add to each index
    n times the number of its run of equal values in that order, _ROW_CHUNK
    indices at a time, sort, and take the result mod n."""
    n = len(d)
    order = np.argsort(d)
    run, last = 0, None  # the run number and value at the end of a slice
    for s in range(0, n, _ROW_CHUNK):
        part = order[s:s + _ROW_CHUNK]
        ranked = d[part]
        runs = np.empty(len(part), np.int64)
        runs[0] = s > 0 and ranked[0] != last
        np.not_equal(ranked[1:], ranked[:-1], out=runs[1:])  # 1 where a run starts
        last = ranked[-1]
        np.cumsum(runs, out=runs)
        runs += run
        run = int(runs[-1])
        runs *= n
        part += runs
    order.sort()
    order %= n
    return order


def _rows_by_distance(dists, mats, wls, words):
    """The row columns of :func:`_census` in the order of a stable sort of
    the distances, each placed (:func:`_placed`) in turn."""
    order = _stable_order(_stack(dists))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    del order
    return {"word_lengths": _placed(wls, rank),  # evaluated in this order
            "words": None if words is None else words[0](_placed(words[1], rank)),
            "mats": _placed(mats, rank)}


def _enumerate_cyclic(spec, x, y, max_word_length, max_radius, budget):
    """Powers g^n of a hyperbolic or parabolic g in closed form, in one array
    pass.

    With g scaled to trace >= 2, g^n = f U + e V: f = 1, e = n, U = I and
    V = g - I for a parabolic g (Cayley-Hamilton); f = lam^n, e = lam^-n and
    U, V the projections onto the eigenlines of the eigenvalues lam > mu of
    a hyperbolic one.  The frame K_x g^n K_y^-1 = f P + e Q
    (:func:`frames_many`) moves i by d(x, g^n y).  With p, q the vectors
    (M11 - M22, M12 + M21) of P and Q, 4 sinh^2(d / 2) = |f p + e q|^2 =
    least^2 + (width phi(n - v))^2, where phi(s) = s or sinh(s log lam):
    convex in n, least at the vertex v.  Inverted at R, it gives the ball's
    window, whose size is checked against the budget before any power is
    formed.  That window, widened by 2 for rounding, is evaluated, with rows
    listed as n = 0, 1, ..., then -1, -2, ....  By convexity the nearest
    power beyond the window on either side is the one nearest v there.  No
    distance past _CYCLIC_RADIUS_CAP is resolved, so the completeness radius
    is at most that, and no power is formed whose frame or coefficients
    leave double precision."""
    lam, u, w = _power_basis(spec.generators[0])

    pm, qm = np.stack(frames_many(np.stack([u, w]), x, y), axis=-1).reshape(2, 2, 2)
    with np.errstate(all="ignore"):  # checked below
        p, q = (np.array([m[0, 0] - m[1, 1], m[0, 1] + m[1, 0]]) for m in (pm, qm))
        pn, qn = np.hypot(*p), np.hypot(*q)
        if lam is None:
            vertex = -float(p @ (q / qn) / qn)
        else:
            vertex = float(np.log(qn) - np.log(pn)) / (2.0 * math.log(lam))
        fv, ev = _power_coefficients(lam, np.float64(vertex))
        least = float(np.hypot(*(fv * p + ev * q)))
        width = float(qn if lam is None else 2.0 * fv * pn)
    if not (np.isfinite([pm, qm]).all() and math.isfinite(vertex + least)
            and 0.0 < width < math.inf):
        raise OverflowError("the powers of g at these basepoints leave double precision")

    def reach(rho):
        """Largest |n - v| at which 2 sinh(d / 2) <= rho."""
        t = math.sqrt(max(rho - least, 0.0)) * math.sqrt(rho + least) / width
        return t if lam is None else math.asinh(t) / math.log(lam)

    r = min(math.inf if max_radius is None else max_radius, _CYCLIC_RADIUS_CAP)
    span = math.inf if max_word_length is None else max_word_length
    half = reach(2.0 * math.sinh(0.5 * r))
    lo, hi = max(vertex - half, -span), min(vertex + half, span)
    if not hi - lo < budget + 2 or math.floor(hi) - math.ceil(lo) >= budget:
        raise BudgetExceeded(f"census exceeds budget {budget}")
    # Where lam^n or the frame (past the cap) would overflow.
    top = math.inf if lam is None else 709.0 / math.log(lam)
    far = reach(math.exp(705.0))
    clip_lo, clip_hi = max(vertex - far, -top), min(vertex + far, top)
    if lo < clip_lo or hi > clip_hi:
        raise OverflowError("the powers of g in this ball leave double precision")
    lo = math.ceil(max(math.ceil(lo) - 2, -span, clip_lo))
    hi = math.floor(min(math.floor(hi) + 2, span, clip_hi))
    if max(-lo, hi) >= 2 ** 53:
        raise OverflowError("the exponents of the ball are beyond exact double precision")

    def powers(n):
        """Matrices of the powers g^n and their distances d(x, g^n y)."""
        with np.errstate(all="ignore"):
            f, e = (k[:, None, None] for k in _power_coefficients(lam, n))
            mats = f * u + e * w
            dists = origin_distances_many(f * pm + e * qm)
        dists[(n < clip_lo) | (n > clip_hi)] = math.inf  # farther than the cap
        return np.stack(canonical_signs(*mats.reshape(-1, 4).T), axis=-1).reshape(-1, 2, 2), dists

    exponents = np.concatenate([np.arange(max(lo, 0), hi + 1, dtype=np.int64),
                                np.arange(min(hi, -1), lo - 1, -1, dtype=np.int64)])
    mats, dists = powers(exponents.astype(np.float64))
    keep = dists <= r
    if np.count_nonzero(keep) > budget:
        raise BudgetExceeded(f"census exceeds budget {budget}")
    if not np.isfinite(mats[keep]).all():
        raise OverflowError("the powers of g in this ball leave double precision")
    near = (math.floor(vertex), math.ceil(vertex))
    beyond = [max(hi + 1, k) for k in near] + [min(lo - 1, k) for k in near]
    completeness = min(r, *powers(np.array(beyond, dtype=np.float64))[1].tolist())
    exponents = exponents[keep]
    return _census([mats[keep]], [dists[keep]], [np.abs(exponents)],
                   (_PowerWords, [exponents]), x, y, completeness, spec)


def _gram(p, q, r, s):
    """The Gram matrix G = m m^T, as (G11, G12, G22), of the matrices m with
    rows (p, q) and (r, s).  For a unimodular m it depends only on z = m.i:
    G = [[|z|^2, Re z], [Re z, 1]] / Im z."""
    return p * p + q * q, p * r + q * s, r * r + s * s


def _preimage_gram(mats, x: Point):
    """Gram matrices of the points w^-1.x for unimodular w, to which the frame
    w^-1 K_x^-1 of (d, -b; -c, a) at (i, x) sends i: D F D, D = diag(1, -1), for
    the frame F of (d, b; c, a), a view of w, at (i, -conj x); F's G12 negated."""
    g11, g12, g22 = _gram(*frames_many(mats[:, ::-1, ::-1].swapaxes(1, 2), ORIGIN,
                                       Point(-x.re, x.im)))
    return g11, -g12, g22


def _halfplane_clearance(lo, hi, g11, g12, g22):
    """Least distance d(z, D) of the points z, each given by its Gram matrix
    (see :func:`_gram`), to the geodesic half-planes D spanned by the arcs
    from the angles ``lo`` counterclockwise to ``hi``; zero for points
    inside one, and where the matrix left double precision (no bound).

    An arc end at angle t is xi = -c/s, c = cos(t/2), s = sin(t/2) (s = 0 at
    oo).  With u = (s, c) at each end, sinh d(z, dD) = |u_lo G u_hi^T| /
    |sin((hi - lo)/2)|, and z is in D iff (u_lo G u_hi^T < 0) == (lo < hi);
    so u_lo G u_hi^T / sin((hi - lo)/2) is sinh d(z, D) outside D and not
    positive inside (fmax takes a NaN to 0).  The least takes one arcsinh."""
    least = np.full(len(g11), np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a, b in zip(lo.tolist(), hi.tolist()):
            s_lo, c_lo = math.sin(a / 2), math.cos(a / 2)
            s_hi, c_hi = math.sin(b / 2), math.cos(b / 2)
            q = g11 * (s_lo * s_hi)
            q += g12 * (s_lo * c_hi + c_lo * s_hi)
            q += g22 * (c_lo * c_hi)
            q /= math.sin((b - a) / 2)
            np.minimum(least, np.fmax(q, 0.0, out=q), out=least)
    return np.arcsinh(least)


def _certified_halfplanes(spec: GroupSpec, y: Point):
    """(lo, hi, shift): the angles of the certified letter arcs, whose
    convex hulls are the half-planes D_m, and shift = d(y, y0) for the
    nearest point y0 to y outside every open D_m (exactly 0.0 when y clears
    them all).  Raises unless the letters are certified.

    Soundness: the certificate's positive margin makes the closed D_m
    disjoint, and each letter maps the closed complement of its inverse's
    half-plane strictly into its own, so every reduced word starting with
    letter m sends y0 into D_m, and indeed into the closed half-plane
    E_m = m.(closure of the exterior of D_m^-1) inside it, the hull of
    letter m's image arc (:func:`_image_arcs`).  All descendants w v of a
    word w whose continuations v start with m thus send y0 into w.E_m, and
    d(x, w v.y) >= d(x, w.E_m) - shift = d(w^-1.x, E_m) - shift.
    """
    lo, hi = np.array([(arc.lo_angle, arc.hi_angle)
                       for arc in ping_pong_certificate(spec).intervals]).T
    # y = K_y^-1.i, of Gram gy, lies in at most one D_m, and its distance to
    # the complement (the arc with its ends swapped) is d(y, y0).
    gy = _gram(*frames_many(np.eye(2)[None], ORIGIN, y))
    shift = max(float(_halfplane_clearance(hi[m:m + 1], lo[m:m + 1], *gy)[0])
                for m in range(len(lo)))
    return lo, hi, shift


def _compress(mask, a):
    """The rows of ``a`` where ``mask`` holds, by ``np.compress``, which copies
    them faster than a boolean index; ``a`` itself where it holds at every row."""
    return a if mask.all() else np.compress(mask, a, axis=0)


def _right_products(mats, m):
    """mats @ m for (n, 2, 2) ``mats`` and a 2x2 ``m``, to the bit and several
    times faster, as 2-D products of _ROW_CHUNK rows of the (2n, 2) view: one
    product of the whole view past ~10^5 rows wakes BLAS's thread pool,
    whose spinning workers starve this thread."""
    rows = mats.reshape(-1, 2)
    out = np.empty_like(rows)
    for s in range(0, len(rows), _ROW_CHUNK):
        np.matmul(rows[s:s + _ROW_CHUNK], m, out=out[s:s + _ROW_CHUNK])
    return out.reshape(mats.shape)


def _enumerate_free(spec, x, y, max_word_length, max_radius, budget, rows=True):
    """Pruned tree search over reduced words, one array step per letter.

    Level k holds the words of length k (the identity is level 0).  Each
    letter in turn extends, in order, the frontier words of level k - 1 that
    it does not cancel and, for a finite ``max_radius``, whose bound on the
    letter's own subtree (by its image half-plane E_m) is within it; its
    children within ``max_radius`` join the census, and those whose subtree
    bound is within ``max_radius`` join the next frontier.  So only one
    letter's children are alive at a time.  Both bounds (see
    :func:`_certified_halfplanes`) hold wherever y lies.  The word matrix
    is as wide as the longest census word, and a word length is held at the
    narrowest type of its level.  Without ``rows`` only the distances are
    kept, and no word is formed.
    """
    if spec.kind == "nested_subgroup" and 2 * (spec.depth + 1) > budget:
        # The letters alone would outrun the budget: a parabolic alpha's
        # never overflow to stop it.
        raise BudgetExceeded(f"the {2 * (spec.depth + 1)} letters of depth "
                             f"{spec.depth} exceed budget {budget}")
    lmats = ping_pong_certificate(spec).letters
    n_letters = len(lmats)
    codes = signed_letter(np.arange(n_letters)).astype(np.min_scalar_type(-n_letters))
    lo, hi, shift = _certified_halfplanes(spec, y)
    img_lo, img_hi = _image_arcs(lmats, lo, hi)
    radius = math.inf if max_radius is None else max_radius

    def subtree_bound(mats, last):
        """Lower bound on d(x, w v . y) over the proper continuations v of
        the words w ending in letter ``last`` (v does not start with last^-1)."""
        others = np.arange(n_letters) != last ^ 1
        return _halfplane_clearance(lo[others], hi[others], *_preimage_gram(mats, x)) - shift

    pieces = [], [], [], []  # census columns: distances, mats, word lengths, words
    size, bound_floor = 0, math.inf  # bound_floor: least bound of a subtree left out
    alive = 0  # frontier words held, which a bound that stops pruning grows

    def visit(level, dist, bound, front):
        """Census the rows of ``front`` (matrices, last letters and, with
        ``rows``, words) within the radius, and return those whose subtree
        may reach it: all of them where ``bound`` is None."""
        nonlocal size, bound_floor, alive
        take = dist <= radius
        if level == 0 or take.any():  # so no empty piece widens the words
            dist = _compress(take, dist)
            pieces[0].append(dist)
            if rows:
                mats, _, words = front
                pieces[1].append(_compress(take, mats))
                pieces[2].append(np.full(len(dist), level, np.min_scalar_type(level)))
                pieces[3].append(_compress(take, words))
            size += len(dist)
        if bound is not None:
            keep = (bound <= radius) & (max_word_length is None or level < max_word_length)
            bound_floor = min(bound_floor, float(bound[~keep].min(initial=math.inf)))
            front = [_compress(keep, a) for a in front]
        alive += len(front[0])
        if size + alive > budget:
            raise BudgetExceeded(f"census and frontier exceed budget {budget}")
        return front

    def extend(level, li, mats, words):
        """Visit the children w.li of the frontier rows ``mats`` and
        ``words`` (a list of their word matrix, or empty), in order.  A
        search without ``max_radius`` keeps every child below its last
        level, so it bounds subtrees only at that level, for ``bound_floor``.
        The parents are passed in no container that the call keeps, so
        they are released once their children are formed."""
        mats = _right_products(mats, lmats[li])
        words = [np.column_stack([w, np.full(len(w), codes[li])]) for w in words]
        dist = origin_distances_many(mats, x, y)
        bound = (subtree_bound(mats, li) if radius < math.inf or level == max_word_length
                 else None)
        return visit(level, dist, bound, [mats, np.full(len(mats), li), *words])

    root = np.eye(2)[None]
    words = [np.zeros((1, 0), codes.dtype)] if rows else []  # a counting search forms none
    frontier = visit(0, origin_distances_many(root, x, y), np.zeros(1),
                     [root, np.array([-1]), *words])
    for level in itertools.count(1):
        mats, last, *words = frontier  # in row order
        if not len(mats):
            break
        alive = len(mats)
        # Every child w.m and its subtree lie at distance >= d(w^-1.x, E_m) -
        # shift: the parents too far from E_m for the radius get no child m.
        gram = _preimage_gram(mats, x) if radius < math.inf else None
        frontier = [[] for _ in frontier]  # the next frontier's pieces, one per letter
        for li in range(n_letters):
            sel = last != li ^ 1
            if gram is not None:
                clear = _halfplane_clearance(img_lo[li:li + 1], img_hi[li:li + 1],
                                             *gram) - shift
                far = sel & (clear > radius)
                bound_floor = min(bound_floor, float(clear[far].min(initial=math.inf)))
                sel &= ~far
            if sel.any():
                children = extend(level, li, _compress(sel, mats),
                                  [_compress(sel, w) for w in words])
                for col, part in zip(frontier, children):
                    col.append(part)
        if not frontier[0]:  # no parent was within reach of any letter
            break
        frontier = [_stack(col) for col in frontier]
    dists, mats, wls, words = pieces
    return _census(mats, dists, wls, (_FreeWords, words), x, y, min(bound_floor, radius), spec)


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
    letters and at least halves |c|; the matrix is then +-T^b, |b| letters.
    Run over slices of _ROW_CHUNK rows, so its working set is bounded."""
    lengths = np.zeros(len(rows), dtype=np.int64)
    for s in range(0, len(rows), _ROW_CHUNK):
        a, b, c, d = (rows[s:s + _ROW_CHUNK, j].copy() for j in range(4))
        steps = lengths[s:s + _ROW_CHUNK]
        idx = np.nonzero(c)[0]
        while len(idx):
            ai, ci, di = a[idx], c[idx], d[idx]
            k = -di // ci
            r_lo, r_hi = np.abs(di + k * ci), np.abs(di + (k + 1) * ci)
            k += (r_hi < r_lo) | ((r_hi == r_lo) & (np.abs(k + 1) < np.abs(k)))
            a[idx], b[idx], c[idx], d[idx] = b[idx] + k * ai, -ai, di + k * ci, -ci
            steps[idx] += np.abs(k) + 1
            idx = idx[c[idx] != 0]
        steps += np.abs(b)
    return lengths


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


def _quadrant_weights(table):
    """(r, s, w) over r, s >= 0 with n = r^2 + s^2 <= table, where w elements
    of PSL(2, Z) have (a - d, b + c) = (+-r, +-s).  With p = a + d and
    q = b - c, ad - bc = 1 iff p^2 + q^2 = n + 4 with p = r and q = s
    (mod 2), as all representations of n + 4 are for n even and half are
    for n odd.  So w is the number of sign changes of (r, s) times
    r2(n + 4) / (1 + n mod 2), halved for +-g; r2(k) = 4 c4(k), c4(k) the
    points with r > 0 and r^2 + s^2 = k."""
    reach = np.sqrt(table + 4 - np.arange(math.isqrt(table + 4) + 1) ** 2)
    r, s = _expand_ranges(np.zeros(len(reach), np.int64), reach.astype(np.int64) + 1)
    n = r * r + s * s
    c4 = np.bincount(n[r > 0], minlength=table + 5)
    inside = n <= table
    r, s, n = r[inside], s[inside], n[inside]
    return r, s, (1 + (r > 0)) * (1 + (s > 0)) * c4[n + 4] * (2 - (n & 1))


def _lattice_ball_at_i(cosh_r, max_radius, budget):
    """The sorted distances of the lattice's ball d(i, g.i) <= R, counted by
    :func:`_quadrant_weights` with no row formed; the distance of a point
    is :func:`hypot_distances` of (r, s), blind to signs but not a function
    of n.  The table reaches n = min(2 cosh R - 2, budget / 2); past that,
    its part of the ball (about 3 budget / 2 elements, more than budget for
    every budget up to 10^7) is over budget, or else the result is None."""
    ball = int(2.0 * cosh_r - 2.0)
    table = min(ball, max(budget, 0) // 2)
    r, s, weights = _quadrant_weights(table)
    dists = hypot_distances(r, s)
    del r, s
    order = np.argsort(dists)
    dists = dists[order]
    inside = int(np.searchsorted(dists, max_radius, side="right"))
    weights = weights[order[:inside]]
    del order
    if weights.sum() > budget:
        raise BudgetExceeded(f"census exceeds budget {budget}")
    if table < ball:
        return None
    return np.repeat(dists[:inside], weights)


def _enumerate_lattice(spec, x, y, max_word_length, max_radius, budget, rows=True):
    """Lattice points g of the ball d(x, g.y) <= R, exactly.

    With x = k.x0 and y = h.y0 in the fundamental domain, the ball is k B
    h^-1 for the ball B at (x0, y0), whose elements (a, b; c, d) have
    |c y0 + d|^2 = Im y0 / Im(g.y0) <= (Im y0 / Im x0) e^R.  An extended gcd
    gives one g0 per coprime bottom row (c, d), c >= 0; the others are
    T^t g0, which move g0.y0 by t, so a quadratic bounds t.  ``budget``
    bounds the ball; elements longer than ``max_word_length`` are dropped,
    and the nearest of them bounds the completeness radius.  The bottom rows
    are taken _ROW_CHUNK candidates at a time, and their rows formed
    _ROW_CHUNK at a time; each such slice's rows, distances and word
    lengths are kept as one piece of their column, to be stacked only when
    the rows are read (:func:`_lattice_rows`).  A counting census (no
    ``rows``) at x = y = i with no word-length bound is counted in closed
    form instead (:func:`_lattice_ball_at_i`).
    """
    if max_radius is None:
        raise InsufficientLimits("lattice enumeration needs max_radius")
    if 2.0 * math.cosh(max_radius) > _LATTICE_ENTRY_MAX ** 2:
        raise OverflowError("max_radius too large for exact lattice arithmetic")
    # Relative float margins; the distance test below decides membership.
    cosh_r = math.cosh(max_radius) * (1.0 + 1e-9)
    if not rows and max_word_length is None and (x, y) == (ORIGIN, ORIGIN):
        dists = _lattice_ball_at_i(cosh_r, max_radius, budget)
        if dists is not None:
            return OrbitCensus._pending(None, distances=dists, basepoint_x=x, basepoint_y=y,
                                        completeness_radius=max_radius, spec=spec)
    k, x0 = _reduce_basepoint(x)
    h, y0 = _reduce_basepoint(y)
    h_inv = np.array([[h[1, 1], -h[0, 1]], [-h[1, 0], h[0, 0]]])
    row_bound = (y0.im / x0.im) * math.exp(max_radius) * (1.0 + 1e-9)
    c_all = np.arange(int(math.sqrt(row_bound) / y0.im) + 1)
    half = np.sqrt(np.maximum(row_bound - (c_all * y0.im) ** 2, 0.0))
    d_lo = np.ceil(-c_all * y0.re - half).astype(np.int64)
    d_hi = np.floor(-c_all * y0.re + half).astype(np.int64)
    d_lo[0], d_hi[0] = max(d_lo[0], 1), min(d_hi[0], 1)  # c = 0: only (0, 1)
    counts = np.maximum(d_hi - d_lo + 1, 0)
    c_step = max(1, _ROW_CHUNK // (2 * int(math.sqrt(row_bound)) + 2))
    completeness, total = max_radius, 0
    # Census columns (rows, distances, word lengths), each from an empty
    # piece, so that an empty ball stacks too.
    pieces = ([np.zeros((0, 4), np.int64)], [np.zeros(0)],
              [] if max_word_length is None else [np.zeros(0, np.int64)])
    for c0 in range(0, len(c_all), c_step):
        owner, d = _expand_ranges(d_lo[c0:c0 + c_step], counts[c0:c0 + c_step])
        c = c_all[c0:c0 + c_step][owner]
        g, u, v = _ext_gcd(c, d)
        ok = np.abs(g) == 1
        c, d, g, u, v = c[ok], d[ok], g[ok], u[ok], v[ok]
        a0, b0 = v * g, -u * g  # a0 d - b0 c = g^2 = 1
        w_re, w_im = apply_many(np.stack([a0, b0, c, d], axis=1).reshape(-1, 2, 2), y0)
        with np.errstate(over="ignore"):  # an infinite rhs bounds no t: over budget
            rhs = 2.0 * x0.im * w_im * (cosh_r - 1.0) - (x0.im - w_im) ** 2
        half_t = np.sqrt(np.maximum(rhs, 0.0))
        t_lo = np.ceil(x0.re - w_re - half_t)
        n_t = np.where(rhs >= 0.0, np.floor(x0.re - w_re + half_t) - t_lo + 1.0, 0.0)
        if total + n_t.sum() > budget:
            raise BudgetExceeded(f"census exceeds budget {budget}")
        i, t = _expand_ranges(t_lo.astype(np.int64), n_t.astype(np.int64))
        for s in range(0, len(i), _ROW_CHUNK):  # a piece per slice of rows
            j, tj = i[s:s + _ROW_CHUNK], t[s:s + _ROW_CHUNK]
            g0 = np.stack([a0[j] + tj * c[j], b0[j] + tj * d[j], c[j], d[j]], axis=1)
            rows = np.stack(canonical_signs(*(k @ g0.reshape(-1, 2, 2) @ h_inv).reshape(-1, 4).T),
                            axis=1)
            dists = origin_distances_many(rows.reshape(-1, 2, 2), x, y)
            inside = dists <= max_radius
            rows, dists = rows[inside], dists[inside]
            total += len(rows)
            if max_word_length is not None:
                wls = _st_word_lengths(rows)
                long = wls > max_word_length
                if long.any():
                    completeness = min(completeness, float(dists[long].min()))
                rows, dists = rows[~long], dists[~long]
                pieces[2].append(wls[~long])
            pieces[0].append(rows)
            pieces[1].append(dists)
    return _census(*pieces, None, x, y, completeness, spec, _lattice_rows)


def _packed_order(cols) -> np.ndarray:
    """The permutation ``np.lexsort(cols)`` of the aligned 1-d integer
    columns ``cols`` (the last is the primary key), by few stable argsorts:
    consecutive columns, each offset by its least value, share the bit
    fields of one int64 key while their ranges fit in 63 bits, and the keys
    are argsorted from the least significant.  Each key is built one column
    at a time.  A lone key of distinct values needs no stable sort."""
    if not len(cols[0]):
        return np.arange(0)
    keys, key, used = [], None, 0
    for col in cols:
        part = col - col.min()
        bits = int(part.max()).bit_length()
        if key is not None and used + bits > 63:
            keys.append(key)
            key, used = None, 0
        if key is None:
            key = part
        else:
            part <<= used
            key |= part
        used += bits
    keys.append(key)
    if len(keys) == 1:
        # Distinct keys, as distinct rows give, sort alike by any sort; they
        # are checked _ROW_CHUNK at a time, with no other n-element array.
        order = np.argsort(key)
        if all(np.diff(key[order[s:s + _ROW_CHUNK + 1]]).all()
               for s in range(0, len(key), _ROW_CHUNK)):
            return order
    order = np.argsort(keys[0], kind="stable")
    for key in keys[1:]:
        order = order[np.argsort(key[order], kind="stable")]
    return order


def _lattice_rows(dists, rows, wls, words):
    """The row columns of a lattice census (see :func:`_census`) in distance
    order; ties keep the order of a word-length BFS over sorted rows, by
    word length, then by the entries (a, b, c, d).  The rows are stacked and
    their word lengths computed if none were (``wls`` holds no piece); the
    order is :func:`_packed_order` of (d, c, b, a, word length), one key
    wherever the entries are small, then a stable order of the distances.
    The rows are put in that order in place, one entry column at a time."""
    rows = _stack(rows)
    wls = _stack(wls) if wls else _st_word_lengths(rows)
    order = _packed_order([*rows.T[::-1], wls])
    order = order[_stable_order(_stack(dists)[order])]
    for j in range(4):
        rows[:, j] = rows[order, j]
    return {"word_lengths": wls[order], "words": words, "mats": rows.reshape(-1, 2, 2)}


def _enumerate_conjugated(spec, x, y, max_word_length, max_radius, budget, rows=True):
    """The census of c^-1 . inner . c from that of inner at c.x and c.y, for
    a conjugated spec or a nested one in its eigenframe (:func:`_normal_form`);
    it keeps ``spec``."""
    frame = _normal_form(spec)
    c = frame.conjugator
    try:
        cx, cy = c.apply(x), c.apply(y)
    except ValueError as exc:  # the image's imaginary part underflowed to 0
        raise OverflowError("the conjugator maps the basepoints past double "
                            "precision") from exc
    inner = enumerate_orbit(frame.inner, cx, cy, max_word_length=max_word_length,
                            max_radius=max_radius, budget=budget, rows=rows)
    return OrbitCensus._pending(functools.partial(_conjugated_rows, inner, c),
                                distances=inner.distances, basepoint_x=x, basepoint_y=y,
                                completeness_radius=inner.completeness_radius, spec=spec)


def _conjugated_rows(inner, c: Isometry):
    """The row columns of the census c^-1 . inner . c."""
    return {"word_lengths": inner.word_lengths, "words": inner.words,
            "mats": conjugates_many(inner.mats, c.matrix())}


def enumerate_orbit(spec: GroupSpec, x: Point = ORIGIN, y: Point = ORIGIN,
                    max_word_length: int | None = None,
                    max_radius: float | None = None,
                    budget: int = 10 ** 7, rows: bool = True) -> OrbitCensus:
    """Census of all distinct group elements within the given limits.

    Every distance d(x, g.y) is read off the matrix of g, through the frame
    K_x g K_y^-1 of :func:`frames_many`, with no image point g.y;
    so are the pruning bounds of the free search (:func:`_preimage_gram`).
    The census is sorted by distance; ``completeness_radius`` is the radius
    up to which it is complete: proved by the ping-pong half-planes at every
    basepoint (free constructions, a nested subgroup with a hyperbolic or
    parabolic alpha in alpha's eigenframe, whose census is conjugated back
    and keeps ``spec``; negative if a census is too shallow to prove any
    radius), by convexity of n -> cosh d(x, g^n y) (cyclic groups,
    parabolic or hyperbolic: one closed form in n, solved for the ball and
    complete to at most 1400) or by exact lattice-point enumeration (the
    modular lattice, which needs ``max_radius``; a counting census of it at
    x = y = i with no word-length bound is complete by the exact
    four-squares count of :func:`_quadrant_weights`).  Limits that cannot bound
    the census raise :class:`InsufficientLimits`; free generators without a
    certificate raise :class:`MarginViolation` or
    :class:`NonHyperbolicGenerator`.  A census of more than ``budget`` rows
    (a free one counts its frontier too) raises :class:`BudgetExceeded`; a
    cyclic one raises it before any power is formed.

    With ``rows`` false the census is a counting census: it keeps only its
    distances and completeness radius, and a read of ``mats``,
    ``word_lengths`` or ``words`` raises ValueError.  The free search then
    keeps no row at all, and the lattice ball at x = y = i with no
    word-length bound forms none; the cyclic and other lattice
    enumerations, which form the rows with their distances, release them at
    once.
    """
    if max_word_length is None and max_radius is None:
        raise InsufficientLimits(
            "at least one of max_word_length, max_radius is required")
    if spec.kind in ("cyclic_hyperbolic", "cyclic_parabolic"):
        census = _enumerate_cyclic(spec, x, y, max_word_length, max_radius, budget)
    elif spec.kind == "modular_lattice":
        census = _enumerate_lattice(spec, x, y, max_word_length, max_radius, budget, rows)
    elif _normal_form(spec).kind == "conjugated":
        census = _enumerate_conjugated(spec, x, y, max_word_length, max_radius, budget, rows)
    else:
        census = _enumerate_free(spec, x, y, max_word_length, max_radius, budget, rows)
    if not rows:
        census.__dict__["_rows"] = None  # see OrbitCensus.__getattr__
    return census

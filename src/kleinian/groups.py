"""Declarative group constructions, ping-pong certification, and
radius/word-length bounded orbit enumeration.

A group is described by a :class:`GroupSpec`; :func:`enumerate_orbit` turns a
spec plus basepoints and limits into an :class:`OrbitCensus`, the multiset of
orbit distances that every counting routine consumes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
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

_PACK_LIMIT = 1 << 15  # lattice entries are packed into 16-bit fields


class NonHyperbolicGenerator(ValueError):
    pass


class MarginViolation(ValueError):
    def __init__(self, message, letters=None):
        super().__init__(message)
        self.letters = letters


class BudgetExceeded(RuntimeError):
    pass


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


# Fixed generators of the modular lattice.
MODULAR_S = Isometry(0.0, -1.0, 1.0, 0.0)
MODULAR_T = Isometry(1.0, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# JSON serialization.  Matrices are row-major, numbers are decimal strings.

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
    """Certified interval system for a Schottky spec (auto-proposed arcs)."""
    if spec.kind != "schottky":
        raise ValueError("ping-pong certification applies to Schottky specs")
    return verify_ping_pong(spec.generators, propose_intervals(spec.generators))


# ---------------------------------------------------------------------------
# Censuses.

@dataclass(frozen=True)
class OrbitCensus:
    """Sorted multiset of orbit distances d(x, gamma.y) with word metadata.

    ``mats`` is an (n, 2, 2) array aligned with ``distances`` and
    ``word_lengths``; ``words`` (signed generator indices, 1-based) is kept
    for free constructions and is None for the lattice.
    """

    distances: np.ndarray
    word_lengths: np.ndarray
    mats: np.ndarray
    words: tuple | None
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
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("distance,word_length,a,b,c,d\n")
        for k in range(len(self)):
            m = self.mats[k]
            fh.write(f"{self.distances[k]:.12g},{int(self.word_lengths[k])},"
                     f"{m[0, 0]:.12g},{m[0, 1]:.12g},{m[1, 0]:.12g},{m[1, 1]:.12g}\n")


def _free_generators(spec: GroupSpec) -> tuple[Isometry, ...]:
    """Generator list of the constructions that are free on their
    generators (Schottky, nested conjugates, and the rank-one cyclics)."""
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
    raise ValueError(f"no free letters for kind {spec.kind!r}")


def _letter_matrices(spec: GroupSpec) -> list[Isometry]:
    """Free letters (generator, inverse, ...) for the free constructions."""
    return _letters(_free_generators(spec))


def word_matrix(spec: GroupSpec, word) -> Isometry:
    """Evaluate a reduced word (signed 1-based generator indices)."""
    letters = _letter_matrices(spec)
    m = Isometry.identity()
    for s in word:
        idx = 2 * (abs(s) - 1) + (0 if s > 0 else 1)
        m = m @ letters[idx]
    return m


def _census(mats, dists, wls, words, x, y, completeness, spec):
    dists = np.asarray(dists, dtype=np.float64)
    order = np.argsort(dists, kind="stable")
    words_sorted = None if words is None else tuple(words[i] for i in order)
    return OrbitCensus(
        distances=dists[order],
        word_lengths=np.asarray(wls, dtype=np.int64)[order],
        mats=np.asarray(mats)[order],
        words=words_sorted,
        basepoint_x=x,
        basepoint_y=y,
        completeness_radius=completeness,
        spec=spec,
    )


def _enumerate_cyclic(spec, x, y, max_word_length, max_radius, budget):
    g = spec.generators[0]
    mats = [np.array([[1.0, 0.0], [0.0, 1.0]])]
    dists = [distance(x, y)]
    wls = [0]
    words = [()]
    excluded = []
    safety = 5.0
    for sign, step in ((1, g), (-1, g.inverse())):
        m = Isometry.identity()
        n = 0
        while True:
            n += 1
            if max_word_length is not None and n > max_word_length:
                probe = m @ step
                excluded.append(distance(x, probe.apply(y)))
                break
            nxt = m @ step
            if max(abs(nxt.a), abs(nxt.b), abs(nxt.c), abs(nxt.d)) > 1e70:
                # Further powers would overflow; the excluded tail starts
                # at the last representable displacement.
                excluded.append(distance(x, m.apply(y)))
                break
            m = nxt
            d = distance(x, m.apply(y))
            if max_radius is not None and d > max_radius:
                excluded.append(d)
                if d > max_radius + safety:
                    break
                continue
            mats.append(np.array([[m.a, m.b], [m.c, m.d]]))
            dists.append(d)
            wls.append(n)
            words.append((sign,) * n)
            if len(mats) > budget:
                raise BudgetExceeded(f"census exceeds budget {budget}")
    completeness = min(excluded) if excluded else math.inf
    if max_radius is not None:
        completeness = min(completeness, max_radius)
    return _census(mats, dists, wls, words, x, y, completeness, spec)


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
    gens = _free_generators(spec)
    try:
        if spec.kind == "schottky":
            cert = ping_pong_certificate(spec)
        else:
            cert = verify_ping_pong(gens, propose_intervals(gens))
    except (MarginViolation, NonHyperbolicGenerator):
        return None
    planes = [_halfplane_of_arc(arc) for arc in cert.intervals]
    yre, yim = np.array([y.re]), np.array([y.im])
    for hp in planes:
        if float(_halfplane_clearance(hp, yre, yim)[0]) <= 0.0:
            return None
    return planes


def _enumerate_free(spec, x, y, max_word_length, max_radius, budget):
    letters = _letter_matrices(spec)
    n_letters = len(letters)
    lmats = np.stack([np.array([[l.a, l.b], [l.c, l.d]]) for l in letters])
    halfplanes = _certified_halfplanes(spec, y)
    if halfplanes is None and max_word_length is None:
        raise ValueError(
            "free enumeration needs max_word_length when the generators "
            "have no certified interval system")

    def subtree_bound(childs: np.ndarray, last: int) -> np.ndarray:
        """Lower bound on d(x, w v . y) over all proper continuations v of
        each child w (v must not start with the cancelling letter)."""
        # The adjugate of a unimodular matrix is its inverse.
        adjugates = np.stack([childs[:, 1, 1], -childs[:, 0, 1],
                              -childs[:, 1, 0], childs[:, 0, 0]], axis=1)
        zre, zim = apply_many(adjugates.reshape(-1, 2, 2), x)
        bound = np.full(len(childs), np.inf)
        for m in range(n_letters):
            if m == last ^ 1:
                continue
            bound = np.minimum(bound, _halfplane_clearance(halfplanes[m], zre, zim))
        return bound

    out_mats = [np.eye(2)]
    out_dists = [distance(x, y)]
    out_wls = [0]
    out_words = [()]

    # Frontier state, level by level.
    f_mats = np.eye(2)[None, :, :]
    f_last = np.array([-1])
    f_words = [()]
    f_bound = np.array([0.0])
    bound_floor = math.inf  # min lower bound over pruned / capped subtrees
    level = 0
    while len(f_mats) > 0:
        level += 1
        if max_word_length is not None and level > max_word_length:
            if halfplanes is None:
                bound_floor = 0.0
            elif len(f_bound):
                bound_floor = min(bound_floor, float(f_bound.min()))
            break
        new_mats, new_last, new_words, new_dists, new_bounds = [], [], [], [], []
        for i in range(n_letters):
            mask = f_last != (i ^ 1)
            if not mask.any():
                continue
            parents = np.nonzero(mask)[0]
            childs = f_mats[parents] @ lmats[i]
            dist = distances_many(x, *apply_many(childs, y))
            sgn = 1 if i % 2 == 0 else -1
            letter = sgn * (i // 2 + 1)
            words = [f_words[p] + (letter,) for p in parents]
            if max_radius is not None:
                take = dist <= max_radius
            else:
                take = np.ones(len(dist), dtype=bool)
            for k in np.nonzero(take)[0]:
                out_mats.append(childs[k])
                out_dists.append(float(dist[k]))
                out_wls.append(level)
                out_words.append(words[k])
            if halfplanes is not None:
                bound = subtree_bound(childs, i)
                if max_radius is not None:
                    keep = bound <= max_radius
                    if not keep.all():
                        bound_floor = min(bound_floor, float(bound[~keep].min()))
                else:
                    keep = np.ones(len(bound), dtype=bool)
            else:
                bound = np.zeros(len(childs))
                keep = np.ones(len(childs), dtype=bool)
            if keep.any():
                new_mats.append(childs[keep])
                new_last.append(np.full(int(keep.sum()), i))
                new_dists.append(dist[keep])
                new_bounds.append(bound[keep])
                new_words.extend(w for w, k in zip(words, keep) if k)
        if len(out_mats) > budget:
            raise BudgetExceeded(f"census exceeds budget {budget}")
        if not new_mats:
            break
        f_mats = np.concatenate(new_mats)
        f_last = np.concatenate(new_last)
        f_bound = np.concatenate(new_bounds)
        f_words = new_words
    completeness = bound_floor
    if max_radius is not None:
        completeness = min(completeness, max_radius)
    return _census(out_mats, out_dists, out_wls, out_words, x, y, completeness, spec)


def _canonical_int_rows(rows: np.ndarray) -> np.ndarray:
    """Sign-canonicalize (n, 4) integer matrix rows in place convention:
    first nonzero of (a, b, c) positive."""
    a, b, c = rows[:, 0], rows[:, 1], rows[:, 2]
    lead = np.where(a != 0, a, np.where(b != 0, b, c))
    flip = lead < 0
    rows[flip] *= -1
    return rows


def _pack_rows(rows: np.ndarray) -> np.ndarray:
    if np.abs(rows).max(initial=0) >= _PACK_LIMIT:
        raise OverflowError(
            "lattice matrix entries exceed the supported integer range")
    off = rows.astype(np.int64) + _PACK_LIMIT
    return (off[:, 0] << 48) | (off[:, 1] << 32) | (off[:, 2] << 16) | off[:, 3]


def _unpack_keys(keys: np.ndarray) -> np.ndarray:
    rows = np.empty((len(keys), 4), dtype=np.int64)
    rows[:, 0] = (keys >> 48) & 0xFFFF
    rows[:, 1] = (keys >> 32) & 0xFFFF
    rows[:, 2] = (keys >> 16) & 0xFFFF
    rows[:, 3] = keys & 0xFFFF
    rows -= _PACK_LIMIT
    return rows


def _lattice_children(rows: np.ndarray) -> np.ndarray:
    """Right-multiply every row matrix by S, T and T^-1 (column operations)."""
    a, b, c, d = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    out = np.empty((3 * len(rows), 4), dtype=np.int64)
    out[0::3, 0], out[0::3, 1], out[0::3, 2], out[0::3, 3] = b, -a, d, -c
    out[1::3, 0], out[1::3, 1], out[1::3, 2], out[1::3, 3] = a, a + b, c, c + d
    out[2::3, 0], out[2::3, 1], out[2::3, 2], out[2::3, 3] = a, b - a, c, d - c
    return out


def _enumerate_lattice(spec, x, y, max_word_length, max_radius, budget,
                       slack=2.0):
    if max_radius is None and max_word_length is None:
        raise ValueError("lattice enumeration needs max_radius or max_word_length")
    if max_radius is not None and 2.0 * math.cosh(max_radius) > (_PACK_LIMIT - 1) ** 2:
        raise OverflowError("max_radius too large for exact lattice arithmetic")

    identity_key = _pack_rows(np.array([[1, 0, 0, 1]], dtype=np.int64))
    visited = identity_key.copy()
    frontier = identity_key.copy()
    out_keys = [identity_key.copy()]
    out_dists = [np.array([distance(x, y)])]
    out_wls = [np.array([0])]
    total = 1
    level = 0
    while len(frontier) > 0:
        level += 1
        if max_word_length is not None and level > max_word_length:
            break
        rows = _canonical_int_rows(_lattice_children(_unpack_keys(frontier)))
        keys = np.unique(_pack_rows(rows))
        pos = np.searchsorted(visited, keys)
        pos[pos == len(visited)] = len(visited) - 1
        keys = keys[visited[pos] != keys]
        if len(keys) == 0:
            break
        dists = distances_many(x, *apply_many(_unpack_keys(keys).reshape(-1, 2, 2), y))
        if max_radius is not None:
            keep = dists <= max_radius + slack
            keys, dists = keys[keep], dists[keep]
        if len(keys) == 0:
            break
        visited = np.insert(visited, np.searchsorted(visited, keys), keys)
        frontier = keys
        if max_radius is not None:
            take = dists <= max_radius
        else:
            take = np.ones(len(dists), dtype=bool)
        if take.any():
            out_keys.append(keys[take])
            out_dists.append(dists[take])
            out_wls.append(np.full(int(take.sum()), level))
            total += int(take.sum())
            if total > budget:
                raise BudgetExceeded(f"census exceeds budget {budget}")
    rows = _unpack_keys(np.concatenate(out_keys))
    dists = np.concatenate(out_dists)
    wls = np.concatenate(out_wls)
    # Completeness is empirical for the lattice (validated by the
    # horizon-doubling and algebraic-oracle tests).
    completeness = max_radius if max_radius is not None else 0.0
    return _census(rows.reshape(-1, 2, 2), dists, wls, None, x, y,
                   completeness, spec)


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
    up to which it is provably (free constructions) or empirically (lattice)
    complete.
    """
    if max_word_length is None and max_radius is None:
        raise ValueError("at least one of max_word_length, max_radius is required")
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

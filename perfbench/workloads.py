"""Seeded inputs, command lists and output checks of the three workloads.

Every input the program receives is a config file written here from the
workload seed; the program never sees a builtin config name.  All checks
read the artifacts and captured stdout of a finished command and recompute
what they can independently of the program, so they run outside the timed
section.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Builtin Schottky pair of the program (its `schottky` config).
_A = ((3.0, 0.0), (0.0, 1.0 / 3.0))
_B = ((5.0 / 3.0, 4.0 / 3.0), (4.0 / 3.0, 5.0 / 3.0))
_PARABOLIC = ((1.0, 1.0), (0.0, 1.0))
_E = math.exp(0.5)
_HYPERBOLIC = ((_E, 0.0), (0.0, 1.0 / _E))

NESTED_DEPTH = 4
SHADOW_WORD_LENGTH = 11
EQUIVARIANCE_WORD_LENGTH = 10
LATTICE_CENSUS_RADIUS = 10.0

WORKLOADS = ("free-audit", "exact-census", "self-check")


def _mul(p, q):
    return tuple(tuple(sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def _inv(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def _rotation(theta):
    """The rotation about i by angle theta; it fixes i, so conjugating a
    group by it keeps every orbit distance from i."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return ((c, s), (-s, c))


def _mat(m):
    return [[repr(float(m[0][0])), repr(float(m[0][1]))],
            [repr(float(m[1][0])), repr(float(m[1][1]))]]


def _group(kind, *generators, **extra):
    doc = {"model": "upper_half_plane", "kind": kind}
    if generators:
        doc["generators"] = [_mat(g) for g in generators]
    doc.update(extra)
    return doc


def draw_rotation(seed: int) -> float:
    """Seed 0 is the builtin pair; other seeds draw a rotation angle."""
    if seed == 0:
        return 0.0
    return random.Random(seed).uniform(-math.pi, math.pi)


def make_configs(seed: int, directory: Path) -> dict[str, Path]:
    """Write the seed's config files and return their paths by name.

    The drawn Schottky pair is the builtin pair conjugated by a seeded
    rotation k about i: a different certified pair whose word-length
    bounded censuses keep 2*3^L - 1 elements and whose orbit distances from
    i are those of the builtin pair, so every seed does the same work.  The
    depth-4 nested subgroup of the drawn pair, k^-1 N k with N the builtin
    nested subgroup, is written as the k-conjugate of N: the program's
    nested certifier is not rotation invariant, and rotated nested families
    enumerated directly lose their pruning (see NOTES.md).
    """
    theta = draw_rotation(seed)
    k = _rotation(theta)

    def conj(m):
        return _mul(_mul(_inv(k), m), k)

    a, b = conj(_A), conj(_B)
    nested = _group("conjugated", conjugator=_mat(k),
                    inner=_group("nested_subgroup", _A, _B, depth=NESTED_DEPTH))
    docs = {
        "schottky": _group("schottky", a, b),
        "nested": nested,
        "nested-conjugate": _group("conjugated", conjugator=_mat(a), inner=nested),
        "lattice": _group("modular_lattice"),
        "parabolic": _group("cyclic_parabolic", conj(_PARABOLIC)),
        "cyclic-hyperbolic": _group("cyclic_hyperbolic", conj(_HYPERBOLIC)),
        # The subgroup keeps the diagonal generator: powers of a rotated one
        # lose their determinant before word length 200 (see NOTES.md).
        "separation": {"group": _group("cyclic_hyperbolic", _A), "witness": _mat(b)},
    }
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return paths


# ---------------------------------------------------------------------------
# Output checks.  Each takes the command's output directory and captured
# stdout and returns a list of (check name, passed, detail).


def _stdout_value(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return float(line.split("=", 1)[1])
    raise ValueError(f"no {key}= line in the command output")


def _csv_rows(path: Path) -> list[str]:
    """Data rows of a program CSV: lines after the `#` header lines and the
    column header."""
    lines = path.read_text().splitlines()
    return [line for line in lines if not line.startswith("#")][1:]


def _csv_array(path: Path) -> np.ndarray:
    rows = _csv_rows(path)
    flat = np.array(",".join(rows).split(","), dtype=np.float64)
    return flat.reshape(len(rows), -1)


def _estimate(out: Path) -> dict:
    return json.loads((out / "estimate.json").read_text())


def _in_range(name, value, lo, hi):
    return (name, lo <= value <= hi, f"{value:.6g} in [{lo}, {hi}]")


def _measure_files(out: Path) -> list[Path]:
    files = sorted(out.glob("measure_s*.csv"))
    if len(files) != 3:
        raise ValueError(f"expected 3 measure CSVs, found {len(files)}")
    return files


def _measure_rows(out: Path, word_length: int):
    expected = 2 * 3 ** word_length - 1
    results = []
    for path in _measure_files(out):
        n = len(_csv_rows(path))
        results.append((f"{path.name} rows", n == expected,
                        f"{n} rows, expected 2*3^{word_length}-1 = {expected}"))
    return results


def _nonempty_shadows(path: Path, word_length: int, r: float = 1.5,
                      band=(3, 4, 5, 6, 7)):
    """Every band atom's shadow from i at radius r holds at least one atom
    of the deepest word length.  Recomputed from the measure CSV with the
    disk model at i: the ray direction of p is arg((p - i)/(p + i)) and the
    shadow of p is the arc of half-width asin(sinh r / sinh d(i, p))."""
    rows = _csv_array(path)
    z = rows[:, 0] + 1j * rows[:, 1]
    wl = rows[:, 3].astype(np.int64)
    w = (z - 1j) / (z + 1j)
    angle = np.angle(w) % (2.0 * math.pi)
    dist = np.arccosh(1.0 + np.abs(z - 1j) ** 2 / (2.0 * rows[:, 1]))
    deep = np.sort(angle[wl == word_length])
    sel = np.isin(wl, band) & (dist > r)
    half = np.arcsin(np.sinh(r) / np.sinh(dist[sel]))
    lo = (angle[sel] - half) % (2.0 * math.pi)
    hi = (angle[sel] + half) % (2.0 * math.pi)
    count = np.searchsorted(deep, hi, "right") - np.searchsorted(deep, lo, "left")
    count = np.where(lo <= hi, count, count + len(deep))
    empty = int((count == 0).sum())
    return [("no empty shadows", empty == 0 and sel.any(),
             f"{empty} of {int(sel.sum())} band shadows hold no depth-{word_length} atom")]


def check_exponent_free(out, stdout):
    est = _estimate(out)
    return [("estimate is finite", math.isfinite(est["point_estimate"]),
             f"{est['point_estimate']:.6g}")]


def check_equivariance(out, stdout):
    disc = _stdout_value(stdout, "equivariance_max_discrepancy")
    return (_measure_rows(out, EQUIVARIANCE_WORD_LENGTH)
            + [("equivariance discrepancy", disc <= 1e-12, f"{disc:.3e} <= 1e-12")])


def check_shadow(out, stdout):
    lo = _stdout_value(stdout, "shadow_min_ratio")
    results = _measure_rows(out, SHADOW_WORD_LENGTH)
    results += _nonempty_shadows(_measure_files(out)[0], SHADOW_WORD_LENGTH)
    results.append(("shadow_min_ratio > 0", lo > 0.0, f"{lo:.6g}"))
    ppm = (out / "render.ppm").read_bytes()
    header = b"P6\n1024 1024\n255\n"
    results.append(("render.ppm is a 1024x1024 P6", ppm.startswith(header)
                    and len(ppm) == len(header) + 3 * 1024 * 1024, f"{len(ppm)} bytes"))
    return results


def check_conjugate(out, stdout, nested_out):
    """Criterion 08: the nested and conjugate estimates agree within their
    combined spreads."""
    n, c = _estimate(nested_out), _estimate(out)
    gap = abs(n["point_estimate"] - c["point_estimate"])
    combined = n["spread"] + c["spread"]
    return [("conjugation invariance", gap <= combined,
             f"|{n['point_estimate']:.4f} - {c['point_estimate']:.4f}| = {gap:.4f}"
             f" <= {combined:.4f}")]


def lattice_ball_count(radius: float) -> int:
    """Number of +-classes of SL(2, Z) matrices with a^2+b^2+c^2+d^2 <=
    2 cosh R, i.e. of lattice elements g with d(i, g.i) <= R, counted by
    solving ad - bc = 1 for d over every (a, b, c) in the box."""
    bound = math.floor(2.0 * math.cosh(radius))
    side = math.isqrt(bound)
    bc = np.arange(-side, side + 1, dtype=np.int64)
    b, c = np.meshgrid(bc, bc, indexing="ij")
    b, c = b.ravel(), c.ravel()
    total = 0
    for a in range(-side, side + 1):
        rest = bound - a * a - b * b - c * c
        if a == 0:
            # bc = -1 and d is free.
            hit = (b * c == -1) & (rest >= 0)
            total += int((2 * np.floor(np.sqrt(rest[hit])) + 1).sum())
            continue
        num = 1 + b * c
        ok = num % a == 0
        d = num[ok] // a
        total += int((d * d <= rest[ok]).sum())
    return total // 2


def check_lattice_exponent(out, stdout):
    return [_in_range("lattice estimate", _estimate(out)["point_estimate"], 0.9, 1.1)]


def check_lattice_census(out, stdout, expected):
    n = len(_csv_rows(out / "census.csv"))
    return [("lattice census rows", n == expected,
             f"{n} rows, independent count {expected}")]


def check_parabolic(out, stdout):
    return [_in_range("parabolic estimate", _estimate(out)["point_estimate"], 0.45, 0.55)]


def check_cyclic(out, stdout):
    value = _estimate(out)["point_estimate"]
    return [("cyclic-hyperbolic estimate", value <= 0.05, f"{value:.6g} <= 0.05")]


def check_separation(out, stdout):
    s0 = json.loads((out / "certificate.json").read_text())["s0"]
    return [("separation s0", s0 >= 0.05, f"{s0:.6g} >= 0.05")]


def check_self_check(out, stdout):
    results = json.loads((out / "check.json").read_text())["results"]
    failed = [r["name"] for r in results if not r["pass"]]
    return [("check.json all pass", not failed and len(results) > 0,
             f"{len(results) - len(failed)}/{len(results)} pass"
             + (f", failed: {', '.join(failed)}" if failed else ""))]


@dataclass(frozen=True)
class Command:
    """One program invocation of a workload, with the check of its output."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[Path, str], list[tuple[str, bool, str]]]  # (out dir, stdout)
    # Whether the memory pass runs it: only commands that hold a layer's
    # largest free or lattice enumeration of the workload.
    memory: bool = True


def commands(workload: str, configs: dict[str, Path], seed: int, out_root: Path,
             lattice_count: int | None = None) -> list[Command]:
    """The workload's commands in the order they run; each writes to its
    own directory under out_root."""
    if workload == "free-audit":
        cfg = str(configs["schottky"])
        specs = [
            ("exponent-schottky-L12",
             ["exponent", "--config", cfg, "--max-word-length", "12"],
             check_exponent_free),
            ("patterson-equivariance-L10",
             ["patterson", "--config", cfg, "--max-word-length",
              str(EQUIVARIANCE_WORD_LENGTH), "--audit", "equivariance"],
             check_equivariance),
            ("patterson-shadow-render-L11",
             ["patterson", "--config", cfg, "--max-word-length",
              str(SHADOW_WORD_LENGTH), "--audit", "shadow", "--render"],
             check_shadow),
            ("exponent-nested",
             ["exponent", "--config", str(configs["nested"]), "--max-radius", "22"],
             check_exponent_free),
            ("exponent-nested-conjugate",
             ["exponent", "--config", str(configs["nested-conjugate"]),
              "--max-radius", "24"],
             lambda o, s: check_conjugate(o, s, out_root / "exponent-nested")),
        ]
    elif workload == "exact-census":
        specs = [
            ("exponent-lattice",
             ["exponent", "--config", str(configs["lattice"]), "--max-radius", "11"],
             check_lattice_exponent),
            ("census-lattice",
             ["census", "--config", str(configs["lattice"]), "--max-radius",
              repr(LATTICE_CENSUS_RADIUS)],
             lambda o, s: check_lattice_census(o, s, lattice_count)),
            ("exponent-parabolic",
             ["exponent", "--config", str(configs["parabolic"]), "--max-radius", "18"],
             check_parabolic),
            ("exponent-cyclic-hyperbolic",
             ["exponent", "--config", str(configs["cyclic-hyperbolic"]),
              "--max-radius", "30"],
             check_cyclic),
            ("separation",
             ["separation", "--config", str(configs["separation"]),
              "--max-word-length", "200"],
             check_separation),
        ]
    elif workload == "self-check":
        specs = [("check", ["check"], check_self_check)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # In free-audit the word-length-12 census holds three times the elements
    # of any other free enumeration, so it alone sets groups.free's peak.
    memory = {"exponent-schottky-L12"} if workload == "free-audit" else None
    return [Command(name, argv + ["--seed", str(seed), "--out", str(out_root / name)],
                    out_root / name, check, memory is None or name in memory)
            for name, argv, check in specs]

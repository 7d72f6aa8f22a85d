"""Command-line interface: group censuses, exponent estimation, separation
certificates, orbital-measure audits and renders, and a one-shot
verification suite over the built-in example groups.

Exit codes: 0 success, 1 verification failure, 2 invalid config or limits
(including generators without a ping-pong certificate), 3 enumeration budget
exceeded, 4 arithmetic overflow, 5 insufficient data for estimation,
6 no separation certificate, 7 degenerate measure normalizer, 8 a forked
worker ended without finishing its part, 9 an internal error (any other
exception, reported in one line).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .hyperbolic import Isometry, NonInvertibleMatrix, Point
from . import counting, groups, patterson, sequences

EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_OVERFLOW = 4
EXIT_INSUFFICIENT = 5
EXIT_NO_CERTIFICATE = 6
EXIT_DEGENERATE = 7
EXIT_WORKER = 8
EXIT_INTERNAL = 9


class ConfigError(ValueError):
    pass


# Exit code of each error a command may raise; `check` fails the suite instead.
_EXIT_CODES = {
    ConfigError: EXIT_PARSE,
    groups.NonHyperbolicGenerator: EXIT_PARSE,
    groups.InsufficientLimits: EXIT_PARSE,
    groups.MarginViolation: EXIT_PARSE,
    groups.BudgetExceeded: EXIT_BUDGET,
    OverflowError: EXIT_OVERFLOW,
    NonInvertibleMatrix: EXIT_OVERFLOW,  # a config's matrices were checked on parsing
    counting.InsufficientData: EXIT_INSUFFICIENT,
    counting.NoCertificate: EXIT_NO_CERTIFICATE,
    patterson.DegenerateNormalizer: EXIT_DEGENERATE,
    sequences.HypothesisViolated: EXIT_CHECK_FAILED,
    sequences.NotSubmultiplicative: EXIT_CHECK_FAILED,
    ChildProcessError: EXIT_WORKER,  # a forked worker that sent no result
}


# ---------------------------------------------------------------------------
# Built-in example configurations.

# Generators of the built-in Schottky group.
_A = Isometry(3.0, 0.0, 0.0, 1.0 / 3.0)
_B = Isometry(5.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0, 5.0 / 3.0)


def _builtin_docs() -> dict:
    e = math.exp(0.5)
    return {
        "schottky": groups.spec_to_json_dict(groups.schottky_spec(_A, _B)),
        "parabolic": groups.spec_to_json_dict(
            groups.cyclic_spec(Isometry(1.0, 1.0, 0.0, 1.0))),
        "cyclic-hyperbolic": groups.spec_to_json_dict(
            groups.cyclic_spec(Isometry(e, 0.0, 0.0, 1.0 / e))),
        "lattice": groups.spec_to_json_dict(groups.modular_lattice_spec()),
        "schottky-separation": {
            "group": groups.spec_to_json_dict(groups.cyclic_spec(_A)),
            "witness": groups._mat_to_json(_B)},
    }


def load_config(arg: str) -> tuple[dict, str]:
    """Resolve a --config value (builtin name or JSON path) to (document,
    hash).  Malformed JSON raises ConfigError with a line/column diagnostic."""
    builtins = _builtin_docs()
    if arg in builtins:
        doc = builtins[arg]
        text = json.dumps(doc, sort_keys=True)
    else:
        try:
            text = Path(arg).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {arg!r}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed JSON in {arg}: {exc.msg} at line {exc.lineno} "
                f"column {exc.colno}") from exc
        except RecursionError as exc:
            raise ConfigError(f"JSON in {arg} nests too deep to decode") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {arg} must be a JSON object")
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return doc, digest


def _group_from_doc(doc: dict) -> groups.GroupSpec:
    group_doc = doc["group"] if "group" in doc else doc
    try:
        return groups.spec_from_json_dict(group_doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid group config: {exc}") from exc


def _witness_from_doc(doc: dict) -> Isometry:
    if "witness" not in doc:
        raise ConfigError("separation config needs a 'witness' matrix")
    try:
        return groups._mat_from_json(doc["witness"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid witness, expected a 2x2 matrix: {exc}") from exc


# ---------------------------------------------------------------------------
# Shared plumbing.


def _header(args, config_hash: str) -> list[str]:
    return [f"tool_version={__version__}",
            f"config_hash={config_hash}",
            f"seed={args.seed}"]


_MAX_GRID_POINTS = 10_000


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}, expected lo:hi:step") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < step < math.inf
            and lo <= hi and (hi - lo) / step < _MAX_GRID_POINTS):
        raise ConfigError(f"bad grid {text!r}: need finite lo <= hi and step > 0, "
                          f"with at most {_MAX_GRID_POINTS} points")
    return np.arange(lo, hi + 1e-12, step)


def _parse_window(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad window {text!r}, expected lo:hi") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"bad window {text!r}: need finite lo < hi")
    return lo, hi


def _load_census(args, rows=True):
    """(census, witness, config hash) for a command's limits and config; only
    `separation` reads a witness, and checks it before enumerating.  Without
    ``rows`` the census keeps only its distances (`groups.enumerate_orbit`)."""
    if args.max_radius is None and args.max_word_length is None:
        raise ConfigError("need --max-word-length or --max-radius")
    if args.max_radius is not None and not 0.0 <= args.max_radius < math.inf:
        raise ConfigError(f"--max-radius must be finite and >= 0: {args.max_radius}")
    if args.max_word_length is not None and args.max_word_length < 0:
        raise ConfigError(f"--max-word-length must be >= 0: {args.max_word_length}")
    doc, digest = load_config(args.config)
    spec = _group_from_doc(doc)
    witness = _witness_from_doc(doc) if args.command == "separation" else None
    census = groups.enumerate_orbit(
        spec, max_word_length=args.max_word_length,
        max_radius=args.max_radius, rows=rows)
    return census, witness, digest


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands.


def cmd_census(args) -> int:
    census, _, digest = _load_census(args)
    census.mats  # rows that overflow raise here, before the file is opened
    path = _out_dir(args) / "census.csv"
    with open(path, "w") as fh:
        census.write_csv(fh, header_lines=_header(args, digest))
    print(f"entries={len(census)}")
    print(f"completeness_radius={census.completeness_radius:.12g}")
    print(f"wrote {path}")
    return 0


def cmd_exponent(args) -> int:
    r_min, r_max = _parse_window(args.window) if args.window else (None, None)
    census, _, digest = _load_census(args, rows=False)  # counting reads only distances
    report = counting.make_report(census)
    estimate = counting.estimate_exponent(report, r_min=r_min, r_max=r_max)
    out = _out_dir(args)
    with open(out / "report.csv", "w") as fh:
        report.write_csv(fh, header_lines=_header(args, digest))
    with open(out / "estimate.json", "w") as fh:
        fh.write(estimate.to_json() + "\n")
    print(f"point_estimate={estimate.point_estimate:.6f}")
    print(f"window=[{estimate.window[0]:.6g}, {estimate.window[1]:.6g}]")
    print(f"spread={estimate.spread:.6f}")
    return 0


def cmd_separation(args) -> int:
    grid = _parse_grid(args.s_grid) if args.s_grid else np.arange(0.01, 1.01, 0.01)
    census, witness, digest = _load_census(args)
    cert = counting.separation_certificate(census, witness, grid)
    out = _out_dir(args)
    payload = {
        "s0": cert.s0,
        "subgroup_sum": cert.subgroup_sum,
        "product_value": cert.product_value,
        "witness": [[cert.witness.a, cert.witness.b],
                    [cert.witness.c, cert.witness.d]],
        "header": _header(args, digest),
    }
    with open(out / "certificate.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"s0={cert.s0:.6f}")
    print(f"product_value={cert.product_value:.6f}")
    return 0


def _conformal_worst(census, mu, rng) -> float:
    """Worst conformal-ratio deviation of ``mu`` against its measures at five
    random viewpoints, drawn from ``rng``."""
    worst = 0.0
    for _ in range(5):
        xp = Point(float(rng.uniform(-1, 1)), float(math.exp(rng.uniform(-1, 1))))
        aud = patterson.conformal_ratio_audit(
            mu, patterson.orbital_measure(census, mu.s, x=xp))
        worst = max(worst, aud.max_deviation)
    return worst


# The share of each measure file's rows that `patterson`'s forked worker
# writes while this process does the rest.  At word length 11 on 2 vCPUs
# shares of 0.6-0.75 did best; at 0.85 this process waited on the worker.
_WORKER_SHARE = 0.65


def cmd_patterson(args) -> int:
    """Write a measure CSV and a histogram per s, then run the audit and the
    render.  Two processes write the measure files (see `_forked`): a forked
    worker writes each file's header and first rows, in whole chunks of table
    rows, while this process writes the histograms, runs the audit and the
    render, and renders the text of the other rows, which it appends once
    the worker is done.  The files are the same either way."""
    s_list = [float(s) for s in _parse_grid(args.s_grid)] if args.s_grid else None
    if s_list and len({f"{s:.4f}" for s in s_list}) < len(s_list):  # the file tags
        raise ConfigError(f"--s-grid {args.s_grid!r} gives two files one 4-decimal tag")
    if not 0.0 < args.r < math.inf:
        raise ConfigError(f"--r must be finite and > 0: {args.r}")
    census, _, digest = _load_census(args)
    if args.audit == "equivariance" and census.words is None:
        raise ConfigError("--audit equivariance needs a census with words; "
                          "the lattice census has none")
    report = counting.make_report(census)
    delta_hat = counting.estimate_exponent(report).point_estimate
    if s_list is None:
        s_list = [delta_hat + off for off in (0.1, 0.05, 0.02)]
    out = _out_dir(args)
    header = _header(args, digest)
    horizon = patterson.default_horizon(census)
    mus = [patterson.orbital_measure(census, s) for s in reversed(s_list)]
    mu = mus[-1]  # the measure at s_list[0]
    paths = [out / f"measure_s{m.s:.4f}.csv" for m in mus]
    split = int(len(census) * _WORKER_SHARE) // groups._TABLE_CHUNK * groups._TABLE_CHUNK

    def head():
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "w")) for path in paths]
            for fh in files:
                groups._write_table(fh, header, patterson.MEASURE_COLUMNS, ())
            for texts in patterson.measure_csv_chunks(mus, slice(split)):
                for fh, text in zip(files, texts):
                    fh.write(text)

    with _forked(head, fork=split > 0) as join:
        try:
            for m in mus:
                hist = patterson.boundary_histogram(m, horizon=horizon)
                with open(out / f"histogram_s{m.s:.4f}.csv", "w") as fh:
                    hist.write_csv(fh, header_lines=header)
            if args.audit == "conformal":
                worst = _conformal_worst(census, mu, np.random.default_rng(args.seed))
                print(f"conformal_max_deviation={worst:.3e}")
            elif args.audit == "equivariance":
                aud = patterson.equivariance_audit(census, 1, s_list[0])
                print(f"equivariance_max_discrepancy={aud.max_discrepancy:.3e}")
                print(f"equivariance_leakage={aud.leakage:.6f}")
            elif args.audit == "shadow":
                aud = patterson.shadow_lemma_audit(census, mu, alpha=delta_hat,
                                                   r=args.r)
                print(f"shadow_min_ratio={aud.min_ratio:.6f}")
                print(f"shadow_max_ratio={aud.max_ratio:.6f}")
            if args.render:
                with open(out / "render.ppm", "wb") as fh:
                    patterson.render_ppm(mu, fh)
                print(f"wrote {out / 'render.ppm'}")
        finally:
            tails = list(zip(*patterson.measure_csv_chunks(mus, slice(split, None))))
            join()
            for path, tail in zip(paths, tails):
                with open(path, "a") as fh:
                    fh.writelines(tail)
    return 0


# ---------------------------------------------------------------------------
# Verification suite.


def _suite_counting():
    p = Isometry(1.0, 1.0, 0.0, 1.0)
    n = np.arange(10, 10001, dtype=np.float64)
    d = np.arccosh(1.0 + n * n / 2.0)
    gap = float(np.abs(d - 2.0 * np.log(n)).max())
    yield ("parabolic-distance-law", gap <= 0.05, f"max gap {gap:.4f}")

    spec = groups.cyclic_spec(p)
    census = groups.enumerate_orbit(spec, max_radius=18.0, rows=False)
    est = counting.estimate_exponent(counting.make_report(census))
    yield ("parabolic-exponent", 0.45 <= est.point_estimate <= 0.55,
           f"estimate {est.point_estimate:.4f}")

    e = math.exp(0.5)
    census = groups.enumerate_orbit(groups.cyclic_spec(Isometry(e, 0, 0, 1 / e)),
                                    max_radius=30.0, rows=False)
    est = counting.estimate_exponent(counting.make_report(census))
    yield ("cyclic-hyperbolic-exponent", est.point_estimate <= 0.05,
           f"estimate {est.point_estimate:.4f}")

    census = groups.enumerate_orbit(groups.modular_lattice_spec(), max_radius=12.0,
                                    rows=False)
    est = counting.estimate_exponent(counting.make_report(census), r_min=6.0)
    ok = 0.9 <= est.point_estimate <= 1.1 and len(census) >= 10 ** 4
    yield ("lattice-exponent", ok,
           f"estimate {est.point_estimate:.4f}, entries {len(census)}")

    sup, inf = counting.boundedness_audit(
        counting.make_report(census), est.point_estimate, r_min=6.0)
    yield ("lattice-boundedness", sup / inf <= 20.0,
           f"sup/inf {sup / inf:.3f}")


def _suite_separation():
    h_census = groups.enumerate_orbit(groups.cyclic_spec(_A), max_word_length=200)
    cert = counting.separation_certificate(
        h_census, _B, np.arange(0.01, 1.01, 0.01))
    census = groups.enumerate_orbit(groups.schottky_spec(_A, _B), max_word_length=9,
                                    rows=False)
    est = counting.estimate_exponent(counting.make_report(census))
    ok = cert.s0 >= 0.05 and cert.s0 <= est.point_estimate + est.spread
    yield ("separation-certificate", ok,
           f"s0 {cert.s0:.3f}, exponent {est.point_estimate:.3f}")


def _suite_sequences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        rate = rng.uniform(0.05, 1.0)
        steps = rng.uniform(rate - 0.02, rate + 0.02, size=1500)
        probe = sequences.SequenceProbe.from_log(
            np.concatenate([[0.0], np.cumsum(steps)]))
        pair = sequences.critical_exponent(probe)
        worst = max(worst, abs(pair.from_terms - pair.from_partial_sums))
    yield ("sequence-exponent-agreement", worst <= 1e-2,
           f"worst gap {worst:.2e}")

    probe = sequences.SequenceProbe.from_log(math.log(2.0) * np.arange(1001))
    rep = sequences.fekete_check(probe)
    yield ("fekete-geometric", abs(rep.gap) <= 1e-12, f"gap {rep.gap:.2e}")

    probe = sequences.SequenceProbe.from_log(0.5 * np.arange(1001))
    rep = sequences.fait_check(probe, kappa=2)
    ok = abs(rep.log_limit - 0.5) < 5e-3 and rep.envelope_constant < 1.1
    yield ("windowed-supermultiplicativity", ok,
           f"limit {rep.log_limit:.4f}, C {rep.envelope_constant:.3f}")

    probe = sequences.SequenceProbe.from_log(0.8 * np.arange(1, 5001))
    rep = sequences.divergence_argument_check(probe)
    yield ("divergence-argument", abs(rep.growth_rate - 0.8) <= 1e-2,
           f"L {rep.growth_rate:.4f}")


def _suite_patterson():
    """The patterson checks.  Each census and what is made from it is
    released before the next is enumerated, so the suite's peak is that of
    its word-length-11 stage; the two word-length-10 renders are compared
    before that stage, and their check is reported last."""
    spec = groups.schottky_spec(_A, _B)
    census = groups.enumerate_orbit(spec, max_word_length=10)
    delta_hat = counting.estimate_exponent(
        counting.make_report(census)).point_estimate
    s = delta_hat + 0.1
    mu = patterson.orbital_measure(census, s)

    worst = _conformal_worst(census, mu, np.random.default_rng(11))
    yield ("conformality", worst <= 1e-12, f"max deviation {worst:.2e}")

    eq = patterson.equivariance_audit(census, 1, s)
    census8 = groups.enumerate_orbit(spec, max_word_length=8)
    eq8 = patterson.equivariance_audit(census8, 1, s)
    ok = eq.max_discrepancy <= 1e-12 and eq.leakage < eq8.leakage
    detail = (f"discrepancy {eq.max_discrepancy:.2e}, "
              f"leakage {eq.leakage:.4f} < {eq8.leakage:.4f}")
    renders = []
    for _ in range(2):
        buf = io.BytesIO()
        patterson.render_ppm(mu, buf)
        renders.append(buf.getvalue())
    same, size = renders[0] == renders[1], len(renders[0])
    del census, census8, mu, eq, eq8, buf, renders
    yield ("equivariance", ok, detail)

    deep = groups.enumerate_orbit(spec, max_word_length=11)
    mu_deep = patterson.orbital_measure(deep, s)
    aud = patterson.shadow_lemma_audit(deep, mu_deep, alpha=delta_hat, r=1.5)
    ratio = aud.max_ratio / aud.min_ratio if aud.min_ratio > 0 else math.inf
    ok = aud.empty_shadows == 0 and ratio <= 1e3
    del deep, mu_deep, aud
    yield ("shadow-lemma", ok, f"max/min ratio {ratio:.1f}")

    yield ("render-determinism", same, f"{size} bytes")


_SUITES = {
    "counting": _suite_counting,
    "separation": _suite_separation,
    "sequences": _suite_sequences,
    "patterson": _suite_patterson,
}


def _suite_results(names: list) -> list:
    """The (name, ok, detail) checks of the suites `names`, in order.  A
    check that cannot even be computed is a failure of that suite, not a
    crash of the whole verification run; checks already produced by the
    suite are kept."""
    results = []
    for name in names:
        try:
            for item in _SUITES[name]():
                results.append(item)
        except tuple(_EXIT_CODES) as exc:
            results.append((f"{name}-suite", False, f"aborted: {exc}"))
    return results


@contextlib.contextmanager
def _forked(work, fork: bool):
    """Run `work()` in a forked worker while the body of the `with` block runs
    here.  The block gets `join`, which waits for the worker and returns what
    `work` returned or raises what it raised (`ChildProcessError` if the
    worker ended without sending either).  Where `fork` is false or `os.fork`
    is missing or fails, `work` runs here before the block.  The worker
    leaves only through `os._exit`, so it never returns into the caller nor
    flushes the stdio buffers it shares with this process; it is reaped
    however the block ends."""
    import os
    import pickle

    pid = None
    # In the CLI the only other thread is numpy's OpenBLAS pool, which
    # OpenBLAS itself stops around a fork.
    if fork and hasattr(os, "fork"):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: do the work here
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        result = work()
        yield lambda: result
        return
    if pid == 0:
        try:
            try:
                payload = (True, work())
            except BaseException as exc:
                payload = (False, exc)
            try:
                data = pickle.dumps(payload)
                pickle.loads(data)
            except Exception:  # an exception that does not survive pickling
                exc = payload[1]
                data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    status = None

    def join():
        nonlocal status
        data = pipe.read()
        pipe.close()
        status = os.waitpid(pid, 0)[1]
        if not data:
            code = os.waitstatus_to_exitcode(status)
            how = f"ended by signal {-code}" if code < 0 else f"exited with code {code}"
            raise ChildProcessError(f"worker {how}")
        ok, payload = pickle.loads(data)
        if not ok:
            raise payload
        return payload

    try:
        yield join
    finally:
        if status is None:
            pipe.close()  # first, so that a worker blocked on a full pipe can end
            os.waitpid(pid, 0)


def cmd_check(args) -> int:
    """Run the verification suites whose name contains `--filter`, print
    one line per check and write `check.json`.  The suites run in two
    processes (see `_forked`): patterson, the largest, in this one and the
    others in a worker, whose suites each fail if it sends no checks.  The
    checks are printed and written in suite order either way."""
    names = [name for name in _SUITES if not args.filter or args.filter in name]
    if not names:
        print(f"no suite matches filter {args.filter!r}", file=sys.stderr)
        return EXIT_PARSE
    *forked, last = names
    with _forked(lambda: _suite_results(forked), fork=bool(forked)) as join:
        own = _suite_results([last])
        try:
            results = join() + own
        except ChildProcessError as exc:
            results = [(f"{name}-suite", False, f"aborted: {exc}") for name in forked] + own
    summary = []
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        failed += 0 if ok else 1
        print(f"{status} {name}: {detail}")
        summary.append({"name": name, "pass": bool(ok), "detail": detail})
    out = _out_dir(args)
    with open(out / "check.json", "w") as fh:
        json.dump({"tool_version": __version__, "seed": args.seed,
                   "results": summary}, fh, indent=2)
        fh.write("\n")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleinian",
        description="Orbit censuses, critical-exponent estimation, and "
                    "boundary-measure audits for discrete hyperbolic groups.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="built-in name (schottky, parabolic, "
                            "cyclic-hyperbolic, lattice, schottky-separation) "
                            "or path to a group JSON document")
        p.add_argument("--max-word-length", type=int, default=None)
        p.add_argument("--max-radius", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("census", help="enumerate an orbit ball to CSV")
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("exponent", help="estimate the critical exponent")
    common(p)
    p.add_argument("--window", default=None, help="regression window lo:hi")
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("separation",
                       help="exponent-separation certificate for a subgroup")
    common(p)
    p.add_argument("--s-grid", default=None, help="certificate grid lo:hi:step")
    p.set_defaults(func=cmd_separation)

    p = sub.add_parser("patterson",
                       help="orbital measures, audits, histograms, renders")
    common(p)
    p.add_argument("--s-grid", default=None, help="measure parameters lo:hi:step")
    p.add_argument("--r", type=float, default=1.5, help="shadow radius")
    p.add_argument("--render", action="store_true")
    p.add_argument("--audit", choices=("conformal", "equivariance", "shadow"),
                   default=None)
    p.set_defaults(func=cmd_patterson)

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument("--filter", default=None,
                   help="run only suites whose name contains this string")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        code = next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)
        prefix = "arithmetic overflow: " if code == EXIT_OVERFLOW else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code
    except Exception as exc:  # a fault of the program, not of its input
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

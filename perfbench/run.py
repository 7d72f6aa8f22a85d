"""Benchmark of the `kleinian` CLI: one workload, one seed, one run.

Usage (from the repository root):
  python3 perfbench/run.py --workload free-audit|exact-census|self-check \
      --seed N --seconds S --trace 0|1

Each timed iteration is a fresh Python process (perfbench/child.py) that
imports `kleinian` from ./src and runs the workload's command list
in-process through `kleinian.cli.main`, one command after another, with no
worker threads.  Outputs are checked and hashed after the process exits,
outside the timed section.

--trace 0 runs iterations until --seconds have passed (at least two) and
reports the end-to-end metrics: wall_s (median wall time of the command
list), setup_s (median time from process start until `kleinian` is
imported, over every iteration process and the set-up-only processes
started before each iteration) and peak_rss_mb (median peak resident
memory of an iteration process).  --trace 1 runs a traced, an untraced and
a second traced iteration, then a memory pass, and reports the per-layer
metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `attempted` counts command executions and
`failed` those that exited nonzero, raised, timed out, failed an output
check or wrote an artifact whose digest differs from an earlier run of the
same source and seed; failed / attempted is the error rate.  The full
report, with provenance and every sample, is written to
.bench_build/perfbench/<workload>-seed<N>-trace<T>/report.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
MIN_ITERATIONS = 2
# Set-up-only processes before each timed iteration.  Spread over the run
# rather than bunched at its end, they see the same CPU speed as wall_s.
SETUP_SAMPLES_PER_ITERATION = 5
# A run must end within 180 s.  The longest runs, traced free-audit and
# self-check runs, take about 80-105 s on a 2-vCPU VM (see NOTES.md).
RUN_BUDGET_S = 170.0
MB = 1024.0 * 1024.0


class Timeout(Exception):
    pass


def _describe(values):
    """Median, quartiles and sample count of a list of samples."""
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _tree_sha256(directory: Path) -> str:
    tree = hashlib.sha256()
    for p in sorted(directory.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            tree.update(str(p.relative_to(directory)).encode() + b"\0" + p.read_bytes() + b"\0")
    return tree.hexdigest()


def provenance(root: Path, args, theta: float) -> dict:
    lines = sum(p.read_text().count("\n") for p in (root / "src").rglob("*.py"))
    revision = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    return {
        "git_revision": revision,
        "src_sha256": _tree_sha256(root / "src"),
        "bench_sha256": _tree_sha256(HERE),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "rotation": theta,
        "seconds": args.seconds,
        "trace": args.trace,
        "warm_up": "one untimed set-up-only process before any sample "
                   "(compiles bytecode, loads numpy into the page cache)",
    }


class Runner:
    """Starts child processes one at a time and checks what they wrote."""

    def __init__(self, root: Path, work: Path, commands, deadline: float,
                 reference: dict[str, str] | None):
        self.root = root
        self.work = work
        self.commands = commands
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        # Each process draws its own hash seed, so the digest comparison also
        # catches output that depends on set or dict hashing order.
        self.env.pop("PYTHONHASHSEED", None)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # Artifact digests every iteration must reproduce: those of an
        # earlier run of the same source and seed, else the first iteration's.
        self.reference = reference
        self.iterations: list[dict] = []

    def _spawn(self, mode: str, argvs) -> tuple[dict, float]:
        job_path = self.work / f"job-{mode}.json"
        result_path = self.work / f"result-{mode}.json"
        job_path.write_text(json.dumps({"src": str(self.root / "src"), "mode": mode,
                                        "commands": argvs}))
        result_path.unlink(missing_ok=True)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Timeout("run budget exhausted")
        with open(self.work / f"stderr-{mode}.txt", "w") as err:
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path)],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise Timeout(f"{mode} process exceeded the run budget") from None
        if code != 0 or not result_path.exists():
            tail = (self.work / f"stderr-{mode}.txt").read_text()[-2000:]
            raise RuntimeError(f"{mode} process exited with {code}: {tail}")
        return json.loads(result_path.read_text()), spawned

    def setup_sample(self) -> float:
        result, spawned = self._spawn("setup", [])
        return result["ready"] - spawned

    def iteration(self, mode: str) -> dict | None:
        """Run the command list once in a fresh process, then check and hash
        its outputs.  The memory pass runs only the commands marked for it.
        Returns the child's result with its set-up time, or None when the
        process timed out or crashed."""
        commands = [c for c in self.commands if mode != "memory" or c.memory]
        out_root = self.commands[0].out.parent
        shutil.rmtree(out_root, ignore_errors=True)
        out_root.mkdir(parents=True)
        self.attempted += len(commands)
        try:
            result, spawned = self._spawn(mode, [c.argv for c in commands])
        except (Timeout, RuntimeError) as exc:
            self._fail_all(len(commands), f"{mode}: {exc}")
            return None
        result["setup_s"] = result["ready"] - spawned
        digests = {str(p.relative_to(out_root)): _sha256_file(p)
                   for p in sorted(out_root.rglob("*")) if p.is_file()}
        if self.reference is None:
            self.reference = digests
        for cmd, res in zip(commands, result["commands"]):
            problems = []
            if res["error"] is not None:
                problems.append(res["error"])
            elif res["code"] != 0:
                problems.append(f"exit code {res['code']}")
            else:
                try:
                    problems += [f"{name}: {detail}"
                                 for name, ok, detail in cmd.check(cmd.out, res["stdout"])
                                 if not ok]
                except (OSError, ValueError, KeyError) as exc:
                    problems.append(f"output check could not run: {exc!r}")
            problems += self._digest_mismatches(cmd, digests)
            res["problems"] = problems
            if problems:
                self.failed += 1
                self.failures.append(f"{mode} {cmd.name}: " + "; ".join(problems))
        self.iterations.append({"mode": mode, "wall_s": result["wall_s"],
                                "setup_s": result["setup_s"],
                                "peak_rss_kb": result["peak_rss_kb"],
                                "commands": [dict(name=c.name, problems=r["problems"],
                                                  **{k: r[k] for k in ("seconds", "user_s", "sys_s",
                                                                       "minor_faults")})
                                             for c, r in zip(commands, result["commands"])]})
        return result

    def _fail_all(self, count, reason):
        self.failed += count
        self.failures.append(reason)

    def _digest_mismatches(self, cmd, digests) -> list[str]:
        prefix = cmd.name + os.sep
        names = {k for k in set(digests) | set(self.reference) if k.startswith(prefix)}
        return [f"artifact {k} differs from an earlier run" for k in sorted(names)
                if digests.get(k) != self.reference.get(k)]


def load_reference_digests(path: Path, key: str) -> dict[str, str] | None:
    """Digests stored by an earlier run of the same program and benchmark
    sources and seed."""
    try:
        stored = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return stored["digests"] if stored.get("key") == key else None


def layer_metrics(layers: dict, peaks: dict, overhead: float) -> dict:
    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def count(name, key="calls"):
        return layers.get(name, {}).get(key, 0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {}
    for kind in ("free", "cyclic", "lattice"):
        name = f"groups.{kind}"
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.elements"] = (count(name, "elements"), "count")
        m[f"{name}.elements_per_s"] = (rate(count(name, "elements"), self_s(name)), "1/s")
    m["groups.free.peak_traced_mb"] = (peaks.get("groups.free", 0) / MB, "MB")
    m["groups.lattice.peak_traced_mb"] = (peaks.get("groups.lattice", 0) / MB, "MB")
    m["groups.conjugated.self_s"] = (self_s("groups.conjugated"), "s")
    for name in ("counting", "sequences"):
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.calls"] = (count(name), "count")
    for part in ("measure", "audit", "histogram", "render"):
        m[f"patterson.{part}.self_s"] = (self_s(f"patterson.{part}"), "s")
    written = count("cli.artifacts", "bytes")
    m["cli.artifacts.self_s"] = (self_s("cli.artifacts"), "s")
    m["cli.artifacts.bytes"] = (written, "B")
    m["cli.artifacts.mb_per_s"] = (rate(written / MB, self_s("cli.artifacts")), "MB/s")
    m["cli.config.self_s"] = (self_s("cli.config"), "s")
    m["hyperbolic.calls"] = (count("hyperbolic"), "count")
    m["hyperbolic.self_s"] = (self_s("hyperbolic"), "s")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    """Untraced iterations for about `seconds` (at least MIN_ITERATIONS),
    each after SETUP_SAMPLES_PER_ITERATION set-up-only processes.  Empty
    when no iteration completed."""
    walls, peaks, setups = [], [], []
    first = time.monotonic()
    while True:
        elapsed = time.monotonic() - first
        per_iteration = elapsed / len(walls) if walls else 0.0  # checks included
        if len(walls) >= MIN_ITERATIONS and elapsed + per_iteration > seconds:
            break
        if time.monotonic() + 1.5 * per_iteration > runner.deadline:
            break
        setups += [runner.setup_sample() for _ in range(SETUP_SAMPLES_PER_ITERATION)]
        result = runner.iteration("plain")
        if result is None:
            break
        walls.append(result["wall_s"])
        peaks.append(result["peak_rss_kb"] / 1024.0)
        setups.append(result["setup_s"])
    if not walls:
        return {}
    return {"wall_s": dict(_describe(walls), unit="s"),
            "setup_s": dict(_describe(setups), unit="s"),
            "peak_rss_mb": dict(_describe(peaks), unit="MB")}


def _mean_self_s(first: dict, second: dict) -> dict:
    """The first traced iteration's per-layer totals, with self_s averaged
    over both traced iterations (their counts are equal)."""
    return {name: dict(row, self_s=(row["self_s"] + second[name]["self_s"]) / 2)
            for name, row in first.items()}


def measure_layers(runner: Runner) -> tuple[dict, list]:
    """A traced, an untraced and a second traced iteration, then the memory
    pass; the per-layer metrics and the first traced iteration's spans, or
    nothing when an iteration did not complete.

    The untraced iteration sits between the traced ones, so a CPU whose
    speed drifts steadily over the run moves the mean traced time as much
    as the untraced one, and trace.overhead keeps only the wrappers' cost.
    """
    first = runner.iteration("trace")
    plain = first and runner.iteration("plain")
    second = plain and runner.iteration("trace")
    memory = second and runner.iteration("memory")
    if not memory:
        return {}, []
    overhead = (first["wall_s"] + second["wall_s"]) / (2 * plain["wall_s"])
    layers = _mean_self_s(first["layers"], second["layers"])
    return layer_metrics(layers, memory["peak_traced_bytes"], overhead), first["spans"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "kleinian" / "cli.py").is_file():
        print(f"error: no kleinian sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2

    work = root / ".bench_build" / "perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    theta = workloads.draw_rotation(args.seed)
    prov = provenance(root, args, theta)
    configs = workloads.make_configs(args.seed, work / "configs")
    lattice_count = (workloads.lattice_ball_count(workloads.LATTICE_CENSUS_RADIUS)
                     if args.workload == "exact-census" else None)
    commands = workloads.commands(args.workload, configs, args.seed, work / "out",
                                  lattice_count)
    digest_path = root / ".bench_build" / "perfbench" / "digests" / \
        f"{args.workload}-seed{args.seed}.json"
    digest_key = prov["src_sha256"] + prov["bench_sha256"]
    stored = load_reference_digests(digest_path, digest_key)
    runner = Runner(root, work, commands, start + RUN_BUDGET_S, stored)

    report = {"provenance": prov}
    metrics = {}
    try:
        runner.setup_sample()  # warm-up, not recorded
        if args.trace == 0:
            stats = measure_end_to_end(runner, args.seconds)
            if stats:
                report["end_to_end"] = stats
                metrics = {k: (v["median"], v["unit"]) for k, v in stats.items()}
        else:
            metrics, report["spans"] = measure_layers(runner)
    except (Timeout, RuntimeError) as exc:  # a set-up process failed
        runner.failures.append(str(exc))
        runner.failed = max(runner.failed, 1)
        runner.attempted = max(runner.attempted, 1)

    report["iterations"] = runner.iterations
    if stored is None and runner.failed == 0 and runner.reference:
        digest_path.parent.mkdir(parents=True, exist_ok=True)
        digest_path.write_text(json.dumps({"key": digest_key, "digests": runner.reference},
                                          indent=1))
    report["failures"] = runner.failures
    (work / "report.json").write_text(json.dumps(report, indent=1))

    correct = runner.failed == 0 and bool(metrics)
    for line in runner.failures:
        print(f"FAIL {line}")
    print(f"provenance {json.dumps(prov)}")
    for name, entry in report.get("end_to_end", {}).items():
        print(f"{name}: median {entry['median']:.6g} {entry['unit']} "
              f"(q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']})")
    for name, (value, unit) in metrics.items():
        if name not in report.get("end_to_end", {}):
            print(f"{name}: {value:.6g} {unit}")
    print(f"error_rate: {runner.failed}/{runner.attempted} commands failed")
    print(json.dumps({"correct": correct, "attempted": max(runner.attempted, 1),
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh process of the benchmark: import `kleinian`, then run a list of
`kleinian` commands in-process through `kleinian.cli.main`.

Usage: python3 child.py JOB.json RESULT.json

The job names the source directory, the mode and the commands:
  setup   import only (a set-up sample);
  plain   run the commands untraced (the timed runs);
  trace   run them with span wrappers (per-layer times and counts);
  memory  run them with tracemalloc inside free and lattice enumerations.
The result holds the monotonic clock reading once `kleinian` is imported,
each command's exit code, exception, stdout and duration, the wall time of
the whole list, the peak resident memory and, in trace and memory mode,
the recorded layers.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def run(job: dict, cli) -> dict:
    result = {}
    probe = None
    if job["mode"] in ("trace", "memory"):
        import spans
        probe = spans.Tracer() if job["mode"] == "trace" else spans.MemoryProbe()
        probe.install()
    commands = []
    start = time.perf_counter()
    for argv in job["commands"]:
        buf = io.StringIO()
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed command
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        seconds = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        commands.append({"code": code, "error": error, "stdout": buf.getvalue(),
                         "seconds": seconds, "user_s": r1.ru_utime - r0.ru_utime,
                         "sys_s": r1.ru_stime - r0.ru_stime,
                         "minor_faults": r1.ru_minflt - r0.ru_minflt})
    result["wall_s"] = time.perf_counter() - start
    result["commands"] = commands
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if job["mode"] == "trace":
        result["layers"] = probe.summary()
        result["spans"] = probe.spans
    elif job["mode"] == "memory":
        result["peak_traced_bytes"] = probe.peak_bytes
    return result


def main() -> int:
    from kleinian import cli
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"kleinian imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {"ready": ready}
    if job["mode"] != "setup":
        result.update(run(job, cli))
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

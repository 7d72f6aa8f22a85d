"""Span wrappers installed from outside the program for the traced runs.

`Tracer.install` replaces the module attributes the CLI calls through with
wrappers that record a span (name, start, end, parent, attributes) per
call.  Scalar primitives of `hyperbolic` are called hundreds of thousands
of times, so their calls are aggregated into a count and a total instead
of one span each; their time is still subtracted from the enclosing span's
self time.  `MemoryProbe.install` is the separate memory pass: it runs
tracemalloc only inside free and lattice enumerations.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc

from kleinian import cli, counting, groups, hyperbolic, patterson, sequences

# Layer of each group kind.
KIND_LAYER = {
    "schottky": "groups.free",
    "nested_subgroup": "groups.free",
    "cyclic_hyperbolic": "groups.cyclic",
    "cyclic_parabolic": "groups.cyclic",
    "modular_lattice": "groups.lattice",
    "conjugated": "groups.conjugated",
}

PATTERSON_LAYER = {
    "orbital_measure": "patterson.measure",
    "conformal_ratio_audit": "patterson.audit",
    "equivariance_audit": "patterson.audit",
    "shadow_lemma_audit": "patterson.audit",
    "shadow_cover_bound": "patterson.audit",
    "shadow_mass": "patterson.audit",
    "boundary_histogram": "patterson.histogram",
    "render_ppm": "patterson.render",
}

# Scalar primitives, patched where other modules bound them by name.
SCALAR_BINDINGS = [
    (groups, "distance"),
    (counting, "distance"),
    (patterson, "distance"),
    (patterson, "shadow"),
    (patterson, "direction_from"),
    (patterson, "busemann"),
    (hyperbolic.Isometry, "compose"),
    (hyperbolic.Isometry, "__matmul__"),
    (hyperbolic.Isometry, "apply"),
]

CSV_WRITERS = [groups.OrbitCensus, counting.CountingReport,
               patterson.AtomicMeasure, patterson.BoundaryHistogram]


def _public_functions(module):
    return [name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


class Tracer:
    """In-memory span recorder; single-threaded, spans nest strictly."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.scalar_calls = 0
        self.scalar_seconds = 0.0
        self._in_scalar = False

    def _span(self, name_of, fn, before=None, after=None):
        """Wrap fn in a span.  name_of is the span name or a function of the
        call's arguments; before(args, kwargs) and after(args, kwargs,
        result, state) gather the span's attributes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs) if callable(name_of) else name_of
            index = len(self.spans)
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(index)
            self._child_time.append(0.0)
            state = before(args, kwargs) if before else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                children = self._child_time.pop()
                span["start"], span["end"] = start, end
                span["self"] = (end - start) - children
                if self._child_time:
                    self._child_time[-1] += end - start
            if after:
                span.update(after(args, kwargs, result, state))
            return result
        return wrapper

    def _scalar(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_scalar:
                return fn(*args, **kwargs)
            self._in_scalar = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_scalar = False
                self.scalar_calls += 1
                self.scalar_seconds += elapsed
                if self._child_time:
                    self._child_time[-1] += elapsed
        return wrapper

    def install(self):
        def enumerate_name(args, kwargs):
            spec = args[0] if args else kwargs["spec"]
            return KIND_LAYER[spec.kind]

        def enumerate_attrs(args, kwargs, result, state):
            spec = args[0] if args else kwargs["spec"]
            return {} if spec.kind == "conjugated" else {"elements": len(result)}

        groups.enumerate_orbit = self._span(
            enumerate_name, groups.enumerate_orbit, after=enumerate_attrs)
        for name in _public_functions(counting):
            setattr(counting, name, self._span("counting", getattr(counting, name)))
        for name in _public_functions(sequences):
            setattr(sequences, name, self._span("sequences", getattr(sequences, name)))
        for name, layer in PATTERSON_LAYER.items():
            setattr(patterson, name, self._span(layer, getattr(patterson, name)))
        cli.load_config = self._span("cli.config", cli.load_config)

        def handle(args, kwargs):
            return args[1] if len(args) > 1 else kwargs["fh"]

        for cls in CSV_WRITERS:
            cls.write_csv = self._span(
                "cli.artifacts", cls.write_csv,
                before=lambda args, kwargs: handle(args, kwargs).tell(),
                after=lambda args, kwargs, result, start: {
                    "bytes": handle(args, kwargs).tell() - start})
        for owner, name in SCALAR_BINDINGS:
            setattr(owner, name, self._scalar(getattr(owner, name)))

    def summary(self) -> dict:
        """Totals per span name: calls, self seconds and summed attributes."""
        out: dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(span["name"], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += span["self"]
            for key in ("elements", "bytes"):
                if key in span:
                    row[key] = row.get(key, 0) + span[key]
        out["hyperbolic"] = {"calls": self.scalar_calls, "self_s": self.scalar_seconds}
        return out


class MemoryProbe:
    """Peak traced memory of each free or lattice enumeration, with
    tracemalloc running only inside those calls."""

    def __init__(self):
        self.peak_bytes: dict[str, int] = {}

    def install(self):
        enumerate_orbit = groups.enumerate_orbit

        @functools.wraps(enumerate_orbit)
        def wrapper(spec, *args, **kwargs):
            layer = KIND_LAYER[spec.kind]
            if layer not in ("groups.free", "groups.lattice") or tracemalloc.is_tracing():
                return enumerate_orbit(spec, *args, **kwargs)
            tracemalloc.start()
            try:
                return enumerate_orbit(spec, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[layer] = max(self.peak_bytes.get(layer, 0), peak)

        groups.enumerate_orbit = wrapper

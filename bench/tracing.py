"""Spans around the calls into each kgpoint layer, installed from outside.

The program is not changed.  Each wrapper replaces a function at the name its
callers look it up by (solve_trace finds `free_trace` in kgpoint.volterra,
the CLI finds `solve_trace` in kgpoint.cli), records one span per call and is
removed again when the traced pass ends.  A span records its layer, start,
end, the span that was open when it started, and work counts computed from
the call's arguments and result.

A layer's self time is its spans' duration minus the part of that interval
its child spans cover.  A target that no longer exists is skipped, and the
metrics of a layer none of whose targets exist are left out of the result.
A counter that fails on a changed signature or result drops that layer's
work counts, not the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import counts


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict | None = field(default_factory=dict)  # None: the counter failed


class Recorder:
    """Spans of one traced pass, kept in memory; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, layer, fn, args, kwargs, counter):
        # a layer re-entered through a second wrapped name is one span
        if any(self.spans[i].layer == layer for i in self._open):
            return fn(*args, **kwargs)
        span = Span(layer, self.clock(), parent=self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._open.pop()
        if counter is not None:
            try:
                span.counts = counter(args, kwargs, result)
            except Exception:  # the layer's signature or result has changed
                span.counts = None
        return result


def _free_trace_counts(args, kwargs, result):
    initial, times = args[0], args[1]
    return {"mode_steps": counts.mode_steps(initial.grid.n_points, len(times))}


def _solve_trace_counts(args, kwargs, result):
    n_nodes = len(result.trace.z)
    return {"steps": n_nodes - 1, "history_macs": counts.history_macs(n_nodes),
            "failed": int(result.status.value != "completed")}


def _reconstruct_counts(args, kwargs, result):
    initial, trace = args[1], args[2]
    j = trace.index_of(args[3])  # j = 0 returns the initial data without a cone sum
    return {"cone_entries": counts.cone_entries(initial.grid.x, j * trace.dt, trace.dt) if j else 0}


def _lookup_counts(args, kwargs, result):
    return {"points": int(getattr(args[1], "size", 1))}


def _tables_counts(args, kwargs, result):
    tables = args[0]
    return {"entries": len(tables.j0.values) + len(tables.j1x.values)}


# (layer, module, attribute, counter): every name a workload reaches a layer by
TARGETS = [
    ("cli", "kgpoint.cli", "main", None),
    ("config.parse", "kgpoint.cli", "parse_config_text", None),
    ("initial.build", "kgpoint.cli", "build_initial_state", None),
    ("initial.build", "kgpoint.initial", "gaussian_state", None),
    ("volterra.solve_trace", "kgpoint.volterra", "solve_trace", _solve_trace_counts),
    ("volterra.solve_trace", "kgpoint.cli", "solve_trace", _solve_trace_counts),
    ("kernel.free_trace", "kgpoint.volterra", "free_trace", _free_trace_counts),
    ("volterra.reconstruct_field", "kgpoint.volterra", "reconstruct_field",
     _reconstruct_counts),
    ("volterra.reconstruct_field", "kgpoint.cli", "reconstruct_field", _reconstruct_counts),
    ("kernel.free_evolve", "kgpoint.volterra", "free_evolve", None),
    ("kernel.table_lookup", "kgpoint.kernel", "BesselTable.__call__", _lookup_counts),
    ("kernel.tables", "kgpoint.kernel", "KernelTables.__init__", _tables_counts),
    ("solitary.distance_to_manifold", "kgpoint.solitary", "distance_to_manifold", None),
    ("solitary.distance_to_manifold", "kgpoint.cli", "distance_to_manifold", None),
    ("observables", "kgpoint.volterra", "energy_of", None),
    ("observables", "kgpoint.volterra", "charge_of", None),
    ("output", "kgpoint.output", "write_trace_csv", None),
    ("output", "kgpoint.output", "write_snapshot_csv", None),
    ("output", "kgpoint.output", "write_spectrum_csv", None),
    ("output", "kgpoint.output", "write_report", None),
] + [("spectral", module, name, None)
     for module in ("kgpoint.spectral", "kgpoint.cli")
     for name in ("windowed_spectrum", "gap_mass_fraction", "dominant_frequency",
                  "modulus_variation", "late_window")]


def _resolve(module_name, attribute):
    """(owner, name, current value) of a dotted attribute, or None if missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name, getattr(owner, name)


def _wrapper(recorder, layer, fn, counter):
    def wrapped(*args, **kwargs):
        return recorder.call(layer, fn, args, kwargs, counter)
    return wrapped


@contextmanager
def installed(recorder: Recorder, targets=TARGETS):
    """Wrap every target that exists; yields the set of layers that got one."""
    saved = []
    layers = set()
    try:
        for layer, module_name, attribute, counter in targets:
            found = _resolve(module_name, attribute)
            if found is None:
                continue
            owner, name, fn = found
            saved.append((owner, name, fn))
            setattr(owner, name, _wrapper(recorder, layer, fn, counter))
            layers.add(layer)
        yield layers
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.end - span.start - covered_length(children.get(i, ()), span.start, span.end)
            for i, span in enumerate(spans)]


# totals every span has; any other total is a work count from a counter
SPAN_TOTALS = {"s", "self_s", "calls"}

# (metric, layer, total of the layer's spans, unit); a pair (time, work) is
# nanoseconds per unit of work, 0 where the layer did no work
METRICS = [
    ("kernel.free_trace.s", "kernel.free_trace", "s", "s"),
    ("kernel.free_trace.calls", "kernel.free_trace", "calls", "count"),
    ("kernel.free_trace.mode_steps", "kernel.free_trace", "mode_steps", "count"),
    ("kernel.free_trace.ns_per_mode_step", "kernel.free_trace", ("s", "mode_steps"),
     "ns/mode_step"),
    ("volterra.solve_trace.self_s", "volterra.solve_trace", "self_s", "s"),
    ("volterra.solve_trace.steps", "volterra.solve_trace", "steps", "count"),
    ("volterra.solve_trace.history_macs", "volterra.solve_trace", "history_macs", "count"),
    ("volterra.solve_trace.ns_per_history_mac", "volterra.solve_trace",
     ("self_s", "history_macs"), "ns/history_mac"),
    ("volterra.solve_trace.failed", "volterra.solve_trace", "failed", "count"),
    ("volterra.reconstruct_field.self_s", "volterra.reconstruct_field", "self_s", "s"),
    ("volterra.reconstruct_field.calls", "volterra.reconstruct_field", "calls", "count"),
    ("volterra.reconstruct_field.cone_entries", "volterra.reconstruct_field", "cone_entries",
     "count"),
    ("volterra.reconstruct_field.ns_per_cone_entry", "volterra.reconstruct_field",
     ("self_s", "cone_entries"), "ns/cone_entry"),
    ("kernel.table_lookup.s", "kernel.table_lookup", "s", "s"),
    ("kernel.table_lookup.points", "kernel.table_lookup", "points", "count"),
    ("kernel.tables.build_s", "kernel.tables", "s", "s"),
    ("kernel.tables.entries", "kernel.tables", "entries", "count"),
    ("kernel.free_evolve.s", "kernel.free_evolve", "s", "s"),
    ("solitary.distance_to_manifold.s", "solitary.distance_to_manifold", "s", "s"),
    ("solitary.distance_to_manifold.calls", "solitary.distance_to_manifold", "calls", "count"),
    ("spectral.s", "spectral", "s", "s"),
    ("observables.s", "observables", "s", "s"),
    ("output.write_s", "output", "s", "s"),
    ("config.parse_s", "config.parse", "s", "s"),
    ("initial.build_s", "initial.build", "s", "s"),
    ("cli.self_s", "cli", "self_s", "s"),
]


def layer_metrics(spans: list[Span], layers: set[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics {name: (value, unit)} of one traced pass.

    `layers` names the layers whose functions were wrapped; the metrics of
    any other layer are left out, and so are the work counts of a layer
    whose counter failed on any of its spans.
    """
    totals = {layer: Counter() for layer in layers}
    uncounted = set()
    for span, own in zip(spans, self_times(spans)):
        t = totals[span.layer]
        t["s"] += span.end - span.start
        t["self_s"] += own
        t["calls"] += 1
        if span.counts is None:
            uncounted.add(span.layer)
        else:
            t.update(span.counts)
    out = {}
    for name, layer, total, unit in METRICS:
        keys = set(total) if isinstance(total, tuple) else {total}
        if layer not in totals or (layer in uncounted and not keys <= SPAN_TOTALS):
            continue
        t = totals[layer]
        if isinstance(total, tuple):
            seconds, work = total
            out[name] = (1e9 * t[seconds] / t[work] if t[work] else 0.0, unit)
        else:
            out[name] = (t[total], unit)
    return out

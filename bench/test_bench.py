"""Checks of the benchmark's own arithmetic on tiny inputs.

    python3 -m pytest bench/test_bench.py -q
"""

import sys
import types

import numpy as np
import pytest

import counts
import run
import tracing


# ------------------------------------------------------------ computed counts

@pytest.mark.parametrize("n_points,n_times", [(3, 1), (5, 7), (17, 33), (65, 2)])
def test_mode_steps_matches_loop(n_points, n_times):
    # free_trace rotates every periodic mode (the last node duplicates the first) once per time
    brute = sum(1 for _ in range(n_times) for _ in range(n_points - 1))
    assert counts.mode_steps(n_points, n_times) == brute


@pytest.mark.parametrize("n_nodes", [1, 2, 3, 10, 101])
def test_history_macs_matches_solver_loop(n_nodes):
    g = np.zeros(n_nodes)
    brute = sum(len(g[:j]) for j in range(1, n_nodes))  # np.dot(g[:j], ...) at step j
    assert counts.history_macs(n_nodes) == brute


def _cone_entries_loop(x, t, dt):
    c = (len(x) - 1) // 2
    n_times = int(round(t / dt)) + 1
    total = 0
    for xi in x[c:]:
        for j in range(n_times):
            if j * dt <= t - abs(xi) + 1e-12 * dt:
                total += 1
    return total


@pytest.mark.parametrize("half_extent,n_points,t,dt", [
    (1.0, 5, 0.5, 0.1),      # node on the cone edge: t - x = 0 exactly
    (1.0, 9, 2.0, 0.25),     # cone wider than the grid
    (2.0, 17, 1.3, 0.1),     # edges between trace nodes
    (3.0, 31, 0.0, 0.1),     # t = 0: only x = 0 meets the single node
    (0.5, 11, 0.3, 0.02),
])
def test_cone_entries_matches_loop(half_extent, n_points, t, dt):
    x = np.linspace(-half_extent, half_extent, n_points)
    assert counts.cone_entries(x, t, dt) == _cone_entries_loop(x, t, dt)


# ------------------------------------------------------------ self time

@pytest.mark.parametrize("intervals,lo,hi,expected", [
    ([], 0.0, 10.0, 0.0),
    ([(1.0, 3.0), (3.0, 5.0)], 0.0, 10.0, 4.0),          # back to back
    ([(1.0, 6.0), (2.0, 3.0)], 0.0, 10.0, 5.0),          # nested
    ([(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)], 0.0, 10.0, 6.0),  # overlapping plus a gap
    ([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0, 2.0),        # clipped to the parent
    ([(4.0, 4.0)], 0.0, 10.0, 0.0),                      # empty
])
def test_covered_length(intervals, lo, hi, expected):
    assert tracing.covered_length(intervals, lo, hi) == pytest.approx(expected)


def test_self_times_subtract_direct_children_only():
    S = tracing.Span
    spans = [S("outer", 0.0, 10.0),
             S("a", 1.0, 3.0, parent=0),
             S("b", 3.0, 5.0, parent=0),      # back to back with a
             S("c", 1.5, 2.5, parent=1)]      # nested inside a
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0])


class _TickClock:
    """Deterministic clock: each reading advances time by one."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_module():
    mod = types.ModuleType("bench_fake_layers")

    def inner(n):
        return n

    def outer(n):
        return mod.inner(n) + mod.inner(n)

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_wrapped_calls_record_spans_and_missing_targets_are_skipped(fake_module):
    recorder = tracing.Recorder(clock=_TickClock())
    targets = [("outer", fake_module.__name__, "outer", None),
               ("inner", fake_module.__name__, "inner",
                lambda args, kwargs, result: {"points": result}),
               ("gone", fake_module.__name__, "renamed_away", None),
               ("gone", "bench_no_such_module", "f", None)]
    original = fake_module.outer
    with tracing.installed(recorder, targets) as layers:
        assert fake_module.outer(3) == 6
    assert fake_module.outer is original
    assert layers == {"outer", "inner"}
    # ticks: outer 1..6, inner 2..3 and 4..5
    assert [(s.layer, s.start, s.end, s.parent) for s in recorder.spans] == [
        ("outer", 1.0, 6.0, None), ("inner", 2.0, 3.0, 0), ("inner", 4.0, 5.0, 0)]
    assert tracing.self_times(recorder.spans) == pytest.approx([3.0, 1.0, 1.0])
    assert sum(s.counts.get("points", 0) for s in recorder.spans) == 6


def test_layer_metrics_leave_out_unwrapped_layers():
    spans = [tracing.Span("kernel.free_trace", 0.0, 2.0, counts={"mode_steps": 4})]
    metrics = tracing.layer_metrics(spans, {"kernel.free_trace", "spectral"})
    assert metrics["kernel.free_trace.s"] == (2.0, "s")
    assert metrics["kernel.free_trace.ns_per_mode_step"] == (0.5e9, "ns/mode_step")
    assert metrics["spectral.s"] == (0.0, "s")
    assert not any(name.startswith("volterra.") for name in metrics)


def test_failing_counter_drops_only_that_layers_work_counts(fake_module):
    def broken(args, kwargs, result):
        return {"mode_steps": args[5]}  # an argument the call no longer has

    recorder = tracing.Recorder(clock=_TickClock())
    targets = [("kernel.free_trace", fake_module.__name__, "inner", broken),
               ("volterra.solve_trace", fake_module.__name__, "outer",
                lambda args, kwargs, result: {"steps": result})]
    with tracing.installed(recorder, targets) as layers:
        assert fake_module.outer(3) == 6
    metrics = tracing.layer_metrics(recorder.spans, layers)
    assert metrics["kernel.free_trace.s"] == (2.0, "s")
    assert metrics["kernel.free_trace.calls"] == (2, "count")
    assert "kernel.free_trace.mode_steps" not in metrics
    assert "kernel.free_trace.ns_per_mode_step" not in metrics
    assert metrics["volterra.solve_trace.steps"] == (6, "count")


# ------------------------------------------------------------ percentiles

@pytest.mark.parametrize("n", [11, 12, 19, 20, 37, 100, 250])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    samples = [float(v) for v in np.random.default_rng(n).permutation(n)]
    p, value = run.tail_percentile(samples)
    assert sum(s > value for s in samples) >= 10
    # the next whole percentile would leave fewer than ten beyond it
    rank = -(-(p + 1) * n // 100)
    assert n - rank < 10


def test_tail_percentile_needs_eleven_samples():
    assert run.tail_percentile([1.0] * 10) is None

"""kgpoint benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload attract_seed --seed 3 --seconds 25 --trace 0

kgpoint is imported from the src/ directory beside this one, never from an
installed copy.  Load shape: closed loop, one client, one process; each pass
starts when the previous one has ended.  BLAS is pinned to one thread, because
two threads already slow solve_trace down on a 2-core machine.

A run makes one warm-up pass whose outputs are checked against the acceptance
thresholds, then passes until --seconds have gone by.  --trace 0 spreads
SETUP_PROBES set-up probes (fresh processes, stopped at the first solver call)
over the same seconds, between the passes, so that their median sees the same
load as the passes do.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes in this process, fails if any traced pass computes a different
trace than the untraced ones, and reports the per-layer metrics (medians over
the traced passes) and the tracing overhead.

Summary lines go first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  The full record of the run
(environment, every pass time, every check) is written under .bench_run/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

WORKLOAD_NAMES = ("solitary_simulate", "attract_seed", "long_sweep")
SETUP_PROBES = 15
MIN_PASSES = 3
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    return p.parse_args(argv)


# ---------------------------------------------------------------- environment

def _openblas():
    """The OpenBLAS library this process loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _openblas_call(lib, suffix: str, restype):
    for prefix in ("scipy_openblas_", "openblas_"):
        for tail in ("64_", ""):
            fn = getattr(lib, prefix + suffix + tail, None) if lib is not None else None
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def _cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def _loadavg() -> str:
    with open("/proc/loadavg", encoding="utf-8") as fh:
        return fh.read().strip()


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int, data_seed: int) -> dict:
    import numpy as np

    lib = _openblas()
    config = _openblas_call(lib, "get_config", ctypes.c_char_p)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "numpy": np.__version__,
        "openblas": config.decode() if config else "not loaded",
        "blas_threads": _openblas_call(lib, "get_num_threads", ctypes.c_int),
        "loadavg_start": _loadavg(),
        "git_commit": _git_commit(),
        "seed": seed,
        "data_seed": data_seed,
    }


# ---------------------------------------------------------------- statistics

def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile p with at least ten samples above its
    nearest-rank value, and that value; None with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    rank = max(-(-p * n // 100), 1)  # ceil(p n / 100), nearest-rank definition
    return p, sorted(samples)[rank - 1]


def describe(name: str, samples: list[float], unit: str) -> str:
    tail = tail_percentile(samples)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} {unit}" if tail
                 else "no tail percentile (fewer than 11 samples)")
    return (f"{name}: median {statistics.median(samples):.4f} {unit}, {tail_text}, "
            f"n={len(samples)}")


# ---------------------------------------------------------------- measuring

def timed(fn) -> tuple[float, bool]:
    t0 = time.perf_counter()
    ok = fn()
    return time.perf_counter() - t0, ok


def setup_probe(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh process to the workload's first solver call."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload,
                           str(seed), str(workdir)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe of {workload} failed (exit {proc.returncode})")
    return elapsed


def keep_going(deadline: float, done: int, per_round: list[list[float]]) -> bool:
    """Another round fits before the deadline (at least MIN_PASSES rounds)."""
    if done < MIN_PASSES:
        return True
    return time.perf_counter() + sum(statistics.median(s) for s in per_round) <= deadline


def run_untraced(wl, args, workdir: Path, record: dict) -> dict:
    warm, ok = timed(wl.run_pass)
    attempted, failed = 1, int(not ok)
    checks, trace_err, energy_drift = wl.checks()
    ref = wl.digest()
    same = True
    times: list[float] = []
    setup: list[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while keep_going(deadline, len(times), [times]):
        t, ok = timed(wl.run_pass)
        times.append(t)
        attempted += 1
        failed += not ok
        same &= wl.digest() == ref
        # probes keep pace with the share of the seconds gone by
        due = math.ceil(SETUP_PROBES * (time.perf_counter() - start) / args.seconds)
        while len(setup) < min(due, SETUP_PROBES):
            setup.append(setup_probe(args.workload, args.seed, workdir))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args.workload, args.seed, workdir))
    checks["passes_bit_identical"] = same
    n_bad = sum(not v for v in checks.values())
    record.update(warmup_s=warm, run_s=times, setup_s=setup, checks=checks,
                  attempted=attempted, failed=failed)
    print(describe("run_s", times, "s"))
    print(describe("setup_s", record["setup_s"], "s"))
    return {
        "run_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(record["setup_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "trace_err": (trace_err, "1"),
        "energy_drift": (energy_drift, "1"),
        # one failure added to both counts keeps the share above 0 on a clean run
        "fail_frac": ((n_bad + 1) / (len(checks) + 1), "1"),
    }


def run_traced(wl, args, workdir: Path, record: dict) -> dict:
    import tracing

    warm, ok = timed(wl.run_pass)
    attempted, failed = 1, int(not ok)
    checks, _, _ = wl.checks()
    ref = wl.digest()
    same_untraced = same_traced = True
    untraced: list[float] = []
    traced: list[float] = []
    rows: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while keep_going(deadline, len(traced), [untraced, traced]):
        t, ok = timed(wl.run_pass)
        untraced.append(t)
        failed += not ok
        same_untraced &= wl.digest() == ref
        recorder = tracing.Recorder()
        with tracing.installed(recorder) as layers:
            t, ok = timed(wl.run_pass)
        traced.append(t)
        failed += not ok
        attempted += 2
        same_traced &= wl.digest() == ref
        row = tracing.layer_metrics(recorder.spans, layers)
        row["output.bytes"] = (wl.output_bytes(), "B")
        rows.append(row)
    checks["passes_bit_identical"] = same_untraced
    checks["traced_matches_untraced"] = same_traced
    record.update(warmup_s=warm, run_s_untraced=untraced, run_s_traced=traced,
                  layers=rows, checks=checks, attempted=attempted, failed=failed)
    print(describe("run_s untraced", untraced, "s"))
    print(describe("run_s traced", traced, "s"))
    # a layer whose counter failed in some pass has no work counts in that row
    metrics = {name: (statistics.median(row[name][0] for row in rows), unit)
               for name, (_, unit) in rows[0].items() if all(name in row for row in rows)}
    metrics["trace_overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kgpoint" / "__init__.py").is_file():
        print(f"error: kgpoint sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)  # before numpy loads BLAS
    sys.path.insert(0, str(SRC))
    import kgpoint
    import workloads

    if not Path(kgpoint.__file__).resolve().is_relative_to(SRC):
        print(f"error: kgpoint imported from {kgpoint.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed, workloads.data_seed(args.seed))}
    print("env " + json.dumps(record["env"]))
    try:
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
        wl.prepare()
        run = run_traced if args.trace else run_untraced
        metrics = run(wl, args, workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"]["loadavg_end"] = _loadavg()
    record["metrics"] = metrics
    print("checks " + json.dumps(record["checks"]))
    print("loadavg_end " + record["env"]["loadavg_end"])
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": all(record["checks"].values()) and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

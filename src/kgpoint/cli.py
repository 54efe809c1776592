"""Command-line interface.

Subcommands:

* simulate  -- run the Volterra solver per config, write trace/snapshots/report
* solitary  -- print or write the solitary-wave table at a given C or omega
* spectrum  -- windowed spectrum of a stored trace file
* attract   -- attraction diagnostics: per-window distance series plus the
               late-window omega-limit report
* sweep     -- run a config template over parameter ranges (cartesian), one
               report row per run
* compare   -- volterra vs finite-difference oracle on identical data

The config-reading subcommands (simulate, attract, sweep, compare) each take
a required --config; simulate, attract and compare also take --set
SEC.KEY=VAL overrides (the seed is run.seed).  solitary takes its model from
--mass and at most one of --u and --a, and its waves from exactly one of --C
and --omega.  Every table goes through `output.format_table`.

Exit codes: 0 ok, 1 run failure, 2 input failure: an invalid config (including
a dt too large for the trace solver's implicit node), an invalid flag value or
input file, or inputs too large for memory.  All outputs are deterministic
functions of (config, seed); errors are printed to stderr as `error: ...`
lines, one per input failure (one per violated rule of a config).
"""

from __future__ import annotations

import argparse
import configparser
import io
import itertools
import os
import sys

import numpy as np

from . import output as out
from .config import ConfigError, RunConfig, build_initial_state, parse_config_text
from .fd import check_cfl, fd_evolve
from .fields import FieldState, TraceSeries
from .model import OscillatorModel, well_posed_linear
from .observables import seminorm_terms
from .solitary import (LinearSpanFit, LinearWaveFamily, SolitaryWave,
                       distance_to_manifold, waves_at_omega, waves_from_amplitude)
from .spectral import (Window, dominant_frequency, late_window, window_diagnostics,
                       windowed_spectrum)
from .volterra import SolveStatus, check_step, reconstruct_fields, solve_full, solve_trace


def _fail(code: int, *messages: str) -> int:
    for msg in messages:
        print(f"error: {msg}", file=sys.stderr)
    return code


def _load_cfg(args) -> tuple[RunConfig, FieldState]:
    """Config from --config with its --set overrides, and its initial state."""
    cfg = parse_config_text(_config_text(args.config, args.set))
    return cfg, build_initial_state(cfg)


def _config_text(path: str, overrides: list[str]) -> str:
    """Text of the config file at path with each section.key=value override
    set (sections added as needed)."""
    cp = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        cp.read_file(fh)  # an INI error names the file
    for item in overrides:
        key, eq, value = item.partition("=")
        section, _, option = key.strip().partition(".")
        if not section or not option or not eq:
            raise ConfigError([f"override {item!r} is not section.key=value"])
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, option, value.strip())
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_simulate(args) -> int:
    cfg, initial = _load_cfg(args)
    outdir = _outdir(args)
    report, snapshots = solve_full(cfg.model, initial, cfg.T, cfg.dt,
                                   snapshot_times=cfg.snapshots,
                                   energy_tol=cfg.energy_tol)
    out.write_trace_csv(os.path.join(outdir, "trace.csv"), report.trace,
                        report.energy_samples, report.charge_samples)
    for state in snapshots:
        out.write_snapshot_csv(os.path.join(outdir, f"snapshot_t{state.time:.6f}.csv"), state)
    # a trace the solver stopped early gets no spectra, as it gets no snapshots
    stopped = report.status in (SolveStatus.NON_FINITE, SolveStatus.TRACE_BOUND_EXCEEDED)
    for i, (w0, w1) in enumerate([] if stopped else cfg.spectrum_windows):
        spec = windowed_spectrum(report.trace, 0.5 * (w0 + w1), w1 - w0, Window.HANN)
        out.write_spectrum_csv(os.path.join(outdir, f"spectrum_{i}.csv"), spec)
    out.write_report(os.path.join(outdir, "report.txt"), out.report_sections_from_solve(report))
    if report.status is not SolveStatus.COMPLETED:
        return _fail(1, f"run status {report.status.value}: {report.message}")
    return 0


def _model_from_args(args) -> OscillatorModel:
    mass = args.mass if args.mass is not None else 1.0
    if args.a is not None:
        return well_posed_linear(mass, args.a)
    try:
        coeffs = [float(c) for c in (args.u or "0,-1,1").split(",")]
    except ValueError as exc:
        raise ValueError(f"--u {args.u}: {exc}") from None
    return OscillatorModel.polynomial(mass, coeffs)


def cmd_solitary(args) -> int:
    model = _model_from_args(args)
    waves = (waves_from_amplitude(model, args.C) if args.C is not None
             else waves_at_omega(model, args.omega))
    if isinstance(waves, LinearWaveFamily):
        print(f"continuous family: kappa = {waves.kappa!r}, omega = {waves.omega!r}, any C")
        return 0
    rows = [(w.amplitude, w.kappa, w.omega) for w in waves]
    table = out.format_table(("C", "kappa", "omega"),
                             np.array(rows, dtype=float).reshape(-1, 3).T)
    print(table, end="")
    if args.write:
        out.write_text(os.path.join(_outdir(args), "solitary.csv"), table)
    return 0


def cmd_spectrum(args) -> int:
    times, z, _, _ = out.read_trace_csv(args.trace)
    if len(times) < 2:
        return _fail(2, "trace file too short")
    trace = TraceSeries(dt=float(times[1]), z=z)
    spec = windowed_spectrum(trace, args.t_center, args.t_width, Window(args.window))
    outdir = _outdir(args)
    out.write_spectrum_csv(os.path.join(outdir, "spectrum.csv"), spec)
    print(f"dominant_frequency = {dominant_frequency(spec)!r}")
    return 0


# fewest trace steps in an attract window
_MIN_WINDOW_STEPS = 64


def cmd_attract(args) -> int:
    if args.windows < 2:
        return _fail(2, f"--windows must be at least 2, got {args.windows!r}")
    cfg, initial = _load_cfg(args)
    seminorm_terms(initial, cfg.model.mass, args.radius)  # the radius rule, before the solve
    if round(cfg.T / cfg.dt) < _MIN_WINDOW_STEPS:
        return _fail(2, f"time.T = {cfg.T} is shorter than {_MIN_WINDOW_STEPS} steps of "
                        f"dt = {cfg.dt}, the narrowest attract window")
    outdir = _outdir(args)
    report = solve_trace(cfg.model, initial, cfg.T, cfg.dt)
    if report.status is not SolveStatus.COMPLETED:
        return _fail(1, f"run status {report.status.value}: {report.message}")
    trace = report.trace
    width = max(cfg.T / (2 * args.windows), _MIN_WINDOW_STEPS * cfg.dt)
    late = late_window(cfg.T, cfg.dt)
    # (center, window) of each row: the centred windows, then the late one
    windows = [(tc, (tc - width / 2, tc + width / 2))
               for tc in np.linspace(width / 2, cfg.T - width / 2, args.windows)]
    windows.append((0.5 * (late[0] + late[1]), late))
    # each row's state is at the trace node nearest its window center
    states = reconstruct_fields(cfg.model, initial, trace,
                                [trace.dt * round(tc / trace.dt) for tc, _ in windows])
    rows = [(tc, distance_to_manifold(cfg.model, state, args.radius),
             *window_diagnostics(trace, window, cfg.model.mass))
            for (tc, window), state in zip(windows, states)]
    out.write_table(os.path.join(outdir, "attract_windows.csv"),
                    ("t_center", "rho", "in_gap_fraction", "omega_plus", "modulus_variation"),
                    np.array([(tc, dist.rho, *diag) for tc, dist, *diag in rows[:-1]],
                             dtype=float).T)

    _, dist, in_gap, omega_plus, mvar = rows[-1]
    matched = dist.best
    if isinstance(matched, SolitaryWave):
        desc = {"kind": "solitary", "C": repr(matched.amplitude),
                "theta": repr(matched.theta), "kappa": repr(matched.kappa),
                "omega": repr(matched.omega)}
    elif isinstance(matched, LinearSpanFit):
        desc = {"kind": "linear_span", "c_plus": repr(matched.c_plus),
                "c_minus": repr(matched.c_minus), "omega_a": repr(matched.omega_a)}
    else:
        desc = {"kind": "zero"}
    out.write_report(os.path.join(outdir, "report.txt"), {
        "omega_limit": {
            "omega_plus": repr(omega_plus),
            "in_gap_fraction": repr(in_gap),
            "modulus_variation": repr(mvar),
            "rho": repr(dist.rho),
            "window_start": repr(late[0]),
            "window_end": repr(late[1]),
        },
        "matched_wave": desc,
    })
    return 0


_SWEEP_COLUMNS = ("status", "in_gap_fraction", "omega_plus", "modulus_variation",
                  "late_max_abs_z")


def _sweep_one(cfg: RunConfig) -> tuple[str, ...]:
    """Cells of the _SWEEP_COLUMNS of one sweep run."""
    report = solve_trace(cfg.model, build_initial_state(cfg), cfg.T, cfg.dt)
    if report.status is not SolveStatus.COMPLETED:
        return (report.status.value, "", "", "", "")
    tail = np.abs(report.trace.z[len(report.trace.z) // 2:])
    values = (*window_diagnostics(report.trace, late_window(cfg.T, cfg.dt), cfg.model.mass),
              tail.max())
    return ("completed", *(repr(float(v)) for v in values))


def cmd_sweep(args) -> int:
    axes = []
    for spec in args.vary:
        key, _, values = spec.partition("=")
        if not values:
            return _fail(2, f"--vary {spec!r} is not section.key=v1,v2,...")
        axes.append((key.strip(), [v.strip() for v in values.split(",")]))
    combos = list(itertools.product(*[vals for _, vals in axes])) or [()]
    # every combination is validated before the first solve, its horizon and
    # step against its initial state too; a ConfigError or StepTooLargeError
    # exits 2 through main
    cfgs = [parse_config_text(_config_text(
                args.config, [f"{key}={value}" for (key, _), value in zip(axes, combo)]))
            for combo in combos]
    for cfg in cfgs:
        check_step(cfg.model, build_initial_state(cfg), cfg.dt)
    out.write_table(os.path.join(_outdir(args), "sweep.csv"),
                    (*(key for key, _ in axes), *_SWEEP_COLUMNS),
                    [*zip(*combos), *zip(*map(_sweep_one, cfgs))])
    return 0


def cmd_compare(args) -> int:
    cfg, initial = _load_cfg(args)
    h = cfg.grid.spacing
    check_cfl(h, cfg.dt)
    outdir = _outdir(args)
    report = solve_trace(cfg.model, initial, cfg.T, cfg.dt)
    if report.status is not SolveStatus.COMPLETED:
        return _fail(1, f"run status {report.status.value}: {report.message}")
    fd_trace = fd_evolve(cfg.model, initial, cfg.T, cfg.dt)
    diff = np.abs(report.trace.z - fd_trace)
    out.write_table(os.path.join(outdir, "compare.csv"),
                    ("t", "abs_z_volterra", "abs_z_fd", "abs_diff"),
                    [report.trace.times, np.abs(report.trace.z), np.abs(fd_trace), diff])
    out.write_report(os.path.join(outdir, "report.txt"), {
        "compare": {"sup_diff": repr(float(diff.max())),
                    "h": repr(h), "dt": repr(cfg.dt)},
    })
    print(f"sup_diff = {float(diff.max())!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kgpoint",
                                description="point-coupled Klein-Gordon simulation toolkit")
    p.add_argument("--out", default="kgpoint_out", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    def config(sp):
        sp.add_argument("--config", required=True, help="config file path")
        sp.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override a config entry, e.g. run.seed=3 (repeatable)")

    sp = sub.add_parser("simulate", help="run the Volterra solver")
    config(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("solitary", help="solitary-wave table")
    at = sp.add_mutually_exclusive_group(required=True)
    at.add_argument("--C", type=float)
    at.add_argument("--omega", type=float)
    sp.add_argument("--mass", type=float)
    coupling = sp.add_mutually_exclusive_group()
    coupling.add_argument("--u", help="comma-separated potential coefficients u_0..u_N")
    coupling.add_argument("--a", type=float, help="linear coupling")
    sp.add_argument("--write", action="store_true", help="also write solitary.csv")
    sp.set_defaults(func=cmd_solitary)

    sp = sub.add_parser("spectrum", help="windowed spectrum of a trace file")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--t-center", type=float, required=True)
    sp.add_argument("--t-width", type=float, required=True)
    sp.add_argument("--window", choices=["hann", "rect"], default="hann")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("attract", help="attraction diagnostics")
    config(sp)
    sp.add_argument("--windows", type=int, default=6)
    sp.add_argument("--radius", type=float, default=5.0)
    sp.set_defaults(func=cmd_attract)

    sp = sub.add_parser("sweep", help="parameter sweep over a config template")
    sp.add_argument("--config", required=True, help="config template path")
    sp.add_argument("--vary", action="append", default=[], metavar="SEC.KEY=V1,V2")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("compare", help="volterra vs finite-difference oracle")
    config(sp)
    sp.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(2, *exc.errors)
    except configparser.Error as exc:
        # a missing section header or a parsing error spans several lines
        return _fail(2, " ".join(line.strip() for line in str(exc).splitlines()))
    except (ValueError, OSError) as exc:
        return _fail(2, str(exc))
    except MemoryError as exc:
        # numpy's message names the array that did not fit
        return _fail(2, f"out of memory: {exc}" if str(exc) else "out of memory")


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

Subcommands:

* simulate  -- run the Volterra solver per config, write trace/snapshots/report
* solitary  -- print or write the solitary-wave table at a given C or omega
* spectrum  -- windowed spectrum of a stored trace file
* attract   -- attraction diagnostics: per-window distance series plus the
               late-window omega-limit report
* sweep     -- run a config template over parameter ranges (cartesian), one
               report row per run, optionally in parallel
* compare   -- volterra vs finite-difference oracle on identical data

Exit codes: 0 ok, 1 run failure, 2 config failure.  All outputs are
deterministic functions of (config, seed); errors are printed to stderr as
`error: ...` lines.
"""

from __future__ import annotations

import argparse
import configparser
import io
import itertools
import multiprocessing
import os
import sys

import numpy as np

from . import output as out
from .config import ConfigError, RunConfig, build_initial_state, parse_config_text
from .fd import check_cfl, fd_evolve
from .kernel import KernelTables
from .model import OscillatorModel
from .solitary import (LinearSpanFit, LinearWaveFamily, SolitaryWave,
                       distance_to_manifold, waves_at_omega, waves_from_amplitude)
from .spectral import (Window, dominant_frequency, gap_mass_fraction, late_window,
                       modulus_variation, omega_limit_report, windowed_spectrum)
from .volterra import (SolveStatus, TraceSeries, reconstruct_field,
                       solve_full, solve_trace)


def _fail(code: int, *messages: str) -> int:
    for msg in messages:
        print(f"error: {msg}", file=sys.stderr)
    return code


def _load_cfg(args) -> RunConfig:
    """Config from --config plus --set/--seed overrides."""
    path = getattr(args, "config", None)
    if not path:
        raise ConfigError(["missing --config"])
    overrides = list(getattr(args, "set", []))
    if getattr(args, "seed", None) is not None:
        overrides.append(f"run.seed={args.seed}")
    return _load_with_overrides(path, overrides)


def _load_with_overrides(path: str, overrides: list[str]) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if overrides:
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        for item in overrides:
            key, _, value = item.partition("=")
            section, _, option = key.strip().partition(".")
            if not section or not option or not _:
                raise ConfigError([f"override {item!r} is not section.key=value"])
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, option, value.strip())
        buf = io.StringIO()
        cp.write(buf)
        text = buf.getvalue()
    return parse_config_text(text)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    outdir = _outdir(args)
    initial = build_initial_state(cfg)
    report, snapshots = solve_full(cfg.model, initial, cfg.T, cfg.dt,
                                   snapshot_times=cfg.snapshots,
                                   energy_tol=cfg.energy_tol)
    if cfg.out_trace:
        out.write_trace_csv(os.path.join(outdir, "trace.csv"), report.trace,
                            report.energy_samples, report.charge_samples)
    for state in snapshots:
        out.write_snapshot_csv(os.path.join(outdir, f"snapshot_t{state.time:.6f}.csv"), state)
    for i, (w0, w1) in enumerate(cfg.spectrum_windows):
        spec = windowed_spectrum(report.trace, 0.5 * (w0 + w1), w1 - w0, Window.HANN)
        out.write_spectrum_csv(os.path.join(outdir, f"spectrum_{i}.csv"), spec)
    if cfg.out_report:
        out.write_report(os.path.join(outdir, "report.txt"),
                         out.report_sections_from_solve(report))
    if report.status is not SolveStatus.COMPLETED:
        return _fail(1, f"run status {report.status.value}: {report.message}")
    return 0


def _model_from_args(args) -> OscillatorModel:
    if getattr(args, "config", None):
        return _load_cfg(args).model
    mass = args.mass if args.mass is not None else 1.0
    if args.a is not None:
        return OscillatorModel.linear(mass, args.a)
    coeffs = [float(c) for c in (args.u or "0,-1,1").split(",")]
    return OscillatorModel.polynomial(mass, coeffs)


def cmd_solitary(args) -> int:
    model = _model_from_args(args)
    rows = []
    if args.C is not None:
        waves = waves_from_amplitude(model, args.C)
        rows = [(w.amplitude, w.kappa, w.omega) for w in waves]
    elif args.omega is not None:
        res = waves_at_omega(model, args.omega)
        if isinstance(res, LinearWaveFamily):
            print(f"continuous family: kappa = {res.kappa!r}, omega = {res.omega!r}, any C")
            return 0
        rows = [(w.amplitude, w.kappa, w.omega) for w in res]
    else:
        return _fail(2, "solitary needs --C or --omega")
    print("C,kappa,omega")
    for C, kappa, omega in rows:
        print(f"{C!r},{kappa!r},{omega!r}")
    if args.out and args.write:
        outdir = _outdir(args)
        with open(os.path.join(outdir, "solitary.csv"), "w", encoding="utf-8") as fh:
            fh.write("C,kappa,omega\n")
            for C, kappa, omega in rows:
                fh.write(f"{C!r},{kappa!r},{omega!r}\n")
    return 0


def cmd_spectrum(args) -> int:
    times, z, _, _ = out.read_trace_csv(args.trace)
    if len(times) < 2:
        return _fail(2, "trace file too short")
    trace = TraceSeries(dt=float(times[1] - times[0]), z=z, f=None)
    window = Window(args.window)
    spec = windowed_spectrum(trace, args.t_center, args.t_width, window)
    outdir = _outdir(args)
    out.write_spectrum_csv(os.path.join(outdir, "spectrum.csv"), spec)
    print(f"dominant_frequency = {dominant_frequency(spec)!r}")
    return 0


def cmd_attract(args) -> int:
    cfg = _load_cfg(args)
    outdir = _outdir(args)
    initial = build_initial_state(cfg)
    report = solve_trace(cfg.model, initial, cfg.T, cfg.dt)
    if report.status is not SolveStatus.COMPLETED:
        return _fail(1, f"run status {report.status.value}: {report.message}")
    trace = report.trace
    tables = KernelTables(cfg.model.mass * (cfg.T + 2 * cfg.dt) + 1.0)

    def reconstructor(t: float):
        return reconstruct_field(cfg.model, initial, trace, t, tables)

    n_windows = max(args.windows, 2)
    width = max(cfg.T / (2 * n_windows), 64 * cfg.dt)
    centers = np.linspace(width / 2, cfg.T - width / 2, n_windows)
    lines = ["t_center,rho,in_gap_fraction,omega_plus,modulus_variation"]
    for tc in centers:
        spec = windowed_spectrum(trace, tc, width, Window.HANN)
        t_grid = trace.dt * round(tc / trace.dt)
        dist = distance_to_manifold(cfg.model, reconstructor(t_grid), args.radius)
        mv = modulus_variation(trace, tc - width / 2, tc + width / 2)
        lines.append(f"{float(tc)!r},{dist.rho!r},{gap_mass_fraction(spec, cfg.model.mass)!r},"
                     f"{dominant_frequency(spec)!r},{mv!r}")
    with open(os.path.join(outdir, "attract_windows.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    rep = omega_limit_report(cfg.model, trace, reconstructor,
                             late_window(cfg.T, cfg.dt), R=args.radius)
    matched = rep.matched_wave
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
            "omega_plus": repr(rep.omega_plus),
            "in_gap_fraction": repr(rep.in_gap_fraction),
            "modulus_variation": repr(rep.modulus_variation),
            "rho": repr(rep.rho),
            "window_start": repr(rep.window[0]),
            "window_end": repr(rep.window[1]),
        },
        "matched_wave": desc,
    })
    return 0


def _sweep_one(payload: tuple[int, str]) -> tuple[int, str]:
    idx, text = payload
    cfg = parse_config_text(text)
    initial = build_initial_state(cfg)
    report = solve_trace(cfg.model, initial, cfg.T, cfg.dt)
    if report.status is not SolveStatus.COMPLETED:
        return idx, f"{report.status.value},,,,"
    w = late_window(cfg.T, cfg.dt)
    spec = windowed_spectrum(report.trace, 0.5 * (w[0] + w[1]), w[1] - w[0], Window.HANN)
    gap = gap_mass_fraction(spec, cfg.model.mass)
    dom = dominant_frequency(spec)
    mv = modulus_variation(report.trace, w[0], w[1])
    tail = np.abs(report.trace.z[len(report.trace.z) // 2:])
    return idx, f"completed,{float(gap)!r},{float(dom)!r},{float(mv)!r},{float(tail.max())!r}"


def cmd_sweep(args) -> int:
    path = getattr(args, "config", None)
    if not path:
        raise ConfigError(["missing --config"])
    with open(path, "r", encoding="utf-8") as fh:
        base_text = fh.read()
    axes = []
    for spec in args.vary:
        key, _, values = spec.partition("=")
        if not values:
            return _fail(2, f"--vary {spec!r} is not section.key=v1,v2,...")
        axes.append((key.strip(), [v.strip() for v in values.split(",")]))
    combos = list(itertools.product(*[vals for _, vals in axes])) or [()]
    payloads = []
    for idx, combo in enumerate(combos):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(base_text)
        for (key, _), value in zip(axes, combo):
            section, _, option = key.partition(".")
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, option, value)
        buf = io.StringIO()
        cp.write(buf)
        try:
            parse_config_text(buf.getvalue())
        except ConfigError as exc:
            return _fail(2, *exc.errors)
        payloads.append((idx, buf.getvalue()))

    if args.workers > 1:
        with multiprocessing.Pool(args.workers) as pool:
            results = pool.map(_sweep_one, payloads)
    else:
        results = [_sweep_one(p) for p in payloads]
    results.sort()
    outdir = _outdir(args)
    header = ",".join(key for key, _ in axes)
    header = (header + "," if header else "") + \
        "status,in_gap_fraction,omega_plus,modulus_variation,late_max_abs_z"
    lines = [header]
    for (idx, row), combo in zip(results, combos):
        prefix = ",".join(combo)
        lines.append((prefix + "," if prefix else "") + row)
    with open(os.path.join(outdir, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    h = cfg.grid.spacing
    try:
        check_cfl(h, cfg.dt)
    except ValueError as exc:
        return _fail(2, str(exc))
    outdir = _outdir(args)
    initial = build_initial_state(cfg)
    report = solve_trace(cfg.model, initial, cfg.T, cfg.dt)
    if report.status is not SolveStatus.COMPLETED:
        return _fail(1, f"volterra status {report.status.value}")
    run = fd_evolve(cfg.model, initial, cfg.T, cfg.dt, delta_width=cfg.fd_delta_width)
    diff = np.abs(report.trace.z - run.trace)
    lines = ["t,abs_z_volterra,abs_z_fd,abs_diff"]
    for tv, zv, zf, d in zip(report.trace.times, np.abs(report.trace.z),
                             np.abs(run.trace), diff):
        lines.append(f"{float(tv)!r},{float(zv)!r},{float(zf)!r},{float(d)!r}")
    with open(os.path.join(outdir, "compare.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
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
    p.add_argument("--config", default=None, help="config file path")
    p.add_argument("--seed", type=int, default=None, help="override run.seed")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        # SUPPRESS keeps a sub-level flag from clobbering the global value
        sp.add_argument("--config", required=False, default=argparse.SUPPRESS,
                        help="config file path (alternative to the global flag)")
        sp.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override a config entry (repeatable)")

    sp = sub.add_parser("simulate", help="run the Volterra solver")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("solitary", help="solitary-wave table")
    common(sp)
    sp.add_argument("--C", type=float)
    sp.add_argument("--omega", type=float)
    sp.add_argument("--mass", type=float)
    sp.add_argument("--u", help="comma-separated potential coefficients u_0..u_N")
    sp.add_argument("--a", type=float, help="linear coupling")
    sp.add_argument("--write", action="store_true", help="also write solitary.csv")
    sp.set_defaults(func=cmd_solitary)

    sp = sub.add_parser("spectrum", help="windowed spectrum of a trace file")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--t-center", type=float, required=True)
    sp.add_argument("--t-width", type=float, required=True)
    sp.add_argument("--window", choices=["hann", "rect"], default="hann")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("attract", help="attraction diagnostics")
    common(sp)
    sp.add_argument("--windows", type=int, default=6)
    sp.add_argument("--radius", type=float, default=5.0)
    sp.set_defaults(func=cmd_attract)

    sp = sub.add_parser("sweep", help="parameter sweep over a config template")
    sp.add_argument("--config", required=False, default=argparse.SUPPRESS)
    sp.add_argument("--vary", action="append", default=[], metavar="SEC.KEY=V1,V2")
    sp.add_argument("--workers", type=int, default=1, help="parallel sweep processes")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("compare", help="volterra vs finite-difference oracle")
    common(sp)
    sp.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(2, *exc.errors)
    except FileNotFoundError as exc:
        return _fail(2, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())

"""Flat-file outputs: CSV series and the sectioned report document.

Float formatting uses repr of the Python float (shortest round-trip), so
identical runs produce byte-identical files and every reader recovers
exact values.
"""

from __future__ import annotations

import configparser
import io

import numpy as np

from .fields import FieldState, Grid
from .spectral import SpectrumEstimate, Window
from .volterra import SolveReport, TraceSeries


def format_table(header, columns, comments=()) -> str:
    """CSV text: one `# ` line per comment, the header names, then one row
    per index of the columns.  A float-array column is written as repr of
    each value; any other column holds ready-made string cells."""
    cells = [map(repr, c.tolist()) if isinstance(c, np.ndarray) else c for c in columns]
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_table(path: str, header, columns, comments=()) -> None:
    write_text(path, format_table(header, columns, comments))


def _sample_cells(samples, dt: float, n: int) -> list[str]:
    """repr of each (t, value) sample at its trace row, "" on the others."""
    cells = [""] * n
    for t, v in [] if samples is None else samples:
        cells[round(t / dt)] = repr(float(v))
    return cells


_TRACE_COLUMNS = ("t", "re_z", "im_z", "abs_z", "energy", "charge")
_SNAPSHOT_COLUMNS = ("x", "re_psi", "im_psi", "re_pi", "im_pi")


def write_trace_csv(path: str, trace: TraceSeries,
                    energy_samples=None, charge_samples=None) -> None:
    n = len(trace.z)
    # abs() of each Python complex: np.abs differs in the last digit on some rows
    write_table(path, _TRACE_COLUMNS,
                [trace.times, trace.z.real, trace.z.imag,
                 [repr(abs(z)) for z in trace.z.tolist()],
                 _sample_cells(energy_samples, trace.dt, n),
                 _sample_cells(charge_samples, trace.dt, n)])


def read_trace_csv(path: str):
    """Returns (times, z, energy_rows, charge_rows)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(_TRACE_COLUMNS):
            raise ValueError(f"not a trace file: {path}")
        times, zs, e_rows, q_rows = [], [], [], []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(_TRACE_COLUMNS):
                raise ValueError(f"not a trace file: {path}")
            t = float(parts[0])
            times.append(t)
            zs.append(complex(float(parts[1]), float(parts[2])))
            if parts[4]:
                e_rows.append((t, float(parts[4])))
            if parts[5]:
                q_rows.append((t, float(parts[5])))
    return np.array(times), np.array(zs), e_rows, q_rows


def write_snapshot_csv(path: str, state: FieldState) -> None:
    write_table(path, _SNAPSHOT_COLUMNS,
                [state.grid.x, state.psi.real, state.psi.imag, state.pi.real, state.pi.imag],
                [f"time = {float(state.time)!r}"])


def read_snapshot_csv(path: str) -> FieldState:
    with open(path, "r", encoding="utf-8") as fh:
        time = 0.0
        line = fh.readline()
        if line.startswith("# time = "):
            time = float(line[len("# time = "):])
            line = fh.readline()
        if line.strip() != ",".join(_SNAPSHOT_COLUMNS):
            raise ValueError(f"not a snapshot file: {path}")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    if not rows or any(len(r) != len(_SNAPSHOT_COLUMNS) for r in rows):
        raise ValueError(f"not a snapshot file: {path}")
    x = np.array([float(r[0]) for r in rows])
    psi = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    pi = np.array([complex(float(r[3]), float(r[4])) for r in rows])
    grid = Grid(half_extent=float(x[-1]), n_points=len(x))
    return FieldState(grid, psi, pi, time)


def write_spectrum_csv(path: str, spec: SpectrumEstimate) -> None:
    write_table(path, ("omega", "re_amp", "im_amp"),
                [spec.freqs, spec.amps.real, spec.amps.imag],
                [f"window = {spec.window.value}", f"t_center = {float(spec.t_center)!r}",
                 f"t_width = {float(spec.t_width)!r}"])


def read_spectrum_csv(path: str) -> SpectrumEstimate:
    meta = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition(" = ")
                meta[key] = val
            elif line and line != "omega,re_amp,im_amp":
                rows.append(line.split(","))
    freqs = np.array([float(r[0]) for r in rows])
    amps = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    return SpectrumEstimate(freqs=freqs, amps=amps,
                            window=Window(meta.get("window", "hann")),
                            t_center=float(meta.get("t_center", 0.0)),
                            t_width=float(meta.get("t_width", 0.0)))


def write_report(path: str, sections: dict[str, dict[str, str]]) -> None:
    cp = configparser.ConfigParser(interpolation=None)
    for name, kv in sections.items():
        cp[name] = {k: str(v) for k, v in kv.items()}
    buf = io.StringIO()
    cp.write(buf)
    write_text(path, buf.getvalue())


def read_report(path: str) -> dict[str, dict[str, str]]:
    cp = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        cp.read_string(fh.read())
    return {name: dict(cp[name]) for name in cp.sections()}


def report_sections_from_solve(report: SolveReport) -> dict[str, dict[str, str]]:
    """The [solve] report section.  Energy and charge drifts are measured
    from H and Q of the initial data, so they do not depend on whether t = 0
    is among the snapshots."""
    sec = {
        "status": report.status.value,
        "message": report.message,
        "steps": str(len(report.trace.z) - 1),
        "dt": repr(report.trace.dt),
    }
    drift = report.energy_drift
    if drift is not None:
        sec["energy_initial"] = repr(float(report.energy_initial))
        sec["energy_drift_max_rel"] = repr(drift)
    q0 = report.charge_initial
    if len(report.charge_samples) and q0 is not None:
        q = report.charge_samples[:, 1]
        sec["charge_initial"] = repr(float(q0))
        sec["charge_drift_max_abs"] = repr(float(np.max(np.abs(q - q0))))
    return {"solve": sec}

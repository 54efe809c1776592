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


def read_table(path: str, header, what: str):
    """(the `# key = value` lines as a dict, the rows as lists of floats, None where a cell
    is empty); a wrong header, width or cell, or no row raises a ValueError naming file, line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    k = next((i for i, text in enumerate(lines) if not text.startswith("# ")), len(lines))
    comments = dict(text[2:].partition(" = ")[::2] for text in lines[:k])
    rows, line = [], k + 1
    try:
        if lines[k:k + 1] != [",".join(header)]:
            raise ValueError(f"the header is not {','.join(header)}")
        for line, text in enumerate(lines[k + 1:], k + 2):
            cells = text.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells, the header names {len(header)}")
            rows.append([float(c) if c else None for c in cells])
        if not rows:
            raise ValueError("no rows below the header")
    except ValueError as exc:
        raise ValueError(f"not a {what} file: {path}, line {line}: {exc}") from None
    return comments, rows


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im with the sign of every zero kept (re + 1j * im drops it)."""
    return np.stack((re, im), axis=-1).view(complex)[:, 0]


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
_SPECTRUM_COLUMNS = ("omega", "re_amp", "im_amp")


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
    """(times, z, energy_rows, charge_rows); the times must be k dt from 0, z finite."""
    rows = read_table(path, _TRACE_COLUMNS, "trace")[1]
    t, re_z, im_z, _, _, _ = np.array(rows, dtype=float).T.copy()
    steps = np.diff(t)
    if not (t[0] == 0 and np.all(steps > 0) and np.allclose(steps, steps[:1], rtol=1e-10, atol=0)):
        raise ValueError(f"{path}: trace times are not increasing and uniform from 0")
    z = _complex(re_z, im_z)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{path}: trace values are not finite")
    return (t, z, [(r[0], r[4]) for r in rows if r[4] is not None],
            [(r[0], r[5]) for r in rows if r[5] is not None])


def write_snapshot_csv(path: str, state: FieldState) -> None:
    write_table(path, _SNAPSHOT_COLUMNS,
                [state.grid.x, state.psi.real, state.psi.imag, state.pi.real, state.pi.imag],
                [f"time = {float(state.time)!r}"])


def read_snapshot_csv(path: str) -> FieldState:
    """The snapshot; its values must be finite, its x column the grid `Grid(x[-1], len(x))`."""
    comments, rows = read_table(path, _SNAPSHOT_COLUMNS, "snapshot")
    x, re_psi, im_psi, re_pi, im_pi = cols = np.array(rows, dtype=float).T.copy()
    if not np.all(np.isfinite(cols)):
        raise ValueError(f"{path}: snapshot values are not finite")
    grid = Grid(float(x[-1]), len(x)) if len(x) >= 3 and len(x) % 2 and x[-1] > 0 else None
    if grid is None or not np.allclose(x, grid.x, rtol=0, atol=1e-9 * grid.spacing):
        raise ValueError(f"{path}: x is not a uniform grid symmetric about 0")
    try:
        time = float(comments.get("time", 0.0))
    except ValueError as exc:
        line = list(comments).index("time") + 1
        raise ValueError(f"not a snapshot file: {path}, line {line}: {exc}") from None
    return FieldState(grid, _complex(re_psi, im_psi), _complex(re_pi, im_pi), time)


def write_spectrum_csv(path: str, spec: SpectrumEstimate) -> None:
    write_table(path, _SPECTRUM_COLUMNS,
                [spec.freqs, spec.amps.real, spec.amps.imag],
                [f"window = {spec.window.value}", f"t_center = {float(spec.t_center)!r}",
                 f"t_width = {float(spec.t_width)!r}"])


def read_spectrum_csv(path: str) -> SpectrumEstimate:
    meta, rows = read_table(path, _SPECTRUM_COLUMNS, "spectrum")
    freqs, re_amp, im_amp = cols = np.array(rows, dtype=float).T.copy()
    if not np.all(np.isfinite(cols)):
        raise ValueError(f"{path}: spectrum values are not finite")
    return SpectrumEstimate(freqs=freqs, amps=_complex(re_amp, im_amp),
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

"""The three benchmark workloads: inputs, one pass, and the output checks.

Each workload is sized so that the kgpoint layer it exists for does most of
the work (see README.md):

* solitary_simulate: `kgpoint simulate` in-process on the criterion-1
  solitary wave; the kinked spectrum keeps every mode of `free_trace` busy.
* attract_seed: the criterion-5 path of one seeded Gaussian through the
  public functions; the t = 390 light-cone sum of `reconstruct_field` and
  its table lookups dominate.
* long_sweep: `kgpoint sweep` in-process on one seed, trace only; the
  O(N^2) history loop of `solve_trace` dominates and nothing is
  reconstructed.

Passes call kgpoint through module attributes (`volterra.solve_trace`, not a
name bound at import) so that tracing.py can wrap them.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from kgpoint import cli, initial, kernel, output, solitary, spectral, volterra
from kgpoint.fields import FieldState, Grid
from kgpoint.model import OscillatorModel
from kgpoint.observables import charge, energy

CUBIC = OscillatorModel.polynomial(1.0, (0.0, -1.0, 1.0))
HALF_WAVE_C = 0.5
HALF_WAVE_OMEGA = float(np.sqrt(0.75))  # C = 0.5 on CUBIC: kappa = 1/2

_CUBIC_MODEL = """\
[model]
kind = polynomial
mass = 1.0
coefficients = 0, -1, 1
"""

# Criterion 1 (T = 50 on 2^15+1 points) scaled to T = 10 on 2^14+1 points at
# the same dt and about the same spacing; half_extent is the horizon rule's
# minimum, data radius 59.9 + T + 1.
SOLITARY_CONFIG = _CUBIC_MODEL + """\
[grid]
half_extent = 71.0
n_points = 16385
[time]
T = 10.0
dt = 0.001
[initial]
kind = solitary
C = 0.5
[outputs]
trace = true
snapshots = 0, 4
spectrum_windows = 7.5:10
report = true
"""

# Criterion 5 keeps T = 400, dt = 0.02 and the t = 20 / t = 390 snapshots on
# [-430, 430], with 2^11+1 points instead of 2^14+1.  The cone sums shrink in
# proportion to the point count; rho at t = 20 and 390 moves by under 2%
# between 2^11+1 and 2^12+1 points on seeds 1-10.
ATTRACT_GRID = Grid(430.0, 2 ** 11 + 1)
ATTRACT_T = 400.0
ATTRACT_DT = 0.02

# The T = 2000 horizon scaled to T = 600 (N = 30001 nodes) at the same dt
# and about the same spacing; half_extent covers data radius 25.2 + T + 1.
SWEEP_CONFIG = _CUBIC_MODEL + """\
[grid]
half_extent = 630.0
n_points = 2049
[time]
T = 600.0
dt = 0.02
[initial]
kind = seeded_gaussian
[run]
seed = 1
"""

# acceptance-suite thresholds
TRACE_ERR_MAX = 5e-5      # criterion 1
DRIFT_MAX = 1e-5          # criterion 2
IN_GAP_MIN = 0.95         # criterion 5
MODVAR_MAX = 0.05         # criterion 5
RHO_RATIO_MAX = 0.25      # criterion 5
GAP_SLACK = 1e-3          # criterion 5: windows may not lose more in-gap mass


def data_seed(seed: int) -> int:
    """Map any benchmark seed onto the certified seeds 1..10 (1..10 map to themselves)."""
    return (seed - 1) % 10 + 1


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class _Ready(Exception):
    """Raised in place of the first solver call to end a set-up probe."""


def _stop(*args, **kwargs):
    raise _Ready


def _cli_until_solver(argv: list[str], solver_names: tuple[str, ...]) -> None:
    saved = {name: getattr(cli, name) for name in solver_names}
    try:
        for name in solver_names:
            setattr(cli, name, _stop)
        cli.main(argv)
    except _Ready:
        return
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
    raise RuntimeError("the command returned without calling the solver")


def _rel_drift(values, base: float) -> float:
    return float(max((abs(v - base) for v in values), default=np.inf) / max(abs(base), 1e-30))


def solitary_probe(dt: float, spacing: float) -> tuple[float, float]:
    """(trace error, energy drift) of the C = 0.5 solitary wave at this dt and spacing.

    Gaussian data have no exact trace, so the seeded workloads report the
    solver's accuracy at their own discretisation on the exact solution:
    max |z - 0.5 e^{-i omega t}| over T = 50, and the relative drift of
    H(psi(50)) from H(initial).  Run once, outside the timed passes.
    """
    half_extent = 111.0  # horizon rule: data radius 59.9 + T + 1
    grid = Grid(half_extent, 2 * round(half_extent / spacing) + 1)
    init = initial.solitary_state(CUBIC, grid, HALF_WAVE_C)
    report = volterra.solve_trace(CUBIC, init, 50.0, dt)
    exact = HALF_WAVE_C * np.exp(-1j * HALF_WAVE_OMEGA * report.trace.times)
    err = float(np.max(np.abs(report.trace.z - exact)))
    end = volterra.reconstruct_field(CUBIC, init, report.trace, 50.0)
    return err, _rel_drift([energy(CUBIC, end)], energy(CUBIC, init))


class SolitarySimulate:
    name = "solitary_simulate"

    def __init__(self, workdir: Path, seed: int):
        self.config = workdir / "solitary.cfg"
        self.out = workdir / "out"
        self.argv = ["--out", str(self.out), "simulate", "--config", str(self.config)]

    def prepare(self) -> None:
        self.config.write_text(SOLITARY_CONFIG, encoding="utf-8")

    def until_solver(self) -> None:
        _cli_until_solver(self.argv, ("solve_full",))

    def run_pass(self) -> bool:
        return cli.main(self.argv) == 0

    def digest(self) -> str:
        return digest(output.read_trace_csv(self.out / "trace.csv")[1])

    def checks(self) -> tuple[dict[str, bool], float, float]:
        status = output.read_report(self.out / "report.txt").get("solve", {}).get("status")
        times, z, _, _ = output.read_trace_csv(self.out / "trace.csv")
        trace_err = float(np.max(np.abs(z - HALF_WAVE_C * np.exp(-1j * HALF_WAVE_OMEGA * times))))

        cfg = cli.parse_config_text(SOLITARY_CONFIG)
        init = initial.solitary_state(CUBIC, cfg.grid, HALF_WAVE_C)
        snaps = [output.read_snapshot_csv(p) for p in sorted(self.out.glob("snapshot_t*.csv"))]
        e_drift = _rel_drift([energy(CUBIC, s) for s in snaps], energy(CUBIC, init))
        q_drift = _rel_drift([charge(s) for s in snaps], charge(init))
        return ({"status_completed": status == "completed" and len(z) == 10001,
                 "snapshots_written": len(snaps) == 2,
                 "trace_err_below_5e-5": trace_err < TRACE_ERR_MAX,
                 "energy_drift_below_1e-5": e_drift < DRIFT_MAX,
                 "charge_drift_below_1e-5": q_drift < DRIFT_MAX},
                trace_err, e_drift)

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())


class AttractSeed:
    name = "attract_seed"

    def __init__(self, workdir: Path, seed: int):
        self.seed = data_seed(seed)
        self.result: dict = {}

    def prepare(self) -> None:
        pass

    def _initial(self) -> FieldState:
        return initial.gaussian_state(ATTRACT_GRID, initial.seeded_gaussian_spec(self.seed))

    def until_solver(self) -> None:
        self._initial()

    def run_pass(self) -> bool:
        self.result = {}
        init = self._initial()
        report = volterra.solve_trace(CUBIC, init, ATTRACT_T, ATTRACT_DT)
        if report.status is not volterra.SolveStatus.COMPLETED:
            return False
        trace = report.trace
        tables = kernel.KernelTables(CUBIC.mass * ATTRACT_T + 1.0)
        gaps = [spectral.gap_mass_fraction(
                    spectral.windowed_spectrum(trace, w0 + 50.0, 100.0, spectral.Window.HANN),
                    CUBIC.mass)
                for w0 in (100.0, 200.0, 300.0)]
        mvar = spectral.modulus_variation(trace, 300.0, 400.0)
        early = volterra.reconstruct_field(CUBIC, init, trace, 20.0, tables)
        late = volterra.reconstruct_field(CUBIC, init, trace, 390.0, tables)
        rho_early = solitary.distance_to_manifold(CUBIC, early, 5.0).rho
        rho_late = solitary.distance_to_manifold(CUBIC, late, 5.0).rho
        self.result = dict(z=trace.z, early=early, late=late, gaps=gaps, mvar=mvar,
                           rho_early=rho_early, rho_late=rho_late)
        return True

    def digest(self) -> str:
        r = self.result
        if not r:
            return "no output"
        return digest(r["z"], r["early"].psi, r["early"].pi, r["late"].psi, r["late"].pi)

    def checks(self) -> tuple[dict[str, bool], float, float]:
        r = self.result or dict(gaps=(0.0, 0.0, 0.0), mvar=np.inf,
                                rho_early=0.0, rho_late=np.inf)
        g1, g2, g3 = r["gaps"]
        checks = {
            "status_completed": bool(self.result),
            "last_window_in_gap_at_least_0.95": g3 >= IN_GAP_MIN,
            "in_gap_non_decreasing": g2 >= g1 - GAP_SLACK and g3 >= g2 - GAP_SLACK,
            "modulus_variation_below_0.05": r["mvar"] < MODVAR_MAX,
            "rho390_below_quarter_rho20": r["rho_late"] < RHO_RATIO_MAX * r["rho_early"],
        }
        trace_err, e_drift = solitary_probe(ATTRACT_DT, ATTRACT_GRID.spacing)
        return checks, trace_err, e_drift

    def output_bytes(self) -> int:
        return 0


class LongSweep:
    name = "long_sweep"

    def __init__(self, workdir: Path, seed: int):
        self.seed = data_seed(seed)
        self.config = workdir / "sweep.cfg"
        self.out = workdir / "out"
        self.argv = ["--out", str(self.out), "sweep", "--config", str(self.config),
                     "--vary", f"run.seed={self.seed}"]
        self.captured_z: np.ndarray | None = None

    def prepare(self) -> None:
        """Write the config and keep the trace that each pass solves.

        `kgpoint sweep` writes only a summary row, so the solver the sweep
        calls is wrapped to keep z for the bitwise comparison of passes.
        """
        self.config.write_text(SWEEP_CONFIG, encoding="utf-8")
        solve = cli.solve_trace

        def capturing(*args, **kwargs):
            report = solve(*args, **kwargs)
            self.captured_z = report.trace.z
            return report

        cli.solve_trace = capturing

    def until_solver(self) -> None:
        _cli_until_solver(self.argv, ("solve_trace",))

    def run_pass(self) -> bool:
        self.captured_z = None
        return cli.main(self.argv) == 0

    def digest(self) -> str:
        return "no output" if self.captured_z is None else digest(self.captured_z)

    def _row(self) -> dict[str, str]:
        lines = (self.out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        return dict(zip(lines[0].split(","), lines[1].split(","))) if len(lines) == 2 else {}

    def checks(self) -> tuple[dict[str, bool], float, float]:
        row = self._row()
        checks = {
            "status_completed": row.get("status") == "completed",
            "late_window_in_gap_at_least_0.95":
                float(row.get("in_gap_fraction") or "nan") >= IN_GAP_MIN,
            "modulus_variation_below_0.05":
                float(row.get("modulus_variation") or "nan") < MODVAR_MAX,
        }
        cfg = cli.parse_config_text(SWEEP_CONFIG)
        trace_err, e_drift = solitary_probe(cfg.dt, cfg.grid.spacing)
        return checks, trace_err, e_drift

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())


WORKLOADS = {cls.name: cls for cls in (SolitarySimulate, AttractSeed, LongSweep)}

"""Run configuration: sectioned key/value text files, fully validated at load.

A config is an INI-style document with sections [model], [grid], [time],
[initial], [run], [outputs].  Numbers are parsed as decimal with full
precision.  Validation collects every violated invariant before failing,
including the horizon rule

    half_extent >= data_radius + T + 1

which sizes the domain so that no signal (group speed < 1) launched from the
data support can touch the boundary within the run; reflections and periodic
wrap-around are excluded by construction instead of by absorbing layers.

The [initial] section is described once, at load, by its parts: an optional
solitary wave and Gaussian packets, or a snapshot path for from_file data.
The data radius is the largest of the parts' radii, the initial state the sum
of their states.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldState, Grid, zero_state
from .initial import (GaussianSpec, data_radius_exponential, data_radius_gaussian,
                      gaussian_state, seeded_gaussian_spec, solitary_state)
from .model import OscillatorModel, alpha
from .spectral import node_span


class ConfigError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))
        self.errors = errors


@dataclass
class InitialSpec:
    wave: tuple[float, float, str] | None  # solitary wave (C, theta, branch)
    packets: tuple[GaussianSpec, ...]
    path: str  # snapshot file of from_file data, "" for the other kinds


@dataclass
class RunConfig:
    model: OscillatorModel
    half_extent: float
    n_points: int
    T: float
    dt: float
    initial: InitialSpec
    energy_tol: float
    snapshots: list[float]
    spectrum_windows: list[tuple[float, float]]

    @property
    def grid(self) -> Grid:
        return Grid(self.half_extent, self.n_points)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _parse_floats(text: str) -> list[float]:
    items = [p.strip() for p in text.replace(";", ",").split(",") if p.strip()]
    return [_finite(float(p)) for p in items]


def data_radius(cfg: RunConfig) -> float:
    init = cfg.initial
    if init.path:
        return cfg.half_extent * 0.5  # no analytic radius; rely on the margin
    radii = [data_radius_gaussian(p) for p in init.packets]
    if init.wave:
        radii.append(data_radius_exponential(0.5 * float(alpha(cfg.model, init.wave[0] ** 2))))
    return max(radii, default=0.0)


def build_initial_state(cfg: RunConfig) -> FieldState:
    init = cfg.initial
    grid = cfg.grid
    if init.path:
        from .output import read_snapshot_csv
        state = read_snapshot_csv(init.path)
        if state.grid.n_points != grid.n_points or \
                abs(state.grid.half_extent - grid.half_extent) > 1e-9:
            raise ConfigError([f"grid of {init.path} does not match the [grid] section"])
        return FieldState(grid, state.psi, state.pi, 0.0)
    parts = [solitary_state(cfg.model, grid, *init.wave)] if init.wave else []
    parts += [gaussian_state(grid, p) for p in init.packets]
    # summed onto the first part, not onto zeros: 0.0 + -0.0 would lose the sign
    first, *rest = parts or [zero_state(grid)]
    return FieldState(grid, sum((p.psi for p in rest), first.psi),
                      sum((p.pi for p in rest), first.pi), 0.0)


_KNOWN_INITIAL = ("zero", "solitary", "gaussian", "seeded_gaussian",
                  "solitary_plus_bump", "from_file")
_WAVE_KINDS = ("solitary", "solitary_plus_bump")
# the numeric [initial] keys and their defaults
_INITIAL_NUMBERS = (("C", 0.5), ("theta", 0.0), ("amplitude_re", 0.5), ("amplitude_im", 0.0),
                    ("width", 2.0), ("center", 0.0), ("momentum", 0.0), ("omega_bar", 0.0),
                    ("bump_amplitude_re", 0.1), ("bump_amplitude_im", 0.0),
                    ("bump_width", 1.0), ("bump_center", 3.0))


def parse_config_text(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    errors: list[str] = []

    def get(section, key, conv, default=None, required=False):
        try:
            raw = cp.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if required:
                errors.append(f"missing {section}.{key}")
            return default
        try:
            value = conv(raw)
            return _finite(value) if isinstance(value, float) else value
        except ValueError:
            errors.append(f"cannot parse {section}.{key} = {raw!r}")
            return default

    kind = get("model", "kind", str, "polynomial")
    mass = get("model", "mass", float, required=True)
    model = None
    if mass is not None and mass <= 0:
        errors.append(f"model.mass must be positive, got {mass}")
    if kind == "polynomial":
        coeffs = get("model", "coefficients", _parse_floats, None, required=True)
        if coeffs is not None:
            if len(coeffs) < 3:
                errors.append("model.coefficients needs u_0..u_N with N >= 2")
            elif coeffs[-1] <= 0:
                errors.append(f"leading coefficient u_N must be positive, got {coeffs[-1]}")
            elif mass and mass > 0:
                model = OscillatorModel.polynomial(mass, coeffs)
    elif kind == "linear":
        a = get("model", "a", float, None, required=True)
        if a is not None and mass and mass > 0:
            if a >= 2 * mass:
                errors.append(f"linear coupling a={a} outside the well-posedness window a < 2m")
            else:
                model = OscillatorModel.linear(mass, a)
    else:
        errors.append(f"model.kind must be polynomial or linear, got {kind!r}")

    grid_errors = len(errors)
    half_extent = get("grid", "half_extent", float, required=True)
    n_points = get("grid", "n_points", int, required=True)
    if n_points is not None and (n_points < 3 or n_points % 2 == 0):
        errors.append(f"grid.n_points must be odd and >= 3, got {n_points}")
    if half_extent is not None and half_extent <= 0:
        errors.append(f"grid.half_extent must be positive, got {half_extent}")
    # 0.0 on an invalid grid, which skips the packet width check
    spacing = Grid(half_extent, n_points).spacing if len(errors) == grid_errors else 0.0

    T = get("time", "T", float, required=True)
    dt = get("time", "dt", float, required=True)
    if T is not None and T <= 0:
        errors.append(f"time.T must be positive, got {T}")
    if dt is not None and dt <= 0:
        errors.append(f"time.dt must be positive, got {dt}")
    if T and dt and dt > 0:
        if not math.isfinite(T / dt):
            errors.append(f"time.T / time.dt = {T} / {dt} overflows")
        elif abs(T - round(T / dt) * dt) > 1e-9 * max(1.0, T):
            errors.append(f"time.T = {T} is not an integer multiple of dt = {dt}")

    ikind = get("initial", "kind", str, "zero")
    if ikind not in _KNOWN_INITIAL:
        errors.append(f"initial.kind must be one of {_KNOWN_INITIAL}, got {ikind!r}")
        ikind = "zero"
    num = {key: get("initial", key, float, default) for key, default in _INITIAL_NUMBERS}
    branch = get("initial", "branch", str, "plus")
    path = get("initial", "path", str, "")
    if branch not in ("plus", "minus"):
        errors.append(f"initial.branch must be plus or minus, got {branch!r}")
    if ikind == "from_file" and not path:
        errors.append("initial.path required for from_file data")
    C = num["C"]
    if ikind in _WAVE_KINDS:
        if C <= 0:
            errors.append(f"initial.C must be positive, got {C}")
        elif not math.isfinite(C * C):
            errors.append(f"initial.C = {C} is too large: C**2 overflows")
        elif model is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                alpha_c = float(alpha(model, C ** 2))
            if not math.isfinite(alpha_c):
                errors.append(f"initial.C = {C} is too large: alpha(C**2) is not finite")
            elif alpha_c <= 0:
                errors.append(f"no solitary wave exists at C={C} for this model")
    # the width of the packet this kind reads, at least one grid spacing
    width_key = {"gaussian": "width", "solitary_plus_bump": "bump_width"}.get(ikind)
    if width_key and num[width_key] <= 0:
        errors.append(f"initial.{width_key} must be positive, got {num[width_key]}")
    elif width_key and num[width_key] < spacing:
        errors.append(f"initial.{width_key} = {num[width_key]} is below the grid spacing "
                      f"{spacing!r}")

    seed = get("run", "seed", int, 0)
    if not 0 <= seed < 2 ** 64:  # the seeded stream's counter is a uint64
        errors.append(f"run.seed must be in [0, 2**64), got {seed}")
    energy_tol = get("run", "energy_tol", float, 1e-4)
    if energy_tol <= 0:
        errors.append(f"run.energy_tol must be positive, got {energy_tol}")
    snapshots = get("outputs", "snapshots", _parse_floats, [])
    spectrum_windows = get("outputs", "spectrum_windows", _parse_windows, [])
    if errors:
        raise ConfigError(errors)

    wave = (C, num["theta"], branch) if ikind in _WAVE_KINDS else None
    packets = ()
    if ikind == "gaussian":
        packets = (GaussianSpec(complex(num["amplitude_re"], num["amplitude_im"]), num["width"],
                                num["center"], num["momentum"], num["omega_bar"]),)
    elif ikind == "seeded_gaussian":
        packets = (seeded_gaussian_spec(seed),)
    elif ikind == "solitary_plus_bump":
        packets = (GaussianSpec(complex(num["bump_amplitude_re"], num["bump_amplitude_im"]),
                                num["bump_width"], num["bump_center"]),)
    init = InitialSpec(wave, packets, path if ikind == "from_file" else "")
    cfg = RunConfig(model=model, half_extent=half_extent, n_points=n_points, T=T, dt=dt,
                    initial=init, energy_tol=energy_tol, snapshots=snapshots,
                    spectrum_windows=spectrum_windows)
    radius = data_radius(cfg)
    if half_extent < radius + T + 1.0:
        errors.append(f"horizon rule violated: half_extent = {half_extent} < "
                      f"data_radius + T + 1 = {radius + T + 1.0:.3f}")
    for t in snapshots:
        if not (0.0 <= t <= T):
            errors.append(f"snapshot time {t} outside [0, T]")
        elif abs(t - round(t / dt) * dt) > 1e-9 * max(1.0, t):  # as TraceSeries.index_of
            errors.append(f"snapshot time {t} not on the dt grid")
    for (w0, w1) in spectrum_windows:
        lo, hi = node_span(w0, w1, dt)
        if not (0.0 <= w0 < w1 <= T):
            errors.append(f"spectrum window {w0}:{w1} not inside [0, T]")
        elif hi <= lo:
            errors.append(f"spectrum window {w0}:{w1} holds fewer than two trace samples")
    if errors:
        raise ConfigError(errors)
    return cfg


def _parse_windows(text: str) -> list[tuple[float, float]]:
    pairs = [part.split(":") for part in text.split(",") if part.strip()]
    return [(float(lo), float(hi)) for lo, hi in pairs]

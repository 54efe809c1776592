"""Run configuration: sectioned key/value text files, fully validated at load.

A config is an INI-style document with sections [model], [grid], [time],
[initial], [run], [outputs].  Numbers are parsed as decimal with full
precision.  Validation collects every violated invariant before failing,
including the horizon rule

    half_extent >= data_radius + T + 1

which sizes the domain so that no signal (group speed < 1) launched from the
data support can touch the boundary within the run; reflections and periodic
wrap-around are excluded by construction instead of by absorbing layers.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field as dc_field

from .fields import FieldState, Grid, zero_state
from .initial import (GaussianSpec, data_radius_exponential, data_radius_gaussian,
                      gaussian_state, seeded_gaussian_spec, solitary_state)
from .model import ModelKind, OscillatorModel, alpha


class ConfigError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))
        self.errors = errors


@dataclass
class InitialSpec:
    kind: str  # zero | solitary | gaussian | seeded_gaussian | solitary_plus_bump | from_file
    C: float = 0.5
    theta: float = 0.0
    branch: str = "plus"
    amplitude: complex = 0.5 + 0.0j
    width: float = 2.0
    center: float = 0.0
    momentum: float = 0.0
    omega_bar: float = 0.0
    bump_amplitude: complex = 0.1 + 0.0j
    bump_width: float = 1.0
    bump_center: float = 3.0
    path: str = ""


@dataclass
class RunConfig:
    model: OscillatorModel
    half_extent: float
    n_points: int
    T: float
    dt: float
    initial: InitialSpec
    seed: int = 0
    energy_tol: float = 1e-4
    fd_delta_width: int = 1
    out_trace: bool = True
    snapshots: list[float] = dc_field(default_factory=list)
    spectrum_windows: list[tuple[float, float]] = dc_field(default_factory=list)
    out_report: bool = True

    @property
    def grid(self) -> Grid:
        return Grid(self.half_extent, self.n_points)


def _parse_floats(text: str) -> list[float]:
    items = [p.strip() for p in text.replace(";", ",").split(",") if p.strip()]
    return [float(p) for p in items]


def data_radius(cfg: RunConfig) -> float:
    init = cfg.initial
    if init.kind == "zero":
        return 0.0
    if init.kind == "solitary":
        kappa = 0.5 * float(alpha(cfg.model, init.C ** 2))
        if kappa <= 0:
            return cfg.half_extent  # no wave; flagged separately
        return data_radius_exponential(kappa)
    if init.kind == "gaussian":
        return data_radius_gaussian(GaussianSpec(init.amplitude, init.width,
                                                 init.center, init.momentum,
                                                 init.omega_bar))
    if init.kind == "seeded_gaussian":
        return data_radius_gaussian(seeded_gaussian_spec(cfg.seed))
    if init.kind == "solitary_plus_bump":
        kappa = 0.5 * float(alpha(cfg.model, init.C ** 2))
        r1 = data_radius_exponential(kappa) if kappa > 0 else cfg.half_extent
        r2 = data_radius_gaussian(GaussianSpec(init.bump_amplitude, init.bump_width,
                                               init.bump_center, 0.0, 0.0))
        return max(r1, r2)
    return cfg.half_extent * 0.5  # from_file: no analytic radius; rely on the margin


def build_initial_state(cfg: RunConfig) -> FieldState:
    init = cfg.initial
    grid = cfg.grid
    if init.kind == "zero":
        return zero_state(grid)
    if init.kind == "solitary":
        return solitary_state(cfg.model, grid, init.C, init.theta, init.branch)
    if init.kind == "gaussian":
        return gaussian_state(grid, GaussianSpec(init.amplitude, init.width,
                                                 init.center, init.momentum,
                                                 init.omega_bar))
    if init.kind == "seeded_gaussian":
        return gaussian_state(grid, seeded_gaussian_spec(cfg.seed))
    if init.kind == "solitary_plus_bump":
        base = solitary_state(cfg.model, grid, init.C, init.theta, init.branch)
        bump = gaussian_state(grid, GaussianSpec(init.bump_amplitude, init.bump_width,
                                                 init.bump_center, 0.0, 0.0))
        return FieldState(grid, base.psi + bump.psi, base.pi + bump.pi, 0.0)
    if init.kind == "from_file":
        from .output import read_snapshot_csv
        state = read_snapshot_csv(init.path)
        if state.grid.n_points != grid.n_points or \
                abs(state.grid.half_extent - grid.half_extent) > 1e-9:
            raise ConfigError([f"grid of {init.path} does not match the [grid] section"])
        return FieldState(grid, state.psi, state.pi, 0.0)
    raise ConfigError([f"unknown initial kind {init.kind!r}"])


_KNOWN_INITIAL = ("zero", "solitary", "gaussian", "seeded_gaussian",
                  "solitary_plus_bump", "from_file")


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
            return conv(raw)
        except (ValueError, ConfigError):
            errors.append(f"cannot parse {section}.{key} = {raw!r}")
            return default

    as_bool = lambda s: s.strip().lower() in ("1", "true", "yes", "on")

    kind = get("model", "kind", str, "polynomial")
    mass = get("model", "mass", float, 1.0, required=True)
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

    half_extent = get("grid", "half_extent", float, required=True)
    n_points = get("grid", "n_points", int, required=True)
    if n_points is not None and (n_points < 3 or n_points % 2 == 0):
        errors.append(f"grid.n_points must be odd and >= 3, got {n_points}")
    if half_extent is not None and half_extent <= 0:
        errors.append(f"grid.half_extent must be positive, got {half_extent}")

    T = get("time", "T", float, required=True)
    dt = get("time", "dt", float, required=True)
    if T is not None and T <= 0:
        errors.append(f"time.T must be positive, got {T}")
    if dt is not None and dt <= 0:
        errors.append(f"time.dt must be positive, got {dt}")
    if T and dt and dt > 0:
        n_steps = round(T / dt)
        if abs(T - n_steps * dt) > 1e-9 * max(1.0, T):
            errors.append(f"time.T = {T} is not an integer multiple of dt = {dt}")

    ikind = get("initial", "kind", str, "zero")
    if ikind not in _KNOWN_INITIAL:
        errors.append(f"initial.kind must be one of {_KNOWN_INITIAL}, got {ikind!r}")
        ikind = "zero"
    init = InitialSpec(
        kind=ikind,
        C=get("initial", "C", float, 0.5),
        theta=get("initial", "theta", float, 0.0),
        branch=get("initial", "branch", str, "plus"),
        amplitude=complex(get("initial", "amplitude_re", float, 0.5),
                          get("initial", "amplitude_im", float, 0.0)),
        width=get("initial", "width", float, 2.0),
        center=get("initial", "center", float, 0.0),
        momentum=get("initial", "momentum", float, 0.0),
        omega_bar=get("initial", "omega_bar", float, 0.0),
        bump_amplitude=complex(get("initial", "bump_amplitude_re", float, 0.1),
                               get("initial", "bump_amplitude_im", float, 0.0)),
        bump_width=get("initial", "bump_width", float, 1.0),
        bump_center=get("initial", "bump_center", float, 3.0),
        path=get("initial", "path", str, ""),
    )
    if init.branch not in ("plus", "minus"):
        errors.append(f"initial.branch must be plus or minus, got {init.branch!r}")
    if init.kind == "solitary" and init.C <= 0:
        errors.append(f"initial.C must be positive, got {init.C}")
    if init.kind == "from_file" and not init.path:
        errors.append("initial.path required for from_file data")
    if init.kind == "solitary" and model is not None and init.C > 0:
        if 0.5 * float(alpha(model, init.C ** 2)) <= 0:
            errors.append(f"no solitary wave exists at C={init.C} for this model")

    cfg = RunConfig(
        model=model if model is not None else OscillatorModel.polynomial(1.0, (0.0, -1.0, 1.0)),
        half_extent=half_extent or 1.0,
        n_points=n_points or 3,
        T=T or 1.0,
        dt=dt or 0.1,
        initial=init,
        seed=get("run", "seed", int, 0),
        energy_tol=get("run", "energy_tol", float, 1e-4),
        fd_delta_width=get("run", "fd_delta_width", int, 1),
        out_trace=get("outputs", "trace", as_bool, True),
        snapshots=get("outputs", "snapshots", _parse_floats, []),
        spectrum_windows=_parse_windows(get("outputs", "spectrum_windows", str, "")),
        out_report=get("outputs", "report", as_bool, True),
    )

    if not errors:
        radius = data_radius(cfg)
        if cfg.half_extent < radius + cfg.T + 1.0:
            errors.append(
                f"horizon rule violated: half_extent = {cfg.half_extent} < "
                f"data_radius + T + 1 = {radius + cfg.T + 1.0:.3f}")
        for t in cfg.snapshots:
            if not (0.0 <= t <= cfg.T):
                errors.append(f"snapshot time {t} outside [0, T]")
            elif abs(t - round(t / cfg.dt) * cfg.dt) > 1e-9 * max(1.0, cfg.T):
                errors.append(f"snapshot time {t} not on the dt grid")
        for (w0, w1) in cfg.spectrum_windows:
            if not (0.0 <= w0 < w1 <= cfg.T):
                errors.append(f"spectrum window {w0}:{w1} not inside [0, T]")
    if errors:
        raise ConfigError(errors)
    return cfg


def _parse_windows(text: str) -> list[tuple[float, float]]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, hi = part.split(":")
        out.append((float(lo), float(hi)))
    return out


def config_to_text(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    cp["model"] = {"kind": cfg.model.kind.value, "mass": repr(cfg.model.mass)}
    if cfg.model.kind is ModelKind.POLYNOMIAL:
        cp["model"]["coefficients"] = ", ".join(repr(c) for c in cfg.model.coefficients)
    else:
        cp["model"]["a"] = repr(cfg.model.linear_a)
    cp["grid"] = {"half_extent": repr(cfg.half_extent), "n_points": str(cfg.n_points)}
    cp["time"] = {"T": repr(cfg.T), "dt": repr(cfg.dt)}
    init = cfg.initial
    sec = {"kind": init.kind}
    if init.kind in ("solitary", "solitary_plus_bump"):
        sec.update(C=repr(init.C), theta=repr(init.theta), branch=init.branch)
    if init.kind in ("gaussian",):
        sec.update(amplitude_re=repr(init.amplitude.real),
                   amplitude_im=repr(init.amplitude.imag),
                   width=repr(init.width), center=repr(init.center),
                   momentum=repr(init.momentum), omega_bar=repr(init.omega_bar))
    if init.kind == "solitary_plus_bump":
        sec.update(bump_amplitude_re=repr(init.bump_amplitude.real),
                   bump_amplitude_im=repr(init.bump_amplitude.imag),
                   bump_width=repr(init.bump_width), bump_center=repr(init.bump_center))
    if init.kind == "from_file":
        sec["path"] = init.path
    cp["initial"] = sec
    cp["run"] = {"seed": str(cfg.seed), "energy_tol": repr(cfg.energy_tol),
                 "fd_delta_width": str(cfg.fd_delta_width)}
    cp["outputs"] = {
        "trace": "true" if cfg.out_trace else "false",
        "snapshots": ", ".join(repr(t) for t in cfg.snapshots),
        "spectrum_windows": ", ".join(f"{a}:{b}" for a, b in cfg.spectrum_windows),
        "report": "true" if cfg.out_report else "false",
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()

"""Run configuration: sectioned key/value text files, fully validated at load.

A config is an INI-style document with sections [model], [grid], [time],
[initial], [run], [outputs].  Numbers are parsed as decimal with full
precision.  A key that the run does not read is an error, except the four
that earlier versions read; a [DEFAULT] key must be read in some section,
and a section the run does not know is an error even when it is empty.
Validation collects every violated invariant before failing.

The [initial] section is described once, at load, by its parts, each kind
reading its own keys only: an optional solitary wave and Gaussian packets,
or a snapshot path for from_file data.  `build_initial_state` sums the
parts' states and checks the horizon rule

    half_extent >= support_radius + T + 1

on the sampled data (`fields.support_radius`, which `check_horizon` reads
too), so that no signal (group speed < 1) launched from the data support
can touch the boundary within the run; reflections and periodic wrap-around
are excluded by construction instead of by absorbing layers.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldState, Grid, grid_index, node_span, support_radius, zero_state
from .initial import GaussianSpec, gaussian_state, seeded_gaussian_spec, solitary_state
from .model import OscillatorModel, alpha
from .solitary import wave_on_branch


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


@np.errstate(over="ignore", invalid="ignore")  # non-finite data are refused below
def build_initial_state(cfg: RunConfig) -> FieldState:
    """The initial state of cfg on its grid; ConfigError when the data are
    not finite or break the horizon rule."""
    init = cfg.initial
    grid = cfg.grid
    if init.path:
        from .output import read_snapshot_csv
        state = read_snapshot_csv(init.path)
        if state.grid.n_points != grid.n_points or \
                abs(state.grid.half_extent - grid.half_extent) > 1e-9:
            raise ConfigError([f"grid of {init.path} does not match the [grid] section"])
        state = FieldState(grid, state.psi, state.pi, 0.0)
    else:
        parts = [solitary_state(cfg.model, grid, *init.wave)] if init.wave else []
        parts += [gaussian_state(grid, p) for p in init.packets]
        # summed onto the first part, not onto zeros: 0.0 + -0.0 would lose the sign
        first, *rest = parts or [zero_state(grid)]
        state = FieldState(grid, sum((p.psi for p in rest), first.psi),
                           sum((p.pi for p in rest), first.pi), 0.0)
    if not (np.isfinite(state.psi).all() and np.isfinite(state.pi).all()):
        raise ConfigError(["initial data are not finite"])
    radius = support_radius(state)
    if cfg.half_extent < radius + cfg.T + 1.0:
        raise ConfigError([f"horizon rule violated: half_extent = {cfg.half_extent} < "
                           f"data radius + T + 1 = {radius + cfg.T + 1.0:.3f}"])
    return state


_KNOWN_INITIAL = ("zero", "solitary", "gaussian", "seeded_gaussian",
                  "solitary_plus_bump", "from_file")
_WAVE_KINDS = ("solitary", "solitary_plus_bump")
# the packet keys of the kinds that read a Gaussian packet, with their
# defaults, in GaussianSpec's order: amplitude (re, im), width, center, ...
_PACKET_KEYS = {
    "gaussian": (("amplitude_re", 0.5), ("amplitude_im", 0.0), ("width", 2.0),
                 ("center", 0.0), ("momentum", 0.0), ("omega_bar", 0.0)),
    "solitary_plus_bump": (("bump_amplitude_re", 0.1), ("bump_amplitude_im", 0.0),
                           ("bump_width", 1.0), ("bump_center", 3.0)),
}


# keys that earlier versions read and this one accepts without reading
_LEGACY_KEYS = (("outputs", "trace"), ("outputs", "report"), ("run", "workers"),
                ("run", "fd_delta_width"))


def parse_config_text(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    errors: list[str] = []
    read = set(_LEGACY_KEYS)

    def get(section, key, conv, default=None, required=False):
        read.add((section, cp.optionxform(key)))
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
        if not T / dt < 2 ** 63:  # the steps must count as an array index
            errors.append(f"time.T / time.dt = {T} / {dt} overflows")
        elif grid_index(T, dt) is None:
            errors.append(f"time.T = {T} is not an integer multiple of dt = {dt}")

    ikind = get("initial", "kind", str, "zero")
    if ikind not in _KNOWN_INITIAL:
        errors.append(f"initial.kind must be one of {_KNOWN_INITIAL}, got {ikind!r}")
        read.update(("initial", key) for key in cp.options("initial"))  # no kind, no key check
    # each kind reads its own keys only
    wave, packets, path = None, (), ""
    if ikind in _WAVE_KINDS:
        C = get("initial", "C", float, 0.5)
        wave = (C, get("initial", "theta", float, 0.0), get("initial", "branch", str, "plus"))
        if wave[2] not in ("plus", "minus"):
            errors.append(f"initial.branch must be plus or minus, got {wave[2]!r}")
        elif C <= 0:
            errors.append(f"initial.C must be positive, got {C}")
        elif not math.isfinite(C * C):
            errors.append(f"initial.C = {C} is too large: C**2 overflows")
        elif model is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                alpha_c = float(alpha(model, C ** 2))
            if not math.isfinite(alpha_c):
                errors.append(f"initial.C = {C} is too large: alpha(C**2) is not finite")
            else:
                try:
                    wave_on_branch(model, C, wave[2])
                except ValueError as exc:
                    errors.append(str(exc))
    if ikind in _PACKET_KEYS:
        keys = _PACKET_KEYS[ikind]
        amp_re, amp_im, width, *place = [get("initial", key, float, default)
                                         for key, default in keys]
        # the packet's width, at least one grid spacing
        if width <= 0:
            errors.append(f"initial.{keys[2][0]} must be positive, got {width}")
        elif width < spacing:
            errors.append(f"initial.{keys[2][0]} = {width} is below the grid spacing "
                          f"{spacing!r}")
        packets = (GaussianSpec(complex(amp_re, amp_im), width, *place),)
    elif ikind == "seeded_gaussian":
        seed = get("run", "seed", int, 0)
        if not 0 <= seed < 2 ** 64:  # the seeded stream's counter is a uint64
            errors.append(f"run.seed must be in [0, 2**64), got {seed}")
        else:
            packets = (seeded_gaussian_spec(seed),)
    elif ikind == "from_file":
        path = get("initial", "path", str, "")
        if not path:
            errors.append("initial.path required for from_file data")

    energy_tol = get("run", "energy_tol", float, 1e-4)
    if energy_tol <= 0:
        errors.append(f"run.energy_tol must be positive, got {energy_tol}")
    snapshots = get("outputs", "snapshots", _parse_floats, [])
    spectrum_windows = get("outputs", "spectrum_windows", _parse_windows, [])
    # a [DEFAULT] key reaches every section: it is checked once, against
    # the reads of the sections present
    sections = cp.sections()
    errors += [f"unknown key DEFAULT.{key}" for key in cp.defaults()
               if not any((section, key) in read for section in sections)]
    known_sections = {section for section, _ in read}
    for section in sections:
        # the keys the section holds itself, a [DEFAULT] key it overrides
        # included: remove_option is true only for those
        own = [key for key in list(cp[section]) if cp.remove_option(section, key)]
        if section not in known_sections and not own:
            errors.append(f"unknown section {section}")
        errors += [f"unknown key {section}.{key}" for key in own if (section, key) not in read]
    if errors:
        raise ConfigError(errors)

    for t in snapshots:
        if not (0.0 <= t <= T):
            errors.append(f"snapshot time {t} outside [0, T]")
        elif grid_index(t, dt) is None:
            errors.append(f"snapshot time {t} not on the dt grid")
    for (w0, w1) in spectrum_windows:
        lo, hi = node_span(w0, w1, dt)
        if not (0.0 <= w0 < w1 <= T):
            errors.append(f"spectrum window {w0}:{w1} not inside [0, T]")
        elif hi <= lo:
            errors.append(f"spectrum window {w0}:{w1} holds fewer than two trace samples")
    if errors:
        raise ConfigError(errors)
    return RunConfig(model=model, half_extent=half_extent, n_points=n_points, T=T, dt=dt,
                     initial=InitialSpec(wave, packets, path), energy_tol=energy_tol,
                     snapshots=snapshots, spectrum_windows=spectrum_windows)


def _parse_windows(text: str) -> list[tuple[float, float]]:
    pairs = [part.split(":") for part in text.split(",") if part.strip()]
    return [(float(lo), float(hi)) for lo, hi in pairs]

"""Uniform spatial grid, sampled field states and their one data radius
(`support_radius`), and the trace on a uniform time grid."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Symmetric grid on [-L, L] with an odd point count so x = 0 is a node."""

    half_extent: float
    n_points: int

    def __post_init__(self) -> None:
        if self.half_extent <= 0:
            raise ValueError("half_extent must be positive")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError("n_points must be odd and >= 3")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / (self.n_points - 1)

    @property
    def center_index(self) -> int:
        return (self.n_points - 1) // 2

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(-self.half_extent, self.half_extent, self.n_points)


def grid_index(t: float, dt: float) -> int | None:
    """k with t = k dt within 1e-9 max(1, |t|), or None when t is off the dt grid."""
    k = int(round(t / dt))
    return k if abs(t - k * dt) <= 1e-9 * max(1.0, abs(t)) else None


def node_span(t0: float, t1: float, dt: float) -> tuple[int, int]:
    """(lo, hi): the first and last k with k dt in [t0, t1] widened by 1e-9 dt each side."""
    return int(np.ceil(t0 / dt - 1e-9)), int(np.floor(t1 / dt + 1e-9))


@dataclass
class TraceSeries:
    """Trace z_k = psi(0, k dt)."""

    dt: float
    z: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.z)) * self.dt

    def index_of(self, t: float) -> int:
        j = grid_index(t, self.dt)
        if j is None or not 0 <= j < len(self.z):
            raise ValueError(f"time {t} is not on the trace grid")
        return j


@dataclass
class FieldState:
    """Phase point (psi, pi) sampled on a grid at a given time."""

    grid: Grid
    psi: np.ndarray
    pi: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        self.psi = np.asarray(self.psi, dtype=complex)
        self.pi = np.asarray(self.pi, dtype=complex)
        n = self.grid.n_points
        if self.psi.shape != (n,) or self.pi.shape != (n,):
            raise ValueError("field arrays must match the grid point count")

    def require_finite(self) -> None:
        if not (np.all(np.isfinite(self.psi)) and np.all(np.isfinite(self.pi))):
            raise ValueError("non-finite field data")

    def copy(self) -> "FieldState":
        return FieldState(self.grid, self.psi.copy(), self.pi.copy(), self.time)

    @property
    def center_value(self) -> complex:
        return complex(self.psi[self.grid.center_index])


# magnitude, relative to the peak, below which data count as outside the support
_SUPPORT_REL = 1e-10


def support_radius(state: FieldState) -> float:
    """The largest |x| where |psi| or |pi| exceeds _SUPPORT_REL of its peak,
    0 for zero data: the one data radius of the no-wrap horizon rule."""
    mag = np.maximum(np.abs(state.psi), np.abs(state.pi))
    return float(np.abs(state.grid.x[mag > _SUPPORT_REL * mag.max()]).max(initial=0.0))


def zero_state(grid: Grid, time: float = 0.0) -> FieldState:
    z = np.zeros(grid.n_points, dtype=complex)
    return FieldState(grid, z, z.copy(), time)

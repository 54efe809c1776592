"""Initial data builders and the deterministic counter-based generator.

Each builder samples its part on the grid and gives it no radius: the
horizon rule reads the summed, sampled state (`fields.support_radius`).

Random streams are produced by SplitMix64 evaluated at (seed, counter), so
any run is reproducible from its config alone and independent of library
RNG state:

    x      = (seed + (counter + 1) * 0x9E3779B97F4A7C15) mod 2^64
    x      = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    x      = (x ^ (x >> 27)) * 0x94D049BB133111EB   mod 2^64
    value  = (x ^ (x >> 31)) >> 11, scaled by 2^-53 into [0, 1)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import FieldState, Grid
from .model import OscillatorModel
from .solitary import sample_profile, wave_on_branch

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def uniform_stream(seed: int, counter0: int, n: int) -> np.ndarray:
    """n doubles in [0, 1) at counters counter0 .. counter0 + n - 1."""
    counters = np.arange(counter0 + 1, counter0 + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = np.uint64(seed) + counters * _GOLDEN
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@dataclass(frozen=True)
class GaussianSpec:
    amplitude: complex = 0.5
    width: float = 2.0
    center: float = 0.0
    momentum: float = 0.0
    omega_bar: float = 0.0


def gaussian_state(grid: Grid, spec: GaussianSpec) -> FieldState:
    """psi0 = A exp(-(x-c)^2/(2 w^2)) e^{i p x}, pi0 = -i omega_bar psi0."""
    x = grid.x
    env = np.exp(-((x - spec.center) ** 2) / (2.0 * spec.width ** 2))
    psi = spec.amplitude * env * np.exp(1j * spec.momentum * x)
    return FieldState(grid, psi, -1j * spec.omega_bar * psi, 0.0)


def solitary_state(model: OscillatorModel, grid: Grid, C: float,
                   theta: float = 0.0, branch: str = "plus") -> FieldState:
    """The wave of `wave_on_branch` at phase theta, sampled at t = 0."""
    return sample_profile(replace(wave_on_branch(model, C, branch), theta=theta), grid, 0.0)


def seeded_gaussian_spec(seed: int) -> GaussianSpec:
    """Deterministic random Gaussian data for sweeps and attraction runs.

    Ranges keep the oscillator solidly in its nonlinear regime while the
    data stay compact: |A| in [0.4, 0.9], width in [1.5, 3], center in
    [-2, 2], momentum in [-0.5, 0.5], omega_bar in [-0.6, 0.6].
    """
    u = uniform_stream(seed, 0, 6)
    return GaussianSpec(
        amplitude=(0.4 + 0.5 * u[0]) * np.exp(2j * np.pi * u[1]),
        width=1.5 + 1.5 * u[2],
        center=-2.0 + 4.0 * u[3],
        momentum=-0.5 + 1.0 * u[4],
        omega_bar=-0.6 + 1.2 * u[5],
    )


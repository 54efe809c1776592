"""Leapfrog finite-difference oracle for cross-validation.

Direct discretization of psi_tt = psi_xx - m^2 psi + delta(x) F(psi(0, t))
with the delta approximated by 1/h at the center node (the derivative-jump
condition emerges in the h -> 0 limit).  Steps are taken in velocity-Verlet
form, whose psi-sequence satisfies the classic two-level recursion

    psi^{n+1} = 2 psi^n - psi^{n-1} + dt^2 (D2 psi^n - m^2 psi^n + delta_h F)

exactly, with the first step equal to the Taylor bootstrap from pi0.
Second order in h and dt; this solver exists to validate the Volterra
scheme, not to explore.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldState
from .model import OscillatorModel, force, potential


def check_cfl(grid_spacing: float, dt: float) -> None:
    if dt > 0.9 * grid_spacing:
        raise ValueError(f"CFL violation: dt={dt} > 0.9 h = {0.9 * grid_spacing}")


def _accel(model: OscillatorModel, psi: np.ndarray, h: float, c: int) -> np.ndarray:
    m = model.mass
    acc = np.empty_like(psi)
    acc[1:-1] = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / (h * h)
    acc[0] = 2.0 * (psi[1] - psi[0]) / (h * h)      # even closure; the horizon rule
    acc[-1] = 2.0 * (psi[-2] - psi[-1]) / (h * h)   # keeps the boundary dark anyway
    acc -= m * m * psi
    acc[c] += force(model, complex(psi[c])) / h
    return acc


def fd_step(model: OscillatorModel, state: FieldState, dt: float,
            accel: np.ndarray | None = None) -> tuple[FieldState, np.ndarray]:
    """One explicit step (velocity-Verlet form of the leapfrog recursion).

    `accel` is the acceleration at `state`, computed when omitted.  Returns
    the new state and the acceleration at it, the next step's `accel`.
    """
    grid = state.grid
    h = grid.spacing
    check_cfl(h, dt)
    c = grid.center_index
    a0 = _accel(model, state.psi, h, c) if accel is None else accel
    psi1 = state.psi + dt * state.pi + 0.5 * dt * dt * a0
    a1 = _accel(model, psi1, h, c)
    pi1 = state.pi + 0.5 * dt * (a0 + a1)
    return FieldState(grid, psi1, pi1, state.time + dt), a1


@dataclass
class LeapfrogRun:
    times: np.ndarray
    trace: np.ndarray
    final: FieldState
    energy: np.ndarray


def fd_evolve(model: OscillatorModel, initial: FieldState, T: float, dt: float,
              record_energy: bool = False) -> LeapfrogRun:
    """Run to time T, recording the center-node trace at every step.  Each
    step's second acceleration serves as the next step's first."""
    initial.require_finite()
    grid = initial.grid
    c = grid.center_index
    check_cfl(grid.spacing, dt)
    n_steps = int(round(T / dt))
    if abs(T - n_steps * dt) > 1e-9 * max(1.0, T):
        raise ValueError("T must be an integer multiple of dt")

    state = initial.copy()
    trace = np.empty(n_steps + 1, dtype=complex)
    trace[0] = state.psi[c]
    energies = np.empty(n_steps if record_energy else 0)
    accel = None
    for j in range(1, n_steps + 1):
        new, accel = fd_step(model, state, dt, accel)
        if record_energy:
            energies[j - 1] = _staggered_energy(model, state.psi, new.psi, dt,
                                                grid.spacing, c)
        state = new
        trace[j] = state.psi[c]
    return LeapfrogRun(times=np.arange(n_steps + 1) * dt, trace=trace,
                       final=state, energy=energies)


def _staggered_energy(model: OscillatorModel, cur: np.ndarray, nxt: np.ndarray,
                      dt: float, h: float, c: int) -> float:
    """Leapfrog-compatible discrete energy at the half step between levels."""
    m = model.mass
    vel = (nxt - cur) / dt
    dcur = (cur[1:] - cur[:-1]) / h
    dnxt = (nxt[1:] - nxt[:-1]) / h
    kin = np.sum(np.abs(vel) ** 2)
    grad = np.sum(np.real(dnxt * np.conj(dcur)))
    mass = m * m * np.sum(np.real(nxt * np.conj(cur)))
    mid = 0.5 * (cur[c] + nxt[c])
    return float(0.5 * h * (kin + grad + mass) + potential(model, complex(mid)))

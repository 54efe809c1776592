"""The full-grid leapfrog loop, kept as the test oracle of `kgpoint.fd.fd_evolve`.

It steps every node of the grid and returns the trace, the final state and,
on request, the staggered discrete energy, where `fd_evolve` steps only the
dependence cone of x = 0 and returns the trace alone.  Both call the same
`_accel`, so their traces agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kgpoint.fd import _accel, check_cfl
from kgpoint.fields import FieldState
from kgpoint.model import OscillatorModel, potential


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

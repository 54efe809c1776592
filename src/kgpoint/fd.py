"""Leapfrog finite-difference oracle for cross-validation: the trace only,
stepped on the dependence cone of x = 0.

Direct discretization of psi_tt = psi_xx - m^2 psi + delta(x) F(psi(0, t))
with the delta approximated by 1/h at the center node (the derivative-jump
condition emerges in the h -> 0 limit).  Steps are taken in velocity-Verlet
form, whose psi-sequence satisfies the classic two-level recursion

    psi^{n+1} = 2 psi^n - psi^{n-1} + dt^2 (D2 psi^n - m^2 psi^n + delta_h F)

exactly, with the first step equal to the Taylor bootstrap from pi0.
Second order in h and dt; this solver exists to validate the Volterra
scheme, not to explore.  A node reaches its neighbours only, one per step
(the numerical domain of dependence of Courant, Friedrichs & Lewy, Math.
Ann. 100 (1928) 32-74), so the trace reads a shrinking window of the grid.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldState, grid_index
from .model import OscillatorModel, force


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


def fd_evolve(model: OscillatorModel, initial: FieldState, T: float, dt: float) -> np.ndarray:
    """The center-node trace psi(0, j dt), j = 0 .. T/dt.  Each step's second
    acceleration serves as the next step's first.

    The window starts n_steps + 2 nodes to each side of the center (or the
    whole grid) and sheds one node per side per step.  Off the grid edge its
    end nodes take the wrong closure, and that error moves inward one node
    per step, so the shed nodes carry it away before it reaches the center.
    """
    initial.require_finite()
    grid = initial.grid
    h = grid.spacing
    check_cfl(h, dt)
    n_steps = grid_index(T, dt)
    if n_steps is None:
        raise ValueError("T must be an integer multiple of dt")

    c = grid.center_index
    w = min(n_steps + 2, c)  # the center's index in the window
    shed = w < c
    psi = initial.psi[c - w:c + w + 1]
    pi = initial.pi[c - w:c + w + 1]
    accel = _accel(model, psi, h, w)
    trace = np.empty(n_steps + 1, dtype=complex)
    trace[0] = psi[w]
    for j in range(1, n_steps + 1):
        psi = psi + dt * pi + 0.5 * dt * dt * accel
        new = _accel(model, psi, h, w)
        pi = pi + 0.5 * dt * (accel + new)
        accel = new
        trace[j] = psi[w]
        if shed:
            psi, pi, accel = psi[1:-1], pi[1:-1], accel[1:-1]
            w -= 1
    return trace

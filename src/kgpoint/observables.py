"""Conserved functionals and energy norms.

Energy, charge and the energy (semi)norms are trapezoid quadratures of the
sampled densities.  The spatial derivative is centered except across x = 0,
where the field generically has a kink (the point coupling forces a jump in
psi'): the trapezoid cells left and right of the kink each use their own
second-order one-sided difference, so the node contributes the average of
the two one-sided densities.  Averaging the derivative itself instead would
zero the kink-node density for a symmetric profile and cost an order of
accuracy.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldState, Grid
from .model import OscillatorModel, potential


def _dx_with_center_kink(psi: np.ndarray, h: float, c: int):
    """Derivative samples along the last axis plus the one-sided pair
    (d_plus, d_minus) at node c; the seminorm and `solitary._profile_rows`
    both take their stencils from here.

    The array entry at c holds the pair average (the jump-symmetric value);
    quadratic functionals must use the pair, not the average.
    """
    d = np.empty_like(psi)
    d[..., 1:-1] = (psi[..., 2:] - psi[..., :-2]) / (2.0 * h)
    d[..., 0] = (psi[..., 1] - psi[..., 0]) / h
    d[..., -1] = (psi[..., -1] - psi[..., -2]) / h
    if c + 2 < psi.shape[-1] and c >= 2:
        d_plus = (-3.0 * psi[..., c] + 4.0 * psi[..., c + 1] - psi[..., c + 2]) / (2.0 * h)
        d_minus = (3.0 * psi[..., c] - 4.0 * psi[..., c - 1] + psi[..., c - 2]) / (2.0 * h)
    else:
        d_plus = (psi[..., c + 1] - psi[..., c]) / h
        d_minus = (psi[..., c] - psi[..., c - 1]) / h
    d[..., c] = 0.5 * (d_plus + d_minus)
    return d, d_plus, d_minus


def _energy_density(state: FieldState, m: float) -> np.ndarray:
    c = state.grid.center_index
    dpsi, d_plus, d_minus = _dx_with_center_kink(state.psi, state.grid.spacing, c)
    density = (np.abs(state.pi) ** 2 + np.abs(dpsi) ** 2
               + m * m * np.abs(state.psi) ** 2)
    density[c] += 0.5 * (abs(d_plus) ** 2 + abs(d_minus) ** 2) - abs(dpsi[c]) ** 2
    return density


def _window_half(grid: Grid, R: float) -> int:
    """Nodes each side of x = 0 in the window |x| <= R; ValueError unless R
    lies between the grid spacing (a node each side) and the half extent."""
    h = grid.spacing
    if not R >= h:
        raise ValueError(f"R = {R!r} is below the grid spacing h = {h!r}: the window "
                         f"|x| <= R needs a node each side of x = 0")
    if R > grid.half_extent + 1e-12:
        raise ValueError("R exceeds the grid half extent")
    return min(int(round(R / h)), grid.center_index)


def norm_e(state: FieldState, m: float, R: float | None = None) -> float:
    """||Psi||_E, or the local seminorm ||Psi||_{E,R} over |x| <= R; R below
    the grid spacing raises ValueError."""
    density = _energy_density(state, m)
    h = state.grid.spacing
    if R is None:
        return float(np.sqrt(np.trapezoid(density, dx=h)))
    c = state.grid.center_index
    half = _window_half(state.grid, R)
    sel = density[c - half:c + half + 1]
    return float(np.sqrt(np.trapezoid(sel, dx=h)))


def energy(model: OscillatorModel, state: FieldState) -> float:
    """Hamiltonian (1/2) int (|pi|^2 + |psi'|^2 + m^2 |psi|^2) dx + U(psi(0))."""
    h = state.grid.spacing
    quad = np.trapezoid(_energy_density(state, model.mass), dx=h)
    return float(0.5 * quad + potential(model, state.center_value))


def charge(state: FieldState) -> float:
    """Charge (i/2) int (conj(psi) pi - conj(pi) psi) dx = -Im int conj(psi) pi dx."""
    integrand = np.conj(state.psi) * state.pi
    val = -np.trapezoid(integrand.imag, dx=state.grid.spacing)
    return float(val)


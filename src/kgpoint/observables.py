"""Conserved functionals and the energy seminorm.

`seminorm_terms` is the one discretization of the local energy seminorm
||Psi||_{E,R}^2 = int_{|x| <= R} (|pi|^2 + |psi'|^2 + m^2 |psi|^2) dx, whose
terms `norm_e`, `energy` and `solitary.distance_to_manifold` all sum; the
charge is a trapezoid quadrature of its density.  The spatial derivative
is centered except across x = 0, where the field generically has a kink
(the point coupling forces a jump in psi'): the trapezoid cells left and
right of the kink each use their own second-order one-sided difference, so
the node contributes the average of the two one-sided densities.
Averaging the derivative itself instead would zero the kink-node density
for a symmetric profile and cost an order of accuracy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fields import FieldState
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


class SeminormTerms(NamedTuple):
    """||Psi||_{E,R}^2 = weights . |rows|^2 + w . |pi|^2 on the window's
    nodes x, with w the trapezoid weights, rows [psi | psi' | psi'(0+),
    psi'(0-)] and weights [m^2 w | w, 0 at x = 0 | w_0/2, w_0/2]: the kink
    node x[half] = 0 reads the one-sided pair, not the average in psi'."""

    rows: np.ndarray
    weights: np.ndarray
    pi: np.ndarray
    w: np.ndarray
    x: np.ndarray
    half: int

    def residual_sq(self, rows=0.0, pi=0.0) -> float:
        """||Psi - Phi||_{E,R}^2 of the candidate rows and pi laid out like
        the state's, summed term by term; the state's own by default."""
        r, r_pi = self.rows - rows, self.pi - pi
        return float(self.weights @ (r.real ** 2 + r.imag ** 2)
                     + self.w @ (r_pi.real ** 2 + r_pi.imag ** 2))


def seminorm_terms(state: FieldState, m: float, R: float | None = None) -> SeminormTerms:
    """The terms of ||Psi||_{E,R} over |x| <= R, or of ||Psi||_E over the
    whole grid when R is None.  The one radius rule: h <= R <= half_extent,
    a node each side of x = 0 and all on the grid, else ValueError."""
    grid = state.grid
    c = grid.center_index
    h = grid.spacing
    if R is not None and not h <= R <= grid.half_extent:
        raise ValueError(f"R = {R} is outside [h, half_extent] = [{h}, {grid.half_extent}]: "
                         f"|x| <= R must hold a node each side of x = 0 and lie on the grid")
    half = c if R is None else min(int(round(R / h)), c)
    lo, hi = c - half, c + half + 1
    d, d_plus, d_minus = _dx_with_center_kink(state.psi, h, c)
    w = np.full(hi - lo, h)
    w[0] = w[-1] = 0.5 * h
    rows = np.concatenate((state.psi[lo:hi], d[lo:hi], (d_plus, d_minus)))
    weights = np.concatenate((m * m * w, w, 0.5 * w[[half, half]]))
    weights[len(w) + half] = 0.0
    return SeminormTerms(rows, weights, state.pi[lo:hi], w, grid.x[lo:hi], half)


def norm_e(state: FieldState, m: float, R: float | None = None) -> float:
    """||Psi||_E, or the local seminorm ||Psi||_{E,R} over |x| <= R; R outside
    [h, half_extent] raises `seminorm_terms`'s ValueError."""
    return float(np.sqrt(seminorm_terms(state, m, R).residual_sq()))


def energy(model: OscillatorModel, state: FieldState) -> float:
    """Hamiltonian (1/2) int (|pi|^2 + |psi'|^2 + m^2 |psi|^2) dx + U(psi(0))."""
    quad = seminorm_terms(state, model.mass).residual_sq()
    return float(0.5 * quad + potential(model, state.center_value))


def charge(state: FieldState) -> float:
    """Charge (i/2) int (conj(psi) pi - conj(pi) psi) dx = -Im int conj(psi) pi dx."""
    integrand = np.conj(state.psi) * state.pi
    val = -np.trapezoid(integrand.imag, dx=state.grid.spacing)
    return float(val)


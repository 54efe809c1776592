"""The exact trace of the linear model F = a psi, an end-to-end oracle of
`kgpoint.volterra.solve_trace` over long times.

With kappa = a/2 < m and omega_a = sqrt(m^2 - kappa^2), the trace equation
z = h + kappa (J0(m .) * z) has the Laplace transform
z^ = h^ / (1 - kappa / sqrt(p^2 + m^2)), so z = h + R * h with the
resolvent

    R(t) = kappa J0(m t) + kappa^2 sin(omega_a t) / omega_a
           + kappa^3 (sin(omega_a .) / omega_a * J0(m .))(t),

h the free trace of the data.  Both convolutions are trapezoid sums, done by
FFT, at the steps dt, dt/2 and dt/4; R and h are smooth, so the sums' errors
run in even powers of the step, and two Romberg steps remove the dt^2 and
dt^4 terms.  h comes from the spectral `kernel.free_trace` at each step and
J0 from scipy, so nothing of the solver's quadrature enters.
"""

from __future__ import annotations

import numpy as np
from scipy import fft
from scipy.special import j0

from kgpoint.fields import FieldState
from kgpoint.kernel import free_trace


def _trapezoid_convolution(a: np.ndarray, b: np.ndarray, step: float) -> np.ndarray:
    """int_0^{t_n} a(t_n - s) b(s) ds at t_n = n step by the trapezoid rule,
    from samples of a and b at 0, step, 2 step, ... (equal lengths)."""
    n = len(a)
    size = fft.next_fast_len(2 * n - 1)
    full = fft.ifft(fft.fft(a, size) * fft.fft(b, size))[:n]
    return step * (full - 0.5 * (a * b[0] + a[0] * b))


def _trapezoid_trace(initial: FieldState, a: float, m: float, T: float,
                     step: float) -> np.ndarray:
    """h + R * h at the nodes of `step` on [0, T], each convolution a
    trapezoid sum."""
    kappa = 0.5 * a
    omega_a = np.sqrt(m * m - kappa * kappa)
    t = np.arange(round(T / step) + 1) * step
    bessel = j0(m * t)
    sine = np.sin(omega_a * t) / omega_a
    resolvent = (kappa * bessel + kappa ** 2 * sine
                 + kappa ** 3 * _trapezoid_convolution(sine, bessel, step).real)
    h = free_trace(initial, t, m)
    return h + _trapezoid_convolution(resolvent, h, step)


def exact_linear_trace(initial: FieldState, a: float, m: float, T: float,
                       dt: float) -> tuple[np.ndarray, float]:
    """(z at t = k dt for k = 0 .. T/dt, the largest change of the last
    Romberg step): the exact trace of `initial` under F = a psi, 0 < a < 2m,
    for data whose free trace is smooth (no kink at x = 0)."""
    levels = [_trapezoid_trace(initial, a, m, T, dt / 2 ** k)[::2 ** k] for k in range(3)]
    once = [(4.0 * fine - coarse) / 3.0 for coarse, fine in zip(levels, levels[1:])]
    z = (16.0 * once[1] - once[0]) / 15.0
    return z, float(np.max(np.abs(z - once[1])))

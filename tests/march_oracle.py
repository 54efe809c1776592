"""The per-step march, kept as the test oracle of `kgpoint.volterra.solve_trace`.

Each step slices the block's finished sources out of the history, takes
their near dot with `np.dot`, calls `_node` for the implicit node and
stores z and g one entry at a time.  `solve_trace` keeps the block's sources
in one reused buffer, stores z once per block and solves the node in a loop
of its own; it does the same arithmetic in the same order, so the two agree
bit for bit.  Both read the far field from the library's own
`_square_spectra` and `_add_square`, so a comparison isolates the march.
`_node` reads `volterra._MAX_ITERATIONS` at call time, as `solve_trace`
does, so that a test that patches it patches both.
"""

from __future__ import annotations

import math

import numpy as np

from kgpoint import volterra
from kgpoint.fields import FieldState, TraceSeries, grid_index
from kgpoint.kernel import bessel_j0, free_trace, kink_split
from kgpoint.model import OscillatorModel, alpha, force
from kgpoint.volterra import (_NEAR, _RESIDUAL_TOL, SolveReport, SolveStatus, _add_square,
                              _square_spectra, _trace_cap)


def _node(coefs: tuple[float, ...], quarter_dt: float, b: complex, mu: float):
    """Solve the implicit node z = b + (dt/4) F(z) from the guess mu; `coefs`
    are the model's alpha coefficients, highest power first.

    F(z) = alpha(|z|^2) z with alpha real, so z = b / mu with mu real, and
    the node becomes the scalar fixed point mu = 1 - (dt/4) alpha(|b|^2 / mu^2).
    Each iteration is one real Horner step and one division; the stopping
    rule is |dz| = |b| |dmu| / |mu mu'| <= _RESIDUAL_TOL max(1, |z|),
    multiplied through by |mu mu'|.  Returns (z, F(z), mu, iterations);
    iterations = 0 flags an iteration that did not converge within
    _MAX_ITERATIONS (a NaN never passes the stopping rule) or divided by
    zero, and z and F(z) then hold no solution.
    """
    b_sq = b.real * b.real + b.imag * b.imag
    b_abs = math.sqrt(b_sq)
    try:
        for it in range(1, volterra._MAX_ITERATIONS + 1):
            s = b_sq / (mu * mu)
            acc = 0.0
            for c in coefs:
                acc = acc * s + c
            mu_new = 1.0 - quarter_dt * acc
            if b_abs * abs(mu_new - mu) <= _RESIDUAL_TOL * max(abs(mu * mu_new), b_abs * abs(mu)):
                break
            mu = mu_new
        else:
            return b, b, mu, 0
        z = b / mu_new
        s = b_sq / (mu_new * mu_new)
    except ZeroDivisionError:
        return b, b, mu, 0
    acc = 0.0
    for c in coefs:
        acc = acc * s + c
    return z, acc * z, mu_new, it


def solve_trace_oracle(model: OscillatorModel, initial: FieldState, T: float, dt: float
                       ) -> SolveReport:
    """Integrate the trace equation on [0, T] with step dt, as `solve_trace`
    does, without its step-size and horizon checks."""
    n = grid_index(T, dt) + 1
    m = model.mass
    times = np.arange(n) * dt
    cap = _trace_cap(model, initial)

    split = kink_split(initial, m)
    src = split.source(times)
    h = free_trace(split.rest, times, m) + src / (-2.0 * split.kappa1)
    squares = _square_spectra(bessel_j0(m * times), n)
    lags = bessel_j0(m * (np.arange(_NEAR - 1, 0, -1) * dt)).astype(complex)
    near_lags = [lags[_NEAR - 1 - r:] for r in range(_NEAR)]

    coefs = model.alpha_coefficients[::-1]
    quarter_dt = 0.25 * dt
    half_dt = 0.5 * dt

    z = np.empty(n, dtype=complex)
    g = np.empty(n, dtype=complex)
    far = np.zeros(n, dtype=complex)
    z[0] = complex(initial.psi[initial.grid.center_index])
    g[0] = 0.5 * (force(model, z[0]) + src[0])
    mu_0 = 1.0 - quarter_dt * float(alpha(model, abs(z[0]) ** 2))
    mu_1 = mu_2 = mu_3 = mu_4 = mu_5 = mu_6 = mu_0

    status = SolveStatus.COMPLETED
    message = ""
    iterations = iterations_max = 0
    last = n
    for start in range(0, n, _NEAR):
        if start:
            _add_square(far, g, start, squares)
        block = slice(start, start + _NEAR)
        known = (h[block] + half_dt * far[block] + quarter_dt * src[block]).tolist()
        src_block = src[block].tolist()
        for r in range(1 if start == 0 else 0, len(known)):
            j = start + r
            b = known[r] + half_dt * complex(np.dot(g[start:j], near_lags[r]))
            guess = 6.0 * (mu_1 + mu_5) - 15.0 * (mu_2 + mu_4) + 20.0 * mu_3 - mu_6
            zj, fj, mu, it = _node(coefs, quarter_dt, b, guess)
            if not it:
                status = SolveStatus.NON_FINITE
                message = f"implicit node failed to converge at t={times[j]:.6g}"
                last = j
                break
            iterations += it
            iterations_max = max(iterations_max, it)
            z[j] = zj
            g[j] = fj + src_block[r]
            mu_6, mu_5, mu_4, mu_3, mu_2, mu_1 = mu_5, mu_4, mu_3, mu_2, mu_1, mu
            if abs(zj) > cap:
                status = SolveStatus.TRACE_BOUND_EXCEEDED
                message = (f"|z|={abs(zj):.3g} exceeded the a priori bound cap {cap:.3g} "
                           f"at t={times[j]:.6g}")
                last = j + 1
                break
        if last < n:
            break

    return SolveReport(trace=TraceSeries(dt=dt, z=z[:last]), status=status, message=message,
                       node_iterations=iterations, node_iterations_max=iterations_max)

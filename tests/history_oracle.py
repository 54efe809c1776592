"""The complex-dot history loop, kept as the test oracle of `kgpoint.volterra.solve_trace`.

This is the trace solver as it was before the memory sum was split into
real and imaginary parts: the history g is one complex array and each step
takes one complex-by-float dot, which casts the kernel slice to complex.
The free trace comes from the current `free_trace`, so a comparison with
`solve_trace` isolates the history loop.
"""

from __future__ import annotations

import numpy as np

from kgpoint.fields import FieldState
from kgpoint.kernel import bessel_j0, free_trace
from kgpoint.model import OscillatorModel
from kgpoint.volterra import (SolveReport, SolveStatus, TraceSeries, _newton_node,
                              _scalar_force, _trace_cap)


def solve_trace_oracle(model: OscillatorModel, initial: FieldState, T: float, dt: float,
                       residual_tol: float = 1e-12) -> SolveReport:
    """Integrate the trace equation on [0, T] with step dt.

    Preconditions: T/dt integral, initial data finite, and the grid large
    enough that nothing reaches the boundary within T (horizon rule, caller's
    responsibility).  Returns a report whose status is COMPLETED, NON_FINITE
    (iteration diverged), or ENERGY_DRIFT_EXCEEDED (the a-priori |z| bound
    was violated, signalling dt too large or an ill-posed model).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(T / dt))
    if abs(T - n_steps * dt) > 1e-9 * max(1.0, T):
        raise ValueError("T must be an integer multiple of dt")
    n = n_steps + 1
    m = model.mass
    times = np.arange(n) * dt

    h = free_trace(initial, times, m)
    kern = bessel_j0(m * times)
    kern_rev = kern[::-1].copy()

    F = _scalar_force(model)
    cap = _trace_cap(model, initial)

    z = np.empty(n, dtype=complex)
    g = np.empty(n, dtype=complex)  # f with the j=0 trapezoid half-weight folded in
    f_arr = np.empty(n, dtype=complex)
    z[0] = initial.psi[initial.grid.center_index]
    f_arr[0] = F(complex(z[0]))
    g[0] = 0.5 * f_arr[0]

    status = SolveStatus.COMPLETED
    message = ""
    quarter_dt = 0.25 * dt
    last = n
    for j in range(1, n):
        mem = np.dot(g[:j], kern_rev[n - 1 - j:n - 1])
        b = h[j] + 0.5 * dt * mem
        zj = complex(2.0 * z[j - 1] - z[j - 2]) if j >= 2 else complex(z[0])
        converged = False
        for _ in range(30):
            znew = b + quarter_dt * F(zj)
            if abs(znew - zj) <= residual_tol * max(1.0, abs(znew)):
                zj = znew
                converged = True
                break
            zj = znew
        if not converged:
            zj, converged = _newton_node(model, b, quarter_dt, zj, residual_tol)
        if not converged or zj != zj:  # NaN check
            status = SolveStatus.NON_FINITE
            message = f"implicit node failed to converge at t={times[j]:.6g}"
            last = j
            break
        z[j] = zj
        f_arr[j] = F(zj)
        g[j] = f_arr[j]
        if abs(zj) > cap:
            status = SolveStatus.ENERGY_DRIFT_EXCEEDED
            message = (f"|z|={abs(zj):.3g} exceeded the a priori bound cap {cap:.3g} "
                       f"at t={times[j]:.6g}")
            last = j + 1
            break

    # rebuild the source through the public force path so f = force(z) holds
    # bitwise (the in-loop scalar Horner may differ in the last ulp)
    trace = TraceSeries.from_z(model, dt, z[:last])
    return SolveReport(trace=trace, status=status, message=message)

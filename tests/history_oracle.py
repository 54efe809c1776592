"""The direct O(N^2) history loop, kept as the test oracle of `kgpoint.volterra.solve_trace`.

Each step sums the whole history in one complex-by-float dot against the
reversed kernel, where `solve_trace` splits the sum into a near dot and
FFT-convolved far-field squares.  The free trace comes from the current
`free_trace` of the kink-free remainder, the kink pair's point source joins
F(z) in the sum as in `solve_trace`, and each step solves its implicit node
with the current `_node` from the same degree-5 predictor of mu, so a
comparison with `solve_trace` isolates the history loop.  The node must be
the same: the trace dynamics amplify node differences of 1e-14 per step
into gaps of 1e-10 over T = 600, which would swamp the history sum's 1e-12.
"""

from __future__ import annotations

import numpy as np

from kgpoint.fields import FieldState
from kgpoint.kernel import bessel_j0, free_trace, kink_split
from kgpoint.model import OscillatorModel, alpha, force
from kgpoint.volterra import SolveReport, SolveStatus, TraceSeries, _node, _trace_cap


def solve_trace_oracle(model: OscillatorModel, initial: FieldState, T: float, dt: float
                       ) -> SolveReport:
    """Integrate the trace equation on [0, T] with step dt.

    Preconditions: T/dt integral, initial data finite, and the grid large
    enough that nothing reaches the boundary within T (horizon rule, caller's
    responsibility).  Returns a report whose status is COMPLETED, NON_FINITE
    (iteration diverged), or TRACE_BOUND_EXCEEDED (the a-priori |z| bound
    was violated, signalling an ill-posed model).  The step-size check of
    `solve_trace` is not repeated here: the oracle only isolates the history
    dot.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(T / dt))
    if abs(T - n_steps * dt) > 1e-9 * max(1.0, T):
        raise ValueError("T must be an integer multiple of dt")
    n = n_steps + 1
    m = model.mass
    times = np.arange(n) * dt

    split = kink_split(initial, m)
    src = split.source(times)
    h = free_trace(split.rest, times, m) + src / (-2.0 * split.kappa1)
    kern = bessel_j0(m * times)
    kern_rev = kern[::-1].copy()

    coefs = model.alpha_coefficients[::-1]
    cap = _trace_cap(model, initial)

    z = np.empty(n, dtype=complex)
    # the sources F(z) + src, with the j=0 trapezoid half-weight folded in
    g = np.empty(n, dtype=complex)
    z[0] = initial.psi[initial.grid.center_index]
    g[0] = 0.5 * (force(model, z[0]) + src[0])

    status = SolveStatus.COMPLETED
    message = ""
    quarter_dt = 0.25 * dt
    # mu_hist[k - 1] is the multiplier of step j - k
    mu_hist = [1.0 - quarter_dt * float(alpha(model, abs(z[0]) ** 2))] * 6
    last = n
    for j in range(1, n):
        mem = np.dot(g[:j], kern_rev[n - 1 - j:n - 1])
        b = complex(h[j] + 0.5 * dt * mem + quarter_dt * src[j])
        mu_1, mu_2, mu_3, mu_4, mu_5, mu_6 = mu_hist
        guess = 6.0 * (mu_1 + mu_5) - 15.0 * (mu_2 + mu_4) + 20.0 * mu_3 - mu_6
        zj, fj, mu, it = _node(coefs, quarter_dt, b, guess)
        if not it:
            status = SolveStatus.NON_FINITE
            message = f"implicit node failed to converge at t={times[j]:.6g}"
            last = j
            break
        z[j] = zj
        g[j] = fj + src[j]
        mu_hist = [mu] + mu_hist[:-1]
        if abs(zj) > cap:
            status = SolveStatus.TRACE_BOUND_EXCEEDED
            message = (f"|z|={abs(zj):.3g} exceeded the a priori bound cap {cap:.3g} "
                       f"at t={times[j]:.6g}")
            last = j + 1
            break

    return SolveReport(trace=TraceSeries(dt=dt, z=z[:last]), status=status, message=message)

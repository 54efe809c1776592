"""The per-step-rotation free trace, kept as the test oracle of `kgpoint.kernel.free_trace`.

This is the implementation the folded GEMM replaced: every Fourier mode is
rotated by one phasor per time step in a Python loop (re-anchored every
2048 steps), and non-uniform times take one exponential sum per time.
`tests/test_free_trace_gemm.py` compares the fast path against it.
"""

from __future__ import annotations

import numpy as np

from kgpoint.fields import FieldState
from kgpoint.kernel import _mode_data, check_horizon, convolve_j0, kink_split


def free_trace_oracle(initial: FieldState, times: np.ndarray, m: float,
               kink_correction: bool = True) -> np.ndarray:
    """Center-node trace psi1(0, t_j) of the free evolution of `initial`.

    Equals `free_evolve(initial, t).psi[center]` for every requested time
    (same discrete propagator, evaluated at one node), vectorized over times
    by per-mode phase rotation.

    Sampled data with a derivative kink at x = 0 (every solitary profile)
    put O(1/k^2) tails beyond the grid's Nyquist wavenumber; the aliased
    part re-enters the trace at wrong frequencies with O(h) amplitude at
    early times.  With `kink_correction` the kink content is split off as
    a multiple of e^{-kappa1 |x|} pairs whose free traces are known in
    closed form (`mass_shell_trace` combinations), and only the kink-free
    remainder goes through the grid propagator.  Requires uniform times
    starting at 0; otherwise the plain mode sum is used.
    """
    initial.require_finite()
    times = np.asarray(times, dtype=float)
    if len(times):
        check_horizon(initial, float(np.max(times)), "free_trace")
    grid = initial.grid
    c = grid.center_index

    uniform = (len(times) >= 2 and abs(times[0]) < 1e-14
               and np.allclose(np.diff(times), times[1] - times[0], rtol=1e-10, atol=0))

    psi_work = initial.psi
    pi_work = initial.pi
    correction = None
    split = kink_split(initial, m) if (kink_correction and uniform) else None
    if split is not None:
        psi_work = initial.psi - split.a * split.g
        pi_work = initial.pi - split.b * split.g
        k1, w1 = split.kappa1, split.omega1
        ccos = convolve_j0(times, np.cos(w1 * times), m)
        csin = convolve_j0(times, np.sin(w1 * times), m)
        h_g0 = np.cos(w1 * times) - k1 * ccos
        h_0g = np.sin(w1 * times) / w1 - (k1 / w1) * csin
        correction = split.a * h_g0 + split.b * h_0g

    work = FieldState(grid, psi_work, pi_work, initial.time)
    psi_h, pi_h, k, n = _mode_data(work)
    w = np.sqrt(k * k + m * m)
    phase = np.exp(2j * np.pi * np.arange(n) * c / n)  # e^{i k x_center}
    a_k = psi_h * phase / n
    b_k = pi_h * phase / (n * w)
    cp = 0.5 * (a_k - 1j * b_k)
    cm = 0.5 * (a_k + 1j * b_k)

    out = np.empty(len(times), dtype=complex)
    if uniform:
        dt = times[1] - times[0]
        rot = np.exp(1j * w * dt)
        vp = cp.copy()
        vm = cm.copy()
        block = 2048
        for start in range(0, len(times), block):
            stop = min(start + block, len(times))
            for j in range(start, stop):
                out[j] = vp.sum() + vm.sum()
                vp *= rot
                vm *= np.conj(rot)
            # re-anchor the phases to curb rotation roundoff drift
            if stop < len(times):
                vp = cp * np.exp(1j * w * times[stop])
                vm = cm * np.exp(-1j * w * times[stop])
    else:
        for j, t in enumerate(times):
            out[j] = np.sum(cp * np.exp(1j * w * t) + cm * np.exp(-1j * w * t))

    if correction is not None:
        out += correction
    return out

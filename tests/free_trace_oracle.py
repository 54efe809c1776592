"""The per-step-rotation free trace, kept as the test oracle of `kgpoint.kernel.free_trace`.

This is the first implementation, replaced by a folded GEMM
(`free_trace_gemm_oracle.py`) and that in turn by the type-1 nonuniform
FFT: every Fourier mode is rotated by one phasor per time step in a Python
loop (re-anchored every 2048 steps), and non-uniform times take one
exponential sum per time.  `tests/test_free_trace_gemm.py` compares the
fast path against both oracles.
"""

from __future__ import annotations

import numpy as np

from kgpoint.fields import FieldState
from kgpoint.kernel import _mode_data


def free_trace_oracle(initial: FieldState, times: np.ndarray, m: float) -> np.ndarray:
    """Center-node trace psi1(0, t_j) of the free evolution of `initial`.

    Equals `free_evolve(initial, t).psi[center]` for every requested time
    (same discrete propagator, evaluated at one node), vectorized over times
    by per-mode phase rotation for uniform times starting at 0 and by one
    exponential sum per time otherwise.
    """
    initial.require_finite()
    times = np.asarray(times, dtype=float)
    c = initial.grid.center_index

    uniform = (len(times) >= 2 and abs(times[0]) < 1e-14
               and np.allclose(np.diff(times), times[1] - times[0], rtol=1e-10, atol=0))

    psi_h, pi_h, k, n = _mode_data(initial)
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
    return out

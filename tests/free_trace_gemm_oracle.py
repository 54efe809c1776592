"""The folded-GEMM free trace, kept as the test oracle of `kgpoint.kernel.free_trace`.

This is the implementation the type-1 nonuniform FFT replaced.  The modes
+-k are folded into h(t) = sum_k A_k cos(w_k t) + B_k sin(w_k t), and N
uniform times t = (s L + l) dt, L = ceil(sqrt(N)), are summed by angle
addition as one real matrix product per chunk of modes: O(K N) multiply-adds
for K modes and O(K sqrt(N)) trig calls.  `tests/test_free_trace_gemm.py`
compares the fast path against it.
"""

from __future__ import annotations

import numpy as np

from kgpoint.fields import FieldState
from kgpoint.kernel import _folded_modes


# entries per temporary of the free-trace mode sum, so that a chunk's phase
# and amplitude arrays stay in cache next to the output they accumulate into
_TRACE_ENTRIES = 1 << 13


def _mode_sum(amp_cos: np.ndarray, amp_sin: np.ndarray, w: np.ndarray,
              tau: np.ndarray, t0: np.ndarray) -> np.ndarray:
    """sum_k A_k cos(w_k t) + B_k sin(w_k t) at every t = t0_s + tau_l,
    flattened with index s len(tau) + l.

    By the angle-addition formulas the sum at (s, l) is
    sum_k cos(w_k tau_l) U_ks + sin(w_k tau_l) V_ks, where
    U = A cos(w t0_s) + B sin(w t0_s) and V = B cos(w t0_s) - A sin(w t0_s).
    Per chunk of modes that is one real matrix product of the stacked
    [Re; Im] rows of [U | V] with the stacked [cos; sin] phases of tau; the
    chunks are sized so that each of their arrays holds at most
    _TRACE_ENTRIES entries (unless a single mode's row is already longer).
    """
    n_in, n_out = len(tau), len(t0)
    chunk = max(1, _TRACE_ENTRIES // (4 * max(n_in, n_out)))
    acc = np.zeros((2 * n_out, n_in))
    prod = np.empty_like(acc)
    parts = ((slice(0, n_out), amp_cos.real, amp_sin.real),
             (slice(n_out, None), amp_cos.imag, amp_sin.imag))
    for lo in range(0, len(w), chunk):
        hi = min(lo + chunk, len(w))
        kc = hi - lo
        rot = np.empty((2 * kc, n_in))
        ph = np.multiply.outer(w[lo:hi], tau)
        np.cos(ph, out=rot[:kc])
        np.sin(ph, out=rot[kc:])
        ph0 = np.multiply.outer(t0, w[lo:hi])
        c0, s0 = np.cos(ph0), np.sin(ph0)
        uv = np.empty((2 * n_out, 2 * kc))
        for rows, a, b in parts:
            uv[rows, :kc] = a[lo:hi] * c0 + b[lo:hi] * s0
            uv[rows, kc:] = b[lo:hi] * c0 - a[lo:hi] * s0
        np.matmul(uv, rot, out=prod)
        acc += prod
    return acc[:n_out].ravel() + 1j * acc[n_out:].ravel()


def free_trace(initial: FieldState, times: np.ndarray, m: float) -> np.ndarray:
    """Center-node trace psi1(0, t_j) of the free evolution of `initial`.

    `times` must be uniform and start at 0.  The result equals
    `free_evolve(initial, t).psi[center]` at every requested time (same
    discrete propagator, evaluated at one node).  The modes +-k are folded
    into h(t) = sum_k A_k cos(w_k t) + B_k sin(w_k t) over the n//2+1
    wavenumbers k >= 0 and summed as a blocked real matrix product
    (`_mode_sum`).  N times are split as t = (s L + l) dt with
    L = ceil(sqrt(N)), so each mode needs the phases of L offsets and N/L
    starts only.  The caller checks the horizon and splits off any kink.
    """
    initial.require_finite()
    times = np.asarray(times, dtype=float)
    if not (len(times) >= 2 and abs(times[0]) < 1e-14
            and np.allclose(np.diff(times), times[1] - times[0], rtol=1e-10, atol=0)):
        raise ValueError("free_trace needs at least two uniform times starting at 0")
    amp_cos, amp_sin, w = _folded_modes(initial, m)
    # t_(s L + l) = t_(s L) + l dt; the overshoot past N is cut off
    inner = int(np.ceil(np.sqrt(len(times))))
    tau = np.arange(inner) * (times[1] - times[0])
    return _mode_sum(amp_cos, amp_sin, w, tau, times[::inner])[:len(times)]

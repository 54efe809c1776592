"""Work counts of the kgpoint layers, computed from array sizes.

These repeat exactly between runs, so they let a later change show that it
did less work, separately from how long the work took.
"""

from __future__ import annotations

import numpy as np


def mode_steps(n_points: int, n_times: int) -> int:
    """Phase rotations `free_trace` performs: one per periodic mode per time.

    The periodic grid drops the last node as the duplicate of the first, so
    an n_points grid carries n_points - 1 modes.
    """
    return (n_points - 1) * n_times


def history_macs(n_nodes: int) -> int:
    """Multiply-adds of the memory sum in `solve_trace` over n_nodes trace nodes.

    Step j (j = 1 .. n_nodes - 1) takes a dot product of length j.
    """
    return n_nodes * (n_nodes - 1) // 2


def cone_entries(x: np.ndarray, t: float, dt: float) -> int:
    """Kernel entries of one light-cone sum in `reconstruct_field` at time t.

    The kernels are even in x, so only the right half x >= 0 of the
    symmetric grid is summed; node x inside the cone (|x| <= t) meets the
    trace nodes s_j = j dt <= t - |x|, that is floor((t - |x|)/dt) + 1 of
    them.  The floor carries the solver's 1e-12 guard, so a node a rounding
    error outside the cone counts as on it, as in the solver.
    """
    x = np.asarray(x, dtype=float)
    reach = t - np.abs(x[(len(x) - 1) // 2:])
    last = np.floor(reach / dt + 1e-12).astype(np.int64)  # the solver's own floor
    return int(np.sum(last[last >= 0] + 1))

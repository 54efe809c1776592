"""The nonuniform-FFT free trace against the per-step-rotation oracle, the
folded-GEMM oracle it replaced and a long-double direct sum at long times."""

import tracemalloc

import numpy as np
import pytest
from free_trace_gemm_oracle import free_trace as free_trace_gemm
from free_trace_oracle import free_trace_oracle

from kgpoint import FieldState, Grid, free_trace
from kgpoint.fields import zero_state
from kgpoint.initial import gaussian_state, seeded_gaussian_spec
from kgpoint.kernel import _folded_modes
from kgpoint.solitary import sample_profile


def _assert_matches_oracle(state, times, m=1.0):
    h = free_trace(state, times, m)
    want = free_trace_oracle(state, times, m)
    assert h.shape == want.shape
    assert np.max(np.abs(h - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)
    # the two fast paths agree to at most 1.0e-14 of max|h| on these cases
    gemm = free_trace_gemm(state, times, m)
    assert np.max(np.abs(h - gemm), initial=0.0) <= 1e-13 * np.max(np.abs(h), initial=0.0)


def _bump(grid):
    x = grid.x
    psi = (0.7 + 0.2j) * np.exp(-x * x / 2.0) * np.exp(0.3j * x)
    return FieldState(grid, psi, (0.1 - 0.4j) * psi)


def test_kinked_solitary(half_wave):
    state = sample_profile(half_wave, Grid(71.0, 2 ** 14 + 1), 0.0)
    _assert_matches_oracle(state, np.arange(10001) * 1e-3)


def test_seeded_gaussian_long_horizon():
    state = gaussian_state(Grid(630.0, 2 ** 11 + 1), seeded_gaussian_spec(1))
    _assert_matches_oracle(state, np.arange(30001) * 0.02)


@pytest.mark.parametrize("n_times", [2, 3, 10, 50, 1001])
def test_time_counts_not_square(n_times):
    # ceil(sqrt(N)) inner offsets times ceil(N / that) starts overshoot N
    # for all but perfect squares; the overshoot must be cut off
    _assert_matches_oracle(_bump(Grid(40.0, 1025)), np.arange(n_times) * 0.03)


@pytest.mark.parametrize("times", [np.arange(1, 300) * 0.01,
                                   np.sort(np.random.default_rng(7).uniform(0.0, 5.0, 300)),
                                   np.zeros(1)])
def test_rejects_times_not_uniform_from_zero(half_wave, times):
    state = sample_profile(half_wave, Grid(64.0, 2 ** 12 + 1), 0.0)
    with pytest.raises(ValueError, match="uniform times starting at 0"):
        free_trace(state, times, 1.0)


def test_three_point_grid():
    grid = Grid(1.0, 3)
    state = FieldState(grid, np.array([0.2, 1.0 + 0.5j, -0.3j]),
                       np.array([0.1j, -0.4, 0.25]))
    _assert_matches_oracle(state, np.arange(7) * 0.1)


def test_zero_data():
    # max|h| = 0, so the tolerance demands exact zeros
    _assert_matches_oracle(zero_state(Grid(40.0, 1025)), np.arange(500) * 0.01)


def _direct_sum(state, steps, dt, m=1.0):
    """h(j dt) at the steps j summed mode by mode over the folded modes, each
    phase w_k j dt formed and reduced mod 2 pi in long double."""
    amp_cos, amp_sin, w = _folded_modes(state, m)
    two_pi = 8 * np.arctan(np.longdouble(1))
    phase = np.multiply.outer(steps * np.longdouble(dt), w.astype(np.longdouble)) % two_pi
    phase = phase.astype(float)
    return np.cos(phase) @ amp_cos + np.sin(phase) @ amp_sin


def test_long_horizon_against_direct_sum():
    # 10^5 steps: a fine-grid position off by one double ulp would turn the
    # phase of the last step by 10^5 ulp.  Measured: 3.5e-15 of max|h| on
    # seeds 1, 3 and 7, and 9.7e-13 with the positions formed in double;
    # with the phases w_k j dt in double the reference itself moves by
    # 1.3e-14.
    state = gaussian_state(Grid(630.0, 2 ** 11 + 1), seeded_gaussian_spec(3))
    n, dt = 100001, 0.02
    h = free_trace(state, np.arange(n) * dt, 1.0)
    steps = np.unique(np.r_[0, 1, n - 1, np.random.default_rng(5).integers(0, n, 61)])
    want = _direct_sum(state, steps, dt)
    assert np.max(np.abs(h[steps] - want)) <= 2e-14 * np.max(np.abs(h))


def test_peak_memory_on_the_sweep_geometry():
    # 2049 points, 30001 times: the fine grid (about 2N complex), the result
    # and blocks of 512 points hold 2.0 MB; the folded GEMM held 1.7 MB
    state = gaussian_state(Grid(630.0, 2 ** 11 + 1), seeded_gaussian_spec(3))
    times = np.arange(30001) * 0.02
    free_trace(state, times, 1.0)  # leave one-time allocations out of the peak
    tracemalloc.start()
    try:
        free_trace(state, times, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6

"""The folded-GEMM free trace against the per-step-rotation oracle."""

import numpy as np
import pytest
from free_trace_oracle import free_trace_oracle

from kgpoint import FieldState, Grid, free_trace
from kgpoint.fields import zero_state
from kgpoint.initial import gaussian_state, seeded_gaussian_spec
from kgpoint.solitary import sample_profile


def _assert_matches_oracle(state, times, m=1.0):
    h = free_trace(state, times, m)
    want = free_trace_oracle(state, times, m)
    assert h.shape == want.shape
    assert np.max(np.abs(h - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)


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

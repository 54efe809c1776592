"""The split real/imaginary history sum of solve_trace against the complex-dot oracle."""

import numpy as np
import pytest
from history_oracle import solve_trace_oracle

from kgpoint import Grid, SolveStatus, solve_trace
from kgpoint.initial import gaussian_state, seeded_gaussian_spec
from kgpoint.solitary import sample_profile


def _assert_matches_oracle(model, state, T, dt):
    rep = solve_trace(model, state, T, dt)
    want = solve_trace_oracle(model, state, T, dt)
    assert rep.status is SolveStatus.COMPLETED and want.status is SolveStatus.COMPLETED
    assert len(rep.trace.z) == len(want.trace.z)
    err = np.max(np.abs(rep.trace.z - want.trace.z))
    assert err <= 1e-12 * np.max(np.abs(want.trace.z))


def test_seeded_gaussian(cubic_model):
    state = gaussian_state(Grid(130.0, 2 ** 11 + 1), seeded_gaussian_spec(3))
    _assert_matches_oracle(cubic_model, state, 100.0, 0.02)


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
def test_solitary_wave(cubic_model, half_wave, dt):
    state = sample_profile(half_wave, Grid(75.0, 2 ** 13 + 1), 0.0)
    _assert_matches_oracle(cubic_model, state, 5.0, dt)

"""The march of solve_trace against the per-step march it replaced, bit for bit.

Both read the same far-field squares, so z, the status, the message and the
node's iteration counts must be equal, not close, on every case and on
every way out of the march.
"""

import numpy as np
import pytest
from march_oracle import solve_trace_oracle

from kgpoint import FieldState, Grid, OscillatorModel, SolveStatus, solve_trace, volterra
from kgpoint.initial import GaussianSpec, gaussian_state, seeded_gaussian_spec
from kgpoint.solitary import sample_profile
from kgpoint.volterra import _NEAR

LONG_SWEEP_GRID = Grid(630.0, 2 ** 11 + 1)
ATTRACT_GRID = Grid(430.0, 2 ** 11 + 1)


def _assert_same_march(model, state, T, dt, status=SolveStatus.COMPLETED):
    got = solve_trace(model, state, T, dt)
    want = solve_trace_oracle(model, state, T, dt)
    assert want.status is status and got.status is status
    assert got.message == want.message
    assert np.array_equal(got.trace.z, want.trace.z)
    assert got.node_iterations == want.node_iterations
    assert got.node_iterations_max == want.node_iterations_max
    return got


@pytest.mark.parametrize("grid, T, seed", [(LONG_SWEEP_GRID, 600.0, 1),
                                           (LONG_SWEEP_GRID, 600.0, 7),
                                           (ATTRACT_GRID, 400.0, 3)],
                         ids=["long_sweep_1", "long_sweep_7", "attract_seed_3"])
def test_seeded_gaussian(cubic_model, grid, T, seed):
    _assert_same_march(cubic_model, gaussian_state(grid, seeded_gaussian_spec(seed)), T, 0.02)


def test_kinked_solitary_wave(cubic_model, half_wave):
    state = sample_profile(half_wave, Grid(75.0, 2 ** 13 + 1), 0.0)
    _assert_same_march(cubic_model, state, 5.0, 0.01)


def test_linear_model(linear_model):
    state = gaussian_state(Grid(75.0, 2 ** 12 + 1), GaussianSpec(0.6, 1.5, 3.0, 0.4, 0.3))
    rep = _assert_same_march(linear_model, state, 20.0, 0.01)
    assert rep.node_iterations_max == 1


def test_non_finite_at_the_first_step(cubic_model, monkeypatch):
    # one update never settles the first step of this packet
    monkeypatch.setattr(volterra, "_MAX_ITERATIONS", 1)
    state = gaussian_state(Grid(75.0, 2 ** 12 + 1), GaussianSpec(1.2, 1.0, 3.5))
    rep = _assert_same_march(cubic_model, state, 20.0, 0.01, SolveStatus.NON_FINITE)
    assert rep.message == "implicit node failed to converge at t=0.01"
    assert len(rep.trace.z) == 1 and rep.node_iterations == 0


def test_non_finite_in_a_later_block(cubic_model, monkeypatch):
    # one update settles every step until the packet reaches x = 0; the
    # failing step is step 53 of the eighth block
    monkeypatch.setattr(volterra, "_MAX_ITERATIONS", 1)
    state = gaussian_state(Grid(75.0, 2 ** 12 + 1), GaussianSpec(1.2, 1.0, 4.0))
    rep = _assert_same_march(cubic_model, state, 20.0, 0.01, SolveStatus.NON_FINITE)
    assert rep.message == "implicit node failed to converge at t=5.01"
    assert len(rep.trace.z) == 501 and 501 % _NEAR == 53 and rep.node_iterations == 500


def test_node_divides_by_zero(linear_model, monkeypatch):
    # (dt/4) a = 1 makes the multiplier of z_0, and so the first guess, zero;
    # dt = 4 passes the step rule only with the bound raised
    monkeypatch.setattr(volterra, "_MAX_CONTRACTION", 1.0)
    state = gaussian_state(Grid(75.0, 2 ** 12 + 1), GaussianSpec(0.6, 1.5, 3.0, 0.4, 0.3))
    rep = _assert_same_march(linear_model, state, 20.0, 4.0, SolveStatus.NON_FINITE)
    assert rep.message == "implicit node failed to converge at t=4"
    assert len(rep.trace.z) == 1 and rep.node_iterations == 0


def test_trace_bound_exceeded_mid_block():
    # a > 2m admits exponentially growing modes; the |z| guard trips at
    # t = 36.5, step 33 of its block
    with pytest.warns(UserWarning):
        model = OscillatorModel.linear(1.0, 2.5)
    grid = Grid(75.0, 2 ** 13 + 1)
    g = np.exp(-np.abs(grid.x))
    state = FieldState(grid, g.astype(complex), g.astype(complex))
    rep = _assert_same_march(model, state, 50.0, 0.02, SolveStatus.TRACE_BOUND_EXCEEDED)
    assert len(rep.trace.z) == 1826 and 1825 % _NEAR == 33
    assert abs(rep.trace.z[-1]) > 1e12

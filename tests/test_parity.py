"""Parity: the equation and the point coupling are even in x, so the data
psi(-x), pi(-x) must give the same trace and the mirrored field.

This checks the trace solve, the kink split and the field reconstruction
together against an exact identity.  Measured relative to the max of the
trace and of the field at T/2: 9.0e-15 / 1.9e-14 for the kinked solitary,
8.5e-14 / 9.2e-14 for the cubic Gaussian and 9.4e-14 / 8.8e-14 for the
quintic one.
"""

import numpy as np
import pytest

from kgpoint import FieldState, Grid, OscillatorModel
from kgpoint.initial import GaussianSpec, gaussian_state, solitary_state
from kgpoint.kernel import kink_split
from kgpoint.volterra import SolveStatus, reconstruct_field, solve_trace

CUBIC = OscillatorModel.polynomial(1.0, (0.0, -1.0, 1.0))
QUINTIC = OscillatorModel.polynomial(1.2, (0.1, -2.0, 0.5, 1.0))
GRID = Grid(60.0, 1201)
T = 6.0
TOL = 1e-11


def _solitary_plus_bump():
    base = solitary_state(CUBIC, GRID, 0.5)
    bump = gaussian_state(GRID, GaussianSpec(0.1, 1.0, 3.0))
    return FieldState(GRID, base.psi + bump.psi, base.pi + bump.pi)


CASES = {
    "kinked_solitary": (CUBIC, _solitary_plus_bump, 0.01),
    "cubic_gaussian": (CUBIC, lambda: gaussian_state(
        GRID, GaussianSpec(0.6, 1.0, 2.0, momentum=0.4, omega_bar=0.3)), 0.01),
    "quintic_gaussian": (QUINTIC, lambda: gaussian_state(
        GRID, GaussianSpec(0.4, 1.0, -1.5, momentum=0.6, omega_bar=0.2)), 0.005),
}


@pytest.mark.parametrize("name", list(CASES))
def test_mirrored_data_give_the_same_trace_and_the_mirrored_field(name):
    model, build, dt = CASES[name]
    state = build()
    mirrored = FieldState(GRID, state.psi[::-1].copy(), state.pi[::-1].copy())
    if name == "kinked_solitary":
        assert kink_split(state, model.mass).a != 0
    reports = [solve_trace(model, s, T, dt) for s in (state, mirrored)]
    assert all(rep.status is SolveStatus.COMPLETED for rep in reports)
    z, z_mirrored = (rep.trace.z for rep in reports)
    assert np.max(np.abs(z_mirrored - z)) <= TOL * np.max(np.abs(z))

    field, field_mirrored = (reconstruct_field(model, s, rep.trace, T / 2)
                             for s, rep in zip((state, mirrored), reports))
    scale = max(np.max(np.abs(field.psi)), np.max(np.abs(field.pi)))
    assert np.max(np.abs(field_mirrored.psi - field.psi[::-1])) <= TOL * scale
    assert np.max(np.abs(field_mirrored.pi - field.pi[::-1])) <= TOL * scale

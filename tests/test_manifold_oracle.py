"""`distance_to_manifold` (amplitude scan) against the omega-scan oracle.

Tolerances come from the worst gaps measured over these cases and the
reconstructed states of seeds 1-10 at t = 20 and t = 390 on the same grid:
|rho^2 - rho_oracle^2| reached 2.2e-15 ||Psi||_{E,R}^2 (roundoff of
||Psi||^2 - 2 |<Psi, Phi>| + ||Phi||^2), the relative C^2 gap 6.7e-8, the
omega and kappa gaps 3.4e-8 and 2.5e-8 and the phase gap 3.6e-9.  Both
searches stop where rho^2 is flat to roundoff, which bounds how well they
fix the wave.
"""

import numpy as np
import pytest

from kgpoint import FieldState, Grid, OscillatorModel, distance_to_manifold, sample_profile
from kgpoint.fields import zero_state
from kgpoint.initial import GaussianSpec, gaussian_state, seeded_gaussian_spec
from kgpoint.observables import norm_e
from kgpoint.solitary import LinearSpanFit, SolitaryWave, ZeroWave, waves_at_omega
from kgpoint.volterra import SolveStatus, reconstruct_fields, solve_trace

from manifold_oracle import distance_to_manifold_oracle

R = 5.0
RHO_SQ_TOL = 1e-14     # |rho^2 - rho_oracle^2| / ||Psi||_{E,R}^2
C_SQ_TOL = 5e-7        # relative gap of C^2
FREQ_TOL = 5e-7        # gaps of omega and kappa
THETA_TOL = 3e-8

CUBIC = OscillatorModel.polynomial(1.0, (0.0, -1.0, 1.0))
# alpha(s) = 1 + 12 s - 6 s^2: two amplitude branches at every kappa in (0.5, 1]
QUINTIC = OscillatorModel.polynomial(1.0, (0.0, -0.5, -3.0, 1.0))
LINEAR = OscillatorModel.linear(1.0, 1.0)
OMEGA_8 = 0.6  # kappa = 0.8 on m = 1

GRID = Grid(40.0, 4097)
BUMP = gaussian_state(GRID, GaussianSpec(amplitude=0.01, width=0.7, center=2.0))


def _plus_bump(state):
    return FieldState(GRID, state.psi + BUMP.psi, state.pi + BUMP.pi)


def _quintic_branch(index, sign):
    wave = waves_at_omega(QUINTIC, OMEGA_8)[index]
    return sample_profile(SolitaryWave(wave.amplitude, 0.4, wave.kappa, sign * OMEGA_8), GRID)


def assert_matches_oracle(model, state):
    got = distance_to_manifold(model, state, R)
    want = distance_to_manifold_oracle(model, state, R)
    scale = norm_e(state, model.mass, R=R) ** 2
    assert abs(got.rho ** 2 - want.rho ** 2) <= RHO_SQ_TOL * scale
    assert type(got.best) is type(want.best)
    if isinstance(want.best, SolitaryWave):
        g, w = got.best, want.best
        assert np.sign(g.omega) == np.sign(w.omega)
        assert abs(g.amplitude ** 2 - w.amplitude ** 2) <= C_SQ_TOL * w.amplitude ** 2
        assert abs(g.omega - w.omega) <= FREQ_TOL
        assert abs(g.kappa - w.kappa) <= FREQ_TOL
        assert abs((g.theta - w.theta + np.pi) % (2 * np.pi) - np.pi) <= THETA_TOL
    return got


@pytest.mark.parametrize("sign", [1, -1])
def test_cubic_wave(sign):
    wave = SolitaryWave(0.5, 1.2, 0.5, sign * np.sqrt(0.75))
    got = assert_matches_oracle(CUBIC, sample_profile(wave, GRID))
    assert got.rho < 1e-8


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_quintic_branches(index, sign):
    assert len(waves_at_omega(QUINTIC, OMEGA_8)) == 2
    state = _quintic_branch(index, sign)
    got = assert_matches_oracle(QUINTIC, state)
    assert got.rho < 1e-8
    assert_matches_oracle(QUINTIC, _plus_bump(state))


def test_quintic_branch_mixture():
    lo, hi = _quintic_branch(0, 1), _quintic_branch(1, 1)
    assert_matches_oracle(QUINTIC, FieldState(GRID, 0.5 * (lo.psi + hi.psi),
                                              0.5 * (lo.pi + hi.pi)))


def test_wave_plus_bump():
    base = sample_profile(SolitaryWave(0.5, 0.0, 0.5, np.sqrt(0.75)), GRID)
    got = assert_matches_oracle(CUBIC, _plus_bump(base))
    assert 0.0 < got.rho <= norm_e(BUMP, 1.0, R=R) * (1 + 1e-9)


def test_zero_state():
    got = assert_matches_oracle(CUBIC, zero_state(GRID))
    assert isinstance(got.best, ZeroWave)
    assert got.rho == 0.0


@pytest.mark.parametrize("state", ["span_plus_bump", "gaussian"])
def test_linear_span_fit(state):
    # both fits solve the same 2 x 2 normal equations; the coefficient gaps
    # measured here were at most 1.3e-15 relative
    g = np.exp(-0.5 * np.abs(GRID.x))
    c_plus, c_minus = 0.3 + 0.1j, -0.2 + 0.25j
    if state == "gaussian":
        st = gaussian_state(GRID, GaussianSpec(amplitude=0.5, width=1.5, momentum=0.7,
                                               omega_bar=0.4))
    else:
        st = _plus_bump(FieldState(GRID, (c_plus + c_minus) * g,
                                   1j * np.sqrt(0.75) * (c_plus - c_minus) * g))
    got = assert_matches_oracle(LINEAR, st)
    want = distance_to_manifold_oracle(LINEAR, st, R)
    assert isinstance(got.best, LinearSpanFit)
    for g_c, w_c in ((got.best.c_plus, want.best.c_plus), (got.best.c_minus, want.best.c_minus)):
        assert abs(g_c - w_c) <= 1e-12 * abs(w_c)


def test_band_edge_wave():
    # kappa = 0.05: alpha(s) = 2 - 4 s = 0.1; the oracle's uniform omega
    # grid is coarse in kappa there (d kappa / d omega = -omega / kappa)
    kappa = 0.05
    wave = SolitaryWave(np.sqrt((2.0 - 2.0 * kappa) / 4.0), 0.3, kappa,
                        np.sqrt(1.0 - kappa ** 2))
    got = distance_to_manifold(CUBIC, sample_profile(wave, GRID), R)
    assert got.rho < 1e-8
    assert got.best.kappa == pytest.approx(kappa, abs=1e-6)


@pytest.fixture(scope="module")
def seeded_states():
    """A seeded Gaussian reconstructed at t = 20 and t = 390 (attract_seed grid)."""
    grid = Grid(430.0, 2 ** 11 + 1)
    initial = gaussian_state(grid, seeded_gaussian_spec(3))
    report = solve_trace(CUBIC, initial, 390.0, 0.02)
    assert report.status is SolveStatus.COMPLETED
    return reconstruct_fields(CUBIC, initial, report.trace, [20.0, 390.0])


@pytest.mark.parametrize("which", [0, 1], ids=["t20", "t390"])
def test_reconstructed_seeded_gaussian(seeded_states, which):
    assert_matches_oracle(CUBIC, seeded_states[which])

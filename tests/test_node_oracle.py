"""The real-multiplier node of solve_trace against the complex fixed-point node.

Both nodes get the same right-hand side b.  Along solved long_sweep
trajectories (warm starts from the previous step) the two agreed to
1.96e-14 max(1, |z|) over seeds 1-10; from cold starts at random b in the cap
disc they agreed to 4.0e-13 max(1, |z|) at dt L/4 = 0.4995, where each stops
within (1/2)/(1 - 1/2) _RESIDUAL_TOL max(1, |z|) of the fixed point.
"""

import numpy as np
import pytest
from node_oracle import complex_node, scalar_force

from kgpoint import Grid, OscillatorModel, SolveStatus, solve_trace
from kgpoint.initial import gaussian_state, seeded_gaussian_spec
from kgpoint.model import alpha, force, force_lipschitz
from kgpoint.volterra import _RESIDUAL_TOL, _node, _trace_cap

CUBIC = OscillatorModel.polynomial(1.0, (0.0, -1.0, 1.0))
QUINTIC = OscillatorModel.polynomial(1.0, (0.0, -0.5, -3.0, 1.0))
LONG_SWEEP_GRID = Grid(630.0, 2 ** 11 + 1)
DT = 0.02
TRAJECTORY_TOL = 3e-14
COLD_TOL = 2 * _RESIDUAL_TOL


# the cubic's a priori bound on the long_sweep data of seed 3, and a quintic
# disc small enough that dt = 0.02 contracts (the quintic's own bound on that
# data would not admit it)
CAPS = {"cubic": _trace_cap(CUBIC, gaussian_state(LONG_SWEEP_GRID, seeded_gaussian_spec(3))),
        "quintic": 0.8}
MODELS = {"cubic": CUBIC, "quintic": QUINTIC}


@pytest.mark.parametrize("seed", [3, 4, 8])
def test_nodes_agree_along_trajectory(seed):
    rep = solve_trace(CUBIC, gaussian_state(LONG_SWEEP_GRID, seeded_gaussian_spec(seed)),
                      600.0, DT)
    assert rep.status is SolveStatus.COMPLETED
    q = 0.25 * DT
    z = rep.trace.z
    b = z - q * force(CUBIC, z)
    mu = 1.0 - q * alpha(CUBIC, np.abs(z) ** 2)
    F, coefs = scalar_force(CUBIC), CUBIC.alpha_coefficients[::-1]
    for j in range(1, len(z)):
        want, it_c = complex_node(F, q, complex(b[j]), complex(z[j - 1]))
        got, f, _, it = _node(coefs, q, complex(b[j]), float(mu[j - 1]))
        assert it and it_c
        assert abs(got - want) <= TRAJECTORY_TOL * max(1.0, abs(want))
        assert abs(f - F(got)) <= 1e-14 * max(1.0, abs(got))


@pytest.mark.parametrize("name", ["cubic", "quintic"])
@pytest.mark.parametrize("contraction", [None, 0.4995], ids=["long_sweep_dt", "limit"])
def test_nodes_agree_in_cap_disc(name, contraction):
    model, cap = MODELS[name], CAPS[name]
    lip = force_lipschitz(model, cap)
    q = 0.25 * DT if contraction is None else contraction / lip
    assert q * lip <= 0.5
    rng = np.random.default_rng(7)
    b = cap * np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
    F, coefs = scalar_force(model), model.alpha_coefficients[::-1]
    for bb in b.tolist():
        want, it_c = complex_node(F, q, bb, bb)
        got, _, _, it = _node(coefs, q, bb, 1.0)
        assert it and it_c
        assert abs(got - want) <= COLD_TOL * max(1.0, abs(want))


@pytest.mark.parametrize("name", ["cubic", "quintic"])
def test_multiplier_map_contracts_by_half(name):
    """Phi(mu) = 1 - q alpha(|b|^2 / mu^2) at q L = 0.4995: with A = q sup|alpha|
    and D = q sup|2 s alpha'| over s <= cap^2, its slope is at most D / (1 - A)
    <= 1/2 for mu >= 1 - A and |b| / mu <= cap."""
    model, cap = MODELS[name], CAPS[name]
    q = 0.4995 / force_lipschitz(model, cap)
    coefs = model.alpha_coefficients
    a_bound = q * sum(abs(c) * cap ** (2 * k) for k, c in enumerate(coefs))
    rng = np.random.default_rng(11)
    n = 20000
    b_abs = cap * (1.0 - a_bound) * np.sqrt(rng.uniform(size=n))
    mu1, mu2 = rng.uniform(1.0 - a_bound, 1.0 + a_bound, size=(2, n))

    def phi(mu):
        return 1.0 - q * alpha(model, (b_abs / mu) ** 2)

    assert np.all(np.abs(phi(mu1) - phi(mu2)) <= 0.5 * np.abs(mu1 - mu2) + 1e-15)


def test_zero_right_hand_side():
    z, f, mu, it = _node(CUBIC.alpha_coefficients[::-1], 0.005, 0j, 1.0)
    assert (z, f, it) == (0j, 0j, 1)
    assert mu == 1.0 - 0.005 * 2.0


@pytest.mark.parametrize("b, guess", [(0.5 + 0.1j, 0.0), (complex("nan+0j"), 1.0)],
                         ids=["zero_guess", "nan"])
def test_failed_node_reports_no_iterations(b, guess):
    assert _node(CUBIC.alpha_coefficients[::-1], 0.005, b, guess)[3] == 0

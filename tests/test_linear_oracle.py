"""`solve_trace` on the linear model against its exact trace (linear_oracle.py)
to T = 100: the error at two steps and the observed order."""

import numpy as np
import pytest

from kgpoint import Grid, OscillatorModel, solve_trace
from kgpoint.fields import FieldState
from kgpoint.initial import GaussianSpec, gaussian_state
from kgpoint.kernel import kink_split
from linear_oracle import exact_linear_trace

M, A, T = 1.0, 1.0, 100.0
KAPPA = 0.5 * A
OMEGA_A = float(np.sqrt(M * M - KAPPA * KAPPA))
GAUSSIAN = GaussianSpec(amplitude=0.6, width=1.5, center=3.0, momentum=0.4, omega_bar=0.3)


def errors_against(initial: FieldState, exact: np.ndarray, fine_dt: float) -> list[float]:
    """max |z - exact| of the solves at 2 fine_dt and fine_dt; exact is on
    the fine_dt grid."""
    model = OscillatorModel.linear(M, A)
    return [float(np.max(np.abs(solve_trace(model, initial, T, k * fine_dt).trace.z
                                - exact[::k])))
            for k in (2, 1)]


def test_gaussian_trace_is_second_order():
    # measured 1.120e-4 / 2.800e-5, order 2.000; Romberg's last step moved
    # the exact trace by 1.2e-13
    init = gaussian_state(Grid(130.0, 2 ** 11 + 1), GAUSSIAN)
    exact, romberg_step = exact_linear_trace(init, A, M, T, 0.01)
    assert romberg_step < 1e-12
    errs = errors_against(init, exact, 0.01)
    assert errs[0] < 1.15e-4 and errs[1] < 2.9e-5
    assert 1.9 <= np.log2(errs[0] / errs[1]) <= 2.1


def test_bound_state_plus_gaussian():
    # the bound state c e^{-kappa |x|} with pi = -i omega_a psi evolves as
    # e^{-i omega_a t}, so by linearity the exact trace is the Gaussian's
    # plus c e^{-i omega_a t}.  Its kink goes through `kink_split`'s pair
    # (amplitude c kappa / kappa1 with kappa1 = 3m/4) and the pair's point
    # source.  Measured 2.469e-4 / 6.177e-5, order 2.00
    grid = Grid(160.0, 2 ** 11 + 1)
    c = 0.3 + 0.2j
    gauss = gaussian_state(grid, GAUSSIAN)
    bound = c * np.exp(-KAPPA * np.abs(grid.x))
    init = FieldState(grid, gauss.psi + bound, gauss.pi - 1j * OMEGA_A * bound, 0.0)
    assert kink_split(init, M).a == pytest.approx(c * KAPPA / (0.75 * M), abs=1e-4)
    exact, _ = exact_linear_trace(gauss, A, M, T, 0.01)
    exact = exact + c * np.exp(-1j * OMEGA_A * 0.01 * np.arange(len(exact)))
    errs = errors_against(init, exact, 0.01)
    assert errs[0] < 2.55e-4 and errs[1] < 6.4e-5
    assert 1.9 <= np.log2(errs[0] / errs[1]) <= 2.1

import numpy as np
import pytest

import fd_oracle
from kgpoint import FieldState, Grid, solve_trace
from kgpoint.fd import _accel, fd_evolve
from kgpoint.fields import zero_state
from kgpoint.initial import GaussianSpec, gaussian_state
from kgpoint.solitary import sample_profile


class TestStep:
    def test_zero_stays_zero(self, cubic_model):
        grid = Grid(10.0, 501)
        st, _ = fd_oracle.fd_step(cubic_model, zero_state(grid), 0.01)
        assert np.max(np.abs(st.psi)) == 0.0
        assert np.max(np.abs(st.pi)) == 0.0

    def test_cfl_rejected(self, cubic_model):
        grid = Grid(10.0, 501)  # h = 0.04
        with pytest.raises(ValueError):
            fd_oracle.fd_step(cubic_model, zero_state(grid), 0.05)
        with pytest.raises(ValueError):
            fd_evolve(cubic_model, zero_state(grid), 1.0, 0.05)

    def test_T_on_the_dt_grid(self, cubic_model):
        # the shared rule: T = k dt within 1e-9 max(1, T)
        grid = Grid(10.0, 501)
        assert len(fd_evolve(cubic_model, zero_state(grid), 1.0 + 5e-10, 0.02)) == 51
        for T in (1.05, 1.0 + 5e-9):
            with pytest.raises(ValueError, match="T must be an integer multiple of dt"):
                fd_evolve(cubic_model, zero_state(grid), T, 0.02)

    def test_two_level_recursion_identity(self, cubic_model):
        # velocity-Verlet steps satisfy the classic leapfrog recursion
        # psi2 - 2 psi1 + psi0 = dt^2 accel(psi1) to roundoff
        grid = Grid(20.0, 801)
        st0 = gaussian_state(grid, GaussianSpec(amplitude=0.5, width=1.5, omega_bar=0.4))
        dt = 0.02
        st1, _ = fd_oracle.fd_step(cubic_model, st0, dt)
        st2, _ = fd_oracle.fd_step(cubic_model, st1, dt)
        lhs = st2.psi - 2.0 * st1.psi + st0.psi
        rhs = dt * dt * _accel(cubic_model, st1.psi, grid.spacing, grid.center_index)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


    @pytest.mark.parametrize("half_extent, n, dt, T", [
        (82.0, 2735, 0.032, 1.024), (82.0, 5469, 0.016, 1.024),
        (82.0, 10937, 0.008, 1.024), (82.0, 21873, 0.004, 1.024),
        (30.0, 1501, 0.02, 10.0),   # cone narrower than the grid
        (5.0, 101, 0.05, 8.0)])     # cone wider than the grid: no node is shed
    def test_cone_trace_equals_full_grid_loop(self, cubic_model, half_wave,
                                              half_extent, n, dt, T):
        # fd_evolve steps only the dependence cone of x = 0; the oracle steps
        # every node.  The first four are the criterion-7 levels, for 32 steps
        # of the coarsest
        init = sample_profile(half_wave, Grid(half_extent, n), 0.0)
        trace = fd_evolve(cubic_model, init, T, dt)
        assert trace.shape == (int(round(T / dt)) + 1,)
        assert np.array_equal(trace, fd_oracle.fd_evolve(cubic_model, init, T, dt).trace)


class TestDispersion:
    @staticmethod
    def von_neumann_omega(k, m, h, dt):
        """Discrete dispersion of the leapfrog scheme (the analysis oracle):
        (4/dt^2) sin^2(w dt/2) = (4/h^2) sin^2(k h/2) + m^2."""
        w_sq = (4.0 / h ** 2) * np.sin(0.5 * k * h) ** 2 + m * m
        return (2.0 / dt) * np.arcsin(0.5 * dt * np.sqrt(w_sq))

    def test_scheme_realizes_von_neumann_symbol(self, cubic_model):
        # odd data never touches x = 0, so the force stays off; the exact
        # discrete eigenpair (pi0 = -i sin(w dt)/dt psi0) must rotate at the
        # von Neumann frequency to roundoff at interior probes
        k = 2.0 * np.pi * 8 / 40.0
        T, n, dt = 4.0, 801, 0.02
        grid = Grid(20.0, n)
        om_d = self.von_neumann_omega(k, 1.0, grid.spacing, dt)
        psi = np.sin(k * grid.x).astype(complex)
        st = FieldState(grid, psi, -1j * (np.sin(om_d * dt) / dt) * psi)
        run = fd_oracle.fd_evolve(cubic_model, st, T, dt)
        probe = grid.center_index + n // 8  # boundary influence needs t > 15
        want = psi[probe] * np.exp(-1j * om_d * T)
        assert abs(run.final.psi[probe] - want) < 1e-10

    def test_dispersion_error_second_order(self):
        # |von Neumann omega - omega(k)| measured under joint (h, dt) halving
        k = 2.0 * np.pi * 8 / 40.0
        om = np.sqrt(k * k + 1.0)
        errs = [abs(self.von_neumann_omega(k, 1.0, h, dt) - om)
                for h, dt in ((0.05, 0.02), (0.025, 0.01), (0.0125, 0.005))]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.9 <= o <= 2.1 for o in orders)


class TestSolitaryOracle:
    def test_trace_error_second_order(self, cubic_model, half_wave):
        errs = []
        for n, dt in ((1501, 0.02), (3001, 0.01)):
            grid = Grid(30.0, n)
            init = sample_profile(half_wave, grid, 0.0)
            trace = fd_evolve(cubic_model, init, 10.0, dt)
            exact = 0.5 * np.exp(-1j * half_wave.omega * dt * np.arange(len(trace)))
            errs.append(np.max(np.abs(trace - exact)))
        assert errs[0] / errs[1] >= 2.0  # second order in practice (ratio ~ 4)

    def test_discrete_energy_bounded_non_accumulating(self, cubic_model, half_wave):
        grid = Grid(112.0, 3201)  # h = 0.07, horizon-safe to T = 50
        init = sample_profile(half_wave, grid, 0.0)
        run = fd_oracle.fd_evolve(cubic_model, init, 50.0, 0.025, record_energy=True)
        drift = np.abs(run.energy - run.energy[0]) / abs(run.energy[0])
        assert drift.max() < 1e-5
        half = len(drift) // 2
        assert drift[half:].max() < 3.0 * max(drift[:half].max(), 1e-14)


class TestAgainstVolterra:
    def test_joint_refinement_halves_discrepancy(self, cubic_model, half_wave):
        # solitary data keeps both schemes cleanly second order (ratio ~ 4);
        # Gaussian data adds a first-order component from the off-grid cone
        # kinks and its ratio only approaches 2 from below
        sups = []
        for n, dt in ((2735, 0.032), (5469, 0.016)):
            grid = Grid(82.0, n)
            init = sample_profile(half_wave, grid, 0.0)
            fd_trace = fd_evolve(cubic_model, init, 8.0, dt)
            vol = solve_trace(cubic_model, init, 8.0, dt)
            sups.append(np.max(np.abs(fd_trace - vol.trace.z)))
        assert sups[0] / sups[1] >= 2.0

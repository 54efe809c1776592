import numpy as np
import pytest

from kgpoint import (FieldState, Grid, OscillatorModel, SolveStatus, TraceSeries,
                     check_bound_below, energy, norm_e, reconstruct_field, reconstruct_fields,
                     solve_full, solve_trace)
from kgpoint.fields import zero_state
from kgpoint.initial import GaussianSpec, gaussian_state, seeded_gaussian_spec
from kgpoint.kernel import KernelTables, kink_split
from kgpoint.model import force_lipschitz
from kgpoint.observables import charge
from kgpoint.output import report_sections_from_solve
from kgpoint.solitary import sample_profile
from kgpoint.volterra import _MAX_ITERATIONS, StepTooLargeError, _trace_cap

SQ75 = float(np.sqrt(0.75))


@pytest.fixture(scope="module")
def run_grid():
    # horizon for T <= 8 with exponential data of kappa = 1/2 (radius ~ 60)
    return Grid(75.0, 2 ** 13 + 1)


@pytest.fixture(scope="module")
def solitary_run(cubic_model, half_wave, run_grid):
    init = sample_profile(half_wave, run_grid, 0.0)
    report = solve_trace(cubic_model, init, 5.0, 1e-3)
    return init, report


@pytest.fixture(scope="module")
def gaussian_run(cubic_model):
    # smooth data on a grid fine enough that the kink split is zero
    init = gaussian_state(Grid(45.0, 2 ** 11 + 1),
                          GaussianSpec(amplitude=0.6, width=1.5, center=3.0, omega_bar=0.3))
    return init, solve_trace(cubic_model, init, 30.0, 0.01)


class TestSolveTrace:
    def test_zero_data(self, cubic_model, run_grid):
        rep = solve_trace(cubic_model, zero_state(run_grid), 2.0, 1e-2)
        assert rep.status is SolveStatus.COMPLETED
        assert np.max(np.abs(rep.trace.z)) == 0.0

    def test_solitary_tracking(self, half_wave, solitary_run):
        init, rep = solitary_run
        assert rep.status is SolveStatus.COMPLETED
        times = rep.trace.times
        exact = 0.5 * np.exp(-1j * half_wave.omega * times)
        assert np.max(np.abs(rep.trace.z - exact)) < 1e-6

    def test_linear_solitary_tracking(self, linear_model, run_grid):
        # a = 1, m = 1: profile e^{-|x|/2}, omega_a = sqrt(3)/2, any amplitude
        om_a = SQ75
        g = 0.3 * np.exp(-0.5 * np.abs(run_grid.x))
        init = FieldState(run_grid, g.astype(complex), -1j * om_a * g)
        rep = solve_trace(linear_model, init, 5.0, 1e-3)
        times = rep.trace.times
        exact = 0.3 * np.exp(-1j * om_a * times)
        assert np.max(np.abs(rep.trace.z - exact)) < 1e-6

    def test_convergence_order(self, cubic_model, half_wave, run_grid):
        init = sample_profile(half_wave, run_grid, 0.0)
        errs = []
        for dt in (8e-3, 4e-3, 2e-3):
            rep = solve_trace(cubic_model, init, 5.0, dt)
            tt = rep.trace.times
            errs.append(np.max(np.abs(rep.trace.z - 0.5 * np.exp(-1j * half_wave.omega * tt))))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.7 <= o <= 2.3 for o in orders)

    def test_gauge_covariance(self, cubic_model, half_wave, run_grid):
        init = sample_profile(half_wave, run_grid, 0.0)
        th = 0.9
        rot = FieldState(run_grid, np.exp(1j * th) * init.psi, np.exp(1j * th) * init.pi)
        r0 = solve_trace(cubic_model, init, 2.0, 2e-3)
        r1 = solve_trace(cubic_model, rot, 2.0, 2e-3)
        assert np.max(np.abs(r1.trace.z - np.exp(1j * th) * r0.trace.z)) < 1e-10

    def test_rejects_bad_steps(self, cubic_model, run_grid):
        init = zero_state(run_grid)
        with pytest.raises(ValueError):
            solve_trace(cubic_model, init, 1.0, -0.1)
        with pytest.raises(ValueError):
            solve_trace(cubic_model, init, 1.05, 0.1)

    def test_secular_linear_model_flagged(self, run_grid):
        # a > 2m admits exponentially growing modes; the |z| guard trips
        with pytest.warns(UserWarning):
            model = OscillatorModel.linear(1.0, 2.5)
        g = np.exp(-np.abs(run_grid.x))
        init = FieldState(run_grid, g.astype(complex), g.astype(complex))
        rep = solve_trace(model, init, 50.0, 0.01)
        assert rep.status is SolveStatus.TRACE_BOUND_EXCEEDED
        assert len(rep.trace.z) < 5001

    def test_linear_node_takes_one_iteration_per_step(self, linear_model):
        # alpha is the constant a, so mu = 1 - (dt/4) a solves the node at once
        init = gaussian_state(Grid(40.0, 1025), GaussianSpec(amplitude=0.5, width=1.5))
        rep = solve_trace(linear_model, init, 5.0, 0.01)
        assert rep.status is SolveStatus.COMPLETED
        assert rep.node_iterations == 500
        assert rep.node_iterations_max == 1

    def test_node_iterations_on_long_sweep(self, cubic_model):
        # seed 3 on the long_sweep grid: 1.03 iterations per step measured
        # (1.01-1.14 over seeds 1-10), most 5 in one step
        init = gaussian_state(Grid(630.0, 2 ** 11 + 1), seeded_gaussian_spec(3))
        rep = solve_trace(cubic_model, init, 600.0, 0.02)
        assert rep.status is SolveStatus.COMPLETED
        assert rep.node_iterations <= 1.2 * 30000
        assert 1 <= rep.node_iterations_max <= _MAX_ITERATIONS

    def test_step_size_checked_up_front(self, cubic_model):
        init = gaussian_state(Grid(40.0, 1025), GaussianSpec(amplitude=0.5, width=1.5))
        dt_max = 2.0 / force_lipschitz(cubic_model, _trace_cap(cubic_model, init))
        dt = 1.001 * dt_max
        with pytest.raises(StepTooLargeError, match="largest admissible dt"):
            solve_trace(cubic_model, init, 20 * dt, dt)
        dt = 0.999 * dt_max
        assert solve_trace(cubic_model, init, 20 * dt, dt).status is SolveStatus.COMPLETED


class TestReconstruct:
    def test_at_zero_returns_initial(self, cubic_model, solitary_run):
        init, rep = solitary_run
        st = reconstruct_field(cubic_model, init, rep.trace, 0.0)
        assert np.array_equal(st.psi, init.psi)
        assert np.array_equal(st.pi, init.pi)

    def test_center_consistency(self, cubic_model, solitary_run):
        init, rep = solitary_run
        st = reconstruct_field(cubic_model, init, rep.trace, 3.0)
        c = init.grid.center_index
        j = rep.trace.index_of(3.0)
        assert abs(st.psi[c] - rep.trace.z[j]) < 1e-10

    def test_solitary_field_error(self, cubic_model, half_wave, solitary_run):
        init, rep = solitary_run
        st = reconstruct_field(cubic_model, init, rep.trace, 5.0)
        exact = sample_profile(half_wave, init.grid, 5.0)
        diff = FieldState(init.grid, st.psi - exact.psi, st.pi - exact.pi)
        assert norm_e(diff, 1.0, R=5.0) < 1e-3

    def test_off_grid_time_rejected(self, cubic_model, solitary_run):
        init, rep = solitary_run
        with pytest.raises(ValueError):
            reconstruct_field(cubic_model, init, rep.trace, 3.0005)

    def test_undersized_tables_rejected(self, cubic_model, gaussian_run):
        # a table lookup past a_max would clip to the last cell and return a
        # finite but wrong field
        init, rep = gaussian_run
        with pytest.raises(ValueError, match="kernel tables cover"):
            reconstruct_field(cubic_model, init, rep.trace, 30.0, KernelTables(5.0))

    @pytest.mark.parametrize("run, times", [("solitary_run", (0.0, 2.5, 1.0, 5.0)),
                                            ("gaussian_run", (0.0, 12.0, 30.0))])
    def test_fields_equal_single_calls_bitwise(self, cubic_model, request, run, times):
        init, rep = request.getfixturevalue(run)
        kinked = kink_split(init, cubic_model.mass).a != 0
        assert kinked == (run == "solitary_run")
        states = reconstruct_fields(cubic_model, init, rep.trace, times)
        assert [st.time for st in states] == list(times)
        for t, st in zip(times, states):
            one = reconstruct_field(cubic_model, init, rep.trace, t)
            assert st.psi.tobytes() == one.psi.tobytes()
            assert st.pi.tobytes() == one.pi.tobytes()


class TestHorizonWarning:
    @pytest.mark.parametrize("entry", ["solve_trace", "solve_full", "reconstruct_field",
                                       "reconstruct_fields"])
    def test_attributed_to_the_caller(self, cubic_model, entry):
        # zero data on [-10, 10] reach the boundary at t = 10; each entry
        # point warns once, from this file, however deep in the package
        init = zero_state(Grid(10.0, 201))
        trace = TraceSeries(dt=0.02, z=np.zeros(601, dtype=complex))
        calls = {
            "solve_trace": lambda: solve_trace(cubic_model, init, 12.0, 0.02),
            "solve_full": lambda: solve_full(cubic_model, init, 12.0, 0.02),
            "reconstruct_field": lambda: reconstruct_field(cubic_model, init, trace, 12.0),
            "reconstruct_fields": lambda: reconstruct_fields(cubic_model, init, trace, [12.0]),
        }
        with pytest.warns(UserWarning, match="no-wrap horizon") as rec:
            calls[entry]()
        assert [w.filename for w in rec] == [__file__]


class TestSolveFull:
    def test_no_snapshots(self, cubic_model, run_grid):
        rep, snaps = solve_full(cubic_model, zero_state(run_grid), 1.0, 1e-2, ())
        assert snaps == []
        assert rep.energy_samples.shape == (0, 2)

    def test_energy_at_zero_exact(self, cubic_model, half_wave, run_grid):
        init = sample_profile(half_wave, run_grid, 0.0)
        rep, snaps = solve_full(cubic_model, init, 2.0, 2e-3, (0.0,))
        assert rep.energy_samples[0, 1] == energy(cubic_model, init)

    def test_drift_measured_from_initial_data_without_t0_snapshot(
            self, cubic_model, half_wave, run_grid):
        init = sample_profile(half_wave, run_grid, 0.0)
        rep, _ = solve_full(cubic_model, init, 2.0, 2e-3, (1.0, 2.0))
        e0, q0 = energy(cubic_model, init), charge(init)
        assert rep.energy_initial == e0 and rep.charge_initial == q0
        e = rep.energy_samples[:, 1]
        q = rep.charge_samples[:, 1]
        sec = report_sections_from_solve(rep)["solve"]
        assert sec["energy_initial"] == repr(float(e0))
        assert sec["charge_initial"] == repr(float(q0))
        assert float(sec["energy_drift_max_rel"]) == float(np.max(np.abs(e - e0)) / abs(e0))
        assert float(sec["charge_drift_max_abs"]) == float(np.max(np.abs(q - q0)))

    def test_energy_drift_beyond_tol_degrades_status(self, cubic_model, half_wave, run_grid):
        init = sample_profile(half_wave, run_grid, 0.0)
        rep, snaps = solve_full(cubic_model, init, 2.0, 2e-3, (1.0, 2.0), energy_tol=1e-14)
        assert rep.status is SolveStatus.ENERGY_DRIFT_EXCEEDED
        assert "exceeded tol 1e-14" in rep.message
        assert [st.time for st in snaps] == [1.0, 2.0]

    def test_trace_bound_breach_skips_snapshots(self, run_grid):
        # the trace stops before T = 50, so the t = 50 snapshot has no trace
        # to be built from; the status comes back instead of an exception
        with pytest.warns(UserWarning):
            model = OscillatorModel.linear(1.0, 2.5)
        g = np.exp(-np.abs(run_grid.x))
        init = FieldState(run_grid, g.astype(complex), g.astype(complex))
        rep, snaps = solve_full(model, init, 50.0, 0.01, (0.0, 50.0))
        assert rep.status is SolveStatus.TRACE_BOUND_EXCEEDED
        assert snaps == []

    def test_conservation_short_run(self, cubic_model, half_wave, run_grid):
        init = sample_profile(half_wave, run_grid, 0.0)
        rep, snaps = solve_full(cubic_model, init, 5.0, 1e-3, (0.0, 2.5, 5.0))
        assert rep.status is SolveStatus.COMPLETED
        e = rep.energy_samples[:, 1]
        q = rep.charge_samples[:, 1]
        assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-5
        assert np.max(np.abs(q - q[0])) / abs(q[0]) < 1e-5

    def test_a_priori_bound(self, cubic_model, half_wave, run_grid):
        init = sample_profile(half_wave, run_grid, 0.0)
        rep, snaps = solve_full(cubic_model, init, 4.0, 2e-3, (2.0, 4.0))
        A, B = check_bound_below(cubic_model)
        h0 = energy(cubic_model, init)
        bound = 2.0 * 1.0 * (h0 - A) / (1.0 - B)
        for st in snaps:
            assert norm_e(st, 1.0) ** 2 <= bound

    def test_coarse_step_late_reconstruction_energy(self, cubic_model):
        # exercises the sqrt-variable cone-edge rule: at dt = 0.05 the
        # s-trapezoid is under-resolved near the edge for x > 5 and would
        # inflate the measured energy by ~3e-2 without it
        grid = Grid(70.0, 2 ** 12 + 1)
        init = gaussian_state(grid, GaussianSpec(amplitude=0.6, width=1.5,
                                                 center=6.0, omega_bar=0.3))
        e0 = energy(cubic_model, init)
        rep = solve_trace(cubic_model, init, 50.0, 0.05)
        st = reconstruct_field(cubic_model, init, rep.trace, 50.0)
        assert abs(energy(cubic_model, st) - e0) / abs(e0) < 1e-3

    def test_gaussian_conservation(self, cubic_model):
        # data centered away from the origin: the source then switches on
        # smoothly (F(psi0(0)) ~ e^{-8}) and no turn-on front crosses the
        # quadrature cells; remaining drift is plain O(h^2)
        grid = Grid(75.0, 2 ** 14 + 1)
        init = gaussian_state(grid, GaussianSpec(amplitude=0.6, width=1.25,
                                                 center=5.0, omega_bar=0.3))
        rep, _ = solve_full(cubic_model, init, 5.0, 1e-3, (0.0, 2.5, 5.0))
        e = rep.energy_samples[:, 1]
        assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-5
        assert rep.status is SolveStatus.COMPLETED

import types

import numpy as np
import pytest
from scipy.integrate import fixed_quad
from scipy.special import j0 as scipy_j0
from scipy.special import j1 as scipy_j1

import cone_oracle
import table_oracle
from kgpoint import (FieldState, Grid, OscillatorModel, bessel_j0, free_evolve, free_trace,
                     kernel, volterra)
from kgpoint.initial import GaussianSpec, gaussian_state, seeded_gaussian_spec, solitary_state
from kgpoint.kernel import KernelTables, bessel_j1_over_x, kink_split
from kgpoint.observables import norm_e
from kgpoint.solitary import sample_profile


def j0_power_series(x, terms=80):
    """Brute-force ascending series oracle, accurate for moderate |x|."""
    x = np.asarray(x, dtype=np.longdouble)
    q = -(x * x) / 4
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(1, terms):
        term = term * q / (k * k)
        acc = acc + term
    return np.asarray(acc, dtype=float)


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_zero_from_series_oracle(self):
        # bracket the first zero of the series oracle by bisection
        lo, hi = 2.0, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if j0_power_series(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(bessel_j0(root)) < 1e-10

    def test_even(self):
        assert bessel_j0(-3.7) == bessel_j0(3.7)

    def test_matches_series_oracle_on_series_range(self):
        x = np.linspace(0, 14.9, 2000)
        assert np.max(np.abs(bessel_j0(x) - j0_power_series(x))) < 2e-14

    def test_absolute_error_budget_to_1e4(self):
        # independent oracle: the scipy (Cephes) implementation
        x = np.concatenate([np.linspace(0, 40, 30001),
                            np.geomspace(40, 1e4, 30001)])
        assert np.max(np.abs(bessel_j0(x) - scipy_j0(x))) <= 1e-12

    def test_bessel_equation_residual(self):
        h = 1e-4
        for x in (1.0, 5.0, 20.0):
            d2 = (bessel_j0(x + h) - 2 * bessel_j0(x) + bessel_j0(x - h)) / h ** 2
            d1 = (bessel_j0(x + h) - bessel_j0(x - h)) / (2 * h)
            assert abs(d2 + d1 / x + bessel_j0(x)) < 1e-6

    def test_j1_against_scipy(self):
        x = np.concatenate([np.linspace(0, 40, 20001), np.geomspace(40, 1e4, 20001)])
        assert np.max(np.abs(x * bessel_j1_over_x(x) - scipy_j1(x))) <= 1e-12
        assert bessel_j1_over_x(0.0) == pytest.approx(0.5)


@pytest.fixture(scope="module")
def tables_401():
    """The tables of an attraction run (T = 400) and their direct-fill oracles."""
    tables = kernel.KernelTables(401.0)
    return tables, {"j0": table_oracle.direct_values(bessel_j0, 401.0),
                    "j1x": table_oracle.direct_values(bessel_j1_over_x, 401.0)}


# max |two-level fill - direct fill| over the 1.6M entries of a_max = 401 was
# 7.7e-15 for J0 and 6.6e-16 for J1/x, both next to the series/Hankel splice
# at 15, where the direct evaluation itself is noisiest
@pytest.mark.parametrize("name, fn, entry_tol", [("j0", bessel_j0, 1e-14),
                                                 ("j1x", bessel_j1_over_x, 1e-15)])
class TestTwoLevelTableFill:
    def test_coarse_nodes_equal_fn_bytewise(self, tables_401, name, fn, entry_tol):
        values = getattr(tables_401[0], name).values
        nodes = np.arange(0, len(values), kernel._COARSE)
        assert values[nodes].tobytes() == fn(nodes * kernel._TABLE_SPACING).tobytes()

    def test_entries_match_direct_fill(self, tables_401, name, fn, entry_tol):
        values = getattr(tables_401[0], name).values
        want = tables_401[1][name]
        assert values.shape == want.shape
        assert np.max(np.abs(values - want)) <= entry_tol

    def test_lookup_error_within_direct_fill_error(self, tables_401, name, fn, entry_tol):
        # dense sample, a third of it around the splice; over three samples the
        # two-level table's max error against scipy exceeded the direct table's
        # by at most 4e-17 (J1/x) and was 2.7e-15 smaller for J0
        tables, direct = tables_401
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.uniform(0.0, tables.a_max, 200000),
                            rng.uniform(13.0, 30.0, 100000)])
        ref = scipy_j0(x) if name == "j0" else scipy_j1(x) / x
        oracle = types.SimpleNamespace(values=direct[name], spacing=tables.spacing)
        err = np.max(np.abs(cone_oracle.table_lookup(getattr(tables, name), x) - ref))
        err_direct = np.max(np.abs(cone_oracle.table_lookup(oracle, x) - ref))
        assert err <= err_direct + 1e-16


class TestGreen:
    """G = J0(m r)/2 and its interior time derivative -(m^2/2) tau J1(m r)/(m r)
    as the cone sums evaluate them (`volterra._kernels`), at the distance
    d = tau - |x| to the cone edge."""

    tables = KernelTables(10.0)

    def test_outside_cone(self):
        # the cone sums put nothing beyond |x| = t, nor on the front |x| = t
        grid = Grid(4.0, 129)
        t = 1.0
        f = np.ones((17, 1), dtype=complex)
        for field in volterra._cone_quadrature(t / 16, f, grid.x, t, self.tables, 1.0):
            assert np.all(field[np.abs(grid.x) >= t - 1e-12] == 0.0)

    def test_vertex_limit(self):
        # at the vertex, and along the edge d = 0 where r = 0 for every x
        k_psi, k_pi = volterra._kernels(self.tables, 1.0, 0.0, np.array([1e-12]))
        assert k_psi[0] == pytest.approx(0.5, abs=1e-15)
        k_psi, k_pi = volterra._kernels(self.tables, 2.0, np.array([0.3, 1.5]), np.zeros(2))
        assert np.array_equal(k_psi, [0.5, 0.5])
        assert k_pi == pytest.approx(-0.5 * 4.0 * np.array([0.3, 1.5]) * 0.5, rel=1e-15)

    def test_interior_value_vs_series_oracle(self):
        # x=0.6, tau=1.0, m=2: sqrt(1 - 0.36) = 0.8
        k_psi, k_pi = volterra._kernels(self.tables, 2.0, 0.6, np.array([0.4]))
        assert k_psi[0] == pytest.approx(float(j0_power_series(2.0 * 0.8)) / 2.0, abs=1e-14)
        assert k_pi[0] == pytest.approx(-2.0 * scipy_j1(1.6) / 1.6, abs=1e-14)

    def test_array_broadcast(self):
        x = np.array([0.0, 0.3, 2.0])
        d = np.array([0.0, 0.25, 1.0, 3.0])
        out = volterra._kernels(self.tables, 1.0, x[:, None], d)
        assert out.shape == (2, 3, 4)
        for i, x_i in enumerate(x):
            assert np.array_equal(out[:, i], volterra._kernels(self.tables, 1.0, x_i, d))


class TestFreeEvolve:
    def test_plane_wave_eigenmode(self, small_grid):
        k = 2 * np.pi * 12 / (2 * small_grid.half_extent)
        om = np.sqrt(k * k + 1.0)
        psi = np.exp(1j * k * small_grid.x)
        st = FieldState(small_grid, psi, -1j * om * psi)
        out = free_evolve(st, 0.83, 1.0)
        expect = psi * np.exp(-1j * om * 0.83)
        assert np.max(np.abs(out.psi - expect)) < 1e-12
        assert np.max(np.abs(out.pi - (-1j * om) * expect)) < 1e-12

    def test_zero_dt_identity(self, small_grid):
        st = gaussian_state(small_grid, GaussianSpec(amplitude=1.0, width=2.0))
        out = free_evolve(st, 0.0, 1.0)
        assert np.array_equal(out.psi, st.psi)

    def test_energy_isometry(self, small_grid):
        st = gaussian_state(small_grid, GaussianSpec(amplitude=0.7 + 0.2j, width=1.5,
                                                     momentum=0.8, omega_bar=0.4))
        # the energy norm in the discrete-spectral metric, which each Fourier
        # rotation preserves identically (the physical-space quadrature norm
        # differs from it by O(h^2))
        def spectral_norm(state):
            psi_h, pi_h, k, n = kernel._mode_data(state)
            total = np.sum(np.abs(pi_h) ** 2 + (k * k + 1.0) * np.abs(psi_h) ** 2)
            return np.sqrt(total * state.grid.spacing / n)

        n0 = spectral_norm(st)
        n1 = spectral_norm(free_evolve(st, 7.3, 1.0))
        assert abs(n1 / n0 - 1.0) < 1e-12

    def test_composition(self, small_grid):
        st = gaussian_state(small_grid, GaussianSpec(amplitude=1.0, width=1.0))
        one = free_evolve(free_evolve(st, 0.4, 1.0), 0.4, 1.0)
        two = free_evolve(st, 0.8, 1.0)
        assert np.max(np.abs(one.psi - two.psi)) < 1e-10
        assert np.max(np.abs(one.pi - two.pi)) < 1e-10

    def test_rejects_nonfinite(self, small_grid):
        bad = np.zeros(small_grid.n_points, dtype=complex)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            free_evolve(FieldState(small_grid, bad, bad.copy()), 0.1, 1.0)


def dalembert_bessel_trace_oracle(psi0_fn, pi0_fn, t, m, order=400):
    """Direct quadrature of the Green-function trace formula
    (psi0(t) + psi0(-t))/2 - (m t/2) int J1(m r)/r psi0 + (1/2) int J0(m r) pi0,
    with r = sqrt(t^2 - y^2); entirely scipy-based, independent of the
    spectral path."""
    half = 0.5 * (psi0_fn(t) + psi0_fn(-t))

    def f_psi(y):
        r = np.sqrt(np.maximum(t * t - y * y, 0.0))
        # J1(m r)/r -> m/2 as r -> 0
        vals = np.where(r > 1e-12, scipy_j1(m * r) / np.maximum(r, 1e-300), 0.5 * m)
        return vals * psi0_fn(y)

    def f_pi(y):
        r = np.sqrt(np.maximum(t * t - y * y, 0.0))
        return scipy_j0(m * r) * pi0_fn(y)

    int1_re = fixed_quad(lambda y: np.real(f_psi(y)), -t, t, n=order)[0]
    int1_im = fixed_quad(lambda y: np.imag(f_psi(y)), -t, t, n=order)[0]
    int2_re = fixed_quad(lambda y: np.real(f_pi(y)), -t, t, n=order)[0]
    int2_im = fixed_quad(lambda y: np.imag(f_pi(y)), -t, t, n=order)[0]
    return (half - 0.5 * m * t * (int1_re + 1j * int1_im)
            + 0.5 * (int2_re + 1j * int2_im))


class TestFreeTrace:
    def test_zero_data(self, small_grid):
        st = FieldState(small_grid, np.zeros(small_grid.n_points, complex),
                        np.zeros(small_grid.n_points, complex))
        h = free_trace(st, np.arange(0, 2, 0.01), 1.0)
        assert np.max(np.abs(h)) == 0.0

    def test_solitary_data_is_not_free(self, cubic_model, half_wave):
        # the solitary wave needs the point source; its free trace differs
        grid = Grid(64.0, 2 ** 12 + 1)
        st = sample_profile(half_wave, grid, 0.0)
        times = np.arange(0, 5, 0.01)
        h = free_trace(st, times, 1.0)
        exact = 0.5 * np.exp(-1j * half_wave.omega * times)
        assert np.max(np.abs(h - exact)) > 1e-2

    def test_gaussian_vs_bessel_quadrature_oracle(self, small_grid):
        spec = GaussianSpec(amplitude=1.0, width=1.2)
        st = gaussian_state(small_grid, spec)
        h = free_trace(st, np.array([0.0, 0.5, 1.0]), 1.0)

        def psi0_fn(y):
            return np.exp(-np.asarray(y) ** 2 / (2 * 1.2 ** 2))

        def pi0_fn(y):
            return np.zeros_like(np.asarray(y, dtype=float))

        want = dalembert_bessel_trace_oracle(psi0_fn, pi0_fn, 1.0, 1.0)
        assert abs(h[2] - want) / abs(want) < 1e-6

    def test_mass_shell_closed_form(self):
        # data on the shell kappa^2 = m^2 - omega^2 have the closed-form trace
        # e^{-i omega t} - kappa int_0^t J0(m (t - s)) e^{-i omega s} ds.  With
        # F = 0 the trace solve returns the free trace, its kink pair's part
        # summed by the history loop
        grid = Grid(56.0, 2 ** 12 + 1)
        kappa, m = 0.6, 1.0
        omega = np.sqrt(m * m - kappa * kappa)
        g = np.exp(-kappa * np.abs(grid.x))
        st = FieldState(grid, g.astype(complex), -1j * omega * g)
        dt = 0.004
        times = np.arange(2000) * dt
        z = volterra.solve_trace(OscillatorModel.linear(m, 0.0), st, times[-1], dt).trace.z
        osc = np.exp(-1j * omega * times)
        kern = scipy_j0(m * times)
        # trapezoid over s = 0 .. t_j: the full node sum less half of both ends
        conv = dt * (np.convolve(kern, osc)[:len(times)] - 0.5 * kern * osc[0]
                     - 0.5 * kern[0] * osc)
        assert np.max(np.abs(z - (osc - kappa * conv))) < 1e-5

    def test_matches_free_evolve_snapshots_without_correction(self, small_grid):
        # smooth data: the kink split is zero and the trace is the plain
        # grid propagator at the center node
        st = gaussian_state(small_grid, GaussianSpec(amplitude=0.7 + 0.2j, width=1.5,
                                                     momentum=0.8, omega_bar=0.4))
        times = np.arange(4) * 0.7
        h = free_trace(st, times, 1.0)
        c = small_grid.center_index
        for j, t in enumerate(times):
            direct = free_evolve(st, float(t), 1.0).psi[c]
            assert abs(h[j] - direct) < 1e-11

    def test_kink_split_detection(self, small_grid, half_wave):
        st = sample_profile(half_wave, small_grid, 0.0)
        split = kink_split(st, 1.0)
        assert split is not None
        # psi' jump of C e^{-kappa|x|} is -2 kappa C = -0.5
        assert split.a * (-2 * split.kappa1) == pytest.approx(-0.5, abs=1e-8)
        rest = kink_split(split.rest, 1.0)  # the remainder is kink-free
        assert rest.a == 0 and rest.b == 0
        smooth = gaussian_state(small_grid, GaussianSpec(amplitude=1.0, width=2.0))
        split = kink_split(smooth, 1.0)
        assert split.a == 0 and split.b == 0


def _grid_at_spacing(h):
    return Grid(1024 * h, 2049)


# the long_sweep and attract_seed benchmark grids have spacings 0.615 and 0.42
COARSE_SPACINGS = [0.2, 0.42, 0.615]


class TestKinkSplitOnCoarseGrids:
    @pytest.mark.parametrize("h", COARSE_SPACINGS)
    def test_smooth_gaussians_get_no_split(self, h):
        # the one-sided stencils' O(h^4) residue exceeds the threshold here
        grid = _grid_at_spacing(h)
        for seed in range(1, 11):
            split = kink_split(gaussian_state(grid, seeded_gaussian_spec(seed)), 1.0)
            assert split.a == 0 and split.b == 0, seed

    @pytest.mark.parametrize("h", COARSE_SPACINGS)
    def test_solitary_data_keep_their_split(self, cubic_model, h):
        # measured at h = 0.615: a within 0.11% of the h = 0.05 value for the
        # bare profile and 1.2% with the default bump; b within 0.11%
        def splits(grid):
            base = solitary_state(cubic_model, grid, 0.5)
            bump = gaussian_state(grid, GaussianSpec(0.1, 1.0, 3.0))  # the config's default
            bumped = FieldState(grid, base.psi + bump.psi, base.pi + bump.pi)
            return [kink_split(st, 1.0) for st in (base, bumped)]

        for fine, coarse in zip(splits(_grid_at_spacing(0.05)), splits(_grid_at_spacing(h))):
            assert abs(coarse.a - fine.a) <= 0.02 * abs(fine.a)
            assert abs(coarse.b - fine.b) <= 0.02 * abs(fine.b)

    def test_coarse_free_trace_matches_fine_trace(self):
        # seed 5 on the long_sweep grid (spacing 0.615) against h = 0.05, to
        # T = 100: 2.9e-13 (the spurious split made it 6.7e-4)
        spec = seeded_gaussian_spec(5)
        times = np.arange(5001) * 0.02
        fine = free_trace(gaussian_state(Grid(130.0, 5201), spec), times, 1.0)
        coarse = free_trace(gaussian_state(Grid(630.0, 2049), spec), times, 1.0)
        assert np.max(np.abs(coarse - fine)) <= 1e-12


class TestLocalDecay:
    def test_seminorm_decay_rate(self):
        # || Psi_1(t) ||_{E,R=5}^2 for compact data decays ~ t^{-1};
        # fitted log-log slope over [20, 80] must be <= -0.8
        grid = Grid(96.0, 2 ** 13 + 1)
        st = gaussian_state(grid, GaussianSpec(amplitude=1.0, width=1.5))
        ts = np.linspace(20.0, 80.0, 25)
        vals = [norm_e(free_evolve(st, float(t), 1.0), 1.0, R=5.0) ** 2 for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert slope <= -0.8


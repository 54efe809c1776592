import numpy as np
import pytest

from kgpoint import FieldState, Grid, OscillatorModel, charge, energy, norm_e
from kgpoint.fields import zero_state
from kgpoint.initial import GaussianSpec, gaussian_state
from kgpoint.solitary import profile_norm_e_sq, sample_profile


class TestEnergy:
    def test_zero_state_gives_u0(self, small_grid):
        model = OscillatorModel.polynomial(1.0, (0.2, -1.0, 1.0))
        assert energy(model, zero_state(small_grid)) == pytest.approx(0.2)

    def test_solitary_closed_form(self, cubic_model, half_wave):
        # H = |C|^2 (kappa^2 + m^2 + omega^2)/(2 kappa) + U(C), sampled to O(h^2)
        w = half_wave
        closed = 0.5 * profile_norm_e_sq(w, 1.0) + (-(0.5 ** 2) + 0.5 ** 4)
        for n in (2049, 4097):
            grid = Grid(40.0, n)
            st = sample_profile(w, grid, 0.0)
            h = grid.spacing
            assert energy(cubic_model, st) == pytest.approx(closed, abs=5.0 * h * h)
        # and the error actually shrinks like h^2
        e1 = abs(energy(cubic_model, sample_profile(w, Grid(40.0, 2049), 0.0)) - closed)
        e2 = abs(energy(cubic_model, sample_profile(w, Grid(40.0, 4097), 0.0)) - closed)
        assert e1 > 3.0 * e2

    def test_gauge_invariance(self, cubic_model, half_wave, small_grid):
        st = sample_profile(half_wave, small_grid, 0.0)
        rot = FieldState(small_grid, np.exp(1.1j) * st.psi, np.exp(1.1j) * st.pi)
        assert energy(cubic_model, rot) == pytest.approx(energy(cubic_model, st), rel=1e-13)


    def test_three_point_grid(self):
        # the config accepts n_points = 3; the kink pair then falls back to
        # one-sided two-point differences, d+ = -1 and d- = 2 here, and the
        # center node weighs (|d+|^2 + |d-|^2) / 2 in place of the average's
        # square: 5 + 11.5 + 5 on the trapezoid with h = 1
        st = FieldState(Grid(1.0, 3), np.array([1.0, 3.0, 2.0]), np.zeros(3))
        model = OscillatorModel.polynomial(1.0, (0.0, -1.0, 1.0))
        assert energy(model, st) == pytest.approx(0.5 * 16.5 + (-9.0 + 81.0), rel=1e-15)
        assert norm_e(st, 1.0) == pytest.approx(np.sqrt(16.5), rel=1e-15)


class TestCharge:
    def test_rotating_pair(self, small_grid):
        om = 0.8
        st = gaussian_state(small_grid, GaussianSpec(amplitude=1.0, width=1.5, omega_bar=om))
        l2 = np.trapezoid(np.abs(st.psi) ** 2, dx=small_grid.spacing)
        assert charge(st) == pytest.approx(om * l2, rel=1e-12)

    def test_real_pair_is_neutral(self, small_grid):
        x = small_grid.x
        psi = np.exp(-x ** 2).astype(complex)
        pi = (0.3 * np.exp(-0.5 * x ** 2)).astype(complex)
        assert charge(FieldState(small_grid, psi, pi)) == pytest.approx(0.0, abs=1e-13)

    def test_gauge_invariance(self, half_wave, small_grid):
        st = sample_profile(half_wave, small_grid, 0.0)
        rot = FieldState(small_grid, np.exp(0.7j) * st.psi, np.exp(0.7j) * st.pi)
        assert charge(rot) == pytest.approx(charge(st), rel=1e-12)


class TestNormE:
    def test_zero(self, small_grid):
        assert norm_e(zero_state(small_grid), 1.0) == 0.0

    def test_solitary_closed_form(self, half_wave):
        grid = Grid(40.0, 8193)
        st = sample_profile(half_wave, grid, 0.0)
        want = np.sqrt(profile_norm_e_sq(half_wave, 1.0))
        assert norm_e(st, 1.0) == pytest.approx(want, abs=5 * grid.spacing ** 2)

    def test_monotone_in_R(self, half_wave, small_grid):
        st = sample_profile(half_wave, small_grid, 0.0)
        vals = [norm_e(st, 1.0, R=r) for r in (1.0, 2.0, 5.0, 10.0)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_R_beyond_grid_rejected(self, half_wave, small_grid):
        st = sample_profile(half_wave, small_grid, 0.0)
        with pytest.raises(ValueError):
            norm_e(st, 1.0, R=100.0)


class TestFieldInvariants:
    @pytest.mark.parametrize("half_extent,n_points,text", [
        (0.0, 5, "half_extent must be positive"),
        (1.0, 4, "n_points must be odd and >= 3"),
        (1.0, 1, "n_points must be odd and >= 3"),
    ], ids=["half_extent", "even_points", "one_point"])
    def test_grid_rejects(self, half_extent, n_points, text):
        with pytest.raises(ValueError, match=text):
            Grid(half_extent, n_points)

    def test_state_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError, match="field arrays must match the grid point count"):
            FieldState(Grid(1.0, 5), np.zeros(5), np.zeros(4))

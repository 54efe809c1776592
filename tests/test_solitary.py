from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpoint import (FieldState, Grid, OscillatorModel, distance_to_manifold,
                     force, sample_profile, waves_at_omega, waves_from_amplitude)
from kgpoint.fields import zero_state
from kgpoint.initial import GaussianSpec, gaussian_state, seeded_gaussian_spec, solitary_state
from kgpoint.observables import norm_e
from kgpoint.solitary import (LinearWaveFamily, SolitaryWave, ZeroWave,
                              profile_norm_e_sq)

SQ75 = float(np.sqrt(0.75))

# potentials whose alpha(s) = c_0 + c_1 s + c_2 s^2 is quadratic: c = (1, 12, -6),
# (-0.5, 6, -3), (2, 2, -12), (0, 40, -6) and (1.5, 1, -0.75)
QUADRATIC_ALPHA = [(0.0, -0.5, -3.0, 1.0), (0.0, 0.25, -1.5, 0.5), (0.0, -1.0, -0.5, 2.0),
                   (0.0, 0.0, -10.0, 1.0), (0.0, -0.75, -0.25, 0.125)]


def exact_amplitudes(model, level):
    """sqrt(s) of the roots s > 0 of alpha(s) = level, ascending, by the
    quadratic formula in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        c0, c1, c2 = (Decimal(c) for c in model.alpha_coefficients)
        c0 -= Decimal(level)
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            return []
        roots = ((-c1 + sign * disc.sqrt()) / (2 * c2) for sign in (1, -1))
        return sorted(r.sqrt() for r in roots if r > 0)


class TestWavesFromAmplitude:
    def test_standard_pair(self, cubic_model):
        waves = waves_from_amplitude(cubic_model, 0.5)
        assert len(waves) == 2
        assert waves[0].kappa == pytest.approx(0.5)
        assert sorted(w.omega for w in waves) == pytest.approx([-SQ75, SQ75])

    def test_too_large_amplitude_empty(self, cubic_model):
        # alpha(1) = -2 gives kappa < 0: no wave
        assert waves_from_amplitude(cubic_model, 1.0) == []

    def test_linear_negative_coupling_empty(self):
        lin = OscillatorModel.linear(1.0, -1.0)
        for C in (0.1, 0.7, 2.0):
            assert waves_from_amplitude(lin, C) == []

    def test_kappa_below_the_resolution_of_omega_empty(self):
        # alpha(1/4) = 2.2e-16 is the rounding of an exact zero at u_2 = 2, so
        # kappa = 1.1e-16 and omega = sqrt(1 - kappa^2) rounds to m: not a wave
        # inside the gap (found by TestRoundTrip.test_property)
        model = OscillatorModel.polynomial(1.0, (0.0, -1.0, 1.9999999999999998))
        assert waves_from_amplitude(model, 0.5) == []

    def test_omega_zero_single_wave(self):
        # kappa_C = m exactly at alpha(C^2) = 2m: u = [0, -1.5, 1], m = 1,
        # alpha(s) = 3 - 4 s = 2 at s = 1/4
        model = OscillatorModel.polynomial(1.0, (0.0, -1.5, 1.0))
        waves = waves_from_amplitude(model, 0.5)
        assert len(waves) == 1
        assert waves[0].omega == 0.0
        assert waves[0].kappa == pytest.approx(1.0)


class TestConstruction:
    @pytest.mark.parametrize("amplitude,kappa", [(-0.1, 0.5), (0.5, 0.0)],
                             ids=["negative_amplitude", "zero_kappa"])
    def test_wave_rejects_bad_parameters(self, amplitude, kappa):
        with pytest.raises(ValueError, match="amplitude >= 0 and kappa > 0"):
            SolitaryWave(amplitude, 0.0, kappa, 0.5)

    @pytest.mark.parametrize("C,branch,text", [
        (1.0, "plus", "no solitary wave exists at C=1.0 for this model"),
        (0.5, "minus", "no minus-branch solitary wave exists at C=0.5"),
    ], ids=["no_wave", "no_branch"])
    def test_state_rejects_missing_wave(self, small_grid, C, branch, text):
        # u = (0, -1.5, 1): alpha(s) = 3 - 4 s is negative at s = 1 and equals
        # 2m at s = 1/4, where the one wave has omega = 0 (the plus branch)
        model = OscillatorModel.polynomial(1.0, (0.0, -1.5, 1.0))
        with pytest.raises(ValueError, match=text):
            solitary_state(model, small_grid, C, branch=branch)


class TestWavesAtOmega:
    def test_standard_single_root(self, cubic_model):
        res = waves_at_omega(cubic_model, SQ75)
        assert len(res) == 1
        assert res[0].amplitude == pytest.approx(0.5, abs=1e-10)

    def test_center_empty(self, cubic_model):
        # alpha(s) = 2 at s = 0 only, and C must be positive
        assert waves_at_omega(cubic_model, 0.0) == []

    def test_linear_family_flag(self, linear_model):
        res = waves_at_omega(linear_model, SQ75)
        assert isinstance(res, LinearWaveFamily)
        assert res.kappa == pytest.approx(0.5)
        res_off = waves_at_omega(linear_model, 0.3)
        assert res_off == []

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_linear_without_bound_state_empty(self, a):
        # a <= 0 leaves -d^2 + m^2 - a delta without a bound state
        lin = OscillatorModel.linear(1.0, a)
        for omega in (0.0, 0.5, SQ75, -SQ75):
            assert waves_at_omega(lin, omega) == []

    def test_rejects_omega_outside_gap(self, cubic_model):
        with pytest.raises(ValueError):
            waves_at_omega(cubic_model, 1.5)

    def test_multi_branch_potential(self):
        # u = [0, -0.5, -3, 1]: alpha(s) = 1 + 12 s - 6 s^2 rises from 1 to 7
        # then falls, so the level 2 kappa = 1.6 is crossed twice on s > 0
        model = OscillatorModel.polynomial(1.0, (0.0, -0.5, -3.0, 1.0))
        kappa = 0.8
        omega = np.sqrt(1 - kappa ** 2)
        waves = waves_at_omega(model, float(omega))
        assert len(waves) == 2
        for w in waves:
            # each root satisfies the gluing relation 2 kappa C = F(C)
            assert force(model, w.amplitude) == pytest.approx(
                2 * w.kappa * w.amplitude, rel=1e-10)


    def test_upper_branch_past_the_coefficient_sum(self):
        # u = (0, -0.5, -3, 1) at C = 1.42: s = C^2 = 2.0164 solves
        # alpha(s) = 2 kappa for kappa = 0.4008, beyond 1 + (sum_n |u_n| + 2 kappa)
        # / (2 N u_N) = 1.883; the root bound needs sum_{1<=n<N} 2 n |u_n|
        model = OscillatorModel.polynomial(1.0, (0.0, -0.5, -3.0, 1.0))
        wave = waves_from_amplitude(model, 1.42)[0]
        back = waves_at_omega(model, wave.omega)
        assert any(abs(b.amplitude - 1.42) < 1e-10 for b in back)
        near = waves_at_omega(model, 0.9162)
        assert len(near) == 1 and near[0].amplitude == pytest.approx(1.42, abs=1e-4)

    @pytest.mark.parametrize("coefficients", QUADRATIC_ALPHA)
    def test_amplitudes_within_4_ulp_of_the_closed_form(self, coefficients):
        # the level is 2 kappa as waves_at_omega forms it; the grid keeps
        # every root simple (no level within 3e-3 of alpha's maximum)
        model = OscillatorModel.polynomial(1.0, coefficients)
        for omega in np.linspace(-0.99, 0.99, 41):
            kappa = float(np.sqrt(1.0 - omega * omega))
            want = exact_amplitudes(model, 2.0 * kappa)
            got = [w.amplitude for w in waves_at_omega(model, float(omega))]
            assert len(got) == len(want), (omega, got, want)
            for g, e in zip(got, want):
                assert abs(Decimal(g) - e) <= 4 * Decimal(np.spacing(float(e))), (omega, g, e)


class TestRoundTrip:
    def test_standard(self, cubic_model):
        for C in (0.1, 0.3, 0.5, 0.65):
            for w in waves_from_amplitude(cubic_model, C):
                back = waves_at_omega(cubic_model, w.omega)
                assert any(abs(b.amplitude - C) < 1e-10 for b in back)

    @given(C=st.floats(0.05, 0.69), u1=st.floats(-2.0, -0.5), u2=st.floats(0.5, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_property(self, C, u1, u2):
        model = OscillatorModel.polynomial(1.0, (0.0, u1, u2))
        for w in waves_from_amplitude(model, C):
            assert abs(w.omega) < 1.0  # Assumption-2 waves stay inside the gap
            assert w.kappa > 0
            back = waves_at_omega(model, w.omega)
            assert any(abs(b.amplitude - C) < 1e-8 for b in back)


class TestSampleProfile:
    def test_shape_at_origin(self, half_wave, small_grid):
        st = sample_profile(half_wave, small_grid, 0.0)
        c = small_grid.center_index
        assert st.psi[c] == pytest.approx(0.5)
        assert np.all(np.abs(st.psi[c]) >= np.abs(st.psi))
        assert np.max(np.abs(st.psi.imag)) < 1e-15
        assert np.max(np.abs(st.psi - st.psi[::-1])) < 1e-15

    def test_norm_matches_closed_form(self, half_wave):
        want_sq = profile_norm_e_sq(half_wave, 1.0)
        grid = Grid(40.0, 8193)
        st = sample_profile(half_wave, grid, 0.0)
        assert norm_e(st, 1.0) ** 2 == pytest.approx(want_sq, abs=10 * grid.spacing ** 2)

    def test_jump_condition_converges(self, cubic_model, half_wave):
        # discrete (phi'(0+) - phi'(0-)) -> -F(phi(0)) as h -> 0
        want = -force(cubic_model, 0.5)
        gaps = []
        for n in (1025, 2049, 4097, 8193):
            grid = Grid(40.0, n)
            st = sample_profile(half_wave, grid, 0.0)
            c = grid.center_index
            h = grid.spacing
            jump = ((st.psi[c + 1] - st.psi[c]) - (st.psi[c] - st.psi[c - 1])) / h
            gaps.append(abs(jump - want))
        assert gaps[-1] < 0.01 * abs(want)
        assert gaps[0] > gaps[-1]


class TestDistance:
    def test_exact_member(self, cubic_model, small_grid):
        wave = SolitaryWave(0.5, 1.2, 0.5, SQ75)
        st = sample_profile(wave, small_grid, 0.0)
        res = distance_to_manifold(cubic_model, st, 5.0)
        assert isinstance(res.best, SolitaryWave)
        assert res.rho < 1e-8
        assert res.best.amplitude == pytest.approx(0.5, abs=1e-6)
        assert res.best.omega == pytest.approx(SQ75, abs=1e-6)
        assert res.best.theta == pytest.approx(1.2, abs=1e-6)

    def test_admissible_interval_past_the_coefficient_sum(self, small_grid):
        # u = (0, 0, -10, 1): alpha(s) = 40 s - 6 s^2, so kappa = alpha/2 lies in
        # (0, m] near s = 0 and on s in [6.617, 6.667), past the bound 3.17 that
        # summed |u_n|; the sampled C = 2.577 wave (s = 6.641) is found.  The
        # kappa = 0.999 wave on the first interval sits a hair below its end
        # kappa = m, so the golden section also probes s past it, where no
        # wave exists
        model = OscillatorModel.polynomial(1.0, (0.0, 0.0, -10.0, 1.0))
        kappa = 0.999
        s = (20.0 - np.sqrt(400.0 - 12.0 * kappa)) / 6.0
        for wave in (waves_from_amplitude(model, 2.577)[0],
                     SolitaryWave(np.sqrt(s), 0.4, kappa, np.sqrt(1.0 - kappa ** 2))):
            res = distance_to_manifold(model, sample_profile(wave, small_grid, 0.0), 5.0)
            assert isinstance(res.best, SolitaryWave)
            assert res.rho < 1e-8
            assert res.best.amplitude == pytest.approx(wave.amplitude, abs=1e-6)
            assert res.best.omega == pytest.approx(wave.omega, abs=1e-6)

    def test_rho_is_the_residual_of_the_reported_wave(self, cubic_model, small_grid):
        # rho ~ 1.5e-6 against ||Psi||_{E,R} ~ 1: the scan's
        # ||Psi||^2 - 2 |<Psi, Phi>| + ||Phi||^2 loses ~4 digits here
        base = sample_profile(SolitaryWave(0.5, 0.3, 0.5, SQ75), small_grid, 0.0)
        bump = gaussian_state(small_grid, GaussianSpec(amplitude=1e-6, width=0.7, center=2.0))
        st = FieldState(small_grid, base.psi + bump.psi, base.pi + bump.pi)
        res = distance_to_manifold(cubic_model, st, 5.0)
        assert isinstance(res.best, SolitaryWave)
        cand = sample_profile(res.best, small_grid, 0.0)
        want = norm_e(FieldState(small_grid, st.psi - cand.psi, st.pi - cand.pi), 1.0, R=5.0)
        assert 0.0 < want <= norm_e(bump, 1.0, R=5.0)
        assert res.rho == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_zero_state(self, cubic_model, small_grid):
        res = distance_to_manifold(cubic_model, zero_state(small_grid), 5.0)
        assert isinstance(res.best, ZeroWave)
        assert res.rho == 0.0

    def test_bump_upper_bound(self, cubic_model, half_wave, small_grid):
        base = sample_profile(half_wave, small_grid, 0.0)
        bump = gaussian_state(small_grid, GaussianSpec(amplitude=0.01, width=0.7, center=2.0))
        st = FieldState(small_grid, base.psi + bump.psi, base.pi + bump.pi)
        eps = norm_e(bump, 1.0, R=5.0)
        res = distance_to_manifold(cubic_model, st, 5.0)
        assert res.rho <= eps * (1 + 1e-9)

    def test_gauge_invariance(self, cubic_model, half_wave, small_grid):
        base = sample_profile(half_wave, small_grid, 0.0)
        bump = gaussian_state(small_grid, GaussianSpec(amplitude=0.05, width=1.0, center=1.0))
        st = FieldState(small_grid, base.psi + bump.psi, base.pi + bump.pi)
        r0 = distance_to_manifold(cubic_model, st, 5.0).rho
        rot = FieldState(small_grid, np.exp(0.9j) * st.psi, np.exp(0.9j) * st.pi)
        r1 = distance_to_manifold(cubic_model, rot, 5.0).rho
        assert abs(r0 - r1) < 1e-10 * max(1.0, r0)

    def test_R_beyond_grid_rejected(self, cubic_model, small_grid):
        # as norm_e does, rather than measuring over the whole grid
        with pytest.raises(ValueError, match=r"R = 41\.0 is outside \[h, half_extent\] = "
                                             r"\[0\.01953125, 40\.0\]"):
            distance_to_manifold(cubic_model, zero_state(small_grid), 41.0)

    def test_R_below_spacing_rejected(self, cubic_model, small_grid):
        # a one-node window has no derivative stencil; h = 40/2048
        below = r"R = 0\.01 is outside \[h, half_extent\] = \[0\.01953"
        with pytest.raises(ValueError, match=below):
            distance_to_manifold(cubic_model, zero_state(small_grid), 0.01)
        assert distance_to_manifold(cubic_model, zero_state(small_grid),
                                    small_grid.spacing).rho == 0.0
        # norm_e shares the window: below the spacing it raises instead of reading 0
        st = gaussian_state(small_grid, GaussianSpec(amplitude=0.5, width=1.5))
        with pytest.raises(ValueError, match=below):
            norm_e(st, 1.0, R=0.01)
        assert norm_e(st, 1.0, R=small_grid.spacing) > 0.0

    def test_negative_alpha_leaves_the_zero_wave(self, small_grid):
        # u = (0, 1, 1): alpha(s) = -2 - 4 s has no zero on s > 0, so no wave
        model = OscillatorModel.polynomial(1.0, (0.0, 1.0, 1.0))
        st = gaussian_state(small_grid, GaussianSpec(amplitude=0.3, width=1.0))
        res = distance_to_manifold(model, st, 5.0)
        assert isinstance(res.best, ZeroWave)
        assert res.rho == pytest.approx(norm_e(st, 1.0, R=5.0), rel=1e-12)

    @pytest.mark.parametrize("a, n_points, seed, R", [
        *(pytest.param(a, None, None, 5.0, id=str(a)) for a in (0.0, -1.0)),
        *(pytest.param(-0.5, n, seed, R, id=f"{n}-seed{seed}-R{R}")
          for n in (2049, 16385) for seed in range(1, 6) for R in (5.0, 2.0))])
    def test_linear_without_bound_state_is_zero_wave(self, a, n_points, seed, R, small_grid):
        # the zero wave's rho is norm_e to the last bit: both sum the terms
        # of observables.seminorm_terms
        lin = OscillatorModel.linear(1.0, a)
        if n_points is None:
            st = gaussian_state(small_grid, GaussianSpec(amplitude=0.3, width=1.0, center=0.5))
        else:
            st = gaussian_state(Grid(430.0, n_points), seeded_gaussian_spec(seed))
        res = distance_to_manifold(lin, st, R)
        assert isinstance(res.best, ZeroWave)
        assert res.rho == norm_e(st, 1.0, R=R)

    def test_linear_state_orthogonal_to_the_modes_is_zero_wave(self, linear_model,
                                                                small_grid):
        # odd psi and pi are orthogonal to both even modes: the fit is zero
        odd = small_grid.x * np.exp(-small_grid.x ** 2)
        st = FieldState(small_grid, 0.3 * odd, 0.2j * odd)
        res = distance_to_manifold(linear_model, st, 5.0)
        assert isinstance(res.best, ZeroWave)
        assert res.rho == pytest.approx(norm_e(st, 1.0, R=5.0), rel=1e-12)

    def test_linear_span_projection(self, linear_model, small_grid):
        om_a = SQ75
        g = np.exp(-0.5 * np.abs(small_grid.x))
        psi = (0.4 + 0.1j) * g
        st = FieldState(small_grid, psi, -1j * om_a * psi)
        res = distance_to_manifold(linear_model, st, 5.0)
        assert res.rho < 1e-10  # pure span member

    def test_linear_rho_is_the_residual_of_the_fit(self, linear_model, small_grid):
        # as for the nonlinear branch: ||Psi||^2 - Re(v . coef) left a 3e-5
        # relative gap here
        om_a = SQ75
        g = np.exp(-0.5 * np.abs(small_grid.x))
        psi = (0.4 + 0.1j) * g
        bump = gaussian_state(small_grid, GaussianSpec(amplitude=1e-6, width=0.7, center=2.0))
        st = FieldState(small_grid, psi + bump.psi, -1j * om_a * psi + bump.pi)
        res = distance_to_manifold(linear_model, st, 5.0)
        fit = res.best
        fit_psi = (fit.c_plus + fit.c_minus) * g
        fit_pi = 1j * om_a * (fit.c_plus - fit.c_minus) * g
        want = norm_e(FieldState(small_grid, st.psi - fit_psi, st.pi - fit_pi), 1.0, R=5.0)
        assert 0.0 < want <= norm_e(bump, 1.0, R=5.0)
        assert res.rho == pytest.approx(want, rel=1e-10, abs=0.0)

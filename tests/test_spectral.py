import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpoint import (TraceSeries, Window, dominant_frequency, gap_mass_fraction,
                     modulus_variation, omega_limit_report, titchmarsh_check,
                     windowed_spectrum)
from kgpoint.fields import Grid
from kgpoint.solitary import SolitaryWave, ZeroWave, sample_profile
from kgpoint.volterra import reconstruct_field, solve_trace


def make_trace(z, dt):
    return TraceSeries(dt=dt, z=np.asarray(z, dtype=complex))


def hann_transform_oracle(omega, t_width):
    """Closed-form continuous transform of the Hann window on [0, t_width],
    evaluated at angular frequency offset omega (e^{+i omega t} convention)."""
    def rect(w):
        w = np.asarray(w, dtype=complex)
        out = np.where(np.abs(w) > 1e-12,
                       (np.exp(1j * w * t_width) - 1.0) / np.where(np.abs(w) > 1e-12, 1j * w, 1.0),
                       t_width)
        return out
    dw = 2.0 * np.pi / t_width
    return 0.5 * rect(omega) - 0.25 * (rect(omega + dw) + rect(omega - dw))


class TestWindowedSpectrum:
    def test_pure_harmonic_peak(self):
        dt = 0.01
        tt = np.arange(0, 60, dt)
        spec = windowed_spectrum(make_trace(np.exp(-1j * 0.7 * tt), dt), 30.0, 40.0)
        peak = spec.freqs[np.argmax(np.abs(spec.amps))]
        assert abs(peak - 0.7) <= spec.domega

    def test_zero_trace(self):
        spec = windowed_spectrum(make_trace(np.zeros(4000), 0.01), 15.0, 20.0)
        assert np.max(np.abs(spec.amps)) == 0.0
        assert gap_mass_fraction(spec, 1.0) == 1.0

    def test_two_tone_amplitude_ratio(self):
        # well-separated equal tones; predicted peak heights from the
        # closed-form Hann transform including cross leakage
        dt = 0.005
        w1, w2 = 0.5, 2.5
        tt = np.arange(0, 90, dt)
        z = np.exp(-1j * w1 * tt) + np.exp(-1j * w2 * tt)
        spec = windowed_spectrum(make_trace(z, dt), 40.0, 80.0)
        mag = np.abs(spec.amps)
        i1 = np.argmax(np.where(np.abs(spec.freqs - w1) < 0.2, mag, 0))
        i2 = np.argmax(np.where(np.abs(spec.freqs - w2) < 0.2, mag, 0))
        measured = mag[i1] / mag[i2]
        o1 = abs(hann_transform_oracle(spec.freqs[i1] - w1, 80.0)
                 + hann_transform_oracle(spec.freqs[i1] - w2, 80.0))
        o2 = abs(hann_transform_oracle(spec.freqs[i2] - w2, 80.0)
                 + hann_transform_oracle(spec.freqs[i2] - w1, 80.0))
        assert measured == pytest.approx(o1 / o2, abs=1e-2)
        assert measured == pytest.approx(1.0, abs=1e-2)

    def test_parseval(self):
        dt = 0.01
        tt = np.arange(0, 50, dt)
        rng = np.random.default_rng(5)
        z = (rng.normal(size=len(tt)) + 1j * rng.normal(size=len(tt)))
        spec = windowed_spectrum(make_trace(z, dt), 25.0, 30.0, Window.HANN)
        lo = int(np.ceil((25 - 15) / dt))
        hi = int(np.floor((25 + 15) / dt))
        seg = z[lo:hi + 1]
        n = len(seg)
        taper = 0.5 * (1 - np.cos(2 * np.pi * np.arange(n) / (n - 1)))
        time_energy = np.sum(np.abs(seg * taper) ** 2) * dt
        spec_energy = np.sum(np.abs(spec.amps) ** 2) * spec.domega
        assert abs(spec_energy - time_energy) / time_energy < 1e-8

    def test_window_outside_trace_rejected(self):
        with pytest.raises(ValueError):
            windowed_spectrum(make_trace(np.ones(100), 0.01), 2.0, 3.0)


class TestGapMass:
    def test_in_gap_harmonic(self):
        dt = 0.01
        tt = np.arange(0, 200, dt)
        spec = windowed_spectrum(make_trace(np.exp(-1j * 0.5 * tt), dt), 100.0, 180.0)
        assert gap_mass_fraction(spec, 1.0) >= 0.99

    def test_out_of_gap_harmonic_vs_leakage_oracle(self):
        dt = 0.01
        tt = np.arange(0, 90, dt)
        spec = windowed_spectrum(make_trace(np.exp(-1j * 2.0 * tt), dt), 45.0, 80.0)
        measured = gap_mass_fraction(spec, 1.0)
        assert measured <= 0.05
        # oracle: in-gap share of |W(omega - 2)|^2 for the analytic window
        om = np.linspace(-60, 60, 240001)
        w2 = np.abs(hann_transform_oracle(om - 2.0, 80.0)) ** 2
        oracle = np.trapezoid(w2[np.abs(om) <= 1.0], dx=om[1] - om[0]) / np.trapezoid(w2, dx=om[1] - om[0])
        assert measured == pytest.approx(oracle, abs=5e-3)


class TestDominantFrequency:
    def test_value_and_sign(self):
        dt = 0.01
        tt = np.arange(0, 120, dt)
        tr = make_trace(np.exp(-1j * 0.7 * tt), dt)
        spec = windowed_spectrum(tr, 60.0, 100.0)
        assert dominant_frequency(spec) == pytest.approx(0.7, abs=spec.domega / 10)
        conj = make_trace(np.conj(tr.z), dt)
        spec_c = windowed_spectrum(conj, 60.0, 100.0)
        assert dominant_frequency(spec_c) == pytest.approx(-0.7, abs=spec_c.domega / 10)

    def test_tie_break_deterministic(self):
        # real signal: exactly symmetric peaks at +/- 0.7; the documented
        # tie-break picks the lower frequency of the tied pair
        dt = 0.01
        tt = np.arange(0, 120, dt)
        tr = make_trace(np.cos(0.7 * tt).astype(complex), dt)
        spec = windowed_spectrum(tr, 60.0, 100.0)
        assert dominant_frequency(spec) == pytest.approx(-0.7, abs=spec.domega)


class TestModulusVariation:
    def test_single_harmonic(self):
        dt = 0.01
        tt = np.arange(0, 50, dt)
        tr = make_trace(0.4 * np.exp(-1j * 0.6 * tt), dt)
        assert modulus_variation(tr, 0.0, 49.0) < 1e-12

    def test_beat_envelope(self):
        dt = 0.005
        tt = np.arange(0, 80, dt)
        z = np.exp(-1j * 0.5 * tt) + 0.1 * np.exp(-1j * 0.9 * tt)
        # beat period 2 pi / 0.4 ~ 15.7 fits several times into the window
        assert modulus_variation(make_trace(z, dt), 0.0, 79.0) == pytest.approx(
            2 * 0.1 / 1.1, abs=1e-4)

    def test_zero(self):
        tr = make_trace(np.zeros(1000), 0.01)
        assert modulus_variation(tr, 0.0, 9.0) == 0.0


class TestTitchmarsh:
    def test_delta_convolution(self):
        res = titchmarsh_check(np.array([1.0]), np.array([1.0]), a_offset=0, g_offset=5)
        assert res.conv_support == (5, 5)
        assert res.endpoint_identity_holds

    def test_interior_zero(self):
        # [1,1]*[1,-1] = [1,0,-1]: interior zero, endpoints still add
        res = titchmarsh_check(np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        assert res.conv_support == (0, 2)
        assert res.endpoint_identity_holds

    def test_symmetric_case(self):
        res = titchmarsh_check(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
        assert res.endpoint_identity_holds

    def test_rejects_zero_sequence(self):
        with pytest.raises(ValueError):
            titchmarsh_check(np.zeros(3), np.array([1.0]))

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=20),
           st.lists(st.integers(-9, 9), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_endpoint_identity_property(self, a, g):
        a = np.array(a, dtype=np.int64)
        g = np.array(g, dtype=np.int64)
        if not np.any(a) or not np.any(g):
            return
        res = titchmarsh_check(a, g, a_offset=3, g_offset=-7)
        assert res.endpoint_identity_holds


@pytest.fixture(scope="module")
def deep_gap_run(cubic_model):
    # C small puts omega = 2C sqrt(1-C^2) deep inside the gap, so even a
    # moderate window resolves the in-gap line
    from kgpoint import waves_from_amplitude
    wave = [w for w in waves_from_amplitude(cubic_model, 0.15) if w.omega > 0][0]
    grid = Grid(64.0, 2 ** 13 + 1)
    init = sample_profile(wave, grid, 0.0)
    rep = solve_trace(cubic_model, init, 30.0, 2e-3)
    return wave, init, rep


class TestOmegaLimitReport:
    def test_solitary_run_report(self, cubic_model, deep_gap_run):
        wave, init, rep = deep_gap_run
        state = reconstruct_field(cubic_model, init, rep.trace, 20.0)
        out = omega_limit_report(cubic_model, rep.trace, state, (10.0, 30.0))
        bin_nat = 2 * np.pi / 20.0
        assert abs(out.omega_plus - wave.omega) <= 2 * bin_nat
        assert out.in_gap_fraction >= 0.99
        assert out.modulus_variation < 1e-3
        assert isinstance(out.matched_wave, SolitaryWave)
        assert out.matched_wave.amplitude == pytest.approx(wave.amplitude, abs=1e-3)
        assert out.matched_wave.omega == pytest.approx(wave.omega, abs=1e-3)

    def test_zero_run(self, cubic_model):
        grid = Grid(40.0, 2 ** 11 + 1)
        from kgpoint.fields import zero_state
        init = zero_state(grid)
        rep = solve_trace(cubic_model, init, 10.0, 1e-2)
        state = reconstruct_field(cubic_model, init, rep.trace, 6.0)
        out = omega_limit_report(cubic_model, rep.trace, state, (2.0, 10.0))
        assert isinstance(out.matched_wave, ZeroWave)
        assert out.rho == 0.0

    def test_short_window_rejected(self, cubic_model, deep_gap_run):
        wave, init, rep = deep_gap_run
        with pytest.raises(ValueError):
            omega_limit_report(cubic_model, rep.trace, init, (29.9, 30.0))

    def test_state_off_window_center_rejected(self, cubic_model, deep_gap_run):
        # only a state within dt/2 of the window center is the center snapshot
        wave, init, rep = deep_gap_run
        dt = rep.trace.dt
        state = init.copy()
        # center 19.999 lies halfway between nodes; the nearest node, 20.0
        # by round-half-even, is dt/2 away up to rounding
        window = (10.0 - dt, 30.0)
        state.time = dt * round(0.5 * (window[0] + window[1]) / dt)
        omega_limit_report(cubic_model, rep.trace, state, window)
        state.time = 20.0 + 0.6 * dt
        with pytest.raises(ValueError, match="window center"):
            omega_limit_report(cubic_model, rep.trace, state, (10.0, 30.0))

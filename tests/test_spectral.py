import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpoint import (TraceSeries, Window, dominant_frequency, gap_mass_fraction,
                     modulus_variation, titchmarsh_check, windowed_spectrum)
from kgpoint.fields import Grid
from kgpoint.solitary import SolitaryWave, ZeroWave, distance_to_manifold, sample_profile
from kgpoint.spectral import SpectrumEstimate, window_diagnostics
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

    def test_flat_top_takes_the_tied_bin(self):
        # four equal bins: the tie-break picks -domega/2, whose neighbours
        # equal it, so the parabola through the three is flat and not used
        freqs = 0.1 * (np.arange(6) - 2.5)
        spec = SpectrumEstimate(freqs, np.array([0, 1, 1, 1, 1, 0], dtype=complex),
                                Window.RECT, 0.0, 1.0)
        assert dominant_frequency(spec) == freqs[2]

    def test_peak_in_the_first_bin(self):
        # z_k = (-1)^k sits at the Nyquist frequency -pi/dt, the first bin,
        # which has no left neighbour to interpolate with
        dt = 0.1
        tr = make_trace((-1.0) ** np.arange(201), dt)
        spec = windowed_spectrum(tr, 10.0, 20.0)
        assert spec.freqs[0] == -np.pi / dt
        assert dominant_frequency(spec) == spec.freqs[0]


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

    @pytest.mark.parametrize("t0,t1,text", [
        (20.0, 30.0, "window extends outside the trace: 20.0:30.0 is not within 0:9.99"),
        (-5.0, -1.0, "window extends outside the trace: -5.0:-1.0"),
        (1.0001, 1.0099, "window holds fewer than two trace samples: 1.0001:1.0099"),
    ], ids=["20.0-30.0", "-5.0--1.0", "1.0001-1.0099"])
    def test_empty_window_rejected(self, t0, t1, text):
        # past either end of the trace, or between two adjacent nodes: the
        # spectrum's rule (`fields.node_span`)
        tr = make_trace(np.ones(1000), 0.01)
        with pytest.raises(ValueError, match=re.escape(text)):
            modulus_variation(tr, t0, t1)


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

    @pytest.mark.parametrize("a,g,support", [
        ([1e-7, 1.0], [1e-7, 1.0], (0, 2)),
        (3e-7 * np.array([1.0, 2.0, 1.0]), 3e-7 * np.array([1.0, -1.0]), (0, 3)),
    ], ids=["small_end_entries", "small_factors"])
    def test_any_scale(self, a, g, support):
        # the end entries 1e-14 and 9e-14 are support like any nonzero entry
        res = titchmarsh_check(np.array(a), np.array(g))
        assert res.conv_support == support
        assert res.endpoint_identity_holds

    def test_underflowing_convolution(self):
        # 1e-200 squared underflows to zero: no support to compare
        res = titchmarsh_check(np.array([1e-200, 0.0]), np.array([1e-200]))
        assert res.conv_support == (0, 0)
        assert not res.endpoint_identity_holds

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
    """The late-window row of `kgpoint attract`: window diagnostics plus the
    manifold distance of the state at the window center."""

    def test_solitary_run_report(self, cubic_model, deep_gap_run):
        wave, init, rep = deep_gap_run
        state = reconstruct_field(cubic_model, init, rep.trace, 20.0)
        in_gap, omega_plus, mvar = window_diagnostics(rep.trace, (10.0, 30.0), cubic_model.mass)
        matched = distance_to_manifold(cubic_model, state, 5.0).best
        bin_nat = 2 * np.pi / 20.0
        assert abs(omega_plus - wave.omega) <= 2 * bin_nat
        assert in_gap >= 0.99
        assert mvar < 1e-3
        assert isinstance(matched, SolitaryWave)
        assert matched.amplitude == pytest.approx(wave.amplitude, abs=1e-3)
        assert matched.omega == pytest.approx(wave.omega, abs=1e-3)

    def test_zero_run(self, cubic_model):
        grid = Grid(40.0, 2 ** 11 + 1)
        from kgpoint.fields import zero_state
        init = zero_state(grid)
        rep = solve_trace(cubic_model, init, 10.0, 1e-2)
        state = reconstruct_field(cubic_model, init, rep.trace, 6.0)
        # a zero spectrum counts as all in the gap, at frequency 0
        assert window_diagnostics(rep.trace, (2.0, 10.0), cubic_model.mass) == (1.0, 0.0, 0.0)
        dist = distance_to_manifold(cubic_model, state, 5.0)
        assert isinstance(dist.best, ZeroWave)
        assert dist.rho == 0.0

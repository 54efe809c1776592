"""The near + far history sum of solve_trace against the direct O(N^2) loop."""

import numpy as np
import pytest
from history_oracle import solve_trace_oracle

from kgpoint import FieldState, Grid, OscillatorModel, SolveStatus, solve_trace
from kgpoint.initial import gaussian_state, seeded_gaussian_spec
from kgpoint.solitary import sample_profile
from kgpoint.volterra import _DIRECT, _NEAR, _add_square, _square_spectra


def _assert_matches_oracle(model, state, T, dt, rtol=1e-12):
    rep = solve_trace(model, state, T, dt)
    want = solve_trace_oracle(model, state, T, dt)
    assert rep.status is SolveStatus.COMPLETED and want.status is SolveStatus.COMPLETED
    assert len(rep.trace.z) == len(want.trace.z)
    err = np.max(np.abs(rep.trace.z - want.trace.z))
    assert err <= rtol * np.max(np.abs(want.trace.z))


def test_seeded_gaussian(cubic_model):
    state = gaussian_state(Grid(130.0, 2 ** 11 + 1), seeded_gaussian_spec(3))
    _assert_matches_oracle(cubic_model, state, 100.0, 0.02)


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
def test_solitary_wave(cubic_model, half_wave, dt):
    state = sample_profile(half_wave, Grid(75.0, 2 ** 13 + 1), 0.0)
    _assert_matches_oracle(cubic_model, state, 5.0, dt)


@pytest.mark.parametrize("seed", [2, 5])
def test_long_horizon(cubic_model, seed):
    # the long_sweep grid at T = 600 (N = 30001); over seeds 1-10 the gap
    # was at most 1.34e-12 relative; it grows with t as the trace dynamics
    # carry the FFT roundoff of the far field forward
    state = gaussian_state(Grid(630.0, 2 ** 11 + 1), seeded_gaussian_spec(seed))
    _assert_matches_oracle(cubic_model, state, 600.0, 0.02, rtol=3e-12)


def test_trace_bound_exceeded():
    # a > 2m admits exponentially growing modes; the |z| guard trips at t = 36.5
    with pytest.warns(UserWarning):
        model = OscillatorModel.linear(1.0, 2.5)
    grid = Grid(75.0, 2 ** 13 + 1)
    g = np.exp(-np.abs(grid.x))
    state = FieldState(grid, g.astype(complex), g.astype(complex))
    rep = solve_trace(model, state, 50.0, 0.01)
    want = solve_trace_oracle(model, state, 50.0, 0.01)
    assert want.status is SolveStatus.TRACE_BOUND_EXCEEDED
    assert rep.status is want.status
    assert rep.message == want.message
    assert len(rep.trace.z) == len(want.trace.z) > 2 * _NEAR


@pytest.mark.parametrize("n", [1, 2, _NEAR - 1, _NEAR, _NEAR + 1, 2 ** 10, 2 ** 10 + 1, 30001])
def test_far_field_squares_sum_the_whole_history(n):
    """Near dots plus far squares give every lag-1.. sum of a direct convolution."""
    rng = np.random.default_rng(n)
    kern = rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    spectra = _square_spectra(kern, n)
    far = np.zeros(n, dtype=complex)
    mem = np.empty(n, dtype=complex)
    for j in range(n):
        start = j - j % _NEAR
        if start == j and j:
            _add_square(far, g, j, spectra)
        mem[j] = far[j] + np.dot(g[start:j], kern[j - start:0:-1])
    lagged = np.concatenate([[0.0], kern[1:]])
    want = np.convolve(g, lagged)[:n]
    scale = np.convolve(np.abs(g), np.abs(lagged))[:n]
    assert np.all(np.abs(mem - want) <= 1e-13 * scale)


@pytest.mark.parametrize("size, j, n", [(_NEAR, _NEAR, _NEAR + 1), (_NEAR, 3 * _NEAR, 4 * _NEAR),
                                        (128, 128, 300), (256, 768, 1024), (256, 256, 400)])
def test_direct_squares_equal_fft_squares(size, j, n):
    """Below _DIRECT sources a square is its Toeplitz product, which equals
    the FFT convolution of the same lags, also where the targets or the
    lags run past the last node."""
    assert size < _DIRECT and j & -j == size
    rng = np.random.default_rng(j + n)
    kern = rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    squares = _square_spectra(kern, n)
    assert squares[size].shape == (size, size)
    far = np.zeros(n, dtype=complex)
    _add_square(far, g, j, squares)
    stop = min(j + size, n)
    spectrum = np.fft.rfft(kern[:2 * size], 2 * size)
    src = g[j - size:j].view(float).reshape(size, 2)
    conv = np.fft.irfft(np.fft.rfft(src, 2 * size, axis=0) * spectrum[:, None], 2 * size,
                        axis=0)[size:size + stop - j]
    # sum |g| |K| over each target's sources, K zero past the last lag
    lag = size + np.arange(stop - j)[:, None] - np.arange(size)
    scale = np.where(lag < n, np.abs(kern[np.minimum(lag, n - 1)]), 0.0) @ np.abs(g[j - size:j])
    assert np.all(np.abs(far[j:stop] - (conv[:, 0] + 1j * conv[:, 1])) <= 1e-14 * scale)
    assert not far[:j].any() and not far[stop:].any()

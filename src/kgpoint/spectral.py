"""Time-frequency diagnostics of the trace.

Windowed spectra use the unitary angular-frequency convention

    amps(omega) ~ (2 pi)^{-1/2} int z(t) w(t) e^{+i omega t} dt,

so a solitary signal e^{-i omega0 t} peaks at +omega0 and Parseval holds
with no extra 2 pi: sum |amps|^2 domega = int |z w|^2 dt.  The gap-mass
split measures how much windowed energy lives inside [-m, m] (the bound
band) versus the continuous spectrum outside; for strictly nonlinear runs
the in-gap share of late windows climbs toward one as the dispersive part
radiates away, and the limit trace is a single in-gap harmonic.  The
Titchmarsh endpoint identity, inf supp(a*b) = inf supp a + inf supp b (and
the sup counterpart), is the discrete mechanism behind that collapse and is
verified here by exact convolution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fields import TraceSeries, node_span

_PAD_FACTOR = 4


class Window(enum.Enum):
    HANN = "hann"
    RECT = "rect"


@dataclass
class SpectrumEstimate:
    freqs: np.ndarray
    amps: np.ndarray
    window: Window
    t_center: float
    t_width: float

    @property
    def domega(self) -> float:
        return float(self.freqs[1] - self.freqs[0])

    @property
    def natural_bin(self) -> float:
        """Frequency resolution of the window itself, 2 pi / t_width."""
        return 2.0 * np.pi / self.t_width


def windowed_spectrum(trace: TraceSeries, t_center: float, t_width: float,
                      window: Window = Window.HANN) -> SpectrumEstimate:
    """Windowed transform of the trace segment centered at t_center."""
    dt = trace.dt
    lo, hi = node_span(t_center - 0.5 * t_width, t_center + 0.5 * t_width, dt)
    if hi <= lo:
        raise ValueError("window holds fewer than two trace samples")
    if lo < 0 or hi >= len(trace.z):
        raise ValueError("window extends outside the trace")
    seg = trace.z[lo:hi + 1]
    nseg = len(seg)
    if window is Window.HANN:
        taper = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(nseg) / (nseg - 1)))
    else:
        taper = np.ones(nseg)
    data = seg * taper

    npad = _PAD_FACTOR * nseg
    # e^{+i omega t} convention: ifft supplies the positive-sign kernel
    spec = np.fft.ifft(data, npad) * npad
    freqs = 2.0 * np.pi * np.fft.fftfreq(npad, d=dt)
    t0 = lo * dt
    amps = spec * np.exp(1j * freqs * t0) * (dt / np.sqrt(2.0 * np.pi))
    order = np.argsort(freqs)
    return SpectrumEstimate(freqs=freqs[order], amps=amps[order],
                            window=window, t_center=t_center, t_width=t_width)


def gap_mass_fraction(spec: SpectrumEstimate, m: float) -> float:
    """Fraction of windowed spectral mass carried by |omega| <= m (1.0 for a zero spectrum)."""
    p = np.abs(spec.amps) ** 2
    total = p.sum()
    if total == 0.0:
        return 1.0
    return float(p[np.abs(spec.freqs) <= m].sum() / total)


def dominant_frequency(spec: SpectrumEstimate) -> float:
    """Quadratically interpolated argmax of |amps|; ties break to the lower |omega|."""
    mag = np.abs(spec.amps)
    peak = mag.max()
    if peak == 0.0:
        return 0.0
    tied = np.nonzero(mag >= peak * (1.0 - 1e-12))[0]
    i = int(tied[np.argmin(np.abs(spec.freqs[tied]))])
    if 0 < i < len(mag) - 1:
        am, a0, ap = mag[i - 1], mag[i], mag[i + 1]
        denom = am - 2.0 * a0 + ap
        shift = 0.5 * (am - ap) / denom if denom != 0.0 else 0.0
    else:
        shift = 0.0
    return float(spec.freqs[i] + shift * spec.domega)


def modulus_variation(trace: TraceSeries, t0: float, t1: float) -> float:
    """(max - min)/max of |z| over [t0, t1]; zero for an identically zero window."""
    lo, hi = node_span(t0, t1, trace.dt)
    lo, hi = max(lo, 0), min(hi, len(trace.z) - 1)
    if hi < lo:
        raise ValueError("empty modulus window")
    mags = np.abs(trace.z[lo:hi + 1])
    top = mags.max()
    if top == 0.0:
        return 0.0
    return float((top - mags.min()) / top)


def window_diagnostics(trace: TraceSeries, window: tuple[float, float], m: float
                       ) -> tuple[float, float, float]:
    """(in_gap_fraction, omega_plus, modulus_variation) of the trace over
    window = (t0, t1): the Hann spectrum's share in |omega| <= m and its
    dominant frequency, and the variation of |z|."""
    t0, t1 = window
    spec = windowed_spectrum(trace, 0.5 * (t0 + t1), t1 - t0, Window.HANN)
    return gap_mass_fraction(spec, m), dominant_frequency(spec), modulus_variation(trace, t0, t1)


# fewest trace samples in the default report window
_LATE_MIN_SAMPLES = 1024


def late_window(T: float, dt: float) -> tuple[float, float]:
    """Default report window: the last quarter of the run, at least
    _LATE_MIN_SAMPLES wide (clamped to the run length for short runs)."""
    width = min(max(0.25 * T, _LATE_MIN_SAMPLES * dt), T)
    return (T - width, T)


@dataclass
class TitchmarshResult:
    conv_support: tuple[int, int]
    endpoint_identity_holds: bool


def _support(seq: np.ndarray, offset: int) -> tuple[int, int] | None:
    idx = np.flatnonzero(seq)
    if len(idx) == 0:
        return None
    return int(idx[0]) + offset, int(idx[-1]) + offset


def titchmarsh_check(a_seq, g_seq, a_offset: int = 0, g_offset: int = 0) -> TitchmarshResult:
    """Verify the endpoint identity on finitely supported sequences.

    Convolves by the direct O(n^2) sum (exact for integer input), extracts
    the convolution's support endpoints, and reports whether they equal the
    sums of the factors' endpoints.  Any nonzero entry is support: the
    convolution's end entries are single products, exact unless they
    underflow (an all-zero convolution reports ((0, 0), False)).  Empty
    supports raise: the theorem concerns nonzero factors.
    """
    a = np.asarray(a_seq)
    g = np.asarray(g_seq)
    sa = _support(a, a_offset)
    sg = _support(g, g_offset)
    if sa is None or sg is None:
        raise ValueError("titchmarsh_check requires nonzero sequences")
    conv = np.convolve(a, g)
    sc = _support(conv, a_offset + g_offset)
    if sc is None:
        return TitchmarshResult((0, 0), False)
    holds = (sc[0] == sa[0] + sg[0]) and (sc[1] == sa[1] + sg[1])
    return TitchmarshResult(sc, holds)

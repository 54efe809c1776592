"""Solitary-wave manifold: construction, sampling, and distance.

Nonzero solitary waves psi = C e^{i theta} e^{-kappa |x|} e^{-i omega t} are
pinned by the pair of relations

    alpha(C^2) = 2 kappa,        kappa^2 = m^2 - omega^2,

with kappa > 0 (derived from the gluing condition at x = 0, which balances
the derivative jump of the profile against the point force).  For strictly
nonlinear models omega ranges over a subset of (-m, m); for the linear model
F = a psi the profile decay is fixed at kappa = a/2 and every amplitude C is
admissible at omega = +/- sqrt(m^2 - a^2/4), so the attractor there is the
two-complex-dimensional span of those modes rather than a finite set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldState, Grid
from .model import ModelKind, OscillatorModel, alpha
from .observables import _dx_with_center_kink


@dataclass(frozen=True)
class SolitaryWave:
    amplitude: float
    theta: float
    kappa: float
    omega: float

    def __post_init__(self) -> None:
        for name in ("amplitude", "theta", "kappa", "omega"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.amplitude < 0 or self.kappa <= 0:
            raise ValueError("solitary wave needs amplitude >= 0 and kappa > 0")


@dataclass(frozen=True)
class ZeroWave:
    """The zero point of the manifold (present for every omega)."""


@dataclass(frozen=True)
class LinearWaveFamily:
    """Continuum of linear-model waves C e^{-a|x|/2} at omega = +/- omega_a (any C)."""

    kappa: float
    omega: float


@dataclass(frozen=True)
class LinearSpanFit:
    """Least-squares projection onto the span of the two linear-model modes."""

    c_plus: complex
    c_minus: complex
    omega_a: float
    kappa: float


@dataclass(frozen=True)
class ManifoldDistance:
    rho: float
    best: SolitaryWave | ZeroWave | LinearSpanFit


def _isolate_roots(poly_fn, s_max: float, n_grid: int = 512) -> list[float]:
    """Positive roots of poly_fn on (0, s_max] by sign-change bracketing.

    Bracket nodes are the union of a log-spaced and a linear grid (the log
    points catch roots piling up near zero), then plain bisection.
    """
    nodes = np.unique(np.concatenate([
        np.geomspace(s_max * 1e-14, s_max, n_grid),
        np.linspace(s_max / n_grid, s_max, n_grid),
    ]))
    vals = poly_fn(nodes)
    roots = []
    exact = np.abs(vals) < 1e-15
    roots.extend(float(s) for s in nodes[exact])
    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    for i in flips:
        lo, hi = nodes[i], nodes[i + 1]
        flo = vals[i]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = poly_fn(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
            if hi - lo < 1e-15 * max(1.0, hi):
                break
        roots.append(0.5 * (lo + hi))
    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or abs(r - deduped[-1]) > 1e-12 * max(1.0, r):
            deduped.append(r)
    return deduped


def _amplitudes_at_kappa(model: OscillatorModel, kappa: float) -> list[float]:
    """All C > 0 with alpha(C^2) = 2 kappa for a polynomial model."""
    u = model.coefficients
    n_deg = len(u) - 1
    s_max = 1.0 + (sum(abs(c) for c in u) + 2.0 * kappa) / (2.0 * n_deg * u[-1])
    roots_s = _isolate_roots(lambda s: alpha(model, s) - 2.0 * kappa, s_max)
    return [float(np.sqrt(s)) for s in roots_s if s > 1e-28]


def waves_from_amplitude(model: OscillatorModel, C: float) -> list[SolitaryWave]:
    """The zero, one, or two waves with amplitude C (Remark: omega = +/- sqrt(m^2 - kappa_C^2))."""
    if C <= 0:
        raise ValueError("amplitude must be positive")
    m = model.mass
    kappa_c = 0.5 * float(alpha(model, C * C))
    if not (0.0 < kappa_c <= m):
        return []
    omega_sq = m * m - kappa_c * kappa_c
    if omega_sq <= 0.0:
        return [SolitaryWave(C, 0.0, kappa_c, 0.0)]
    w = float(np.sqrt(omega_sq))
    return [SolitaryWave(C, 0.0, kappa_c, w), SolitaryWave(C, 0.0, kappa_c, -w)]


def waves_at_omega(model: OscillatorModel, omega: float,
                   family_tol: float = 1e-9) -> list[SolitaryWave] | LinearWaveFamily:
    """All waves at frequency omega; a LinearWaveFamily flag for the linear continuum."""
    m = model.mass
    if model.kind is ModelKind.LINEAR:
        a = model.linear_a
        if a <= 0 or a >= 2 * m:
            return []
        omega_a = float(np.sqrt(m * m - 0.25 * a * a))
        if min(abs(omega - omega_a), abs(omega + omega_a)) <= family_tol:
            return LinearWaveFamily(kappa=0.5 * a, omega=float(np.sign(omega) * omega_a))
        return []
    if abs(omega) >= m:
        raise ValueError("strictly nonlinear models only have solitary waves for |omega| < m")
    kappa = float(np.sqrt(m * m - omega * omega))
    return [SolitaryWave(C, 0.0, kappa, float(omega))
            for C in _amplitudes_at_kappa(model, kappa)]


def sample_profile(wave: SolitaryWave, grid: Grid, t: float = 0.0) -> FieldState:
    """Sample Psi(t) = [phi, -i omega phi] e^{-i omega t} with phi = C e^{i theta} e^{-kappa|x|}."""
    envelope = wave.amplitude * np.exp(-wave.kappa * np.abs(grid.x))
    psi = envelope * np.exp(1j * (wave.theta - wave.omega * t))
    return FieldState(grid, psi, -1j * wave.omega * psi, t)


def profile_norm_e_sq(wave: SolitaryWave, m: float) -> float:
    """Closed-form ||Phi_omega||_E^2 = |C|^2 (kappa^2 + m^2 + omega^2) / kappa."""
    return wave.amplitude ** 2 * (wave.kappa ** 2 + m * m + wave.omega ** 2) / wave.kappa


def _window(state: FieldState, m: float, R: float):
    """Arrays (psi, psi', one-sided pair, pi, weights) restricted to |x| <= R.

    Stencils match the global seminorm exactly (centered; second-order
    one-sided pair across the x = 0 kink), so a state equal to a sampled
    candidate gives exactly zero residual.
    """
    grid = state.grid
    c = grid.center_index
    h = grid.spacing
    half = min(int(round(R / h)), c)
    lo, hi = c - half, c + half + 1
    d_all, d_plus, d_minus = _dx_with_center_kink(state.psi, h, c)
    w = np.full(hi - lo, h)
    w[0] = w[-1] = 0.5 * h
    return (state.psi[lo:hi], d_all[lo:hi], (d_plus, d_minus),
            state.pi[lo:hi], w, grid.x[lo:hi], half)


def _candidate_window_arrays(wave_params, x_w, half):
    """psi, psi' (with one-sided pair at x = 0), pi of C e^{-kappa|x|} on the
    window nodes; two guard nodes per side make the stencils identical to
    the global operator's."""
    C, kappa, omega = wave_params
    h = x_w[1] - x_w[0]
    x_ext = np.concatenate((x_w[0] - h * np.array([2.0, 1.0]), x_w,
                            x_w[-1] + h * np.array([1.0, 2.0])))
    prof = C * np.exp(-kappa * np.abs(x_ext))
    dpsi = (prof[3:-1] - prof[1:-3]) / (2.0 * h)  # centered on the window nodes
    cidx = half + 2  # x = 0 position inside prof
    d_plus = (-3.0 * prof[cidx] + 4.0 * prof[cidx + 1] - prof[cidx + 2]) / (2.0 * h)
    d_minus = (3.0 * prof[cidx] - 4.0 * prof[cidx - 1] + prof[cidx - 2]) / (2.0 * h)
    dpsi[half] = 0.5 * (d_plus + d_minus)
    psi = prof[2:-2]
    return psi, dpsi, (d_plus, d_minus), -1j * omega * psi


def distance_to_manifold(model: OscillatorModel, state: FieldState, R: float,
                         n_scan: int = 401) -> ManifoldDistance:
    """min over the solitary set of ||Psi - Phi||_{E,R}, phase eliminated analytically.

    Strictly nonlinear models: dense omega scan over (-m, m) (the admissible
    set may be a union of intervals, which the scan handles without case
    analysis), all amplitude branches per omega, then golden-section
    refinement of omega around the best candidate.  The zero wave is always
    a candidate.  Linear models: least squares onto the span of the two
    resonant modes.
    """
    m = model.mass
    psi_w, dpsi_w, pair_w, pi_w, w, x_w, half = _window(state, m, R)
    state_bundle = (psi_w, dpsi_w, pair_w, pi_w)

    def win_inner(a, b) -> complex:
        apsi, adp, (app, apm), api = a
        bpsi, bdp, (bpp, bpm), bpi = b
        ip = np.sum(w * (api * np.conj(bpi) + adp * np.conj(bdp)
                         + m * m * apsi * np.conj(bpsi)))
        # the kink node carries the average of the two one-sided products
        ip += w[half] * (0.5 * (app * np.conj(bpp) + apm * np.conj(bpm))
                         - adp[half] * np.conj(bdp[half]))
        return complex(ip)

    norm_sq = max(win_inner(state_bundle, state_bundle).real, 0.0)
    rho_zero = float(np.sqrt(norm_sq))

    if model.kind is ModelKind.LINEAR:
        a = model.linear_a
        if a <= 0 or a >= 2 * m:
            return ManifoldDistance(rho_zero, ZeroWave())
        omega_a = float(np.sqrt(m * m - 0.25 * a * a))
        e1 = _candidate_window_arrays((1.0, 0.5 * a, -omega_a), x_w, half)  # pi = +i omega_a g
        e2 = _candidate_window_arrays((1.0, 0.5 * a, omega_a), x_w, half)   # pi = -i omega_a g
        v = np.array([win_inner(state_bundle, e1), win_inner(state_bundle, e2)])
        gram = np.array([[win_inner(e1, e1), win_inner(e2, e1)],
                         [win_inner(e1, e2), win_inner(e2, e2)]])
        coef = np.linalg.solve(gram, v)
        res_sq = norm_sq - float(np.real(np.vdot(v, coef)))
        rho = float(np.sqrt(max(res_sq, 0.0)))
        fit = LinearSpanFit(complex(coef[0]), complex(coef[1]), omega_a, 0.5 * a)
        if rho_zero <= rho + 1e-15:
            return ManifoldDistance(rho_zero, ZeroWave())
        return ManifoldDistance(rho, fit)

    def best_at_omega(omega: float):
        kappa = float(np.sqrt(m * m - omega * omega))
        best = (np.inf, None)
        for C in _amplitudes_at_kappa(model, kappa):
            cand = _candidate_window_arrays((C, kappa, omega), x_w, half)
            ip = win_inner(state_bundle, cand)
            nn = win_inner(cand, cand).real
            rho_sq = norm_sq - 2.0 * abs(ip) + nn
            if rho_sq < best[0]:
                best = (rho_sq, (C, kappa, omega, float(np.angle(ip))))
        return best

    eps = 1e-6
    omegas = np.linspace(-m + eps, m - eps, n_scan)
    best_sq, best_params = rho_zero ** 2, None
    best_omega_idx = None
    for idx, om in enumerate(omegas):
        sq, params = best_at_omega(float(om))
        if params is not None and sq < best_sq:
            best_sq, best_params, best_omega_idx = sq, params, idx

    if best_params is None:
        return ManifoldDistance(rho_zero, ZeroWave())

    # golden-section refinement of omega on the bracketing scan interval
    lo = omegas[max(best_omega_idx - 1, 0)]
    hi = omegas[min(best_omega_idx + 1, n_scan - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = lo, hi
    c_ = b_ - invphi * (b_ - a_)
    d_ = a_ + invphi * (b_ - a_)
    fc, pc = best_at_omega(c_)
    fd, pd = best_at_omega(d_)
    for _ in range(70):
        if fc < fd:
            b_, d_, fd, pd = d_, c_, fc, pc
            c_ = b_ - invphi * (b_ - a_)
            fc, pc = best_at_omega(c_)
        else:
            a_, c_, fc, pc = c_, d_, fd, pd
            d_ = a_ + invphi * (b_ - a_)
            fd, pd = best_at_omega(d_)
        if b_ - a_ < 1e-12:
            break
    for sq, params in ((fc, pc), (fd, pd)):
        if params is not None and sq < best_sq:
            best_sq, best_params = sq, params

    if best_params is None or rho_zero ** 2 <= best_sq:
        return ManifoldDistance(rho_zero, ZeroWave())
    C, kappa, omega, theta = best_params
    wave = SolitaryWave(C, theta % (2.0 * np.pi), kappa, omega)
    return ManifoldDistance(float(np.sqrt(max(best_sq, 0.0))), wave)

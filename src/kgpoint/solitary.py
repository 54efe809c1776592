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

For polynomial models the relations are explicit in s = C^2: kappa =
alpha(s)/2 and omega = +/- sqrt(m^2 - kappa^2).  The admissible set is the
s > 0 with alpha(s)/2 in (0, m], a union of intervals in general, and
`distance_to_manifold` scans it in s up to the largest zero of alpha, past
which alpha < 0 (u_N > 0).  That zero and the amplitudes of
`waves_at_omega`, the roots of alpha(s) = 2 kappa, come from
`model.alpha_roots`.  Both model kinds measure the distance through the
same profile rows, inner products and term-by-term residual; the linear
model needs them at the single decay kappa = a/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldState, Grid
from .model import OscillatorModel, alpha, alpha_roots
from .observables import _dx_with_center_kink, _window_half


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


def _bracket_nodes(s_max: float) -> np.ndarray:
    """The amplitude scan's nodes in s = C^2: the union of a log-spaced and
    a linear grid on (0, s_max], 512 nodes each; the log points resolve
    admissible intervals piling up near zero."""
    return np.unique(np.concatenate([
        np.geomspace(s_max * 1e-14, s_max, 512),
        np.linspace(s_max / 512, s_max, 512),
    ]))


def waves_from_amplitude(model: OscillatorModel, C: float) -> list[SolitaryWave]:
    """The zero, one, or two waves with amplitude C (Remark: omega = +/- sqrt(m^2 - kappa_C^2))."""
    if C <= 0:
        raise ValueError("amplitude must be positive")
    m = model.mass
    kappa_c = 0.5 * float(alpha(model, C * C))
    omega_sq = m * m - kappa_c * kappa_c
    # a kappa too small to move omega off the gap edge m is no wave
    if not (0.0 < kappa_c <= m and omega_sq < m * m):
        return []
    if omega_sq <= 0.0:
        return [SolitaryWave(C, 0.0, kappa_c, 0.0)]
    w = float(np.sqrt(omega_sq))
    return [SolitaryWave(C, 0.0, kappa_c, w), SolitaryWave(C, 0.0, kappa_c, -w)]


def wave_on_branch(model: OscillatorModel, C: float, branch: str) -> SolitaryWave:
    """The wave of amplitude C on `branch`, "minus" for omega < 0 and "plus"
    otherwise (theta = 0); ValueError when there is none."""
    waves = waves_from_amplitude(model, C)
    if not waves:
        raise ValueError(f"no solitary wave exists at C={C} for this model")
    for w in waves:
        if (w.omega < 0) == (branch == "minus"):
            return w
    raise ValueError(f"no {branch}-branch solitary wave exists at C={C}")


# |omega -/+ omega_a| at which a linear-model frequency counts as resonant
_FAMILY_TOL = 1e-9


def waves_at_omega(model: OscillatorModel, omega: float
                   ) -> list[SolitaryWave] | LinearWaveFamily:
    """All waves at frequency omega; a LinearWaveFamily flag for the linear continuum."""
    m = model.mass
    if model.is_linear:
        a = model.linear_a
        if a <= 0 or a >= 2 * m:
            return []
        omega_a = float(np.sqrt(m * m - 0.25 * a * a))
        if min(abs(omega - omega_a), abs(omega + omega_a)) <= _FAMILY_TOL:
            return LinearWaveFamily(kappa=0.5 * a, omega=float(np.sign(omega) * omega_a))
        return []
    if abs(omega) >= m:
        raise ValueError("strictly nonlinear models only have solitary waves for |omega| < m")
    kappa = float(np.sqrt(m * m - omega * omega))
    return [SolitaryWave(np.sqrt(s), 0.0, kappa, float(omega))
            for s in alpha_roots(model, 2.0 * kappa)]


def sample_profile(wave: SolitaryWave, grid: Grid, t: float = 0.0) -> FieldState:
    """Sample Psi(t) = [phi, -i omega phi] e^{-i omega t} with phi = C e^{i theta} e^{-kappa|x|}."""
    envelope = wave.amplitude * np.exp(-wave.kappa * np.abs(grid.x))
    psi = envelope * np.exp(1j * (wave.theta - wave.omega * t))
    return FieldState(grid, psi, -1j * wave.omega * psi, t)


def profile_norm_e_sq(wave: SolitaryWave, m: float) -> float:
    """Closed-form ||Phi_omega||_E^2 = |C|^2 (kappa^2 + m^2 + omega^2) / kappa."""
    return wave.amplitude ** 2 * (wave.kappa ** 2 + m * m + wave.omega ** 2) / wave.kappa


def _window(state: FieldState, m: float, R: float):
    """Arrays (psi, psi', one-sided pair, pi, weights) restricted to |x| <= R,
    with the seminorm's stencils (`_dx_with_center_kink`); an R beyond the
    grid or below its spacing raises, as in `norm_e` (`_window_half`)."""
    grid = state.grid
    c = grid.center_index
    h = grid.spacing
    half = _window_half(grid, R)
    lo, hi = c - half, c + half + 1
    d_all, d_plus, d_minus = _dx_with_center_kink(state.psi, h, c)
    w = np.full(hi - lo, h)
    w[0] = w[-1] = 0.5 * h
    return (state.psi[lo:hi], d_all[lo:hi], (d_plus, d_minus),
            state.pi[lo:hi], w, grid.x[lo:hi], half)


def _profile_rows(kappa: np.ndarray, x_w: np.ndarray, half: int) -> np.ndarray:
    """Rows [phi | phi' | phi'(0+), phi'(0-)] of phi = e^{-kappa |x|} on the
    window nodes, one row per kappa.

    The derivative entries are `_dx_with_center_kink` of the profiles with
    two guard nodes per side, the stencil of the state's seminorm, so a
    state equal to a sampled candidate has exactly zero residual.  The phi'
    entry at the kink node holds the pair average, as in the state's row;
    inner products give it weight zero and read the one-sided pair instead.
    """
    h = x_w[1] - x_w[0]
    x_ext = np.abs(np.concatenate(([x_w[0] - 2.0 * h, x_w[0] - h], x_w,
                                   [x_w[-1] + h, x_w[-1] + 2.0 * h])))
    prof = np.exp(-np.multiply.outer(kappa, x_ext))
    d, d_plus, d_minus = _dx_with_center_kink(prof, h, half + 2)
    return np.concatenate((prof[:, 2:-2], d[:, 2:-2], d_plus[:, None], d_minus[:, None]),
                          axis=1)


# profile-matrix entries per chunk of the amplitude scan, so that its
# temporaries stay bounded however many nodes the window holds
_SCAN_ENTRIES = 1 << 16


def distance_to_manifold(model: OscillatorModel, state: FieldState, R: float
                         ) -> ManifoldDistance:
    """min over the solitary set of ||Psi - Phi||_{E,R}, phase eliminated analytically.

    Strictly nonlinear models: the waves are parametrized by s = C^2, with
    kappa = alpha(s)/2 and omega = +/- sqrt(m^2 - kappa^2) in closed form.
    The admissible set is the s with alpha(s)/2 in (0, m], possibly a union
    of intervals; the scan skips the rest without case analysis.  Every
    node of `_bracket_nodes` on (0, s_max], s_max the largest zero of alpha
    (none leaves only the zero wave), is evaluated for both signs of omega
    in one vectorized pass, then s is refined by golden section between the
    best node's two neighbours, on the residual ||Psi - Phi||_{E,R} summed
    term by term (the scan's inner-product form cancels to ~1e-15
    ||Psi||^2, which near the manifold leaves only a few digits of rho);
    the reported rho is that residual of the reported wave.  The zero wave is always a candidate.
    R below the grid spacing h raises ValueError.
    Linear models: least squares onto the span of the two resonant modes.
    They share the profile row of kappa = a/2, so the scan's inner products
    give the right-hand side and its squared-row sums the 2 x 2 Gram
    matrix; rho is the residual of that fit, summed term by term too.
    """
    m = model.mass
    psi_w, dpsi_w, pair_w, pi_w, w, x_w, half = _window(state, m, R)

    # ||Psi - Phi||_{E,R}^2 summed term by term, which does not cancel: against
    # candidate rows [psi | psi' | psi'(0+), psi'(0-)] laid out like those of
    # `_profile_rows`, with the kink node weighing the one-sided pair
    n = len(x_w)
    w_d = w.copy()
    w_d[half] = 0.0
    kink = 0.5 * w[half]
    state_rows = np.concatenate((psi_w, dpsi_w, pair_w))
    res_w = np.concatenate((m * m * w, w_d, [kink, kink]))

    def residual_sq(row, pi_row) -> float:
        r = state_rows - row
        r_pi = pi_w - pi_row
        return float(res_w @ (r.real ** 2 + r.imag ** 2) + w @ (r_pi.real ** 2 + r_pi.imag ** 2))

    norm_sq = residual_sq(0.0, 0.0)
    rho_zero = float(np.sqrt(norm_sq))

    # Against the rows of `_profile_rows`, the candidate C phi with
    # pi = -i omega C phi has <Psi, Phi> = C (A + i omega B) and
    # ||Phi||^2 = C^2 ((omega^2 + m^2) G + D): A and B are the products of
    # the rows with the columns of `proj`, G and D those of the squared rows
    # with the columns of `norm_w`.  The kink node weighs the one-sided pair.
    vec_a = np.concatenate((m * m * w * psi_w, w_d * dpsi_w, kink * np.array(pair_w)))
    vec_b = np.concatenate((w * pi_w, np.zeros(n + 2)))
    proj = np.stack((vec_a.real, vec_a.imag, vec_b.real, vec_b.imag), axis=1)
    norm_w = np.zeros((2 * n + 2, 2))
    norm_w[:n, 0] = w
    norm_w[n:2 * n, 1] = w_d
    norm_w[2 * n:, 1] = kink

    def inner(s: np.ndarray, kappa: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """<Psi, Phi> of the waves with C^2 = s and these kappa (rows) for
        omega = +|omega| and -|omega| (columns), against their profile rows."""
        a_re, a_im, b_re, b_im = (rows @ proj).T
        a = a_re + 1j * a_im
        iwb = 1j * np.sqrt(m * m - kappa * kappa) * (b_re + 1j * b_im)
        return np.sqrt(s)[:, None] * np.stack((a + iwb, a - iwb), axis=1)

    if model.is_linear:
        a = model.linear_a
        if a <= 0 or a >= 2 * m:
            return ManifoldDistance(rho_zero, ZeroWave())
        # both modes have the profile g = e^{-a |x| / 2}, with pi = +i omega_a g
        # (c_plus) and -i omega_a g (c_minus): the columns of `inner` reversed
        omega_a = float(np.sqrt(m * m - 0.25 * a * a))
        kappa = np.array([0.5 * a])
        g_row = _profile_rows(kappa, x_w, half)[0]
        v = inner(np.ones(1), kappa, g_row[None, :])[0, ::-1]
        # Gram matrix [[p, q], [q, p]]: the modes' pi parts are conjugate
        g_sq, d_sq = (g_row * g_row) @ norm_w
        p = (m * m + omega_a * omega_a) * g_sq + d_sq
        q = (m * m - omega_a * omega_a) * g_sq + d_sq
        coef = np.linalg.solve(np.array([[p, q], [q, p]]), v)
        rho = float(np.sqrt(residual_sq((coef[0] + coef[1]) * g_row,
                                        (1j * omega_a * (coef[0] - coef[1])) * g_row[:n])))
        fit = LinearSpanFit(complex(coef[0]), complex(coef[1]), omega_a, 0.5 * a)
        if rho_zero <= rho + 1e-15:
            return ManifoldDistance(rho_zero, ZeroWave())
        return ManifoldDistance(rho, fit)

    chunk = max(1, _SCAN_ENTRIES // (2 * n + 2))

    def scan(s: np.ndarray) -> np.ndarray:
        """rho^2 at each s (rows) for omega = +|omega| and -|omega|
        (columns), in the cancelling inner-product form; inf where
        alpha(s)/2 is outside (0, m]."""
        kappa = 0.5 * alpha(model, s)
        admissible = np.nonzero((kappa > 0.0) & (kappa <= m))[0]
        rho_sq = np.full((len(s), 2), np.inf)
        for lo in range(0, len(admissible), chunk):
            idx = admissible[lo:lo + chunk]
            k = kappa[idx]
            rows = _profile_rows(k, x_w, half)
            g_sq, d_sq = ((rows * rows) @ norm_w).T
            omega_sq = m * m - k * k
            nn = s[idx] * ((omega_sq + m * m) * g_sq + d_sq)
            rho_sq[idx] = norm_sq - 2.0 * np.abs(inner(s[idx], k, rows)) + nn[:, None]
        return rho_sq

    def at(s: float):
        """(rho^2, wave) of the better sign of omega at s, the phase
        eliminated and rho^2 the residual; (inf, None) where s is not
        admissible."""
        kappa = 0.5 * float(alpha(model, s))
        if not 0.0 < kappa <= m:
            return np.inf, None
        row = _profile_rows(np.array([kappa]), x_w, half)[0]
        ip = inner(np.array([s]), np.array([kappa]), row[None, :])[0]
        col = int(np.argmax(np.abs(ip)))
        omega = float(np.sqrt(m * m - kappa * kappa)) * (1.0 if col == 0 else -1.0)
        wave = SolitaryWave(np.sqrt(s), float(np.angle(ip[col])) % (2.0 * np.pi),
                            kappa, omega)
        cand = (wave.amplitude * np.exp(1j * wave.theta)) * row
        return residual_sq(cand, -1j * omega * cand[:n]), wave

    zeros = alpha_roots(model, 0.0)
    if not len(zeros):
        return ManifoldDistance(rho_zero, ZeroWave())
    nodes = _bracket_nodes(zeros[-1])
    rho_sq = scan(nodes)
    i, col = np.unravel_index(np.argmin(rho_sq), rho_sq.shape)
    if not rho_sq[i, col] < norm_sq:
        return ManifoldDistance(rho_zero, ZeroWave())

    # golden-section refinement of s between the best node's neighbours,
    # on the direct residual
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = nodes[max(i - 1, 0)], nodes[min(i + 1, len(nodes) - 1)]
    c_ = b_ - invphi * (b_ - a_)
    d_ = a_ + invphi * (b_ - a_)
    fc, fd = at(c_), at(d_)
    for _ in range(70):
        if fc[0] < fd[0]:
            b_, d_, fd = d_, c_, fc
            c_ = b_ - invphi * (b_ - a_)
            fc = at(c_)
        else:
            a_, c_, fc = c_, d_, fd
            d_ = a_ + invphi * (b_ - a_)
            fd = at(d_)
        if b_ - a_ < 1e-12 * b_:
            break
    best_sq, wave = min(at(nodes[i]), fc, fd, key=lambda cand: cand[0])
    rho = float(np.sqrt(max(best_sq, 0.0)))
    if rho >= rho_zero:
        return ManifoldDistance(rho_zero, ZeroWave())
    return ManifoldDistance(rho, wave)

"""Reduced Volterra solver for the trace and Duhamel field reconstruction.

The point coupling reduces the full PDE to a scalar integral equation for
the trace z(t) = psi(0, t):

    z(t) = h(t) + (1/2) int_0^t J0(m (t - s)) F(z(s)) ds,

with h the free-field trace of the initial data; the data's kink pair
(`kink_split`) is one more point source at x = 0 beside F(z).  Product
integration with trapezoid weights discretizes the memory integral (the
kernel is entire, so no singularity treatment is needed); the s = t node
makes each step weakly implicit, z = b + (dt/4) F(z) with b known.
F(z) = alpha(|z|^2) z with alpha real (U(1) invariance), so the solution is
a real multiple z = b / mu of b, and the node reduces to the real fixed
point mu = 1 - (dt/4) alpha(|b|^2 / mu^2), warm-started by extrapolating mu
from the previous steps.  The linear part of F is thereby solved exactly.
The memory sum of step n, sum_{i<n} g_i J0(m (n - i) dt), is split into a
near part and a far part.  The sources in the current aligned block of
_NEAR nodes take one direct dot per step.  Every other (target, source)
pair lies in exactly one square of the dyadic partition of the lower
triangle, sources [2kL, (2k+1)L) against targets [(2k+1)L, (2k+2)L) for
L = _NEAR 2^p; each square is added by one FFT convolution as soon as its
sources are known (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput.
6 (1985) 532-541).  The weights are those of the direct sum, the cost
O(N log^2 N) instead of O(N^2).
The a priori bound |z| <= cap (`_trace_cap`) makes the mu iteration a
contraction by 1/2 once dt L / 4 <= 1/2, L the Lipschitz bound of F on
|z| <= cap (`force_lipschitz`); `solve_trace` checks this up front and
rejects larger steps.  With q = dt/4, A = q sup|alpha| and
D = q sup|2 s alpha'(s)| over s <= cap^2, A + D <= q L <= 1/2; the map's
slope 2 q alpha'(s) s / mu is then at most D / (1 - A) <= 1/2 wherever
mu >= 1 - A.

The full field is recovered from the trace by the Duhamel representation

    psi(x, t) = psi_free(x, t) + int_0^{t - |x|} G(x, t - s) F(z(s)) ds,

a quadrature restricted to the light cone.  Each row x sums a bulk, the
trapezoid over the trace nodes up to a cut node, and closes it with a short
end stencil: the cut node's half weight, an exact partial cell up to the
cone edge, or a Gauss rule in the r = sqrt((t-s)^2 - x^2) variable over the
last cells, where the kernel's square-root turning point makes any s-grid
under-resolved.  pi adds the Leibniz time derivative of the Duhamel term,
whose delta ridge integrates to the sharp analytic boundary value
f(t - |x|)/2, to the free part's exact spectral derivative.

Both cone sums come from one pass.  Every kernel value is taken at the
distance d = tau - |x| = (t - |x|) - s to the cone edge, with
r^2 = d (d + 2|x|), so no cancellation of tau^2 - x^2 enters near the edge
(`_kernels`).  The bulk runs over panels of 128 source nodes.  Away from
the cone edge each row of the kernels is smooth across a panel (they are
entire in u = tau^2 - x^2), so the pass evaluates it at 24 Chebyshev points
only and multiplies against the panel's moments of the source histories.
The near-edge band, the last partial panel and the row x = 0 are summed
entry by entry, in blocks of about 2^15 kernel entries, small enough that a
block's arrays stay in the per-core cache; each block computes the cone
geometry and the cubic table-interpolation weights once, gathers J0 (the
psi kernel) and J1/x (the pi kernel) with them, and multiplies both against
the source histories in a single matmul.  The end stencils of all rows take
one kernel lookup and one einsum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import FieldState
from .kernel import (KernelTables, bessel_j0, check_horizon, free_evolve,
                     free_trace, kink_split)
from .model import OscillatorModel, alpha, check_bound_below, force, force_lipschitz
from .observables import charge as charge_of
from .observables import energy as energy_of


# fixed-point stopping rule of the implicit node, relative to max(1, |z|)
_RESIDUAL_TOL = 1e-12
# largest dt L / 4 accepted: the implicit node's map then contracts by 1/2
_MAX_CONTRACTION = 0.5
# iterations of the implicit node before the step counts as failed
_MAX_ITERATIONS = 30
# sources per near block of the history sum (a power of two).  A T = 600,
# dt = 0.02 solve (N = 30001, one BLAS thread, 2-core Xeon) took 0.226 /
# 0.226 / 0.206 / 0.200 s at 16 / 32 / 64 / 128 (best of 8), a T = 2000
# solve 1.26 / 1.06 / 1.13 / 1.03 s (best of 3): from 32 up the sizes are
# within the noise of a shared machine, and each step's near dot grows
# with the block.
_NEAR = 64


class StepTooLargeError(ValueError):
    """dt is too large for the implicit node to contract on |z| <= cap."""


class SolveStatus(enum.Enum):
    COMPLETED = "completed"
    ENERGY_DRIFT_EXCEEDED = "energy_drift_exceeded"
    TRACE_BOUND_EXCEEDED = "trace_bound_exceeded"
    NON_FINITE = "non_finite"


@dataclass
class TraceSeries:
    """Trace z_k = psi(0, k dt)."""

    dt: float
    z: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.z)) * self.dt

    def index_of(self, t: float) -> int:
        j = int(round(t / self.dt))
        if abs(t - j * self.dt) > 1e-9 * max(1.0, abs(t)) or not 0 <= j < len(self.z):
            raise ValueError(f"time {t} is not on the trace grid")
        return j


@dataclass
class SolveReport:
    """Solver outcome.  `solve_full` also samples energy and charge at the
    snapshots and keeps H and Q of the initial data, the base their drift is
    measured from (None when nothing was sampled)."""

    trace: TraceSeries
    status: SolveStatus
    energy_samples: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    charge_samples: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    message: str = ""
    energy_initial: float | None = None
    charge_initial: float | None = None
    # fixed-point iterations of the implicit node over the steps solved: in
    # total, and the most in one step
    node_iterations: int = 0
    node_iterations_max: int = 0

    @property
    def energy_drift(self) -> float | None:
        """max |H - H0| / max(|H0|, 1e-30) over the energy samples, H0 =
        `energy_initial`; None when nothing was sampled."""
        e0 = self.energy_initial
        if not len(self.energy_samples) or e0 is None:
            return None
        return float(np.max(np.abs(self.energy_samples[:, 1] - e0)) / max(abs(e0), 1e-30))


def _node(coefs: tuple[float, ...], quarter_dt: float, b: complex, mu: float):
    """Solve the implicit node z = b + (dt/4) F(z) from the guess mu; `coefs`
    are the model's alpha coefficients, highest power first.

    F(z) = alpha(|z|^2) z with alpha real, so z = b / mu with mu real, and
    the node becomes the scalar fixed point mu = 1 - (dt/4) alpha(|b|^2 / mu^2).
    Each iteration is one real Horner step and one division; the stopping
    rule is |dz| = |b| |dmu| / |mu mu'| <= _RESIDUAL_TOL max(1, |z|),
    multiplied through by |mu mu'|.  Returns (z, F(z), mu, iterations);
    iterations = 0 flags an iteration that did not converge within
    _MAX_ITERATIONS (a NaN never passes the stopping rule), and z and F(z)
    then hold no solution.
    """
    b_sq = b.real * b.real + b.imag * b.imag
    b_abs = math.sqrt(b_sq)
    try:
        for it in range(1, _MAX_ITERATIONS + 1):
            s = b_sq / (mu * mu)
            acc = 0.0
            for c in coefs:
                acc = acc * s + c
            mu_new = 1.0 - quarter_dt * acc
            if b_abs * abs(mu_new - mu) <= _RESIDUAL_TOL * max(abs(mu * mu_new), b_abs * abs(mu)):
                break
            mu = mu_new
        else:
            return b, b, mu, 0
        z = b / mu_new
        s = b_sq / (mu_new * mu_new)
    except ZeroDivisionError:
        return b, b, mu, 0
    acc = 0.0
    for c in coefs:
        acc = acc * s + c
    return z, acc * z, mu_new, it


def _trace_cap(model: OscillatorModel, initial: FieldState) -> float:
    """Runaway guard on |z| from the a priori bound.

    Conservation gives ||Psi||_E^2 <= 2m (H0 - A)/(m - B) and the Sobolev
    inequality |psi(0)|^2 <= ||Psi||_E^2 / (2m), so |z| <= sqrt((H0-A)/(m-B))
    exactly; a 50% slack flags genuine blow-up, not scheme noise.
    """
    ab = check_bound_below(model)
    if ab is None:
        return 1e12
    A, B = ab
    h0 = energy_of(model, initial)
    lam_sq = max(h0 - A, 0.0) / (model.mass - B)
    return 1.5 * float(np.sqrt(lam_sq)) + 1e-9


def _square_spectra(kern: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """Kernel spectra of the far-field squares: for each size
    L = _NEAR 2^p < n, the rfft of lags 0 .. 2L-1, zero past the last node
    (no kept target reaches those lags)."""
    spectra = {}
    size = _NEAR
    while size < n:
        spectra[size] = np.fft.rfft(kern[:2 * size], 2 * size)
        size *= 2
    return spectra


def _add_square(far: np.ndarray, g: np.ndarray, j: int, spectra: dict) -> None:
    """Add the far-field square that closes at step j to far[j:j+L].

    With L = j & -j (j a multiple of _NEAR), the finished sources g[j-L:j]
    act on the targets [j, j+L) through kernel lags 1 .. 2L-1; a cyclic
    convolution of length 2L gives exactly those sums, with no wrap-around.
    The real and imaginary parts go through one rfft/irfft pair as two
    columns (a complex FFT of the same length left about three times the
    roundoff in the solved trace).
    """
    size = j & -j
    src = g[j - size:j].view(float).reshape(size, 2)
    conv = np.fft.irfft(np.fft.rfft(src, 2 * size, axis=0) * spectra[size][:, None],
                        2 * size, axis=0)
    stop = min(j + size, len(far))
    far[j:stop].view(float).reshape(-1, 2)[:] += conv[size:size + stop - j]


def solve_trace(model: OscillatorModel, initial: FieldState, T: float, dt: float
                ) -> SolveReport:
    """Integrate the trace equation on [0, T] with step dt.

    Preconditions: T/dt integral, initial data finite, and the grid large
    enough that nothing reaches the boundary within T (horizon rule, caller's
    responsibility).  Raises StepTooLargeError when dt L / 4 > 1/2, L the
    Lipschitz bound of F on |z| <= cap.  Returns a report whose status is
    COMPLETED, NON_FINITE (iteration diverged), or TRACE_BOUND_EXCEEDED (|z|
    broke the a priori cap of `_trace_cap`, signalling an ill-posed model).

    The march runs in blocks of _NEAR steps.  On entering the block at
    `start`, the far-field square closing there (`_add_square`) completes
    the far sums of the block's targets, and the block's h + (dt/2) far
    becomes a list of Python complex numbers, so the per-step fixed-point
    iteration runs on Python scalars.  Each step adds the near part, one
    dot of the block's finished sources against kernel lags r .. 1, and
    solves its node for the real multiplier mu of z = b / mu (`_node`).
    The first guess extrapolates mu by the degree-5 polynomial through the
    six previous steps: on the long_sweep setting (T = 600, dt = 0.02) the
    node then takes 1.01-1.14 iterations per step over seeds 1-10, against
    2.8-3.9 for degree 1 and about 5 for the complex iteration it replaced;
    degree 6 took more again (1.29 at seed 1).  The linear model takes one.
    The report counts the iterations (`node_iterations`, and the most in
    one step, `node_iterations_max`).  The kink pair's point source src
    joins F(z) in g_0, in each block's `known` row (the s = t node's
    (dt/4) src) and in every g_j, so the history sum gives its Duhamel trace.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(T / dt))
    if abs(T - n_steps * dt) > 1e-9 * max(1.0, T):
        raise ValueError("T must be an integer multiple of dt")
    cap = _trace_cap(model, initial)
    lip = force_lipschitz(model, cap)
    if 0.25 * dt * lip > _MAX_CONTRACTION:
        raise StepTooLargeError(
            f"dt = {dt:.6g} too large for the implicit node: dt L/4 = {0.25 * dt * lip:.6g} "
            f"> {_MAX_CONTRACTION} with L = {lip:.6g} the Lipschitz bound of F on "
            f"|z| <= cap = {cap:.6g}; the largest admissible dt is "
            f"{4.0 * _MAX_CONTRACTION / lip:.6g}")
    n = n_steps + 1
    m = model.mass
    times = np.arange(n) * dt

    check_horizon(initial, T, "solve_trace")
    split = kink_split(initial, m)
    src = split.source(times)
    # g(0) = 1, so the pair's standing field at x = 0 is its source over -2 kappa1
    h = free_trace(split.rest, times, m) + src / (-2.0 * split.kappa1)
    spectra = _square_spectra(bessel_j0(m * times), n)
    # near_lags[r] holds kernel lags r .. 1, the weights of the r sources
    # g[start:start+r] in the block at target start + r; complex, so that
    # the near dot casts nothing
    lags = bessel_j0(m * (np.arange(_NEAR - 1, 0, -1) * dt)).astype(complex)
    near_lags = [lags[_NEAR - 1 - r:] for r in range(_NEAR)]

    coefs = model.alpha_coefficients[::-1]
    quarter_dt = 0.25 * dt
    half_dt = 0.5 * dt

    z = np.empty(n, dtype=complex)
    # the sources F(z) + src, with the j=0 trapezoid half-weight folded in
    g = np.empty(n, dtype=complex)
    # far-field memory sums, completed for a block when the march reaches it
    far = np.zeros(n, dtype=complex)
    z[0] = complex(initial.psi[initial.grid.center_index])
    g[0] = 0.5 * (force(model, z[0]) + src[0])
    # the multiplier z_0 would have as a node, mu = 1 - (dt/4) alpha(|z|^2),
    # seeds the predictor's history mu_1 .. mu_6 (mu_k from step j - k)
    mu_0 = 1.0 - quarter_dt * float(alpha(model, abs(z[0]) ** 2))
    mu_1 = mu_2 = mu_3 = mu_4 = mu_5 = mu_6 = mu_0

    status = SolveStatus.COMPLETED
    message = ""
    iterations = iterations_max = 0
    last = n
    for start in range(0, n, _NEAR):
        if start:
            _add_square(far, g, start, spectra)
        block = slice(start, start + _NEAR)
        known = (h[block] + half_dt * far[block] + quarter_dt * src[block]).tolist()
        src_block = src[block].tolist()
        for r in range(1 if start == 0 else 0, len(known)):
            j = start + r
            b = known[r] + half_dt * complex(np.dot(g[start:j], near_lags[r]))
            # degree-5 extrapolation of mu over the previous six steps
            guess = 6.0 * (mu_1 + mu_5) - 15.0 * (mu_2 + mu_4) + 20.0 * mu_3 - mu_6
            zj, fj, mu, it = _node(coefs, quarter_dt, b, guess)
            if not it:
                status = SolveStatus.NON_FINITE
                message = f"implicit node failed to converge at t={times[j]:.6g}"
                last = j
                break
            iterations += it
            if it > iterations_max:
                iterations_max = it
            z[j] = zj
            g[j] = fj + src_block[r]
            mu_6, mu_5, mu_4, mu_3, mu_2, mu_1 = mu_5, mu_4, mu_3, mu_2, mu_1, mu
            if abs(zj) > cap:
                status = SolveStatus.TRACE_BOUND_EXCEEDED
                message = (f"|z|={abs(zj):.3g} exceeded the a priori bound cap {cap:.3g} "
                           f"at t={times[j]:.6g}")
                last = j + 1
                break
        if last < n:
            break

    return SolveReport(trace=TraceSeries(dt=dt, z=z[:last]), status=status, message=message,
                       node_iterations=iterations, node_iterations_max=iterations_max)


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(32)
_GAUSS_X = 0.5 * (_GAUSS_X + 1.0)  # nodes on (0, 1)
_GAUSS_W = 0.5 * _GAUSS_W

# kernel entries per block of the cone sum: the block's dozen arrays of this
# length (256 KiB each) then stay near a core's L2 cache instead of streaming
# through DRAM.  On a 2 MiB-L2 Xeon, 2^14 to 2^16 time alike and 2^17 is
# about 1.3x slower.
_BLOCK_ENTRIES = 1 << 15

# source nodes per panel of the cone sum, Chebyshev points per panel, and the
# largest kernel phase across a panel that the points resolve (in radians).
# Panels are sized in nodes, not in time: 2560-node panels at dt = 1e-3
# made a solitary snapshot's cone sum slower (0.061 s -> 0.08-0.12 s).
_PANEL = 128
_PANEL_POINTS = 24
_PANEL_PHASE = 7.0


def _panel_rule(n_nodes: int, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev points c_q on [0, n_nodes - 1] and the
    (n_points, n_nodes) matrix W[q, j] = L_q(j) of their Lagrange basis at
    the nodes, in barycentric form (weights (-1)^q sin theta_q).

    For p of degree < n_points, sum_q p(c_q) W[q, j] = p(j), so
    sum_j p(j) f_j = sum_q p(c_q) (W f)_q for any f.  For 24 points on 128
    nodes the nearest node and point are 0.089 apart.
    """
    theta = (2 * np.arange(n_points) + 1) * np.pi / (2 * n_points)
    points = 0.5 * (n_nodes - 1) * (1.0 - np.cos(theta))
    terms = ((-1.0) ** np.arange(n_points) * np.sin(theta))[:, None] / (
        np.arange(n_nodes)[None, :] - points[:, None])
    return points, terms / terms.sum(axis=0)


_PANEL_NODES, _PANEL_WEIGHTS = _panel_rule(_PANEL, _PANEL_POINTS)


def _kernels(tables: KernelTables, m: float, x, d: np.ndarray) -> np.ndarray:
    """(K_psi, K_pi) = (J0(m r)/2, -(m^2/2) tau J1(m r)/(m r)), stacked, at
    rows x and distances d = tau - |x| to the cone edge (x broadcasts
    against d).  r^2 is formed as d (d + 2|x|): tau^2 - x^2 from a rounded
    tau would carry a relative error of about ulp(tau^2)/r^2 near the edge.
    A d rounded below zero counts as the edge, d = 0."""
    u = d + 2.0 * x
    u *= d
    np.maximum(u, 0.0, out=u)
    np.sqrt(u, out=u)
    u *= m
    kern = np.empty((2,) + u.shape)
    tables(u, out=kern)
    kern[0] *= 0.5
    tau = d + x
    tau *= -0.5 * m * m
    kern[1] *= tau
    return kern


def _cone_quadrature(dt: float, f_cols: np.ndarray, grid_x: np.ndarray, t: float,
                     tables: KernelTables, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Cone-restricted quadratures of K(x, t-s) f(s) over 0 <= s <= t - |x|
    for the psi kernel G = J0(m r)/2 and the interior pi kernel
    dG/dt = -(m^2/2) tau J1(m r)/(m r), in one pass.  The delta ridge of
    dG/dt on the cone is left to the caller as the boundary term f(t-|x|)/2.

    `f_cols` has shape (n_times, k): each column is one source history and
    gets its own output column; the result is the pair (psi, pi) of
    (len(grid_x), k) complex arrays.  The kernels are even in x and the grid
    is symmetric, so only the right half is summed and mirrored; its rows
    inside the cone are a prefix, and the rest stay zero.  Every kernel
    value comes from `_kernels` at d = (t - |x|) - s.

    Each row is a bulk plus an end stencil.  The bulk sums K f dt over the
    source nodes up to the row's cut node s_cut, with f_0 halved (the s = 0
    trapezoid weight, folded as in `solve_trace`), over panels of _PANEL
    consecutive nodes.  Both kernels depend on a row x only through
    u = tau^2 - x^2, and J0(m sqrt(u)) and J1(m sqrt(u))/(m sqrt(u)) are
    entire in u, so away from the cone edge a row is a smooth function of
    tau across a panel.  There it is replaced by its interpolant at
    _PANEL_POINTS Chebyshev points (`_panel_rule`): the panel's sum becomes
    K(x, tau_q) @ g with the panel moments g = W f, computed once per call
    for every panel and source column, and 24 kernel lookups per row
    replace 128.  A (row, panel) pair takes this rule when the row's bulk
    covers the whole panel and the kernel's phase across it,
    m tau_lo (_PANEL - 1) dt / sqrt(tau_lo^2 - x^2) at the panel's smallest
    tau, is at most _PANEL_PHASE (Trefethen, Approximation Theory and
    Approximation Practice, SIAM 2013, ch. 8).  On rows at that bound the
    rule's kernel values differ from the nodes' by at most 8e-14 of
    sum |K| over the panel in the l1 norm, for both kernels and
    dt = 1e-3 .. 0.05 (4e-15 at dt = 1e-3; tests/test_cone_fused.py), and
    whole reconstructions stay within 5.1e-14 max|field| of the direct pass.
    The rest of the bulk is summed entry by entry, in blocks of whole rows
    with about _BLOCK_ENTRIES kernel entries that share the cone geometry
    and the interpolation weights between both kernels: the near-edge band
    of each panel, the last partial panel, and the row x = 0, which thereby
    stays the exact mirror of the trace solver's weights.

    Near the cone edge the kernels turn as functions of r = sqrt(tau^2-x^2)
    with d(phase)/ds ~ m sqrt(x/(2u)) diverging at the edge (u = distance to
    it), so a trapezoid in s is under-resolved there once 2 m^2 x dt > 1/2.
    Such a row cuts its bulk n_e nodes early and integrates the rest in the
    r variable, where the kernel oscillates uniformly: a fixed Gauss rule
    on int K(x, tau) (r / tau) f(t - tau) dr is then exact to roundoff.
    The end stencil holds per row the entries (d, weight, node, fraction),
    f read by linear interpolation, for one kernel lookup and one einsum:
    the cut node's other half, -dt/2 (so a bulk that ends at s = 0 cancels
    and the front row t = |x| sums to exactly zero); on rows without an
    edge zone the partial cell [s_cut, t - |x|] by a trapezoid, whose cut
    end adds to that entry and whose edge end is the kernels' edge-limit
    value at d = 0; and the Gauss points of the edge zone.
    """
    n_half = (len(grid_x) + 1) // 2
    xa = grid_x[n_half - 1:]  # 0 .. L ascending
    n_times, n_cols = f_cols.shape
    ji = np.floor((t - xa) / dt + 1e-12).astype(np.intp)
    rows = int(np.count_nonzero(ji >= 0))  # ji does not increase with |x|
    xa = xa[:rows]
    reach = t - xa
    ji = np.minimum(ji[:rows], n_times - 1)
    delta = np.maximum(reach - ji * dt, 0.0)
    delta[delta < 1e-9 * dt] = 0.0  # snap fp residue so on-node cones use the limit value

    use_gauss = (2.0 * m * m * xa * dt > 0.5) & (ji >= 1)
    n_e = np.where(use_gauss, np.ceil(2.0 * m * m * xa * dt).astype(np.intp) + 1, 0)
    j_cut = ji - np.minimum(n_e, ji)

    # acc[kernel, x, (re | im) of each source column]
    acc = np.zeros((2, n_half, 2 * n_cols))
    n_nodes = int(j_cut[0]) + 1  # the row x = 0 reaches furthest
    f_ri = np.concatenate([f_cols.real, f_cols.imag], axis=1)
    g = f_ri.copy()  # the bulk's sources
    g[0] *= 0.5

    def add(r0: int, r1: int, s: np.ndarray, src: np.ndarray, nodes=None):
        """acc[:, r0:r1] += K(x, t - s) @ src in blocks of whole rows.  With
        `nodes` (the source node of each s), entries past a row's bulk are
        dropped."""
        step = max(1, _BLOCK_ENTRIES // len(s))
        for a in range(r0, r1, step):
            b = min(a + step, r1)
            kern = _kernels(tables, m, xa[a:b, None], reach[a:b, None] - s)
            if nodes is not None:
                short = np.flatnonzero(j_cut[a:b] < nodes[-1])
                if short.size:
                    s0 = short[0]
                    kern[:, s0:][:, nodes[None, :] > j_cut[a + s0:b, None]] = 0.0
            acc[:, a:b] += (kern.reshape(2 * (b - a), -1) @ src).reshape(2, b - a, -1)

    n_full = n_nodes // _PANEL
    moments = _PANEL_WEIGHTS @ g[:n_full * _PANEL].reshape(n_full, _PANEL, g.shape[1])
    # a row compresses on a panel when its bulk covers the panel (no partial
    # cell or Gauss zone inside) and x^2 <= tau_lo^2 (1 - ratio^2)
    ratio = m * (_PANEL - 1) * dt / _PANEL_PHASE
    for k, start in enumerate(range(0, n_nodes, _PANEL)):
        nodes = np.arange(start, min(start + _PANEL, n_nodes))
        s = nodes * dt
        nx = int(np.flatnonzero(j_cut >= start)[-1]) + 1  # up to the last row reaching it
        split = 1  # rows 1 .. split-1 take the panel rule
        if k < n_full:
            tau_lo = t - s[-1]
            ok = ((j_cut[1:nx] >= nodes[-1])
                  & (xa[1:nx] ** 2 <= tau_lo * tau_lo * (1.0 - ratio * ratio)))
            bad = np.flatnonzero(~ok)
            split += int(bad[0]) if bad.size else ok.size
            add(1, split, (start + _PANEL_NODES) * dt, moments[k])
        src = g[start:start + len(nodes)]
        add(0, 1, s, src, nodes)
        add(split, nx, s, src, nodes)
    acc *= dt

    # the end stencil: entries 0 (cut node), 1 (edge) and 2.. (Gauss points)
    shape = (rows, 2 + len(_GAUSS_X))
    d, weight, frac = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    node = np.zeros(shape, dtype=np.intp)
    half_cell = np.where(use_gauss, 0.0, 0.5 * delta)  # partial cell trapezoid
    d[:, 0] = reach - j_cut * dt
    weight[:, 0] = half_cell - 0.5 * dt
    node[:, 0] = j_cut
    weight[:, 1] = half_cell
    node[:, 1] = ji
    frac[:, 1] = delta / dt
    # Gauss rule in r over the edge zone, K ds = K (r / tau) dr, from
    # r_b = r(s_cut); d = r^2 / (tau + |x|) carries no cancellation
    z = np.flatnonzero(use_gauss)
    xz = xa[z, None]
    d_b = d[z, :1]
    r_b = np.sqrt(d_b * (d_b + 2.0 * xz))
    r = r_b * _GAUSS_X
    tau = np.sqrt(xz * xz + r * r)
    d[z, 2:] = r * r / (tau + xz)
    weight[z, 2:] = r_b * _GAUSS_W * r / tau
    s_g = (reach[z, None] - d[z, 2:]) / dt
    node[z, 2:] = s_g
    frac[z, 2:] = s_g - node[z, 2:]

    kern = _kernels(tables, m, xa[:, None], d)
    kern *= weight
    f_node = f_ri[node]
    f_node += (f_ri[np.minimum(node + 1, n_times - 1)] - f_node) * frac[..., None]
    acc[:, :rows] += np.einsum("crn,rnk->crk", kern, f_node)

    return tuple(np.concatenate([half[:0:-1], half], axis=0)
                 for half in acc[..., :n_cols] + 1j * acc[..., n_cols:])


def _tables_for(m: float, t: float, dt: float) -> KernelTables:
    """Kernel tables covering every argument of the cone sums up to time t."""
    return KernelTables(m * (t + dt) + 1.0)


def reconstruct_field(model: OscillatorModel, initial: FieldState, trace: TraceSeries,
                      t: float, tables: KernelTables | None = None) -> FieldState:
    """Field state at time t: free propagator plus Duhamel cone sums.

    t must lie on the trace grid, and `tables` (built for t when omitted)
    must cover kernel arguments up to m t.  The Duhamel time derivative uses
    the Leibniz form

        d/dt int_0^{t-|x|} G f ds = f(t-|x|)/2
            - (m^2/2) int_0^{t-|x|} (t-s) [J1(u)/u] f(s) ds,

    so the delta ridge of dG/dt becomes a sharp analytic boundary term and
    the light-cone front of pi is exact rather than smeared by differencing.
    The initial data get the same kink split as in `solve_trace`: only the
    kink-free remainder goes through the spectral propagator, and the kink
    pair adds its standing field plus the Duhamel field of its point source.
    That source joins F(z) in the one source column of the cone sums, as in
    the trace solve, which keeps the center column consistent with the
    trace to roundoff; its boundary term is exact, the trace's interpolated.
    """
    j = trace.index_of(t)
    if j == 0:
        out = initial.copy()
        return out
    m = model.mass
    dt = trace.dt
    t = j * dt  # exact grid time, so cone-edge snapping at x = 0 is reliable
    check_horizon(initial, t, "reconstruct_field")
    if tables is None:
        tables = _tables_for(m, t, dt)
    elif tables.a_max < m * t:
        raise ValueError(f"kernel tables cover arguments up to {tables.a_max:.6g}, "
                         f"reconstruction at t = {t:.6g} needs m t = {m * t:.6g}")
    grid = initial.grid
    reach = t - np.abs(grid.x)
    inside = reach >= 0.0

    split = kink_split(initial, m)
    free = free_evolve(split.rest, t, m)
    psi_pair, pi_pair = split.standing(t)
    f = force(model, trace.z)
    d_psi, d_pi = _cone_quadrature(dt, (f + split.source(trace.times))[:, None], grid.x, t,
                                   tables, m)
    psi = free.psi + d_psi[:, 0] + psi_pair
    pi = (free.pi + d_pi[:, 0] + pi_pair + 0.5 * _interp_history(f, reach, dt, inside)
          + np.where(inside, 0.5 * split.source(reach), 0.0))
    return FieldState(grid, psi, pi, t)


def reconstruct_fields(model: OscillatorModel, initial: FieldState, trace: TraceSeries,
                       times) -> list[FieldState]:
    """Field states at each of `times` (on the trace grid), in order.

    One set of kernel tables, built for the latest time, serves every
    reconstruction; the states equal separate `reconstruct_field` calls
    bit for bit.
    """
    times = list(times)
    if not times:
        return []
    tables = _tables_for(model.mass, max(times), trace.dt)
    return [reconstruct_field(model, initial, trace, t, tables) for t in times]


def _interp_history(f: np.ndarray, reach: np.ndarray, dt: float,
                    inside: np.ndarray) -> np.ndarray:
    """f(t - |x|) by linear interpolation on the trace grid, 0 outside the cone."""
    ji = np.floor(reach / dt + 1e-12).astype(np.intp)
    ji_c = np.clip(ji, 0, len(f) - 1)
    frac = np.clip(np.where(inside, (reach - ji_c * dt) / dt, 0.0), 0.0, 1.0)
    ji_next = np.minimum(ji_c + 1, len(f) - 1)
    return np.where(inside, f[ji_c] + (f[ji_next] - f[ji_c]) * frac, 0.0)


def solve_full(model: OscillatorModel, initial: FieldState, T: float, dt: float,
               snapshot_times=(), energy_tol: float = 1e-4
               ) -> tuple[SolveReport, list[FieldState]]:
    """Trace solve plus reconstructed snapshots with energy/charge sampling.

    Snapshots are reconstructed only from a COMPLETED trace; a trace the
    solver stopped early comes back with none.  Status degrades to
    ENERGY_DRIFT_EXCEEDED when the sampled Hamiltonian drifts relative to
    H(initial) by more than energy_tol.
    """
    report = solve_trace(model, initial, T, dt)
    if report.status is not SolveStatus.COMPLETED:
        return report, []
    snapshot_times = list(snapshot_times)
    snapshots = reconstruct_fields(model, initial, report.trace, snapshot_times)
    if not snapshots:
        return report, snapshots

    report.energy_initial = energy_of(model, initial)
    report.charge_initial = charge_of(initial)
    report.energy_samples = np.array([(t, energy_of(model, state))
                                      for t, state in zip(snapshot_times, snapshots)])
    report.charge_samples = np.array([(t, charge_of(state))
                                      for t, state in zip(snapshot_times, snapshots)])
    drift = report.energy_drift
    if drift > energy_tol:
        report.status = SolveStatus.ENERGY_DRIFT_EXCEEDED
        report.message = f"relative energy drift {drift:.3g} exceeded tol {energy_tol:.3g}"
    return report, snapshots

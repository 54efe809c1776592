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
from the previous steps and iterated in one loop inside `solve_trace`'s
march.  The linear part of F is thereby solved exactly.
The memory sum of step n, sum_{i<n} g_i J0(m (n - i) dt), is split into a
near part and a far part.  The sources in the current aligned block of
_NEAR nodes take one direct dot per step, against a buffer that holds the
block's sources.  Every other (target, source) pair lies in exactly one
square of the dyadic partition of the lower triangle, sources
[2kL, (2k+1)L) against targets [(2k+1)L, (2k+2)L) for L = _NEAR 2^p; each
square is added as soon as its sources are known (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532-541), by one product
with its Toeplitz block below _DIRECT sources and by one FFT convolution
from there up.  The weights are those of the direct sum, the cost
O(N log^2 N) instead of O(N^2).
The a priori bound |z| <= cap (`_trace_cap`) makes the mu iteration a
contraction by 1/2 once dt L / 4 <= 1/2, L the Lipschitz bound of F on
|z| <= cap (`force_lipschitz`); `check_step` rejects larger steps, in
`solve_trace` up front and in `kgpoint sweep` for every combination before
its first solve.  With q = dt/4, A = q sup|alpha| and
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

Both cone sums come from one pass (`_cone_quadrature`).  Every kernel
value is taken at the distance d = tau - |x| to the cone edge, formed from
integer lags as in convolution quadrature (Lubich, Numer. Math. 52 (1988)
129-145): with t = J dt, a row's last node ji inside the cone and its
offset e in [0, dt) past it (`_cone_lags`) put node j at
d = (ji - j) dt + e, rounded relative to d rather than to t, and
r^2 = d (d + 2|x|) carries no cancellation of tau^2 - x^2 (`_kernels`).
The bulk goes by Chebyshev panels of 2048, 512 and 128 nodes, each
(row, panel) pair with the fewest points that resolve the kernels' phase
across it; what no rule takes, the row x = 0 among it, is summed entry by
entry, in cache-sized blocks that gather J0 and J1/x with shared weights.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .fields import FieldState, TraceSeries, grid_index
from .kernel import (KernelTables, bessel_j0, check_horizon, free_evolve,
                     free_trace, kink_split)
from .model import OscillatorModel, alpha, check_bound_below, force, force_lipschitz
from .observables import charge as charge_of
from .observables import energy as energy_of


# fixed-point stopping rule of the implicit node, relative to max(1, |z|)
_RESIDUAL_TOL = 1e-12
# largest dt L / 4 accepted: the implicit node's map then contracts by 1/2
_MAX_CONTRACTION = 0.5
# fixed-point updates of the implicit node, from the predictor's guess,
# before the step counts as failed; `solve_trace` reads it at each call
_MAX_ITERATIONS = 30
# sources per near block of the history sum (a power of two).  A T = 600,
# dt = 0.02 solve (N = 30001, one BLAS thread, 2-core Xeon) took 0.099 /
# 0.094 / 0.091 s at 32 / 64 / 128 (median of 4 processes each): within
# the noise of a shared machine from 64 up, and each step's near dot grows
# with the block.
_NEAR = 64
# far-field squares of fewer sources than this are one product with their
# (L, L) Toeplitz block, larger ones an FFT convolution.  Per square (one
# BLAS thread, 2-core Xeon), direct against FFT: 2.6 / 13.3 us at 64
# sources, 3.8 / 15.5 at 128, 7.8 / 20.3 at 256 and 48.0 / 32.4 at 512.
# The block of 256, of which the smaller ones are views, takes 0.5 MB; at
# T = 600, dt = 0.02 the blocks serve 410 of the 468 squares
_DIRECT = 512


class StepTooLargeError(ValueError):
    """dt is too large for the implicit node to contract on |z| <= cap."""


class SolveStatus(enum.Enum):
    COMPLETED = "completed"
    ENERGY_DRIFT_EXCEEDED = "energy_drift_exceeded"
    TRACE_BOUND_EXCEEDED = "trace_bound_exceeded"
    NON_FINITE = "non_finite"


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
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: check_step refuses it
        h0 = energy_of(model, initial)
    lam_sq = max(h0 - A, 0.0) / (model.mass - B)
    return 1.5 * float(np.sqrt(lam_sq)) + 1e-9


def check_step(model: OscillatorModel, initial: FieldState, dt: float) -> float:
    """The cap of `_trace_cap` on |z| from `initial`, once dt has passed the
    step rule dt L / 4 <= 1/2, L the Lipschitz bound of F on |z| <= cap
    (`force_lipschitz`); a larger dt or an infinite L raises StepTooLargeError."""
    cap = _trace_cap(model, initial)
    lip = force_lipschitz(model, cap)
    if not np.isfinite(lip):
        raise StepTooLargeError(f"initial data too large for the implicit node: cap = {cap}")
    if 0.25 * dt * lip > _MAX_CONTRACTION:
        raise StepTooLargeError(
            f"dt = {dt:.6g} too large for the implicit node: dt L/4 = {0.25 * dt * lip:.6g} "
            f"> {_MAX_CONTRACTION} with L = {lip:.6g} the Lipschitz bound of F on "
            f"|z| <= cap = {cap:.6g}; the largest admissible dt is "
            f"{4.0 * _MAX_CONTRACTION / lip:.6g}")
    return cap


def _square_spectra(kern: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """Kernel operators of the far-field squares, one for each size
    L = _NEAR 2^p < n, from the lags 0 .. 2L-1 of `kern`, zero past the last
    node (no kept target reaches those lags): below _DIRECT sources the
    (L, L) Toeplitz block K(L + a - b) of target a and source b, from
    _DIRECT up the rfft of the lags.  K_L is the top right corner of K_2L,
    so every block is a view of the largest one."""
    sizes = []
    size = _NEAR
    while size < n:
        sizes.append(size)
        size *= 2
    squares = {size: np.fft.rfft(kern[:2 * size], 2 * size) for size in sizes
               if size >= _DIRECT}
    direct = [size for size in sizes if size < _DIRECT]
    if direct:
        top = direct[-1]
        lags = np.zeros(2 * top)
        lags[:min(n, 2 * top)] = kern[:2 * top]
        block = lags[top + np.subtract.outer(np.arange(top), np.arange(top))]
        squares.update({size: block[:size, top - size:] for size in direct})
    return squares


def _add_square(far: np.ndarray, g: np.ndarray, j: int, squares: dict) -> None:
    """Add the far-field square that closes at step j to far[j:j+L].

    With L = j & -j (j a multiple of _NEAR), the finished sources g[j-L:j]
    act on the targets [j, j+L) through kernel lags 1 .. 2L-1.  Below
    _DIRECT sources that is one product with the square's Toeplitz block;
    from _DIRECT up, a cyclic convolution of length 2L gives exactly those
    sums, with no wrap-around.  Either way the real and imaginary parts go
    through as two columns (a complex FFT of the same length left about
    three times the roundoff in the solved trace).
    """
    size = j & -j
    src = g[j - size:j].view(float).reshape(size, 2)
    stop = min(j + size, len(far))
    if size < _DIRECT:
        conv = squares[size][:stop - j] @ src
    else:
        spectrum = np.fft.rfft(src, 2 * size, axis=0)
        spectrum *= squares[size][:, None]
        conv = np.fft.irfft(spectrum, 2 * size, axis=0)[size:size + stop - j]
    far[j:stop].view(float).reshape(-1, 2)[:] += conv


def solve_trace(model: OscillatorModel, initial: FieldState, T: float, dt: float
                ) -> SolveReport:
    """Integrate the trace equation on [0, T] with step dt.

    Preconditions: T/dt integral, initial data finite, and the grid large
    enough that nothing reaches the boundary within T (horizon rule, caller's
    responsibility).  Raises StepTooLargeError when dt L / 4 > 1/2, L the
    Lipschitz bound of F on |z| <= cap (`check_step`).  Returns a report
    whose status is COMPLETED, NON_FINITE (iteration diverged), or
    TRACE_BOUND_EXCEEDED (|z| broke the a priori cap of `_trace_cap`,
    signalling an ill-posed model).

    The march runs in blocks of _NEAR steps.  On entering the block at
    `start`, the far-field square closing there (`_add_square`) completes
    the far sums of the block's targets, and the block's h + (dt/2) far
    becomes a list of Python complex numbers, so the per-step fixed-point
    iteration runs on Python scalars.  The block's sources live in one
    reused buffer of _NEAR entries, whose prefixes are built once per solve,
    so no step makes a slice: each step adds the near part, one dot of the
    buffer's first r entries against kernel lags r .. 1, and solves its node
    for the real multiplier mu of z = b / mu.  The node is one inline loop
    of at most _MAX_ITERATIONS fixed-point updates from the predictor's
    guess, each one real Horner step and one division, stopped once
    |dz| = |b| |dmu| / |mu mu'| <= _RESIDUAL_TOL max(1, |z|) (multiplied
    through by |mu mu'|); a step that it does not settle, or that divides by
    zero, ends the march as NON_FINITE.  It stays inline: with a call per
    step the T = 600 long_sweep solve took 106-110 ms against 98 ms (seeds
    3 and 7, best of 7 in each of 3 processes, one BLAS thread).  The
    block's z and sources are stored once, when it ends.  The tests keep
    the per-step slice, dot and node call as an oracle that agrees bit for
    bit (tests/march_oracle.py).
    The first guess extrapolates mu by the degree-5 polynomial through the
    six previous steps: on the long_sweep setting (T = 600, dt = 0.02) the
    node then takes 1.01-1.14 iterations per step over seeds 1-10, against
    2.8-3.9 for degree 1 and about 5 for the complex iteration it replaced;
    degree 6 took more again (1.29 at seed 1).  The linear model takes one.
    The report counts the updates (`node_iterations`, and the most in one
    step, `node_iterations_max`) over the steps solved.  The kink pair's
    point source src joins F(z) in g_0, in each block's `known` row (the
    s = t node's (dt/4) src) and in every g_j, so the history sum gives its
    Duhamel trace.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = grid_index(T, dt)
    if n_steps is None:
        raise ValueError("T must be an integer multiple of dt")
    cap = check_step(model, initial, dt)
    n = n_steps + 1
    m = model.mass
    times = np.arange(n) * dt

    check_horizon(initial, T, "solve_trace")
    split = kink_split(initial, m)
    src = split.source(times)
    # g(0) = 1, so the pair's standing field at x = 0 is its source over -2 kappa1
    h = free_trace(split.rest, times, m) + src / (-2.0 * split.kappa1)
    squares = _square_spectra(bessel_j0(m * times), n)
    del times  # the march reads a time only for its messages, as j dt
    # the block's sources F(z) + src; step r of a block takes the dot of its
    # first r entries, near[r], against kernel lags r .. 1, lags[_NEAR-1-r:]
    # (complex, so that the dot casts nothing)
    block_g = np.empty(_NEAR, dtype=complex)
    lags = bessel_j0(m * (np.arange(_NEAR - 1, 0, -1) * dt)).astype(complex)
    near = [(block_g[:r].dot, lags[_NEAR - 1 - r:]) for r in range(_NEAR)]

    coefs = model.alpha_coefficients[::-1]
    quarter_dt = 0.25 * dt
    half_dt = 0.5 * dt
    tol = _RESIDUAL_TOL
    updates = range(1, _MAX_ITERATIONS + 1)

    z = np.empty(n, dtype=complex)
    # the sources F(z) + src, with the j=0 trapezoid half-weight folded in
    g = np.empty(n, dtype=complex)
    # far-field memory sums, completed for a block when the march reaches it
    far = np.zeros(n, dtype=complex)
    z[0] = complex(initial.psi[initial.grid.center_index])
    g[0] = block_g[0] = 0.5 * (force(model, z[0]) + src[0])
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
            _add_square(far, g, start, squares)
        block = slice(start, start + _NEAR)
        known = (h[block] + half_dt * far[block] + quarter_dt * src[block]).tolist()
        src_block = src[block].tolist()
        first = 1 if start == 0 else 0
        z_block = []
        for r in range(first, len(known)):
            dot, lags_r = near[r]
            b = known[r] + half_dt * complex(dot(lags_r))
            # degree-5 extrapolation of mu over the previous six steps
            mu = 6.0 * (mu_1 + mu_5) - 15.0 * (mu_2 + mu_4) + 20.0 * mu_3 - mu_6
            b_sq = b.real * b.real + b.imag * b.imag
            b_abs = math.sqrt(b_sq)
            try:
                for it in updates:
                    s = b_sq / (mu * mu)
                    acc = 0.0
                    for c in coefs:
                        acc = acc * s + c
                    mu_new = 1.0 - quarter_dt * acc
                    # |dz| <= tol max(1, |z|), multiplied through by |mu mu_new|
                    lhs, rhs = abs(mu * mu_new), b_abs * abs(mu)
                    if b_abs * abs(mu_new - mu) <= tol * (rhs if rhs > lhs else lhs):
                        mu = mu_new
                        zj = b / mu
                        s = b_sq / (mu * mu)
                        acc = 0.0
                        for c in coefs:
                            acc = acc * s + c
                        fj = acc * zj
                        break
                    mu = mu_new
                else:
                    it = 0  # unsettled; a NaN never passes the stopping rule
            except ZeroDivisionError:
                it = 0
            if not it:
                status = SolveStatus.NON_FINITE
                message = f"implicit node failed to converge at t={(start + r) * dt:.6g}"
                last = start + r
                break
            iterations += it
            if it > iterations_max:
                iterations_max = it
            z_block.append(zj)
            block_g[r] = fj + src_block[r]
            mu_6, mu_5, mu_4, mu_3, mu_2, mu_1 = mu_5, mu_4, mu_3, mu_2, mu_1, mu
            if abs(zj) > cap:
                status = SolveStatus.TRACE_BOUND_EXCEEDED
                message = (f"|z|={abs(zj):.3g} exceeded the a priori bound cap {cap:.3g} "
                           f"at t={(start + r) * dt:.6g}")
                last = start + r + 1
                break
        stop = start + first + len(z_block)
        z[start + first:stop] = z_block
        g[start:stop] = block_g[:stop - start]
        if last < n:
            break

    return SolveReport(trace=TraceSeries(dt=dt, z=z[:last]), status=status, message=message,
                       node_iterations=iterations, node_iterations_max=iterations_max)


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(32)
_GAUSS_X = 0.5 * (_GAUSS_X + 1.0)  # nodes on (0, 1)
_GAUSS_W = 0.5 * _GAUSS_W
# the largest phase m r across an edge zone's r-panel that the Gauss rule
# resolves: on `_kernels`, within 4e-15 of the l1 sum of its terms up to
# 62.5 rad, 2.4e-14 at 63.5 and 1.8e-13 at 65 (tests/test_cone_fused.py)
_EDGE_PHASE = 60.0

# kernel entries per block of the cone sum: the block's dozen arrays of this
# length (256 KiB each) then stay near a core's L2 cache instead of streaming
# through DRAM.  On a 2 MiB-L2 Xeon, 2^14 to 2^16 time alike and 2^17 is
# about 1.3x slower.
_BLOCK_ENTRIES = 1 << 15

# Chebyshev rules of the cone sum's panels as (points, the largest kernel
# phase across a panel that they resolve, in radians), fewest points first.
# A limit is the phase at which the rule's l1 interpolation error reaches
# 1e-14 of sum |K| on the rounding-free proxies cos(r) and tau sin(r)/r
# (entire in r^2, like the kernels), in long double; tests/test_cone_fused.py
# checks the rules against the kernels' own values at their limits
_RULE_CLASSES = ((16, 3.4), (20, 6.3), (24, 9.8), (28, 13.8), (32, 18.3), (40, 28.3),
                 (48, 39.2), (56, 50.8), (64, 62.4), (80, 87.4), (96, 113.0))
# the panel levels, longest first, as (source nodes per panel, most points
# of a rule there).  A (row, panel) pair that no rule takes splits into the
# panels of the next level, and after the last into chunks of _CHUNK nodes
# summed entry by entry.  On the attract_seed t = 390 sum, one level of
# 512 / 128 nodes made 0.70M lookups, 1024 / 128 0.58M, and 2048 / 512 /
# 128 0.47M; a fourth level saved under 10% more, and rules of 112 and 128
# points on 2048 nodes 0.4% for 0.7 MB of tables
_LEVELS = ((2048, 96), (512, 64), (128, 48))
_CHUNK = 32
# |x| / dt within this many steps of a whole number lies on that step
# (`_cone_lags`, e = 0), as a grid laid out in decimal steps means it;
# rounding moves it by up to |x|/dt times dt's relative error, 1.5e-11
# steps at |x| = 700, dt = 1e-3.  Without the snap, the rows of
# test_solitary_probe_geometry[0.615234375] 4e-13 steps past a whole step
# move their cut node and Gauss zone a cell: psi moved 3.5e-5 max|field|
_SNAP = 1e-9


def _panel_rule(n_nodes: int, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev points c_q on [0, n_nodes - 1] and the
    (n_points, n_points) matrix A that maps a panel's Chebyshev moments
    mu_k = sum_j T_k(y_j) f_j, y the panel mapped to [-1, 1], to its
    moments against the points' Lagrange basis: (A mu)_q = sum_j L_q(j) f_j.

    A is the inverse of V[k, q] = T_k(y(c_q)), taken at the points as
    rounded, so that for p of degree < n_points
    sum_j p(j) f_j = sum_q p(c_q) (A mu)_q holds to roundoff.  A level
    keeps one table of T_k for all its rules (`_levels`): an
    (n_points, n_nodes) weight matrix per rule would take 9.4 MB for the
    rules of _LEVELS, the tables and the A's take 1.3 MB.  The T_k are
    recurred in long double and rounded once: in doubles T_95 moves by up
    to 1e-13 at the nodes of a 2048-node panel.
    """
    theta = (2 * np.arange(n_points) + 1) * np.pi / (2 * n_points)
    points = 0.5 * (n_nodes - 1) * (1.0 - np.cos(theta))
    y = 2 * points.astype(np.longdouble) / (n_nodes - 1) - 1
    return points, np.linalg.inv(chebvander(y, n_points - 1).T.astype(float))


@functools.cache
def _levels() -> tuple[tuple[int, np.ndarray, list, np.ndarray], ...]:
    """(size, phase limits, (points, A) rules, T_k at the first half of the
    nodes) of each panel level of _LEVELS, built on the first cone sum
    (about 20 ms).  T_k(-y) = (-1)^k T_k(y) gives the other half."""
    levels = []
    for size, most in _LEVELS:
        classes = [c for c in _RULE_CLASSES if c[0] <= most]
        nodes = 2 * np.arange(size // 2, dtype=np.longdouble) / (size - 1) - 1
        levels.append((size, np.array([limit for _, limit in classes]),
                       [_panel_rule(size, n) for n, _ in classes],
                       chebvander(nodes, most - 1).T.astype(float)))
    return tuple(levels)


def _cone_lags(x_abs: np.ndarray, J: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(ji, e) of each row at t = J dt: ji = J - q with q = ceil(|x| / dt)
    the row's last node inside the cone (ji < 0 outside it), and
    e = q dt - |x| in [0, dt), formed in long double.  Node j lies at
    d = (ji - j) dt + e from the row's cone edge, rounded relative to d."""
    steps = x_abs / dt
    whole = np.rint(steps)
    on = np.abs(steps - whole) <= _SNAP
    q = np.where(on, whole, np.ceil(steps))
    e = np.where(on, 0.0, (q.astype(np.longdouble) * dt - x_abs).astype(float))
    return J - q.astype(np.intp), e


def _interp_history(f: np.ndarray, node: np.ndarray, frac) -> np.ndarray:
    """f((node + frac) dt), linear between trace nodes, for the cone's end
    stencil and pi's boundary term f(t - |x|)/2; f's first axis is time,
    frac broadcasts against f[node], and a node past the last reads the last."""
    f_node = f[node]
    return f_node + (f[np.minimum(node + 1, len(f) - 1)] - f_node) * frac


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

    t must be a time J dt of the trace grid (`grid_index`), else ValueError.
    `f_cols` has shape (n_times, k), one source history per column and output
    column; the result is the pair (psi, pi) of (len(grid_x), k) complex
    arrays.  The kernels are even in x and the grid is symmetric, so only
    the right half is summed and mirrored; its rows inside the cone are a
    prefix, the rest stay zero.  Every kernel value comes from `_kernels` at
    d = (ji - j) dt + e (`_cone_lags`), j a node or a fraction between nodes.

    Each row is a bulk plus an end stencil.  The bulk sums K f dt over the
    source nodes up to the row's cut node s_cut, with f_0 halved (the s = 0
    trapezoid weight, folded as in `solve_trace`).  Both kernels depend on a
    row x only through u = tau^2 - x^2, and J0(m sqrt(u)) and
    J1(m sqrt(u))/(m sqrt(u)) are entire in u, so a row is a smooth function
    of tau across a panel of consecutive nodes and can be replaced by its
    interpolant at n Chebyshev points (`_panel_rule`): the panel's sum
    becomes K(x, tau_q) @ g with the moments g = A mu of the points'
    Lagrange basis, mu the panel's Chebyshev moments of f, and n kernel
    lookups replace one per node.  The points a pair needs follow the kernels'
    phase across the panel, Phi = m (r_hi - r_lo) with r at the panel's ends
    formed as `_kernels` forms it: past a base of about 20 points,
    interpolating an oscillation to a fixed accuracy takes about 0.6 more
    points per radian (Trefethen, Approximation Theory and Approximation
    Practice, SIAM 2013, ch. 8).  _RULE_CLASSES holds rules of 16 to 96
    points with the largest phase each resolves; at those limits the rules'
    kernel values differ from the nodes' by at most 9e-14 of sum |K| over
    the panel in the l1 norm, for both kernels and dt = 1e-3 .. 0.05
    (tests/test_cone_fused.py).
    The bulk runs through the levels of _LEVELS, panels of 2048, 512 and
    128 nodes.  A (row, panel) pair takes the first rule of its level whose
    limit is at least its phase, if the row's bulk covers the whole panel;
    any other pair splits into the panels of the next level, and after the
    last into chunks of _CHUNK nodes summed entry by entry, with the row
    x = 0, which thereby stays the exact mirror of the trace solver's
    weights.  The pairs of each rule, and the chunks, are summed in blocks
    of about _BLOCK_ENTRIES kernel entries that share the cone geometry and
    the interpolation weights between both kernels.  At t = 390 on the
    attract_seed grid (2049 points, dt = 0.02) the pass makes 0.48M lookups
    where one 24-point rule on 128-node panels made 2.34M, and stays within
    2.2e-13 max|field| of the same quadrature summed entry by entry with
    its distances in long double (tests/cone_exact_oracle.py), where the
    fixed-rule pass is 4.5e-13 away.

    Near the cone edge the kernels turn as functions of r = sqrt(tau^2-x^2)
    with d(phase)/ds ~ m sqrt(x/(2u)) diverging at the edge (u = distance to
    it), so a trapezoid in s is under-resolved there once 2 m^2 x dt > 1/2.
    Such a row cuts its bulk n_e nodes early and integrates the rest in the
    r variable, where the kernel oscillates uniformly: a 32-point Gauss rule
    on int K(x, tau) (r / tau) f(t - tau) dr, on as many equal r-panels as
    the phase m r_b ~ 2 m^2 |x| dt needs, is then exact to roundoff.
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
    n_cols = f_cols.shape[1]
    J = grid_index(t, dt)
    if J is None:
        raise ValueError(f"t = {t:.6g} is not on the trace grid of step {dt:.6g}")
    ji, e = _cone_lags(xa, J, dt)
    rows = int(np.count_nonzero(ji >= 0))  # ji does not increase with |x|
    xa, ji, e = xa[:rows], ji[:rows], e[:rows]

    use_gauss = (2.0 * m * m * xa * dt > 0.5) & (ji >= 1)
    n_e = np.where(use_gauss, np.ceil(2.0 * m * m * xa * dt).astype(np.intp) + 1, 0)
    j_cut = ji - np.minimum(n_e, ji)

    # acc[kernel, x, (re | im) of each source column]
    acc = np.zeros((2, n_half, 2 * n_cols))
    n_nodes = int(j_cut[0]) + 1  # the row x = 0 reaches furthest
    f_ri = np.concatenate([f_cols.real, f_cols.imag], axis=1)

    def add(row: np.ndarray, start: np.ndarray, offsets: np.ndarray, src: np.ndarray,
            panel: np.ndarray | None = None):
        """acc[:, row_i] += K(x, t - (start_i + offsets) dt) @ S_i for each
        pair i, rows ascending, in blocks of about _BLOCK_ENTRIES kernel
        entries: S_i = src[panel_i], a panel's moments, or without `panel`
        the sources src[start_i + offsets], of which those past the row's
        bulk are dropped."""
        step = max(1, _BLOCK_ENTRIES // len(offsets))
        for a in range(0, len(row), step):
            rb, nodes = row[a:a + step], start[a:a + step, None] + offsets
            kern = _kernels(tables, m, xa[rb, None], (ji[rb, None] - nodes) * dt + e[rb, None])
            if panel is None:
                short = np.flatnonzero(nodes[:, -1] > j_cut[rb])
                kern[:, short] *= nodes[short] <= j_cut[rb[short], None]
                block_src = src[nodes]
            else:
                block_src = src[panel[a:a + step]]
            sums = np.matmul(kern.transpose(1, 0, 2), block_src)
            heads = np.flatnonzero(np.diff(rb, prepend=-1))
            acc[:, rb[heads]] += np.add.reduceat(sums, heads).transpose(1, 0, 2)

    def split(row: np.ndarray, start: np.ndarray, size: int, sub: int):
        """The pairs of panels of `sub` nodes that the pairs (row, start) of
        panels of `size` nodes hold and whose first node lies in the row's
        bulk, rows ascending."""
        row = np.repeat(row, size // sub)
        start = (start[:, None] + np.arange(0, size, sub)).ravel()
        keep = start <= j_cut[row]
        return row[keep], start[keep]

    def sum_bulk():
        """Every (row, panel) pair of the rows x > 0 through the levels, then
        the chunks; a function, so that its pair arrays are freed before the
        end stencil."""
        # the bulk's sources, zero past the last node so that a chunk may overrun
        g = np.zeros((n_nodes + _CHUNK, 2 * n_cols))
        g[:n_nodes] = f_ri[:n_nodes]
        g[0] *= 0.5
        levels = _levels()
        top = levels[0][0]
        row, start = split(np.arange(1, rows), np.zeros(rows - 1, np.intp),
                           -(-n_nodes // top) * top, top)
        subs = [level[0] for level in levels[1:]] + [_CHUNK]
        for (size, limits, rules, cheb), sub in zip(levels, subs):
            last = start + (size - 1)
            x, lag = xa[row], ji[row] - start
            # a panel past the row's bulk splits whatever its phase
            d_lo = np.maximum(lag - (size - 1), 0) * dt + e[row]
            d_hi = lag * dt + e[row]
            r_lo = np.sqrt(d_lo * (d_lo + 2.0 * x))
            # each pair's rule, the first whose limit covers its phase;
            # len(limits) sends the pair to the next level
            cls = np.searchsorted(limits, m * (np.sqrt(d_hi * (d_hi + 2.0 * x)) - r_lo))
            cls[j_cut[row] < last] = len(limits)
            # each whole panel's sources folded about its middle, the even and
            # odd parts that the even and odd T_k see
            whole = g[:n_nodes // size * size].reshape(-1, size, g.shape[1])
            lo, hi = whole[:, :size // 2], whole[:, :size // 2 - 1:-1]
            folded = (lo + hi, lo - hi)
            for c, (points, to_rule) in enumerate(rules):
                pick = np.flatnonzero(cls == c)
                if pick.size:
                    panels, panel = np.unique(start[pick] // size, return_inverse=True)
                    mu = np.empty((len(panels), len(points), g.shape[1]))
                    for parity, part in enumerate(folded):
                        mu[:, parity::2] = cheb[parity:len(points):2] @ part[panels]
                    add(row[pick], start[pick], points, to_rule @ mu, panel)
            rest = cls == len(limits)
            row, start = split(row[rest], start[rest], size, sub)
        head = np.arange(0, n_nodes, _CHUNK)  # the row x = 0, entry by entry
        add(np.concatenate([np.zeros(len(head), np.intp), row]), np.concatenate([head, start]),
            np.arange(_CHUNK), g)

    sum_bulk()
    acc *= dt

    # Gauss rule in r over the edge zone, K ds = K (r / tau) dr, from
    # r_b = r(s_cut), on equal r-panels: column c holds point c % 32 of panel
    # c // 32, and a zone's columns past its panels repeat its last one at
    # zero weight; d = r^2 / (tau + |x|) carries no cancellation
    d_cut = (ji - j_cut) * dt + e
    z = np.flatnonzero(use_gauss)
    xz = xa[z, None]
    r_b = np.sqrt(d_cut[z, None] * (d_cut[z, None] + 2.0 * xz))
    n_panels = np.ceil(m * r_b / _EDGE_PHASE)
    panel = np.arange(n_panels.max(initial=1.0) * len(_GAUSS_X)) // len(_GAUSS_X)
    gauss_x, gauss_w = (np.resize(g, panel.size) for g in (_GAUSS_X, _GAUSS_W))
    r = r_b * ((np.minimum(panel, n_panels - 1) + gauss_x) / n_panels)
    tau = np.sqrt(xz * xz + r * r)

    # the end stencil: entries 0 (cut node), 1 (edge) and 2.. (Gauss points)
    shape = (rows, 2 + panel.size)
    d, weight, frac = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    node = np.zeros(shape, dtype=np.intp)
    half_cell = np.where(use_gauss, 0.0, 0.5 * e)  # partial cell trapezoid
    d[:, 0] = d_cut
    weight[:, 0] = half_cell - 0.5 * dt
    node[:, 0] = j_cut
    weight[:, 1] = half_cell
    node[:, 1] = ji
    frac[:, 1] = e / dt
    d[z, 2:] = r * r / (tau + xz)
    weight[z, 2:] = np.where(panel < n_panels, r_b * (gauss_w / n_panels) * r / tau, 0.0)
    back = (d[z, 2:] - e[z, None]) / dt  # nodes back from ji; < 0 in the partial cell
    node[z, 2:] = ji[z, None] - np.ceil(back)
    frac[z, 2:] = np.ceil(back) - back

    kern = _kernels(tables, m, xa[:, None], d)
    kern *= weight
    acc[:, :rows] += np.einsum("crn,rnk->crk", kern, _interp_history(f_ri, node, frac[..., None]))

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
        return initial.copy()
    m = model.mass
    dt = trace.dt
    t = j * dt
    check_horizon(initial, t, "reconstruct_field")
    if tables is None:
        tables = _tables_for(m, t, dt)
    elif tables.a_max < m * t:
        raise ValueError(f"kernel tables cover arguments up to {tables.a_max:.6g}, "
                         f"reconstruction at t = {t:.6g} needs m t = {m * t:.6g}")
    grid = initial.grid
    ji, e = _cone_lags(np.abs(grid.x), j, dt)

    split = kink_split(initial, m)
    free = free_evolve(split.rest, t, m)
    psi_pair, pi_pair = split.standing(t)
    f = force(model, trace.z)
    d_psi, d_pi = _cone_quadrature(dt, (f + split.source(trace.times))[:, None], grid.x, t,
                                   tables, m)
    psi = free.psi + d_psi[:, 0] + psi_pair
    f_edge = np.where(ji >= 0, _interp_history(f, np.maximum(ji, 0), e / dt), 0.0)
    pi = (free.pi + d_pi[:, 0] + pi_pair + 0.5 * f_edge
          + np.where(ji >= 0, 0.5 * split.source(t - np.abs(grid.x)), 0.0))
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
    samples = np.array([(t, energy_of(model, state), charge_of(state))
                        for t, state in zip(snapshot_times, snapshots)])
    report.energy_samples, report.charge_samples = samples[:, :2], samples[:, [0, 2]]
    drift = report.energy_drift
    if drift > energy_tol:
        report.status = SolveStatus.ENERGY_DRIFT_EXCEEDED
        report.message = f"relative energy drift {drift:.3g} exceeded tol {energy_tol:.3g}"
    return report, snapshots

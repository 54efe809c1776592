"""Reduced Volterra solver for the trace and Duhamel field reconstruction.

The point coupling reduces the full PDE to a scalar integral equation for
the trace z(t) = psi(0, t):

    z(t) = h(t) + (1/2) int_0^t J0(m (t - s)) F(z(s)) ds,

with h the free-field trace of the initial data.  Product integration with
trapezoid weights discretizes the memory integral (the kernel is entire, so
no singularity treatment is needed); the s = t node makes each step weakly
implicit with weight dt/4, solved by warm-started fixed-point iteration with
a damped-Newton fallback on the exact 2x2 real Jacobian.

The full field is recovered from the trace by the Duhamel representation

    psi(x, t) = psi_free(x, t) + int_0^{t - |x|} G(x, t - s) F(z(s)) ds,

a quadrature restricted to the light cone: trapezoid over the trace nodes
with an exact closure at the cone edge, switching to a Gauss rule in the
r = sqrt((t-s)^2 - x^2) variable over the last cells, where the kernel's
square-root turning point makes any s-grid under-resolved.  pi adds the
Leibniz time derivative of the Duhamel term, whose delta ridge integrates
to the sharp analytic boundary value f(t - |x|)/2, to the free part's
exact spectral derivative.

Both cone sums come from one pass.  The pass walks the source nodes in
blocks of about 2^15 kernel entries, small enough that a block's arrays stay
in the per-core cache; each block computes the cone geometry
m sqrt(tau^2 - x^2) and the cubic table-interpolation weights once, gathers
J0 (the psi kernel) and J1/x (the pi kernel) with them, and multiplies both
against the source histories in a single matmul.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .fields import FieldState
from .kernel import (KernelTables, bessel_j0, check_horizon, free_evolve,
                     free_trace, kink_split)
from .model import ModelKind, OscillatorModel, check_bound_below, force, force_jacobian
from .observables import charge as charge_of
from .observables import energy as energy_of


class SolveStatus(enum.Enum):
    COMPLETED = "completed"
    ENERGY_DRIFT_EXCEEDED = "energy_drift_exceeded"
    TRACE_BOUND_EXCEEDED = "trace_bound_exceeded"
    NON_FINITE = "non_finite"


@dataclass
class TraceSeries:
    """Trace z_k = psi(0, k dt) and its source f_k = F(z_k).

    f is None only for diagnostic traces loaded from disk without a model;
    solver-built series always carry it, exactly equal to force(z_k).
    """

    dt: float
    z: np.ndarray
    f: np.ndarray | None

    @classmethod
    def from_z(cls, model: OscillatorModel, dt: float, z: np.ndarray) -> "TraceSeries":
        z = np.asarray(z, dtype=complex)
        return cls(dt=dt, z=z, f=np.asarray(force(model, z), dtype=complex))

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


def _scalar_force(model: OscillatorModel):
    """Fast scalar F(z) closure for the hot per-step iteration."""
    if model.kind is ModelKind.LINEAR:
        a = model.linear_a
        return lambda z: a * z
    # alpha(s) = c[0] + c[1] s + ... (ascending), c[n-1] = -2 n u_n
    coefs = [-2.0 * n * u for n, u in enumerate(model.coefficients) if n >= 1]
    coefs.reverse()

    def f(z: complex) -> complex:
        s = z.real * z.real + z.imag * z.imag
        acc = 0.0
        for cc in coefs:
            acc = acc * s + cc
        return acc * z

    return f


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


def solve_trace(model: OscillatorModel, initial: FieldState, T: float, dt: float,
                residual_tol: float = 1e-12) -> SolveReport:
    """Integrate the trace equation on [0, T] with step dt.

    Preconditions: T/dt integral, initial data finite, and the grid large
    enough that nothing reaches the boundary within T (horizon rule, caller's
    responsibility).  Returns a report whose status is COMPLETED, NON_FINITE
    (iteration diverged), or TRACE_BOUND_EXCEEDED (|z| broke the a priori
    cap of `_trace_cap`, signalling dt too large or an ill-posed model).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(T / dt))
    if abs(T - n_steps * dt) > 1e-9 * max(1.0, T):
        raise ValueError("T must be an integer multiple of dt")
    n = n_steps + 1
    m = model.mass
    times = np.arange(n) * dt

    h = free_trace(initial, times, m)
    kern = bessel_j0(m * times)
    kern_rev = kern[::-1].copy()

    F = _scalar_force(model)
    cap = _trace_cap(model, initial)

    z = np.empty(n, dtype=complex)
    # f with the j=0 trapezoid half-weight folded in, split into real and
    # imaginary parts so each memory sum is two real dots against the float
    # kernel (a complex dot would cast the kernel slice on every step)
    g_re = np.empty(n)
    g_im = np.empty(n)
    z[0] = initial.psi[initial.grid.center_index]
    f0 = 0.5 * F(complex(z[0]))
    g_re[0], g_im[0] = f0.real, f0.imag

    status = SolveStatus.COMPLETED
    message = ""
    quarter_dt = 0.25 * dt
    last = n
    for j in range(1, n):
        k_j = kern_rev[n - 1 - j:n - 1]
        mem = complex(np.dot(g_re[:j], k_j), np.dot(g_im[:j], k_j))
        b = h[j] + 0.5 * dt * mem
        zj = complex(2.0 * z[j - 1] - z[j - 2]) if j >= 2 else complex(z[0])
        converged = False
        for _ in range(30):
            znew = b + quarter_dt * F(zj)
            if abs(znew - zj) <= residual_tol * max(1.0, abs(znew)):
                zj = znew
                converged = True
                break
            zj = znew
        if not converged:
            zj, converged = _newton_node(model, b, quarter_dt, zj, residual_tol)
        if not converged or zj != zj:  # NaN check
            status = SolveStatus.NON_FINITE
            message = f"implicit node failed to converge at t={times[j]:.6g}"
            last = j
            break
        z[j] = zj
        fj = F(zj)
        g_re[j], g_im[j] = fj.real, fj.imag
        if abs(zj) > cap:
            status = SolveStatus.TRACE_BOUND_EXCEEDED
            message = (f"|z|={abs(zj):.3g} exceeded the a priori bound cap {cap:.3g} "
                       f"at t={times[j]:.6g}")
            last = j + 1
            break

    # rebuild the source through the public force path so f = force(z) holds
    # bitwise (the in-loop scalar Horner may differ in the last ulp)
    trace = TraceSeries.from_z(model, dt, z[:last])
    return SolveReport(trace=trace, status=status, message=message)


def _newton_node(model: OscillatorModel, b: complex, w: float, z0: complex,
                 tol: float) -> tuple[complex, bool]:
    """Damped Newton for z = b + w F(z) as a 2x2 real system."""
    z = z0
    if z != z:
        z = b

    def residual(zz: complex) -> complex:
        return zz - b - w * force(model, zz)

    r = residual(z)
    for _ in range(60):
        if abs(r) <= tol * max(1.0, abs(z)):
            return z, True
        jac = np.eye(2) - w * force_jacobian(model, z)
        try:
            step = np.linalg.solve(jac, -np.array([r.real, r.imag]))
        except np.linalg.LinAlgError:
            return z, False
        scale = 1.0
        for _ in range(10):
            zn = z + complex(step[0], step[1]) * scale
            rn = residual(zn)
            if abs(rn) < abs(r):
                z, r = zn, rn
                break
            scale *= 0.5
        else:
            return z, False
    return z, abs(r) <= tol * max(1.0, abs(z))


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(32)
_GAUSS_X = 0.5 * (_GAUSS_X + 1.0)  # nodes on (0, 1)
_GAUSS_W = 0.5 * _GAUSS_W

# kernel entries per block of the cone sum: the block's dozen arrays of this
# length (256 KiB each) then stay near a core's L2 cache instead of streaming
# through DRAM.  On a 2 MiB-L2 Xeon, 2^14 to 2^16 time alike and 2^17 is
# about 1.3x slower.
_BLOCK_ENTRIES = 1 << 15


def _point_kernels(tables: KernelTables, m: float, xa: np.ndarray, tau: np.ndarray):
    """(K_psi, K_pi) at the points (xa, tau), clipped to the cone edge value
    outside it: K_psi = J0(m r)/2 and K_pi = -(m^2/2) tau J1(m r)/(m r),
    r = sqrt(tau^2 - x^2)."""
    j0, j1x = tables(m * np.sqrt(np.maximum(tau * tau - xa * xa, 0.0)))
    return 0.5 * j0, -0.5 * m * m * tau * j1x


def _cone_quadrature(dt: float, f_cols: np.ndarray, grid_x: np.ndarray, t: float,
                     tables: KernelTables, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Cone-restricted quadratures of K(x, t-s) f(s) over 0 <= s <= t - |x|
    for the psi kernel G = J0(m r)/2 and the interior pi kernel
    dG/dt = -(m^2/2) tau J1(m r)/(m r), in one pass.  The delta ridge of
    dG/dt on the cone is left to the caller as the boundary term f(t-|x|)/2.

    `f_cols` has shape (n_times, k): each column is one source history and
    gets its own output column; the result is the pair (psi, pi) of
    (len(grid_x), k) complex arrays.  The kernels are even in x and the grid
    is symmetric, so only the right half is summed and mirrored.  The sum
    runs over blocks of about _BLOCK_ENTRIES kernel entries: a block of
    consecutive source nodes touches only the x inside its widest cone
    (capping the work at t^2/(2 h dt) entries), computes the cone geometry
    m sqrt(tau^2 - x^2) and the interpolation weights once, gathers both
    kernels from them and multiplies both against the sources in one matmul.

    Near the cone edge the kernels turn as functions of r = sqrt(tau^2-x^2)
    with d(phase)/ds ~ m sqrt(x/(2u)) diverging at the edge (u = distance to
    it), so a trapezoid in s is under-resolved there once 2 m^2 x dt > 1/2.
    Those last cells are integrated in the r variable instead, where the
    kernel oscillates uniformly: a fixed Gauss rule on
    int K(x, tau) (r / tau) f(t - tau) dr is then exact to roundoff.
    The trapezoid region always ends on a node with half weight; for x
    without an edge zone the final partial cell is closed with the kernel's
    edge-limit value (which `_point_kernels` returns at tau = |x|).  The
    x = 0 column has no edge zone and stays the exact mirror of the trace
    solver's product-integration weights.
    """
    n_half = (len(grid_x) + 1) // 2
    xa = grid_x[n_half - 1:]  # 0 .. L ascending
    h = xa[1] - xa[0]
    n_times, n_cols = f_cols.shape
    half_m_sq = 0.5 * m * m
    reach = t - xa
    ji = np.floor(reach / dt + 1e-12).astype(np.intp)
    inside = ji >= 0
    ji_c = np.clip(ji, 0, n_times - 1)
    delta = np.where(inside, reach - ji_c * dt, 0.0)
    delta = np.maximum(delta, 0.0)
    delta[delta < 1e-9 * dt] = 0.0  # snap fp residue so on-node cones use the limit value

    use_gauss = inside & (2.0 * m * m * xa * dt > 0.5) & (ji_c >= 1)
    n_e = np.where(use_gauss,
                   np.ceil(2.0 * m * m * xa * dt).astype(np.intp) + 1, 0)
    n_e = np.minimum(n_e, ji_c)
    j_cut = np.where(inside, ji_c - n_e, -1)

    # acc[kernel, x, (re | im) of each source column]
    acc = np.zeros((2, n_half, 2 * n_cols))
    n_nodes = int(np.max(j_cut)) + 1 if np.any(inside) else 0
    f_ri = np.concatenate([f_cols.real, f_cols.imag], axis=1)

    start = 0
    while start < n_nodes:
        tau_max = t - start * dt
        nx = min(int(tau_max / h) + 1, n_half)
        block = max(1, min(_BLOCK_ENTRIES // nx, n_nodes - start))
        stop = start + block
        jidx = np.arange(start, stop)
        tau = t - jidx * dt
        arg = tau[None, :] ** 2 - (xa[:nx] * xa[:nx])[:, None]
        np.maximum(arg, 0.0, out=arg)
        np.sqrt(arg, out=arg)
        arg *= m
        kern = np.empty((2, nx, block))
        tables(arg, out=kern)
        kern[0] *= 0.5
        kern[1] *= -half_m_sq * tau[None, :]
        # zero the entries past each row's trapezoid end; rows whose end
        # lies beyond the block need none
        short = np.flatnonzero(j_cut[:nx] < stop - 1)
        if short.size:
            r0 = short[0]
            kern[:, r0:][:, jidx[None, :] > j_cut[r0:nx, None]] = 0.0
        acc[:, :nx] += (kern.reshape(2 * nx, block) @ f_ri[start:stop]).reshape(2, nx, -1)
        start = stop
    sums = (acc[..., :n_cols] + 1j * acc[..., n_cols:]) * dt

    inside_c = inside[:, None]
    delta_c = delta[:, None]
    gauss_c = use_gauss[:, None]
    f0 = f_cols[0][None, :]

    # trapezoid endpoint weights: halve s = 0 and the cut node; an empty
    # trapezoid region (j_cut = 0 with content beyond) drops its node fully
    k_tau0 = _point_kernels(tables, m, xa, np.full_like(xa, t))
    w0 = np.where(j_cut[:, None] >= 1, 0.5 * dt, dt)
    keep0 = inside_c & ((j_cut[:, None] >= 1) | (delta_c > 0) | gauss_c)

    j_cut_c = np.maximum(j_cut, 0)
    k_cut = _point_kernels(tables, m, xa, t - j_cut_c * dt)
    f_cut = f_cols[j_cut_c, :]
    keep_j = inside_c & (j_cut[:, None] >= 1)

    # partial cell [s_ji, t - |x|] for x without an edge zone
    ji_next = np.minimum(ji_c + 1, n_times - 1)
    f_ji = f_cols[ji_c, :]
    f_edge = f_ji + (f_cols[ji_next, :] - f_ji) * (delta_c / dt)
    k_node = _point_kernels(tables, m, xa, xa + delta)
    k_lim = _point_kernels(tables, m, xa, xa)
    keep_p = inside_c & ~gauss_c & (delta_c > 0)

    halves = []
    for c in range(2):
        sub0 = np.where(keep0, w0 * np.where(t > xa, k_tau0[c], 0.0)[:, None] * f0, 0.0)
        sub_j = np.where(keep_j, 0.5 * dt * k_cut[c][:, None] * f_cut, 0.0)
        partial = np.where(keep_p, 0.5 * delta_c * (k_node[c][:, None] * f_ji
                                                    + k_lim[c][:, None] * f_edge), 0.0)
        halves.append(sums[c] - sub0 - sub_j + partial)

    if np.any(use_gauss):
        idx = np.nonzero(use_gauss)[0]
        xg = xa[idx]
        tau_b = t - j_cut[idx] * dt
        r_b = np.sqrt(np.maximum(tau_b ** 2 - xg ** 2, 0.0))
        r = r_b[:, None] * _GAUSS_X[None, :]
        tau_g = np.sqrt(xg[:, None] ** 2 + r ** 2)
        s_g = t - tau_g
        # K ds = K (r / tau) dr: 0.5 J0(m r) (r / tau) dr for psi and
        # (-m^2/2) J1x(m r) r dr for pi
        j0, j1x = tables(m * r)  # (n_idx, G)
        vals = (0.5 * j0 * r / tau_g, -half_m_sq * j1x * r)
        jj = np.clip((s_g / dt).astype(np.intp), 0, n_times - 2)
        frac = np.clip(s_g / dt - jj, 0.0, 1.0)
        fg = f_cols[jj, :] + (f_cols[jj + 1, :] - f_cols[jj, :]) * frac[..., None]
        for c in range(2):
            w = r_b[:, None] * _GAUSS_W[None, :] * vals[c]  # (n_idx, G)
            halves[c][idx] += np.einsum("ig,igk->ik", w, fg)

    return tuple(np.concatenate([half[:0:-1], half], axis=0) for half in halves)


def reconstruct_field(model: OscillatorModel, initial: FieldState, trace: TraceSeries,
                      t: float, tables: KernelTables | None = None) -> FieldState:
    """Field state at time t: free propagator plus Duhamel cone sums.

    t must lie on the trace grid.  The Duhamel time derivative uses the
    Leibniz form

        d/dt int_0^{t-|x|} G f ds = f(t-|x|)/2
            - (m^2/2) int_0^{t-|x|} (t-s) [J1(u)/u] f(s) ds,

    so the delta ridge of dG/dt becomes a sharp analytic boundary term and
    the light-cone front of pi is exact rather than smeared by differencing.
    Initial data with an x = 0 kink get the same split as `free_trace`: the
    kink pair's free field is produced by the identical cone machinery (its
    source is the mass-shell harmonic), keeping the center column consistent
    with the trace to roundoff and the pi front consistent with the smooth
    spectral remainder.
    """
    if trace.f is None:
        raise ValueError("trace carries no source values; rebuild with TraceSeries.from_z")
    j = trace.index_of(t)
    if j == 0:
        out = initial.copy()
        return out
    m = model.mass
    dt = trace.dt
    t = j * dt  # exact grid time, so cone-edge snapping at x = 0 is reliable
    check_horizon(initial, t, "reconstruct_field")
    if tables is None:
        tables = KernelTables(m * (t + dt) + 1.0)
    grid = initial.grid
    x = grid.x
    xa = np.abs(x)
    reach = t - xa
    inside = reach >= 0.0

    split = kink_split(initial, m)
    n_times = len(trace.f)
    times = np.arange(n_times) * dt
    if split is None:
        free = free_evolve(initial, t, m)
        f_cols = trace.f[:, None]
        coef_psi = np.array([1.0 + 0.0j])
        coef_pi = coef_psi
        bdry = 0.5 * _interp_history(trace.f, reach, dt, inside)
        psi_stand = pi_stand = 0.0
    else:
        work = FieldState(grid, initial.psi - split.a * split.g,
                          initial.pi - split.b * split.g, initial.time)
        free = free_evolve(work, t, m)
        k1, w1 = split.kappa1, split.omega1
        f_cols = np.column_stack([trace.f,
                                  np.cos(w1 * times).astype(complex),
                                  np.sin(w1 * times).astype(complex)])
        ca = -2.0 * k1 * split.a
        cb = -2.0 * k1 * split.b / w1
        coef_psi = np.array([1.0, ca, cb])
        coef_pi = coef_psi
        # standing kink parts of the closed-form free field
        osc_c, osc_s = np.cos(w1 * t), np.sin(w1 * t)
        psi_stand = split.g * (split.a * osc_c + split.b * osc_s / w1)
        pi_stand = split.g * (-split.a * w1 * osc_s + split.b * osc_c)
        # boundary terms: interpolated for the trace source, exact for the
        # mass-shell harmonics
        bdry = (0.5 * _interp_history(trace.f, reach, dt, inside)
                + np.where(inside, 0.5 * (ca * np.cos(w1 * reach)
                                          + cb * np.sin(w1 * reach)), 0.0))

    d_psi_cols, d_pi_cols = _cone_quadrature(dt, f_cols, x, t, tables, m)
    psi = free.psi + psi_stand + d_psi_cols @ coef_psi
    pi = free.pi + pi_stand + d_pi_cols @ coef_pi + bdry
    return FieldState(grid, psi, pi, t)


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

    Status degrades to ENERGY_DRIFT_EXCEEDED when the sampled Hamiltonian
    drifts relative to H(initial) by more than energy_tol.
    """
    report = solve_trace(model, initial, T, dt)
    if report.status is not SolveStatus.NON_FINITE and snapshot_times is not None:
        snapshot_times = list(snapshot_times)
    else:
        snapshot_times = []
    snapshots: list[FieldState] = []
    if not snapshot_times:
        return report, snapshots

    tables = KernelTables(model.mass * (T + 2 * dt) + 1.0)
    e0 = energy_of(model, initial)
    report.energy_initial = e0
    report.charge_initial = charge_of(initial)
    e_rows, q_rows = [], []
    worst = 0.0
    for t in snapshot_times:
        state = reconstruct_field(model, initial, report.trace, t, tables)
        snapshots.append(state)
        e_t = energy_of(model, state)
        q_t = charge_of(state)
        e_rows.append((t, e_t))
        q_rows.append((t, q_t))
        worst = max(worst, abs(e_t - e0) / max(abs(e0), 1e-30))
    report.energy_samples = np.array(e_rows)
    report.charge_samples = np.array(q_rows)
    if report.status is SolveStatus.COMPLETED and worst > energy_tol:
        report.status = SolveStatus.ENERGY_DRIFT_EXCEEDED
        report.message = f"relative energy drift {worst:.3g} exceeded tol {energy_tol:.3g}"
    return report, snapshots

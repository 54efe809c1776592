"""Two-pass cone quadrature, kept as the oracle of the fused pass.

This is the reconstruction's light-cone sum as it was before the psi and pi
sums were fused: one full quadrature per kernel, each rebuilding the cone
geometry and interpolating one table through `table_lookup`, in blocks of
about 6e6 // nx source nodes.  `cone_quadrature` has the signature of
`kgpoint.volterra._cone_quadrature`, so a test can swap it in and compare
whole reconstructions.  It follows the same front-row rule: a row with
t = |x| has an empty region and sums to zero.
"""

import numpy as np

from kgpoint.kernel import BesselTable, KernelTables


def table_lookup(table: BesselTable, a: np.ndarray) -> np.ndarray:
    """4-point Lagrange (cubic) interpolation of one table."""
    u = np.asarray(a) / table.spacing
    i = np.clip(u.astype(np.intp), 1, len(table.values) - 3)
    w = u - i
    v = table.values
    wm, w0, wp, wq = (-w * (w - 1.0) * (w - 2.0) / 6.0,
                      (w + 1.0) * (w - 1.0) * (w - 2.0) / 2.0,
                      -(w + 1.0) * w * (w - 2.0) / 2.0,
                      (w + 1.0) * w * (w - 1.0) / 6.0)
    return wm * v[i - 1] + w0 * v[i] + wp * v[i + 1] + wq * v[i + 2]


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(32)
_GAUSS_X = 0.5 * (_GAUSS_X + 1.0)  # nodes on (0, 1)
_GAUSS_W = 0.5 * _GAUSS_W


def two_pass_quadrature(dt: float, f_cols: np.ndarray, grid_x: np.ndarray, t: float,
                     kern_mat, kern_point, edge_r_integrand, m: float) -> np.ndarray:
    """Cone-restricted quadrature of K(x, t-s) f(s) over 0 <= s <= t - |x|.

    `f_cols` has shape (n_times, k): each column is one source history and
    gets its own output column (shape (len(grid_x), k) complex).  The kernels
    are even in x and the grid is symmetric, so only the right half is summed
    and mirrored; each time chunk touches only the x inside its widest cone,
    capping the work at t^2/(2 h dt) kernel evaluations.

    Near the cone edge the kernels turn as functions of r = sqrt(tau^2-x^2)
    with d(phase)/ds ~ m sqrt(x/(2u)) diverging at the edge (u = distance to
    it), so a trapezoid in s is under-resolved there once 2 m^2 x dt > 1/2.
    Those last cells are integrated in the r variable instead, where the
    kernel oscillates uniformly: a fixed Gauss rule on
    int edge_r_integrand(r, tau) f(t - tau) dr is then exact to roundoff.
    The trapezoid region always ends on a node with half weight; for x
    without an edge zone the final partial cell is closed with the kernel's
    edge-limit value (which `kern_point` returns at tau = |x|).  The x = 0
    column has no edge zone and stays the exact mirror of the trace solver's
    product-integration weights.
    """
    n_half = (len(grid_x) + 1) // 2
    xa = grid_x[n_half - 1:]  # 0 .. L ascending
    n_times, n_cols = f_cols.shape
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

    out_re = np.zeros((n_half, n_cols))
    out_im = np.zeros((n_half, n_cols))
    n_nodes = int(np.max(j_cut)) + 1 if np.any(inside) else 0
    f_re = np.ascontiguousarray(f_cols.real)
    f_im = np.ascontiguousarray(f_cols.imag)

    start = 0
    while start < n_nodes:
        nx = int(np.flatnonzero(j_cut >= start)[-1]) + 1
        block = max(1, min(int(6.0e6 // nx), n_nodes - start))
        stop = start + block
        jidx = np.arange(start, stop)
        tau = t - jidx * dt
        kvals = kern_mat(xa[:nx], tau)
        kvals[jidx[None, :] > j_cut[:nx, None]] = 0.0
        out_re[:nx] += kvals @ f_re[start:stop]
        out_im[:nx] += kvals @ f_im[start:stop]
        start = stop
    out = (out_re + 1j * out_im) * dt

    inside_c = inside[:, None]
    delta_c = delta[:, None]
    gauss_c = use_gauss[:, None]
    f0 = f_cols[0][None, :]

    # trapezoid endpoint weights: halve s = 0 and the cut node; an empty
    # trapezoid region (j_cut = 0) drops its node fully, so the front row
    # t = |x| gets no sum at all
    k_tau0 = kern_point(xa, np.full_like(xa, t))[:, None]
    w0 = np.where(j_cut[:, None] >= 1, 0.5 * dt, dt)
    sub0 = np.where(inside_c, w0 * k_tau0 * f0, 0.0)

    j_cut_c = np.maximum(j_cut, 0)
    tau_cut = t - j_cut_c * dt
    k_cut = kern_point(xa, tau_cut)[:, None]
    f_cut = f_cols[j_cut_c, :]
    sub_j = np.where(inside_c & (j_cut[:, None] >= 1), 0.5 * dt * k_cut * f_cut, 0.0)

    # partial cell [s_ji, t - |x|] for x without an edge zone
    ji_next = np.minimum(ji_c + 1, n_times - 1)
    f_ji = f_cols[ji_c, :]
    f_edge = f_ji + (f_cols[ji_next, :] - f_ji) * (delta_c / dt)
    k_node = kern_point(xa, xa + delta)[:, None]
    k_lim = kern_point(xa, xa)[:, None]
    partial = np.where(inside_c & ~gauss_c & (delta_c > 0),
                       0.5 * delta_c * (k_node * f_ji + k_lim * f_edge), 0.0)

    half = out - sub0 - sub_j + partial

    if np.any(use_gauss):
        idx = np.nonzero(use_gauss)[0]
        xg = xa[idx]
        tau_b = t - j_cut[idx] * dt
        r_b = np.sqrt(np.maximum(tau_b ** 2 - xg ** 2, 0.0))
        r = r_b[:, None] * _GAUSS_X[None, :]
        tau_g = np.sqrt(xg[:, None] ** 2 + r ** 2)
        s_g = t - tau_g
        vals = edge_r_integrand(r, tau_g)  # (n_idx, G)
        jj = np.clip((s_g / dt).astype(np.intp), 0, n_times - 2)
        frac = np.clip(s_g / dt - jj, 0.0, 1.0)
        w = (r_b[:, None] * _GAUSS_W[None, :] * vals)  # (n_idx, G)
        fg = f_cols[jj, :] + (f_cols[jj + 1, :] - f_cols[jj, :]) * frac[..., None]
        half[idx] += np.einsum("ig,igk->ik", w, fg)

    return np.concatenate([half[:0:-1], half], axis=0)


def psi_kernels(m: float, tables: KernelTables):
    def j0(a):
        return table_lookup(tables.j0, a)

    def kern_mat(xa, tau):
        diff = tau[None, :] ** 2 - (xa * xa)[:, None]
        np.maximum(diff, 0.0, out=diff)
        arg = np.sqrt(diff)
        arg *= m
        return 0.5 * j0(arg)

    def kern_point(xa, tau):
        return 0.5 * j0(m * np.sqrt(np.maximum(tau * tau - xa * xa, 0.0)))

    def edge_r_integrand(r, tau):
        # K(x, tau) ds = 0.5 J0(m r) (r / tau) dr
        return 0.5 * j0(m * r) * r / tau

    return kern_mat, kern_point, edge_r_integrand


def pi_kernels(m: float, tables: KernelTables):
    """Interior part of dG/dt: the delta ridge on the cone is handled
    analytically by the caller as the boundary term f(t - |x|)/2."""
    def j1x(a):
        return table_lookup(tables.j1x, a)

    half_m_sq = 0.5 * m * m

    def kern_mat(xa, tau):
        diff = tau[None, :] ** 2 - (xa * xa)[:, None]
        np.maximum(diff, 0.0, out=diff)
        arg = np.sqrt(diff)
        arg *= m
        vals = j1x(arg)
        vals *= -half_m_sq * tau[None, :]
        return vals

    def kern_point(xa, tau):
        return -half_m_sq * tau * j1x(m * np.sqrt(np.maximum(tau * tau - xa * xa, 0.0)))

    def edge_r_integrand(r, tau):
        # (-m^2/2) tau J1x(m r) ds = (-m^2/2) J1x(m r) r dr
        return -half_m_sq * j1x(m * r) * r

    return kern_mat, kern_point, edge_r_integrand


def cone_quadrature(dt, f_cols, grid_x, t, tables: KernelTables, m: float):
    """(psi, pi) cone sums from one two_pass_quadrature per kernel."""
    return (two_pass_quadrature(dt, f_cols, grid_x, t, *psi_kernels(m, tables), m),
            two_pass_quadrature(dt, f_cols, grid_x, t, *pi_kernels(m, tables), m))

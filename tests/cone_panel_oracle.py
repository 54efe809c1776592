"""Fixed-rule panel cone pass, kept as the oracle of the variable-rule pass.

This is the reconstruction's fused light-cone sum as it was when every
panel had 128 source nodes and one 24-point Chebyshev rule: a (row, panel)
pair took the rule when the row's bulk covered the panel and the phase
bound m tau_lo (_PANEL - 1) dt / sqrt(tau_lo^2 - x^2) at the panel's
smallest tau was at most _PANEL_PHASE = 7; everything else was summed entry
by entry.  `cone_quadrature` has the signature of
`kgpoint.volterra._cone_quadrature`, so a test can swap it in and compare
whole reconstructions.  The kernel values come from the pass's own
`_kernels`, which the direct two-pass oracle in cone_oracle.py checks
independently.
"""

from __future__ import annotations

import numpy as np

from kgpoint.kernel import KernelTables
from kgpoint.volterra import _kernels

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(32)
_GAUSS_X = 0.5 * (_GAUSS_X + 1.0)  # nodes on (0, 1)
_GAUSS_W = 0.5 * _GAUSS_W

_BLOCK_ENTRIES = 1 << 15
_PANEL = 128
_PANEL_POINTS = 24
_PANEL_PHASE = 7.0


def _panel_rule(n_nodes: int, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev points on [0, n_nodes - 1] and the matrix of
    their Lagrange basis at the nodes, barycentric weights (-1)^q sin theta_q."""
    theta = (2 * np.arange(n_points) + 1) * np.pi / (2 * n_points)
    points = 0.5 * (n_nodes - 1) * (1.0 - np.cos(theta))
    terms = ((-1.0) ** np.arange(n_points) * np.sin(theta))[:, None] / (
        np.arange(n_nodes)[None, :] - points[:, None])
    return points, terms / terms.sum(axis=0)


_PANEL_NODES, _PANEL_WEIGHTS = _panel_rule(_PANEL, _PANEL_POINTS)


def cone_quadrature(dt: float, f_cols: np.ndarray, grid_x: np.ndarray, t: float,
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
    dt = 1e-3 .. 0.05.
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

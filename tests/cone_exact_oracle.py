"""Exact-geometry cone quadrature, the oracle of the cone pass's distances.

It sums the reconstruction's light-cone quadrature entry by entry, with no
panel rule: the trapezoid bulk with f_0 halved up to the cut node, whose
weight is halved too; the partial cell up to the cone edge closed by the
kernels' edge-limit value; and the 32-point Gauss zone in r on rows with
2 m^2 |x| dt > 1/2.  Every distance to the cone edge is formed in long
double as (J - j) dt - |x| from the integer lag J - j, t = J dt, so the
kernels are looked up at arguments rounded once.  `cone_quadrature` has the
signature of `kgpoint.volterra._cone_quadrature`, so a test can swap it in
and compare whole reconstructions.
"""

from __future__ import annotations

import numpy as np

from kgpoint.kernel import KernelTables

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(32)
_GAUSS_X = 0.5 * (_GAUSS_X + 1.0)  # nodes on (0, 1)
_GAUSS_W = 0.5 * _GAUSS_W

# long double entries per block of rows
_BLOCK_ENTRIES = 1 << 17

_WIDE = np.longdouble


def _kernels(tables: KernelTables, m: float, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(J0(m r)/2, -(m^2/2) tau J1(m r)/(m r)) at the long double distances
    d = tau - |x| >= 0 of rows x, with r^2 = d (d + 2|x|) in long double."""
    j0, j1x = tables((m * np.sqrt(d * (d + 2 * x))).astype(float))
    return np.stack([0.5 * j0, -0.5 * m * m * (d + x).astype(float) * j1x])


def _interp(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """f at the long double node positions s >= 0, linearly interpolated."""
    node = np.floor(s).astype(np.intp)
    frac = (s - node).astype(float)[..., None]
    return f[node] + (f[np.minimum(node + 1, len(f) - 1)] - f[node]) * frac


def cone_quadrature(dt: float, f_cols: np.ndarray, grid_x: np.ndarray, t: float,
                    tables: KernelTables, m: float) -> tuple[np.ndarray, np.ndarray]:
    """(psi, pi) cone sums of the source columns f_cols at t, each of shape
    (len(grid_x), k), summed on the right half of the grid and mirrored."""
    n_half = (len(grid_x) + 1) // 2
    x = grid_x[n_half - 1:].astype(_WIDE)
    n_cols = f_cols.shape[1]
    J = round(t / dt)
    dt_w = _WIDE(dt)
    reach = J * dt_w - x
    # the last node inside each row's cone; a node within 1e-9 dt counts
    ji = np.floor(reach / dt_w + 1e-9).astype(np.intp)
    rows = int(np.count_nonzero(ji >= 0))
    x, reach, ji = x[:rows], reach[:rows], ji[:rows]
    delta = np.maximum(reach - ji * dt_w, 0)
    use_gauss = (2.0 * m * m * x.astype(float) * dt > 0.5) & (ji >= 1)
    n_e = np.where(use_gauss, np.ceil(2.0 * m * m * x.astype(float) * dt).astype(np.intp) + 1, 0)
    j_cut = ji - np.minimum(n_e, ji)

    out = np.zeros((2, n_half, n_cols), dtype=complex)
    half = out[:, :rows]

    # the trapezoid bulk over the nodes 0 .. j_cut, empty when j_cut = 0
    step = max(1, _BLOCK_ENTRIES // (int(j_cut[0]) + 1))
    for a in range(0, rows, step):
        b = min(a + step, rows)
        j = np.arange(int(j_cut[a]) + 1)
        w = np.where(j <= j_cut[a:b, None], dt, 0.0)
        w[:, 0] *= 0.5
        w[np.arange(b - a), j_cut[a:b]] -= 0.5 * dt
        # nodes past a row's cut take weight 0 at the edge-limit value
        kern = _kernels(tables, m, x[a:b, None], np.maximum((J - j) * dt_w - x[a:b, None], 0))
        half[:, a:b] += (kern * w) @ f_cols[:len(j)]

    # the partial cell [s_ji, t - |x|] of rows without a Gauss zone
    cell = np.flatnonzero(~use_gauss)
    k_node = _kernels(tables, m, x[cell], delta[cell])
    k_edge = _kernels(tables, m, x[cell], np.zeros(len(cell), dtype=_WIDE))
    f_edge = _interp(f_cols, ji[cell] + delta[cell] / dt_w)
    w = 0.5 * delta[cell].astype(float)
    half[:, cell] += w[:, None] * (k_node[..., None] * f_cols[ji[cell]] + k_edge[..., None] * f_edge)

    # the Gauss rule in r over the edge zone from r_b = r(s_cut)
    z = np.flatnonzero(use_gauss)
    xz = x[z, None]
    d_b = reach[z, None] - j_cut[z, None] * dt_w
    r_b = np.sqrt(d_b * (d_b + 2 * xz))
    r = r_b * _GAUSS_X.astype(_WIDE)
    tau = np.sqrt(xz * xz + r * r)
    d = r * r / (tau + xz)
    weight = (r_b * _GAUSS_W.astype(_WIDE) * r / tau).astype(float)
    f_g = _interp(f_cols, (reach[z, None] - d) / dt_w)
    half[:, z] += np.einsum("crg,rgk->crk", _kernels(tables, m, xz, d) * weight, f_g)

    return tuple(np.concatenate([h[:0:-1], h], axis=0) for h in out)

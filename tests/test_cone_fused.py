"""The fused psi/pi cone pass, with its Chebyshev panel rules, against the
exact-geometry sum in cone_exact_oracle.py, the two-pass direct oracle in
cone_oracle.py and the fixed-rule panel pass in cone_panel_oracle.py."""

import math
from fractions import Fraction

import numpy as np
import pytest

import cone_exact_oracle
import cone_oracle
import cone_panel_oracle
import table_oracle
from kgpoint import Grid, reconstruct_field, solve_trace, volterra
from kgpoint.initial import GaussianSpec, gaussian_state, solitary_state
from kgpoint.kernel import (_TABLE_SPACING, KernelTables, bessel_j0, bessel_j1_over_x,
                            kink_split)
from kgpoint.solitary import sample_profile


@pytest.fixture(scope="module")
def solitary_run(cubic_model, half_wave):
    init = sample_profile(half_wave, Grid(75.0, 2 ** 12 + 1), 0.0)
    return init, solve_trace(cubic_model, init, 6.0, 2e-3).trace


@pytest.fixture(scope="module")
def coarse_gaussian_run(cubic_model):
    grid = Grid(70.0, 2 ** 12 + 1)
    init = gaussian_state(grid, GaussianSpec(amplitude=0.6, width=1.5,
                                             center=6.0, omega_bar=0.3))
    return init, solve_trace(cubic_model, init, 50.0, 0.05).trace


@pytest.fixture(scope="module")
def many_panels_run(cubic_model):
    # 9500 source nodes on 513 half-grid rows: four 2048-node panels and
    # every fallback level below them
    grid = Grid(200.0, 2 ** 10 + 1)
    init = gaussian_state(grid, GaussianSpec(amplitude=0.6, width=1.0,
                                             center=1.0, omega_bar=0.3))
    return init, solve_trace(cubic_model, init, 190.0, 0.02).trace


def _assert_matches_oracle(model, init, trace, t, monkeypatch, panel_oracle=True):
    """Reconstruct at t with the fused pass and with each oracle; assert that
    the fused pass is within 1e-13 max|field| of the exact-geometry sum and
    of the fixed-rule panel pass (unless `panel_oracle` is false) and within
    1e-12 of the direct oracle, and return it and the direct state."""
    tables = KernelTables(model.mass * (t + trace.dt) + 1.0)
    fused = reconstruct_field(model, init, trace, t, tables)
    oracles = [(cone_exact_oracle.cone_quadrature, 1e-13), (cone_oracle.cone_quadrature, 1e-12)]
    if panel_oracle:
        oracles.insert(1, (cone_panel_oracle.cone_quadrature, 1e-13))
    for quadrature, tol in oracles:
        with monkeypatch.context() as mp:
            mp.setattr(volterra, "_cone_quadrature", quadrature)
            oracle = reconstruct_field(model, init, trace, t, tables)
        for got, want in ((fused.psi, oracle.psi), (fused.pi, oracle.pi)):
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
    return fused, oracle


def _cone_rectangle(init, trace, t):
    """Kernel entries of the cone sum's bounding rectangle: x nodes by s nodes."""
    return (int(t / init.grid.spacing) + 1) * (int(round(t / trace.dt)) + 1)


def test_kinked_solitary(cubic_model, solitary_run, monkeypatch):
    init, trace = solitary_run
    assert kink_split(init, cubic_model.mass).a != 0  # the kink pair's source carries weight
    _assert_matches_oracle(cubic_model, init, trace, 6.0, monkeypatch)


def test_center_column_is_summed_directly(cubic_model, solitary_run, monkeypatch):
    # x = 0 stays on the direct pass, the mirror of the trace solver's
    # product-integration weights.  The panel rule is accurate to roundoff
    # there too, so the lookups show which pass summed it: the kernel is
    # read at every lag n, at the trace solver's own argument m (n dt), bit
    # for bit
    init, trace = solitary_run
    t = 6.0
    args = []
    lookup = KernelTables.__call__

    def recording(self, a, out=None):
        args.append(np.ravel(a).copy())
        return lookup(self, a, out)

    with monkeypatch.context() as mp:
        mp.setattr(KernelTables, "__call__", recording)
        reconstruct_field(cubic_model, init, trace, t)
    fused, oracle = _assert_matches_oracle(cubic_model, init, trace, t, monkeypatch)
    c = init.grid.center_index
    for got, want in ((fused.psi, oracle.psi), (fused.pi, oracle.pi)):
        assert abs(got[c] - want[c]) <= 1e-14 * abs(want[c])
    seen = np.unique(np.concatenate(args))
    center_args = cubic_model.mass * trace.times[:trace.index_of(t) + 1]
    assert np.all(np.isin(center_args, seen))


@pytest.mark.parametrize("spacing", [0.419921875, 0.615234375])
def test_solitary_probe_geometry(cubic_model, monkeypatch, spacing):
    # the benchmark's accuracy probe: kinked solitary data (the pair's source
    # in the one source column) at T = 50, dt = 0.02 on the attract_seed and long_sweep spacings
    grid = Grid(111.0, 2 * round(111.0 / spacing) + 1)
    init = solitary_state(cubic_model, grid, 0.5)
    trace = solve_trace(cubic_model, init, 50.0, 0.02).trace
    fused, _ = _assert_matches_oracle(cubic_model, init, trace, 50.0, monkeypatch)
    assert np.all(np.isfinite(fused.psi)) and np.all(np.isfinite(fused.pi))


def _lookups(monkeypatch, run) -> int:
    """Kernel points that run() hands to the tables."""
    points = []
    lookup = KernelTables.__call__

    def counting(self, a, out=None):
        points.append(np.size(a))
        return lookup(self, a, out)

    with monkeypatch.context() as mp:
        mp.setattr(KernelTables, "__call__", counting)
        run()
    return sum(points)


def test_many_panels_look_up_few_entries(cubic_model, many_panels_run, monkeypatch):
    # counting the points the fused pass hands to the tables catches a
    # silent fallback to the direct pass
    init, trace = many_panels_run
    t = 190.0
    points = _lookups(monkeypatch, lambda: reconstruct_field(cubic_model, init, trace, t))
    ji, _ = volterra._cone_lags(np.abs(init.grid.x[init.grid.center_index:]),
                                trace.index_of(t), trace.dt)
    assert points < 0.2 * np.sum(ji[ji >= 0] + 1)
    # the fixed-rule panel pass is 1.58e-13 max|field| from the exact
    # geometry here, the rounding of (t - |x|) - s_j that the lags remove
    _assert_matches_oracle(cubic_model, init, trace, t, monkeypatch, panel_oracle=False)
    # the attract_seed grid's t = 390 sum: 0.476M lookups of 9.07M entries
    # in the cone
    grid, dt = Grid(430.0, 2 ** 11 + 1), 0.02
    f = np.ones((19501, 1), dtype=complex)
    assert _lookups(monkeypatch, lambda: volterra._cone_quadrature(
        dt, f, grid.x, 390.0, KernelTables(391.0), 1.0)) <= 500_000


def test_gaussian_with_gauss_edge_zone(cubic_model, coarse_gaussian_run, monkeypatch):
    init, trace = coarse_gaussian_run
    t = 50.0
    assert 2.0 * cubic_model.mass ** 2 * t * trace.dt > 0.5  # edge zone on the outer cone
    _assert_matches_oracle(cubic_model, init, trace, t, monkeypatch)


@pytest.mark.parametrize("block_entries", [None, 997])
def test_cone_spanning_several_blocks(cubic_model, coarse_gaussian_run, monkeypatch,
                                      block_entries):
    # 997 entries puts each block edge at an odd place in every row's cone
    init, trace = coarse_gaussian_run
    t = 20.0
    if block_entries is not None:
        monkeypatch.setattr(volterra, "_BLOCK_ENTRIES", block_entries)
    assert _cone_rectangle(init, trace, t) > volterra._BLOCK_ENTRIES
    _assert_matches_oracle(cubic_model, init, trace, t, monkeypatch)


def test_fused_lookup_equals_single_table_lookup_bitwise():
    tables = KernelTables(30.0)
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, tables.a_max, size=(40, 257))
    a[0, :4] = (0.0, tables.spacing, 7 * tables.spacing, tables.a_max)  # on nodes
    want = (cone_oracle.table_lookup(tables.j0, a), cone_oracle.table_lookup(tables.j1x, a))
    out = np.empty((2,) + a.shape)
    for got in (tables(a), tables(a, out=out)):
        for g, w in zip(got, want):
            assert g.shape == a.shape
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("fn", [bessel_j0, bessel_j1_over_x])
def test_table_built_in_chunks_is_bitwise(fn):
    values = table_oracle.direct_values(fn, 20.0)
    n = len(values)
    chunk = table_oracle._BUILD_CHUNK
    assert n > 2 * chunk and n % chunk  # full chunks and a partial one
    assert values.tobytes() == fn(np.arange(n) * _TABLE_SPACING).tobytes()


@pytest.mark.parametrize("run", ["solitary_run", "coarse_gaussian_run"])
def test_one_source_column_for_any_data(cubic_model, request, monkeypatch, run):
    # the kink pair's point source joins F(z) in a single column; smooth data
    # add a zero source
    init, trace = request.getfixturevalue(run)
    widths = []
    fused = volterra._cone_quadrature

    def spy(dt, f_cols, *args):
        widths.append(f_cols.shape[1])
        return fused(dt, f_cols, *args)

    monkeypatch.setattr(volterra, "_cone_quadrature", spy)
    reconstruct_field(cubic_model, init, trace, 5.0)
    assert widths == [1]


def _rule_classes():
    """(panel nodes, phase limit, points, weights W) of every rule of every
    level, W[q, j] = L_q(j) the Lagrange basis of the points at the nodes."""
    for size, limits, rules, cheb in volterra._levels():
        parity = (-1.0) ** np.arange(cheb.shape[0])[:, None]
        cheb = np.concatenate([cheb, parity * cheb[:, ::-1]], axis=1)  # all the nodes
        for limit, (points, to_rule) in zip(limits, rules):
            yield size, limit, points, to_rule @ cheb[:len(points)]


def test_panel_rule_reproduces_polynomials():
    # T_d on the panel for every d < n, evaluated in extended precision by
    # the three-term recurrence: in doubles it is off by up to 1e-13 for T_95
    # near the ends of a 2048-node panel.  The worst error measured is
    # 9.5e-15 (degree 37 of the 96 points on 2048 nodes)
    wide = np.longdouble
    for size, _, points, weights in _rule_classes():
        assert weights.shape == (len(points), size)
        assert np.max(np.abs(weights.sum(axis=0) - 1.0)) <= 1e-13
        y_nodes = 2 * np.arange(size, dtype=wide) / (size - 1) - 1
        y_points = 2 * points.astype(wide) / (size - 1) - 1
        t_nodes, t_points = [np.ones_like(y_nodes), y_nodes], [np.ones_like(y_points), y_points]
        for degree in range(len(points)):
            if degree >= 2:
                for t, y in ((t_nodes, y_nodes), (t_points, y_points)):
                    t.append(2 * y * t[-1] - t[-2])
            got = t_points[degree].astype(float) @ weights
            assert np.max(np.abs(got - t_nodes[degree].astype(float))) <= 1e-13


@pytest.fixture(scope="module")
def wide_tables():
    return KernelTables(1000.0 + 2048 * 0.05 + 1.0)


@pytest.mark.parametrize("dt", [1e-3, 2.5e-3, 0.02, 0.05])
def test_compressed_panel_at_the_phase_bound(dt, wide_tables):
    # for every rule, the rows x whose kernel phase m (r_hi - r_lo) across
    # the panel equals the rule's limit, for panels with tau_lo from 0.05 to
    # 1000; where even the edge row x = tau_lo stays below the limit, that
    # row.  tau - x is carried exactly as d + lag, so that u = tau^2 - x^2
    # has no cancellation and the gap is the rule's, not the rounding of
    # tau.  The worst l1 gap measured here is 9.0e-14 sum |K| (2e-14 to
    # 9e-14 for every rule and dt, the tables' roundoff); at twice the
    # limits it is 4e-10 for 16 points, 6e-08 for 24, 4e-03 for 48 and 0.2
    # to 0.8 from 64 points up
    m = 1.0
    tau_lo = np.geomspace(0.05, 1000.0, 60)

    def kernels(x, d, lag):
        j0, j1x = wide_tables(m * np.sqrt((d + lag) * (2.0 * x + d + lag)))
        return 0.5 * j0, -0.5 * m * m * (x + d + lag) * j1x

    for size, limit, points, weights in _rule_classes():
        span = (size - 1) * dt
        # sqrt(tau_lo^2 - x^2) of the row at the limit
        q = np.maximum(0.5 * (span * (2.0 * tau_lo + span) / limit - limit), 0.0)
        keep = q <= tau_lo  # else even the row x = 0 exceeds the limit
        x = np.sqrt((tau_lo[keep] - q[keep]) * (tau_lo[keep] + q[keep]))[:, None]
        d = q[keep, None] ** 2 / (tau_lo[keep, None] + x)
        nodes = kernels(x, d, (size - 1 - np.arange(size)) * dt)
        rule = kernels(x, d, (size - 1 - points) * dt)
        for direct, compressed in zip(nodes, rule):
            gap = np.sum(np.abs(direct - compressed @ weights), axis=1)
            assert np.all(gap <= 3e-13 * np.sum(np.abs(direct), axis=1)), (size, len(points))


def test_kernels_carry_no_cancellation_at_the_cone_edge():
    # rows at tau ~ 700 with d = tau - |x| in [0, 0.1] on the dt = 1e-3 grid.
    # The reference takes r from exact rational arithmetic; r^2 formed as
    # tau^2 - x^2 from a rounded tau is off by about ulp(tau^2) there, which
    # moves the kernels by 4e-12 of sum |K| (1e-16 in the d form)
    m, t, dt = 1.0, 1000.0, 1e-3
    tables = KernelTables(m * t + 1.0)

    def assert_close(x, d, tau):
        got = volterra._kernels(tables, m, x, d)
        r = np.sqrt([max(float(tau_j * tau_j - Fraction(x) ** 2), 0.0) for tau_j in tau])
        j0, j1x = tables(m * r)
        want = (0.5 * j0, -0.5 * m * m * np.array([float(tau_j) for tau_j in tau]) * j1x)
        for g, w in zip(got, want):
            assert np.sum(np.abs(g - w)) <= 1e-14 * np.sum(np.abs(w))

    for x in (700.0, 700.0123, 699.9507, 700.31):
        # d = (t - |x|) - s_j, against the same t, x and rounded s_j
        reach = t - x
        s = np.arange(math.ceil((reach - 0.1) / dt), math.floor(reach / dt) + 1) * dt
        assert_close(x, reach - s, [Fraction(t) - Fraction(s_j) for s_j in s.tolist()])
        # d = (ji - j) dt + e_x as the pass forms it, against exact rationals
        # of (J - j) dt - x: 2e-16 to 2.8e-15 of sum |K|, where (t - |x|) - s_j
        # is 2.3e-12 to 8.7e-12 and e_x rounded in doubles up to 2e-11.
        # 700.0 and 700.31 lie on a whole step (e_x = 0), and the reference
        # puts them there, at (J - ji) dt: the doubles miss it by about
        # 1.5e-11 dt, the representation error of dt summed over 7e5 steps
        J = round(t / dt)
        (ji,), (e,) = volterra._cone_lags(np.array([x]), J, dt)
        j = ji - np.arange(math.floor(0.1 / dt) + 1)
        edge = (J - ji) * Fraction(dt) if e == 0.0 else Fraction(x)
        assert_close(x, (ji - j) * dt + e,
                     [(J - j_k) * Fraction(dt) - edge + Fraction(x) for j_k in j.tolist()])


@pytest.mark.parametrize("half_extent, n_points, dt, k_step",
                         [(3.0, 61, 0.05, 2), (3.0, 61, 0.1, 1), (315.0, 1025, 0.02, 7875 / 256)])
def test_cone_lags_put_whole_steps_on_their_node(half_extent, n_points, dt, k_step):
    # grids whose spacing is a whole number of steps, or every 256th node on
    # the h = 0.615234375 probe grid: a row with |x| = k dt gets e = 0 and
    # ji = J - k although x and dt are rounded, and the boundary value
    # f(t - |x|) is the trace node f[J - k] itself
    grid = Grid(half_extent, n_points)
    J = 19500
    x = np.abs(grid.x[grid.center_index:])
    ji, e = volterra._cone_lags(x, J, dt)
    on = np.flatnonzero(np.arange(len(x)) * k_step % 1 == 0)
    k = np.rint(np.arange(len(x))[on] * k_step).astype(np.intp)
    assert len(on) >= 3 and np.all(e[on] == 0.0) and np.all(ji[on] == J - k)
    assert np.all((0.0 <= e) & (e < dt))
    assert np.allclose(ji * dt + e, J * dt - x, rtol=0.0, atol=1e-12 * J * dt)
    f = np.random.default_rng(5).standard_normal((J + 1, 2)) @ np.array([1.0, 1j])
    assert np.all(volterra._interp_history(f, ji, e / dt)[on] == f[J - k])


@pytest.mark.parametrize("quadrature", [volterra._cone_quadrature, cone_oracle.cone_quadrature],
                         ids=["fused", "oracle"])
@pytest.mark.parametrize("half_extent, n_points, dt, steps",
                         [(4.0, 129, 1 / 64, 16), (4.0, 129, 1 / 64, 32), (4.0, 129, 1 / 64, 40),
                          (3.0, 61, 0.1, 3), (3.0, 61, 0.1, 7)])
def test_front_row_sums_to_zero(quadrature, half_extent, n_points, dt, steps):
    # on the rows t = |x| the region 0 <= s <= t - |x| is empty, so both
    # sums vanish (a stray s = 0 node of weight dt gives dt/2 for f = 1).  On
    # the h = 0.1 grid the front nodes lie an ulp beyond t = steps * dt and
    # still count as inside the cone
    grid = Grid(half_extent, n_points)
    t = steps * dt
    f = np.ones((steps + 1, 1), dtype=complex)
    psi, pi = quadrature(dt, f, grid.x, t, KernelTables(t + dt + 1.0), 1.0)
    front = np.flatnonzero(np.abs(np.abs(grid.x) - t) <= 1e-12)
    assert len(front) == 2
    assert np.max(np.abs(psi[front])) <= 1e-15
    assert np.max(np.abs(pi[front])) <= 1e-15


def test_off_grid_time_is_refused():
    # half a step past t = 16 dt: there is no whole-step geometry to sum
    grid, dt = Grid(4.0, 129), 1 / 64
    f = np.ones((18, 1), dtype=complex)
    with pytest.raises(ValueError, match="not on the trace grid"):
        volterra._cone_quadrature(dt, f, grid.x, 16.5 * dt, KernelTables(2.0), 1.0)


def test_edge_gauss_rule_at_the_phase_limit():
    # one 32-point panel across a zone of phase m r_b = _EDGE_PHASE against
    # sixteen, on the kernels' own values, for rows |x| = 10 r_b to 1000 r_b
    # (|x| / r_b is about 1 / (2 m dt)).  The worst gap measured is 3.6e-15
    # of the l1 sum up to 62.5 rad; at 65 rad it is 1.8e-13, at 80 rad 3.8e-9
    m = 1.0
    r_b = volterra._EDGE_PHASE / m
    tables = KernelTables(m * r_b + 1.0)  # the kernels read m r only

    def zone(x, panels):
        k = np.arange(panels)[:, None]
        r = (r_b * ((k + volterra._GAUSS_X) / panels)).ravel()
        tau = np.sqrt(x * x + r * r)
        kern = volterra._kernels(tables, m, x, r * r / (tau + x))
        kern *= np.tile(volterra._GAUSS_W, panels) * (r_b / panels) * r / tau
        return kern.sum(axis=1), np.abs(kern).sum(axis=1)

    for ratio in (10.0, 20.0, 50.0, 200.0, 1000.0):
        one, l1 = zone(ratio * r_b, 1)
        many, _ = zone(ratio * r_b, 16)
        assert np.all(np.abs(one - many) <= 1e-14 * l1), ratio


def test_edge_zone_panels_resolve_any_phase(monkeypatch):
    # t = 1600, dt = 0.04: the outer rows' edge zones span about 128 rad, so
    # they take three panels.  A source linear in s, which the end stencil's
    # interpolation reproduces exactly, leaves only the rule's error: the sum
    # moves by 1.3e-14 max|field| with four times the panels, and by 0.1
    # of max|pi| with one panel per zone
    grid, dt, t = Grid(1700.0, 2 ** 11 + 1), 0.04, 1600.0
    assert 2.0 * t * dt > 2 * volterra._EDGE_PHASE
    f = ((0.3 - 0.2j) + (0.01 + 0.002j) * np.arange(round(t / dt) + 1) * dt)[:, None]
    tables = KernelTables(t + dt + 1.0)
    got = volterra._cone_quadrature(dt, f, grid.x, t, tables, 1.0)
    monkeypatch.setattr(volterra, "_EDGE_PHASE", volterra._EDGE_PHASE / 4)
    want = volterra._cone_quadrature(dt, f, grid.x, t, tables, 1.0)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

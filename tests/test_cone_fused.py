"""The fused psi/pi cone pass against the two-pass oracle in cone_oracle.py."""

import numpy as np
import pytest

import cone_oracle
import table_oracle
from kgpoint import Grid, reconstruct_field, solve_trace, volterra
from kgpoint.initial import GaussianSpec, gaussian_state
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


def _assert_matches_oracle(model, init, trace, t, monkeypatch):
    tables = KernelTables(model.mass * (t + trace.dt) + 1.0)
    fused = reconstruct_field(model, init, trace, t, tables)
    with monkeypatch.context() as mp:
        mp.setattr(volterra, "_cone_quadrature", cone_oracle.cone_quadrature)
        oracle = reconstruct_field(model, init, trace, t, tables)
    for got, want in ((fused.psi, oracle.psi), (fused.pi, oracle.pi)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _cone_rectangle(init, trace, t):
    """Kernel entries of the cone sum's bounding rectangle: x nodes by s nodes."""
    return (int(t / init.grid.spacing) + 1) * (int(round(t / trace.dt)) + 1)


def test_kinked_solitary(cubic_model, solitary_run, monkeypatch):
    init, trace = solitary_run
    assert kink_split(init, cubic_model.mass).a != 0  # the kink columns carry weight
    _assert_matches_oracle(cubic_model, init, trace, 6.0, monkeypatch)


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


@pytest.mark.parametrize("run, n_cols", [("solitary_run", 3), ("coarse_gaussian_run", 1)])
def test_one_source_column_per_kink_harmonic(cubic_model, request, monkeypatch, run, n_cols):
    # the trace plus one mass-shell harmonic per nonzero kink amplitude; smooth
    # data send only the trace through the cone pass
    init, trace = request.getfixturevalue(run)
    widths = []
    fused = volterra._cone_quadrature

    def spy(dt, f_cols, *args):
        widths.append(f_cols.shape[1])
        return fused(dt, f_cols, *args)

    monkeypatch.setattr(volterra, "_cone_quadrature", spy)
    reconstruct_field(cubic_model, init, trace, 5.0)
    assert widths == [n_cols]

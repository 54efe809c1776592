"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy trajectories are
module-scoped fixtures shared between criteria; every tolerance is asserted
at its stated value.
"""

import time

import numpy as np
import pytest

from kgpoint import (FieldState, Grid, OscillatorModel, check_bound_below,
                     distance_to_manifold, energy, norm_e, titchmarsh_check,
                     waves_at_omega, waves_from_amplitude)
from kgpoint.initial import (GaussianSpec, gaussian_state, seeded_gaussian_spec,
                             uniform_stream)
from kgpoint.kernel import KernelTables, free_evolve
from kgpoint.observables import charge
from kgpoint.solitary import SolitaryWave, sample_profile
from kgpoint.spectral import (Window, gap_mass_fraction, modulus_variation,
                              windowed_spectrum)
from kgpoint.volterra import SolveStatus, reconstruct_field, reconstruct_fields, solve_trace

SQ75 = float(np.sqrt(0.75))
CUBIC = OscillatorModel.polynomial(1.0, (0.0, -1.0, 1.0))
HALF_WAVE = SolitaryWave(0.5, 0.0, 0.5, SQ75)

ATTRACTION_SEEDS = tuple(range(1, 11))


def _drift(samples):
    vals = samples[:, 1]
    return float(np.max(np.abs(vals - vals[0])) / max(abs(vals[0]), 1e-30))


@pytest.fixture(scope="module")
def solitary_run():
    """T = 50, dt = 1e-3 solitary trajectory with conservation snapshots."""
    grid = Grid(111.0, 2 ** 15 + 1)
    init = sample_profile(HALF_WAVE, grid, 0.0)
    t0 = time.perf_counter()
    report = solve_trace(CUBIC, init, 50.0, 1e-3)
    solve_seconds = time.perf_counter() - t0
    assert report.status is SolveStatus.COMPLETED
    snap_times = (0.0, 10.0, 25.0, 50.0)
    snaps = reconstruct_fields(CUBIC, init, report.trace, snap_times)
    e_rows = np.array([(t, energy(CUBIC, s)) for t, s in zip(snap_times, snaps)])
    q_rows = np.array([(t, charge(s)) for t, s in zip(snap_times, snaps)])
    report.energy_samples = e_rows
    report.charge_samples = q_rows
    return init, report, snaps, solve_seconds


@pytest.fixture(scope="module")
def gaussian_run():
    """T = 50 off-center Gaussian (no turn-on front) with snapshots."""
    grid = Grid(70.0, 2 ** 15 + 1)
    init = gaussian_state(grid, GaussianSpec(amplitude=0.6, width=1.5,
                                             center=6.0, omega_bar=0.3))
    report = solve_trace(CUBIC, init, 50.0, 1e-3)
    assert report.status is SolveStatus.COMPLETED
    snap_times = (0.0, 10.0, 25.0, 50.0)
    snaps = reconstruct_fields(CUBIC, init, report.trace, snap_times)
    e_rows = np.array([(t, energy(CUBIC, s)) for t, s in zip(snap_times, snaps)])
    q_rows = np.array([(t, charge(s)) for t, s in zip(snap_times, snaps)])
    report.energy_samples = e_rows
    report.charge_samples = q_rows
    return init, report, snaps


@pytest.fixture(scope="module")
def attraction_runs():
    """Ten seeded Gaussian trajectories, T = 400, with late diagnostics."""
    grid = Grid(430.0, 2 ** 14 + 1)
    T, dt = 400.0, 0.02
    tables = KernelTables(T + 1.0)
    results = []
    for seed in ATTRACTION_SEEDS:
        spec = seeded_gaussian_spec(seed)
        init = gaussian_state(grid, spec)
        report = solve_trace(CUBIC, init, T, dt)
        assert report.status is SolveStatus.COMPLETED, f"seed {seed} failed to complete"
        trace = report.trace
        gaps = []
        for (w0, w1) in ((100.0, 200.0), (200.0, 300.0), (300.0, 400.0)):
            spec_w = windowed_spectrum(trace, 0.5 * (w0 + w1), w1 - w0, Window.HANN)
            gaps.append(gap_mass_fraction(spec_w, CUBIC.mass))
        mvar = modulus_variation(trace, 300.0, 400.0)
        st20 = reconstruct_field(CUBIC, init, trace, 20.0, tables)
        st390 = reconstruct_field(CUBIC, init, trace, 390.0, tables)
        rho20 = distance_to_manifold(CUBIC, st20, 5.0).rho
        rho390 = distance_to_manifold(CUBIC, st390, 5.0).rho
        results.append(dict(seed=seed, gaps=gaps, mvar=mvar, rho20=rho20,
                            rho390=rho390, states=(st20, st390), init=init))
    return results


def test_criterion_1_solitary_exactness(solitary_run):
    init, report, _, solve_seconds = solitary_run
    times = report.trace.times
    exact = 0.5 * np.exp(-1j * HALF_WAVE.omega * times)
    err = float(np.max(np.abs(report.trace.z - exact)))

    errs = [err]
    for dt in (2e-3, 4e-3):
        rep = solve_trace(CUBIC, init, 50.0, dt)
        tt = rep.trace.times
        errs.append(float(np.max(np.abs(rep.trace.z - 0.5 * np.exp(-1j * HALF_WAVE.omega * tt)))))
    order_fine = float(np.log2(errs[1] / errs[0]))
    order_coarse = float(np.log2(errs[2] / errs[1]))

    print(f"\nACCEPTANCE 1: max trace error {err:.3e} (< 5e-5), orders "
          f"{order_coarse:.2f}/{order_fine:.2f} (2 +/- 0.3), solve {solve_seconds:.1f}s (< 60s)")
    assert err < 5e-5
    assert 1.7 <= order_fine <= 2.3 and 1.7 <= order_coarse <= 2.3
    assert solve_seconds < 60.0
    print("ACCEPTANCE 1: PASS")


def test_criterion_2_conservation(solitary_run, gaussian_run):
    _, rep_s, _, _ = solitary_run
    _, rep_g, _ = gaussian_run
    de_s, dq_s = _drift(rep_s.energy_samples), _drift(rep_s.charge_samples)
    de_g, dq_g = _drift(rep_g.energy_samples), _drift(rep_g.charge_samples)
    print(f"\nACCEPTANCE 2: relative drift over T=50 (tol 1e-5): "
          f"solitary E {de_s:.2e} Q {dq_s:.2e}; gaussian E {de_g:.2e} Q {dq_g:.2e}")
    assert max(de_s, dq_s, de_g, dq_g) < 1e-5
    print("ACCEPTANCE 2: PASS")


def test_criterion_3_a_priori_bound(solitary_run, gaussian_run, attraction_runs):
    violations = []
    checked = 0

    def check(model, init, states):
        nonlocal checked
        res = check_bound_below(model)
        assert res is not None
        A, B = res
        bound = 2.0 * model.mass * (energy(model, init) - A) / (model.mass - B)
        for st in states:
            checked += 1
            val = norm_e(st, model.mass) ** 2
            if val > bound:
                violations.append((st.time, val, bound))

    init_s, _, snaps_s, _ = solitary_run
    check(CUBIC, init_s, snaps_s)
    init_g, _, snaps_g = gaussian_run
    check(CUBIC, init_g, snaps_g)
    for row in attraction_runs:
        check(CUBIC, row["init"], row["states"])
    print(f"\nACCEPTANCE 3: {checked} snapshots checked against "
          f"||Psi||_E^2 <= 2m(H0-A)/(m-B), {len(violations)} violations")
    assert violations == []
    print("ACCEPTANCE 3: PASS")


def test_criterion_4_linear_case():
    model = OscillatorModel.linear(1.0, 1.0)
    omega_a = SQ75
    grid = Grid(220.0, 2 ** 14 + 1)
    init = gaussian_state(grid, GaussianSpec(amplitude=0.8, width=2.0,
                                             center=0.0, momentum=2.0))
    report = solve_trace(model, init, 200.0, 2.5e-3)
    assert report.status is SolveStatus.COMPLETED
    trace = report.trace

    spec = windowed_spectrum(trace, 175.0, 50.0, Window.HANN)
    bin_nat = spec.natural_bin
    power = np.abs(spec.amps) ** 2
    near = np.abs(np.abs(spec.freqs) - omega_a) <= 2.0 * bin_nat
    line_mass = float(power[near].sum() / power.sum())

    st20, st180 = reconstruct_fields(model, init, trace, (20.0, 180.0))
    rho20 = distance_to_manifold(model, st20, 5.0).rho
    factor = rho20 / distance_to_manifold(model, st180, 5.0).rho
    print(f"\nACCEPTANCE 4: spectral mass within 2 bins of +/-omega_a: {line_mass:.4f} "
          f"(>= 0.95); span-residual decay 20->180: {factor:.1f}x (>= 10)")
    assert line_mass >= 0.95
    assert factor >= 10.0
    print("ACCEPTANCE 4: PASS")


def test_criterion_5_nonlinear_attraction(attraction_runs):
    failures = []
    print("\nACCEPTANCE 5: seed  gap windows (last 3)        modvar   rho20     rho390   ratio")
    for row in attraction_runs:
        g1, g2, g3 = row["gaps"]
        ratio = row["rho390"] / row["rho20"]
        ok_gap = g3 >= 0.95 and g2 >= g1 - 1e-3 and g3 >= g2 - 1e-3
        ok_mvar = row["mvar"] < 0.05
        ok_rho = row["rho390"] < 0.25 * row["rho20"]
        line = (f"  seed {row['seed']:2d}: {g1:.4f} {g2:.4f} {g3:.4f}   "
                f"{row['mvar']:.4f}  {row['rho20']:.4f}  {row['rho390']:.5f}  {ratio:.3f}")
        print(line + ("" if (ok_gap and ok_mvar and ok_rho) else "   <-- FAIL"))
        if not (ok_gap and ok_mvar and ok_rho):
            failures.append(row["seed"])
    assert not failures, f"attraction criteria failed for seeds {failures}"
    print("ACCEPTANCE 5: PASS (10/10 seeds)")


def test_criterion_6_free_local_decay():
    grid = Grid(96.0, 2 ** 14 + 1)
    st = gaussian_state(grid, GaussianSpec(amplitude=1.0, width=1.5))
    ts = np.linspace(20.0, 80.0, 25)
    vals = [norm_e(free_evolve(st, float(t), 1.0), 1.0, R=5.0) ** 2 for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(vals), 1)[0])
    print(f"\nACCEPTANCE 6: fitted log-log slope of ||Psi_1||^2_(E,5) on [20,80]: "
          f"{slope:.3f} (<= -0.8)")
    assert slope <= -0.8
    print("ACCEPTANCE 6: PASS")


def test_criterion_7_oracle_equivalence():
    from kgpoint.fd import fd_evolve
    sups = []
    levels = ((2735, 0.032), (5469, 0.016), (10937, 0.008), (21873, 0.004))
    for n, dt in levels:
        grid = Grid(82.0, n)
        init = sample_profile(HALF_WAVE, grid, 0.0)
        fd_trace = fd_evolve(CUBIC, init, 20.0, dt)
        vol = solve_trace(CUBIC, init, 20.0, dt)
        sups.append(float(np.max(np.abs(fd_trace - vol.trace.z))))
    ratios = [sups[i] / sups[i + 1] for i in range(3)]
    print(f"\nACCEPTANCE 7: sup|z_volterra - z_fd| over t <= 20: "
          + " -> ".join(f"{s:.2e}" for s in sups)
          + f"; ratios {['%.2f' % r for r in ratios]} (each >= 2)")
    assert all(r >= 2.0 for r in ratios)
    print("ACCEPTANCE 7: PASS")


def test_criterion_8_titchmarsh_bulk():
    checked = 0
    stream = uniform_stream(2024, 0, 10 ** 4 * 70)
    pos = 0
    while checked < 10 ** 4:
        la = 1 + int(stream[pos] * 24)
        lg = 1 + int(stream[pos + 1] * 24)
        off_a = int(stream[pos + 2] * 41) - 20
        off_g = int(stream[pos + 3] * 41) - 20
        pos += 4
        a = (stream[pos:pos + la] * 19).astype(np.int64) - 9
        pos += la
        g = (stream[pos:pos + lg] * 19).astype(np.int64) - 9
        pos += lg
        if not np.any(a) or not np.any(g):
            continue  # the theorem concerns nonzero factors; redraw
        res = titchmarsh_check(a, g, off_a, off_g)
        assert res.endpoint_identity_holds, f"identity failed for {a}, {g}"
        checked += 1
    print(f"\nACCEPTANCE 8: endpoint identity exact on {checked} random integer pairs")
    assert checked == 10 ** 4
    print("ACCEPTANCE 8: PASS")


def test_criterion_9_roundtrip_and_gauge_suites():
    # solitary-manifold round trip at 1e-10
    models = [CUBIC,
              OscillatorModel.polynomial(1.0, (0.0, -1.5, 1.0)),
              OscillatorModel.polynomial(1.2, (0.1, -2.0, 0.5, 1.0))]
    pairs = 0
    for model in models:
        for C in (0.1, 0.25, 0.4, 0.55):
            for w in waves_from_amplitude(model, C):
                back = waves_at_omega(model, w.omega)
                assert any(abs(b.amplitude - C) <= 1e-10 for b in back), \
                    f"round trip failed at C={C}, omega={w.omega}"
                pairs += 1

    # gauge invariance of the manifold distance at 1e-10
    grid = Grid(40.0, 4097)
    base = sample_profile(HALF_WAVE, grid, 0.0)
    bump = gaussian_state(grid, GaussianSpec(amplitude=0.04, width=1.0, center=1.5))
    st = FieldState(grid, base.psi + bump.psi, base.pi + bump.pi)
    rhos = []
    for th in (0.0, 0.7, 2.9, 4.4):
        rot = FieldState(grid, np.exp(1j * th) * st.psi, np.exp(1j * th) * st.pi)
        rhos.append(distance_to_manifold(CUBIC, rot, 5.0).rho)
    spread = max(rhos) - min(rhos)
    print(f"\nACCEPTANCE 9: {pairs} round-trip pairs at 1e-10; distance gauge "
          f"spread {spread:.2e} (< 1e-10)")
    assert spread < 1e-10
    print("ACCEPTANCE 9: PASS")

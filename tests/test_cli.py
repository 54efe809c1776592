import contextlib
import io
import os
import runpy
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fd_oracle
import kgpoint
from kgpoint import cli, volterra
from kgpoint.cli import main
from kgpoint.config import ConfigError, build_initial_state, parse_config_text
from kgpoint.fields import FieldState, Grid, zero_state
from kgpoint.initial import GaussianSpec, gaussian_state, seeded_gaussian_spec, solitary_state
from kgpoint.output import (format_table, read_report, read_snapshot_csv, read_spectrum_csv,
                            read_trace_csv, write_report, write_snapshot_csv,
                            write_spectrum_csv, write_trace_csv)
from kgpoint.spectral import SpectrumEstimate, Window, windowed_spectrum
from kgpoint.volterra import SolveStatus, TraceSeries

BASE_CFG = """
[model]
kind = polynomial
mass = 1.0
coefficients = 0, -1, 1

[grid]
half_extent = 40.0
n_points = 2049

[time]
T = 4.0
dt = 0.01

[initial]
kind = gaussian
amplitude_re = 0.5
width = 1.5

[run]
energy_tol = 0.01

[outputs]
snapshots = 0.0, 2.0, 4.0
spectrum_windows = 1.0:4.0
"""

SOLITARY_CFG = BASE_CFG.replace("kind = gaussian", "kind = solitary").replace(
    "amplitude_re = 0.5\nwidth = 1.5", "C = 0.5\ntheta = 0.0\nbranch = plus").replace(
    "half_extent = 40.0", "half_extent = 66.0").replace(
    "n_points = 2049", "n_points = 4097")

GAUSSIAN_INITIAL = "kind = gaussian\namplitude_re = 0.5\nwidth = 1.5"
ZERO_CFG = BASE_CFG.replace(GAUSSIAN_INITIAL, "kind = zero")
POLYNOMIAL_MODEL = "kind = polynomial\nmass = 1.0\ncoefficients = 0, -1, 1"

# (edits of BASE_CFG, the violation parse_config_text, or else
# build_initial_state, must list): one case per validation rule
CONFIG_VIOLATIONS = [
    ([("mass = 1.0\n", "")], "missing model.mass"),
    ([("n_points = 2049", "n_points = many")], "cannot parse grid.n_points = 'many'"),
    ([("mass = 1.0", "mass = -1.0")], "model.mass must be positive"),
    ([("mass = 1.0", "mass = nan"), ("coefficients = 0, -1, 1", "coefficients = 0, -2, 0, 1")],
     "cannot parse model.mass = 'nan'"),
    ([("coefficients = 0, -1, 1", "coefficients = 0, 1")], "needs u_0..u_N with N >= 2"),
    ([("coefficients = 0, -1, 1", "coefficients = 0, 1, -1")],
     "leading coefficient u_N must be positive"),
    ([(POLYNOMIAL_MODEL, "kind = linear\nmass = 1.0\na = 2.5")],
     "outside the well-posedness window"),
    ([("kind = polynomial", "kind = quartic")], "model.kind must be polynomial or linear"),
    ([("n_points = 2049", "n_points = 2048")], "grid.n_points must be odd and >= 3"),
    ([("half_extent = 40.0", "half_extent = -40.0")], "grid.half_extent must be positive"),
    ([("half_extent = 40.0", "half_extent = inf")], "cannot parse grid.half_extent = 'inf'"),
    ([("T = 4.0", "T = -4.0")], "time.T must be positive"),
    ([("T = 4.0", "T = inf")], "cannot parse time.T = 'inf'"),
    ([("dt = 0.01", "dt = -0.01")], "time.dt must be positive"),
    ([("dt = 0.01", "dt = 0.013")], "is not an integer multiple of dt"),
    ([("kind = gaussian", "kind = sine")], "initial.kind must be one of"),
    ([(GAUSSIAN_INITIAL, "kind = solitary\nbranch = up")],
     "initial.branch must be plus or minus"),
    ([(GAUSSIAN_INITIAL, "kind = solitary\nC = -0.5")], "initial.C must be positive"),
    ([(GAUSSIAN_INITIAL, "kind = from_file")], "initial.path required for from_file data"),
    ([(GAUSSIAN_INITIAL, "kind = solitary\nC = 0.5"),
      ("coefficients = 0, -1, 1", "coefficients = 0, 1, 1")],
     "no solitary wave exists at C=0.5"),
    ([(GAUSSIAN_INITIAL, "kind = solitary_plus_bump\nC = 0.0")],
     "initial.C must be positive, got 0.0"),
    ([(GAUSSIAN_INITIAL, "kind = solitary_plus_bump\nC = 3.0")],
     "no solitary wave exists at C=3.0"),
    # alpha(C^2)/2 = 1.76 > m: a decay rate but no frequency
    ([(GAUSSIAN_INITIAL, "kind = solitary_plus_bump\nC = 0.4"),
      ("coefficients = 0, -1, 1", "coefficients = 0.1, -2, 0.5, 1")],
     "no solitary wave exists at C=0.4"),
    # alpha(C^2)/2 = m exactly: the one wave has omega = 0, on the plus branch
    ([(GAUSSIAN_INITIAL, "kind = solitary\nC = 0.5\nbranch = minus"),
      ("coefficients = 0, -1, 1", "coefficients = 0, -1.5, 1")],
     "no minus-branch solitary wave exists at C=0.5"),
    ([(GAUSSIAN_INITIAL, "kind = seeded_gaussian"), ("[run]", "[run]\nseed = -1")],
     "run.seed must be in [0, 2**64), got -1"),
    ([("T = 4.0", "T = 60.0")], "horizon rule violated"),
    ([("snapshots = 0.0, 2.0, 4.0", "snapshots = 0.0, 5.0")], "snapshot time 5.0 outside [0, T]"),
    ([("snapshots = 0.0, 2.0, 4.0", "snapshots = 0.005")],
     "snapshot time 0.005 not on the dt grid"),
    # 1e-8 off the grid: within 1e-9 T, but TraceSeries.index_of allows 1e-9 max(1, t)
    ([("T = 4.0", "T = 40.0"), ("half_extent = 40.0", "half_extent = 80.0"),
      ("n_points = 2049", "n_points = 4097"),
      ("snapshots = 0.0, 2.0, 4.0", "snapshots = 0.50000001")],
     "snapshot time 0.50000001 not on the dt grid"),
    ([("spectrum_windows = 1.0:4.0", "spectrum_windows = 3.0:5.0")],
     "window extends outside the trace: 3.0:5.0"),
    ([("spectrum_windows = 1.0:4.0", "spectrum_windows = 1.0:1.005")],
     "holds fewer than two trace samples: 1.0:1.005"),
    ([("spectrum_windows = 1.0:4.0", "spectrum_windows = 1.0-4.0")],
     "cannot parse outputs.spectrum_windows"),
    # the window rule of the spectrum (`fields.node_span`): its ends in steps
    # of dt must be finite, and every number of a window finite
    ([("spectrum_windows = 1.0:4.0", "spectrum_windows = 0:1e300")],
     "window extends outside the trace: 0.0:1e+300"),
    ([("spectrum_windows = 1.0:4.0", "spectrum_windows = 0:1e308")],
     "window ends are not finite in steps: 0.0:1e+308"),
    ([("spectrum_windows = 1.0:4.0", "spectrum_windows = 0:inf")],
     "cannot parse outputs.spectrum_windows = '0:inf'"),
    ([("spectrum_windows = 1.0:4.0", "spectrum_windows = 0:nan")],
     "cannot parse outputs.spectrum_windows = '0:nan'"),
    # a list is comma-separated only
    ([("snapshots = 0.0, 2.0, 4.0", "snapshots = 0.0; 2.0")],
     "cannot parse outputs.snapshots = '0.0; 2.0'"),
    ([("width = 1.5", "width = 0")], "initial.width must be positive, got 0.0"),
    ([("width = 1.5", "width = -1")], "initial.width must be positive, got -1.0"),
    ([(GAUSSIAN_INITIAL, "kind = solitary_plus_bump\nC = 0.5\nbump_width = 0"),
      ("half_extent = 40.0", "half_extent = 66.0")],
     "initial.bump_width must be positive, got 0.0"),
    ([(GAUSSIAN_INITIAL, "kind = solitary\nC = 1e200")],
     "initial.C = 1e+200 is too large: C**2 overflows"),
    ([("T = 4.0", "T = 1e300"), ("dt = 0.01", "dt = 1e-300")],
     "time.T / time.dt = 1e+300 / 1e-300 overflows"),
    # 4e300 steps: no trace of them can be indexed
    ([("dt = 0.01", "dt = 1e-300")], "time.T / time.dt = 4.0 / 1e-300 overflows"),
    # psi is finite, pi = -i omega_bar psi is not
    ([("width = 1.5", "width = 1.5\nomega_bar = 1e300"),
      ("amplitude_re = 0.5", "amplitude_re = 1e300")], "initial data are not finite"),
    ([("energy_tol = 0.01", "energy_tol = -1")], "run.energy_tol must be positive, got -1.0"),
    ([("width = 1.5", "width = 1e-200")],
     "initial.width = 1e-200 is below the grid spacing 0.0390625"),
    # the width's square overflows to inf: the packet fills the grid
    ([("width = 1.5", "width = 1e300")], "data radius + T + 1 = 45.000"),
    ([(GAUSSIAN_INITIAL, "kind = solitary_plus_bump\nC = 0.5\nbump_width = 0.06"),
      ("half_extent = 40.0", "half_extent = 66.0")],
     "initial.bump_width = 0.06 is below the grid spacing 0.064453125"),
    ([("width = 1.5", "widht = 1.5")], "unknown key initial.widht"),
    ([("energy_tol = 0.01", "energy_toll = 0.01")], "unknown key run.energy_toll"),
    ([("[outputs]", "[extra]\nsnapshots = 0.0\n\n[outputs]")], "unknown key extra.snapshots"),
    # the polynomial kind reads no coupling a
    ([("coefficients = 0, -1, 1", "coefficients = 0, -1, 1\na = 1.0")], "unknown key model.a"),
    # a key that earlier versions read is accepted only in its own section
    ([("energy_tol = 0.01", "energy_tol = 0.01\ntrace = true")], "unknown key run.trace"),
    # each [initial] kind reads its own keys only, and only seeded_gaussian run.seed
    ([("width = 1.5", "width = 1.5\nC = 0.5")], "unknown key initial.c"),
    ([("energy_tol = 0.01", "seed = 7\nenergy_tol = 0.01")], "unknown key run.seed"),
    # a [DEFAULT] key reaches every section, and must be read in one of them
    ([("[model]", "[DEFAULT]\nsead = 3\n\n[model]")], "unknown key DEFAULT.sead"),
    ([("[outputs]", "[extra]\n\n[outputs]")], "unknown section extra"),
    # a section's own key is checked also where it overrides a [DEFAULT] key
    ([("[model]", "[DEFAULT]\nseed = 3\n\n[model]"), ("mass = 1.0", "mass = 1.0\nseed = 4")],
     "unknown key model.seed"),
]

SEEDED_CFG = BASE_CFG.replace(GAUSSIAN_INITIAL, "kind = seeded_gaussian").replace(
    "[run]", "[run]\nseed = 7")

# (edits of SEEDED_CFG, edits that give the same config): spellings the
# parser accepts
CONFIG_ACCEPTED = [
    # run.seed reads a [DEFAULT] seed; the other sections ignore it
    ([("[model]", "[DEFAULT]\nseed = 3\n\n[model]"), ("seed = 7\n", "")],
     [("seed = 7", "seed = 3")]),
    # a known section may be empty
    ([("snapshots = 0.0, 2.0, 4.0\nspectrum_windows = 1.0:4.0\n", "")],
     [("[outputs]\nsnapshots = 0.0, 2.0, 4.0\nspectrum_windows = 1.0:4.0\n", "")]),
]

# [initial] sections with a non-default value for every key each kind reads
WAVE_KEYS = "C = 0.4\ntheta = 0.3\nbranch = minus"
BUMP_KEYS = ("bump_amplitude_re = 0.05\nbump_amplitude_im = 0.02\nbump_width = 1.2\n"
             "bump_center = -4.0")
INITIAL_KINDS = {
    "zero": "kind = zero",
    "solitary": "kind = solitary\n" + WAVE_KEYS,
    "gaussian": "kind = gaussian\namplitude_re = 0.3\namplitude_im = -0.2\nwidth = 1.2\n"
                "center = 0.5\nmomentum = 0.4\nomega_bar = 0.3",
    "seeded_gaussian": "kind = seeded_gaussian",
    "solitary_plus_bump": "kind = solitary_plus_bump\n" + WAVE_KEYS + "\n" + BUMP_KEYS,
    "from_file": "kind = from_file\npath = {path}",
}


def run_python(code: str) -> list[str]:
    """The stdout lines of code run in a fresh interpreter on this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestConfig:
    def test_config_import_loads_no_solver(self):
        # the package resolves its public names on first use, so importing
        # the config layer brings in neither the solver nor its kernels;
        # the names still resolve, to the defining modules' objects
        code = ("import sys, kgpoint.config\n"
                "print(sorted(m for m in ('kgpoint.volterra', 'kgpoint.kernel', "
                "'kgpoint.spectral') if m in sys.modules))\n"
                "from kgpoint import cli, solve_trace, volterra\n"
                "print(solve_trace is volterra.solve_trace, cli.__name__)\n")
        assert run_python(code) == ["[]", "True kgpoint.cli"]

    def test_dir_lists_the_public_names_unresolved(self):
        # dir() lists every public name, here and in a fresh interpreter,
        # without resolving one, so the solver stays unloaded
        assert set(kgpoint.__all__) <= set(dir(kgpoint))
        code = ("import sys, kgpoint\n"
                "print(set(kgpoint.__all__) <= set(dir(kgpoint)), "
                "'kgpoint.volterra' in sys.modules)\n")
        assert run_python(code) == ["True False"]

    def test_step_check_imports_no_masked_arrays(self):
        # numpy.ma takes about 15 ms to import, which a sweep would pay in its
        # up-front step check (np.unique imports it on its first call)
        code = ("import sys\n"
                "from kgpoint.config import build_initial_state, parse_config_text\n"
                "from kgpoint.volterra import check_step\n"
                f"cfg = parse_config_text({SEEDED_CFG!r})\n"
                "check_step(cfg.model, build_initial_state(cfg), cfg.dt)\n"
                "print('numpy.ma' in sys.modules)\n")
        assert run_python(code) == ["False"]

    def test_validation_collects_all_violations(self):
        bad = BASE_CFG.replace("mass = 1.0", "mass = -1.0").replace(
            "n_points = 2049", "n_points = 2048").replace("dt = 0.01", "dt = 0.013")
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        msgs = err.value.errors
        assert len(msgs) >= 3
        assert any("mass" in m for m in msgs)
        assert any("n_points" in m for m in msgs)
        assert any("multiple" in m for m in msgs)

    @pytest.mark.parametrize("edits,violation", CONFIG_VIOLATIONS,
                             ids=[v for _, v in CONFIG_VIOLATIONS])
    def test_each_violation_listed(self, edits, violation):
        text = BASE_CFG
        for old, new in edits:
            assert old in text
            text = text.replace(old, new, 1)
        with pytest.raises(ConfigError) as err:
            build_initial_state(parse_config_text(text))
        assert any(violation in m for m in err.value.errors), err.value.errors

    @pytest.mark.parametrize("edits,same", CONFIG_ACCEPTED, ids=["default_seed", "empty_section"])
    def test_each_spelling_accepted(self, edits, same):
        def edited(pairs):
            text = SEEDED_CFG
            for old, new in pairs:
                assert old in text
                text = text.replace(old, new, 1)
            return parse_config_text(text)

        assert edited(edits) == edited(same)

    def test_horizon_rule_enforced(self):
        # the packet's sampled support reaches |x| = 10.15625 at 1e-10 of its peak
        bad = parse_config_text(BASE_CFG.replace("T = 4.0", "T = 30.0"))
        with pytest.raises(ConfigError) as err:
            build_initial_state(bad)
        assert err.value.errors == ["horizon rule violated: half_extent = 40.0 < "
                                    "data radius + T + 1 = 41.156"]

    def test_linear_outside_window_rejected(self):
        bad = BASE_CFG.replace(
            "kind = polynomial\nmass = 1.0\ncoefficients = 0, -1, 1",
            "kind = linear\nmass = 1.0\na = 2.5")
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert any("well-posedness" in m for m in err.value.errors)

    def test_removed_run_keys_still_load(self, tmp_path):
        old = BASE_CFG.replace("energy_tol = 0.01",
                               "energy_tol = 0.01\nfd_delta_width = 3\nworkers = 2").replace(
            "[outputs]", "[outputs]\ntrace = false\nreport = false")
        assert parse_config_text(old) == parse_config_text(BASE_CFG)
        cfg = tmp_path / "old.cfg"
        cfg.write_text(old)
        assert run_cli(tmp_path, "simulate", "--config", str(cfg)) == 0
        assert (tmp_path / "out" / "trace.csv").exists()
        assert (tmp_path / "out" / "report.txt").exists()

    def test_alpha_overflow_is_a_config_error(self):
        # C**2 is finite, alpha(C**2) is not; no overflow warning may escape
        text = BASE_CFG.replace(GAUSSIAN_INITIAL, "kind = solitary\nC = 1e100").replace(
            "coefficients = 0, -1, 1", "coefficients = 0.1, -2, 0.5, 1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as err:
                parse_config_text(text)
        assert err.value.errors == ["initial.C = 1e+100 is too large: alpha(C**2) is not finite"]

    def test_seeded_gaussian_initial_data(self):
        cfg = parse_config_text(SEEDED_CFG.replace("seed = 7", "seed = 3"))
        spec = seeded_gaussian_spec(3)
        state = build_initial_state(cfg)
        want = gaussian_state(cfg.grid, spec)
        assert np.array_equal(state.psi, want.psi) and np.array_equal(state.pi, want.pi)

    def test_bad_initial_kind(self):
        # one error: the keys of a kind that does not exist are not checked
        bad = BASE_CFG.replace("kind = gaussian", "kind = sine")
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert len(err.value.errors) == 1 and "got 'sine'" in err.value.errors[0]

    def test_solitary_plus_bump(self):
        text = SOLITARY_CFG.replace("kind = solitary", "kind = solitary_plus_bump").replace(
            "branch = plus", "branch = plus\nbump_amplitude_re = 0.05\nbump_width = 1.2\n"
            "bump_center = 4.0")
        cfg = parse_config_text(text)
        state = build_initial_state(cfg)
        wave = solitary_state(cfg.model, cfg.grid, 0.5)
        bump = gaussian_state(cfg.grid, GaussianSpec(amplitude=0.05, width=1.2, center=4.0))
        assert np.array_equal(state.psi, wave.psi + bump.psi)
        assert np.array_equal(state.pi, wave.pi + bump.pi)

    @pytest.mark.parametrize("kind", INITIAL_KINDS)
    def test_each_kind_reads_only_its_own_keys(self, kind):
        # the keys of the other kinds, and run.seed outside seeded_gaussian,
        # are unknown keys: none of them would change the data
        lines = {line.split(" = ")[0]: line for text in INITIAL_KINDS.values()
                 for line in text.format(path="snap.csv").splitlines()}
        own = INITIAL_KINDS[kind].format(path="snap.csv").splitlines()
        foreign = [key for key, line in lines.items() if key != "kind" and line not in own]
        text = SEEDED_CFG.replace("kind = seeded_gaussian",
                                  "\n".join(own + [lines[key] for key in foreign]))
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        want = [f"unknown key initial.{key.lower()}" for key in foreign]
        if kind != "seeded_gaussian":
            want.append("unknown key run.seed")
        assert sorted(err.value.errors) == sorted(want)

    @pytest.mark.parametrize("kind", INITIAL_KINDS)
    def test_initial_data_are_the_sum_of_their_parts(self, tmp_path, kind):
        path = tmp_path / "snap.csv"
        grid = Grid(66.0, 4097)
        write_snapshot_csv(str(path), gaussian_state(grid, GaussianSpec(0.2j, 3.0, 1.0, 0.7)))
        text = SOLITARY_CFG.replace("kind = solitary\nC = 0.5\ntheta = 0.0\nbranch = plus",
                                    INITIAL_KINDS[kind].format(path=path))
        if kind == "seeded_gaussian":
            text = text.replace("[run]", "[run]\nseed = 7")
        cfg = parse_config_text(text)
        assert cfg.grid == grid
        waves = [solitary_state(cfg.model, grid, 0.4, 0.3, "minus")] if "solitary" in kind else []
        packets = {"gaussian": [GaussianSpec(0.3 - 0.2j, 1.2, 0.5, 0.4, 0.3)],
                   "seeded_gaussian": [seeded_gaussian_spec(7)],
                   "solitary_plus_bump": [GaussianSpec(0.05 + 0.02j, 1.2, -4.0)]}.get(kind, [])
        parts = waves + [gaussian_state(grid, p) for p in packets] or [zero_state(grid)]
        if kind == "from_file":
            parts = [read_snapshot_csv(str(path))]
        state = build_initial_state(cfg)
        want = parts[0] if len(parts) == 1 else FieldState(
            grid, parts[0].psi + parts[1].psi, parts[0].pi + parts[1].pi)
        assert np.array_equal(state.psi, want.psi) and np.array_equal(state.pi, want.pi)


class TestRoundTrips:
    def test_trace_csv(self, tmp_path):
        dt = 0.1
        z = np.exp(-1j * 0.3 * np.arange(11) * dt) * 0.37
        trace = TraceSeries(dt=dt, z=z)
        p = str(tmp_path / "trace.csv")
        write_trace_csv(p, trace, [(0.0, 1.25), (1.0, 1.2501)], [(0.0, 0.4)])
        times, z2, e_rows, q_rows = read_trace_csv(p)
        assert np.array_equal(z2, z)
        assert e_rows == [(0.0, 1.25), (1.0, 1.2501)]
        assert q_rows == [(0.0, 0.4)]

    def test_snapshot_csv(self, tmp_path):
        grid = Grid(5.0, 41)
        st = gaussian_state(grid, GaussianSpec(amplitude=0.3 + 0.1j, width=1.0,
                                               momentum=0.5, omega_bar=0.2))
        st.time = 2.5
        p = str(tmp_path / "snap.csv")
        write_snapshot_csv(p, st)
        back = read_snapshot_csv(p)
        assert back.time == 2.5
        assert back.grid.n_points == 41
        assert np.array_equal(back.psi, st.psi)
        assert np.array_equal(back.pi, st.pi)

    def test_spectrum_csv(self, tmp_path):
        tt = np.arange(0, 20, 0.01)
        trace = TraceSeries(dt=0.01, z=np.exp(-1j * tt))
        spec = windowed_spectrum(trace, 10.0, 15.0, Window.HANN)
        p = str(tmp_path / "spec.csv")
        write_spectrum_csv(p, spec)
        back = read_spectrum_csv(p)
        assert back.window is Window.HANN
        assert back.t_width == 15.0
        assert np.array_equal(back.freqs, spec.freqs)
        assert np.array_equal(back.amps, spec.amps)

    def test_spectrum_csv_rejects_an_empty_cell(self, tmp_path):
        p = tmp_path / "spec.csv"
        p.write_text("omega,re_amp,im_amp\n0.0,1.0,\n")
        with pytest.raises(ValueError, match="spec.csv: spectrum values are not finite"):
            read_spectrum_csv(str(p))

    def test_table_bytes(self, tmp_path):
        # -0.0, 1e-05 and 1e+16 keep their repr; abs(0.25+0.6j) is 0.65, where
        # np.abs of an array gives 0.6499999999999999
        z = np.array([complex(-0.0, 1e-05), 0.25 + 0.6j, complex(1e16, -0.0)])
        p = tmp_path / "trace.csv"
        write_trace_csv(str(p), TraceSeries(dt=0.1, z=z),
                        [(0.0, 1e-05), (0.2, 0.5)], [(0.0, 1e16), (0.2, -0.0)])
        assert p.read_bytes() == (b"t,re_z,im_z,abs_z,energy,charge\n"
                                  b"0.0,-0.0,1e-05,1e-05,1e-05,1e+16\n"
                                  b"0.1,0.25,0.6,0.65,,\n"
                                  b"0.2,1e+16,-0.0,1e+16,0.5,-0.0\n")
        p = tmp_path / "snap.csv"
        write_snapshot_csv(str(p), FieldState(Grid(1.0, 3), z, z[::-1], time=2.5))
        assert p.read_bytes() == (b"# time = 2.5\n"
                                  b"x,re_psi,im_psi,re_pi,im_pi\n"
                                  b"-1.0,-0.0,1e-05,1e+16,-0.0\n"
                                  b"0.0,0.25,0.6,0.25,0.6\n"
                                  b"1.0,1e+16,-0.0,-0.0,1e-05\n")
        p = tmp_path / "spec.csv"
        write_spectrum_csv(str(p), SpectrumEstimate(freqs=np.array([-1e16, -0.0, 1e-05]),
                                                    amps=z, window=Window.RECT,
                                                    t_center=1e-05, t_width=1e16))
        assert p.read_bytes() == (b"# window = rect\n"
                                  b"# t_center = 1e-05\n"
                                  b"# t_width = 1e+16\n"
                                  b"omega,re_amp,im_amp\n"
                                  b"-1e+16,-0.0,1e-05\n"
                                  b"-0.0,0.25,0.6\n"
                                  b"1e-05,1e+16,-0.0\n")

    def test_report_round_trip(self, tmp_path):
        p = str(tmp_path / "report.txt")
        sections = {"solve": {"status": "completed", "steps": "100"},
                    "extra": {"x": "1.5"}}
        write_report(p, sections)
        back = read_report(p)
        assert back == sections
        # byte-stable under rewrite
        p2 = str(tmp_path / "report2.txt")
        write_report(p2, back)
        assert (tmp_path / "report.txt").read_bytes() == (tmp_path / "report2.txt").read_bytes()


def run_cli(tmp_path, *args):
    return main(["--out", str(tmp_path / "out"), *args])


def assert_input_error(code, capsys, text):
    """Exit 2 with one `error:` line on stderr that contains text."""
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and text in err[0], err


class TestCommands:
    def test_simulate_zero_data(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(ZERO_CFG)
        code = run_cli(tmp_path, "simulate", "--config", str(cfg))
        assert code == 0
        times, z, e_rows, _ = read_trace_csv(str(tmp_path / "out" / "trace.csv"))
        assert np.max(np.abs(z)) == 0.0
        assert os.path.exists(tmp_path / "out" / "snapshot_t2.000000.csv")
        rep = read_report(str(tmp_path / "out" / "report.txt"))
        assert rep["solve"]["status"] == "completed"

    def test_simulate_deterministic_bytes(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text(BASE_CFG)
        assert main(["--out", str(tmp_path / "o1"), "simulate", "--config", str(cfg)]) == 0
        assert main(["--out", str(tmp_path / "o2"), "simulate", "--config", str(cfg)]) == 0
        for name in ("trace.csv", "report.txt", "snapshot_t4.000000.csv", "spectrum_0.csv"):
            b1 = (tmp_path / "o1" / name).read_bytes()
            b2 = (tmp_path / "o2" / name).read_bytes()
            assert b1 == b2

    def test_energy_drift_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "g.cfg"
        cfg.write_text(BASE_CFG)
        code = run_cli(tmp_path, "simulate", "--config", str(cfg),
                       "--set", "run.energy_tol=1e-14")
        assert code == 1
        assert "run status energy_drift_exceeded" in capsys.readouterr().err
        rep = read_report(str(tmp_path / "out" / "report.txt"))
        assert rep["solve"]["status"] == "energy_drift_exceeded"

    def test_from_file_initial_data(self, tmp_path, capsys):
        cfg = tmp_path / "g.cfg"
        cfg.write_text(BASE_CFG)
        assert run_cli(tmp_path, "simulate", "--config", str(cfg)) == 0
        snap_path = tmp_path / "out" / "snapshot_t4.000000.csv"
        snap = read_snapshot_csv(str(snap_path))
        cfg.write_text(BASE_CFG.replace("kind = gaussian\namplitude_re = 0.5\nwidth = 1.5",
                                        f"kind = from_file\npath = {snap_path}"))
        out = tmp_path / "resumed"
        assert main(["--out", str(out), "simulate", "--config", str(cfg)]) == 0
        _, z, _, _ = read_trace_csv(str(out / "trace.csv"))
        assert z[0] == snap.psi[snap.grid.center_index]
        state = read_snapshot_csv(str(out / "snapshot_t0.000000.csv"))
        assert np.array_equal(state.psi, snap.psi) and np.array_equal(state.pi, snap.pi)
        # a snapshot from another grid is a config failure
        code = main(["--out", str(out), "simulate", "--config", str(cfg),
                     "--set", "grid.n_points=4097"])
        assert code == 2
        assert "does not match the [grid] section" in capsys.readouterr().err

    def test_config_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE_CFG.replace("mass = 1.0", "mass = -2.0"))
        code = run_cli(tmp_path, "simulate", "--config", str(cfg))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,text", [
        ("[model]\n", "", "File contains no section headers. file: '{cfg}', line: 2 "
                          "'kind = polynomial\\n'"),
        ("mass = 1.0", "mass = 1.0\nmass = 2.0",
         "While reading from '{cfg}' [line  5]: option 'mass' in section 'model' already exists"),
    ], ids=["no_section_header", "duplicate_option"])
    def test_config_not_ini(self, tmp_path, monkeypatch, capsys, old, new, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE_CFG.replace(old, new, 1))
        monkeypatch.setattr(cli, "solve_trace", None)  # any solve would fail
        for command in ("simulate", "attract", "compare", "sweep"):
            code = run_cli(tmp_path, command, "--config", str(cfg))
            assert_input_error(code, capsys, text.format(cfg=cfg))

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        code = run_cli(tmp_path, "simulate", "--config", str(tmp_path))
        assert_input_error(code, capsys, "Is a directory")

    @pytest.mark.parametrize("time,rows,line", [
        ("0.0", "-1.0,0.0,0.0,0.0\n", 3),
        ("0.0", "", 2),
        ("abc", "-1.0,0,0,0,0\n0.0,0,0,0,0\n1.0,0,0,0,0\n", 1),
    ], ids=["short_row", "no_rows", "bad_time"])
    def test_from_file_rejects_bad_snapshot(self, tmp_path, capsys, time, rows, line):
        snap = tmp_path / "snap.csv"
        snap.write_text(f"# time = {time}\nx,re_psi,im_psi,re_pi,im_pi\n" + rows)
        cfg = tmp_path / "f.cfg"
        cfg.write_text(BASE_CFG.replace(GAUSSIAN_INITIAL, f"kind = from_file\npath = {snap}"))
        code = run_cli(tmp_path, "simulate", "--config", str(cfg))
        assert_input_error(code, capsys, f"not a snapshot file: {snap}, line {line}: ")

    @pytest.mark.parametrize("column,cell,text", [
        (1, "abc", "not a snapshot file: {snap}, line 1027: "
                   "could not convert string to float: 'abc'"),
        (1, "", "{snap}: snapshot values are not finite"),
        (0, "0.5", "{snap}: x is not a uniform grid symmetric about 0"),
    ], ids=["bad_cell", "empty_cell", "x_not_the_grid"])
    def test_from_file_snapshot_reader_errors(self, tmp_path, monkeypatch, capsys,
                                              column, cell, text):
        # a snapshot on the config's grid with one cell of the x = 0 row (line
        # 1027) replaced
        grid = Grid(40.0, 2049)
        snap = tmp_path / "snap.csv"
        write_snapshot_csv(str(snap), zero_state(grid))
        lines = snap.read_text().splitlines()
        row = lines[2 + grid.center_index].split(",")
        row[column] = cell
        lines[2 + grid.center_index] = ",".join(row)
        snap.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "f.cfg"
        cfg.write_text(BASE_CFG.replace(GAUSSIAN_INITIAL, f"kind = from_file\npath = {snap}"))
        monkeypatch.setattr(cli, "solve_full", None)  # any solve would fail
        code = run_cli(tmp_path, "simulate", "--config", str(cfg))
        assert_input_error(code, capsys, text.format(snap=snap))

    def test_override_without_equals(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "o.cfg"
        cfg.write_text(BASE_CFG)
        monkeypatch.setattr(cli, "solve_trace", None)  # any solve would fail
        code = run_cli(tmp_path, "attract", "--config", str(cfg), "--set", "run.seed")
        assert_input_error(code, capsys, "override 'run.seed' is not section.key=value")

    def test_override_of_unknown_key(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "o.cfg"
        cfg.write_text(BASE_CFG)
        monkeypatch.setattr(cli, "solve_full", None)  # any solve would fail
        code = run_cli(tmp_path, "simulate", "--config", str(cfg), "--set", "initial.widht=3")
        assert_input_error(code, capsys, "unknown key initial.widht")

    def test_step_too_large_for_implicit_node(self, tmp_path, capsys):
        # the a priori cap of this data gives L ~ 15, so dt may be ~0.14 at most
        cfg = tmp_path / "dt.cfg"
        cfg.write_text(BASE_CFG)
        code = run_cli(tmp_path, "simulate", "--config", str(cfg), "--set", "time.dt=0.5")
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "largest admissible dt" in err[0]

    def test_overflowing_data_give_one_error_line(self, tmp_path, capsys):
        # U(psi(0)) = |psi|^4 - |psi|^2 overflows, so H0 and the cap are inf and
        # the step check fires; no overflow warning may reach stderr
        cfg = tmp_path / "big.cfg"
        cfg.write_text(BASE_CFG.replace("amplitude_re = 0.5", "amplitude_re = 1e100"))
        code = run_cli(tmp_path, "simulate", "--config", str(cfg))
        assert_input_error(code, capsys, "too large for the implicit node")

    @pytest.mark.parametrize("coefficients,amplitude", [
        ("0, -1, 1", "1e300"), ("0.1, -2, 0.5, 1", "1e30")], ids=["squares", "lipschitz"])
    def test_data_past_the_float_range_give_one_error_line(self, tmp_path, capsys,
                                                           coefficients, amplitude):
        # |psi|^2 overflows in the seminorm, so H0 and the cap are not a
        # number; or the cap is finite and the Lipschitz bound's cap^4 is not
        cfg = tmp_path / "big.cfg"
        cfg.write_text(BASE_CFG.replace("amplitude_re = 0.5", f"amplitude_re = {amplitude}")
                       .replace("coefficients = 0, -1, 1", f"coefficients = {coefficients}"))
        code = run_cli(tmp_path, "simulate", "--config", str(cfg))
        assert_input_error(code, capsys, "initial data too large for the implicit node")

    def test_non_finite_node(self, tmp_path, monkeypatch, capsys):
        # one fixed-point iteration never meets the node's stopping rule
        monkeypatch.setattr(volterra, "_MAX_ITERATIONS", 1)
        cfg = parse_config_text(BASE_CFG)
        initial = build_initial_state(cfg)
        report = volterra.solve_trace(cfg.model, initial, cfg.T, cfg.dt)
        assert report.status is SolveStatus.NON_FINITE
        assert report.message == "implicit node failed to converge at t=0.01"
        assert len(report.trace.z) == 1 and report.trace.z[0] == initial.center_value
        report, snapshots = volterra.solve_full(cfg.model, initial, cfg.T, cfg.dt,
                                                snapshot_times=cfg.snapshots)
        assert report.status is SolveStatus.NON_FINITE and snapshots == []
        path = tmp_path / "g.cfg"
        path.write_text(BASE_CFG)
        assert run_cli(tmp_path, "simulate", "--config", str(path)) == 1
        assert capsys.readouterr().err == ("error: run status non_finite: "
                                           "implicit node failed to converge at t=0.01\n")
        # the files hold the truncated trace and no spectrum of it
        assert len(read_trace_csv(str(tmp_path / "out" / "trace.csv"))[0]) == 1
        assert not (tmp_path / "out" / "spectrum_0.csv").exists()
        assert read_report(str(tmp_path / "out" / "report.txt"))["solve"]["steps"] == "0"

    @pytest.mark.parametrize("command", ["attract", "compare"])
    def test_run_failure_exit_code(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(volterra, "_MAX_ITERATIONS", 1)  # as in test_non_finite_node
        path = tmp_path / "g.cfg"
        path.write_text(BASE_CFG)
        assert run_cli(tmp_path, command, "--config", str(path)) == 1
        assert capsys.readouterr().err == ("error: run status non_finite: "
                                           "implicit node failed to converge at t=0.01\n")

    def test_sweep_keeps_failed_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(volterra, "_MAX_ITERATIONS", 1)
        path = tmp_path / "g.cfg"
        path.write_text(SEEDED_CFG)
        assert run_cli(tmp_path, "sweep", "--config", str(path), "--vary", "run.seed=1,2") == 0
        assert (tmp_path / "out" / "sweep.csv").read_text() == (
            "run.seed,status,in_gap_fraction,omega_plus,modulus_variation,late_max_abs_z\n"
            "1,non_finite,,,,\n"
            "2,non_finite,,,,\n")

    @pytest.mark.parametrize("argv,text", [
        (["solitary", "--C", "nan"], "C must be positive, got nan"),
        (["solitary", "--C", "inf"], "C = inf is too large: C**2 overflows"),
        (["solitary", "--omega", "nan"], "omega must be finite, got nan"),
        (["spectrum", "--t-center", "nan", "--t-width", "1.0"],
         "window ends are not finite in steps: nan:nan at dt = 0.1"),
        (["spectrum", "--t-center", "0.5", "--t-width", "-2"],
         "window holds fewer than two trace samples: 1.5:-0.5 at dt = 0.1"),
        (["spectrum", "--t-center", "0.5", "--t-width", "0"],
         "window holds fewer than two trace samples: 0.5:0.5 at dt = 0.1"),
        (["attract", "--radius", "nan"],
         "R = nan is outside [h, half_extent] = [0.0390625, 40.0]"),
        (["attract", "--radius", "40.5"],
         "R = 40.5 is outside [h, half_extent] = [0.0390625, 40.0]"),
        # a one-node window: the spacing is 80/2048
        (["attract", "--radius", "0.01"],
         "R = 0.01 is outside [h, half_extent] = [0.0390625, 40.0]"),
        # finite flags whose square, or whose window in steps of dt, overflows
        (["solitary", "--C", "1e200"], "C = 1e+200 is too large: C**2 overflows"),
        (["spectrum", "--t-center", "0.5", "--t-width", "1.7e308"],
         "window ends are not finite in steps: -8.5e+307:8.5e+307 at dt = 0.1"),
    ], ids=["C_nan", "C_inf", "omega_nan", "t_center_nan", "t_width_negative", "t_width_zero",
            "radius_nan", "radius_past_grid", "radius_below_spacing", "C_squared_overflows",
            "t_width_overflows"])
    def test_flags_checked_up_front(self, tmp_path, monkeypatch, capsys, argv, text):
        # a 1 s trace and a valid config, so only the flag is wrong
        trace = tmp_path / "trace.csv"
        write_trace_csv(str(trace), TraceSeries(dt=0.1, z=np.ones(11, dtype=complex)))
        cfg = tmp_path / "g.cfg"
        cfg.write_text(BASE_CFG)
        monkeypatch.setattr(cli, "solve_trace", None)  # any solve would fail
        files = {"spectrum": ["--trace", str(trace)], "attract": ["--config", str(cfg)]}
        code = run_cli(tmp_path, argv[0], *files.get(argv[0], []), *argv[1:])
        assert_input_error(code, capsys, text)

    @pytest.mark.parametrize("argv,text", [
        (["--u", "0,1", "--C", "0.5"], "degree N >= 2"),
        (["--u", "0,-1,abc", "--C", "0.5"], "--u 0,-1,abc: could not convert string to float: 'abc'"),
        (["--C", "-1"], "C must be positive, got -1.0"),
        (["--omega", "2"], "|omega| < m"),
    ], ids=["degree", "coefficient", "amplitude", "omega"])
    def test_solitary_input_errors(self, tmp_path, capsys, argv, text):
        assert_input_error(run_cli(tmp_path, "solitary", *argv), capsys, text)

    @pytest.mark.parametrize("argv", [
        ["--a", "1", "--u", "0,-1,1", "--C", "0.3"],
        ["--C", "0.3", "--omega", "0.5"],
    ], ids=["u_and_a", "C_and_omega"])
    def test_solitary_rejects_conflicting_flags(self, capsys, argv):
        # argparse reports the conflict instead of dropping one of the flags
        with pytest.raises(SystemExit) as exc:
            main(["solitary", *argv])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("name,t_width,text", [
        ("trace.csv", "2.0", "window extends outside the trace"),
        ("trace.csv", "0.05", "window holds fewer than two trace samples"),
        ("report.txt", "1.0", "not a trace file"),
        ("short_row.csv", "1.0", "not a trace file"),
        ("one_row.csv", "1.0", "trace file too short"),
        ("directory", "1.0", "Is a directory"),
        ("repeated.csv", "1.0", "repeated.csv: trace times are not increasing and uniform"),
        ("gap.csv", "1.0", "gap.csv: trace times are not increasing and uniform"),
        ("nan.csv", "1.0", "nan.csv: trace values are not finite"),
        ("late.csv", "0.5", "late.csv: trace times are not increasing and uniform from 0"),
        ("bad_cell.csv", "1.0", "bad_cell.csv, line 3: could not convert string to float: 'abc'"),
    ], ids=["window", "narrow_window", "not_a_trace", "short_row", "one_row", "directory",
            "repeated_time", "time_gap", "nan_value", "late_start", "bad_cell"])
    def test_spectrum_input_errors(self, tmp_path, capsys, name, t_width, text):
        # a 1 s trace, a report file, a trace with a two-cell row, a one-row
        # trace and a directory beside it; traces with a repeated time, with
        # the times 0, 0.1, 0.7, 0.8, with a nan value, with the times 5.0, 5.1,
        # ..., 6.0 and with a cell that is not a number
        write_trace_csv(str(tmp_path / "trace.csv"),
                        TraceSeries(dt=0.1, z=np.ones(11, dtype=complex)))
        write_report(str(tmp_path / "report.txt"), {"solve": {"status": "completed"}})
        header = "t,re_z,im_z,abs_z,energy,charge\n"
        (tmp_path / "short_row.csv").write_text(header + "0.0,1.0\n")
        write_trace_csv(str(tmp_path / "one_row.csv"),
                        TraceSeries(dt=0.1, z=np.ones(1, dtype=complex)))
        (tmp_path / "directory").mkdir()
        for file, rows in (("repeated.csv", ("0.0,1.0", "0.0,1.0", "0.1,1.0")),
                           ("gap.csv", ("0.0,1.0", "0.1,1.0", "0.7,1.0", "0.8,1.0")),
                           ("nan.csv", ("0.0,1.0", "0.1,nan", "0.2,1.0")),
                           ("late.csv", [f"{5 + k / 10!r},1.0" for k in range(11)]),
                           ("bad_cell.csv", ("0.0,1.0", "0.1,abc", "0.2,1.0"))):
            (tmp_path / file).write_text(header + "".join(f"{r},0.0,1.0,,\n" for r in rows))
        code = run_cli(tmp_path, "spectrum", "--trace", str(tmp_path / name),
                       "--t-center", "0.5", "--t-width", t_width)
        assert_input_error(code, capsys, text)

    def test_attract_rejects_radius_before_solve(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(BASE_CFG)
        monkeypatch.setattr(cli, "solve_trace", None)  # any solve would fail
        code = run_cli(tmp_path, "attract", "--config", str(cfg), "--radius", "-1")
        assert_input_error(code, capsys, "R = -1.0 is outside [h, half_extent]")

    @pytest.mark.parametrize("windows", ["1", "0", "-3"])
    def test_attract_rejects_windows_before_solve(self, tmp_path, monkeypatch, capsys,
                                                  windows):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(BASE_CFG)
        monkeypatch.setattr(cli, "solve_trace", None)  # any solve would fail
        code = run_cli(tmp_path, "attract", "--config", str(cfg), "--windows", windows)
        assert_input_error(code, capsys, "--windows must be at least 2")

    def test_attract_rejects_short_run_before_solve(self, tmp_path, monkeypatch, capsys):
        # 50 steps of dt = 0.02 cannot hold one 64-step window
        cfg = tmp_path / "a.cfg"
        cfg.write_text(BASE_CFG)
        monkeypatch.setattr(cli, "solve_trace", None)  # any solve would fail
        code = run_cli(tmp_path, "attract", "--config", str(cfg), "--set", "time.T=1.0",
                       "--set", "time.dt=0.02", "--set", "outputs.snapshots=0.0",
                       "--set", "outputs.spectrum_windows=")
        assert_input_error(code, capsys, "time.T = 1.0 is shorter than 64 steps of dt = 0.02")

    def test_attract_solves_a_run_of_64_steps(self, tmp_path, monkeypatch):
        class Reached(Exception):
            pass

        def stub(*args, **kwargs):
            raise Reached

        cfg = tmp_path / "a.cfg"
        cfg.write_text(BASE_CFG)
        monkeypatch.setattr(cli, "solve_trace", stub)
        with pytest.raises(Reached):
            run_cli(tmp_path, "attract", "--config", str(cfg), "--set", "time.T=0.64",
                    "--set", "outputs.snapshots=0.0", "--set", "outputs.spectrum_windows=")

    def test_solitary_table(self, capsys):
        code = main(["solitary", "--u", "0,-1,1", "--mass", "1", "--C", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "C,kappa,omega"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        assert float(rows[0][1]) == pytest.approx(0.5)
        assert sorted(abs(float(r[2])) for r in rows) == pytest.approx(
            [np.sqrt(0.75)] * 2)

    def test_solitary_write(self, tmp_path, capsys):
        out = tmp_path / "sol"
        code = main(["--out", str(out), "solitary", "--u", "0,-1,1", "--mass", "1",
                     "--C", "0.5", "--write"])
        assert code == 0
        assert (out / "solitary.csv").read_text() == capsys.readouterr().out

    def test_solitary_at_omega_without_a_finite_root(self, capsys):
        # alpha(s) = 2 - 4e-320 s reaches 2 kappa only past the float range:
        # no wave, as at any omega with none
        assert main(["solitary", "--omega", "0.5", "--u", "0,-1,1e-320"]) == 0
        assert capsys.readouterr().out == "C,kappa,omega\n"

    def test_solitary_linear_family(self, capsys):
        code = main(["solitary", "--a", "1.0", "--mass", "1",
                     "--omega", str(np.sqrt(0.75))])
        assert code == 0
        assert "continuous family" in capsys.readouterr().out

    def test_solitary_at_omega_on_a_polynomial_model(self, capsys):
        # U(s) = -s/2 - 3 s^2 + s^3 (s = |psi|^2) has two waves at omega = 0.8,
        # both with kappa = sqrt(1 - 0.8^2); the amplitudes are the correctly
        # rounded roots of alpha(s) = 1 + 12 s - 6 s^2 = 2 kappa
        code = main(["solitary", "--omega", "0.8", "--u", "0,-0.5,-3,1"])
        assert code == 0
        assert capsys.readouterr().out == ("C,kappa,omega\n"
                                           "0.1296453614666754,0.5999999999999999,0.8\n"
                                           "1.4082585274906647,0.5999999999999999,0.8\n")
        with localcontext() as ctx:
            ctx.prec = 60
            level = 2 * Decimal(0.5999999999999999)
            disc = (144 + 24 * (1 - level)).sqrt()
            assert [float(((12 + sign * disc) / 12).sqrt()) for sign in (-1, 1)] == [
                0.1296453614666754, 1.4082585274906647]

    def test_spectrum_command(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SOLITARY_CFG)
        assert run_cli(tmp_path, "simulate", "--config", str(cfg)) == 0
        code = main(["--out", str(tmp_path / "spec_out"), "spectrum",
                     "--trace", str(tmp_path / "out" / "trace.csv"),
                     "--t-center", "2.0", "--t-width", "3.0"])
        assert code == 0
        spec = read_spectrum_csv(str(tmp_path / "spec_out" / "spectrum.csv"))
        assert len(spec.freqs) > 0

    def test_spectrum_command_rect_window(self, tmp_path, capsys):
        dt = 0.01
        tt = np.arange(2001) * dt
        trace = TraceSeries(dt=dt, z=np.exp(-1j * 0.8 * tt))
        p = str(tmp_path / "trace.csv")
        write_trace_csv(p, trace, [], [])
        code = main(["--out", str(tmp_path / "spec_out"), "spectrum", "--trace", p,
                     "--t-center", "10.0", "--t-width", "15.0", "--window", "rect"])
        assert code == 0
        spec = read_spectrum_csv(str(tmp_path / "spec_out" / "spectrum.csv"))
        assert spec.window is Window.RECT
        want = windowed_spectrum(trace, 10.0, 15.0, Window.RECT)
        assert np.allclose(spec.amps, want.amps, rtol=0.0, atol=1e-12 * np.abs(want.amps).max())
        hann = windowed_spectrum(trace, 10.0, 15.0, Window.HANN)
        assert not np.allclose(spec.amps, hann.amps)
        dom = float(capsys.readouterr().out.split("=")[1])
        assert abs(abs(dom) - 0.8) <= 2.0 * np.pi / 15.0

    def test_compare_command_and_refinement(self, tmp_path):
        # solitary data: both solvers cleanly second order, ratio ~ 4
        sups = []
        for label, n, dt in (("c1", 4097, 0.016), ("c2", 8193, 0.008)):
            text = SOLITARY_CFG.replace("n_points = 4097", f"n_points = {n}").replace(
                "dt = 0.01", f"dt = {dt}").replace(
                "snapshots = 0.0, 2.0, 4.0", "snapshots =").replace(
                "spectrum_windows = 1.0:4.0", "spectrum_windows =")
            cfg = tmp_path / f"{label}.cfg"
            cfg.write_text(text)
            out = tmp_path / f"out_{label}"
            assert main(["--out", str(out), "compare", "--config", str(cfg)]) == 0
            rep = read_report(str(out / "report.txt"))
            sups.append(float(rep["compare"]["sup_diff"]))
        assert sups[0] / sups[1] >= 2.0

    def test_compare_table_matches_full_grid_oracle(self, tmp_path):
        # compare.csv, rebuilt from the Volterra trace and the full-grid
        # leapfrog loop's, byte for byte
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(SOLITARY_CFG)
        assert run_cli(tmp_path, "compare", "--config", str(cfg_path)) == 0
        cfg = parse_config_text(SOLITARY_CFG)
        initial = build_initial_state(cfg)
        vol = volterra.solve_trace(cfg.model, initial, cfg.T, cfg.dt).trace
        fd = fd_oracle.fd_evolve(cfg.model, initial, cfg.T, cfg.dt).trace
        want = format_table(("t", "abs_z_volterra", "abs_z_fd", "abs_diff"),
                            [vol.times, np.abs(vol.z), np.abs(fd), np.abs(vol.z - fd)])
        assert (tmp_path / "out" / "compare.csv").read_bytes() == want.encode()

    def test_compare_rejects_cfl_violation(self, tmp_path):
        cfg = tmp_path / "cfl.cfg"
        cfg.write_text(BASE_CFG.replace("dt = 0.01", "dt = 0.04").replace(
            "T = 4.0", "T = 4.0"))
        code = run_cli(tmp_path, "compare", "--config", str(cfg))
        assert code == 2

    def test_sweep(self, tmp_path, monkeypatch):
        text = SEEDED_CFG.replace("snapshots = 0.0, 2.0, 4.0", "snapshots =").replace(
            "spectrum_windows = 1.0:4.0", "spectrum_windows =")
        cfg = tmp_path / "t.cfg"
        cfg.write_text(text)
        parsed = []
        parse = cli.parse_config_text
        monkeypatch.setattr(cli, "parse_config_text",
                            lambda text: parsed.append(text) or parse(text))
        out = tmp_path / "sweep_out"
        code = main(["--out", str(out), "sweep", "--config", str(cfg),
                     "--vary", "run.seed=1,2"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("run.seed,")
        assert len(lines) == 3
        assert len(parsed) == 2  # each combination is parsed once

    @pytest.mark.parametrize("vary,text", [
        ("run.seed", "--vary 'run.seed' is not section.key=v1,v2,..."),
        ("time.dt=0.01,0.013", "time.T = 4.0 is not an integer multiple of dt = 0.013"),
        ("run.sead=2,3", "unknown key run.sead"),
        ("time.dt=0.01,0.02,0.5", "dt = 0.5 too large for the implicit node"),
        # Gaussian data read no seed, so the rows would all be alike
        ("run.seed=1,2,3", "unknown key run.seed"),
        ("time.T=4.0,30.0", "horizon rule violated: half_extent = 40.0 < "
                            "data radius + T + 1 = 41.156"),
    ], ids=["no_values", "second_combination_invalid", "unknown_key", "step_too_large",
            "seed_of_gaussian_data", "second_combination_past_horizon"])
    def test_sweep_rejects_input_before_solve(self, tmp_path, monkeypatch, capsys, vary, text):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(BASE_CFG)
        monkeypatch.setattr(cli, "solve_trace", None)  # any solve would fail
        code = run_cli(tmp_path, "sweep", "--config", str(cfg), "--vary", vary)
        assert_input_error(code, capsys, text)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "attract", "compare"])
    def test_horizon_violation_writes_nothing(self, tmp_path, monkeypatch, capsys, command):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(BASE_CFG)
        for name in ("solve_trace", "solve_full"):
            monkeypatch.setattr(cli, name, None)  # any solve would fail
        code = run_cli(tmp_path, command, "--config", str(cfg), "--set", "time.T=30.0")
        assert_input_error(code, capsys, "horizon rule violated")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec,T,code,text", [
        # a wide packet off centre: its tail reaches the boundary, radius 40
        (GaussianSpec(0.5, 3.0, 25.0), "10.0", 2,
         "error: horizon rule violated: half_extent = 40.0 < data radius + T + 1 = 51.000\n"),
        # a compact packet: radius 6.76, so T = 25 keeps 7.2 of margin
        (GaussianSpec(0.5, 1.0, 0.0), "25.0", 0, ""),
    ], ids=["wide", "compact"])
    def test_from_file_horizon_reads_the_sampled_data(self, tmp_path, capsys, spec, T, code,
                                                      text):
        snap = tmp_path / "snap.csv"
        write_snapshot_csv(str(snap), gaussian_state(Grid(40.0, 2049), spec))
        cfg = tmp_path / "f.cfg"
        cfg.write_text(BASE_CFG.replace(GAUSSIAN_INITIAL, f"kind = from_file\npath = {snap}"))
        argv = ["simulate", "--config", str(cfg), "--set", f"time.T={T}"]
        assert run_cli(tmp_path, *argv) == code
        assert capsys.readouterr().err == text
        assert (tmp_path / "out").exists() == (code == 0)

    def test_attract(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(SOLITARY_CFG)
        out = tmp_path / "att_out"
        code = main(["--out", str(out), "attract", "--config", str(cfg),
                     "--windows", "2"])
        assert code == 0
        rep = read_report(str(out / "report.txt"))
        assert rep["matched_wave"]["kind"] == "solitary"
        assert float(rep["matched_wave"]["c"]) == pytest.approx(0.5, abs=1e-3)
        lines = (out / "attract_windows.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_attract_linear_model(self, tmp_path):
        cfg = tmp_path / "lin.cfg"
        cfg.write_text(BASE_CFG.replace("kind = polynomial\nmass = 1.0\ncoefficients = 0, -1, 1",
                                        "kind = linear\nmass = 1.0\na = 1.0"))
        out = tmp_path / "att_lin"
        assert main(["--out", str(out), "attract", "--config", str(cfg), "--windows", "2"]) == 0
        rep = read_report(str(out / "report.txt"))
        wave = rep["matched_wave"]
        assert wave["kind"] == "linear_span"
        assert float(wave["omega_a"]) == pytest.approx(np.sqrt(0.75), rel=1e-15)
        assert abs(complex(wave["c_plus"])) > 0.0 and abs(complex(wave["c_minus"])) > 0.0
        assert 0.0 < float(rep["omega_limit"]["rho"]) < np.inf

    def test_attract_zero_data(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(ZERO_CFG)
        out = tmp_path / "att_zero"
        assert main(["--out", str(out), "attract", "--config", str(cfg), "--windows", "2"]) == 0
        assert read_report(str(out / "report.txt"))["matched_wave"] == {"kind": "zero"}

    @pytest.mark.parametrize("command,name", [("simulate", "build_initial_state"),
                                              ("sweep", "solve_trace")])
    def test_out_of_memory_is_an_input_error(self, tmp_path, monkeypatch, capsys, command, name):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000000001,) and data type float64")

        monkeypatch.setattr(cli, name, exhausted)
        cfg = tmp_path / "g.cfg"
        cfg.write_text(BASE_CFG)
        code = run_cli(tmp_path, command, "--config", str(cfg))
        assert_input_error(code, capsys, "out of memory: Unable to allocate 7.28 TiB")

    # the benchmark's set-up probe and long_sweep hook these cli names
    @pytest.mark.parametrize("command,name", [
        ("simulate", "solve_full"), ("attract", "solve_trace"), ("compare", "solve_trace"),
        ("sweep", "solve_trace")])
    def test_commands_reach_the_bench_hooks(self, tmp_path, monkeypatch, command, name):
        class Reached(Exception):
            pass

        def stub(*args, **kwargs):
            raise Reached(name)

        monkeypatch.setattr(cli, name, stub)
        cfg = tmp_path / "g.cfg"
        cfg.write_text(BASE_CFG)
        with pytest.raises(Reached):
            run_cli(tmp_path, command, "--config", str(cfg))

    def test_attract_and_sweep_share_the_window_recipe(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text(BASE_CFG)
        assert main(["--out", str(tmp_path / "a"), "attract", "--config", str(cfg),
                     "--windows", "2"]) == 0
        assert main(["--out", str(tmp_path / "s"), "sweep", "--config", str(cfg)]) == 0
        omega_limit = read_report(str(tmp_path / "a" / "report.txt"))["omega_limit"]
        header, row = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        for key in ("in_gap_fraction", "omega_plus", "modulus_variation"):
            assert omega_limit[key] == cells[key], key

    def test_set_override(self, tmp_path):
        cfg = tmp_path / "o.cfg"
        cfg.write_text(ZERO_CFG)
        out = tmp_path / "ovr"
        code = main(["--out", str(out), "simulate", "--config", str(cfg),
                     "--set", "time.T=2.0", "--set", "outputs.snapshots=0.0",
                     "--set", "outputs.spectrum_windows=0.5:2.0"])
        assert code == 0
        times, _, _, _ = read_trace_csv(str(out / "trace.csv"))
        assert times[-1] == pytest.approx(2.0)

    def test_set_adds_missing_section(self, tmp_path):
        cfg = tmp_path / "o.cfg"
        cfg.write_text(ZERO_CFG[:ZERO_CFG.index("[outputs]")])
        out = tmp_path / "ovr"
        assert main(["--out", str(out), "simulate", "--config", str(cfg),
                     "--set", "outputs.snapshots=2.0"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["report.txt", "snapshot_t2.000000.csv",
                                                         "trace.csv"]


# values at the edges of what a config number can be, and no number at all
EXTREME_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", str(10 ** 30), "", "text")


@st.composite
def edited_configs(draw):
    """BASE_CFG, SOLITARY_CFG or SEEDED_CFG with one or two of its lines
    changed: the value replaced by an extreme one, or the key by a known key
    with one character changed."""
    lines = draw(st.sampled_from([BASE_CFG, SOLITARY_CFG, SEEDED_CFG])).splitlines()
    slots = [i for i, line in enumerate(lines) if " = " in line]
    for i in draw(st.lists(st.sampled_from(slots), min_size=1, max_size=2, unique=True)):
        key, value = lines[i].split(" = ")
        if draw(st.booleans()):
            value = draw(st.sampled_from(EXTREME_VALUES))
        else:
            at = draw(st.integers(0, len(key) - 1))
            key = key[:at] + draw(st.sampled_from("abcdeinorstx_")) + key[at + 1:]
        lines[i] = f"{key} = {value}"
    return "\n".join(lines)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(edited_configs())
def test_parse_build_solve_boundary(text):
    # each layer either refuses its input with its own error or hands the
    # next one something it can use: a config, finite data, a solve
    try:
        state = build_initial_state(cfg := parse_config_text(text))
    except ConfigError:
        return
    assert np.all(np.isfinite(state.psi)) and np.all(np.isfinite(state.pi))
    try:
        volterra.solve_trace(cfg.model, state, cfg.T, cfg.dt)
    except volterra.StepTooLargeError:
        pass


# flag values at the edges of what a float can be, and a few ordinary ones
FLAG_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "1.7e308", "0.5", "2",
               "40")
# config keys a --set or --vary draws; a spectrum window gets two values
SET_KEYS = ("model.mass", "model.coefficients", "grid.half_extent", "grid.n_points", "time.T",
            "time.dt", "initial.amplitude_re", "initial.width", "run.energy_tol",
            "outputs.snapshots", "outputs.spectrum_windows")


@st.composite
def cli_argvs(draw, cfg, trace):
    """argv of one subcommand, each of its flags present or not and given a
    value of FLAG_VALUES (as --flag=value, so a leading '-' stays a value)."""
    value = st.sampled_from(FLAG_VALUES)
    command = draw(st.sampled_from(["simulate", "solitary", "spectrum", "attract", "sweep",
                                    "compare"]))
    flags = {
        "solitary": [draw(st.sampled_from(["C", "omega"])), "mass", "a"],
        "spectrum": ["t-center", "t-width"],
        "attract": ["radius", "windows"],
    }.get(command, [])
    argv = [command] + [f"--{flag}={draw(value)}" for flag in flags
                        if flag in ("C", "omega", "t-center", "t-width") or draw(st.booleans())]
    if command == "solitary":
        if not argv[-1].startswith("--a=") and draw(st.booleans()):  # --u excludes --a
            argv.append(f"--u=0,-1,{draw(value)}")
    elif command == "spectrum":
        argv += [f"--trace={trace}", f"--window={draw(st.sampled_from(['hann', 'rect']))}"]
    else:
        argv.append(f"--config={cfg}")
        for key in draw(st.lists(st.sampled_from(SET_KEYS), max_size=2, unique=True)):
            text = draw(value) + (f":{draw(value)}" if key.endswith("windows") else "")
            argv.append(f"--{'vary' if command == 'sweep' else 'set'}={key}={text}")
    return argv


class Solved(Exception):
    pass


def _solved(*args, **kwargs):
    raise Solved


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A directory with a valid config and a 1 s trace, which also takes the outputs."""
    root = tmp_path_factory.mktemp("argv")
    (root / "g.cfg").write_text(BASE_CFG)
    write_trace_csv(str(root / "trace.csv"), TraceSeries(dt=0.1, z=np.ones(11, dtype=complex)))
    return root


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_main_never_raises(cli_inputs, data):
    # every flag value is checked before the solve (stubbed to raise Solved):
    # main returns an exit code, argparse exits 2, or the solve is reached;
    # nothing else raises, and a warning fails the test
    argv = data.draw(cli_argvs(cli_inputs / "g.cfg", cli_inputs / "trace.csv"))
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        mp.setattr(cli, "solve_trace", _solved)
        mp.setattr(cli, "solve_full", _solved)
        try:
            code = main(["--out", str(cli_inputs / "out"), *argv])
        except SystemExit as exc:  # argparse
            code = exc.code
            assert code == 2
        except Solved:
            return
    assert code in (0, 1, 2)
    if code == 2:
        assert all(line.startswith(("error: ", "usage: ", "  ", "kgpoint"))
                   for line in stderr.getvalue().splitlines()), stderr.getvalue()


def test_module_entry_point(monkeypatch, capsys):
    # python -m kgpoint.cli runs main and exits with its code
    monkeypatch.setattr(sys, "argv", ["kgpoint", "solitary", "--C", "0.5"])
    monkeypatch.delitem(sys.modules, "kgpoint.cli")  # run_module executes a fresh copy
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("kgpoint.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("C,kappa,omega\n")

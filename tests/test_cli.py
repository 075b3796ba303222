"""Command-line contract: CSV format, determinism, verify report shape."""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import count_solvers, traced_peak

from beyondrwa import BathParams, kernels, lie_channel, oracle
from beyondrwa import cli
from beyondrwa.cli import (PRESETS, ConcurrenceSurface, SweepSpec,
                           _channel_series, _fmt, _initial_states, _plateau,
                           beta2_grid, build_parser, compute_surface, main,
                           write_csv)
from beyondrwa.entanglement import concurrence_sectors, concurrence_xstate
from beyondrwa.lie_channel import IntegratorSettings
from beyondrwa.two_qubit import (BellFamilyState, evolve_pair, evolve_xstate,
                                 initial_state)

VERIFY_LINE = re.compile(r"^[\w\[\]]+\t\S+\t\S+\t(PASS|FAIL)$")

# the lines of a default verify, in order, with their bounds
VERIFY_CONTRACT = [
    *((f"{check}[{preset}]", "1e-06") for preset in "ABC"
      for check in ("direct_vs_channel", "magnus_vs_direct")),
    ("direct_trace[C]", "1e-08"), ("two_qubit_dual_path", "1e-12"),
    ("two_qubit_rho22_gap", "1e-12"), ("concurrence_dual_path", "1e-10"),
    ("kernel_alpha1", "1e-10"), ("kernel_alpha2", "1e-10"),
    ("kernel_alpha", "1e-10"), ("kernel_alpha_tilde", "1e-08"),
    ("kernel_decay_exponent", "1e-08"), ("rwa_residual", "1e-06"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_2(capsys, *argv) -> str:
    """stderr of a command that exits 2 with no output and no traceback."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "Traceback" not in err
    return err


def test_presets_catalog():
    assert set(PRESETS) == {"A", "B", "C", "RWA"}
    assert PRESETS["A"].omega0 == 100.0
    assert PRESETS["B"].omega0 == 10.0
    assert PRESETS["C"].omega0 == 3.0
    for p in PRESETS.values():
        assert p.lam == 10.0 and p.gamma == 1.0


def test_beta2_grid_clipping():
    grid = beta2_grid(5)
    assert grid[0] == 1e-4 and grid[-1] == 1.0 - 1e-4
    assert beta2_grid(51, fixed=0.0) == (1e-4,)
    assert beta2_grid(51, fixed=1.0) == (1.0 - 1e-4,)


def test_sweep_single_point_is_maximally_entangled(tmp_path, capsys):
    out = tmp_path / "one.csv"
    code, _, _ = run_cli(capsys, "sweep", "--preset", "B", "--beta2", "0.5",
                         "--tmax", "0", "--t-steps", "1", "--out", str(out))
    assert code == 0
    assert out.read_text() == "gamma_t,beta2,concurrence\n0,0.5,1\n"


def test_sweep_csv_contract_and_determinism(tmp_path, capsys):
    args = ("sweep", "--preset", "C", "--t-steps", "21", "--tmax", "5",
            "--beta2-steps", "5")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2

    lines = b1.decode().splitlines()
    assert lines[0] == "gamma_t,beta2,concurrence"
    assert len(lines) == 1 + 21 * 5
    rows = [line.split(",") for line in lines[1:]]
    gts = [float(r[0]) for r in rows]
    b2s = [float(r[1]) for r in rows]
    vals = [float(r[2]) for r in rows]
    # t outer, beta2 inner
    assert gts == sorted(gts)
    assert b2s[:5] == sorted(set(b2s))
    assert all(0.0 <= v <= 1.0 + 1e-9 for v in vals)


def test_sweep_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--preset", "C", "--beta2", "0.25",
                           "--t-steps", "3", "--tmax", "1")
    assert code == 0
    assert out.startswith("gamma_t,beta2,concurrence\n")
    assert len(out.splitlines()) == 4


def test_sweep_reuses_one_integration(capsys, monkeypatch):
    calls = []
    for name in ("propagate", "integrate"):
        monkeypatch.setattr(lie_channel, name,
                            lambda *a, _name=name, _fn=getattr(lie_channel, name), **k:
                            calls.append(_name) or _fn(*a, **k))
    code, out, _ = run_cli(capsys, "sweep", "--preset", "B", "--t-steps", "11",
                           "--tmax", "2", "--beta2-steps", "7")
    assert code == 0
    assert calls == ["propagate"]
    assert len(out.splitlines()) == 1 + 11 * 7


BLOWUP_ARGS = ("--preset", "C", "--lambda", "100", "--tmax", "20",
               "--t-steps", "5")


def _trace_rows(capsys, *argv) -> np.ndarray:
    """The rows of a trace that exits 0 with nothing on stderr, each finite:
    the channel's own coefficients."""
    code, out, err = run_cli(capsys, "trace", *argv)
    assert code == 0 and err == ""
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in out.splitlines()[1:]])
    assert np.all(np.isfinite(rows))
    return rows


def test_trace_runs_past_the_wei_norman_overflow(capsys):
    # at lam = 100 gamma, e^{+Gamma_k} alone leaves float range between
    # gamma t = 10 and 15; the sector propagators stay bounded, and every
    # row matches the direct route
    rows = _trace_rows(capsys, *BLOWUP_ARGS)
    gts = rows[:, 0]
    assert gts.tolist() == [0.0, 5.0, 10.0, 15.0, 20.0]
    ref = oracle.direct_channel(BathParams(omega0=3.0, gamma=1.0, lam=100.0), gts)
    expected = np.column_stack((ref.l, ref.m, ref.n, ref.p, ref.x.real,
                                ref.x.imag, ref.y.real, ref.y.imag))
    assert np.max(np.abs(rows[:, 1:9] - expected)) < 1e-6
    # and on preset A past gamma t = 140, where e^{+Gamma_k} overflows
    assert _trace_rows(capsys, "--preset", "A", "--tmax", "200",
                       "--t-steps", "5").shape == (5, 13)


def test_sweep_runs_past_the_wei_norman_overflow(capsys):
    # the arguments of the trace above: the sector propagators stay
    # bounded, and every row matches the direct route
    code, out, err = run_cli(capsys, "sweep", *BLOWUP_ARGS, "--beta2", "0.5")
    assert code == 0
    assert err == ""
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    gts = np.array([r[0] for r in rows])
    vals = np.array([r[2] for r in rows])
    assert gts.tolist() == [0.0, 5.0, 10.0, 15.0, 20.0]
    assert np.all(np.isfinite(vals))
    p = BathParams(omega0=3.0, gamma=1.0, lam=100.0)
    rho0 = initial_state(BellFamilyState("phi", math.sqrt(0.5)))
    ref = concurrence_xstate(evolve_pair(oracle.direct_channel(p, gts), rho0)).value
    assert np.max(np.abs(vals - ref)) < 1e-6


def test_propagate_matches_a_tight_direct_reference_off_preset_a():
    # omega0 and lam of a perturbed preset A where a direct route that
    # solved each probe state on its own at the default rel_tol 1e-9 was
    # itself about 2e-6 off (at gamma t = 0.5, beta^2 = 0.5); against a
    # 1e-12 reference the propagator is within 4e-7, and the one direct
    # propagator at the default rel_tol is within 1e-6 too
    p = BathParams(omega0=100.50897508788049, gamma=1.0, lam=10.02429376385862)
    gts = np.linspace(0.0, 1.0, 21)
    rho0s = np.array([initial_state(BellFamilyState("phi", math.sqrt(b2)))
                      for b2 in beta2_grid(51)])
    ref = concurrence_xstate(evolve_pair(
        oracle.direct_channel(p, gts, IntegratorSettings(rel_tol=1e-12)), rho0s))
    for series in (lie_channel.propagate(p, gts), oracle.direct_channel(p, gts)):
        got = concurrence_xstate(evolve_pair(series, rho0s))
        assert np.max(np.abs(got.value - ref.value)) < 1e-6


def test_parameter_overrides_and_seedless(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--preset", "B", "--omega0", "5",
                           "--lambda", "2", "--gamma", "0.5", "--seedless",
                           "--beta2", "0.5", "--t-steps", "3", "--tmax", "1",
                           "--state", "psi", "--phase", "0.3")
    assert code == 0
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("override", ["--omega0=inf", "--lambda=nan",
                                      "--gamma=-inf"])
def test_sweep_rejects_non_finite_parameters(capsys, override):
    err = exit_2(capsys, "sweep", "--preset", "C", override, "--t-steps", "3",
                 "--tmax", "1")
    assert "error:" in err and "finite" in err


@pytest.mark.parametrize("flag, value", [("--gamma", "1e-300"), ("--tmax", "1e12"),
                                         ("--omega0", "1e12"), ("--lambda", "1e12")])
def test_sweep_refuses_a_grid_of_too_many_magnus_steps(capsys, flag, value):
    # the step count, 4e303 or 4e14, is checked before any cast or
    # allocation: it once wrapped past int64 or asked for 2e11 pieces
    err = exit_2(capsys, "sweep", "--preset", "C", flag, value, "--t-steps", "3",
                 "--beta2", "0.5")
    assert "error:" in err and "Magnus steps" in err and "1e+08" in err
    # the remedy names the flag whose term sets the Magnus step: at omega0
    # or lam 1e12 it is pi/(32 omega0) or 1/(40 lam)
    assert flag in err
    others = {"--omega0": "--lambda", "--lambda": "--omega0"}
    assert others.get(flag, "none") not in err


@pytest.mark.parametrize("command", ["sweep", "report", "trace"])
def test_refuses_a_grid_whose_physical_times_overflow(capsys, command):
    # gamma_t / gamma overflowed to inf with two numpy warnings, and the
    # grid check then blamed the spacing of the times
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = exit_2(capsys, command, "--preset", "C", "--gamma", "1e-320",
                     "--t-steps", "5")
    assert "error:" in err and "--gamma" in err and "--tmax" in err
    assert "strictly increasing" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture(scope="module")
def verify_at_rel_tol_1e_6():
    """Exit code of verify --preset C --rel-tol 1e-6."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(["verify", "--preset", "C", "--rel-tol", "1e-6"])


@pytest.mark.parametrize("command", ["sweep", "report", "trace"])
def test_rel_tol_only_on_adaptive_commands(capsys, command,
                                           verify_at_rel_tol_1e_6):
    # sweep, report and trace take fixed Magnus steps or the rotating-wave
    # closed form and have no tolerance to set; verify's integrations refine
    # the intervals whose equal DOP853 steps miss it
    assert "unrecognized arguments: --rel-tol" in exit_2(
        capsys, command, "--preset", "C", "--rel-tol", "1e-6")
    assert verify_at_rel_tol_1e_6 == 0


def _per_cell_csv(surface) -> str:
    """write_csv's bytes, one _fmt per cell."""
    lines = ["gamma_t,beta2,concurrence\n"]
    for gt, row in zip(surface.gamma_t, surface.values):
        for b2, v in zip(surface.beta2, row):
            lines.append(f"{_fmt(gt)},{_fmt(b2)},{_fmt(v)}\n")
    return "".join(lines)


def _csv(surface) -> str:
    out = io.StringIO()
    write_csv(surface, out)
    return out.getvalue()


def test_write_csv_matches_per_cell_formatting():
    gts = np.linspace(0.0, 10.0, 11)
    b2s = np.array([1e-4, 0.1, 1.0 / 3.0, 0.9999])
    values = np.random.default_rng(3).random((gts.size, b2s.size))
    values[4, 1] = np.nan
    values[:, 3] = np.nan
    values[5, 0] = -0.0
    values[6] = np.nan
    values[1] = [np.inf, -np.inf, 5e-324, 0.1 + 0.2]
    values[3, :3] = [1.0 / 3.0, 2.0 ** -1074 * 3, -np.nextafter(1.0, 2.0)]
    values[2] = 0.0                    # all +0.0: the zero template
    values[7] = 0.0                    # all +0.0 after the all-NaN row 6
    values[8] = -0.0                   # all -0.0 keeps its sign
    values[9] = [0.0, -0.0, 0.0, 0.0]  # +0.0 and -0.0 mixed
    values[10] = [0.0, 0.0, 0.0, np.nan]
    surface = ConcurrenceSurface(gamma_t=gts, beta2=b2s, values=values)
    text = _csv(surface)
    assert text == _per_cell_csv(surface)
    assert "NaN" in text and "nan" not in text and ",0\n" in text
    assert ",inf\n" in text and ",-inf\n" in text
    assert ",4.9406564584124654e-324\n" in text
    assert ",0.30000000000000004\n" in text and ",-1.0000000000000002\n" in text
    assert text.count(",-0\n") == 6 and "\n7,0.0001,0\n" in text
    assert text.endswith(",0\n10,0.99990000000000001,NaN\n")
    # no beta^2 column: the header alone, as with the per-cell join
    assert _csv(ConcurrenceSurface(gamma_t=gts, beta2=b2s[:0],
                                   values=values[:, :0])) == \
        "gamma_t,beta2,concurrence\n"


def test_write_csv_matches_per_cell_formatting_along_a_dense_time_axis():
    # the shape of a one-beta^2 sweep on 40001 times: runs of dead rows
    # between live ones, -0.0 and NaN cells among them
    gts = np.linspace(0.0, 10.0, 40001)
    values = np.random.default_rng(5).random((gts.size, 1))
    values[1000:30000] = 0.0
    values[::997] = -0.0
    values[::1009] = np.nan
    surface = ConcurrenceSurface(gamma_t=gts, beta2=np.array([0.5]),
                                 values=values)
    text = _csv(surface)
    assert text == _per_cell_csv(surface)
    assert text.count(",0.5,0\n") > 28000 and ",0.5,-0\n" in text


# cells write_csv treats apart: signed zeros, NaN, infinities, subnormals
_EDGE_CELLS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               2.2250738585072009e-308, -1e-310)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(0, 6), cols=st.integers(0, 5))
def test_write_csv_property_matches_per_cell_formatting(data, rows, cols):
    cell = st.one_of(st.sampled_from(_EDGE_CELLS), st.floats())
    values = np.array(data.draw(st.lists(st.lists(cell, min_size=cols,
                                                  max_size=cols),
                                         min_size=rows, max_size=rows)),
                      dtype=float).reshape(rows, cols)
    # whole rows forced to +0.0: the zero template's rows
    if rows:
        for i in data.draw(st.lists(st.integers(0, rows - 1), max_size=3)):
            values[i] = 0.0
    axis = lambda n: np.array(data.draw(st.lists(st.floats(), min_size=n,
                                                 max_size=n)), dtype=float)
    surface = ConcurrenceSurface(gamma_t=axis(rows), beta2=axis(cols),
                                 values=values)
    assert _csv(surface) == _per_cell_csv(surface)


def test_verify_integrates_each_preset_once(default_verify):
    # one Wei-Norman integration and one direct channel per preset serve
    # every check; the output contract stays the 16 lines, in order
    code, rows, calls = default_verify
    assert code == 0
    assert [(r[0], r[2]) for r in rows] == VERIFY_CONTRACT
    assert calls == {"integrate": list("ABC"), "direct_channel": list("ABC")}


@pytest.mark.parametrize("name, bound", VERIFY_CONTRACT,
                         ids=[name for name, _ in VERIFY_CONTRACT])
def test_verify_check_passes(default_verify, name, bound):
    [row] = [r for r in default_verify[1] if r[0] == name]
    assert row[2:] == [bound, "PASS"] and float(row[1]) < float(bound)


def test_verify_one_preset_integrates_it_and_c(capsys, monkeypatch):
    # the two-qubit checks and direct_trace[C] always run on preset C
    calls = count_solvers(monkeypatch)
    assert run_cli(capsys, "verify", "--preset", "A")[0] == 0
    assert calls == {"integrate": ["A", "C"], "direct_channel": ["A", "C"]}


def test_verify_survives_a_failing_integration(capsys, monkeypatch):
    calls = count_solvers(monkeypatch, failing="C")
    code, out, err = run_cli(capsys, "verify", "--preset", "C")
    assert code == 1
    rows = [line.split("\t") for line in out.splitlines()]
    assert [r[0] for r in rows] == ["aborted_ToleranceError"] * 3 + [
        name for name, _ in VERIFY_CONTRACT[-6:]]
    assert [r[3] for r in rows] == ["FAIL"] * 3 + ["PASS"] * 6
    # the failure is remembered: the three check groups share one attempt
    assert calls["integrate"] == ["C"]
    assert err.count("warning: check group raised ToleranceError") == 3
    assert "Traceback" not in err


def test_verify_keeps_the_records_before_a_failure_mid_group(capsys,
                                                             monkeypatch):
    # a check that raises keeps the records it already yielded; the checks
    # that never ask for preset B still pass
    calls = count_solvers(monkeypatch, failing="B")
    code, out, err = run_cli(capsys, "verify")
    rows = [line.split("\t") for line in out.splitlines()]
    aborted = ["aborted_ToleranceError", "inf", "0", "FAIL"]
    names = [name for name, _ in VERIFY_CONTRACT]
    assert [r[0] for r in rows] == [*names[:2], aborted[0], *names[7:9],
                                    aborted[0], *names[10:]]
    assert all(r == aborted or r[3] == "PASS" for r in rows)
    assert code == 1 and err.count("warning: check group raised") == 2
    assert calls == {"integrate": list("ABC"), "direct_channel": list("AB")}


def test_verify_fails_when_the_oracle_refuses_every_state(capsys, monkeypatch):
    # NaN is the spin-flip oracle's refusal; refusing all once read 0, PASS
    monkeypatch.setattr("beyondrwa.cli.concurrence_general",
                        lambda rho: np.full(rho.shape[:-2], np.nan))
    code, out, err = run_cli(capsys, "verify", "--preset", "C")
    assert code == 1 and "concurrence_dual_path\tinf\t1e-10\tFAIL" in out
    assert "note: 840 grid states skipped" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--preset", "C", "--rel-tol", "0"),
    ("verify", "--preset", "C", "--rel-tol", "-1"),
    ("verify", "--rel-tol", "nan"),
])
def test_unusable_tolerance_exits_2(capsys, argv):
    err = exit_2(capsys, *argv)
    assert "error:" in err and "--rel-tol" in err


@pytest.mark.parametrize("flag, value", [
    ("--beta2", "1.5"), ("--beta2", "-0.1"), ("--beta2-steps", "0"),
    ("--tmax", "0"), ("--tmax", "-1"), ("--t-steps", "0"),
    ("--phase", "inf"), ("--phase", "nan"),
])
def test_sweep_rejects_unusable_grid_flags(capsys, flag, value):
    err = exit_2(capsys, "sweep", "--preset", "C", flag, value)
    assert f"error: {flag} " in err and "strictly increasing" not in err


def test_verify_abbreviated_preset_runs_only_that_preset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pres", "C")
    assert code == 0
    lines = out.splitlines()
    assert all(VERIFY_LINE.match(line) and line.endswith("PASS")
               for line in lines)
    assert [line.split("\t")[0] for line in lines] == [
        name for name, _ in VERIFY_CONTRACT if not name.endswith(("[A]", "[B]"))]


# the flags of the initial pair states, which trace does not evolve
PAIR_FLAGS = ("--state", "--beta2", "--phase", "--beta2-steps")


@pytest.mark.parametrize("argv", [
    *(f"trace {flag} 1" for flag in PAIR_FLAGS),
    "trace --tmax 0", "trace --tmax -1", "trace --t-steps 0",
    "report --t-steps 1", "report --t-steps 2",   # a report needs 3 samples
    # the rotating-wave amplitude does not read omega0
    "sweep --omega0 5", "report --omega0 5", "trace --omega0 5",
])
def test_trace_and_report_reject_unusable_flags(tmp_path, capsys, argv):
    # refused before any computing or writing
    command, flag, value = argv.split()
    path = tmp_path / "out.txt"
    err = exit_2(capsys, command, "--preset", "RWA", flag, value,
                 "--out", str(path))
    assert (f"unrecognized arguments: {flag}" if flag in PAIR_FLAGS
            else f"error: {flag} ") in err
    assert not path.exists()


def test_verify_rejects_the_rwa_preset(capsys):
    # its placeholder omega0 would check preset B's generator again under
    # the name RWA; rwa_residual covers the rotating-wave channel
    assert "invalid choice" in exit_2(capsys, "verify", "--preset", "RWA")


# the package sources, for checks that need a fresh interpreter
SRC = Path(__file__).resolve().parents[1] / "src"

# sweep, report and trace run on NumPy alone; verify loads SciPy's QUADPACK
# extension and nothing of scipy.integrate, scipy.special, scipy.optimize,
# scipy.sparse or scipy.linalg.  The probe prints the SciPy modules loaded
# after each command, and the exit code, stdout and stderr of the verify its
# arguments name
IMPORT_PROBE = """
import contextlib, io, json, sys
import numpy as np
from beyondrwa import cli, kernels, lie_channel
from beyondrwa.errors import ToleranceError
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
seen = {"import": loaded()}
for argv in (["sweep", "--preset", "A"],
             ["report", "--preset", "RWA", "--beta2", "0.5"],
             ["trace", "--preset", "A"], ["trace", "--preset", "RWA"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    seen[" ".join(argv)] = loaded()
# how often the generated DOP853 stages were built: by none of the commands
# above, once by the pole run, and once by verify after a cache_clear
built = [lie_channel._riccati_stages.cache_info().misses]
# the Wei-Norman route run into the pole of k+ = tan t, to its ToleranceError
coefficients = kernels.coefficients
# every field of the times' shape, as in kernels.coefficients
kernels.coefficients = lambda t, p: kernels.CoefficientSet(
    *(np.full(np.shape(t), v) for v in (0j, 0j, 0.0, 1.0, -1.0)))
try:
    lie_channel.integrate(cli.PRESETS["C"], [0.2 * i for i in range(11)])
except ToleranceError:
    seen["pole"] = loaded()
kernels.coefficients = coefficients
built.append(lie_channel._riccati_stages.cache_info().misses)
lie_channel._riccati_stages.cache_clear()
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(sys.argv[1:])
seen["verify"] = loaded()
built.append(lie_channel._riccati_stages.cache_info().misses)
print(json.dumps([seen, [code, out.getvalue(), err.getvalue()], built]))
"""
VERIFY_ARGV = ["verify", "--preset", "C"]


@pytest.fixture(scope="module")
def fresh_probe():
    """What IMPORT_PROBE printed: the modules seen, verify's run, and how
    often the DOP853 stages were built."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *VERIFY_ARGV],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_sweep_and_report_never_load_scipy(fresh_probe):
    # nor does the Wei-Norman route, up to the ToleranceError of a pole
    seen = dict(fresh_probe[0])
    del seen["verify"]
    assert len(seen) == 6 and all(mods == [] for mods in seen.values())


def test_verify_loads_quadpack_alone(fresh_probe, capsys):
    # the QUADPACK extension, without scipy.integrate's package and the
    # subpackages its import pulls in
    seen, run, _ = fresh_probe
    mods = seen["verify"]
    assert "scipy.integrate._quadpack" in mods and "scipy.integrate" not in mods
    heavy = ("scipy.special", "scipy.optimize", "scipy.sparse", "scipy.linalg")
    assert not [m for m in mods if m.startswith(heavy)]
    # and prints what it prints in this process, where scipy.integrate is
    # loaded
    assert list(run_cli(capsys, *VERIFY_ARGV)) == run
    assert run[0] == 0 and run[1].count("\n") == 12 and "note:" in run[2]


def test_only_the_wei_norman_route_builds_its_stages(fresh_probe):
    # sweep, report and trace never pay the compile of the generated DOP853
    # stages; the Wei-Norman route builds them once per process
    assert fresh_probe[2] == [0, 1, 1]


# records OpenBLAS's thread timeout at the moment NumPy is first imported
BLAS_PROBE = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.meta_path.insert(0, Spy())
import beyondrwa
print(seen[0])
"""


@pytest.mark.parametrize("preset, want", [(None, "24"), ("20", "20")])
def test_blas_threads_sleep_unless_the_caller_chose(preset, want):
    # OpenBLAS reads the timeout when NumPy loads it, so the package sets
    # it before its first NumPy import, and keeps a value already set
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [want]


def test_verify_rejects_parameter_overrides(capsys):
    # verify checks the stock presets only; an override must not be ignored,
    # and the step cap is fixed by the preset
    assert "unrecognized arguments" in exit_2(capsys, "verify", "--omega0", "5",
                                              "--lambda", "0.1")
    assert "unrecognized arguments" in exit_2(capsys, "verify", "--uncap-step")


# the -- options of each command; a new knob has to be added here
_TRACE_FLAGS = {"--seedless", "--preset", "--omega0", "--lambda", "--gamma",
                "--out", "--tmax", "--t-steps", "--truncated-rwa"}
_STATE_FLAGS = {"--state", "--beta2", "--phase", "--beta2-steps"}
COMMAND_FLAGS = {
    "sweep": _TRACE_FLAGS | _STATE_FLAGS,
    "report": _TRACE_FLAGS | _STATE_FLAGS,
    "trace": _TRACE_FLAGS,
    "verify": {"--seedless", "--rel-tol", "--preset"},
}


def test_each_command_takes_exactly_its_flags():
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(COMMAND_FLAGS)
    for name, sub in commands.choices.items():
        flags = {o for a in sub._actions for o in a.option_strings
                 if o.startswith("--") and o != "--help"}
        assert flags == COMMAND_FLAGS[name], name


def test_verify_degraded_tolerance_stays_well_formed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "C",
                           "--rel-tol", "1e-3")
    assert all(VERIFY_LINE.match(line) for line in out.splitlines())
    assert code in (0, 1)


def test_verify_fails_an_injected_fault(capsys, monkeypatch):
    # negative control for the 1e-6 bounds: the direct route's generator
    # turns the coherence 1e-5 too fast (eps0 x (1 + 1e-5)), which moves it
    # by 7.5e-6 by gamma t = 10 on preset C; both lines that compare a
    # channel with that route fail, and its trace, which eps0 does not
    # touch, passes
    def faulty(t, p):
        c = kernels.coefficients(t, p)
        return c._replace(eps0=c.eps0 * (1.0 + 1e-5))

    direct = oracle.direct_channel
    monkeypatch.setattr(oracle, "direct_channel",
                        lambda p, ts, settings: direct(p, ts, settings, faulty))
    code, out, _ = run_cli(capsys, "verify", "--preset", "C")
    rows = {line.split("\t")[0]: line.split("\t")[1:] for line in out.splitlines()}
    assert code == 1
    for name in ("direct_vs_channel[C]", "magnus_vs_direct[C]"):
        dev, bound, mark = rows[name]
        assert mark == "FAIL" and 3e-6 < float(dev) < 3e-5
    assert rows["direct_trace[C]"][2] == "PASS"


def test_report_structure(capsys):
    code, out, _ = run_cli(capsys, "report", "--preset", "RWA", "--beta2",
                           "0.5", "--t-steps", "2001", "--tmax", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# preset=RWA")
    assert lines[1].split("\t") == ["beta2", "death_gamma_t", "revivals",
                                    "max_revival", "plateau_start",
                                    "plateau_end", "plateau_level"]
    fields = lines[2].split("\t")
    assert len(fields) == 7
    assert fields[0] == "0.5"
    assert fields[1] == "none" or float(fields[1]) >= 0.0
    assert int(fields[2]) >= 0


@pytest.mark.parametrize("tmax, steps", [("1e-300", "5"), ("1e200", "7")])
def test_report_refuses_a_grid_its_slopes_cannot_take(capsys, tmax, steps):
    # np.gradient divides by products of neighbouring spacings: 2.5e-301
    # squared underflows to 0 and 1.7e199 squared overflows, which printed
    # RuntimeWarnings and a plateau row that meant nothing, with exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = exit_2(capsys, "report", "--preset", "RWA", "--beta2", "0.5",
                     "--tmax", tmax, "--t-steps", steps)
    assert "error: --tmax" in err and "--t-steps" in err


def test_surface_matches_the_general_pair_route():
    # compute_surface evolves only the X sectors; evolve_pair squares the
    # whole transfer matrix
    p = PRESETS["C"]
    spec = SweepSpec(params=p, family="psi", eta_phase=0.9,
                     beta2_values=beta2_grid(41))
    surface = compute_surface(spec)
    series = lie_channel.propagate(p, surface.gamma_t / p.gamma)
    rho = evolve_pair(series, _initial_states("psi", surface.beta2, 0.9))
    assert np.max(np.abs(surface.values - concurrence_xstate(rho).value)) <= 1e-15


def test_surface_bits_do_not_depend_on_the_block_size(monkeypatch):
    # the X blocks are read once; each time block only multiplies them.
    # (cells, times): one row at a time, the defaults, rows capped by the
    # times and not the cells, and the whole grid in one block; on a
    # surface and on one state, as a report evolves
    for b2s, t_steps in ((beta2_grid(41), 61), ((0.3,), 2501)):
        spec = SweepSpec(params=PRESETS["C"], family="psi", eta_phase=0.7,
                         beta2_values=b2s, t_steps=t_steps)
        surfaces = []
        for cells, times in ((7, 1024), (4096, 1024), (10 ** 6, 5), (10 ** 6, 10 ** 6)):
            monkeypatch.setattr(cli, "SURFACE_BLOCK_CELLS", cells)
            monkeypatch.setattr(cli, "SURFACE_BLOCK_TIMES", times)
            surfaces.append(compute_surface(spec).values)
        gts = np.linspace(0.0, spec.t_max, spec.t_steps)
        series = _channel_series(spec, gts / spec.params.gamma)
        rho0s = _initial_states("psi", np.array(b2s), 0.7)
        whole = concurrence_sectors(*evolve_xstate(series, rho0s)).value
        for values in surfaces:
            assert values.tobytes() == whole.tobytes()


def test_compute_surface_keeps_its_memory_to_a_block():
    # 1.85 MB on the wide surface, 0.8 MB of it the result, and 4.8 MB on
    # the dense report, most of it rwa_channel; one block for the whole
    # grid peaks at 17 and 25 MB, and blocks of 4096 times, as the cell
    # bound alone would give the report, at 9.8 MB
    wide = SweepSpec(params=PRESETS["C"], family="psi", beta2_values=beta2_grid(501))
    report = SweepSpec(params=PRESETS["RWA"], channel="rwa",
                       beta2_values=beta2_grid(1, 0.5), t_steps=40001)
    assert traced_peak(compute_surface, wide) < 2_200_000
    assert traced_peak(compute_surface, report) < 5_800_000


def test_report_keeps_the_gross_negativity_guard(capsys):
    # at lam = 100 gamma the second-order generator drives a population
    # below the guard's -0.1; the whole report is refused
    err = exit_2(capsys, "report", "--preset", "C", "--lambda", "100",
                 "--tmax", "20", "--t-steps", "401", "--beta2-steps", "2")
    assert err == "error: diagonal element -0.102 below -0.1\n"


def test_plateau_is_the_first_of_the_longest_flat_runs():
    gts = np.arange(12.0)
    # central slopes are flat on samples 0-2 and 6-8 (equal spans), steep
    # between and after
    vals = np.array([1.0, 1.0, 1.0, 1.0, 3.0, 5.0, 5.0, 5.0, 5.0, 5.0, 7.0, 9.0])
    assert _plateau(gts, vals) == (0, 2)
    assert _plateau(gts, vals[::-1].copy()) == (3, 5)
    assert _plateau(gts, np.zeros(12)) == (0, 11)
    assert _plateau(gts, gts) is None


def test_trace_dump(capsys):
    code, out, _ = run_cli(capsys, "trace", "--preset", "B", "--t-steps", "5",
                           "--tmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma_t,l,m,n,p,x_re,x_im,y_re,y_im,q_re,q_im,r_re,r_im"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[:5] == [0.0, 1.0, 0.0, 1.0, 0.0]


# flag values beside each drawn range: refused ones, and extremes whose step
# counts or physical times leave the range the commands accept
_EDGES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300])


def _value(lo: float, hi: float):
    return st.one_of(_EDGES, st.floats(lo, hi))


@st.composite
def _command_lines(draw) -> list:
    """Argument lists of sweep, report and trace.  Inside the drawn ranges
    omega0/gamma stays at most 1000 (preset A over --gamma 0.1), lam/gamma
    at most 300 and gamma t at most 10, so a run takes at most about 1e5
    Magnus steps; preset A at --tmax 13000 alone takes 13 s."""
    command = draw(st.sampled_from(["sweep", "report", "trace"]))
    argv = [command, f"--preset={draw(st.sampled_from(sorted(PRESETS)))}",
            f"--tmax={draw(_value(0.0, 10.0))!r}",
            f"--t-steps={draw(st.integers(-1, 30))}"]
    for flag, lo, hi in (("--omega0", 0.1, 30.0), ("--lambda", 0.1, 30.0),
                         ("--gamma", 0.1, 10.0)):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(_value(lo, hi))!r}")
    if draw(st.booleans()):
        argv.append("--truncated-rwa")
    if command != "trace":
        argv += [f"--state={draw(st.sampled_from(['phi', 'psi']))}",
                 f"--beta2-steps={draw(st.integers(-1, 5))}",
                 f"--phase={draw(_value(-10.0, 10.0))!r}"]
        if draw(st.booleans()):
            argv.append(f"--beta2={draw(_value(-0.5, 1.5))!r}")
    return argv


def _is_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


@settings(max_examples=60, deadline=None)
@given(argv=_command_lines())
# the breaks this test found: an override refused without its flag, NaN
# cells beside NumPy warnings (the Magnus commutator, the coupling rate and
# the weak-coupling rotating-wave amplitude out of float range), and a grid
# whose samples coincide refused without a flag
@example(argv=["trace", "--preset=A", "--tmax=0.0", "--t-steps=1", "--omega0=nan"])
@example(argv=["sweep", "--preset=A", "--tmax=0.0", "--t-steps=1", "--omega0=1e+300"])
@example(argv=["trace", "--preset=C", "--tmax=8.0", "--t-steps=5", "--lambda=1e+300",
               "--gamma=1e+300"])
@example(argv=["report", "--preset=RWA", "--tmax=2000.0", "--t-steps=2001",
               "--lambda=0.1", "--beta2=0.5"])
@example(argv=["sweep", "--preset=C", "--tmax=5e-324", "--t-steps=23"])
def test_command_line_input_contract(argv):
    # whatever the flags, a command exits 0 or 2 with no traceback and no
    # warning; a refusal names the flag to change, and what a command
    # writes holds numbers (NaN in sweep's cut cells, "none" in a report),
    # never inf
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert re.search(r"--[a-z]", err.getvalue()), err.getvalue()
        return
    assert code == 0 and err.getvalue() == ""
    lines = out.getvalue().splitlines()
    if argv[0] == "report":
        cells = [c for line in lines[2:] for c in line.split("\t")]
        assert all(c == "none" or _is_number(c) for c in cells), lines
    else:
        cells = [c for line in lines[1:] for c in line.split(",")]
        assert all(c == "NaN" or _is_number(c) for c in cells), lines


def test_truncated_flag(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--preset", "B", "--truncated-rwa",
                           "--beta2", "0.5", "--t-steps", "3", "--tmax", "1")
    assert code == 0
    assert len(out.splitlines()) == 4


def test_truncated_flag_rejects_rwa_preset(capsys):
    assert "error:" in exit_2(capsys, "sweep", "--preset", "RWA",
                              "--truncated-rwa", "--t-steps", "3", "--tmax", "1")


def test_unwritable_output_exits_2(tmp_path, capsys):
    assert "error:" in exit_2(capsys, "sweep", "--preset", "C", "--beta2", "0.5",
                              "--t-steps", "3", "--tmax", "1",
                              "--out", str(tmp_path / "nope" / "x.csv"))


def test_traced_functions_exist():
    # perfbench/tracer.py wraps these by name; a missing one breaks --trace 1
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, funcs in tracer.TRACED.values():
        module = importlib.import_module("beyondrwa." + modname)
        for fname in funcs:
            assert callable(getattr(module, fname, None)), f"{modname}.{fname}"

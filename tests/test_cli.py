"""Command-line contract: CSV format, determinism, verify report shape."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from beyondrwa import lie_channel
from beyondrwa.cli import PRESETS, beta2_grid, main

VERIFY_LINE = re.compile(r"^[\w\[\]]+\t\S+\t\S+\t(PASS|FAIL)$")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets_catalog():
    assert set(PRESETS) == {"A", "B", "C", "RWA"}
    assert PRESETS["A"].params.omega0 == 100.0
    assert PRESETS["B"].params.omega0 == 10.0
    assert PRESETS["C"].params.omega0 == 3.0
    for pr in PRESETS.values():
        assert pr.params.lam == 10.0 and pr.params.gamma == 1.0


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
    integrate = lie_channel.integrate
    monkeypatch.setattr(lie_channel, "integrate",
                        lambda *a, **k: calls.append(1) or integrate(*a, **k))
    code, out, _ = run_cli(capsys, "sweep", "--preset", "B", "--t-steps", "11",
                           "--tmax", "2", "--beta2-steps", "7")
    assert code == 0
    assert len(calls) == 1
    assert len(out.splitlines()) == 1 + 11 * 7


def test_sweep_blowup_writes_nan_rows(capsys):
    # at lam = 100 gamma the raw coefficients leave float range between
    # gamma t = 10 and 15; rows from there on are NaN
    code, out, err = run_cli(capsys, "sweep", "--preset", "C", "--lambda", "100",
                             "--beta2", "0.5", "--tmax", "20", "--t-steps", "5")
    assert code == 0
    assert "warning:" in err and "NaN" in err
    lines = out.splitlines()
    assert lines[1] == "0,0.5,1"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "5", "10", "15", "20"]
    assert not any(line.endswith(",NaN") for line in lines[1:4])
    assert all(line.endswith(",NaN") for line in lines[4:])


def test_parameter_overrides_and_seedless(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--preset", "B", "--omega0", "5",
                           "--lambda", "2", "--gamma", "0.5", "--seedless",
                           "--beta2", "0.5", "--t-steps", "3", "--tmax", "1",
                           "--state", "psi", "--phase", "0.3")
    assert code == 0
    assert len(out.splitlines()) == 4


def test_verify_all_pass_on_cheap_preset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "C")
    lines = out.splitlines()
    assert lines
    assert all(VERIFY_LINE.match(line) for line in lines)
    assert all(line.endswith("PASS") for line in lines)
    assert code == 0
    names = [line.split("\t")[0] for line in lines]
    assert "direct_vs_channel[C]" in names
    assert "concurrence_dual_path" in names
    assert "kernel_alpha_tilde" in names
    assert "rwa_residual" in names


def test_verify_abbreviated_preset_runs_only_that_preset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pres", "C")
    assert code == 0
    names = [line.split("\t")[0] for line in out.splitlines()]
    assert [n for n in names if n.startswith("direct_vs_channel")] == [
        "direct_vs_channel[C]"]


def test_verify_rejects_parameter_overrides(capsys):
    # verify checks the stock presets only; an override must not be ignored
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--omega0", "5", "--lambda", "0.1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


def test_verify_degraded_tolerance_stays_well_formed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "C",
                           "--rel-tol", "1e-3")
    assert all(VERIFY_LINE.match(line) for line in out.splitlines())
    assert code in (0, 1)


def test_verify_uncapped_step_fails_loose_tolerance(capsys):
    # without the oscillation cap the error estimator alone cannot hold the
    # two routes together at loose tolerance: negative control for the cap
    code, out, _ = run_cli(capsys, "verify", "--preset", "A", "--uncap-step",
                           "--rel-tol", "1e-4")
    lines = out.splitlines()
    assert all(VERIFY_LINE.match(line) for line in lines)
    assert any(line.startswith("direct_vs_channel[A]") and line.endswith("FAIL")
               for line in lines)
    assert code == 1


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


def test_trace_dump(capsys):
    code, out, _ = run_cli(capsys, "trace", "--preset", "B", "--t-steps", "5",
                           "--tmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("gamma_t,l,m,n,p,x_re,x_im,y_re,y_im,"
                        "q_re,q_im,r_re,r_im,gamma_k")
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[:5] == [0.0, 1.0, 0.0, 1.0, 0.0]


def test_truncated_flag(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--preset", "B", "--truncated-rwa",
                           "--beta2", "0.5", "--t-steps", "3", "--tmax", "1")
    assert code == 0
    assert len(out.splitlines()) == 4


def test_truncated_flag_rejects_rwa_preset(capsys):
    code, _, err = run_cli(capsys, "sweep", "--preset", "RWA",
                           "--truncated-rwa", "--t-steps", "3", "--tmax", "1")
    assert code == 2
    assert "error:" in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--preset", "C", "--beta2", "0.5",
                           "--t-steps", "3", "--tmax", "1",
                           "--out", str(tmp_path / "nope" / "x.csv"))
    assert code == 2
    assert "error:" in err


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

"""Same outputs below the physics bounds: fresh outputs against a stored
fingerprint, fingerprint.json beside this file.

The fingerprint holds every 10th time row of the sweep_A and sweep_C_wide
surfaces (the stock presets, as the benchmark's seed 0 runs them) and of
sweep --preset B --truncated-rwa (the truncated generator), both
40001-point rotating-wave reports whole, every 10th row of trace --preset
B, and the 16 names, bounds and values of a default verify.  Concurrences
and channel columns must match within an absolute 1e-12, report lines as
text, verify's names and bounds exactly and its values within an absolute
1e-12 or a relative 1e-3, whichever is larger (verify prints 6 digits).

Rewrite the file with

    PYTHONPATH=src python tests/test_fingerprint.py

A change that rewrites it lists every moved entry in CHANGES.md, with how
far it moved and why.  The byte-for-byte check of the outputs against a
parent checkout stays a hand check; this file catches drift below the
bounds in the test suite.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from beyondrwa.cli import main

FINGERPRINT = Path(__file__).with_name("fingerprint.json")

SWEEPS = {
    "sweep_A": ["sweep", "--preset", "A"],
    "sweep_C_wide": ["sweep", "--preset", "C", "--state", "psi",
                     "--beta2-steps", "501"],
    "sweep_B_truncated": ["sweep", "--preset", "B", "--truncated-rwa"],
}
REPORTS = {
    "report_rwa_phi": ["report", "--preset", "RWA", "--t-steps", "40001",
                       "--state", "phi", "--beta2", "0.5"],
    "report_rwa_psi": ["report", "--preset", "RWA", "--t-steps", "40001",
                       "--state", "psi", "--beta2", "0.25"],
}
TRACE = ["trace", "--preset", "B"]

# every this many time rows are kept
EVERY = 10


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _sweep_rows(argv) -> list:
    """Every EVERY-th time row of a sweep's concurrence surface."""
    cells = np.loadtxt(io.StringIO(_stdout(argv)), delimiter=",", skiprows=1)
    n_beta2 = np.unique(cells[:, 1]).size
    return cells[:, 2].reshape(-1, n_beta2)[::EVERY].tolist()


def _trace_rows(argv) -> list:
    return np.loadtxt(io.StringIO(_stdout(argv)), delimiter=",",
                      skiprows=1)[::EVERY].tolist()


def outputs() -> dict:
    """Everything the fingerprint holds but verify."""
    return {**{name: _sweep_rows(argv) for name, argv in SWEEPS.items()},
            **{name: _stdout(argv).splitlines() for name, argv in REPORTS.items()},
            "trace_B": _trace_rows(TRACE)}


def verify_records(rows) -> list:
    """verify's tab-split lines as [name, bound, value]."""
    return [[name, bound, float(value)] for name, value, bound, _ in rows]


@pytest.fixture(scope="module")
def stored():
    return json.loads(FINGERPRINT.read_text())


@pytest.fixture(scope="module")
def fresh():
    return outputs()


@pytest.mark.parametrize("name", [*SWEEPS, "trace_B"])
def test_columns_match_the_fingerprint(stored, fresh, name):
    np.testing.assert_allclose(fresh[name], stored[name], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", REPORTS)
def test_reports_match_the_fingerprint(stored, fresh, name):
    assert fresh[name] == stored[name]


def test_verify_matches_the_fingerprint(stored, default_verify):
    got = verify_records(default_verify[1])
    want = stored["verify"]
    assert [r[:2] for r in got] == [r[:2] for r in want]
    for (name, _, value), (_, _, ref) in zip(got, want):
        assert abs(value - ref) <= max(1e-12, 1e-3 * abs(ref)), name


if __name__ == "__main__":
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(["verify"])
    rows = [line.split("\t") for line in out.getvalue().splitlines()]
    FINGERPRINT.write_text(json.dumps({**outputs(), "verify": verify_records(rows)},
                                      separators=(",", ":")) + "\n")

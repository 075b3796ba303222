"""Shared fixtures: channel integrations are expensive, so each preset is
integrated once per session and every test reads from the bank."""

import contextlib
import functools
import io
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from beyondrwa import lie_channel, oracle
from beyondrwa.cli import PRESETS, SweepSpec, compute_surface, main
from beyondrwa.entanglement import concurrence_xstate
from beyondrwa.errors import ToleranceError
from beyondrwa.lie_channel import ChannelSeries
from beyondrwa.two_qubit import BellFamilyState, evolve_pair, initial_state

GAMMA_T_GRID = np.linspace(0.0, 10.0, 201)

# touching-zero detection on the rotating-wave curves needs samples inside
# below-threshold windows only ~1e-3 wide
DENSE_GAMMA_T = np.linspace(0.0, 10.0, 40001)


# single-qubit states whose images fix the whole map: the excited
# population and both quadratures of the coherence
HERMITIAN_PROBES = {
    "excited": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "plus": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "plus_i": np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
}


class BankEntry(NamedTuple):
    params: object
    times: np.ndarray
    series: ChannelSeries


@pytest.fixture(scope="session")
def channel_bank():
    bank = {}
    for name in ("A", "B", "C"):
        p = PRESETS[name]
        times = GAMMA_T_GRID / p.gamma
        bank[name] = BankEntry(p, times, lie_channel.integrate(p, times))
    return bank


@pytest.fixture(scope="session")
def direct_bank():
    """oracle.direct_channel of presets A, B and C on the channel bank's
    grid: {preset: ChannelSeries}."""
    return {name: oracle.direct_channel(PRESETS[name],
                                        GAMMA_T_GRID / PRESETS[name].gamma)
            for name in ("A", "B", "C")}


def step_plans(monkeypatch) -> list:
    """Record the plans that the one step walk (lie_channel._step_plan)
    steps, for integrate, direct_channel and propagate alike: the total
    step count of the whole grid's first plan, equal steps of at most h
    and at least one in each interval, then the step count of every
    interval that the walk doubles (lie_channel.doubled; never for
    propagate, whose steps are never refined)."""
    plans = []
    plan, double = lie_channel._step_plan, lie_channel.doubled

    def counted(block_fn, p, times, h, *args):
        spans = np.diff(np.asarray(times, dtype=float), prepend=0.0)
        plans.append(int(np.maximum(1.0, np.ceil(spans / h)).sum()))
        return plan(block_fn, p, times, h, *args)

    def doubled(*args):
        steps = double(*args)
        plans.append(int(steps))
        return steps

    monkeypatch.setattr(lie_channel, "_step_plan", counted)
    monkeypatch.setattr(lie_channel, "doubled", doubled)
    return plans


def count_solvers(monkeypatch, failing=""):
    """Wrap integrate and direct_channel to log the preset of each call,
    and integrate to raise ToleranceError on the presets in `failing`;
    returns the logs."""
    # B and RWA hold equal BathParams; verify never integrates RWA
    names = {p: name for name, p in PRESETS.items() if name != "RWA"}
    calls = {"integrate": [], "direct_channel": []}

    def counted(fname, fn, p, *args, **kwargs):
        calls[fname].append(names[p])
        if fname == "integrate" and names[p] in failing:
            raise ToleranceError("integration failed: the steps miss rel_tol")
        return fn(p, *args, **kwargs)

    for module, fname in ((lie_channel, "integrate"),
                          (oracle, "direct_channel")):
        monkeypatch.setattr(module, fname, functools.partial(
            counted, fname, getattr(module, fname)))
    return calls


@pytest.fixture(scope="session")
def default_verify():
    """Exit code, tab-split lines and solver calls of one default verify."""
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        calls = count_solvers(mp)
        code = main(["verify"])
    return code, [line.split("\t") for line in out.getvalue().splitlines()], calls


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def single_time_series(t=1.0, l=1.0, m=0.0, n=1.0, p=0.0, x=1.0, y=0.0,
                       q=1.0, r=0.0) -> ChannelSeries:
    """A channel series at one time; the defaults give the identity map."""
    real = lambda v: np.array([v], dtype=float)
    cplx = lambda v: np.array([v], dtype=complex)
    return ChannelSeries(t=real(t), l=real(l), m=real(m), n=real(n), p=real(p),
                         x=cplx(x), y=cplx(y), q=cplx(q), r=cplx(r))


def concurrence_curve(series, family: str, beta2: float, phase: float = 0.0):
    rho0 = initial_state(BellFamilyState(family, math.sqrt(beta2), phase))
    return concurrence_xstate(evolve_pair(series, rho0)).value


@pytest.fixture(scope="session")
def rwa_dense_curves():
    """Concurrence of the rotating-wave channel on the dense grid, for the
    two configurations the shape checks care about.  compute_surface
    evolves the 40001 times in bounded blocks."""
    p = PRESETS["RWA"]

    def curve(family, beta2):
        spec = SweepSpec(params=p, channel="rwa", family=family,
                         beta2_values=(beta2,), t_max=float(DENSE_GAMMA_T[-1]),
                         t_steps=DENSE_GAMMA_T.size)
        return compute_surface(spec).values[:, 0]

    return {("phi", 0.5): curve("phi", 0.5), ("psi", 0.4): curve("psi", 0.4)}

"""Shared fixtures: channel integrations are expensive, so each preset is
integrated once per session and every test reads from the bank."""

import math
from typing import NamedTuple

import numpy as np
import pytest

from beyondrwa import lie_channel, oracle
from beyondrwa.cli import PRESETS, SweepSpec, compute_surface
from beyondrwa.entanglement import concurrence_xstate
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
    """Record the total step count of every plan that the DOP853 driver
    (lie_channel._step_plan) steps, for integrate and direct_channel
    alike: the whole grid's, then one per interval stepped again."""
    plans = []
    plan = lie_channel._step_plan

    def counted(block_fn, prev, ts, steps, *args):
        plans.append(int(steps.sum()))
        return plan(block_fn, prev, ts, steps, *args)

    monkeypatch.setattr(lie_channel, "_step_plan", counted)
    return plans


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

"""Joint states, tensor-square evolution, and the explicit element formulas."""

import math

import numpy as np
import pytest
from conftest import single_time_series
from hypothesis import given, strategies as st

from beyondrwa import lie_channel
from beyondrwa.cli import PRESETS, _initial_states, beta2_grid
from beyondrwa.entanglement import concurrence_xstate
from beyondrwa.errors import DomainError, ShapeError
from beyondrwa.lie_channel import transfer_matrix
from beyondrwa.two_qubit import (BellFamilyState, evolve_pair, evolve_xstate,
                                 explicit_elements, initial_state,
                                 initial_states, is_x_state, x_blocks)

IDENT = single_time_series()


def test_family_and_beta_validation():
    with pytest.raises(DomainError):
        BellFamilyState("chi", 0.5)
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            BellFamilyState("phi", bad)


def test_initial_bell_patterns():
    rho = initial_state(BellFamilyState("phi", math.sqrt(0.5)))
    want = np.zeros((4, 4), dtype=complex)
    want[1, 1] = want[2, 2] = want[1, 2] = want[2, 1] = 0.5
    assert np.allclose(rho, want, rtol=0, atol=1e-15)

    rho = initial_state(BellFamilyState("psi", math.sqrt(0.5)))
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = want[3, 3] = want[0, 3] = want[3, 0] = 0.5
    assert np.allclose(rho, want, rtol=0, atol=1e-15)


def test_initial_state_against_outer_product():
    s = BellFamilyState("phi", 0.5, eta_phase=math.pi / 2.0)
    # |xi> = beta |01> + eta |10> spelled out by hand in the joint basis
    v = np.zeros(4, dtype=complex)
    v[2] = 0.5
    v[1] = math.sqrt(0.75) * 1j
    assert np.allclose(initial_state(s), np.outer(v, v.conj()),
                       rtol=0, atol=1e-15)
    rho = initial_state(s)
    assert rho[2, 2] == pytest.approx(0.25)
    assert rho[1, 1] == pytest.approx(0.75)
    assert rho[2, 1] == pytest.approx(-0.25 * math.sqrt(3.0) * 1j)
    assert rho[1, 2] == np.conj(rho[2, 1])


def _outer_state(family, b2, phase):
    """|xi><xi| from its amplitudes, eta in Python's complex arithmetic."""
    beta = math.sqrt(b2)
    eta = math.sqrt(1.0 - beta * beta) * complex(math.cos(phase), math.sin(phase))
    v = np.zeros(4, dtype=complex)
    if family == "phi":
        v[2], v[1] = beta, eta
    else:
        v[3], v[0] = beta, eta
    return np.outer(v, v.conj())


@pytest.mark.parametrize("family", ["phi", "psi"])
@pytest.mark.parametrize("phase", [0.0, 0.7, math.pi, -1.3, -5e-324])
@pytest.mark.parametrize("b2s", [beta2_grid(501), beta2_grid(1, 0.0),
                                 beta2_grid(1, 1.0), beta2_grid(1, 0.3)],
                         ids=["grid", "low_end", "high_end", "single"])
def test_stacked_initial_states_are_the_per_state_bits(family, phase, b2s):
    stack = _initial_states(family, np.array(b2s), phase)
    per_state = np.array([initial_state(BellFamilyState(family, math.sqrt(b2),
                                                        phase)) for b2 in b2s])
    outer = np.array([_outer_state(family, b2, phase) for b2 in b2s])
    assert stack.shape == per_state.shape == (len(b2s), 4, 4)
    assert stack.tobytes() == per_state.tobytes() == outer.tobytes()


def test_stacked_initial_states_keep_the_domain_checks():
    with pytest.raises(DomainError, match="family"):
        initial_states("chi", np.array([0.5]))
    for bad in (0.0, 1.0, -0.3, 1.7, math.nan):
        with pytest.raises(DomainError, match="beta must lie in"):
            initial_states("phi", np.array([0.5, bad, 0.6]))
    with pytest.raises(DomainError, match="beta must lie in"):
        _initial_states("psi", np.array([0.25, 0.0]))


@pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan])
def test_initial_states_refuse_a_phase_that_is_not_finite(phase):
    # inf once raised ValueError from math.cos, and nan returned NaN states
    with pytest.raises(DomainError, match="eta_phase must be finite"):
        initial_states("phi", np.array([0.5, 0.6]), phase)
    with pytest.raises(DomainError, match="eta_phase must be finite"):
        BellFamilyState("psi", 0.5, phase)


@given(st.sampled_from(["phi", "psi"]), st.floats(0.01, 0.99),
       st.floats(0.0, 2.0 * math.pi))
def test_initial_state_is_pure_and_unit_trace(family, beta2, phase):
    rho = initial_state(BellFamilyState(family, math.sqrt(beta2), phase))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho @ rho, rho, rtol=0, atol=1e-12)
    assert is_x_state(rho)


def test_identity_channel_fixes_states():
    rho0 = initial_state(BellFamilyState("psi", 0.6, 0.3))
    assert np.array_equal(evolve_pair(IDENT, rho0)[0], rho0)
    stack = np.array([rho0, initial_state(BellFamilyState("phi", 0.3))])
    assert np.array_equal(evolve_pair(IDENT, stack)[0], stack)


def test_evolve_rejects_wrong_shape():
    with pytest.raises(ShapeError):
        evolve_pair(IDENT, np.eye(2))
    with pytest.raises(ShapeError):
        evolve_pair(IDENT, np.zeros((2, 2, 4, 4)))
    with pytest.raises(ShapeError):
        explicit_elements(IDENT, np.eye(3))


coeff_strategy = st.builds(
    single_time_series,
    l=st.floats(-2.0, 2.0), m=st.floats(-2.0, 2.0),
    n=st.floats(-2.0, 2.0), p=st.floats(-2.0, 2.0),
    x=st.complex_numbers(max_magnitude=2.0),
    y=st.complex_numbers(max_magnitude=2.0),
    q=st.complex_numbers(max_magnitude=2.0),
    r=st.complex_numbers(max_magnitude=2.0),
)


@given(coeff_strategy, st.floats(0.05, 0.95))
def test_x_sparsity_closure_is_algebraic(cf, beta2):
    # holds for any coefficients, physical or not: the map never couples
    # X slots to non-X slots
    rho0 = initial_state(BellFamilyState("phi", math.sqrt(beta2), 0.7))
    out = evolve_pair(cf, rho0)
    assert is_x_state(out)


def test_dual_path_agreement_and_rho22_gap(channel_bank):
    cf = channel_bank["C"].series
    rho0 = initial_state(BellFamilyState("phi", math.sqrt(0.5)))
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 1] = False
    diff = evolve_pair(cf, rho0) - explicit_elements(cf, rho0)
    assert np.max(np.abs(diff[:, mask])) < 1e-12
    want = (cf.l * cf.n - cf.l * cf.m) * rho0[1, 1]
    assert np.max(np.abs(diff[:, 1, 1] - want)) < 1e-13


def test_explicit_identity_shows_rho22_quirk():
    rho0 = initial_state(BellFamilyState("phi", math.sqrt(0.3)))
    (out,) = explicit_elements(IDENT, rho0)
    # at identity the tabulated rho22 weight l*m evaluates to 0, not 1
    assert out[1, 1] == 0.0
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 1] = False
    assert np.array_equal(out[mask], rho0[mask])


def test_explicit_rejects_non_x_state():
    rho = np.full((4, 4), 0.25, dtype=complex)
    with pytest.raises(ShapeError):
        explicit_elements(IDENT, rho)


def test_trace_and_hermiticity_on_evolved_states(channel_bank):
    for entry in channel_bank.values():
        for family in ("phi", "psi"):
            rho0 = initial_state(BellFamilyState(family, math.sqrt(0.35), 0.4))
            rho = evolve_pair(entry.series[::10], rho0)
            assert np.max(np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0)) < 1e-6
            assert np.max(np.abs(rho - np.conj(np.swapaxes(rho, 1, 2)))) < 1e-6


def test_phi_swap_symmetry(channel_bank):
    series = channel_bank["B"].series[::20]
    for b2 in (0.2, 0.35):
        lo = initial_state(BellFamilyState("phi", math.sqrt(b2)))
        hi = initial_state(BellFamilyState("phi", math.sqrt(1.0 - b2)))
        c_lo = concurrence_xstate(evolve_pair(series, lo)).value
        c_hi = concurrence_xstate(evolve_pair(series, hi)).value
        assert np.max(np.abs(c_lo - c_hi)) < 1e-12


def test_batched_evolution_matches_per_cell_kron(channel_bank):
    # reference: one kron(T, T) product per (time, state) cell; the batched
    # route sums in another order, so agreement is to a few ulps of 1
    series = channel_bank["C"].series[::10]
    rho0s = np.array([initial_state(BellFamilyState(family, math.sqrt(b2), 0.3))
                      for family in ("phi", "psi") for b2 in (0.1, 0.5, 0.8)])
    batched = evolve_pair(series, rho0s)
    closed = concurrence_xstate(batched).value
    assert batched.shape == (len(series), rho0s.shape[0], 4, 4)
    shuffle = lambda a: a.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    for i, tm in enumerate(transfer_matrix(series)):
        for j, rho0 in enumerate(rho0s):
            ref = shuffle(np.kron(tm, tm) @ shuffle(rho0).reshape(16)).reshape(4, 4)
            assert np.abs(batched[i, j] - ref).max() <= 4 * np.finfo(float).eps
            assert closed[i, j] == concurrence_xstate(batched[i, j]).value


# ---------------------------------------------------------------------------
# the X-sector route

def test_x_blocks_read_the_diagonal_and_the_antidiagonal():
    rho = np.arange(16.0).reshape(4, 4) * (1.0 + 1.0j)
    diag, anti = x_blocks(np.array([rho, 2.0 * rho]))
    assert diag.tolist() == [[[0.0, 5.0], [10.0, 15.0]], [[0.0, 10.0], [20.0, 30.0]]]
    assert anti[0].tolist() == [[3 + 3j, 6 + 6j], [9 + 9j, 12 + 12j]]
    assert np.array_equal(anti[1], 2.0 * anti[0])


@pytest.mark.parametrize("route", ["wei_norman", "magnus"])
def test_sector_route_matches_evolve_pair(channel_bank, route):
    entry = channel_bank["C"]
    series = (entry.series if route == "wei_norman"
              else lie_channel.propagate(entry.params, entry.times))[::4]
    rho0s = np.array([initial_state(BellFamilyState(family, math.sqrt(b2), phase))
                      for family in ("phi", "psi") for b2 in (0.1, 0.5, 0.8)
                      for phase in (0.0, 0.7, 2.5)])
    diag, anti = evolve_xstate(series, rho0s)
    assert diag.shape == anti.shape == (len(series), rho0s.shape[0], 2, 2)
    assert diag.dtype == float and anti.dtype == complex
    want_diag, want_anti = x_blocks(evolve_pair(series, rho0s))
    assert np.max(np.abs(diag - want_diag)) <= 1e-15
    assert np.max(np.abs(anti - want_anti)) <= 1e-15


def test_sector_route_at_identity_returns_the_blocks():
    rho0s = np.array([initial_state(BellFamilyState("psi", 0.6, 0.3))])
    diag, anti = evolve_xstate(IDENT, rho0s)
    want_diag, want_anti = x_blocks(rho0s[None])
    assert np.array_equal(diag, want_diag)
    assert np.array_equal(anti, want_anti)


def test_sector_route_rejects_non_x_and_unstacked_states():
    rho = initial_state(BellFamilyState("phi", 0.6))
    with pytest.raises(ShapeError, match="exact X-state"):
        evolve_xstate(IDENT, np.full((2, 4, 4), 0.25, dtype=complex))
    off_x = np.array([rho, rho])
    off_x[1, 0, 1] = 1e-300
    with pytest.raises(ShapeError, match="exact X-state"):
        evolve_xstate(IDENT, off_x)
    for bad in (rho, np.zeros((1, 1, 4, 4)), np.zeros((2, 3, 3))):
        with pytest.raises(ShapeError, match="stack of 4x4"):
            evolve_xstate(IDENT, bad)

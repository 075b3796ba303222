"""Concurrence branches, the general spin-flip oracle, and ESD detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beyondrwa.entanglement import (concurrence_general, concurrence_sectors,
                                    concurrence_xstate, detect_esd, true_runs)
from beyondrwa.errors import (DomainError, GridError, NegativeDiagonalError,
                              NumericalError, ShapeError)
from beyondrwa.two_qubit import BellFamilyState, initial_state


def test_bell_states_have_unit_concurrence():
    for family in ("phi", "psi"):
        rho = initial_state(BellFamilyState(family, math.sqrt(0.5)))
        res = concurrence_xstate(rho)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert concurrence_general(rho) == pytest.approx(1.0, abs=1e-12)


def test_werner_state():
    # p |psi-><psi-| + (1-p) I/4 has concurrence (3p-1)/2 for p > 1/3
    v = np.zeros(4, dtype=complex)
    v[1], v[2] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    for p, want in ((0.8, 0.7), (0.5, 0.25), (0.2, 0.0)):
        rho = p * np.outer(v, v.conj()) + (1.0 - p) * np.eye(4) / 4.0
        assert concurrence_general(rho) == pytest.approx(want, abs=1e-12)
        assert concurrence_xstate(rho).value == pytest.approx(want, abs=1e-12)


def test_product_state_is_separable():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    res = concurrence_xstate(rho)
    assert res.value == 0.0
    assert res.c1 <= 0.0 and res.c2 <= 0.0
    assert concurrence_general(rho) == 0.0


@pytest.mark.parametrize("phase", [0.0, 0.4, math.pi / 2.0, 2.2, math.pi])
@pytest.mark.parametrize("family", ["phi", "psi"])
def test_initial_concurrence_ignores_phase(family, phase):
    beta = math.sqrt(0.3)
    rho = initial_state(BellFamilyState(family, beta, phase))
    want = 2.0 * beta * math.sqrt(1.0 - 0.3)
    assert concurrence_xstate(rho).value == pytest.approx(want, abs=1e-14)


def test_branch_roles_at_t_zero():
    phi = concurrence_xstate(initial_state(BellFamilyState("phi", 0.6)))
    assert phi.value == phi.c1 and phi.c2 <= 0.0
    psi = concurrence_xstate(initial_state(BellFamilyState("psi", 0.6)))
    assert psi.value == psi.c2 and psi.c1 <= 0.0


def x_state_strategy():
    # Hermitian X matrices with nonnegative diagonal, off-diagonals bounded
    # by the diagonals' geometric means so the state is positive
    diag = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)
    fracs = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    phases = st.tuples(st.floats(0.0, 2.0 * math.pi),
                       st.floats(0.0, 2.0 * math.pi))

    @st.composite
    def build(draw):
        d = np.array(draw(diag))
        d = d / d.sum()
        f_in, f_out = draw(fracs)
        ph_in, ph_out = draw(phases)
        rho = np.diag(d).astype(complex)
        rho[1, 2] = f_in * math.sqrt(d[1] * d[2]) * np.exp(1j * ph_in)
        rho[2, 1] = np.conj(rho[1, 2])
        rho[0, 3] = f_out * math.sqrt(d[0] * d[3]) * np.exp(1j * ph_out)
        rho[3, 0] = np.conj(rho[0, 3])
        return rho

    return build()


@given(x_state_strategy())
@settings(max_examples=150)
def test_value_is_clamped_max_of_branches(rho):
    res = concurrence_xstate(rho)
    assert res.value == max(0.0, res.c1, res.c2)
    assert res.value >= 0.0


@given(x_state_strategy())
@settings(max_examples=150, deadline=None)
def test_general_oracle_matches_closed_form(rho):
    assert abs(concurrence_general(rho) - concurrence_xstate(rho).value) < 1e-10


def test_negative_diagonal_guard():
    rho = np.diag([0.6, 0.3, 0.3, -0.2]).astype(complex)
    with pytest.raises(NegativeDiagonalError):
        concurrence_xstate(rho)
    # transient-scale negativity is tolerated, product clamped at zero
    mild = np.diag([0.65, 0.2, 0.2, -0.05]).astype(complex)
    assert concurrence_xstate(mild).value == 0.0


def test_general_rejects_indefinite_states():
    rho = np.diag([1.1, 0.0, 0.0, -0.1]).astype(complex)
    with pytest.raises(NumericalError):
        concurrence_general(rho)
    # in a stack the refused state reads NaN and the others are kept
    bell = initial_state(BellFamilyState("phi", math.sqrt(0.5)))
    both = concurrence_general(np.array([bell, rho]))
    assert both[0] == pytest.approx(1.0, abs=1e-12) and np.isnan(both[1])


def test_shape_rejection():
    with pytest.raises(ShapeError):
        concurrence_xstate(np.eye(3))
    with pytest.raises(ShapeError):
        concurrence_general(np.eye(3))
    non_x = np.full((4, 4), 0.25)
    with pytest.raises(ShapeError):
        concurrence_xstate(non_x)


def _xstate_reference(rho):
    """The closed form on the full Hermitian part, as first written: the
    reference that concurrence_xstate must match bit for bit."""
    rh = (rho + np.conj(np.swapaxes(rho, -1, -2))) / 2.0
    d = np.moveaxis(np.real(np.diagonal(rh, axis1=-2, axis2=-1)), -1, 0)
    c1 = 2.0 * (np.abs(rh[..., 1, 2]) - np.sqrt(np.maximum(d[0] * d[3], 0.0)))
    c2 = 2.0 * (np.abs(rh[..., 0, 3]) - np.sqrt(np.maximum(d[1] * d[2], 0.0)))
    return np.maximum(0.0, np.maximum(c1, c2)), c1, c2


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def test_xstate_reads_six_elements_bit_for_bit():
    rng = np.random.default_rng(9)
    shape = (6, 40)
    rho = np.zeros(shape + (4, 4), dtype=complex)
    x = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
    # X elements with non-Hermitian noise: complex diagonals and
    # antidiagonal pairs that are not each other's conjugates
    rho[..., x] = (rng.normal(size=shape + (8,))
                   + 1j * rng.normal(size=shape + (8,)))
    rho[..., x] *= rng.choice([1e-12, 1e-8, 0.1, 1.0], size=shape + (8,))
    diag = np.arange(4)
    rho[..., diag, diag] = np.abs(rho[..., diag, diag]) + 1e-9j
    # mildly negative diagonals, so the products under the roots clamp
    rho[0, :, 3, 3] = -rng.uniform(0.0, 0.1, size=shape[1])
    rho[1, :, 1, 1] = -0.05
    rho[2, ::3, 0, 0] = -0.0
    # weak coherences, so both branches go negative and C clamps at zero
    rho[2][..., x & ~np.eye(4, dtype=bool)] *= 1e-6
    # NaN cells on the diagonal and on the antidiagonal
    rho[3, 0, 0, 0] = np.nan
    rho[3, 1, 1, 2] = np.nan
    rho[3, 2, 3, 0] = complex(0.0, np.nan)
    rho[4, 3, 2, 2] = complex(np.nan, np.nan)
    res = concurrence_xstate(rho)
    for got, want in zip((res.value, res.c1, res.c2), _xstate_reference(rho)):
        assert _same_bits(got, want)
    assert np.isnan(res.value[3, :3]).all() and np.isnan(res.value[4, 3])
    assert np.isfinite(res.value[5]).all() and (res.value[2] == 0.0).any()
    # one state gives the same floats
    one = concurrence_xstate(rho[5, 7])
    assert all(_same_bits(g, w) for g, w in
               zip((one.value, one.c1, one.c2), _xstate_reference(rho[5, 7])))


def test_xstate_guards_keep_their_order_and_messages():
    with pytest.raises(ShapeError, match="expected 4x4 matrices"):
        concurrence_xstate(np.eye(3))
    with pytest.raises(ShapeError, match="expected 4x4 matrices"):
        concurrence_xstate(np.zeros((2, 4, 3)))
    # the X check comes before the diagonal guard, and NaN is not zero
    non_x = np.diag([0.6, 0.3, 0.3, -0.9]).astype(complex)
    non_x[0, 1] = 1e-300
    with pytest.raises(ShapeError, match="exact X-state"):
        concurrence_xstate(non_x)
    nan_off_x = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    nan_off_x[2, 0] = np.nan
    with pytest.raises(ShapeError, match="exact X-state"):
        concurrence_xstate(np.array([np.eye(4), nan_off_x]))
    with pytest.raises(NegativeDiagonalError, match="-0.2 below -0.1"):
        concurrence_xstate(np.diag([0.6, 0.3, 0.3, -0.2]).astype(complex))
    # the guard reads the real part only
    imag = np.diag([0.6, 0.3, 0.3, 0.1 - 5.0j])
    assert concurrence_xstate(imag).value == 0.0


def test_sectors_guard_the_populations_as_the_matrix_route_does():
    with pytest.raises(NegativeDiagonalError, match="-0.102 below -0.1"):
        concurrence_sectors(np.array([[0.6, 0.3], [0.202, -0.102]]),
                            np.zeros((2, 2), dtype=complex))
    bell = initial_state(BellFamilyState("psi", math.sqrt(0.3), 0.4))
    i = np.arange(4)
    res = concurrence_sectors(bell[i, i].real.reshape(2, 2),
                              bell[i, i[::-1]].reshape(2, 2))
    want = concurrence_xstate(bell)
    assert (res.value, res.c1, res.c2) == (want.value, want.c1, want.c2)


# ---------------------------------------------------------------------------
# sudden-death detection

def _runs_by_loop(mask):
    """Maximal runs of True as (first, last) pairs, one sample at a time."""
    runs, start = [], None
    for i, ok in enumerate(list(mask) + [False]):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start, i - 1))
            start = None
    return runs


@given(st.lists(st.booleans(), max_size=40))
def test_true_runs_match_a_sample_by_sample_scan(mask):
    starts, ends = true_runs(np.array(mask, dtype=bool))
    assert list(zip(starts.tolist(), ends.tolist())) == _runs_by_loop(mask)


def test_esd_constant_zero():
    rep = detect_esd([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    assert rep.death_time == 0.0
    assert not rep.revived
    assert rep.episode_count == 0
    assert rep.max_revival == 0.0


def test_esd_never_dies():
    rep = detect_esd([0.0, 1.0, 2.0], [1.0, 0.5, 0.2])
    assert rep.death_time is None
    assert not rep.revived


@given(st.lists(st.sampled_from([0.0, 1e-6, 2e-6, 0.3, 0.5, math.nan]),
                min_size=3, max_size=30))
def test_esd_episodes_match_a_sample_by_sample_scan(values):
    # episodes: maximal runs strictly above threshold after the first death
    t = np.arange(float(len(values)))
    rep = detect_esd(t, values)
    dead = [i for i, v in enumerate(values) if v < 1e-6]
    runs = [] if not dead else [
        (a + dead[0] + 1, b + dead[0] + 1)
        for a, b in _runs_by_loop([v > 1e-6 for v in values[dead[0] + 1:]])]
    assert rep.death_time == (float(dead[0]) if dead else None)
    assert [(e.t_start, e.t_end) for e in rep.episodes] == [
        (float(a), float(b)) for a, b in runs]
    assert [e.peak for e in rep.episodes] == [max(values[a:b + 1]) for a, b in runs]


def test_esd_synthetic_revivals():
    t = np.arange(8.0)
    v = [1.0, 0.5, 0.0, 0.3, 0.0, 0.2, 0.0, 0.0]
    rep = detect_esd(t, v)
    assert rep.death_time == 2.0
    assert rep.revived
    assert rep.episode_count == 2
    assert rep.max_revival == 0.3
    assert [e.peak for e in rep.episodes] == [0.3, 0.2]
    assert rep.episodes[0].t_start == 3.0
    assert rep.episodes[0].t_end == 3.0
    assert rep.episodes[1].t_peak == 5.0


def test_esd_open_ended_episode_counts():
    rep = detect_esd([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.5, 0.6])
    assert rep.episode_count == 1
    assert rep.episodes[0].t_end == 3.0
    assert rep.max_revival == 0.6


def test_esd_threshold_semantics():
    # exactly-at-threshold samples are neither dead nor revived
    rep = detect_esd([0.0, 1.0, 2.0, 3.0], [1.0, 0.1, 1.0, 0.1], threshold=0.1)
    assert rep.death_time is None
    rep = detect_esd([0.0, 1.0, 2.0, 3.0], [1.0, 0.05, 0.1, 0.2], threshold=0.1)
    assert rep.death_time == 1.0
    assert rep.episode_count == 1
    assert rep.episodes[0].t_start == 3.0


def test_esd_input_validation():
    with pytest.raises(GridError):
        detect_esd([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(GridError):
        detect_esd([0.0, 1.0, 0.5], [1.0, 0.0, 0.0])
    with pytest.raises(GridError):
        detect_esd([0.0, 1.0, 2.0], [1.0, 0.0])
    with pytest.raises(DomainError):
        detect_esd([0.0, 1.0, 2.0], [1.0, 0.0, 0.0], threshold=0.0)


def test_esd_on_rotating_wave_curve(rwa_dense_curves):
    # damped periodic vanishing: several revivals with decreasing peaks
    curve = rwa_dense_curves[("phi", 0.5)]
    gts = np.linspace(0.0, 10.0, curve.size)
    rep = detect_esd(gts, curve)
    assert rep.death_time is not None
    assert rep.episode_count >= 2
    peaks = [e.peak for e in rep.episodes if e.peak >= 0.01]
    assert len(peaks) >= 2
    assert all(a > b for a, b in zip(peaks, peaks[1:]))

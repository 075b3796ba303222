"""Single-qubit channel: Riccati flow, coefficient assembly, map action."""

import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from conftest import GAMMA_T_GRID, HERMITIAN_PROBES, single_time_series, step_plans

from beyondrwa import BathParams, _tableaux, kernels, lie_channel, oracle
from beyondrwa.errors import DomainError, GridError, ToleranceError
from beyondrwa.lie_channel import (MIN_REL_TOL, IntegratorSettings,
                                   apply_channel, channel_at, integrate,
                                   magnus_step, propagate, step_cap,
                                   transfer_matrix)

P_A = BathParams(omega0=100.0, gamma=1.0, lam=10.0)
P_B = BathParams(omega0=10.0, gamma=1.0, lam=10.0)
P_C = BathParams(omega0=3.0, gamma=1.0, lam=10.0)

IDENTITY = single_time_series()


def _at_one_time(yv, t=1.0, decay=0.0):
    """channel_at on the 9 Wei-Norman reals of one time, laid out as in
    _rhs, and the decay exponent there."""
    return channel_at(np.array([t]), np.array(yv, dtype=float).reshape(9, 1),
                      np.array([decay]))


def _assert_identity(cf):
    for name in ("l", "m", "n", "p", "x", "y", "q", "r"):
        want = getattr(IDENTITY, name)[0]
        assert np.all(getattr(cf, name) == want), name


def _wei_norman(cf, p):
    """Invert channel_at: the Wei-Norman reals per time (Im j0 mod 2 pi).
    -2 log n and -2 log q hold k0 and j0 plus 2 Gamma_k."""
    shift = 2.0 * kernels.decay_exponent(cf.t, p)
    jp, jm, j0 = cf.y / cf.q, cf.r / cf.q, -2.0 * np.log(cf.q) - shift
    kp, km, k0 = cf.m / cf.n, cf.p / cf.n, -2.0 * np.log(cf.n) - shift
    return np.array([jp.real, jp.imag, j0.real, j0.imag, jm.real, jm.imag,
                     kp, k0, km])


def test_identity_at_origin():
    cf = _at_one_time(np.zeros(9), t=0.0)
    _assert_identity(cf)
    rho = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
    assert np.array_equal(apply_channel(cf, rho)[0], rho)


def _record(p, t, cfn=kernels.coefficients):
    """The coefficient record that integrate's stage functions read at t."""
    return lie_channel._records(lie_channel._coefficient_columns(np.array([t]), p, cfn))[0]


def test_rhs_at_origin():
    d = lie_channel._rhs(_record(P_B, 0.0), np.zeros(9))
    # only j0 moves at t=0: j0' = eps0 = -2i omega0
    assert d == [0.0, 0.0, 0.0, -2.0 * P_B.omega0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_rhs_matches_finite_difference():
    # the right-hand side integrate() uses, against a central difference of
    # the Wei-Norman variables recovered from its output
    t, h = 0.7, 1e-4
    cf = integrate(P_B, [t - h, t, t + h], IntegratorSettings(rel_tol=1e-12))
    yv = _wei_norman(cf, P_B)
    d = lie_channel._rhs(_record(P_B, t), yv[:, 1])
    fd = (yv[:, 2] - yv[:, 0]) / (2.0 * h)
    # j0 by the log of a ratio near 1, clear of the 2 pi branch cut
    shift = 2.0 * kernels.decay_exponent(cf.t, P_B)
    dj0 = (-2.0 * np.log(cf.q[2] / cf.q[0]) - (shift[2] - shift[0])) / (2.0 * h)
    fd[2], fd[3] = dj0.real, dj0.imag
    for i, name in enumerate(("Re j+", "Im j+", "Re j0", "Im j0", "Re j-",
                              "Im j-", "k+", "k0", "k-")):
        assert abs(d[i] - fd[i]) < 1e-4, name


def test_channel_at_hand_values():
    # e^{k0/2}=1/2, e^{-k0/2}=2; e^{j0/2}=2i, e^{-j0/2}=-i/2
    cf = _at_one_time([1.0, 1.0, math.log(4.0), math.pi, 2.0, 0.0,
                       0.25, -2.0 * math.log(2.0), 0.5])
    assert cf.l[0] == pytest.approx(0.75, rel=1e-14)
    assert cf.m[0] == pytest.approx(0.5, rel=1e-14)
    assert cf.n[0] == pytest.approx(2.0, rel=1e-14)
    assert cf.p[0] == pytest.approx(1.0, rel=1e-14)
    assert cf.x[0] == pytest.approx(1.0 + 1.0j, rel=1e-14)
    assert cf.y[0] == pytest.approx(0.5 - 0.5j, rel=1e-14)
    assert cf.q[0] == pytest.approx(-0.5j, rel=1e-14)
    assert cf.r[0] == pytest.approx(-1.0j, rel=1e-14)


def test_transfer_matrix_matches_apply():
    # j+ = 0.1-0.2i, j0 = -0.4+2i, j- = 0.05+0.01i, k+ = 0.3, k0 = -1.1,
    # k- = 0.2, Gamma_k = 0.8
    cf = _at_one_time([0.1, -0.2, -0.4, 2.0, 0.05, 0.01, 0.3, -1.1, 0.2],
                      decay=0.8)
    rho = np.array([[0.55, 0.2 - 0.1j], [0.2 + 0.1j, 0.45]])
    (tm,) = transfer_matrix(cf)
    via_matrix = (tm @ rho.reshape(4)).reshape(2, 2)
    assert np.allclose(via_matrix, apply_channel(cf, rho)[0], rtol=0, atol=1e-16)
    # vec order is (rho11, rho10, rho01, rho00)
    assert tm[0, 3] == cf.m[0]
    assert tm[3, 0] == cf.p[0]
    assert tm[1, 2] == cf.y[0]
    assert tm[2, 1] == cf.r[0]


def test_trace_preserved_and_hermiticity_compatible(channel_bank):
    rhos = (np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
            np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex))
    for entry in channel_bank.values():
        cf = entry.series
        for rho in rhos:
            out = apply_channel(cf, rho)
            assert np.max(np.abs(np.trace(out, axis1=1, axis2=2).real - 1.0)) < 1e-8
        # e^{-Gamma_k} scales x, y, q and r alike and cancels from the
        # relative gaps; the absolute gaps are those of the physical map
        assert np.max(np.abs(cf.x - np.conj(cf.q)) / np.abs(cf.x)) < 1e-5
        assert np.max(np.abs(cf.y - np.conj(cf.r)) / np.abs(cf.x)) < 1e-5
        assert np.max(np.abs(cf.x - np.conj(cf.q))) < 1e-7
        assert np.max(np.abs(cf.y - np.conj(cf.r))) < 1e-7


def test_tolerance_refinement_is_a_noop(channel_bank):
    entry = channel_bank["C"]
    pick = [0, 50, 100, 200]
    tighter = integrate(entry.params, entry.times[pick],
                        IntegratorSettings(rel_tol=1e-11))
    base = entry.series[pick]
    # n = e^{-k0/2} and q = e^{-j0/2}: the shifts of k0 and j0
    assert np.max(np.abs(2.0 * np.log(tighter.n / base.n))) < 1e-6
    assert np.max(np.abs(2.0 * np.log(tighter.q / base.q))) < 1e-6


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, 1e-14, math.nan, math.inf])
def test_settings_reject_unusable_tolerance(rel_tol):
    # below scipy's floor of 100 eps it would raise rtol itself and keep
    # atol; 0 used to make the step collapse, and -1 ran anyway
    with pytest.raises(DomainError, match="rel-tol"):
        IntegratorSettings(rel_tol=rel_tol)
    assert IntegratorSettings(rel_tol=MIN_REL_TOL).rel_tol == MIN_REL_TOL


def _tan_riccati(t, p):
    # j+' = 1 + j+^2 is solved by tan t, which blows up at pi/2
    return kernels.CoefficientSet(0j, 1.0 + 0j, -1.0 + 0j, 0.0, 0.0, 0.0)


def test_riccati_pole_raises_tolerance_error(monkeypatch):
    # the Wei-Norman route steps DOP853; an interval that steps into the pole
    # of tan t misses the tolerance however often its steps double, and the
    # integration ends there.  The generator returns scalar fields, and the
    # scalar core runs into the pole without OverflowError, as the
    # nine-component reference loop does
    monkeypatch.setattr(kernels, "coefficients", _tan_riccati)
    ts = np.linspace(0.0, 2.0, 11)
    with pytest.raises(ToleranceError, match=r"t = 1\.4 miss .*--rel-tol") as got:
        integrate(P_C, ts)
    with pytest.raises(ToleranceError) as want:
        _reference_integrate(P_C, ts)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("points", [11, 201])
def test_riccati_pole_ends_within_a_second(monkeypatch, points):
    # MAX_DOUBLINGS bounds the work in front of a pole: about 0.1 s on 11
    # points, where the interval (1.4, 1.6] is stepped with 20 to 1 280
    # steps, each pass stopping at the block of its first step into the
    # pole.  (The single interval (0, 2] steps from 0 each time: about 1 s.)
    monkeypatch.setattr(kernels, "coefficients", _tan_riccati)
    start = time.process_time()
    with pytest.raises(ToleranceError, match="--rel-tol"):
        integrate(P_C, np.linspace(0.0, 2.0, points))
    assert time.process_time() - start < 1.5


@pytest.mark.parametrize("method, count", [("DOP853", 6)])
def test_vendored_tableaux_are_scipys(method, count):
    # integrate and direct_channel read their pair from _tableaux instead of
    # importing SciPy; every attribute they read must be SciPy's own, to
    # the bit
    ours, scipys = getattr(_tableaux, method), getattr(scipy.integrate, method)
    names = [name for name in vars(ours) if not name.startswith("_")]
    assert len(names) == count
    for name in names:
        got, want = np.asarray(getattr(ours, name)), np.asarray(getattr(scipys, name))
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


def test_each_route_steps_its_own_stepper(monkeypatch):
    # both routes take one plan on preset A's verify grid: 2 601 equal
    # DOP853 steps at the cap, 13 in each interval and 1 of length 0 in the
    # empty first.  direct_channel evaluates the 12 stage times t0 + C h of
    # each, 12 * 2 601 in all, in one call per block of at most 256 steps:
    # 11.  integrate reads the stage times t0 + C[1:] h of the same steps,
    # to the bit (its first stage is the last one of the step before), and
    # t = 0 once: 11 * 2 601 + 1 in one call per block of at most 64 steps
    # and one for t = 0: 42
    seen = []
    coefficients = kernels.coefficients

    def counting(t, p):
        seen.append(np.array(t, dtype=float).ravel())
        return coefficients(t, p)

    monkeypatch.setattr(kernels, "coefficients", counting)
    ts = GAMMA_T_GRID / P_A.gamma
    integrate(P_A, ts)
    riccati = np.concatenate(seen)
    calls = len(seen)
    seen.clear()
    oracle.direct_channel(P_A, ts)
    direct = np.concatenate(seen)
    assert (riccati.size, calls) == (11 * 2_601 + 1, 42)
    assert (direct.size, len(seen)) == (12 * 2_601, 11)
    # the direct route's stage times without the first interval's step (at
    # t = 0), and its first node, C[0] = 0
    direct = direct.reshape(-1, 12)[1:, 1:]
    assert riccati[0] == 0.0 and np.all(riccati[1:12] == 0.0)
    assert riccati[12:].tobytes() == direct.tobytes()


# after the empty first interval (1 step), three intervals of preset A of
# 255 steps each, more than a block of RICCATI_BLOCK_STEPS: a step that
# misses the tolerance in a later block sends its interval back to its start
RESTART_GRID = np.array([0.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("p, rel_tol, ts, want", [
    (P_A, 1e-9, None, [2_601]),
    (P_A, 1e-10, None, [2_601] + [26] * 194),
    (P_A, 1e-11, None, [2_601] + [26] * 200),
    (P_B, 1e-12, None, [1_081]),
    (P_C, 1e-12, None, [1_081]),
    (P_A, 1e-10, RESTART_GRID, [766, 510, 510, 510]),
], ids=["A-1e-9", "A-1e-10", "A-1e-11", "B-1e-12", "C-1e-12", "A-1e-10-restart"])
def test_integrate_refines_only_where_the_error_asks(monkeypatch, p, rel_tol, ts, want):
    # as the direct route does: at rel_tol 1e-10, 194 of A's 200 intervals
    # of 13 steps double them, at 1e-11 all 200 (not the empty first), and
    # B and C stay at the cap down to 1e-12
    plans = step_plans(monkeypatch)
    integrate(p, np.linspace(0.0, 10.0 / p.gamma, 201) if ts is None else ts,
              IntegratorSettings(rel_tol=rel_tol))
    assert plans == want


def _reference_integrate(p, times, rel_tol=1e-9):
    """The reference for integrate: all nine Wei-Norman reals stepped one
    DOP853 step and one stage at a time through _rhs, on the same plan,
    stage times, error norm and refinement, with one coefficient call per
    piece of an interval."""
    rk = _tableaux.DOP853
    ns = rk.n_stages
    weights = [rk.A[s, :s] for s in range(ns)]
    ts = lie_channel.check_grid(times)
    prev = np.concatenate(([0.0], ts[:-1]))
    steps = lie_channel._step_counts(prev, ts, p, step_cap(p),
                                     lie_channel.RICCATI_MAX_STEPS, ("DOP853", "integrate"))

    def rows(times):
        cols = lie_channel._coefficient_columns(times.ravel(), p, kernels.coefficients)
        return lie_channel._records(cols)

    def interval(i, n, y, f):
        k = np.empty((ns + 1, 9))
        kt = [k[:s].T for s in range(ns + 2)]
        start, dt, count, _ = lie_channel._pieces(prev[i:i + 1], ts[i:i + 1], n,
                                                   lie_channel.RICCATI_BLOCK_STEPS)
        for t0, h, c in zip(start.tolist(), dt.tolist(), count.tolist()):
            recs = rows((t0 + np.arange(c) * h)[:, None] + rk.C[1:] * h)
            for at in range(0, len(recs), ns - 1):
                rec = recs[at:at + ns - 1]
                k[0] = f
                for s in range(1, ns):
                    k[s] = lie_channel._rhs(rec[s - 1], y + np.dot(kt[s], weights[s]) * h)
                y_new = y + h * np.dot(kt[ns], rk.B)
                f_new = lie_channel._rhs(rec[-1], y_new)
                k[ns] = f_new
                err = lie_channel.error_norm(h, np.dot(kt[ns + 1], rk.E5),
                                             np.dot(kt[ns + 1], rk.E3), y, y_new, rel_tol)
                if not err < 1.0:
                    return None
                y, f = y_new, np.array(f_new)
        return y, f

    y = np.zeros(9)
    f = np.array(lie_channel._rhs(rows(np.zeros(1))[0], y))
    out = np.empty((9, ts.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(ts.size):
            n, doublings = steps[i:i + 1], 0
            while (end := interval(i, n, y, f)) is None:
                n = lie_channel.doubled(n, doublings, rel_tol, prev[i])
                doublings += 1
            y, f = end
            out[:, i] = y
    return channel_at(ts, out, kernels.decay_exponent(ts, p))


@pytest.mark.parametrize("name, rel_tol, ts", [
    ("A", 1e-9, None), ("B", 1e-9, None), ("C", 1e-9, None), ("A", 1e-10, None),
    ("A", 1e-10, RESTART_GRID),
], ids=["A-1e-9", "B-1e-9", "C-1e-9", "A-1e-10", "A-1e-10-restart"])
def test_integrate_matches_the_reference_stepper(channel_bank, name, rel_tol, ts):
    # integrate steps j+ and k+ in Python scalars and the driven components
    # per block in NumPy: the same DOP853 method as the nine-component
    # loop, up to rounding, on the default plan, where (A at 1e-10) 194
    # intervals double, and where each interval restarts from a block
    # before the one that missed
    entry = channel_bank[name]
    times = entry.times if ts is None else ts
    got = (entry.series if (rel_tol, ts) == (1e-9, None) else
           integrate(entry.params, times, IntegratorSettings(rel_tol=rel_tol)))
    want = _reference_integrate(entry.params, times, rel_tol)
    for field in ("l", "m", "n", "p", "x", "y", "q", "r"):
        assert np.max(np.abs(getattr(got, field) - getattr(want, field))) < 1e-13, field


def test_integrate_keeps_its_memory_to_a_block(channel_bank):
    # one block of at most RICCATI_BLOCK_STEPS steps at a time: a table of
    # the whole grid's stage records would take several MB
    entry = channel_bank["A"]
    tracemalloc.start()
    try:
        integrate(entry.params, entry.times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_grid_validation():
    with pytest.raises(GridError):
        integrate(P_B, [])
    with pytest.raises(GridError):
        integrate(P_B, [-1.0, 0.0])
    with pytest.raises(GridError):
        integrate(P_B, [0.0, 2.0, 1.0])
    with pytest.raises(GridError):
        integrate(P_B, [0.0, 1.0, 1.0])


def test_time_zero_only_grid():
    cf = integrate(P_B, [0.0])
    assert cf.t.tolist() == [0.0]
    _assert_identity(cf)


# ---------------------------------------------------------------------------
# Magnus sector propagator

def _max_gap(a, b) -> float:
    """Largest |delta rho| between two channels over the Hermitian probes."""
    return max(float(np.max(np.abs(apply_channel(a, rho) - apply_channel(b, rho))))
               for rho in HERMITIAN_PROBES.values())


@pytest.mark.parametrize("name, bound", [("A", 5e-9), ("B", 1e-10), ("C", 1e-10)])
def test_integrate_matches_a_tight_direct_reference(channel_bank, name, bound):
    # integrate at its default rel_tol 1e-9 against direct_channel at 1e-12:
    # 1.5e-9, 7.3e-14 and 7.5e-14 on the direct route's plan (1.8e-9,
    # 1.3e-13 and 3.3e-14 under SciPy's adaptive step control; 1.8e-8,
    # 1.8e-9 and 8.2e-11 while integrate stepped RK45)
    entry = channel_bank[name]
    ref = oracle.direct_channel(entry.params, entry.times,
                                IntegratorSettings(rel_tol=1e-12))
    assert _max_gap(entry.series, ref) < bound


def test_integrate_keeps_every_sample_at_strong_coupling():
    # at lam = 100 gamma, e^{+Gamma_k} alone leaves float range between
    # gamma t = 10 and 15; inside one exponent with -Gamma_k the map stays
    # finite and matches the direct route at every sample
    p = BathParams(omega0=3.0, gamma=1.0, lam=100.0)
    cf = integrate(p, [0.0, 5.0, 10.0, 15.0, 20.0])
    assert cf.t.tolist() == [0.0, 5.0, 10.0, 15.0, 20.0]
    assert _max_gap(cf, oracle.direct_channel(p, cf.t)) < 1e-6


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_propagate_matches_direct_route(direct_bank, name):
    p = {"A": P_A, "B": P_B, "C": P_C}[name]
    assert _max_gap(propagate(p, GAMMA_T_GRID / p.gamma), direct_bank[name]) < 1e-6


def test_propagate_matches_direct_route_at_strong_coupling():
    # at lam = 1000 gamma the 1/(40 lam) term sets the step
    p = BathParams(omega0=10.0, gamma=1.0, lam=1000.0)
    ts = np.linspace(0.0, 2.0 / p.gamma, 201)
    assert _max_gap(propagate(p, ts), oracle.direct_channel(p, ts)) < 1e-6


def test_propagate_truncated_generator_matches_direct_route():
    ts = np.linspace(0.0, 6.0, 31)
    plus = HERMITIAN_PROBES["plus"]
    cf = propagate(P_B, ts, coefficient_fn=oracle.truncated_coefficients)
    direct = oracle.integrate_master_direct(
        P_B, plus, ts, coefficient_fn=oracle.truncated_coefficients)
    assert np.max(np.abs(apply_channel(cf, plus) - direct)) < 1e-6


@pytest.mark.parametrize("name, route", [*((n, "magnus") for n in "ABC"),
                                         *((n, "direct") for n in "ABC")],
                         ids=["p0", "p1", "p2", "direct_A", "direct_B", "direct_C"])
def test_propagate_population_columns_sum_to_one(direct_bank, name, route):
    # the direct propagator's sector blocks go through the same sector_channel
    p = {"A": P_A, "B": P_B, "C": P_C}[name]
    cf = (direct_bank[name] if route == "direct"
          else propagate(p, np.linspace(0.0, 10.0 / p.gamma, 201)))
    assert np.max(np.abs(cf.l + cf.p - 1.0)) < 1e-12
    assert np.max(np.abs(cf.m + cf.n - 1.0)) < 1e-12
    # the coherence map is real-linear on rho10, so q and r mirror x and y
    assert np.all(cf.q == np.conj(cf.x)) and np.all(cf.r == np.conj(cf.y))


def test_propagate_runs_to_the_stationary_state():
    # far past gamma t ~ 140, where e^{+Gamma_k} alone overflows; the
    # excited population settles at 0.0263 on preset C
    cf = propagate(P_C, np.linspace(0.0, 200.0 / P_C.gamma, 201))
    for name in ("l", "m", "n", "p", "x", "y"):
        assert np.all(np.isfinite(getattr(cf, name))), name
    assert np.max(np.abs(cf.l + cf.p - 1.0)) < 1e-10
    assert np.max(np.abs(cf.m + cf.n - 1.0)) < 1e-10
    assert np.all(np.abs(cf.l[-20:] - 0.0263) < 5e-5)
    assert np.all(np.abs(cf.m[-20:] - 0.0263) < 5e-5)
    assert np.max(np.abs(cf.x[-20:])) < 1e-10


def test_magnus_step_rule():
    for p in (P_A, P_B, P_C):
        assert magnus_step(p) == step_cap(p) / 4.0
    strong = BathParams(omega0=10.0, gamma=1.0, lam=1000.0)
    assert magnus_step(strong) == 1.0 / 40000.0


def test_propagate_block_size_does_not_change_the_channel(monkeypatch):
    # uneven intervals; at 37 steps per block most of them are split into
    # pieces, and the pieces and blocks regroup the same steps
    ts = np.array([0.25, 0.5, 0.503, 3.0, 3.2, 7.0])
    base = propagate(P_C, ts)
    monkeypatch.setattr(lie_channel, "MAGNUS_BLOCK_STEPS", 37)
    small = propagate(P_C, ts)
    for name in ("l", "m", "n", "p", "x", "y"):
        assert np.max(np.abs(getattr(small, name) - getattr(base, name))) < 1e-13
    # the first interval runs from t = 0 to the first sample time
    assert abs(base.l[0] - propagate(P_C, [0.0, ts[0]]).l[-1]) < 1e-15


@pytest.mark.parametrize("p, rel_tol, ts", [
    (P_C, 1e-9, [0.25, 0.5, 0.503, 3.0, 3.2, 7.0]),
    (P_A, 1e-11, [0.0, 0.05, 0.1, 1.0, 1.03]),
], ids=["C-1e-9", "A-1e-11"])
def test_dop853_block_size_does_not_change_the_channel(monkeypatch, p, rel_tol, ts):
    # the DOP853 driver cuts the same steps into blocks of 7 and of 37 across
    # interval ends, and on A at 1e-11 refines intervals that start in one
    # block and miss in a later one
    settings = IntegratorSettings(rel_tol=rel_tol)
    base = (integrate(p, ts, settings), oracle.direct_channel(p, ts, settings))
    for block in (7, 37):
        monkeypatch.setattr(lie_channel, "RICCATI_BLOCK_STEPS", block)
        monkeypatch.setattr(oracle, "DIRECT_BLOCK_STEPS", block)
        small = (integrate(p, ts, settings), oracle.direct_channel(p, ts, settings))
        for got, want in zip(small, base):
            for name in ("l", "m", "n", "p", "x", "y", "q", "r"):
                assert np.max(np.abs(getattr(got, name) - getattr(want, name))) < 1e-13


@pytest.mark.parametrize("p, ts", [
    # gamma t = 10 at gamma = 1e-300: 4e303 steps, past int64
    (BathParams(omega0=3.0, gamma=1e-300, lam=10.0), [0.0, 1e301]),
    (P_C, [0.0, 1e12]),
    # each interval short enough, the sum too long
    (P_C, np.linspace(0.0, 3e5, 201)),
    (P_C, [0.0, math.inf]),
])
def test_propagate_refuses_too_many_steps(p, ts):
    with pytest.raises(DomainError, match="Magnus steps"):
        propagate(p, ts)


def test_propagate_grid_rules():
    _assert_identity(propagate(P_B, [0.0]))
    for bad in ([], [-1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0]):
        with pytest.raises(GridError):
            propagate(P_B, bad)

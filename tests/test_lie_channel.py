"""Single-qubit channel: Riccati flow, coefficient assembly, map action."""

import functools
import math
import operator
import textwrap
import time

import numpy as np
import pytest
import scipy.integrate

from conftest import (GAMMA_T_GRID, HERMITIAN_PROBES, single_time_series, step_plans,
                      traced_peak)

import beyondrwa
from beyondrwa import BathParams, _tableaux, kernels, lie_channel, oracle
from beyondrwa.errors import DomainError, GridError, ShapeError, ToleranceError
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


@pytest.mark.parametrize("shape", [(3, 3), (4,), (1, 2, 2), (4, 4)])
def test_apply_channel_takes_one_qubit_state(shape):
    # as evolve_pair refuses a joint state that is not 4x4
    with pytest.raises(ShapeError, match="2x2"):
        apply_channel(IDENTITY, np.zeros(shape))


def _record(p, t):
    """The coefficient record that integrate's stage functions read at t."""
    return lie_channel._records(kernels.coefficients(np.array([t]), p))[0]


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


def _apply_by_elements(series, rho0):
    """The map's action written element by element (module docstring):
    the reference that apply_channel, the action of transfer_matrix, must
    reproduce."""
    rho0 = np.asarray(rho0, dtype=complex)
    out = np.empty((len(series), 2, 2), dtype=complex)
    out[:, 0, 0] = series.l * rho0[0, 0] + series.m * rho0[1, 1]
    out[:, 0, 1] = series.x * rho0[0, 1] + series.y * rho0[1, 0]
    out[:, 1, 0] = series.q * rho0[1, 0] + series.r * rho0[0, 1]
    out[:, 1, 1] = series.n * rho0[1, 1] + series.p * rho0[0, 0]
    return out


def test_transfer_matrix_matches_apply(direct_bank):
    # j+ = 0.1-0.2i, j0 = -0.4+2i, j- = 0.05+0.01i, k+ = 0.3, k0 = -1.1,
    # k- = 0.2, Gamma_k = 0.8
    cf = _at_one_time([0.1, -0.2, -0.4, 2.0, 0.05, 0.01, 0.3, -1.1, 0.2],
                      decay=0.8)
    rho = np.array([[0.55, 0.2 - 0.1j], [0.2 + 0.1j, 0.45]])
    for series in (cf, direct_bank["C"]):
        for probe in (rho, *HERMITIAN_PROBES.values()):
            assert np.array_equal(apply_channel(series, probe),
                                  _apply_by_elements(series, probe))
    (tm,) = transfer_matrix(cf)
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
    # k+' = 1 + k+^2 (nu_plus = 1, nu_minus = -1) is solved by tan t, which
    # blows up at pi/2; every field has the times' shape, as in
    # kernels.coefficients
    return kernels.CoefficientSet(
        *(np.full(np.shape(t), v) for v in (0j, 0j, 0.0, 1.0, -1.0)))


def test_riccati_pole_raises_tolerance_error(monkeypatch):
    # the Wei-Norman route steps DOP853; an interval that steps into the pole
    # of tan t misses the tolerance however often its steps double, and the
    # integration ends there.  The scalar core runs into the pole without
    # OverflowError, as the nine-component reference loop does
    monkeypatch.setattr(kernels, "coefficients", _tan_riccati)
    ts = np.linspace(0.0, 2.0, 11)
    with pytest.raises(ToleranceError, match=r"t = 1\.4 miss .*--rel-tol") as got:
        integrate(P_C, ts)
    with pytest.raises(ToleranceError) as want:
        _reference_integrate(P_C, ts)
    assert str(got.value) == str(want.value)


def _dot(weights, ks):
    """sum(map(operator.mul, weights, ks)) as sum() adds it up to Python
    3.11: from the int 0, left to right (3.12 compensates float sums)."""
    return functools.reduce(operator.add, map(operator.mul, weights, ks), 0)


def _summed_stages(cols, hs, jp, kp, djp, dkp):
    """The stage loop that _riccati_stages replaced: every entry of DOP853's
    A and B, weighted and added by _dot, and each derivative from
    _riccati_rhs on the record of its stage.  It reads eps_plus, not the
    eps- column."""
    rk = _tableaux.DOP853
    a_rows = [rk.A[s, :s].tolist() for s in range(1, rk.n_stages)]
    eps_plus, _, eps0, nu_plus, nu_minus, nu0 = cols
    values_j, values_k, derivs_j, derivs_k = [], [], [], []
    for i, h in enumerate(hs):
        recs = list(zip(eps0[i], eps_plus[i], nu0[i], nu_plus[i], nu_minus[i]))
        kj, kk = [djp], [dkp]
        for a, rec in zip(a_rows, recs, strict=True):
            js = jp + _dot(a, kj) * h
            ks = kp + _dot(a, kk) * h
            values_j.append(js)
            values_k.append(ks)
            djp, dkp = lie_channel._riccati_rhs(rec, js, ks)
            kj.append(djp)
            kk.append(dkp)
        jp = jp + h * _dot(rk.B.tolist(), kj)
        kp = kp + h * _dot(rk.B.tolist(), kk)
        values_j.append(jp)
        values_k.append(kp)
        djp, dkp = lie_channel._riccati_rhs(recs[-1], jp, kp)
        derivs_j += kj + [djp]
        derivs_k += kk + [dkp]
    return values_j, values_k, derivs_j, derivs_k


@pytest.mark.parametrize("seed", range(6))
def test_straight_line_stages_add_as_sum_does(seed):
    # the generated stages leave out the zero entries of A and B and
    # inline the Riccati equations; on drawn coefficient columns, with a
    # share `zeros` of signed zeros among them and in the start (all of
    # them on the last two seeds), every stage value, end value and
    # derivative is the same to the bit as the summed loop's on _riccati_rhs
    rng = np.random.default_rng(seed)
    zeros = (0.25, 0.25, 0.75, 0.75, 1.0, 1.0)[seed]

    def signed(shape, decades):
        # normal draws scaled by 10^u, u uniform in [-decades, decades]
        v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-decades, decades, shape)
        return np.where(rng.random(shape) < zeros, np.copysign(0.0, v), v)

    steps = 3
    shape = (steps, 11)
    eps_plus, eps0 = (signed(shape, 2) + 1j * signed(shape, 2) for _ in range(2))
    # in the order of _STAGE_COLUMNS
    cols = [eps_plus.tolist(), np.conj(eps_plus).tolist(), eps0.tolist(),
            *(signed(shape, 2).tolist() for _ in range(3))]
    hs = rng.uniform(1e-4, 1e-3, steps).tolist()
    jp, djp = (complex(*signed(2, 1)) for _ in range(2))
    kp, dkp = signed(2, 1).tolist()

    got = lie_channel._riccati_stages()(cols, hs, jp, kp, djp, dkp)
    want = _summed_stages(cols, hs, jp, kp, djp, dkp)
    for g, w in zip(got, want, strict=True):
        assert np.all(np.isfinite(g))
        assert np.array(g).view(np.uint64).tolist() == np.array(w).view(np.uint64).tolist()


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
    interval.  It counts its own steps: equal steps of at most step_cap,
    and at least one, in each interval."""
    rk = _tableaux.DOP853
    ns = rk.n_stages
    weights = [rk.A[s, :s] for s in range(ns)]
    ts = lie_channel.check_grid(times)
    prev = np.concatenate(([0.0], ts[:-1]))
    steps = np.maximum(1.0, np.ceil((ts - prev) / step_cap(p))).astype(np.int64)

    def rows(times):
        return lie_channel._records(kernels.coefficients(times.ravel(), p))

    def interval(i, n, y, f):
        k = np.empty((ns + 1, 9))
        kt = [k[:s].T for s in range(ns + 2)]
        h = float((ts[i] - prev[i]) / n[0])
        recs = rows((prev[i] + np.arange(n[0]) * h)[:, None] + rk.C[1:] * h)
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


@pytest.mark.parametrize("rel_tol, ts", [
    (1e-11, GAMMA_T_GRID / P_A.gamma), (1e-10, RESTART_GRID),
], ids=["A-1e-11", "A-1e-10-restart"])
def test_refinement_does_not_depend_on_the_block_size(monkeypatch, rel_tol, ts):
    # a step's error norm reads only that step, so where the walk's blocks
    # end changes no plan: blocks of 7 and 37 cut A's 13-step and 26-step
    # intervals, and the restart grid's intervals of 255 and 510 steps
    # span several blocks.  Every step rounds as it would in any block
    # (_driven_steps sums by einsum, not matmul), so the channel is the same
    # to the bit
    settings = IntegratorSettings(rel_tol=rel_tol)
    runs = []
    for block in (7, 37, 64):
        monkeypatch.setattr(lie_channel, "RICCATI_BLOCK_STEPS", block)
        plans = step_plans(monkeypatch)
        runs.append((plans, integrate(P_A, ts, settings)))
        monkeypatch.undo()
    (want_plans, want), *others = runs
    assert len(want_plans) > 1
    for plans, got in others:
        assert plans == want_plans
        for name in ("t", "l", "m", "n", "p", "x", "y", "q", "r"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_integrate_keeps_its_memory_to_a_block(channel_bank):
    # one block of at most RICCATI_BLOCK_STEPS steps at a time: a table of
    # the whole grid's stage records would take several MB.  propagate on A
    # to gamma t = 100, 102 001 Magnus steps, holds one block of at most
    # MAGNUS_BLOCK_STEPS at a time as well (1.2 MB): in one block, the
    # whole grid peaks at 46 MB
    entry = channel_bank["A"]
    assert traced_peak(integrate, entry.params, entry.times) < 1_000_000
    assert traced_peak(propagate, entry.params, 10.0 * entry.times) < 2_000_000


def test_grid_validation():
    with pytest.raises(GridError):
        integrate(P_B, [])
    with pytest.raises(GridError):
        integrate(P_B, [-1.0, 0.0])
    with pytest.raises(GridError):
        integrate(P_B, [0.0, 2.0, 1.0])
    with pytest.raises(GridError):
        integrate(P_B, [0.0, 1.0, 1.0])
    with pytest.raises(GridError):
        integrate(P_B, [math.nan])


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


@pytest.mark.parametrize("route", [propagate, oracle.direct_channel],
                         ids=["propagate", "direct"])
def test_routes_refuse_coefficients_without_the_times_shape(route):
    # one time's coefficients for many times failed in a NumPy reshape,
    # and a single scalar field broadcast over the times without an error
    ts = np.linspace(0.0, 2.0, 11)
    one_time = lambda t, p: kernels.coefficients(0.5, p)
    one_field = lambda t, p: kernels.coefficients(t, p)._replace(eps0=0.1j)
    for cfn, field in ((one_time, "eps0"), (one_field, "eps0 of shape ()")):
        with pytest.raises(ShapeError, match=f"coefficient_fn returned {field}"):
            route(P_B, ts, coefficient_fn=cfn)


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


def test_package_example_runs():
    # the indented example of the package docstring, run as written there
    code = textwrap.dedent("\n".join(line for line in beyondrwa.__doc__.splitlines()
                                     if line.startswith("    ")))
    space = {}
    exec(code, space)
    assert space["curve"].shape == (201,) and abs(space["curve"][0] - 1.0) < 1e-12


def test_magnus_step_rule():
    for p in (P_A, P_B, P_C):
        assert magnus_step(p) == step_cap(p) / 4.0
    strong = BathParams(omega0=10.0, gamma=1.0, lam=1000.0)
    assert magnus_step(strong) == 1.0 / 40000.0


def test_propagate_block_size_does_not_change_the_channel(monkeypatch):
    # the one step walk (_step_plan) cuts the same Magnus steps into blocks
    # of 7 and of 37 across uneven interval ends
    ts = np.array([0.25, 0.5, 0.503, 3.0, 3.2, 7.0])
    base = propagate(P_C, ts)
    for block in (7, 37):
        monkeypatch.setattr(lie_channel, "MAGNUS_BLOCK_STEPS", block)
        small = propagate(P_C, ts)
        for name in ("l", "m", "n", "p", "x", "y"):
            assert np.max(np.abs(getattr(small, name) - getattr(base, name))) < 1e-13
    # the first interval runs from t = 0 to the first sample time
    assert abs(base.l[0] - propagate(P_C, [0.0, ts[0]]).l[-1]) < 1e-15
    # and propagate takes one plan at magnus_step, which nothing refines:
    # its block stepper takes each of the plan's steps once
    plans, taken = step_plans(monkeypatch), []
    block = lie_channel._magnus_block

    def counted(p, cfn, t0, h, state):
        taken.append(h.size)
        return block(p, cfn, t0, h, state)

    monkeypatch.setattr(lie_channel, "_magnus_block", counted)
    propagate(P_C, ts)
    assert len(plans) == 1 and plans == [sum(taken)]


@pytest.mark.parametrize("p, rel_tol, ts", [
    (P_C, 1e-9, [0.25, 0.5, 0.503, 3.0, 3.2, 7.0]),
    (P_A, 1e-11, [0.0, 0.05, 0.1, 1.0, 1.03]),
], ids=["C-1e-9", "A-1e-11"])
def test_dop853_block_size_does_not_change_the_channel(monkeypatch, p, rel_tol, ts):
    # the DOP853 driver cuts the same steps into blocks of 7 and of 37 across
    # interval ends, and on A at 1e-11 refines intervals that start in one
    # block and miss in a later one.  The Wei-Norman channel is the same to
    # the bit; the direct one moves by rounding, as its prefix products
    # associate by block
    settings = IntegratorSettings(rel_tol=rel_tol)
    base = (integrate(p, ts, settings), oracle.direct_channel(p, ts, settings))
    for block in (7, 37):
        monkeypatch.setattr(lie_channel, "RICCATI_BLOCK_STEPS", block)
        monkeypatch.setattr(oracle, "DIRECT_BLOCK_STEPS", block)
        wei_norman, direct = integrate(p, ts, settings), oracle.direct_channel(p, ts, settings)
        for name in ("l", "m", "n", "p", "x", "y", "q", "r"):
            assert np.array_equal(getattr(wei_norman, name), getattr(base[0], name)), name
            assert np.max(np.abs(getattr(direct, name) - getattr(base[1], name))) < 1e-13


@pytest.mark.parametrize("n", [*range(1, 18), 2048])
@pytest.mark.parametrize("size", [2, 4])
def test_prefix_products_match_a_left_multiplying_loop(n, size):
    # entry k of the scan is e_k ... e_1 e_0, over a leading axis too, and
    # the scan writes into the array it was given.  The factors are near
    # the identity, as the steps of the propagators are
    e = np.eye(size) + 0.01 * np.random.default_rng(n).normal(size=(3, n, size, size))
    want = e.copy()
    for k in range(1, n):
        want[:, k] = want[:, k] @ want[:, k - 1]
    got = lie_channel._prefix_products(e)
    assert got is e
    scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
    assert np.max(np.abs(got - want) / scale) < 1e-13


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


@pytest.mark.parametrize("route, message", [
    (integrate, r"DOP853 steps .* more than the 1e\+06 integrate takes"),
    (oracle.direct_channel, r"DOP853 steps .* more than the 1e\+07 direct_channel takes"),
    (propagate, r"Magnus steps .* more than the 1e\+08 propagate takes"),
], ids=["integrate", "direct_channel", "propagate"])
def test_every_route_refuses_too_many_steps(route, message):
    # the one step walk counts the steps of every route against the
    # route's own limit, before it allocates anything, and names the flags
    # that cut the count
    with pytest.raises(DomainError, match=message) as caught:
        route(P_C, [0.0, 1e12])
    assert str(caught.value).endswith(": shorten --tmax")


def test_propagate_grid_rules():
    _assert_identity(propagate(P_B, [0.0]))
    for bad in ([], [-1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [math.nan]):
        with pytest.raises(GridError):
            propagate(P_B, bad)

"""Direct master-equation integration, QUADPACK, and the rotating-wave
reference."""

import math
import types

import numpy as np
import pytest
import scipy.integrate
from scipy.optimize import brentq

from conftest import step_plans

from beyondrwa import BathParams, cli, kernels, lie_channel, oracle
from beyondrwa.errors import DomainError, GridError, ToleranceError
from beyondrwa.lie_channel import IntegratorSettings, apply_channel

P_A = BathParams(omega0=100.0, gamma=1.0, lam=10.0)
P_B = BathParams(omega0=10.0, gamma=1.0, lam=10.0)
P_C = BathParams(omega0=3.0, gamma=1.0, lam=10.0)

EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

# first zero and largest later maximum of |q|^2 for lam = 10 gamma, frozen
# from a root find on the closed form
RWA_FIRST_ZERO = 0.8242034311692071
RWA_POST_DEATH_PEAK = 0.23658172551984274


def test_direct_time_zero_round_trip():
    out = oracle.integrate_master_direct(P_B, PLUS, [0.0])
    assert out.shape == (1, 2, 2)
    assert np.array_equal(out[0], PLUS)


def test_direct_grid_validation():
    with pytest.raises(GridError):
        oracle.integrate_master_direct(P_B, PLUS, [])
    with pytest.raises(GridError):
        oracle.integrate_master_direct(P_B, PLUS, [0.0, 2.0, 1.0])
    # the rotating-wave channel follows the same grid rules
    with pytest.raises(GridError):
        oracle.rwa_channel([1.0, 0.0], P_B)


def test_direct_matches_channel_on_coherent_state():
    ts = np.linspace(0.0, 10.0, 51)
    series = lie_channel.integrate(P_B, ts)
    direct = oracle.integrate_master_direct(P_B, PLUS, ts)
    assert np.max(np.abs(apply_channel(series, PLUS) - direct)) < 1e-6


def _operator_rhs(t, yv, p, cfn):
    """The direct right-hand side term by term on the 2x2 density matrix,
    the form _direct_matrices replaced by its superoperator basis."""
    c = cfn(t, p)
    rho = np.array([[yv[0], yv[1] + 1j * yv[2]],
                    [yv[1] - 1j * yv[2], yv[3]]], dtype=complex)
    sp, sm, sz, pe = oracle._SP, oracle._SM, oracle._SZ, oracle._PE
    gdot = (c.nu_plus + c.nu_minus) / 2.0
    d = (-gdot * rho
         + c.eps0 * (sz @ rho - rho @ sz) / 4.0
         + c.eps_plus * (sp @ rho @ sp)
         + c.eps_minus * (sm @ rho @ sm)
         + c.nu0 * (pe @ rho + rho @ pe - rho) / 2.0
         + c.nu_plus * (sp @ rho @ sm)
         + c.nu_minus * (sm @ rho @ sp))
    return np.array([d[0, 0].real, d[0, 1].real, d[0, 1].imag, d[1, 1].real])


@pytest.mark.parametrize("cfn", [kernels.coefficients,
                                 oracle.truncated_coefficients])
@pytest.mark.parametrize("p", [P_A, P_B, P_C])
def test_direct_rhs_matches_operator_expression(p, cfn):
    rng = np.random.default_rng(11)
    for t, yv in zip(rng.uniform(0.0, 10.0, 50), rng.normal(size=(50, 4))):
        ref = _operator_rhs(t, yv, p, cfn)
        (m,) = oracle._direct_matrices(np.array([t]), p, cfn)
        got = m @ yv
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # direct_channel reads only the population and coherence blocks of the
    # propagator: no term may couple the two
    basis = oracle._BASIS.reshape(-1, 4, 4)
    assert not basis[:, [0, 0, 3, 3, 1, 1, 2, 2], [1, 2, 1, 2, 0, 3, 0, 3]].any()


@pytest.mark.parametrize("p, want", [(P_A, [2_601] + [26] * 200), (P_B, [1_081]),
                                     (P_C, [1_081])], ids=["A", "B", "C"])
def test_direct_channel_refines_only_where_the_error_asks(monkeypatch, p, want):
    # the largest DOP853 error norm of a step at the cap is 0.038 on A,
    # 3.8e-6 on B and 1.4e-6 on C at rel_tol 1e-9, a thousand times more at
    # 1e-12: there every interval of A but the empty first one doubles its
    # 13 steps, one interval at a time, and B and C stay at the cap
    plans = step_plans(monkeypatch)
    ts = np.linspace(0.0, 10.0 / p.gamma, 201)
    oracle.direct_channel(p, ts)
    assert plans == want[:1]
    plans.clear()
    oracle.direct_channel(p, ts, IntegratorSettings(rel_tol=1e-12))
    assert plans == want


def test_direct_channel_refuses_when_refinement_is_exhausted(monkeypatch):
    # at rel_tol 1e-12 preset A must double its steps, and the rule both
    # routes share, with no doubling allowed, leaves no room for that
    monkeypatch.setattr(lie_channel, "MAX_DOUBLINGS", 0)
    ts = np.linspace(0.0, 10.0, 201)
    with pytest.raises(ToleranceError,
                       match=r"from t = 0 miss .*--rel-tol.* after 0 doublings"):
        oracle.direct_channel(P_A, ts, IntegratorSettings(rel_tol=1e-12))
    # a generator that is not finite cannot be refined away
    nan = lambda t, p: kernels.CoefficientSet(
        *(v * np.where(t < 0.5, 1.0, np.nan) for v in kernels.coefficients(t, p)))
    with pytest.raises(ToleranceError, match="not finite"):
        oracle.direct_channel(P_C, ts, coefficient_fn=nan)


@pytest.mark.parametrize("p, ts, remedy", [
    (P_A, [0.0, 1e5], "shorten --tmax, lower --omega0 or raise --gamma"),
    (P_C, [0.0, 1e6], "shorten --tmax"),
    (P_C, [0.0, math.inf], "shorten --tmax"),
])
def test_direct_channel_refuses_too_many_steps(p, ts, remedy):
    # checked before any allocation, as propagate does, naming the flags
    # that cut the count: omega0 sets A's cap, the memory time C's
    with pytest.raises(DomainError, match="DOP853 steps") as caught:
        oracle.direct_channel(p, ts)
    assert str(caught.value).endswith(remedy)


def test_every_verify_quadrature_is_scipys(monkeypatch):
    # oracle._quad calls QUADPACK's extension without scipy.integrate; every
    # integral verify takes must equal scipy.integrate.quad's to the bit
    assert oracle._quadpack() is not None
    quad = oracle._quad
    seen = []

    def compared(fn, a, b, **options):
        got = quad(fn, a, b, **options)
        want = scipy.integrate.quad(fn, a, b, **options)[0]
        seen.append((options.get("weight"), math.isinf(b)))
        assert got.hex() == want.hex(), (a, b, options)
        return got

    monkeypatch.setattr(oracle, "_quad", compared)
    records = [*cli.check_kernels(cli.VERIFY_PRESETS), *cli.check_rwa()]
    assert len(records) == 6
    # every routine _quad dispatches to: plain finite (qagse) and infinite
    # (qagie), cosine- and sine-weighted finite (qawoe) and infinite (qawfe)
    assert len(seen) == 206
    assert set(seen) == {(None, False), (None, True), ("cos", False),
                         ("sin", False), ("cos", True)}


def test_quad_falls_back_to_scipy_and_keeps_its_warning(monkeypatch):
    f = lambda x: math.exp(-x * x) * math.cos(3.0 * x)
    intervals = [(0.0, 2.0), (0.0, math.inf), (-math.inf, math.inf), (1.0, 1.0)]
    direct = [oracle._quad(f, a, b) for a, b in intervals]
    # where the extension cannot be loaded or fails its probe, quad itself
    monkeypatch.setattr(oracle, "_quadpack", lambda: None)
    assert direct == [oracle._quad(f, a, b) for a, b in intervals]
    # a reversed interval, which quad would negate, is refused on both paths
    with pytest.raises(ValueError, match="no interval"):
        oracle._quad(f, 1.0, 0.0)
    # QUADPACK's ier > 0 warns, as quad's IntegrationWarning does
    loose = types.SimpleNamespace(_qagse=lambda *args: (0.25, 1e-3, 2))
    monkeypatch.setattr(oracle, "_quadpack", lambda: loose)
    with pytest.warns(RuntimeWarning, match="ier = 2"):
        assert oracle._quad(f, 0.0, 2.0) == 0.25


def test_quadpack_loader_declines_a_missing_extension(monkeypatch):
    import importlib.machinery

    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    assert oracle._quadpack.__wrapped__() is None


# ---------------------------------------------------------------------------
# rotating-wave amplitude and channel

def test_rwa_amplitude_normalization():
    assert oracle.rwa_amplitude(0.0, P_B) == 1.0
    mags = [abs(oracle.rwa_amplitude(t, P_B))
            for t in np.linspace(0.0, 20.0, 2001)]
    assert max(mags) <= 1.0 + 1e-12


def test_rwa_amplitude_is_real():
    for lam in (10.0, 0.3):
        p = BathParams(omega0=10.0, gamma=1.0, lam=lam)
        for t in np.linspace(0.0, 10.0, 101):
            assert abs(oracle.rwa_amplitude(t, p).imag) < 1e-14


def test_rwa_first_zero_closed_form_vs_root_find():
    f = lambda t: oracle.rwa_amplitude(t, P_B).real
    root = brentq(f, 0.5, 1.2, xtol=1e-14)
    assert oracle.rwa_first_zero(P_B) == pytest.approx(root, abs=1e-12)
    assert oracle.rwa_first_zero(P_B) == pytest.approx(RWA_FIRST_ZERO, abs=1e-15)


def test_rwa_post_death_peak_frozen_value():
    ts = np.linspace(RWA_FIRST_ZERO, 10.0, 200001)
    peak = float(np.max(np.abs(oracle.rwa_amplitude(ts, P_B)) ** 2))
    assert peak == pytest.approx(RWA_POST_DEATH_PEAK, abs=1e-6)


def test_rwa_rate_matches_finite_difference():
    assert oracle.rwa_amplitude_rate(0.0, P_B) == 0.0
    h = 1e-6
    for t in (0.3, 1.0, 4.0):
        fd = (oracle.rwa_amplitude(t + h, P_B)
              - oracle.rwa_amplitude(t - h, P_B)) / (2.0 * h)
        assert abs(oracle.rwa_amplitude_rate(t, P_B) - fd) < 1e-6


def test_rwa_hyperbolic_regime():
    weak = BathParams(omega0=10.0, gamma=1.0, lam=0.3)
    mags = [abs(oracle.rwa_amplitude(t, weak))
            for t in np.linspace(0.0, 20.0, 401)]
    assert max(mags) <= 1.0 + 1e-12
    assert min(mags) > 0.0   # never crosses zero below threshold coupling
    with pytest.raises(DomainError):
        oracle.rwa_first_zero(weak)
    # cosh and sinh of kappa t/2 alone overflow past kappa t ~ 1400; the
    # amplitude decays on, without a NumPy warning
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        late = oracle.rwa_amplitude(np.array([1e3, 2e3, 1e300]), weak)
    assert np.all(np.diff(late.real) < 0.0) and late[-1] == 0.0


def test_rwa_critical_damping_branch():
    crit = BathParams(omega0=10.0, gamma=1.0, lam=0.5)     # d = 0 exactly
    near = BathParams(omega0=10.0, gamma=1.0, lam=0.5 + 1e-9)
    for t in (0.1, 1.0, 5.0):
        assert oracle.rwa_amplitude(t, crit) == pytest.approx(
            oracle.rwa_amplitude(t, near), abs=1e-8)


@pytest.mark.parametrize("lam", [10.0, 0.3, 0.5],
                         ids=["oscillatory", "hyperbolic", "critical"])
def test_rwa_amplitude_on_an_array_equals_scalar_calls(lam):
    p = BathParams(omega0=10.0, gamma=1.0, lam=lam)    # lam = gamma/2: d = 0
    ts = np.linspace(0.0, 10.0, 1001)
    q = oracle.rwa_amplitude(ts, p)
    assert q.shape == ts.shape and q.dtype == complex
    # perfbench/gate.py calls it with one float
    scalars = [oracle.rwa_amplitude(float(t), p) for t in ts]
    assert all(isinstance(v, complex) for v in scalars)
    assert np.array_equal(q, np.array(scalars))
    assert np.array_equal(oracle.rwa_channel(ts, p).x, q)


def test_rwa_channel_structure():
    cf = oracle.rwa_channel([0.0, 0.5, 2.0], P_B)
    assert cf.t.tolist() == [0.0, 0.5, 2.0]
    assert np.all(cf.l + cf.p == 1.0)
    assert np.all(cf.m == 0.0) and np.all(cf.n == 1.0)
    assert np.all(cf.x == np.conj(cf.q))
    assert np.all(cf.y == 0.0) and np.all(cf.r == 0.0)
    assert cf.l[0] == 1.0


# ---------------------------------------------------------------------------
# truncated generator

def test_truncated_generator_misses_the_rotating_wave_revival(capsys):
    # on preset B's parameters (phi, beta^2 = 0.5, 2001 points to gamma t =
    # 10) the second-order generator without its counter-rotating terms
    # dies at gamma t = 2.28 and stays dead, while the exact rotating-wave
    # channel of the same bath dies at 2.265 and revives to 0.056
    rows = {}
    for channel in (["--preset", "B", "--truncated-rwa"], ["--preset", "RWA"]):
        argv = ["report", *channel, "--beta2", "0.5", "--t-steps", "2001"]
        assert cli.main(argv) == 0
        rows[channel[-1]] = capsys.readouterr().out.splitlines()[-1].split("\t")
    assert rows["--truncated-rwa"][1:4] == ["2.28", "0", "0"]
    assert rows["RWA"][1:3] == ["2.265", "2"]
    assert float(rows["RWA"][3]) == pytest.approx(0.056, abs=5e-4)


def test_counter_rotating_deviation_shrinks_with_frequency():
    # full generator against the truncated one (same order in the coupling,
    # counter-rotating terms dropped); no exponent asserted, just monotone
    # decrease in omega0.  Both go through the Magnus propagator, which
    # matches the direct route to < 1e-6 (test_lie_channel)
    ts = np.linspace(0.0, 10.0, 51)
    devs = []
    for w0 in (30.0, 100.0, 300.0):
        p = BathParams(omega0=w0, gamma=1.0, lam=10.0)
        full = lie_channel.propagate(p, ts)
        trunc = lie_channel.propagate(
            p, ts, coefficient_fn=oracle.truncated_coefficients)
        devs.append(max(float(np.max(np.abs(apply_channel(full, rho)
                                            - apply_channel(trunc, rho))))
                        for rho in (EXCITED, PLUS)))
    print("counter-rotating channel deviation vs omega0:",
          dict(zip((30, 100, 300), devs)))
    assert devs[0] > devs[1] > devs[2]

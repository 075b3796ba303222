"""Kernel closed forms against their defining integrals and structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beyondrwa import BathParams, kernels, oracle
from beyondrwa.errors import DomainError

PRESET_PARAMS = {
    "A": BathParams(omega0=100.0, gamma=1.0, lam=10.0),
    "B": BathParams(omega0=10.0, gamma=1.0, lam=10.0),
    "C": BathParams(omega0=3.0, gamma=1.0, lam=10.0),
}

params_strategy = st.builds(
    BathParams,
    omega0=st.floats(0.5, 200.0),
    gamma=st.floats(0.1, 5.0),
    lam=st.floats(0.1, 50.0),
)
times_strategy = st.floats(0.0, 30.0)


@pytest.mark.parametrize("field", ["omega0", "gamma", "lam"])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_params_must_be_positive(field, bad):
    kwargs = {"omega0": 10.0, "gamma": 1.0, "lam": 10.0, field: bad}
    with pytest.raises(DomainError):
        BathParams(**kwargs)


@pytest.mark.parametrize("field", ["omega0", "gamma", "lam"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_params_must_be_finite(field, bad):
    kwargs = {"omega0": 10.0, "gamma": 1.0, "lam": 10.0, field: bad}
    with pytest.raises(DomainError, match="finite"):
        BathParams(**kwargs)


def test_spectral_density_peak():
    p = PRESET_PARAMS["B"]
    assert kernels.spectral_density(p.omega0, p) == pytest.approx(
        p.lam / (2.0 * math.pi), rel=1e-15)
    # half maximum one width away from the peak
    assert kernels.spectral_density(p.omega0 + p.gamma, p) == pytest.approx(
        p.lam / (4.0 * math.pi), rel=1e-15)


@given(params_strategy, st.floats(-500.0, 500.0))
def test_spectral_density_bounds(p, omega):
    j = kernels.spectral_density(omega, p)
    assert 0.0 <= j <= p.lam / (2.0 * math.pi) * (1.0 + 1e-12)


def test_spectral_total_weight():
    for p in PRESET_PARAMS.values():
        assert oracle.spectral_integral(p) == pytest.approx(
            p.lam * p.gamma / 2.0, rel=1e-9)


def test_alpha1_values():
    p = PRESET_PARAMS["B"]
    assert kernels.alpha1(0.0, p) == p.gamma * p.lam / 2.0
    assert kernels.alpha1(1.0, p).real == pytest.approx(
        5.0 * math.exp(-1.0), rel=1e-15)
    assert kernels.alpha1(1.0, p).imag == 0.0


@given(params_strategy, times_strategy)
def test_alpha2_same_envelope_as_alpha1(p, t):
    assert abs(kernels.alpha2(t, p)) == pytest.approx(
        abs(kernels.alpha1(t, p)), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
@pytest.mark.parametrize("gt", [0.0, 0.1, 1.0, 5.0, 20.0])
def test_alpha1_alpha2_against_fourier_quadrature(name, gt):
    p = PRESET_PARAMS[name]
    t = gt / p.gamma
    assert abs(kernels.alpha1(t, p) - oracle.alpha1_quadrature(t, p)) < 1e-10
    assert abs(kernels.alpha2(t, p) - oracle.alpha2_quadrature(t, p)) < 1e-10


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
@pytest.mark.parametrize("gt", [0.0, 0.5, 2.0, 10.0])
def test_alpha_against_quadrature(name, gt):
    p = PRESET_PARAMS[name]
    t = gt / p.gamma
    assert abs(kernels.alpha(t, p) - oracle.alpha_quadrature(t, p)) < 1e-12


@pytest.mark.parametrize("t", [1e-9, 1e-7, 2e-5])
def test_alpha_small_time_branch(t):
    # expm1 keeps 1 - e^{-ct} free of cancellation at tiny t
    p = PRESET_PARAMS["B"]
    assert abs(kernels.alpha(t, p) - oracle.alpha_quadrature(t, p)) < 1e-16
    assert kernels.alpha(t, p) == pytest.approx(t, rel=1e-3)


def test_alpha_long_time_limit():
    p = PRESET_PARAMS["C"]
    c = p.gamma + 2j * p.omega0
    assert kernels.alpha(50.0, p) == pytest.approx(1.0 / c, rel=1e-12)


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
@pytest.mark.parametrize("gt", [0.3, 1.0, 5.0, 20.0])
def test_alpha_tilde_against_quadrature(name, gt):
    p = PRESET_PARAMS[name]
    t = gt / p.gamma
    assert abs(kernels.alpha_tilde(t, p) - oracle.alpha_tilde_quadrature(t, p)) < 1e-12


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
@pytest.mark.parametrize("gt", [1e-12, 1e-9, 1e-6])
def test_alpha_tilde_small_time_series(name, gt):
    # the running integral of alpha(t) = t - c t^2/2 + ...; the difference
    # t - alpha(t) leaves a relative error of order eps/(|c| t)
    p = PRESET_PARAMS[name]
    c = p.gamma + 2j * p.omega0
    t = gt / p.gamma
    series = t * t / 2.0 - c * t**3 / 6.0
    assert abs(kernels.alpha_tilde(t, p) - series) <= 1e-4 * abs(series)


def test_alpha_tilde_additivity():
    p = PRESET_PARAMS["B"]
    t1, t2 = 0.8, 3.1
    seg = oracle.alpha_tilde_quadrature(t2, p, s_lower=t1)
    assert abs((kernels.alpha_tilde(t2, p) - kernels.alpha_tilde(t1, p)) - seg) < 1e-12


def test_alpha_tilde_asymptotic_slopes():
    p = PRESET_PARAMS["B"]
    d = p.gamma**2 + 4.0 * p.omega0**2
    t1, t2 = 30.0, 40.0
    slope = (kernels.alpha_tilde(t2, p) - kernels.alpha_tilde(t1, p)) / (t2 - t1)
    assert slope.real == pytest.approx(p.gamma / d, rel=1e-10)
    assert slope.imag == pytest.approx(-2.0 * p.omega0 / d, rel=1e-10)


@pytest.mark.parametrize("name", sorted(PRESET_PARAMS))
@pytest.mark.parametrize("gt", [0.5, 2.0, 10.0, 20.0])
def test_decay_exponent_against_quadrature(name, gt):
    p = PRESET_PARAMS[name]
    t = gt / p.gamma
    assert abs(kernels.decay_exponent(t, p)
               - oracle.decay_exponent_quadrature(t, p)) < 1e-8


def test_decay_exponent_monotone_on_presets():
    # observed for these regimes; not a theorem for arbitrary parameters
    for p in PRESET_PARAMS.values():
        gs = [kernels.decay_exponent(t, p) for t in np.linspace(0.0, 20.0, 2001)]
        assert gs[0] == 0.0
        assert np.all(np.diff(gs) >= 0.0)


def test_big_f_small_time():
    p = PRESET_PARAMS["B"]
    t = 1e-8
    assert kernels.big_f(t, p) == pytest.approx(p.gamma * t * t / 2.0, rel=1e-6)


def test_coefficients_at_zero():
    p = PRESET_PARAMS["B"]
    c = kernels.coefficients(0.0, p)
    assert c.eps0 == -2j * p.omega0
    assert c.eps_plus == 0.0
    assert c.eps_minus == 0.0
    assert c.nu0 == 0.0
    assert c.nu_plus == 0.0
    assert c.nu_minus == 0.0


@given(params_strategy, times_strategy)
@settings(max_examples=80)
def test_coefficients_structure(p, t):
    c = kernels.coefficients(t, p)
    assert c.eps_minus == complex(c.eps_plus.real, -c.eps_plus.imag)
    assert c.eps0.real == 0.0
    assert c.nu_minus >= 0.0
    # rate identity: nu0 = nu_plus - nu_minus
    assert c.nu0 == pytest.approx(c.nu_plus - c.nu_minus, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_coefficients_on_arrays_match_scalar_calls(name):
    # one function serves the adaptive integrators (a float per call) and
    # the Magnus propagator (an array of nodes per call)
    p = PRESET_PARAMS[name]
    ts = np.concatenate(([0.0, 1e-9, 2e-5], np.linspace(0.01, 20.0, 401)))
    grid = kernels.coefficients(ts.reshape(2, -1), p)
    for field in kernels.CoefficientSet._fields:
        vec = np.asarray(getattr(grid, field)).ravel()
        one = np.array([getattr(kernels.coefficients(float(t), p), field)
                        for t in ts])
        np.testing.assert_allclose(vec, one, rtol=4 * np.finfo(float).eps,
                                   atol=0.0, err_msg=field)
    trunc = oracle.truncated_coefficients(ts, p)
    assert np.array_equal(trunc.nu_minus, p.lam * kernels.f(ts, p))
    # as do the other closed forms; integrate evaluates the decay exponent
    # on all its sample times at once
    for fn in (kernels.alpha1, kernels.big_f, kernels.alpha_tilde,
               kernels.decay_exponent):
        one = np.array([fn(float(t), p) for t in ts])
        np.testing.assert_allclose(fn(ts, p), one, rtol=4 * np.finfo(float).eps,
                                   atol=0.0, err_msg=fn.__name__)


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_coefficients_at_a_float_equal_the_array_call(name):
    # a float t must give the array call's numbers to the bit, signed zeros
    # too: the adaptive loop evaluates its stage times as arrays
    p = PRESET_PARAMS[name]
    for t in np.concatenate(([0.0, 1e-9, 2e-5], np.linspace(0.01, 20.0, 401))):
        one = kernels.coefficients(float(t), p)
        grid = kernels.coefficients(np.array([t]), p)
        for field in kernels.CoefficientSet._fields:
            got = np.complex128(getattr(one, field))
            want = np.complex128(np.ravel(getattr(grid, field))[0])
            assert got.tobytes() == want.tobytes(), (field, t)


def test_nu_plus_goes_negative():
    # the upward population rate is genuinely sign-indefinite
    p = PRESET_PARAMS["B"]
    lows = min(kernels.coefficients(t, p).nu_plus
               for t in np.linspace(0.01, 2.0, 2000))
    assert lows < -0.3

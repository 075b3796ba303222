"""Independent brute-force routes that validate the channel pipeline.

Three families of cross-checks live here:

* direct_channel: the time-local master equation integrated as a plain
  matrix ODE, superoperator by superoperator, with no Wei-Norman
  structure: one integration of its 4x4 propagator gives the channel for
  every input state.  Agreement with lie_channel is the central
  correctness check of the repository.
* quadrature validations of every closed-form kernel (Fourier-weighted
  quadrature for the correlation kernels, running integrals for the rest).
* the exact rotating-wave single-excitation amplitude q(t) and the channel
  built from it, used by the comparison sweeps, plus the residual of its
  defining integro-differential equation  q'(t) = -int_0^t alpha1(t-s) q(s) ds.

A truncated variant of the generator (counter-rotating coefficients dropped
at the equation level) is also provided; it is an exploratory mode, not a
validated model.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .errors import DomainError
from .kernels import BathParams, CoefficientSet
from .lie_channel import (ChannelSeries, CoefficientFn, IntegratorSettings,
                          apply_channel, check_grid, sector_channel, solve,
                          step_cap)

_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |1><0|
_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |0><1|
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PE = _SP @ _SM                                            # excited projector


def _hermitian(yv) -> np.ndarray:
    # Hermitian parameterization: [rho11, Re rho10, Im rho10, rho00];
    # rho00 is integrated on its own so trace drift stays visible
    return np.array([[yv[0], yv[1] + 1j * yv[2]],
                     [yv[1] - 1j * yv[2], yv[3]]], dtype=complex)


def _components(d: np.ndarray) -> list:
    return [d[0, 0].real, d[0, 1].real, d[0, 1].imag, d[1, 1].real]


# the superoperators of the master equation, each without its coefficient,
# in the order of the weights _direct_matrices forms
_TERMS = (
    lambda rho: -rho,                                   # Gdot
    lambda rho: (_SZ @ rho - rho @ _SZ) / 4.0,          # eps0
    lambda rho: _SP @ rho @ _SP,                        # eps_plus
    lambda rho: _SM @ rho @ _SM,                        # eps_minus
    lambda rho: (_PE @ rho + rho @ _PE - rho) / 2.0,    # nu0
    lambda rho: _SP @ rho @ _SM,                        # nu_plus
    lambda rho: _SM @ rho @ _SP,                        # nu_minus
)


def _superoperator_basis() -> np.ndarray:
    """Real 4x4 matrix of every term on the parameterization, for the
    coefficient 1 and for the coefficient i: shape (2 len(_TERMS), 16),
    rows in the order (term 0, 1), (term 0, i), (term 1, 1), ...

    Built by applying each term to the four unit vectors, so it follows
    the operator expressions above rather than a hand derivation.
    """
    basis = np.empty((len(_TERMS), 2, 4, 4))
    for k, term in enumerate(_TERMS):
        for j, unit in enumerate(np.eye(4)):
            d = term(_hermitian(unit))
            basis[k, 0, :, j] = _components(d)
            basis[k, 1, :, j] = _components(1j * d)
    return basis.reshape(2 * len(_TERMS), 16)


_BASIS = _superoperator_basis()


def _direct_matrices(times: np.ndarray, p: BathParams,
                     cfn: CoefficientFn) -> np.ndarray:
    """The master equation on [rho11, Re rho10, Im rho10, rho00] at each of
    `times`, from one call of cfn: the coefficients weight the
    superoperator basis into one real 4x4 matrix per time, shape (T, 4, 4)."""
    c = cfn(times, p)
    w = np.empty((times.size, len(_TERMS)), dtype=complex)
    for j, v in enumerate(((c.nu_plus + c.nu_minus) / 2.0, c.eps0, c.eps_plus,
                           c.eps_minus, c.nu0, c.nu_plus, c.nu_minus)):
        w[:, j] = v
    # a complex array viewed as floats interleaves real and imaginary parts,
    # matching the row order of _BASIS
    return (w.view(float) @ _BASIS).reshape(-1, 4, 4)


def _direct_rhs(m: np.ndarray, yv: np.ndarray) -> np.ndarray:
    """One matrix m of _direct_matrices on a 4-vector or on the raveled
    4x4 propagator."""
    return (m @ yv.reshape(4, -1)).ravel()


def direct_channel(
    p: BathParams,
    t_grid: Sequence[float],
    settings: Optional[IntegratorSettings] = None,
    coefficient_fn: Optional[CoefficientFn] = None,
) -> ChannelSeries:
    """The channel at t_grid from one integration of the real 4x4
    propagator u of the master equation on [rho11, Re rho10, Im rho10,
    rho00], from the identity: sector_channel of its population block
    u[:, ::3, ::3] and coherence block u[:, 1:3, 1:3] (no term of _BASIS
    couples a population to a coherence, so the rest of u stays zero).

    Same grid rules, step cap and adaptive loop (lie_channel.solve) as the
    channel integration, so both routes resolve the 2 omega0 oscillation
    equally well.  solve builds every stage matrix of a step, or of a run
    of steps at the cap, in one call of _direct_matrices, and each stage is
    one product _direct_rhs.  It keeps
    solve's default RK45 pair: DOP853, which the channel integration steps,
    takes more evaluations here (31 169 against 23 522 on preset A).
    Raises ToleranceError when the step falls below solve's minimum."""
    cfn = coefficient_fn or kernels.coefficients
    sol = solve(lambda ts: _direct_matrices(ts, p, cfn), _direct_rhs,
                np.eye(4).ravel(), check_grid(t_grid),
                settings or IntegratorSettings(), step_cap(p))
    u = sol.y.T.reshape(-1, 4, 4)
    return sector_channel(sol.t, u[:, ::3, ::3], u[:, 1:3, 1:3])


def integrate_master_direct(p: BathParams, rho0, t_grid: Sequence[float],
                            settings=None, coefficient_fn=None) -> np.ndarray:
    """rho0 evolved through direct_channel at t_grid, shape (T, 2, 2)."""
    return apply_channel(direct_channel(p, t_grid, settings, coefficient_fn), rho0)


def _quad(fn, a: float, b: float, **options) -> float:
    """The value of scipy.integrate.quad; SciPy is imported on first use, so
    importing this module, or integrating the direct channel, costs NumPy
    only.  Of the commands, only verify's QUADPACK checks (cli's
    QUADRATURE_CHECKS) reach it, in a second interpreter when verify starts
    one."""
    from scipy.integrate import quad

    return quad(fn, a, b, **options)[0]


# ---------------------------------------------------------------------------
# rotating-wave reference

def rwa_amplitude(t, p: BathParams):
    """Exact single-excitation amplitude of the rotating-wave model; t may
    be an array.

    q(t) = e^{-gamma t/2} [cos(d t/2) + (gamma/d) sin(d t/2)] with
    d = sqrt(2 lam gamma - gamma^2); continues through hyperbolic d for
    weak coupling.  Real-valued for real parameters, complex-typed.
    """
    g = p.gamma
    d = cmath.sqrt(complex(2.0 * p.lam * g - g * g))
    t = np.asarray(t, dtype=float)
    env = np.exp(-g * t / 2.0)
    if abs(d) < 1e-12:
        # critically damped limit: sin(dt/2)/d -> t/2
        return env * (1.0 + g * t / 2.0) + 0j
    return env * (np.cos(d * t / 2.0) + (g / d) * np.sin(d * t / 2.0))


def rwa_amplitude_rate(t: float, p: BathParams) -> complex:
    """Closed-form dq/dt; collapses to -(lam gamma/d) e^{-gamma t/2} sin(dt/2)."""
    g = p.gamma
    d = cmath.sqrt(complex(2.0 * p.lam * g - g * g))
    env = math.exp(-g * t / 2.0)
    if abs(d) < 1e-12:
        return complex(-p.lam * g * env * t / 2.0)
    return -(p.lam * g / d) * env * cmath.sin(d * t / 2.0)


def rwa_first_zero(p: BathParams) -> float:
    """First root of q(t); exists only in the oscillatory regime.

    tan(d t/2) = -d/gamma first holds at t = 2 (pi - arctan(d/gamma))/d.
    """
    disc = 2.0 * p.lam * p.gamma - p.gamma**2
    if disc <= 0.0:
        raise DomainError("amplitude has no zero when 2 lam gamma <= gamma^2")
    d = math.sqrt(disc)
    return 2.0 * (math.pi - math.atan(d / p.gamma)) / d


def rwa_channel(times: Sequence[float], p: BathParams) -> ChannelSeries:
    """Package q(t) as a channel series for the shared two-qubit pipeline;
    GridError on a grid that check_grid refuses.

    Trace preserving exactly: l + p = 1 and m + n = 1 by construction.
    """
    ts = check_grid(times)
    qa = rwa_amplitude(ts, p)
    pop = np.abs(qa) ** 2
    zeros, czeros = np.zeros(ts.size), np.zeros(ts.size, dtype=complex)
    return ChannelSeries(
        t=ts, l=pop, m=zeros, n=np.ones(ts.size), p=1.0 - pop,
        x=qa, y=czeros, q=qa.conj(), r=czeros)


def rwa_residual(p: BathParams, t_grid: Sequence[float]) -> float:
    """Max deviation of q(t) from its defining memory-kernel equation.

    Evaluates | q'(t) + int_0^t alpha1(t-s) q(s) ds | over the grid, with
    the convolution done by adaptive quadrature against the closed-form q.
    """
    worst = 0.0
    for t in np.asarray(t_grid, dtype=float):
        if t == 0.0:
            conv = 0.0
        else:
            conv = _quad(
                lambda s, tt=t: (kernels.alpha1(tt - s, p)
                                 * rwa_amplitude(s, p)).real,
                0.0, t, limit=400, epsabs=1e-12, epsrel=1e-12,
            )
        worst = max(worst, abs(rwa_amplitude_rate(t, p) + conv))
    return worst


# ---------------------------------------------------------------------------
# quadrature validation of the closed-form kernels

def spectral_integral(p: BathParams) -> float:
    """Numerical total weight of the coupling spectrum (analytically lam gamma/2)."""
    return _quad(lambda u: kernels.spectral_density(u + p.omega0, p),
                 -np.inf, np.inf, limit=400)


def _lorentzian_core(t: float, p: BathParams) -> float:
    # 2 int_0^inf L(u) cos(ut) du for the even shifted spectrum L
    lor = lambda u: (p.lam * p.gamma**2 / (2.0 * math.pi)) / (u * u + p.gamma**2)
    if t == 0.0:
        val = _quad(lor, 0.0, np.inf, limit=800, epsabs=1e-12, epsrel=1e-12)
    else:
        val = _quad(lor, 0.0, np.inf, weight="cos", wvar=t, limit=800,
                    epsabs=1e-12, epsrel=1e-12)
    return 2.0 * val


def alpha1_quadrature(t: float, p: BathParams) -> complex:
    """Fourier integral of J against e^{-i(w-w0)t}; the sine part vanishes
    by parity, leaving a cosine-weighted half-line integral."""
    return complex(_lorentzian_core(t, p))


def alpha2_quadrature(t: float, p: BathParams) -> complex:
    """Fourier integral of J against e^{+i(w+w0)t} = e^{2i w0 t} x the
    same even core as alpha1."""
    return cmath.exp(2j * p.omega0 * t) * _lorentzian_core(t, p)


def alpha_quadrature(t: float, p: BathParams) -> complex:
    """Running integral of the normalized counter-rotating kernel, done as
    oscillatory-weighted quadrature of the bare exponential."""
    if t == 0.0:
        return 0j
    env = lambda s: math.exp(-p.gamma * s)
    w = 2.0 * p.omega0
    re = _quad(env, 0.0, t, weight="cos", wvar=w, limit=2000,
               epsabs=1e-13, epsrel=1e-13)
    im = _quad(env, 0.0, t, weight="sin", wvar=w, limit=2000,
               epsabs=1e-13, epsrel=1e-13)
    return complex(re, -im)


def _scalar_alpha(p: BathParams):
    """The closed form of kernels.alpha, (1 - e^{-cs})/c with
    c = gamma + 2i omega0, on one Python float s: QUADPACK calls its
    integrand once per node, where NumPy's per-call cost would dominate."""
    c = complex(p.gamma, 2.0 * p.omega0)
    return lambda s: (1.0 - cmath.exp(-c * s)) / c


def alpha_tilde_quadrature(t: float, p: BathParams, s_lower: float = 0.0) -> complex:
    """int_{s_lower}^{t} alpha(s) ds by adaptive quadrature of the closed-form
    alpha (itself pinned by alpha_quadrature)."""
    alpha = _scalar_alpha(p)
    re = _quad(lambda s: alpha(s).real, s_lower, t,
               limit=20000, epsabs=1e-12, epsrel=1e-12)
    im = _quad(lambda s: alpha(s).imag, s_lower, t,
               limit=20000, epsabs=1e-12, epsrel=1e-12)
    return complex(re, im)


def decay_exponent_quadrature(t: float, p: BathParams) -> float:
    """Defining integral of Gamma_k, with the alpha^R and f parts integrated
    separately so neither term's roundoff hides the other's."""
    alpha = _scalar_alpha(p)
    i1 = _quad(lambda s: alpha(s).real, 0.0, t,
               limit=20000, epsabs=1e-12, epsrel=1e-12)
    i2 = _quad(lambda s: kernels.f(s, p), 0.0, t,
               limit=2000, epsabs=1e-12, epsrel=1e-12)
    return p.lam * (p.gamma * i1 + i2) / 2.0


# ---------------------------------------------------------------------------
# truncated generator (exploratory, no accuracy claims)

def truncated_coefficients(t, p: BathParams) -> CoefficientSet:
    """Generator with every counter-rotating contribution removed; t may be
    an array, and the fields that do not depend on it stay scalars.

    Only the alpha1-driven decay survives: nu_minus = lam f(t), no upward
    pumping, no coherence coupling to the conjugate, bare 2 omega0 rotation.
    """
    ft = kernels.f(t, p)
    return CoefficientSet(
        eps0=-2j * p.omega0,
        eps_plus=0j,
        eps_minus=0j,
        nu0=-p.lam * ft,
        nu_plus=0.0,
        nu_minus=p.lam * ft,
    )

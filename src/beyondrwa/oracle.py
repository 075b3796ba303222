"""Independent brute-force routes that validate the channel pipeline.

Three families of cross-checks live here:

* direct_channel: the time-local master equation integrated as a plain
  matrix ODE, superoperator by superoperator, with no Wei-Norman
  structure: its 4x4 propagator gives the channel for every input state.
  The equation is linear, so its DOP853 steps are matrices, built for
  blocks of steps at once and stepped by the driver of
  lie_channel.integrate (lie_channel._step_plan): equal steps at the cap,
  doubled in an interval where the error asks.  Agreement with
  lie_channel is the central correctness check of the repository.
* quadrature validations of every closed-form kernel (Fourier-weighted
  quadrature for the correlation kernels, running integrals for the rest),
  through SciPy's QUADPACK extension loaded without scipy.integrate.
* the exact rotating-wave single-excitation amplitude q(t) and the channel
  built from it, used by the comparison sweeps, plus the residual of its
  defining integro-differential equation  q'(t) = -int_0^t alpha1(t-s) q(s) ds.

A truncated variant of the generator (counter-rotating coefficients dropped
at the equation level) is also provided; it is an exploratory mode, not a
validated model.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from typing import Optional, Sequence

import numpy as np

from . import kernels, lie_channel
from .errors import DomainError, ToleranceError
from .kernels import BathParams, CoefficientSet
from .lie_channel import (ChannelSeries, CoefficientFn, IntegratorSettings,
                          _prefix_products, _step_counts, apply_channel,
                          check_grid, error_norm, sector_channel, step_cap)

# direct_channel evaluates the generator on the stage times of at most this
# many DOP853 steps at once, which bounds its working memory
DIRECT_BLOCK_STEPS = 256

# direct_channel refuses a grid that needs more DOP853 steps than this at
# the step cap: at about 5 us per step that is about a minute
DIRECT_MAX_STEPS = 1e7

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


def _dop853_steps(p: BathParams, cfn: CoefficientFn, tol: float,
                  t0: np.ndarray, h: np.ndarray):
    """The matrices S of DOP853 steps of length h from the times t0,
    U(t0 + h) = S U(t0), shape (T, 4, 4), and the error norm (error_norm,
    at rel_tol tol) of each as a step of the identity, shape (T,).

    U' = M(t) U is linear, so each stage is a matrix, batched over the
    steps: K_s = M_s (I + h sum_j a_sj K_j) and S = I + h sum_i b_i K_i,
    with every M_s from one call of cfn.  A step of length 0 is I, error 0.
    """
    from . import _tableaux

    rk = _tableaux.DOP853
    m = _direct_matrices((t0[:, None] + rk.C * h[:, None]).ravel(), p, cfn)
    m = m.reshape(t0.size, rk.n_stages, 4, 4)
    eye, w = np.eye(4), h[:, None, None]
    k = np.empty((rk.n_stages + 1, t0.size, 4, 4))
    k[0] = m[:, 0]
    for s in range(1, rk.n_stages):
        k[s] = m[:, s] @ (eye + w * np.tensordot(rk.A[s, :s], k[:s], axes=1))
    step = eye + w * np.tensordot(rk.B, k[:-1], axes=1)
    # the error estimate's extra stage, at the last stage time t0 + h
    k[-1] = m[:, -1] @ step
    err5, err3 = (np.tensordot(e, k, axes=1).reshape(-1, 16) for e in (rk.E5, rk.E3))
    return step, error_norm(h, err5, err3, eye.ravel(), step.reshape(-1, 16), tol)


def _direct_block(p: BathParams, cfn: CoefficientFn, tol: float, t0: np.ndarray,
                  h: np.ndarray, state: tuple) -> tuple:
    """DOP853 steps of lengths h from the times t0 and the propagator
    state = (u,): ((U,), err), U (T, 4, 4) the propagator after each step
    and err the error norm of each.  ToleranceError if a step is not
    finite, which no refinement mends."""
    step, err = _dop853_steps(p, cfn, tol, t0, h)
    if not np.all(np.isfinite(err)):
        raise ToleranceError(f"integration failed: a direct step from t = "
                             f"{t0[np.argmin(np.isfinite(err))]:.6g} "
                             f"is not finite")
    return (_prefix_products(step) @ state[0],), err


def direct_channel(
    p: BathParams,
    t_grid: Sequence[float],
    settings: Optional[IntegratorSettings] = None,
    coefficient_fn: Optional[CoefficientFn] = None,
) -> ChannelSeries:
    """The channel at t_grid from the real 4x4 propagator U of the master
    equation on [rho11, Re rho10, Im rho10, rho00], U(0) = I: sector_channel
    of its population block U[:, ::3, ::3] and coherence block
    U[:, 1:3, 1:3] (no term of _BASIS couples a population to a coherence,
    so the rest of U stays zero).

    Each interval between sample times takes equal DOP853 steps of at most
    step_cap(p), stepped by the driver of the channel integration
    (lie_channel._step_plan, as lie_channel.integrate), so both routes
    resolve the 2 omega0 oscillation equally well.  An interval with a
    step whose error norm (error_norm, at settings.rel_tol) reaches 1 is
    stepped again from its start with twice the steps (doubled).  Per
    block of at most DIRECT_BLOCK_STEPS steps (_direct_block), the step
    matrices are prefix-multiplied onto U at the block's start.

    Raises GridError on a bad grid, DomainError when the grid needs more
    than DIRECT_MAX_STEPS steps at the cap, and ToleranceError when an
    interval misses the tolerance after MAX_DOUBLINGS doublings or a step
    is not finite.
    """
    cfn = coefficient_fn or kernels.coefficients
    tol = (settings or IntegratorSettings()).rel_tol
    ts = check_grid(t_grid)
    prev = np.concatenate(([0.0], ts[:-1]))
    steps = _step_counts(prev, ts, p, step_cap(p), DIRECT_MAX_STEPS,
                         ("DOP853", "direct_channel"))
    u = np.empty((ts.size, 4, 4))
    lie_channel._step_plan(functools.partial(_direct_block, p, cfn, tol), prev, ts,
                           steps, (np.eye(4),), tol, u, DIRECT_BLOCK_STEPS)
    return sector_channel(ts, u[:, ::3, ::3], u[:, 1:3, 1:3])


def integrate_master_direct(p: BathParams, rho0, t_grid: Sequence[float],
                            settings=None, coefficient_fn=None) -> np.ndarray:
    """rho0 evolved through direct_channel at t_grid, shape (T, 2, 2)."""
    return apply_channel(direct_channel(p, t_grid, settings, coefficient_fn), rho0)


@functools.cache
def _quadpack():
    """SciPy's QUADPACK extension scipy.integrate._quadpack, loaded on its
    own: the import of scipy.integrate loads scipy.special, scipy.optimize
    and scipy.sparse besides, which quad does not use.  None when it cannot
    be loaded, or when its four routines that _quad calls, called as
    scipy.integrate.quad calls them, miss a known integral."""
    import importlib.machinery
    import importlib.util
    import os

    eps, decay = 1.49e-8, lambda x: math.exp(-x)
    try:
        import scipy

        folder = os.path.join(os.path.dirname(scipy.__file__), "integrate")
        path = next(path for suffix in importlib.machinery.EXTENSION_SUFFIXES
                    if os.path.exists(path := os.path.join(folder, "_quadpack" + suffix)))
        spec = importlib.util.spec_from_file_location("scipy.integrate._quadpack", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        probes = ((module._qagse(lambda x: x, 0.0, 2.0, (), 0, eps, eps, 50), 2.0),
                  (module._qagie(decay, 0.0, 1, (), 0, eps, eps, 50), 1.0),
                  (module._qawoe(decay, 0.0, 50.0, 1.0, 1, (), 0, eps, eps, 50,
                                 50, 1), 0.5),
                  (module._qawfe(decay, 0.0, 1.0, 2, (), 0, eps, 50, 50, 50), 0.5))
        if all(out[-1] == 0 and abs(out[0] - want) < 1e-8 for out, want in probes):
            return module
    except (ImportError, StopIteration, AttributeError, TypeError, ValueError):
        pass
    return None


def _quad(fn, a: float, b: float, *, limit: int = 50, epsabs: float = 1.49e-8,
          epsrel: float = 1.49e-8, weight: Optional[str] = None,
          wvar: Optional[float] = None) -> float:
    """The value of scipy.integrate.quad(fn, a, b, ...) for a <= b, a
    finite or (a, b) the whole line, and no weight or weight "cos" or "sin"
    (with quad's maxp1 = limlst = 50): the QUADPACK routine quad dispatches
    to, called through _quadpack; scipy.integrate.quad itself when that is
    None.

    QUADPACK's code ier > 0 warns, as quad does: the value may be loose.
    """
    if not (a <= b and (a > -math.inf or (b == math.inf and weight is None))):
        raise ValueError(f"_quad takes no interval [{a:g}, {b:g}] with weight {weight}")
    qp = _quadpack()
    if qp is None:
        from scipy.integrate import quad

        return quad(fn, a, b, limit=limit, epsabs=epsabs, epsrel=epsrel,
                    weight=weight, wvar=wvar)[0]
    if a == b:
        return 0.0
    if weight is not None:
        integr = {"cos": 1, "sin": 2}[weight]
        out = (qp._qawoe(fn, a, b, wvar, integr, (), 0, epsabs, epsrel, limit, 50, 1)
               if b < math.inf else
               qp._qawfe(fn, a, wvar, integr, (), 0, epsabs, 50, limit, 50))
    elif b < math.inf:
        out = qp._qagse(fn, a, b, (), 0, epsabs, epsrel, limit)
    else:
        # quad's bound and infbounds: 1 for [a, inf), 2 for the whole line
        bound, inf = (a, 1) if a > -math.inf else (0.0, 2)
        out = qp._qagie(fn, bound, inf, (), 0, epsabs, epsrel, limit)
    if out[-1] > 0:
        warnings.warn(f"QUADPACK returned ier = {out[-1]} on [{a:g}, {b:g}]: "
                      f"the integral may be loose", RuntimeWarning, stacklevel=2)
    return out[0]


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
    if d.real == 0.0:
        # d = i kappa with 0 < kappa < gamma: cosh and sinh of kappa t/2
        # overflow past kappa t ~ 1400 while env underflows, so the product
        # is e^{(kappa - gamma) t/2} = e^{-lam gamma t/(kappa + gamma)}
        # times bounded factors
        kappa = d.imag
        return np.exp(-p.lam * g / (kappa + g) * t) * (
            1.0 + np.exp(-kappa * t) - g / kappa * np.expm1(-kappa * t)) / 2.0 + 0j
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

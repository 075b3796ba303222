"""Independent brute-force routes that validate the channel pipeline.

Three families of cross-checks live here:

* direct_channel: the time-local master equation integrated as a plain
  matrix ODE, with no Wei-Norman structure: its propagator, held as its
  population and coherence 2x2 blocks (the rest is zero), gives the
  channel for every input state.  Its generator is propagate's
  (lie_channel._generator_blocks); its own part is the integrator.  The
  equation is linear, so its DOP853 steps, with error control, are
  pairs of 2x2 blocks, built for blocks of steps at once and stepped by
  the one step walk of lie_channel.integrate and lie_channel.propagate
  (lie_channel._step_plan), which turns the grid into equal steps at the
  cap, doubled in an interval where the error asks, and the samples.
  Agreement with lie_channel is the central correctness check of the
  repository.
* quadrature validations of every closed-form kernel, through SciPy's
  QUADPACK extension loaded without scipy.integrate: Fourier-weighted
  quadrature for the correlation kernels and for the running integrals
  of the counter-rotating kernel, alpha and alpha~, whose oscillation
  e^{-2i omega0 u} is the weight of QUADPACK's oscillatory rule and whose
  envelope is smooth (alpha~ with the order of integration swapped), and
  plain quadrature of f for the rest of Gamma_k.  kernel_quadratures
  takes all five at one point with each integral once, for verify.
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
                          _generator_blocks, _prefix_products, apply_channel,
                          check_grid, error_norm, sector_channel, step_cap)

# direct_channel evaluates the generator on the stage times of at most this
# many DOP853 steps at once, which bounds its working memory
DIRECT_BLOCK_STEPS = 256

# direct_channel refuses a grid that needs more DOP853 steps than this at
# the step cap: at about 5 us per step that is about a minute
DIRECT_MAX_STEPS = 1e7


def _dop853_steps(p: BathParams, cfn: CoefficientFn, tol: float,
                  t0: np.ndarray, h: np.ndarray):
    """The sector blocks S of DOP853 steps of length h from the times t0,
    U(t0 + h) = S U(t0), shape (2, T, 2, 2): the population block, then
    the coherence block, of each step.  Also the error norm (error_norm,
    at rel_tol tol) of each as a step of the identity, shape (T,), over
    the 16 entries of the 4x4 step on [rho11, Re rho10, Im rho10, rho00],
    whose eight entries outside the blocks are zero.

    U' = M(t) U is linear, so each stage is a matrix, batched over the
    sectors and steps: K_s = M_s (I + h sum_j a_sj K_j) and
    S = I + h sum_i b_i K_i, with every M_s the blocks of
    lie_channel._generator_blocks from one call of cfn.  A step of
    length 0 is I, error 0.
    """
    from . import _tableaux

    rk = _tableaux.DOP853
    a = _generator_blocks(cfn, (t0[:, None] + rk.C * h[:, None]).ravel(), p)
    a = a.reshape(t0.size, rk.n_stages, 2, 2, 2).transpose(1, 2, 0, 3, 4)
    eye, w = np.eye(2), h[:, None, None]
    k = np.empty((rk.n_stages + 1, 2, t0.size, 2, 2))
    k[0] = a[0]
    for s in range(1, rk.n_stages):
        k[s] = a[s] @ (eye + w * np.tensordot(rk.A[s, :s], k[:s], axes=1))
    step = eye + w * np.tensordot(rk.B, k[:-1], axes=1)
    # the error estimate's extra stage, at the last stage time t0 + h
    k[-1] = a[-1] @ step
    flat = lambda b: b.transpose(1, 0, 2, 3).reshape(t0.size, 8)
    err5, err3 = (flat(np.tensordot(e, k, axes=1)) for e in (rk.E5, rk.E3))
    return step, error_norm(h, err5, err3, np.tile(eye.ravel(), 2), flat(step), tol, 16)


def _direct_block(p: BathParams, cfn: CoefficientFn, tol: float, t0: np.ndarray,
                  h: np.ndarray, state: tuple) -> tuple:
    """DOP853 steps of lengths h from the times t0 and the propagator's
    sector blocks state = (u,), u (2, 2, 2): ((U,), err), U (T, 2, 2, 2)
    the blocks after each step and err the error norm of each; u is folded
    into the first step, as in lie_channel._magnus_block.  ToleranceError
    if a step is not finite, which no refinement mends."""
    step, err = _dop853_steps(p, cfn, tol, t0, h)
    if not np.all(np.isfinite(err)):
        raise ToleranceError(f"integration failed: a direct step from t = "
                             f"{t0[np.argmin(np.isfinite(err))]:.6g} "
                             f"is not finite")
    step[:, 0] = step[:, 0] @ state[0]
    # the scan runs along axis -3, the steps; the walk takes them first
    return (_prefix_products(step).transpose(1, 0, 2, 3),), err


def direct_channel(
    p: BathParams,
    t_grid: Sequence[float],
    settings: Optional[IntegratorSettings] = None,
    coefficient_fn: Optional[CoefficientFn] = None,
) -> ChannelSeries:
    """The channel at t_grid from the real propagator U of the master
    equation on [rho11, Re rho10, Im rho10, rho00], U(0) = I, held as its
    two 2x2 sector blocks, on (rho11, rho00) and (Re rho10, Im rho10):
    sector_channel of the blocks.  No term couples a population to a
    coherence (a test checks that on lie_channel._BASIS), so the rest of
    U stays zero.

    Each interval between sample times takes equal DOP853 steps of at most
    step_cap(p), stepped by the walk of the channel routes
    (lie_channel._step_plan, as lie_channel.integrate and
    lie_channel.propagate), so both DOP853 routes resolve the 2 omega0
    oscillation equally well.  An interval with a step whose error norm
    (error_norm, at settings.rel_tol) reaches 1 is stepped again from its
    start with twice the steps (doubled).  Per block of at most
    DIRECT_BLOCK_STEPS steps (_direct_block), U at the block's start is
    folded into the first step's blocks and the steps are prefix-multiplied
    (lie_channel._prefix_products), as propagate's Magnus steps are.

    Raises GridError on a bad grid, DomainError when the grid needs more
    than DIRECT_MAX_STEPS steps at the cap, ToleranceError when an
    interval misses the tolerance after MAX_DOUBLINGS doublings or a step
    is not finite, and ShapeError when a field of coefficient_fn's result
    lacks the shape of its times (lie_channel._generator_blocks).
    """
    cfn = coefficient_fn or kernels.coefficients
    tol = (settings or IntegratorSettings()).rel_tol
    ts, u = lie_channel._step_plan(functools.partial(_direct_block, p, cfn, tol), p,
                                   t_grid, step_cap(p), DIRECT_MAX_STEPS,
                                   ("DOP853", "direct_channel"),
                                   (np.tile(np.eye(2), (2, 1, 1)),), tol,
                                   DIRECT_BLOCK_STEPS)
    return sector_channel(ts, u[:, 0], u[:, 1])


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
    d = sqrt(2 lam gamma - gamma^2), in real arithmetic; continues through
    hyperbolic d for weak coupling.  Real-valued, complex-typed, and finite
    at every finite t.
    """
    g = p.gamma
    d = cmath.sqrt(complex(2.0 * p.lam * g - g * g))
    # at weak coupling d = i kappa with 0 < kappa < gamma: cosh and sinh of
    # kappa t/2 overflow past kappa t ~ 1400 while e^{-gamma t/2}
    # underflows, so q is taken as e^{(kappa - gamma) t/2} = e^{-rate t}
    # times bounded factors
    weak = d.real == 0.0 and abs(d) >= 1e-12
    rate = p.lam * g / (d.imag + g) if weak else g / 2.0
    # past 750/rate q is 0 to the last bit (e^{-750} underflows), so the
    # times are clipped there, where no product of t overflows
    t = np.minimum(np.asarray(t, dtype=float), 750.0 / rate)
    if weak:
        kappa = d.imag
        return np.exp(-rate * t) * (
            1.0 + np.exp(-kappa * t) - g / kappa * np.expm1(-kappa * t)) / 2.0 + 0j
    env = np.exp(-g * t / 2.0)
    if abs(d) < 1e-12:
        # critically damped limit: sin(dt/2)/d -> t/2
        return env * (1.0 + g * t / 2.0) + 0j
    phase = d.real * t / 2.0
    return env * (np.cos(phase) + (g / d.real) * np.sin(phase)) + 0j


def rwa_amplitude_rate(t: float, p: BathParams) -> complex:
    """Closed-form dq/dt = -(lam gamma/d) e^{-gamma t/2} sin(dt/2); at weak
    coupling, d = i kappa, in the bounded form of rwa_amplitude."""
    g = p.gamma
    d = cmath.sqrt(complex(2.0 * p.lam * g - g * g))
    env = math.exp(-g * t / 2.0)
    if abs(d) < 1e-12:
        return complex(-p.lam * g * env * t / 2.0)
    if d.real == 0.0:
        # (lam gamma/kappa) e^{-lam gamma t/(kappa + gamma)} expm1(-kappa t)/2
        kappa = d.imag
        return complex(p.lam * g / kappa * math.exp(-p.lam * g / (kappa + g) * t)
                       * math.expm1(-kappa * t) / 2.0)
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
    GridError on a grid that check_grid refuses, DomainError on an infinite
    time, where q is not defined.

    Trace preserving exactly: l + p = 1 and m + n = 1 by construction.
    """
    ts = check_grid(times)
    if not np.all(np.isfinite(ts)):
        raise DomainError("the rotating-wave amplitude needs finite times")
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
    return _alpha2(t, p, _lorentzian_core(t, p))


def _alpha2(t: float, p: BathParams, core: float) -> complex:
    return cmath.exp(2j * p.omega0 * t) * core


def _damped_fourier(env, a: float, b: float, p: BathParams, weight: str) -> float:
    """int_a^b env(u) cos(2 omega0 u) du, or with sin, by QUADPACK's
    oscillatory rule (QAWO): the real or the negated imaginary part of
    int_a^b env(u) e^{-2i omega0 u} du, for a smooth real env."""
    return _quad(env, a, b, weight=weight, wvar=2.0 * p.omega0, limit=2000,
                 epsabs=1e-13, epsrel=1e-13)


def alpha_quadrature(t: float, p: BathParams) -> complex:
    """Running integral of the normalized counter-rotating kernel, done as
    oscillatory-weighted quadrature of the bare exponential."""
    if t == 0.0:
        return 0j
    env = lambda s: math.exp(-p.gamma * s)
    return complex(_damped_fourier(env, 0.0, t, p, "cos"),
                   -_damped_fourier(env, 0.0, t, p, "sin"))


def _tail(t: float, p: BathParams, a: float, weight: str) -> float:
    """int_a^t (t - u) e^{-gamma u} cos(2 omega0 u) du, or with sin."""
    return _damped_fourier(lambda u: (t - u) * math.exp(-p.gamma * u), a, t, p, weight)


def alpha_tilde_quadrature(t: float, p: BathParams, s_lower: float = 0.0) -> complex:
    """int_{s_lower}^{t} alpha(s) ds with the order of integration swapped,
    (t - a) int_0^a e^{-cu} du + int_a^t (t - u) e^{-cu} du for a = s_lower
    and c = gamma + 2i omega0: alpha_quadrature(a) and the cos- and
    sin-weighted integrals of the smooth envelope (t - u) e^{-gamma u}.  It
    reads no closed form of kernels."""
    return _alpha_tilde(t, p, s_lower, _tail(t, p, s_lower, "cos"))


def _alpha_tilde(t: float, p: BathParams, s_lower: float, cos: float) -> complex:
    # the head vanishes at a = 0: no call of alpha_quadrature there
    head = (t - s_lower) * alpha_quadrature(s_lower, p) if s_lower > 0.0 else 0j
    return head + complex(cos, -_tail(t, p, s_lower, "sin"))


def decay_exponent_quadrature(t: float, p: BathParams) -> float:
    """Defining integral of Gamma_k, with the alpha~^R and F parts integrated
    separately so neither term's roundoff hides the other's: alpha~^R is
    the cos-weighted part of alpha_tilde_quadrature, F the integral of
    f = 1 - e^{-gamma s} in Python scalars."""
    return _decay_exponent(t, p, _tail(t, p, 0.0, "cos"))


def _decay_exponent(t: float, p: BathParams, cos: float) -> float:
    f = _quad(lambda s: -math.expm1(-p.gamma * s), 0.0, t,
              limit=2000, epsabs=1e-12, epsrel=1e-12)
    return p.lam * (p.gamma * cos + f) / 2.0


def kernel_quadratures(t: float, p: BathParams) -> dict:
    """The five <name>_quadrature values at t, keyed by kernel name
    (alpha1, alpha2, alpha, alpha_tilde, decay_exponent), with each
    QUADPACK integral taken once: alpha2 shares alpha1's Fourier core, and
    decay_exponent the cos-weighted integral of alpha_tilde."""
    core, cos = _lorentzian_core(t, p), _tail(t, p, 0.0, "cos")
    return {"alpha1": complex(core), "alpha2": _alpha2(t, p, core),
            "alpha": alpha_quadrature(t, p), "alpha_tilde": _alpha_tilde(t, p, 0.0, cos),
            "decay_exponent": _decay_exponent(t, p, cos)}


# ---------------------------------------------------------------------------
# truncated generator (exploratory, no accuracy claims)

def truncated_coefficients(t, p: BathParams) -> CoefficientSet:
    """Generator with every counter-rotating contribution removed; t may be
    an array, and every field has its shape, as CoefficientSet asks.

    Only the alpha1-driven decay survives: nu_minus = lam f(t), no upward
    pumping, no coherence coupling to the conjugate, bare 2 omega0 rotation.
    """
    ft = kernels.f(t, p)
    fill = lambda v: np.full(np.shape(t), v)
    return CoefficientSet(
        eps0=fill(-2j * p.omega0),
        eps_plus=fill(0j),
        nu0=-p.lam * ft,
        nu_plus=fill(0.0),
        nu_minus=p.lam * ft,
    )

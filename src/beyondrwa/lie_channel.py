"""Single-qubit dynamical map via Lie-algebraic disentangling.

The time-local master equation splits into a coherence sector (raising and
lowering superoperators, complex coefficients eps0, eps+, eps-) and a
population sector (real coefficients nu0, nu+, nu-).  Each sector
exponentiates through a Wei-Norman product ansatz whose scalar parameters
(j+, j0, j-) and (k+, k0, k-) obey Riccati-type equations

    X+' = mu+ - mu- X+^2 + mu0 X+
    X0' = mu0 - 2 mu- X+
    X-' = mu- exp(X0)

with all parameters zero at t=0.  The physical map on a qubit density
matrix is the linear action with coefficients

    population:  l = E(k0/2) + E(-k0/2) k+ k-,   m = E(-k0/2) k+,
                 n = E(-k0/2),                   p = E(-k0/2) k-
    coherence:   x = E(j0/2) + E(-j0/2) j+ j-,   y = E(-j0/2) j+,
                 q = E(-j0/2),                   r = E(-j0/2) j-

where E(z) = e^{z - Gamma_k(t)} carries the decay exponent, acting as
rho11 -> l rho11 + m rho00, rho10 -> x rho10 + y rho01 and their partners.
Re j0 and k0 track -2 Gamma_k, so e^{-k0/2} alone grows like e^{+Gamma_k};
inside one exponent with -Gamma_k it stays as bounded as the map.
Hermiticity of the map demands x = conj(q) and y = conj(r) up to
integration error.

A second route, propagate, integrates the same master equation without
the disentangling: per qubit it is two real 2x2 linear systems, the
populations (rho11, rho00) and the coherence (Re rho10, Im rho10), which a
fourth-order Magnus scheme steps on a fixed grid.  It takes any
generator and no tolerance; every command that prints a channel or a state
uses it, and only verify's Wei-Norman checks use integrate.

integrate steps the Wei-Norman system with DOP853, on the tableau that
_tableaux holds, in equal steps of at most step_cap(p) between sample
times, which resolve the 2 omega0 phase of the counter-rotating terms;
the cap is fixed by the parameters, not a setting.  One driver,
_step_plan, takes these steps a block at a time across interval ends and
refines them, for integrate and the direct oracle (oracle.direct_channel)
alike: from the first step that misses the tolerance (error_norm), its
interval is stepped again with twice as many steps (doubled), and the
next interval on its own.  Each route gives it only a block stepper.
The coefficients depend on t alone, so integrate's (_riccati_block) takes
them in one call for the stage times of a block of up to
RICCATI_BLOCK_STEPS steps.  Only j+ and k+ are nonlinear: they are
stepped through every stage of the block's steps in Python scalars.  The
four driven components follow for the whole block in NumPy, since X0'
needs only the stage values of X+ and X-' only those of X0, and so do the
block's error norms.  Every route here runs on NumPy alone.

Everything here is per-qubit and time-major: a ChannelSeries holds one
array per coefficient over the sampled times.  Two-qubit evolution is the
tensor square of this map (see two_qubit).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .errors import DomainError, GridError, ToleranceError
from .kernels import BathParams, CoefficientSet

# step cap in units of the reservoir memory time 1/gamma
MEMORY_STEP = 0.01

# propagate evaluates the generator on at most this many Magnus steps at
# once, which bounds its working memory
MAGNUS_BLOCK_STEPS = 2048

# integrate evaluates the generator on the stage times of at most this many
# DOP853 steps at once: one table of records for a whole verify grid would
# raise verify's peak memory by about a quarter
RICCATI_BLOCK_STEPS = 64

# integrate refuses a grid that needs more DOP853 steps than this at the
# step cap: at about 35 us per step (scalar j+ and k+ stages, driven
# components per block) that is about half a minute
RICCATI_MAX_STEPS = 1e6

# an interval whose equal DOP853 steps miss the tolerance is stepped again
# with twice as many, at most this many times (doubled)
MAX_DOUBLINGS = 6

# propagate refuses a grid that needs more Magnus steps than this in all:
# at about 1 us per step that is a couple of minutes
MAGNUS_MAX_STEPS = 1e8

_EPS = np.finfo(float).eps

# the coefficient record of each of a DOP853 step's stages 1..11 and of
# its end: stage 11 is taken at the end (C[11] = 1)
_STAGE_RECORD = np.append(np.arange(11), 10)

# smallest rel_tol the integrations accept: SciPy's own floor for rtol,
# below which it would raise rtol and keep atol
MIN_REL_TOL = 100.0 * _EPS

# the two Gauss-Legendre nodes of a step, as fractions of it
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerance of the channel and direct integrations.

    rel_tol is both the relative and the absolute tolerance; it must be
    finite and at least MIN_REL_TOL, or DomainError.  The step is always
    held below step_cap(p).
    """

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= MIN_REL_TOL):
            raise DomainError(f"rel_tol (--rel-tol) must be finite and at least "
                              f"{MIN_REL_TOL:.3g}, got {self.rel_tol:g}")


@dataclass(frozen=True)
class ChannelSeries:
    """The coefficients of the physical map over time, one array per field
    (see the module docstring for their action).

    l, m, n and p are real, x, y, q and r complex.  Indexing slices every
    field along time.
    """

    t: np.ndarray
    l: np.ndarray
    m: np.ndarray
    n: np.ndarray
    p: np.ndarray
    x: np.ndarray
    y: np.ndarray
    q: np.ndarray
    r: np.ndarray

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, idx) -> "ChannelSeries":
        return ChannelSeries(**{f.name: getattr(self, f.name)[idx]
                                for f in fields(self)})


# called with an array of times, once per block of steps by propagate and
# oracle.direct_channel
CoefficientFn = Callable[[np.ndarray, BathParams], CoefficientSet]


def check_grid(times: Sequence[float]) -> np.ndarray:
    """The sample times as an array; GridError unless nonempty, 1-d,
    nonnegative and strictly increasing."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise GridError("times must be a nonempty 1-d sequence")
    if ts[0] < 0.0:
        raise GridError(f"times must be nonnegative, got t={ts[0]}")
    if ts.size > 1 and not np.all(np.diff(ts) > 0.0):
        raise GridError("times must be strictly increasing")
    return ts


def step_cap(p: BathParams) -> float:
    """Largest step of the DOP853 integrations: MEMORY_STEP/gamma, and an
    eighth of the counter-rotating half-period pi/(8 omega0) so the
    2 omega0 phase is resolved."""
    return min(MEMORY_STEP / p.gamma, math.pi / (8.0 * p.omega0))


def magnus_step(p: BathParams) -> float:
    """Step of propagate: a quarter of step_cap, and at most 1/(40 lam) so
    that strong coupling is resolved as well as the 2 omega0 phase."""
    return min(step_cap(p) / 4.0, 1.0 / (40.0 * p.lam))


def _step_remedy(p: BathParams, h: float) -> str:
    """The flags that cut a step count tmax/(gamma h) in units of 1/gamma,
    for h = magnus_step(p) or step_cap(p): --tmax, and the flag whose term
    sets h unless gamma h is fixed (the MEMORY_STEP term)."""
    # only the 1/(40 lam) term of magnus_step falls below a quarter of the cap
    if h < step_cap(p) / 4.0:
        return "shorten --tmax, lower --lambda or raise --gamma"
    if math.pi / (8.0 * p.omega0) < MEMORY_STEP / p.gamma:
        return "shorten --tmax, lower --omega0 or raise --gamma"
    return "shorten --tmax"


def _coefficient_columns(times: np.ndarray, p: BathParams, cfn: CoefficientFn) -> list:
    """The six coefficients (eps0, eps+, eps-, nu0, nu+, nu-) at `times`
    from one call of cfn, each of times' shape (a scalar is repeated)."""
    return [np.broadcast_to(v, times.shape) for v in cfn(times, p)]


def _records(cols: list) -> list:
    """_coefficient_columns as one tuple of Python scalars per time."""
    return list(zip(*(c.tolist() for c in cols)))


def _riccati_rhs(c: tuple, jp: complex, kp: float) -> tuple:
    """X+' = mu+ - mu- X+^2 + mu0 X+ of j+ (mu = eps) and k+ (mu = nu) at
    one record c of _records, in Python scalars: cheaper than NumPy at one
    call per stage.  Products, not **, which raises OverflowError near a
    pole."""
    eps0, eps_plus, eps_minus, nu0, nu_plus, nu_minus = c
    return (eps_plus - eps_minus * jp * jp + eps0 * jp,
            nu_plus - nu_minus * kp * kp + nu0 * kp)


def _zero_rhs(c, jp, kp) -> tuple:
    """(j0', k0'), X0' = mu0 - 2 mu- X+, at the values jp and kp, on the
    coefficients c of _coefficient_columns or _records."""
    eps0, _, eps_minus, nu0, _, nu_minus = c
    return eps0 - 2.0 * eps_minus * jp, nu0 - 2.0 * nu_minus * kp


def _minus_rhs(c, j0, k0) -> tuple:
    """(j-', k-'), X-' = mu- e^{X0}, at the values j0 and k0, on the
    coefficients c of _coefficient_columns or _records."""
    _, _, eps_minus, _, _, nu_minus = c
    return eps_minus * np.exp(j0), nu_minus * np.exp(k0)


def _rhs(c: tuple, yv) -> list:
    """Time derivative of the Wei-Norman reals yv = [Re j+, Im j+, Re j0,
    Im j0, Re j-, Im j-, k+, k0, k-] at one record c of _records:
    _riccati_rhs, _zero_rhs and _minus_rhs at one point (integrate's at
    t = 0)."""
    jp, j0, _, kp, k0, _ = _components(yv)
    djp, dkp = _riccati_rhs(c, jp, kp)
    dj0, dk0 = _zero_rhs(c, jp, kp)
    djm, dkm = _minus_rhs(c, j0, k0)
    return [float(v) for v in (djp.real, djp.imag, dj0.real, dj0.imag,
                               djm.real, djm.imag, dkp, dk0, dkm)]


def _components(yv) -> tuple:
    """The Wei-Norman reals yv, laid out as in _rhs, as the six components
    (j+, j0, j-, k+, k0, k-) in Python scalars."""
    v = np.asarray(yv, dtype=float).tolist()
    return complex(v[0], v[1]), complex(v[2], v[3]), complex(v[4], v[5]), v[6], v[7], v[8]


def _reals(jp, j0, jm, kp, k0, km) -> np.ndarray:
    """Arrays of the six components, (m, ...) each, as the Wei-Norman
    reals laid out as in _rhs along axis 1."""
    return np.stack((jp.real, jp.imag, j0.real, j0.imag, jm.real, jm.imag,
                     kp, k0, km), axis=1)


def error_norm(h, err5, err3, y, y_new, tol: float):
    """DOP853's error norm of steps of length h from y to y_new (Hairer,
    Norsett & Wanner, Solving ODEs I, Sec. II.10, as SciPy forms it), each
    of shape (..., n) over n components: err5 and err3 are the tableau's
    fifth- and third-order estimates E5 and E3 applied to the stages, and
    every component is scaled by tol (1 + max(|y|, |y_new|)).  Below 1
    where a step meets rel_tol tol; 0 where both estimates vanish."""
    scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
    e5, e3 = err5 / scale, err3 / scale
    e5, e3 = (e5 * e5).sum(axis=-1), (e3 * e3).sum(axis=-1)
    denom = ((e5 + 0.01 * e3) * scale.shape[-1]) ** 0.5
    # denom is 0 only where e5 is: divide by 1 there
    return h * e5 / (denom + (denom == 0.0))


def doubled(steps, doublings: int, tol: float, start: float):
    """Twice the step counts `steps` of intervals, the first from t = start,
    that missed rel_tol tol after `doublings` doublings: the refinement of
    both DOP853 routes.  ToleranceError, naming --rel-tol, once they have
    been doubled MAX_DOUBLINGS times, as they are near a pole of the
    solution."""
    if doublings >= MAX_DOUBLINGS:
        raise ToleranceError(f"integration failed: the steps from t = {start:.6g} "
                             f"miss rel_tol {tol:g} (--rel-tol) after "
                             f"{MAX_DOUBLINGS} doublings")
    return steps * 2


@functools.cache
def _dop853_scalars() -> tuple:
    """DOP853's rows A[s, :s], s = 1..11, and weights B as Python floats."""
    from . import _tableaux

    rk = _tableaux.DOP853
    return (tuple(tuple(rk.A[s, :s].tolist()) for s in range(1, rk.n_stages)),
            tuple(rk.B.tolist()))


def _driven_steps(d: np.ndarray, y0, f0, h: np.ndarray) -> tuple:
    """A driven component over DOP853 steps of lengths h from y0, where
    its derivative is f0, from its derivatives d (m, 12) at stages 1..11
    and the end of each step: the derivatives at all 13 stages and the
    values at stages 1..11 and the end.  The ends add up from y0 in the
    order a step-by-step loop adds them."""
    from . import _tableaux

    rk = _tableaux.DOP853
    k = np.concatenate((np.append(f0, d[:-1, -1])[:, None], d), axis=1)
    ends = np.add.accumulate(np.append(y0, h * (k[:, :-1] @ rk.B)))
    stages = ends[:-1, None] + (k[:, :-1] @ rk.A[1:].T) * h[:, None]
    return k, np.concatenate((stages, ends[1:, None]), axis=1)


def _riccati_block(p: BathParams, tol: float, t0: np.ndarray, h: np.ndarray,
                   state: tuple) -> tuple:
    """DOP853 steps of lengths h (m,) from the times t0 and the Wei-Norman
    state (y, f), y the reals laid out as in _rhs and f their derivative:
    ((ends, derivs), err), the state at each step's end, (m, 9) each, and
    each step's error norm at rel_tol tol.

    One call of kernels.coefficients takes the stage times t0 + C[1:] h of
    every step; the last is the step's end.  j+ and k+ go through every
    stage in Python scalars (_riccati_rhs), then the driven components
    through all steps at once (_zero_rhs, then _minus_rhs)."""
    from . import _tableaux

    rk = _tableaux.DOP853
    y, f = state
    times = t0[:, None] + rk.C[1:] * h[:, None]
    flat = _coefficient_columns(times.ravel(), p, kernels.coefficients)
    rows = _records(flat)
    cols = [c.reshape(times.shape)[:, _STAGE_RECORD] for c in flat]
    a_rows, b = _dop853_scalars()
    jp, j0, jm, kp, k0, km = _components(y)
    djp, f_j0, f_jm, dkp, f_k0, f_km = _components(f)
    width = len(a_rows)
    values_j, values_k, derivs_j, derivs_k = [], [], [], []
    at = 0
    for hn in h.tolist():
        recs = rows[at:at + width]
        at += width
        kj, kk = [djp], [dkp]
        for a, rec in zip(a_rows, recs):
            js = jp + sum(map(operator.mul, a, kj)) * hn
            ks = kp + sum(map(operator.mul, a, kk)) * hn
            values_j.append(js)
            values_k.append(ks)
            djp, dkp = _riccati_rhs(rec, js, ks)
            kj.append(djp)
            kk.append(dkp)
        jp = jp + hn * sum(map(operator.mul, b, kj))
        kp = kp + hn * sum(map(operator.mul, b, kk))
        values_j.append(jp)
        values_k.append(kp)
        djp, dkp = _riccati_rhs(recs[-1], jp, kp)
        kj.append(djp)
        kk.append(dkp)
        derivs_j += kj
        derivs_k += kk

    m = h.size
    jps = np.array(values_j).reshape(m, -1)
    kps = np.array(values_k).reshape(m, -1)
    dj0, dk0 = _zero_rhs(cols, jps, kps)
    k_j0, j0s = _driven_steps(dj0, j0, f_j0, h)
    k_k0, k0s = _driven_steps(dk0, k0, f_k0, h)
    djm, dkm = _minus_rhs(cols, j0s, k0s)
    k_jm, jms = _driven_steps(djm, jm, f_jm, h)
    k_km, kms = _driven_steps(dkm, km, f_km, h)
    k = _reals(np.array(derivs_j).reshape(m, -1), k_j0, k_jm,
               np.array(derivs_k).reshape(m, -1), k_k0, k_km)
    ends = _reals(*(v[:, -1] for v in (jps, j0s, jms, kps, k0s, kms)))
    err = error_norm(h, k @ rk.E5, k @ rk.E3, np.vstack((y, ends[:-1])), ends, tol)
    return (ends, k[:, :, -1]), err


def _step_plan(block_fn: Callable, prev: np.ndarray, ts: np.ndarray,
               steps: np.ndarray, state: tuple, tol: float, out: np.ndarray,
               block: int, doublings: int = 0) -> tuple:
    """Step the intervals (prev[i], ts[i]] in steps[i] equal DOP853 steps
    from `state`, writing the first part of the state at ts[i] into out[i];
    returns the state at the end.  The driver of integrate and
    oracle.direct_channel.

    Step k of interval i starts at prev[i] + k dt[i].  The steps are taken
    in order, the next `block` of them at a time across interval ends, by
    block_fn(t0, h, state) -> (states, err): the state after each step, a
    tuple of arrays along the steps, and each step's error norm.  At the
    first step whose error norm reaches 1, or is not finite, the intervals
    before its own are kept and its interval is stepped again from its
    start with twice the steps (doubled).  The next interval is then
    stepped alone, so that a run of missed intervals does not step the
    rest of each block again."""
    dt = (ts - prev) / steps
    ends = np.cumsum(steps)
    # kept is the state at the end of the last interval kept
    kept, at, alone = state, 0, False
    while at < ends[-1]:
        last = ends[np.searchsorted(ends, at, side="right")] if alone else ends[-1]
        g = np.arange(at, min(at + block, last))
        owner = np.searchsorted(ends, g, side="right")
        h = dt[owner]
        states, err = block_fn(prev[owner] + (g - ends[owner] + steps[owner]) * h, h, state)
        missed = np.flatnonzero(~(err < 1.0))
        n = missed[0] if missed.size else g.size
        closed = np.flatnonzero(g[:n] + 1 == ends[owner[:n]])
        if closed.size:
            out[owner[closed]] = states[0][closed]
            kept = tuple(s[closed[-1]] for s in states)
        if missed.size:
            i = owner[n]
            state = kept = _step_plan(block_fn, prev[i:i + 1], ts[i:i + 1],
                                      doubled(steps[i:i + 1], doublings, tol, prev[i]),
                                      kept, tol, out[i:i + 1], block, doublings + 1)
            at, alone = int(ends[i]), True
        else:
            state, at, alone = tuple(s[-1] for s in states), at + g.size, False
    return state


def integrate(p: BathParams, times: Sequence[float],
              settings: Optional[IntegratorSettings] = None) -> ChannelSeries:
    """Integrate both Riccati sectors from t=0 and sample the channel at `times`.

    The Wei-Norman system of kernels.coefficients is stepped with DOP853
    by the driver of the direct oracle (oracle.direct_channel), _step_plan:
    each interval between sample times takes equal steps of at most
    step_cap(p), and ends on its sample time, so no dense output is
    needed.  Per block of at most RICCATI_BLOCK_STEPS steps, which may
    cross interval ends, one call of kernels.coefficients takes all stage
    times, j+ and k+ are stepped through them in Python scalars, and the
    driven components and error norms follow in NumPy (_riccati_block).
    An interval with a step whose error norm (error_norm, at
    settings.rel_tol) reaches 1 is stepped again from its start with twice
    the steps (doubled).  The decay exponent is not integrated: channel_at
    takes kernels.decay_exponent, the closed form that matches this
    generator and no other, in one call on the sample times.  Other
    generators go through propagate.

    Raises GridError on a bad grid, DomainError when the grid needs more
    than RICCATI_MAX_STEPS steps at the cap, and ToleranceError when an
    interval misses the tolerance after MAX_DOUBLINGS doublings.
    """
    tol = (settings or IntegratorSettings()).rel_tol
    ts = check_grid(times)
    prev = np.concatenate(([0.0], ts[:-1]))
    steps = _step_counts(prev, ts, p, step_cap(p), RICCATI_MAX_STEPS,
                         ("DOP853", "integrate"))
    y = np.zeros(9)
    start = _records(_coefficient_columns(np.zeros(1), p, kernels.coefficients))
    f = np.array(_rhs(start[0], y))
    out = np.empty((ts.size, 9))
    # a step into a pole overflows; its error norm is not finite, and the
    # interval is refined
    with np.errstate(over="ignore", invalid="ignore"):
        _step_plan(functools.partial(_riccati_block, p, tol), prev, ts, steps,
                   (y, f), tol, out, RICCATI_BLOCK_STEPS)
    return channel_at(ts, out.T, kernels.decay_exponent(ts, p))


def _generators(c: CoefficientSet, shape: tuple) -> np.ndarray:
    """Real generators of both sectors, shape (2,) + shape + (2, 2).

    Index 0 acts on the populations (rho11, rho00), index 1 on the
    coherence (Re rho10, Im rho10) through
    rho10' = (-Gdot + eps0/2) rho10 + eps_plus conj(rho10), where
    Gdot = (nu_plus + nu_minus)/2; the rho01 equation is its conjugate
    because eps_minus = conj(eps_plus).
    """
    gdot = (c.nu_plus + c.nu_minus) / 2.0
    e = -gdot + c.eps0 / 2.0
    e_re, e_im = np.real(e), np.imag(e)
    ep_re, ep_im = np.real(c.eps_plus), np.imag(c.eps_plus)
    a = np.empty((2,) + shape + (2, 2))
    a[0, ..., 0, 0] = -gdot + c.nu0 / 2.0
    a[0, ..., 0, 1] = c.nu_plus
    a[0, ..., 1, 0] = c.nu_minus
    a[0, ..., 1, 1] = -gdot - c.nu0 / 2.0
    a[1, ..., 0, 0] = e_re + ep_re
    a[1, ..., 0, 1] = ep_im - e_im
    a[1, ..., 1, 0] = e_im + ep_im
    a[1, ..., 1, 1] = e_re - ep_re
    return a


def _expm2(m: np.ndarray) -> np.ndarray:
    """exp of real 2x2 matrices (..., 2, 2) in closed form.

    With m = s I + N and N traceless, N^2 = d2 I, so
    exp(m) = e^s (cosh(sqrt d2) I + sinh(sqrt d2)/sqrt d2 N), continued to
    cos and sin for d2 < 0.
    """
    s = (m[..., 0, 0] + m[..., 1, 1]) / 2.0
    half = (m[..., 0, 0] - m[..., 1, 1]) / 2.0
    d2 = half * half + m[..., 0, 1] * m[..., 1, 0]
    root = np.sqrt(np.abs(d2))
    grows = d2 > 0.0
    even = np.where(grows, np.cosh(root), np.cos(root))
    with np.errstate(invalid="ignore", divide="ignore"):
        odd = np.where(grows, np.sinh(root), np.sin(root)) / root
    odd[root == 0.0] = 1.0
    scale = np.exp(s)
    out = np.empty_like(m)
    out[..., 0, 0] = scale * (even + odd * half)
    out[..., 1, 1] = scale * (even - odd * half)
    out[..., 0, 1] = scale * odd * m[..., 0, 1]
    out[..., 1, 0] = scale * odd * m[..., 1, 0]
    return out


def _step_counts(prev: np.ndarray, ts: np.ndarray, p: BathParams, h: float,
                 limit: float, route: tuple) -> np.ndarray:
    """The number of equal steps of at most h that each interval
    (prev[i], ts[i]] takes, at least one, as int64.

    Raises DomainError, before any allocation, when the total is not finite
    or exceeds limit; route, e.g. ("Magnus", "propagate"), names the steps
    and their taker in its message, which names the flags to change.
    """
    spans = ts - prev
    with np.errstate(over="ignore"):
        steps = np.maximum(1.0, np.ceil(spans / h))
    total = float(np.sum(steps))
    if not total <= limit:
        kind, taker = route
        raise DomainError(f"the grid to t = {ts[-1]:.6g} needs {total:.3g} {kind} "
                          f"steps of at most {h:.3g}, more than the "
                          f"{limit:.0e} {taker} takes: {_step_remedy(p, h)}")
    return steps.astype(np.int64)


def _pieces(prev: np.ndarray, ts: np.ndarray, steps: np.ndarray, block: int):
    """Split each interval (prev[i], ts[i]] into steps[i] equal steps, in
    pieces of at most `block` steps.  Returns, per piece: start time, step,
    step count and the interval it belongs to, in the order of the
    intervals."""
    dt = (ts - prev) / steps
    parts = -(-steps // block)
    owner = np.repeat(np.arange(ts.size), parts)
    k = np.arange(owner.size) - np.repeat(np.cumsum(parts) - parts, parts)
    base, extra = steps[owner] // parts[owner], steps[owner] % parts[owner]
    count = base + (k < extra)
    first = k * base + np.minimum(k, extra)
    start = prev[owner] + first * dt[owner]
    return start, dt[owner], count, owner


def _blocks(start: np.ndarray, dt: np.ndarray, count: np.ndarray, block: int):
    """Consecutive runs of pieces whose count x widest piece fits in `block`
    steps, with the start and length of each of their steps, steps of
    length 0 padding the shorter pieces: (first, stop, t0, h) per run, t0
    and h of shape (stop - first, widest count)."""
    def run(first, stop, width):
        j = np.arange(width)
        n = count[first:stop, None]
        h = np.where(j < n, dt[first:stop, None], 0.0)
        t0 = start[first:stop, None] + np.minimum(j, n) * dt[first:stop, None]
        return first, stop, t0, h

    first, width = 0, 0
    for i, c in enumerate(count.tolist()):
        w = max(width, c)
        if (i - first + 1) * w > block:
            yield run(first, i, width)
            first, w = i, c
        width = w
    yield run(first, count.size, width)


def _ordered_product(e: np.ndarray) -> np.ndarray:
    """Product along axis -3 with later factors on the left, by pairwise
    halving: (..., k, n, n) -> (..., n, n)."""
    while e.shape[-3] > 1:
        if e.shape[-3] % 2:
            eye = np.broadcast_to(np.eye(e.shape[-1]), e.shape[:-3] + (1,) + e.shape[-2:])
            e = np.concatenate((e, eye), axis=-3)
        e = e[..., 1::2, :, :] @ e[..., 0::2, :, :]
    return e[..., 0, :, :]


def _prefix_products(e: np.ndarray) -> np.ndarray:
    """The running products along axis -3, later factors on the left, by
    doubling, in place: entry k becomes e_k ... e_1 e_0."""
    d = 1
    while d < e.shape[-3]:
        e[..., d:, :, :] = e[..., d:, :, :] @ e[..., :-d, :, :]
        d *= 2
    return e


def propagate(
    p: BathParams,
    times: Sequence[float],
    coefficient_fn: Optional[CoefficientFn] = None,
) -> ChannelSeries:
    """The channel at `times` from both sector propagators, by fourth-order
    Magnus steps with two Gauss nodes:

        Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1],

    exponentiated in closed form (_expm2).  Each interval between sample
    times takes equal steps of at most magnus_step(p); their propagators
    are multiplied within the interval and then prefix-multiplied across
    intervals.  coefficient_fn is called with arrays of times, once per
    block of at most MAGNUS_BLOCK_STEPS steps.

    The result is sector_channel of the two propagators.  Raises GridError
    on a bad grid.
    """
    cfn = coefficient_fn or kernels.coefficients
    ts = check_grid(times)
    prev = np.concatenate(([0.0], ts[:-1]))
    steps = _step_counts(prev, ts, p, magnus_step(p), MAGNUS_MAX_STEPS,
                         ("Magnus", "propagate"))
    start, dt, count, owner = _pieces(prev, ts, steps, MAGNUS_BLOCK_STEPS)
    # the last piece of each interval
    ends = np.append(owner[1:] != owner[:-1], True)

    props = []
    current = np.broadcast_to(np.eye(2), (2, 2, 2))
    for first, stop, t0, h in _blocks(start, dt, count, MAGNUS_BLOCK_STEPS):
        nodes = np.stack([t0 + g * h for g in _GAUSS_NODES])
        a = _generators(cfn(nodes, p), nodes.shape)
        a1, a2 = a[:, 0], a[:, 1]
        w = h[..., None, None]
        omega = (w / 2.0 * (a1 + a2)
                 + math.sqrt(3.0) / 12.0 * w * w * (a2 @ a1 - a1 @ a2))
        piece = _prefix_products(_ordered_product(_expm2(omega))) @ current[:, None]
        current = piece[:, -1]
        props.append(piece[:, ends[first:stop]])

    return sector_channel(ts, *np.concatenate(props, axis=1))


def sector_channel(ts: np.ndarray, pop: np.ndarray, coh: np.ndarray) -> ChannelSeries:
    """The channel from the real (T, 2, 2) propagators pop on (rho11, rho00)
    and C = coh on (Re rho10, Im rho10): l, m, p, n are the entries of pop,
    x = (C00 + C11)/2 + i (C10 - C01)/2, y = (C00 - C11)/2 + i (C10 + C01)/2,
    q = conj(x) and r = conj(y)."""
    x = (coh[:, 0, 0] + coh[:, 1, 1]) / 2.0 + 0.5j * (coh[:, 1, 0] - coh[:, 0, 1])
    y = (coh[:, 0, 0] - coh[:, 1, 1]) / 2.0 + 0.5j * (coh[:, 1, 0] + coh[:, 0, 1])
    return ChannelSeries(
        t=ts, l=pop[:, 0, 0], m=pop[:, 0, 1], n=pop[:, 1, 1], p=pop[:, 1, 0],
        x=x, y=y, q=x.conj(), r=y.conj())


def channel_at(t: np.ndarray, yv: np.ndarray, decay: np.ndarray) -> ChannelSeries:
    """The physical map from the Wei-Norman variables yv (9 rows, one
    column per time, laid out as in _rhs) and the decay exponent Gamma_k
    at each time, `decay`, which enters every exponent (see the module
    docstring).

    x and q, and y and r, are formed apart: their Hermiticity gaps
    x - conj(q) and y - conj(r) measure the integration error.
    """
    jp = yv[0] + 1j * yv[1]
    j0_re, j0_im = yv[2], yv[3]
    jm = yv[4] + 1j * yv[5]
    kp, k0, km = yv[6], yv[7], yv[8]

    ek_half = np.exp(k0 / 2.0 - decay)
    ek_mhalf = np.exp(-k0 / 2.0 - decay)
    # complex exponentials via magnitude and phase of j0/2
    ph = np.cos(j0_im / 2.0) + 1j * np.sin(j0_im / 2.0)
    ej_half = np.exp(j0_re / 2.0 - decay) * ph
    ej_mhalf = np.exp(-j0_re / 2.0 - decay) / ph

    return ChannelSeries(
        t=np.asarray(t, dtype=float),
        l=ek_half + ek_mhalf * kp * km,
        m=ek_mhalf * kp,
        n=ek_mhalf,
        p=ek_mhalf * km,
        x=ej_half + ej_mhalf * jp * jm,
        y=ej_mhalf * jp,
        q=ej_mhalf,
        r=ej_mhalf * jm,
    )


def apply_channel(series: ChannelSeries, rho0: np.ndarray) -> np.ndarray:
    """Evolve one qubit density matrix through the map at every time.

    rho0 is 2x2 in the (excited, ground) basis: rho0[0, 0] is the excited
    population, rho0[0, 1] the coherence <1|rho|0>.  Returns shape (T, 2, 2).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    out = np.empty((len(series), 2, 2), dtype=complex)
    out[:, 0, 0] = series.l * rho0[0, 0] + series.m * rho0[1, 1]
    out[:, 0, 1] = series.x * rho0[0, 1] + series.y * rho0[1, 0]
    out[:, 1, 0] = series.q * rho0[1, 0] + series.r * rho0[0, 1]
    out[:, 1, 1] = series.n * rho0[1, 1] + series.p * rho0[0, 0]
    return out


def transfer_matrix(series: ChannelSeries) -> np.ndarray:
    """(T, 4, 4) matrices acting on vec(rho) = (rho11, rho10, rho01, rho00).

    vec() here is the plain row-major flattening of the 2x2 matrix.
    """
    tm = np.zeros((len(series), 4, 4), dtype=complex)
    tm[:, 0, 0] = series.l
    tm[:, 0, 3] = series.m
    tm[:, 1, 1] = series.x
    tm[:, 1, 2] = series.y
    tm[:, 2, 1] = series.r
    tm[:, 2, 2] = series.q
    tm[:, 3, 0] = series.p
    tm[:, 3, 3] = series.n
    return tm

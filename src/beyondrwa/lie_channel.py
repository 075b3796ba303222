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
fourth-order Magnus scheme steps on a fixed grid, as the two blocks of a
4x4 propagator on [rho11, Re rho10, Im rho10, rho00]; sector_channel reads
the channel from the two blocks.  Their generators, the blocks of the
operator terms _TERMS weighted in _generator_blocks, are the direct
oracle's too, which steps the two 2x2 blocks alone.  It takes any
generator and no tolerance;
every command that prints a channel or a state uses it, and only
verify's Wei-Norman checks use integrate.

integrate steps the Wei-Norman system with DOP853, on the tableau that
_tableaux holds, in equal steps of at most step_cap(p) between sample
times, which resolve the 2 omega0 phase of the counter-rotating terms;
the cap is fixed by the parameters, not a setting.  One loop,
_step_plan, turns the grid of all three routes, integrate, the direct
oracle (oracle.direct_channel) and propagate, into steps and samples: it
checks the grid, counts the steps against the route's limit, takes them
a block at a time across interval ends and refines them: at the first
step that misses the tolerance (error_norm), its interval's steps are
doubled (doubled) and the walk resumes at its start.  Each route gives
it only a block stepper, a start state and a step; propagate's stepper
(_magnus_block) reports no error, so its steps are never refined.  The
coefficients depend on t alone, so integrate's (_riccati_block) takes
them in one call for the stage times of a block of up to
RICCATI_BLOCK_STEPS steps.  Only j+ and k+ are
nonlinear: they are stepped through every stage of the block's steps in
Python scalars, by straight-line code generated from the tableau on
first use (_riccati_stages), one expression per stage with the tableau's
nonzero entries as literals and the Riccati equations inline, on six
coefficient lists unpacked per step.  The four driven components follow
for the whole block in NumPy, since X0' needs only the stage values of X+
and X-' only those of X0, and so do the block's error norms, with every
weighted sum over the stages one matmul per component (_stage_sums) on a
fixed number of rows.  Every route here runs on NumPy alone.

Everything here is per-qubit and time-major: a ChannelSeries holds one
array per coefficient over the sampled times.  Two-qubit evolution is the
tensor square of this map (see two_qubit).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .errors import DomainError, GridError, ShapeError, ToleranceError
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
# step cap: at about 25 us per step on a 2-core Xeon (straight-line j+ and
# k+ stages, driven components per block) that is under half a minute
RICCATI_MAX_STEPS = 1e6

# the rows of each matmul of _stage_sums, whatever the block size: BLAS may
# round a row of a product by the number of rows beside it, which it tiles,
# but not by its place among a fixed number, so each step rounds as in a
# block of any size and the Wei-Norman channel does not depend on
# RICCATI_BLOCK_STEPS (tests check it on blocks of 7, 37 and 64)
_SUM_ROWS = 64

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
    """The sample times as an array; GridError unless numeric, nonempty,
    1-d, nonnegative and strictly increasing."""
    try:
        ts = np.asarray(times, dtype=float)
    except (TypeError, ValueError) as err:
        raise GridError(f"times must be real numbers: {err}") from None
    if ts.ndim != 1 or ts.size == 0:
        raise GridError("times must be a nonempty 1-d sequence")
    if not ts[0] >= 0.0:
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


def _records(cols) -> list:
    """kernels.coefficients on 1-d times as one tuple of scalars per time."""
    return list(zip(*(c.tolist() for c in cols)))


def _riccati(plus: str, minus: str, zero: str, x: str) -> str:
    """X+' = mu+ - mu- X+^2 + mu0 X+ as Python source on the names given:
    the one expression of both Riccati equations, evaluated by _riccati_at
    and inlined in the stages of _riccati_stages.  Products, not **, which
    raises OverflowError near a pole."""
    return f"{plus} - {minus} * {x} * {x} + {zero} * {x}"


_riccati_at = eval("lambda plus, minus, zero, x: " + _riccati("plus", "minus", "zero", "x"))


def _riccati_rhs(c: tuple, jp: complex, kp: float) -> tuple:
    """(j+', k+'): the Riccati equations of j+ (mu = eps, eps- = conj(eps+))
    and k+ (mu = nu) at one record c of _records, in Python scalars."""
    eps0, eps_plus, nu0, nu_plus, nu_minus = c
    return (_riccati_at(eps_plus, eps_plus.conjugate(), eps0, jp),
            _riccati_at(nu_plus, nu_minus, nu0, kp))


def _zero_rhs(c, jp, kp) -> tuple:
    """(j0', k0'), X0' = mu0 - 2 mu- X+, at the values jp and kp, on the
    coefficients c of kernels.coefficients or _records."""
    eps0, eps_plus, nu0, _, nu_minus = c
    return eps0 - 2.0 * np.conj(eps_plus) * jp, nu0 - 2.0 * nu_minus * kp


def _minus_rhs(c, j0, k0) -> tuple:
    """(j-', k-'), X-' = mu- e^{X0}, at the values j0 and k0, on the
    coefficients c of kernels.coefficients or _records."""
    _, eps_plus, _, _, nu_minus = c
    return np.conj(eps_plus) * np.exp(j0), nu_minus * np.exp(k0)


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
    """Arrays of the six components, (m,) each, as the Wei-Norman reals
    laid out as in _rhs, (m, 9)."""
    out = np.empty((kp.size, 9))
    out[:, 0], out[:, 1], out[:, 2], out[:, 3] = jp.real, jp.imag, j0.real, j0.imag
    out[:, 4], out[:, 5], out[:, 6], out[:, 7], out[:, 8] = jm.real, jm.imag, kp, k0, km
    return out


def error_norm(h, err5, err3, y, y_new, tol: float, n: Optional[int] = None):
    """DOP853's error norm of steps of length h from y to y_new (Hairer,
    Norsett & Wanner, Solving ODEs I, Sec. II.10, as SciPy forms it), each
    of shape (..., n) over n components: err5 and err3 are the tableau's
    fifth- and third-order estimates E5 and E3 applied to the stages, and
    every component is scaled by tol (1 + max(|y|, |y_new|)).  Below 1
    where a step meets rel_tol tol; 0 where both estimates vanish.  n, the
    last axis by default, counts components whose errors are zero too."""
    scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
    e5, e3 = err5 / scale, err3 / scale
    e5, e3 = (e5 * e5).sum(axis=-1), (e3 * e3).sum(axis=-1)
    denom = ((e5 + 0.01 * e3) * (n or scale.shape[-1])) ** 0.5
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


# the coefficient columns of _riccati_stages, in the order of _riccati's
# arguments per sector, and the names its stages give them
_STAGE_COLUMNS = ("eps_plus", "eps_minus", "eps0", "nu_plus", "nu_minus", "nu0")


@functools.cache
def _riccati_stages() -> Callable:
    """DOP853 steps of j+ and k+ alone, as straight-line Python generated
    from _tableaux.DOP853 on first use: stages(cols, hs, jp, kp, djp, dkp)
    steps jp and kp, of derivatives djp and dkp, through steps of lengths
    hs, and returns (values_j, values_k, derivs_j, derivs_k): per step, the
    values at stages 1..11 and the end, and the derivatives at all 13
    stages.  cols are the lists eps_plus, eps- = conj(eps_plus), eps0,
    nu_plus, nu_minus and nu0 (_STAGE_COLUMNS), each with one list per
    step of its 11 values at stages 1..11 (11 is the end).

    Each stage is one expression with the tableau's entries as literals,
    added left to right from 0, as sum(map(operator.mul, A[s, :s], k))
    adds them up to Python 3.11, but without the zero entries.  Such a
    sum is never -0, so a term 0 * k changes it only when k is not
    finite; then the step's error norm is not finite, and its interval is
    refined.  The derivatives follow inline, from _riccati's source: the
    same operations, in the same order, as _riccati_rhs."""
    from . import _tableaux

    rk = _tableaux.DOP853
    n = rk.n_stages
    names = lambda x, stop, start=1: ", ".join(f"{x}{s}" for s in range(start, stop))

    def weighted(row, x: str) -> str:
        """The derivatives dx0, dx1, ... weighted by row, as sum() adds them."""
        return "(0" + "".join(f" + {a!r} * d{x}{i}"
                              for i, a in enumerate(row.tolist()) if a) + ")"

    def rates(out: int, s: int, j: str, k: str) -> list:
        """dj{out} and dk{out}: the Riccati equations on the coefficients
        of stage s, at j+ = j and k+ = k."""
        c = [f"{name}_{s}" for name in _STAGE_COLUMNS]
        return [f"        dj{out} = {_riccati(*c[:3], j)}",
                f"        dk{out} = {_riccati(*c[3:], k)}"]

    columns = ", ".join(f"({names(c + '_', n)})" for c in _STAGE_COLUMNS)
    lines = ["def stages(cols, hs, jp, kp, dj0, dk0):",
             "    values_j, values_k, derivs_j, derivs_k = [], [], [], []",
             f"    for h, {columns} in zip(hs, *cols):"]
    for s in range(1, n):
        lines += [f"        j{s} = jp + {weighted(rk.A[s, :s], 'j')} * h",
                  f"        k{s} = kp + {weighted(rk.A[s, :s], 'k')} * h",
                  *rates(s, s, f"j{s}", f"k{s}")]
    lines += [f"        jp = jp + h * {weighted(rk.B, 'j')}",
              f"        kp = kp + h * {weighted(rk.B, 'k')}",
              # the end's coefficients are stage 11's
              *rates(n, n - 1, "jp", "kp"),
              f"        values_j.extend(({names('j', n)}, jp))",
              f"        values_k.extend(({names('k', n)}, kp))",
              f"        derivs_j.extend(({names('dj', n + 1, 0)}))",
              f"        derivs_k.extend(({names('dk', n + 1, 0)}))",
              f"        dj0, dk0 = dj{n}, dk{n}",
              "    return values_j, values_k, derivs_j, derivs_k"]
    space: dict = {}
    exec(compile("\n".join(lines), "<_riccati_stages>", "exec"), {}, space)
    return space["stages"]


@functools.cache
def _stage_weights() -> np.ndarray:
    """The DOP853 weights of the 13 stage derivatives of a step, (13, 14):
    B for its end, A[1:] for stages 1..11, then E5 and E3 for its error
    estimates."""
    from . import _tableaux

    rk = _tableaux.DOP853
    w = np.zeros((rk.n_stages + 1, 14))
    w[:-1, 0], w[:-1, 1:12] = rk.B, rk.A[1:].T
    w[:, 12], w[:, 13] = rk.E5, rk.E3
    return w


def _stage_sums(k: np.ndarray) -> np.ndarray:
    """k @ _stage_weights() for the stage derivatives k (m, 13) of m steps,
    by matmul on _SUM_ROWS rows at a time, padded with zero rows."""
    m, w = k.shape[0], _stage_weights()
    if m % _SUM_ROWS:
        k = np.concatenate((k, np.zeros((-m % _SUM_ROWS, k.shape[1]), k.dtype)))
    if k.shape[0] == _SUM_ROWS:
        return (k @ w)[:m]
    return np.concatenate([k[i:i + _SUM_ROWS] @ w for i in range(0, m, _SUM_ROWS)])[:m]


def _driven_steps(d: np.ndarray, y0, f0, h: np.ndarray) -> tuple:
    """A driven component over DOP853 steps of lengths h from y0, where
    its derivative is f0, from its derivatives d (m, 12) at stages 1..11
    and the end of each step: the derivatives at all 13 stages, the
    values at stages 1..11 and the end, and the sums of _stage_sums.  The
    ends add up from y0 in the order a step-by-step loop adds them."""
    m = h.size
    k = np.empty((m, 13), d.dtype)
    k[0, 0], k[1:, 0], k[:, 1:] = f0, d[:-1, -1], d
    sums = _stage_sums(k)
    ends = np.empty(m + 1, d.dtype)
    ends[0], ends[1:] = y0, h * sums[:, 0]
    np.add.accumulate(ends, out=ends)
    values = np.empty((m, 12), d.dtype)
    values[:, :11], values[:, 11] = ends[:-1, None] + sums[:, 1:12] * h[:, None], ends[1:]
    return k, values, sums


def _riccati_block(p: BathParams, tol: float, t0: np.ndarray, h: np.ndarray,
                   state: tuple) -> tuple:
    """DOP853 steps of lengths h (m,) from the times t0 and the Wei-Norman
    state (y, f), y the reals laid out as in _rhs and f their derivative:
    ((ends, derivs), err), the state at each step's end, (m, 9) each, and
    each step's error norm at rel_tol tol.

    One call of kernels.coefficients takes the stage times t0 + C[1:] h of
    every step; the last is the step's end.  j+ and k+ go through every
    stage in Python scalars, in the straight-line stages of
    _riccati_stages on the coefficients as lists (m, 11), then the driven
    components through all steps at once (_zero_rhs, then _minus_rhs)."""
    from . import _tableaux

    rk = _tableaux.DOP853
    y, f = state
    times = t0[:, None] + rk.C[1:] * h[:, None]
    flat = kernels.coefficients(times.ravel(), p)
    named = {**flat._asdict(), "eps_minus": np.conj(flat.eps_plus)}
    cols = [c.reshape(times.shape)[:, _STAGE_RECORD] for c in flat]
    jp, j0, jm, kp, k0, km = _components(y)
    djp, f_j0, f_jm, dkp, f_k0, f_km = _components(f)
    values_j, values_k, derivs_j, derivs_k = _riccati_stages()(
        [named[c].reshape(times.shape).tolist() for c in _STAGE_COLUMNS],
        h.tolist(), jp, kp, djp, dkp)

    m = h.size
    jps = np.array(values_j, complex).reshape(m, -1)
    kps = np.array(values_k, float).reshape(m, -1)
    k_jp = np.array(derivs_j, complex).reshape(m, -1)
    k_kp = np.array(derivs_k, float).reshape(m, -1)
    dj0, dk0 = _zero_rhs(cols, jps, kps)
    k_j0, j0s, s_j0 = _driven_steps(dj0, j0, f_j0, h)
    k_k0, k0s, s_k0 = _driven_steps(dk0, k0, f_k0, h)
    djm, dkm = _minus_rhs(cols, j0s, k0s)
    k_jm, jms, s_jm = _driven_steps(djm, jm, f_jm, h)
    k_km, kms, s_km = _driven_steps(dkm, km, f_km, h)
    sums = (_stage_sums(k_jp), s_j0, s_jm, _stage_sums(k_kp), s_k0, s_km)
    err5, err3 = (_reals(*(s[:, col] for s in sums)) for col in (12, 13))
    ends = _reals(*(v[:, -1] for v in (jps, j0s, jms, kps, k0s, kms)))
    derivs = _reals(*(k[:, -1] for k in (k_jp, k_j0, k_jm, k_kp, k_k0, k_km)))
    err = error_norm(h, err5, err3, np.vstack((y, ends[:-1])), ends, tol)
    return (ends, derivs), err


def _step_plan(block_fn: Callable, p: BathParams, times: Sequence[float], h: float,
               limit: float, route: tuple, state: tuple, tol: Optional[float],
               block: int) -> tuple:
    """The one step walk of integrate, oracle.direct_channel and propagate:
    from t = 0 and `state`, step to each of the grid `times` and return
    (ts, out), the checked times and the first part of the state at each.

    Each interval (ts[i-1], ts[i]], the first from 0, takes equal steps of
    at most h, at least one.  GridError on a bad grid; DomainError, before
    any allocation, when the total is not finite or exceeds limit, with
    route, e.g. ("Magnus", "propagate"), naming the steps and their taker
    and _step_remedy the flags to change.  Step k of interval i starts at
    ts[i-1] + k dt[i].  The steps are taken in order, the next `block` of
    them at a time across interval ends, by block_fn(t0, h, state) ->
    (states, err): the state after each step, a tuple of arrays along the
    steps, and each step's error norm.  At the first step whose error norm
    reaches 1, or is not finite, the intervals before its own are kept, its
    steps are doubled (doubled, counted per interval) and the walk resumes
    at its start; until the interval after it has closed, blocks end at
    interval ends.  An error norm reads only its own step, so where blocks
    end changes no plan.  propagate's error norms are all 0: it is never
    refined, and tol is never read."""
    ts = check_grid(times)
    prev = np.concatenate(([0.0], ts[:-1]))
    with np.errstate(over="ignore"):
        steps = np.maximum(1.0, np.ceil((ts - prev) / h))
    total = float(np.sum(steps))
    if not total <= limit:
        raise DomainError(f"the grid to t = {ts[-1]:.6g} needs {total:.3g} {route[0]} "
                          f"steps of at most {h:.3g}, more than the "
                          f"{limit:.0e} {route[1]} takes: {_step_remedy(p, h)}")
    steps = steps.astype(np.int64)
    dt, ends = (ts - prev) / steps, np.cumsum(steps)
    doublings = np.zeros(ts.size, dtype=int)
    out = np.empty((ts.size,) + state[0].shape)
    # kept is the state at the end of the last interval kept; blocks end at
    # interval ends while at < bound
    kept, at, bound = state, 0, 0
    while at < ends[-1]:
        last = ends[np.searchsorted(ends, at, side="right")] if at < bound else ends[-1]
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
            steps[i] = doubled(steps[i], doublings[i], tol, prev[i])
            doublings[i] += 1
            dt, ends = (ts - prev) / steps, np.cumsum(steps)
            at, bound = int(ends[i] - steps[i]), int(ends[min(i + 1, ts.size - 1)])
            state = kept
        else:
            state, at = tuple(s[-1] for s in states), at + g.size
    return ts, out


def integrate(p: BathParams, times: Sequence[float],
              settings: Optional[IntegratorSettings] = None) -> ChannelSeries:
    """Integrate both Riccati sectors from t=0 and sample the channel at `times`.

    The Wei-Norman system of kernels.coefficients is stepped with DOP853
    by the step walk of every route, _step_plan, which takes the grid:
    each interval between sample times takes equal steps of at most
    step_cap(p), and ends on its sample time, so no dense output is
    needed.  Per block of at most RICCATI_BLOCK_STEPS steps, which may
    cross interval ends, one call of kernels.coefficients takes all stage
    times, j+ and k+ are stepped through them in Python scalars
    (_riccati_stages), and the driven components and error norms follow
    in NumPy (_riccati_block).
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
    y = np.zeros(9)
    f = np.array(_rhs(_records(kernels.coefficients(np.zeros(1), p))[0], y))
    # a step into a pole overflows; its error norm is not finite, and the
    # interval is refined
    with np.errstate(over="ignore", invalid="ignore"):
        ts, out = _step_plan(functools.partial(_riccati_block, p, tol), p, times,
                             step_cap(p), RICCATI_MAX_STEPS, ("DOP853", "integrate"),
                             (y, f), tol, RICCATI_BLOCK_STEPS)
    return channel_at(ts, out.T, kernels.decay_exponent(ts, p))


_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |1><0|
_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |0><1|
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PE = _SP @ _SM                                            # excited projector


def _density(yv) -> np.ndarray:
    """The 2x2 matrix of the reals yv = [rho11, Re rho10, Im rho10, rho00];
    rho00 is a component of its own, so trace drift stays visible."""
    return np.array([[yv[0], yv[1] + 1j * yv[2]],
                     [yv[1] - 1j * yv[2], yv[3]]], dtype=complex)


def _layout(d: np.ndarray) -> list:
    """The reals [rho11, Re rho10, Im rho10, rho00] of a 2x2 matrix d."""
    return [d[0, 0].real, d[0, 1].real, d[0, 1].imag, d[1, 1].real]


# the superoperators of the master equation, each without its coefficient,
# in the order of the weights _generator_blocks forms
_TERMS = (
    lambda rho: -rho,                                   # Gdot
    lambda rho: (_SZ @ rho - rho @ _SZ) / 4.0,          # eps0
    lambda rho: _SP @ rho @ _SP,                        # eps_plus
    lambda rho: _SM @ rho @ _SM,                        # conj(eps_plus)
    lambda rho: (_PE @ rho + rho @ _PE - rho) / 2.0,    # nu0
    lambda rho: _SP @ rho @ _SM,                        # nu_plus
    lambda rho: _SM @ rho @ _SP,                        # nu_minus
)


def _superoperator_basis() -> np.ndarray:
    """Real 4x4 matrix of every term on the layout of _density, for the
    coefficient 1 and for the coefficient i: shape (2 len(_TERMS), 16),
    rows in the order (term 0, 1), (term 0, i), (term 1, 1), ...

    Built by applying each term to the four unit vectors, so it follows
    the operator expressions above rather than a hand derivation.
    """
    basis = np.empty((len(_TERMS), 2, 4, 4))
    for k, term in enumerate(_TERMS):
        for j, unit in enumerate(np.eye(4)):
            d = term(_density(unit))
            basis[k, 0, :, j] = _layout(d)
            basis[k, 1, :, j] = _layout(1j * d)
    return basis.reshape(2 * len(_TERMS), 16)


_BASIS = _superoperator_basis()

# the 8 columns of _BASIS in the population block [::3, ::3] and the
# coherence block [1:3, 1:3], as sector_channel reads them
_BLOCK_BASIS = np.stack([_BASIS.reshape(-1, 4, 4)[:, ::3, ::3],
                         _BASIS.reshape(-1, 4, 4)[:, 1:3, 1:3]], axis=1).reshape(-1, 8)


def _generator_blocks(cfn: CoefficientFn, times: np.ndarray, p: BathParams) -> np.ndarray:
    """The one generator of propagate and oracle.direct_channel at every one
    of the 1-d `times`, (T, 2, 2, 2): its population block, on (rho11,
    rho00), and its coherence block, on (Re rho10, Im rho10), from the
    terms of _TERMS, weighted with the coefficients c = cfn(times, p),
    Gdot = (nu_plus + nu_minus)/2 and eps- = conj(eps_plus).

    ShapeError, naming coefficient_fn, unless every field of c has the
    shape of times: a scalar field would broadcast over every time."""
    c = cfn(times, p)
    for name, v in zip(CoefficientSet._fields, c):
        if np.shape(v) != times.shape:
            raise ShapeError(f"coefficient_fn returned {name} of shape "
                             f"{np.shape(v)} for times of shape {times.shape}: "
                             f"every field must have the shape of the times")
    weights = ((c.nu_plus + c.nu_minus) / 2.0, c.eps0, c.eps_plus,
               np.conj(c.eps_plus), c.nu0, c.nu_plus, c.nu_minus)
    w = np.empty((c.nu0.size, len(_TERMS)), dtype=complex)
    for j, v in enumerate(weights):
        w[:, j] = v
    # a complex array viewed as floats interleaves real and imaginary parts,
    # matching the row order of _BASIS
    return (w.view(float) @ _BLOCK_BASIS).reshape(-1, 2, 2, 2)


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


def _prefix_products(e: np.ndarray) -> np.ndarray:
    """The running products along axis -3, later factors on the left, in
    place: entry k becomes e_k ... e_1 e_0.  A work-efficient scan, about
    2k products for k entries: each odd entry takes the even one before
    it, the scan recurses on the odd entries, then each even entry takes
    the odd one before it."""
    k = e.shape[-3]
    if k > 1:
        e[..., 1::2, :, :] = e[..., 1::2, :, :] @ e[..., 0:k - 1:2, :, :]
        _prefix_products(e[..., 1::2, :, :])
        e[..., 2::2, :, :] = e[..., 2::2, :, :] @ e[..., 1:k - 1:2, :, :]
    return e


def _commutator2(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """[b, a] = b a - a b of 2x2 matrices (..., 2, 2), entry by entry: the
    diagonal products cancel, and [b, a] is traceless."""
    out = np.empty_like(a)
    out[..., 0, 0] = b[..., 0, 1] * a[..., 1, 0] - a[..., 0, 1] * b[..., 1, 0]
    out[..., 1, 1] = -out[..., 0, 0]
    da, db = a[..., 0, 0] - a[..., 1, 1], b[..., 0, 0] - b[..., 1, 1]
    out[..., 0, 1] = a[..., 0, 1] * db - b[..., 0, 1] * da
    out[..., 1, 0] = b[..., 1, 0] * da - a[..., 1, 0] * db
    return out


def _magnus_block(p: BathParams, cfn: CoefficientFn, t0: np.ndarray,
                  h: np.ndarray, state: tuple) -> tuple:
    """Magnus steps of lengths h (m,) from the times t0 and the propagator
    state = (u,): ((U,), err), U (m, 4, 4) the propagator after each step
    on [rho11, Re rho10, Im rho10, rho00], as oracle.direct_channel lays
    it out, and err zero: there is no error control.

    One call of cfn and of _generator_blocks takes both Gauss nodes of
    every step.  The two sector exponentials of a step fill the population
    block [::3, ::3] and the coherence block [1:3, 1:3] of one 4x4 step
    matrix; u is folded into the first step, and the steps are
    prefix-multiplied (_prefix_products)."""
    nodes = np.concatenate([t0 + g * h for g in _GAUSS_NODES])
    a = _generator_blocks(cfn, nodes, p).reshape(2, h.size, 2, 2, 2)
    # along the nodes: a1 and a2 hold both sectors, (2, m, 2, 2) each
    a1, a2 = a.transpose(0, 2, 1, 3, 4)
    w = h[:, None, None]
    e = _expm2(w / 2.0 * (a1 + a2)
               + math.sqrt(3.0) / 12.0 * w * w * _commutator2(a2, a1))
    step = np.zeros((h.size, 4, 4))
    step[:, ::3, ::3], step[:, 1:3, 1:3] = e
    step[0] = step[0] @ state[0]
    return (_prefix_products(step),), np.zeros(h.size)


def propagate(
    p: BathParams,
    times: Sequence[float],
    coefficient_fn: Optional[CoefficientFn] = None,
) -> ChannelSeries:
    """The channel at `times` from both sector propagators, by fourth-order
    Magnus steps with two Gauss nodes:

        Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1],

    exponentiated in closed form (_expm2).  Each interval between sample
    times takes equal steps of at most magnus_step(p), stepped by the walk
    of the DOP853 routes, _step_plan, in blocks of at most
    MAGNUS_BLOCK_STEPS steps across interval ends (_magnus_block).
    coefficient_fn is called with arrays of times, once per block, and
    returns every field with their shape (CoefficientSet); ShapeError
    otherwise (_generator_blocks).

    The result is sector_channel of the 4x4 propagator, as in
    oracle.direct_channel.  Raises GridError on a bad grid and DomainError
    when the grid needs more than MAGNUS_MAX_STEPS steps.

    There is no error control: the step is set by the parameters alone,
    and no interval is refined.  A coefficient_fn with a pole inside the
    grid gives a finite map that is wrong, and nothing is raised; across
    the zero of the rotating-wave amplitude, where the exact rotating-wave
    decay rate diverges, the map was off by 0.97.  The commands pass only
    the bounded TCL2 and truncated generators.
    """
    cfn = coefficient_fn or kernels.coefficients
    # every error norm is 0, so the tolerance is never read
    ts, u = _step_plan(functools.partial(_magnus_block, p, cfn), p, times,
                       magnus_step(p), MAGNUS_MAX_STEPS, ("Magnus", "propagate"),
                       (np.eye(4),), None, MAGNUS_BLOCK_STEPS)
    return sector_channel(ts, u[:, ::3, ::3], u[:, 1:3, 1:3])


def sector_channel(ts: np.ndarray, pop: np.ndarray, coh: np.ndarray) -> ChannelSeries:
    """The channel from the two blocks, (T, 2, 2) each, of a real propagator
    on [rho11, Re rho10, Im rho10, rho00]: l, m, p, n are the entries of
    its population block pop, on (rho11, rho00), and its coherence block
    C = coh, on (Re rho10, Im rho10), gives x = (C00 + C11)/2 + i (C10 -
    C01)/2, y = (C00 - C11)/2 + i (C10 + C01)/2, q = conj(x) and
    r = conj(y)."""
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
    """Evolve one qubit density matrix through the map at every time: the
    action of transfer_matrix on vec(rho0).

    rho0 is 2x2 in the (excited, ground) basis: rho0[0, 0] is the excited
    population, rho0[0, 1] the coherence <1|rho|0>; ShapeError otherwise.
    Returns shape (T, 2, 2).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise ShapeError(f"qubit state must be 2x2, got {rho0.shape}")
    vec = rho0.reshape(4)
    # a product and a sum, not @: matmul and einsum round a complex
    # coherence's terms differently from the map's element formulas
    return (transfer_matrix(series) * vec).sum(axis=-1).reshape(-1, 2, 2)


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

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

integrate steps the Riccati system by solve, SciPy's adaptive DOP853
stepper on the tableau that _tableaux holds.  The coefficients depend on
t alone, so solve takes them for all the stage times of a step attempt,
or of a run of up to CAP_BLOCK_STEPS attempts at the cap, in one call.
The step stays below step_cap(p), which resolves the 2 omega0 phase of
the counter-rotating terms; it is fixed by the parameters, not a
setting.  The direct oracle (oracle.direct_channel) steps DOP853 at the
same cap, and propagate's helpers cut its grid and multiply its steps.
Every route here runs on NumPy alone.

Everything here is per-qubit and time-major: a ChannelSeries holds one
array per coefficient over the sampled times.  Two-qubit evolution is the
tensor square of this map (see two_qubit).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .errors import DomainError, GridError, ToleranceError
from .kernels import BathParams, CoefficientSet

# math.exp overflows just above 709; _rhs caps its exponents below it
_EXP_ARG_LIMIT = 708.0

# step cap in units of the reservoir memory time 1/gamma
MEMORY_STEP = 0.01

# propagate evaluates the generator on at most this many Magnus steps at
# once, which bounds its working memory
MAGNUS_BLOCK_STEPS = 2048

# solve evaluates the generator on the stage times of at most this many
# cap-length step attempts at once
CAP_BLOCK_STEPS = 64

# propagate refuses a grid that needs more Magnus steps than this in all:
# at about 1 us per step that is a couple of minutes
MAGNUS_MAX_STEPS = 1e8

_EPS = np.finfo(float).eps

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
    """Largest step of the adaptive integrations: MEMORY_STEP/gamma, and an
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


def _coefficient_rows(times: np.ndarray, p: BathParams, cfn: CoefficientFn) -> list:
    """The coefficients at each of `times` from one call of cfn, as one
    tuple of Python scalars (eps0, eps+, eps-, nu0, nu+, nu-) per time:
    the records _rhs reads.  A field cfn returns as a scalar is repeated."""
    cols = [v.tolist() if np.ndim(v) else np.full(times.shape, v).tolist()
            for v in cfn(times, p)]
    return list(zip(*cols))


def _rhs(c: tuple, yv: np.ndarray) -> list:
    """Time derivative of the Wei-Norman variables, the one right-hand side
    of the channel integration, from one record c of _coefficient_rows.

    yv is the real 9-vector [Re j+, Im j+, Re j0, Im j0, Re j-, Im j-,
    k+, k0, k-].
    """
    eps0, eps_plus, eps_minus, nu0, nu_plus, nu_minus = c
    # Python scalars: cheaper than numpy's at one call per RK stage
    jp_re, jp_im, j0_re, j0_im, _, _, kp, k0, _ = yv.tolist()
    jp = complex(jp_re, jp_im)
    djp = eps_plus - eps_minus * jp * jp + eps0 * jp
    dj0 = eps0 - 2.0 * eps_minus * jp
    # Re j0 and k0 track -2 Gamma_k and stay negative on-solution; the cap
    # only protects wild trial steps of the error estimator from overflow
    djm = eps_minus * cmath.exp(complex(min(j0_re, _EXP_ARG_LIMIT), j0_im))
    dkm = nu_minus * math.exp(min(k0, _EXP_ARG_LIMIT))
    dkp = nu_plus - nu_minus * kp * kp + nu0 * kp
    dk0 = nu0 - 2.0 * nu_minus * kp
    return [djp.real, djp.imag, dj0.real, dj0.imag, djm.real, djm.imag,
            dkp, dk0, dkm]


class Solution(NamedTuple):
    """What solve sampled: the sample times, the state at each (one column
    per time) and the right-hand-side evaluations."""

    t: np.ndarray
    y: np.ndarray
    nfev: int


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a 1-d float array, which is exactly sqrt(x . x),
    without its dispatch."""
    return math.sqrt(x.dot(x))


def _rms(x: np.ndarray) -> float:
    return _norm(x) / x.size ** 0.5


def _dop853_interpolant(t_old: float, t_new: float, y_old: np.ndarray, f: np.ndarray):
    """SciPy's Dop853DenseOutput over one step: the rows of f nested in
    alternating factors x and 1 - x, at a 1-d array of times t, one column
    per time."""
    h = t_new - t_old

    def dense(t):
        x = ((t - t_old) / h)[:, None]
        y = np.zeros((x.size, y_old.size))
        for i, row in enumerate(f[::-1]):
            y += row
            y *= x if i % 2 == 0 else 1 - x
        return (y + y_old).T

    return dense


def solve(batch: Callable, stage: Callable, y0, ts: np.ndarray,
          settings: IntegratorSettings, max_step: float) -> Solution:
    """Integrate y' = stage(batch(t)[0], y) from y(0) = y0 up to ts[-1]
    with scipy.integrate's DOP853, and sample each time of the checked grid
    ts from the dense output of the step that covers it (y0 itself on the
    grid [0]).

    batch(times) takes a 1-d array of times and returns one record per
    time; it must act on each time alone, as kernels.coefficients does.
    stage(record, y) is the derivative there.  All stage times of a step
    are known before its first stage, so batch runs on all of them at once
    (t + C[1:] h and t + h), and once per dense output (on
    t_old + C_EXTRA h), not once per stage.  An attempt at the cap,
    h = max_step, ends at min(t + max_step, t_bound), so the attempts of a
    run of them start at times known ahead, and so does each one's dense
    output if it passes a sample time not yet taken: one batch call covers
    the stages of up to CAP_BLOCK_STEPS of them and those dense outputs,
    with the same float operations as the loop, and an attempt that does
    not start where the run predicts (after a rejection or a shorter step)
    drops the rest.  Everything else is SciPy's stepper, operation for
    operation (select_initial_step, the nextafter minimum step, safety 0.9,
    factors 0.2 and 10 with no growth after a rejection, the error norm,
    the dense output), with
    rtol = atol = settings.rel_tol and steps at most max_step: the samples
    and nfev are those of solve_ivp(method="DOP853", t_eval=ts) to the bit.

    The samples never steer the steps.  Raises ToleranceError when the step
    falls below the minimum, as it does at a pole of the solution.
    """
    # only the integrations need the tableau
    from . import _tableaux

    rk = _tableaux.DOP853
    ns, tol, t_bound = rk.n_stages, settings.rel_tol, float(ts[-1])
    exponent = -1 / (rk.error_estimator_order + 1)
    # stage times of an attempt as fractions of its step; the last is the
    # first stage of the next step
    c_step = np.append(rk.C[1:], 1.0)
    weights = [rk.A[s, :s] for s in range(ns)]
    # the dense output takes three more stages
    extra = [rk.A_EXTRA[j, :ns + 1 + j] for j in range(rk.C_EXTRA.size)]

    y = np.array(y0, dtype=float)
    k = np.empty((ns + 1 + len(extra), y.size))
    kt = [k[:s].T for s in range(k.shape[0] + 1)]
    f = np.asarray(stage(batch(np.zeros(1))[0], y), dtype=float)
    nfev = 1
    if t_bound == 0.0:
        return Solution(ts.copy(), y[:, None], nfev)

    # select_initial_step (Hairer, Norsett & Wanner, Sec. II.4)
    scale = tol + np.abs(y) * tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
    f1 = np.asarray(stage(batch(np.array([h0]))[0], y + h0 * f), dtype=float)
    nfev += 1
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (rk.error_estimator_order + 1))
    h_abs = min(100 * h0, h1, t_bound, max_step)

    def error_norm(h, scale):
        e5 = _norm(np.dot(kt[ns + 1], rk.E5) / scale) ** 2
        e3 = _norm(np.dot(kt[ns + 1], rk.E3) / scale) ** 2
        if e5 == 0 and e3 == 0:
            return 0.0
        return h * e5 / math.sqrt((e5 + 0.01 * e3) * len(scale))

    def interpolant():
        nonlocal nfev
        recs = (dense_recs if dense_recs is not None
                else batch(t_old + rk.C_EXTRA * h))
        for j, a in enumerate(extra):
            k[ns + 1 + j] = stage(recs[j], y_old + np.dot(kt[ns + 1 + j], a) * h)
        nfev += len(extra)
        delta = y - y_old
        fs = np.empty((3 + len(rk.D), y.size))
        fs[0] = delta
        fs[1] = h * k[0] - delta
        fs[2] = 2 * delta - h * (f + k[0])
        fs[3:] = h * np.dot(rk.D, k)
        return _dop853_interpolant(t_old, t, y_old, fs)

    # the predicted starts of a run of attempts at the cap, the records of
    # all of them, where each attempt's records begin, and how many of the
    # attempts the loop has taken; dense_recs holds the dense-output records
    # of the last attempt when its run took them, else None
    starts, block, offsets, at = [], None, [], 0
    dense_recs = None

    def cap_records(t, sampled):
        nonlocal starts, block, offsets, at, dense_recs
        if at >= len(starts) - 1 or starts[at] != t:
            starts = [t]
            while len(starts) <= CAP_BLOCK_STEPS and starts[-1] < t_bound:
                starts.append(min(starts[-1] + max_step, t_bound))
            s = np.array(starts)
            span = (s[1:] - s[:-1])[:, None]
            stage_t = s[:-1, None] + c_step * span
            # an attempt that passes a sample time not yet taken (the first
            # is ts[sampled]) takes its dense output, on the extra stage
            # times, if it is accepted
            taken = np.searchsorted(ts, s, side="right")
            taken[0] = sampled
            stage_t = np.hstack((stage_t, s[:-1, None] + rk.C_EXTRA * span))
            passes = (taken[1:] > taken[:-1])[:, None]
            keep = np.hstack((np.ones((span.size, ns), dtype=bool),
                              np.broadcast_to(passes, (span.size, len(extra)))))
            offsets = [0] + np.cumsum(keep.sum(axis=1)).tolist()
            block = batch(stage_t[keep])
            at = 0
        lo, hi = offsets[at], offsets[at + 1]
        at += 1
        dense_recs = block[lo + ns:hi] if hi > lo + ns else None
        return block[lo:lo + ns]

    times = ts.tolist()
    t_out, y_out = [ts[:0]], [np.empty((y.size, 0))]
    i = 0
    t = 0.0
    while True:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise ToleranceError("integration failed: Required step size "
                                     "is less than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            if h_abs == max_step:
                recs = cap_records(t, i)
            else:
                recs, dense_recs = batch(t + c_step * h), None
            k[0] = f
            for s in range(1, ns):
                k[s] = stage(recs[s - 1], y + np.dot(kt[s], weights[s]) * h)
            y_new = y + h * np.dot(kt[ns], rk.B)
            f_new = np.asarray(stage(recs[-1], y_new), dtype=float)
            k[ns] = f_new
            nfev += ns
            err = error_norm(h, tol + np.maximum(np.abs(y), np.abs(y_new)) * tol)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** exponent)
                h_abs = h * (min(1, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err ** exponent)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new

        j = i
        while j < len(times) and times[j] <= t:
            j += 1
        if j > i:
            t_out.append(ts[i:j])
            y_out.append(interpolant()(ts[i:j]))
            i = j
        if t >= t_bound:
            break
    return Solution(np.concatenate(t_out), np.hstack(y_out), nfev)


def integrate(p: BathParams, times: Sequence[float],
              settings: Optional[IntegratorSettings] = None) -> ChannelSeries:
    """Integrate both Riccati sectors from t=0 and sample the channel at `times`.

    The Riccati system of kernels.coefficients is stepped by solve with
    DOP853, which calls it with the stage times of a step attempt, or of a
    run of attempts at the step cap, as one array.  The decay exponent is
    not integrated: channel_at takes kernels.decay_exponent, the closed form
    that matches this generator and no other, in one call on the sample
    times.  Other generators go through propagate.

    Raises GridError on a bad grid and ToleranceError when the step falls
    below solve's minimum.
    """
    sol = solve(lambda ts: _coefficient_rows(ts, p, kernels.coefficients), _rhs,
                np.zeros(9), check_grid(times), settings or IntegratorSettings(),
                step_cap(p))
    return channel_at(sol.t, sol.y, kernels.decay_exponent(sol.t, p))


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

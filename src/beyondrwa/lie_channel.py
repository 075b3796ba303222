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

integrate steps the Riccati system with DOP853, on the tableau that
_tableaux holds, in equal steps of at most step_cap(p) between sample
times, which resolve the 2 omega0 phase of the counter-rotating terms;
the cap is fixed by the parameters, not a setting.  The coefficients
depend on t alone, so one call takes them for the stage times of a block
of up to RICCATI_BLOCK_STEPS steps.  An interval whose steps miss the
tolerance is stepped again with twice as many (doubled).  The direct
oracle (oracle.direct_channel) takes the same plan, error norm and
refinement, and propagate's helpers cut its grid and multiply its steps.
Every route here runs on NumPy alone.

Everything here is per-qubit and time-major: a ChannelSeries holds one
array per coefficient over the sampled times.  Two-qubit evolution is the
tensor square of this map (see two_qubit).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

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

# integrate evaluates the generator on the stage times of at most this many
# DOP853 steps at once: one table of records for a whole verify grid would
# raise verify's peak memory by about a quarter
RICCATI_BLOCK_STEPS = 64

# integrate refuses a grid that needs more DOP853 steps than this at the
# step cap: at about 0.1 ms per step that is a couple of minutes
RICCATI_MAX_STEPS = 1e6

# an interval whose equal DOP853 steps miss the tolerance is stepped again
# with twice as many, at most this many times (doubled)
MAX_DOUBLINGS = 6

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
    # only protects the stages of a step into a pole from overflow
    djm = eps_minus * cmath.exp(complex(min(j0_re, _EXP_ARG_LIMIT), j0_im))
    dkm = nu_minus * math.exp(min(k0, _EXP_ARG_LIMIT))
    dkp = nu_plus - nu_minus * kp * kp + nu0 * kp
    dk0 = nu0 - 2.0 * nu_minus * kp
    return [djp.real, djp.imag, dj0.real, dj0.imag, djm.real, djm.imag,
            dkp, dk0, dkm]


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


def _riccati_pieces(p: BathParams, prev: np.ndarray, ts: np.ndarray,
                    steps: np.ndarray):
    """The plan of integrate: each interval (prev[i], ts[i]] in steps[i]
    equal steps.  Yields, per piece of an interval in order, the interval,
    the step and the records (_coefficient_rows) of the stage times
    t0 + C[1:] h of each of its steps, 11 per step, from one call of
    kernels.coefficients per block of at most RICCATI_BLOCK_STEPS steps.
    The last stage time is the step's end, where the error estimate's
    extra stage is taken too."""
    from . import _tableaux

    nodes = _tableaux.DOP853.C[1:]
    start, dt, count, owner = _pieces(prev, ts, steps, RICCATI_BLOCK_STEPS)
    for first, stop, t0, h in _blocks(start, dt, count, RICCATI_BLOCK_STEPS):
        taken = np.arange(t0.shape[1]) < count[first:stop, None]
        stage_times = t0[taken][:, None] + nodes * h[taken][:, None]
        rows = _coefficient_rows(stage_times.ravel(), p, kernels.coefficients)
        at = 0
        for i in range(first, stop):
            size = nodes.size * int(count[i])
            yield int(owner[i]), float(dt[i]), rows[at:at + size]
            at += size


def _riccati_steps(pieces, y: np.ndarray, f: list, tol: float):
    """DOP853 steps of the Riccati system from the state y, where the
    derivative is f, over the pieces of one interval (_riccati_pieces):
    the state and derivative at its end, or None at the first step whose
    error norm reaches 1 or is not finite."""
    from . import _tableaux

    rk = _tableaux.DOP853
    ns = rk.n_stages
    weights = [rk.A[s, :s] for s in range(ns)]
    k = np.empty((ns + 1, y.size))
    kt = [k[:s].T for s in range(ns + 2)]
    for _, h, rows in pieces:
        for at in range(0, len(rows), ns - 1):
            recs = rows[at:at + ns - 1]
            k[0] = f
            for s in range(1, ns):
                k[s] = _rhs(recs[s - 1], y + np.dot(kt[s], weights[s]) * h)
            y_new = y + h * np.dot(kt[ns], rk.B)
            f_new = _rhs(recs[-1], y_new)
            k[ns] = f_new
            err = error_norm(h, np.dot(kt[ns + 1], rk.E5),
                             np.dot(kt[ns + 1], rk.E3), y, y_new, tol)
            if not err < 1.0:
                return None
            y, f = y_new, f_new
    return y, f


def integrate(p: BathParams, times: Sequence[float],
              settings: Optional[IntegratorSettings] = None) -> ChannelSeries:
    """Integrate both Riccati sectors from t=0 and sample the channel at `times`.

    The Riccati system of kernels.coefficients is stepped with DOP853 on
    the plan of the direct oracle (oracle.direct_channel): each interval
    between sample times takes equal steps of at most step_cap(p), and
    ends on its sample time, so no dense output is needed.  An interval
    with a step whose error norm (error_norm, at settings.rel_tol) reaches
    1 is stepped again from its start with twice the steps (doubled).  The
    decay exponent is not integrated: channel_at takes
    kernels.decay_exponent, the closed form that matches this generator and
    no other, in one call on the sample times.  Other generators go
    through propagate.

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
    f = _rhs(_coefficient_rows(np.zeros(1), p, kernels.coefficients)[0], y)
    out = np.empty((9, ts.size))
    plan = itertools.groupby(_riccati_pieces(p, prev, ts, steps),
                             key=lambda piece: piece[0])
    # a step into a pole overflows; its error norm is not finite, and the
    # interval is refined
    with np.errstate(over="ignore", invalid="ignore"):
        for i, pieces in plan:
            n, doublings = steps[i:i + 1], 0
            end = _riccati_steps(pieces, y, f, tol)
            while end is None:
                n = doubled(n, doublings, tol, prev[i])
                doublings += 1
                end = _riccati_steps(
                    _riccati_pieces(p, prev[i:i + 1], ts[i:i + 1], n), y, f, tol)
            y, f = end
            out[:, i] = y
    return channel_at(ts, out, kernels.decay_exponent(ts, p))


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

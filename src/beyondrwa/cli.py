"""Command-line front end: sweeps, verification, ESD reports, coefficient dumps.

Four subcommands:

* sweep  - concurrence over a (gamma_t, beta^2) grid, CSV output
* verify - run the oracle checks of CHECKS, one PASS/FAIL line per record
* report - death/revival/plateau summary per beta^2 row of a sweep
  (at least 3 time samples)
* trace  - dump the channel's coefficients along a single trajectory; it
  evolves no pair state, so it takes no --state, --beta2, --phase or
  --beta2-steps

sweep, report and trace take the channel from _channel_series: the
rotating-wave closed form, or lie_channel.propagate (fixed Magnus steps, no
tolerance to set), and run on NumPy alone.  Only verify integrates the
Wei-Norman equations (lie_channel.integrate) and the direct master
equation (oracle.direct_channel), both in equal DOP853 steps at the step
cap, refined where the error asks, on NumPy, and takes --rel-tol.
run_checks integrates each preset once per route; the tests call the
same checks.  Only verify's QUADPACK checks (check_kernels and
check_rwa) load SciPy: its QUADPACK extension alone, through
oracle._quad, not scipy.integrate.

Everything is deterministic: no randomness exists anywhere in the pipeline,
identical flags produce byte-identical output.  Times on the command line
are dimensionless gamma*t; the solver works in physical time internally.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

import numpy as np

from . import kernels, lie_channel, oracle
from .entanglement import (concurrence_general, concurrence_sectors,
                          concurrence_xstate, detect_esd, true_runs)
from .errors import BeyondRwaError, DomainError, IoError
from .kernels import BathParams
from .lie_channel import ChannelSeries, IntegratorSettings, apply_channel
from .two_qubit import (BellFamilyState, evolve_pair, evolve_sectors,
                        explicit_elements, initial_state, initial_states,
                        sector_blocks, sector_maps)

BETA2_FLOOR = 1e-4
REVIVAL_AMPLITUDE = 0.01   # minimum peak for an episode to count in reports
DEATH_THRESHOLD = 1e-6
# compute_surface evolves at most this many (time, beta^2) cells at once
# (at least one time row), which bounds its working memory
SURFACE_BLOCK_CELLS = 1024


PRESETS = {
    # far-detuned regime: omega0 = 10 lam = 100 gamma
    "A": BathParams(omega0=100.0, gamma=1.0, lam=10.0),
    # matched regime: omega0 = lam = 10 gamma
    "B": BathParams(omega0=10.0, gamma=1.0, lam=10.0),
    # low-frequency regime: omega0 = 3 gamma < lam
    "C": BathParams(omega0=3.0, gamma=1.0, lam=10.0),
    # rotating-wave reference channel, lam = 10 gamma; the rotating-wave
    # amplitude never reads omega0, kept for the shared BathParams plumbing
    "RWA": BathParams(omega0=10.0, gamma=1.0, lam=10.0),
}


@dataclass(frozen=True)
class SweepSpec:
    """Fully resolved inputs of one concurrence sweep."""

    params: BathParams
    channel: str = "full"          # "full", "rwa", or "truncated"
    family: str = "phi"
    beta2_values: tuple = ()       # resolved grid, open-interval clipped
    eta_phase: float = 0.0
    t_max: float = 10.0            # gamma*t units
    t_steps: int = 201


@dataclass(frozen=True)
class ConcurrenceSurface:
    gamma_t: np.ndarray
    beta2: np.ndarray
    values: np.ndarray   # shape (t, beta2)


def beta2_grid(steps: int, fixed: Optional[float] = None) -> tuple:
    """Default grid on the clipped open interval, or a single clipped value;
    the command line rejects a fixed value outside [0, 1] before this."""
    if fixed is not None:
        vals = np.array([fixed])
    else:
        vals = np.linspace(BETA2_FLOOR, 1.0 - BETA2_FLOOR, steps)
    return tuple(float(b) for b in np.clip(vals, BETA2_FLOOR, 1.0 - BETA2_FLOOR))


def _channel_series(spec: SweepSpec, times: np.ndarray) -> ChannelSeries:
    """The channel at every one of `times`: the rotating-wave closed form,
    or the Magnus propagator of the full or truncated generator.
    DomainError, naming the flags, when two of the times coincide."""
    if not np.all(np.diff(times) > 0.0):
        raise DomainError(f"--tmax {spec.t_max:g} over --gamma "
                          f"{spec.params.gamma:g} and --t-steps {spec.t_steps} "
                          f"leave samples that coincide: raise --tmax or "
                          f"lower --t-steps")
    if spec.channel == "rwa":
        return oracle.rwa_channel(times, spec.params)
    cfn = oracle.truncated_coefficients if spec.channel == "truncated" else None
    return lie_channel.propagate(spec.params, times, coefficient_fn=cfn)


def _initial_states(family: str, b2s: np.ndarray, phase: float = 0.0) -> np.ndarray:
    """Stack (S, 4, 4) of the family's states, one per beta^2."""
    return initial_states(family, np.sqrt(np.asarray(b2s, dtype=float)),
                          phase).reshape(-1, 4, 4)


def compute_surface(spec: SweepSpec) -> ConcurrenceSurface:
    """Concurrence over the full grid with one channel propagation.

    The channel depends on time only, so it is evolved against every beta^2
    at once, SURFACE_BLOCK_CELLS cells at a time.  Both families are X
    states, so only their diagonal and antidiagonal are evolved: read from
    the stack once (two_qubit.sector_blocks), then through each block of
    times (two_qubit.evolve_sectors) of the sector maps, built for up to
    SURFACE_BLOCK_CELLS times at once (two_qubit.sector_maps).
    """
    gts = np.linspace(0.0, spec.t_max, spec.t_steps)
    series = _channel_series(spec, gts / spec.params.gamma)
    b2s = np.asarray(spec.beta2_values, dtype=float)
    blocks = sector_blocks(_initial_states(spec.family, b2s, spec.eta_phase))

    values = np.empty((gts.size, b2s.size))
    rows = max(1, SURFACE_BLOCK_CELLS // max(1, b2s.size))
    # the sector maps of whole blocks and at most SURFACE_BLOCK_CELLS times
    # at once: a map of every time of a long report would cost 96 bytes a time
    span = rows * max(1, SURFACE_BLOCK_CELLS // rows)
    for start in range(0, gts.size, span):
        pop, coh = sector_maps(series[start:start + span])
        for i in range(0, pop.shape[-1], rows):
            block = slice(i, i + rows)
            values[start + i:start + i + rows] = concurrence_sectors(
                *evolve_sectors(pop[..., block], coh[..., block], *blocks)).value
    return ConcurrenceSurface(gamma_t=gts, beta2=b2s, values=values)


def _fmt(v: float) -> str:
    return "NaN" if math.isnan(v) else "%.17g" % v


def write_csv(surface: ConcurrenceSurface, stream: TextIO) -> None:
    """Rows in t-outer, beta^2-inner order, 17 significant digits; each
    gamma_t and beta^2 is formatted once and each row by one % operation,
    or, when every cell is +0.0, by a join of ready-made tails."""
    stream.write("gamma_t,beta2,concurrence\n")
    # joined by gamma_t, the leading "" puts it before every cell's tail
    tails = [""] + [f",{_fmt(b2)},%.17g\n" for b2 in surface.beta2.tolist()]
    zero_tails = [tail.replace("%.17g", "0") for tail in tails]   # "%.17g" % 0.0
    values = np.asarray(surface.values, dtype=float)
    # the row masks in one pass each, not a NumPy call per row: a dead row
    # has every bit of every cell clear (-0.0 and NaN do not), and
    # np.maximum propagates NaN, so a row's maximum is NaN when it holds one
    dead = (~values.view(np.uint64).any(axis=1)).tolist()
    nan_rows = np.isnan(values.max(axis=1, initial=-np.inf)).tolist()
    for gt, row, is_dead, has_nan in zip(surface.gamma_t.tolist(), values,
                                         dead, nan_rows):
        if is_dead:
            stream.write(_fmt(gt).join(zero_tails))
            continue
        # one row of Python floats at a time: a whole-surface tolist() would
        # hold ~32 bytes per cell
        text = _fmt(gt).join(tails) % tuple(row.tolist())
        # %g writes NaN as "nan", which no gamma_t or beta^2 string contains
        stream.write(text.replace("nan", "NaN") if has_nan else text)


@contextlib.contextmanager
def _output(path: Optional[str]):
    """The stream of --out: stdout for None or "-", else the file, closed
    on exit; IoError when it cannot be opened."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        stream = open(path, "w", encoding="utf-8")
    except OSError as err:
        raise IoError(f"cannot open output file {path!r}: {err}") from err
    with stream:
        yield stream


def _check_grid_flags(args) -> None:
    """DomainError, naming the flag, for a grid the command cannot sample."""
    if "beta2" in args:   # trace evolves no pair state and has no beta^2 grid
        if args.beta2 is not None and not 0.0 <= args.beta2 <= 1.0:
            raise DomainError(f"--beta2 must lie in [0, 1], got {args.beta2:g}")
        if not math.isfinite(args.phase):
            raise DomainError(f"--phase must be finite, got {args.phase:g}")
        if args.beta2_steps < 1:
            raise DomainError(f"--beta2-steps must be at least 1, got {args.beta2_steps}")
    if args.t_steps < 1:
        raise DomainError(f"--t-steps must be at least 1, got {args.t_steps}")
    # a single sample may sit at t = 0; more samples need a span to spread over
    if not (math.isfinite(args.tmax) and args.tmax >= 0.0
            and (args.tmax > 0.0 or args.t_steps == 1)):
        raise DomainError(f"--tmax must be positive and finite (0 only with "
                          f"--t-steps 1), got {args.tmax:g}")


def _spec_from_args(args) -> SweepSpec:
    _check_grid_flags(args)
    params = PRESETS[args.preset]
    overrides = {name: getattr(args, name) for name in ("omega0", "lam", "gamma")
                 if getattr(args, name) is not None}
    for name, value in overrides.items():
        if not (value > 0.0 and math.isfinite(value)):
            flag = "--lambda" if name == "lam" else f"--{name}"
            raise DomainError(f"{flag} must be positive and finite, got {value:g}")
    if overrides:
        params = dataclasses.replace(params, **overrides)
    # the grid runs in physical time, gamma_t / gamma
    if not math.isfinite(args.tmax / params.gamma):
        raise DomainError(f"--tmax {args.tmax:g} over --gamma {params.gamma:g} "
                          f"overflows the physical time: raise --gamma or "
                          f"shorten --tmax")

    channel = "rwa" if args.preset == "RWA" else "full"
    # the rotating-wave amplitude does not read omega0
    if channel == "rwa" and args.omega0 is not None:
        raise DomainError("--omega0 does not apply to preset RWA")
    if args.truncated_rwa:
        if channel == "rwa":
            raise DomainError("--truncated-rwa does not combine with preset RWA")
        channel = "truncated"

    pair = {}
    if "beta2" in args:
        pair = dict(family=args.state, eta_phase=args.phase,
                    beta2_values=beta2_grid(args.beta2_steps, args.beta2))
    return SweepSpec(params=params, channel=channel, t_max=args.tmax,
                     t_steps=args.t_steps, **pair)


def cmd_sweep(args) -> int:
    surface = compute_surface(_spec_from_args(args))
    with _output(args.out) as stream:
        write_csv(surface, stream)
    return 0


# ---------------------------------------------------------------------------
# verify: a registry of oracle checks.  Each check is called as
# check(names, wei_norman, direct), with the preset names and run_checks's
# channel getters, which take a preset name, and yields (name, deviation,
# bound) records; one passes when deviation < bound.

# the presets whose full generator verify checks
VERIFY_PRESETS = ("A", "B", "C")


def _verify_grid(p: BathParams) -> np.ndarray:
    """201 points over gamma*t in [0, 10]; the dual paths and rwa_residual
    read every 10th, which is bit for bit np.linspace(0, 10/gamma, 21)."""
    return np.linspace(0.0, 10.0 / p.gamma, 201)


def check_direct(names, wei_norman, direct):
    probes = (np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),   # excited
              np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))   # plus
    for preset in names:
        ref, p = direct(preset), PRESETS[preset]
        for name, series in (("direct_vs_channel", wei_norman(preset)),
                             ("magnus_vs_direct", lie_channel.propagate(p, ref.t))):
            dev = max(float(np.max(np.abs(apply_channel(series, rho0)
                                          - apply_channel(ref, rho0))))
                      for rho0 in probes)
            yield f"{name}[{preset}]", dev, 1e-6

    # the trace of the maximally mixed state's image
    c = direct("C")
    traces = np.abs(((c.l + c.p) + (c.m + c.n)) / 2.0 - 1.0)
    yield "direct_trace[C]", float(traces.max()), 1e-8


def check_two_qubit(names, wei_norman, direct):
    series = wei_norman("C")[::10]
    rho0 = initial_state(BellFamilyState("phi", math.sqrt(0.5)))
    diff = evolve_pair(series, rho0) - explicit_elements(series, rho0)
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 1] = False
    expected_gap = (series.l * series.n - series.l * series.m) * rho0[1, 1]
    yield "two_qubit_dual_path", float(np.max(np.abs(diff[:, mask]))), 1e-12
    yield ("two_qubit_rho22_gap",
           float(np.max(np.abs(diff[:, 1, 1] - expected_gap))), 1e-12)


def check_concurrence(names, wei_norman, direct):
    b2s = np.linspace(BETA2_FLOOR, 1.0 - BETA2_FLOOR, 20)
    dev = 0.0
    gated = total = 0
    for preset in names:
        series = wei_norman(preset)[::10]
        for family in ("phi", "psi"):
            rho = evolve_pair(series, _initial_states(family, b2s))
            general = concurrence_general(rho)
            kept = ~np.isnan(general)   # NaN: transient negativity, oracle declines
            total += kept.size
            gated += int(kept.size - kept.sum())
            closed = concurrence_xstate(rho[kept]).value
            dev = max(dev, float(np.max(np.abs(closed - general[kept]),
                                        initial=0.0)))
    if gated:
        print(f"note: {gated} grid states skipped by the positivity gate",
              file=sys.stderr)
    # as criterion 03: a comparison that skips a quarter of its states or
    # more shows nothing
    yield "concurrence_dual_path", dev if 4 * gated < total else math.inf, 1e-10


# kernels.<name> against oracle.<name>_quadrature, both looked up at call
# time, with the bound of kernel_<name>
KERNEL_BOUNDS = (("alpha1", 1e-10), ("alpha2", 1e-10), ("alpha", 1e-10),
                 ("alpha_tilde", 1e-8), ("decay_exponent", 1e-8))


def check_kernels(names, *_):
    points = [(gt / p.gamma, p) for p in (PRESETS[name] for name in names)
              for gt in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)]
    for name, bound in KERNEL_BOUNDS:
        closed = getattr(kernels, name)
        quadrature = getattr(oracle, f"{name}_quadrature")
        yield (f"kernel_{name}", float(np.max(
            [abs(closed(t, p) - quadrature(t, p)) for t, p in points])), bound)


def check_rwa(*_):
    p = PRESETS["RWA"]
    yield "rwa_residual", oracle.rwa_residual(p, _verify_grid(p)[::10]), 1e-6


# in print order
CHECKS = (check_direct, check_two_qubit, check_concurrence, check_kernels,
          check_rwa)


def _aborted(err: Exception) -> tuple:
    """The record of a check group that raised err, with its warning."""
    print(f"warning: check group raised {type(err).__name__}: {err}",
          file=sys.stderr)
    return f"aborted_{type(err).__name__}", math.inf, 0.0


def run_checks(names, settings: IntegratorSettings):
    """The records of every check of CHECKS on the presets `names`, over one
    Wei-Norman integration and one direct channel per preset on its verify
    grid, each built when a check first asks for it.  A build that raises
    is not attempted again: each later request raises the same error.  A
    check that raises keeps the records it yielded and adds
    aborted_<Error>, deviation inf, bound 0."""
    done: dict = {}

    def channel(build, name: str) -> ChannelSeries:
        key = (build, name)
        if key not in done:
            p = PRESETS[name]
            try:
                done[key] = build(p, _verify_grid(p), settings)
            except Exception as err:
                done[key] = err
        if isinstance(done[key], Exception):
            raise done[key]
        return done[key]

    wei_norman = lambda name: channel(lie_channel.integrate, name)
    direct = lambda name: channel(oracle.direct_channel, name)
    for check in CHECKS:
        try:
            yield from check(names, wei_norman, direct)
        except Exception as err:   # a failed oracle is a FAIL line, not a crash
            yield _aborted(err)


def cmd_verify(args) -> int:
    names = VERIFY_PRESETS if args.preset is None else (args.preset,)
    records = list(run_checks(names, IntegratorSettings(rel_tol=args.rel_tol)))
    for name, dev, bound in records:
        print(f"{name}\t{dev:.6g}\t{bound:g}\t{'PASS' if dev < bound else 'FAIL'}")
    return 0 if all(dev < bound for _, dev, bound in records) else 1


# ---------------------------------------------------------------------------
# report

def _plateau(gts: np.ndarray, vals: np.ndarray):
    """Longest run with |dC/dt| below 1% of the curve maximum; the first
    of equally long runs."""
    vmax = float(np.max(vals))
    slopes = np.gradient(vals, gts)
    flat = np.abs(slopes) < 0.01 * vmax if vmax > 0.0 else np.ones_like(vals, bool)
    starts, ends = true_runs(flat)
    if starts.size == 0:
        return None
    i = int(np.argmax(gts[ends] - gts[starts]))   # argmax keeps the first
    return int(starts[i]), int(ends[i])


def cmd_report(args) -> int:
    # detect_esd and the plateau slopes need three samples; refuse fewer
    # before the header is written
    if args.t_steps < 3:
        raise DomainError(f"--t-steps must be at least 3 for a report, "
                          f"got {args.t_steps}")
    spec = _spec_from_args(args)
    # np.gradient divides by products of neighbouring spacings: their
    # squares must neither underflow nor overflow
    dx = spec.t_max / (spec.t_steps - 1)
    if not (sys.float_info.min <= dx * dx / 4.0 and 4.0 * dx * dx < math.inf):
        raise DomainError(f"--tmax {spec.t_max:g} over --t-steps {spec.t_steps} "
                          f"spaces the samples {dx:.3g} apart, whose square "
                          f"leaves the float range the plateau slopes need: "
                          f"change --tmax or --t-steps")
    surface = compute_surface(spec)
    with _output(args.out) as stream:
        stream.write(f"# preset={args.preset} channel={spec.channel} "
                     f"family={spec.family} phase={spec.eta_phase:g} "
                     f"tmax={spec.t_max:g} t_steps={spec.t_steps}\n")
        stream.write("beta2\tdeath_gamma_t\trevivals\tmax_revival\t"
                     "plateau_start\tplateau_end\tplateau_level\n")
        gts = surface.gamma_t
        for j, b2 in enumerate(surface.beta2):
            vals = surface.values[:, j]
            rep = detect_esd(gts, vals, threshold=DEATH_THRESHOLD)
            episodes = [e for e in rep.episodes if e.peak >= REVIVAL_AMPLITUDE]
            death = "none" if rep.death_time is None else f"{rep.death_time:.6g}"
            peak = max((e.peak for e in episodes), default=0.0)
            pl = _plateau(gts, vals)
            if pl is None:
                pstart = pend = plevel = "none"
            else:
                pstart = f"{gts[pl[0]]:.6g}"
                pend = f"{gts[pl[1]]:.6g}"
                plevel = f"{float(np.mean(vals[pl[0]:pl[1] + 1])):.6g}"
            stream.write(f"{b2:.6g}\t{death}\t{len(episodes)}\t{peak:.6g}\t"
                         f"{pstart}\t{pend}\t{plevel}\n")
    return 0


# ---------------------------------------------------------------------------
# trace

def cmd_trace(args) -> int:
    spec = _spec_from_args(args)
    gts = np.linspace(0.0, spec.t_max, spec.t_steps)
    cf = _channel_series(spec, gts / spec.params.gamma)
    # the coefficients carry any decay factor, so no column holds it apart
    cols = np.column_stack(
        (gts, cf.l, cf.m, cf.n, cf.p, cf.x.real, cf.x.imag, cf.y.real,
         cf.y.imag, cf.q.real, cf.q.imag, cf.r.real, cf.r.imag))
    with _output(args.out) as stream:
        stream.write("gamma_t,l,m,n,p,x_re,x_im,y_re,y_im,"
                     "q_re,q_im,r_re,r_im\n")
        for row in cols:
            stream.write(",".join(_fmt(c) for c in row) + "\n")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beyondrwa",
        description="Exact decoherence and entanglement dynamics of qubits "
                    "in Lorentzian vacuum reservoirs, beyond the "
                    "rotating-wave approximation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seedless", action="store_true",
                        help="accepted for interface compatibility; output "
                             "is always deterministic")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--preset", choices=sorted(PRESETS), default="B",
                      help="parameter preset (default B)")
    grid.add_argument("--omega0", type=float, default=None,
                      help="override atomic frequency")
    grid.add_argument("--lambda", dest="lam", type=float, default=None,
                      help="override coupling strength")
    grid.add_argument("--gamma", type=float, default=None,
                      help="override spectral width")
    grid.add_argument("--out", default=None, metavar="PATH",
                      help="output file (default stdout)")
    grid.add_argument("--tmax", type=float, default=10.0,
                      help="time range in gamma*t units (default 10)")
    grid.add_argument("--t-steps", type=int, default=201,
                      help="number of time samples (default 201)")
    grid.add_argument("--truncated-rwa", action="store_true",
                      help="exploratory mode: drop every counter-rotating "
                           "generator coefficient")

    # the initial pair states of sweep and report; trace evolves none
    states = argparse.ArgumentParser(add_help=False)
    states.add_argument("--state", choices=("phi", "psi"), default="phi",
                        help="initial-state family (default phi)")
    states.add_argument("--beta2", type=float, default=None,
                        help="single beta^2 value instead of a grid")
    states.add_argument("--phase", type=float, default=0.0,
                        help="relative phase of the second amplitude")
    states.add_argument("--beta2-steps", type=int, default=51,
                        help="number of beta^2 samples (default 51)")

    ps = sub.add_parser("sweep", parents=[common, grid, states],
                        help="concurrence surface as CSV")
    ps.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify", parents=[common],
                        help="run the oracle cross-check suite")
    # only the adaptive Wei-Norman and direct integrations take a tolerance;
    # their step cap, lie_channel.step_cap, is fixed by the preset
    pv.add_argument("--rel-tol", type=float, default=IntegratorSettings.rel_tol,
                    help="integrator relative tolerance (absolute tracks it; "
                         "default %(default)g); on presets A, B and C both "
                         "routes step at the step cap, so the printed values "
                         "move only below about 1e-10")
    # RWA has no generator of its own to check: rwa_residual covers it
    pv.add_argument("--preset", choices=VERIFY_PRESETS, default=None,
                    help="check one preset (default A, B and C)")
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("report", parents=[common, grid, states],
                        help="sudden-death and revival summary per beta^2")
    pr.set_defaults(func=cmd_report)

    pt = sub.add_parser("trace", parents=[common, grid],
                        help="dump channel coefficients along one trajectory")
    pt.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # flags whose arithmetic leaves the float range are refused, not
        # printed as NumPy warnings beside NaN cells
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except FloatingPointError as err:
        print(f"error: the flags take the arithmetic out of the float range "
              f"({err}): change --omega0, --lambda, --gamma or --tmax",
              file=sys.stderr)
        return 2
    except BeyondRwaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

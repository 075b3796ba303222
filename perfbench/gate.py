"""Correctness gate: each beyondrwa output against an independent reference.

* Sweeps: the single-qubit channel is rebuilt from four Hermitian probes
  integrated by `oracle.integrate_master_direct`, squared onto the pair and
  reduced to the X-state concurrence here; every CSV cell must lie within
  SURFACE_BOUND of it.
* RWA reports: the same pair evolution on the closed-form amplitude
  `oracle.rwa_amplitude`; the report columns are recomputed from that curve.
* verify: every check line verify printed when this gate was written must be
  present, read PASS and show a deviation below its bound; any further line
  must pass too.

Every check takes a `shift` that is added to the output's compared values.
The negative control calls it with NEGATIVE_SHIFT and must be rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from beyondrwa import oracle
from beyondrwa.kernels import BathParams

SURFACE_BOUND = 1e-6       # |CSV - reference| per cell, and report values
NEGATIVE_SHIFT = 1e-5      # perturbation the gate must reject
DEATH_THRESHOLD = 1e-6     # report semantics of the command line
REVIVAL_AMPLITUDE = 0.01
BETA2_FLOOR = 1e-4

# check lines `beyondrwa verify` printed when this gate was written, with bounds
VERIFY_CHECKS = {
    "direct_vs_channel[A]": 1e-6, "direct_vs_channel[B]": 1e-6,
    "direct_vs_channel[C]": 1e-6, "direct_trace[C]": 1e-8,
    "two_qubit_dual_path": 1e-12, "two_qubit_rho22_gap": 1e-12,
    "concurrence_dual_path": 1e-10,
    "kernel_alpha1": 1e-10, "kernel_alpha2": 1e-10, "kernel_alpha": 1e-10,
    "kernel_alpha_tilde": 1e-8, "kernel_decay_exponent": 1e-8,
    "rwa_residual": 1e-6,
}

REPORT_COLUMNS = ("beta2\tdeath_gamma_t\trevivals\tmax_revival\t"
                  "plateau_start\tplateau_end\tplateau_level")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    deviation: float
    detail: str


# ---------------------------------------------------------------------------
# reference pair evolution

def direct_channel(p: BathParams, times: np.ndarray) -> np.ndarray:
    """Single-qubit map K[t, c, c', a, a'] = Phi_t(|a><a'|)[c, c'].

    Built from the direct master-equation route on the Hermitian probes
    |1><1|, |0><0|, |+><+| and |+i><+i|; the map is linear, so the
    off-diagonal basis images follow from those four.
    """
    probes = (np.array([[1, 0], [0, 0]], complex),
              np.array([[0, 0], [0, 1]], complex),
              np.array([[0.5, 0.5], [0.5, 0.5]], complex),
              np.array([[0.5, -0.5j], [0.5j, 0.5]], complex))
    e, g, x, y = (np.array(oracle.integrate_master_direct(p, rho0, times))
                  for rho0 in probes)
    re_part = 2.0 * x - e - g          # image of |1><0| + |0><1|
    im_part = 2.0 * y - e - g          # image of -i|1><0| + i|0><1|
    k = np.empty((times.size, 2, 2, 2, 2), complex)
    k[..., 0, 0] = e
    k[..., 1, 1] = g
    k[..., 0, 1] = (re_part + 1j * im_part) / 2.0
    k[..., 1, 0] = (re_part - 1j * im_part) / 2.0
    return k


def rwa_channel(p: BathParams, times: np.ndarray) -> np.ndarray:
    """The rotating-wave map from the closed-form amplitude q(t)."""
    q = np.array([oracle.rwa_amplitude(float(t), p) for t in times])
    pop = np.abs(q) ** 2
    k = np.zeros((times.size, 2, 2, 2, 2), complex)
    k[:, 0, 0, 0, 0] = pop
    k[:, 1, 1, 0, 0] = 1.0 - pop
    k[:, 1, 1, 1, 1] = 1.0
    k[:, 0, 1, 0, 1] = q
    k[:, 1, 0, 1, 0] = q.conj()
    return k


def bell_states(family: str, beta2: np.ndarray) -> np.ndarray:
    """beta|01> + eta|10> (phi) or beta|00> + eta|11> (psi), eta real.

    Joint basis |11>, |10>, |01>, |00>, first label qubit A.
    """
    v = np.zeros((beta2.size, 4), complex)
    beta, eta = np.sqrt(beta2), np.sqrt(1.0 - beta2)
    if family == "phi":
        v[:, 2], v[:, 1] = beta, eta
    else:
        v[:, 3], v[:, 0] = beta, eta
    return v[:, :, None] * v[:, None, :].conj()


def pair_concurrence(k: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """Concurrence [t, state] of rho0 under the tensor square of k.

    X-state closed form on the Hermitian part, with the products under the
    square roots clamped at zero, as the command line defines it.
    """
    rho0 = rho0.reshape(-1, 2, 2, 2, 2)                      # a b a' b'
    rho = np.einsum("tcxaz,tdybw,nabzw->tncdxy", k, k, rho0,
                    optimize=True).reshape(k.shape[0], -1, 4, 4)
    rh = (rho + np.conj(np.swapaxes(rho, -1, -2))) / 2.0
    d = np.real(np.diagonal(rh, axis1=-2, axis2=-1))
    c1 = 2.0 * (np.abs(rh[..., 1, 2]) - np.sqrt(np.maximum(d[..., 0] * d[..., 3], 0.0)))
    c2 = 2.0 * (np.abs(rh[..., 0, 3]) - np.sqrt(np.maximum(d[..., 1] * d[..., 2], 0.0)))
    return np.maximum(0.0, np.maximum(c1, c2))


# ---------------------------------------------------------------------------
# sweeps

def beta2_grid(steps: int) -> np.ndarray:
    return np.clip(np.linspace(BETA2_FLOOR, 1.0 - BETA2_FLOOR, steps),
                   BETA2_FLOOR, 1.0 - BETA2_FLOOR)


def sweep_reference(omega0: float, lam: float, family: str, beta2_steps: int,
                    t_steps: int = 201, t_max: float = 10.0) -> dict:
    p = BathParams(omega0=omega0, gamma=1.0, lam=lam)
    gts = np.linspace(0.0, t_max, t_steps)
    b2s = beta2_grid(beta2_steps)
    surface = pair_concurrence(direct_channel(p, gts / p.gamma),
                               bell_states(family, b2s))
    return {"gamma_t": gts, "beta2": b2s, "values": surface}


def check_sweep(text: str, ref: dict, shift: float = 0.0) -> Verdict:
    lines = text.splitlines()
    if not lines or lines[0] != "gamma_t,beta2,concurrence":
        return Verdict(False, math.inf, "missing CSV header")
    try:
        rows = np.array([[float(f) for f in ln.split(",")] for ln in lines[1:]])
    except ValueError as err:
        return Verdict(False, math.inf, f"unparsable row: {err}")
    nt, nb = ref["values"].shape
    if rows.shape != (nt * nb, 3):
        return Verdict(False, math.inf, f"rows {rows.shape}, expected {(nt * nb, 3)}")
    if not (np.array_equal(rows[:, 0], np.repeat(ref["gamma_t"], nb))
            and np.array_equal(rows[:, 1], np.tile(ref["beta2"], nt))):
        return Verdict(False, math.inf, "grid columns differ from the requested grid")
    dev = float(np.max(np.abs(rows[:, 2] + shift - ref["values"].ravel())))
    ok = bool(np.isfinite(dev) and dev < SURFACE_BOUND)
    return Verdict(ok, dev, f"max |C - reference| = {dev:.3g}")


# ---------------------------------------------------------------------------
# rotating-wave reports

def _runs(mask: np.ndarray) -> tuple:
    """First and last index of every maximal run of True in mask."""
    edges = np.diff(np.concatenate(([0], mask.astype(int), [0])))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1


def _plateau(gts: np.ndarray, vals: np.ndarray):
    """Longest run with |dC/dt| below 1% of the curve maximum; first on ties."""
    vmax = float(np.max(vals))
    flat = (np.abs(np.gradient(vals, gts)) < 0.01 * vmax if vmax > 0.0
            else np.ones(vals.size, bool))
    starts, ends = _runs(flat)
    if starts.size == 0:
        return None
    i = int(np.argmax(gts[ends] - gts[starts]))
    return starts[i], ends[i]


def report_reference(lam: float, family: str, beta2: float,
                     t_steps: int = 40001, t_max: float = 10.0) -> dict:
    """Expected report row from the closed-form amplitude."""
    p = BathParams(omega0=10.0, gamma=1.0, lam=lam)   # RWA ignores omega0
    gts = np.linspace(0.0, t_max, t_steps)
    curve = pair_concurrence(rwa_channel(p, gts / p.gamma),
                             bell_states(family, np.array([beta2])))[:, 0]
    below = np.flatnonzero(curve < DEATH_THRESHOLD)
    peaks = []
    if below.size:      # revival episodes: runs above threshold after death
        after = curve[below[0] + 1:]
        peaks = [float(np.max(after[a:b + 1]))
                 for a, b in zip(*_runs(after > DEATH_THRESHOLD))]
    kept = [pk for pk in peaks if pk >= REVIVAL_AMPLITUDE]
    pl = _plateau(gts, curve)
    return {
        "beta2": f"{beta2:.6g}",
        "death": "none" if not below.size else f"{gts[below[0]]:.6g}",
        "revivals": str(len(kept)),
        "max_revival": max(kept, default=0.0),
        "plateau": ("none", "none") if pl is None
        else (f"{gts[pl[0]]:.6g}", f"{gts[pl[1]]:.6g}"),
        "plateau_level": None if pl is None
        else float(np.mean(curve[pl[0]:pl[1] + 1])),
        "family": family,
    }


def check_report(text: str, ref: dict, shift: float = 0.0) -> Verdict:
    lines = text.splitlines()
    if (len(lines) != 3 or not lines[0].startswith(
            f"# preset=RWA channel=rwa family={ref['family']} ")
            or lines[1] != REPORT_COLUMNS):
        return Verdict(False, math.inf, "report layout differs")
    f = lines[2].split("\t")
    if len(f) != 7:
        return Verdict(False, math.inf, "report row needs 7 columns")
    exact = ((f[0], ref["beta2"]), (f[1], ref["death"]), (f[2], ref["revivals"]),
             (f[4], ref["plateau"][0]), (f[5], ref["plateau"][1]))
    for got, want in exact:
        if got != want:
            return Verdict(False, math.inf, f"report field {got!r}, expected {want!r}")
    try:
        dev = abs(float(f[3]) + shift - ref["max_revival"])
        if ref["plateau_level"] is None:
            if f[6] != "none":
                return Verdict(False, math.inf, "unexpected plateau level")
        else:
            dev = max(dev, abs(float(f[6]) + shift - ref["plateau_level"]))
    except ValueError as err:
        return Verdict(False, math.inf, f"unparsable report value: {err}")
    return Verdict(dev < SURFACE_BOUND, dev, f"max report deviation = {dev:.3g}")


# ---------------------------------------------------------------------------
# verify

def check_verify(text: str, ref: None = None, shift: float = 0.0) -> Verdict:
    """verify has no reference; every line carries its own bound."""
    seen = {}
    worst = 0.0
    for line in text.splitlines():
        f = line.split("\t")
        if len(f) != 4:
            return Verdict(False, math.inf, f"malformed check line {line!r}")
        try:
            dev, bound = float(f[1]) + shift, float(f[2])
        except ValueError:
            return Verdict(False, math.inf, f"unparsable check line {line!r}")
        if f[3] != "PASS" or not dev < bound:
            return Verdict(False, dev, f"check {f[0]} fails: {dev:g} vs {bound:g}")
        seen[f[0]] = bound
        worst = max(worst, dev / bound)
    for name, bound in VERIFY_CHECKS.items():
        if seen.get(name) != bound:
            return Verdict(False, math.inf, f"check {name} missing or rebound")
    return Verdict(True, worst, f"{len(seen)} checks pass, worst dev/bound {worst:.3g}")

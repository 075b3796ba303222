"""Span recorder that traces the beyondrwa package from outside.

`Tracer.install` replaces each traced public function by a wrapper at every
module attribute of the package that binds it, so calls made through names
imported with `from .module import name` are traced as well as calls made
through the defining module.  Nothing inside the package is edited.

A span is (name, start, end, parent); spans are kept in flat arrays while
the program runs and written out with `dump` when it ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# span name -> (module of the beyondrwa package, functions it covers)
TRACED = {
    "cli.main": ("cli", ("main",)),
    "cli.compute_surface": ("cli", ("compute_surface",)),
    "cli.write_csv": ("cli", ("write_csv",)),
    "cli.cmd_report": ("cli", ("cmd_report",)),
    "kernels.coefficients": ("kernels", ("coefficients",)),
    "kernels.decay_exponent": ("kernels", ("decay_exponent",)),
    "lie_channel.integrate": ("lie_channel", ("integrate",)),
    "lie_channel.channel_at": ("lie_channel", ("channel_at",)),
    "lie_channel.transfer_matrix": ("lie_channel", ("transfer_matrix",)),
    "two_qubit.evolve_pair": ("two_qubit", ("evolve_pair",)),
    "entanglement.concurrence_xstate": ("entanglement", ("concurrence_xstate",)),
    "entanglement.concurrence_general": ("entanglement", ("concurrence_general",)),
    "entanglement.detect_esd": ("entanglement", ("detect_esd",)),
    "oracle.integrate_master_direct": ("oracle", ("integrate_master_direct",)),
    "oracle.rwa_channel": ("oracle", ("rwa_channel",)),
    "oracle.quadrature": ("oracle", (
        "alpha1_quadrature", "alpha2_quadrature", "alpha_quadrature",
        "alpha_tilde_quadrature", "decay_exponent_quadrature", "rwa_residual")),
}

# spans whose kernels.coefficients descendants count as right-hand-side
# evaluations of that integrator
INTEGRATORS = ("lie_channel.integrate", "oracle.integrate_master_direct")

# per-layer metric names in the order the benchmark reports them
METRICS = (
    "kernels.coefficients.calls", "kernels.coefficients.self_s",
    "kernels.decay_exponent.calls", "kernels.decay_exponent.self_s",
    "lie_channel.integrate.calls", "lie_channel.integrate.self_s",
    "lie_channel.integrate.rhs_evals",
    "lie_channel.channel_at.calls", "lie_channel.channel_at.self_s",
    "lie_channel.transfer_matrix.calls", "lie_channel.transfer_matrix.self_s",
    "two_qubit.evolve_pair.calls", "two_qubit.evolve_pair.self_s",
    "entanglement.concurrence_xstate.calls",
    "entanglement.concurrence_xstate.self_s",
    "entanglement.concurrence_general.calls",
    "entanglement.concurrence_general.self_s",
    "entanglement.concurrence_general.refused",
    "entanglement.concurrence_general.refused_frac",
    "entanglement.detect_esd.calls", "entanglement.detect_esd.self_s",
    "oracle.integrate_master_direct.calls",
    "oracle.integrate_master_direct.self_s",
    "oracle.integrate_master_direct.rhs_evals",
    "oracle.rwa_channel.calls", "oracle.rwa_channel.self_s",
    "oracle.quadrature.calls", "oracle.quadrature.self_s",
    "cli.main.self_s", "cli.compute_surface.self_s", "cli.write_csv.self_s",
    "cli.write_csv.bytes", "cli.cmd_report.self_s",
)

# metrics that count work; they must repeat exactly between traced runs
COUNTS = tuple(m for m in METRICS
               if m.endswith((".calls", ".rhs_evals", ".refused", ".bytes")))


class Tracer:
    def __init__(self) -> None:
        self.names = list(TRACED)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack: list = []

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "beyondrwa" or k.startswith("beyondrwa.")]
        for sid, (modname, funcs) in enumerate(TRACED.values()):
            owner = sys.modules["beyondrwa." + modname]
            for fname in funcs:
                original = getattr(owner, fname)
                wrapped = self._wrap(original, sid)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def _wrap(self, fn, sid: int):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        raised, stack = self.raised, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.raised, dtype=np.int8))

    def summary(self, csv_bytes: int) -> dict:
        """Per-layer counts and self times of everything recorded so far.

        csv_bytes is the size of the file write_csv produced; it is reported
        only when write_csv ran.
        """
        sid, parent, start, end, raised = self._arrays()
        k = len(self.names)
        dur = end - start
        child = np.zeros(sid.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        calls = np.bincount(sid, minlength=k)
        self_s = np.bincount(sid, weights=dur - child, minlength=k)
        refused = np.bincount(sid, weights=raised, minlength=k)

        # nearest enclosing integrator of every span (parents precede children)
        integrator_ids = {self.names.index(n) for n in INTEGRATORS}
        enclosing = [-1] * sid.size
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                enclosing[i] = p if sid[p] in integrator_ids else enclosing[p]
        coeff_id = self.names.index("kernels.coefficients")
        rhs = dict.fromkeys(INTEGRATORS, 0)
        for i in np.flatnonzero(sid == coeff_id).tolist():
            if enclosing[i] >= 0:
                rhs[self.names[sid[enclosing[i]]]] += 1

        out = {}
        for j, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[j])
            out[f"{name}.self_s"] = float(self_s[j])
        for name, n in rhs.items():
            out[f"{name}.rhs_evals"] = n
        general = "entanglement.concurrence_general"
        out[f"{general}.refused"] = int(refused[self.names.index(general)])
        out[f"{general}.refused_frac"] = (
            out[f"{general}.refused"] / out[f"{general}.calls"]
            if out[f"{general}.calls"] else 0.0)
        out["cli.write_csv.bytes"] = csv_bytes if out["cli.write_csv.calls"] else 0
        return {m: out[m] for m in METRICS}

    def dump(self, path: str) -> None:
        sid, parent, start, end, raised = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=sid, parent=parent,
                 start=start, end=end, raised=raised)

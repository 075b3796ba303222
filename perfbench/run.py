"""Benchmark of the beyondrwa command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop: one process runs one beyondrwa command at a time, each in a
fresh interpreter (perfbench/worker.py) with BLAS threads capped at nproc.
Iterations repeat while the next one, if it lasts as long as the last one,
ends within S seconds.  An iteration is a calibration probe and the
workload's full command list.  After the loop, every output goes through the correctness gate
(perfbench/gate.py), together with a copy perturbed by gate.NEGATIVE_SHIFT
that the gate must reject.

--trace 0 reports the end-to-end metrics: run_s, cpu_s and peak_rss_mb as
medians over iterations, setup_s as the median over every interpreter
started, and error_rate.  The three timings are scaled to reference seconds
by the run's calibration probes (see REF_CAL_S).  --trace 1 alternates untraced and traced
iterations (at least one and two) and reports the per-layer metrics of
perfbench/tracer.py.  Traced outputs must match the untraced ones byte for
byte, and traced counts must repeat exactly.

The last line of standard output is the result JSON; the line before it
holds run metadata.  Outputs, spans and a full record go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

LOOP_LIMIT = 150.0      # seconds after which no new iteration starts
RUN_LIMIT = 170.0       # seconds after which a running command is killed
MIN_SAMPLES = 5         # set-up and calibration samples per run, topped up
                        # after the timed loop
ERROR_FLOOR = 0.001     # error_rate of a run with no failure

# On a shared host, speed can drift by a third or more over minutes, and
# every timing of a run moves with it.  A calibration probe starts an
# interpreter that imports only NumPy and SciPy, so no change to beyondrwa
# moves it; timings are reported in reference seconds, scaled by
# REF_CAL_S / (median probe time of the run).
CAL_CODE = "import time, numpy, scipy.integrate; print(time.monotonic())"
REF_CAL_S = 0.6         # probe time on the host that defines a reference second

# stock (omega0, lam) of the presets the workloads use, gamma = 1
STOCK = {"A": (100.0, 10.0), "C": (3.0, 10.0), "RWA": (10.0, 10.0)}


def bath(seed: int, preset: str) -> tuple:
    """Stock values at seed 0; other seeds scale each by a factor in [0.98, 1.02]."""
    omega0, lam = STOCK[preset]
    if seed == 0:
        return omega0, lam
    rng = random.Random(f"{preset}:{seed}")
    return omega0 * rng.uniform(0.98, 1.02), lam * rng.uniform(0.98, 1.02)


@dataclass(frozen=True)
class Command:
    key: str              # names the command's output
    argv: tuple           # command line, without --out
    check: str            # gate function: (text, reference, shift) -> Verdict
    reference: tuple = () # gate function and arguments that build the reference
    csv_out: bool = True  # writes to --out; otherwise its stdout is the output


# Why each workload exists is recorded next to it in BENCHMARK.json.
def sweep_a(seed: int) -> list:
    w, lam = bath(seed, "A")
    return [Command("sweep", ("sweep", "--preset", "A", "--omega0", repr(w),
                              "--lambda", repr(lam)),
                    "check_sweep", ("sweep_reference", w, lam, "phi", 51))]


def sweep_c_wide(seed: int) -> list:
    w, lam = bath(seed, "C")
    return [Command("sweep", ("sweep", "--preset", "C", "--state", "psi",
                              "--beta2-steps", "501", "--omega0", repr(w),
                              "--lambda", repr(lam)),
                    "check_sweep", ("sweep_reference", w, lam, "psi", 501))]


def report_rwa_dense(seed: int) -> list:
    _, lam = bath(seed, "RWA")      # the rotating-wave amplitude ignores omega0
    return [Command(family, ("report", "--preset", "RWA", "--t-steps", "40001",
                             "--state", family, "--beta2", repr(beta2),
                             "--lambda", repr(lam)),
                    "check_report", ("report_reference", lam, family, beta2))
            for family, beta2 in (("phi", 0.5), ("psi", 0.25))]


def verify_all(seed: int) -> list:
    # unseeded: verify ignores --omega0, --lambda and --gamma
    return [Command("verify", ("verify",), "check_verify", csv_out=False)]


WORKLOADS = {"sweep_A": sweep_a, "sweep_C_wide": sweep_c_wide,
             "report_rwa_dense": report_rwa_dense, "verify_all": verify_all}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: str(NPROC) for v in BLAS_VARS})
    env.pop("PYTHONPATH", None)
    return env


def spawn(spec: dict, timeout: float) -> dict:
    """One command in a fresh worker: its costs, or a record of the failure."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(SRC), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout, env=worker_env())
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": None, "error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    res = json.loads(lines[-1])
    res["setup_s"] = res.pop("ready") - t_spawn
    return res


def calibrate() -> float:
    """Seconds from spawning the calibration probe until its imports are done."""
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", CAL_CODE], capture_output=True,
                          text=True, timeout=60, env=worker_env(), check=True)
    return float(proc.stdout) - t_spawn


def run_iteration(commands: list, workdir: Path, index: int, traced: bool,
                  kill_at: float) -> list:
    results = []
    for cmd in commands:
        stem = workdir / f"{cmd.key}-{index}"
        out = f"{stem}.out" if cmd.csv_out else f"{stem}.stdout"
        spec = {"argv": list(cmd.argv) + (["--out", out] if cmd.csv_out else []),
                "stdout": f"{stem}.stdout", "stderr": f"{stem}.stderr",
                "csv": out if cmd.csv_out else None,
                "spans": f"{stem}.spans.npz" if traced else None}
        res = spawn(spec, max(1.0, kill_at - time.monotonic()))
        res.update(cmd=cmd, traced=traced, output=out)
        results.append(res)
    return results


def timed_loop(commands: list, workdir: Path, seconds: float, trace: bool,
               start: float) -> tuple:
    """Iterations, each after a calibration probe, while the next one, as long
    as the last, ends within `seconds`; with tracing, alternate untraced and
    traced iterations until there are at least one and two of them.  Returns
    the iterations and the probe times."""
    iterations, cals = [], []
    n_traced = 0
    while True:
        traced = trace and len(iterations) - n_traced > n_traced
        t0 = time.monotonic()
        cals.append(calibrate())
        iterations.append(run_iteration(commands, workdir, len(iterations), traced,
                                        start + RUN_LIMIT))
        n_traced += traced
        if any(r["rc"] is None for r in iterations[-1]):
            return iterations, cals
        enough = not trace or (n_traced >= 2 and len(iterations) > n_traced)
        elapsed, last = time.monotonic() - start, time.monotonic() - t0
        if (enough and elapsed + last > seconds) or elapsed >= LOOP_LIMIT:
            return iterations, cals


def gate_runs(gate, runs: list) -> bool:
    """Mark each run `passed` and `control_rejected` (None without output);
    True when every command gave byte-identical output on every run."""
    verdicts, digests, refs = {}, {}, {}
    for r in runs:
        cmd = r["cmd"]
        r["passed"], r["control_rejected"] = False, None
        if r["rc"] != 0 or r.get("error") or not Path(r["output"]).is_file():
            continue
        text = Path(r["output"]).read_text(encoding="utf-8")
        digest = hashlib.sha256(text.encode()).hexdigest()
        digests.setdefault(cmd.key, set()).add(digest)
        if digest not in verdicts:
            if cmd.key not in refs:
                refs[cmd.key] = (getattr(gate, cmd.reference[0])(*cmd.reference[1:])
                                 if cmd.reference else None)
            check = getattr(gate, cmd.check)
            verdicts[digest] = (check(text, refs[cmd.key], 0.0),
                                check(text, refs[cmd.key], gate.NEGATIVE_SHIFT))
        real, control = verdicts[digest]
        r["passed"], r["control_rejected"] = real.ok, not control.ok
        r["gate"] = real.detail
    return all(len(d) == 1 for d in digests.values())


def per_iteration(iterations: list, field: str, combine=sum) -> list:
    return [combine(r[field] for r in it) for it in iterations
            if all(field in r for r in it)]


def layer_metrics(iterations: list, counts: tuple):
    """Per-layer metrics: counts from the first traced iteration, times as
    medians; None when a count differs between traced iterations."""
    layer_runs = []
    for it in iterations:
        if it[0]["traced"] and all("layers" in r for r in it):
            merged = {}
            for r in it:
                for m, v in r["layers"].items():
                    merged[m] = merged.get(m, 0) + v
            layer_runs.append(merged)
    if len(layer_runs) < 2 or any(lr[m] != layer_runs[0][m]
                                  for lr in layer_runs for m in counts):
        return None
    metrics = {m: (layer_runs[0][m] if m in counts
                   else statistics.median(lr[m] for lr in layer_runs))
               for m in layer_runs[0]}
    plain = per_iteration([it for it in iterations if not it[0]["traced"]], "run_s")
    traced = per_iteration([it for it in iterations if it[0]["traced"]], "run_s")
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def git_sha() -> str:
    """HEAD of the repository when run from a git checkout, else 'unknown'."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              env={**os.environ,    # no repository above ROOT
                                   "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "beyondrwa").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the beyondrwa command line.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "beyondrwa" / "cli.py").is_file():
        print(f"error: no beyondrwa sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: str(NPROC) for v in BLAS_VARS})   # caps the gate too
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    commands = WORKLOADS[args.workload](args.seed)
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    start = time.monotonic()
    iterations, cals = timed_loop(commands, workdir, args.seconds, bool(args.trace),
                                  start)
    runs = [r for it in iterations for r in it]
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    while not args.trace and (len(setups) < MIN_SAMPLES or len(cals) < MIN_SAMPLES):
        if time.monotonic() - start > LOOP_LIMIT:
            break
        # a bare start exits once beyondrwa.cli is imported
        probe = spawn({"argv": None}, 10.0)
        if "setup_s" in probe:
            setups.append(probe["setup_s"])
        cals.append(calibrate())
    scale = REF_CAL_S / statistics.median(cals)

    # correctness gate, outside the timed region
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import gate
    import tracer

    deterministic = gate_runs(gate, runs)
    failed = sum(1 for r in runs if not r["passed"])
    rejected = sum(1 for r in runs if r["control_rejected"])
    missed = sum(1 for r in runs if r["control_rejected"] is False)
    correct = failed == 0 and rejected == len(runs) and deterministic

    if args.trace:
        metrics = layer_metrics(iterations, tracer.COUNTS)
        correct = correct and metrics is not None
        wanted = spec["per_layer"]
    else:
        raw_s = {"setup_s": statistics.median(setups)}
        if all("run_s" in r for r in runs):
            raw_s.update(run_s=statistics.median(per_iteration(iterations, "run_s")),
                         cpu_s=statistics.median(per_iteration(iterations, "cpu_s")))
        metrics = {name: scale * value for name, value in raw_s.items()}
        # bad verdicts among one on each output and one on its perturbed
        # copy, over the floor that keeps a healthy run above 0
        metrics["error_rate"] = ERROR_FLOOR + (failed + missed) / (2 * len(runs))
        if all("peak_rss_mb" in r for r in runs):
            metrics["peak_rss_mb"] = statistics.median(
                per_iteration(iterations, "peak_rss_mb", max))
        wanted = spec["end_to_end"]
    metrics = metrics or {}
    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    correct = correct and not missing
    result = {"correct": correct, "attempted": len(runs), "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted if m["name"] not in missing}}

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commands": [list(c.argv) for c in commands],
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": NPROC, "blas_threads": NPROC,
        "iterations": len(iterations), "setup_samples": len(setups),
        "cal_s": statistics.median(cals), "cal_samples": len(cals),
        "ref_cal_s": REF_CAL_S, "unscaled_s": None if args.trace else raw_s,
        "deterministic": deterministic, "controls_rejected": rejected,
        "missing_metrics": missing,
    }
    detail = [{k: r.get(k) for k in ("traced", "run_s", "cpu_s", "peak_rss_mb",
                                     "setup_s", "rc", "gate", "passed",
                                     "control_rejected", "error")} | {"key": r["cmd"].key}
              for r in runs]
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "runs": detail, "result": result},
                                 indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one beyondrwa command line in a fresh interpreter and report its cost.

    python3 perfbench/worker.py SRC SPEC_JSON

SRC is the directory holding the beyondrwa package.  SPEC_JSON holds `argv`
(the command line, or null to exit once set up), `stdout` and `stderr`
(files that receive the command's standard streams), `csv` (the --out file,
or null) and `spans` (where to write the trace, or null for no tracing).

Prints one JSON line: `ready` (CLOCK_MONOTONIC reading once beyondrwa.cli is
imported), `run_s` (wall time of cli.main), `cpu_s` (user plus system CPU of
that call), `peak_rss_mb`, `rc`, `error` and, when traced, `layers`.
"""

import sys
import time


def main(cli, ready: float) -> None:
    # imported only after the set-up timestamp, so set-up measures the
    # interpreter and beyondrwa alone
    import contextlib
    import json
    import os
    import resource
    import traceback

    spec = json.loads(sys.argv[2])
    if spec["argv"] is None:      # set-up probe
        print(json.dumps({"ready": ready}))
        return
    src = os.path.realpath(sys.argv[1])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"beyondrwa imported from {cli.__file__}, not {src}")

    tracer = None
    if spec["spans"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()   # rebinds cli.main and the functions below it

    error = None
    with open(spec["stdout"], "w", encoding="utf-8") as out, \
            open(spec["stderr"], "w", encoding="utf-8") as err:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(spec["argv"])
        except SystemExit as exc:          # argparse rejects its input this way
            rc = exc.code
        except Exception:                  # an uncaught exception fails the run
            rc = None
            error = traceback.format_exc()
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "ready": ready,
        "run_s": t1 - t0,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "rc": rc,
        "error": error,
    }
    if tracer is not None:
        csv_bytes = os.path.getsize(spec["csv"]) if spec["csv"] else 0
        result["layers"] = tracer.summary(csv_bytes)
        tracer.dump(spec["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from beyondrwa import cli
    main(cli, time.monotonic())

"""One workload process: runs passes of CLI commands through
renyiconv.cli.main, one after another in this single thread, and writes
what it measured to a JSON file.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds src (the directory renyiconv is imported from), workload,
seed, work (an empty directory to run in), trace, and either passes (a
fixed count) or seconds (keep starting passes while the next one is
expected to end inside this budget; there is always at least one).
Each pass runs in a fresh directory, its outputs are digested and
checked after the pass's timed region, and the directory is removed.

For a workload with a calibration kernel, a timer runs the kernel at a
fixed interval of wall time, and once more on each side of every pass; a
pass's wall time, less the kernel runs inside it, is scaled by the median
kernel time around it (calibrate.py).
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import sys
import traceback
from time import perf_counter

from calibrate import Calibration


def _run(main, argv: list[str]):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse exits on bad flags
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a command that crashes is a failed command, not a failed benchmark
        traceback.print_exc()
        return "exception"


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import numpy
    import renyiconv
    import renyiconv.cli as cli
    import workloads

    if not os.path.abspath(renyiconv.__file__).startswith(src + os.sep):
        print(f"renyiconv imported from {renyiconv.__file__}, not from {src}", file=sys.stderr)
        return 2

    ref = workloads.load_reference()
    cmds = workloads.build_pass(spec["workload"], spec["seed"])
    run_cli, tracer = cli.main, None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        left = tracer.unpatched()
        if left:
            print(f"tracing not installed on: {left}", file=sys.stderr)
            return 2
        run_cli = tracer.wrap("cli", cli.main)

    kernel = workloads.CALIBRATION[spec["workload"]]
    cal = Calibration(kernel) if kernel else None
    kernel_runs: list[float] = []

    def calibrate_now(*_) -> None:
        if cal:
            d = cal.run()
            kernel_runs.append(d)
            if tracer:
                tracer.exclude(d)

    if cal:
        signal.signal(signal.SIGALRM, calibrate_now)
        signal.setitimer(signal.ITIMER_REAL, cal.interval_s, cal.interval_s)

    work = os.path.abspath(spec["work"])
    pass_dir = os.path.join(work, "pass")
    passes = []
    t_start = perf_counter()
    while True:
        os.makedirs(pass_dir)
        os.chdir(pass_dir)
        rcs, secs = [], []
        calibrate_now()
        first = len(kernel_runs)
        t0 = perf_counter()
        for c in cmds:
            c0 = perf_counter()
            rcs.append(_run(run_cli, c["argv"]))
            secs.append(perf_counter() - c0)
        wall = perf_counter() - t0
        calibrate_now()
        wall_s = wall
        if cal:  # less the kernel runs inside the pass, scaled by all around it
            wall_s = cal.scale(wall - sum(kernel_runs[first:-1]), kernel_runs[first - 1:])
        spans = tracer.take() if tracer else None

        results = []
        for c, rc, s in zip(cmds, rcs, secs):
            digests = workloads.file_digests(c["out"]) if os.path.isdir(c["out"]) else {}
            try:
                err = workloads.check(c, rc, c["out"], digests, ref)
            except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                err = f"unreadable output: {exc!r}"
            results.append({"kind": c["kind"], "seconds": s, "rc": rc, "error": err,
                            "sha256": {k: v["sha256"] for k, v in digests.items()},
                            "output_bytes": sum(v["bytes"] for v in digests.values())})
        os.chdir(work)
        shutil.rmtree(pass_dir)
        passes.append({"wall_raw_s": wall, "wall_s": wall_s, "commands": results, "spans": spans})

        if spec.get("passes") is not None:
            if len(passes) >= spec["passes"]:
                break
        elif perf_counter() - t_start + wall > spec["seconds"]:
            break

    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    result = {
        "passes": passes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

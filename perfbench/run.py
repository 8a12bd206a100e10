"""renyiconv benchmark: three CLI workloads, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload exact-lane --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ./src.  Load
model: closed loop, one client.  Each workload run is one fresh
single-threaded Python process (perfbench/worker.py) that issues the
seeded commands one after another through renyiconv.cli.main; numeric
library thread pools are pinned to one thread.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh
interpreters running `python -m renyiconv.cli --version`), wall_s (median
time of one pass), both in reference seconds (calibrate.py: the host's
speed drifts too much for raw times to hold a bound; the raw medians are
printed as setup_raw_s and wall_raw_s), and peak_rss_mb (ru_maxrss of the
workload process).  The per-command medians and fail_frac are printed on
the report lines above the result; fail_frac is also failed / attempted
in the result.

--trace 1 runs the same passes untraced and then traced, each in its own
process, and prints the per-layer metrics and trace_overhead_frac.  It
fails the run when traced and untraced outputs differ, when an exact
count changes between passes or against an earlier traced run of the
same seed and source, or when a function a workload must reach records
no calls.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calibrate import Calibration  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s, child processes included
SETUP_SAMPLES = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-command end-to-end metrics, by the command kinds they cover
COMMAND_METRICS = {
    "solve_s": ("solve-exact", "solve-grid"),
    "iterate_s": ("iterate-exact", "iterate-grid"),
    "compare_s": ("compare",),
    "counterexample_s": ("counterexample",),
    "el_residual_s": ("el-residual",),
}

# functions each workload must reach; zero calls fails the traced run
EXPECTED_CALLS = {
    "exact-lane": ("cli", "piecewise.convolve", "piecewise.eval", "piecewise.assert_nonnegative",
                   "grid.sample", "grid.convolve_grid", "solver.run_fixed_point", "solver.iterate_once"),
    "grid-sweep": ("cli", "piecewise.convolve", "piecewise.assert_nonnegative", "grid.convolve_grid",
                   "grid.power_real", "solver.run_fixed_point", "entropy.objective_I",
                   "entropy.scale_to_feasible"),
    "io-certify": ("cli", "piecewise.convolve", "piecewise.eval", "grid.convolve_grid", "grid.sample",
                   "grid.power_real", "grid.read_csv", "solver.iterate_once", "entropy.objective_I",
                   "entropy.scale_to_feasible", "euler_lagrange.counterexample_check",
                   "euler_lagrange.estimate_x6_grid", "euler_lagrange.el_residual"),
}

# per-layer metrics and units.  NAME.calls and NAME.self_s come from the
# spans named NAME; fill_ratio and trace_overhead_frac are derived in
# layer_metrics(); cli.output_bytes sums the bytes the commands wrote; the
# rest are counters spans.py keeps under the same name.
LAYER_METRICS = {
    "piecewise.convolve.calls": "count",
    "piecewise.convolve.self_s": "s",
    "piecewise.convolve.max_out_degree": "count",
    "piecewise.convolve.max_coeff_bits": "bits",
    "piecewise.eval.calls": "count",
    "piecewise.eval.self_s": "s",
    "piecewise.assert_nonnegative.calls": "count",
    "piecewise.assert_nonnegative.self_s": "s",
    "grid.convolve_grid.calls": "count",
    "grid.convolve_grid.self_s": "s",
    "grid.convolve_grid.fft_points": "count",
    "grid.convolve_grid.fill_ratio": "ratio",
    "grid.convolve_grid.bytes_computed": "bytes",
    "grid.sample.calls": "count",
    "grid.sample.points": "count",
    "grid.sample.self_s": "s",
    "grid.power_real.self_s": "s",
    "grid.read_csv.calls": "count",
    "grid.read_csv.bytes": "bytes",
    "grid.read_csv.self_s": "s",
    "solver.run_fixed_point.calls": "count",
    "solver.run_fixed_point.self_s": "s",
    "solver.iterations": "count",
    "solver.iterate_once.calls": "count",
    "solver.iterate_once.self_s": "s",
    "entropy.objective_I.calls": "count",
    "entropy.objective_I.self_s": "s",
    "entropy.scale_to_feasible.calls": "count",
    "entropy.scale_to_feasible.self_s": "s",
    "euler_lagrange.counterexample_check.self_s": "s",
    "euler_lagrange.estimate_x6_grid.self_s": "s",
    "euler_lagrange.el_residual.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace_overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("RENYI_SEED", None)
    env["PYTHONPATH"] = src
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment(worker: dict) -> dict:
    caches = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(idx, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(idx, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {
        "python": worker["python"],
        "numpy": worker["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cache_per_cpu0": caches,
        "child_thread_env": {v: "1" for v in THREAD_VARS},
        "bytes_computed": "computed from argument sizes, not measured: the shared L3 is large enough "
                          "to hold every buffer, so a real bandwidth test is impossible here",
    }


class Runner:
    def __init__(self, args):
        self.args = args
        self.src = os.path.join(os.getcwd(), "src")
        if not os.path.isfile(os.path.join(self.src, "renyiconv", "cli.py")):
            raise BenchError(f"no program source at {self.src}; run from the repository root")
        self.env = child_env(self.src)
        self.work = os.path.join(HERE, "_work", args.workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def setup_samples(self, n: int) -> list[tuple[float, float]]:
        """(raw, reference) seconds of n interpreter starts.  Each start is
        bracketed by calibration kernel runs on the same CPU: this process
        pins itself, and the interpreter inherits the pin."""
        argv = [sys.executable, "-m", "renyiconv.cli", "--version"]
        cal = Calibration(workloads.SETUP_CALIBRATION)
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        samples = []
        try:
            for _ in range(n):
                before = cal.run()
                t = perf_counter()
                subprocess.run(argv, env=self.env, stdout=subprocess.DEVNULL, check=True)
                raw = perf_counter() - t
                samples.append((raw, cal.scale(raw, [before, cal.run()])))
        finally:
            os.sched_setaffinity(0, cpus)
        return samples

    def worker(self, name: str, trace: bool, passes: int | None) -> dict:
        spec = {"src": self.src, "workload": self.args.workload, "seed": self.args.seed,
                "seconds": self.args.seconds, "passes": passes, "trace": trace,
                "work": os.path.join(self.work, name)}
        os.makedirs(spec["work"])
        spec_path, result_path, log_path = (os.path.join(self.work, f"{name}.{ext}")
                                            for ext in ("spec.json", "result.json", "log"))
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        with open(log_path, "w") as log:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                                  env=self.env, stdout=log, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"{name} worker exited {proc.returncode}:\n{tail}")
        with open(result_path) as fh:
            return json.load(fh)


def commands(result: dict):
    for p in result["passes"]:
        yield from p["commands"]


def failures(result: dict) -> list[str]:
    return [f"{c['kind']}: {c['error']}" for c in commands(result) if c["error"]]


def command_report(result: dict) -> list[str]:
    lines = []
    for metric, kinds in COMMAND_METRICS.items():
        xs = sorted(c["seconds"] for c in commands(result) if c["kind"] in kinds)
        if not xs:
            continue
        line = f"{metric:<18} {statistics.median(xs):.6f} s  median of {len(xs)}"
        if len(xs) >= 20:  # the highest percentile with at least ten samples beyond it
            q = int(100 * (1 - 10 / len(xs)))
            line += f", p{q} {xs[min(len(xs) - 1, (q * len(xs)) // 100)]:.6f} s"
        lines.append(line)
    return lines


def exact_counts(pass_: dict) -> dict:
    sp = pass_["spans"]
    counts = {f"{k}.calls": v for k, v in sp["calls"].items()}
    counts.update(sp["counters"])
    counts["cli.output_bytes"] = sum(c["output_bytes"] for c in pass_["commands"])
    return dict(sorted(counts.items()))


def layer_metrics(traced: dict, untraced: dict) -> dict:
    passes = traced["passes"]
    counts = exact_counts(passes[0])
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name == "grid.convolve_grid.fill_ratio":  # useful share of the padded transforms
            pts = counts.get("grid.convolve_grid.fft_points", 0)
            value = counts.get("grid.convolve_grid.fft_out_points", 0) / pts if pts else 0.0
        elif name == "trace_overhead_frac":
            value = (statistics.median(p["wall_s"] for p in passes)
                     / statistics.median(p["wall_s"] for p in untraced["passes"]) - 1.0)
        elif name.endswith(".self_s"):
            value = statistics.median(p["spans"]["self_s"].get(name[:-7], 0.0) for p in passes)
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "renyiconv", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def trace_problems(runner: Runner, traced: dict, untraced: dict) -> list[str]:
    problems = []
    # same seed, same outputs: every pass of both processes against the first untraced pass
    want = [c["sha256"] for c in untraced["passes"][0]["commands"]]
    for label, result in (("untraced", untraced), ("traced", traced)):
        for i, p in enumerate(result["passes"]):
            for c, w in zip(p["commands"], want):
                if c["sha256"] != w:
                    c["error"] = c["error"] or f"{label} pass {i} outputs differ from untraced pass 0"
    # exact counts repeat: across passes, and across runs of the same seed and source
    counts = exact_counts(traced["passes"][0])
    for i, p in enumerate(traced["passes"][1:], 1):
        if exact_counts(p) != counts:
            problems.append(f"exact counts of traced pass {i} differ from pass 0")
    args = runner.args
    store = os.path.join(HERE, "_work", "counts",
                         f"{args.workload}-{args.seed}-{source_digest(runner.src)}.json")
    if os.path.exists(store):
        with open(store) as fh:
            before = json.load(fh)
        if before != counts:
            diff = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
            problems.append(f"exact counts differ from an earlier traced run: {diff}")
    os.makedirs(os.path.dirname(store), exist_ok=True)
    with open(store, "w") as fh:
        json.dump(counts, fh, indent=1)
    calls = traced["passes"][0]["spans"]["calls"]
    for name in EXPECTED_CALLS[args.workload]:
        if not calls.get(name):
            problems.append(f"{name} recorded no calls")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # subprocess.run kills and reaps its child when this interrupts the
    # wait; a timeout= argument would instead poll in 50 ms steps, which
    # shows up in setup_s
    def out_of_time(signum, frame):
        raise BenchError(f"run did not finish within {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(DEADLINE_S)
    try:
        runner = Runner(args)
        if args.trace:
            untraced = runner.worker("untraced", False, None)
            traced = runner.worker("traced", True, len(untraced["passes"]))
            problems = trace_problems(runner, traced, untraced)
            raw = {}
            results = (untraced, traced)
            metrics = layer_metrics(traced, untraced)
        else:
            # the first interpreter compiles bytecode and is dropped; the
            # rest are split around the workload because the host's speed
            # drifts over tens of seconds
            setup = runner.setup_samples(1 + SETUP_SAMPLES // 2)[1:]
            untraced = runner.worker("untraced", False, None)
            setup += runner.setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
            problems = []
            results = (untraced,)
            raw = {"setup_raw_s": statistics.median(r for r, _ in setup),
                   "wall_raw_s": statistics.median(p["wall_raw_s"] for p in untraced["passes"])}
            metrics = {
                "setup_s": {"value": statistics.median(ref for _, ref in setup), "unit": "s"},
                "wall_s": {"value": statistics.median(p["wall_s"] for p in untraced["passes"]), "unit": "s"},
                "peak_rss_mb": {"value": untraced["maxrss_kb"] / 1024.0, "unit": "MB"},
            }
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    attempted = sum(len(list(commands(r))) for r in results)
    failed_list = [f for r in results for f in failures(r)]
    for msg in (failed_list + problems)[:20]:
        print(f"FAIL {msg}", file=sys.stderr)

    print(f"environment {json.dumps(environment(untraced), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced['passes'])} pass(es) of {len(untraced['passes'][0]['commands'])} commands")
    for line in command_report(untraced):
        print(line)
    print(f"{'fail_frac':<18} {len(failed_list) / attempted:.6f}  ({len(failed_list)} of {attempted} commands)")
    for name, value in raw.items():
        print(f"{name:<18} {value} s (not scaled)")
    for name, m in metrics.items():
        print(f"{name:<18} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failed_list and not problems, "attempted": attempted,
                      "failed": len(failed_list), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

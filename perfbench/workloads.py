"""Workload definitions and output checks for the renyiconv benchmark.

A workload is a list of CLI argument vectors (one "pass") built from a
seed.  The program sees only these arguments.  Every command writes into
its own relative --out directory, so a pass run in an empty directory
produces the same bytes wherever it runs.

Checks read outputs with json and csv only, never through renyiconv, so
that a traced run counts only the work the commands themselves did.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

WORKLOADS = ("exact-lane", "grid-sweep", "io-certify")
# calibrate.py kernel per workload, of the kind of work the workload does;
# None reports raw seconds (see calibrate.py for why grid-sweep has none)
CALIBRATION = {"exact-lane": "python", "grid-sweep": None, "io-certify": "mixed"}
# interpreter start is Python work
SETUP_CALIBRATION = "python"

# grid-sweep: (n, p) cases of the general update and the grid spacings.
# dx = 1e-4 keeps the FFT buffers inside a 2 MiB L2; dx = 1e-5 needs
# 2^20-point transforms that do not fit.
GRID_CASES = ((2, 2.0), (3, 2.0), (2, 3.0), (3, 1.5))
GRID_DX = (1e-4, 2e-5, 1e-5)
# compare --M values per (n, p).  Each set lies within a few percent of
# the M the solution induces itself, and every value in a set gives the
# same power-of-two FFT sizes for the generalized Gaussian at each dx, so
# the seed changes the numbers checked but not the work done.
COMPARE_M = {
    (2, 2.0): (0.60, 0.62, 0.64),
    (3, 2.0): (0.60, 0.62, 0.64),
    (2, 3.0): (0.30, 0.32, 0.34),
    (3, 1.5): (0.81, 0.83, 0.85),
}

IO_STEPS = 50
IO_DX = 1e-4
# el-residual rescales its input into the feasible set first, so any M
# gives a comparable amount of work and the converged iterate still
# satisfies the stationarity equation.
IO_M_RANGE = (0.4, 0.8)
# converged f50 measured 6e-8 .. 2.5e-7 for M in 0.3 .. 1.2 at the seed
EL_RESIDUAL_CONVERGED_MAX = 1e-6

# exact-lane outputs pinned by sha256.  manifest.json and history.json
# are bookkeeping that the planned trace work extends, so they are not
# pinned; every file carrying an exact result is.
EXACT_PINNED = {
    "solve-exact": ("solution.json", "solution.csv"),
    "iterate-exact": tuple(f"f{j}.{ext}" for j in range(5) for ext in ("json", "csv")) + ("steps.json",),
}

GRID_RTOL = 1e-9
IO_SAMPLE_STRIDE = 100  # f50.csv rows compared against the reference


def fmt(x: float) -> str:
    return repr(float(x))


def solve_grid_key(n: int, p: float, dx: float) -> str:
    return f"n={n},p={fmt(p)},dx={fmt(dx)}"


def compare_key(n: int, p: float, dx: float, M: float) -> str:
    return f"{solve_grid_key(n, p, dx)},M={fmt(M)}"


def _cmd(kind: str, argv: list[str], **params) -> dict:
    return {"kind": kind, "argv": argv, "params": params}


def build_pass(workload: str, seed: int) -> list[dict]:
    """The commands of one pass, in order.  Command i writes into the
    directory named by its "out" key, f"{i:03d}-{kind}"."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-lane":
        # the seed only sets the order
        cmds = [
            _cmd("solve-exact", ["solve", "--mode", "exact"]),
            _cmd("iterate-exact", ["iterate", "--mode", "exact", "--steps", "4"]),
        ]
        rng.shuffle(cmds)
    elif workload == "grid-sweep":
        # every (n, p, dx) once; at each dx the seed picks which two cases
        # solve and which two compare (a compare also solves, so this keeps
        # the work of a pass nearly independent of the seed)
        cmds = []
        for dx in GRID_DX:
            kinds = ["solve-grid", "solve-grid", "compare", "compare"]
            rng.shuffle(kinds)
            for (n, p), kind in zip(GRID_CASES, kinds):
                common = ["--n", str(n), "--p", fmt(p), "--dx", fmt(dx)]
                if kind == "solve-grid":
                    cmds.append(_cmd(kind, ["solve", "--mode", "grid"] + common, n=n, p=p, dx=dx))
                else:
                    M = rng.choice(COMPARE_M[(n, p)])
                    cmds.append(_cmd(kind, ["compare", "--M", fmt(M)] + common, n=n, p=p, dx=dx, M=M))
        rng.shuffle(cmds)
    elif workload == "io-certify":
        cmds = [_cmd("iterate-grid", ["iterate", "--mode", "grid", "--steps", str(IO_STEPS), "--dx", fmt(IO_DX)])]
        steps = list(range(IO_STEPS + 1))
        rng.shuffle(steps)
        for j in steps:
            M = round(rng.uniform(*IO_M_RANGE), 4)
            cmds.append(_cmd("el-residual", ["el-residual", "--input", f"000-iterate-grid/f{j}.csv", "--M", fmt(M)],
                             step=j, M=M))
        cmds.append(_cmd("counterexample", ["counterexample", "--grid-check"]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, c in enumerate(cmds):
        c["out"] = f"{i:03d}-{c['kind']}"
        c["argv"] = c["argv"] + ["--out", c["out"]]
    return cmds


# ----------------------------------------------------------------------
# checks


def file_digests(out_dir: str) -> dict:
    """sha256 and size of every file a command wrote."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digests[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return digests


def _load(out_dir: str, name: str):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _close(got, want, rtol: float = GRID_RTOL) -> bool:
    return math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=0.0)


def csv_values(path: str) -> list[float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [float(r[1]) for r in rows[1:] if r]


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def check(cmd: dict, rc: int, out_dir: str, digests: dict, ref: dict) -> str | None:
    """None if the command's exit code and outputs are right, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    if "manifest.json" not in digests:
        return "no manifest.json"
    kind, prm = cmd["kind"], cmd["params"]
    if kind in EXACT_PINNED:
        want = ref["exact_sha256"][kind]
        for name in EXACT_PINNED[kind]:
            got = digests.get(name, {}).get("sha256")
            if got != want[name]:
                return f"{name}: sha256 {got} != seed {want[name]}"
        return None
    if kind == "solve-grid":
        doc, want = _load(out_dir, "solution.json"), ref["solve_grid"][solve_grid_key(prm["n"], prm["p"], prm["dx"])]
        if doc["converged"] is not True or doc["iterations"] != want["iterations"]:
            return f"iterations {doc['iterations']} != seed {want['iterations']} or not converged"
        for k in ("a", "b"):
            if not _close(doc[k], want[k]):
                return f"{k} = {doc[k]} != seed {want[k]}"
        # el_residual_sup is not pinned: for general-update runs it is the
        # wrong residual today and is expected to change when fixed
        return None
    if kind == "compare":
        doc = _load(out_dir, "compare.json")
        want = ref["compare_margin"][compare_key(prm["n"], prm["p"], prm["dx"], prm["M"])]
        if doc["ordering_ok"] is not True or not _close(doc["margin"], want):
            return f"margin {doc['margin']} != seed {want} or ordering lost"
        return None
    if kind == "iterate-grid":
        steps, want = _load(out_dir, "steps.json"), ref["iterate_grid"]
        if len(steps) != IO_STEPS or any(f"f{j}.csv" not in digests for j in range(IO_STEPS + 1)):
            return "missing iterates"
        for rec, w in zip(steps, want["sup_step_first"]):
            if not _close(rec["sup_step"], w):
                return f"step {rec['step']} sup_step {rec['sup_step']} != seed {w}"
        got = csv_values(os.path.join(out_dir, f"f{IO_STEPS}.csv"))[::IO_SAMPLE_STRIDE]
        if len(got) != len(want["f_last_sampled"]) or not all(
                math.isclose(g, w, rel_tol=GRID_RTOL, abs_tol=1e-15) for g, w in zip(got, want["f_last_sampled"])):
            return f"f{IO_STEPS}.csv differs from the seed samples"
        return None
    if kind == "el-residual":
        doc = _load(out_dir, "el_residual.json")
        vals = [float(doc[k]) for k in ("sup_residual", "l2_residual", "fitted_scale")]
        if not all(math.isfinite(v) for v in vals) or vals[2] <= 0:
            return f"non-finite report {doc}"
        if prm["step"] == IO_STEPS and vals[0] > EL_RESIDUAL_CONVERGED_MAX:
            return f"converged iterate residual {vals[0]} > {EL_RESIDUAL_CONVERGED_MAX}"
        return None
    if kind == "counterexample":
        doc, want = _load(out_dir, "counterexample.json"), ref["counterexample"]
        for k, v in want["exact"].items():
            if doc[k] != v:
                return f"{k} = {doc[k]!r} != seed {v!r}"
        if not _close(doc["x6_grid_estimate"], want["x6_grid_estimate"]):
            return f"x6_grid_estimate {doc['x6_grid_estimate']} != seed {want['x6_grid_estimate']}"
        return None
    raise ValueError(f"unknown command kind {kind!r}")

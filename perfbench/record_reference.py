"""Record the seed values the benchmark checks outputs against.

    python3 perfbench/record_reference.py     # from the repository root

Runs every distinct command the workloads can issue once, through
renyiconv.cli.main, and writes perfbench/reference.json: sha256 digests
of the exact-lane result files, iterations/a/b of every grid solve, the
compare margin for every (n, p, dx, M) a seed can draw, and the grid
iterate and counterexample values io-certify checks.  It takes a few
minutes, most of it the exact solve.  Rerun it only for a change that is
meant to alter these outputs, and say so where the change is described.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import renyiconv.cli as cli
    import workloads as w

    work = os.path.join(HERE, "_work", "reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)

    def run(argv: list[str]) -> str:
        out = f"out{len(os.listdir('.'))}"
        rc = cli.main(argv + ["--out", out])
        if rc != 0:
            raise SystemExit(f"{argv} exited {rc}")
        return out

    def doc(out: str, name: str):
        with open(os.path.join(out, name)) as fh:
            return json.load(fh)

    ref: dict = {"exact_sha256": {}, "solve_grid": {}, "compare_margin": {}}
    for kind, argv in (("solve-exact", ["solve", "--mode", "exact"]),
                       ("iterate-exact", ["iterate", "--mode", "exact", "--steps", "4"])):
        out = run(argv)
        digests = w.file_digests(out)
        ref["exact_sha256"][kind] = {name: digests[name]["sha256"] for name in w.EXACT_PINNED[kind]}
        print(kind, "done", flush=True)

    for n, p in w.GRID_CASES:
        for dx in w.GRID_DX:
            common = ["--n", str(n), "--p", w.fmt(p), "--dx", w.fmt(dx)]
            sol = doc(run(["solve", "--mode", "grid"] + common), "solution.json")
            ref["solve_grid"][w.solve_grid_key(n, p, dx)] = {k: sol[k] for k in ("iterations", "a", "b")}
            for M in w.COMPARE_M[(n, p)]:
                cmp_doc = doc(run(["compare", "--M", w.fmt(M)] + common), "compare.json")
                ref["compare_margin"][w.compare_key(n, p, dx, M)] = cmp_doc["margin"]
            print("grid", n, p, dx, "done", flush=True)

    out = run(["iterate", "--mode", "grid", "--steps", str(w.IO_STEPS), "--dx", w.fmt(w.IO_DX)])
    ref["iterate_grid"] = {
        "sup_step_first": [r["sup_step"] for r in doc(out, "steps.json")[:5]],
        "f_last_sampled": w.csv_values(os.path.join(out, f"f{w.IO_STEPS}.csv"))[::w.IO_SAMPLE_STRIDE],
    }
    cx = doc(run(["counterexample", "--grid-check"]), "counterexample.json")
    ref["counterexample"] = {
        "exact": {k: v for k, v in cx.items() if not k.startswith("x6_grid")},
        "x6_grid_estimate": cx["x6_grid_estimate"],
    }

    os.chdir(HERE)
    shutil.rmtree(work)
    with open(w.REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", w.REFERENCE_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands wrap the library: `iterate` runs the fixed-point update for a
fixed number of steps and emits per-iterate data, `solve` runs it to
convergence, `el-residual` scores a CSV density against the stationarity
equation, `counterexample` emits the exact non-extremality certificate for
the quadratic bump, `gengauss` prints the normalized power density, and
`compare` pits the converged fixed point against the generalized Gaussian
on the same constraint set.

Every command writes into --out through one _OutDir, which records each
file it writes; when the command returns, main() adds a manifest.json that
lists exactly those files (none if the command wrote nothing).  Output is
data only (JSON and CSV); manifests carry no timestamps so identical
configurations reproduce identical bytes.  All writes go through a
temp-file-and-rename so readers never observe partial files.

Commands and the library hand over plain values; _fmt alone decides how a
number is spelled in a result file (a Fraction as "num/den", a float to 17
significant digits), and the CSV rows spell floats the same way.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from . import grid as _grid
from .entropy import (
    ConstraintSet,
    exact_gengauss_p2_for_lp_mass,
    gengauss,
    gengauss_for_lp_mass,
    objective_I,
    renyi_entropy,
    scale_to_feasible,
)
from .euler_lagrange import counterexample_check, el_residual, estimate_x6_grid
from .grid import GridFunction
from .piecewise import PiecewisePoly, format_rational
from .solver import FixedPointSolution, SolverConfig, initial_iterate, iterations, run_fixed_point

PLOT_XS = _grid.unit_nodes(1.0 / _grid.PLOT_DEN)  # the plot CSVs' x column
# floor on grid nodes per half-width of the generalized Gaussian in compare
GENGAUSS_HALF_NODES = 1000


def _atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@functools.cache
def _plot_csv_template() -> str:
    """The plot CSV over PLOT_XS, x spelled out and a %.17g slot for each
    value: the abscissa is formatted once per process."""
    return "".join([f"{_grid.CSV_HEADER}\n", *("%.17g,%%.17g\n" % x for x in PLOT_XS.tolist())])


def _write_plot_csv(path: str, xs: np.ndarray, vals: np.ndarray) -> None:
    # Python floats format to the same text as numpy scalars, and faster
    vs = np.asarray(vals).tolist()
    if xs is PLOT_XS:
        text = _plot_csv_template() % tuple(vs)
    else:
        text = "".join([f"{_grid.CSV_HEADER}\n", *map("%.17g,%.17g\n".__mod__, zip(np.asarray(xs).tolist(), vs))])
    _atomic_write_text(path, text)


def _fmt(obj):
    """The one output number rule: a Fraction becomes the string "num/den",
    a float the string of its 17 significant digits; bool, int, str and
    None pass through, and dicts, lists and tuples are formatted element by
    element (a tuple becomes a list)."""
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, dict):
        return {k: _fmt(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fmt(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _OutDir:
    """The --out directory, created once; records every result file written."""

    def __init__(self, path: str):
        os.makedirs(path, exist_ok=True)
        self.path = path
        self.written: set[str] = set()

    def json(self, name: str, obj) -> None:
        _atomic_write_text(os.path.join(self.path, name), _json_text(_fmt(obj)))
        self.written.add(name)

    def csv(self, name: str, xs: np.ndarray, vals: np.ndarray) -> None:
        _write_plot_csv(os.path.join(self.path, name), xs, vals)
        self.written.add(name)


def _sample_exact_on_unit(f: PiecewisePoly) -> GridFunction:
    """f at the rational plot nodes k/1000, k = -1000..1000, each the
    correctly rounded float of the exact value."""
    return GridFunction(-1.0, 1.0 / _grid.PLOT_DEN, f.sample_lattice(_grid.PLOT_NODES, _grid.PLOT_DEN))


def _sample_grid_on_unit(g: GridFunction) -> np.ndarray:
    return np.interp(PLOT_XS, g.nodes, g.values, left=0.0, right=0.0)


def _exact_iterate_json(j: int, f: PiecewisePoly) -> dict:
    doc: dict = {"step": j, "pieces": {"breakpoints": f.breakpoints, "pieces": [p.coeffs for p in f.pieces]}}
    if len(f.pieces) == 1:
        doc["support"] = f.support
        doc["coefficients"] = f.pieces[0].coeffs
    return doc


def _no_convergence(sol: FixedPointSolution) -> int:
    """Report a grid solve that spent its budget above tolerance: exit 3."""
    print(f"error: no convergence after {sol.iterations} iterations "
          f"(last step {sol.final_step_sup:.3e})", file=sys.stderr)
    return 3


def cmd_iterate(args: argparse.Namespace, out: _OutDir) -> int:
    if args.steps < 0:
        raise ValueError("--steps must be nonnegative")
    exact = args.mode == "exact"
    # --steps k builds C_3 of f0 .. f(k-1), as solve --max-iter k-1 does
    f = initial_iterate(SolverConfig(mode="exact", max_iter=max(args.steps - 1, 0)) if exact
                        else SolverConfig(mode="grid", dx=args.dx))
    # exact iterates are compared and plotted at the rational plot nodes;
    # grid iterates are compared node by node and interpolated for the plot
    sample = _sample_exact_on_unit if exact else (lambda g: g)
    fs = sample(f)
    step_log: list[dict] = []

    def write_iterate(j: int, f, fs: GridFunction) -> None:
        if exact:
            out.json(f"f{j}.json", _exact_iterate_json(j, f))
        out.csv(f"f{j}.csv", PLOT_XS, fs.values if exact else _sample_grid_on_unit(f))

    write_iterate(0, f, fs)
    for record, f, fs in iterations(f, fs, sample, args.steps):
        step_log.append({"step": record.iteration, "sup_step": record.sup_step})
        write_iterate(record.iteration, f, fs)

    out.json("steps.json", step_log)
    return 0


def cmd_solve(args: argparse.Namespace, out: _OutDir) -> int:
    config = SolverConfig(
        mode=args.mode,
        n=args.n,
        p=args.p,
        max_iter=args.max_iter,
        tol=args.tol,
        dx=args.dx,
    )
    sol = run_fixed_point(config)
    doc = {
        "mode": args.mode,
        "a": sol.a,
        "b": sol.b,
        "iterations": sol.iterations,
        "final_step_sup": sol.final_step_sup,
        "el_residual_sup": sol.el_residual_sup,
        "clip_was_active": sol.clip_was_active,
        "converged": sol.converged,
    }
    out.json("solution.json", doc)
    if args.mode == "exact":
        vals = _sample_exact_on_unit(sol.f).values
    else:
        vals = _sample_grid_on_unit(sol.f)
    out.csv("solution.csv", PLOT_XS, vals)
    out.json("history.json", [{"step": r.iteration, "sup_step": r.sup_step} for r in sol.history])
    return 0 if sol.converged else _no_convergence(sol)


def cmd_el_residual(args: argparse.Namespace, out: _OutDir) -> int:
    try:
        q = _grid.read_csv(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    rep = el_residual(q, args.n, args.p, args.M)
    out.json("el_residual.json", rep._asdict())
    return 0


def cmd_counterexample(args: argparse.Namespace, out: _OutDir) -> int:
    rep = counterexample_check()
    doc = rep._asdict()
    if args.grid_check:
        est = estimate_x6_grid(dx=args.dx)
        doc["x6_grid_estimate"] = est
        doc["x6_grid_rel_error"] = abs(est - float(rep.x6_coefficient)) / abs(float(rep.x6_coefficient))
    out.json("counterexample.json", doc)
    return 0


def cmd_gengauss(args: argparse.Namespace, out: _OutDir) -> int:
    if args.M is not None:
        gg = gengauss_for_lp_mass(args.M, args.p)
    else:
        gg = gengauss(args.beta, args.p)
    gq = gg.to_grid(args.dx)
    half = 1.0 / math.sqrt(gg.beta)
    doc = {
        "p": gg.p,
        "beta": gg.beta,
        "alpha": gg.alpha,
        "support": [-half, half],
        "lp_mass": gg.lp_mass(gg.p),
        "renyi_entropy": renyi_entropy(gg, gg.p),
    }
    out.json("gengauss.json", doc)
    out.csv("gengauss.csv", gq.nodes, gq.values)
    return 0


def cmd_compare(args: argparse.Namespace, out: _OutDir) -> int:
    n, p = args.n, args.p
    config = SolverConfig(mode="grid", n=n, p=p, dx=args.dx, tol=args.tol)
    sol = run_fixed_point(config)
    if not sol.converged:
        return _no_convergence(sol)

    q = sol.f
    if args.M is None:
        # constraint set induced by the solution's own norms (dilation 1)
        M = q.lp_mass(p) / q.mass ** p
    else:
        M = args.M
    constraints = ConstraintSet(M=M, p=p, n=n)
    q_feas, _, _ = scale_to_feasible(q, constraints)
    i_fp = float(objective_I(q_feas, n, p))

    if p == 2.0:
        gg_exact = exact_gengauss_p2_for_lp_mass(M)
        i_gg = float(objective_I(gg_exact[1], n, 2))
    else:
        gg = gengauss_for_lp_mass(M, p)
        # a narrow density (large M) must not fall on a handful of nodes
        dx = min(args.dx, gg.support[1] / GENGAUSS_HALF_NODES)
        i_gg = float(objective_I(gg.to_grid(dx), n, p))

    hp_fp = -math.log(i_fp) / (p - 1.0)
    hp_gg = -math.log(i_gg) / (p - 1.0)
    ordering_ok = i_fp > i_gg
    doc = {
        "M": M,
        "n": n,
        "p": p,
        "I_fixed_point": i_fp,
        "I_gengauss": i_gg,
        "margin": i_fp - i_gg,
        "hp_sum_fixed_point": hp_fp,
        "hp_sum_gengauss": hp_gg,
        "ordering_ok": ordering_ok,
    }
    out.json("compare.json", doc)
    if not ordering_ok:
        print("error: fixed point did not beat the generalized Gaussian", file=sys.stderr)
        return 4
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by every
    later main() in the process."""
    parser = argparse.ArgumentParser(
        prog="renyiconv",
        description="Fixed-point solver and certificates for the convolution entropy problem.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_it = sub.add_parser("iterate", help="run a fixed number of fixed-point steps")
    p_it.add_argument("--mode", choices=["exact", "grid"], default="exact")
    p_it.add_argument("--steps", type=int, default=3)
    p_it.add_argument("--dx", type=float, default=1e-3)
    p_it.add_argument("--out", default="renyiconv-out")
    p_it.set_defaults(func=cmd_iterate)

    p_sv = sub.add_parser("solve", help="run the fixed-point iteration to convergence")
    p_sv.add_argument("--mode", choices=["exact", "grid"], default="grid")
    p_sv.add_argument("--n", type=int, default=2)
    p_sv.add_argument("--p", type=float, default=2.0)
    p_sv.add_argument("--dx", type=float, default=1e-3)
    p_sv.add_argument("--tol", type=float, default=1e-10)
    p_sv.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    p_sv.add_argument("--out", default="renyiconv-out")
    p_sv.set_defaults(func=cmd_solve)

    p_el = sub.add_parser("el-residual", help="score a CSV density against the stationarity equation")
    p_el.add_argument("--input", required=True)
    p_el.add_argument("--n", type=int, default=2)
    p_el.add_argument("--p", type=float, default=2.0)
    p_el.add_argument("--M", type=float, required=True)
    p_el.add_argument("--out", default="renyiconv-out")
    p_el.set_defaults(func=cmd_el_residual)

    p_cx = sub.add_parser("counterexample", help="exact non-extremality certificate for the quadratic bump")
    p_cx.add_argument("--grid-check", action="store_true", dest="grid_check",
                      help="also estimate the x^6 coefficient numerically")
    p_cx.add_argument("--dx", type=float, default=1e-4)
    p_cx.add_argument("--out", default="renyiconv-out")
    p_cx.set_defaults(func=cmd_counterexample)

    p_gg = sub.add_parser("gengauss", help="normalized generalized Gaussian density")
    p_gg.add_argument("--p", type=float, default=2.0)
    p_gg.add_argument("--beta", type=float, default=1.0)
    p_gg.add_argument("--M", type=float, default=None)
    p_gg.add_argument("--dx", type=float, default=1e-3)
    p_gg.add_argument("--out", default="renyiconv-out")
    p_gg.set_defaults(func=cmd_gengauss)

    p_cp = sub.add_parser("compare", help="fixed point vs generalized Gaussian on one constraint set")
    p_cp.add_argument("--n", type=int, default=2)
    p_cp.add_argument("--p", type=float, default=2.0)
    p_cp.add_argument("--M", type=float, default=None)
    p_cp.add_argument("--dx", type=float, default=1e-3)
    p_cp.add_argument("--tol", type=float, default=1e-10)
    p_cp.add_argument("--out", default="renyiconv-out")
    p_cp.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if os.environ.get("RENYI_SEED") is not None:
        print("warning: RENYI_SEED is ignored; commands are deterministic", file=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        out = _OutDir(args.out)
    except OSError as exc:
        print(f"error: cannot use --out {args.out}: {exc}", file=sys.stderr)
        return 2
    try:
        code = args.func(args, out)
    except ValueError as exc:
        # invalid flag values and unusable input; the library's input
        # errors (ZeroMass, InfeasibleInput, ...) all subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if out.written:
        # the config echo keeps the flag values as parsed, not as _fmt spells them
        config = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
        _atomic_write_text(os.path.join(out.path, "manifest.json"), _json_text({
            "command": args.command,
            "config": config,
            "versions": {"renyiconv": __version__},
            "outputs": sorted(out.written),
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())

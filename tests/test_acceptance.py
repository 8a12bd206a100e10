"""Acceptance gate: the seven shipping criteria, one test each.

Each test prints a single PASS/FAIL line straight to the terminal
(bypassing capture) before asserting, so a full run always shows the
scoreboard.  Tolerances are pinned in-line; none are adjustable.

Criterion 1 pins f1, f2 and f3 of the exact lane, started from the
indicator of [-1, 1], as the coefficient strings `iterate --mode exact`
writes.  They are the iterates of the documented update

    f_new = ((K - K(1)) / (K(0) - K(1)))_+  on [-1, 1],  K = f * f * f,

with the triple self convolution of the current iterate.  They are
derived independently of `renyiconv.piecewise`, by explicit-limit sympy
integration, in
`test_crosschecks.py::TestIteratesAgainstSympy::test_reference_iterates`.
"""
import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from instruments import consistency_with_el, riesz_check, young_bound_check, young_exponent
from renyiconv import cli
from renyiconv.entropy import (
    ConstraintSet,
    exact_gengauss_p2,
    exact_gengauss_p2_for_lp_mass,
    gengauss,
    objective_I,
    renyi_entropy,
    scale_to_feasible,
)
from renyiconv.euler_lagrange import (
    counterexample_check,
    el_residual,
    estimate_x6_grid,
)
from renyiconv.grid import GridFunction
from renyiconv.piecewise import PiecewisePoly, Polynomial
from renyiconv.solver import SolverConfig, run_fixed_point

REFERENCE_F1 = ["1/1", "0/1", "-1/1"]
REFERENCE_F2 = [
    "1/1", "0/1", "-2100/1553", "0/1", "630/1553",
    "0/1", "-84/1553", "0/1", "1/1553",
]
REFERENCE_F3 = [
    "1/1", "0/1",
    "-9045057086104499275725/6435484921541215899841", "0/1",
    "3163476320417567155950/6435484921541215899841", "0/1",
    "-615850374257629981470/6435484921541215899841", "0/1",
    "66096212243007621675/6435484921541215899841", "0/1",
    "-4292915426268215175/6435484921541215899841", "0/1",
    "146158752302234100/6435484921541215899841", "0/1",
    "-3273368060862900/6435484921541215899841", "0/1",
    "36453550245255/6435484921541215899841", "0/1",
    "-252352718475/6435484921541215899841", "0/1",
    "1170719550/6435484921541215899841", "0/1",
    "-2825550/6435484921541215899841", "0/1",
    "2925/6435484921541215899841", "0/1",
    "-1/6435484921541215899841",
]


def report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}: criterion {num} - {detail}")


@pytest.fixture(scope="module")
def converged():
    t0 = time.perf_counter()
    sol = run_fixed_point(SolverConfig(mode="grid", dx=1e-3, tol=1e-10))
    assert sol.converged
    return sol, time.perf_counter() - t0


def test_criterion_1_exact_iterate_reproduction(tmp_path, capsys):
    out = str(tmp_path / "it")
    t0 = time.perf_counter()
    code = cli.main(["iterate", "--mode", "exact", "--steps", "3", "--out", out])
    t3 = time.perf_counter() - t0
    assert code == 0
    got = {}
    for j in (1, 2, 3):
        with open(os.path.join(out, f"f{j}.json")) as fh:
            got[j] = json.load(fh)["coefficients"]

    t0 = time.perf_counter()
    assert cli.main(["iterate", "--mode", "exact", "--steps", "4",
                     "--out", str(tmp_path / "it4")]) == 0
    t4 = time.perf_counter() - t0

    matches = {j: got[j] == ref for j, ref in
               ((1, REFERENCE_F1), (2, REFERENCE_F2), (3, REFERENCE_F3))}
    ok = all(matches.values()) and t3 < 2.0 and t4 < 10.0
    which = ", ".join(f"f{j} {'==' if m else '!='} reference" for j, m in matches.items())
    report(capsys, 1, ok,
           f"exact iterates bit-exact ({which}; steps3 {t3:.2f}s < 2s, steps4 {t4:.2f}s < 10s)")
    assert t3 < 2.0 and t4 < 10.0
    assert got[1] == REFERENCE_F1
    assert got[2] == REFERENCE_F2
    assert got[3] == REFERENCE_F3


def test_criterion_2_counterexample_verdict(capsys):
    rep = counterexample_check()
    est = estimate_x6_grid(dx=1e-4)
    rel = abs(est - float(rep.x6_coefficient)) / abs(float(rep.x6_coefficient))
    ok = (rep.x6_coefficient != 0 and rep.verdict
          and rep.indicator_identity_holds and rel < 1e-3)
    report(capsys, 2, ok,
           f"counterexample verdict (x6 = {rep.x6_coefficient} != 0, "
           f"indicator identity exact, grid rel err {rel:.2e} < 1e-3)")
    assert rep.x6_coefficient != 0
    assert rep.verdict is True
    assert rep.indicator_identity_holds is True
    assert rel < 1e-3


def test_criterion_3_fixed_point_convergence(converged, capsys):
    sol, elapsed = converged
    q = sol.f
    m_nat = q.lp_mass(2.0) / q.mass ** 2
    resid = el_residual(q, 2, 2.0, m_nat)
    cons = consistency_with_el(sol, ConstraintSet(M=m_nat, p=2.0, n=2))
    ok = (sol.final_step_sup < 1e-10 and sol.iterations <= 200
          and resid.sup_residual < 1e-6
          and cons.dev_a < 1e-4 and cons.dev_b < 1e-4
          and elapsed < 60.0)
    report(capsys, 3, ok,
           f"grid convergence (sup step {sol.final_step_sup:.2e} < 1e-10 in "
           f"{sol.iterations} iters, residual {resid.sup_residual:.2e} < 1e-6, "
           f"deviations {cons.dev_a:.2e}/{cons.dev_b:.2e} < 1e-4, {elapsed:.1f}s < 60s)")
    assert sol.final_step_sup < 1e-10
    assert sol.iterations <= 200
    assert resid.sup_residual < 1e-6
    assert cons.dev_a < 1e-4
    assert cons.dev_b < 1e-4
    assert elapsed < 60.0


def test_criterion_4_ordering_against_gengauss(converged, capsys):
    sol, _ = converged
    t0 = time.perf_counter()
    M = 0.5
    q, _, _ = scale_to_feasible(sol.f, ConstraintSet(M=M, p=2.0, n=2))
    i_fp = float(objective_I(q, 2, 2.0))
    _, gg_poly = exact_gengauss_p2_for_lp_mass(Fraction(1, 2))
    i_gg_exact = objective_I(gg_poly, 2, 2)
    elapsed = time.perf_counter() - t0
    margin = i_fp - float(i_gg_exact)
    ok = margin > 1e-8 and elapsed < 60.0
    report(capsys, 4, ok,
           f"ordering I(fixed point) > I(gengauss) on F(M=0.5, p=2) "
           f"(margin {margin:.3e} > 1e-8, {elapsed:.1f}s < 60s)")
    assert margin > 1e-8
    assert elapsed < 60.0


def _random_step_density_grid(rng):
    k = int(rng.integers(2, 8))
    bps = np.sort(rng.uniform(-3, 3, size=k + 1))
    heights = rng.uniform(0.05, 2.0, size=k)
    dx = 1e-3
    n = int(math.ceil((bps[-1] - bps[0]) / dx)) + 1
    xs = bps[0] + dx * np.arange(n)
    vals = np.zeros(n)
    for i in range(k):
        vals[(xs >= bps[i]) & (xs < bps[i + 1])] = heights[i]
    return GridFunction(float(bps[0]), dx, vals)


def _random_step_density_exact(rng):
    k = int(rng.integers(2, 6))
    bps = sorted(set(int(b) for b in rng.integers(-30, 30, size=k + 1)))
    while len(bps) < 3:
        bps = sorted(set(int(b) for b in rng.integers(-30, 30, size=k + 1)))
    bps = [Fraction(b, 8) for b in bps]
    heights = [Fraction(int(h), 16) for h in rng.integers(1, 40, size=len(bps) - 1)]
    return PiecewisePoly(bps, [Polynomial([h]) for h in heights])


def test_criterion_5_scaling_identity_suite(rng, capsys):
    M = 0.5
    cs = ConstraintSet(M=M, p=2.0, n=2)
    worst_feas = 0.0
    worst_rel = 0.0
    for _ in range(100):
        f = _random_step_density_grid(rng)
        i_orig = float(objective_I(f, 2, 2.0))
        ft, lam, ratio = scale_to_feasible(f, cs)
        worst_feas = max(worst_feas, abs(ft.mass - 1.0),
                         abs(ft.lp_mass(2.0) - M))
        i_new = float(objective_I(ft, 2, 2.0))
        worst_rel = max(worst_rel, abs(i_new - float(ratio) * i_orig)
                        / max(abs(i_new), 1e-300))

    cs_exact = ConstraintSet(M=Fraction(1, 2), p=2, n=2)
    exact_ok = True
    for _ in range(10):
        f = _random_step_density_exact(rng)
        ft, lam, ratio = scale_to_feasible(f, cs_exact)
        exact_ok = exact_ok and ft.mass == 1 \
            and ft.lp_mass(2) == Fraction(1, 2) \
            and objective_I(ft, 2, 2) == ratio * objective_I(f, 2, 2)

    ok = worst_feas < 1e-9 and worst_rel < 1e-9 and exact_ok
    report(capsys, 5, ok,
           f"scaling identity suite (100 trials: feasibility err {worst_feas:.2e} < 1e-9, "
           f"objective ratio rel err {worst_rel:.2e} < 1e-9; 10 exact cases equal exactly)")
    assert worst_feas < 1e-9
    assert worst_rel < 1e-9
    assert exact_ok


def test_criterion_6_riesz_and_young_suites(rng, capsys):
    riesz_fails = 0
    for _ in range(100):
        half = int(rng.integers(25, 150))
        f = GridFunction(-half * 0.01, 0.01, rng.uniform(0.0, 1.0, 2 * half + 1))
        if not riesz_check(f, 2, 2.0).holds:
            riesz_fails += 1

    young_fails = 0
    for n, p in ((2, 2.0), (3, 2.0), (2, 3.0)):
        for _ in range(100):
            gs = [GridFunction(0.01 * int(rng.integers(-150, 0)), 0.01,
                               rng.uniform(0.0, 1.0, int(rng.integers(50, 300))))
                  for _ in range(n)]
            if not young_bound_check(gs, p).holds:
                young_fails += 1

    exp_ok = abs(young_exponent(2, 2.0) - 4.0 / 3.0) < 1e-15
    ok = riesz_fails == 0 and young_fails == 0 and exp_ok
    report(capsys, 6, ok,
           f"Riesz and Young suites (riesz 100/100, young 300/300, "
           f"exponent (np')' = 4/3 at n=2 p=2)")
    assert riesz_fails == 0
    assert young_fails == 0
    assert exp_ok


def test_criterion_7_analytic_spot_values(capsys):
    f = PiecewisePoly.indicator(-1, 1, Fraction(1, 2))
    i_val = objective_I(f, 2, 2)
    third_ok = i_val == Fraction(1, 3)

    alpha_float = gengauss(1.0, 2.0).alpha
    alpha_exact, _ = exact_gengauss_p2(Fraction(1))
    alpha_ok = abs(alpha_float - 0.75) < 1e-10 and alpha_exact == Fraction(3, 4)

    h = renyi_entropy(PiecewisePoly.indicator(Fraction(-1, 2), Fraction(1, 2), 1), 2)
    h_ok = abs(h) < 1e-12

    ok = third_ok and alpha_ok and h_ok
    report(capsys, 7, ok,
           f"analytic spot values (objective 1/3 exact, alpha 3/4 float+symbolic, "
           f"uniform entropy {h:.1e} < 1e-12)")
    assert third_ok
    assert alpha_ok
    assert h_ok

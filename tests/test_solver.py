"""Fixed-point iteration: exact and grid lanes."""
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from renyiconv.entropy import ConstraintSet
from renyiconv.grid import GridFunction, lp_norm_real, sample
from renyiconv.piecewise import PiecewisePoly, Polynomial, convolve, self_convolution
from renyiconv.solver import (
    FixedPointSolution,
    NotConverged,
    SolverConfig,
    consistency_with_el,
    initial_iterate,
    iterate_once,
    run_fixed_point,
)

F0 = PiecewisePoly.indicator(-1, 1, 1)
F1 = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)

# quartic and degree-10 normalized profiles that the update below does not
# produce from F0 (see the mixed-factor product tests); kept as shared
# regression anchors with the acceptance suite
QUARTIC = PiecewisePoly.single(
    Polynomial([1, 0, Fraction(-6, 5), 0, Fraction(1, 5)]), -1, 1)
DEG10 = PiecewisePoly.single(
    Polynomial([
        1, 0, Fraction(-62325, 50521), 0, Fraction(12810, 50521), 0,
        Fraction(-1050, 50521), 0, Fraction(45, 50521), 0, Fraction(-1, 50521),
    ]), -1, 1)


def renormalized_update(f: PiecewisePoly) -> PiecewisePoly:
    """(K - K(1)) / (K(0) - K(1)) on [-1, 1] with K the triple self
    convolution; same formula iterate_once implements."""
    K = self_convolution(f, 3)
    k0, k1 = K.eval(0), K.eval(1)
    shifted = K.restrict(-1, 1) - PiecewisePoly.indicator(-1, 1, k1)
    return shifted * (1 / (k0 - k1))


class TestConfig:
    def test_validation(self):
        SolverConfig(mode="grid")
        with pytest.raises(ValueError):
            SolverConfig(mode="nope")
        with pytest.raises(ValueError):
            SolverConfig(mode="exact", n=3)
        with pytest.raises(ValueError):
            SolverConfig(mode="grid", n=3, p=2.0)  # needs general_update
        SolverConfig(mode="grid", n=3, p=2.0, general_update=True)

    def test_resolved_max_iter(self):
        assert SolverConfig(mode="exact").resolved_max_iter() == 4
        assert SolverConfig(mode="grid").resolved_max_iter() == 200
        assert SolverConfig(mode="grid", max_iter=7).resolved_max_iter() == 7


class TestExactIteration:
    def test_initial_iterate_is_indicator(self):
        f = initial_iterate(SolverConfig(mode="exact"))
        assert f == F0

    def test_first_iterate_is_one_minus_x_squared(self):
        assert iterate_once(F0) == F1

    def test_update_matches_formula(self):
        f2 = iterate_once(F1)
        assert f2 == renormalized_update(F1)

    def test_second_iterate_coefficients(self):
        # pinned output of the update applied to 1 - x^2; the kernel values
        # K(0) = 47/40 and K(1) = 176/315 underlying the normalization are
        # independently verified by adaptive quadrature in test_crosschecks.py
        f2 = iterate_once(F1)
        pieces = list(f2.intervals())
        assert len(pieces) == 1
        assert pieces[0][2].coeffs == (
            1, 0, Fraction(-2100, 1553), 0, Fraction(630, 1553), 0,
            Fraction(-84, 1553), 0, Fraction(1, 1553),
        )

    def test_iterates_stay_normalized_even_nonnegative(self):
        f = F0
        for _ in range(3):
            f = iterate_once(f)
            assert f.eval(0) == 1
            assert f.eval(1) == 0
            assert f.eval(-1) == 0
            assert f == f.reflect()
            f.assert_nonnegative()

    def test_fourth_iterate_pinned(self):
        # sha256 of f4.to_json(), recorded with the Fraction-only convolution
        # that the integer jump-form convolution replaced
        f = F0
        for _ in range(4):
            f = iterate_once(f)
        digest = hashlib.sha256(f.to_json().encode()).hexdigest()
        assert digest == "1443c0d56e464f3667ea0b868accacad7bce7c5d7b94098ae2badb8fc2155f38"

    def test_mixed_factor_product_yields_quartic(self):
        # convolving f1 with the indicator twice (not f1 three times) and
        # renormalizing lands exactly on the quartic profile
        K = convolve(convolve(F1, F0), F0)
        k0, k1 = K.eval(0), K.eval(1)
        g = (K.restrict(-1, 1) - PiecewisePoly.indicator(-1, 1, k1)) * (1 / (k0 - k1))
        assert g == QUARTIC

    def test_mixed_factor_product_yields_degree_10(self):
        # one more such step: quartic twice with one indicator factor
        K = convolve(convolve(QUARTIC, QUARTIC), F0)
        k0, k1 = K.eval(0), K.eval(1)
        g = (K.restrict(-1, 1) - PiecewisePoly.indicator(-1, 1, k1)) * (1 / (k0 - k1))
        assert g == DEG10

    def test_update_from_quartic_does_not_return_degree_10(self):
        # the self-convolution update applied to the quartic has degree 14
        # support of coefficients, not the degree-10 profile
        g = renormalized_update(QUARTIC)
        assert g != DEG10
        top = max(piece.degree for _, _, piece in g.intervals())
        assert top == 14

    def test_run_exact_solution_fields(self):
        sol = run_fixed_point(SolverConfig(mode="exact", max_iter=2))
        assert isinstance(sol.a, Fraction) and isinstance(sol.b, Fraction)
        assert sol.a > 0 and sol.b > 0
        assert sol.iterations == 2
        assert not sol.clip_was_active
        assert len(sol.history) == 2
        assert [r.iteration for r in sol.history] == [1, 2]

    def test_max_iter_zero_reports_indicator_fit(self):
        sol = run_fixed_point(SolverConfig(mode="exact", max_iter=0))
        assert sol.f == F0
        assert sol.iterations == 0
        # K = C_3(indicator): K(0) = 3, K(1) = 2 gives a = 1, b = 2
        assert sol.a == 1
        assert sol.b == 2


class TestGridIteration:
    def test_initial_iterate_grid(self):
        g = initial_iterate(SolverConfig(mode="grid", dx=1e-2))
        assert len(g) == 201
        assert g.values.min() == 1.0

    def test_grid_agrees_with_exact_iterate(self):
        g = initial_iterate(SolverConfig(mode="grid", dx=1e-3))
        g1 = iterate_once(g)
        exact = sample(F1, 1e-3)
        assert np.max(np.abs(g1.values - exact.values)) < 5e-6

    def test_convergence_profile(self):
        sol = run_fixed_point(SolverConfig(mode="grid", dx=1e-3, tol=1e-10))
        assert sol.final_step_sup < 1e-10
        assert sol.iterations <= 200
        assert sol.el_residual_sup < 1e-6
        assert not sol.clip_was_active
        sups = [r.sup_step for r in sol.history]
        assert all(s1 > s2 for s1, s2 in zip(sups, sups[1:]))

    def test_solution_shape(self):
        sol = run_fixed_point(SolverConfig(mode="grid", dx=1e-3, tol=1e-10))
        v = sol.f.values
        c = sol.f.node_index(0.0)
        assert v[c] == 1.0
        assert v[0] == 0.0 and v[-1] == 0.0
        assert np.array_equal(v, v[::-1])
        assert np.all(np.diff(v[c:]) <= 1e-15)

    def test_not_converged_carries_state(self):
        with pytest.raises(NotConverged) as exc_info:
            run_fixed_point(SolverConfig(mode="grid", dx=1e-3, tol=1e-10, max_iter=3))
        sol = exc_info.value.solution
        assert isinstance(sol, FixedPointSolution)
        assert sol.iterations == 3

    def test_general_update_matches_special_case(self):
        base = run_fixed_point(SolverConfig(mode="grid", dx=1e-2, tol=1e-9))
        gen = run_fixed_point(SolverConfig(mode="grid", dx=1e-2, tol=1e-9,
                                           general_update=True))
        assert np.max(np.abs(base.f.values - gen.f.values)) < 1e-8

    @pytest.mark.parametrize("n, p", [(3, 2.0), (2, 3.0), (3, 1.5)])
    def test_general_update_el_residual(self, n, p):
        # the residual of K = a f^(p-1) + b, which the general update solves;
        # measuring |f*f*f - a f - b| instead reported 0.34, 0.15 and 0.25
        sol = run_fixed_point(SolverConfig(mode="grid", n=n, p=p, dx=1e-3, general_update=True))
        assert sol.el_residual_sup < 1e-9

    def test_general_n3_runs(self):
        sol = run_fixed_point(SolverConfig(mode="grid", n=3, p=2.0, dx=1e-2,
                                           tol=1e-8, general_update=True))
        assert sol.f.values.max() == 1.0
        assert sol.final_step_sup < 1e-8


@pytest.fixture(scope="module")
def solution():
    return run_fixed_point(SolverConfig(mode="grid", dx=1e-3, tol=1e-10))


class TestConsistency:

    def test_deviations_small(self, solution):
        lp2 = lp_norm_real(solution.f, 2.0)
        m_nat = lp2 / solution.f.mass ** 2
        rep = consistency_with_el(solution, ConstraintSet(M=m_nat, p=2.0, n=2))
        assert rep.dev_a < 1e-4
        assert rep.dev_b < 1e-4

    def test_deviations_invariant_under_M(self, solution):
        reps = [
            consistency_with_el(solution, ConstraintSet(M=m, p=2.0, n=2))
            for m in (0.25, 0.5, 2.0)
        ]
        for r in reps:
            assert r.dev_a == pytest.approx(reps[0].dev_a, rel=1e-6)
            assert r.dev_b == pytest.approx(reps[0].dev_b, rel=1e-6)

    def test_expected_coefficients_follow_lambda(self, solution):
        rep = consistency_with_el(solution, ConstraintSet(M=0.5, p=2.0, n=2))
        assert rep.a_expected == pytest.approx(rep.lam / (2 * 0.5), rel=1e-12)
        assert rep.b_expected == pytest.approx(rep.lam / 2, rel=1e-12)

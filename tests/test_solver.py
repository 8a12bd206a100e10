"""Fixed-point iteration: exact and grid lanes."""
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from instruments import consistency_with_el, dct1_plan, pair_chain, reflect, restrict
from renyiconv.entropy import ConstraintSet, objective_I
from renyiconv.euler_lagrange import stationarity_kernel
from renyiconv.grid import GridFunction, sample
from renyiconv.piecewise import PiecewisePoly, Polynomial, format_rational
from renyiconv.solver import (
    FixedPointSolution,
    SolverConfig,
    _kernel_of,
    _sup_diff,
    initial_iterate,
    iterate_once,
    run_fixed_point,
)

F0 = PiecewisePoly.indicator(-1, 1, 1)
F1 = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)

# quartic and degree-10 normalized profiles that the update below does not
# produce from F0: renormalizing f1 * f0 * f0 and then QUARTIC * QUARTIC * f0
# gives them (see the mixed-factor product tests); the acceptance suite once
# pinned them as f2 and f3 by mistake
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
    K = f.convolution_power(3)
    k0, k1 = K.eval(0), K.eval(1)
    shifted = restrict(K, -1, 1) - PiecewisePoly.indicator(-1, 1, k1)
    return shifted * (1 / (k0 - k1))


class TestConfig:
    def test_validation(self):
        SolverConfig(mode="grid")
        with pytest.raises(ValueError):
            SolverConfig(mode="nope")
        with pytest.raises(ValueError):
            SolverConfig(mode="exact", n=3)
        with pytest.raises(ValueError):
            SolverConfig(mode="exact", p=3.0)
        # the general update is chosen by (n, p) alone
        SolverConfig(mode="grid", n=3, p=2.0)

    def test_non_finite_p_is_named(self):
        for mode in ("grid", "exact"):
            with pytest.raises(ValueError, match="^p must be finite, got inf$"):
                SolverConfig(mode=mode, p=math.inf)

    def test_dx_inf_does_not_divide_one(self):
        # round(1 / inf) = 0 steps, and 0 * inf is NaN, which must fail the check
        with pytest.raises(ValueError, match="^dx must divide 1 so that 0 and"):
            initial_iterate(SolverConfig(mode="grid", dx=math.inf))

    def test_exact_budget_ends_at_the_kernel_of_f5(self):
        SolverConfig(mode="exact", max_iter=5)
        for k in (6, 7):
            with pytest.raises(ValueError, match=rf"^exact runs build C_3 of f0 \.\. f5 only, not of f{k}, "
                                                 rf"of degree 3\^{k} - 1 = {3 ** k - 1}$"):
                SolverConfig(mode="exact", max_iter=k)
        SolverConfig(mode="grid", max_iter=6)

    def test_resolved_max_iter(self):
        assert SolverConfig(mode="exact").resolved_max_iter() == 4
        assert SolverConfig(mode="grid").resolved_max_iter() == 200
        assert SolverConfig(mode="grid", max_iter=7).resolved_max_iter() == 7


class TestExactIteration:
    def test_initial_iterate_is_indicator(self):
        f = initial_iterate(SolverConfig(mode="exact"))
        assert f == F0

    def test_first_iterate_is_one_minus_x_squared(self):
        assert iterate_once(F0).f == F1

    def test_update_matches_formula(self):
        step = iterate_once(F1)
        assert step.f == renormalized_update(F1)
        # a and b are the normalizer K(0) - K(1) and K(1) of the kernel
        assert (step.a, step.b, step.clipped) == (Fraction(47, 40) - Fraction(176, 315), Fraction(176, 315), False)

    def test_second_iterate_coefficients(self):
        # pinned output of the update applied to 1 - x^2; the kernel values
        # K(0) = 47/40 and K(1) = 176/315 underlying the normalization are
        # independently verified by adaptive quadrature in test_crosschecks.py
        f2 = iterate_once(F1).f
        pieces = list(f2.intervals())
        assert len(pieces) == 1
        assert pieces[0][2].coeffs == (
            1, 0, Fraction(-2100, 1553), 0, Fraction(630, 1553), 0,
            Fraction(-84, 1553), 0, Fraction(1, 1553),
        )

    def test_iterates_stay_normalized_even_nonnegative(self):
        f = F0
        for _ in range(3):
            f = iterate_once(f).f
            assert f.eval(0) == 1
            assert f.eval(1) == 0
            assert f.eval(-1) == 0
            assert f == reflect(f)
            f.assert_nonnegative()

    def test_fourth_iterate_pinned(self):
        # sha256 of f4's breakpoints and piece coefficients as compact
        # "num/den" JSON, recorded with the Fraction-only convolution that
        # the integer jump-form convolution replaced
        f = F0
        for _ in range(4):
            f = iterate_once(f).f
        canonical = json.dumps({
            "breakpoints": [format_rational(b) for b in f.breakpoints],
            "pieces": [[format_rational(c) for c in p.coeffs] for p in f.pieces],
        }, sort_keys=True)
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert digest == "1443c0d56e464f3667ea0b868accacad7bce7c5d7b94098ae2badb8fc2155f38"

    def test_mixed_factor_product_yields_quartic(self):
        # convolving f1 with the indicator twice (not f1 three times) and
        # renormalizing lands exactly on the quartic profile
        for K in (F1.convolve(F0).convolve(F0, lo=-1, hi=1), F1.convolve(F0, F0, lo=-1, hi=1)):
            k0, k1 = K.eval(0), K.eval(1)
            g = (K - PiecewisePoly.indicator(-1, 1, k1)) * (1 / (k0 - k1))
            assert g == QUARTIC

    def test_mixed_factor_product_yields_degree_10(self):
        # one more such step: quartic twice with one indicator factor
        for K in (QUARTIC.convolve(QUARTIC).convolve(F0, lo=-1, hi=1), QUARTIC.convolve(QUARTIC, F0, lo=-1, hi=1)):
            k0, k1 = K.eval(0), K.eval(1)
            g = (K - PiecewisePoly.indicator(-1, 1, k1)) * (1 / (k0 - k1))
            assert g == DEG10

    def test_update_from_quartic_does_not_return_degree_10(self):
        # the self-convolution update applied to the quartic has degree 14
        # support of coefficients, not the degree-10 profile
        g = renormalized_update(QUARTIC)
        assert g != DEG10
        top = max(piece.degree for _, _, piece in g.intervals())
        assert top == 14

    def test_support_is_compared_exactly(self):
        # a float slack once let the first of these through, giving a = 1.0000000003
        eps = Fraction(1, 10**10)
        for f in (PiecewisePoly.indicator(-1 - eps, 1), PiecewisePoly.indicator(-1, 1 + eps)):
            with pytest.raises(ValueError, match=r"^iterate must be supported in \[-1, 1\]$"):
                iterate_once(f)
            with pytest.raises(ValueError, match=r"supported in \[-1, 1\]$"):
                sample(f, 1e-3)
        assert iterate_once(F0).f == F1  # supported exactly on [-1, 1]
        assert sample(F0, 0.5).values.tolist() == [1.0] * 5

    @pytest.mark.parametrize("n, p", [(3, 2), (2, 3)])
    def test_exact_update_refuses_other_n_p(self, n, p):
        # SolverConfig refuses these first; the update's own guard keeps a
        # direct call from building the (n, p) kernel in rationals
        with pytest.raises(ValueError, match=r"^exact iteration supports only n = 2, p = 2$"):
            iterate_once(F1, n, p)

    def test_run_exact_solution_fields(self):
        sol = run_fixed_point(SolverConfig(mode="exact", max_iter=2))
        assert sol.converged  # the exact lane's count is its budget
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
        g1 = iterate_once(g).f
        exact = sample(F1, 1e-3)
        assert np.max(np.abs(g1.values - exact.values)) < 5e-6

    def test_convergence_profile(self):
        sol = run_fixed_point(SolverConfig(mode="grid", dx=1e-3, tol=1e-10))
        assert sol.converged
        assert sol.final_step_sup < 1e-10
        assert sol.iterations <= 200
        assert sol.el_residual_sup < 1e-6
        assert not sol.clip_was_active
        sups = [r.sup_step for r in sol.history]
        assert all(s1 > s2 for s1, s2 in zip(sups, sups[1:]))

    def test_solution_shape(self):
        sol = run_fixed_point(SolverConfig(mode="grid", dx=1e-3, tol=1e-10))
        assert sol.converged
        v = sol.f.values
        c = sol.f.node_index(0.0)
        assert v[c] == 1.0
        assert v[0] == 0.0 and v[-1] == 0.0
        assert np.array_equal(v, v[::-1])
        assert np.all(np.diff(v[c:]) <= 1e-15)

    def test_not_converged_carries_state(self):
        sol = run_fixed_point(SolverConfig(mode="grid", dx=1e-3, tol=1e-10, max_iter=3))
        assert isinstance(sol, FixedPointSolution)
        assert sol.converged is False
        assert sol.iterations == 3
        assert sol.final_step_sup == sol.history[-1].sup_step > 1e-10

    def test_general_update_matches_special_case(self):
        # at (n, p) = (2, 2) the first-variation kernel is f*f*f; the update
        # computes the latter, so compare the two kernels on real iterates.
        # The first-variation kernel covers only f's nodes, [-1, 1].
        f0 = initial_iterate(SolverConfig(mode="grid", dx=1e-2))
        for f in (f0, iterate_once(f0).f):
            assert np.array_equal(f.values, f.values[::-1])
            general = stationarity_kernel(f, 2, 2.0)
            special = pair_chain(f, 3)
            i = special.node_index(-1.0)
            assert len(general) == len(f)
            assert general.x0 == pytest.approx(special.nodes[i], abs=1e-12)
            assert np.max(np.abs(general.values - special.values[i:i + len(f)])) < 1e-12
        # for every n, the p = 2 update kernel C_{2n-1}(f) is the
        # first-variation kernel of the even iterates the update produces
        for n in (2, 3, 4):
            for f in (f0, iterate_once(f0, n, 2.0).f):
                assert np.array_equal(f.values, f.values[::-1])
                general = stationarity_kernel(f, n, 2.0)
                update = _kernel_of(f, n, 2.0)
                assert (update.x0, len(update)) == (general.x0, len(general))
                assert np.max(np.abs(update.values - general.values)) <= 1e-12 * general.values.max()

    def test_p2_update_is_one_inverse_transform(self, rfft_lengths, irfft_lengths):
        # the (3, 2) update kernel of the even f is one windowed C_5 product
        # on the cosine route: one DCT-I of f's right half and one inverse,
        # at the half period P = 320 = 32 * 10, the least 5-smooth multiple
        # of 32 with 2P >= 601, the bound that keeps f's nodes alias-free
        f = initial_iterate(SolverConfig(mode="grid", dx=1e-2))
        N = len(f)
        iterate_once(f, 3, 2.0)
        assert 3 * (N - 1) + 1 == 601
        assert irfft_lengths == [] and rfft_lengths == dct1_plan(320) * 2
        assert max(rfft_lengths) < N

    @pytest.mark.parametrize("n, p", [(2, 3.0), (3, 1.5)])
    def test_general_update_is_four_transforms(self, rfft_lengths, irfft_lengths, n, p):
        # C_n and the second product share f's one spectrum, and both run on
        # the cosine route at the half period P whose period 2P holds C_n in
        # full: 4 DCT-Is (f, C_n^(p-1) and the two inverses), no rfft of a
        # whole factor.  2P = 512 >= 401 at n = 2 and 640 >= 601 at n = 3
        f = initial_iterate(SolverConfig(mode="grid", dx=1e-2))
        half = {2: 256, 3: 320}[n]
        assert 2 * half >= n * (len(f) - 1) + 1
        iterate_once(f, n, p)
        assert irfft_lengths == [] and rfft_lengths == dct1_plan(half) * 4

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("f", [
        GridFunction(-0.5, 0.01, np.ones(101)),    # inside [-1, 1]: +-1 are not nodes
        GridFunction(-0.995, 0.01, np.ones(200)),  # shifted by half a step
        GridFunction(-1.0, 0.01, np.ones(200)),    # one node short of 1
        GridFunction(-1.5, 0.5, np.ones(7)),       # beyond [-1, 1]
        GridFunction(-1.0, 0.3, np.ones(7)),       # dx does not divide 1
    ], ids=["inside", "shifted", "short", "wide", "dx"])
    def test_update_refuses_a_grid_off_the_unit_nodes(self, f, p):
        with pytest.raises(ValueError, match=r"^a grid iterate must sit on the nodes -1 \+ k\*dx of \[-1, 1\]$"):
            iterate_once(f, 2, p)

    def test_step_difference_needs_one_node_set(self):
        f = initial_iterate(SolverConfig(mode="grid", dx=1e-2))
        g = iterate_once(f).f
        assert _sup_diff(f, g) == np.max(np.abs(f.values - g.values))
        for other in (GridFunction(-0.99, 0.01, g.values),
                      GridFunction(-1.0, 0.01, g.values[:-1]),
                      GridFunction(-1.0, 0.005, g.values)):
            with pytest.raises(ValueError, match="node set"):
                _sup_diff(f, other)

    @pytest.mark.parametrize("n, p", [(2, 2.0), (3, 2.0), (2, 3.0), (3, 1.5)])
    def test_update_output_is_even(self, n, p):
        # the kernel is folded, so an input that is not even still gives an
        # even iterate
        f = initial_iterate(SolverConfig(mode="grid", dx=1e-2))
        f = f.with_values(f.values * (1 + 1e-6 * f.nodes))
        assert not np.array_equal(f.values, f.values[::-1])
        g = iterate_once(f, n, p).f
        assert np.array_equal(g.values, g.values[::-1])

    @pytest.mark.parametrize("n, p", [(2, 2.0), (3, 2.0), (2, 3.0), (3, 1.5)])
    def test_update_ascends_mass_normalized_objective(self, n, p):
        # I / (mass^((n-1)p) * ||f||_p^p) is invariant under scaling and
        # dilation; the update must not lower it.  From the indicator it
        # rises (0.667 -> 0.724 at (2, 2)) and then stalls at roundoff.
        # Evaluating the ratio is itself noisy at about 1e-15 relative: one
        # ulp of random noise on a converged (3, 2) iterate moves it by up
        # to 1.5e-15, and 40 steps at dx = 1e-3 and 5e-4 showed falls of up
        # to 2.4e-15 (at (4, 2)), so the bound sits above that
        def ratio(f):
            return objective_I(f, n, p) / (f.mass ** ((n - 1) * p) * f.lp_mass(p))

        f = initial_iterate(SolverConfig(mode="grid", dx=1e-3))
        r0 = r = ratio(f)
        for _ in range(14):
            f = iterate_once(f, n, p).f
            r_next = ratio(f)
            assert r_next >= r * (1 - 4e-15)
            r = r_next
        assert r > 1.05 * r0

    @pytest.mark.parametrize("n, p", [(3, 2.0), (2, 3.0), (3, 1.5)])
    def test_general_update_el_residual(self, n, p):
        # the residual of K = a f^(p-1) + b, which the general update solves;
        # measuring |f*f*f - a f - b| instead reported 0.34, 0.15 and 0.25
        sol = run_fixed_point(SolverConfig(mode="grid", n=n, p=p, dx=1e-3))
        assert sol.converged
        assert sol.el_residual_sup < 1e-9

    def test_general_n3_runs(self):
        sol = run_fixed_point(SolverConfig(mode="grid", n=3, p=2.0, dx=1e-2, tol=1e-8))
        assert sol.converged
        assert sol.f.values.max() == 1.0
        assert sol.final_step_sup < 1e-8


@pytest.fixture(scope="module")
def solution():
    sol = run_fixed_point(SolverConfig(mode="grid", dx=1e-3, tol=1e-10))
    assert sol.converged
    return sol


class TestConsistency:

    def test_deviations_small(self, solution):
        lp2 = solution.f.lp_mass(2.0)
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

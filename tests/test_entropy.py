"""Entropy functionals, feasibility scaling, generalized Gaussians."""
import math
from fractions import Fraction

import numpy as np
import pytest

from instruments import pair_chain
from renyiconv import entropy
from renyiconv.entropy import (
    ConstraintSet,
    DegenerateDensity,
    GeneralizedGaussian,
    ZeroMass,
    exact_gengauss_p2,
    exact_gengauss_p2_for_lp_mass,
    gengauss,
    gengauss_for_lp_mass,
    objective_I,
    renyi_entropy,
    scale_to_feasible,
)
from renyiconv.grid import GridFunction, sample
from renyiconv.piecewise import PiecewisePoly, Polynomial


def rand_step_density(rng, exact=False):
    """Random piecewise-constant density on a random interval."""
    k = int(rng.integers(2, 8))
    if exact:
        bps = sorted(rng.integers(-40, 40, size=k + 1).tolist())
        while len(set(bps)) < k + 1:
            bps = sorted(rng.integers(-40, 40, size=k + 1).tolist())
        bps = [Fraction(b, 8) for b in bps]
        heights = [Fraction(int(h), 16) for h in rng.integers(1, 40, size=k)]
        return PiecewisePoly(bps, [Polynomial([h]) for h in heights])
    bps = np.sort(rng.uniform(-3, 3, size=k + 1))
    heights = rng.uniform(0.05, 2.0, size=k)
    dx = 1e-3
    lo, hi = bps[0], bps[-1]
    n = int(math.ceil((hi - lo) / dx)) + 1
    xs = lo + dx * np.arange(n)
    vals = np.zeros(n)
    for i in range(k):
        vals[(xs >= bps[i]) & (xs < bps[i + 1])] = heights[i]
    return GridFunction(float(lo), dx, vals)


class TestConstraintSet:
    def test_validation(self):
        ConstraintSet(M=0.5, p=2.0, n=2)
        with pytest.raises(ValueError):
            ConstraintSet(M=0.0, p=2.0, n=2)
        with pytest.raises(ValueError, match="^M must be finite$"):
            ConstraintSet(M=math.inf, p=2.0, n=2)
        with pytest.raises(ValueError, match="^M must be positive$"):
            ConstraintSet(M=math.nan, p=2.0, n=2)
        with pytest.raises(ValueError):
            ConstraintSet(M=0.5, p=1.0, n=2)
        with pytest.raises(ValueError):
            ConstraintSet(M=0.5, p=2.0, n=1)

    def test_non_finite_p_is_named(self):
        with pytest.raises(ValueError, match="^p must be finite, got inf$"):
            ConstraintSet(M=0.5, p=math.inf, n=2)
        with pytest.raises(ValueError, match="^p must exceed 1$"):
            ConstraintSet(M=0.5, p=math.nan, n=2)


class TestEntropyFunctionals:
    def test_uniform_half_width_has_zero_entropy(self):
        f = PiecewisePoly.indicator(Fraction(-1, 2), Fraction(1, 2), 1)
        assert abs(renyi_entropy(f, 2.0)) < 1e-12

    def test_lp_mass_exact_vs_grid(self):
        f = PiecewisePoly.single(Polynomial([Fraction(3, 4), 0, Fraction(-3, 4)]), -1, 1)
        exact = f.lp_mass(2)
        assert isinstance(exact, Fraction)
        g = sample(f, 1e-3)
        assert g.lp_mass(2.0) == pytest.approx(float(exact), rel=1e-5)

    def test_objective_uniform_exact_third(self):
        f = PiecewisePoly.indicator(-1, 1, Fraction(1, 2))
        assert objective_I(f, 2, 2) == Fraction(1, 3)

    def test_objective_grid_matches_exact(self):
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        exact = objective_I(f, 2, 2)
        g = sample(f, 1e-3)
        assert float(objective_I(g, 2, 2.0)) == pytest.approx(float(exact), rel=1e-5)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_objective_grid_matches_pair_chain(self, n, p):
        # one windowed product at the 5-smooth length against the chain of
        # power-of-two pairs that the pinned callers keep
        g = sample(PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1), 1e-2)
        chain = pair_chain(g, n).lp_mass(p)
        assert float(objective_I(g, n, p)) == pytest.approx(chain, rel=1e-13, abs=0)

    def test_piecewise_needs_integer_exponent(self):
        # no silent grid fallback: the exact lane refuses p = 3/2
        f = PiecewisePoly.indicator(-1, 1, Fraction(1, 2))
        for call in (lambda: objective_I(f, 2, 1.5),
                     lambda: renyi_entropy(f, 1.5),
                     lambda: scale_to_feasible(f, ConstraintSet(M=0.5, p=1.5, n=2))):
            with pytest.raises(ValueError, match="integer p"):
                call()

    def test_scaling_invariance_of_entropy_shift(self):
        # h_p(f dilated by lam, renormalized) = h_p(f) + log lam
        f = PiecewisePoly.indicator(-1, 1, Fraction(1, 2))
        lam = Fraction(3, 2)
        g = f.dilate(lam) * (1 / lam)
        assert renyi_entropy(g, 2.0) == pytest.approx(
            renyi_entropy(f, 2.0) + math.log(float(lam)), abs=1e-12)


class TestScaleToFeasible:
    def test_exact_case_feasible_and_identity(self):
        f = PiecewisePoly.indicator(-2, 2, Fraction(3, 2))  # mass 6, |f|_2^2 = 9
        cs = ConstraintSet(M=0.25, p=2, n=2)
        ft, lam, ratio = scale_to_feasible(f, cs)
        assert ft.mass == 1
        assert ft.lp_mass(2) == Fraction(1, 4)
        assert objective_I(ft, 2, 2) == ratio * objective_I(f, 2, 2)

    def test_exact_rational_lambda_p3(self):
        # with p = 3 the dilation is a square root; engineered to be rational
        f = PiecewisePoly.indicator(0, 1, 2)  # mass 2, |f|_3^3 = 8
        # lam = (lpm / (M mass^p))^(1/(p-1)) = (8 / (M 8))^(1/2) -> M = 1/4 gives lam = 2
        cs = ConstraintSet(M=Fraction(1, 4), p=3, n=2)
        ft, lam, ratio = scale_to_feasible(f, cs)
        assert lam == 2
        assert ft.mass == 1
        assert ft.lp_mass(3) == Fraction(1, 4)

    def test_grid_case(self):
        g = GridFunction(-1.0, 1e-3, np.full(2001, 0.7))
        cs = ConstraintSet(M=0.4, p=2.0, n=2)
        ft, lam, ratio = scale_to_feasible(g, cs)
        assert ft.mass == pytest.approx(1.0, abs=1e-9)
        assert ft.lp_mass(2.0) == pytest.approx(0.4, abs=1e-9)

    def test_zero_mass_rejected(self):
        with pytest.raises((ZeroMass, ValueError)):
            scale_to_feasible(PiecewisePoly.zero(), ConstraintSet(M=0.5, p=2, n=2))

    def test_identity_suite_grid(self, rng, trials):
        cs = ConstraintSet(M=0.5, p=2.0, n=2)
        for _ in range(trials):
            f = rand_step_density(rng)
            i_orig = float(objective_I(f, 2, 2.0))
            ft, lam, ratio = scale_to_feasible(f, cs)
            assert ft.mass == pytest.approx(1.0, abs=1e-9)
            assert ft.lp_mass(2.0) == pytest.approx(0.5, abs=1e-9)
            i_new = float(objective_I(ft, 2, 2.0))
            assert i_new == pytest.approx(float(ratio) * i_orig, rel=1e-9)

    def test_identity_suite_exact(self, rng):
        cs = ConstraintSet(M=Fraction(2, 5), p=2, n=2)
        for _ in range(10):
            f = rand_step_density(rng, exact=True)
            ft, lam, ratio = scale_to_feasible(f, cs)
            assert ft.mass == 1
            assert ft.lp_mass(2) == Fraction(2, 5)
            assert objective_I(ft, 2, 2) == ratio * objective_I(f, 2, 2)


class TestGeneralizedGaussian:
    def test_alpha_closed_form_p2(self):
        gg = gengauss(1.0, 2.0)
        assert gg.alpha == pytest.approx(0.75, abs=1e-10)

    def test_alpha_exact_symbolic_p2(self):
        alpha, poly = exact_gengauss_p2(Fraction(1))
        assert alpha == Fraction(3, 4)
        assert poly.mass == 1
        assert poly.lp_mass(2) == Fraction(3, 5)

    def test_non_finite_p_is_named(self):
        # at p = inf, q = 1/(p-1) = 0 and lp_mass would be lgamma(inf * 0)
        with pytest.raises(ValueError, match="^p must be finite, got inf$"):
            gengauss(1.0, math.inf)
        with pytest.raises(ValueError, match="^p must be finite, got inf$"):
            gengauss_for_lp_mass(0.5, math.inf)
        with pytest.raises(ValueError, match="^p must exceed 1$"):
            gengauss(1.0, math.nan)

    def test_unit_mass_various_p(self):
        for p in (1.5, 2.0, 3.0, 4.5):
            gg = gengauss(2.0, p)
            g = gg.to_grid(1e-4)
            assert g.mass == pytest.approx(1.0, abs=2e-5)

    def test_lp_mass_closed_form_vs_grid(self):
        gg = gengauss(1.5, 2.5)
        g = gg.to_grid(1e-4)
        assert g.lp_mass(2.5) == pytest.approx(gg.lp_mass(2.5), rel=1e-6)

    def test_for_lp_mass(self):
        gg = gengauss_for_lp_mass(0.5, 2.0)
        assert gg.lp_mass(2.0) == pytest.approx(0.5, rel=1e-12)

    def test_exact_p2_for_lp_mass(self):
        alpha, poly = exact_gengauss_p2_for_lp_mass(Fraction(1, 2))
        assert poly.mass == 1
        assert poly.lp_mass(2) == Fraction(1, 2)

    def test_entropy_matches_grid(self):
        gg = gengauss(1.0, 2.0)
        g = gg.to_grid(1e-4)
        assert renyi_entropy(g, 2.0) == pytest.approx(renyi_entropy(gg, gg.p), abs=1e-6)
        # through the closed-form lp_mass, the same float operations as
        # -log(int G^p) / (p - 1) spelled out
        for p in (1.5, 2, 3, 4):
            gp = gengauss(1.3, p)
            assert renyi_entropy(gp, gp.p) == -math.log(gp.lp_mass(gp.p)) / (gp.p - 1.0)

    def test_to_grid_node_limit(self, monkeypatch):
        # half-width 1: dx 0.2 gives 11 nodes, dx 0.19 would give 13
        monkeypatch.setattr(entropy, "MAX_GRID_NODES", 11)
        assert len(gengauss(1.0, 2.0).to_grid(0.2)) == 11
        with pytest.raises(ValueError, match=r"beta = 1.0 \(half-width 1.0\) .* 11 grid nodes at dx = 0.19"):
            gengauss(1.0, 2.0).to_grid(0.19)

    def test_to_grid_refuses_before_allocating(self):
        # 1.1e77 nodes, which numpy refuses with a message naming neither
        with pytest.raises(ValueError, match="half-width 5.51"):
            gengauss_for_lp_mass(1e-150, 3.0).to_grid(0.01)

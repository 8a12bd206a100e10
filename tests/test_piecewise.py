"""Exact piecewise-polynomial layer: algebra, convolution, serialization."""
from fractions import Fraction

import pytest

from renyiconv.piecewise import (
    BreakpointDerivative,
    NegativeDensity,
    PiecewisePoly,
    Polynomial,
    convolve,
    format_rational,
    self_convolution,
)

HALF = Fraction(1, 2)


def indicator(lo=-1, hi=1, height=1):
    return PiecewisePoly.indicator(lo, hi, height)


def rand_fraction(rng, num=9, den=9):
    return Fraction(int(rng.integers(-num, num + 1)), int(rng.integers(1, den + 1)))


def rand_piecewise(rng):
    """Up to four pieces of degree <= 3, generally discontinuous, on
    breakpoints with denominators 1..12; a quarter of the pieces are zero."""
    bps = set()
    while len(bps) < 2:
        bps = {rand_fraction(rng, 24, 12) for _ in range(int(rng.integers(2, 6)))}
    pieces = [Polynomial([] if rng.random() < 0.25 else
                         [rand_fraction(rng) for _ in range(int(rng.integers(1, 5)))])
              for _ in range(len(bps) - 1)]
    return PiecewisePoly(sorted(bps), pieces)


def fraction_horner(p, x):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


class TestPolynomial:
    def test_evaluation_is_horner_exact(self):
        p = Polynomial([Fraction(1, 3), 0, Fraction(-2, 7)])
        x = Fraction(5, 11)
        assert p(x) == Fraction(1, 3) - Fraction(2, 7) * x * x

    def test_arithmetic(self):
        p = Polynomial([1, 2])
        q = Polynomial([0, 0, 3])
        assert (p + q).coeffs == (1, 2, 3)
        assert (p - p).is_zero
        assert (p * q).coeffs == (0, 0, 3, 6)
        assert (p * Fraction(1, 2)).coeffs == (HALF, 1)

    def test_pow_and_derivative(self):
        p = Polynomial([0, 1])
        assert p.pow_int(5).coeffs == (0, 0, 0, 0, 0, 1)
        assert p.pow_int(5).derivative().coeffs == (0, 0, 0, 0, 5)
        assert Polynomial([3]).derivative().is_zero

    def test_antiderivative_and_integral(self):
        p = Polynomial([0, 0, 3])  # 3x^2
        assert p.antiderivative().coeffs == (0, 0, 0, 1)
        assert p.integrate(-1, 2) == 9

    def test_compose_linear(self):
        p = Polynomial([1, 0, 1])  # 1 + x^2
        # p(2x - 3) = 1 + (2x-3)^2 = 10 - 12x + 4x^2
        assert p.compose_linear(2, -3).coeffs == (10, -12, 4)

    def test_degree_of_zero(self):
        assert Polynomial([0, 0]).degree == -1
        assert Polynomial([0, 0]).is_zero

    def test_integer_horner_matches_fraction_horner(self, rng, trials):
        lo, dx, nodes = -1.0, 1e-3, 2000
        for _ in range(trials):
            p = Polynomial([rand_fraction(rng, 10**6, 10**4) for _ in range(int(rng.integers(0, 40)))])
            for k in rng.integers(0, nodes + 1, size=3).tolist():
                for x in (Fraction(lo + k * dx), Fraction(k, nodes // 2) - 1):
                    assert p(x) == fraction_horner(p, x)


class TestPiecewisePolyBasics:
    def test_indicator_eval(self):
        f = indicator()
        assert f.eval(0) == 1
        assert f.eval(1) == 1  # right-closed at the support end
        assert f.eval(Fraction(-1)) == 1
        assert f.eval(2) == 0

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            PiecewisePoly([0, 0], [Polynomial([1])])

    def test_canonicalization_merges_equal_pieces(self):
        one = Polynomial([1])
        f = PiecewisePoly([-1, 0, 1], [one, one])
        assert f.breakpoints == (Fraction(-1), Fraction(1))

    def test_integral_and_mass(self):
        f = indicator(0, 3, Fraction(1, 3))
        assert f.integral_all() == 1
        assert f.integral(1, 2) == Fraction(1, 3)
        assert f.integral(-5, 1) == Fraction(1, 3)

    def test_dilate_preserves_mass_ratio(self):
        f = indicator()
        g = f.dilate(Fraction(3, 2))
        assert g.support == (Fraction(-3, 2), Fraction(3, 2))
        assert g.integral_all() == Fraction(3, 2) * f.integral_all()
        assert g.eval(Fraction(5, 4)) == 1

    def test_reflect_translate(self):
        f = indicator(0, 2)
        assert f.reflect().support == (-2, 0)
        assert f.translate(5).support == (5, 7)
        assert f.translate(5).eval(6) == 1

    def test_restrict(self):
        f = indicator(-2, 2)
        g = f.restrict(-1, 1)
        assert g.support == (-1, 1)
        assert g.integral_all() == 2

    def test_derivative_at_interior_and_breakpoint(self):
        f = PiecewisePoly.single(Polynomial([0, 0, 1]), -1, 1)
        assert f.derivative_at(HALF) == 1
        with pytest.raises(BreakpointDerivative):
            f.derivative_at(1)

    def test_pointwise_algebra(self):
        f = indicator(-1, 1)
        g = PiecewisePoly.single(Polynomial([0, 1]), 0, 2)
        s = f + g
        assert s.eval(HALF) == Fraction(3, 2)
        assert s.eval(Fraction(3, 2)) == Fraction(3, 2)
        assert (f * g).eval(HALF) == HALF
        assert (f - f).is_zero

    def test_power_int(self):
        f = PiecewisePoly.single(Polynomial([1, 1]), 0, 1)
        sq = f.power_int(2)
        assert sq.eval(HALF) == Fraction(9, 4)
        assert sq.integral_all() == Fraction(7, 3)

    def test_primitive_is_continuous(self):
        f = indicator(-1, 1)
        F = f.primitive()
        assert F.eval(-1) == 0
        assert F.eval(0) == 1
        assert F.eval(1) == 2

    def test_nonnegativity_guard(self):
        bad = PiecewisePoly.single(Polynomial([Fraction(-1, 100), 0, 1]), -1, 1)
        with pytest.raises(NegativeDensity):
            bad.assert_nonnegative()
        indicator().assert_nonnegative()

    def test_lp_norm_int(self):
        f = indicator(-1, 1, HALF)
        assert f.lp_norm_int(2) == HALF
        assert f.lp_norm_int(3) == Fraction(1, 4)


class TestConvolution:
    def test_indicator_squared_is_tent(self):
        t = convolve(indicator(), indicator())
        assert t.support == (-2, 2)
        assert t.eval(0) == 2
        assert t.eval(1) == 1
        assert t.eval(Fraction(3, 2)) == HALF
        # tent: 2 - |x|
        assert t.eval(Fraction(-1, 3)) == 2 - Fraction(1, 3)

    def test_indicator_cubed_middle_piece(self):
        c = self_convolution(indicator(), 3)
        assert c.support == (-3, 3)
        # middle piece is 3 - x^2
        assert c.eval(0) == 3
        assert c.eval(HALF) == 3 - Fraction(1, 4)
        assert c.eval(Fraction(2)) == HALF  # (3-|x|)^2/2 on the wings

    def test_commutative(self):
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        g = PiecewisePoly.single(Polynomial([0, 1]), 0, 2)
        assert convolve(f, g) == convolve(g, f)

    def test_associative(self):
        f = indicator(0, 1)
        g = PiecewisePoly.single(Polynomial([0, 1]), 0, 1)
        h = PiecewisePoly.single(Polynomial([1, -1]), 0, 1)
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))

    def test_mass_multiplies(self):
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        g = indicator(0, 3, Fraction(2, 5))
        assert convolve(f, g).integral_all() == f.integral_all() * g.integral_all()

    def test_translation_equivariance(self):
        f = indicator()
        g = PiecewisePoly.single(Polynomial([0, 0, 1]), 0, 1)
        lhs = convolve(f.translate(Fraction(1, 3)), g)
        rhs = convolve(f, g).translate(Fraction(1, 3))
        assert lhs == rhs

    def test_convolution_of_disjoint_supports(self):
        f = indicator(0, 1)
        g = indicator(10, 11)
        c = convolve(f, g)
        assert c.support == (10, 12)
        assert c.eval(11) == 1

    def test_quadratic_bump_triple_convolution_center_piece(self):
        # triple self convolution of 1 - x^2 on [-1, 1]; center values are
        # pinned against independent dblquad integration in test_crosschecks.py
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        K = self_convolution(f, 3)
        mid = None
        for lo, hi, piece in K.intervals():
            if lo <= 0 < hi:
                mid = piece
        assert mid.coeffs == (
            Fraction(47, 40), 0, Fraction(-5, 6), 0, Fraction(1, 4), 0,
            Fraction(-1, 30), 0, Fraction(1, 2520),
        )
        assert K.eval(0) == Fraction(47, 40)
        assert K.eval(1) == Fraction(176, 315)

    def test_pointwise_oracle_by_reflect_translate(self, rng, trials):
        # (f * g)(x) = int f(t) g(x - t) dt, with g(x - t) as a function of t
        # built by reflect and translate: no convolution code involved
        for _ in range(trials):
            f, g = rand_piecewise(rng), rand_piecewise(rng)
            h, gr = f.convolve(g), g.reflect()
            sums = sorted({a + b for a in f.breakpoints for b in g.breakpoints})
            for x in sums + [(lo + hi) / 2 for lo, hi in zip(sums, sums[1:])]:
                assert h.eval(x) == (f * gr.translate(x)).integral_all()

    def test_with_reflection_adjoint(self):
        # int f (T(g) * h) == int (f * g) h for compact supports
        f = PiecewisePoly.single(Polynomial([1, 1]), 0, 1)
        g = PiecewisePoly.single(Polynomial([2, 0, -1]), -1, 1)
        h = indicator(0, 2)
        lhs = (f * convolve(g.reflect(), h)).integral_all()
        rhs = (convolve(f, g) * h).integral_all()
        assert lhs == rhs


class TestSerialization:
    def test_format_rational(self):
        assert format_rational(Fraction(-6, 10)) == "-3/5"
        assert format_rational(Fraction(4)) == "4/1"

    def test_json_round_trip(self):
        f = PiecewisePoly(
            [Fraction(-1), Fraction(1, 3), 2],
            [Polynomial([1, Fraction(-1, 7)]), Polynomial([0, 0, Fraction(22, 7)])],
        )
        assert PiecewisePoly.from_json(f.to_json()) == f

    def test_json_uses_num_den_strings(self):
        d = indicator().to_json_dict()
        assert d["breakpoints"] == ["-1/1", "1/1"]
        assert d["pieces"] == [["1/1"]]

"""Exact piecewise-polynomial layer: algebra, convolution, sampling,
serialization."""
import functools
import sys
from fractions import Fraction
from math import ceil, floor, inf, lcm, pi, sqrt

import numpy as np
import pytest

from renyiconv import cli, grid, piecewise
from instruments import (compose_linear, derivative, fraction_square_free, pairwise_jump_chain, pointwise_product,
                         poly_power, poly_product, power_int, reflect, restrict, schoolbook_times, translate)
from renyiconv.entropy import exact_gengauss_p2
from renyiconv.euler_lagrange import counterexample_check
from renyiconv.piecewise import (
    NegativeDensity,
    PiecewisePoly,
    Polynomial,
    format_rational,
)
from renyiconv.solver import SolverConfig, _kernel_of, iterate_once, run_fixed_point

HALF = Fraction(1, 2)


def indicator(lo=-1, hi=1, height=1):
    return PiecewisePoly.indicator(lo, hi, height)


def rand_fraction(rng, num=9, den=9):
    return Fraction(int(rng.integers(-num, num + 1)), int(rng.integers(1, den + 1)))


def rand_piecewise(rng, max_degree=3):
    """Up to four pieces of degree <= max_degree, generally discontinuous,
    on breakpoints with denominators 1..12; a quarter of the pieces are
    zero."""
    bps = set()
    while len(bps) < 2:
        bps = {rand_fraction(rng, 24, 12) for _ in range(int(rng.integers(2, 6)))}
    pieces = [Polynomial([] if rng.random() < 0.25 else
                         [rand_fraction(rng) for _ in range(int(rng.integers(1, max_degree + 2)))])
              for _ in range(len(bps) - 1)]
    return PiecewisePoly(sorted(bps), pieces)


@functools.cache
def exact_iterates():
    """f0..f4 of the exact update, f0 the indicator of [-1, 1]."""
    fs = [indicator()]
    for _ in range(4):
        fs.append(iterate_once(fs[-1]).f)
    return tuple(fs)


def _calls(monkeypatch, name: str) -> list:
    count, fn = [0], getattr(piecewise, name)

    def counted(*args):
        count[0] += 1
        return fn(*args)

    monkeypatch.setattr(piecewise, name, counted)
    return count


@pytest.fixture
def shifts(monkeypatch):
    """The number of Taylor shifts made during the test, in a list."""
    return _calls(monkeypatch, "_taylor_shift")


@pytest.fixture
def products(monkeypatch):
    """The number of order-list products made during the test, in a list."""
    return _calls(monkeypatch, "_times")


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
        assert (p * Fraction(1, 2)).coeffs == (HALF, 1)
        assert (3 * p).coeffs == (3, 6)
        # a product of polynomials is the instruments' reference, not the package's
        assert poly_product(p, q).coeffs == (0, 0, 3, 6)
        with pytest.raises(TypeError):
            p * q

    def test_pow_and_derivative(self):
        p = Polynomial([0, 1])
        assert poly_power(p, 5).coeffs == (0, 0, 0, 0, 0, 1)
        assert derivative(poly_power(p, 5)).coeffs == (0, 0, 0, 0, 5)
        assert derivative(Polynomial([3])).is_zero()

    def test_antiderivative_and_integral(self):
        p = Polynomial([0, 0, 3])  # 3x^2
        assert p.integrate(-1, 2) == 9

    def test_compose_linear(self):
        p = Polynomial([1, 0, 1])  # 1 + x^2
        # p(2x - 3) = 1 + (2x-3)^2 = 10 - 12x + 4x^2
        assert compose_linear(p, 2, -3).coeffs == (10, -12, 4)

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
        assert f.mass == 1

    def test_dilate_preserves_mass_ratio(self):
        f = indicator()
        g = f.dilate(Fraction(3, 2))
        assert g.support == (Fraction(-3, 2), Fraction(3, 2))
        assert g.mass == Fraction(3, 2) * f.mass
        assert g.eval(Fraction(5, 4)) == 1

    def test_dilate_is_the_substitution_x_over_lam(self, rng, trials):
        # c_k / lam^k is exactly the polynomial x -> p(x / lam)
        for _ in range(trials):
            f = rand_piecewise(rng, max_degree=8)
            lam = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
            ref = PiecewisePoly([b * lam for b in f.breakpoints], [compose_linear(p, 1 / lam, 0) for p in f.pieces])
            assert f.dilate(lam) == ref

    def test_reflect_translate(self):
        f = indicator(0, 2)
        assert reflect(f).support == (-2, 0)
        assert translate(f, 5).support == (5, 7)
        assert translate(f, 5).eval(6) == 1

    def test_restrict(self):
        f = indicator(-2, 2)
        g = restrict(f, -1, 1)
        assert g.support == (-1, 1)
        assert g.mass == 2

    def test_pointwise_algebra(self):
        f = indicator(-1, 1)
        g = PiecewisePoly.single(Polynomial([0, 1]), 0, 2)
        s = f + g
        assert s.eval(HALF) == Fraction(3, 2)
        assert s.eval(Fraction(3, 2)) == Fraction(3, 2)
        assert pointwise_product(f, g).eval(HALF) == HALF
        assert (f - f).is_zero
        assert (f * 3).eval(HALF) == (3 * f).eval(HALF) == 3
        with pytest.raises(TypeError):
            f * g

    def test_reflect_matches_the_substitution(self, rng, trials):
        for _ in range(trials):
            f = rand_piecewise(rng, max_degree=6)
            assert f.reflect() == reflect(f)

    def test_nonnegativity_guard(self):
        bad = PiecewisePoly.single(Polynomial([Fraction(-1, 100), 0, 1]), -1, 1)
        with pytest.raises(NegativeDensity):
            bad.assert_nonnegative()
        indicator().assert_nonnegative()

    def test_nonnegativity_guard_bisects_to_an_interior_minimum(self):
        # (x - c)^2 - 10^-6 with c = 1/2 + 1/1000 is positive at both
        # ends and at every k/63 of [0, 1]: its roots c -+ 1/1000 lie
        # between 31/63 and 32/63.  Its Bernstein coefficients on [0, 1]
        # change sign, and root isolation finds the gap between the roots
        c = HALF + Fraction(1, 1000)
        f = PiecewisePoly.single(Polynomial([c * c - Fraction(1, 10**6), -2 * c, 1]), 0, 1)
        assert all(f.eval(Fraction(k, 63)) > 0 for k in range(64))
        with pytest.raises(NegativeDensity, match="^negative interior minimum detected$"):
            f.assert_nonnegative()

    def test_lp_norm_int(self):
        f = indicator(-1, 1, HALF)
        assert f.lp_mass(1) == 1
        assert f.lp_mass(2) == f.lp_mass(2.0) == f.lp_mass(Fraction(2)) == HALF
        for p in (3, Fraction(3, 2), 0, 2.5):
            with pytest.raises(ValueError, match=f"p = 1 or 2, got {p}$"):
                f.lp_mass(p)

    def test_lp_mass_2_matches_the_pointwise_square(self, rng, trials):
        # uneven, multi-piece, discontinuous densities: squares of random
        # piecewise polynomials, half of them lifted by a positive constant
        for _ in range(trials):
            f = power_int(rand_piecewise(rng, 3), 2)
            if rng.random() < 0.5:
                f = f + PiecewisePoly.indicator(*f.support, rand_fraction(rng) ** 2)
            assert f.lp_mass(2) == power_int(f, 2).mass, f

    def test_lp_mass_2_refuses_a_negative_density(self):
        with pytest.raises(NegativeDensity):
            PiecewisePoly.single(Polynomial([1, -3]), 0, 1).lp_mass(2)


def product_of_roots(rng, lo, hi):
    """A random rational polynomial, a positive lead coefficient times
    factors (x - r)^k and ((x - r)^2 - q)^k: rational roots inside and
    outside [lo, hi] and at its ends, irrational pairs r -+ sqrt(q) (q w^-2
    = m / 9, m not a square), complex pairs (q < 0), and touching zeros
    (even k); then, in a third of the cases, a constant +-10^-j added."""
    w, poly = hi - lo, Polynomial([Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4)))])
    for _ in range(int(rng.integers(1, 4))):
        kind, k = rng.integers(0, 4), int(rng.choice([1, 2, 2, 3, 4]))
        r = (lo, hi)[int(rng.integers(0, 2))] if kind == 0 else lo + w * Fraction(int(rng.integers(-4, 13)), 8)
        if kind < 2:
            factor = Polynomial([-r, 1])
        else:
            q = Fraction(int(rng.choice([2, 3, 5, 6, 7, -1, -2])), 9) * w * w
            factor = Polynomial([r * r - q, -2 * r, 1])
        poly = poly_product(poly, poly_power(factor, k))
    if rng.random() < 1 / 3:
        poly = poly + Polynomial([Fraction(int(rng.choice([-1, 1])), 10 ** int(rng.integers(3, 12)))])
    return poly


def sympy_nonnegative(sp, poly, lo, hi):
    """poly >= 0 on [lo, hi] by sympy: with poly = c prod s_i^i square-free
    (sqf_list), the sign of poly off its roots is that of c times the odd
    part o = prod_{i odd} s_i, whose roots are simple: poly >= 0 exactly
    when o has no root inside (lo, hi) and c o > 0 at the midpoint."""
    x = sp.Symbol("x")
    lo, hi = sp.Rational(lo.numerator, lo.denominator), sp.Rational(hi.numerator, hi.denominator)
    c, parts = sp.Poly([sp.Rational(a.numerator, a.denominator) for a in reversed(poly.coeffs)], x).sqf_list()
    odd = sp.Poly(c, x)
    for part, k in parts:
        if k % 2:
            odd = odd * part
    inside = odd.count_roots(lo, hi) - (odd.eval(lo) == 0) - (odd.eval(hi) == 0)
    return inside == 0 and odd.eval((lo + hi) / 2) > 0


class TestNonnegativity:
    def test_agrees_with_sympy(self, rng, trials):
        sp = pytest.importorskip("sympy")
        decided = set()
        for _ in range(trials):
            lo = rand_fraction(rng, 9, 7)
            hi = lo + Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 12)))
            poly = product_of_roots(rng, lo, hi)
            expected = sympy_nonnegative(sp, poly, lo, hi)
            try:
                PiecewisePoly.single(poly, lo, hi).assert_nonnegative()
                got = True
            except NegativeDensity:
                got = False
            assert got == expected, (poly, lo, hi)
            decided.add(got)
        assert decided == {True, False}

    def test_square_free_matches_euclid_over_fractions(self, rng, trials):
        # random products with repeated roots: the primitive integer
        # remainder sequence and Euclid over Fractions give one polynomial,
        # up to a constant factor
        for _ in range(3 * trials):
            lo = rand_fraction(rng, 9, 7)
            poly = product_of_roots(rng, lo, lo + Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 12))))
            got, want = piecewise._square_free(poly._integers()[0]), fraction_square_free(poly).coeffs
            assert len(got) == len(want) and all(g * want[-1] == w * got[-1] for g, w in zip(got, want)), poly
        # (x - 1)^3 (x + 2)^2 (x^2 + 1) has the square-free part (x - 1)(x + 2)(x^2 + 1)
        poly = poly_product(poly_product(poly_power(Polynomial([-1, 1]), 3), poly_power(Polynomial([2, 1]), 2)),
                            Polynomial([1, 0, 1]))
        got = piecewise._square_free(poly._integers()[0])
        assert [c * got[-1] for c in got] == [-2, 1, -1, 1, 1]

    @pytest.mark.parametrize("tail, nonnegative", [
        (Fraction(1, 10**13), False),      # minimum -1.5e-13, between four roots
        (Fraction(1, 4 * 10**12), True),   # ((x - 1/2)^2 - 1/(2 10^6))^2: two touching zeros
    ])
    def test_decides_close_roots(self, tail, nonnegative):
        # the example the sampled check once passed
        y = Polynomial([-HALF, 1])
        f = PiecewisePoly.single(poly_power(y, 4) - Fraction(1, 10**6) * poly_power(y, 2) + Polynomial([tail]), 0, 1)
        if nonnegative:
            f.assert_nonnegative()
        else:
            with pytest.raises(NegativeDensity, match="^negative interior minimum detected$"):
                f.assert_nonnegative()

    def test_names_a_negative_end(self):
        # x (x - 2) is negative on (0, 1], its piece: the end 1 is the witness
        f = PiecewisePoly([-1, 0, 1], [Polynomial([1]), Polynomial([0, -2, 1])])
        with pytest.raises(NegativeDensity, match="^negative value detected on a sample point$"):
            f.assert_nonnegative()

    def test_workload_densities_need_no_root_isolation(self, monkeypatch):
        # the Bernstein coefficients alone prove f1..f4 and C_2(G), C_3(G);
        # their signs do not change under a dilation of G or a positive
        # factor, so this covers the C_n(G) that compare --p 2 integrates
        def isolate(p, a, b):
            raise AssertionError(f"root isolation on [{a}, {b}]")

        monkeypatch.setattr(piecewise, "_dips_below_zero", isolate)
        _, g = exact_gengauss_p2(Fraction(1))
        for f in exact_iterates()[1:] + (g.convolution_power(2), g.convolution_power(3)):
            f.assert_nonnegative()


class TestConvolution:
    def test_indicator_squared_is_tent(self):
        t = indicator().convolve(indicator())
        assert t.support == (-2, 2)
        assert t.eval(0) == 2
        assert t.eval(1) == 1
        assert t.eval(Fraction(3, 2)) == HALF
        # tent: 2 - |x|
        assert t.eval(Fraction(-1, 3)) == 2 - Fraction(1, 3)

    def test_indicator_cubed_middle_piece(self):
        c = indicator().convolution_power(3)
        assert c.support == (-3, 3)
        # middle piece is 3 - x^2
        assert c.eval(0) == 3
        assert c.eval(HALF) == 3 - Fraction(1, 4)
        assert c.eval(Fraction(2)) == HALF  # (3-|x|)^2/2 on the wings

    def test_commutative(self):
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        g = PiecewisePoly.single(Polynomial([0, 1]), 0, 2)
        assert f.convolve(g) == g.convolve(f)

    def test_associative(self):
        f = indicator(0, 1)
        g = PiecewisePoly.single(Polynomial([0, 1]), 0, 1)
        h = PiecewisePoly.single(Polynomial([1, -1]), 0, 1)
        assert f.convolve(g).convolve(h) == f.convolve(g.convolve(h))

    def test_mass_multiplies(self):
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        g = indicator(0, 3, Fraction(2, 5))
        assert f.convolve(g).mass == f.mass * g.mass

    def test_translation_equivariance(self):
        f = indicator()
        g = PiecewisePoly.single(Polynomial([0, 0, 1]), 0, 1)
        lhs = translate(f, Fraction(1, 3)).convolve(g)
        rhs = translate(f.convolve(g), Fraction(1, 3))
        assert lhs == rhs

    def test_convolution_of_disjoint_supports(self):
        f = indicator(0, 1)
        g = indicator(10, 11)
        c = f.convolve(g)
        assert c.support == (10, 12)
        assert c.eval(11) == 1

    def test_quadratic_bump_triple_convolution_center_piece(self):
        # triple self convolution of 1 - x^2 on [-1, 1]; center values are
        # pinned against independent dblquad integration in test_crosschecks.py
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        K = f.convolution_power(3)
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
            h, gr = f.convolve(g), reflect(g)
            sums = sorted({a + b for a in f.breakpoints for b in g.breakpoints})
            for x in sums + [(lo + hi) / 2 for lo, hi in zip(sums, sums[1:])]:
                assert h.eval(x) == pointwise_product(f, translate(gr, x)).mass

    def test_with_reflection_adjoint(self):
        # int f (T(g) * h) == int (f * g) h for compact supports
        f = PiecewisePoly.single(Polynomial([1, 1]), 0, 1)
        g = PiecewisePoly.single(Polynomial([2, 0, -1]), -1, 1)
        h = indicator(0, 2)
        lhs = pointwise_product(f, reflect(g).convolve(h)).mass
        rhs = pointwise_product(f.convolve(g), h).mass
        assert lhs == rhs


def window_cases(rng, s0, s1, cuts):
    """Windows on a product supported on [s0, s1] with breakpoint sums
    cuts: inside, straddling either end, covering, from a cut, outside,
    touching an end and one-sided.  a and b are off the breakpoint
    lattice unless 13 or 17 cancels."""
    w = s1 - s0
    a, b = sorted(s0 + w * Fraction(int(m), 221) for m in rng.choice(np.arange(1, 221), 2, replace=False))
    c = cuts[int(rng.integers(0, len(cuts) - 1))]
    return [
        (a, b),
        (s0 - Fraction(1, 7), a),
        (b, s1 + Fraction(2, 13)),
        (s0 - 1, s1 + 1),
        (c, b if b > c else s1 + 1),
        (s0 - 2, s0 - 1),
        (s0 - 1, s0),
        (s1, s1 + 1),
        (s1 + Fraction(1, 3), s1 + 2),
        (None, a),
        (b, None),
        (None, None),
    ]


class TestWindowedConvolution:
    """f.convolve(g, ..., lo=lo, hi=hi) is the product restricted to
    [lo, hi], built from the window alone."""

    def test_matches_restricted_product(self, rng, trials):
        far = Fraction(1000)
        for _ in range(trials):
            f, g = rand_piecewise(rng, 4), rand_piecewise(rng, 4)
            for h in (g, f):  # h is f: the self path
                full = f.convolve(h)
                s0, s1 = f.support[0] + h.support[0], f.support[1] + h.support[1]
                cuts = sorted({a + b for a in f.breakpoints for b in h.breakpoints})
                for lo, hi in window_cases(rng, s0, s1, cuts):
                    want = restrict(full, -far if lo is None else lo, far if hi is None else hi)
                    assert f.convolve(h, lo=lo, hi=hi) == want, (f, h, lo, hi)

    def test_k_factors_match_the_chain_of_pairs(self, rng, trials):
        far = Fraction(1000)
        for _ in range(trials):
            factors = []
            while any(q.is_zero() for q in factors) or len({q.support[0] for q in factors}) < 3:
                factors = [rand_piecewise(rng, 3) for _ in range(3)]  # uneven: the leftmost cuts differ
            f, g, h = factors
            for k in (h, f):  # k is f: one jump form for two factors
                full = f.convolve(g).convolve(k)
                s0, s1 = (sum(ends) for ends in zip(f.support, g.support, k.support))
                cuts = sorted({a + b + c for a in f.breakpoints for b in g.breakpoints for c in k.breakpoints})
                for lo, hi in window_cases(rng, s0, s1, cuts):
                    want = restrict(full, -far if lo is None else lo, far if hi is None else hi)
                    assert f.convolve(g, k, lo=lo, hi=hi) == want, (f, g, k, lo, hi)

    def test_k_factors_need_one_and_vanish_with_a_zero_one(self):
        f, g, zero = indicator(), indicator(0, 3, 2), PiecewisePoly.zero()
        with pytest.raises(TypeError):
            f.convolve()
        for factors in ((zero, f, g), (f, zero, g), (f, g, zero), (f, f, zero)):
            assert factors[0].convolve(*factors[1:]) == zero
            assert factors[0].convolve(*factors[1:], lo=-1, hi=1) == zero

    def test_empty_window_raises(self):
        for lo, hi in ((1, 1), (Fraction(1, 2), 0)):
            with pytest.raises(ValueError, match=rf"empty window \[{lo}, {hi}\]"):
                indicator().convolve(indicator(), lo=lo, hi=hi)

    def test_window_missing_the_support_is_zero(self):
        # indicator * indicator lives on [-2, 2]
        for lo, hi in ((-5, -3), (-3, -2), (2, 3), (Fraction(7, 3), 5)):
            assert indicator().convolve(indicator(), lo=lo, hi=hi) == PiecewisePoly.zero()

    def test_one_shift_per_breakpoint_and_cut_below_hi(self, shifts):
        tent = indicator().convolve(indicator())
        for f in exact_iterates() + (tent,):
            bps = f.breakpoints
            shifts[0] = 0
            f.convolve(f, lo=-1, hi=1)
            assert shifts[0] == len(bps) + len({a + b for a in bps for b in bps if a + b < 1})

    def test_exact_kernel_is_one_piece_on_the_unit_interval(self, shifts):
        for f in exact_iterates()[1:]:
            shifts[0] = 0
            K = _kernel_of(f, 2, 2.0)
            # f * f * f on [-1, 1], one chain: f's jumps once, 2 shifts (its
            # cuts -1 and 1); f * f keeps the cuts s with s - 1 < 1, -2 and 0,
            # and the product's cuts below hi = 1, -3 and -1, take one output
            # shift each: 4 in all, where the chain of pairs took 11
            assert shifts[0] == 4
            assert K.breakpoints == (-1, 1) and len(K.pieces) == 1
            assert K == restrict(f.convolution_power(3), -1, 1)


class TestConvolutionPower:
    """f.convolution_power(n, lo, hi) is C_n(f) restricted to [lo, hi]."""

    def test_window_matches_restricted_power(self, rng):
        far = Fraction(1000)
        for f in (indicator(), rand_piecewise(rng, 2), rand_piecewise(rng, 2)):
            for n in (2, 3, 4):
                full = f.convolution_power(n)
                s0, s1 = n * f.support[0], n * f.support[1]
                for lo, hi in window_cases(rng, s0, s1, list(full.breakpoints)):
                    want = restrict(full, -far if lo is None else lo, far if hi is None else hi)
                    assert f.convolution_power(n, lo, hi) == want, (f, n, lo, hi)

    def test_window_outside_the_support_is_zero(self):
        for n in (2, 3, 4):
            assert indicator().convolution_power(n, n, n + 1) == PiecewisePoly.zero()
            assert indicator().convolution_power(n, -n - 2, -n) == PiecewisePoly.zero()

    def test_c1_is_f_and_takes_no_window(self):
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        assert f.convolution_power(1) is f
        for lo, hi in ((-1, 1), (None, 1), (-1, None)):
            with pytest.raises(ValueError, match="window only for n >= 2"):
                f.convolution_power(1, lo, hi)
        with pytest.raises(ValueError):
            f.convolution_power(0)

    def test_kernel_is_the_windowed_triple(self):
        for f in exact_iterates():
            assert _kernel_of(f, 2, 2.0) == f.convolve(f).convolve(f, lo=-1, hi=1)


class TestConvolutionPowerAt:
    """f.convolve_at(*[f] * (n - 1), xs=xs), C_n(f) at the points xs, is
    [f.convolution_power(n).eval(x) for x in xs], from the jump form alone."""

    def test_matches_the_power_at_cuts_ends_and_off_lattice(self, rng, trials):
        for _ in range(trials):
            f = rand_piecewise(rng, 3)
            for n in (2, 3, 4):
                full = f.convolution_power(n)
                (s0, s1), cuts = full.support, full.breakpoints
                xs = list(cuts) + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])] + [
                    s0 - 1, s1 + Fraction(1, 3), Fraction(1, 7), Fraction(-3, 7), (s0 + s1) / 2 + Fraction(1, 11)]
                assert f.convolve_at(*[f] * (n - 1), xs=xs) == [full.eval(x) for x in xs], (f, n)
                # one point at a time: the cuts skipped depend on max(xs)
                for x in (s0, s1, Fraction(1, 7), full.breakpoints[len(full.breakpoints) // 2]):
                    assert f.convolve_at(*[f] * (n - 1), xs=[x]) == [full.eval(x)], (f, n, x)

    def test_edge_cases(self, rng):
        zero, f = PiecewisePoly.zero(), rand_piecewise(rng, 2)
        assert zero.convolve_at(zero, zero, xs=[0, 1, Fraction(1, 7)]) == [0, 0, 0]
        assert f.convolve_at(f, zero, xs=[0, 1]) == [0, 0]
        assert f.convolve_at(f, f, xs=[]) == []
        # one factor is f itself, which convolve_at does not take
        with pytest.raises(TypeError):
            f.convolve_at(xs=[0])

    def test_iterates_match_the_kernel_at_0_and_1(self):
        for f in exact_iterates():
            K = _kernel_of(f, 2, 2.0)
            assert f.convolve_at(f, f, xs=(0, 1)) == [K(0), K(1)]

    def test_exact_solve_fit_shifts_only_the_final_jumps(self, shifts):
        # f4 is one piece on [-1, 1]: its jump form is 2 shifts, where
        # building its kernel on [-1, 1] took 11
        fs = exact_iterates()
        shifts[0] = 0
        for f in fs[:4]:
            iterate_once(f)
        updates = shifts[0]
        shifts[0] = 0
        solution = run_fixed_point(SolverConfig(mode="exact"))
        assert solution.f == fs[4]
        assert shifts[0] - updates == 2


def uneven_factors(rng, k):
    """k nonzero random factors, at least two of them distinct and the
    first two with different left ends, so the chain is uneven."""
    factors = []
    while any(q.is_zero() for q in factors) or len({q.support[0] for q in factors[:2]}) < 2:
        factors = [rand_piecewise(rng, 3) for _ in range(k)]
    return factors


class TestConvolveAt:
    """f.convolve_at(g, *more, xs=xs) is [f.convolve(g, *more).eval(x) for x
    in xs], and with a reflected factor it is the integral of a product."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_the_product_at_cuts_off_lattice_and_outside(self, rng, trials, k):
        for _ in range(trials):
            factors = uneven_factors(rng, k)
            if k > 2 and rng.random() < 0.5:  # a repeated factor among distinct ones
                factors[-1] = factors[0]
            full = factors[0].convolve(*factors[1:])
            (s0, s1), cuts = full.support, full.breakpoints
            xs = list(cuts) + [a + (b - a) * Fraction(int(rng.integers(1, 97)), 97) for a, b in zip(cuts, cuts[1:])]
            xs += [s0 - Fraction(1, 3), s1 + 2, Fraction(1, 7), Fraction(-5, 11)]
            assert factors[0].convolve_at(*factors[1:], xs=xs) == [full.eval(x) for x in xs], factors
            for x in (s0, s1, xs[-1]):
                assert factors[0].convolve_at(*factors[1:], xs=[x]) == [full.eval(x)], (factors, x)

    def test_integral_of_a_product_is_a_point_value(self, rng, trials):
        # int g h = (g * Th)(0), against the pointwise product of uneven g != h
        for _ in range(trials):
            g, h = uneven_factors(rng, 2)
            assert g.convolve_at(h.reflect(), xs=(0,)) == [pointwise_product(g, h).mass], (g, h)
            assert h.convolve_at(g.reflect(), xs=(0,)) == [pointwise_product(g, h).mass], (g, h)


def rand_ints(rng, size, max_bits):
    """size random integers of up to max_bits bits, either sign; a third of them are 0."""
    out = []
    for _ in range(size):
        bits = int(rng.integers(0, max_bits + 1))
        mag = int.from_bytes(rng.bytes(bits // 8 + 1), "little") % (1 << bits)
        out.append(0 if rng.random() < 1 / 3 else int(rng.choice([-1, 1])) * mag)
    return out


class TestJumpChain:
    """_jump_chain takes each distinct factor's jump form to its
    multiplicity by the binomial theorem, and makes each product of two
    order lists one big-integer product (_times, Kronecker substitution):
    the jumps of the pairwise left-to-right chain, exactly."""

    @pytest.mark.parametrize("u, v", [
        ([5], [-3]),
        ([0], [0]),
        ([0, 4, 0], [0, 0, -1, 0]),  # zeros at the ends and inside
        ([3, 0, 0, -7], [2, 0, 5]),
        ([-1, -2, -3, -4], [-5, -6]),  # all negative
        ([-(1 << 500) + 1, 3, -(1 << 499)], [1, -1, 1, -1, 1]),  # very unequal bit lengths
        ([1] * 40, [-(1 << 2000)]),
    ])
    def test_kronecker_matches_schoolbook(self, u, v):
        assert piecewise._times(u, v) == schoolbook_times(u, v)
        assert piecewise._times(v, u) == schoolbook_times(v, u)

    def test_kronecker_at_the_digit_edges(self):
        # u_j = +-2^(b-1) and 2^b - 1 around every byte boundary: the widest
        # sums the digit width allows, and negative digits everywhere, so
        # the borrow runs in and out
        for b in range(1, 80):
            for size in (1, 2, 3, 7, 8, 9, 16):
                edge = [(-1) ** j * (1 << (b - 1)) for j in range(size)]
                full = [(1 << b) - 1] * size
                for u, v in ((edge, edge), (full, full), (full, [-c for c in full]), (edge, full[:1])):
                    assert piecewise._times(u, v) == schoolbook_times(u, v), (b, size)

    def test_kronecker_matches_schoolbook_on_random_lists(self, rng, trials):
        for _ in range(trials):
            u = rand_ints(rng, int(rng.integers(1, 30)), int(rng.integers(0, 400)))
            v = rand_ints(rng, int(rng.integers(1, 30)), int(rng.integers(0, 400)))
            assert piecewise._times(u, v) == schoolbook_times(u, v), (u, v)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_power_matches_the_pairwise_chain(self, rng, n):
        for _ in range(12):
            f = rand_piecewise(rng, 2)
            if f.is_zero():
                continue
            scale = lcm(*(b.denominator for b in f.breakpoints))
            s0, s1 = (n * b * scale for b in f.support)
            for w1 in (inf, s1, s0 + 1, int(rng.integers(s0 + 1, s1 + 1)), s0):
                assert piecewise._jump_chain((f,) * n, scale, w1) == pairwise_jump_chain((f,) * n, scale, w1), (f, n, w1)

    def test_distinct_factors_match_the_pairwise_chain(self, rng):
        for _ in range(12):
            f, g = rand_piecewise(rng, 2), rand_piecewise(rng, 2)
            if f.is_zero() or g.is_zero():
                continue
            scale = lcm(*(b.denominator for b in f.breakpoints + g.breakpoints))
            for factors in ((f, g), (f, g, f), (g, f, f, g, g)):
                s0, s1 = (sum(h.support[i] for h in factors) * scale for i in (0, 1))
                for w1 in (inf, int(rng.integers(s0 + 1, s1 + 1))):
                    assert piecewise._jump_chain(factors, scale, w1) == pairwise_jump_chain(factors, scale, w1)

    def test_c64_of_fc_at_0(self):
        # f_c = (1 - x^2)(1 - c x^2) with c = 5/(8n), n = 32; even, so
        # C_64(f_c)(0) is the integral of C_32(f_c)^2
        c = Fraction(5, 8 * 32)
        f = PiecewisePoly.single(Polynomial([1, 0, -1 - c, 0, c]), -1, 1)
        acc, den = pairwise_jump_chain((f,) * 64, 1, 0)
        want = Fraction(sum(sum(u * (-s) ** m for m, u in enumerate(us)) for s, us in acc.items()), den)
        assert f.convolve_at(*[f] * 63, xs=[0]) == [want]
        # and within 0.5% of the central limit, whose first Edgeworth term,
        # excess kurtosis / (8 * 64), is -0.17% here
        mass = f.mass
        var = pointwise_product(f, PiecewisePoly.single(Polynomial([0, 0, 1]), -1, 1)).mass / mass
        assert abs(float(want / mass ** 64) * sqrt(2 * pi * 64 * float(var)) - 1) < 0.005

    def test_c3_of_one_piece_at_0_and_1_takes_three_products(self, products):
        # J_-1^2, J_-1^3 and J_-1^2 J_1, where the pairwise chain took 6
        for f in (indicator(), exact_iterates()[4]):
            products[0] = 0
            f.convolve_at(f, f, xs=(0, 1))
            assert products[0] == 3

    @pytest.mark.parametrize("s", [1, -1, 2, -3, 0])
    def test_taylor_shift(self, rng, s):
        for _ in range(20):
            cs = rand_ints(rng, int(rng.integers(1, 12)), 60)
            want = sum((poly_power(Polynomial([s, 1]), k) * c for k, c in enumerate(cs)), Polynomial())
            assert piecewise._taylor_shift(cs, s) == [int(c) for c in want.coeffs] + [0] * (len(cs) - len(want.coeffs))


def evenness_oracle(f):
    """f(x) == f(-x) at every breakpoint and piece midpoint of f and of
    its mirror image."""
    cuts = sorted(set(f.breakpoints) | {-b for b in f.breakpoints})
    xs = cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    return all(f.eval(x) == f.eval(-x) for x in xs)


class TestEvenness:
    def test_exact_iterates_are_even(self):
        assert all(evenness_oracle(f) for f in exact_iterates())

    def test_plot_sampler_mirrors_the_full_walk(self):
        for f in exact_iterates():
            full = list(f.sample_lattice(range(-1000, 1001), 1000))
            assert cli._sample_exact_on_unit(f).values.tolist() == full

    def test_plot_sampler_takes_an_uneven_density(self):
        ks = range(-1000, 1001)
        for f in (indicator(-1, 2), translate(exact_iterates()[2], Fraction(1, 5))):
            assert not evenness_oracle(f)
            assert cli._sample_exact_on_unit(f).values.tolist() == reference(f, ks, 1000)


def rand_sampled_piecewise(rng):
    """Up to five pieces of degree <= 9 on breakpoints in [-36, 36] with
    denominators 1..12 (dyadic and not): each piece is zero, even
    (odd coefficients all zero) or general with some zero coefficients,
    so odd pieces of even degree and negative values occur."""
    bps = set()
    while len(bps) < 2:
        bps = {rand_fraction(rng, 36, 12) for _ in range(int(rng.integers(2, 7)))}
    pieces = []
    for _ in range(len(bps) - 1):
        kind, degree = rng.random(), int(rng.integers(0, 10))
        cs = [rand_fraction(rng, 10**4, 10**3) if rng.random() < 0.7 else 0 for _ in range(degree + 1)]
        if kind < 0.2:
            cs = []
        elif kind < 0.5:
            cs[1::2] = [0] * len(cs[1::2])
        pieces.append(Polynomial(cs))
    return PiecewisePoly(sorted(bps), pieces)


def breakpoint_nodes(f, den):
    """Numerators m of nodes m / den just before, on (when b is a node)
    and just after every breakpoint b."""
    out = set()
    for b in f.breakpoints:
        out |= {floor(b * den) - 1, floor(b * den), ceil(b * den), ceil(b * den) + 1}
    return out


def reference(f, ms, den):
    return [float(f.eval(Fraction(m, den))) for m in ms]


class TestSampleLattice:
    """sample_lattice gives float(f.eval(x)) bit for bit at nodes m / den,
    and so do its callers, grid.sample (at node * 2^53 over 2^53) and the
    CLI plot sampler (at k / 1000)."""

    def test_matches_eval_on_breakpoint_lattices(self, rng, trials):
        for _ in range(trials):
            f = rand_sampled_piecewise(rng)
            lo, hi = f.support
            # a lattice with every breakpoint on it, and k/1000
            for den in (lcm(*(b.denominator for b in f.breakpoints)) * int(rng.integers(1, 4)), 1000):
                ms = breakpoint_nodes(f, den) | {floor(lo * den) - 3, ceil(hi * den) + 3}
                ms |= set(rng.integers(floor(lo * den) - 2, ceil(hi * den) + 3, size=20).tolist())
                ms = sorted(ms)
                assert list(f.sample_lattice(ms, den)) == reference(f, ms, den)

    def test_pieces_are_half_open_and_support_end_closed(self):
        f = PiecewisePoly([0, Fraction(1, 3), 1], [Polynomial([1]), Polynomial([2])])
        assert list(f.sample_lattice(range(-1, 5), 3)) == [0.0, 1.0, 2.0, 2.0, 2.0, 0.0]

    def test_grid_sample_matches_eval_on_float_lattices(self, rng, trials):
        for _ in range(max(1, trials // 4)):
            # breakpoints in [-36/64, 36/64]: steps of 2^-10 land on the
            # dyadic ones; 0.01 and 1e-3 are not dyadic
            f = power_int(rand_sampled_piecewise(rng), 2).dilate(Fraction(1, 64))
            for dx in (0.125, 1 / 64, 2.0**-10, 0.01, 1e-3):
                xs = grid.unit_nodes(dx).tolist()
                assert grid.sample(f, dx).values.tolist() == [float(f.eval(Fraction(x))) for x in xs]

    def test_plot_sampler_matches_eval_on_k_over_1000(self, rng):
        f = power_int(rand_sampled_piecewise(rng), 2).dilate(Fraction(1, 3))
        ks = range(-1000, 1001)
        assert cli._sample_exact_on_unit(f).values.tolist() == reference(f, ks, 1000)

    def test_even_and_odd_pieces_of_one_degree(self):
        ms = list(range(-7, 8))
        for cs in ([Fraction(1, 3), 0, -5, 0, Fraction(2, 7)], [Fraction(1, 3), 0, -5, Fraction(-1, 9), 2]):
            f = PiecewisePoly.single(Polynomial(cs), -2, 2)
            assert list(f.sample_lattice(ms, 3)) == reference(f, ms, 3)

    def test_subnormal_result(self):
        f = PiecewisePoly.single(Polynomial([Fraction(1, 3 * 2**1060), Fraction(1, 2**1062)]), -1, 1)
        for den in (5, 4):  # a subnormal value is never certified
            ms = list(range(-den, den + 1))
            vals = list(f.sample_lattice(ms, den))
            assert vals == reference(f, ms, den)
            assert all(0 < v < sys.float_info.min for v in vals)

    @pytest.mark.parametrize("cs", [[2**1100], [0, 2**1100], [1, 0, 2**1100]], ids=["even", "odd", "even-quadratic"])
    def test_overflow_raises_in_both_paths(self, cs):
        f = PiecewisePoly.single(Polynomial(cs), -1, 1)
        with pytest.raises(OverflowError):
            float(f.eval(Fraction(1, 2)))
        with pytest.raises(OverflowError):
            list(f.sample_lattice([1], 2))
        with pytest.raises(OverflowError):
            grid.sample(f, 0.5)
        with pytest.raises(OverflowError):
            cli._sample_exact_on_unit(f)

    def test_rejects_decreasing_nodes(self):
        with pytest.raises(ValueError):
            list(indicator().sample_lattice([0, 2, 1], 4))


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


class TestCertifiedSampling:
    """sample_lattice certifies a double-word Horner node by node and runs
    the exact one only where the rounding is in doubt; either way each
    value is float(f.eval(x)) bit for bit."""

    @pytest.fixture
    def exact_nodes(self, monkeypatch):
        """Every node x (a Fraction) that took the exact value."""
        seen, exact = [], piecewise._exact_float

        def counted(piece, x):
            seen.append(x)
            return exact(piece, x)

        monkeypatch.setattr(piecewise, "_exact_float", counted)
        return seen

    @staticmethod
    def at(ms, den):
        return [Fraction(m, den) for m in ms]

    def check(self, f, ms, den):
        assert bits(list(f.sample_lattice(ms, den))) == bits(reference(f, ms, den))

    # a rounding midpoint of the floats near 1 is r + 2^-53 for r on the
    # float grid; the tiny linear term moves the value off it at x != 0
    @pytest.mark.parametrize("r, tilt, want", [
        (1, 0, 1.0),                                  # on the midpoint: to even, down
        (1 + Fraction(1, 2**52), 0, 1 + 2.0**-51),    # on the midpoint: to even, up
        (1, Fraction(1, 2**250), 1 + 2.0**-52),       # just above: up
        (1, -Fraction(1, 2**250), 1.0),               # just below: down
    ], ids=["even-down", "even-up", "above", "below"])
    def test_rounding_midpoints(self, exact_nodes, r, tilt, want):
        f = PiecewisePoly.single(Polynomial([r + Fraction(1, 2**53), tilt]), -1, 1)
        ms = [1, 2, 3] if tilt else [-3, 0, 3]
        assert list(f.sample_lattice(ms, 4)) == [want] * 3
        # 2^-250 is below the double-word error bound, so none certifies
        assert exact_nodes == self.at(ms, 4)
        self.check(f, ms, 4)

    def test_zeros_at_the_support_ends(self, exact_nodes):
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        vals = list(f.sample_lattice(range(-8, 9), 8))
        assert bits([vals[0], vals[-1]]) == bits([0.0, 0.0])
        assert exact_nodes == self.at([-8, 8], 8)
        self.check(f, range(-8, 9), 8)
        f4 = exact_iterates()[4]
        g = grid.sample(f4, 1e-3)
        assert bits(g.values[[0, -1]]) == bits([0.0, 0.0])

    @pytest.mark.parametrize("c", [
        Fraction(sys.float_info.max),                            # the largest float
        Fraction(sys.float_info.max) + Fraction(2**970 * 2, 5),  # rounds down to it
        Fraction(3, 2) * 2**1022,
    ], ids=["max", "rounds-to-max", "large"])
    def test_near_overflow_keeps_the_float(self, c):
        f = PiecewisePoly.single(Polynomial([c, 0, -c / 4]), -1, 1)
        vals = list(f.sample_lattice(range(-4, 5), 4))
        assert vals[4] == float(c)
        self.check(f, range(-4, 5), 4)

    def test_pieces_beyond_the_unit_interval(self, rng, exact_nodes):
        # |x| up to 5: the error bound grows as X^(n-1)
        cs = [rand_fraction(rng, 99, 97) for _ in range(12)]
        f = PiecewisePoly([-3, Fraction(1, 3), 5], [Polynomial(cs), Polynomial(cs[::2])])
        ms = range(-3 * 64, 5 * 64 + 1)
        self.check(f, ms, 64)
        assert len(exact_nodes) <= len(ms) // 100
        # within 2^-200 of a rounding midpoint at x = 61/8: the error of
        # eleven steps at |x| near 8 must not be bounded as if |x| <= 1
        x, cs = Fraction(61, 8), [Fraction(1, 3 + k) for k in range(1, 12)]
        rest = sum(c * x ** k for k, c in enumerate(cs, 1))
        for tilt, want in ((1, 1 + 2.0**-52), (-1, 1.0)):
            g = PiecewisePoly.single(Polynomial([1 + Fraction(1, 2**53) + tilt * Fraction(1, 2**200) - rest] + cs), 0, 8)
            assert list(g.sample_lattice([61], 8)) == [want]

    def test_large_cancelling_coefficients(self, exact_nodes):
        # 10^40 (x - 1/3)^9: coefficients near 10^40 cancel to values as
        # small as 2^-170 at the nodes next to 1/3
        f = PiecewisePoly.single(poly_power(Polynomial([Fraction(-1, 3), 1]), 9) * 10**40, -1, 1)
        third = 2**40 // 3
        ms = sorted(set(range(-2**40, 2**40 + 1, 2**30)) | set(range(third - 20, third + 21)))
        vals = list(f.sample_lattice(ms, 2**40))
        # near 1/3 the bound certifies nothing, elsewhere it does
        assert 0 < len(exact_nodes) < len(ms) // 2
        assert vals == reference(f, ms, 2**40)

    def test_most_iterate_nodes_are_certified(self, exact_nodes):
        g = grid.sample(exact_iterates()[4], 1e-3)
        assert len(g) == 2001
        assert len(exact_nodes) <= len(g) // 100
        exact_nodes.clear()
        assert len(cli._sample_exact_on_unit(exact_iterates()[4])) == 2001
        assert len(exact_nodes) <= 2001 // 100
        exact_nodes.clear()
        counterexample_check()  # samples its residual at k/1000, k = -1000..1000
        assert len(exact_nodes) <= 2001 // 100

    # the midpoint 1 - 2^-54 between 1 - 2^-53 and 1 is half the gap below
    # 1, a power of two, where the gap above is twice as wide
    @pytest.mark.parametrize("tilt, want", [(-1, 1 - 2.0**-53), (1, 1.0)], ids=["below", "above"])
    def test_halved_gap_below_a_power_of_two(self, exact_nodes, tilt, want):
        v = 1 - Fraction(1, 2**54) + tilt * Fraction(1, 2**80)
        f = PiecewisePoly.single(Polynomial([v]), -1, 1)
        assert list(f.sample_lattice([-4, 0, 4], 4)) == [want] * 3
        assert exact_nodes == []  # one double word holds v to 2^-106
        # c0 + c1 at x = 1, with c1 = 2^40 + 2^-20 + tilt 2^-80: the 2^-80
        # is lost in c1's double word, and the Horner sum reads exactly
        # 1 - 2^-54, the midpoint; only its bound can tell the side
        c1 = 2**40 + Fraction(1, 2**20) + tilt * Fraction(1, 2**80)
        g = PiecewisePoly.single(Polynomial([v - c1, c1]), 0, 2)
        assert list(g.sample_lattice([4], 4)) == [want]
        assert exact_nodes == self.at([4], 4)
        self.check(g, [0, 3, 4, 5, 8], 4)

    def test_plot_nodes_beyond_the_unit_interval(self, rng, exact_nodes):
        cs = [rand_fraction(rng, 10**6, 10**6) for _ in range(14)]
        f = PiecewisePoly([-8, Fraction(-7, 3), 8], [Polynomial(cs), Polynomial(cs[::2])])
        ms = range(-8003, 8004, 7)
        self.check(f, ms, 1000)
        assert len(exact_nodes) <= len(ms) // 100

    @pytest.mark.parametrize("c, certified", [(Fraction(2**990), True), (Fraction(2**995), False),
                                              (Fraction(2**996) - 2**900, False)], ids=["2^990", "2^995", "2^996"])
    def test_coefficients_near_the_split_limit(self, exact_nodes, c, certified):
        # Veltkamp's split multiplies by 2^27 + 1, which overflows from 2^996
        f = PiecewisePoly.single(Polynomial([c, 0, -c / 3]), -1, 1)
        ms = range(-8, 9)
        self.check(f, ms, 8)
        assert exact_nodes == ([] if certified else self.at(ms, 8))

    @pytest.mark.parametrize("a, b, k", [(310, 79, 265), (32, 935, 7), (913, 15, 255)])
    def test_low_words_that_underflow(self, a, b, k):
        # values near 2^-1020 at x = k / 2^40: c1 is near 2^-990, so its low
        # word and those of c1 x fall below 2^-1022, where each rounding is
        # absolute, and only the term U keeps these off the certified path
        f = PiecewisePoly.single(Polynomial([Fraction(a, 3 * 2**1030), Fraction(b, 7 * 2**990)]), -1, 1)
        self.check(f, [k], 2**40)

    def test_random_pieces_against_eval(self, rng):
        # 200 pieces of degree <= 40 (half of them even), at k/1000, at a
        # non-dyadic den and at dyadic nodes of 47 fractional bits
        for _ in range(200):
            cs = [rand_fraction(rng, 10**4, 10**4) * Fraction(2) ** int(rng.integers(-30, 31))
                  for _ in range(int(rng.integers(1, 42)))]
            if rng.random() < 0.5:
                cs[1::2] = [0] * len(cs[1::2])
            lo = rand_fraction(rng, 40, 8)
            f = PiecewisePoly.single(Polynomial(cs), lo, lo + rand_fraction(rng, 40, 8) ** 2 + 1)
            a, b = f.support
            for den in (1000, 7, 2**47):
                ms = sorted(set(rng.integers(floor(a * den) - 1, ceil(b * den) + 2, size=12).tolist()))
                self.check(f, ms, den)

    @pytest.mark.parametrize("lo, dx", [(-1.0, 1e-3), (-0.3, 0.01), (0.1, 1 / 3), (-3.7, 7.3e-3),
                                        (1e-300, 0.25), (-2.0, 0.125)])
    def test_grid_nodes_are_lo_plus_k_dx(self, lo, dx):
        # the float nodes lo + k*dx as integers over one power of two (past
        # 2^53 at three lattices, which then take the exact value); x^2 is
        # strictly monotone on each side of 0, so a moved node shows
        f = PiecewisePoly.single(Polynomial([0, 0, 1]), Fraction(lo), Fraction(lo) + 3)
        xs = [Fraction(x) for x in (lo + np.arange(ceil(3 / dx - 1e-9) + 1) * dx).tolist()]
        den = max(x.denominator for x in xs)
        vals = f.sample_lattice([int(x * den) for x in xs], den)
        assert bits(vals) == bits([float(f.eval(x)) for x in xs])
        assert vals[0] == lo * lo

    def test_nodes_beyond_2_53_are_exact_one_at_a_time(self, exact_nodes):
        # den = 2^53 is exact in floats, and so is every |m| <= 2^53; a node
        # past that, or any node over a den past it, takes the exact value
        f = PiecewisePoly.single(Polynomial([1, Fraction(1, 3)]), -2, 2)
        top = 2**53
        ms = [-top - 1, -top, -top + 1, 0, top // 2, top - 1, top, top + 1, top + 2]
        self.check(f, ms, top)
        assert exact_nodes == self.at([-top - 1, top + 1, top + 2], top)
        exact_nodes.clear()
        self.check(f, [-1, 0, 1], 2 * top)
        assert exact_nodes == self.at([-1, 0, 1], 2 * top)

    def test_grid_nodes_just_past_one(self, exact_nodes):
        # a dx that divides 1 only within unit_nodes' tolerance puts the last
        # node just past 1, beyond 2^53 over 2^53; the others still certify
        dx = 1e-3 * (1 + 1e-10)
        xs = grid.unit_nodes(dx)
        assert xs[-1] > 1
        f2 = exact_iterates()[2]
        assert grid.sample(f2, dx).values.tolist() == [float(f2.eval(Fraction(x))) for x in xs.tolist()]
        assert len(exact_nodes) <= xs.size // 100


class TestSerialization:
    def test_format_rational(self):
        assert format_rational(Fraction(-6, 10)) == "-3/5"
        assert format_rational(Fraction(4)) == "4/1"

    def test_json_uses_num_den_strings(self):
        d = cli._fmt(cli._exact_iterate_json(0, indicator()))["pieces"]
        assert d["breakpoints"] == ["-1/1", "1/1"]
        assert d["pieces"] == [["1/1"]]

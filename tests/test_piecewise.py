"""Exact piecewise-polynomial layer: algebra, convolution, sampling,
serialization."""
import functools
import sys
from fractions import Fraction
from math import ceil, floor, lcm

import numpy as np
import pytest

from renyiconv import cli, grid, piecewise
from instruments import reflect, restrict, translate
from renyiconv.piecewise import (
    NegativeDensity,
    PiecewisePoly,
    Polynomial,
    format_rational,
)
from renyiconv.solver import _kernel_of, iterate_once

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
        assert f.mass == 1
        assert f.integral(1, 2) == Fraction(1, 3)
        assert f.integral(-5, 1) == Fraction(1, 3)

    def test_dilate_preserves_mass_ratio(self):
        f = indicator()
        g = f.dilate(Fraction(3, 2))
        assert g.support == (Fraction(-3, 2), Fraction(3, 2))
        assert g.mass == Fraction(3, 2) * f.mass
        assert g.eval(Fraction(5, 4)) == 1

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
        assert (f * g).eval(HALF) == HALF
        assert (f - f).is_zero

    def test_power_int(self):
        f = PiecewisePoly.single(Polynomial([1, 1]), 0, 1)
        sq = f.power_int(2)
        assert sq.eval(HALF) == Fraction(9, 4)
        assert sq.mass == Fraction(7, 3)

    def test_nonnegativity_guard(self):
        bad = PiecewisePoly.single(Polynomial([Fraction(-1, 100), 0, 1]), -1, 1)
        with pytest.raises(NegativeDensity):
            bad.assert_nonnegative()
        indicator().assert_nonnegative()

    def test_lp_norm_int(self):
        f = indicator(-1, 1, HALF)
        assert f.lp_mass(2) == HALF
        assert f.lp_mass(3) == Fraction(1, 4)


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
                assert h.eval(x) == (f * translate(gr, x)).mass

    def test_with_reflection_adjoint(self):
        # int f (T(g) * h) == int (f * g) h for compact supports
        f = PiecewisePoly.single(Polynomial([1, 1]), 0, 1)
        g = PiecewisePoly.single(Polynomial([2, 0, -1]), -1, 1)
        h = indicator(0, 2)
        lhs = (f * reflect(g).convolve(h)).mass
        rhs = (f.convolve(g) * h).mass
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
    """f.convolve(g, lo, hi) is f * g restricted to [lo, hi], built from
    the window alone."""

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
                    assert f.convolve(h, lo, hi) == want, (f, h, lo, hi)

    def test_empty_window_raises(self):
        for lo, hi in ((1, 1), (Fraction(1, 2), 0)):
            with pytest.raises(ValueError, match=rf"empty window \[{lo}, {hi}\]"):
                indicator().convolve(indicator(), lo, hi)

    def test_window_missing_the_support_is_zero(self):
        # indicator * indicator lives on [-2, 2]
        for lo, hi in ((-5, -3), (-3, -2), (2, 3), (Fraction(7, 3), 5)):
            assert indicator().convolve(indicator(), lo, hi) == PiecewisePoly.zero()

    @pytest.fixture
    def shifts(self, monkeypatch):
        """The number of Taylor shifts made during the test, in a list."""
        count, shift = [0], piecewise._taylor_shift

        def counted(cs, s):
            count[0] += 1
            return shift(cs, s)

        monkeypatch.setattr(piecewise, "_taylor_shift", counted)
        return count

    def test_one_shift_per_breakpoint_and_cut_below_hi(self, shifts):
        tent = indicator().convolve(indicator())
        for f in exact_iterates() + (tent,):
            bps = f.breakpoints
            shifts[0] = 0
            f.convolve(f, -1, 1)
            assert shifts[0] == len(bps) + len({a + b for a in bps for b in bps if a + b < 1})

    def test_exact_kernel_is_one_piece_on_the_unit_interval(self, shifts):
        for f in exact_iterates()[1:]:
            shifts[0] = 0
            K = _kernel_of(f, 2, 2.0)
            # f * f: 2 jump shifts, cuts -2 and 0; (f * f) * f on [-1, 1]:
            # 3 + 2 jump shifts, cuts -3 and -1
            assert shifts[0] == 11
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
            assert _kernel_of(f, 2, 2.0) == f.convolve(f).convolve(f, -1, 1)


def evenness_oracle(f):
    """f(x) == f(-x) at every breakpoint and piece midpoint of f and of
    its mirror image."""
    cuts = sorted(set(f.breakpoints) | {-b for b in f.breakpoints})
    xs = cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    return all(f.eval(x) == f.eval(-x) for x in xs)


class TestEvenness:
    def test_exact_iterates_are_even(self):
        assert all(f.is_even() for f in exact_iterates())

    def test_translated_or_asymmetric_is_not_even(self):
        f4 = exact_iterates()[4]
        assert not translate(f4, Fraction(1, 3)).is_even()
        assert not indicator(-1, 2).is_even()
        assert not PiecewisePoly.single(Polynomial([HALF, HALF]), -1, 1).is_even()
        # mirrored pieces with a jump at +-1: f(1) = 1 but f(-1) = 2
        stairs = PiecewisePoly([-2, -1, 1, 2], [Polynomial([1]), Polynomial([2]), Polynomial([1])])
        assert not stairs.is_even()

    def test_even_shapes(self):
        assert PiecewisePoly.zero().is_even()
        assert indicator().convolve(indicator()).is_even()

    def test_matches_pointwise_definition(self, rng, trials):
        # pieces of f + T(f) always mirror, so its breakpoint values decide;
        # an autocorrelation is even and continuous
        for _ in range(max(1, trials // 4)):
            f = rand_piecewise(rng)
            for h in (f + reflect(f), f.convolve(reflect(f))):
                assert h.is_even() == evenness_oracle(h)
            assert f.convolve(reflect(f)).is_even()

    def test_plot_sampler_mirrors_the_full_walk(self):
        for f in exact_iterates():
            full = list(f.sample_lattice(range(-1000, 1001), 1000))
            assert cli._sample_exact_on_unit(f).values.tolist() == full

    def test_plot_sampler_refuses_an_uneven_density(self):
        for f in (indicator(-1, 2), translate(exact_iterates()[2], Fraction(1, 5))):
            with pytest.raises(ValueError, match="even"):
                cli._sample_exact_on_unit(f)


def rand_sampled_piecewise(rng):
    """Up to five pieces of degree <= 9 on breakpoints in [-3, 3] with
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
    """sample_lattice gives float(f.eval(x)) bit for bit, and so do the
    two callers, grid.sample and the CLI plot sampler."""

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

    # the callers build GridFunctions, which hold nonnegative values
    def test_grid_sample_matches_eval_on_float_lattices(self, rng, trials):
        for _ in range(max(1, trials // 4)):
            f = rand_sampled_piecewise(rng).power_int(2)
            # from a dyadic support start, dyadic steps land on dyadic
            # breakpoints; 0.01 is not dyadic
            for dx in (0.125, 1 / 64, 0.01):
                g = grid.sample(f, dx)
                xs = [g.x0 + k * dx for k in range(len(g))]
                assert g.values.tolist() == [float(f.eval(Fraction(x))) for x in xs]

    def test_plot_sampler_matches_eval_on_k_over_1000(self, rng):
        # the sampler takes even densities: an autocorrelation is one
        g = rand_sampled_piecewise(rng).power_int(2)
        f = g.convolve(reflect(g)).dilate(Fraction(1, 3))
        ks = range(-1000, 1001)
        assert cli._sample_exact_on_unit(f).values.tolist() == reference(f, ks, 1000)

    def test_even_and_odd_pieces_of_one_degree(self):
        ms = list(range(-7, 8))
        for cs in ([Fraction(1, 3), 0, -5, 0, Fraction(2, 7)], [Fraction(1, 3), 0, -5, Fraction(-1, 9), 2]):
            f = PiecewisePoly.single(Polynomial(cs), -2, 2)
            assert list(f.sample_lattice(ms, 3)) == reference(f, ms, 3)

    def test_subnormal_result(self):
        f = PiecewisePoly.single(Polynomial([Fraction(1, 3 * 2**1060), Fraction(1, 2**1062)]), -1, 1)
        for den in (5, 4):  # 4 tries the certified fixed point first
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
            cli._sample_exact_on_unit(f.power_int(2))  # even in every case

    def test_rejects_decreasing_nodes(self):
        with pytest.raises(ValueError):
            list(indicator().sample_lattice([0, 2, 1], 4))


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


class TestCertifiedSampling:
    """At a power-of-two denominator sample_lattice certifies a fixed-point
    Horner and runs the exact one only where the rounding is in doubt;
    either way each value is float(f.eval(x)) bit for bit."""

    @pytest.fixture
    def exact_nodes(self, monkeypatch):
        """The numerators m of every node that took the exact Horner."""
        seen, exact = [], piecewise._exact_value

        def counted(form, m):
            seen.append(m)
            return exact(form, m)

        monkeypatch.setattr(piecewise, "_exact_value", counted)
        return seen

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
        # 2^-250 is below the fixed point's error, so no bracket decides
        assert exact_nodes == ms
        self.check(f, ms, 4)

    def test_zeros_at_the_support_ends(self, exact_nodes):
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        vals = list(f.sample_lattice(range(-8, 9), 8))
        assert bits([vals[0], vals[-1]]) == bits([0.0, 0.0])
        assert exact_nodes == [-8, 8]
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
        f = PiecewisePoly.single(Polynomial([Fraction(-1, 3), 1]).pow_int(9) * 10**40, -1, 1)
        third = 2**40 // 3
        ms = sorted(set(range(-2**40, 2**40 + 1, 2**30)) | set(range(third - 20, third + 21)))
        vals = list(f.sample_lattice(ms, 2**40))
        # near 1/3 no bracket decides, elsewhere one does
        assert 0 < len(exact_nodes) < len(ms) // 2
        assert vals == reference(f, ms, 2**40)

    def test_most_iterate_nodes_are_certified(self, exact_nodes):
        g = grid.sample(exact_iterates()[4], 1e-3)
        assert len(g) == 2001
        assert len(exact_nodes) <= len(g) // 100

    @pytest.mark.parametrize("lo, dx", [(-1.0, 1e-3), (-0.3, 0.01), (0.1, 1 / 3), (-3.7, 7.3e-3),
                                        (1e-300, 0.25), (-2.0, 0.125)])
    def test_grid_nodes_are_lo_plus_k_dx(self, lo, dx):
        # x^2 is strictly monotone on each side of 0, so a moved node shows
        f = PiecewisePoly.single(Polynomial([0, 0, 1]), Fraction(lo), Fraction(lo) + 3)
        g = grid.sample(f, dx)
        xs = [lo + k * dx for k in range(len(g))]
        assert bits(g.values) == bits([float(f.eval(Fraction(x))) for x in xs])
        assert g.values[0] == lo * lo


class TestSerialization:
    def test_format_rational(self):
        assert format_rational(Fraction(-6, 10)) == "-3/5"
        assert format_rational(Fraction(4)) == "4/1"

    def test_json_uses_num_den_strings(self):
        d = cli._fmt(cli._exact_iterate_json(0, indicator()))["pieces"]
        assert d["breakpoints"] == ["-1/1", "1/1"]
        assert d["pieces"] == [["1/1"]]

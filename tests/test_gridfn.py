"""Grid layer: sampling, convolution, norms, rearrangement, CSV."""
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from instruments import dct1_plan, pair_chain, rearrange_symmetric_decreasing
from renyiconv.cli import PLOT_XS, _write_plot_csv
from renyiconv.grid import (
    GridFunction,
    MismatchedSpacing,
    _dct1,
    _smooth_length,
    convolve_grid,
    exact_sum,
    power_real,
    read_csv,
    reflect,
    sample,
    unit_nodes,
)
from renyiconv.piecewise import PiecewisePoly, Polynomial


def bump(dx=1e-2):
    return sample(PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1), dx)


class TestGridFunction:
    def test_nodes_and_mass(self):
        g = GridFunction(0.0, 0.5, np.array([1.0, 1.0, 1.0]))
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0])
        assert g.mass == pytest.approx(1.5)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            GridFunction(0.0, 0.1, np.array([1.0, -1e-3]))

    def test_clamps_float_noise(self):
        g = GridFunction(0.0, 0.1, np.array([1.0, -1e-14]))
        assert g.values[1] == 0.0

    def test_values_read_only(self):
        g = GridFunction(0.0, 0.1, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            g.values[0] = 5.0

    def test_node_index(self):
        g = GridFunction(-1.0, 0.25, np.ones(9))
        assert g.node_index(0.0) == 4
        assert g(0.5) == 1.0
        with pytest.raises(ValueError):
            g.node_index(0.1)

    def test_dilate_rescales_lattice(self):
        g = GridFunction(-1.0, 0.5, np.array([0.0, 1.0, 0.0, 1.0, 0.0]))
        d = g.dilate(2.0)
        assert d.x0 == -2.0
        assert d.dx == 1.0
        assert d.mass == pytest.approx(2.0 * g.mass)


class TestSampling:
    def test_sample_hits_exact_values(self):
        f = PiecewisePoly.single(Polynomial([Fraction(1, 3), 0, Fraction(1, 7)]), -1, 1)
        g = sample(f, 0.25)
        i = g.node_index(0.5)
        assert g.values[i] == pytest.approx(1 / 3 + (1 / 7) * 0.25, abs=1e-15)

    def test_sample_mass_close_to_exact(self):
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        g = sample(f, 1e-3)
        assert g.mass == pytest.approx(float(f.mass), rel=1e-6)

    @pytest.mark.parametrize("dx", [0.5, 0.25, 0.125, 0.01, 1 / 64, 1e-3])
    def test_sample_is_f_at_the_unit_nodes(self, dx):
        # supported in [-1/2, 1], so zero at the nodes below -1/2
        f = PiecewisePoly.single(Polynomial([1, Fraction(1, 3), Fraction(-1, 7)]), Fraction(-1, 2), 1)
        g, xs = sample(f, dx), unit_nodes(dx)
        assert (g.x0, g.dx) == (-1.0, dx)
        assert np.array_equal(g.nodes, xs)
        assert g.values.tolist() == [float(f.eval(Fraction(x))) for x in xs.tolist()]

    @pytest.mark.parametrize("lo, hi", [(-2, 1), (-1, Fraction(3, 2)), (Fraction(1, 2), 3)])
    def test_sample_refuses_support_beyond_the_unit_interval(self, lo, hi):
        with pytest.raises(ValueError, match=r"^grid.sample takes a density supported in \[-1, 1\]$"):
            sample(PiecewisePoly.indicator(lo, hi), 0.25)

    @pytest.mark.parametrize("dx, n", [(1.0, 3), (0.5, 5), (0.125, 17), (1e-3, 2001), (2e-5, 100001)])
    def test_unit_nodes_are_minus_one_plus_k_dx(self, dx, n):
        xs = unit_nodes(dx)
        assert xs.tolist() == [-1.0 + k * dx for k in range(n)]
        assert xs[n // 2] == pytest.approx(0.0, abs=1e-12) and xs[-1] == pytest.approx(1.0)

    def test_unit_nodes_are_integers_over_2_53(self):
        # sample hands the nodes to sample_lattice as node * 2^53 over 2^53
        for dx in [1 / k for k in range(1, 5001)] + [1e-3, 1e-4, 2e-5, 1e-5]:
            m = unit_nodes(dx) * 2.0**53
            assert np.array_equal(m, np.floor(m)), dx

    @pytest.mark.parametrize("dx, message", [
        (0.0, "dx must be positive"),
        (-0.5, "dx must be positive"),
        (math.nan, "dx must be positive"),
        (1e-12, "dx = 1e-12 needs more than 16777216 grid nodes on [-1, 1]"),
        (5e-324, "dx = 5e-324 needs more than 16777216 grid nodes on [-1, 1]"),
        (math.inf, "dx must divide 1 so that 0 and +-1 are grid nodes"),
        (0.3, "dx must divide 1 so that 0 and +-1 are grid nodes"),
        (0.0007, "dx must divide 1 so that 0 and +-1 are grid nodes"),
    ])
    def test_unit_nodes_rules(self, dx, message):
        # the node limit is checked before a node is made: 2e12 floats at 1e-12
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            unit_nodes(dx)


class TestSharedInterface:
    """An exact density and its samples answer the same questions."""

    def test_same_answers_in_both_lanes(self):
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        g = sample(f, 1e-3)
        assert g.support == (-1.0, 1.0) and f.support == (-1, 1)
        assert g(0) == f(0) == 1
        assert g(0.5) == float(f(Fraction(1, 2)))
        for fh, gh in ((f, g), (f * Fraction(3), g * 3.0), (f.dilate(2), g.dilate(2.0)),
                       (f.convolution_power(2), g.convolution_power(2)),
                       (f.convolution_power(3), g.convolution_power(3))):
            assert gh.mass == pytest.approx(float(fh.mass), rel=1e-5)
            assert gh.lp_mass(2) == pytest.approx(float(fh.lp_mass(2)), rel=1e-5)

    def test_value_equality(self):
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        g, h = sample(f, 0.25), sample(f, 0.25)
        assert f == PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1
        assert g != g * 2.0 and g != g.dilate(2.0)
        assert g != f and g != sample(f, 0.125)


class TestConvolutionPower:
    """g.convolution_power(n, lo, hi) is the one windowed product of n
    copies of g."""

    def test_is_the_windowed_product(self, rng):
        g = GridFunction(-0.3, 0.01, rng.uniform(0, 1, 97))
        for n in (2, 3, 4):
            x0, last = n * g.x0, n * g.x0 + n * 96 * g.dx
            for lo, hi in ((x0 + 5 * g.dx, x0 + 40 * g.dx), (0.0, 0.5), (None, x0 + 7 * g.dx), (0.2, None)):
                want = convolve_grid(*[g] * n, lo=lo, hi=hi)
                got = g.convolution_power(n, lo, hi)
                assert got.x0 == want.x0 and np.array_equal(got.values, want.values), (n, lo, hi)
            # the default is the whole output, at the length of a window
            full = g.convolution_power(n)
            assert len(full) == n * 96 + 1 and full.x0 == pytest.approx(x0) and full.x_end == pytest.approx(last)
            assert np.array_equal(full.values, convolve_grid(*[g] * n, hi=last).values)

    def test_c1_is_g_and_takes_no_window(self):
        g = bump()
        assert g.convolution_power(1) is g
        for lo, hi in ((-1.0, 1.0), (None, 1.0), (-1.0, None)):
            with pytest.raises(ValueError, match="window only for n >= 2"):
                g.convolution_power(1, lo, hi)
        with pytest.raises(ValueError):
            g.convolution_power(0)


class TestConvolveGrid:
    def test_fft_matches_direct(self, rng):
        for _ in range(10):
            a = GridFunction(-1.0, 0.01, rng.uniform(0, 1, rng.integers(50, 400)))
            b = GridFunction(0.5, 0.01, rng.uniform(0, 1, rng.integers(50, 400)))
            c = convolve_grid(a, b)
            assert c.x0 == a.x0 + b.x0 and c.dx == a.dx
            assert np.max(np.abs(c.values - _chain([a, b]))) < 1e-12

    def test_mass_multiplies(self):
        a = bump()
        c = convolve_grid(a, a)
        assert c.mass == pytest.approx(a.mass ** 2, rel=1e-12)

    def test_support_endpoints_add(self):
        a = GridFunction(-1.0, 0.1, np.ones(21))
        b = GridFunction(2.0, 0.1, np.ones(11))
        c = convolve_grid(a, b)
        assert c.x0 == pytest.approx(1.0)
        assert c.x_end == pytest.approx(4.0)

    def test_matches_exact_convolution(self):
        f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
        K = f.convolution_power(3)
        dx = 1e-3
        Kg = pair_chain(sample(f, dx), 3)
        xs = [-2.5, -1.0, -0.25, 0.0, 0.5, 1.75]
        for x in xs:
            i = Kg.node_index(x)
            assert Kg.values[i] == pytest.approx(float(K.eval(Fraction(x))), abs=2e-6)

    def test_spacing_mismatch_raises(self):
        a = GridFunction(0.0, 0.1, np.ones(5))
        b = GridFunction(0.0, 0.2, np.ones(5))
        with pytest.raises(MismatchedSpacing):
            convolve_grid(a, b)


def _chain(factors):
    """np.convolve of the factors' samples, scaled like the grid product."""
    out = factors[0].values
    for h in factors[1:]:
        out = np.convolve(out, h.values)
    return factors[0].dx ** (len(factors) - 1) * out


def _factor(rng, dx, size):
    """Random asymmetric samples starting at a random node."""
    return GridFunction(dx * int(rng.integers(-300, 300)), dx, rng.uniform(0, 1, size) ** 3)


def _small_factors(rng):
    """Factors of 100, 100 and 40 nodes: 238 output nodes."""
    a = _factor(rng, 0.1, 100)
    return [a, reflect(a), _factor(rng, 0.1, 40)]


def _factors(rng, k):
    """Random factor a, its reflection and k - 2 more random factors."""
    dx = 0.01
    a = _factor(rng, dx, 300)
    return [a, reflect(a)] + [_factor(rng, dx, int(rng.integers(150, 400))) for _ in range(k - 2)]


class TestConvolveProduct:
    """The n-factor product, windowed or not, against np.convolve of the
    same samples, to 1e-12 relative to the peak."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_full_product(self, rng, k):
        factors = _factors(rng, k)
        ref = _chain(factors)
        c = convolve_grid(*factors)
        assert len(c) == ref.size
        assert c.x0 == pytest.approx(sum(h.x0 for h in factors), abs=1e-12)
        assert np.max(np.abs(c.values - ref)) <= 1e-12 * ref.max()

    @pytest.mark.parametrize("k", [2, 3, 4, "small"])
    def test_off_centre_windows(self, rng, k):
        factors = _small_factors(rng) if k == "small" else _factors(rng, k)
        dx = factors[0].dx
        ref = _chain(factors)
        x0 = sum(h.x0 for h in factors)
        windows = [(20, 150)]
        for _ in range(6):
            w0 = int(rng.integers(0, ref.size // 2))
            windows.append((w0, int(rng.integers(w0, ref.size))))
        for w0, w1 in windows:
            c = convolve_grid(*factors, lo=x0 + w0 * dx, hi=x0 + w1 * dx)
            assert len(c) == w1 - w0 + 1
            assert c.x0 == pytest.approx(x0 + w0 * dx, abs=1e-9)
            assert np.max(np.abs(c.values - ref[w0:w1 + 1])) <= 1e-12 * ref.max()
        head = convolve_grid(*factors, hi=x0 + 10 * dx)
        tail = convolve_grid(*factors, lo=x0 + (ref.size - 11) * dx)
        assert np.max(np.abs(head.values - ref[:11])) <= 1e-12 * ref.max()
        assert np.max(np.abs(tail.values - ref[-11:])) <= 1e-12 * ref.max()

    @pytest.mark.parametrize("sizes, w0, width, bound", [
        # n_out - w0 = w0 + W = 1200 = 2^4 3 5^2
        ((534, 534, 534), 400, 800, 1200),
        # each term of the bound alone: n_out - w0, w0 + W, the longest
        # factor (1000 = 2^3 5^3)
        ((600, 601), 0, 2, 1200),
        ((600, 601), 1198, 2, 1200),
        ((1000, 10), 500, 2, 1000),
    ])
    def test_window_at_exact_alias_bound(self, rng, irfft_lengths, sizes, w0, width, bound):
        dx = 0.01
        factors = [GridFunction(-1.0, dx, rng.uniform(0, 1, m)) for m in sizes]
        ref = _chain(factors)
        x0 = sum(h.x0 for h in factors)
        c = convolve_grid(*factors, lo=x0 + w0 * dx, hi=x0 + (w0 + width - 1) * dx)
        assert irfft_lengths == [bound]
        assert np.max(np.abs(c.values - ref[w0:w0 + width])) <= 1e-12 * ref.max()

    def test_transform_length_is_least_5_smooth(self):
        def smooth(m):
            for q in (2, 3, 5):
                while m % q == 0:
                    m //= q
            return m == 1

        for n in range(1, 3000):
            L = _smooth_length(n)
            assert L >= n and smooth(L)
            assert not any(smooth(m) for m in range(n, L))

    def test_plain_pair_keeps_power_of_two_bits(self, rng, irfft_lengths):
        # the exact solve's residual and the x^6 estimate are pinned to these
        dx = 0.01
        a = GridFunction(-1.0, dx, rng.uniform(0, 1, 700))
        b = GridFunction(0.5, dx, rng.uniform(0, 1, 450))
        for f, g in ((a, b), (a, a)):
            n_out = len(f) + len(g) - 1
            L = 1 << (n_out - 1).bit_length()
            expected = dx * np.fft.irfft(np.fft.rfft(f.values, L) * np.fft.rfft(g.values, L), L)[:n_out]
            irfft_lengths.clear()
            assert np.array_equal(convolve_grid(f, g).values, expected)
            assert irfft_lengths == [L]
            # any window, even the whole output, takes the 5-smooth length
            irfft_lengths.clear()
            convolve_grid(f, g, lo=f.x0 + g.x0)
            assert irfft_lengths == [_smooth_length(n_out)] and _smooth_length(n_out) < L

    def test_shared_spectra_memo(self, rng, rfft_lengths):
        # the stationarity kernel's pattern: C_2(a) in full hands a's
        # spectrum over to the next product with a, which takes it; all at
        # the 5-smooth L = 600 >= 2N - 1 of the rfft route (a is not even)
        dx, N = 0.01, 300
        a = GridFunction(-1.23, dx, rng.uniform(0, 1, N))
        t = GridFunction(0.4, dx, rng.uniform(0, 1, 2 * N - 1))
        s = GridFunction(0.1, dx, rng.uniform(0, 1, 100))
        L = _smooth_length(2 * N - 1)
        lo, lo2 = a.x0 + t.x0 + (N - 1) * dx, 2 * a.x0 + s.x0 + 98 * dx

        def products(spectra=None):
            yield convolve_grid(a, a, lo=2 * a.x0, spectra=spectra)
            yield convolve_grid(a, t, lo=lo, hi=lo + (N - 1) * dx, spectra=spectra)
            yield convolve_grid(a, a, s, lo=lo2, hi=lo2 + dx, spectra=spectra)

        plain = list(products())
        rfft_lengths.clear()
        memo = {}
        shared = products(memo)
        first = [next(shared)]
        assert list(memo) == [(id(a.values), L, False)] and memo[id(a.values), L, False][0] is a.values
        kept = memo[id(a.values), L, False][1].copy()
        first.append(next(shared))
        # taken, not transformed again; t's spectrum, used once, is not kept
        assert memo == {} and rfft_lengths == [L] * 2
        first.append(next(shared))
        # a is transformed again, and stored since the product repeats it
        assert rfft_lengths == [L] * 4 and list(memo) == [(id(a.values), L, False)]
        assert np.array_equal(memo[id(a.values), L, False][1], kept)
        for x, y in zip(plain, first):
            assert x == y

    def test_rejects_bad_windows_and_spacing(self):
        a = GridFunction(0.0, 0.1, np.ones(5))
        with pytest.raises(ValueError):
            convolve_grid(a, a, lo=0.05)
        with pytest.raises(ValueError):
            convolve_grid(a, a, lo=0.5, hi=0.3)
        with pytest.raises(ValueError):
            convolve_grid(a, a, hi=2.0)
        with pytest.raises(MismatchedSpacing):
            convolve_grid(a, a, GridFunction(0.0, 0.2, np.ones(5)))



def _palindrome(rng, dx, half):
    """Random even samples of 2 half + 1 nodes, centred on a random node."""
    right = rng.uniform(0, 1, half + 1) ** 3
    return GridFunction(dx * int(rng.integers(-300, 300)), dx, np.concatenate((right[:0:-1], right)))


def _rfft_route(factors, w0, w1):
    """convolve_grid's rfft route, for distinct factors: one rfft each at
    the least 5-smooth L, multiplied left to right, one irfft, the window,
    the clamp relative to its peak and the dx scaling, as the route ran
    before the cosine route was added."""
    dx, k = factors[0].dx, len(factors)
    n_out = sum(len(h) for h in factors) - k + 1
    L = _smooth_length(max(n_out - w0, w1 + 1, *(len(h) for h in factors)))
    prod = np.fft.rfft(factors[0].values, L)
    for h in factors[1:]:
        prod = prod * np.fft.rfft(h.values, L)
    out = np.fft.irfft(prod, L)[w0:w1 + 1]
    clamp = 1e-10 * max(1.0, float(out.max()), -float(out.min()))
    out[(out > -clamp) & (out < 0.0)] = 0.0
    return GridFunction(sum(h.x0 for h in factors) + w0 * dx, dx, dx ** (k - 1) * out)


class TestCosineRoute:
    """Products of odd-length palindromes on a window symmetric about the
    output's centre run on DCT-Is of half the period; every other product
    keeps the rfft route's bits."""

    @pytest.mark.parametrize("half", [
        1, 2, 31, 32,   # at and below the base case
        45, 1125,       # odd: 2-adic valuation 0
        70, 2250,       # valuation 1
        96, 1440,       # valuation 5, as convolve_grid's 32 q with q odd
        3072, 15360,    # valuation 10
        1 << 12])       # valuation 12, split down to the base case
    def test_dct1_is_rfft_of_even_extension(self, rng, half):
        x = rng.uniform(-1, 1, half + 1)
        twiddles = 2 * np.exp(-1j * np.pi * np.arange(half // 4 + 1) / half)
        ref = np.fft.rfft(np.concatenate((x, x[-2:0:-1]))).real
        got = _dct1(x, twiddles)
        assert got.shape == ref.shape == (half + 1,)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_rfft_route_and_np_convolve(self, rng, k, irfft_lengths):
        dx = 0.01
        factors = [_palindrome(rng, dx, int(h)) for h in rng.choice(np.arange(20, 400), k, replace=False)]
        ref = _chain(factors)
        H = ref.size // 2
        x0 = sum(h.x0 for h in factors)
        for r in [H, 1] + [int(r) for r in rng.integers(2, H, 4)]:
            # the full output too needs a window: a plain pair is pinned
            irfft_lengths.clear()
            c = convolve_grid(*factors, lo=x0 + (H - r) * dx, hi=x0 + (H + r) * dx)
            assert irfft_lengths == [] and len(c) == 2 * r + 1
            assert c.x0 == pytest.approx(x0 + (H - r) * dx, abs=1e-9)
            assert np.array_equal(c.values, c.values[::-1])
            assert np.max(np.abs(c.values - ref[H - r:H + r + 1])) <= 1e-12 * ref.max()
            rfft = _rfft_route(factors, H - r, H + r)
            assert np.max(np.abs(c.values - rfft.values)) <= 1e-12 * ref.max()

    @pytest.mark.parametrize("halves, r, half", [
        # 2P = H + r + 1 = 640: P = 320 = 32 * 10, exactly at the bound
        ((150, 100, 80), 309, 320),
        # one node more needs 2P >= 641: P = 384 = 32 * 12
        ((150, 100, 80), 310, 384),
        # the longest factor sets the bound, 2 * 159 + 1 <= 2P = 320
        ((159, 1), 1, 160),
    ])
    def test_window_at_exact_alias_bound(self, rng, rfft_lengths, halves, r, half):
        dx = 0.01
        factors = [_palindrome(rng, dx, h) for h in halves]
        ref = _chain(factors)
        H, x0 = sum(halves), sum(h.x0 for h in factors)
        c = convolve_grid(*factors, lo=x0 + (H - r) * dx, hi=x0 + (H + r) * dx)
        assert rfft_lengths == dct1_plan(half) * (len(factors) + 1)
        assert np.max(np.abs(c.values - ref[H - r:H + r + 1])) <= 1e-12 * ref.max()

    def test_memo_changes_no_bits(self, rng, rfft_lengths):
        # the stationarity kernel's two products of an even q: C_2(q) in
        # full, then q with an even t on the window that reflects onto q's
        # nodes, both at the half period P = 320, 2P >= 2 * 300 + 1
        dx, half = 0.01, 150
        q = _palindrome(rng, dx, half)
        t = _palindrome(rng, dx, 2 * half)

        lo = q.x0 + t.x0 + 2 * half * dx  # q's width about the centre

        def products(spectra=None):
            yield q.convolution_power(2, spectra=spectra)
            yield convolve_grid(q, t, lo=lo, hi=lo + 2 * half * dx, spectra=spectra)

        plain = list(products())
        rfft_lengths.clear()
        memo = {}
        shared = products(memo)
        first = [next(shared)]
        assert list(memo) == [(id(q.values), 640, True)] and memo[id(q.values), 640, True][0] is q.values
        first.append(next(shared))
        # q is taken from the memo: DCT-Is of q, the inverse, t, the inverse
        assert memo == {} and rfft_lengths == dct1_plan(320) * 4
        for x, y in zip(plain, first):
            assert x == y

    def test_other_products_keep_the_rfft_route(self, rng, irfft_lengths):
        dx = 0.01
        factors = [_palindrome(rng, dx, h) for h in (120, 80, 45)]
        odd = factors[0].values.copy()
        odd[3] += 1e-3
        for fs, w0, margin in [
            ([GridFunction(factors[0].x0, dx, odd)] + factors[1:], 100, 100),  # one factor not a palindrome
            ([GridFunction(0.0, dx, np.ones(50))] + factors[1:], 100, 100),  # a palindrome of even length
            (factors, 100, 99),  # a window one node off the centre
            (factors, 0, 1),
        ]:
            x0, n_out = sum(h.x0 for h in fs), sum(len(h) for h in fs) - len(fs) + 1
            w1 = n_out - 1 - margin
            irfft_lengths.clear()
            c = convolve_grid(*fs, lo=x0 + w0 * dx, hi=x0 + w1 * dx)
            assert len(irfft_lengths) == 1
            assert c == _rfft_route(fs, w0, w1)
        # a plain pair of even factors keeps its power-of-two rfft route
        irfft_lengths.clear()
        convolve_grid(factors[0], factors[1])
        assert irfft_lengths == [1 << (len(factors[0]) + len(factors[1]) - 2).bit_length()]

def fraction_sum(values):
    return float(sum(map(Fraction, values.tolist()), Fraction(0)))


class TestExactSum:
    """exact_sum is math.fsum bit for bit: the correctly rounded sum."""

    @staticmethod
    def cases(rng):
        tiny = sys.float_info.min
        return {
            "zeros": np.zeros(7),
            "negative-zeros": np.array([-0.0, 0.0, -0.0]),
            "subnormals": np.array([5e-324, 5e-324, tiny / 3, -tiny / 7, tiny]),
            "near-1e308": np.array([1e308, -1.7e308, 1.7e308, -1e308, 1e308, 3.0, -5e-324]),
            "midpoint": np.array([1.0, 2.0**-53, 2.0**-106]),
            "below-midpoint": np.array([1.0, 2.0**-53, -(2.0**-106)]),
            "cancelling": np.array([1e100, 1.0, -1e100, 2.0**-60]),
            "wide": np.exp(rng.uniform(-700, 700, 3000)) * rng.choice([-1.0, 1.0], 3000),
            "grid-like": rng.random(2001) ** 8,
        }

    def test_matches_fsum_and_fraction_sum(self, rng):
        for name, a in self.cases(rng).items():
            got = exact_sum(a)
            assert got == fraction_sum(a), name
            assert np.float64(got).view(np.int64) == np.float64(math.fsum(a.tolist())).view(np.int64), name

    def test_several_blocks(self, rng):
        a = rng.random((1 << 14) * 5 + 3) * 10.0 ** rng.integers(-300, 300, (1 << 14) * 5 + 3)
        assert exact_sum(a) == math.fsum(a.tolist())

    def test_total_beyond_the_float_range_raises(self):
        a = np.array([1e308, 1e308])
        with pytest.raises(OverflowError):
            math.fsum(a.tolist())
        with pytest.raises(OverflowError):
            exact_sum(a)

    def test_finite_total_past_an_overflowing_partial_sum(self):
        # math.fsum gives up when a partial sum overflows; the total is finite
        a = np.array([1e308, 1.7e308, -1.5e308])
        with pytest.raises(OverflowError):
            math.fsum(a.tolist())
        assert exact_sum(a) == fraction_sum(a) == 1.2e308

    def test_non_finite_input_goes_to_fsum(self):
        assert exact_sum(np.array([np.inf, 1.0])) == math.inf
        assert math.isnan(exact_sum(np.array([1.0, np.nan])))
        assert exact_sum(np.array([])) == 0.0
        g = GridFunction(0.0, 1.0, np.array([1e200, 1.0]))
        with np.errstate(over="ignore"):
            assert g.lp_mass(2) == math.inf  # the power overflows

    def test_mass_and_lp_mass_are_fsum_bits(self, rng):
        g = GridFunction(-1.0, 1e-3, rng.random(2001) ** 3)
        assert g.mass == g.dx * math.fsum(g.values.tolist())
        for p in (1.5, 2.0, 3.0):
            assert g.lp_mass(p) == g.dx * math.fsum(np.power(g.values, p).tolist())


class TestNormsAndPowers:
    def test_lp_norm_real_int_case(self):
        g = bump(1e-3)
        exact = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1).lp_mass(2)
        assert g.lp_mass(2.0) == pytest.approx(float(exact), rel=1e-6)

    def test_power_real(self):
        g = GridFunction(0.0, 1.0, np.array([0.0, 4.0, 9.0]))
        h = power_real(g, 0.5)
        assert np.allclose(h.values, [0.0, 2.0, 3.0])

    def test_reflect(self):
        g = GridFunction(0.0, 0.5, np.array([1.0, 2.0, 3.0]))
        r = reflect(g)
        assert r.x0 == pytest.approx(-1.0)
        assert np.allclose(r.values, [3.0, 2.0, 1.0])


class TestRearrangement:
    def test_preserves_mass_and_lp(self, rng):
        for _ in range(20):
            g = GridFunction(-1.0, 0.02, rng.uniform(0, 1, 101))
            r = rearrange_symmetric_decreasing(g)
            assert r.mass == pytest.approx(g.mass, rel=1e-12)
            for p in (2.0, 3.0, 1.5):
                assert r.lp_mass(p) == pytest.approx(g.lp_mass(p), rel=1e-12)

    def test_result_is_symmetric_decreasing(self, rng):
        g = GridFunction(-1.0, 0.02, rng.uniform(0, 1, 101))
        r = rearrange_symmetric_decreasing(g)
        v = r.values
        c = len(v) // 2
        left = v[:c + 1]
        assert np.all(np.diff(left) >= 0)
        assert np.all(v[c:] <= v[c::-1].max())
        assert np.all(np.diff(v[c:]) <= 0)

    def test_idempotent_on_sorted_input(self):
        g = GridFunction(-1.0, 0.5, np.array([0.1, 0.5, 1.0, 0.5, 0.1]))
        r = rearrange_symmetric_decreasing(g)
        assert np.allclose(r.values, g.values)


class TestCsv:
    def test_round_trip_lossless(self, tmp_path, rng):
        g = GridFunction(-0.73, 1e-3, rng.uniform(0, 1, 501))
        path = tmp_path / "g.csv"
        _write_plot_csv(str(path), g.nodes, g.values)
        h = read_csv(str(path))
        assert h.x0 == g.x0
        assert h.dx == pytest.approx(g.dx, rel=1e-12)
        assert np.array_equal(h.values, g.values)

    def test_plot_abscissa_text_is_the_per_row_text(self, tmp_path, rng):
        vals = rng.random(PLOT_XS.size)
        _write_plot_csv(str(tmp_path / "plot.csv"), PLOT_XS, vals)
        _write_plot_csv(str(tmp_path / "rows.csv"), PLOT_XS.copy(), vals)
        text = (tmp_path / "plot.csv").read_text()
        assert text == (tmp_path / "rows.csv").read_text()
        assert text.splitlines()[1:] == [f"{x:.17g},{v:.17g}" for x, v in zip(PLOT_XS.tolist(), vals.tolist())]

    def test_round_trip_bit_exact(self, tmp_path, rng):
        extremes = [5e-324, 2.2250738585072014e-308, -0.0, sys.float_info.max]
        vals = np.concatenate([extremes, rng.uniform(0, 1, 500), 10.0 ** rng.uniform(-320, 308, 500)])
        xs = -0.73 + 1e-3 * np.arange(vals.size)
        path = tmp_path / "g.csv"
        _write_plot_csv(str(path), xs, vals)
        h = read_csv(str(path))
        assert np.array_equal(h.values.view(np.int64), vals.view(np.int64))
        assert h.x0 == xs[0]

    # one grid, x = -0.5, 0, 0.5, in spellings the CLI does not write
    @pytest.mark.parametrize("text", [
        "x,value\r\n-0.5,0.1\r\n0,2.5e-300\r\n0.5,0\r\n",
        "x,value\n-0.5,0.1\n\n0,2.5e-300\n0.5,0\n\n",
        " X , Value \n -0.5 , 0.1 \n0 ,2.5e-300\n0.5, 0\n",
        '"x","value"\n"-0.5","0.1"\n"0",2.5e-300\n0.5,"0"\n',
        "x,value,note\n-0.5,0.1,a\n0,2.5e-300,b\n0.5,0,\n",
        "x,value\n-5e-1,1e-1\n0E0,25E-301\n5e-1,0e+0\n",
    ], ids=["crlf", "blank-lines", "spaces", "quoted", "third-column", "short-exponents"])
    def test_reads_other_spellings(self, tmp_path, text):
        path = tmp_path / "g.csv"
        path.write_bytes(text.encode())
        expected = GridFunction(float("-0.5"), (float("0.5") - float("-0.5")) / 2,
                                [float("0.1"), float("2.5e-300"), float("0")])
        assert read_csv(str(path)) == expected

    @pytest.mark.parametrize("text, match", [
        ("", "expected header row"),
        ("x,value\n0,1\n0.1\n", None),
        # a NaN x fails the spacing test wherever it stands
        ("x,value\n0,1\nnan,1\n0.2,1\n", "not uniform"),
        ("x,value\n0,1\n0.1,1\nnan,1\n", "not uniform"),
    ], ids=["empty", "short-row", "nan-x", "nan-x-last"])
    def test_rejects_malformed(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_csv(str(path))

    # numpy counts rows without blank lines, 0- or 1-based by error kind
    @pytest.mark.parametrize("text, line", [
        ("x,value\n0,1\n0.1\n0.2,1\n", 3),
        ("x,value\n0,1\n   \n0.2,1\n", 3),
        ("x,value\n0,1\n\n\n0.1\n", 5),
        ("x,value\nzz,1\n0.1,1\n", 2),
        ("x,value\r\n0,1\r\n0.1,1\r\n0.2,x\r\n", 4),
        ('x,value\n0,1\n"0.1\n",1\n0.2,zz\n', 5),
    ], ids=["short-row", "blank-ish", "after-blank-lines", "first-row", "crlf", "after-quoted-newline"])
    def test_bad_row_names_its_file_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=rf"\bline {line}\b") as err:
            read_csv(str(path))
        assert not re.search(r"\brow \d", str(err.value))

    def test_header_only_raises_without_warning(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,value\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need at least two rows"):
                read_csv(str(path))

    def test_rejects_nonuniform(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,value\n0,1\n0.1,1\n0.3,1\n")
        with pytest.raises(ValueError):
            read_csv(str(path))

"""Exact algebra of compactly supported piecewise polynomials over rationals.

All coefficients and breakpoints are `fractions.Fraction`; every operation
(evaluation, arithmetic, convolution, differentiation, integration, norms)
is carried out without any floating point, so results are reproducible
bit-for-bit.  Values are immutable after construction and all operations
are pure functions.

The hot kernels work on integer numerators over a common denominator:
Horner's rule for evaluation, and for convolution the truncated-power
("jump") form of de Boor, A Practical Guide to Splines, with integer Taylor
shifts (von zur Gathen and Gerhard, ISSAC 1997): one shift per breakpoint
of each factor, of the difference of the pieces meeting there, and one
per output cut.  A convolution takes a window [lo, hi] and builds only
that part of the product: the terms that start at or beyond hi are never
formed, and pieces below lo are summed through but not built; see
PiecewisePoly.convolve.

Floats leave this module through one route, PiecewisePoly.sample_lattice:
at nodes m / den sharing one denominator, each value is an integer Horner
sum divided once by an integer, which CPython rounds correctly, so it is
the float of the exact value without building a Fraction per node.  At a
power-of-two den, as at every float node, a fixed-point Horner with a
proven error bound comes first, and the exact sum runs only where that
bound leaves the rounding in doubt (Ziv, ACM TOMS 17, 1991).
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import ceil, factorial, inf, lcm, ldexp
from typing import Iterable, Iterator, Union

RationalLike = Union[Fraction, int, str]

# assert_nonnegative: samples per piece, bisection steps per sign change
_NONNEG_SAMPLES = 64
_NONNEG_BISECT_STEPS = 30
# sample_lattice's fixed-point Horner: fraction bits, far below the 1074
# of the smallest subnormal, so a certified value is never 0 or subnormal
_FIXED_BITS = 192


class NegativeDensity(ValueError):
    """Raised when an operation requiring a nonnegative function detects a
    negative value."""


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and "num/den" strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(q: Fraction) -> str:
    """Serialize a Fraction as the interchange string "num/den"."""
    return f"{q.numerator}/{q.denominator}"


class Polynomial:
    """Univariate polynomial with Fraction coefficients in ascending degree.

    Trailing zero coefficients are stripped; the zero polynomial has an
    empty coefficient tuple.
    """

    # _ints: (numerators, common denominator) of coeffs, made on first call
    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of x^k (0 if k exceeds the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact value, by Horner's rule on integers: with x = p/q and
        coefficients n_k / den, the value is sum n_k p^k q^(d-k) / (den q^d)."""
        x = as_fraction(x)
        if not self.coeffs:
            return Fraction(0)
        nums, den = self._integers()
        p, q = x.numerator, x.denominator
        acc, qk = nums[-1], 1
        for n in reversed(nums[:-1]):
            qk *= q
            acc = acc * p + n * qk
        return Fraction(acc, den * qk)

    def _integers(self) -> tuple[list[int], int]:
        """(numerators, common denominator) of the coefficients: coefficient
        k is numerators[k] / denominator.  Made on first call and kept."""
        if self._ints is None:
            den = lcm(*(c.denominator for c in self.coeffs))
            object.__setattr__(self, "_ints", ([c.numerator * (den // c.denominator) for c in self.coeffs], den))
        return self._ints

    def _lattice_form(self, den: int) -> tuple[list[int], int, bool]:
        """(terms, divisor, even): p(m / den) is the Horner value of terms
        (highest degree first) at m, or at m^2 when even, over divisor.

        Coefficient k = n_k / c becomes n_k den^(d-k) over c den^d; with
        every odd coefficient zero, only the even terms are kept."""
        if not self.coeffs:
            return [], 1, False
        nums, cden = self._integers()
        d = len(nums) - 1
        even = not any(nums[1::2])
        ks = range(d, -1, -2 if even else -1)
        return [nums[k] * den ** (d - k) for k in ks], cden * den ** d, even

    def _fixed_form(self, bound: int) -> tuple[list[int], int, bool]:
        """(terms, err, even) of the fixed-point Horner for |x| <= bound, an
        integer >= 1: terms are round(a_k 2^S) (highest degree first; only
        even degrees when every odd coefficient is zero), S = _FIXED_BITS.

        With y = x, or x^2 when even, the loop acc = floor(acc y) + term
        ends within err of 2^S p(x): each term is off by at most 1/2, each
        floor by less than 1, and an error grows by at most |y| <= X per
        step, so n terms stay within 3 n X^(n-1) / 2, X = bound (squared
        when even)."""
        nums, den = self._integers()
        even = not any(nums[1::2])
        ks = range(len(nums) - 1, -1, -2 if even else -1)
        terms = [((nums[k] << (_FIXED_BITS + 1)) + den) // (2 * den) for k in ks]
        x, n = (bound * bound if even else bound), len(terms)
        return terms, (3 * n * x ** max(n - 1, 0) + 1) // 2, even

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        c = as_fraction(other)
        return Polynomial([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def pow_int(self, m: int) -> "Polynomial":
        if m < 0:
            raise ValueError("negative power")
        result = Polynomial([1])
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def derivative(self, order: int = 1) -> "Polynomial":
        if order < 0:
            raise ValueError("negative derivative order")
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(Fraction(k) * cs[k] for k in range(1, len(cs)))
        return Polynomial(cs)

    def antiderivative(self) -> "Polynomial":
        """Primitive with zero constant term."""
        return Polynomial([Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def integrate(self, lo: RationalLike, hi: RationalLike) -> Fraction:
        prim = self.antiderivative()
        return prim(hi) - prim(lo)

    def compose_linear(self, a: RationalLike, b: RationalLike) -> "Polynomial":
        """Return the polynomial x -> self(a*x + b)."""
        a, b = as_fraction(a), as_fraction(b)
        lin = Polynomial([b, a])
        acc = Polynomial()
        for c in reversed(self.coeffs):
            acc = acc * lin + Polynomial([c])
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        terms = " + ".join(f"({format_rational(c)})x^{k}" for k, c in enumerate(self.coeffs) if c != 0)
        return f"Polynomial({terms})"


_ZERO_POLY = Polynomial()


def _exact_value(form: tuple[list[int], int, bool], m: int) -> float:
    """The float of a piece at m / den, from its _lattice_form(den): the
    exact Horner sum over the divisor, one correctly rounded division."""
    terms, divisor, even = form
    x = m * m if even else m
    acc = 0
    for t in terms:
        acc = acc * x + t
    return acc / divisor


def _taylor_shift(cs: list[int], s: int) -> list[int]:
    """Coefficients of sum_k cs[k] (y + s)^k for integers cs and s, by
    repeated synthetic division (Horner's scheme as a Taylor shift)."""
    cs = list(cs)
    for i in range(len(cs) - 1):
        for k in range(len(cs) - 2, i - 1, -1):
            cs[k] += s * cs[k + 1]
    return cs


def _jumps(f: "PiecewisePoly", scale: int) -> tuple[dict[int, list[int]], int]:
    """Jump form of y -> f(y / scale), where scale * b is an integer at
    every breakpoint b.

    Returns ({scale * b: [u_0, ..., u_d]}, den): u_k / den is the jump at
    scale * b of the k-th derivative in y, with d the largest piece degree.
    The shift is linear, so each jump is one Taylor shift of the
    difference of the pieces that meet at b.
    """
    d = max(p.degree for p in f.pieces)
    den = lcm(*(c.denominator for p in f.pieces for c in p.coeffs))
    jumps, prev = {}, [0] * (d + 1)
    for b, p in zip(f.breakpoints, f.pieces + (_ZERO_POLY,)):
        beta = b.numerator * (scale // b.denominator)
        cur = [c.numerator * (den // c.denominator) * scale ** (d - k) for k, c in enumerate(p.coeffs)]
        cur += [0] * (d - p.degree)
        shifted = _taylor_shift([c - q for c, q in zip(cur, prev)], beta)
        jumps[beta] = [factorial(k) * u for k, u in enumerate(shifted)]
        prev = cur
    return jumps, den * scale ** d


class PiecewisePoly:
    """Compactly supported piecewise polynomial with rational breakpoints.

    Piece i is valid on the half-open interval [b_i, b_{i+1}); the value at
    the right end of the support is taken from the last piece, and the
    function is 0 outside [b_0, b_k].  Construction canonicalizes: adjacent
    identical pieces are merged, and identically-zero pieces at either end
    of the support are trimmed (the zero function canonically lives on
    [0, 1]).  Continuity across breakpoints is not required.
    """

    __slots__ = ("breakpoints", "pieces")

    def __init__(self, breakpoints: Iterable[RationalLike], pieces: Iterable[Polynomial]):
        bps = [as_fraction(b) for b in breakpoints]
        pcs = list(pieces)
        if len(bps) != len(pcs) + 1 or not pcs:
            raise ValueError("need k+1 breakpoints for k >= 1 pieces")
        if any(b1 <= b0 for b0, b1 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        # merge adjacent identical pieces
        mb, mp = [bps[0]], []
        for b, p in zip(bps[1:], pcs):
            if mp and mp[-1] == p:
                mb[-1] = b
            else:
                mp.append(p)
                mb.append(b)
        # trim zero pieces at the ends of the support
        while mp and mp[0].is_zero():
            mp.pop(0)
            mb.pop(0)
        while mp and mp[-1].is_zero():
            mp.pop()
            mb.pop()
        if not mp:
            mb, mp = [Fraction(0), Fraction(1)], [_ZERO_POLY]
        object.__setattr__(self, "breakpoints", tuple(mb))
        object.__setattr__(self, "pieces", tuple(mp))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PiecewisePoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "PiecewisePoly":
        return cls([0, 1], [_ZERO_POLY])

    @classmethod
    def single(cls, poly: Polynomial, lo: RationalLike, hi: RationalLike) -> "PiecewisePoly":
        """One polynomial piece on [lo, hi]."""
        return cls([lo, hi], [poly])

    @classmethod
    def indicator(cls, lo: RationalLike, hi: RationalLike, height: RationalLike = 1) -> "PiecewisePoly":
        return cls([lo, hi], [Polynomial([height])])

    # ------------------------------------------------------------------
    # basic queries

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.pieces)

    def is_even(self) -> bool:
        """Whether f(-x) = f(x) for every x, read off the coefficients.

        The breakpoints mirror through 0 and each piece is its partner
        with odd coefficients negated.  Pieces are half open, so f(b) at
        an interior breakpoint b > 0 comes from the right piece and f(-b)
        from the mirror of the left one: the two must agree at b.
        """
        if self.is_zero():
            return True
        bps, pcs = self.breakpoints, self.pieces
        return (
            all(b == -c for b, c in zip(bps, reversed(bps)))
            and all(p.coeffs == tuple(-c if k % 2 else c for k, c in enumerate(q.coeffs))
                    for p, q in zip(pcs, reversed(pcs)))
            and all(left(b) == right(b) for b, left, right in zip(bps[1:-1], pcs, pcs[1:]) if b > 0)
        )

    def intervals(self) -> Iterator[tuple[Fraction, Fraction, Polynomial]]:
        for i, p in enumerate(self.pieces):
            yield self.breakpoints[i], self.breakpoints[i + 1], p

    def _poly_at(self, x: Fraction) -> Polynomial:
        """Polynomial valid at x (zero polynomial outside the support)."""
        if x < self.breakpoints[0] or x > self.breakpoints[-1]:
            return _ZERO_POLY
        if x == self.breakpoints[-1]:
            return self.pieces[-1]
        i = bisect_right(self.breakpoints, x) - 1
        return self.pieces[i]

    def eval(self, x: RationalLike) -> Fraction:
        """Value at x, half-open pieces, right-closed at the support end."""
        return self._poly_at(as_fraction(x))(x)

    __call__ = eval

    def sample_lattice(self, numerators: Iterable[int], den: int) -> Iterator[float]:
        """Floats of f at the nodes m / den, for non-decreasing integers m
        (consumed one at a time; a decrease raises ValueError) and den >= 1.

        Each value is float(self.eval(Fraction(m, den))) bit for bit: the
        unreduced Horner numerator over its denominator, one int/int true
        division, which CPython rounds correctly, subnormals included, and
        which raises OverflowError beyond the float range, as float() of
        the reduced Fraction does.  The walk finds pieces by integer
        thresholds: m / den >= b iff m >= ceil(b den).

        At a power of two den = 2^e, which every float node has, the
        piece's fixed-point Horner (Polynomial._fixed_form) runs first, on
        integers of about S = 192 bits: acc = (acc y >> e) + term, y = m
        (or m^2 and 2e when even).  It brackets 2^S p(x) within acc +- err.
        int-to-float conversion rounds correctly and monotonically, so when
        float(acc - err) and float(acc + err) are one float, it is the
        float of 2^S p(x), and scaled by 2^-S, exactly (a nonzero bracket
        end is at least 1, so the value is a normal float), it is p(x)'s.
        Only a node whose bracket rounds apart, touches 0 or nears the
        float range takes the exact Horner, whose terms a piece builds at
        its first such node; at other den every node does.
        """
        bps = self.breakpoints
        starts = [-(-b.numerator * den // b.denominator) for b in bps[:-1]]
        end = bps[-1].numerator * den // bps[-1].denominator
        shift = den.bit_length() - 1 if den & (den - 1) == 0 else None
        fixed: list = [None] * len(self.pieces)
        exact: list = [None] * len(self.pieces)
        i, last, prev = 0, len(self.pieces) - 1, -inf
        for m in numerators:
            if m < prev:
                raise ValueError(f"lattice nodes must be non-decreasing: {m} after {prev}")
            prev = m
            if m < starts[0] or m > end:
                yield 0.0
                continue
            while i < last and m >= starts[i + 1]:
                i += 1
            if shift is not None:
                if fixed[i] is None:
                    fixed[i] = self.pieces[i]._fixed_form(max(1, ceil(max(-bps[i], bps[i + 1]))))
                terms, err, even = fixed[i]
                y, sh = (m * m, 2 * shift) if even else (m, shift)
                acc = 0
                for t in terms:
                    acc = (acc * y >> sh) + t
                # below 2^1023 neither end of the bracket overflows a float
                if (abs(acc) + err).bit_length() <= 1023:
                    low = float(acc - err)
                    if low == float(acc + err):
                        yield ldexp(low, -_FIXED_BITS)
                        continue
            if exact[i] is None:
                exact[i] = self.pieces[i]._lattice_form(den)
            yield _exact_value(exact[i], m)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PiecewisePoly)
            and self.breakpoints == other.breakpoints
            and self.pieces == other.pieces
        )

    def __hash__(self) -> int:
        return hash((self.breakpoints, self.pieces))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{format_rational(lo)},{format_rational(hi)}]:{p!r}" for lo, hi, p in self.intervals()
        )
        return f"PiecewisePoly({parts})"

    # ------------------------------------------------------------------
    # pointwise arithmetic

    def _pointwise(self, other: "PiecewisePoly", op) -> "PiecewisePoly":
        cuts = sorted(set(self.breakpoints) | set(other.breakpoints))
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            pieces.append(op(self._poly_at(mid), other._poly_at(mid)))
        return PiecewisePoly(cuts, pieces)

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self._pointwise(other, lambda a, b: a + b)

    def __sub__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self._pointwise(other, lambda a, b: a - b)

    def __mul__(self, other):
        if isinstance(other, PiecewisePoly):
            return self._pointwise(other, lambda a, b: a * b)
        c = as_fraction(other)
        return PiecewisePoly(self.breakpoints, [p * c for p in self.pieces])

    __rmul__ = __mul__

    def __neg__(self) -> "PiecewisePoly":
        return self * Fraction(-1)

    def power_int(self, m: int) -> "PiecewisePoly":
        """Pointwise integer power, m >= 1."""
        if m < 1:
            raise ValueError("power_int requires m >= 1")
        return PiecewisePoly(self.breakpoints, [p.pow_int(m) for p in self.pieces])

    def dilate(self, lam: RationalLike) -> "PiecewisePoly":
        """Return x -> self(x / lam) for rational lam > 0."""
        lam = as_fraction(lam)
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        inv = 1 / lam
        return PiecewisePoly(
            [b * lam for b in self.breakpoints],
            [p.compose_linear(inv, 0) for p in self.pieces],
        )

    # ------------------------------------------------------------------
    # calculus

    def integral(self, lo: RationalLike, hi: RationalLike) -> Fraction:
        """Exact definite integral over [lo, hi]."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise ValueError("integral requires lo <= hi")
        total = Fraction(0)
        for a, b, p in self.intervals():
            left, right = max(a, lo), min(b, hi)
            if left < right:
                total += p.integrate(left, right)
        return total

    @property
    def mass(self) -> Fraction:
        """Integral over the whole support."""
        return self.integral(*self.support)

    def assert_nonnegative(self) -> None:
        """Check f >= 0 on the support; raise NegativeDensity otherwise.

        Each piece is sign-checked on a uniform rational sample; interior
        minima are additionally probed by bisecting sign changes of the
        derivative between samples.  This avoids full real-root isolation
        and is exact at every point actually tested.
        """
        for a, b, p in self.intervals():
            if p.is_zero():
                continue
            step = (b - a) / (_NONNEG_SAMPLES - 1)
            xs = [a + k * step for k in range(_NONNEG_SAMPLES)]
            vals = [p(x) for x in xs]
            if any(v < 0 for v in vals):
                raise NegativeDensity("negative value detected on a sample point")
            d = p.derivative()
            signs = [d(x) for x in xs]
            for k in range(_NONNEG_SAMPLES - 1):
                if signs[k] > 0 and signs[k + 1] < 0 or signs[k] < 0 and signs[k + 1] > 0:
                    lo, hi = xs[k], xs[k + 1]
                    flo = signs[k]
                    for _ in range(_NONNEG_BISECT_STEPS):
                        mid = (lo + hi) / 2
                        fmid = d(mid)
                        if fmid == 0:
                            break
                        if (flo > 0) == (fmid > 0):
                            lo, flo = mid, fmid
                        else:
                            hi = mid
                    if p((lo + hi) / 2) < 0:
                        raise NegativeDensity("negative interior minimum detected")

    def lp_mass(self, p) -> Fraction:
        """Exact integral of f^p over the support, for an integer-valued
        p >= 1 (int, Fraction or float); other exponents raise ValueError.

        Requires f >= 0 on its support (this is the p-th power of the
        L^p norm of a density).
        """
        k = int(p)
        if k != p or k < 1:
            raise ValueError(f"exact p-mass requires an integer p >= 1, got {p}")
        self.assert_nonnegative()
        if k == 1:
            return self.mass
        return self.power_int(k).mass

    # ------------------------------------------------------------------
    # convolution

    def convolve(self, other: "PiecewisePoly", lo: RationalLike | None = None,
                 hi: RationalLike | None = None) -> "PiecewisePoly":
        """Exact convolution (f * g)(x) = int f(t) g(x - t) dt, in jump form,
        on the window [lo, hi]: exactly f * g on [lo, hi] and zero outside,
        with an end left out taken as unbounded.

        In truncated powers, f = sum J_{a,j} (x-a)_+^j / j! over breakpoints
        a and orders j, with J_{a,j} the jump of the j-th derivative at a,
        and g = sum J_{b,k} (x-b)_+^k / k! likewise.  By the identity

            (x-a)_+^j/j! * (x-b)_+^k/k! = (x-a-b)_+^(j+k+1) / (j+k+1)!

        the jump of order m of f * g at s is the sum of J_{a,j} J_{b,k} over
        a + b = s and j + k + 1 = m.  One integer Taylor shift per distinct s
        turns jumps back into monomials, and a running sum over s gives the
        pieces.  The jumps of each factor at a breakpoint are one Taylor
        shift of the difference of the pieces meeting there, and f * f
        takes one jump form for both factors.  The variable is scaled so
        that every breakpoint and both window ends are integers, and all
        of it is integer arithmetic over one denominator.

        Only the window is built.  A term at s >= hi is zero below hi, so
        pairs with a + b >= hi are skipped and no cut at or beyond hi is
        shifted.  The running sum passes every cut below lo, but pieces
        become Fractions only from lo on.  An empty window (lo >= hi)
        raises ValueError; a window that misses the support gives zero.
        """
        lo = None if lo is None else as_fraction(lo)
        hi = None if hi is None else as_fraction(hi)
        if lo is not None and hi is not None and lo >= hi:
            raise ValueError(f"empty window [{lo}, {hi}]")
        if self.is_zero() or other.is_zero():
            return PiecewisePoly.zero()
        start, end = (u + v for u, v in zip(self.support, other.support))
        if (hi is not None and hi <= start) or (lo is not None and lo >= end):
            return PiecewisePoly.zero()
        window = tuple(w for w in (lo, hi) if w is not None)
        scale = lcm(*(b.denominator for b in self.breakpoints + other.breakpoints + window))
        w0 = -inf if lo is None else lo.numerator * (scale // lo.denominator)
        w1 = inf if hi is None else hi.numerator * (scale // hi.denominator)
        jf, den_f = _jumps(self, scale)
        jg, den_g = (jf, den_f) if other is self else _jumps(other, scale)
        top = max(p.degree for p in self.pieces) + max(p.degree for p in other.pieces) + 1
        acc: dict[int, list[int]] = {}
        for a, uf in jf.items():
            for b, ug in jg.items():  # b increases: the rest start at or beyond hi
                if a + b >= w1:
                    break
                out = acc.setdefault(a + b, [0] * (top + 1))
                for j, u in enumerate(uf):
                    if u:
                        for m, v in enumerate(ug, j + 1):
                            out[m] += u * v
        # jumps are in y = scale * x, and dy = scale dx
        den = den_f * den_g * factorial(top) * scale
        cuts = sorted(acc)
        # the run is zero past the support end, the last cut when it is
        # below hi; otherwise hi closes the last piece
        edges = cuts if hi is None or end < hi else cuts + [w1]
        pieces, run = [], [0] * (top + 1)
        for s, t in zip(edges, edges[1:]):
            taylor = [u * (factorial(top) // factorial(m)) for m, u in enumerate(acc[s])]
            run = [r + c for r, c in zip(run, _taylor_shift(taylor, -s))]
            if t > w0:
                pieces.append(Polynomial([Fraction(c * scale ** k, den) for k, c in enumerate(run)]))
        bps = edges[len(edges) - len(pieces) - 1:]
        bps[0] = max(bps[0], w0)
        return PiecewisePoly([Fraction(s, scale) for s in bps], pieces)

    def convolution_power(self, n: int, lo: RationalLike | None = None,
                          hi: RationalLike | None = None) -> "PiecewisePoly":
        """C_n(f), the n-fold self convolution, exact, on the window
        [lo, hi] as in convolve: a chain of pairs, the last one windowed.
        n = 1 is f itself and takes no window."""
        if n < 1 or n == 1 and (lo, hi) != (None, None):
            raise ValueError("convolution_power takes n >= 1, and a window only for n >= 2")
        if n == 1:
            return self
        out = self
        for _ in range(n - 2):
            out = out.convolve(self)
        return out.convolve(self, lo, hi)

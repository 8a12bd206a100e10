"""Exact algebra of compactly supported piecewise polynomials over rationals.

All coefficients and breakpoints are `fractions.Fraction`; every operation
(evaluation, arithmetic, convolution, differentiation, integration, norms)
is carried out without any floating point, so results are reproducible
bit-for-bit.  Values are immutable after construction and all operations
are pure functions.

The hot kernels work on integer numerators over a common denominator:
Horner's rule for evaluation, and for convolution the truncated-power
("jump") form of de Boor, A Practical Guide to Splines, with integer Taylor
shifts (von zur Gathen and Gerhard, ISSAC 1997); see PiecewisePoly.convolve.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Iterator, Union

RationalLike = Union[Fraction, int, str]


class BreakpointDerivative(ValueError):
    """Raised when a pointwise derivative is requested at a breakpoint."""


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
        if self._ints is None:
            den = lcm(*(c.denominator for c in self.coeffs))
            object.__setattr__(self, "_ints", ([c.numerator * (den // c.denominator) for c in self.coeffs], den))
        nums, den = self._ints
        p, q = x.numerator, x.denominator
        acc, qk = nums[-1], 1
        for n in reversed(nums[:-1]):
            qk *= q
            acc = acc * p + n * qk
        return Fraction(acc, den * qk)

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
    """
    d = max(p.degree for p in f.pieces)
    den = lcm(*(c.denominator for p in f.pieces for c in p.coeffs))
    jumps, prev = {}, [0] * (d + 1)
    for b, p in zip(f.breakpoints, f.pieces + (_ZERO_POLY,)):
        beta = b.numerator * (scale // b.denominator)
        cur = [c.numerator * (den // c.denominator) * scale ** (d - k) for k, c in enumerate(p.coeffs)]
        cur += [0] * (d - p.degree)
        right, left = _taylor_shift(cur, beta), _taylor_shift(prev, beta)
        jumps[beta] = [factorial(k) * (r - l) for k, (r, l) in enumerate(zip(right, left))]
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

    def restrict(self, lo: RationalLike, hi: RationalLike) -> "PiecewisePoly":
        """Restriction to [lo, hi] (zero outside)."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo >= hi:
            raise ValueError("empty restriction interval")
        cuts = [lo] + [b for b in self.breakpoints if lo < b < hi] + [hi]
        pieces = [self._poly_at((a + b) / 2) for a, b in zip(cuts, cuts[1:])]
        return PiecewisePoly(cuts, pieces)

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

    def reflect(self) -> "PiecewisePoly":
        """Return x -> self(-x)."""
        return PiecewisePoly(
            [-b for b in reversed(self.breakpoints)],
            [p.compose_linear(-1, 0) for p in reversed(self.pieces)],
        )

    def translate(self, shift: RationalLike) -> "PiecewisePoly":
        """Return x -> self(x - shift)."""
        shift = as_fraction(shift)
        return PiecewisePoly(
            [b + shift for b in self.breakpoints],
            [p.compose_linear(1, -shift) for p in self.pieces],
        )

    # ------------------------------------------------------------------
    # calculus

    def derivative(self, order: int = 1) -> "PiecewisePoly":
        """Piecewise formal derivative (no distributional terms at jumps)."""
        return PiecewisePoly(self.breakpoints, [p.derivative(order) for p in self.pieces])

    def derivative_at(self, x: RationalLike, order: int = 1) -> Fraction:
        """Derivative of the containing piece at x, which must not be a breakpoint."""
        x = as_fraction(x)
        if x in self.breakpoints:
            raise BreakpointDerivative(f"x = {x} is a breakpoint")
        return self._poly_at(x).derivative(order)(x)

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

    def integral_all(self) -> Fraction:
        """Integral over the whole support."""
        return self.integral(*self.support)

    def primitive(self) -> "PiecewisePoly":
        """Continuous primitive on the support, zero at the left edge."""
        pieces, acc = [], Fraction(0)
        for a, b, p in self.intervals():
            prim = p.antiderivative()
            pieces.append(prim + Polynomial([acc - prim(a)]))
            acc += p.integrate(a, b)
        return PiecewisePoly(self.breakpoints, pieces)

    def assert_nonnegative(self, samples: int = 64, bisect_steps: int = 30) -> None:
        """Check f >= 0 on the support; raise NegativeDensity otherwise.

        Each piece is sign-checked on a uniform rational sample; interior
        minima are additionally probed by bisecting sign changes of the
        derivative between samples.  This avoids full real-root isolation
        and is exact at every point actually tested.
        """
        for a, b, p in self.intervals():
            if p.is_zero():
                continue
            step = (b - a) / (samples - 1)
            xs = [a + k * step for k in range(samples)]
            vals = [p(x) for x in xs]
            if any(v < 0 for v in vals):
                raise NegativeDensity("negative value detected on a sample point")
            d = p.derivative()
            signs = [d(x) for x in xs]
            for k in range(samples - 1):
                if signs[k] > 0 and signs[k + 1] < 0 or signs[k] < 0 and signs[k + 1] > 0:
                    lo, hi = xs[k], xs[k + 1]
                    flo = signs[k]
                    for _ in range(bisect_steps):
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

    def lp_norm_int(self, p: int) -> Fraction:
        """Exact integral of f^p over the support, for integer p >= 1.

        Requires f >= 0 on its support (this is the p-th power of the
        L^p norm of a density).
        """
        if p < 1:
            raise ValueError("lp_norm_int requires integer p >= 1")
        self.assert_nonnegative()
        if p == 1:
            return self.integral_all()
        return self.power_int(p).integral_all()

    # ------------------------------------------------------------------
    # convolution

    def convolve(self, other: "PiecewisePoly") -> "PiecewisePoly":
        """Exact convolution (f * g)(x) = int f(t) g(x - t) dt, in jump form.

        In truncated powers, f = sum J_{a,j} (x-a)_+^j / j! over breakpoints
        a and orders j, with J_{a,j} the jump of the j-th derivative at a,
        and g = sum J_{b,k} (x-b)_+^k / k! likewise.  By the identity

            (x-a)_+^j/j! * (x-b)_+^k/k! = (x-a-b)_+^(j+k+1) / (j+k+1)!

        the jump of order m of f * g at s is the sum of J_{a,j} J_{b,k} over
        a + b = s and j + k + 1 = m.  One integer Taylor shift per distinct s
        turns jumps back into monomials, and a running sum over s gives the
        pieces.  The variable is scaled so that every breakpoint is an
        integer, and all of it is integer arithmetic over one denominator.
        """
        if self.is_zero() or other.is_zero():
            return PiecewisePoly.zero()
        scale = lcm(*(b.denominator for b in self.breakpoints + other.breakpoints))
        (jf, den_f), (jg, den_g) = _jumps(self, scale), _jumps(other, scale)
        top = max(p.degree for p in self.pieces) + max(p.degree for p in other.pieces) + 1
        acc: dict[int, list[int]] = {}
        for a, uf in jf.items():
            for b, ug in jg.items():
                out = acc.setdefault(a + b, [0] * (top + 1))
                for j, u in enumerate(uf):
                    if u:
                        for m, v in enumerate(ug, j + 1):
                            out[m] += u * v
        # jumps are in y = scale * x, and dy = scale dx
        den = den_f * den_g * factorial(top) * scale
        cuts = sorted(acc)
        pieces, run = [], [0] * (top + 1)
        for s in cuts[:-1]:
            taylor = [u * (factorial(top) // factorial(m)) for m, u in enumerate(acc[s])]
            run = [r + t for r, t in zip(run, _taylor_shift(taylor, -s))]
            pieces.append(Polynomial([Fraction(c * scale ** k, den) for k, c in enumerate(run)]))
        return PiecewisePoly([Fraction(s, scale) for s in cuts], pieces)

    # ------------------------------------------------------------------
    # serialization

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "pieces": [[format_rational(c) for c in p.coeffs] for p in self.pieces],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PiecewisePoly":
        return cls(
            [Fraction(b) for b in data["breakpoints"]],
            [Polynomial([Fraction(c) for c in coeffs]) for coeffs in data["pieces"]],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PiecewisePoly":
        return cls.from_json_dict(json.loads(text))


def convolve(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    """Module-level alias for PiecewisePoly.convolve."""
    return f.convolve(g)


def self_convolution(f: PiecewisePoly, n: int) -> PiecewisePoly:
    """Density of the sum of n independent copies: f convolved n-1 times."""
    if n < 1:
        raise ValueError("self_convolution requires n >= 1")
    out = f
    for _ in range(n - 1):
        out = out.convolve(f)
    return out

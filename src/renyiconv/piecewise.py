"""Exact algebra of compactly supported piecewise polynomials over rationals.

All coefficients and breakpoints are `fractions.Fraction`; every operation
(evaluation, sums and scaling, convolution, integration, norms) is
carried out without any floating point, so results are reproducible
bit-for-bit.  Values are immutable after construction and all operations
are pure functions.

The hot kernels work on integer numerators over a common denominator:
Horner's rule for evaluation, and for convolution the truncated-power
("jump") form of de Boor, A Practical Guide to Splines, with integer Taylor
shifts (von zur Gathen and Gerhard, ISSAC 1997): one shift per breakpoint
of each distinct factor, of the difference of the pieces meeting there,
and one per output cut.  A product of any number of factors, C_n among
them, is _jump_chain: each distinct factor's jump form is taken to its
multiplicity by the binomial theorem, one cut at a time, and each product
of two order lists is one big-integer product (Kronecker substitution,
_times).  It takes a window [lo, hi] and builds only that part: the terms
that start at or beyond hi are never formed, and pieces below lo are
summed through but not built; see PiecewisePoly.convolve.  Point values
of a product come from the same jumps with no piece built (convolve_at),
and so does the integral of a product g h, the value (g * Th)(0) with T
the reflection: lp_mass at p = 2 is one, and no polynomial is multiplied
by another anywhere.

Nonnegativity is decided, not sampled: PiecewisePoly.assert_nonnegative
takes each piece to [0, 1] and into Bernstein form with two integer Taylor
shifts, and isolates roots by Descartes' rule of signs only where those
coefficients change sign (Collins and Akritas, SYMSAC 1976).

Floats leave this module through one route, PiecewisePoly.sample_lattice,
at integer nodes m / den: a double-word Horner in numpy with a
proven error bound, and the exact integer Horner, divided once, only
where that bound leaves the rounding in doubt (Ziv, ACM TOMS 17, 1991).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import ceil, comb, factorial, floor, gcd, inf, lcm, nan, prod
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

RationalLike = Union[Fraction, int, str]

_CHUNK = 1 << 12  # nodes per double-word Horner: bounds its temporaries


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

    def _double_words(self, bound: Fraction):
        """(hi, lo, even, big) for _dw_horner at |x| <= bound: c = hi + lo, highest
        degree first (in y = x^2 if every odd c is 0), and big = max(1, sum |hi|)
        max(1, |y|)^n; None past the float range or 2^995, where splits overflow."""
        even = not any(self.coeffs[1::2])
        cs = self.coeffs[::-2] if even else self.coeffs[::-1]
        try:
            hi = [float(c) for c in cs]
            lo = [float(c - Fraction(h)) for c, h in zip(cs, hi)]
            big = max(1.0, sum(map(abs, hi))) * max(1.0, float(bound) ** (1 + even)) ** len(cs)
        except OverflowError:
            return None
        return (hi, lo, even, big) if big < 2.0 ** 995 else None

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

    def __mul__(self, other: RationalLike) -> "Polynomial":
        """Scaling by an exact rational; a product of polynomials raises TypeError."""
        c = as_fraction(other)
        return Polynomial([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def integrate(self, lo: RationalLike, hi: RationalLike) -> Fraction:
        """Exact integral over [lo, hi], by the primitive with zero constant term."""
        prim = Polynomial([0] + [c / (k + 1) for k, c in enumerate(self.coeffs)])
        return prim(hi) - prim(lo)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        terms = " + ".join(f"({format_rational(c)})x^{k}" for k, c in enumerate(self.coeffs) if c != 0)
        return f"Polynomial({terms})"


_ZERO_POLY = Polynomial()


def _horner(terms: list[int], x: int) -> int:
    """The integer polynomial with terms (highest degree first) at x."""
    acc = 0
    for t in terms:
        acc = acc * x + t
    return acc


def _exact_float(piece: Polynomial, x: Fraction) -> float:
    """float(piece(x)): a Fraction's float is one int / int division, correctly rounded."""
    return float(piece(x))


def _split(a):
    """Veltkamp: a = hi + lo exactly, each with at most 26 significant bits."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a, b):
    """Knuth: s + t = a + b exactly, s = RN(a + b)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _two_prod(a, b, b_halves):
    """Dekker: p + e = a b exactly, p = RN(a b), barring underflow."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), b_halves
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dw_horner(form: tuple, xh: np.ndarray, xl: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Writes into out the leading words h of the double-word Horner sum
    s <- s y + c of a _double_words form at the nodes xh + xl; returns
    where h = RN(v) is proved for the exact value v (never at xh = NaN).

    Bound.  Let u = 2^-53, n the terms, P_j the partial sums of p~ (Horner
    on |c| at |y|).  c = hi + lo is within u^2|c|; y = yh + yl is within
    9u^2|y| at m / den (m and den are floats), with |yl| <= 4u|yh|.
    TwoProduct and TwoSum are exact and leave |sl| <= u|sh|, so the dropped
    sl yl and six rounded operations on low words err by at most
    33u^2|s||y| + 4u^2|c|: E_j <= (1 + e)|y| E_(j-1) + e P_j, e = 43u^2, and
    E <= n e (1 + e)^n p~ < 44 n u^2 p~.  Float pt is within 1 + 8nu of p~,
    so B = 64 n u^2 pt has room to round.  Below 2^-969 an operation rounds
    absolutely, by 2^-1075; through the node (|p'| <= n big) and the later
    steps (together a factor <= big) that stays below U = n big 2^-1060.

    Certification.  v is within |l| + B + U of h (l = sl).  The floats that
    round to h reach half a gap each way, the gap toward zero the smaller
    (half the other at a power of two); below half of it, RN(v) = h.  A tie,
    h = 0 and a subnormal h never certify, and rounding the left side stays
    in B's slack: u^2|h| <= u^2 p~ < B / 32.
    """
    hi, lo, even, big = form
    yh, yl = _two_prod(xh, xh, _split(xh)) if even else (xh, xl)  # y = x^2 when even
    if even:
        yl += 2 * xh * xl
    halves, ay = _split(yh), np.abs(yh)
    sh, sl, pt = (np.full_like(yh, c) for c in (hi[0], lo[0], abs(hi[0])))
    for ch, cl in zip(hi[1:], lo[1:]):
        p, e = _two_prod(sh, yh, halves)
        e += sh * yl + sl * yh + cl
        sh, t = _two_sum(p, ch)
        sh, sl = _two_sum(sh, t + e)
        pt = pt * ay + abs(ch)
    out[:], n, ah = sh, len(hi), np.abs(sh)
    bound = pt * (n * 2.0 ** -100) + n * big * 2.0 ** -1060
    return np.abs(sl) + bound < (ah - np.nextafter(ah, 0)) / 2


def _taylor_shift(cs: list[int], s: int) -> list[int]:
    """Coefficients of sum_k cs[k] (y + s)^k for integers cs and s, by
    repeated synthetic division (Horner's scheme as a Taylor shift), with
    additions or subtractions alone at s = 1 or -1."""
    cs, n = list(cs), len(cs)
    for i in range(n - 1):
        if s == 1:
            for k in range(n - 2, i - 1, -1):
                cs[k] += cs[k + 1]
        elif s == -1:
            for k in range(n - 2, i - 1, -1):
                cs[k] -= cs[k + 1]
        else:
            for k in range(n - 2, i - 1, -1):
                cs[k] += s * cs[k + 1]
    return cs


def _bernstein(nums: list[int], lo: Fraction, hi: Fraction) -> list[int]:
    """Positive multiples of the Bernstein coefficients of the integer
    polynomial N = nums (lowest degree first) on [lo, hi], last first.

    With lo = A / D and hi - lo = W / D, q(t) = D^d N((A + W t) / D) is a
    Taylor shift by A of the nums[k] D^(d-k), then a scaling of the k-th by
    W^k.  With q = sum b_i C(d, i) t^i (1 - t)^(d-i), the reversed q shifted
    by 1 is (1 + u)^d q(1 / (1 + u)) = sum b_i C(d, i) u^(d-i).  All >= 0
    prove N >= 0 on [lo, hi]; by Descartes' rule their sign changes bound
    its roots in (lo, hi), with the same parity (Collins and Akritas, SYMSAC
    1976).
    """
    d, D = len(nums) - 1, lcm(lo.denominator, hi.denominator)
    A, W = lo.numerator * (D // lo.denominator), int((hi - lo) * D)
    q = _taylor_shift([c * D ** (d - k) for k, c in enumerate(nums)], A)
    return _taylor_shift([c * W ** k for k, c in enumerate(q)][::-1], 1)


def _sign_changes(cs: list[int]) -> int:
    signs = [c > 0 for c in cs if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _primitive(cs: list[int]) -> list[int]:
    """cs over their content, the gcd of the entries (not all zero)."""
    g = gcd(*cs)
    return [c // g for c in cs]


def _square_free(nums: list[int]) -> list[int]:
    """The integer polynomial nums (lowest degree first) over gcd(nums,
    nums'), up to a constant factor: its roots, each simple.

    The gcd is the last entry of the primitive remainder sequence: each
    pseudo-remainder is divided by its content, so the integers grow about
    linearly along the sequence, not exponentially, and no Fraction is
    made (von zur Gathen and Gerhard, Modern Computer Algebra, 6.3).  The
    gcd is primitive, so it divides the primitive nums in integers (Gauss's
    lemma): one exact integer division a quotient term.
    """
    a, b = _primitive(nums), _primitive([k * c for k, c in enumerate(nums)][1:])
    while b:
        r = list(a)
        for k in range(len(a) - len(b), -1, -1):  # r <- lead(b) r - top(r) x^k b
            top, r = r[-1], [c * b[-1] for c in r[:-1]]
            for j, c in enumerate(b[:-1], k):
                r[j] -= top * c
        while r and not r[-1]:
            r.pop()
        a, b = b, r and _primitive(r)
    r, q = _primitive(nums), [0] * (len(nums) - len(a) + 1)
    for k in reversed(range(len(q))):
        q[k] = r.pop() // a[-1]
        for j, c in enumerate(a[:-1], k):
            r[j] -= q[k] * c
    return q


def _dips_below_zero(p: Polynomial, a: Fraction, b: Fraction) -> bool:
    """Whether p < 0 somewhere in (a, b), for a nonzero p >= 0 at a and b.

    p keeps its sign between consecutive roots, so it is decided at one
    point of each root-free gap.  Bisection of [a, b] isolates the roots of
    the square-free part s by _bernstein's sign changes v on each part
    [lo, hi], whose ends are already evaluated.  A part with v = 0 has no
    root inside: it needs its midpoint only when both ends are roots; a part
    with v = 1 has one root: its ends cover both sides unless one is a
    root.  Every other part is split at its midpoint, which is evaluated.
    Bisection ends, as s has simple roots only.
    """
    s = _square_free(p._integers()[0])
    parts = [(a, b, p(a) == 0, p(b) == 0)]
    while parts:
        lo, hi, zlo, zhi = parts.pop()
        v = _sign_changes(_bernstein(s, lo, hi))
        if v == 0 and not (zlo and zhi) or v == 1 and not (zlo or zhi):
            continue
        mid = (lo + hi) / 2
        pm = p(mid)
        if pm < 0:
            return True
        if v:
            parts += [(lo, mid, zlo, pm == 0), (mid, hi, pm == 0, zhi)]
    return False


def _jumps(f: "PiecewisePoly", scale: int) -> tuple[dict[int, list[int]], Fraction]:
    """Jump form of y -> f(y / scale), where scale * b is an integer at
    every breakpoint b.

    Returns ({scale * b: [u_0, ..., u_d]}, den): u_k / den is the jump at
    scale * b of the k-th derivative in y, with d the largest piece degree.
    The shift is linear, so each jump is one Taylor shift of the
    difference of the pieces that meet at b.  The u's common factor goes
    into the rational den, which narrows every product of them.
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
    g = gcd(*(u for js in jumps.values() for u in js))
    return {b: [u // g for u in js] for b, js in jumps.items()}, Fraction(den * scale ** d, g)


def _times(u: list[int], v: list[int]) -> list[int]:
    """The orders of the product of two jump terms, t u(t) v(t): w_m sums
    u_j v_k over j + k + 1 = m.  One big-integer product by Kronecker
    substitution (von zur Gathen and Gerhard, Modern Computer Algebra, 8.4)
    at t = 2^B, B = 8 nb, so that |w_m| < 2^(B-1): a digit goes in as bytes
    less the borrow of a negative digit below it, and comes out plus it."""
    nb = (max(map(abs, u)).bit_length() + max(map(abs, v)).bit_length() + min(len(u), len(v)).bit_length()) // 8 + 1
    packed = []
    for cs in (u, v):
        raw, borrow = bytearray(), 0
        for c in cs:
            raw += (c - borrow).to_bytes(nb, "little", signed=True)
            borrow = c - borrow < 0
        packed.append(int.from_bytes(raw, "little", signed=True))
    raw = (packed[0] * packed[1]).to_bytes(nb * (len(u) + len(v) - 1), "little", signed=True)
    return [0] + [int.from_bytes(raw[i:i + nb], "little", signed=True) + (i > 0 and raw[i - 1] >> 7)
                  for i in range(0, len(raw), nb)]


def _power(jumps: dict[int, list[int]], k: int, limit: float, start: dict) -> dict[int, list[int]]:
    """start times the k-th power of a jump form, at the cuts below limit.

    Cut by cut, a_1 < a_2 < ..., by the binomial theorem under _times: with
    P the cuts before a, (P + z^a J_a)^m = sum_j C(m, j) P^(m-j) J_a^j, with
    J_a^j at j a.  The m-th power of the cuts up to a_i is yet to meet k - m
    cuts from a_(i+1) on, so no cut c of it with c + (k - m) a_(i+1) >= limit
    is formed.
    """
    cuts = sorted(jumps)
    pows = [start] + [{}] * k  # pows[m]: start times the m-th power of the cuts so far
    for i, a in enumerate(cuts):
        ups = [None, jumps[a]]  # ups[j]: J_a^j, made when first needed
        for m in range(k, 0, -1) if i + 1 < len(cuts) else (k,):  # pows[m - j] is still the old one
            reach = limit - (k - m) * cuts[i + 1] if m < k else limit
            out = {}
            for j in range(m + 1):
                for b, u in pows[m - j].items():
                    if b + j * a < reach:
                        while len(ups) <= j:
                            ups.append(_times(ups[-1], jumps[a]))
                        w, c = u if j == 0 else ups[j] if u is None else _times(u, ups[j]), comb(m, j)
                        old = out.get(b + j * a, [0] * len(w))
                        out[b + j * a] = [x + c * y for x, y in zip(old, w)]
            pows[m] = out
    return pows[k]


def _jump_chain(factors: tuple, scale: int, w1: float) -> tuple[dict[int, list[int]], int]:
    """Jumps of the convolution of the factors in y = scale * x, where
    scale * b is an integer at every breakpoint b of every factor.

    One _jumps form per distinct factor, each taken to its multiplicity by
    _power in turn.  A cut s is dropped when s plus the leftmost cuts of the
    factors still to come reaches w1: every term it feeds starts at or beyond
    w1.  Returns ({s: [c_0, ..., c_top]}, den), Taylor-normalized: the product
    is sum over cuts s < y of sum_m c_m (y - s)^m / den, with dx = dy / scale.
    """
    forms = [(_jumps(f, scale), sum(g is f for g in factors)) for f in {id(f): f for f in factors}.values()]
    lows = [k * min(jumps) for (jumps, _), k in forms]
    acc = {0: None}  # None is the unit
    for i, ((jumps, _), k) in enumerate(forms):
        acc = _power(jumps, k, w1 - sum(lows[i + 1:]), acc)
    width = sum(k * len(jumps[min(jumps)]) for (jumps, _), k in forms)
    norm = [1] * width  # norm[m] = (width - 1)! / m!
    for m in range(width - 1, 0, -1):
        norm[m - 1] = norm[m] * m
    den = Fraction(norm[0] * scale ** (len(factors) - 1)) * prod(d ** k for (_, d), k in forms)
    return {s: [u * c * den.denominator for u, c in zip(js, norm)] for s, js in acc.items()}, den.numerator


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
        if not self.breakpoints[0] <= x <= self.breakpoints[-1]:
            return _ZERO_POLY
        return self.pieces[min(bisect_right(self.breakpoints, x), len(self.pieces)) - 1]

    def eval(self, x: RationalLike) -> Fraction:
        """Value at x, half-open pieces, right-closed at the support end."""
        return self._poly_at(as_fraction(x))(x)

    __call__ = eval

    def sample_lattice(self, numerators: Sequence[int] | np.ndarray, den: int) -> np.ndarray:
        """float(self.eval(m / den)) bit for bit at the non-decreasing nodes
        m / den (a sequence or array of integers m, den >= 1); a decrease
        raises ValueError, and a value beyond the float range OverflowError,
        as float() of the Fraction does.

        A node is a double word xh + xl: for |m|, den <= 2^53, xh = RN(m / den)
        and xl the float of (m - xh den) / den, whose numerator TwoProduct
        makes exactly; at a power-of-two den, xh = m / den and xl = 0
        without it.  Any other node is NaN, which never certifies.
        _dw_horner runs a piece's _double_words at up to 2^12 nodes at once
        and proves each rounding; the rest take _exact_float, the piece's
        exact value rounded once.
        """
        m = np.asarray(numerators)
        if np.any(m[1:] < m[:-1]):
            raise ValueError("lattice nodes must be non-decreasing")
        fits = (np.abs(m) <= 2 ** 53) & (den <= 2 ** 53)
        mf, d = np.where(fits, m, nan).astype(float), float(min(den, 2 ** 53))
        xh, xl = mf / d, np.zeros(m.size)  # xh is NaN beyond 2^53: never certified
        if den & (den - 1):
            p, e = _two_prod(xh, d, _split(d))
            xl = (mf - p - e) / d
        bps, out = self.breakpoints, np.zeros(m.size)
        cuts = [bisect_left(m, ceil(b * den)) for b in bps[:-1]] + [bisect_right(m, floor(bps[-1] * den))]
        for i, piece in enumerate(self.pieces):
            if piece.is_zero() or cuts[i] >= cuts[i + 1]:
                continue
            form = piece._double_words(max(-bps[i], bps[i + 1]))
            for a in range(cuts[i], cuts[i + 1], _CHUNK):
                b = min(a + _CHUNK, cuts[i + 1])
                ok = _dw_horner(form, xh[a:b], xl[a:b], out[a:b]) if form else np.zeros(b - a, bool)
                for k in np.flatnonzero(~ok) + a:
                    out[k] = _exact_float(piece, Fraction(int(m[k]), den))
        return out

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

    def __mul__(self, other: RationalLike) -> "PiecewisePoly":
        """Scaling by an exact rational; a product of two PiecewisePolys
        raises TypeError (the integral of one is a point value, convolve_at)."""
        c = as_fraction(other)
        return PiecewisePoly(self.breakpoints, [p * c for p in self.pieces])

    __rmul__ = __mul__

    def reflect(self) -> "PiecewisePoly":
        """x -> f(-x): the breakpoints and the odd coefficients change sign."""
        return PiecewisePoly([-b for b in reversed(self.breakpoints)],
                             [Polynomial([-c if k % 2 else c for k, c in enumerate(p.coeffs)])
                              for p in reversed(self.pieces)])

    def dilate(self, lam: RationalLike) -> "PiecewisePoly":
        """Return x -> self(x / lam) for rational lam > 0: coefficient c_k
        becomes c_k / lam^k."""
        lam = as_fraction(lam)
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        return PiecewisePoly(
            [b * lam for b in self.breakpoints],
            [Polynomial([c / lam ** k for k, c in enumerate(p.coeffs)]) for p in self.pieces],
        )

    # ------------------------------------------------------------------
    # calculus

    @property
    def mass(self) -> Fraction:
        """Exact integral over the whole support."""
        return sum((p.integrate(a, b) for a, b, p in self.intervals()), Fraction(0))

    def assert_nonnegative(self) -> None:
        """Decide f >= 0 on the support exactly; raise NegativeDensity
        otherwise, naming an end or an interior point of a piece.

        A piece whose Bernstein coefficients on its interval are all >= 0 is
        nonnegative there (_bernstein: two integer Taylor shifts).  Any other
        piece is decided at its ends and at one rational point of every
        root-free gap between them (_dips_below_zero).  No float is used.
        """
        for a, b, p in self.intervals():
            if p.is_zero() or min(_bernstein(p._integers()[0], a, b)) >= 0:
                continue
            if p(a) < 0 or p(b) < 0:
                raise NegativeDensity("negative value detected on a sample point")
            if _dips_below_zero(p, a, b):
                raise NegativeDensity("negative interior minimum detected")

    def lp_mass(self, p) -> Fraction:
        """Exact integral of f^p over the support, for p = 1 or 2 (int,
        Fraction or float); any other p raises ValueError naming it.

        Requires f >= 0 on its support (this is the p-th power of the
        L^p norm of a density): assert_nonnegative decides it exactly first,
        and raises NegativeDensity otherwise.  At p = 2 the integral of f f
        is the point value (f * Tf)(0), T the reflection (convolve_at), with
        f itself as Tf when f is even, so that the chain squares one form.
        """
        if p not in (1, 2):
            raise ValueError(f"exact p-mass needs the integer p = 1 or 2, got {p}")
        self.assert_nonnegative()
        if p == 1:
            return self.mass
        tf = self.reflect()
        return self.convolve_at(self if tf == self else tf, xs=(0,))[0]

    # ------------------------------------------------------------------
    # convolution

    def convolve(self, other: "PiecewisePoly", *more: "PiecewisePoly", lo: RationalLike | None = None,
                 hi: RationalLike | None = None) -> "PiecewisePoly":
        """Exact convolution f * g * ... of self and one or more factors,
        (f * g)(x) = int f(t) g(x - t) dt, in jump form, on the window
        [lo, hi]: exactly the product there and zero outside, with an end
        left out taken as unbounded.

        In truncated powers, f = sum J_{a,j} (x-a)_+^j / j! over breakpoints
        a and orders j, with J_{a,j} the jump of the j-th derivative at a,
        and g = sum J_{b,k} (x-b)_+^k / k! likewise.  By the identity

            (x-a)_+^j/j! * (x-b)_+^k/k! = (x-a-b)_+^(j+k+1) / (j+k+1)!

        the jump of order m of f * g at s is the sum of J_{a,j} J_{b,k} over
        a + b = s and j + k + 1 = m.  _jump_chain makes one form per
        distinct factor and takes it to its multiplicity by the binomial
        theorem, cut by cut; one integer Taylor shift per cut turns the
        product's jumps back into monomials, and a running sum over the
        cuts gives the pieces.  The variable is scaled so that every
        breakpoint and both window ends are integers: all of it is integer
        arithmetic over one denominator.

        Only the window is built.  A term at s >= hi is zero below hi, so no
        cut that reaches hi, even with the leftmost cuts of the factors
        still to come, is formed or shifted.  The running sum passes every
        cut below lo, but pieces become Fractions only from lo on.  An empty
        window (lo >= hi) raises ValueError; a zero factor, or a window that
        misses the support, gives zero.
        """
        factors = (self, other) + more
        lo, hi = (None if w is None else as_fraction(w) for w in (lo, hi))
        if lo is not None and hi is not None and lo >= hi:
            raise ValueError(f"empty window [{lo}, {hi}]")
        start, end = (sum(ends) for ends in zip(*(h.support for h in factors)))
        if any(h.is_zero() for h in factors) or (hi is not None and hi <= start) or (lo is not None and lo >= end):
            return PiecewisePoly.zero()
        window = tuple(w for w in (lo, hi) if w is not None)
        scale = lcm(*(b.denominator for h in factors for b in h.breakpoints + window))
        w0 = -inf if lo is None else lo.numerator * (scale // lo.denominator)
        w1 = inf if hi is None else hi.numerator * (scale // hi.denominator)
        acc, den = _jump_chain(factors, scale, w1)
        cuts = sorted(acc)
        # the run is zero past the support end, the last cut when it is
        # below hi; otherwise hi closes the last piece
        edges = cuts if hi is None or end < hi else cuts + [w1]
        pieces, run = [], [0] * len(acc[cuts[0]])
        for s, t in zip(edges, edges[1:]):
            run = [r + c for r, c in zip(run, _taylor_shift(acc[s], -s))]
            if t > w0:
                pieces.append(Polynomial([Fraction(c * scale ** k, den) for k, c in enumerate(run)]))
        bps = edges[len(edges) - len(pieces) - 1:]
        bps[0] = max(bps[0], w0)
        return PiecewisePoly([Fraction(s, scale) for s in bps], pieces)

    def convolution_power(self, n: int, lo: RationalLike | None = None,
                          hi: RationalLike | None = None) -> "PiecewisePoly":
        """C_n(f), the n-fold self convolution, exact, on the window
        [lo, hi] as in convolve: one product of n factors, whose jump form
        is f's, taken once.  n = 1 is f itself and takes no window."""
        if n < 1 or n == 1 and (lo, hi) != (None, None):
            raise ValueError("convolution_power takes n >= 1, and a window only for n >= 2")
        return self if n == 1 else self.convolve(*[self] * (n - 1), lo=lo, hi=hi)

    def convolve_at(self, other: "PiecewisePoly", *more: "PiecewisePoly",
                    xs: Iterable[RationalLike]) -> list[Fraction]:
        """self.convolve(other, *more).eval(x) at each rational x, with no
        piece built: the jumps of convolve's chain, with no cut that reaches
        max(xs).  A product of two or more factors is continuous, so its
        value at y = scale * x is sum_{s < y} sum_m c_m (y - s)^m / den.

        The integral of a product g h is (g * Th)(0), with Th = h.reflect():
        lp_mass and the least-squares fit of the counterexample take it so.
        """
        factors, xs = (self, other) + more, [as_fraction(x) for x in xs]
        if not xs or any(h.is_zero() for h in factors):
            return [Fraction(0)] * len(xs)
        scale = lcm(*(b.denominator for h in factors for b in h.breakpoints), *(x.denominator for x in xs))
        ys = [x.numerator * (scale // x.denominator) for x in xs]
        acc, den = _jump_chain(factors, scale, max(ys))
        return [Fraction(sum(_horner(cs[::-1], y - s) for s, cs in acc.items() if s < y), den) for y in ys]

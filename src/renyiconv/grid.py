"""Sampled nonnegative functions on a uniform grid.

Floating-point companion to the exact piecewise layer: supplies
convolution, powers, norms and reflection for general real exponents
(the symmetric decreasing rearrangement is a test instrument, in
tests/instruments.py).  Integrals are plain
rectangle-rule sums dx * sum(values), which makes the discrete mass of a
convolution factor exactly and keeps the solver's discrete identities
clean.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .piecewise import PiecewisePoly

# negatives within this of zero are clamped at construction, below it rejected
NEGATIVE_CLAMP = 1e-12
# convolution roundoff clamp, relative to the largest output value
_CONV_CLAMP_REL = 1e-10
_SPACING_RTOL = 1e-12
CSV_HEADER = "x,value"  # of the plot CSVs, written by the CLI and read by read_csv


def _lattice_index(x: float, x0: float, dx: float, size: int) -> int:
    """Index k of the node x = x0 + k*dx, 0 <= k < size; raises if x is
    not one."""
    k = (x - x0) / dx
    ki = round(k)
    if abs(k - ki) > 1e-6 or not (0 <= ki < size):
        raise ValueError(f"x = {x} is not a grid node")
    return int(ki)


class MismatchedSpacing(ValueError):
    """Raised when an operation combines grids with different spacing."""


class AsymmetricGrid(ValueError):
    """Raised when an operation requires a grid symmetric about 0."""


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nonnegative samples on the uniform grid x0 + k*dx, k = 0..n-1.

    Equal when x0, dx and every value are equal, like PiecewisePoly."""

    x0: float
    dx: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (self.dx > 0):
            raise ValueError("dx must be positive")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("values must be a 1-D sequence of length >= 2")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        low = float(vals.min())
        if low < 0:
            if low < -NEGATIVE_CLAMP:
                raise ValueError(f"negative value {low} below clamp tolerance")
            vals = np.maximum(vals, 0.0)
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        return (isinstance(other, GridFunction) and self.x0 == other.x0 and self.dx == other.dx
                and np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which array_equal counts as equal
        return hash((self.x0, self.dx, (self.values + 0.0).tobytes()))

    @property
    def nodes(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)

    @property
    def x_end(self) -> float:
        return self.x0 + self.dx * (self.values.size - 1)

    @property
    def support(self) -> tuple[float, float]:
        return self.x0, self.x_end

    @property
    def mass(self) -> float:
        """Rectangle-rule integral dx * sum(values), fsum over a memoryview (no list)."""
        return self.dx * math.fsum(memoryview(self.values))

    def lp_mass(self, p) -> float:
        """dx * sum f[i]^p, the p-th power of the grid L^p norm, for p >= 1."""
        if not (p >= 1):
            raise ValueError("lp_mass requires p >= 1")
        return self.dx * math.fsum(memoryview(np.power(self.values, float(p))))

    def node_index(self, x: float) -> int:
        """Index of the node at x; raises if x is not a node."""
        return _lattice_index(x, self.x0, self.dx, self.values.size)

    def __call__(self, x: float) -> float:
        """Value at the node x; raises if x is not a node."""
        return float(self.values[self.node_index(x)])

    def with_values(self, values: np.ndarray) -> "GridFunction":
        """Same grid, new values (validated by the constructor)."""
        return GridFunction(self.x0, self.dx, values)

    def __mul__(self, c: float) -> "GridFunction":
        """Pointwise multiple c*f, c >= 0."""
        return self.with_values(c * self.values)

    def convolve(self, g: "GridFunction") -> "GridFunction":
        """The plain pair f * g of convolve_grid, full output."""
        return convolve_grid(self, g)

    def dilate(self, lam: float) -> "GridFunction":
        """The function x -> f(x/lam): same samples on the lattice scaled
        by lam.  No interpolation, so discrete norms transform exactly by
        the continuum rules."""
        if not (lam > 0):
            raise ValueError("dilation factor must be positive")
        return GridFunction(lam * self.x0, lam * self.dx, self.values)


def symmetric_grid(values: Sequence[float], dx: float) -> GridFunction:
    """Grid symmetric about 0: odd node count, x0 = -(n-1)/2 * dx."""
    vals = np.asarray(values, dtype=float)
    if vals.size % 2 == 0:
        raise AsymmetricGrid("symmetric grid needs an odd number of nodes")
    return GridFunction(-(vals.size - 1) / 2 * dx, dx, vals)


def sample(f: PiecewisePoly, dx: float) -> GridFunction:
    """Sample f at the float nodes x_k = lo + k*dx covering its support,
    lo = float(support start).

    Each value is the correctly rounded float of f's exact value at the
    node x_k itself (a float is an exact dyadic rational).  The nodes go
    to PiecewisePoly.sample_lattice as integer numerators over the
    largest of their power-of-two denominators, generated twice rather
    than stored.
    """
    if not (dx > 0):
        raise ValueError("dx must be positive")
    lo, hi = float(f.support[0]), float(f.support[1])
    n = max(2, int(math.ceil((hi - lo) / dx - 1e-9)) + 1)

    def ratios():
        return ((lo + k * dx).as_integer_ratio() for k in range(n))

    den = max(q for _, q in ratios())
    vals = np.fromiter(f.sample_lattice((m * (den // q) for m, q in ratios()), den), float, count=n)
    return GridFunction(lo, dx, vals)


def _check_spacing(f: GridFunction, g: GridFunction) -> float:
    if abs(f.dx - g.dx) > _SPACING_RTOL * max(f.dx, g.dx):
        raise MismatchedSpacing(f"dx mismatch: {f.dx} vs {g.dx}")
    return f.dx


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c at or above n."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power-of-two multiple of p35 that reaches n
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def convolve_grid(f: GridFunction, g: GridFunction, *more: GridFunction,
                  lo: float | None = None, hi: float | None = None,
                  spectra: dict | None = None) -> GridFunction:
    """Discrete convolution of two or more factors on a common spacing:
    (f*g)[i] = dx * sum_j f[j] g[i-j], and dx^(k-1) times the plain sum
    for k factors.

    The full output starts at the sum of the factors' x0 and has
    sum(len) - k + 1 nodes.  A window [lo, hi] (both nodes of that
    lattice, each defaulting to its end) returns only the nodes in it.

    Each distinct sample array's rfft is taken once at one cyclic length
    L, the spectra are multiplied and inverted once.  A window starting
    at linear index w0 with W nodes is alias-free when
    L >= max(n_out - w0, w0 + W) and L covers the longest factor; L is
    the smallest 2^a 3^b 5^c that does.  A pair called with no window
    (neither lo nor hi) keeps the power of two covering n_out, so its
    bits stay what they were: exact-lane results downstream are pinned.
    Roundoff can leave tiny negatives on nodes whose true value is 0;
    they are clamped relative to the window's peak.

    spectra is an optional memo owned by the caller, for products that
    share a factor: it maps (id(values), L) to (values, rfft of values at
    L), and holding the array keeps its id from being reused.  Spectra
    found there are reused and never written to.  The spectrum of a
    factor repeated in this product is added to it; that of a factor
    used once is not, since the product overwrites it.  The memo never
    changes a product's bits.
    """
    factors = (f, g) + more
    for h in factors[1:]:
        _check_spacing(f, h)
    dx = f.dx
    n_out = sum(h.values.size for h in factors) - len(factors) + 1
    x0 = sum(h.x0 for h in factors)
    w0 = 0 if lo is None else _lattice_index(lo, x0, dx, n_out)
    w1 = n_out - 1 if hi is None else _lattice_index(hi, x0, dx, n_out)
    if w1 < w0:
        raise ValueError(f"empty window [{lo}, {hi}]")
    width = w1 - w0 + 1
    if len(factors) == 2 and lo is None and hi is None:
        n_fft = 1 << (n_out - 1).bit_length()
    else:
        n_fft = _smooth_length(max(n_out - w0, w0 + width, *(h.values.size for h in factors)))
    multiplicity = {}
    for h in factors:
        multiplicity.setdefault(id(h.values), [h.values, 0])[1] += 1
    prod, owned = None, False
    for key, (vals, k) in multiplicity.items():
        hit = None if spectra is None else spectra.get((key, n_fft))
        spec = np.fft.rfft(vals, n_fft) if hit is None else hit[1]
        # a fresh spectrum used once is consumed: the product may take its
        # buffer.  One used again is kept apart, and memoized if asked.
        consumed = hit is None and k == 1
        if hit is None and k > 1 and spectra is not None:
            spectra[key, n_fft] = (vals, spec)
        for _ in range(k):
            if prod is None:
                prod, owned = spec, consumed
            elif owned:
                prod *= spec
            else:
                prod, owned = np.multiply(prod, spec, out=spec if consumed else None), True
    del spec
    out = np.fft.irfft(prod, n_fft)[w0:w1 + 1]
    del prod
    clamp = _CONV_CLAMP_REL * max(1.0, float(np.abs(out).max()))
    out[(out < 0) & (out > -clamp)] = 0.0
    return GridFunction(x0 + w0 * dx, dx, dx ** (len(factors) - 1) * out)


def power_real(f: GridFunction, q: float) -> GridFunction:
    """Pointwise power f^q for real q > 0 (0^q = 0)."""
    if not (q > 0):
        raise ValueError("power_real requires q > 0")
    return f.with_values(np.power(f.values, q))


def reflect(f: GridFunction) -> GridFunction:
    """The grid function x -> f(-x)."""
    return GridFunction(-f.x_end, f.dx, f.values[::-1])


def read_csv(path) -> GridFunction:
    """Read a CSV under CSV_HEADER, as the CLI writes; numpy parses the rows
    to the floats float() gives.  Validates uniform spacing, which NaN x fails."""
    with open(path, newline="") as fh, warnings.catch_warnings():
        header = next(csv.reader([fh.readline()]), [])
        if [h.strip().lower() for h in header[:2]] != CSV_HEADER.split(","):
            raise ValueError(f"expected header row '{CSV_HEADER}'")
        # no rows is reported below, not as numpy's "input contained no data"
        warnings.simplefilter("ignore", UserWarning)
        xs, vs = np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=2, comments=None, quotechar='"', unpack=True)
    if xs.size < 2:
        raise ValueError("need at least two rows")
    dx = (float(xs[-1]) - float(xs[0])) / (xs.size - 1)
    if not (0 < dx < math.inf and np.all(np.abs(np.diff(xs) - dx) <= 1e-9 * max(1.0, dx))):
        raise ValueError("grid spacing is not uniform")
    return GridFunction(float(xs[0]), dx, vs)

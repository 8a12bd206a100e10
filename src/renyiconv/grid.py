"""Sampled nonnegative functions on a uniform grid.

Floating-point companion to the exact piecewise layer: supplies
convolution, powers, norms and reflection for general real exponents
(the symmetric decreasing rearrangement is a test instrument, in
tests/instruments.py).  Integrals are plain rectangle-rule sums
dx * sum(values), which makes the discrete mass of a convolution factor
exactly and keeps the solver's discrete identities clean.  Every grid on
[-1, 1] comes from unit_nodes, and sample reads an exact density at those
nodes as the integers node * 2^53 over 2^53.  convolve_grid runs a
product of even samples, the solver's iterates and kernels, on real
DCT-Is of half the period, and every other product on rffts.
"""
from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .piecewise import PiecewisePoly

# negatives within this of zero are clamped at construction, below it rejected
NEGATIVE_CLAMP = 1e-12
# convolution roundoff clamp, relative to the largest output value
_CONV_CLAMP_REL = 1e-10
_SPACING_RTOL = 1e-12
CSV_HEADER = "x,value"  # of the plot CSVs, written by the CLI and read by read_csv
_SUM_BLOCK = 1 << 14  # values per bincount in exact_sum: bucket sums stay below 2^41
MAX_GRID_NODES = 1 << 24  # most nodes of a grid made from a density, 128 MiB of floats
PLOT_DEN = 1000  # plot CSVs and the counterexample's residual sample [-1, 1] at k / PLOT_DEN, k in PLOT_NODES
PLOT_NODES = range(-PLOT_DEN, PLOT_DEN + 1)
_COS_BLOCK = 32  # the cosine route's half periods are multiples, which _dct1 halves down to the rfft


def exact_sum(a: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D float array, the bits math.fsum
    gives, without a Python float per element (where fsum raises because
    a partial sum overflows, a finite total is still returned).

    Each value is M 2^(e-53) with an integer |M| < 2^53 (frexp), split as
    M = H 2^27 + L with 0 <= L < 2^27.  bincount sums the halves per e, in
    blocks of 2^14 values, so every bucket sum stays below 2^53 and is
    exact; the buckets meet in one Python int, divided once by a power of
    two, which rounds correctly.  Non-finite input goes to math.fsum, so an
    overflowed power still sums to inf; a finite total beyond the float
    range raises OverflowError, as math.fsum does.
    """
    if not (a.size and math.isfinite(float(a.min())) and math.isfinite(float(a.max()))):
        return math.fsum(memoryview(a))
    total = 0
    for start in range(0, a.size, _SUM_BLOCK):
        mant, ex = np.frexp(a[start:start + _SUM_BLOCK])
        mant *= 2.0 ** 26  # M / 2^27, exact
        high = np.floor(mant)  # H
        mant -= high  # L / 2^27
        base = int(ex.min())
        ex -= base
        hs = np.bincount(ex, weights=high).astype(np.int64).tolist()
        ls = (np.bincount(ex, weights=mant) * 2.0 ** 27).astype(np.int64).tolist()
        # bucket b holds e = base + b, where M is worth 2^(b + base + 1073) / 2^1126
        total += sum(((h << 27) + lo) << (b + base + 1073) for b, (h, lo) in enumerate(zip(hs, ls)) if h or lo)
    return total / (1 << 1126)


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
        # min and max are finite exactly when every value is (NaN propagates)
        low = float(vals.min())
        if not (math.isfinite(low) and math.isfinite(float(vals.max()))):
            raise ValueError("values must be finite")
        if low < 0:
            if low < -NEGATIVE_CLAMP:
                raise ValueError(f"negative value {low} below clamp tolerance")
            vals = np.maximum(vals, 0.0)
        else:
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
        """Rectangle-rule integral dx * sum(values), the sum correctly rounded."""
        return self.dx * exact_sum(self.values)

    def lp_mass(self, p) -> float:
        """dx * sum f[i]^p, the p-th power of the grid L^p norm, for p >= 1;
        inf, without a warning, where a power leaves the float range."""
        if not (p >= 1):
            raise ValueError("lp_mass requires p >= 1")
        with np.errstate(over="ignore"):
            powers = np.power(self.values, float(p))
        return self.dx * exact_sum(powers)

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

    def convolution_power(self, n: int, lo: float | None = None, hi: float | None = None, *,
                          spectra: dict | None = None) -> "GridFunction":
        """C_n(f), the n-fold self convolution, on the window [lo, hi] of
        convolve_grid (the whole output by default): one product of n
        factors, for the whole output at the length L of the stationarity
        and p = 2 update kernels of f.  n = 1 is f itself
        and takes no window.  spectra is convolve_grid's memo: for n >= 2
        it then holds f's spectrum, for the next product with f."""
        if n < 1 or n == 1 and (lo, hi) != (None, None):
            raise ValueError("convolution_power takes n >= 1, and a window only for n >= 2")
        if n == 1:
            return self
        # a window, even the whole output, gives a pair (n = 2) the length L
        lo = n * self.x0 if lo is None else lo
        return convolve_grid(*[self] * n, lo=lo, hi=hi, spectra=spectra)

    def dilate(self, lam: float) -> "GridFunction":
        """The function x -> f(x/lam): same samples on the lattice scaled
        by lam.  No interpolation, so discrete norms transform exactly by
        the continuum rules."""
        if not (lam > 0):
            raise ValueError("dilation factor must be positive")
        return GridFunction(lam * self.x0, lam * self.dx, self.values)


def unit_steps(dx: float) -> int:
    """1/dx, the steps from 0 to 1 of the grid of [-1, 1] at spacing dx.
    Raises ValueError unless dx > 0, the 2/dx + 1 nodes number at most
    MAX_GRID_NODES and dx divides 1, so that 0 and +-1 are nodes."""
    if not dx > 0:
        raise ValueError("dx must be positive")
    steps = round(min(1.0 / dx, MAX_GRID_NODES))  # min: round of inf raises
    if 2 * steps + 1 > MAX_GRID_NODES:
        raise ValueError(f"dx = {dx} needs more than {MAX_GRID_NODES} grid nodes on [-1, 1]")
    if not abs(steps * dx - 1.0) <= 1e-9:  # NaN (dx = inf) fails too
        raise ValueError("dx must divide 1 so that 0 and +-1 are grid nodes")
    return steps


def unit_nodes(dx: float) -> np.ndarray:
    """The nodes -1 + k*dx, k = 0..2 unit_steps(dx), of [-1, 1], where
    every grid on [-1, 1] lives; dx is checked before any node is made."""
    return -1.0 + np.arange(2 * unit_steps(dx) + 1) * dx


def sample(f: PiecewisePoly, dx: float) -> GridFunction:
    """f at unit_nodes(dx), for f supported in [-1, 1] (ValueError
    otherwise): each value the correctly rounded float of f's exact value
    at the node, from PiecewisePoly.sample_lattice at node * 2^53 over 2^53.
    These are integers: a node is fl(-1 + y), y = fl(k dx) >= 0.  For
    1/2 <= y <= 2 it is -1 + y exactly (Sterbenz), and y is a multiple of
    2^-53; for y < 1/2 it lies in (-1, -1/2], where floats are 2^-53 apart,
    and for y > 2 past 1, where they are 2^-52 apart.
    """
    if f.support[0] < -1 or f.support[1] > 1:
        raise ValueError("grid.sample takes a density supported in [-1, 1]")
    return GridFunction(-1.0, dx, f.sample_lattice((unit_nodes(dx) * 2.0 ** 53).astype(np.int64), 2 ** 53))


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


def _dct1(x: np.ndarray, twiddles: np.ndarray) -> np.ndarray:
    """DCT-I of x_0..x_P: X_k = x_0 + (-1)^k x_P + 2 sum_{0<m<P} x_m
    cos(pi m k / P), k = 0..P, the rfft of x's even extension of period
    2P, taken as such at an odd P or one up to _COS_BLOCK.  Above, m splits
    by parity: X_k = E_k + R_k and X_{P-k} = E_k - R_k for k <= P/2, E the
    DCT-I of the even-indexed x and R twice the DCT-II of the odd-indexed,
    one rfft of length P/2 by Makhoul's reordering (IEEE Trans. ASSP 28,
    1980).  twiddles[k] = 2 exp(-i pi k / P), k <= P/4."""
    P = x.size - 1
    if P % 2 or P <= _COS_BLOCK:
        return np.fft.rfft(np.concatenate((x, x[-2:0:-1]))).real
    e = _dct1(x[::2], twiddles[::2])
    n, m = P // 2, P // 4
    wv = np.fft.rfft(np.concatenate((x[1::4], x[3::4][::-1]))) * twiddles[:m + 1]
    r = np.empty(n + 1)
    r[::-1][:m + 1] = -wv.imag  # R_{n-k}
    r[:m + 1] = wv.real
    out = np.empty(P + 1)
    np.subtract(e, r, out=out[n:][::-1])
    np.add(e, r, out=out[:n + 1])
    return out


def convolve_grid(f: GridFunction, g: GridFunction, *more: GridFunction,
                  lo: float | None = None, hi: float | None = None,
                  spectra: dict | None = None) -> GridFunction:
    """Discrete convolution of two or more factors on a common spacing:
    (f*g)[i] = dx * sum_j f[j] g[i-j], and dx^(k-1) times the plain sum
    for k factors.

    The full output starts at the sum of the factors' x0 and has
    sum(len) - k + 1 nodes.  A window [lo, hi] (both nodes of that
    lattice, each defaulting to its end) returns only the nodes in it.

    Each distinct sample array is transformed once at one cyclic length
    L, the spectra are multiplied and inverted once.  A window starting
    at linear index w0 with W nodes is alias-free when
    L >= max(n_out - w0, w0 + W) and L covers the longest factor.  A
    product of odd-length palindromes on a window symmetric about the
    output's centre is even and runs on cosine transforms (Martucci, IEEE
    Trans. Signal Process. 42, 1994): _dct1 of each factor's right half
    at the half period P, the least 5-smooth multiple of _COS_BLOCK with
    L = 2P at the bound, and _dct1 of the product over 2P give the
    window's right half, mirrored to the left.  Every other product takes
    rffts at the least 5-smooth L, but a pair called with no window
    (neither lo nor hi) keeps the power of two covering n_out, so its
    bits stay what they were.  Its two callers build C_3 as a chain of
    such pairs: solver.run_fixed_point, for the exact solve's residual
    (pinned by sha256 through solution.json), and estimate_x6_grid (whose
    sixth difference moves by 2.2e-8 relative on the 5-smooth route).
    Roundoff can leave tiny negatives on nodes whose true value is 0;
    they are clamped relative to the window's peak, in place, through one
    boolean mask.

    spectra is an optional hand-over, owned by the caller, between two
    products that share a factor: it maps (id(values), L, even) to
    (values, spectrum), and holding the array keeps its id from being
    reused.  A product stores there the spectrum of a factor it repeats,
    and the next product with that factor on the same route at L takes it
    out instead of transforming again.  The memo never changes a
    product's bits.

    A spectrum held nowhere else is the product's to overwrite: the
    product is formed in it, and a factor used twice is squared in
    place, so such a factor costs no buffer beyond its spectrum.  One
    used more often, or stored, is kept apart.
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
    bound = max(n_out - w0, w1 + 1, *(h.values.size for h in factors))
    multiplicity = {}
    for h in factors:
        multiplicity.setdefault(id(h.values), [h.values, 0])[1] += 1
    pair = len(factors) == 2 and lo is None and hi is None
    even = not pair and w0 + w1 == n_out - 1 and all(
        vals.size % 2 and np.array_equal(vals, vals[::-1]) for vals, _ in multiplicity.values())
    if even:
        half = _COS_BLOCK * _smooth_length(-(-bound // (2 * _COS_BLOCK)))
        n_fft = 2 * half
        # 2 exp(-i pi k / half) for k = s j + i <= half / 4, from two tables of about s
        step, s = -1j * np.pi / half, math.isqrt(half // 4) + 1
        twiddles = np.multiply.outer(2.0 * np.exp(step * s * np.arange(s + 1)), np.exp(step * np.arange(s)))
        twiddles = twiddles.ravel()[:half // 4 + 1]
    else:
        n_fft = 1 << (n_out - 1).bit_length() if pair else _smooth_length(bound)
    prod, owned = None, False
    for key, (vals, k) in multiplicity.items():
        hit = None if spectra is None else spectra.pop((key, n_fft, even), None)
        if hit is not None:
            spec = hit[1]
        elif even:  # the right half from the centre node, padded to half + 1 values
            spec = _dct1(np.concatenate((vals[vals.size // 2:], np.zeros(half - vals.size // 2))), twiddles)
        else:
            spec = np.fft.rfft(vals, n_fft)
        stored = hit is None and k > 1 and spectra is not None
        if stored:
            spectra[key, n_fft, even] = (vals, spec)
        for _ in range(k):
            if prod is None:
                prod, owned = spec, not stored and k <= 2
            elif owned:
                prod *= spec
            else:
                prod, owned = prod * spec, True
    del spec, hit
    if even:
        out, r = np.empty(w1 - w0 + 1), (w1 - w0) // 2
        np.divide(_dct1(prod, twiddles)[:r + 1], n_fft, out=out[r:])
        out[:r] = out[:r:-1]
    else:
        out = np.fft.irfft(prod, n_fft)[w0:w1 + 1]
    del prod
    clamp = _CONV_CLAMP_REL * max(1.0, float(out.max()), -float(out.min()))
    tiny = out > -clamp
    np.less(out, 0.0, out=tiny, where=tiny)  # now -clamp < out < 0
    out[tiny] = 0.0
    del tiny
    return GridFunction(x0 + w0 * dx, dx, dx ** (len(factors) - 1) * out)


def power_real(f: GridFunction, q: float) -> GridFunction:
    """Pointwise power f^q for real q > 0 (0^q = 0)."""
    if not (q > 0):
        raise ValueError("power_real requires q > 0")
    return f.with_values(np.power(f.values, q))


def reflect(f: GridFunction) -> GridFunction:
    """The grid function x -> f(-x)."""
    return GridFunction(-f.x_end, f.dx, f.values[::-1])


def _load_rows(lines):
    return np.loadtxt(lines, delimiter=",", usecols=(0, 1), ndmin=2, comments=None, quotechar='"', unpack=True)


def _name_bad_line(fh, exc: ValueError) -> str:
    """numpy's message for a bad row, with its row number (which skips
    blank lines and is 0- or 1-based by error kind) replaced by the file
    line: the rows after the header are parsed again, one line at a time."""
    fh.seek(0)
    fh.readline()
    line = 1

    def counted():
        nonlocal line
        for text in fh:
            line += 1
            yield text

    try:
        _load_rows(counted())
    except ValueError as again:
        exc = again
    msg, found = re.subn(r"\brow \d+", f"line {line}", str(exc))
    return msg if found else f"line {line}: {msg}"


def read_csv(path) -> GridFunction:
    """Read a CSV under CSV_HEADER, as the CLI writes; numpy parses the rows
    to the floats float() gives, and a row it rejects is named by its file
    line.  Validates uniform spacing, which NaN x fails."""
    with open(path, newline="") as fh, warnings.catch_warnings():
        header = next(csv.reader([fh.readline()]), [])
        if [h.strip().lower() for h in header[:2]] != CSV_HEADER.split(","):
            raise ValueError(f"expected header row '{CSV_HEADER}'")
        # no rows is reported below, not as numpy's "input contained no data"
        warnings.simplefilter("ignore", UserWarning)
        try:
            xs, vs = _load_rows(fh)
        except ValueError as exc:
            raise ValueError(_name_bad_line(fh, exc)) from None
    if xs.size < 2:
        raise ValueError("need at least two rows")
    dx = (float(xs[-1]) - float(xs[0])) / (xs.size - 1)
    if not (0 < dx < math.inf and np.all(np.abs(np.diff(xs) - dx) <= 1e-9 * max(1.0, dx))):
        raise ValueError("grid spacing is not uniform")
    return GridFunction(float(xs[0]), dx, vs)

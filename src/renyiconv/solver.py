"""Fixed-point iteration for candidate extremizers.

The update takes a kernel K of the current iterate, renormalizes it
affinely so the value at 0 is 1 and the value at 1 is 0, restricts to
[-1, 1] and takes the positive part, raised to 1/(p-1):

    f_new = ((K - K(1)) / (K(0) - K(1)))_+^(1/(p-1))  on [-1, 1],

so a fixed point satisfies K = a f^(p-1) + b.  K is the first-variation
kernel T(C_{n-1}(f)) * (C_n(f))^(p-1).  One kernel rule covers every
(n, p):

  - p = 2: K = C_{2n-1}(f) on [-1, 1], f.convolution_power(2n - 1, -1, 1)
    in both lanes, which equals the first-variation kernel for an even f.
    The grid update folds K even, so every grid iterate is even.  On a
    grid, one windowed product: 2 transforms.
  - otherwise: the first-variation kernel itself (stationarity_kernel):
    4 transforms, C_n and one more product sharing f's one spectrum.

Exact mode runs over rational piecewise polynomials at (n, p) = (2, 2),
where K is C_3; grid mode runs every (n, p).
Beyond (2, 2) the update is a plausible extension, not an established
scheme, but no step lowers the dilation-invariant ratio
I / (mass^((n-1)p) ||f||_p^p) beyond roundoff (tests/test_solver.py).

iterate_once is the single update step and iterations the single loop;
run_fixed_point and the CLI both consume the loop, and run_fixed_point
returns every outcome (a spent grid budget is converged False).  Both
lanes run the same code: an exact and a sampled density answer the same
questions (support, value at a point, C_n on a window), and the only
lane choices left are the exact lane's (2, 2) guard and its asserting
nonnegativity where the grid takes the positive part.  No command checks a (2, 2)
fixed point against the stationarity coefficients; tests/instruments.py
does.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Union

import numpy as np

from . import grid as _grid
from .entropy import Density, check_exponent
from .euler_lagrange import stationarity_kernel
from .grid import GridFunction
from .piecewise import PiecewisePoly

_SUPPORT_SLACK = 1e-9


class DegenerateNormalizer(ArithmeticError):
    """Raised when K(0) = K(1), so the affine renormalization is undefined."""


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "grid"
    n: int = 2
    p: float = 2.0
    max_iter: Optional[int] = None
    tol: float = 1e-10
    dx: float = 1e-3

    def __post_init__(self):
        if self.mode not in ("exact", "grid"):
            raise ValueError("mode must be 'exact' or 'grid'")
        if not (isinstance(self.n, int) and self.n >= 2):
            raise ValueError("n must be an integer >= 2")
        check_exponent(self.p)
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        if self.max_iter is not None and self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.mode == "exact" and (self.n, self.p) != (2, 2):
            raise ValueError("exact mode supports only n = 2, p = 2")

    def resolved_max_iter(self) -> int:
        if self.max_iter is not None:
            return self.max_iter
        return 4 if self.mode == "exact" else 200


class Step(NamedTuple):
    f: Density        # the new iterate
    a: Union[Fraction, float]  # K(0) - K(1) of the kernel of the old iterate
    b: Union[Fraction, float]  # K(1)
    clipped: bool     # the positive part removed a negative value


class IterationRecord(NamedTuple):
    iteration: int
    sup_step: float
    a: float          # K(0) - K(1) of the iterate that produced this one
    b: float          # K(1)
    clipped: bool


@dataclass(frozen=True)
class FixedPointSolution:
    f: Density
    a: float
    b: float
    iterations: int
    final_step_sup: float
    el_residual_sup: float
    converged: bool   # False when a grid solve spent max_iter above tol
    history: tuple = field(default_factory=tuple)
    clip_was_active: bool = False


def initial_iterate(config: SolverConfig) -> Density:
    """f_0 = indicator of [-1, 1], exact or sampled."""
    f0 = PiecewisePoly.indicator(-1, 1)
    if config.mode == "exact":
        return f0
    steps = round(1.0 / config.dx)
    if not abs(steps * config.dx - 1.0) <= 1e-9:  # NaN (dx = inf) fails too
        raise ValueError("dx must divide 1 so that 0 and +-1 are grid nodes")
    return _grid.symmetric_grid(np.ones(2 * steps + 1), config.dx)


def _kernel_of(f: Density, n: int, p: float) -> Density:
    """The update kernel on [-1, 1], all that the update and its final fit
    read.  At p = 2, in both lanes, it is C_{2n-1}(f) there (on a grid one
    product, 2 transforms), which is the first-variation kernel
    T(C_{n-1}(f)) * C_n(f) of the even iterates the update makes.
    Otherwise it is the first-variation kernel, stationarity_kernel:
    4 transforms."""
    if isinstance(f, PiecewisePoly) and (n, p) != (2, 2):
        raise ValueError("exact iteration supports only n = 2, p = 2")
    if p == 2:
        return f.convolution_power(2 * n - 1, -1, 1)
    return stationarity_kernel(f, n, p)


def iterate_once(f: Density, n: int = 2, p: float = 2.0) -> Step:
    """One fixed-point update; input must be supported in [-1, 1].

    Exact input supports only (n, p) = (2, 2).  There the affine
    renormalization must already be nonnegative: exact mode cannot
    represent the positive part across an irrational zero crossing, so a
    negative dip raises NegativeDensity rather than being clipped.
    """
    lo, hi = f.support
    if lo < -1 - _SUPPORT_SLACK or hi > 1 + _SUPPORT_SLACK:
        raise ValueError("iterate must be supported in [-1, 1]")
    K = _kernel_of(f, n, p)
    exact = isinstance(f, PiecewisePoly)
    if not exact:
        # fold K even, so every grid iterate is even and T f = f holds
        K = K.with_values(0.5 * (K.values + K.values[::-1]))
    k0, k1 = K(0), K(1)
    if k0 == k1:
        raise DegenerateNormalizer("K(0) = K(1)")
    if exact:
        g = (K - PiecewisePoly.indicator(-1, 1, k1)) * (1 / (k0 - k1))
        g.assert_nonnegative()
        return Step(g, k0 - k1, k1, False)
    i_lo, i_hi = K.node_index(-1.0), K.node_index(1.0)
    raw = (K.values[i_lo:i_hi + 1] - k1) / (k0 - k1)
    vals = np.maximum(raw, 0.0)
    if p != 2:
        vals = vals ** (1.0 / (p - 1.0))
    return Step(GridFunction(-1.0, f.dx, vals), k0 - k1, k1, bool(raw.min() < 0))


def iterations(f: Density, fs: GridFunction, sample: Callable[[Density], GridFunction],
               steps: int, n: int = 2, p: float = 2.0) -> Iterator[tuple[IterationRecord, Density, GridFunction]]:
    """Run up to `steps` updates from f, yielding (record, iterate, samples).

    fs is f as sampled by the caller's sample(), the same map that is
    applied once to every new iterate; the record's sup_step is the
    sup-norm difference of consecutive samples.
    """
    for j in range(1, steps + 1):
        g, a, b, clipped = iterate_once(f, n, p)
        gs = sample(g)
        yield IterationRecord(j, _sup_diff(fs, gs), float(a), float(b), clipped), g, gs
        f, fs = g, gs


def _sup_diff(fs: GridFunction, gs: GridFunction) -> float:
    """sup |fs - gs| over their nodes; raises ValueError unless both
    sample one node set (same dx and length, first nodes within 1e-6 dx)."""
    if fs.dx != gs.dx or len(fs) != len(gs) or abs(fs.x0 - gs.x0) > 1e-6 * fs.dx:
        raise ValueError("step difference needs samples on one node set")
    return float(np.max(np.abs(fs.values - gs.values)))


def _affine_residual_sup(fs: GridFunction, K: GridFunction, a: float, b: float, p: float) -> float:
    """sup over the nodes of fs of |K - a fs^(p-1) - b|: the fixed-point
    equation of the update whose kernel K gave a and b."""
    i_lo, i_hi = K.node_index(fs.x0), K.node_index(fs.x_end)
    return float(np.max(np.abs(K.values[i_lo:i_hi + 1] - a * fs.values ** (p - 1.0) - b)))


def run_fixed_point(config: SolverConfig) -> FixedPointSolution:
    """Run the iteration from the indicator of [-1, 1].

    Every outcome returns the last state.  Exact mode runs exactly
    resolved_max_iter() updates (coefficient size grows quickly, so the
    count is the budget) and reports converged.  Grid mode stops when the
    sup-norm step drops below config.tol; if max_iter runs out first, the
    solution says converged False, and its final_step_sup tells how far
    from the tolerance it stopped.  max_iter = 0 skips iterating and
    reports the affine fit at f_0 itself.
    """
    exact = config.mode == "exact"

    def sample(g: Density) -> GridFunction:
        # exact iterates are compared on the grid; each is sampled once
        return _grid.sample(g, config.dx) if exact else g

    f = initial_iterate(config)
    fs = sample(f)
    max_iter = config.resolved_max_iter()
    records = []
    converged = exact or max_iter == 0
    for record, f, fs in iterations(f, fs, sample, max_iter, config.n, config.p):
        records.append(record)
        if not exact and record.sup_step < config.tol:
            converged = True
            break

    # affine fit at the final iterate; the exact lane's residual is
    # measured on the grid, against C_3 of the samples as a chain of
    # power-of-two pairs, whose bits solution.json's sha256 pins
    K = _kernel_of(f, config.n, config.p)
    a, b = K(0) - K(1), K(1)
    Ks = _grid.convolve_grid(_grid.convolve_grid(fs, fs), fs) if exact else K
    el_sup = _affine_residual_sup(fs, Ks, float(a), float(b), config.p)
    return FixedPointSolution(
        f=f,
        a=a,
        b=b,
        iterations=len(records),
        final_step_sup=records[-1].sup_step if records else 0.0,
        el_residual_sup=el_sup,
        converged=converged,
        history=tuple(records),
        clip_was_active=any(r.clipped for r in records),
    )

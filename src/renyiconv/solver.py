"""Fixed-point iteration for candidate extremizers.

The update takes the triple self convolution K of the current iterate,
renormalizes it affinely so the value at 0 is 1 and the value at 1 is 0,
restricts to [-1, 1] and takes the positive part:

    f_new = ((K - K(1)) / (K(0) - K(1)))_+  on [-1, 1].

Exact mode runs over rational piecewise polynomials (the n = 2, p = 2
case); grid mode runs the same update on sampled functions and also
offers, behind an explicit flag, the analogous update for general (n, p)
built from the first-variation kernel T(C_{n-1}(f)) * (C_n(f))^(p-1).
That generalization is a plausible extension, not an established scheme;
outputs from it are labeled by the flag that produced them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from . import grid as _grid
from .entropy import ConstraintSet, objective_I, scale_to_feasible
from .grid import GridFunction
from .piecewise import NegativeDensity, PiecewisePoly, self_convolution

Density = Union[PiecewisePoly, GridFunction]

_SUPPORT_SLACK = 1e-9


class DegenerateNormalizer(ArithmeticError):
    """Raised when K(0) = K(1), so the affine renormalization is undefined."""


class NotConverged(RuntimeError):
    """Grid iteration exhausted max_iter above tolerance.

    Carries the last state in .solution (a FixedPointSolution whose
    final_step_sup documents how far from the tolerance it stopped).
    """

    def __init__(self, message: str, solution: "FixedPointSolution"):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "grid"
    n: int = 2
    p: float = 2.0
    max_iter: Optional[int] = None
    tol: float = 1e-10
    dx: float = 1e-3
    # grid-only generalized update from the first-variation kernel;
    # off by default because only the n = 2, p = 2 update is established
    general_update: bool = False

    def __post_init__(self):
        if self.mode not in ("exact", "grid"):
            raise ValueError("mode must be 'exact' or 'grid'")
        if not (isinstance(self.n, int) and self.n >= 2):
            raise ValueError("n must be an integer >= 2")
        if not self.p > 1:
            raise ValueError("p must exceed 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        if self.max_iter is not None and self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.mode == "exact" and (self.p != 2 or self.n != 2):
            raise ValueError("exact mode supports only n = 2, p = 2")
        if self.general_update and self.mode != "grid":
            raise ValueError("the generalized update is grid-only")
        if not self.general_update and (self.n != 2 or self.p != 2):
            raise ValueError("n != 2 or p != 2 requires general_update=True")

    def resolved_max_iter(self) -> int:
        if self.max_iter is not None:
            return self.max_iter
        return 4 if self.mode == "exact" else 200


class IterationRecord(NamedTuple):
    iteration: int
    sup_step: float
    a: float          # K(0) - K(1) of the iterate that produced this one
    b: float          # K(1)


@dataclass(frozen=True)
class FixedPointSolution:
    f: Density
    a: float
    b: float
    iterations: int
    final_step_sup: float
    el_residual_sup: float
    history: tuple = field(default_factory=tuple)
    clip_was_active: bool = False


def initial_iterate(config: SolverConfig) -> Density:
    """f_0 = indicator of [-1, 1], exact or sampled."""
    f0 = PiecewisePoly.indicator(-1, 1)
    if config.mode == "exact":
        return f0
    steps = round(1.0 / config.dx)
    if abs(steps * config.dx - 1.0) > 1e-9:
        raise ValueError("dx must divide 1 so that 0 and +-1 are grid nodes")
    return _grid.symmetric_grid(np.ones(2 * steps + 1), config.dx)


def _check_unit_support(f: Density) -> None:
    if isinstance(f, PiecewisePoly):
        lo, hi = f.support
        if lo < -1 or hi > 1:
            raise ValueError("iterate must be supported in [-1, 1]")
    else:
        if f.x0 < -1 - _SUPPORT_SLACK or f.x_end > 1 + _SUPPORT_SLACK:
            raise ValueError("iterate must be supported in [-1, 1]")


def _kernel_grid(f: GridFunction, n: int, p: float, general: bool) -> GridFunction:
    """The update kernel K: triple self convolution, or the general
    first-variation kernel T(C_{n-1}(f)) * (C_n(f))^(p-1)."""
    if not general:
        return _grid.self_convolution_grid(f, 3)
    cn1 = _grid.self_convolution_grid(f, n - 1) if n > 2 else f
    cn = _grid.convolve_grid(cn1, f)
    return _grid.convolve_grid(_grid.reflect(cn1), _grid.power_real(cn, p - 1.0))


def _step_exact(f: PiecewisePoly) -> tuple[PiecewisePoly, Fraction, Fraction, bool]:
    K = self_convolution(f, 3)
    k0, k1 = K.eval(0), K.eval(1)
    if k0 == k1:
        raise DegenerateNormalizer("K(0) = K(1)")
    g = (K.restrict(-1, 1) - PiecewisePoly.indicator(-1, 1, k1)) * (1 / (k0 - k1))
    # the affine renormalization must already be nonnegative here: exact
    # mode has no way to represent the positive part across an irrational
    # zero crossing, so a negative dip is an error rather than a clip
    g.assert_nonnegative()
    return g, k0, k1, False


def _step_grid(f: GridFunction, n: int, p: float, general: bool) -> tuple[GridFunction, float, float, bool]:
    K = _kernel_grid(f, n, p, general)
    if np.array_equal(f.values, f.values[::-1]):
        # even input makes K even in exact arithmetic; fold out roundoff
        K = K.with_values(0.5 * (K.values + K.values[::-1]))
    k0, k1 = K.value_at(0.0), K.value_at(1.0)
    if k0 == k1:
        raise DegenerateNormalizer("K(0) = K(1)")
    i_lo, i_hi = K.node_index(-1.0), K.node_index(1.0)
    raw = (K.values[i_lo:i_hi + 1] - k1) / (k0 - k1)
    clipped = bool(raw.min() < 0)
    vals = np.maximum(raw, 0.0)
    if general and p != 2:
        vals = vals ** (1.0 / (p - 1.0))
    return GridFunction(-1.0, f.dx, vals), k0, k1, clipped


def iterate_once(f: Density, n: int = 2, p: float = 2.0, general: bool = False) -> Density:
    """One fixed-point update; input must be supported in [-1, 1]."""
    _check_unit_support(f)
    if isinstance(f, PiecewisePoly):
        if general or n != 2 or p != 2:
            raise ValueError("exact iteration supports only n = 2, p = 2")
        return _step_exact(f)[0]
    if (n != 2 or p != 2) and not general:
        raise ValueError("n != 2 or p != 2 requires general=True")
    return _step_grid(f, n, p, general)[0]


def _sup_diff(fs: GridFunction, gs: GridFunction) -> float:
    m = min(len(fs), len(gs))
    return float(np.max(np.abs(fs.values[:m] - gs.values[:m])))


def _affine_residual_sup(fs: GridFunction, K: GridFunction, a, b, p: float) -> float:
    """sup over the nodes of fs of |K - a fs^(p-1) - b|: the fixed-point
    equation of the update whose kernel K gave a and b."""
    i_lo, i_hi = K.node_index(fs.x0), K.node_index(fs.x_end)
    return float(np.max(np.abs(K.values[i_lo:i_hi + 1] - a * fs.values ** (p - 1.0) - b)))


def run_fixed_point(config: SolverConfig) -> FixedPointSolution:
    """Run the iteration from the indicator of [-1, 1].

    Exact mode runs exactly resolved_max_iter() updates (coefficient size
    grows quickly, so the count is the budget).  Grid mode stops when the
    sup-norm step drops below config.tol and raises NotConverged (with
    the last state attached) if max_iter runs out first; max_iter = 0
    skips iterating and reports the affine fit at f_0 itself.
    """
    f = initial_iterate(config)
    exact = config.mode == "exact"
    # exact iterates are compared on the grid; each is sampled once
    fs = _grid.sample(f, config.dx) if exact else f
    max_iter = config.resolved_max_iter()
    records = []
    clip_any = False
    sup_step = math.inf
    iterations = 0
    converged = max_iter == 0

    for j in range(1, max_iter + 1):
        if exact:
            g, k0, k1, clipped = _step_exact(f)
            gs = _grid.sample(g, config.dx)
        else:
            g, k0, k1, clipped = _step_grid(f, config.n, config.p, config.general_update)
            gs = g
        clip_any = clip_any or clipped
        sup_step = _sup_diff(fs, gs)
        records.append(IterationRecord(j, sup_step, float(k0 - k1), float(k1)))
        f, fs = g, gs
        iterations = j
        if not exact and sup_step < config.tol:
            converged = True
            break
    else:
        converged = converged or exact

    # affine fit at the final iterate; the exact lane's residual is
    # measured on the grid, against the triple convolution of the samples
    if exact:
        K = self_convolution(f, 3)
        a, b = K.eval(0) - K.eval(1), K.eval(1)
        el_sup = _affine_residual_sup(fs, _grid.self_convolution_grid(fs, 3), a, b, 2)
    else:
        K = _kernel_grid(f, config.n, config.p, config.general_update)
        a, b = K.value_at(0.0) - K.value_at(1.0), K.value_at(1.0)
        el_sup = _affine_residual_sup(f, K, a, b, config.p)
    solution = FixedPointSolution(
        f=f,
        a=a,
        b=b,
        iterations=iterations,
        final_step_sup=0.0 if max_iter == 0 else sup_step,
        el_residual_sup=el_sup,
        history=tuple(records),
        clip_was_active=clip_any,
    )
    if not converged:
        raise NotConverged(
            f"no convergence after {iterations} iterations (last step {sup_step:.3e})",
            solution,
        )
    return solution


class ElConsistencyReport(NamedTuple):
    lam: float          # objective value of the rescaled solution
    M: float
    a_fit: float        # affine coefficients refitted on the rescaled function
    b_fit: float
    a_expected: float   # lam / (2 M)
    b_expected: float   # lam / 2
    dev_a: float        # relative deviations
    dev_b: float


def consistency_with_el(sol: FixedPointSolution, constraints: ConstraintSet) -> ElConsistencyReport:
    """Check that the fixed point's affine relation matches the
    stationarity coefficients of the constrained problem.

    The solution is rescaled into the feasible set, the objective value
    lam is recomputed there, the affine coefficients are refitted on the
    rescaled function, and they are compared against lam/(2M) and lam/2.
    Only the n = 2, p = 2 case has this coefficient structure.
    """
    if constraints.n != 2 or constraints.p != 2:
        raise ValueError("consistency check applies to n = 2, p = 2")
    q, lam_scale, _ = scale_to_feasible(sol.f, constraints)
    lam_val = float(objective_I(q, 2, 2))
    if isinstance(q, PiecewisePoly):
        K = self_convolution(q, 3)
        edge = q.support[1]
        k0, ke = float(K.eval(0)), float(K.eval(edge))
        q0 = float(q.eval(0))
    else:
        K = _grid.self_convolution_grid(q, 3)
        k0, ke = K.value_at(0.0), K.value_at(q.x_end)
        q0 = q.value_at(0.0)
    a_fit = (k0 - ke) / q0
    b_fit = ke
    m = float(constraints.M)
    a_exp, b_exp = lam_val / (2.0 * m), lam_val / 2.0
    return ElConsistencyReport(
        lam=lam_val,
        M=m,
        a_fit=a_fit,
        b_fit=b_fit,
        a_expected=a_exp,
        b_expected=b_exp,
        dev_a=abs(a_fit - a_exp) / abs(a_fit),
        dev_b=abs(b_fit - b_exp) / abs(b_fit),
    )

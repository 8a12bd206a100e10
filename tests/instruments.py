"""Test instruments: checkers and helpers that back named checks but that
no renyiconv command runs.

- Young's inequality for grid convolutions and Riesz's rearrangement
  inequality for the objective (acceptance criterion 6), with the
  symmetric decreasing rearrangement the latter compares against;
- the adjoint identity of the grid convolution and the product integral
  it is measured with;
- the n = 2, p = 2 consistency of a fixed point with the stationarity
  coefficients (acceptance criterion 3);
- exact reflection and translation of a PiecewisePoly, which the
  pointwise convolution oracle builds g(x - t) from, through the linear
  substitution x -> a x + b, which PiecewisePoly.dilate is checked
  against, and restriction, which the windowed convolution is checked
  against;
- the pointwise value of a generalized Gaussian, for quadrature;
- the exact jump chain by pairs: the factors' jump forms multiplied left
  to right, with a double loop over each pair of order lists, which the
  binomial power and the Kronecker product of piecewise._jump_chain are
  checked against.

They reuse renyiconv's own spacing, lattice and convolution code rather
than carrying copies of it.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from renyiconv import grid, piecewise
from renyiconv.entropy import ConstraintSet, GeneralizedGaussian, objective_I, scale_to_feasible
from renyiconv.grid import GridFunction
from renyiconv.piecewise import PiecewisePoly, Polynomial, RationalLike, as_fraction
from renyiconv.solver import FixedPointSolution


class AsymmetricGrid(ValueError):
    """Raised when an operation requires a grid symmetric about 0."""


class YoungCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


class RieszCheck(NamedTuple):
    i_f: float
    i_fstar: float
    holds: bool


def young_exponent(n: int, p: float) -> float:
    """The conjugate exponent (np')' = np/(np - p + 1)."""
    return n * p / (n * p - p + 1.0)


def young_bound_check(gs: Sequence[GridFunction], p: float) -> YoungCheck:
    """||g_1 * ... * g_n||_p <= prod ||g_j||_r with r = (np')'."""
    n = len(gs)
    if n < 2:
        raise ValueError("need at least two factors")
    if not p > 1:
        raise ValueError("p must exceed 1")
    lhs = grid.convolve_grid(*gs).lp_mass(p) ** (1.0 / p)
    r = young_exponent(n, p)
    rhs = 1.0
    for g in gs:
        rhs *= g.lp_mass(r) ** (1.0 / r)
    return YoungCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + 1e-8))


def is_symmetric_grid(f: GridFunction) -> bool:
    """True when the node set is symmetric about 0: an odd count whose
    middle node is 0."""
    try:
        return len(f) % 2 == 1 and f.node_index(0.0) == len(f) // 2
    except ValueError:  # 0 is not a node
        return False


def rearrange_symmetric_decreasing(f: GridFunction) -> GridFunction:
    """Symmetric decreasing rearrangement on a symmetric grid.

    The multiset of values is preserved; sorted descending, they are
    placed at offsets 0, +1, -1, +2, -2, ... from the center node, so the
    output is non-increasing in |x|.
    """
    if not is_symmetric_grid(f):
        raise AsymmetricGrid("rearrangement needs a grid symmetric about 0")
    n = f.values.size
    center = n // 2
    order = np.argsort(-f.values, kind="stable")
    out = np.empty(n)
    pos = center
    for rank, idx in enumerate(order):
        if rank == 0:
            pos = center
        elif rank % 2 == 1:
            pos = center + (rank + 1) // 2
        else:
            pos = center - rank // 2
        out[pos] = f.values[idx]
    return f.with_values(out)


def riesz_check(f: GridFunction, n: int, p: float) -> RieszCheck:
    """Objective comparison against the symmetric decreasing rearrangement."""
    i_f = float(objective_I(f, n, p))
    i_star = float(objective_I(rearrange_symmetric_decreasing(f), n, p))
    return RieszCheck(i_f=i_f, i_fstar=i_star, holds=i_star >= i_f - 1e-8)


def integrate_product(a: GridFunction, b: GridFunction) -> float:
    """dx * sum a(x) b(x) over the nodes the two grids share (0 if none);
    raises unless both lie on one lattice."""
    dx = grid._check_spacing(a, b)
    if b.x0 < a.x0:
        a, b = b, a
    # b's first node on a's lattice, at or past a's first node
    k = grid._lattice_index(b.x0, a.x0, dx, sys.maxsize)
    m = max(0, min(len(a) - k, len(b)))
    return dx * math.fsum((a.values[k:k + m] * b.values[:m]).tolist())


def adjoint_identity_gap(f: GridFunction, g: GridFunction, h: GridFunction) -> float:
    """Relative gap in the adjoint identity
    int f (T(g) * h) = int (f * g) h, used as a self test of the grid
    convolution layer."""
    left_fn = grid.convolve_grid(grid.reflect(g), h)
    right_fn = grid.convolve_grid(f, g)
    left = integrate_product(f, left_fn)
    right = integrate_product(right_fn, h)
    scale = max(abs(left), abs(right), 1e-300)
    return abs(left - right) / scale


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
    q, _, _ = scale_to_feasible(sol.f, constraints)
    lam_val = float(objective_I(q, 2, 2))
    K = pair_chain(q, 3)
    edge = q.support[1]
    k0, ke, q0 = float(K(0)), float(K(edge)), float(q(0))
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


def pair_chain(g: GridFunction, n: int) -> GridFunction:
    """C_n(g) as the chain of plain pairs convolve_grid(c, g), each at its
    power-of-two length: the route whose bits the exact solve's residual
    and estimate_x6_grid keep.  C_n itself is g.convolution_power(n)."""
    out = g
    for _ in range(n - 1):
        out = grid.convolve_grid(out, g)
    return out


def compose_linear(p: Polynomial, a: RationalLike, b: RationalLike) -> Polynomial:
    """The polynomial x -> p(a*x + b), by Horner's rule in a*x + b."""
    lin = Polynomial([as_fraction(b), as_fraction(a)])
    acc = Polynomial()
    for c in reversed(p.coeffs):
        acc = acc * lin + Polynomial([c])
    return acc


def reflect(f: PiecewisePoly) -> PiecewisePoly:
    """The exact function x -> f(-x)."""
    return PiecewisePoly(
        [-b for b in reversed(f.breakpoints)],
        [compose_linear(p, -1, 0) for p in reversed(f.pieces)],
    )


def restrict(f: PiecewisePoly, lo: RationalLike, hi: RationalLike) -> PiecewisePoly:
    """f on [lo, hi], zero outside."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    if lo >= hi:
        raise ValueError("empty restriction interval")
    cuts = [lo] + [b for b in f.breakpoints if lo < b < hi] + [hi]
    return PiecewisePoly(cuts, [f._poly_at((a + b) / 2) for a, b in zip(cuts, cuts[1:])])


def translate(f: PiecewisePoly, shift: RationalLike) -> PiecewisePoly:
    """The exact function x -> f(x - shift)."""
    shift = as_fraction(shift)
    return PiecewisePoly(
        [b + shift for b in f.breakpoints],
        [compose_linear(p, 1, -shift) for p in f.pieces],
    )


def schoolbook_times(u: list[int], v: list[int]) -> list[int]:
    """The order list of two jump terms by the double loop: w_m sums u_j v_k
    over j + k + 1 = m."""
    out = [0] * (len(u) + len(v))
    for j, a in enumerate(u):
        for m, b in enumerate(v, j + 1):
            out[m] += a * b
    return out


def pairwise_jump_chain(factors: tuple, scale: int, w1: float) -> tuple[dict[int, list[int]], int]:
    """piecewise._jump_chain by the pairwise chain: the n factors' jump forms
    multiplied left to right, one schoolbook_times per pair of cuts, a cut
    dropped once it plus the leftmost cuts of the factors still to come
    reaches w1."""
    chain = [piecewise._jumps(f, scale) for f in factors]
    acc = chain[0][0]
    for k, (jg, _) in enumerate(chain[1:], 2):
        prev, acc = acc, {}
        limit = w1 - sum(min(j) for j, _ in chain[k:])
        for a, uf in prev.items():
            for b, ug in sorted(jg.items()):
                if a + b < limit:
                    w, old = schoolbook_times(uf, ug), acc.get(a + b)
                    acc[a + b] = w if old is None else [x + y for x, y in zip(old, w)]
    width = sum(len(j[min(j)]) for j, _ in chain)
    norm = [math.factorial(width - 1) // math.factorial(m) for m in range(width)]
    den = math.factorial(width - 1) * scale ** (len(factors) - 1) * math.prod(d for _, d in chain)
    return {s: [u * c * den.denominator for u, c in zip(js, norm)] for s, js in acc.items()}, den.numerator


def gengauss_value(gg: GeneralizedGaussian, x: float) -> float:
    """alpha (1 - beta x^2)_+^(1/(p-1)) at one point."""
    u = 1.0 - gg.beta * x * x
    if u <= 0:
        return 0.0
    return gg.alpha * u ** gg.q

"""Stationarity-equation residuals and the exact non-extremality check
for the generalized Gaussian.

The stationarity equation for the constrained problem reads

    [T(C_{n-1}(Q))] * [C_n(Q)]^(p-1) = (L/(M n)) Q^(p-1) + L (n-1)/n

on {Q > 0}, where T reflects through the origin, C_k is the k-fold self
convolution, and L is the objective value of Q.  This module evaluates
that residual on grids, and proves exactly (in rational arithmetic) that
the p = 2 generalized Gaussian cannot satisfy the affine special case:
its triple self convolution carries a nonzero x^6 coefficient at the
origin, while an affine image of the Gaussian has none.  The Young and
Riesz inequality checkers and the adjoint identity of the grid
convolution are test instruments (tests/instruments.py).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import grid as _grid
from .entropy import (ConstraintSet, DegenerateDensity, ZeroMass, exact_gengauss_p2, objective_I,
                      scale_to_feasible)
from .grid import GridFunction
from .piecewise import PiecewisePoly, Polynomial

Q_THRESHOLD_REL = 1e-9
X6_STENCIL_STEP = 0.05


class InfeasibleInput(ValueError):
    """Raised when an input cannot be rescaled into the feasible set."""


class ElResidualReport(NamedTuple):
    sup_residual: float
    l2_residual: float
    fitted_scale: float       # dilation applied to make the input feasible (1.0 if none)
    domain: tuple[float, float]  # interval where Q exceeds the support threshold


class CounterexampleReport(NamedTuple):
    x6_coefficient: Fraction
    affine_fit_a: Fraction
    affine_fit_b: Fraction
    sup_affine_residual: float
    verdict: bool
    # least-squares alternative to the pinned fit; the verdict does not
    # depend on which fit is used
    ls_fit_a: Fraction
    ls_fit_b: Fraction
    indicator_identity_holds: bool


def stationarity_kernel(q: GridFunction, n: int, p: float) -> GridFunction:
    """T(C_{n-1}(Q)) * (C_n(Q))^(p-1), returned as K on q's own nodes.

    With h = C_n(Q)^(p-1), K(x) = dx sum_y C_{n-1}(Q)(y) h(x + y), so
    K = T(C_{n-1}(Q) * T(h)): both products are powers of Q's one
    spectrum times at most one other, and the first hands that spectrum
    to the second through convolve_grid's memo.  One cyclic length
    L >= n(N-1)+1 serves both (C_n in full, and the window of the second
    product that reflects onto q's nodes), so K costs 4 transforms: for
    an even q, whose products are even, 4 DCT-Is at the half period L/2,
    otherwise 2 rffts and 2 irffts at the least 5-smooth L.  Those nodes
    are the only ones the fixed-point update, its final fit and
    el_residual read.
    """
    spectra = {}
    return _kernel_from_cn(q, n, p, q.convolution_power(n, spectra=spectra), spectra)


def _kernel_from_cn(q: GridFunction, n: int, p: float, cn: GridFunction, spectra: dict) -> GridFunction:
    """stationarity_kernel from cn = C_n(Q), made with the memo spectra,
    which then holds Q's spectrum for the second product: 2 transforms
    more, on the route of the first.  A p that takes C_n^(p-1), or its
    product, beyond the float range raises ValueError naming p, before
    numpy can warn."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            th = _grid.reflect(_grid.power_real(cn, p - 1.0))
            del cn  # not held here while the second product runs
            tk = _grid.convolve_grid(*[q] * (n - 1), th, lo=-q.x_end, hi=-q.x0, spectra=spectra)
    except FloatingPointError:
        raise ValueError(f"p = {p} takes the stationarity kernel beyond the float range") from None
    return GridFunction(q.x0, q.dx, tk.values[::-1])


def el_residual(q: GridFunction, n: int, p: float, M: float) -> ElResidualReport:
    """Residual of the stationarity equation for Q on {Q > threshold}.

    If Q is not feasible for (M, p) within 1e-6 it is rescaled into the
    feasible set first; the dilation used is reported as fitted_scale.
    The objective I and the kernel come from one C_n: 4 transforms.  An n
    that takes C_n's unscaled product of spectra beyond the float range
    raises ValueError naming n and dx, before numpy can warn; so do
    samples whose sum leaves the float range.
    """
    constraints = ConstraintSet(M=M, p=p, n=n)
    fitted_scale = 1.0
    try:
        mass = q.mass
    except OverflowError:  # exact_sum's total beyond the float range
        raise ValueError("the density's samples sum beyond the float range") from None
    lpm = q.lp_mass(p)
    if abs(mass - 1.0) > 1e-6 or abs(lpm - M) > 1e-6 * max(1.0, abs(M)):
        try:
            q, lam, _ = scale_to_feasible(q, constraints)
        except (ZeroMass, DegenerateDensity) as exc:
            raise InfeasibleInput(str(exc)) from exc
        fitted_scale = float(lam)

    spectra = {}
    try:
        with np.errstate(over="raise", invalid="raise"):
            cn = q.convolution_power(n, spectra=spectra)
    except FloatingPointError:
        raise ValueError(f"n = {n} at dx = {q.dx} takes the stationarity kernel beyond the float range") from None
    lam_val = float(objective_I(cn, 1, p))  # I_n(Q) = I_1(C_n(Q)), bit for bit
    lhs_vals = _kernel_from_cn(q, n, p, cn, spectra).values
    rhs_vals = (lam_val / (M * n)) * q.values ** (p - 1.0) + lam_val * (n - 1) / n

    thresh = Q_THRESHOLD_REL * float(q.values.max())
    mask = q.values > thresh
    if not mask.any():
        raise InfeasibleInput("density vanishes everywhere above threshold")
    resid = (lhs_vals - rhs_vals)[mask]
    xs = q.nodes[mask]
    return ElResidualReport(
        sup_residual=float(np.max(np.abs(resid))),
        l2_residual=float(math.sqrt(q.dx * _grid.exact_sum(resid * resid))),
        fitted_scale=fitted_scale,
        domain=(float(xs.min()), float(xs.max())),
    )


def _ls_affine_fit(K: PiecewisePoly, g: PiecewisePoly) -> tuple[Fraction, Fraction]:
    """Exact least-squares fit of K ~ a g + b over [-1, 1], for K given
    on [-1, 1] only.  The integrals of K g and g^2 are the point values
    (K * Tg)(0) and (g * Tg)(0), T the reflection; an even g is its own
    Tg, so that the chain squares one form."""
    tg = g.reflect()
    if tg == g:
        tg = g
    kg = K.convolve_at(tg, xs=(0,))[0]
    k1 = K.mass
    gg = g.convolve_at(tg, xs=(0,))[0]
    g1 = g.mass
    length = 2
    det = gg * length - g1 * g1
    a = (kg * length - g1 * k1) / det
    b = (gg * k1 - g1 * kg) / det
    return a, b


def counterexample_check() -> CounterexampleReport:
    """Exact verdict that the unit-mass quadratic bump density is not an
    affine fixed point of its triple self convolution.

    Takes G(x) = (3/4)(1 - x^2)_+ exactly (exact_gengauss_p2 at beta = 1),
    convolves it with itself twice on [-1, 1], G's support and all that
    is read, and reads off the degree-6 coefficient of the piece
    containing the origin: it is nonzero, while any a G + b is quadratic
    there.  The verdict is scale invariant, so fixing the unit-support
    normalization loses nothing.  Also verifies the supporting identity
    that the triple self convolution of -2 on [-1, 1] equals -8(3 - x^2)
    there.
    """
    g = exact_gengauss_p2(Fraction(1))[1]
    K = g.convolution_power(3, -1, 1)
    mid = None
    for lo, hi, piece in K.intervals():
        if lo <= 0 < hi:
            mid = piece
            break
    x6 = mid.coefficient(6)

    # pinned affine fit through x = 0 and x = 1
    k0, k1 = K.eval(0), K.eval(1)
    a = (k0 - k1) / g.eval(0)
    b = k1
    ls_a, ls_b = _ls_affine_fit(K, g)

    # max of |K - a g - b| over the plot nodes k/1000 of [-1, 1]; rounding to
    # the nearest float is monotone and odd, so this is float of the exact max
    resid = K - g * a - PiecewisePoly.indicator(-1, 1, b)
    sup = float(np.abs(resid.sample_lattice(_grid.PLOT_NODES, _grid.PLOT_DEN)).max())

    # triple self convolution of -2 on [-1,1], compared on [-1,1]
    m2 = PiecewisePoly.indicator(-1, 1, -2)
    m2c = m2.convolution_power(3, -1, 1)
    target = PiecewisePoly.single(Polynomial([-24, 0, 8]), -1, 1)
    identity_holds = m2c == target

    return CounterexampleReport(
        x6_coefficient=x6,
        affine_fit_a=a,
        affine_fit_b=b,
        sup_affine_residual=sup,
        verdict=x6 != 0,
        ls_fit_a=ls_a,
        ls_fit_b=ls_b,
        indicator_identity_holds=identity_holds,
    )


def estimate_x6_grid(dx: float = 1e-4) -> float:
    """Numeric estimate of the x^6 coefficient of the triple self
    convolution of (3/4)(1 - x^2)_+ at the origin.

    Samples the density on a grid of spacing dx, convolves numerically,
    and applies the second-order central stencil for the 6th derivative
    with step X6_STENCIL_STEP (a multiple of dx, wide enough that the h^6
    in the denominator does not amplify rounding noise).
    """
    gs = _grid.sample(exact_gengauss_p2(Fraction(1))[1], dx)  # checks dx first
    ratio = X6_STENCIL_STEP / dx
    k = round(ratio)
    if abs(ratio - k) > 1e-9 or k < 1:
        raise ValueError(f"dx must divide the stencil step {X6_STENCIL_STEP}")
    # the chain of power-of-two pairs: the benchmark reference pins this
    # estimate to 1e-9, and the 5-smooth C_3 would move it by 2.2e-8 relative
    K = _grid.convolve_grid(_grid.convolve_grid(gs, gs), gs)
    c = K.node_index(0.0)
    w = np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0])
    window = K.values[c - 3 * k: c + 3 * k + 1: k]
    d6 = float(w @ window) / X6_STENCIL_STEP ** 6
    return d6 / 720.0

"""Renyi entropy functionals, the convolution objective, feasible-set
normalization, and the generalized Gaussian family.

All quantities are for densities on the line (d = 1).  A density is a
PiecewisePoly or a GridFunction; both answer mass, lp_mass(p),
convolution_power, dilate and scaling by a constant, so every function
here has one body.
A piecewise polynomial gives exact Fraction results at p = 2, where the
integral of a square is one point value of a convolution (p = 1 is its
mass; any other p raises ValueError); a grid gives floats for any real
p >= 1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from .grid import MAX_GRID_NODES, GridFunction
from .piecewise import PiecewisePoly, Polynomial

Density = Union[PiecewisePoly, GridFunction]

# relative tolerance of the feasibility check after a rescaling
_FEASIBLE_RTOL = 1e-9
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class DegenerateDensity(ValueError):
    """Raised when a density has zero p-mass where positivity is required."""


class ZeroMass(ValueError):
    """Raised when a normalization needs ||f||_1 > 0 but the mass is 0."""


@dataclass(frozen=True)
class ConstraintSet:
    """Feasibility data: ||f||_1 = 1 and ||f||_p^p = M, objective uses C_n."""

    M: float
    p: float
    n: int

    def __post_init__(self):
        _check_lp_target(self.M)
        check_exponent(self.p)
        if not (isinstance(self.n, int) and self.n >= 2):
            raise ValueError("n must be an integer >= 2")


def check_exponent(p) -> None:
    """Raise ValueError unless 1 < p < inf (at p = inf, q = 1/(p-1) = 0)."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    if not p < math.inf:
        raise ValueError(f"p must be finite, got {p}")


def _check_lp_target(M) -> None:
    if not M > 0:
        raise ValueError("M must be positive")
    if not M < math.inf:
        raise ValueError("M must be finite")


def _log_fraction(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def renyi_entropy(f: Density, p) -> float:
    """h_p = -log(integral of f^p) / (p - 1), for p > 1; f may also be a
    GeneralizedGaussian, which answers lp_mass in closed form."""
    if not float(p) > 1:
        raise ValueError("renyi_entropy requires p > 1")
    ip = f.lp_mass(p)
    if ip <= 0:
        raise DegenerateDensity("integral of f^p is zero")
    log_ip = _log_fraction(ip) if isinstance(ip, Fraction) else math.log(ip)
    return -log_ip / (float(p) - 1)


def objective_I(f: Density, n: int, p) -> Union[Fraction, float]:
    """The objective: integral of [C_n(f)]^p where C_n is the n-fold
    self convolution.

    A piecewise f returns a Fraction, which is simultaneously the exact
    rational value and a usable real number: at p = 2 it is C_n(f) built
    with convolve, decided nonnegative, and its integral of C_n(f)^2 read
    as the point value (C_n(f) * T C_n(f))(0); any other p raises
    ValueError naming it (lp_mass).  A grid f returns a float,
    from C_n made in one product at the update kernels' transform length.
    A grid whose unscaled product of n spectra leaves the float range
    raises ValueError naming n and dx, before numpy can warn.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            cn = f.convolution_power(n)
    except FloatingPointError:  # only a grid's floats raise it
        raise ValueError(f"n = {n} at dx = {f.dx} takes C_n beyond the float range") from None
    return cn.lp_mass(p)


class FeasibleScaling(NamedTuple):
    f_tilde: Density
    lam: Union[Fraction, float]
    predicted_ratio: Union[Fraction, float]


def scale_to_feasible(f: Density, constraints: ConstraintSet) -> FeasibleScaling:
    """Normalize f into the feasible set by dilation and mass scaling.

    Returns (f_tilde, lam, predicted_ratio) with
      f_tilde(x) = f(x / lam) / (lam * ||f||_1),
      lam = (||f||_p^p / (M * ||f||_1^p))^(1/(p-1)),
    so that ||f_tilde||_1 = 1 and ||f_tilde||_p^p = M, and
      objective_I(f_tilde, n, p) = predicted_ratio * objective_I(f, n, p)
    with predicted_ratio = M / (||f||_p^p * ||f||_1^(p(n-1))), which a grid
    f saturates at 0 or inf beyond the float range.

    A piecewise f takes p = 2 (lp_mass raises ValueError naming any other
    p), so its lam is the exact rational ratio itself; a grid f gets
    float arithmetic throughout, and a ValueError naming M and p when lam
    or the rescaled samples would leave the float range.
    """
    M, p, n = constraints.M, constraints.p, constraints.n
    mass = f.mass
    if mass <= 0:
        raise ZeroMass("||f||_1 must be positive")
    lpm = f.lp_mass(p)
    if lpm <= 0:
        raise DegenerateDensity("||f||_p^p must be positive")
    if isinstance(lpm, Fraction):  # an exact p is 2, where 1/(p-1) = 1
        M, p = Fraction(M), 2
        lam = lpm / (M * mass ** p)
    else:
        M, p = float(M), float(p)
        try:
            lam = (lpm / (M * mass ** p)) ** (1.0 / (p - 1.0))
        except (OverflowError, ZeroDivisionError):
            lam = math.inf
        # f_tilde has unit mass on the spacing h = lam dx, so its samples sum
        # to 1/h and the unscaled product of n spectra peaks at (1/h)^n.  Its
        # peak s = max(f) / (lam mass) bounds C_n of unit-mass factors (Young's
        # inequality), so f_tilde^p, C_n^p and el_residual's kernel (a factor
        # C_n^(p-1)) stay below max(1, s^p).  (1/h)^n, h^n and s^p must be floats
        if not (0 < lam < math.inf and n * abs(math.log(lam) + math.log(f.dx)) < _LOG_FLOAT_MAX
                and p * (math.log(f.values.max()) - math.log(lam) - math.log(mass)) < _LOG_FLOAT_MAX):
            raise ValueError(f"M = {M} at p = {p} rescales the density beyond the float range")
    f_tilde = f.dilate(lam) * (1 / (lam * mass))
    try:
        predicted = M / (lpm * mass ** (p * (n - 1)))
    except OverflowError:  # a float mass^(p(n-1)) beyond the float range
        predicted = 0.0
    except ZeroDivisionError:  # a float mass^(p(n-1)) that underflows to 0
        predicted = math.inf
    _assert_feasible(f_tilde, constraints)
    return FeasibleScaling(f_tilde, lam, predicted)


def _assert_feasible(f: Density, constraints: ConstraintSet) -> None:
    mass, lpm = f.mass, f.lp_mass(constraints.p)
    if abs(float(mass) - 1.0) > _FEASIBLE_RTOL:
        raise RuntimeError(f"normalization failed: ||f||_1 = {float(mass)}")
    if abs(float(lpm) - float(constraints.M)) > _FEASIBLE_RTOL * max(1.0, float(constraints.M)):
        raise RuntimeError(f"normalization failed: ||f||_p^p = {float(lpm)}")


# ----------------------------------------------------------------------
# generalized Gaussians


def _log_beta_half(s: float) -> float:
    """log B(1/2, s) via log-gamma."""
    return math.lgamma(0.5) + math.lgamma(s) - math.lgamma(0.5 + s)


@dataclass(frozen=True)
class GeneralizedGaussian:
    """The density alpha * (1 - beta x^2)_+^(1/(p-1)) on the line."""

    beta: float
    p: float
    alpha: float

    @property
    def q(self) -> float:
        return 1.0 / (self.p - 1.0)

    @property
    def support(self) -> tuple[float, float]:
        half = self.beta ** -0.5
        return (-half, half)

    def to_grid(self, dx: float) -> GridFunction:
        if not 0 < dx < math.inf:
            raise ValueError(f"dx must be positive and finite, got {dx}")
        half = self.beta ** -0.5
        n = max(2, math.ceil(min(half / dx - 1e-9, MAX_GRID_NODES)))  # min: ceil of inf raises
        if 2 * n + 1 > MAX_GRID_NODES:
            raise ValueError(f"the generalized Gaussian with beta = {self.beta} (half-width {half}) "
                             f"needs more than {MAX_GRID_NODES} grid nodes at dx = {dx}")
        xs = dx * np.arange(-n, n + 1)
        u = np.maximum(1.0 - self.beta * xs * xs, 0.0)
        return GridFunction(xs[0], dx, self.alpha * u ** self.q)

    def lp_mass(self, r: float) -> float:
        """Closed-form integral of G^r for real r > 0."""
        if not r > 0:
            raise ValueError("exponent must be positive")
        log_val = r * math.log(self.alpha) - 0.5 * math.log(self.beta) + _log_beta_half(r * self.q + 1.0)
        return math.exp(log_val)


def gengauss(beta: float, p: float) -> GeneralizedGaussian:
    """G_{beta,p} with alpha fixed by unit mass:
    alpha = sqrt(beta) / B(1/2, q+1), q = 1/(p-1)."""
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    check_exponent(p)
    q = 1.0 / (p - 1.0)
    alpha = math.exp(0.5 * math.log(beta) - _log_beta_half(q + 1.0))
    return GeneralizedGaussian(beta=beta, p=p, alpha=alpha)


def gengauss_for_lp_mass(M: float, p: float) -> GeneralizedGaussian:
    """G_{beta,p} with integral of G^p equal to M.

    The p-mass scales as beta^((p-1)/2) times its beta = 1 value, which
    inverts in closed form.
    """
    _check_lp_target(M)
    base = gengauss(1.0, p).lp_mass(p)
    try:
        beta = (M / base) ** (2.0 / (p - 1.0))
    except OverflowError:
        raise ValueError(f"M = {M} at p = {p} needs a beta beyond the float range") from None
    return gengauss(beta, p)


def exact_gengauss_p2(sqrt_beta: Fraction) -> tuple[Fraction, PiecewisePoly]:
    """Exact p = 2 generalized Gaussian for rational sqrt(beta).

    Returns (alpha, density) with alpha = (3/4) sqrt(beta) and density
    alpha (1 - beta x^2) on [-1/sqrt(beta), 1/sqrt(beta)]; the mass is
    exactly 1 and the 2-mass exactly (3/5) sqrt(beta).
    """
    s = Fraction(sqrt_beta)
    if s <= 0:
        raise ValueError("sqrt_beta must be positive")
    alpha = Fraction(3, 4) * s
    poly = Polynomial([alpha, 0, -alpha * s * s])
    return alpha, PiecewisePoly.single(poly, -1 / s, 1 / s)


def exact_gengauss_p2_for_lp_mass(M: Fraction) -> tuple[Fraction, PiecewisePoly]:
    """Exact p = 2 generalized Gaussian with 2-mass exactly M (rational)."""
    _check_lp_target(M)
    return exact_gengauss_p2(Fraction(5, 3) * Fraction(M))

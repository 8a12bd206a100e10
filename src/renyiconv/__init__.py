"""Solver and verification toolkit for the self-convolution Renyi-entropy
extremal problem: maximize the p-th moment of the n-fold self-convolution
over densities with unit mass and prescribed L^p mass.
"""

from .piecewise import NegativeDensity, PiecewisePoly, Polynomial

__version__ = "0.1.0"

__all__ = [
    "NegativeDensity",
    "PiecewisePoly",
    "Polynomial",
    "__version__",
]

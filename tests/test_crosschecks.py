"""Dual-route checks: exact rational results vs independent integrators.

These pin the exact convolution engine and the closed-form Gaussian
normalization against adaptive quadrature, and the acceptance suite's
exact iterates against symbolic integration, so a regression in either
route cannot hide behind the other.
"""
from fractions import Fraction

import pytest

scipy_integrate = pytest.importorskip("scipy.integrate")

# the piecewise integrands have kinks, so QUADPACK reports roundoff
# trouble at the tight tolerances requested; accuracy is asserted below
pytestmark = pytest.mark.filterwarnings(
    "ignore::scipy.integrate.IntegrationWarning")

from instruments import gengauss_value
from renyiconv.entropy import gengauss
from renyiconv.piecewise import PiecewisePoly, Polynomial, self_convolution


def bump(x: float) -> float:
    return 1.0 - x * x if -1.0 <= x <= 1.0 else 0.0


@pytest.fixture(scope="module")
def kernel():
    f = PiecewisePoly.single(Polynomial([1, 0, -1]), -1, 1)
    return self_convolution(f, 3)


class TestKernelAgainstDblquad:

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 1.75, 2.5])
    def test_triple_convolution_values(self, kernel, x):
        val, err = scipy_integrate.dblquad(
            lambda t, s: bump(s) * bump(t) * bump(x - s - t),
            -1.0, 1.0, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12,
        )
        exact = float(kernel.eval(Fraction(x)))
        assert val == pytest.approx(exact, abs=max(10 * err, 1e-9))

    def test_pinned_special_values(self, kernel):
        assert kernel.eval(0) == Fraction(47, 40)
        assert kernel.eval(1) == Fraction(176, 315)
        v0, _ = scipy_integrate.dblquad(
            lambda t, s: bump(s) * bump(t) * bump(-s - t),
            -1.0, 1.0, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12,
        )
        assert v0 == pytest.approx(47 / 40, abs=1e-9)


class TestGengaussNormalizationAgainstQuad:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_unit_mass_by_quadrature(self, p):
        gg = gengauss(1.7, p)
        half = 1.0 / 1.7 ** 0.5
        val, err = scipy_integrate.quad(lambda x: gengauss_value(gg, x), -half, half,
                                        epsabs=1e-13, epsrel=1e-13)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_lp_mass_by_quadrature(self):
        gg = gengauss(1.0, 2.0)
        val, _ = scipy_integrate.quad(lambda x: gengauss_value(gg, x) ** 2, -1.0, 1.0,
                                      epsabs=1e-13, epsrel=1e-13)
        assert val == pytest.approx(gg.lp_mass(2.0), abs=1e-10)


class TestIteratesAgainstSympy:
    """f1..f3 from the indicator of [-1, 1] by symbolic integration.

    Each iterate is one polynomial p on [-1, 1], zero outside.  The pair
    convolution (p*p)(y) is integrated with explicit limits on [-2, 0]
    and on [0, 2]; the triple convolution K(x) for |x| <= 1 then runs
    over y in [x - 1, x + 1], split at y = 0.  No convolution from
    renyiconv is used.
    """

    @staticmethod
    def update(sp, p, x):
        y, s = sp.symbols("y s", real=True)
        pair = p.subs(x, s) * p.subs(x, y - s)
        left = sp.integrate(pair, (s, -1, y + 1))    # y in [-2, 0]
        right = sp.integrate(pair, (s, y - 1, 1))    # y in [0, 2]
        K = (sp.integrate(left * p.subs(x, x - y), (y, x - 1, 0))
             + sp.integrate(right * p.subs(x, x - y), (y, 0, x + 1)))
        k0, k1 = K.subs(x, 0), K.subs(x, 1)
        return sp.Poly(sp.expand((K - k1) / (k0 - k1)), x)

    def test_reference_iterates(self):
        sp = pytest.importorskip("sympy")
        from test_acceptance import REFERENCE_F1, REFERENCE_F2, REFERENCE_F3

        x = sp.Symbol("x", real=True)
        p = sp.Integer(1)
        got = []
        for _ in range(3):
            new = self.update(sp, p, x)
            # only the roots +-1 in [-1, 1] and new(0) = 1: the positive
            # part of the update clips nothing
            assert new.count_roots(-1, 1) == 2
            assert new.eval(1) == 0 and new.eval(0) == 1
            got.append([f"{c.p}/{c.q}" for c in reversed(new.all_coeffs())])
            p = new.as_expr()
        assert got == [REFERENCE_F1, REFERENCE_F2, REFERENCE_F3]

import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import IntegrationWarning

from chiralbag import specialfn as sf


class TestGamma:
    def test_known_values(self):
        assert sf.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi),
                                                 rel=1e-14)
        assert sf.gamma_fn(5.0) == 24.0
        assert sf.gamma_fn(2.5) == pytest.approx(1.5 * 0.5 *
                                                 math.sqrt(math.pi),
                                                 rel=1e-14)

    def test_pole_raises(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(sf.PoleArgumentError):
                sf.gamma_fn(x)


class TestBessel:
    def test_values(self):
        # abramowitz-stegun style spot values
        assert sf.bessel_j(0, 2.4048255576957728) == pytest.approx(0.0,
                                                                   abs=1e-12)
        assert sf.bessel_j(1, 1.0) == pytest.approx(0.4400505857449335,
                                                    rel=1e-12)

    def test_negative_order_reflection(self):
        x = 1.7
        assert sf.bessel_j(-1, x) == pytest.approx(-sf.bessel_j(1, x),
                                                   rel=1e-14)
        # bitwise on a grid: the p = 0 normalization uses J_{-1} directly
        xs = np.linspace(0.01, 50.0, 10001)
        assert np.array_equal(sf.bessel_j(-1, xs), -sf.bessel_j(1, xs))

    def test_non_integer_order_rejected(self):
        with pytest.raises(ValueError):
            sf.bessel_j(0.5, 1.0)


class TestErf:
    def test_erfcx_consistency(self):
        for x in (-1.5, -0.3, 0.0, 0.8, 3.0):
            assert sf.erfcx(x) * math.exp(-x * x) == \
                pytest.approx(special.erfc(x), rel=1e-13)

    def test_erfc_erf_complement(self):
        x = 0.7
        assert special.erfc(x) + sf.erf(x) == pytest.approx(1.0, rel=1e-14)


class TestHyp2f1:
    def test_terminating_polynomial(self):
        # 2F1(1,-1;c;z) = 1 - z/c, any z
        for z in (0.5, -13.0, 7.0):
            assert sf.hyp2f1(1.0, -1.0, 1.5, z) == \
                pytest.approx(1.0 - z / 1.5, rel=1e-14)
        # 2F1(1,-2;c;z) = 1 - 2z/c + 2z^2/(c(c+1))
        c, z = 0.5, -3.0
        expect = 1 - 2 * z / c + 2 * z * z / (c * (c + 1))
        assert sf.hyp2f1(1.0, -2.0, c, z) == pytest.approx(expect, rel=1e-14)

    def test_invalid_c(self):
        with pytest.raises(sf.ParameterError):
            sf.hyp2f1(1.0, 2.0, -1.0, 0.3)

    def test_nonterminating_raises(self):
        for a, b, c in ((1.0, 1.0, 2.0), (1.0, 5.5, 1.5)):
            for z in (-4.0, 0.3, math.tanh(5.0) ** 2):
                with pytest.raises(sf.ParameterError):
                    sf.hyp2f1(a, b, c, z)


THETAS = (0.0, 1e-8, -1e-8, 0.5, -0.5, 4.0, -4.0, 20.0, -20.0, 100.0,
          -100.0, 300.0, -300.0)


class TestHyp2f1Euler:
    @pytest.mark.parametrize("theta", THETAS[1:])
    def test_closed_forms(self, theta):
        # 2F1(1/2, b; 3/2; -sinh^2 t) is t / sinh t at b = 1/2,
        # 2 atan(tanh(t/2)) / sinh t at b = 1 and 1 / cosh t at b = 3/2
        sh = math.sinh(theta)
        for b, want in ((0.5, theta / sh),
                        (1.0, 2.0 * math.atan(math.tanh(theta / 2)) / sh),
                        (1.5, 1.0 / math.cosh(theta))):
            assert sf.hyp2f1_euler(b, theta) == pytest.approx(want,
                                                              rel=1e-14)

    def test_theta_zero(self):
        for b in (0.5, 1.0, 3.5):
            assert sf.hyp2f1_euler(b, 0.0) == 1.0

    @pytest.mark.parametrize("b", (0.5, 0.75, 1.25, 1.5, 2.5, 3.5, 4.5, 5.5,
                                   6.5))
    def test_against_mpmath(self, b):
        mp = pytest.importorskip("mpmath")
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            for theta in THETAS:
                got = sf.hyp2f1_euler(b, theta)
                with mp.workdps(50):
                    want = mp.hyp2f1(0.5, b, 1.5, -mp.sinh(theta) ** 2)
                    rel = abs((got - want) / want)
                assert rel <= 1e-14, (b, theta, float(rel))

import math

import pytest

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

    def test_derivative(self):
        x, h = 1.3, 1e-6
        fd = (sf.bessel_j(2, x + h) - sf.bessel_j(2, x - h)) / (2 * h)
        assert sf.bessel_j_prime(2, x) == pytest.approx(fd, abs=1e-9)

    def test_non_integer_order_rejected(self):
        with pytest.raises(ValueError):
            sf.bessel_j(0.5, 1.0)


class TestErf:
    def test_erfcx_consistency(self):
        for x in (-1.5, -0.3, 0.0, 0.8, 3.0):
            assert sf.erfcx(x) * math.exp(-x * x) == \
                pytest.approx(sf.erfc(x), rel=1e-13)

    def test_erfc_erf_complement(self):
        x = 0.7
        assert sf.erfc(x) + sf.erf(x) == pytest.approx(1.0, rel=1e-14)


class TestHyp2f1:
    def test_log_case(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        for z in (0.3, 0.75, -0.5, -4.0):
            assert sf.hyp2f1(1, 1, 2, z) == \
                pytest.approx(-math.log1p(-z) / z, rel=1e-12)

    def test_binomial_case(self):
        # 2F1(a,b;b;z) = (1-z)^(-a)
        assert sf.hyp2f1(0.75, 2.0, 2.0, 0.4) == \
            pytest.approx(0.6 ** -0.75, rel=1e-13)

    def test_terminating_polynomial(self):
        # 2F1(1,-1;c;z) = 1 - z/c, any z
        for z in (0.5, -13.0, 7.0):
            assert sf.hyp2f1(1.0, -1.0, 1.5, z) == \
                pytest.approx(1.0 - z / 1.5, rel=1e-14)
        # 2F1(1,-2;c;z) = 1 - 2z/c + 2z^2/(c(c+1))
        c, z = 0.5, -3.0
        expect = 1 - 2 * z / c + 2 * z * z / (c * (c + 1))
        assert sf.hyp2f1(1.0, -2.0, c, z) == pytest.approx(expect, rel=1e-14)

    def test_pfaff_agrees_with_direct(self):
        # non-terminating, z < 0: hyp2f1 routes through the Pfaff transform
        # already, so compare against a brute partial sum at small |z|
        a, b, c, z = 0.5, 1.25, 1.5, -0.4
        brute = 0.0
        term = 1.0
        for n in range(200):
            brute += term
            term *= (a + n) * (b + n) / (c + n) * z / (n + 1)
        assert sf.hyp2f1(a, b, c, z) == pytest.approx(brute, rel=1e-12)
        assert sf.hyp2f1_via_pfaff(a, b, c, z) == pytest.approx(brute,
                                                                rel=1e-12)

    def test_arcsin_case(self):
        # 2F1(1/2, 1/2; 3/2; z) = arcsin(sqrt(z))/sqrt(z)
        for z in (0.3, 0.81, -2.0):
            r = math.sqrt(abs(z))
            expect = math.asin(r) / r if z > 0 else math.asinh(r) / r
            assert sf.hyp2f1(0.5, 0.5, 1.5, z) == pytest.approx(expect,
                                                                rel=1e-12)

    def test_invalid_c(self):
        with pytest.raises(sf.ParameterError):
            sf.hyp2f1(1.0, 2.0, -1.0, 0.3)

    def test_argument_range(self):
        with pytest.raises(sf.ParameterError):
            sf.hyp2f1(0.5, 0.5, 1.5, 1.0)

    def test_series_cap_raises(self):
        # tanh(5)^2 is so close to 1 that the series needs more than
        # _MAX_TERMS terms to reach _SERIES_TOL
        with pytest.raises(sf.NonConvergenceError):
            sf.hyp2f1(1.0, 5.5, 1.5, math.tanh(5.0) ** 2)

import math
import random
import warnings

import pytest
from scipy import special

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


class TestErf:
    def test_erfcx_consistency(self):
        for x in (-1.5, -0.3, 0.0, 0.8, 3.0):
            assert sf.erfcx(x) * math.exp(-x * x) == \
                pytest.approx(special.erfc(x), rel=1e-13)

    def test_erfc_erf_complement(self):
        x = 0.7
        assert special.erf(x) + sf.erfc(x) == pytest.approx(1.0, rel=1e-14)


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
            warnings.simplefilter("error")
            for theta in THETAS:
                got = sf.hyp2f1_euler(b, theta)
                with mp.workdps(50):
                    want = mp.hyp2f1(0.5, b, 1.5, -mp.sinh(theta) ** 2)
                    rel = abs((got - want) / want)
                assert rel <= 1e-14, (b, theta, float(rel))

    @pytest.mark.parametrize("b", [k / 2 for k in range(1, 14)])
    def test_tiny_theta_against_mpmath(self, b):
        # below |theta| = EULER_SERIES_THETA the value is the series
        # 1 - b sinh^2/3, so a subnormal or tiny interval, whose panel
        # half-widths would underflow, never reaches the panel rule
        mp = pytest.importorskip("mpmath")
        for theta in (5e-324, -5e-324, 1e-320, 1e-310, -1e-310, 2.2e-308,
                      1e-200, 1e-9, 1e-8, 2e-8):
            got = sf.hyp2f1_euler(b, theta)
            with mp.workdps(30):
                want = mp.hyp2f1(0.5, b, 1.5, -mp.sinh(theta) ** 2)
                rel = abs((got - want) / want)
            assert rel <= 5e-16, (b, theta, float(rel))
        for theta in (5e-324, -1e-310, 1e-200):
            assert sf.hyp2f1_euler(b, theta) == 1.0


# every b of the closed forms and of the t-integral, 1 + s/2
EULER_B = [k / 2 for k in range(1, 14)] + \
    [1 + s / 2 for s in (-0.85, 0.5, 1.5, 3.0)]
EULER_THETAS = (sf.EULER_SERIES_THETA, 3e-5, 1e-3, 0.05, 0.125, 0.3, 1.0,
                2.5, 7.0, 20.0, 64.0, 200.0, 511.0, 700.0)


class TestEulerOracle:
    @pytest.mark.parametrize("theta", [s * t for t in EULER_THETAS
                                       for s in (1, -1)])
    def test_panel_rule_against_mpmath(self, theta):
        # one panel_rule call for every b, each value the one-b value bit
        # for bit and within 1e-15 of 30-digit mpmath
        mp = pytest.importorskip("mpmath")
        got = sf.hyp2f1_euler(EULER_B, theta)
        assert got == [sf.hyp2f1_euler(b, theta) for b in EULER_B]
        assert all(type(v) is float for v in got)
        for b, value in zip(EULER_B, got):
            with mp.workdps(30):
                want = mp.hyp2f1(0.5, b, 1.5, -mp.sinh(theta) ** 2)
                rel = abs((value - want) / want)
            assert rel <= 1e-15, (b, theta, float(rel))


def _plain_2f1(a, b, c, z):
    """The oracle: the term recurrence of the 2F1 polynomial, each step
    computed afresh."""
    degree = min(-round(v) for v in (a, b) if v <= 0 and v == round(v))
    total = term = 1.0
    for n in range(degree):
        term *= (a + n) * (b + n) / (c + n) * z / (n + 1)
        total += term
    return total


def _package_parameters():
    """Every (a, b, c) that coefficients and identities pass to hyp2f1 at
    m = 2..12."""
    from chiralbag import coefficients, identities
    seen = set()

    def spy(a, b, c, z):
        seen.add((a, b, c))
        return sf.hyp2f1(a, b, c, z)
    with pytest.MonkeyPatch.context() as mp:
        for module in (coefficients, identities):
            mp.setattr(module, "hyp2f1", spy)
        identities.grid_report(thetas=(0.7,), ms=tuple(range(2, 13, 2)))
    return sorted(seen)


def test_hyp2f1_bit_identical_to_the_term_recurrence():
    params = _package_parameters()
    # 3 per m, and (1, 3 - m/2, 5/2), whose sum gives f_tanh - 1 at m =
    # 6..12
    assert len(params) == 22
    rng = random.Random("hyp2f1-steps")
    zs = [s * 10.0 ** k for k in range(-300, 301) for s in (1.0, -1.0)]
    zs += [-math.sinh(rng.uniform(-8.0, 8.0)) ** 2 for _ in range(1000)]
    for a, b, c in params:
        for z in zs:
            assert repr(sf.hyp2f1(a, b, c, z)) == \
                repr(_plain_2f1(a, b, c, z)), (a, b, c, z)


def test_hyp2f1_refusal_raised_on_every_call():
    # the per-(a, b, c) step table is cached, a refusal is not
    for a, b, c in ((1.0, -2.0, -3.0), (1.0, 5.5, 1.5)):
        for _ in range(2):
            with pytest.raises(sf.ParameterError):
                sf.hyp2f1(a, b, c, 0.3)

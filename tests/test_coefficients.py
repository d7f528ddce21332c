import math
import random
import sys

import pytest
from scipy import special

from chiralbag import coefficients as co
from chiralbag.specialfn import gamma_fn, hyp2f1

MS = (2, 4, 6, 8, 10, 12)
THETAS = (0.0, 0.3, -0.7, 1.0, 2.0)


def sphere_volume(m):
    """|S^(m-1)|, the volume of the unit sphere bounding the unit m-ball."""
    return 2.0 * math.pi ** (m / 2) / math.gamma(m / 2)


class TestUniversalConstants:
    @pytest.mark.parametrize("m", MS)
    def test_theta_zero_reduction(self, m):
        uc = co.universal_constants(0.0, m)
        expect = (0.0, -1.0 / 6.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        values = (uc.c1, uc.c2, uc.c3, uc.c4, uc.c5, uc.c6, uc.c7)
        for got, want in zip(values, expect):
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_m2_closed_values(self, theta):
        # independent m=2 reductions: c2 = -1/6 for every angle,
        # c7 = -(1 - theta/tanh(theta))/2, c3 = c4 = 0, c5 = cosh, c6 = sinh
        uc = co.universal_constants(theta, 2)
        assert uc.c2 == pytest.approx(-1.0 / 6.0, abs=1e-13)
        if theta != 0.0:
            c7 = -0.5 * (1.0 - theta / math.tanh(theta))
            assert uc.c7 == pytest.approx(c7, rel=1e-12)
        assert uc.c3 == pytest.approx(0.0, abs=1e-13)
        assert uc.c4 == 0.0
        assert uc.c5 == pytest.approx(math.cosh(theta), rel=1e-13)
        assert uc.c6 == pytest.approx(math.sinh(theta), abs=1e-13)
        assert uc.c1 == pytest.approx(0.25 * (math.cosh(theta) - 1.0),
                                      rel=1e-13)

    def test_c7_spot_value(self):
        assert co.universal_constants(1.0, 2).c7 == \
            pytest.approx(0.1565176427496603, rel=1e-12)

    @pytest.mark.parametrize("theta", (0.4, -1.1))
    def test_m4_hand_expansions(self, theta):
        # terminating polynomials at m=4:
        # c5 = cosh(1 + 2 sinh^2), c6 = 3 sinh + 2 sinh^3
        sh, ch = math.sinh(theta), math.cosh(theta)
        uc = co.universal_constants(theta, 4)
        assert uc.c5 == pytest.approx(ch * (1 + 2 * sh * sh), rel=1e-13)
        assert uc.c6 == pytest.approx(3 * sh + 2 * sh ** 3, rel=1e-13)

    def test_even_in_theta_where_expected(self):
        # c1, c2, c7 are even; c3, c6 are odd
        for m in (2, 6):
            a = co.universal_constants(0.9, m)
            b = co.universal_constants(-0.9, m)
            assert a.c1 == pytest.approx(b.c1, rel=1e-13)
            assert a.c2 == pytest.approx(b.c2, rel=1e-13)
            assert a.c7 == pytest.approx(b.c7, rel=1e-13)
            assert a.c3 == pytest.approx(-b.c3, abs=1e-12)
            assert a.c6 == pytest.approx(-b.c6, rel=1e-13)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            co.universal_constants(0.5, 3)


class TestEtaConstants:
    # the cylinder route is the record's d1, d2; the ball route is the
    # pairing relations d1 = -c6/2, d2 = -c5/2
    @pytest.mark.parametrize("theta", THETAS)
    def test_m2_cylinder_d4_vanishes(self, theta):
        uc = co.universal_constants(theta, 2)
        assert uc.d4 == pytest.approx(0.0, abs=1e-13)
        assert uc.d3 == 0.0

    def test_theta_zero(self):
        uc = co.universal_constants(0.0, 6)
        for d1, d2 in ((uc.d1, uc.d2), (-0.5 * uc.c6, -0.5 * uc.c5)):
            assert d1 == 0.0
            assert d2 == pytest.approx(-0.5, abs=1e-13)

    def test_m2_values(self):
        theta = 0.8
        uc = co.universal_constants(theta, 2)
        assert -0.5 * uc.c6 == pytest.approx(-0.5 * math.sinh(theta),
                                             rel=1e-13)
        assert -0.5 * uc.c5 == pytest.approx(-0.5 * math.cosh(theta),
                                             rel=1e-13)


class TestGeometry:
    def test_spinor_dimension(self):
        assert co.spinor_dimension(2) == 2
        assert co.spinor_dimension(4) == 4
        assert co.spinor_dimension(12) == 64

    def test_volumes(self):
        assert sphere_volume(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert co.ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
        assert sphere_volume(4) == pytest.approx(2 * math.pi ** 2, rel=1e-14)
        assert co.ball_volume(4) == pytest.approx(math.pi ** 2 / 2,
                                                  rel=1e-14)

    @pytest.mark.parametrize("m", MS)
    def test_factorials_bit_identical_to_scipy_gamma(self, m):
        # Gamma(m/2) and Gamma(m/2 + 1) are taken as factorials, which
        # changes no bit of the forms built on scipy's gamma
        d_s = co.spinor_dimension(m)
        norm = 2 ** m * float(special.gamma(m / 2))
        pref = d_s / norm
        want = (norm / d_s, math.sqrt(math.pi) * pref, pref * 2 * (m - 1),
                math.pi ** (m / 2) / float(special.gamma(m / 2 + 1)))
        got = co._factors(m) + (co.ball_volume(m),)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("m", (0, 3, 5))
    def test_ball_volume_refuses_bad_m(self, m):
        with pytest.raises(ValueError):
            co.ball_volume(m)


class TestBallCoefficients:
    def test_disc_values(self):
        uc = co.universal_constants(1.0, 2)
        # a1 = sqrt(pi) * 2/(4*1) * (cosh 1 - 1)
        assert uc.a1_ball == pytest.approx(
            math.sqrt(math.pi) / 2 * (math.cosh(1.0) - 1.0), rel=1e-12)
        assert uc.a2_ball == pytest.approx(-1.0 / 6.0, abs=1e-13)

    @pytest.mark.parametrize("m", MS)
    def test_theta_zero_a1_vanishes(self, m):
        assert co.universal_constants(0.0, m).a1_ball == 0.0

    def test_a1_eta_disc(self):
        # m=2: a1_eta = -sinh(theta)/2
        theta = 0.5
        assert co.universal_constants(theta, 2).a1_eta == \
            pytest.approx(-0.5 * math.sinh(theta), rel=1e-13)

    @pytest.mark.parametrize("theta", (0.2, 1.4, -0.7, 3.0, -6.0))
    @pytest.mark.parametrize("m", MS)
    def test_internal_cross_checks_pass(self, theta, m):
        # the record's a1, a2 and a1_eta against their general
        # boundary-invariant forms on the unit sphere (L_aa = m - 1), built
        # from its own c1, c2 and d1 = -c6/2
        uc = co.universal_constants(theta, m)
        d_s, area = co.spinor_dimension(m), sphere_volume(m)
        norm = 2 ** m * math.gamma(m / 2)
        general = {
            "a1_ball": (4 * math.pi) ** (-(m - 1) / 2) * area * d_s * uc.c1,
            "a2_ball": (4 * math.pi) ** (-m / 2) * area * d_s * (m - 1)
            * uc.c2,
            "a1_eta": 2 * d_s / norm * (-0.5 * uc.c6)}
        for name, value in general.items():
            assert getattr(uc, name) == pytest.approx(value, rel=1e-14), name


def _reference_constants(theta, m):
    """universal_constants as it formed every factor inline, before the
    theta-independent ones were cached per m, with cosh^(m-1) theta - 1
    and f_tanh - 1 in their forms that do not cancel near theta = 0."""
    sh, ch, th = math.sinh(theta), math.cosh(theta), math.tanh(theta)
    z = -sh * sh
    if abs(theta) < 1.0:
        half = math.sinh(0.5 * theta)
        power = math.expm1((m - 1) * math.log1p(2.0 * half * half))
    else:
        power = ch ** (m - 1) - 1.0
    if m == 2:
        excess = co._coth_excess(theta)
    elif m == 4:
        excess = sh * sh
    else:
        excess = sh * sh * (1.0 + ch * ch * (m / 2 - 2) / 1.5 * hyp2f1(
            1.0, 3 - m / 2, 2.5, z))
    p_half = hyp2f1(1.0, 1 - m / 2, 0.5, z)
    p_3half = hyp2f1(1.0, 1 - m / 2, 1.5, z)
    poly = hyp2f1(0.5, 1 - m / 2, 1.5, th * th)
    c1 = 0.25 * power
    c2 = ((2 * m - 5) / 3.0 + (2 - m) * (1.0 + excess)) / (2.0 * (m - 1))
    d4 = -0.5 * th + 0.5 * (m - 1) * th * ch ** (m - 2) * poly
    c6 = (m - 1) * sh * p_3half
    d_s = co.spinor_dimension(m)
    norm = 2 ** m * gamma_fn(m / 2)
    pref = d_s / norm
    a1 = math.sqrt(math.pi) * pref * power
    a2 = pref * 2 * (m - 1) * c2
    a1_eta = -sh * d_s * (m - 1) / norm * p_3half
    return co.UniversalConstants(
        theta=theta, m=m, c1=c1, c2=c2, c3=-2.0 * d4, c4=0.0,
        c5=ch * p_half, c6=c6, c7=0.5 * excess,
        d1=-0.5 * (m - 1) * th * ch ** (m - 1) * poly,
        d2=-0.5 / ch - 0.5 * (m - 1) * th * th * ch ** (m - 1) * poly,
        d3=0.0, d4=d4, a1_ball=a1, a2_ball=a2, a1_eta=a1_eta)


@pytest.mark.parametrize("m", MS)
def test_bit_identical_to_inline_factors(m):
    # the per-m factors are cached in the order they were applied inline,
    # so every field is the same float, sign of zero included
    rng = random.Random(f"factors:{m}")
    for theta in [0.0] + [rng.uniform(-60.0, 60.0) for _ in range(300)]:
        got = co.universal_constants(theta, m)
        want = _reference_constants(theta, m)
        for field in got._fields:
            assert repr(getattr(got, field)) == \
                repr(getattr(want, field)), (theta, m, field)


@pytest.mark.parametrize("m", MS)
def test_a1_eta_bit_identical_to_the_float_range(m):
    # a1_eta is formed as -sinh (m-1) / (norm/d_s) P_3half: the inline
    # order's float wherever that is finite, and at m = 2 -sinh(theta)/2
    # until sinh itself overflows, where the inline -sinh d_s did first
    thetas = [float(k) for k in range(700)] + [
        700.0 + 10.47 * k / 400 for k in range(401)]
    for theta in thetas + [-x for x in thetas]:
        try:
            want = _reference_constants(theta, m)
        except OverflowError:
            with pytest.raises(OverflowError):
                co.universal_constants(theta, m)
            continue
        got = co.universal_constants(theta, m)
        for field in got._fields:
            if math.isfinite(getattr(want, field)):
                assert repr(getattr(got, field)) == \
                    repr(getattr(want, field)), (theta, m, field)
        if m == 2:
            assert got.a1_eta == -0.5 * math.sinh(theta), theta


def _cancelling_oracle(theta, m):
    """c1, c7 and a1_ball at (theta, m) in mpmath, from the paper's forms:
    cosh^(m-1) theta - 1 and f_tanh - 1, f_tanh = 2F1(1, (m-1)/2; 3/2;
    tanh^2 theta) (theta coth theta at m = 2), at 50 digits past the
    2 log10(1/|theta|) that their differences cancel and the 0.87 |theta|
    that 1 - tanh^2 theta costs."""
    mp = pytest.importorskip("mpmath")
    lost = 2.0 * max(-math.log10(abs(theta)), 0.0) + 0.87 * abs(theta)
    with mp.workdps(50 + int(lost)):
        x = mp.mpf(theta)
        th = mp.tanh(x)
        power = mp.cosh(x) ** (m - 1) - 1
        f_tanh = x / th if m == 2 else mp.hyp2f1(1, mp.mpf(m - 1) / 2, 1.5,
                                                 th * th)
        k_a1 = mp.sqrt(mp.pi) * 2 ** (m // 2) / (
            2 ** m * mp.factorial(m // 2 - 1))
        return {"c1": power / 4, "c7": (f_tanh - 1) / 2,
                "a1_ball": k_a1 * power}


@pytest.mark.parametrize("m", MS)
def test_cancelling_constants_to_full_precision(m):
    # c1, c7 and a1_ball go like theta^2 near 0, where their differences
    # cancelled: over signed theta log-uniform from 1e-300 to the edge
    # where cosh^(m-1) theta overflows, each is within 16 2^-52 of mpmath
    # relative, and within 4 2^-1074 where it is subnormal (measured over
    # 3000 theta per m: up to 10.5 2^-52, a1_ball at m = 12 and theta =
    # 2.8, and 2 2^-1074)
    edge = math.acosh(sys.float_info.max ** (1.0 / (m - 1))) * (1 - 1e-9)
    rng = random.Random(f"cancelling:{m}")
    thetas = [math.exp(rng.uniform(math.log(1e-300), math.log(edge)))
              for _ in range(150)] + [1e-300, 1e-160, 1e-8, 1e-5, 0.3,
                                      0.999, 1.0, 1.001, edge]
    for theta in thetas + [-x for x in thetas]:
        got = co.universal_constants(theta, m)
        for key, want in _cancelling_oracle(theta, m).items():
            assert abs(getattr(got, key) - want) <= (
                16 * 2.0 ** -52 * abs(want) + 4 * 2.0 ** -1074), (
                    theta, m, key)

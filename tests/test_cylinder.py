import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from chiralbag import cylinder as cy
from chiralbag.clifford import build_gamma, chiral_projectors, \
    pi_plus_product
from chiralbag.specialfn import erf, erfcx


ALL_M = [2, 4, 6, 8, 10, 12]
# (theta, omega) of the kernel checks, at every m in ALL_M
KERNEL_GRID = [(theta, omega) for theta in (-1.1, 0.0, 0.7, 2.0)
               for omega in (-0.8, 1.3)]


@pytest.fixture(scope="module")
def rep2():
    return build_gamma(2)


@pytest.fixture(scope="module")
def rep4():
    return build_gamma(4)


def params(rep, omega=1.3, theta=0.7, t=0.25):
    return cy.ModeParams(omega=omega, theta=theta, t=t, rep=rep)


def free(p):
    """The free Gaussian e^{-(x - x')^2/4t} and its x-derivative."""
    def scalar(x, xp):
        xi = x - xp
        return math.exp(-xi * xi / (4.0 * p.t))
    return scalar, lambda x, xp: -(x - xp) / (2.0 * p.t) * scalar(x, xp)


def kernel(p):
    """The full mode kernel free + image + 2 Pi+ Pi+* / cosh^2 boundary,
    with the weight exp(-omega^2 t)/sqrt(4 pi t) stripped, from the
    package's scalars."""
    eye = np.eye(p.rep.d_s)
    mat = 2.0 / math.cosh(p.theta) ** 2 * pi_plus_product(p.rep, p.theta)
    parts = ((free(p)[0], eye), (cy._image(p)[0], eye),
             (cy._boundary(p)[0], mat))
    return lambda x, xp: sum(s(x, xp) * m for s, m in parts)


def boundary_condition_residual(p, xp):
    """Max entry of Pi_- applied to the full kernel at x = 0."""
    proj = chiral_projectors(p.rep, p.theta)
    return float(np.abs(proj.pi_minus @ kernel(p)(0.0, xp)).max())


def heat_equation_residual(p, x, xp, h_x=1e-4, h_t=1e-5):
    """Finite-difference residual of (d_t + omega^2 - d_x^2) on the kernel
    with its mode weight restored, at an interior point."""
    def weighted(t):
        q = dataclasses.replace(p, t=t)
        w = math.exp(-q.omega ** 2 * t) / math.sqrt(4.0 * math.pi * t)
        k = kernel(q)
        return lambda x, xp: w * k(x, xp)
    f, f_up, f_down = weighted(p.t), weighted(p.t + h_t), weighted(p.t - h_t)
    d_t = (f_up(x, xp) - f_down(x, xp)) / (2.0 * h_t)
    d_xx = (f(x + h_x, xp) - 2.0 * f(x, xp) + f(x - h_x, xp)) / (h_x * h_x)
    return float(np.abs(d_t + p.omega ** 2 * f(x, xp) - d_xx).max())


class TestModeKernel:
    def test_theta_zero_boundary_scalar(self, rep2):
        boundary = cy._boundary(params(rep2, theta=0.0))[0]
        eta = 0.9
        assert boundary(0.4, 0.5) == \
            pytest.approx(math.exp(-eta * eta / (4 * 0.25)), rel=1e-13)

    def test_omega_zero_bracket_is_one(self, rep2):
        boundary = cy._boundary(params(rep2, omega=0.0))[0]
        for x, xp in ((0.1, 0.3), (1.0, 2.0)):
            eta = x + xp
            assert boundary(x, xp) == \
                pytest.approx(math.exp(-eta * eta / (4 * 0.25)), rel=1e-13)

    def test_boundary_condition(self, rep2):
        for xp in (0.05, 0.3, 1.1):
            assert boundary_condition_residual(params(rep2), xp) < 1e-10
        for m in ALL_M:
            rep = build_gamma(m)
            for theta, omega in KERNEL_GRID:
                p = params(rep, omega=omega, theta=theta)
                for xp in (0.05, 0.3, 1.1):
                    assert boundary_condition_residual(p, xp) < 1e-10, \
                        (m, theta, omega, xp)

    def test_boundary_condition_m4(self, rep4):
        p = params(rep4, omega=0.8, theta=1.1, t=0.1)
        assert boundary_condition_residual(p, 0.4) < 1e-10

    @pytest.mark.parametrize("x,xp", [(0.4, 0.7), (0.2, 0.2), (1.3, 0.5)])
    def test_heat_equation(self, rep2, x, xp):
        assert heat_equation_residual(params(rep2), x, xp) < 1e-6
        for m in ALL_M:
            rep = build_gamma(m)
            for theta, omega in KERNEL_GRID:
                p = params(rep, omega=omega, theta=theta)
                assert heat_equation_residual(p, x, xp) < 1e-6, \
                    (m, theta, omega)

    def test_scaled_erfc_stability(self, rep2):
        # far from the boundary the naive exp(u^2) erfc(u) would overflow;
        # the scalar must still evaluate to a finite (tiny) value
        v = cy._boundary(params(rep2, t=0.01))[0](30.0, 30.0)
        assert math.isfinite(v)
        assert v == pytest.approx(0.0, abs=1e-300)

    def test_invalid_t(self, rep2):
        with pytest.raises(ValueError):
            cy.ModeParams(omega=1.0, theta=0.0, t=0.0, rep=rep2)


class TestApplyDirac:
    def test_fd_audit_passes(self, rep2):
        p = cy.ModeParams(omega=1.1, theta=0.5, t=0.2, rep=rep2)
        eye = np.eye(rep2.d_s)
        for piece in (free(p), cy._image(p), cy._boundary(p)):
            cy._integrated(p, piece, eye, eye)

    def test_fd_audit_catches_wrong_derivative(self, rep2):
        p = params(rep2)
        scalar, scalar_dx = cy._boundary(p)
        eye = np.eye(rep2.d_s)
        with pytest.raises(cy.DerivativeMismatchError):
            cy._integrated(p, (scalar, lambda x, xp: 1.01 * scalar_dx(x, xp)),
                           eye, eye)

    def test_theta_zero_image_part(self, rep2):
        # P applied to the image Gaussian at coincidence:
        # -gt gm w e^{-x^2/t} + gm (x/t) e^{-x^2/t}
        p = cy.ModeParams(omega=1.3, theta=0.0, t=0.25, rep=rep2)
        scalar, scalar_dx = cy._image(p)
        x = 0.6
        g = math.exp(-x * x / p.t)
        gm, gt = rep2.gamma_m, rep2.gamma_tilde
        applied = p.omega * scalar(x, x) * gt @ gm + scalar_dx(x, x) * gm
        expect = -p.omega * gt @ gm * g + gm * (x / p.t) * g
        assert np.abs(applied - expect).max() < 1e-13


class TestU1Integral:
    def test_reference_point(self, rep2):
        assert cy.check_U1_integral(params(rep2)) < 1e-8

    def test_omega_zero(self, rep2):
        assert cy.check_U1_integral(params(rep2, omega=0.0)) < 1e-10

    @pytest.mark.parametrize("m", ALL_M)
    def test_f_gamma_tilde(self, m):
        rep = build_gamma(m)
        p = params(rep, omega=2.0, theta=0.4, t=0.1)
        assert cy.check_U1_integral(p, f_matrix=rep.gamma_tilde) < 1e-13


class TestU2Integral:
    def test_reference_point(self, rep2):
        assert cy.check_U2_integral(params(rep2)) < 1e-8

    def test_theta_zero_reduction(self, rep2):
        assert cy.check_U2_integral(params(rep2, theta=0.0)) < 1e-9

    def test_erf_and_erfc_paths_agree(self):
        # E = e^{t b^2} erfc(-sqrt(t) b) of the U2 closed form, as the
        # scaled erfc it is computed by and through erf
        for omega, theta, t in ((1.3, 0.7, 0.25), (-1.3, -0.7, 0.25),
                                (0.9, 1.2, 0.1)):
            b = omega * math.tanh(theta)
            scaled = erfcx(-math.sqrt(t) * b)
            direct = math.exp(t * b * b) * (1.0 + erf(math.sqrt(t) * b))
            assert scaled == pytest.approx(direct, rel=1e-13)

    def test_reflection_symmetry(self, rep2):
        a = cy.check_U2_integral(params(rep2, omega=1.3, theta=0.7))
        b = cy.check_U2_integral(params(rep2, omega=-1.3, theta=-0.7))
        assert a < 1e-8 and b < 1e-8

    @pytest.mark.parametrize("m", ALL_M)
    def test_every_m(self, m):
        assert cy.check_U2_integral(params(build_gamma(m), omega=0.9,
                                           theta=1.2, t=0.1)) < 1e-13

    def test_theta_zero_explicit_rhs(self, rep2):
        # at theta=0 the closed form collapses to
        # -1/2 f gm Pi+Pi+* / sqrt(pi t) - omega/2 f gm gt Pi+Pi+*
        p = params(rep2, theta=0.0)
        pp = pi_plus_product(rep2, 0.0)
        lhs = cy._integrated(p, cy._boundary(p), 2.0 * pp, np.eye(rep2.d_s))
        gm, gt = rep2.gamma_m, rep2.gamma_tilde
        rhs = -0.5 / math.sqrt(math.pi * p.t) * gm @ pp \
            - 0.5 * p.omega * gm @ gt @ pp
        assert np.abs(lhs - rhs).max() < 1e-9


class TestQuadratureCount:
    @pytest.mark.parametrize("m", [2, 12])
    def test_two_scalar_quads_per_check(self, m, monkeypatch):
        # the Clifford matrices factor out of the integrands, so each check
        # costs two real quadratures whatever the spinor dimension
        calls = []

        class Counting:
            def __getattr__(self, name):
                return getattr(integrate, name)

            def quad(self, *args, **kwargs):
                calls.append(args[1:3])
                return integrate.quad(*args, **kwargs)

        monkeypatch.setattr(cy, "integrate", Counting())
        p = params(build_gamma(m))
        for check in (cy.check_U1_integral, cy.check_U2_integral):
            calls.clear()
            assert check(p) < 1e-13
            assert len(calls) == 2


def test_one_pi_plus_product_per_U_row(monkeypatch, rep4):
    # the image part needs no Pi+ Pi+*; U2 builds it once for its boundary
    # part and reuses it on the right side
    built = []

    def spy(rep, theta):
        built.append(theta)
        return pi_plus_product(rep, theta)
    monkeypatch.setattr(cy, "pi_plus_product", spy)
    p = params(rep4)
    assert cy.check_U1_integral(p) < 1e-13
    assert built == []
    assert cy.check_U2_integral(p) < 1e-13
    assert built == [p.theta]

class TestTIntegral:
    def test_theta_zero(self):
        assert cy.check_t_integral(2.0, 1.5, 0.0) < 1e-10

    def test_reference_points(self):
        assert cy.check_t_integral(2.5, 1.7, 0.6) < 1e-8
        assert cy.check_t_integral(2.5, -1.7, 0.6) < 1e-8

    def test_theta_zero_closed_form_directly(self):
        s, omega = 2.0, 1.5
        num, _ = integrate.quad(
            lambda t: t ** ((s - 1) / 2) * math.exp(-t * omega * omega),
            0, np.inf)
        from chiralbag.specialfn import gamma_fn
        assert num == pytest.approx(gamma_fn((s + 1) / 2) /
                                    abs(omega) ** (s + 1), rel=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cy.check_t_integral(-1.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            cy.check_t_integral(2.0, 0.0, 0.3)

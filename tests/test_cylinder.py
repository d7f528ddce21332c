import math

import numpy as np
import pytest
from scipy import integrate

from chiralbag import cylinder as cy
from chiralbag.clifford import build_gamma, pi_plus_product


ALL_M = [2, 4, 6, 8, 10, 12]


@pytest.fixture(scope="module")
def rep2():
    return build_gamma(2)


@pytest.fixture(scope="module")
def rep4():
    return build_gamma(4)


def params(rep, omega=1.3, theta=0.7, t=0.25):
    return cy.ModeParams(omega=omega, theta=theta, t=t, rep=rep)


class TestModeKernel:
    def test_theta_zero_boundary_scalar(self, rep2):
        k = cy.mode_kernel(params(rep2, theta=0.0))
        eta = 0.9
        assert k.boundary_scalar(0.4, 0.5) == \
            pytest.approx(math.exp(-eta * eta / (4 * 0.25)), rel=1e-13)

    def test_omega_zero_bracket_is_one(self, rep2):
        k = cy.mode_kernel(params(rep2, omega=0.0))
        for x, xp in ((0.1, 0.3), (1.0, 2.0)):
            eta = x + xp
            assert k.boundary_scalar(x, xp) == \
                pytest.approx(math.exp(-eta * eta / (4 * 0.25)), rel=1e-13)

    def test_boundary_condition(self, rep2):
        k = cy.mode_kernel(params(rep2))
        for xp in (0.05, 0.3, 1.1):
            assert cy.boundary_condition_residual(k, xp) < 1e-10

    def test_boundary_condition_m4(self, rep4):
        k = cy.mode_kernel(params(rep4, omega=0.8, theta=1.1, t=0.1))
        assert cy.boundary_condition_residual(k, 0.4) < 1e-10

    @pytest.mark.parametrize("x,xp", [(0.4, 0.7), (0.2, 0.2), (1.3, 0.5)])
    def test_heat_equation(self, rep2, x, xp):
        k = cy.mode_kernel(params(rep2))
        assert cy.heat_equation_residual(k, x, xp) < 1e-6

    def test_scaled_erfc_stability(self, rep2):
        # far from the boundary the naive exp(u^2) erfc(u) would overflow;
        # the scalar must still evaluate to a finite (tiny) value
        k = cy.mode_kernel(params(rep2, t=0.01))
        v = k.boundary_scalar(30.0, 30.0)
        assert math.isfinite(v)
        assert v == pytest.approx(0.0, abs=1e-300)

    def test_invalid_t(self, rep2):
        with pytest.raises(ValueError):
            cy.ModeParams(omega=1.0, theta=0.0, t=0.0, rep=rep2)


class TestApplyDirac:
    def test_fd_audit_passes(self, rep2):
        p = cy.ModeParams(omega=1.1, theta=0.5, t=0.2, rep=rep2)
        k = cy.mode_kernel(p)
        for part in ("free", "image", "boundary", "full"):
            cy.apply_dirac(p, k, part=part)

    def test_fd_audit_catches_wrong_derivative(self, rep2, monkeypatch):
        p = params(rep2)
        k = cy.mode_kernel(p)
        good = cy.ModeKernel.boundary_scalar_dx
        monkeypatch.setattr(cy.ModeKernel, "boundary_scalar_dx",
                            lambda self, x, xp, t=None:
                            1.01 * good(self, x, xp, t))
        with pytest.raises(cy.DerivativeMismatchError):
            cy.apply_dirac(p, k, part="boundary")

    def test_theta_zero_image_part(self, rep2):
        # P applied to the image Gaussian at coincidence:
        # -gt gm w e^{-x^2/t} + gm (x/t) e^{-x^2/t}
        p = cy.ModeParams(omega=1.3, theta=0.0, t=0.25, rep=rep2)
        k = cy.mode_kernel(p)
        ap = cy.apply_dirac(p, k, part="image")
        x = 0.6
        g = math.exp(-x * x / p.t)
        gm, gt = rep2.gamma_m, rep2.gamma_tilde
        expect = -p.omega * gt @ gm * g + gm * (x / p.t) * g
        assert np.abs(ap(x) - expect).max() < 1e-13


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

    def test_erf_and_erfc_paths_agree(self, rep2):
        p = params(rep2)
        a = cy.check_U2_integral(p)
        b = cy.check_U2_integral(p, erf_path=True)
        assert abs(a - b) < 1e-12

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
        lhs = cy._integrated(p, "boundary", np.eye(rep2.d_s))
        pp = pi_plus_product(rep2, 0.0)
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

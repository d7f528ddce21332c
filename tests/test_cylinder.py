import functools
import math

import numpy as np
import pytest
from scipy import integrate

from chiralbag import cli
from chiralbag import cylinder as cy
from chiralbag.specialfn import erfc, erfcx
from test_clifford import build_gamma, pi_plus_product, projectors


ALL_M = [2, 4, 6, 8, 10, 12]
# (theta, omega) of the kernel checks, at every m in ALL_M
KERNEL_GRID = [(theta, omega) for theta in (-1.1, 0.0, 0.7, 2.0)
               for omega in (-0.8, 1.3)]
# the reference mode of the checks: (omega, theta, t)
OMEGA, THETA, T = 1.3, 0.7, 0.25


def free(t):
    """The free Gaussian e^{-(x - x')^2/4t} and its x-derivative."""
    def scalar(x, xp):
        xi = x - xp
        return np.exp(-xi * xi / (4.0 * t))
    return scalar, lambda x, xp: -(x - xp) / (2.0 * t) * scalar(x, xp)


def kernel(m, omega, theta, t):
    """The full mode kernel free + image + 2 Pi+ Pi+* / cosh^2 boundary,
    with the weight exp(-omega^2 t)/sqrt(4 pi t) stripped, from the
    package's scalars."""
    rep = build_gamma(m)
    eye = np.eye(rep.d_s)
    mat = 2.0 / math.cosh(theta) ** 2 * pi_plus_product(rep, theta)
    scalars = cy._kernel(t, omega * math.tanh(theta))

    def full(x, xp):
        image, _, boundary, _ = scalars(x, xp)
        return free(t)[0](x, xp) * eye + image * eye + boundary * mat
    return full


def boundary_condition_residual(m, omega, theta, t, xp):
    """Max entry of Pi_- applied to the full kernel at x = 0."""
    _, pi_minus = projectors(build_gamma(m), theta)
    return float(np.abs(pi_minus @ kernel(m, omega, theta, t)(0.0, xp))
                 .max())


def heat_equation_residual(m, omega, theta, t, x, xp, h_x=1e-4, h_t=1e-5):
    """Finite-difference residual of (d_t + omega^2 - d_x^2) on the kernel
    with its mode weight restored, at an interior point."""
    def weighted(t):
        w = math.exp(-omega ** 2 * t) / math.sqrt(4.0 * math.pi * t)
        k = kernel(m, omega, theta, t)
        return lambda x, xp: w * k(x, xp)
    f, f_up, f_down = weighted(t), weighted(t + h_t), weighted(t - h_t)
    d_t = (f_up(x, xp) - f_down(x, xp)) / (2.0 * h_t)
    d_xx = (f(x + h_x, xp) - 2.0 * f(x, xp) + f(x - h_x, xp)) / (h_x * h_x)
    return float(np.abs(d_t + omega ** 2 * f(x, xp) - d_xx).max())


class TestModeKernel:
    def test_theta_zero_boundary_scalar(self):
        boundary = cy._kernel(T, OMEGA * math.tanh(0.0))(0.4, 0.5)[2]
        eta = 0.9
        assert boundary == \
            pytest.approx(math.exp(-eta * eta / (4 * 0.25)), rel=1e-13)

    def test_omega_zero_bracket_is_one(self):
        scalars = cy._kernel(T, 0.0 * math.tanh(THETA))
        for x, xp in ((0.1, 0.3), (1.0, 2.0)):
            eta = x + xp
            assert scalars(x, xp)[2] == \
                pytest.approx(math.exp(-eta * eta / (4 * 0.25)), rel=1e-13)

    def test_boundary_condition(self):
        for m in ALL_M:
            for theta, omega in KERNEL_GRID:
                for xp in (0.05, 0.3, 1.1):
                    assert boundary_condition_residual(
                        m, omega, theta, T, xp) < 1e-10, (m, theta, omega, xp)

    def test_boundary_condition_m4(self):
        assert boundary_condition_residual(4, 0.8, 1.1, 0.1, 0.4) < 1e-10

    @pytest.mark.parametrize("x,xp", [(0.4, 0.7), (0.2, 0.2), (1.3, 0.5)])
    def test_heat_equation(self, x, xp):
        for m in ALL_M:
            for theta, omega in KERNEL_GRID:
                assert heat_equation_residual(m, omega, theta, T, x, xp) \
                    < 1e-6, (m, theta, omega)

    def test_scaled_erfc_stability(self):
        # far from the boundary the naive exp(u^2) erfc(u) would overflow;
        # the scalar must still evaluate to a finite (tiny) value
        v = cy._kernel(0.01, OMEGA * math.tanh(THETA))(30.0, 30.0)[2]
        assert math.isfinite(v)
        assert v == pytest.approx(0.0, abs=1e-300)

    def test_invalid_t(self, monkeypatch):
        # refused before any quadrature
        monkeypatch.setattr(cy, "panel_rule", None)
        for t in (0.0, -0.1):
            with pytest.raises(ValueError, match="t must be positive"):
                cy.check_U_integrals(1.0, 0.0, t)

    @pytest.mark.parametrize("t", (5e-324, 1e-308, 9.9e-301, 1.01e300,
                                   3e305, 1e307))
    def test_t_outside_range(self, monkeypatch, t):
        # refused before any quadrature: below T_MIN t and eta^2 lose bits,
        # past ~3e305 eta^2 overflows where the Gaussian is not negligible
        monkeypatch.setattr(cy, "panel_rule", None)
        with pytest.raises(ValueError, match=r"t must be in \[1e-300, "):
            cy.check_U_integrals(0.5, 0.0, t)


class TestApplyDirac:
    def test_derivatives_match_central_differences(self):
        # s' of each piece against central differences of s, relative to
        # the size of a derivative on the Gaussian's scale, |s'| + |s|/sqrt(t):
        # the boundary scalar grows like e^{t b^2}, to ~1e26 at
        # b = 12 tanh 3, t = 0.4
        h = 1e-6
        for t in (0.05, 0.1, 0.25, 0.4):
            for b in (-2.0, 0.0, 0.7, 3.0, 12.0 * math.tanh(3.0)):
                scalars = cy._kernel(t, b)
                for x in (0.0, 0.1, 0.4, 1.0):
                    for xp in (0.0, 0.3, 0.9):
                        at = scalars(x, xp)
                        fd = (scalars(x + h, xp) - scalars(x - h, xp)) \
                            / (2 * h)
                        # image and boundary: (scalar, x-derivative)
                        for s, dx in ((0, 1), (2, 3)):
                            scale = abs(at[dx]) + abs(at[s]) / math.sqrt(t)
                            assert abs(fd[s] - at[dx]) <= 1e-7 * scale, \
                                (t, b, x, xp)

    def test_theta_zero_image_part(self):
        # P applied to the image Gaussian at coincidence:
        # -gt gm w e^{-x^2/t} + gm (x/t) e^{-x^2/t}
        omega, t = 1.3, 0.25
        x = 0.6
        scalar, scalar_dx = cy._kernel(t, 0.7)(x, x)[:2]
        g = math.exp(-x * x / t)
        gm, gt = cy.GAMMA_M, cy.GAMMA_TILDE
        applied = omega * scalar * gt @ gm + scalar_dx * gm
        expect = -omega * gt @ gm * g + gm * (x / t) * g
        assert np.abs(applied - expect).max() < 1e-13


def u1(omega, theta, t):
    return cy.check_U_integrals(omega, theta, t)[0][0]


def u2(omega, theta, t):
    return cy.check_U_integrals(omega, theta, t)[1][0]


class TestU1Integral:
    def test_reference_point(self):
        assert u1(OMEGA, THETA, T) < 1e-8

    def test_omega_zero(self):
        assert u1(0.0, THETA, T) < 1e-10


class TestU2Integral:
    def test_reference_point(self):
        assert u2(OMEGA, THETA, T) < 1e-8

    def test_theta_zero_reduction(self):
        assert u2(OMEGA, 0.0, T) < 1e-9

    def test_erf_and_erfc_paths_agree(self):
        # E = e^{t b^2} erfc(-sqrt(t) b) of the U2 closed form, as the
        # scaled erfc it is computed by and through erf
        for omega, theta, t in ((1.3, 0.7, 0.25), (-1.3, -0.7, 0.25),
                                (0.9, 1.2, 0.1)):
            b = omega * math.tanh(theta)
            scaled = erfcx(-math.sqrt(t) * b)
            direct = math.exp(t * b * b) * (1.0 + math.erf(math.sqrt(t) * b))
            assert scaled == pytest.approx(direct, rel=1e-13)
            assert erfc(-math.sqrt(t) * b) == \
                pytest.approx(1.0 + math.erf(math.sqrt(t) * b), rel=1e-15)

    def test_reflection_symmetry(self):
        a = u2(1.3, 0.7, T)
        b = u2(-1.3, -0.7, T)
        assert a < 1e-8 and b < 1e-8

    @pytest.mark.parametrize("m", ALL_M)
    def test_every_m(self, m, monkeypatch):
        # the check run in the reference representation of dimension m
        rep = build_gamma(m)
        gt, gm = rep.gamma_tilde, rep.gamma_m
        for name, value in (("GAMMA_TILDE", gt), ("GAMMA_M", gm),
                            ("GTGM", gt @ gm), ("GMGT", gm @ gt),
                            ("ABS_GTGM", np.abs(gt @ gm)),
                            ("ABS_GM", np.abs(gm))):
            monkeypatch.setattr(cy, name, value)
        monkeypatch.setattr(cy, "_projector_product",
                            functools.partial(pi_plus_product, rep))
        (r1, _), (r2, _) = cy.check_U_integrals(0.9, 1.2, 0.1)
        assert r1 < 1e-13 and r2 < 1e-13

    def test_theta_zero_explicit_rhs(self):
        # at theta=0 the closed form collapses to
        # -1/2 gm Pi+Pi+* / sqrt(pi t) - omega/2 gm gt Pi+Pi+*
        pp = cy._projector_product(0.0)
        scalars = cy._kernel(T, 0.0)
        (_, _, s0, s1), _ = cy.panel_rule(
            lambda x: scalars(x, x), np.minimum(
                cy.PANEL_EDGES * math.sqrt(T), cy._window(OMEGA, T)))
        gm, gt = cy.GAMMA_M, cy.GAMMA_TILDE
        lhs = (OMEGA * s0 * gt @ gm + s1 * gm) @ (2.0 * pp) \
            / math.sqrt(4.0 * math.pi * T)
        rhs = -0.5 / math.sqrt(math.pi * T) * gm @ pp \
            - 0.5 * OMEGA * gm @ gt @ pp
        assert np.abs(lhs - rhs).max() < 1e-9


class TestQuadratureCount:
    @pytest.mark.parametrize("m", [2, 12])
    def test_one_stacked_quad_per_U_row(self, m, monkeypatch):
        # the Clifford matrices factor out of the integrands, so a U row is
        # one rule on the four real kernel scalars whatever the spinor
        # dimension, and the rule calls its integrand once, on all of its
        # (panels, nodes)
        rules, evals = [], []
        panel_rule = cy.panel_rule

        def counting(g, edges):
            rules.append(edges)

            def counted(x):
                values = g(x)
                evals.append((np.shape(x), values.shape))
                return values
            return panel_rule(counted, edges)

        monkeypatch.setattr(cy, "panel_rule", counting)
        assert cli.main(f"verify-cylinder --m {m} --omega {OMEGA} --theta "
                        f"{THETA} --t {T} --s 2.5".split()) == 0
        assert len(rules) == 1
        [(nodes, values)] = evals
        assert nodes == (len(cy.PANEL_EDGES) - 1, 30)
        assert values == (4,) + nodes

    def test_one_exp_sinh_call_per_t_check(self, monkeypatch):
        calls = []
        exp_sinh = cy._exp_sinh

        def counting(F):
            def counted(y):
                calls.append(np.size(y))
                return F(y)
            return exp_sinh(counted)

        monkeypatch.setattr(cy, "_exp_sinh", counting)
        assert cy.check_t_integral(2.5, 1.7, 0.6)[0] < 1e-13
        assert len(calls) == 1 and calls[0] > 1


def test_one_pi_plus_product_per_U_row(monkeypatch):
    # the image part needs no Pi+ Pi+*; a U row builds it once for its
    # boundary part and reuses it on the right side
    built = []
    projector_product = cy._projector_product

    def spy(theta):
        built.append(theta)
        return projector_product(theta)
    monkeypatch.setattr(cy, "_projector_product", spy)
    (r1, _), (r2, _) = cy.check_U_integrals(OMEGA, THETA, T)
    assert r1 < 1e-13 and r2 < 1e-13
    assert built == [THETA]


class TestTIntegral:
    def test_theta_zero(self):
        assert cy.check_t_integral(2.0, 1.5, 0.0)[0] < 1e-10

    def test_reference_points(self):
        assert cy.check_t_integral(2.5, 1.7, 0.6)[0] < 1e-8
        assert cy.check_t_integral(2.5, -1.7, 0.6)[0] < 1e-8

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


# the oracle grid covers the perfbench cylinder_modes box (|theta| <= 1.5,
# omega in [0.3, 2.5], t in [0.05, 0.4], s in [0.5, 3]) and the points the
# other tests and the README run: b = omega tanh(theta) up to |omega| = 2.5
ORACLE_T = (0.05, 0.1, 0.25, 0.4)
ORACLE_B = (-2.5, -0.3, 0.7, 2.5)
# (s, omega, theta) of the t-integral, out to |theta| = 4.5 both ways and to
# theta = 30 for sgn(omega) sinh(theta) > 0
ORACLE_THETA = (-4.5, -1.5, -0.4, 0.0, 0.7, 1.5, 4.5)
ORACLE_S = [(s, 0.3, theta) for s in (0.5, 1.5, 3.0)
            for theta in ORACLE_THETA] + \
    [(2.5, -2.5, theta) for theta in ORACLE_THETA] + \
    [(s, 0.5, theta) for s in (1.5, 2.5) for theta in (5.0, 8.0, 30.0)]


def _oracle(value, estimate, ref, scale):
    """The rule's value within 1e-14 of the 30-digit reference, scaled, and
    its estimate no smaller than its actual error above 1e-15 scaled."""
    error = abs(value - float(ref)) / scale
    assert error < 1e-14
    assert error < 1e-15 or estimate / scale >= error


class TestOracle:
    @pytest.mark.parametrize("t", ORACLE_T)
    def test_window_rule(self, t):
        mp = pytest.importorskip("mpmath")
        # past 12 sqrt(t) every piece is below e^-144 of its size
        edges = [mp.mpf(e) * mp.sqrt(t) for e in cy.PANEL_EDGES[:-1]]

        def quad(h):
            with mp.workdps(30):
                return mp.quad(lambda x: h(x, x), edges,
                               method="gauss-legendre")
        image = [quad(h) for h in _mp_image(mp, t)]
        for b in ORACLE_B:
            scalars = cy._kernel(t, b)
            panels = np.minimum(cy.PANEL_EDGES * math.sqrt(t),
                                cy._window(b, t))
            values, estimates = cy.panel_rule(lambda x: scalars(x, x),
                                              panels)
            sizes, _ = cy.panel_rule(lambda x: np.abs(scalars(x, x)),
                                     panels)
            refs = image + [quad(h) for h in _mp_boundary(mp, t, b)]
            for args in zip(values, estimates, refs, sizes):
                _oracle(*args)

    @pytest.mark.parametrize("s,omega,theta", ORACLE_S)
    def test_t_rule(self, s, omega, theta):
        mp = pytest.importorskip("mpmath")
        value, estimate = cy._t_integral(s, omega, theta)
        with mp.workdps(30):
            s, omega, theta = map(mp.mpf, (s, omega, theta))
            L = mp.cosh(theta) ** 2 / omega ** 2
            b = omega * mp.tanh(theta)
            ref = mp.quad(lambda t: t ** ((s - 1) / 2) * mp.exp(-t / L)
                          * (1 + mp.erf(mp.sqrt(t) * b)),
                          [0] + [L * mp.exp(k) for k in range(-66, 7, 6)]
                          + [mp.inf])
        _oracle(value, estimate, ref, float(ref))


def _mp_image(mp, t):
    t = mp.mpf(t)

    def scalar(x, xp):
        return -mp.exp(-(x + xp) ** 2 / (4 * t))
    return scalar, lambda x, xp: -(x + xp) / (2 * t) * scalar(x, xp)


def _mp_boundary(mp, t, b):
    """The boundary scalar and its x-derivative from exp(u^2) erfc(u) in
    30-digit arithmetic."""
    t, b = mp.mpf(t), mp.mpf(b)

    def parts(x, xp):
        eta = x + xp
        u = eta / mp.sqrt(4 * t) - mp.sqrt(t) * b
        return eta, mp.exp(-eta ** 2 / (4 * t)), mp.exp(u * u) * mp.erfc(u)

    def scalar(x, xp):
        eta, g, e = parts(x, xp)
        return g * (1 + mp.sqrt(mp.pi * t) * b * e)

    def scalar_dx(x, xp):
        eta, g, e = parts(x, xp)
        return -g * (eta / (2 * t) + b + mp.sqrt(mp.pi * t) * b * b * e)
    return scalar, scalar_dx


# the per-piece path the stacked U check replaced, kept as its oracle: two
# closure pairs and four panel_rule calls per U row, formula for formula
def _piece_image(t):
    def scalar(x, xp):
        eta = x + xp
        return -np.exp(-eta * eta / (4.0 * t))

    def scalar_dx(x, xp):
        return -(x + xp) / (2.0 * t) * scalar(x, xp)
    return scalar, scalar_dx


def _piece_boundary(t, b):
    def scalar(x, xp):
        eta = x + xp
        u = eta / math.sqrt(4.0 * t) - math.sqrt(t) * b
        return np.exp(-eta * eta / (4.0 * t)) * \
            (1.0 + math.sqrt(math.pi * t) * b * erfcx(u))

    def scalar_dx(x, xp):
        eta = x + xp
        u = eta / math.sqrt(4.0 * t) - math.sqrt(t) * b
        return -np.exp(-eta * eta / (4.0 * t)) * \
            (eta / (2.0 * t) + b + math.sqrt(math.pi * t) * b * b * erfcx(u))
    return scalar, scalar_dx


def _piece_window(omega, t):
    X = 12.0 * math.sqrt(t) + 2.0 * abs(omega) * t
    if not math.isfinite(X):
        raise OverflowError(f"quadrature window X={X}")
    tail = math.exp(-X * X / t) * (4.0 + abs(omega))
    if tail > 1e-20:
        raise cy.TailBoundError(f"tail bound {tail:.3e} at X={X}")
    return X


def _piece_integrated(omega, t, piece, matrix):
    if t <= 0:
        raise ValueError("t must be positive")
    if not all(math.isfinite(g(0.0, 0.0)) for g in piece):
        raise OverflowError("kernel piece not finite at x = 0")
    edges = np.minimum(cy.PANEL_EDGES * math.sqrt(t), _piece_window(omega, t))
    with np.errstate(over="ignore"):
        (s0, e0), (s1, e1) = [cy.panel_rule(lambda x: g(x, x), edges)
                              for g in piece]
    gt, gm = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [-1.0, 0.0]])
    gtgm = gt @ gm
    norm = math.sqrt(4.0 * math.pi * t)
    lhs = (omega * s0 * gtgm + s1 * gm) @ matrix / norm
    err = (abs(omega) * e0 * np.abs(gtgm) + e1 * np.abs(gm)) @ \
        np.abs(matrix) / norm
    return lhs, float(err.max())


def _piece_residual(lhs, rhs, err):
    scale = max(1.0, float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max()) / scale, err / scale


def _piece_U(omega, theta, t):
    """((U1, err), (U2, err)) by the per-piece path: U1 whole, then U2."""
    gt, gm = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [-1.0, 0.0]])
    lhs, err = _piece_integrated(omega, t, _piece_image(t), np.eye(2))
    rhs = 0.5 / math.sqrt(4.0 * math.pi * t) * gm + 0.25 * omega * gm @ gt
    u1 = _piece_residual(lhs, rhs, err)
    ch2 = math.cosh(theta) ** 2
    c, s = math.cosh(theta), math.sinh(theta)
    pp = 0.5 * c * (c * np.eye(2) + s * gt - gt @ gm)
    b = omega * math.tanh(theta)
    lhs, err = _piece_integrated(omega, t, _piece_boundary(t, b),
                                 2.0 / ch2 * pp)
    E = erfcx(-math.sqrt(t) * b)
    pref = 0.5 / ch2
    rhs = -pref * gm @ pp * (1.0 / math.sqrt(math.pi * t) + b * E) \
        - pref * omega * gm @ gt @ pp * E
    return u1, _piece_residual(lhs, rhs, err)


class TestStackedAgainstPieces:
    # (|theta|, omega range, t range): the perfbench cylinder_modes box,
    # then a wider one with both signs of omega
    @pytest.mark.parametrize("theta,omega,t", (
        (1.5, (0.3, 2.5), (0.05, 0.4)), (4.0, (-3.0, 3.0), (0.01, 0.5))),
        ids=("perfbench", "wide"))
    def test_residuals_bit_identical(self, theta, omega, t):
        rng = np.random.default_rng(2005)
        for _ in range(400):
            point = (rng.uniform(*omega), rng.uniform(-theta, theta),
                     rng.uniform(*t))
            stacked = cy.check_U_integrals(*point)
            for (r, e), (r0, e0) in zip(stacked, _piece_U(*point)):
                assert r == r0, point
                assert abs(e - e0) <= 2e-15 * e0, point

    @pytest.mark.parametrize("omega,theta,t", (
        (1000.0, 30.0, 0.1), (0.5, 700.0, 0.1), (0.5, 0.0, 0.0),
        (1e149, 0.0, 1e-300)),
        ids=("boundary-overflow", "cosh-overflow", "t-zero", "tail"))
    def test_same_refusal(self, omega, theta, t):
        with pytest.raises(Exception) as piece:
            _piece_U(omega, theta, t)
        with pytest.raises(Exception) as stacked:
            cy.check_U_integrals(omega, theta, t)
        assert type(stacked.value) is type(piece.value)
        assert str(stacked.value) == str(piece.value)


# t scanned past both ends of [T_MIN, T_MAX]: below it and at a subnormal
# t, and from where eta^2 overflows inside the window to the float maximum
EXTREME_T = np.concatenate([np.geomspace(1e250, 1e308, 40),
                            np.geomspace(5e-324, 1e-250, 40)]).tolist()


@pytest.mark.parametrize("omega", (0.5, 2.5, 100.0))
@pytest.mark.parametrize("theta", (0.0, 0.7, -1.5))
def test_extreme_t_correct_or_refused(omega, theta):
    # a RuntimeWarning fails the test too (pyproject filterwarnings)
    for t in EXTREME_T:
        try:
            (r1, _), (r2, _) = cy.check_U_integrals(omega, theta, t)
        except ValueError as exc:
            assert not cy.T_MIN <= t <= cy.T_MAX, t
            assert str(exc).startswith("t must be in"), t
        except OverflowError:
            # e^{t b^2} of the boundary term past the float range
            assert theta * omega > 0 and t * math.tanh(theta) ** 2 \
                * omega ** 2 > 700.0, t
        else:
            assert r1 < 1e-12 and r2 < 1e-12, t

"""Per-mode verification of the half-line heat kernel behind the cylinder
route to the eta-type boundary constants.

For one transverse mode of frequency omega the kernel splits into a free
Gaussian, an image Gaussian and a boundary term proportional to
2 Pi+ Pi+* / cosh^2(theta) times a scalar involving exp(u^2) erfc(u).  This
module evaluates the image and boundary scalars stably (scaled erfc
throughout), applies the per-mode operator P = gt gm omega + gm d/dx, and
checks by quadrature what verify-cylinder reports: the integrated identities
at one mode and the t-integral closed form.  Any fixed left factor f of an
identity multiplies both its sides, so f = 1 checks it whole.  The tests
build the whole kernel from these scalars and check its boundary condition
and the heat equation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .clifford import GammaRep, build_gamma, pi_plus_product
from .specialfn import erf, erfcx, gamma_fn, hyp2f1_euler

QUAD_EPS = 1e-13
FD_TOL = 1e-7
# point and step of the finite-difference audit of the x-derivatives
FD_X = 0.4
FD_STEP = 1e-5


class DerivativeMismatchError(RuntimeError):
    """Analytic x-derivative disagrees with central finite differences."""


class TailBoundError(RuntimeError):
    """Gaussian tail beyond the quadrature window is not negligible."""


def _image(t: float) -> tuple:
    """The image Gaussian -e^{-eta^2/4t}, eta = x + x', of the mode kernel
    with its weight exp(-omega^2 t)/sqrt(4 pi t) stripped, and its
    x-derivative at fixed x', as functions of (x, x')."""
    def scalar(x: float, xp: float) -> float:
        eta = x + xp
        return -math.exp(-eta * eta / (4.0 * t))

    def scalar_dx(x: float, xp: float) -> float:
        return -(x + xp) / (2.0 * t) * scalar(x, xp)
    return scalar, scalar_dx


def _boundary(t: float, b: float) -> tuple:
    """The scalar of the boundary term, whose matrix is
    2 Pi+ Pi+* / cosh^2(theta), and its x-derivative at fixed x':
    [1 + sqrt(pi t) b e^{u^2} erfc(u)] e^{-eta^2/4t}, b = omega tanh(theta),
    u = eta/sqrt(4t) - sqrt(t) b, evaluated with erfcx(u) = e^{u^2} erfc(u)
    so the exponentials never overflow."""
    def scalar(x: float, xp: float) -> float:
        eta = x + xp
        u = eta / math.sqrt(4.0 * t) - math.sqrt(t) * b
        return math.exp(-eta * eta / (4.0 * t)) * \
            (1.0 + math.sqrt(math.pi * t) * b * erfcx(u))

    def scalar_dx(x: float, xp: float) -> float:
        """-e^{-eta^2/4t} [eta/2t + b + sqrt(pi t) b^2 erfcx(u)]."""
        eta = x + xp
        u = eta / math.sqrt(4.0 * t) - math.sqrt(t) * b
        return -math.exp(-eta * eta / (4.0 * t)) * \
            (eta / (2.0 * t) + b + math.sqrt(math.pi * t) * b * b * erfcx(u))
    return scalar, scalar_dx


def _window(omega: float, t: float) -> float:
    X = 12.0 * math.sqrt(t) + 2.0 * abs(omega) * t
    # all integrand pieces decay at least like exp(-x^2/t) up to bounded
    # prefactors; demand a negligible tail at the cut
    tail = math.exp(-X * X / t) * (4.0 + abs(omega))
    if tail > 1e-20:
        raise TailBoundError(f"tail bound {tail:.3e} at X={X}")
    return X


def _integrated(rep: GammaRep, omega: float, t: float, piece: tuple,
                matrix: np.ndarray) -> np.ndarray:
    """int_0^X [P_x (s M)] dx / sqrt(4 pi t) at x = x' over the tail-bounded
    window [0, X] for a piece (s, s') = _image or _boundary with fixed matrix
    M: (omega S0 gt gm + S1 gm) M / sqrt(4 pi t), S0 and S1 the quadratures
    of s and s'.  t must be positive; s' is first checked by differences."""
    if t <= 0:
        raise ValueError("t must be positive")
    scalar, scalar_dx = piece
    x, h = FD_X, FD_STEP
    resid = abs((scalar(x + h, x) - scalar(x - h, x)) / (2.0 * h)
                - scalar_dx(x, x))
    if resid > FD_TOL:
        raise DerivativeMismatchError(
            f"analytic d/dx vs central differences: residual {resid:.3e} "
            f"at x={x}")
    X = _window(omega, t)

    def quad(g) -> float:
        val, _ = integrate.quad(lambda x: g(x, x), 0.0, X, epsabs=QUAD_EPS,
                                epsrel=1e-12, limit=200)
        return val
    return (omega * quad(scalar) * rep.gamma_tilde @ rep.gamma_m
            + quad(scalar_dx) * rep.gamma_m) @ matrix / \
        math.sqrt(4.0 * math.pi * t)


def check_U1_integral(m: int, omega: float, t: float) -> float:
    """Residual of the integrated image-part identity in dimension m: with
    the mode weight 1/sqrt(4 pi t) restored,

      int_0^inf [P_x U_image] dx = 1/sqrt(4 pi t) * 1/2 gm + 1/4 omega gm gt.
    """
    rep = build_gamma(m)
    lhs = _integrated(rep, omega, t, _image(t), np.eye(rep.d_s))
    gm, gt = rep.gamma_m, rep.gamma_tilde
    rhs = 0.5 / math.sqrt(4.0 * math.pi * t) * gm + 0.25 * omega * gm @ gt
    return float(np.abs(lhs - rhs).max())


def check_U2_integral(m: int, omega: float, theta: float, t: float) -> float:
    """Residual of the integrated boundary-part identity in dimension m: with
    the weight restored, b = omega tanh theta, E = e^{t b^2} erfc(-sqrt(t) b),

      int_0^inf [P_x U_boundary] dx
        = -1/(2 cosh^2 theta) gm Pi+ Pi+* [1/sqrt(pi t) + b E]
          - omega/(2 cosh^2 theta) gm gt Pi+ Pi+* E.
    """
    rep = build_gamma(m)
    pp = pi_plus_product(rep, theta)  # checked against its closed form
    b = omega * math.tanh(theta)
    lhs = _integrated(rep, omega, t, _boundary(t, b),
                      2.0 / math.cosh(theta) ** 2 * pp)
    E = erfcx(-math.sqrt(t) * b)
    gm, gt = rep.gamma_m, rep.gamma_tilde
    pref = 0.5 / math.cosh(theta) ** 2
    rhs = -pref * gm @ pp * (1.0 / math.sqrt(math.pi * t) + b * E) \
        - pref * omega * gm @ gt @ pp * E
    return float(np.abs(lhs - rhs).max())


def check_t_integral(s: float, omega: float, theta: float) -> float:
    """Relative residual of the Mellin-type closed form

      int_0^inf t^{(s-1)/2} e^{-t omega^2/cosh^2 theta}
                (1 + erf(sqrt(t) omega tanh theta)) dt
        = cosh^{s+1}(theta)/|omega|^{s+1} [Gamma((s+1)/2)
          + 2/sqrt(pi) Gamma(1+s/2) sinh(theta) sgn(omega)
            2F1(1/2, 1+s/2; 3/2; -sinh^2 theta)] (Euler's integral).
    """
    if s <= -1:
        raise ValueError("need s > -1 for integrability at t=0")
    if omega == 0:
        raise ValueError("omega must be nonzero")
    ch, sh, th = math.cosh(theta), math.sinh(theta), math.tanh(theta)

    def integrand(t):
        return t ** ((s - 1) / 2.0) * \
            math.exp(-t * omega * omega / (ch * ch)) * \
            (1.0 + erf(math.sqrt(t) * omega * th))

    num, _ = integrate.quad(integrand, 0.0, np.inf,
                            epsabs=1e-13, epsrel=1e-12, limit=400)
    closed = ch ** (s + 1) / abs(omega) ** (s + 1) * (
        gamma_fn((s + 1) / 2.0)
        + 2.0 / math.sqrt(math.pi) * gamma_fn(1.0 + s / 2.0)
        * sh * math.copysign(1.0, omega)
        * hyp2f1_euler(1.0 + s / 2.0, theta))
    return abs(num - closed) / abs(closed)

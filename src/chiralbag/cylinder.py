"""Per-mode verification of the half-line heat kernel behind the cylinder
route to the eta-type boundary constants.

For one transverse mode of frequency omega the kernel splits into a free
Gaussian, an image Gaussian and a boundary term proportional to
2 Pi+ Pi+* / cosh^2(theta) times a scalar involving exp(u^2) erfc(u).  This
module evaluates the split kernel stably (scaled erfc throughout), applies
the per-mode operator P = gt gm omega + gm d/dx, and checks the integrated
identities and the t-integral closed form by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from .clifford import GammaRep, chiral_projectors, pi_plus_product
from .specialfn import erf, erfcx, gamma_fn, hyp2f1_euler

QUAD_EPS = 1e-13
FD_TOL = 1e-7


class DerivativeMismatchError(RuntimeError):
    """Analytic x-derivative disagrees with central finite differences."""


class TailBoundError(RuntimeError):
    """Gaussian tail beyond the quadrature window is not negligible."""


@dataclass(frozen=True)
class ModeParams:
    """One transverse mode: frequency omega, chiral angle theta, time t,
    and the Clifford representation fixing gm and gt."""
    omega: float
    theta: float
    t: float
    rep: GammaRep

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")


class ModeKernel:
    """The bracketed factor of the per-mode kernel, with the mode weight
    exp(-omega^2 t)/sqrt(4 pi t) stripped, as free + image + boundary parts.

    All evaluators accept an optional t override so finite-difference checks
    in t reuse the same object.
    """

    def __init__(self, params: ModeParams):
        self.params = params
        self._bmat = 2.0 / math.cosh(params.theta) ** 2 * \
            pi_plus_product(params.rep, params.theta)
        self._eye = np.eye(params.rep.d_s)

    # -- scalar pieces ----------------------------------------------------

    def _b(self) -> float:
        return self.params.omega * math.tanh(self.params.theta)

    def free_scalar(self, x: float, xp: float, t: Optional[float] = None):
        t = self.params.t if t is None else t
        xi = x - xp
        return math.exp(-xi * xi / (4.0 * t))

    def image_scalar(self, x: float, xp: float, t: Optional[float] = None):
        t = self.params.t if t is None else t
        eta = x + xp
        return -math.exp(-eta * eta / (4.0 * t))

    def boundary_scalar(self, x: float, xp: float,
                        t: Optional[float] = None):
        """[1 + sqrt(pi t) omega tanh(theta) e^{u^2} erfc(u)] e^{-eta^2/4t},
        evaluated as e^{-eta^2/4t} (1 + sqrt(pi t) b erfcx(u)) so the
        exponentials never overflow."""
        t = self.params.t if t is None else t
        eta = x + xp
        b = self._b()
        u = eta / math.sqrt(4.0 * t) - math.sqrt(t) * b
        return math.exp(-eta * eta / (4.0 * t)) * \
            (1.0 + math.sqrt(math.pi * t) * b * erfcx(u))

    def boundary_scalar_dx(self, x: float, xp: float,
                           t: Optional[float] = None):
        """d/dx of boundary_scalar at fixed xp:
        -e^{-eta^2/4t} [eta/2t + b + sqrt(pi t) b^2 erfcx(u)]."""
        t = self.params.t if t is None else t
        eta = x + xp
        b = self._b()
        u = eta / math.sqrt(4.0 * t) - math.sqrt(t) * b
        return -math.exp(-eta * eta / (4.0 * t)) * \
            (eta / (2.0 * t) + b + math.sqrt(math.pi * t) * b * b * erfcx(u))

    def free_scalar_dx(self, x: float, xp: float,
                       t: Optional[float] = None):
        t = self.params.t if t is None else t
        return -(x - xp) / (2.0 * t) * self.free_scalar(x, xp, t)

    def image_scalar_dx(self, x: float, xp: float,
                        t: Optional[float] = None):
        t = self.params.t if t is None else t
        return -(x + xp) / (2.0 * t) * self.image_scalar(x, xp, t)

    # -- matrix-valued parts ----------------------------------------------

    def split(self, part: str) -> tuple:
        """(scalar value, scalar x-derivative, fixed matrix) for each piece
        of a kernel part: identity for free and image, the boundary matrix
        for boundary; "full" is the sum of all three."""
        pieces = {
            "free": (self.free_scalar, self.free_scalar_dx, self._eye),
            "image": (self.image_scalar, self.image_scalar_dx, self._eye),
            "boundary": (self.boundary_scalar, self.boundary_scalar_dx,
                         self._bmat)}
        if part == "full":
            return tuple(pieces.values())
        if part not in pieces:
            raise ValueError(f"unknown kernel part {part!r}")
        return (pieces[part],)

    def full(self, x, xp, t=None):
        return sum(s(x, xp, t) * mat for s, _, mat in self.split("full"))

    def weighted_full(self, x, xp, t=None):
        """Kernel with the exp(-omega^2 t)/sqrt(4 pi t) mode weight restored;
        this is the object that satisfies the per-mode heat equation."""
        tt = self.params.t if t is None else t
        w = math.exp(-self.params.omega ** 2 * tt) / \
            math.sqrt(4.0 * math.pi * tt)
        return w * self.full(x, xp, t=tt)


def boundary_condition_residual(kernel: ModeKernel, xp: float) -> float:
    """Max entry of Pi_- applied to the full kernel at x = 0."""
    p = kernel.params
    proj = chiral_projectors(p.rep, p.theta)
    return float(np.abs(proj.pi_minus @ kernel.full(0.0, xp)).max())


def heat_equation_residual(kernel: ModeKernel, x: float, xp: float,
                           h_x: float = 1e-4, h_t: float = 1e-5) -> float:
    """Finite-difference residual of (d_t + omega^2 - d_x^2) on the weighted
    kernel at an interior point."""
    p = kernel.params
    f = kernel.weighted_full
    d_t = (f(x, xp, t=p.t + h_t) - f(x, xp, t=p.t - h_t)) / (2.0 * h_t)
    d_xx = (f(x + h_x, xp) - 2.0 * f(x, xp) + f(x - h_x, xp)) / (h_x * h_x)
    return float(np.abs(d_t + p.omega ** 2 * f(x, xp) - d_xx).max())


class DiracApplied:
    """f [P_x (kernel part)] at coincidence x = x', with P realized per mode
    as gt gm omega + gm d/dx.  Each piece of the part is a scalar s times a
    fixed matrix M, so P maps it to f (omega s gt gm + s' gm) M; pointwise
    values and integrals both go through that form.  The analytic
    x-derivatives are audited against central differences on construction."""

    def __init__(self, params: ModeParams, kernel: ModeKernel,
                 part: str = "full", f_matrix: Optional[np.ndarray] = None,
                 audit_x: float = 0.4, fd_step: float = 1e-5):
        self.params = params
        self.part = part
        self.pieces = kernel.split(part)
        self.f = np.eye(params.rep.d_s) if f_matrix is None else \
            np.asarray(f_matrix, dtype=complex)
        self._audit(audit_x, fd_step)

    def _audit(self, x: float, h: float) -> None:
        resid = max(abs((s(x + h, x) - s(x - h, x)) / (2.0 * h) - ds(x, x))
                    for s, ds, _ in self.pieces)
        if resid > FD_TOL:
            raise DerivativeMismatchError(
                f"analytic d/dx vs central differences: residual "
                f"{resid:.3e} at x={x} for part {self.part!r}")

    def _apply(self, s0, s1, mat: np.ndarray) -> np.ndarray:
        """f (omega s0 gt gm + s1 gm) mat."""
        rep = self.params.rep
        return self.f @ (self.params.omega * s0 * rep.gamma_tilde
                         @ rep.gamma_m + s1 * rep.gamma_m) @ mat

    def __call__(self, x: float) -> np.ndarray:
        return sum(self._apply(s(x, x), ds(x, x), mat)
                   for s, ds, mat in self.pieces)

    def integral(self, a: float, b: float) -> np.ndarray:
        """int_a^b of the applied part: two real scalar quadratures per
        piece, then the fixed Clifford matrices."""
        def quad(g):
            val, _ = integrate.quad(lambda x: g(x, x), a, b, epsabs=QUAD_EPS,
                                    epsrel=1e-12, limit=200)
            return val
        return sum(self._apply(quad(s), quad(ds), mat)
                   for s, ds, mat in self.pieces)


def _window(params: ModeParams) -> float:
    X = 12.0 * math.sqrt(params.t) + 2.0 * abs(params.omega) * params.t
    # all integrand pieces decay at least like exp(-x^2/t) up to bounded
    # prefactors; demand a negligible tail at the cut
    tail = math.exp(-X * X / params.t) * (4.0 + abs(params.omega))
    if tail > 1e-20:
        raise TailBoundError(f"tail bound {tail:.3e} at X={X}")
    return X


def _integrated(params: ModeParams, part: str, f: np.ndarray) -> np.ndarray:
    """int_0^X f [P_x U_part] dx / sqrt(4 pi t) over the tail-bounded window
    [0, X]: (omega S0 f gt gm + S1 f gm) M / sqrt(4 pi t), where S0 and S1
    integrate the part's scalar and its x-derivative and M is its matrix."""
    integrand = DiracApplied(params, ModeKernel(params), part=part,
                             f_matrix=f)
    return integrand.integral(0.0, _window(params)) / \
        math.sqrt(4.0 * math.pi * params.t)


def check_U1_integral(params: ModeParams,
                      f_matrix: Optional[np.ndarray] = None) -> float:
    """Residual of the integrated image-part identity: with the mode weight
    1/sqrt(4 pi t) restored,

      int_0^inf f [P_x U_image] dx
        = 1/sqrt(4 pi t) * 1/2 f gm + 1/4 omega f gm gt.
    """
    rep = params.rep
    f = np.eye(rep.d_s) if f_matrix is None else np.asarray(f_matrix,
                                                            dtype=complex)
    lhs = _integrated(params, "image", f)
    gm, gt = rep.gamma_m, rep.gamma_tilde
    rhs = 0.5 / math.sqrt(4.0 * math.pi * params.t) * f @ gm \
        + 0.25 * params.omega * f @ gm @ gt
    return float(np.abs(lhs - rhs).max())


def check_U2_integral(params: ModeParams,
                      f_matrix: Optional[np.ndarray] = None,
                      erf_path: bool = False) -> float:
    """Residual of the integrated boundary-part identity: with the mode
    weight 1/sqrt(4 pi t) restored and E = e^{t b^2} erfc(-sqrt(t) b) for
    b = omega tanh(theta),

      int_0^inf f [P_x U_boundary] dx
        = -1/(2 cosh^2 theta) f gm Pi+ Pi+* [1/sqrt(pi t) + b E]
          - omega/(2 cosh^2 theta) f gm gt Pi+ Pi+* E.

    erf_path evaluates E as e^{t b^2} (1 + erf(sqrt(t) b)) instead of through
    the scaled erfc; the two must agree to rounding.
    """
    rep = params.rep
    f = np.eye(rep.d_s) if f_matrix is None else np.asarray(f_matrix,
                                                            dtype=complex)
    lhs = _integrated(params, "boundary", f)
    t, omega = params.t, params.omega
    b = omega * math.tanh(params.theta)
    if erf_path:
        E = math.exp(t * b * b) * (1.0 + erf(math.sqrt(t) * b))
    else:
        E = erfcx(-math.sqrt(t) * b)
    pp = pi_plus_product(rep, params.theta)
    gm, gt = rep.gamma_m, rep.gamma_tilde
    pref = 0.5 / math.cosh(params.theta) ** 2
    rhs = -pref * f @ gm @ pp * (1.0 / math.sqrt(math.pi * t) + b * E) \
        - pref * omega * f @ gm @ gt @ pp * E
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

"""Per-mode verification of the half-line heat kernel behind the cylinder
route to the eta-type boundary constants.

For one transverse mode of frequency omega the kernel splits into a free
Gaussian, an image Gaussian and a boundary term proportional to
2 Pi+ Pi+* / cosh^2(theta) times a scalar involving exp(u^2) erfc(u).  This
module evaluates the image and boundary scalars and their x-derivatives
stably, stacked as one ufunc of x and x' that shares its Gaussian and its
scaled erfc, applies the per-mode operator P = gt gm omega + gm d/dx, and
checks by quadrature what verify-cylinder reports: the integrated
identities at one mode and the t-integral closed form.  Any fixed left
factor f of an identity multiplies both its sides, so f = 1 checks it
whole.  The tests build the whole kernel from these scalars and check its
boundary condition and the heat equation.

Every matrix of the identities is a product of gt, gm and Pi+ Pi+* =
cosh(theta)/2 (cosh(theta) + sinh(theta) gt - gt gm), in the algebra fixed
by gt^2 = 1, gm^2 = -1 and gt gm = -gm gt at every even m.  In the
Pauli/Kronecker representation of size d_s = 2^(m/2), gt is a real +-1
diagonal and gm a real signed permutation pairing each +1 index i of gt
with a -1 index j(i) as the block [[0, 1], [-1, 0]].  In the order
i1, j(i1), i2, j(i2), ... each such matrix is d_s/2 copies of its m = 2
value, so a largest-entry residual is the 2x2 one: the checks take no m
and use the real m = 2 pair GAMMA_TILDE, GAMMA_M.  A spinor trace is d_s/2
times the 2x2 one (tr(2 Pi+ Pi+* / cosh^2 theta) = d_s).  A U residual and
its estimate are divided by max(1, largest entry of the right side): the
boundary term grows like e^{t b^2}, b = omega tanh theta.

Every check integrates by one of two fixed rules, which evaluate their
integrand once, on a whole array of nodes, and return a value and an error
estimate.  The x-integrals of both U identities are one
specialfn.panel_rule call, the rule of Euler's integral too, on the four
stacked scalars over the tail-bounded window [0, X], on panels graded in
units of sqrt(t), the scale of every scalar's Gaussian.  The t-integral is
taken on the scale tau = t omega^2 / cosh^2(theta): with t = L v,
L = cosh^2(theta) / omega^2, its numeric side is L^((s+1)/2) times the
unit-scale integral
int_0^inf v^((s-1)/2) e^{-v} erfc(-sgn(omega) sinh(theta) sqrt(v)) dv,
where erfc(-x) stands for 1 + erf(x).  That integral is summed by the
exp-sinh rule v = exp(pi/2 sinh(tau)) (Takahasi and Mori, Publ. RIMS 9
(1974) 721), trapezoidal in tau, and the estimate is the full-step sum less
the sum at twice the step.
"""

from __future__ import annotations

import math

import numpy as np

from .specialfn import ROUNDING, erfc, erfcx, gamma_fn, hyp2f1_euler, \
    panel_rule

# the m = 2 chirality matrix and gamma matrix along the inward normal
GAMMA_TILDE = np.diag([1.0, -1.0])
GAMMA_M = np.array([[0.0, 1.0], [-1.0, 0.0]])
# the products of the pair in the U identities, and the entry sizes the
# error estimates are carried through
GTGM, GMGT = GAMMA_TILDE @ GAMMA_M, GAMMA_M @ GAMMA_TILDE
ABS_GTGM, ABS_GM = np.abs(GTGM), np.abs(GAMMA_M)
# the t of the U checks: below T_MIN, t and eta^2 ~ t leave the normal
# range and lose bits; past T_MAX, eta^2 = 576 t at the window's Gaussian
# edge x = x' = 12 sqrt(t) nears overflow (at t ~ 3e305)
T_MIN, T_MAX = 1e-300, 1e300

# panel edges of the window rule in units of sqrt(t), clipped at the window
# end X
PANEL_EDGES = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0,
                        12.0, np.inf])

# exp-sinh rule in y = ln v = pi/2 sinh(tau), tau = k/32 in [-6.5, 4.5]:
# e^-v has vanished at the top (v = e^70.7), and the bottom (v = e^-522)
# leaves v^((s+1)/2) below 1e-10 of the integral for s > S_MIN and reaches
# the erfc cut-off v ~ 1/sinh^2(theta) for |theta| up to ~260.  Every other
# node from the first (k = -208) is the rule at twice the step.
DE_STEP = 1.0 / 32.0
_TAU = DE_STEP * np.arange(-208, 145)
_DE_Y = 0.5 * math.pi * np.sinh(_TAU)
_DE_WEIGHTS = DE_STEP * 0.5 * math.pi * np.cosh(_TAU)
# the t-integral's lower bound on s: the integral converges for s > -1, but
# the head below the rule's lowest node, of relative size about
# e^(-261 (s+1)) (1.7e-6 at s = -0.95), is lost unseen by the estimate
S_MIN = -0.9


class TailBoundError(RuntimeError):
    """Gaussian tail beyond the quadrature window is not negligible."""


def _kernel(t: float, b: float):
    """The image and boundary scalars of the mode kernel, with its weight
    exp(-omega^2 t)/sqrt(4 pi t) stripped, and their x-derivatives at fixed
    x', stacked on a leading axis as functions of (x, x'), scalars or
    arrays: the image Gaussian -e^{-eta^2/4t}, eta = x + x', and the scalar
    [1 + sqrt(pi t) b e^{u^2} erfc(u)] e^{-eta^2/4t} of the boundary term,
    whose matrix is 2 Pi+ Pi+* / cosh^2(theta), b = omega tanh(theta),
    u = eta/sqrt(4t) - sqrt(t) b, whose x-derivative is
    -e^{-eta^2/4t} [eta/2t + b + sqrt(pi t) b^2 e^{u^2} erfc(u)].  All four
    share one Gaussian and one erfcx(u) = e^{u^2} erfc(u), which keeps the
    exponentials from overflowing; the erfcx parts, the only parts that
    can, are largest in size at x = x' = 0."""
    def scalars(x, xp):
        eta = x + xp
        image = -np.exp(-eta * eta / (4.0 * t))
        scaled = erfcx(eta / math.sqrt(4.0 * t) - math.sqrt(t) * b)
        d = eta / (2.0 * t)
        return np.array([
            image, -d * image,
            -image * (1.0 + math.sqrt(math.pi * t) * b * scaled),
            image * (d + b + math.sqrt(math.pi * t) * b * b * scaled)])
    return scalars


def _window(omega: float, t: float) -> float:
    X = 12.0 * math.sqrt(t) + 2.0 * abs(omega) * t
    # the rule's nodes reach eta = x + x' = 2X
    if not math.isfinite(2.0 * X):
        raise OverflowError(f"quadrature window X={X}")
    # all integrand pieces decay at least like exp(-x^2/t) up to bounded
    # prefactors; demand a negligible tail at the cut
    tail = math.exp(-X * X / t) * (4.0 + abs(omega))
    if tail > 1e-20:
        raise TailBoundError(f"tail bound {tail:.3e} at X={X}")
    return X


def _exp_sinh(F) -> tuple[float, float]:
    """int_0^inf f(v) dv and its error estimate by the exp-sinh rule, from
    F(y) = v f(v) as a function of y = ln v (called once, on every node)."""
    with np.errstate(under="ignore"):
        f = F(_DE_Y) * _DE_WEIGHTS
    full = f.sum()
    return float(full), float(abs(full - 2.0 * f[::2].sum())
                              + ROUNDING * np.abs(f).sum())


def _projector_product(theta: float) -> np.ndarray:
    """Pi_+ Pi_+^* of the chiral bag projector Pi_+ = (1 - exp(theta gt)
    gt gm)/2, in its closed form; its entries grow like cosh^2 theta."""
    c, s = math.cosh(theta), math.sinh(theta)
    return 0.5 * c * (c * np.eye(2) + s * GAMMA_TILDE - GTGM)


def _residual(lhs: np.ndarray, rhs: np.ndarray,
              err: np.ndarray) -> tuple[float, float]:
    """Largest |lhs - rhs| and largest err, divided by max(1, largest
    |rhs|)."""
    scale = max(1.0, float(np.abs(rhs).max()))
    return (float(np.abs(lhs - rhs).max()) / scale,
            float(err.max()) / scale)


def check_U_integrals(omega: float, theta: float, t: float) -> tuple:
    """Scaled residuals of the integrated image- and boundary-part
    identities, each with the quadrature's error estimate on it:
    ((U1, err), (U2, err)).  With the mode weight 1/sqrt(4 pi t) restored,
    b = omega tanh theta and E = e^{t b^2} erfc(-sqrt(t) b),

      int_0^inf [P_x U_image] dx = 1/sqrt(4 pi t) * 1/2 gm + 1/4 omega gm gt,
      int_0^inf [P_x U_boundary] dx
        = -1/(2 cosh^2 theta) gm Pi+ Pi+* [1/sqrt(pi t) + b E]
          - omega/(2 cosh^2 theta) gm gt Pi+ Pi+* E.

    At x = x' a part with scalar s and fixed matrix M (1 for the image,
    2 Pi+ Pi+* / cosh^2 theta for the boundary) has
    P_x U = (omega s gt gm + s' gm) M / sqrt(4 pi t), s' the x-derivative.
    One panel_rule call integrates the four scalars of _kernel over the
    tail-bounded window [0, X]; each estimate is the same product taken
    over the sizes of the matrices and the rule's estimates.  t outside
    [T_MIN, T_MAX] is a ValueError, and a scalar not finite at x = x' = 0
    (where any overflow shows first) an OverflowError."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not T_MIN <= t <= T_MAX:
        raise ValueError(f"t must be in [{T_MIN:g}, {T_MAX:g}]")
    X = _window(omega, t)
    # OverflowError past |theta| ~ 355, before the entries of Pi+ Pi+*,
    # which grow like cosh^2 theta, overflow in a matrix product
    ch2 = math.cosh(theta) ** 2
    pp = _projector_product(theta)
    b = omega * math.tanh(theta)
    kernel = _kernel(t, b)
    # eta^2 overflows far out in a wide window, where e^{-eta^2/4t} = 0 is
    # the value
    with np.errstate(over="ignore"):
        if not np.isfinite(kernel(0.0, 0.0)).all():
            raise OverflowError("kernel piece not finite at x = 0")
        (i0, i1, s0, s1), (ie0, ie1, se0, se1) = panel_rule(
            lambda x: kernel(x, x),
            np.minimum(PANEL_EDGES * math.sqrt(t), X))
    norm = math.sqrt(4.0 * math.pi * t)
    image = _residual(
        (omega * i0 * GTGM + i1 * GAMMA_M) / norm,
        0.5 / norm * GAMMA_M + 0.25 * omega * GMGT,
        (abs(omega) * ie0 * ABS_GTGM + ie1 * ABS_GM) / norm)
    matrix = 2.0 / ch2 * pp
    E = erfcx(-math.sqrt(t) * b)
    pref = 0.5 / ch2
    boundary = _residual(
        (omega * s0 * GTGM + s1 * GAMMA_M) @ matrix / norm,
        -pref * GAMMA_M @ pp * (1.0 / math.sqrt(math.pi * t) + b * E)
        - pref * omega * GMGT @ pp * E,
        (abs(omega) * se0 * ABS_GTGM + se1 * ABS_GM) @ np.abs(matrix)
        / norm)
    return image, boundary


def _t_integral(s: float, omega: float,
                theta: float) -> tuple[float, float]:
    """int_0^inf t^{(s-1)/2} e^{-t omega^2/cosh^2 theta}
    erfc(-sqrt(t) omega tanh theta) dt and its error estimate, for
    s > S_MIN and omega != 0.  With t = L e^y, L = cosh^2(theta)/omega^2 and
    a = (s+1)/2 it is L^a times the exp-sinh integral over y of
    exp(a y - e^y) erfc(-c e^{y/2}), c = sgn(omega) sinh(theta).  The
    exponent is taken less its largest value a ln(a) - a, which goes into
    the prefactor, so it never overflows.  L or the prefactor past the float
    range is an OverflowError, and omega^2 underflowing to 0 a
    ZeroDivisionError, before any node is evaluated."""
    ch = math.cosh(theta)
    L = ch * ch / (omega * omega)
    if not math.isfinite(L):
        raise OverflowError(f"t-integral scale L={L}")
    a = (s + 1) / 2.0
    c = math.sinh(theta) * math.copysign(1.0, omega)
    peak = a * math.log(a) - a
    scale = L ** a * math.exp(peak)
    if not math.isfinite(scale):
        raise OverflowError(f"t-integral prefactor {scale}")
    unit, err = _exp_sinh(lambda y: np.exp(a * y - np.exp(y) - peak)
                          * erfc(-c * np.exp(0.5 * y)))
    return scale * unit, scale * err


def check_t_integral(s: float, omega: float,
                     theta: float) -> tuple[float, float]:
    """Relative residual of the Mellin-type closed form, and the relative
    error estimate of its numeric side (_t_integral, where 1 + erf(x) is
    erfc(-x)):

      int_0^inf t^{(s-1)/2} e^{-t omega^2/cosh^2 theta}
                (1 + erf(sqrt(t) omega tanh theta)) dt
        = cosh^{s+1}(theta)/|omega|^{s+1} [Gamma((s+1)/2)
          + 2/sqrt(pi) Gamma(1+s/2) sinh(theta) sgn(omega)
            2F1(1/2, 1+s/2; 3/2; -sinh^2 theta)] (Euler's integral).
    """
    if s <= S_MIN:
        raise ValueError(f"need s > {S_MIN}: the exp-sinh rule drops the "
                         "t-integral's head at t=0")
    if omega == 0:
        raise ValueError("omega must be nonzero")
    num, err = _t_integral(s, omega, theta)
    ch, sh = math.cosh(theta), math.sinh(theta)
    closed = ch ** (s + 1) / abs(omega) ** (s + 1) * (
        gamma_fn((s + 1) / 2.0)
        + 2.0 / math.sqrt(math.pi) * gamma_fn(1.0 + s / 2.0)
        * sh * math.copysign(1.0, omega)
        * hyp2f1_euler(1.0 + s / 2.0, theta))
    return abs(num - closed) / abs(closed), err / abs(closed)

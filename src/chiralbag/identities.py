"""Consistency web between the closed forms: the ball route to the eta
constants d1, d2 (the pairing relations d1 = -c6/2, d2 = -c5/2) must
coincide with the cylinder route, c7 is a fixed quotient of c2 away from m=2,
and the finite 2F1 sums agree with Euler's integral for the paper's
non-terminating 2F1.  These checks depend only on the special-function
layer, so they isolate hypergeometric bugs from spectral-numerics bugs.
Every check takes one GridPoint: the constants record of its (theta, m)
and the two Euler integrals the checks compare against, which grid_report
takes for all m at a theta from one hyp2f1_euler call.
"""

from __future__ import annotations

import collections
import math

from .coefficients import universal_constants
from .specialfn import hyp2f1, hyp2f1_euler


def _scaled(diff: float, value: float) -> float:
    """Residual normalized by max(1, |value|).  The identities are exact,
    so the attainable absolute agreement degrades linearly with the size of
    the compared values (which reach ~1e6 at m=12, |theta|=2); scaling keeps
    a single tolerance meaningful across the whole grid."""
    return diff / max(1.0, abs(value))


# what the checks share at one (theta, m): the constants record and the
# only two Euler integrals they use, E+ = 2F1(1/2, (m+1)/2; 3/2;
# -sinh^2 theta) and E- = 2F1(1/2, (m-1)/2; 3/2; -sinh^2 theta)
GridPoint = collections.namedtuple(
    "GridPoint", ("constants", "euler_plus", "euler_minus"))


def grid_point(theta: float, m: int, euler=None) -> GridPoint:
    """The constants and both Euler integrals at (theta, m), these taken
    from euler, a dict from b to the integral at theta, when given."""
    bs = [(m + 1) / 2, (m - 1) / 2]
    euler = euler or dict(zip(bs, hyp2f1_euler(bs, theta)))
    return GridPoint(universal_constants(theta, m), *(euler[b] for b in bs))


def check_ball_cylinder_d1(point: GridPoint) -> float:
    """Scaled |d1(ball form) - d1(cylinder form)|, the ball form being
    -c6/2."""
    uc = point.constants
    ball = -0.5 * uc.c6
    return _scaled(abs(ball - uc.d1), ball)


def check_ball_cylinder_d2(point: GridPoint) -> float:
    """Max scaled residual of the d2 ball/cylinder comparison, the ball form
    being -c5/2, and of the underlying hypergeometric identity, its right
    side by Euler's integral (E+),

      cosh^2 t 2F1(1, 1-m/2; 1/2; -sinh^2 t)
        = 1 + (m-1) sinh^2 t cosh^{m-1} t 2F1(1/2, (m+1)/2; 3/2; -sinh^2 t).
    """
    uc = point.constants
    m = uc.m
    ball = -0.5 * uc.c5
    sh, ch = math.sinh(uc.theta), math.cosh(uc.theta)
    lhs = ch * ch * hyp2f1(1.0, 1 - m / 2, 0.5, -sh * sh)
    rhs = 1.0 + (m - 1) * sh * sh * ch ** (m - 1) * point.euler_plus
    return max(_scaled(abs(ball - uc.d2), ball),
               _scaled(abs(lhs - rhs), lhs))


def check_c7_relation(point: GridPoint) -> float:
    """Scaled |c7 + (m-1)/(m-2) (c2 + 1/6)|; the quotient form needs
    m >= 4."""
    uc = point.constants
    m = uc.m
    if m < 4:
        raise ValueError("the c7/c2 quotient form requires m >= 4; "
                         "use the explicit c7 at m=2")
    return _scaled(abs(uc.c7 + (m - 1) / (m - 2) * (uc.c2 + 1.0 / 6.0)),
                   uc.c7)


def check_alternate_forms(point: GridPoint) -> float:
    """Max residual between c2, c7 as built by universal_constants (the
    terminating -sinh^2 form, theta coth theta at m=2) and the paper's
    tanh^2-argument forms

      c2 = [(2m-5)/3 + (2-m) 2F1(1, (m-1)/2; 3/2; tanh^2 t)] / (2(m-1))
      c7 = -[1 - 2F1(1, (m-1)/2; 3/2; tanh^2 t)] / 2,

    the 2F1 taken by Pfaff's transformation as cosh^{m-1} t times
    2F1(1/2, (m-1)/2; 3/2; -sinh^2 t), by Euler's integral (E-).
    """
    uc = point.constants
    m = uc.m
    g = math.cosh(uc.theta) ** (m - 1) * point.euler_minus
    c2_alt = ((2 * m - 5) / 3.0 + (2 - m) * g) / (2.0 * (m - 1))
    c7_alt = -0.5 * (1.0 - g)
    return max(_scaled(abs(uc.c2 - c2_alt), uc.c2),
               _scaled(abs(uc.c7 - c7_alt), uc.c7))


def check_evaluation_paths(point: GridPoint) -> float:
    """Scaled |2F1(1, b; 3/2; -sinh^2 t) - cosh^{1-2b} t 2F1(1/2, 3/2-b; 3/2;
    -sinh^2 t)| (Euler's transformation): the polynomial of c6, d1 (b =
    1-m/2, whose Euler integral is E+) and of c2 (b = 2-m/2, m >= 4, E-)
    against Euler's integral."""
    theta, m = point.constants.theta, point.constants.m
    sh, ch = math.sinh(theta), math.cosh(theta)
    paths = ((1 - m / 2, point.euler_plus), (2 - m / 2, point.euler_minus))
    worst = 0.0
    for b, euler in paths if m >= 4 else paths[:1]:
        direct = hyp2f1(1.0, b, 1.5, -sh * sh)
        via = ch ** (1 - 2 * b) * euler
        worst = max(worst, _scaled(abs(direct - via), direct))
    return worst


GRID_THETAS = tuple(0.5 * k for k in range(-4, 5))
GRID_MS = (2, 4, 6, 8, 10, 12)


def grid_report(thetas=GRID_THETAS, ms=GRID_MS) -> dict:
    """Max residual of each identity over the (theta, m) grid, the checks
    at a point sharing one GridPoint.  A failure names the first failing
    point in theta-major order: OverflowError on overflow.  The c7
    quotient runs from m = 4 and has no entry when no m reaches 4."""
    checks = {"ball_cylinder_d1": check_ball_cylinder_d1,
              "ball_cylinder_d2": check_ball_cylinder_d2,
              "c7_relation": check_c7_relation,
              "alternate_forms": check_alternate_forms,
              "evaluation_paths": check_evaluation_paths}
    out = {name: 0.0 for name in checks
           if name != "c7_relation" or any(m >= 4 for m in ms)}
    bs = sorted({b for m in ms for b in ((m + 1) / 2, (m - 1) / 2)})
    for theta in thetas:
        euler = {}
        for m in ms:
            name = "grid_point"  # the step an overflow is reported at
            try:
                if not euler:  # in the try, so a failure names theta and m
                    euler = dict(zip(bs, hyp2f1_euler(bs, float(theta))))
                point = grid_point(float(theta), m, euler)
                for name, check in checks.items():
                    if name == "c7_relation" and m < 4:
                        continue
                    r = check(point)
                    if not math.isfinite(r):
                        raise OverflowError
                    out[name] = max(out[name], r)
            except OverflowError:
                raise OverflowError(
                    f"{name} overflows at theta={theta}, m={m}") from None
    return out

"""Consistency web between the closed forms: the two routes to the eta
constants d1, d2 must coincide, c7 is a fixed quotient of c2 away from m=2,
and the finite 2F1 sums agree with Euler's integral for the paper's
non-terminating 2F1.  These checks depend only on the special-function
layer, so they isolate hypergeometric bugs from spectral-numerics bugs.
"""

from __future__ import annotations

import math

from .coefficients import eta_constants, universal_constants
from .specialfn import hyp2f1, hyp2f1_euler


def _scaled(diff: float, *values: float) -> float:
    """Residual normalized by max(1, magnitudes).  The identities are exact,
    so the attainable absolute agreement degrades linearly with the size of
    the compared values (which reach ~1e6 at m=12, |theta|=2); scaling keeps
    a single tolerance meaningful across the whole grid."""
    return diff / max(1.0, *(abs(v) for v in values))


def check_ball_cylinder_d1(theta: float, m: int) -> float:
    """Scaled |d1(ball form) - d1(cylinder form)|."""
    ball = eta_constants(theta, m, "ball_form")
    cyl = eta_constants(theta, m, "cylinder_form")
    return _scaled(abs(ball.d1 - cyl.d1), ball.d1)


def check_ball_cylinder_d2(theta: float, m: int) -> float:
    """Max scaled residual of the d2 ball/cylinder comparison and of the
    underlying hypergeometric identity, its right side by Euler's integral,

      cosh^2 t 2F1(1, 1-m/2; 1/2; -sinh^2 t)
        = 1 + (m-1) sinh^2 t cosh^{m-1} t 2F1(1/2, (m+1)/2; 3/2; -sinh^2 t).
    """
    ball = eta_constants(theta, m, "ball_form")
    cyl = eta_constants(theta, m, "cylinder_form")
    sh, ch = math.sinh(theta), math.cosh(theta)
    lhs = ch * ch * hyp2f1(1.0, 1 - m / 2, 0.5, -sh * sh)
    rhs = 1.0 + (m - 1) * sh * sh * ch ** (m - 1) * \
        hyp2f1_euler((m + 1) / 2, theta)
    return max(_scaled(abs(ball.d2 - cyl.d2), ball.d2),
               _scaled(abs(lhs - rhs), lhs))


def check_c7_relation(theta: float, m: int) -> float:
    """Scaled |c7 + (m-1)/(m-2) (c2 + 1/6)|; the quotient form needs
    m >= 4."""
    if m < 4:
        raise ValueError("the c7/c2 quotient form requires m >= 4; "
                         "use the explicit c7 at m=2")
    uc = universal_constants(theta, m)
    return _scaled(abs(uc.c7 + (m - 1) / (m - 2) * (uc.c2 + 1.0 / 6.0)),
                   uc.c7)


def check_alternate_forms(theta: float, m: int) -> float:
    """Max residual between c2, c7 as built by universal_constants (the
    terminating -sinh^2 form, theta coth theta at m=2) and the paper's
    tanh^2-argument forms

      c2 = [(2m-5)/3 + (2-m) 2F1(1, (m-1)/2; 3/2; tanh^2 t)] / (2(m-1))
      c7 = -[1 - 2F1(1, (m-1)/2; 3/2; tanh^2 t)] / 2,

    the 2F1 taken by Pfaff's transformation as cosh^{m-1} t times
    2F1(1/2, (m-1)/2; 3/2; -sinh^2 t), by Euler's integral.
    """
    uc = universal_constants(theta, m)
    g = math.cosh(theta) ** (m - 1) * hyp2f1_euler((m - 1) / 2, theta)
    c2_alt = ((2 * m - 5) / 3.0 + (2 - m) * g) / (2.0 * (m - 1))
    c7_alt = -0.5 * (1.0 - g)
    return max(_scaled(abs(uc.c2 - c2_alt), uc.c2),
               _scaled(abs(uc.c7 - c7_alt), uc.c7))


def check_evaluation_paths(theta: float, m: int) -> float:
    """Scaled |2F1(1, b; 3/2; -sinh^2 t) - cosh^{1-2b} t 2F1(1/2, 3/2-b; 3/2;
    -sinh^2 t)| (Euler's transformation): the polynomial of c6, d1 (b =
    1-m/2) and of c2 (b = 2-m/2, m >= 4) against Euler's integral."""
    sh, ch = math.sinh(theta), math.cosh(theta)
    worst = 0.0
    for b in (1 - m / 2, 2 - m / 2) if m >= 4 else (1 - m / 2,):
        direct = hyp2f1(1.0, b, 1.5, -sh * sh)
        via = ch ** (1 - 2 * b) * hyp2f1_euler(1.5 - b, theta)
        worst = max(worst, _scaled(abs(direct - via), direct))
    return worst


GRID_THETAS = tuple(0.5 * k for k in range(-4, 5))
GRID_MS = (2, 4, 6, 8, 10, 12)


def grid_report(thetas=GRID_THETAS, ms=GRID_MS) -> dict:
    """Max residual of each identity over the (theta, m) grid, the c7
    quotient from m = 4; OverflowError naming theta and m on overflow."""
    checks = {"ball_cylinder_d1": check_ball_cylinder_d1,
              "ball_cylinder_d2": check_ball_cylinder_d2,
              "c7_relation": check_c7_relation,
              "alternate_forms": check_alternate_forms,
              "evaluation_paths": check_evaluation_paths}
    out = dict.fromkeys(checks, 0.0)
    for m in ms:
        for theta in thetas:
            for name, check in checks.items():
                if name == "c7_relation" and m < 4:
                    continue
                try:
                    r = check(float(theta), m)
                except OverflowError:
                    r = math.inf
                if not math.isfinite(r):
                    raise OverflowError(
                        f"{name} overflows at theta={theta}, m={m}")
                out[name] = max(out[name], r)
    return out

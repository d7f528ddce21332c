"""Special-function core: Gamma, Bessel J, erf/erfcx and Gauss 2F1.

Gamma, Bessel and the error functions are thin wrappers over scipy with the
domain checks this package needs.  hyp2f1 sums the finite 2F1 polynomials
of the closed forms; hyp2f1_euler evaluates, by quadrature, the
non-terminating 2F1 that the checks compare them with.
"""

from __future__ import annotations

import math

from scipy import integrate
from scipy import special as _sp


class PoleArgumentError(ValueError):
    """Argument sits on a pole of the requested function."""


class ParameterError(ValueError):
    """Invalid parameter combination (e.g. 2F1 with non-positive integer c)."""


_INT_TOL = 1e-12


def _nonpos_int(x):
    """Return x rounded to int if x is a non-positive integer within 1e-12."""
    r = round(x)
    if r <= 0 and abs(x - r) < _INT_TOL:
        return r
    return None


def gamma_fn(x: float) -> float:
    """Euler gamma function for real x off the non-positive integers."""
    if _nonpos_int(x) is not None:
        raise PoleArgumentError(f"gamma_fn pole at x={x}")
    return float(_sp.gamma(x))


def erf(x):
    return _sp.erf(x)


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x)."""
    return _sp.erfcx(x)


def bessel_j(p: int, x):
    """Bessel function J_p(x) for integer order p >= 0 (p = -1 allowed via
    the reflection J_{-1} = -J_1)."""
    if p != int(p):
        raise ValueError("bessel_j expects integer order")
    return _sp.jv(int(p), x)


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss 2F1(a, b; c; z) for a or b a non-positive integer: a finite
    polynomial in any real z.  ParameterError otherwise (see hyp2f1_euler)."""
    if _nonpos_int(c) is not None:
        raise ParameterError(f"2F1 undefined for c={c}")
    degrees = [-v for v in (_nonpos_int(a), _nonpos_int(b)) if v is not None]
    if not degrees:
        raise ParameterError(f"2F1 does not terminate: a={a}, b={b}, c={c}")
    total = 1.0
    term = 1.0
    for n in range(min(degrees)):
        term *= (a + n) * (b + n) / (c + n) * z / (n + 1)
        total += term
    return total


def hyp2f1_euler(b: float, theta: float) -> float:
    """2F1(1/2, b; 3/2; -sinh^2 theta) by Euler's integral (DLMF 15.6.1),
    (1/sinh theta) int_0^theta cosh(y)^(1-2b) dy, and 1 at theta = 0; for
    b >= 1/2 the integrand is smooth and bounded on the whole theta line."""
    if theta == 0.0:
        return 1.0
    val, _ = integrate.quad(lambda y: math.cosh(y) ** (1.0 - 2.0 * b),
                            0.0, theta, epsabs=0.0, epsrel=1e-13)
    return val / math.sinh(theta)

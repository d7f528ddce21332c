"""Special-function core: Gamma, erfc/erfcx and Gauss 2F1.

Gamma and the error functions are thin wrappers over scipy; gamma_fn
refuses its poles.  The ball spectrum needs no Bessel values: it works on a
continued fraction for J_{p+1}/J_p between scipy's zeros of J_p.  hyp2f1
sums the finite 2F1 polynomials of the closed forms; hyp2f1_euler
evaluates, by quadrature, the non-terminating 2F1 that the checks compare
them with.
"""

from __future__ import annotations

import functools
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


def erfc(x):
    return _sp.erfc(x)


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x)."""
    return _sp.erfcx(x)


@functools.lru_cache(maxsize=256)
def _degree(a: float, b: float, c: float) -> int:
    """The degree of the 2F1 polynomial at (a, b, c); ParameterError, which
    is not cached, for a pole in c or a series that does not terminate."""
    if _nonpos_int(c) is not None:
        raise ParameterError(f"2F1 undefined for c={c}")
    degrees = [-v for v in (_nonpos_int(a), _nonpos_int(b)) if v is not None]
    if not degrees:
        raise ParameterError(f"2F1 does not terminate: a={a}, b={b}, c={c}")
    return min(degrees)


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss 2F1(a, b; c; z) for a or b a non-positive integer: a finite
    polynomial in any real z.  ParameterError otherwise (see hyp2f1_euler)."""
    total = 1.0
    term = 1.0
    for n in range(_degree(a, b, c)):
        term *= (a + n) * (b + n) / (c + n) * z / (n + 1)
        total += term
    return total


# below this |theta| hyp2f1_euler is its series 1 - b sinh^2(theta)/3, whose
# next term, b(b+1) sinh^4(theta)/10, is below 1e-31 for b <= 13/2
EULER_SERIES_THETA = 1e-8


def hyp2f1_euler(b: float, theta: float) -> float:
    """2F1(1/2, b; 3/2; -sinh^2 theta) by Euler's integral (DLMF 15.6.1),
    (1/sinh theta) int_0^theta cosh(y)^(1-2b) dy; for b >= 1/2 the
    integrand is smooth and bounded on the whole theta line.  For |theta|
    below EULER_SERIES_THETA, where quad over a tiny or subnormal interval
    is unreliable, it is the series 1 - b sinh^2(theta)/3."""
    sh = math.sinh(theta)
    if abs(theta) < EULER_SERIES_THETA:
        return 1.0 - b * sh * sh / 3.0
    power = 1.0 - 2.0 * b
    val, _ = integrate.quad(lambda y: math.cosh(y) ** power,
                            0.0, theta, epsabs=0.0, epsrel=1e-13)
    return val / sh

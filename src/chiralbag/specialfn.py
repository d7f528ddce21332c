"""Special-function core: Gauss 2F1, the package's one finite-interval
quadrature, and the scipy functions the spectral and cylinder checks take.

hyp2f1 sums the finite 2F1 polynomials of the closed forms, so the
constants need only math and numpy; hyp2f1_euler evaluates the
non-terminating 2F1 that the checks compare them with by panel_rule, the
Gauss-Legendre panel rule of the cylinder checks.  This is the one module
that reaches scipy, and it imports scipy.special on the first call of
gamma_fn, erfc, erfcx or jn_zeros, not before: a process that only
tabulates the constants never loads it.  gamma_fn (the cylinder
t-integral) refuses its poles.  The ball spectrum needs no Bessel values:
it works on a continued fraction for J_{p+1}/J_p between the zeros of J_p
that jn_zeros gives.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np


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


@functools.cache
def _special():
    """scipy.special, imported on the first call that needs it."""
    from scipy import special
    return special


def gamma_fn(x: float) -> float:
    """Euler gamma function for real x off the non-positive integers."""
    if _nonpos_int(x) is not None:
        raise PoleArgumentError(f"gamma_fn pole at x={x}")
    return float(_special().gamma(x))


def erfc(x):
    return _special().erfc(x)


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x)."""
    return _special().erfcx(x)


def jn_zeros(p: int, count: int) -> np.ndarray:
    """The first count positive zeros of J_p, ascending."""
    return _special().jn_zeros(p, count)


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


# the Gauss-Legendre nodes of both orders of panel_rule as offsets from a
# panel's left end in units of its half-width, and their weights as the two
# columns of one matrix
_LOW, _HIGH = (np.polynomial.legendre.leggauss(n) for n in (10, 20))
_NODES = 1.0 + np.concatenate([_LOW[0], _HIGH[0]])
_WEIGHTS = np.column_stack([np.r_[_LOW[1], np.zeros(20)],
                            np.r_[np.zeros(10), _HIGH[1]]])
# rounding floor of the package's error estimates, per unit of sum |w f|
ROUNDING = 20.0 * np.finfo(float).eps


def panel_rule(g, edges: np.ndarray) -> tuple:
    """int g from edges[0] to edges[-1] by Gauss-Legendre panels between the
    edges at 20 nodes, and its error estimate: the difference from 10 nodes
    plus the rounding floor.  g is called once, on the (panels, nodes)
    array, and may add a leading axis of integrands."""
    half = 0.5 * (edges[1:] - edges[:-1])
    x = edges[:-1, None] + half[:, None] * _NODES
    with np.errstate(under="ignore"):
        f = g(x)
    low, high = (half @ (f @ _WEIGHTS)).T
    return high, abs(high - low) + ROUNDING * (
        np.abs(f) @ _WEIGHTS[:, 1] @ half)


# below this |theta| hyp2f1_euler is its series 1 - b sinh^2(theta)/3, whose
# next term, b(b+1) sinh^4(theta)/10, is below 1e-19 for b <= 13/2; there
# the panel sum, whose weights add up to 2 - 2 ulp, is a few ulp off, and
# where the panel half-widths underflow it fails
EULER_SERIES_THETA = 1e-5
# panel edges of Euler's integral; the panels end at |theta|
EULER_EDGES = [0.0] + [2.0 ** k for k in range(-3, 11)]


def hyp2f1_euler(b, theta: float):
    """2F1(1/2, b; 3/2; -sinh^2 theta) by Euler's integral (DLMF 15.6.1),
    (1/|sinh theta|) int_0^|theta| cosh(y)^(1-2b) dy, smooth and bounded
    for b >= 1/2, or its series below EULER_SERIES_THETA.  A list of b
    gives the list of one-b values from one panel_rule call."""
    sh = math.sinh(theta)
    a = abs(theta)
    if a < EULER_SERIES_THETA:
        return (1.0 - np.asarray(b) * sh * sh / 3.0).tolist()

    def integrand(y):
        # c ** v for each float v: numpy computes a broadcast array of
        # exponents otherwise (v = -1 as a reciprocal only for a float),
        # and the list's values must be the one-b values bit for bit
        c = np.cosh(y)
        if isinstance(b, list):
            return np.array([c ** (1.0 - 2.0 * v) for v in b])
        return c ** (1.0 - 2.0 * b)
    edges = np.array(EULER_EDGES[:bisect.bisect_left(EULER_EDGES, a)] + [a])
    return (panel_rule(integrand, edges)[0] / abs(sh)).tolist()

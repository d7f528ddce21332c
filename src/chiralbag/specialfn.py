"""Special-function core: Gamma, Bessel J, erf/erfc and Gauss 2F1.

Gamma, Bessel and the error functions are thin wrappers over scipy with the
domain checks this package needs.  The Gauss hypergeometric function is
implemented here: a power series with terminating-series detection and the
Pfaff transform for negative arguments.
"""

from __future__ import annotations

from scipy import special as _sp


class PoleArgumentError(ValueError):
    """Argument sits on a pole of the requested function."""


class ParameterError(ValueError):
    """Invalid parameter combination (e.g. 2F1 with non-positive integer c)."""


class NonConvergenceError(RuntimeError):
    """Series failed to reach _SERIES_TOL within _MAX_TERMS terms."""


_SERIES_TOL = 1e-14
_MAX_TERMS = 100_000
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


def erfc(x):
    return _sp.erfc(x)


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x)."""
    return _sp.erfcx(x)


def bessel_j(p: int, x):
    """Bessel function J_p(x) for integer order p >= 0 (p = -1 allowed via
    the reflection J_{-1} = -J_1)."""
    if p != int(p):
        raise ValueError("bessel_j expects integer order")
    return _sp.jv(int(p), x)


def bessel_j_prime(p: int, x):
    """Derivative J_p'(x)."""
    if p != int(p):
        raise ValueError("bessel_j_prime expects integer order")
    return _sp.jvp(int(p), x)


def _hyp2f1_series(a: float, b: float, c: float, z: float) -> float:
    """Power series sum of 2F1 for 0 <= z < 1 (or any z when it terminates)."""
    total = 1.0
    term = 1.0
    n_stop = None
    na, nb = _nonpos_int(a), _nonpos_int(b)
    if na is not None or nb is not None:
        cands = [-v for v in (na, nb) if v is not None]
        n_stop = min(cands)
    for n in range(_MAX_TERMS):
        if n_stop is not None and n >= n_stop:
            return total
        term *= (a + n) * (b + n) / (c + n) * z / (n + 1)
        total += term
        if n_stop is None and abs(term) <= _SERIES_TOL * abs(total):
            return total
    if n_stop is not None:
        return total
    raise NonConvergenceError(
        f"2F1 series did not converge: a={a}, b={b}, c={c}, z={z}")


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real parameters and z < 1.

    Terminating cases (a or b a non-positive integer) are summed exactly as
    polynomials.  For z < 0 the Pfaff transform maps the argument into [0, 1)
    so the series always converges; this is the -sinh^2 <-> tanh^2 mapping
    used throughout the coefficient formulas.
    """
    if _nonpos_int(c) is not None:
        raise ParameterError(f"2F1 undefined for c={c}")
    if _nonpos_int(a) is not None or _nonpos_int(b) is not None:
        return _hyp2f1_series(a, b, c, z)
    if z < 0.0:
        return hyp2f1_via_pfaff(a, b, c, z)
    if z >= 1.0:
        raise ParameterError(f"2F1 series argument out of range: z={z}")
    return _hyp2f1_series(a, b, c, z)


def hyp2f1_via_pfaff(a: float, b: float, c: float, z: float) -> float:
    """Evaluate 2F1 through the Pfaff transform
    (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)), valid for z < 1.

    Exposed separately so the terminating-polynomial and transformed-series
    evaluation paths can be compared directly.
    """
    if _nonpos_int(c) is not None:
        raise ParameterError(f"2F1 undefined for c={c}")
    w = z / (z - 1.0)
    if not (0.0 <= w < 1.0):
        raise ParameterError(f"Pfaff-transformed argument out of range: {w}")
    return (1.0 - z) ** (-a) * _hyp2f1_series(a, c - b, c, w)

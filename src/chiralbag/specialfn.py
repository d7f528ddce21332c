"""Special-function core: Gamma, Bessel J, erf/erfc, Gauss 2F1, Hurwitz and
Barnes zeta functions.

Gamma, Bessel and the error functions are thin wrappers over scipy with the
domain checks this package needs.  The Gauss hypergeometric function and the
zeta functions are implemented here: 2F1 with terminating-series detection and
the Pfaff transform for negative arguments, Hurwitz zeta by Euler-Maclaurin,
and the Barnes zeta function by exact re-expansion of its binomial degeneracy
factor into Hurwitz zetas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special as _sp


class PoleArgumentError(ValueError):
    """Argument sits on a pole of the requested function."""


class ParameterError(ValueError):
    """Invalid parameter combination (e.g. 2F1 with non-positive integer c)."""


class NonConvergenceError(RuntimeError):
    """Series failed to reach the requested tolerance within max_terms."""


@dataclass(frozen=True)
class EvalConfig:
    series_tol: float = 1e-14
    max_terms: int = 100_000

    def __post_init__(self):
        if not (0.0 < self.series_tol <= 1e-10):
            raise ValueError("series_tol must be in (0, 1e-10]")
        if self.max_terms < 1000:
            raise ValueError("max_terms must be >= 1000")


DEFAULT_CONFIG = EvalConfig()

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


def _hyp2f1_series(a: float, b: float, c: float, z: float,
                   config: EvalConfig) -> float:
    """Power series sum of 2F1 for 0 <= z < 1 (or any z when it terminates)."""
    total = 1.0
    term = 1.0
    n_stop = None
    na, nb = _nonpos_int(a), _nonpos_int(b)
    if na is not None or nb is not None:
        cands = [-v for v in (na, nb) if v is not None]
        n_stop = min(cands)
    for n in range(config.max_terms):
        if n_stop is not None and n >= n_stop:
            return total
        term *= (a + n) * (b + n) / (c + n) * z / (n + 1)
        total += term
        if n_stop is None and abs(term) <= config.series_tol * abs(total):
            return total
    if n_stop is not None:
        return total
    raise NonConvergenceError(
        f"2F1 series did not converge: a={a}, b={b}, c={c}, z={z}")


def hyp2f1(a: float, b: float, c: float, z: float,
           config: EvalConfig = DEFAULT_CONFIG) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for real parameters and z < 1.

    Terminating cases (a or b a non-positive integer) are summed exactly as
    polynomials.  For z < 0 the Pfaff transform maps the argument into [0, 1)
    so the series always converges; this is the -sinh^2 <-> tanh^2 mapping
    used throughout the coefficient formulas.
    """
    if _nonpos_int(c) is not None:
        raise ParameterError(f"2F1 undefined for c={c}")
    if _nonpos_int(a) is not None or _nonpos_int(b) is not None:
        return _hyp2f1_series(a, b, c, z, config)
    if z < 0.0:
        return hyp2f1_via_pfaff(a, b, c, z, config)
    if z >= 1.0:
        raise ParameterError(f"2F1 series argument out of range: z={z}")
    return _hyp2f1_series(a, b, c, z, config)


def hyp2f1_via_pfaff(a: float, b: float, c: float, z: float,
                     config: EvalConfig = DEFAULT_CONFIG) -> float:
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
    return (1.0 - z) ** (-a) * _hyp2f1_series(a, c - b, c, w, config)


# Bernoulli numbers B_2 .. B_24 for the Euler-Maclaurin tail.
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730),
]

_EM_SHIFT = 25
_EM_TERMS = 12


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta: analytic continuation of sum_{n>=0} (n+a)^(-s).

    Euler-Maclaurin with shift N=25 and 12 Bernoulli terms; accurate to
    ~1e-11 relative for |s| <= 20, a > 0.
    """
    if a <= 0:
        raise ValueError("hurwitz_zeta requires a > 0")
    if abs(s - 1.0) < 1e-13:
        raise PoleArgumentError("hurwitz_zeta pole at s=1")
    N = _EM_SHIFT
    head = math.fsum((n + a) ** (-s) for n in range(N))
    x = N + a
    tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s)
    # Euler-Maclaurin correction: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * x^{-s-2k+1}
    poch = 1.0  # rising factorial (s)_{2k-1}
    fact = 1.0
    for k in range(1, _EM_TERMS + 1):
        poch *= (s + 2 * k - 3) * (s + 2 * k - 2) if k > 1 else 1.0
        if k == 1:
            poch = s
        fact *= (2 * k) * (2 * k - 1)
        tail += float(_BERNOULLI[k - 1]) / fact * poch * x ** (-s - 2 * k + 1)
    return head + tail


def _barnes_poly_coeffs(a: float, m: int) -> list[Fraction]:
    """Coefficients e_j of binom(m+n-2, n) * (m-2)! = prod_{k=1}^{m-2} (n+k)
    expanded in powers of (n+a); exact rational arithmetic throughout."""
    af = Fraction(a)
    coeffs = [Fraction(1)]  # polynomial 1 in x = n + a
    for k in range(1, m - 1):
        shift = Fraction(k) - af
        # multiply by (x + shift)
        new = [Fraction(0)] * (len(coeffs) + 1)
        for j, cj in enumerate(coeffs):
            new[j + 1] += cj
            new[j] += cj * shift
        coeffs = new
    return coeffs


def barnes_zeta(s: float, a: float, m: int,
                config: EvalConfig = DEFAULT_CONFIG) -> float:
    """Barnes zeta zeta_B(s, a) = sum_n binom(m+n-2, n) (n+a)^(-s) for even
    m >= 2, continued by expanding the binomial into Hurwitz zetas."""
    if m < 2 or m % 2:
        raise ValueError("barnes_zeta requires even m >= 2")
    if a <= 0:
        raise ValueError("barnes_zeta requires a > 0")
    coeffs = _barnes_poly_coeffs(a, m)
    fact = math.factorial(m - 2)
    total = 0.0
    for j, ej in enumerate(coeffs):
        if ej == 0:
            continue
        sj = s - j
        if abs(sj - 1.0) < 1e-12:
            raise PoleArgumentError(
                f"barnes_zeta pole at s={s} (Hurwitz term j={j})")
        total += float(ej) / fact * hurwitz_zeta(sj, a)
    return total


def barnes_residue(s0: int, a: float, m: int) -> float:
    """Residue of zeta_B(s, a) at its pole s0 in {1, ..., m-1}."""
    if m < 2 or m % 2:
        raise ValueError("barnes_residue requires even m >= 2")
    if not (1 <= s0 <= m - 1):
        raise ValueError(f"s0={s0} is not a pole of the Barnes zeta for m={m}")
    coeffs = _barnes_poly_coeffs(a, m)
    # pole comes from the j = s0 - 1 Hurwitz term, whose residue at
    # argument 1 is 1
    return float(coeffs[s0 - 1] / math.factorial(m - 2))

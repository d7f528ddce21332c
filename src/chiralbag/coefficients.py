"""Closed forms for the universal boundary constants c1..c7 and d1..d4, and
the global ball coefficients they reproduce.

Conventions: c1..c7 multiply, in order, f (in the t^(1-m)/2 coefficient) and
L_aa f, f psi gt gm, f psi gm, f psi gt, f psi, f_;m (in the t^(2-m)/2
coefficient); d1..d4 multiply f, f gt, f gm, f gt gm in the leading odd
(eta-type) boundary coefficient.  All are functions of the chiral angle theta
and the even dimension m.  Their record at one (theta, m) is a named tuple
in the key order of a table row, as cheap to build as a tuple.
"""

from __future__ import annotations

import collections
import functools
import math

from .specialfn import hyp2f1


def _check_even(m: int) -> None:
    if m % 2 or m < 2:
        raise ValueError(f"dimension m must be even and >= 2, got {m}")


UniversalConstants = collections.namedtuple("UniversalConstants", (
    "theta", "m", "c1", "c2", "c3", "c4", "c5", "c6", "c7",
    "d1", "d2", "d3", "d4", "a1_ball", "a2_ball", "a1_eta"))


@functools.cache
def _factors(m: int) -> tuple:
    """The theta-independent factors of universal_constants at m: norm/d_s,
    norm = 2^m Gamma(m/2), and the a1 and a2 prefactors sqrt(pi) d_s/norm
    and 2 (m-1) d_s/norm.  m is even, so Gamma(m/2) = (m/2 - 1)! exactly.
    Each product is in the order the constants apply it, so every value is
    bit-identical to forming it inline."""
    d_s = spinor_dimension(m)
    norm = 2 ** m * math.factorial(m // 2 - 1)
    pref = d_s / norm
    return norm / d_s, math.sqrt(math.pi) * pref, pref * 2 * (m - 1)


def _coth_excess(theta: float) -> float:
    """theta coth theta - 1: past |theta| = 1 as is, and below it as (theta
    cosh theta - sinh theta) / sinh theta, whose numerator theta^3 sum_k 2k
    theta^(2k-2) / (2k+1)! is summed term by term, every term positive, up
    to the first below 2^-53 of the sum (at most 10 terms)."""
    if abs(theta) >= 1.0:
        return theta / math.tanh(theta) - 1.0
    u, k = theta * theta, 1
    term = total = 1.0 / 3.0
    while term > 2.0 ** -53 * total:
        term *= u / (2 * k * (2 * k + 3))
        total += term
        k += 1
    return u * total * (theta / math.sinh(theta) if theta else 1.0)


def universal_constants(theta: float, m: int) -> UniversalConstants:
    """c1..c7, d1..d4 and the unit-ball a1, a2, a1_eta at (theta, m), each
    2F1 polynomial summed once.

    d1, d2, d4 are the cylinder forms, built from f2 = 2F1(1/2, (m+1)/2;
    3/2; -sinh^2 theta) taken as its terminating Pfaff image P / cosh theta,
    P = 2F1(1/2, 1-m/2; 3/2; tanh^2 theta), and c3 = -2 d4.  Each is
    written with tanh theta and P so that no intermediate product exceeds
    the value: d1 = -(m-1)/2 tanh cosh^(m-1) P, d2 = -1/(2 cosh) -
    (m-1)/2 tanh^2 cosh^(m-1) P, d4 = -tanh/2 + (m-1)/2 tanh cosh^(m-2) P.
    The ball forms d1 = -c6/2, d2 = -c5/2 are the pairing relations.  c2
    and c7 are built from f_tanh = 2F1(1, (m-1)/2; 3/2; tanh^2 theta), whose
    Pfaff image is cosh^2 theta F, F = 2F1(1, 2-m/2; 3/2; -sinh^2 theta), a
    terminating polynomial for m >= 4, and at m = 2 artanh(x)/x at x = tanh
    theta, i.e. theta coth theta.  c1, c7 and a1 go like theta^2 as theta
    -> 0, so none of them is formed as a difference that cancels there:
    c1 and a1 take cosh^(m-1) theta - 1 below |theta| = 1 as expm1((m-1)
    log1p(2 sinh^2(theta/2))), and c7 takes f_tanh - 1 as sinh^2 theta +
    cosh^2 theta (F - 1), F - 1 summed from its first term, every term
    positive, and at m = 2 as _coth_excess.  a1, a2 and a1_eta are their
    general boundary-invariant forms on the unit sphere (L_aa = m - 1) with
    |S^(m-1)| = 2 pi^(m/2) / Gamma(m/2) and the powers of 4 pi multiplied
    into the prefactors.  a1_eta = -sinh d_s (m-1) / norm P_3half, P_3half
    = 2F1(1, 1-m/2; 3/2; -sinh^2 theta), is formed as -sinh (m-1) /
    (norm/d_s) P_3half: d_s is a power of 2, so each step rounds the same
    real number as in the first order, and gives the same float wherever
    that order stays finite, while -sinh d_s leaves the float range before
    a1_eta does.  Past the float range a power raises OverflowError and a
    product is inf, which the callers refuse.
    """
    _check_even(m)
    sh, ch, th = math.sinh(theta), math.cosh(theta), math.tanh(theta)
    z = -sh * sh
    if abs(theta) < 1.0:
        # cosh theta = 1 + 2 sinh^2(theta/2): no difference that cancels
        half = math.sinh(0.5 * theta)
        power = math.expm1((m - 1) * math.log1p(2.0 * half * half))
    else:
        power = ch ** (m - 1) - 1.0
    if m == 2:
        excess = _coth_excess(theta)
    else:
        # f_tanh - 1 = sh^2 + ch^2 (F - 1), F = 2F1(1, b; 3/2; z), b = 2 -
        # m/2, and F - 1 = (b z / (3/2)) 2F1(1, b + 1; 5/2; z), 0 at m = 4:
        # every term is positive
        excess = sh * sh * (1.0 + (ch * ch * (m / 2 - 2) / 1.5 * hyp2f1(
            1.0, 3 - m / 2, 2.5, z) if m > 4 else 0.0))
    p_half = hyp2f1(1.0, 1 - m / 2, 0.5, z)
    p_3half = hyp2f1(1.0, 1 - m / 2, 1.5, z)
    poly = hyp2f1(0.5, 1 - m / 2, 1.5, th * th)
    c1 = 0.25 * power
    c2 = ((2 * m - 5) / 3.0 + (2 - m) * (1.0 + excess)) / (2.0 * (m - 1))
    d4 = -0.5 * th + 0.5 * (m - 1) * th * ch ** (m - 2) * poly
    c6 = (m - 1) * sh * p_3half
    eta_norm, k_a1, k_a2 = _factors(m)
    return UniversalConstants(
        theta=theta, m=m, c1=c1, c2=c2, c3=-2.0 * d4, c4=0.0,
        c5=ch * p_half, c6=c6, c7=0.5 * excess,
        d1=-0.5 * (m - 1) * th * ch ** (m - 1) * poly,
        d2=-0.5 / ch - 0.5 * (m - 1) * th * th * ch ** (m - 1) * poly,
        d3=0.0, d4=d4, a1_ball=k_a1 * power,
        a2_ball=k_a2 * c2, a1_eta=-sh * (m - 1) / eta_norm * p_3half)


def spinor_dimension(m: int) -> int:
    _check_even(m)
    return 2 ** (m // 2)


def ball_volume(m: int) -> float:
    """pi^(m/2) / Gamma(m/2 + 1), with Gamma(m/2 + 1) = (m/2)! for even m."""
    _check_even(m)
    return math.pi ** (m / 2) / math.factorial(m // 2)

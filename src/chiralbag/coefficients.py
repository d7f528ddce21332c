"""Closed forms for the universal boundary constants c1..c7 and d1..d4, and
the global ball coefficients they reproduce.

Conventions: c1..c7 multiply, in order, f (in the t^(1-m)/2 coefficient) and
L_aa f, f psi gt gm, f psi gm, f psi gt, f psi, f_;m (in the t^(2-m)/2
coefficient); d1..d4 multiply f, f gt, f gm, f gt gm in the leading odd
(eta-type) boundary coefficient.  All are functions of the chiral angle theta
and the even dimension m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

from .specialfn import gamma_fn, hyp2f1

CONSISTENCY_TOL = 1e-12


class UnavailableConstantError(ValueError):
    """Requested a constant the chosen computation route does not produce."""


def _check_even(m: int) -> None:
    if m % 2 or m < 2:
        raise ValueError(f"dimension m must be even and >= 2, got {m}")


def _f2(theta: float, m: int) -> float:
    """2F1(1/2, (m+1)/2; 3/2; -sinh^2 theta) of the cylinder forms, as its
    terminating Pfaff image 2F1(1/2, 1-m/2; 3/2; tanh^2 theta) / cosh theta."""
    th = math.tanh(theta)
    return hyp2f1(0.5, 1 - m / 2, 1.5, th * th) / math.cosh(theta)


@dataclass(frozen=True)
class UniversalConstants:
    theta: float
    m: int
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float

    def as_tuple(self):
        return (self.c1, self.c2, self.c3, self.c4, self.c5, self.c6, self.c7)


Source = Literal["ball_form", "cylinder_form"]


@dataclass(frozen=True)
class EtaConstants:
    theta: float
    m: int
    d1: float
    d2: float
    d3: float
    source: Source
    _d4: Optional[float] = None

    @property
    def d4(self) -> float:
        if self._d4 is None:
            raise UnavailableConstantError(
                "d4 is only produced by the cylinder calculation")
        return self._d4


def universal_constants(theta: float, m: int) -> UniversalConstants:
    """All seven universal constants at (theta, m).

    c3 is defined through the cylinder d4 (c3 = -2 d4).  c2 and c7 are
    built from f_tanh = 2F1(1, (m-1)/2; 3/2; tanh^2 theta), taken as its
    Pfaff image cosh^2 theta 2F1(1, 2-m/2; 3/2; -sinh^2 theta), a
    terminating polynomial for m >= 4, and at m = 2 as artanh(x)/x at
    x = tanh theta, i.e. theta coth theta.
    """
    _check_even(m)
    sh, ch = math.sinh(theta), math.cosh(theta)
    if m == 2:
        f_tanh = theta / math.tanh(theta) if theta else 1.0
    else:
        f_tanh = ch * ch * hyp2f1(1.0, 2 - m / 2, 1.5, -sh * sh)
    c1 = 0.25 * (ch ** (m - 1) - 1.0)
    c2 = ((2 * m - 5) / 3.0 + (2 - m) * f_tanh) / (2.0 * (m - 1))
    c3 = -2.0 * eta_constants(theta, m).d4
    c5 = ch * hyp2f1(1.0, 1 - m / 2, 0.5, -sh * sh)
    c6 = (m - 1) * sh * hyp2f1(1.0, 1 - m / 2, 1.5, -sh * sh)
    c7 = -0.5 * (1.0 - f_tanh)
    return UniversalConstants(theta=theta, m=m, c1=c1, c2=c2, c3=c3,
                              c4=0.0, c5=c5, c6=c6, c7=c7)


def eta_constants(theta: float, m: int,
                  source: Source = "cylinder_form") -> EtaConstants:
    """d1..d4 at (theta, m) from the ball or the cylinder calculation.

    The ball route only yields d1, d2 (and d3 = 0); accessing d4 on its
    result raises.  The two routes agree on d1 and d2 by the hypergeometric
    transformation identities, which the identities module checks.
    """
    _check_even(m)
    sh, ch = math.sinh(theta), math.cosh(theta)
    if source == "ball_form":
        d1 = -0.5 * (m - 1) * sh * hyp2f1(1.0, 1 - m / 2, 1.5, -sh * sh)
        d2 = -0.5 * ch * hyp2f1(1.0, 1 - m / 2, 0.5, -sh * sh)
        return EtaConstants(theta=theta, m=m, d1=d1, d2=d2, d3=0.0,
                            source="ball_form", _d4=None)
    if source == "cylinder_form":
        f2 = _f2(theta, m)
        d1 = -0.5 * (m - 1) * sh * ch ** (m - 1) * f2
        d2 = -0.5 / ch - 0.5 * (m - 1) * sh * sh * ch ** (m - 2) * f2
        d4 = -0.5 * math.tanh(theta) + 0.5 * (m - 1) * sh * ch ** (m - 2) * f2
        return EtaConstants(theta=theta, m=m, d1=d1, d2=d2, d3=0.0,
                            source="cylinder_form", _d4=d4)
    raise ValueError(f"unknown source {source!r}")


def spinor_dimension(m: int) -> int:
    _check_even(m)
    return 2 ** (m // 2)


def sphere_volume(m: int) -> float:
    """Volume of the unit sphere S^(m-1) bounding the unit m-ball."""
    return 2.0 * math.pi ** (m / 2) / gamma_fn(m / 2)


def ball_volume(m: int) -> float:
    return math.pi ** (m / 2) / gamma_fn(m / 2 + 1)


def ball_heat_coefficients(theta: float, m: int) -> dict:
    """Global boundary heat-trace coefficients a1, a2 on the unit m-ball for
    vanishing potential and unit smearing."""
    _check_even(m)
    d_s = spinor_dimension(m)
    ch = math.cosh(theta)
    pref = d_s / (2 ** m * gamma_fn(m / 2))
    uc = universal_constants(theta, m)
    a1 = math.sqrt(math.pi) * pref * (ch ** (m - 1) - 1.0)
    a2 = pref * 2 * (m - 1) * uc.c2
    # cross-check against the general boundary-invariant form with
    # L_aa = m - 1 on the unit sphere
    area = sphere_volume(m)
    a1_general = (4 * math.pi) ** (-(m - 1) / 2) * area * d_s * uc.c1
    a2_general = (4 * math.pi) ** (-m / 2) * area * d_s * uc.c2 * (m - 1)
    if abs(a1 - a1_general) > CONSISTENCY_TOL * max(1.0, abs(a1)):
        raise AssertionError("a1 ball closed form inconsistent with c1 route")
    if abs(a2 - a2_general) > CONSISTENCY_TOL * max(1.0, abs(a2)):
        raise AssertionError("a2 ball closed form inconsistent with c2 route")
    return {"a1": a1, "a2": a2}


def a1_eta_ball(theta: float, m: int) -> float:
    """Global leading eta-type boundary coefficient on the unit m-ball for
    unit smearing."""
    _check_even(m)
    d_s = spinor_dimension(m)
    sh = math.sinh(theta)
    val = -sh * d_s * (m - 1) / (2 ** m * gamma_fn(m / 2)) * \
        hyp2f1(1.0, 1 - m / 2, 1.5, -sh * sh)
    d1 = eta_constants(theta, m, "ball_form").d1
    via_d1 = 2.0 / (2 ** m * gamma_fn(m / 2)) * d_s * d1
    if abs(val - via_d1) > CONSISTENCY_TOL * max(1.0, abs(val)):
        raise AssertionError("a1_eta closed form inconsistent with d1 route")
    return val

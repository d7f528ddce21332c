"""Checks of each report against its request, made outside the timed region.

Every report must come with exit code 0, hold one row per requested result
with the requested parameters echoed, and carry only passing rows.  Closed
forms are recomputed independently in mpmath at 30 digits: a seeded sample of
`table` rows, and the a1, a2 of `verify-ball` (the `ball_heat_coefficients`
closed form), whose fitted values must meet the command's own tolerances.

Each check yields (residual, tolerance).  Accuracy is summarised as digits,
-log10(residual), and as the margin log10(tolerance / residual).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import mpmath

from workloads import IDENTITIES, Request

TABLE_FIELDS = ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "d1", "d2", "d3",
                "d4", "a1_ball", "a2_ball", "a1_eta")
# reports print 12 significant digits, so a correct value is within 5e-12
TABLE_TOL = 1e-10
TABLE_ROWS_CHECKED = 2  # per table request
IDENTITY_TOL = 1e-11  # verify-identities default
A1_RTOL = 0.01  # verify-ball defaults
A2_ATOL = 0.01
CYLINDER_TOL = 1e-8  # verify-cylinder default
EPS = 2.0 ** -52  # residual floor: float64 carries no more digits
DPS = 30


@dataclass
class Outcome:
    ok: bool = True
    results: int = 0
    checks: list = field(default_factory=list)  # (residual, tolerance)
    why: str = ""

    def fail(self, why: str) -> "Outcome":
        if self.ok:
            self.ok, self.why = False, why
        return self

    def check(self, name: str, residual: float, tol: float) -> None:
        self.checks.append((residual, tol))
        if not residual < tol:
            self.fail(f"{name}: residual {residual:.3e} >= {tol:.0e}")


def digits(residual: float) -> float:
    return -math.log10(max(residual, EPS))


def margin(residual: float, tol: float) -> float:
    return math.log10(tol / max(residual, EPS))


def reference_row(theta: float, m: int) -> dict:
    """The closed forms behind one `table` row, in mpmath."""
    mp = mpmath
    with mp.workdps(DPS):
        x = mp.mpf(theta)
        sh, ch, th = mp.sinh(x), mp.cosh(x), mp.tanh(x)
        half, three_halves = mp.mpf(1) / 2, mp.mpf(3) / 2
        f_tanh = mp.hyp2f1(1, mp.mpf(m - 1) / 2, three_halves, th ** 2)
        f2 = mp.hyp2f1(half, mp.mpf(m + 1) / 2, three_halves, -sh ** 2)
        poly_half = mp.hyp2f1(1, 1 - mp.mpf(m) / 2, half, -sh ** 2)
        poly_3half = mp.hyp2f1(1, 1 - mp.mpf(m) / 2, three_halves, -sh ** 2)
        d4 = -th / 2 + mp.mpf(m - 1) / 2 * sh * ch ** (m - 2) * f2
        d_s = 2 ** (m // 2)
        norm = 2 ** m * mp.gamma(mp.mpf(m) / 2)
        a2_bracket = mp.mpf(2 * m - 5) / 3 + (2 - m) * f_tanh
        row = {"c1": (ch ** (m - 1) - 1) / 4,
               "c2": a2_bracket / (2 * (m - 1)),
               "c3": -2 * d4, "c4": 0, "c5": ch * poly_half,
               "c6": (m - 1) * sh * poly_3half, "c7": -(1 - f_tanh) / 2,
               "d1": -mp.mpf(m - 1) / 2 * sh * ch ** (m - 1) * f2,
               "d2": -1 / (2 * ch)
               - mp.mpf(m - 1) / 2 * sh ** 2 * ch ** (m - 2) * f2,
               "d3": 0, "d4": d4,
               "a1_ball": mp.sqrt(mp.pi) * d_s / norm * (ch ** (m - 1) - 1),
               "a2_ball": d_s / norm * a2_bracket,
               "a1_eta": -sh * d_s * (m - 1) / norm * poly_3half}
        return {k: mp.mpf(v) for k, v in row.items()}


def _scaled(value: float, ref) -> float:
    """|value - ref| / max(1, |ref|), the scaling the identities use."""
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(value) - ref) / max(1, abs(ref)))


def check(req: Request, exit_code, text, rng: random.Random) -> Outcome:
    """Check one report; exit_code is None when the command raised."""
    out = Outcome()
    if exit_code != 0:
        return out.fail(f"exit code {exit_code}")
    try:
        rows = json.loads(text)
    except (TypeError, ValueError) as exc:
        return out.fail(f"unreadable report: {exc}")
    if not isinstance(rows, list) or len(rows) != req.results:
        return out.fail(f"expected {req.results} rows")
    try:
        CHECKERS[req.kind](req, rows, rng, out)
    except (KeyError, TypeError, ValueError) as exc:
        out.fail(f"malformed row: {exc!r}")
    if out.ok:
        out.results = req.results
    return out


def _check_table(req, rows, rng, out):
    expected = [(theta, m) for m in req.ms for theta in req.thetas]
    for row, (theta, m) in zip(rows, expected):
        if (row["theta"], row["m"]) != (theta, m):
            out.fail(f"row for theta={theta}, m={m} missing")
    for i in sorted(rng.sample(range(len(rows)),
                               min(TABLE_ROWS_CHECKED, len(rows)))):
        ref = reference_row(*expected[i])
        for key in TABLE_FIELDS:
            out.check(f"{key}{expected[i]}", _scaled(rows[i][key], ref[key]),
                      TABLE_TOL)


def _check_identities(req, rows, rng, out):
    for row, name in zip(rows, IDENTITIES):
        if row["identity"] != name or row["pass"] is not True:
            out.fail(f"identity {name} not passed")
        out.check(name, row["max_residual"], IDENTITY_TOL)


def _check_ball(req, rows, rng, out):
    row = rows[0]
    theta, m = req.thetas[0], req.ms[0]
    if (row["theta"], row["m"]) != (theta, m) or row["pass"] is not True:
        out.fail("ball row not passed")
    ref = reference_row(theta, m)
    out.check("a1_closed", _scaled(row["a1_closed"], ref["a1_ball"]),
              TABLE_TOL)
    out.check("a2_closed", _scaled(row["a2_closed"], ref["a2_ball"]),
              TABLE_TOL)
    a1, a2 = float(ref["a1_ball"]), float(ref["a2_ball"])
    out.check("a1_fit", abs(row["a1_fit"] - a1) / abs(a1), A1_RTOL)
    out.check("a2_fit", abs(row["a2_fit"] - a2), A2_ATOL)


def _check_cylinder(req, rows, rng, out):
    theta = req.thetas[0]
    n = len(req.omegas)
    for row, omega in zip(rows[:n], req.omegas):
        if (row["omega"], row["theta"], row["t"]) != (omega, theta, req.t) \
                or row["pass"] is not True:
            out.fail(f"U row omega={omega} not passed")
        out.check("U1", row["U1_residual"], CYLINDER_TOL)
        out.check("U2", row["U2_residual"], CYLINDER_TOL)
    for row, omega in zip(rows[n:], req.omegas):
        if (row["s"], row["omega"], row["theta"]) != (req.s, omega, theta) \
                or row["pass"] is not True:
            out.fail(f"t row omega={omega} not passed")
        out.check("t_integral", row["t_integral_residual"], CYLINDER_TOL)


CHECKERS = {"table": _check_table, "identities": _check_identities,
            "ball": _check_ball, "cylinder": _check_cylinder}

"""Command-line front end: coefficient tables and verification reports.

Subcommands:
  coeffs             print all constants for each (theta, m)
  table              write the grid as CSV or JSON
  verify-ball        spectral fit on the disc/ball vs the closed forms
  verify-cylinder    integrated kernel identities and the t-integral
  verify-identities  hypergeometric consistency web

verify-ball samples the heat trace at 20 geometric t from 0.02 to 0.3
(ball_spectrum.T_GRID) and fits a_1..a_5 (ball_spectrum.FIT_DEPTH) with a_0
pinned.  A row passes when a1 is within 1% of the closed form (A1_RTOL in
this module; where a1 vanishes, within 3 fit errors of 0) and a2 within
0.01 (A2_ATOL).  Its one numerical flag is the eigenvalue cutoff --mu-max.

Exit status: 0 all residuals within tolerance, 1 tolerance failure (report
still written), 2 configuration error (nan or inf in any float flag too),
overflow or numerical failure (an insufficient cutoff, a failed root solve,
a closed form that disagrees with its general form; no report written).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from . import ball_spectrum, cylinder, identities
from .clifford import build_gamma
from .coefficients import universal_constants

# verify-ball pass bounds on the fitted a1 (relative) and a2 (absolute)
A1_RTOL = 0.01
A2_ATOL = 0.01


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.12g}"


def _finite(text: str) -> float:
    """The parser of every float flag value: nan and inf are refused."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def _finite_list(text: str) -> list[float]:
    vals = [_finite(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise ValueError("empty list")
    return vals


def _parse_theta(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"theta range must be start:stop:step, "
                             f"got {text!r}")
        start, stop, step = (_finite(p) for p in parts)
        if step <= 0:
            raise ValueError("theta step must be positive")
        span = (stop - start) / step
        if not math.isfinite(span):
            raise ValueError(f"theta range {text!r} is too long")
        n = int(math.floor(span + 1e-9)) + 1
        if n < 1:
            raise ValueError("empty theta range")
        return [start + k * step for k in range(n)]
    return _finite_list(text)


def _parse_m(text: str) -> list[int]:
    ms = [int(v) for v in text.split(",") if v.strip()]
    if not ms:
        raise ValueError("empty m list")
    for m in ms:
        if m % 2 or not (2 <= m <= 12):
            raise ValueError(f"m must be even in [2, 12], got {m}")
    return ms


def _row(theta: float, m: int) -> dict:
    """Every constant at (theta, m); OverflowError past the float range."""
    with contextlib.suppress(OverflowError):
        row = dataclasses.asdict(universal_constants(theta, m))
        if all(map(math.isfinite, row.values())):
            return row
    raise OverflowError(f"constants overflow at theta={theta}, m={m}")


@contextlib.contextmanager
def _overflow_at(where: str):
    """Re-raise an OverflowError with the inputs it happened at."""
    try:
        yield
    except OverflowError:
        raise OverflowError(f"overflow at {where}") from None


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_coeffs(args) -> int:
    lines = []
    for m in args.m:
        for theta in args.theta:
            r = _row(theta, m)
            lines.append(f"theta={_fmt(theta)} m={m}")
            lines.append("  c1..c7: " + " ".join(
                _fmt(r[f"c{i}"]) for i in range(1, 8)))
            lines.append("  d1..d4 (cylinder): " + " ".join(
                _fmt(r[k]) for k in ("d1", "d2", "d3", "d4")))
            lines.append("  d1..d3 (ball):     " + " ".join(
                _fmt(v) for v in (-0.5 * r["c6"], -0.5 * r["c5"], 0.0)))
            lines.append(f"  a1_ball={_fmt(r['a1_ball'])} "
                         f"a2_ball={_fmt(r['a2_ball'])} "
                         f"a1_eta={_fmt(r['a1_eta'])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_table(args) -> int:
    rows = [_row(theta, m) for m in args.m for theta in args.theta]
    _emit(_report_text(rows, args.format), args.out)
    return 0


def cmd_verify_ball(args) -> int:
    ok = True
    rows = []
    for m in args.m:
        for theta in args.theta:
            with _overflow_at(f"theta={theta}, m={m}"):
                values, _ = ball_spectrum.heat_trace(
                    theta, m, ball_spectrum.T_GRID, args.mu_max)
                fit = ball_spectrum.fit_heat_coefficients(
                    ball_spectrum.T_GRID, values, m)
                uc = universal_constants(theta, m)
            a1, a2 = fit.coeffs[1], fit.coeffs[2]
            if abs(uc.a1_ball) > 1e-10:
                a1_ok = abs(a1 - uc.a1_ball) / abs(uc.a1_ball) < A1_RTOL
            else:
                a1_ok = abs(a1) < 3.0 * max(fit.coeff_errors[1], 1e-12)
            a2_ok = abs(a2 - uc.a2_ball) < A2_ATOL
            ok = ok and a1_ok and a2_ok
            rows.append({"theta": theta, "m": m,
                         "a1_fit": a1, "a1_closed": uc.a1_ball,
                         "a2_fit": a2, "a2_closed": uc.a2_ball,
                         "fit_residual": fit.residual,
                         "pass": bool(a1_ok and a2_ok)})
    _emit(_report_text(rows, args.format), args.out)
    return 0 if ok else 1


def cmd_verify_cylinder(args) -> int:
    ok = True
    rows = []
    for m in args.m:
        rep = build_gamma(m)
        for omega in args.omega:
            for theta in args.theta:
                for t in args.t:
                    p = cylinder.ModeParams(omega=omega, theta=theta, t=t,
                                            rep=rep)
                    with _overflow_at(f"theta={theta}, m={m}"):
                        r1 = cylinder.check_U1_integral(p)
                        r2 = cylinder.check_U2_integral(p)
                    passed = r1 < args.tol and r2 < args.tol
                    ok = ok and passed
                    rows.append({"m": m, "omega": omega, "theta": theta,
                                 "t": t, "U1_residual": r1,
                                 "U2_residual": r2, "pass": passed})
    # the t-integral does not depend on m
    for s in args.s:
        for omega in args.omega:
            for theta in args.theta:
                with _overflow_at(f"theta={theta}, s={s}"):
                    rt = cylinder.check_t_integral(s, omega, theta)
                passed = rt < args.tol
                ok = ok and passed
                rows.append({"s": s, "omega": omega, "theta": theta,
                             "t_integral_residual": rt, "pass": passed})
    _emit(_report_text(rows, args.format), args.out)
    return 0 if ok else 1


def cmd_verify_identities(args) -> int:
    report = identities.grid_report(thetas=args.theta, ms=tuple(args.m))
    ok = all(v < args.tol for v in report.values())
    rows = [{"identity": k, "max_residual": v, "pass": v < args.tol}
            for k, v in report.items()]
    _emit(_report_text(rows, args.format), args.out)
    return 0 if ok else 1


def _report_text(rows: list[dict], fmt: str) -> str:
    """JSON list of the rows, or CSV whose header is every row key in
    first-seen order; a row without some key leaves that cell empty."""
    if fmt == "json":
        clean = [{k: (float(_fmt(v)) if isinstance(v, (float, np.floating))
                      else v) for k, v in r.items()} for r in rows]
        return json.dumps(clean, indent=2) + "\n"
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(dict.fromkeys(
        k for r in rows for k in r)), restval="", lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: (_fmt(v) if isinstance(v, (float, np.floating))
                        else v) for k, v in r.items()})
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chiralbag",
        description="Boundary heat-kernel constants for chiral bag "
                    "conditions: tables and numerical verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, text, report=True):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        p.add_argument("--m", type=_parse_m, default=[2],
                       help="comma list of even dimensions in [2, 12]")
        p.add_argument("--theta", type=_parse_theta, default=[0.0],
                       help="comma list or start:stop:step")
        if report:  # the commands that write through _report_text
            p.add_argument("--format", choices=("csv", "json"),
                           default="csv")
        p.add_argument("--out", default=None, help="output path (stdout "
                       "if omitted)")
        return p

    command("coeffs", cmd_coeffs, "print all constants", report=False)
    command("table", cmd_table, "write the coefficient grid")

    vb = command("verify-ball", cmd_verify_ball,
                 "spectral fit vs closed forms")
    vb.add_argument("--mu-max", type=_finite, default=100.0)

    vc = command("verify-cylinder", cmd_verify_cylinder,
                 "kernel identity checks")
    vc.add_argument("--omega", type=_finite_list, default=[0.5, 1.3, 2.0])
    vc.add_argument("--t", type=_finite_list, default=[0.1, 0.25])
    vc.add_argument("--s", type=_finite_list, default=[1.5, 2.5])
    vc.add_argument("--tol", type=_finite, default=1e-8)

    vi = command("verify-identities", cmd_verify_identities,
                 "consistency web")
    vi.add_argument("--tol", type=_finite, default=1e-11)
    return ap


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join flags with values that start with a minus sign (negative thetas,
    ranges like -2:2:0.25) so argparse does not mistake them for options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "=" not in tok and i + 1 < len(argv) \
                and argv[i + 1].startswith("-") and len(argv[i + 1]) > 1 \
                and argv[i + 1][1].isdigit():
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = ap.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

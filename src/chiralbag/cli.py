"""Command-line front end: coefficient tables and verification reports.

Subcommands:
  coeffs             print all constants for each (theta, m)
  table              write the grid as CSV or JSON
  verify-ball        spectral fit on the disc/ball vs the closed forms
  verify-cylinder    integrated kernel identities and the t-integral
  verify-identities  hypergeometric consistency web

main parses a command line in one pass over the command's own flags where
it can (_one_pass): every token after the command is --flag=value or
--flag value with flag exactly one of the command's options, and a
separate value that starts with a minus is a negative number or range (the
rule of _merge_negative_values); each value goes through its flag's own
type and choices.  Any other line (no command, an abbreviated or unknown
flag, -h, a positional, a missing, refused or -- value) goes to argparse:
the command's own parser after that merge, which splits --flag=-- into
--flag -- for argparse to refuse, or the whole parser for a line that
does not start with a command, with leftovers reported as parse_args does.
argparse alone defines the grammar (the pass reads the Actions that
add_argument returns and the defaults argparse parses from no flags) and
prints every help, usage and error message.  main then runs the command
for its report rows, writes them (CSV, JSON, or the coeffs text block) and
sets the exit code.  The module imports only the closed forms: a command
imports the numeric module it runs (identities, ball_spectrum, cylinder)
when it runs, and calls it through the module, so importing cli, building
the parser and running coeffs or table load no numpy.  The JSON report is
the bytes of json.dumps(rows, indent=2) with every float rounded to 12
significant digits, written row by row: each value's text fills a template
of its row's keys, cached per key tuple.  A float's text is its 12-digit
text itself wherever that is repr's text of the float it parses to; only a
few kinds (integral, nan, inf, and the exponents repr writes otherwise) are
rewritten, and no float is parsed back but those of the last kind.

verify-ball samples the heat trace at 20 geometric t from 0.02 to 0.3
(ball_spectrum.T_GRID) and fits a_1..a_5 (ball_spectrum.FIT_DEPTH) with a_0
pinned.  A row passes when a1 is within 1% of the closed form (A1_RTOL in
this module; where a1 vanishes, within 3 fit errors of 0) and a2 within
0.01 (A2_ATOL).  It has no numerical flag: the spectrum is solved as far
as a root can reach the trace at the smallest t (51 to 81 on T_GRID;
ball_spectrum.heat_trace).  Its fit_residual, the rms misfit, is written
to the 3 significant digits it holds: a last-bit change of one root moves
its 6th digit.
A verify-cylinder U row has the columns m, omega, theta, t, U1_residual,
U1_err, U2_residual, U2_err and pass, a t-integral row s, omega, theta,
t_integral_residual, t_integral_err and pass; each *_err is the quadrature
rule's error estimate, carried through the same factors as its residual,
and is reported only.  U residuals are scaled by max(1, largest entry of
the right side), and a U row is the same at every m (cylinder), so it is
checked once, at the first m, by one stacked quadrature of both
identities, and written under each; its t must lie in [1e-300, 1e300]
(cylinder.T_MIN, T_MAX).  A verify-cylinder row passes when its residuals
are below CYLINDER_TOL (1e-8), a verify-identities row when its largest
residual is below IDENTITY_TOL (1e-11); no flag changes these bounds.

A --theta range start:stop:step holds at most 10^6 points
(MAX_THETA_POINTS); a longer one is a configuration error naming its count.

Exit status: 0 all residuals within tolerance, 1 tolerance failure (report
still written), 2 configuration error (nan or inf in any float flag too),
overflow, division by zero or other numerical failure (an insufficient
cutoff or too many angular levels, a failed root solve), or a report that
cannot be written to --out; no report is written.  A numerical failure is
reported at its point: theta and m (with omega and t for a U row), or
theta, s and omega for the t-integral; an overflow or division by zero by
its type name, any other after its message.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys

from .coefficients import universal_constants

# verify-ball pass bounds on the fitted a1 (relative) and a2 (absolute)
A1_RTOL = 0.01
A2_ATOL = 0.01
# verify-cylinder bound on every residual; verify-identities bound on each
# identity's largest residual
CYLINDER_TOL = 1e-8
IDENTITY_TOL = 1e-11
# the most points a --theta start:stop:step range may hold
MAX_THETA_POINTS = 10 ** 6


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.12g}"


def _finite(text: str) -> float:
    """The parser of every float flag value: nan and inf are refused (as
    ArgumentTypeError, whose message argparse prints)."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: not a number") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: not a finite number")
    return x


def _finite_list(text: str) -> list[float]:
    vals = [_finite(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise argparse.ArgumentTypeError(f"invalid list {text!r}: empty")
    return vals


def _parse_theta(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"invalid theta range {text!r}: not start:stop:step")
        start, stop, step = (_finite(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError(
                f"invalid theta range {text!r}: step must be positive")
        span = (stop - start) / step
        if not math.isfinite(span):
            raise argparse.ArgumentTypeError(
                f"invalid theta range {text!r}: too long")
        n = int(math.floor(span + 1e-9)) + 1
        if n < 1:
            raise argparse.ArgumentTypeError(
                f"invalid theta range {text!r}: empty")
        if n > MAX_THETA_POINTS:
            raise argparse.ArgumentTypeError(
                f"theta range {text!r} has {n} points, more than "
                f"{MAX_THETA_POINTS}")
        return [start + k * step for k in range(n)]
    return _finite_list(text)


def _parse_m(text: str) -> list[int]:
    try:
        ms = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid m list {text!r}: not integers") from None
    if not ms:
        raise argparse.ArgumentTypeError(f"invalid m list {text!r}: empty")
    for m in ms:
        if m % 2 or not (2 <= m <= 12):
            raise argparse.ArgumentTypeError(
                f"invalid m {m}: must be even in [2, 12]")
    return ms


def _constants(theta: float, m: int) -> dict:
    """Every constant at (theta, m); OverflowError past the float range."""
    row = universal_constants(theta, m)._asdict()
    if not all(map(math.isfinite, row.values())):
        raise OverflowError
    return row


def _ball_row(theta: float, m: int) -> dict:
    from . import ball_spectrum
    values, _ = ball_spectrum.heat_trace(theta, m, ball_spectrum.T_GRID)
    fit = ball_spectrum.fit_heat_coefficients(ball_spectrum.T_GRID, values, m)
    uc = universal_constants(theta, m)
    a1, a2 = fit.coeffs[1], fit.coeffs[2]
    if abs(uc.a1_ball) > 1e-10:
        a1_ok = abs(a1 - uc.a1_ball) / abs(uc.a1_ball) < A1_RTOL
    else:
        a1_ok = abs(a1) < 3.0 * max(fit.coeff_errors[1], 1e-12)
    return {"theta": theta, "m": m, "a1_fit": a1, "a1_closed": uc.a1_ball,
            "a2_fit": a2, "a2_closed": uc.a2_ball,
            "fit_residual": float(f"{fit.residual:.3g}"),
            "pass": bool(a1_ok and abs(a2 - uc.a2_ball) < A2_ATOL)}


def _u_row(theta: float, m: int, omega: float, t: float) -> dict:
    from . import cylinder
    (r1, e1), (r2, e2) = cylinder.check_U_integrals(omega, theta, t)
    return {"m": m, "omega": omega, "theta": theta, "t": t,
            "U1_residual": r1, "U1_err": e1, "U2_residual": r2, "U2_err": e2,
            "pass": r1 < CYLINDER_TOL and r2 < CYLINDER_TOL}


def _t_row(theta: float, s: float, omega: float) -> dict:
    from . import cylinder
    rt, et = cylinder.check_t_integral(s, omega, theta)
    return {"s": s, "omega": omega, "theta": theta,
            "t_integral_residual": rt, "t_integral_err": et,
            "pass": rt < CYLINDER_TOL}


def _each(points, row) -> list[dict]:
    """row(**point) at every point; a failure there is re-raised naming the
    point, theta first: an ArithmeticError (overflow, division by zero) by
    its type, a ValueError or RuntimeError after its message."""
    rows = []
    for point in points:
        try:
            rows.append(row(**point))
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            where = ", ".join(f"{k}={v}" for k, v in point.items())
            if isinstance(exc, ArithmeticError):
                raise ArithmeticError(
                    f"{type(exc).__name__} at {where}") from None
            raise type(exc)(f"{exc} (at {where})") from None
    return rows


def _grid(args) -> list[dict]:
    return [{"theta": theta, "m": m} for m in args.m for theta in args.theta]


def cmd_table(args) -> list[dict]:
    return _each(_grid(args), _constants)


def cmd_verify_ball(args) -> list[dict]:
    return _each(_grid(args), _ball_row)


def cmd_verify_cylinder(args) -> list[dict]:
    # a U row is the same at every m but for its m column: each is checked
    # at the first m and written under every m
    u_rows = _each([{"theta": theta, "m": args.m[0], "omega": omega, "t": t}
                    for omega in args.omega for theta in args.theta
                    for t in args.t], _u_row)
    # the t-integral does not depend on m
    t_points = [{"theta": theta, "s": s, "omega": omega}
                for s in args.s for omega in args.omega
                for theta in args.theta]
    return ([{**row, "m": m} for m in args.m for row in u_rows]
            + _each(t_points, _t_row))


def cmd_verify_identities(args) -> list[dict]:
    from . import identities
    report = identities.grid_report(thetas=args.theta, ms=tuple(args.m))
    return [{"identity": k, "max_residual": v, "pass": v < IDENTITY_TOL}
            for k, v in report.items()]


# a float is written as its 12-digit text f"{v:.12g}" (_fmt), which is
# repr's text of the float that text parses to except where it has no point
# (zero, integral, nan, inf) or an exponent repr writes otherwise:
# positionally from 1e12 to 1e16, and with fewer digits for a subnormal
_NO_POINT = {"0": "0.0", "-0": "0.0", "nan": "NaN", "inf": "Infinity",
             "-inf": "-Infinity"}
_REWRITTEN = frozenset([f"e+{k}" for k in range(12, 16)]
                       + [f"e-{k}" for k in range(308, 325)])


def _json_value(v) -> str:
    """v as json.dumps writes it, a float rounded to 12 significant digits
    like _fmt: json.dumps(float(_fmt(v))) from the 12-digit text alone, of
    which only an exponent of _REWRITTEN is parsed back.  An int is written
    by int's repr, as json writes it.  np.float64, the one numpy scalar a
    row holds, is a float."""
    if isinstance(v, float):
        text = f"{v:.12g}"
        if "e" not in text:
            if "." in text:
                return text
            return _NO_POINT.get(text) or text + ".0"
        if text[text.index("e"):] in _REWRITTEN:
            return repr(float(text))
        return text
    return repr(v) if type(v) is int else json.dumps(v)


@functools.lru_cache(maxsize=32)
def _row_template(keys: tuple) -> str:
    """A row with these str keys as json.dumps(indent=2) writes it inside a
    list, with a %s for each value."""
    if not keys:
        return "{}"
    return "{\n    " + ",\n    ".join(
        json.dumps(k).replace("%", "%%") + ": %s" for k in keys) + "\n  }"


def _json_row(row: dict) -> str:
    """The row as json.dumps(indent=2) writes it inside a list, floats
    rounded to 12 significant digits like _fmt (_json_value)."""
    return _row_template(tuple(row)) % tuple(map(_json_value, row.values()))


def _report_text(rows: list[dict], fmt: str) -> str:
    """The constants rows as the coeffs text block, a JSON list of the
    rows, or CSV whose header is every row key in first-seen order; a row
    without some key leaves that cell empty."""
    if fmt == "text":
        lines = []
        for r in rows:
            lines.append(f"theta={_fmt(r['theta'])} m={r['m']}")
            lines.append("  c1..c7: " + " ".join(
                _fmt(r[f"c{i}"]) for i in range(1, 8)))
            lines.append("  d1..d4 (cylinder): " + " ".join(
                _fmt(r[k]) for k in ("d1", "d2", "d3", "d4")))
            lines.append("  d1..d3 (ball):     " + " ".join(
                _fmt(v) for v in (-0.5 * r["c6"], -0.5 * r["c5"], 0.0)))
            lines.append(f"  a1_ball={_fmt(r['a1_ball'])} "
                         f"a2_ball={_fmt(r['a2_ball'])} "
                         f"a1_eta={_fmt(r['a1_eta'])}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        if not rows:
            return "[]\n"
        return "[\n  " + ",\n  ".join(map(_json_row, rows)) + "\n]\n"
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(dict.fromkeys(
        k for r in rows for k in r)), restval="", lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: (_fmt(v) if isinstance(v, float) else v)
                    for k, v in r.items()})
    return buf.getvalue()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; its defaults
    are tuples, so no call can change what the next one parses.  Each
    command's parser keeps the Action of each of its flags by option
    string (flags) and the values it parses from no flags (defaults), which
    _one_pass reads."""
    ap = argparse.ArgumentParser(
        prog="chiralbag",
        description="Boundary heat-kernel constants for chiral bag "
                    "conditions: tables and numerical verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def flag(p, *names, **kwargs):
        # the Action add_argument returns, under each of its option strings
        action = p.add_argument(*names, **kwargs)
        p.flags.update(dict.fromkeys(action.option_strings, action))

    def command(name, func, text, text_block=False):
        p = sub.add_parser(name, help=text)
        p.flags = {}
        p.set_defaults(func=func)
        flag(p, "--m", type=_parse_m, default=(2,),
             help="comma list of even dimensions in [2, 12]")
        flag(p, "--theta", type=_parse_theta, default=(0.0,),
             help="comma list or start:stop:step")
        if text_block:
            p.set_defaults(format="text")
        else:
            flag(p, "--format", choices=("csv", "json"), default="csv")
        flag(p, "--out", default=None, help="output path (stdout if "
             "omitted)")
        return p

    command("coeffs", cmd_table, "print all constants", text_block=True)
    command("table", cmd_table, "write the coefficient grid")

    command("verify-ball", cmd_verify_ball, "spectral fit vs closed forms")

    vc = command("verify-cylinder", cmd_verify_cylinder,
                 "kernel identity checks")
    flag(vc, "--omega", type=_finite_list, default=(0.5, 1.3, 2.0))
    flag(vc, "--t", type=_finite_list, default=(0.1, 0.25))
    flag(vc, "--s", type=_finite_list, default=(1.5, 2.5))

    command("verify-identities", cmd_verify_identities, "consistency web")
    ap.commands = sub.choices
    for p in ap.commands.values():
        p.defaults = vars(p.parse_known_args([])[0])
    return ap


# a value that starts with a minus sign and a digit, or a point and a
# digit: a negative number or range, not an option
_NEGATIVE = re.compile(r"-\.?\d")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join flags with values that start with a minus sign and a digit or
    a point and a digit (negative thetas, ranges like -2:2:0.25 or
    -.5:1:.5) so argparse does not mistake them for options; split
    --flag=--, whose value argparse drops, into --flag --, which it
    refuses."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "=" not in tok and i + 1 < len(argv) \
                and _NEGATIVE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        elif tok.startswith("--") and tok.partition("=")[2] == "--":
            out += [tok[:-3], "--"]
            i += 1
        else:
            out.append(tok)
            i += 1
    return out


def _one_pass(parser, argv: list[str]):
    """The namespace parser.parse_known_args gives argv after
    _merge_negative_values, parsed in one pass over the parser's flags;
    None for a line the pass does not take whole (see the module
    docstring), which argparse parses."""
    flags = parser.flags
    values = dict(parser.defaults)
    i, n = 0, len(argv)
    while i < n:
        name, eq, value = argv[i].partition("=")
        action = flags.get(name)
        if action is None:
            return None
        if not eq:
            i += 1
            if i == n:
                return None
            value = argv[i]
            if value[:1] == "-" and not _NEGATIVE.match(value):
                return None
        elif value == "--":  # no value, which argparse refuses
            return None
        i += 1
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None  # as argparse refuses it, which says why
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The parsed command line, by the one pass where it takes argv and by
    argparse otherwise; SystemExit where argparse prints help or an
    error."""
    ap = build_parser()
    if argv and argv[0] in ap.commands:
        args = _one_pass(ap.commands[argv[0]], argv[1:])
        if args is not None:
            return args
    argv = _merge_negative_values(argv)
    # a command's arguments go straight to its own parser, and the whole
    # parser reports what that one leaves, as its parse_args does
    if argv and argv[0] in ap.commands:
        args, extra = ap.commands[argv[0]].parse_known_args(argv[1:])
    else:  # no command, an unknown one or a leading option
        args, extra = ap.parse_known_args(argv)
    if extra:
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        rows = args.func(args)
        text = _report_text(rows, args.format)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.get("pass", True) for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())

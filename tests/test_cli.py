import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import re
import runpy
import shlex
import struct
import sys
import tempfile
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from chiralbag import ball_spectrum, cli, coefficients, cylinder

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_theta_range(self):
        assert cli._parse_theta("0:1:0.5") == [0.0, 0.5, 1.0]

    def test_theta_negative_range(self):
        got = cli._parse_theta("-1:1:0.5")
        assert got == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_theta_list(self):
        assert cli._parse_theta("0,0.5,-1") == [0.0, 0.5, -1.0]

    def test_bad_theta(self):
        # ArgumentTypeError: argparse prints its message, not its own
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_theta("0:1")
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_theta("")
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_theta("0:1:-0.5")
        # finite ends, too many steps
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_theta("0:1e308:1e-308")

    def test_theta_range_limit(self, monkeypatch):
        assert cli.MAX_THETA_POINTS == 10 ** 6
        monkeypatch.setattr(cli, "MAX_THETA_POINTS", 10)
        assert len(cli._parse_theta("0:9:1")) == 10
        with pytest.raises(argparse.ArgumentTypeError, match="has 11 points"):
            cli._parse_theta("0:10:1")

    def test_huge_theta_range_exit_2(self, tmp_path, capsys):
        # refused from its count alone: the list is never built
        path = tmp_path / "report"
        code = cli.main(["table", "--theta", "0:1:1e-12",
                         "--out", str(path)])
        assert code == 2
        assert "1000000000001 points" in capsys.readouterr().err
        assert not path.exists()

    def test_bad_m(self):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_m("3")
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_m("14")

    def test_merge_negative_values(self):
        got = cli._merge_negative_values(
            ["verify-identities", "--theta", "-2:2:0.25", "--m", "2"])
        assert got == ["verify-identities", "--theta=-2:2:0.25",
                       "--m", "2"]
        # a value may start with a point after the minus sign
        for value in ("-.5:1:.5", "-.5,-1"):
            assert cli._merge_negative_values(["table", "--theta", value]) \
                == ["table", f"--theta={value}"]
        assert cli._parse_theta("-.5:1:.5") == [-0.5, 0.0, 0.5, 1.0]
        assert cli._parse_theta("-.5,-1") == [-0.5, -1.0]
        # a value of exactly "--" is split off, as no value
        assert cli._merge_negative_values(["table", "--m=--", "--out=--x"]) \
            == ["table", "--m", "--", "--out=--x"]


class TestCoeffs:
    def test_theta_zero_row(self, capsys):
        code, out = run(capsys, "coeffs", "--m", "2", "--theta", "0")
        assert code == 0
        assert "c1..c7: 0 -0.166666666667 0 0 1 0 0" in out

    def test_both_d_forms_printed(self, capsys):
        code, out = run(capsys, "coeffs", "--m", "4", "--theta", "0.5")
        assert code == 0
        assert "cylinder" in out and "ball" in out


class TestTable:
    def test_csv_header(self, capsys):
        code, out = run(capsys, "table", "--m", "2", "--theta", "0,1")
        assert code == 0
        assert out.splitlines()[0] == \
            "theta,m,c1,c2,c3,c4,c5,c6,c7,d1,d2,d3,d4,a1_ball,a2_ball,a1_eta"
        assert len(out.splitlines()) == 3

    def test_deterministic(self, capsys):
        _, a = run(capsys, "table", "--m", "2,4", "--theta", "0:1:0.25")
        _, b = run(capsys, "table", "--m", "2,4", "--theta", "0:1:0.25")
        assert a == b

    def test_json_format(self, capsys):
        code, out = run(capsys, "table", "--m", "2", "--theta", "1",
                        "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["m"] == 2
        assert rows[0]["a2_ball"] == pytest.approx(-1 / 6, abs=1e-10)
        assert rows[0]["a1_ball"] == pytest.approx(
            math.sqrt(math.pi) / 2 * (math.cosh(1) - 1), rel=1e-9)

    def test_small_theta_keeps_its_digits(self, capsys):
        # c1 = theta^2/8, c7 = theta^2/6 and a1_ball = sqrt(pi)/2 theta^2/2
        # at m = 2, to the leading order that is all of their 12 digits at
        # theta = 1e-8 (they printed as 0, from differences that cancel)
        code, out = run(capsys, "table", "--m", "2", "--theta", "1e-8",
                        "--format", "json")
        assert code == 0
        [row] = json.loads(out)
        assert row["c1"] == 1.25e-17
        assert row["c7"] == 1.66666666667e-17
        assert row["a1_ball"] == float(f"{math.sqrt(math.pi) / 4 * 1e-16:.12g}")

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        code, out = run(capsys, "table", "--m", "2", "--theta", "0",
                        "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("theta,m,")


def _reference_row(theta: float, m: int) -> dict:
    """The closed forms of one table row in mpmath, in the paper's tanh^2
    and -sinh^2 arguments, at 0.87 |theta| + 40 digits: 1 - tanh^2 theta ~
    4 e^(-2|theta|) costs the tanh^2 argument ~0.87 |theta| of them.  At
    m = 2 the tanh^2 series is artanh(tanh theta)/tanh theta (DLMF 15.4.3),
    and the non-terminating -sinh^2 series, which loses no digits, is taken
    at 50: mpmath reaches both only slowly next to the overflow edge."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40 + int(0.87 * abs(theta))):
        x = mp.mpf(theta)
        sh, ch, th = mp.sinh(x), mp.cosh(x), mp.tanh(x)
        k = mp.mpf(m)
        if m == 2 and theta:
            f_tanh = mp.atanh(th) / th
        else:
            f_tanh = mp.hyp2f1(1, (k - 1) / 2, 1.5, th ** 2)
        with mp.workdps(50):
            f2 = mp.hyp2f1(0.5, (k + 1) / 2, 1.5, -sh ** 2)
        poly_3half = mp.hyp2f1(1, 1 - k / 2, 1.5, -sh ** 2)
        d4 = -th / 2 + (k - 1) / 2 * sh * ch ** (m - 2) * f2
        pref = 2 ** (m // 2) / (2 ** m * mp.gamma(k / 2))
        bracket = (2 * k - 5) / 3 + (2 - k) * f_tanh
        return {"c1": (ch ** (m - 1) - 1) / 4, "c2": bracket / (2 * (k - 1)),
                "c3": -2 * d4, "c4": 0,
                "c5": ch * mp.hyp2f1(1, 1 - k / 2, 0.5, -sh ** 2),
                "c6": (k - 1) * sh * poly_3half, "c7": -(1 - f_tanh) / 2,
                "d1": -(k - 1) / 2 * sh * ch ** (m - 1) * f2,
                "d2": -1 / (2 * ch)
                - (k - 1) / 2 * sh ** 2 * ch ** (m - 2) * f2,
                "d3": 0, "d4": d4,
                "a1_ball": mp.sqrt(mp.pi) * pref * (ch ** (m - 1) - 1),
                "a2_ball": pref * bracket,
                "a1_eta": -(k - 1) * sh * pref * poly_3half}


class TestClosedFormRow:
    THETAS = tuple(5.0 * k for k in range(-6, 7))
    # just inside the last |theta| whose row fits the float range
    EDGES = {2: 710.47, 4: 237.0, 6: 142.4, 8: 101.9, 10: 79.3, 12: 65.0}

    @pytest.mark.parametrize("m", (2, 4, 6, 8, 10, 12))
    def test_against_mpmath(self, m):
        for theta in self.THETAS + (self.EDGES[m], -self.EDGES[m]):
            row = cli._constants(theta, m)
            for key, want in _reference_row(theta, m).items():
                scaled = abs(row[key] - want) / max(1, abs(want))
                assert scaled <= 1e-13, (theta, m, key, float(scaled))

    def test_every_2f1_terminates(self, monkeypatch):
        # each hyp2f1 behind a row is a finite sum: a or b is a
        # non-positive integer (m=2 takes theta coth theta instead, and at
        # m=4 f_tanh - 1 = sinh^2 theta takes none), and each distinct
        # polynomial is summed once per row
        params = []
        hyp2f1 = coefficients.hyp2f1

        def spy(a, b, c, z):
            params.append((a, b))
            return hyp2f1(a, b, c, z)
        monkeypatch.setattr(coefficients, "hyp2f1", spy)
        for m in (2, 4, 6, 8, 10, 12):
            for theta in (0.0, 0.7, -0.7, 4.0, -4.0):
                params.clear()
                cli._constants(theta, m)
                assert len(params) == (3 if m <= 4 else 4), (theta, m)
                for a, b in params:
                    assert any(v <= 0 and v == int(v) for v in (a, b)), \
                        (a, b)

    @pytest.mark.parametrize("command", ("table", "coeffs"))
    def test_whole_theta_line(self, capsys, command):
        code, _ = run(capsys, command, "--m", "2,4,6,8,10,12",
                      "--theta", "-30:30:7.5")
        assert code == 0

    @pytest.mark.parametrize("command", ("table", "coeffs",
                                         "verify-identities"))
    @pytest.mark.parametrize("m,theta", (("2", "800"), ("4", "240"),
                                         ("12", "70")))
    def test_overflow_exit_2(self, tmp_path, capsys, command, m, theta):
        path = tmp_path / "report"
        fmt = [] if command == "coeffs" else ["--format", "json"]
        code = cli.main([command, "--m", m, "--theta", theta, *fmt,
                         "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"theta={float(theta)}" in err and f"m={m}" in err
        assert not path.exists()

    @pytest.mark.parametrize("command", ("table", "coeffs"))
    @pytest.mark.parametrize("theta", ("710", "-710.47"))
    def test_disc_row_to_the_float_range(self, capsys, command, theta):
        # at m = 2 every constant is finite until sinh leaves the float
        # range, near |theta| = 710.4758: a1_eta = -sinh(theta)/2 too
        code, out = run(capsys, command, "--m", "2", "--theta", theta)
        assert code == 0
        assert f"{-0.5 * math.sinh(float(theta)):.12g}" in out

    @pytest.mark.parametrize("command,m,theta", (
        pytest.param("verify-cylinder", "2", "400", id="2-400"),
        pytest.param("verify-cylinder", "4", "-400", id="4--400"),
        pytest.param("verify-ball", "2", "800", id="verify-ball-2-800")))
    def test_cylinder_overflow_exit_2(self, tmp_path, capsys, command, m,
                                      theta):
        path = tmp_path / "report"
        code = cli.main([command, "--m", m, "--theta", theta,
                         "--format", "json", "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"theta={float(theta)}, m={m}" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv,module,name,where", (
        (("verify-ball", "--m", "2", "--theta", "11"), None, None,
         "theta=11.0, m=2"),
        (("verify-ball", "--m", "2", "--theta", "0.5"),
         ball_spectrum, "ROOT_RTOL", "theta=0.5, m=2")),
        ids=("level-limit", "root-solve"))
    def test_error_names_point_once(self, tmp_path, capsys, monkeypatch,
                                    argv, module, name, where):
        # the level limit and a root left unconverged: the message names
        # its point once
        if module is not None:
            monkeypatch.setattr(module, name, -1.0)
        path = tmp_path / "report"
        assert cli.main([*argv, "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Newton" not in err
        assert err.count(where) == 1 and err.count("theta=") == 1
        assert not path.exists()

    def test_cylinder_tail_bound_exit_2(self, tmp_path, capsys):
        # a window of 12 sqrt(t) + 2 |omega| t leaves a Gaussian tail far
        # above 1e-20 when omega^2 t is huge and t tiny
        path = tmp_path / "report"
        code = cli.main(["verify-cylinder", "--m", "2", "--theta", "0.3",
                         "--omega", "1e149", "--t", "1e-300", "--s", "1.5",
                         "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tail bound 2.289e+84")
        assert not path.exists()

    def test_cylinder_t_integral_overflow_names_theta(self, tmp_path, capsys):
        # the t-integral's prefactor (cosh^2 theta / omega^2)^((s+1)/2)
        # leaves the float range before the U rows' cosh^2 theta does
        path = tmp_path / "report"
        code = cli.main(["verify-cylinder", "--m", "2", "--theta", "300",
                         "--s", "2.5", "--out", str(path)])
        assert code == 2
        assert "theta=300.0, s=2.5" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("flags,where", (
        (("--theta", "30", "--omega", "1000", "--t", "0.1"),
         "theta=30.0, m=2, omega=1000.0, t=0.1"),
        (("--theta", "0.3", "--omega", "1e307", "--t", "100"),
         "theta=0.3, m=2, omega=1e+307, t=100.0"),
        (("--theta", "0", "--omega", "5e307", "--t", "1"),
         "theta=0.0, m=2, omega=5e+307, t=1.0")),
        ids=("boundary-term", "window", "window-nodes"))
    def test_cylinder_U_overflow_names_point(self, tmp_path, capsys, flags,
                                             where):
        # e^{t b^2} of the boundary term, b = omega tanh theta, or the
        # window X = 12 sqrt(t) + 2 |omega| t, or its nodes' x + x' up to
        # 2X, past the float range: an OverflowError before any node is
        # evaluated, with no warning
        path = tmp_path / "report"
        code = cli.main(["verify-cylinder", "--m", "2", *flags,
                         "--out", str(path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: OverflowError at {where}\n"
        assert not path.exists()

    @pytest.mark.parametrize("flags,code,err", (
        (("--m", "2,8", "--theta", "800", "--omega", "1e200"), 2,
         "error: OverflowError at theta=800.0, m=2, omega=1e+200, t=0.1\n"),
        (("--t", "1e300"), 0, "")), ids=("omega-1e200", "t-1e300"))
    def test_cylinder_wide_window_warns_nothing(self, tmp_path, capsys,
                                                flags, code, err):
        # far out in a window of width 2 |omega| t, eta^2 overflows and
        # e^{-eta^2/4t} is 0: no warning is issued, whether the boundary
        # term then overflows (exit 2) or every check runs
        path = tmp_path / "report"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["verify-cylinder", *flags,
                             "--out", str(path)]) == code
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == err
        assert path.exists() == (code == 0)

    @pytest.mark.parametrize("flags,where", (
        (("--theta", "0", "--t", "1e307"), "omega=0.5, t=1e+307"),
        (("--t", "3e306"), "omega=0.5, t=3e+306"),
        (("--omega", "100", "--t", "5e305"), "omega=100.0, t=5e+305"),
        (("--t", "5e-324"), "omega=0.5, t=5e-324")),
        ids=("1e307", "3e306", "omega-100-5e305", "subnormal"))
    def test_cylinder_t_outside_range_exit_2(self, tmp_path, capsys, flags,
                                             where):
        # a t outside [1e-300, 1e300] would give wrong U residuals (eta^2
        # overflows inside the window, or t and eta^2 ~ t lose bits): it
        # is refused with one error line and no warning
        path = tmp_path / "report"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["verify-cylinder", "--m", "2", *flags,
                             "--out", str(path)]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "error: t must be in [1e-300, 1e+300] (at theta=0.0, m=2, "
            f"{where})\n")
        assert not path.exists()

    def test_identities_overflow_before_table(self, capsys):
        # the d2 identity multiplies sinh^2 cosh^(m-1), which leaves the
        # float range near |theta| = 710/(m+1), before the table does
        assert run(capsys, "table", "--m", "2", "--theta", "300")[0] == 0
        code = cli.main(["verify-identities", "--m", "2", "--theta", "300"])
        assert code == 2
        assert "theta=300.0, m=2" in capsys.readouterr().err

    def test_identities_names_first_failure_theta_major(self, tmp_path,
                                                          capsys):
        # theta=70 fails at m=12 and theta=240 at every m: the first
        # failing point in theta-major order is named
        path = tmp_path / "report"
        code = cli.main(["verify-identities", "--m", "2,12", "--theta",
                         "70,240", "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "theta=70.0, m=12" in err
        assert not path.exists()

    @pytest.mark.parametrize("s", ("-0.95", "-0.99"))
    def test_cylinder_s_below_rule_domain_exit_2(self, tmp_path, capsys, s):
        # the t-integral converges for s > -1, but below -0.9 the exp-sinh
        # rule drops a head at t=0 its estimate does not see: refused
        path = tmp_path / "report"
        code = cli.main(["verify-cylinder", "--m", "2", "--theta", "0.4",
                         "--omega", "1.3", "--t", "0.25", f"--s={s}",
                         "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: need s > -0.9")
        assert f"theta=0.4, s={float(s)}, omega=1.3" in err
        assert not path.exists()


class TestVerifyCommands:
    def test_identities_pass(self, capsys):
        code, out = run(capsys, "verify-identities", "--m", "2,4,6,8",
                        "--theta", "-2:2:0.25")
        assert code == 0
        assert "False" not in out

    def test_identities_tol_failure_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "IDENTITY_TOL", 1e-30)
        code, out = run(capsys, "verify-identities", "--m", "2",
                        "--theta", "0.5")
        assert code == 1
        assert "False" in out  # report still written

    def test_identities_c7_row_needs_m_from_4(self, capsys):
        # the c7 quotient is skipped at m = 2, so no row reports it
        code, out = run(capsys, "verify-identities", "--m", "2",
                        "--theta", "0.5")
        assert code == 0
        assert "c7_relation" not in out
        code, out = run(capsys, "verify-identities", "--m", "2,4",
                        "--theta", "0.5")
        assert code == 0
        assert "c7_relation" in out

    def test_identities_subnormal_theta(self, capsys):
        # the Euler integral is its series at tiny |theta|, so a subnormal
        # angle passes like theta = 0
        for theta in ("5e-324", "-1e-310"):
            code, out = run(capsys, "verify-identities", "--m", "2,4",
                            "--theta", theta)
            assert code == 0
            assert "False" not in out

    def test_identities_whole_theta_line(self, capsys):
        code, out = run(capsys, "verify-identities", "--m", "2,4,6,8,10,12",
                        "--theta", "-40:40:2.5")
        assert code == 0
        assert "False" not in out

    def test_cylinder_large_theta(self, capsys):
        # Pi+ Pi+* grows like cosh^2 theta and the t-integral closed form
        # takes its 2F1 from Euler's integral
        code, out = run(capsys, "verify-cylinder", "--m", "2,4,6,8,10,12",
                        "--theta", "-4.5,4,4.5")
        assert code == 0
        assert "False" not in out

    def test_cylinder_very_large_theta_positive_omega(self, capsys):
        # on the scale t omega^2 / cosh^2 theta the t-integral stays a
        # unit-scale integral for omega > 0 as theta grows
        code, out = run(capsys, "verify-cylinder", "--m", "2,4,6,8,10,12",
                        "--theta", "5,6,8,10,20,30", "--omega", "0.5,1.3,2.0",
                        "--s", "1.5,2.5", "--format", "json")
        assert code == 0
        rows = [r for r in json.loads(out) if "t_integral_residual" in r]
        assert len(rows) == 36
        assert max(r["t_integral_residual"] for r in rows) <= 1.2e-15

    def test_cylinder_csv_header(self, capsys):
        code, out = run(capsys, "verify-cylinder", "--m", "2",
                        "--theta", "0.7", "--omega", "1.3", "--t", "0.25",
                        "--s", "2.5")
        assert code == 0
        assert out.splitlines()[0] == \
            "m,omega,theta,t,U1_residual,U1_err,U2_residual,U2_err,pass," \
            "s,t_integral_residual,t_integral_err"

    def test_cylinder_pass(self, capsys):
        code, out = run(capsys, "verify-cylinder", "--m", "2",
                        "--theta", "0,0.7", "--omega", "1.3",
                        "--t", "0.25", "--s", "2.5")
        assert code == 0

    def test_cylinder_every_m(self, capsys):
        # a U row is the same at every m but for its m column
        code, out = run(capsys, "verify-cylinder", "--m", "2,4,6,8,10,12",
                        "--theta", "-1.2,0.7", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r.pop("m") for r in rows if "m" in r] == \
            [m for m in (2, 4, 6, 8, 10, 12) for _ in range(12)]
        assert rows[:72] == rows[:12] * 6
        assert sum("t_integral_residual" in r for r in rows) == 12

    def test_cylinder_checks_each_u_row_once(self, capsys, monkeypatch):
        # 12 distinct (omega, theta, t), each checked once and written
        # under all six m
        calls = []
        check = cylinder.check_U_integrals

        def spy(*args):
            calls.append(args)
            return check(*args)
        monkeypatch.setattr(cylinder, "check_U_integrals", spy)
        code, out = run(capsys, "verify-cylinder", "--m", "2,4,6,8,10,12",
                        "--theta", "-1.2,0.7", "--format", "json")
        assert code == 0
        assert len(calls) == len(set(calls)) == 12
        assert len(json.loads(out)) == 72 + 12

    def test_ball_report_alike_cold_or_warm(self, tmp_path):
        # the tables ball_spectrum keeps across requests change no byte:
        # theta = 0.5 alone from empty caches, and after theta = 2
        def clear():
            for value in vars(ball_spectrum).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

        def report(theta):
            path = tmp_path / f"{theta}.json"
            assert cli.main(["verify-ball", "--m", "2", "--theta", theta,
                             "--format", "json", "--out", str(path)]) == 0
            return path.read_bytes()
        clear()
        cold = report("0.5")
        clear()
        report("2")
        assert report("0.5") == cold

    def test_cylinder_large_omega_tanh_theta(self, capsys):
        # b = omega tanh theta up to ~30: the boundary scalar grows like
        # e^{t b^2} near x = 0, to ~1e26, and each U residual, scaled by its
        # right side, is still within bounds
        code, out = run(capsys, "verify-cylinder", "--m", "2", "--theta",
                        "3", "--omega", "12,16,20,30", "--t", "0.1", "--s",
                        "1.5", "--format", "json")
        assert code == 0
        assert max(r["U2_err"] for r in json.loads(out)[:4]) < 1e-13

    def test_cylinder_u2_tolerance_failure_exit_1(self, tmp_path,
                                                  monkeypatch):
        # a tolerance failure, with the report written
        monkeypatch.setattr(cli, "CYLINDER_TOL", 1e-30)
        path = tmp_path / "report"
        assert cli.main(["verify-cylinder", "--format", "json",
                         "--out", str(path)]) == 1
        assert json.loads(path.read_text())[0]["pass"] is False

    def test_ball_pass(self, capsys, monkeypatch):
        # the flags are the only cutoff settings: the environment is ignored
        monkeypatch.setenv("CHIRALBAG_MU_MAX", "1")
        code, out = run(capsys, "verify-ball", "--m", "2",
                        "--theta", "0.5")
        assert code == 0
        assert "0.113105566753" in out  # closed-form a1 at 12 digits

    def test_ball_fit_residual_to_three_digits(self, capsys):
        # the rms misfit is written to the 3 significant digits it holds
        # (m = 8, theta = 3 fails its a2 check: exit 1, report written)
        code, out = run(capsys, "verify-ball", "--m", "2,8", "--theta",
                        "0.5,3", "--format", "json")
        assert code == 1
        for row in json.loads(out):
            values, _ = ball_spectrum.heat_trace(row["theta"], row["m"],
                                                 ball_spectrum.T_GRID)
            fit = ball_spectrum.fit_heat_coefficients(ball_spectrum.T_GRID,
                                                      values, row["m"])
            assert row["fit_residual"] == float(f"{fit.residual:.3g}")

    def test_ball_large_theta(self, capsys):
        # the small-ratio family has roots near 2(p+1)e^-|theta|, far below
        # p, in thousands of angular levels
        code, out = run(capsys, "verify-ball", "--m", "2",
                        "--theta", "-6,-4,-3,3,4,6", "--format", "json")
        assert code == 0
        row = json.loads(out)[4]
        assert row["theta"] == 4.0
        assert abs(row["a1_fit"] / row["a1_closed"] - 1.0) < 1e-4

    def test_ball_one_spectrum_per_row(self, capsys, monkeypatch):
        # each row solves its spectrum once, and a repeated row solves it
        # again: nothing is cached between rows
        solved = []
        roots = ball_spectrum._roots

        def spy(levels, ratios, theta, *cutoffs):
            solved.append(theta)
            return roots(levels, ratios, theta, *cutoffs)
        monkeypatch.setattr(ball_spectrum, "_roots", spy)
        code, _ = run(capsys, "verify-ball", "--m", "2",
                      "--theta", "0.5,0.5")
        assert code == 0
        assert solved == [0.5, 0.5]

    def test_ball_solves_only_the_roots_the_trace_reads(self, capsys,
                                                         monkeypatch):
        # brackets passed to the solve by one row, against the spectrum to
        # the default mu_max: the count repeats exactly
        solve, brackets = ball_spectrum._solve, []

        def spy(p, *args):
            brackets.append(p.size)
            return solve(p, *args)
        monkeypatch.setattr(ball_spectrum, "_solve", spy)
        assert run(capsys, "verify-ball", "--m", "2", "--theta", "1.3")[0] \
            == 0
        row = sum(brackets)
        brackets.clear()
        ball_spectrum.spectrum(1.3, 2, 100.0)
        assert row <= 0.35 * sum(brackets)

    def test_ball_mu_max_past_the_cutoff(self, tmp_path, capsys):
        # the solve bound comes from the t-grid alone: a --mu-max, past the
        # solve cutoff or not, is an unrecognized argument
        for mu_max in ("100", "1000"):
            path = tmp_path / mu_max
            assert cli.main(["verify-ball", "--m", "2", "--theta", "0.5",
                             "--mu-max", mu_max, "--out", str(path)]) == 2
            assert (f"unrecognized arguments: --mu-max {mu_max}"
                    in capsys.readouterr().err)
            assert not path.exists()

    def test_ball_insufficient_cutoff_exit_2(self, tmp_path, capsys,
                                             monkeypatch):
        # a truncation bound that is not a number ends the solve and fails
        # the final check, at the smallest t, where the one bound is taken
        cutoff = ball_spectrum._solve_cutoff(0.5, 2, 0.02)
        monkeypatch.setattr(ball_spectrum, "_solve_cutoff",
                            lambda theta, m, t: cutoff)
        monkeypatch.setattr(ball_spectrum, "_truncation_bound",
                            lambda *args: np.array(math.nan))
        path = tmp_path / "report"
        code = cli.main(["verify-ball", "--m", "2", "--theta", "0.5",
                         "--out", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: truncation bound nan too large for trace "
            "2.562988e+01 at t=0.02 (at theta=0.5, m=2)\n")
        assert not path.exists()

    def test_ball_root_solve_failed_exit_2(self, tmp_path, capsys,
                                           monkeypatch):
        path = tmp_path / "report"
        monkeypatch.setattr(ball_spectrum, "ROOT_RTOL", 1e-18)
        code = cli.main(["verify-ball", "--m", "2", "--theta", "0.5",
                         "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "root solve failed" in err and "theta=0.5, m=2" in err
        assert not path.exists()

    def test_ball_underflowing_t_exit_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "report"
        monkeypatch.setattr(ball_spectrum, "T_GRID",
                            np.append(ball_spectrum.T_GRID, 1e6))
        code = cli.main(["verify-ball", "--m", "2", "--theta", "0.5",
                         "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "underflows at t=1000000.0" in err and "theta=0.5, m=2" in err
        assert not path.exists()

    def test_ball_too_many_levels_exit_2(self, tmp_path, capsys):
        # past |theta| ~ 10.5 at m = 2 (~10.0 at m = 12) a spectrum to the
        # solve cutoff has more than MAX_LEVELS levels; at 12 no cutoff
        # within that many is enough
        path = tmp_path / "report"
        for theta in ("11", "-11", "12"):
            code = cli.main(["verify-ball", "--m", "2", "--theta", theta,
                             "--out", str(path)])
            assert code == 2
            assert f"theta={float(theta)}, m=2" in capsys.readouterr().err
            assert not path.exists()

    @pytest.mark.parametrize("m", (2, 12))
    @pytest.mark.parametrize("theta", ("11", "13", "30", "100", "700", "800",
                                       "-800"))
    def test_ball_past_the_level_limit_one_refusal(self, tmp_path, capsys,
                                                   theta, m):
        # every theta past the level-limit edge ends in the one level-limit
        # line, with exit 2, no report, no warning and no traceback: where
        # level counts pass the int64 range (theta = 100, 700), where
        # e^-|theta| underflows (800), and where the level terms still rise
        # at the limit (theta = 13 and 30 at m = 12)
        path = tmp_path / "report"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["verify-ball", "--m", str(m), "--theta=" + theta,
                             "--out", str(path)])
        assert code == 2
        assert re.fullmatch(
            r"error: \S+ angular levels below mu_max=\S+, over 1000000 "
            rf"\(at theta={float(theta)}, m={m}\)\n",
            capsys.readouterr().err)
        assert not path.exists()

    def test_ball_mu_max_too_many_levels_exit_2(self, tmp_path, capsys):
        # the level limit counts the levels below the solve cutoff, the
        # spectrum's mu_max: the first cutoff the search tries past the
        # limit, where it stops
        path = tmp_path / "report"
        code = cli.main(["verify-ball", "--m", "2", "--theta", "11",
                         "--out", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: 1.01e+06 angular levels below mu_max=33.75, over "
            "1000000 (at theta=11.0, m=2)\n")
        assert not path.exists()


@pytest.mark.parametrize("argv", [
    ("table", "--m", "2,4", "--theta", "0,1"),
    ("verify-identities", "--m", "2,4", "--theta", "0,0.5"),
    ("verify-cylinder", "--m", "2", "--theta", "0.4", "--omega", "1.3",
     "--t", "0.25", "--s", "2.5"),
], ids=lambda argv: argv[0])
def test_csv_matches_json(capsys, argv):
    _, text = run(capsys, *argv)
    _, js = run(capsys, *argv, "--format", "json")
    reader = csv.DictReader(io.StringIO(text))
    rows = json.loads(js)
    assert reader.fieldnames == list(dict.fromkeys(k for r in rows
                                                   for k in r))
    cells = list(reader)
    assert len(cells) == len(rows)
    for cell, row in zip(cells, rows):
        for key, got in cell.items():
            if key not in row:
                assert got == ""
            elif isinstance(row[key], float):
                assert float(got) == row[key]
            else:
                assert got == str(row[key])


def _reference_json(rows: list[dict]) -> str:
    """The JSON report as the pure-Python indenting encoder writes it."""
    return json.dumps([{k: (float(cli._fmt(v))
                            if isinstance(v, (float, np.floating)) else v)
                        for k, v in r.items()} for r in rows],
                      indent=2) + "\n"


class TestJsonWriter:
    # the C-encoded writer must give json.dumps(indent=2)'s bytes
    def test_edge_values(self):
        rows = [{"theta": 0.0, "m": 2, "neg_zero": -0.0,
                 "np_neg_zero": np.float64(-0.0), "np": np.float64(1 / 3),
                 "nan": math.nan, "inf": math.inf, "ninf": -math.inf,
                 "tiny": 5e-324, "small": 1e-5, "big": 1e16,
                 "long": 123456789012.5, "int": -7, "yes": True,
                 "no": False},
                {"identity": "alternate_forms", "max_residual": 2.5e-14,
                 "pass": True},
                {"identity": 'quote " and \\ and \u00e9', "pass": False},
                {}]
        for some in (rows, rows[:1], rows[3:]):
            assert cli._report_text(some, "json") == _reference_json(some)

    def test_empty(self):
        assert cli._report_text([], "json") == _reference_json([]) == "[]\n"

    def test_numpy_floats_write_as_floats(self):
        # np.float64 is a float: a row of them writes the bytes of the same
        # row of Python floats, in both formats
        values = [0.0, -0.0, 7.0, math.nan, math.inf, -math.inf, 1.5e12,
                  -2.5e13, 3.5e14, 4.5e15, 5e-324, 1 / 3]
        floats = {"m": 2, **{f"v{k}": v for k, v in enumerate(values)}}
        numpy = {k: np.float64(v) if k != "m" else v
                 for k, v in floats.items()}
        assert all(type(v) is np.float64 for k, v in numpy.items()
                   if k != "m")
        for fmt in ("json", "csv"):
            assert cli._report_text([numpy], fmt) == cli._report_text(
                [floats], fmt)

    def test_cylinder_rows_with_mixed_keys(self):
        args = cli.build_parser().parse_args(
            ["verify-cylinder", "--m", "2,4", "--theta", "0,-0.4",
             "--omega", "1.3", "--t", "0.25", "--s", "2.5"])
        rows = args.func(args)
        assert {"U1_residual", "t_integral_residual"} <= {
            k for r in rows for k in r}
        assert cli._report_text(rows, "json") == _reference_json(rows)

    def test_float_sweep(self):
        # every exponent, both signs, subnormals, nan and inf payloads
        rng = random.Random("json-writer")
        values = [struct.unpack("<d", rng.getrandbits(64).to_bytes(
            8, "little"))[0] for _ in range(10 ** 4)]
        rows = [{f"v{k}": v for k, v in enumerate(values[i:i + 16])}
                for i in range(0, len(values), 16)]
        assert cli._report_text(rows, "json") == _reference_json(rows)

    @pytest.mark.parametrize("argv", [
        # c1 runs through 1e12..1.5e15, where repr writes positionally
        ("table", "--m", "12", "--theta", "3.2:4:0.01"),
        ("verify-identities",),
        ("verify-ball", "--m", "2", "--theta", "0.7"),
    ], ids=lambda argv: argv[0])
    def test_whole_report(self, capsys, argv):
        args = cli.build_parser().parse_args([*argv, "--format", "json"])
        rows = args.func(args)
        code, text = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert text == _reference_json(rows)
        if argv[0] == "table":
            c1 = [r["c1"] for r in rows]
            assert min(c1) < 1e12 and 1e15 < max(c1) < 1e16


# a cheap command line for each subcommand
COMMANDS = {
    "coeffs": ("--m", "2", "--theta", "0.5"),
    "table": ("--m", "2", "--theta", "0.5"),
    "verify-ball": ("--m", "2", "--theta", "0.5"),
    "verify-cylinder": ("--m", "2", "--theta", "0.5", "--omega", "1.3",
                        "--t", "0.25", "--s", "2.5"),
    "verify-identities": ("--m", "2", "--theta", "0.5"),
}


class _ReadLog(argparse.Namespace):
    """Parsed arguments that record which of them a handler reads."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.__dict__["_read"] = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


class TestFlags:
    def test_every_command_listed(self):
        ap = cli.build_parser()
        sub = next(a for a in ap._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(COMMANDS)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_flag_is_read(self, tmp_path, monkeypatch, command):
        # main runs on arguments that log their reads, so a flag read by
        # neither the handler nor main's writer fails the test
        argv = [command, *COMMANDS[command], "--out", str(tmp_path / "r")]
        args = cli.build_parser().parse_args(argv)
        flags = set(vars(args)) - {"command", "func"}
        log = _ReadLog(**vars(args))
        # main parses every line by _parse, whichever way that one takes
        monkeypatch.setattr(cli, "_parse", lambda argv: log)
        assert cli.main(argv) == 0
        assert flags <= log._read, flags - log._read

    def test_verify_ball_flags(self):
        args = cli.build_parser().parse_args(["verify-ball"])
        assert set(vars(args)) - {"command", "func"} == {
            "m", "theta", "format", "out"}

    def test_coeffs_has_no_format(self, capsys):
        assert cli.main(["coeffs", "--format", "json"]) == 2

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    @pytest.mark.parametrize("command,flag,text", (
        ("coeffs", "--theta", "{}"),
        ("table", "--theta", "0,{}"),
        ("table", "--theta", "0:{}:1"),
        ("table", "--theta", "0:1:{}"),
        ("verify-ball", "--theta", "{}"),
        ("verify-cylinder", "--theta", "{}"),
        ("verify-cylinder", "--omega", "1,{}"),
        ("verify-cylinder", "--t", "{}"),
        ("verify-cylinder", "--s", "{}")))
    def test_non_finite_exit_2(self, tmp_path, capsys, command, flag, text,
                               value):
        path = tmp_path / "report"
        code = cli.main([command, *COMMANDS[command],
                         f"{flag}={text.format(value)}", "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid" in err and value in err
        assert not path.exists()


# a bad value of each flag's type, each given to every command: a command
# without the flag reports it as unrecognized
BAD_FLAGS = (("--m", "3"), ("--theta", "0:1"), ("--format", "xml"),
             ("--mu-max", "abc"), ("--omega", "1,abc"), ("--t", "nan"),
             ("--s", "x"), ("--out",))


def _parsed_by_reference(argv) -> tuple:
    """Exit code, stdout and stderr of the parser's own parse_args on argv,
    None for the code where it parses."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.build_parser().parse_args(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code in (0, None) else 2
    return code, out.getvalue(), err.getvalue()


class TestDispatch:
    """main parses a command's arguments by the one pass or with that
    command's parser alone; every message and exit code is the one
    parse_args of the whole parser gives."""

    @pytest.mark.parametrize("argv", (
        pytest.param((), id="no-command"),
        pytest.param(("frobnicate", "--m", "2"), id="unknown-command"),
        pytest.param(("--help",), id="help"),
        pytest.param(("--m", "2", "table"), id="leading-option")))
    def test_without_a_command(self, capsys, argv):
        want = _parsed_by_reference(argv)
        assert want[0] is not None
        assert (cli.main(list(argv)), *capsys.readouterr()) == want

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("extra", (
        ("--help",), ("unexpected",), ("--m", "2", "x", "--y=1"),
        *BAD_FLAGS), ids=" ".join)
    def test_command(self, capsys, command, extra):
        argv = (command, *COMMANDS[command], *extra)
        want = _parsed_by_reference(argv)
        assert want[0] is not None
        assert (cli.main(list(argv)), *capsys.readouterr()) == want


class TestParserCache:
    @pytest.fixture
    def fresh_cache(self):
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def test_built_once(self, monkeypatch, capsys, fresh_cache):
        # each run of the body adds the subcommands once
        built = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def spy(self, *args, **kwargs):
            built.append(self)
            return add_subparsers(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", spy)
        for _ in range(3):
            assert run(capsys, "table", *COMMANDS["table"])[0] == 0
            assert run(capsys, "table", "--m", "3")[0] == 2
        assert len(built) == 1

    def test_calls_do_not_leak(self, tmp_path, capsys, monkeypatch):
        # a flag given to one call leaves the defaults of the next as they
        # were: its report equals that of a freshly built parser
        first, second, fresh = (tmp_path / name for name in "abc")
        assert cli.main(["verify-cylinder", "--omega", "1.0",
                         "--out", str(first)]) == 0
        assert cli.main(["verify-cylinder", "--out", str(second)]) == 0
        # an argparse error after a successful call is still exit 2
        assert cli.main(["verify-cylinder", "--m", "3"]) == 2
        assert "argument --m: invalid" in capsys.readouterr().err
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.main(["verify-cylinder", "--out", str(fresh)]) == 0
        assert second.read_text() == fresh.read_text()
        assert first.read_text() != second.read_text()


def test_python_m_chiralbag(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["chiralbag", "table", "--theta", "0.5"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("chiralbag", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("theta,m,c1,")


def _readme_commands() -> list[list[str]]:
    """The `chiralbag ...` lines of the README Command line block."""
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```", 2)[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("chiralbag ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda a: a[0])
def test_readme_command_line(capsys, argv):
    assert cli.main(argv) == 0


class TestOnePass:
    """main parses a line of exact --flag=value and --flag value tokens in
    one pass over the command's flags, and leaves every other line, with
    all help and error messages, to argparse."""

    # one line of each shape a benchmark request has
    SHAPES = (
        ("table", "--m", "2,4,6,8,10,12", "--theta=0.5,-1.25,2.75,-3.5",
         "--format", "json"),
        ("verify-identities", "--m", "2,4,6,8,10,12",
         "--theta=-0.25,1.5,-2.75,3.5", "--format", "json"),
        ("verify-ball", "--m", "2", "--theta=-1.25", "--format", "json"),
        ("verify-cylinder", "--m", "6", "--theta=-1.5",
         "--omega=0.5,-1.3,2.0", "--t=0.25", "--s=2.5", "--format", "json"))

    @pytest.fixture
    def calls(self, monkeypatch):
        """The argv of every parse_known_args call of a parser."""
        cli.build_parser()  # whose build parses each command once
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def spy(self, args=None, namespace=None):
            calls.append(args)
            return parse(self, args, namespace)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        return calls

    @pytest.mark.parametrize("argv", SHAPES, ids=lambda a: a[0])
    def test_benchmark_lines_skip_argparse(self, tmp_path, calls, argv):
        path = tmp_path / "report.json"
        assert cli.main([*argv, "--out", str(path)]) == 0
        assert calls == []
        assert path.read_text().startswith("[")

    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda a: a[0])
    def test_readme_lines_skip_argparse(self, capsys, calls, argv):
        assert cli.main(argv) == 0
        assert calls == []

    @pytest.mark.parametrize("argv", (
        ("--help",), ("table", "--help"), ("table", "--th", "0.5"),
        *((command, *COMMANDS[command], *bad) for command in COMMANDS
          for bad in BAD_FLAGS)), ids=" ".join)
    def test_argparse_parses_the_rest(self, capsys, calls, argv):
        cli.main(list(argv))
        assert calls


def _flags(command: str) -> set[str]:
    """The long option strings of a command, --help included."""
    return {opt for a in cli.build_parser().commands[command]._actions
            for opt in a.option_strings if opt.startswith("--")}


# values each flag parses, and values some flag refuses or argparse reads
# in its own way ("--", a value that looks like an option, a missing one)
GOOD_VALUES = {"--m": ("2", "4", "2,4", "4,2,2"),
               "--theta": ("0.5", "-1", "-.5:1:.5", "-1:1:0.5", "0,-2",
                           "1e-3", "-.5,-1"),
               "--format": ("csv", "json"), "--out": ("report", ""),
               "--omega": ("1.3", "-0.5", "0.5,2"), "--t": ("0.25", "0.1"),
               "--s": ("2.5", "1.5")}
BAD_VALUES = ("3", "14", "x", "", " ", "nan", "-inf", "1,abc", "0:1",
              "0:1:-0.5", "0:1:1e-12", "1e400", "xml", "text", "-", "--",
              "--m", "--theta=1", "-x", "-h", "1 2")
NAMES = sorted(set().union(*map(_flags, COMMANDS)))
# proper prefixes of the flags, some an exact flag of another command, and
# flags no command takes
OTHER_NAMES = sorted({f[:k] for f in NAMES for k in range(3, len(f))}
                     - set(NAMES)) + ["--mu-max", "--bogus", "-h"]
STRAYS = ("-h", "--help", "unexpected", "--", "-x", "5", "-5")


@st.composite
def _command_lines(draw):
    """A command and up to five items, each in the --flag=value or the
    --flag value form: mostly a flag of its own with a value it parses,
    else a flag of its own or any flag, abbreviated or unknown, with any
    value, or a stray token; then, at times, a flag with no value."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    own = sorted(set(GOOD_VALUES) & _flags(command))
    any_value = sorted({v for vs in GOOD_VALUES.values() for v in vs}
                       | set(BAD_VALUES))
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 9))
        if kind == 9:
            argv.append(draw(st.sampled_from(STRAYS)))
            continue
        name = draw(st.sampled_from(own if kind < 8 else NAMES + OTHER_NAMES))
        value = draw(st.sampled_from(GOOD_VALUES[name] if kind < 6
                                     else any_value))
        if draw(st.booleans()):
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(st.sampled_from(NAMES + OTHER_NAMES)))
    return argv


def _main_in(where: Path, argv) -> tuple:
    """Exit code, stdout, stderr and the bytes of every file main writes,
    run in the empty directory where, which it leaves empty."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes() for p in where.iterdir()}
    for p in where.iterdir():
        p.unlink()
    return code, out.getvalue(), err.getvalue(), files


class TestOnePassProperty:
    @seed(2005)
    @settings(max_examples=500, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_command_lines())
    # values argparse reads in its own way: "--" it drops, a negative one
    # _merge_negative_values joins to its flag, an empty one, one that looks
    # like an option
    @example(argv=["table", "--out=--"])
    @example(argv=["coeffs", "--out", "-x"])
    @example(argv=["table", "--out", "--m", "2"])
    @example(argv=["verify-cylinder", "--theta=--", "--format", "json"])
    @example(argv=["table", "--theta", "-.5:1:.5", "--m", "4,2"])
    @example(argv=["verify-cylinder", "--t", "-1", "--s", "-.5"])
    @example(argv=["table", "--theta", "-", "--out="])
    def test_as_argparse(self, argv):
        parser = cli.build_parser().commands[argv[0]]
        args = cli._one_pass(parser, argv[1:])
        if args is not None:
            # what the pass takes, argparse parses whole to the same
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    want, extra = parser.parse_known_args(
                        cli._merge_negative_values(argv[1:]))
                except SystemExit:
                    pytest.fail(f"argparse refuses {argv}: {err.getvalue()}")
            assert extra == []
            assert vars(args) == vars(want)
        with tempfile.TemporaryDirectory() as where:
            got = _main_in(Path(where), argv)
            with unittest.mock.patch.object(cli, "_one_pass",
                                            lambda parser, argv: None):
                want = _main_in(Path(where), argv)
        assert got == want


class TestErrors:
    def test_bad_m_exit_2(self, tmp_path, capsys):
        path = tmp_path / "report"
        code = cli.main(["table", "--m", "3", "--theta", "0",
                         "--out", str(path)])
        assert code == 2
        assert "argument --m: invalid m 3: must be even in [2, 12]" in \
            capsys.readouterr().err
        assert not path.exists()

    def test_bad_theta_exit_2(self, tmp_path, capsys):
        path = tmp_path / "report"
        for text, reason in (("0:1", "not start:stop:step"),
                             ("0:1:-0.5", "step must be positive"),
                             ("nan", "'nan': not a finite number")):
            code = cli.main(["table", "--m", "2", f"--theta={text}",
                             "--out", str(path)])
            assert code == 2
            assert reason in capsys.readouterr().err
            assert not path.exists()

    @pytest.mark.parametrize("argv,reason", (
        (("table", "--m", "x"), "argument --m: invalid m list 'x'"),
        (("table", "--theta", "abc"),
         "argument --theta: invalid value 'abc': not a number"),
        (("verify-cylinder", "--omega", "1,abc"),
         "argument --omega: invalid value 'abc': not a number")))
    def test_non_numeric_exit_2(self, tmp_path, capsys, argv, reason):
        # the bad value is named, not the parser function
        path = tmp_path / "report"
        assert cli.main([*argv, "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert reason in err and "_parse" not in err and "_finite" not in err
        assert not path.exists()

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in sorted(COMMANDS)
        for flag in sorted(_flags(command) - {"--help"})])
    def test_double_dash_value_exit_2(self, tmp_path, command, flag):
        # --flag=-- is --flag --: a flag with no value, refused with the
        # command's usage and one error naming it; nothing is written,
        # neither to stdout nor to a file
        out = [] if flag == "--out" else ["--out", "report"]
        argv = [command, *COMMANDS[command]]
        got = _main_in(tmp_path, [*argv, f"{flag}=--", *out])
        assert got == _main_in(tmp_path, [*argv, flag, "--", *out])
        code, stdout, stderr, files = got
        assert (code, stdout, files) == (2, "", {})
        assert stderr.startswith(f"usage: chiralbag {command} ")
        assert stderr.endswith(f"\nchiralbag {command}: error: argument "
                               f"{flag}: expected one argument\n")

    def test_unknown_command_exit_2(self, capsys):
        code = cli.main(["frobnicate"])
        assert code == 2


class TestContract:
    """Each command returns rows; _each names the point a numerical failure
    happens at, and main alone writes the report and sets the exit code."""

    @pytest.mark.parametrize("argv", (
        pytest.param(("--theta", "22", "--omega", "-1.7"), id="cancel-22"),
        pytest.param(("--theta", "30", "--omega", "-1.7"), id="cancel-30"),
        pytest.param(("--theta", "3", "--omega", "1e-200"),
                     id="underflow-3"),
        pytest.param(("--omega", "1e-320"), id="underflow-0")))
    def test_t_integral_zero_division_exit_2(self, tmp_path, capsys, argv):
        # the closed form cancels to 0 or omega^2 underflows: a division by
        # zero in check_t_integral, reported at its point
        path = tmp_path / "report"
        argv = ["verify-cylinder", "--m", "2", "--s", "2.5", *argv,
                "--out", str(path)]
        code = cli.main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ZeroDivisionError at theta=")
        assert "s=2.5" in err
        assert not path.exists()

    @pytest.mark.parametrize("where", ("missing", "directory"))
    def test_unwritable_out_exit_2(self, tmp_path, capsys, where):
        path = tmp_path / "no" / "r" if where == "missing" else tmp_path
        assert cli.main(["table", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("command,module,name,where", (
        ("table", cli, "universal_constants", "theta=0.5, m=4"),
        ("coeffs", cli, "universal_constants", "theta=0.5, m=4"),
        ("verify-ball", ball_spectrum, "heat_trace", "theta=0.5, m=4"),
        ("verify-cylinder", cylinder, "check_U_integrals", "theta=0.5, m=4"),
        ("verify-cylinder", cylinder, "check_t_integral",
         "theta=0.5, s=2.5")), ids=("table", "coeffs", "verify-ball",
                                    "verify-cylinder-U", "verify-cylinder-t"))
    def test_division_by_zero_names_point(self, tmp_path, capsys,
                                          monkeypatch, command, module, name,
                                          where):
        def fail(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")
        monkeypatch.setattr(module, name, fail)
        path = tmp_path / "report"
        argv = [command, "--m", "4", "--theta", "0.5", "--out", str(path)]
        if command == "verify-cylinder":
            argv += ["--omega", "1.3", "--t", "0.25", "--s", "2.5"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ZeroDivisionError at {where}")
        assert not path.exists()

    @pytest.mark.parametrize("flags,flag,value", (
        (("--t", "0"), "t", "0.0"),
        (("--t", "-0.1"), "t", "-0.1"),
        (("--s", "-1"), "s", "-1.0"),
        (("--omega", "0"), "omega", "0.0"),
        (("--theta", "0.3", "--omega", "1e149", "--t", "1e-300", "--s",
          "1.5"), "t", "1e-300")),
        ids=("t-zero", "t-negative", "s-negative", "omega-zero", "tail"))
    def test_flag_domain_error_names_point(self, tmp_path, capsys, flags,
                                           flag, value):
        # a value outside a check's domain is a configuration error,
        # reported after its message at the point, theta first
        path = tmp_path / "report"
        code = cli.main(["verify-cylinder", "--m", "2", *flags,
                         "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(")\n")
        where = err[err.rindex("(at ") + 4:-2].split(", ")
        point = dict(kv.split("=") for kv in where)
        theta = flags[flags.index("--theta") + 1] if "--theta" in flags \
            else "0"
        assert where[0] == f"theta={float(theta)}"
        assert point[flag] == value
        assert not path.exists()

    @staticmethod
    def _sweep_cases():
        """(omega, theta, s) over omega in +-[1e-300, 1e3], theta in
        [-30, 30] and s in [0.5, 3]: every corner, then 64 seeded draws
        with log-uniform |omega|."""
        corners = [(sign * mag, theta, s) for sign in (-1.0, 1.0)
                   for mag in (1e-300, 1e3) for theta in (-30.0, 30.0)
                   for s in (0.5, 3.0)]
        rng = random.Random(2005)
        return corners + [(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(
            -300.0, 3.0), rng.uniform(-30.0, 30.0), rng.uniform(0.5, 3.0))
            for _ in range(64)]

    def test_cylinder_sweep_exit_code(self, tmp_path):
        # no value warns either: pyproject makes a RuntimeWarning an error
        path = tmp_path / "report"
        for omega, theta, s in self._sweep_cases():
            path.unlink(missing_ok=True)
            code = cli.main(["verify-cylinder", "--m", "2",
                             f"--omega={omega!r}", f"--theta={theta!r}",
                             f"--s={s!r}", "--out", str(path)])
            assert code in (0, 1, 2), (omega, theta, s)
            assert path.exists() == (code != 2), (omega, theta, s, code)


def test_readme_flags_match_parser():
    # every flag the Command line section names exists, and every flag
    # some command takes is named there
    text = README.read_text().split("## Command line", 1)[1]
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {opt for p in sub.choices.values() for a in p._actions
             for opt in a.option_strings if opt.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", text)) == flags - {"--help"}

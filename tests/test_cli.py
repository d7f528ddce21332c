import argparse
import csv
import io
import json
import math
import shlex
from pathlib import Path

import pytest
from scipy import integrate

from chiralbag import ball_spectrum, cli, coefficients

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
        with pytest.raises(ValueError):
            cli._parse_theta("0:1")
        with pytest.raises(ValueError):
            cli._parse_theta("")
        with pytest.raises(ValueError):
            cli._parse_theta("0:1:-0.5")
        with pytest.raises(ValueError):  # finite ends, too many steps
            cli._parse_theta("0:1e308:1e-308")

    def test_bad_m(self):
        with pytest.raises(ValueError):
            cli._parse_m("3")
        with pytest.raises(ValueError):
            cli._parse_m("14")

    def test_merge_negative_values(self):
        got = cli._merge_negative_values(
            ["verify-identities", "--theta", "-2:2:0.25", "--m", "2"])
        assert got == ["verify-identities", "--theta=-2:2:0.25",
                       "--m", "2"]


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
    EDGES = {2: 709.7, 4: 237.0, 6: 142.4, 8: 101.9, 10: 79.3, 12: 65.0}

    @pytest.mark.parametrize("m", (2, 4, 6, 8, 10, 12))
    def test_against_mpmath(self, m):
        for theta in self.THETAS + (self.EDGES[m], -self.EDGES[m]):
            row = cli._row(theta, m)
            for key, want in _reference_row(theta, m).items():
                scaled = abs(row[key] - want) / max(1, abs(want))
                assert scaled <= 1e-13, (theta, m, key, float(scaled))

    def test_every_2f1_terminates(self, monkeypatch):
        # each hyp2f1 behind a row is a finite sum: a or b is a
        # non-positive integer (m=2 takes theta coth theta instead), and
        # each distinct polynomial is summed once per row
        params = []
        hyp2f1 = coefficients.hyp2f1

        def spy(a, b, c, z):
            params.append((a, b))
            return hyp2f1(a, b, c, z)
        monkeypatch.setattr(coefficients, "hyp2f1", spy)
        for m in (2, 4, 6, 8, 10, 12):
            for theta in (0.0, 0.7, -0.7, 4.0, -4.0):
                params.clear()
                cli._row(theta, m)
                assert len(params) == (3 if m == 2 else 4), (theta, m)
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

    def test_consistency_error_exit_2(self, tmp_path, capsys, monkeypatch):
        # a closed form that disagrees with its general form is a typed
        # numerical failure: exit 2 naming theta and m, no report
        monkeypatch.setattr(coefficients, "CONSISTENCY_TOL", -1.0)
        path = tmp_path / "p"
        code = cli.main(["table", "--m", "4", "--theta", "0.5",
                         "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "theta=0.5, m=4" in err
        assert not path.exists()

    def test_cylinder_t_integral_overflow_names_theta(self, tmp_path, capsys):
        # cosh^(s+1) theta in the t-integral leaves the float range before
        # the U rows' cosh^2 theta does
        path = tmp_path / "report"
        with pytest.warns(integrate.IntegrationWarning):
            code = cli.main(["verify-cylinder", "--m", "2", "--theta", "300",
                             "--s", "2.5", "--out", str(path)])
        assert code == 2
        assert "theta=300.0, s=2.5" in capsys.readouterr().err
        assert not path.exists()

    def test_identities_overflow_before_table(self, capsys):
        # the d2 identity multiplies sinh^2 cosh^(m-1), which leaves the
        # float range near |theta| = 710/(m+1), before the table does
        assert run(capsys, "table", "--m", "2", "--theta", "300")[0] == 0
        code = cli.main(["verify-identities", "--m", "2", "--theta", "300"])
        assert code == 2
        assert "theta=300.0, m=2" in capsys.readouterr().err


class TestVerifyCommands:
    def test_identities_pass(self, capsys):
        code, out = run(capsys, "verify-identities", "--m", "2,4,6,8",
                        "--theta", "-2:2:0.25")
        assert code == 0
        assert "False" not in out

    def test_identities_tol_failure_exit_1(self, capsys):
        code, out = run(capsys, "verify-identities", "--m", "2",
                        "--theta", "0.5", "--tol", "1e-30")
        assert code == 1
        assert "False" in out  # report still written

    def test_identities_whole_theta_line(self, capsys):
        code, out = run(capsys, "verify-identities", "--m", "2,4,6,8,10,12",
                        "--theta", "-40:40:2.5")
        assert code == 0
        assert "False" not in out

    def test_cylinder_large_theta(self, capsys):
        # the projector checks scale with cosh^2 theta and the t-integral
        # closed form takes its 2F1 from Euler's integral
        code, out = run(capsys, "verify-cylinder", "--m", "2,4,6,8,10,12",
                        "--theta", "-4.5,4,4.5")
        assert code == 0
        assert "False" not in out

    def test_cylinder_pass(self, capsys):
        code, out = run(capsys, "verify-cylinder", "--m", "2",
                        "--theta", "0,0.7", "--omega", "1.3",
                        "--t", "0.25", "--s", "2.5")
        assert code == 0

    def test_cylinder_every_m(self, capsys):
        code, out = run(capsys, "verify-cylinder", "--m", "2,4",
                        "--theta", "0.7", "--omega", "1.3", "--t", "0.25",
                        "--s", "2.5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["m"] for r in rows if "U1_residual" in r] == [2, 4]
        assert sum("t_integral_residual" in r for r in rows) == 1

    def test_ball_pass(self, capsys, monkeypatch):
        # the flags are the only cutoff settings: the environment is ignored
        monkeypatch.setenv("CHIRALBAG_MU_MAX", "1")
        code, out = run(capsys, "verify-ball", "--m", "2",
                        "--theta", "0.5")
        assert code == 0
        assert "0.113105566753" in out  # closed-form a1 at 12 digits

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

        def spy(levels, ratios, theta, mu_max):
            solved.append(theta)
            return roots(levels, ratios, theta, mu_max)
        monkeypatch.setattr(ball_spectrum, "_roots", spy)
        code, _ = run(capsys, "verify-ball", "--m", "2",
                      "--theta", "0.5,0.5")
        assert code == 0
        assert solved == [0.5, 0.5]

    def test_ball_too_many_levels_exit_2(self, tmp_path, capsys):
        path = tmp_path / "report"
        code = cli.main(["verify-ball", "--m", "2", "--theta", "10",
                         "--out", str(path)])
        assert code == 2
        assert "theta=10.0, m=2" in capsys.readouterr().err
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
    def test_every_flag_is_read(self, tmp_path, command):
        args = cli.build_parser().parse_args(
            [command, *COMMANDS[command], "--out", str(tmp_path / "r")])
        flags = set(vars(args)) - {"command", "func"}
        log = _ReadLog(**vars(args))
        args.func(log)
        assert flags <= log._read, flags - log._read

    def test_verify_ball_flags(self):
        args = cli.build_parser().parse_args(["verify-ball"])
        assert set(vars(args)) - {"command", "func"} == {
            "m", "theta", "format", "out", "mu_max"}

    def test_coeffs_has_no_format(self, capsys):
        assert cli.main(["coeffs", "--format", "json"]) == 2

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    @pytest.mark.parametrize("command,flag,text", (
        ("coeffs", "--theta", "{}"),
        ("table", "--theta", "0,{}"),
        ("table", "--theta", "0:{}:1"),
        ("table", "--theta", "0:1:{}"),
        ("verify-ball", "--theta", "{}"),
        ("verify-ball", "--mu-max", "{}"),
        ("verify-cylinder", "--theta", "{}"),
        ("verify-cylinder", "--omega", "1,{}"),
        ("verify-cylinder", "--t", "{}"),
        ("verify-cylinder", "--s", "{}"),
        ("verify-cylinder", "--tol", "{}"),
        ("verify-identities", "--tol", "{}")))
    def test_non_finite_exit_2(self, tmp_path, capsys, command, flag, text,
                               value):
        path = tmp_path / "report"
        code = cli.main([command, *COMMANDS[command],
                         f"{flag}={text.format(value)}", "--out", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid" in err and value in err
        assert not path.exists()


def _readme_commands() -> list[list[str]]:
    """The `chiralbag ...` lines of the README Command line block."""
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```", 2)[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("chiralbag ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda a: a[0])
def test_readme_command_line(capsys, argv):
    assert cli.main(argv) == 0


class TestErrors:
    def test_bad_m_exit_2(self, capsys):
        code, _ = run(capsys, "table", "--m", "3", "--theta", "0")
        assert code == 2

    def test_bad_theta_exit_2(self, capsys):
        code, _ = run(capsys, "table", "--m", "2", "--theta", "0:1")
        assert code == 2

    def test_unknown_command_exit_2(self, capsys):
        code = cli.main(["frobnicate"])
        assert code == 2

import json
import math

import pytest

from chiralbag import cli


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

    def test_ball_pass(self, capsys):
        code, out = run(capsys, "verify-ball", "--m", "2",
                        "--theta", "0.5")
        assert code == 0
        assert "0.113105566753" in out  # closed-form a1 at 12 digits


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

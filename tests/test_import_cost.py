"""The command-line module loads no routine it does not run: importing
chiralbag.cli and building its parser leaves scipy.integrate unloaded, and
builds none of the tables ball_spectrum fills on its first solve or fit."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = ("import sys\n"
            "from chiralbag import cli\n"
            "cli.build_parser()\n"
            "print('scipy.integrate' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_cli_import_builds_no_table():
    code = ("from chiralbag import ball_spectrum, cli\n"
            "cli.build_parser()\n"
            "print([f.cache_info().currsize for f in (\n"
            "    ball_spectrum._zero_table, ball_spectrum._node_table,\n"
            "    ball_spectrum._reach_table, ball_spectrum._fit_basis)])\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[0, 0, 0, 0]\n"

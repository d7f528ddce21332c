"""The command-line module loads no routine it does not run: importing
chiralbag.cli and building its parser leaves scipy.integrate unloaded."""

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

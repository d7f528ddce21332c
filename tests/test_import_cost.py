"""The package loads no routine it does not run, each check in a fresh
interpreter.  Importing chiralbag, or chiralbag.cli and building its parser,
loads no numpy and no scipy module and builds none of the tables
ball_spectrum fills on its first solve or fit.  coeffs and table, the
closed forms alone, never load numpy, nor dataclasses and inspect: their
records are named tuples.  verify-identities, verify-ball and
verify-cylinder load it on first use.  The closed-form commands, with
verify-identities, never load scipy; verify-ball and verify-cylinder load
scipy.special on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import _readme_commands

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_COMMANDS = ("verify-ball", "verify-cylinder")
NUMPY_FREE_COMMANDS = ("coeffs", "table")
# run each argv of the JSON list in argv[1] through cli.main in this one
# interpreter, then print the exit codes and every module loaded whose name
# starts with argv[2]
RUN_COMMANDS = (
    "import contextlib, io, json, sys\n"
    "from chiralbag import cli\n"
    "codes = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        codes.append(cli.main(argv))\n"
    "print(json.dumps([codes, sorted(\n"
    "    m for m in sys.modules if m.startswith(sys.argv[2]))]))\n")


def _fresh(code: str, *args: str) -> str:
    """stdout of code run in a fresh interpreter with src on its path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_scipy_integrate_unloaded():
    code = ("import sys\n"
            "from chiralbag import cli\n"
            "cli.build_parser()\n"
            "print('scipy.integrate' in sys.modules)\n")
    assert _fresh(code) == "False\n"


def test_cli_import_loads_no_scipy():
    code = ("import sys\n"
            "from chiralbag import cli\n"
            "cli.build_parser()\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    assert _fresh(code) == "[]\n"


def test_cli_import_builds_no_table():
    code = ("from chiralbag import ball_spectrum, cli\n"
            "cli.build_parser()\n"
            "print([f.cache_info().currsize for f in (\n"
            "    ball_spectrum._zero_table, ball_spectrum._node_table,\n"
            "    ball_spectrum._reach_table, ball_spectrum._fit_basis,\n"
            "    ball_spectrum._weights)])\n")
    assert _fresh(code) == "[0, 0, 0, 0, 0]\n"


def test_closed_form_commands_load_no_scipy():
    lines = [a for a in _readme_commands() if a[0] not in SCIPY_COMMANDS]
    assert [a[0] for a in lines] == ["coeffs", "table", "verify-identities"]
    codes, loaded = json.loads(_fresh(RUN_COMMANDS, json.dumps(lines),
                                      "scipy"))
    assert codes == [0, 0, 0]
    assert loaded == []


def test_scipy_commands_load_it_on_first_use():
    lines = [a for a in _readme_commands() if a[0] in SCIPY_COMMANDS]
    assert [a[0] for a in lines] == list(SCIPY_COMMANDS)
    codes, loaded = json.loads(_fresh(RUN_COMMANDS, json.dumps(lines),
                                      "scipy"))
    assert codes == [0, 0]
    assert "scipy.special" in loaded


def test_package_import_loads_no_numpy():
    code = ("import sys\n"
            "import chiralbag\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy')))\n")
    assert _fresh(code) == "[]\n"


def test_cli_import_loads_no_numpy():
    code = ("import sys\n"
            "from chiralbag import cli\n"
            "cli.build_parser()\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy')))\n")
    assert _fresh(code) == "[]\n"


def test_constant_commands_load_no_numpy():
    lines = [a for a in _readme_commands() if a[0] in NUMPY_FREE_COMMANDS]
    assert [a[0] for a in lines] == list(NUMPY_FREE_COMMANDS)
    codes, loaded = json.loads(_fresh(RUN_COMMANDS, json.dumps(lines),
                                      "numpy"))
    assert codes == [0, 0]
    assert loaded == []


@pytest.mark.parametrize("module", ("dataclasses", "inspect"))
def test_constant_commands_load_no_record_machinery(module):
    lines = [a for a in _readme_commands() if a[0] in NUMPY_FREE_COMMANDS]
    codes, loaded = json.loads(_fresh(RUN_COMMANDS, json.dumps(lines),
                                      module))
    assert codes == [0, 0]
    assert loaded == []


@pytest.mark.parametrize(
    "argv", [a for a in _readme_commands() if a[0] not in NUMPY_FREE_COMMANDS],
    ids=lambda a: a[0])
def test_numeric_commands_load_numpy_on_first_use(argv):
    codes, loaded = json.loads(_fresh(RUN_COMMANDS, json.dumps([argv]),
                                      "numpy"))
    assert codes == [0]
    assert "numpy" in loaded

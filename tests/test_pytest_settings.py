"""The repo's pytest settings, which raise warnings as errors, still let a
failing hypothesis test report its falsifying example."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # on failure hypothesis imports hypothesis.extra._patching, whose
    # libcst import warns with a DeprecationWarning from mypy_extensions;
    # raised, it ends the run in an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out

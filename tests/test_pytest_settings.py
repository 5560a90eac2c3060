"""The suite's own pytest settings still report what fails.

Warnings are errors under ``filterwarnings`` in ``pyproject.toml``. A
failing hypothesis test reports its example through a plugin import that
warns of a deprecation in a third-party package; the settings let that one
warning through, or the run would end in an INTERNALERROR (exit code 3)
that prints neither the assertion nor the example."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FAILING = '''\
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_given_fails(x):
    assert x < 10


def test_deprecation_fails():
    warnings.warn("a deprecated call", DeprecationWarning)
'''


def test_a_failing_given_test_prints_its_example_and_warnings_still_fail(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_given_fails(" in out
    assert "DeprecationWarning: a deprecated call" in out
    assert "2 failed" in out

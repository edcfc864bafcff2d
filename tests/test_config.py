"""The repository's pytest settings, checked in a child pytest run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_first_property(x):
    assert x < 10


@given(st.integers())
def test_second_property(x):
    assert x > -10


def test_stray_warning():
    warnings.warn("a deprecation the code under test raises", DeprecationWarning)
'''


def test_every_failure_is_reported(tmp_path):
    """Under the repository's warning filters, two failing hypothesis
    properties and a test that warns each fail on their own: no failure
    report ends the session early, and a warning still fails its test."""
    path = tmp_path / "test_failing.py"
    path.write_text(FAILING)
    child = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in child.stdout + child.stderr, child.stdout
    assert "3 failed" in child.stdout, child.stdout

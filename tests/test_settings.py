"""The project's pytest settings report a failing property as one failure."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_is_one_failure(tmp_path):
    """Under filterwarnings = error, a failing @given test fails alone: the
    session exits 1 and reports it, with no INTERNALERROR from a warning
    raised while hypothesis writes its report."""
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout and "INTERNALERROR" not in proc.stdout + proc.stderr

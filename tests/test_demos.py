"""Every demo script, and README's library quick start, runs to completion
against this source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import isoclinic

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    """A fresh interpreter on args, importing this source tree; it must exit
    0 within 60 s, so a hung script fails the test instead of hanging the
    suite."""
    env = dict(os.environ)
    source = str(Path(isoclinic.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    run_python(str(demo))


def test_readme_quick_start_runs():
    """The python block under README's "Library quick start" runs as
    written, so the API it shows cannot drift from the code unseen."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```", readme,
                      re.MULTILINE | re.DOTALL)
    assert block, "README has no python block under Library quick start"
    out = run_python("-c", block.group(1))
    assert "RotationKind.GENERAL" in out

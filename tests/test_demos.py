"""Every demo script runs to completion against this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import isoclinic

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    source = str(Path(isoclinic.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isoclinic
from isoclinic import ParseError, random_rotation
from isoclinic.cli import main, parse_matrix

IDENTITY16 = "1 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1"
REFLECTION16 = "1 0 0 0  0 1 0 0  0 0 1 0  0 0 0 -1"


def run_cli(args, stdin_text="", monkeypatch=None):
    """Drive main() in process; returns (exit_code, stdout, stderr)."""
    if monkeypatch is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(args)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def test_parse_matrix_plain16():
    A = parse_matrix(IDENTITY16)
    assert np.array_equal(A, np.eye(4))


def test_parse_matrix_json():
    text = json.dumps({"matrix": np.eye(4).tolist()})
    assert np.array_equal(parse_matrix(text), np.eye(4))
    # auto-sniffing picks JSON from the leading brace
    assert np.array_equal(parse_matrix("  " + text, "auto"), np.eye(4))


def test_parse_matrix_errors():
    with pytest.raises(ParseError):
        parse_matrix("1 2 3")
    with pytest.raises(ParseError):
        parse_matrix("a " * 16)
    with pytest.raises(ParseError):
        parse_matrix("{not json")
    with pytest.raises(ParseError):
        parse_matrix(json.dumps({"rows": [[1]]}))
    with pytest.raises(ParseError):
        parse_matrix(json.dumps({"matrix": [[1, 2], [3, 4]]}))
    with pytest.raises(ParseError):
        parse_matrix("inf " + "0 " * 15)


def test_decompose_identity(monkeypatch):
    code, out, _ = run_cli(["decompose"], IDENTITY16, monkeypatch)
    assert code == 0
    assert "left:  1.0 0.0 0.0 0.0" in out
    assert "right: 1.0 0.0 0.0 0.0" in out
    assert "class: identity" in out
    assert "negate both factors" in out


def test_decompose_rejects_reflection(monkeypatch):
    code, out, err = run_cli(["decompose"], REFLECTION16, monkeypatch)
    assert code == 3
    assert "not a proper rotation" in err


def test_decompose_json_report(monkeypatch):
    matrix_line = " ".join(repr(float(v)) for v in random_rotation(5).ravel())
    code, out, _ = run_cli(["decompose", "--json"], matrix_line, monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["class"] == "general"
    assert len(report["left"]) == 4 and len(report["right"]) == 4
    assert report["residuals"]["reconstruction"] <= 1e-12
    assert report["tolerances"]["recon_tol"] == 1e-9


def test_decompose_json_rejection_report(monkeypatch):
    code, out, _ = run_cli(["decompose", "--json"], REFLECTION16, monkeypatch)
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "rejected"
    assert report["error"]["type"] == "NotProperRotationError"
    assert report["error"]["measured"] == pytest.approx(-1.0)


def test_compose_fixed_cases():
    code, out, _ = run_cli(["compose", "--left", "1 0 0 0", "--right", "1 0 0 0"])
    assert code == 0
    assert np.array_equal(np.array(out.split(), dtype=float).reshape(4, 4), np.eye(4))
    code, out, _ = run_cli(["compose", "--left", "1,0,0,0", "--right", "-1,0,0,0"])
    assert code == 0
    assert np.array_equal(np.array(out.split(), dtype=float).reshape(4, 4), -np.eye(4))


def test_compose_normalizes_and_reports():
    code, out, err = run_cli(["compose", "--left", "1 1 1 1", "--right", "1 0 0 0"])
    assert code == 0
    assert "normalized" in err
    A = np.array(out.split(), dtype=float).reshape(4, 4)
    assert np.all(np.diag(A) == 0.5)


def test_compose_zero_quaternion_fails():
    code, _, err = run_cli(["compose", "--left", "0 0 0 0", "--right", "1 0 0 0"])
    assert code == 3
    assert "cannot normalize" in err


def test_compose_bad_arity():
    code, _, err = run_cli(["compose", "--left", "1 0 0", "--right", "1 0 0 0"])
    assert code == 2


def test_generate_deterministic():
    code1, out1, _ = run_cli(["generate", "--seed", "42", "--count", "3"])
    code2, out2, _ = run_cli(["generate", "--seed", "42", "--count", "3"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 3
    _, other, _ = run_cli(["generate", "--seed", "43", "--count", "3"])
    assert out1 != other


def test_generate_output_is_a_rotation():
    from isoclinic import validate_rotation

    _, out, _ = run_cli(["generate", "--seed", "42"])
    A = np.array(out.split(), dtype=float).reshape(4, 4)
    validate_rotation(A, ortho_tol=1e-12, det_tol=1e-12)


def test_generate_json():
    code, out, _ = run_cli(["generate", "--seed", "1", "--count", "2", "--json"])
    assert code == 0
    matrices = json.loads(out)["matrices"]
    assert len(matrices) == 2
    assert np.array(matrices[0]).shape == (4, 4)


def test_verify_identity(monkeypatch):
    code, out, _ = run_cli(["verify"], IDENTITY16, monkeypatch)
    assert code == 0
    assert "overall: ok" in out
    assert out.count("[pass]") == 4


def test_verify_scaled_matrix(monkeypatch):
    code, out, _ = run_cli(["verify"], "2 0 0 0  0 2 0 0  0 0 2 0  0 0 0 2", monkeypatch)
    assert code == 3
    assert "orthogonality: 3.0 [FAIL]" in out
    assert "overall: rejected" in out


def test_verify_reflection_reports_determinant(monkeypatch):
    code, out, _ = run_cli(["verify", "--json"], REFLECTION16, monkeypatch)
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "rejected"
    assert report["checks"]["determinant"]["pass"] is False
    assert report["checks"]["orthogonality"]["pass"] is True
    assert report["checks"]["max_minor"]["measured"] == pytest.approx(0.25)


def test_verify_minor_failure_exit_code(monkeypatch):
    # orthogonality passes but an impossibly tight minor tolerance rejects,
    # exercising the decomposition-failure exit code
    matrix_line = " ".join(repr(float(v)) for v in random_rotation(9).ravel())
    code, out, _ = run_cli(["verify", "--minor-tol", "1e-20"], matrix_line, monkeypatch)
    assert code == 1
    assert "overall: rejected" in out


def test_classify_outputs(monkeypatch):
    code, out, _ = run_cli(["classify"], "-1 0 0 0  0 -1 0 0  0 0 -1 0  0 0 0 -1",
                           monkeypatch)
    assert code == 0
    assert "class: central-reversion" in out

    from isoclinic import left_matrix

    line = " ".join(repr(float(v)) for v in left_matrix([0.0, 1.0, 0.0, 0.0]).ravel())
    code, out, _ = run_cli(["classify", "--json"], line, monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "left-isoclinic"
    assert report["left_angle"] == pytest.approx(np.pi / 2)


def test_file_input(tmp_path, monkeypatch):
    path = tmp_path / "rotation.txt"
    path.write_text(" ".join(repr(float(v)) for v in random_rotation(3).ravel()))
    code, out, _ = run_cli(["decompose", str(path)])
    assert code == 0
    assert "class: general" in out
    code, _, err = run_cli(["decompose", str(tmp_path / "missing.txt")])
    assert code == 2
    assert "cannot read" in err


def test_format_override(monkeypatch):
    text = json.dumps({"matrix": np.eye(4).tolist()})
    code, _, err = run_cli(["decompose", "--format", "plain16"], text, monkeypatch)
    assert code == 2


# The wrapper that setuptools writes for [project.scripts] does this much;
# starting it through this interpreter needs no install step.
ENTRYPOINT = [sys.executable, "-c",
              "import sys; from isoclinic.cli import entrypoint; sys.exit(entrypoint())"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def child_env():
    """Environment in which a child process imports the same isoclinic as
    this process, whatever its working directory and whatever is installed."""
    env = dict(os.environ)
    source = str(Path(isoclinic.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return env


def assert_round_trip(command):
    """generate, decompose --json and compose, each in a fresh process started
    as `command`, rebuild the generated matrix to within 1e-11."""
    env = child_env()

    def run(*args, stdin=None):
        proc = subprocess.run([*command, *args], input=stdin, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    generated = run("generate", "--seed", "123")
    report = json.loads(run("decompose", "--json", stdin=generated))
    composed = run("compose",
                   "--left", " ".join(repr(v) for v in report["left"]),
                   "--right", " ".join(repr(v) for v in report["right"]))
    original = np.array(generated.split(), dtype=float)
    rebuilt = np.array(composed.split(), dtype=float)
    assert np.max(np.abs(original - rebuilt)) <= 1e-11


def test_console_script_round_trip():
    """End-to-end through the declared console-script entry point: generate,
    decompose, compose, and compare the matrices."""
    assert_round_trip(ENTRYPOINT)


def test_console_script_declared():
    """The installed `isoclinic` executable is built from this declaration."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f).get("project", {}).get("scripts", {})
    assert scripts.get("isoclinic") == "isoclinic.cli:entrypoint"
    module, _, name = scripts["isoclinic"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_closed_stdout_exits_quietly():
    """A reader that stops early, as in `generate ... | head -1`, gets no
    traceback on stderr."""
    proc = subprocess.Popen([*ENTRYPOINT, "generate", "--seed", "1", "--count", "20000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert len(first.split()) == 16
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
    assert code == 141


@pytest.mark.skipif(shutil.which("isoclinic") is None,
                    reason="isoclinic executable not on PATH (pip install -e .)")
def test_installed_console_script_round_trip():
    assert_round_trip(["isoclinic"])

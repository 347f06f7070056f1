"""Importing the package, and every CLI command except generate, runs
without numpy, since nothing they do builds an array, and without
dataclasses or inspect, whose imports cost more than a request. No CLI
run loads argparse, help and usage errors included: the CLI reads argv
off its own command table. Every name the package exports resolves."""

import json
import subprocess
import sys

import pytest

import isoclinic
from isoclinic import _kernel, associate, cli, errors, quat, rotation4
from test_cli import IDENTITY16, ROUNDED16, child_env

# runs `python -m isoclinic ARGS` in this process, then prints the exit code,
# the numpy modules, which of argparse, dataclasses and inspect are loaded by
# then and which generated kernel functions are compiled, as one JSON line on
# stderr; os._exit, which would end the process at the CLI's last write,
# raises SystemExit here instead, so that the report is printed
CHILD = """
import json, os, runpy, sys
args = json.loads(sys.argv[1])
code = None

def raise_exit(code):
    raise SystemExit(code)

os._exit = raise_exit
if args is not None:
    sys.argv = ["isoclinic", *args]
    try:
        runpy.run_module("isoclinic", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        code = exit.code
else:
    import isoclinic
loaded = sorted(name for name in sys.modules if name == "numpy" or name.startswith("numpy."))
stdlib = sorted({"argparse", "dataclasses", "inspect"} & set(sys.modules))
kernel = vars(sys.modules["isoclinic._kernel"])
compiled = sorted(name for name in kernel["_SOURCES"] if name in kernel)
print(json.dumps({"code": code, "numpy": loaded, "stdlib": stdlib, "compiled": compiled}),
      file=sys.stderr)
"""


def run_child(args, stdin=""):
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(args)], input=stdin,
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1]), proc.stdout, proc.stderr


@pytest.mark.parametrize("args, stdin, code, printed, compiled", [
    (None, "", None, None, []),
    (["decompose", "--json"], IDENTITY16, 0, None, ["decompose"]),
    (["decompose"], "2 " * 16, 3, None, ["decompose"]),
    (["decompose", "--ortho-tol", "0"], ROUNDED16, 0, None, ["decompose"]),
    (["classify"], IDENTITY16, 0, None, ["decompose"]),
    (["verify", "--json"], IDENTITY16, 0, None, ["decompose"]),
    (["verify"], "2 0 0 0  0 2 0 0  0 0 2 0  0 0 0 2", 3, None, ["decompose"]),
    (["verify", "--json", "--ortho-tol", "0"], ROUNDED16, 0, None, ["decompose"]),
    (["compose", "--left", "1 1 0 0", "--right", "0 1 0 0", "--json"], "", 0, None,
     ["two_sided"]),
    (["decompose", "--help"], "", 0, ("stdout", "show this help message and exit"), []),
    (["decompose", "--ortho-tol", "abc"], IDENTITY16, 2,
     ("stderr", "error: argument --ortho-tol: invalid float value: 'abc'"), []),
], ids=["import", "decompose", "decompose-rejected", "decompose-exact-budget",
        "classify", "verify", "verify-rejected", "verify-exact-budget", "compose",
        "decompose-help", "decompose-usage-error"])
def test_numpy_is_not_imported(args, stdin, code, printed, compiled):
    """No case loads numpy, argparse, dataclasses or inspect, help and a
    usage error included: the usage and help on stdout, the usage and the
    error on stderr. The kernel compiles only the generated functions the
    command runs: decompose for every command that reads a matrix,
    two_sided for compose, and none for an import, help or a usage error."""
    report, out, err = run_child(args, stdin)
    assert report == {"code": code, "numpy": [], "stdlib": [], "compiled": compiled}
    if printed:
        stream, text = printed
        written = out if stream == "stdout" else err
        assert written.startswith("usage: isoclinic decompose") and text in written


def test_generate_imports_numpy():
    """The check above sees numpy when it is loaded: generate builds arrays,
    and numpy imports inspect."""
    report, out, _ = run_child(["generate", "--seed", "3"])
    assert report["code"] == 0 and "numpy" in report["numpy"]
    assert "inspect" in report["stdlib"]
    assert len(out.split()) == 16


def test_exported_names_exist():
    """Each name in __all__ resolves, and the names removed with the
    rank-1 side path, the per-check bounds and the names no caller outside
    the tests used, the norm-deviation gate's error and quat's copies of
    the kernel's DEGENERACY_TOL and UNIT_TOL, the distance gate's error,
    and the read-off domain's errors and exit code, are exported no more,
    from the package or from the module that held them; Tolerances has no
    iso_tol, whose bound is ortho_tol itself, and no dist_tol, since
    validation's bound is decompose's."""
    for name in isoclinic.__all__:
        getattr(isoclinic, name)
    removed = {"rank1_factor", "NotRankOneError", "check_unit", "ORTHO_TOL", "DET_TOL",
               "minor_2x2", "canonical_pair", "quat_norm", "quat_conjugate", "IDENTITY",
               "COMPOSITION_TABLE", "NormDeviationError", "DEGENERACY_TOL", "UNIT_TOL",
               "ReconstructionError", "DecompositionError", "DegenerateNormError",
               "EXIT_DECOMPOSITION"}
    assert not removed & set(isoclinic.__all__)
    for module in (isoclinic, associate, quat, rotation4, cli):
        assert not [name for name in removed if hasattr(module, name)], module.__name__
    for name in removed:
        if name.endswith("Error"):
            assert not hasattr(errors, name) and not hasattr(_kernel, name), name
    assert len(isoclinic.__all__) == 35
    assert not hasattr(isoclinic.Tolerances(), "iso_tol")
    assert not hasattr(isoclinic.Tolerances(), "dist_tol")

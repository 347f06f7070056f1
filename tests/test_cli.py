import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isoclinic
from isoclinic import (DEFAULT_TOLERANCES, DecompositionError, IsoclinicError, ParseError,
                       Tolerances, ValidationError, _kernel, cli, random_rotation,
                       random_unit_quaternion, right_matrix)
from isoclinic.cli import _dumps, build_parser, main, parse_matrix

IDENTITY16 = "1 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1"
REFLECTION16 = "1 0 0 0  0 1 0 0  0 0 1 0  0 0 0 -1"
# the rotation P -> L*P*R for L = (1, 0, 2, 2) / 3 and R = (1, 2, 0, 2) / 3,
# its entries ninths rounded to binary64: the Gram deviation reads exactly
# 0.0 and the determinant exactly 1.0, but the distance 8.6e-17, so under
# --ortho-tol 0 only the distance check rejects it
ROUNDED16 = " ".join(map(repr, _kernel.two_sided([1 / 3, 0.0, 2 / 3, 2 / 3],
                                                 [1 / 3, 2 / 3, 0.0, 2 / 3])))


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


EYE16 = np.eye(4).ravel().tolist()


def test_parse_matrix_plain16():
    assert parse_matrix(IDENTITY16) == EYE16


def test_parse_matrix_json():
    text = json.dumps({"matrix": np.eye(4).tolist()})
    assert parse_matrix(text) == EYE16
    # auto-sniffing picks JSON from the leading brace
    assert parse_matrix("  " + text) == EYE16


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
    assert report["residuals"]["distance"] <= 1e-12
    assert report["tolerances"] == {"ortho_tol": 1e-9, "dist_tol": 2e-9, "iso_tol": 1e-9}


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
    # components of 1e308 make a finite quaternion whose norm overflows; it
    # normalizes as 1 1 1 1 does, not to the zero quaternion
    code, huge, err = run_cli(["compose", "--left", "1e308 1e308 1e308 1e308", "--right",
                               "1 0 0 0"])
    assert code == 0 and "--left normalized" in err and huge == out


def test_compose_notes_exactly_what_the_unit_check_rejects():
    """compose notes a factor it normalized exactly when the unit check of
    |q.q - 1| <= UNIT_TOL rejects it: w = 1 + 4e-13 is off by 8e-13 and
    passes, w = 1 + 6e-13 is off by 1.2e-12 and is noted, though both norms
    deviate by less than 1e-12."""
    for w, noted in ((1 + 4e-13, False), (1 + 6e-13, True)):
        code, _, err = run_cli(["compose", f"--left={w!r},0,0,0", "--right=1,0,0,0"])
        assert code == 0 and ("--left normalized" in err) is noted, err
        with pytest.raises(isoclinic.NotUnitQuaternionError) if noted else nullcontext():
            isoclinic.van_elfrinkhof([w, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])


def test_compose_zero_quaternion_fails():
    code, _, err = run_cli(["compose", "--left", "0 0 0 0", "--right", "1 0 0 0"])
    assert code == 3
    assert "cannot normalize" in err


def test_compose_bad_arity():
    """--left and --right are read as plain16's tokens, 4 of them; a
    ParseError names the flag."""
    for left, message in (("1 0 0", "error: --left: expected 4 numbers, got 3\n"),
                          ("1 0 0 one", "error: non-numeric token in --left: "),
                          ("1 0 0 nan", "error: --left entries must be finite\n"),
                          ("inf,0,0,0", "error: --left entries must be finite\n")):
        code, out, err = run_cli(["compose", "--left", left, "--right", "1 0 0 0"])
        assert code == 2 and out == "" and err.startswith(message), err


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
    validate_rotation(A, Tolerances(ortho_tol=1e-12))


def test_generate_json():
    """generate --json writes one {"matrix": ...} record per line, the
    floats of plain generate bit for bit."""
    code, out, _ = run_cli(["generate", "--seed", "1", "--count", "2", "--json"])
    assert code == 0
    _, plain, _ = run_cli(["generate", "--seed", "1", "--count", "2"])
    records = [json.loads(line) for line in out.splitlines()]
    assert [list(record) for record in records] == [["matrix"], ["matrix"]]
    assert ([[x.hex() for row in record["matrix"] for x in row] for record in records]
            == [[float(x).hex() for x in line.split()] for line in plain.splitlines()])


def test_verify_identity(monkeypatch):
    code, out, _ = run_cli(["verify"], IDENTITY16, monkeypatch)
    assert code == 0
    assert "overall: ok" in out
    assert out.count("[pass]") == 3


def run_on(args, stdin_text):
    """run_cli on stdin_text, with sys.stdin restored after: hypothesis runs
    many examples under one function-scoped fixture, so no monkeypatch."""
    stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        return run_cli(args)
    finally:
        sys.stdin = stdin


def run_rejected(args, stdin_text):
    """Run a checking command with --json on input it rejects; returns the
    exit code and the report's "error" object, after checking that the
    report says rejected and stderr holds the one rejection line."""
    code, out, err = run_on([*args, "--json"], stdin_text)
    report = json.loads(out)
    assert report["status"] == "rejected"
    assert err == f"rejected: {report['error']['message']}\n"
    return code, report["error"]


def test_verify_scaled_matrix():
    """2I is rejected by the orthogonality check, the first to fail:
    max |A^T A - I| = 3."""
    code, error = run_rejected(["verify"], "2 0 0 0  0 2 0 0  0 0 2 0  0 0 0 2")
    assert code == 3
    assert (error["type"], error["measured"], error["tol"]) == ("NotOrthogonalError", 3.0, 1e-9)


def test_verify_zero_matrix():
    """The zero matrix is rejected by the orthogonality check, so no factor
    pair is read off its zero associate matrix."""
    code, error = run_rejected(["verify"], "0 " * 16)
    assert code == 3
    assert (error["type"], error["measured"], error["tol"]) == ("NotOrthogonalError", 1.0, 1e-9)


def test_verify_reflection_reports_determinant():
    """diag(1,1,1,-1) is orthogonal and is rejected by the determinant check,
    which reports det = -1 against its bound."""
    code, error = run_rejected(["verify"], REFLECTION16)
    assert code == 3
    assert (error["type"], error["measured"], error["tol"]) \
        == ("NotProperRotationError", -1.0, 1e-9)


def test_verify_minor_failure_exit_code():
    """Under --ortho-tol 0 a matrix off SO(4) by rounding alone passes the
    orthogonality and determinant checks and fails the distance check,
    with the decomposition-failure exit code and the same report from
    every checking command."""
    reports = set()
    for command in ("verify", "decompose", "classify"):
        code, error = run_rejected([command, "--ortho-tol", "0"], ROUNDED16)
        assert code == 1
        assert error["type"] == "ReconstructionError" and error["tol"] == 0.0
        assert 0.0 < error["measured"] < 1e-15
        reports.add(json.dumps(error))
    assert len(reports) == 1


# the inputs of the agreement property: a Haar rotation, a reflection
# A diag(1,1,1,-1), c A for c in [0, 2] and a rotation rounded to float32,
# each optionally plus Gaussian noise of 10**k times the bound under test
# (times 1 for an infinite bound), k in [-2, 2]
_FAMILIES = {
    "rotation": lambda A, c: A,
    "reflection": lambda A, c: A * [1.0, 1.0, 1.0, -1.0],
    "scaled": lambda A, c: c * A,
    "float32": lambda A, c: A.astype(np.float32).astype(float),
}
_ORTHO_TOLS = [0.0, 1e-12, 1e-9, 1e-6, 0.6, 0.96, math.inf]


@st.composite
def _checked_input(draw):
    ortho_tol = draw(st.sampled_from(_ORTHO_TOLS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = _FAMILIES[draw(st.sampled_from(list(_FAMILIES)))](random_rotation(rng),
                                                          draw(st.floats(0.0, 2.0)))
    exponent = draw(st.none() | st.integers(-2, 2))
    if exponent is not None:
        scale = ortho_tol if math.isfinite(ortho_tol) else 1.0
        A = A + 10.0 ** exponent * scale * rng.standard_normal((4, 4))
    return " ".join(map(repr, A.ravel().tolist())), ortho_tol


@settings(deadline=None, max_examples=400)
@given(_checked_input(), st.booleans())
@example((" ".join(map(repr, (0.45 * np.eye(4)).ravel().tolist())), 0.96), False)
@example((" ".join(map(repr, (0.45 * np.eye(4)).ravel().tolist())), 0.96), True)
def test_verify_agrees_with_decompose(checked, as_json):
    """verify runs decompose's checks: it exits with decompose's code, and a
    rejection prints what decompose prints. 0.45 I under --ortho-tol 0.96
    passes the orthogonality and determinant checks, and its associate norm
    0.45 is below the floor of 0.5."""
    text, ortho_tol = checked
    flags = ["--ortho-tol", repr(ortho_tol)] + ["--json"] * as_json
    verified = run_on(["verify", *flags], text)
    decomposed = run_on(["decompose", *flags], text)
    assert verified[0] == decomposed[0]
    if decomposed[0] != 0:
        assert verified == decomposed


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_float32_rotation_is_rejected(seed):
    """A rotation rounded to float32 is off SO(4) by float32 rounding, a
    Gram deviation near 1e-7, and is rejected as not orthogonal under the
    default bound."""
    A = random_rotation(seed).astype(np.float32).astype(float)
    code, error = run_rejected(["verify"], " ".join(map(repr, A.ravel().tolist())))
    assert code == 3 and error["type"] == "NotOrthogonalError" and error["tol"] == 1e-9
    assert 1e-9 < error["measured"] < 1e-6


def _noisy_rotation16():
    """The seed-5 rotation plus Gaussian noise of 1e-7: max |A^T A - I| is
    2.6e-7 and its associate norm deviates from 1 by 6.0e-8."""
    rng = np.random.default_rng(5)
    A = random_rotation(rng) + 1e-7 * rng.standard_normal((4, 4))
    return " ".join(map(repr, A.ravel().tolist()))


def test_ortho_tol_moves_the_distance_bound(monkeypatch):
    """--ortho-tol sets one Tolerances whose dist_tol is twice it, so what
    validation accepts under it, decomposition accepts."""
    noisy = _noisy_rotation16()
    for command in ("decompose", "classify", "verify"):
        code, out, err = run_cli([command, "--ortho-tol", "1e-6"], noisy, monkeypatch)
        assert code == 0, out + err
    code, out, _ = run_cli(["decompose", "--json", "--ortho-tol", "1e-6"], noisy, monkeypatch)
    assert json.loads(out)["tolerances"] == {"ortho_tol": 1e-6, "dist_tol": 2e-6,
                                             "iso_tol": 1e-6}


def _noisy_right_isoclinic16():
    """A seed-5 right-isoclinic rotation plus Gaussian noise of 1e-8: its
    distance from SO(4) is 3.2e-8."""
    rng = np.random.default_rng(5)
    A = right_matrix(random_unit_quaternion(rng)) + 1e-8 * rng.standard_normal((4, 4))
    return " ".join(map(repr, A.ravel().tolist()))


def test_ortho_tol_is_the_trivial_factor_bound(monkeypatch, capsys):
    """Under --ortho-tol 1e-6 a right-isoclinic rotation with noise of 1e-8
    validates and is classified right-isoclinic: its left factor is within
    the budget of 1, which is the trivial-factor bound. --iso-tol, the
    separate bound it replaces, is an unknown option."""
    noisy = _noisy_right_isoclinic16()
    code, out, err = run_cli(["classify", "--ortho-tol", "1e-6"], noisy, monkeypatch)
    assert code == 0, out + err
    assert out.splitlines()[0] == "class: right-isoclinic"
    for command in ("decompose", "classify", "verify"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(noisy))
        with pytest.raises(SystemExit) as exited:
            main([command, "--iso-tol", "1e-6"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --iso-tol" in capsys.readouterr().err


def test_tolerance_flags_match_tolerances():
    """The tolerance flags of each checking command are the fields of
    Tolerances, one to one, and their defaults make the default object."""
    fields = set(Tolerances._fields)
    for command in ("decompose", "classify", "verify"):
        args = vars(build_parser().parse_args([command]))
        flags = {name: args[name] for name in set(args) - {"command", "func", "input", "json"}}
        assert set(flags) == fields
        assert Tolerances(**flags) == DEFAULT_TOLERANCES


def test_parser_is_built_once(monkeypatch):
    """One parser tree serves every main() call of a process, the command's
    own parser parsing its flags, and a flag given to one call does not
    carry over to the next."""
    assert build_parser() is build_parser()
    code, out, _ = run_cli(["decompose", "--ortho-tol", "1e-6", "--json"], IDENTITY16,
                           monkeypatch)
    assert code == 0 and json.loads(out)["tolerances"]["ortho_tol"] == 1e-6
    code, out, _ = run_cli(["decompose", "--json"], IDENTITY16, monkeypatch)
    assert code == 0
    assert json.loads(out)["tolerances"] == {"ortho_tol": 1e-9, "dist_tol": 2e-9,
                                             "iso_tol": 1e-9}


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize("flag", ["--ortho-tol"])
def test_nan_or_negative_tolerance_is_a_usage_error(flag, value, monkeypatch, capsys):
    """A NaN bound passed every check (2I was accepted under --ortho-tol
    nan) and a negative one failed exact input (the identity was rejected
    under --ortho-tol -1); either is a usage error naming the field."""
    for command in ("decompose", "classify", "verify"):
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 0 0 0  0 2 0 0  0 0 2 0  0 0 0 2"))
        with pytest.raises(SystemExit) as exited:
            main([command, flag, value])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag[2:].replace('-', '_')} must be a non-negative number" in captured.err
        assert captured.err.startswith(f"usage: isoclinic {command}"), captured.err


def test_distance_bound_is_not_a_flag(monkeypatch, capsys):
    """The distance bound is derived from --ortho-tol; --dist-tol is an
    unknown option, a usage error."""
    for command in ("decompose", "classify", "verify"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(IDENTITY16))
        with pytest.raises(SystemExit) as exited:
            main([command, "--dist-tol", "1"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --dist-tol" in captured.err


# decompose, classify and verify, plain and --json, on I, -I, diag(1,1,1,-1),
# 2I, the zero matrix, a NaN entry and 15 numbers; verify also on 0.1I and on
# 1e-200I, whose associate matrix is too small to read a factor off. verify
# rejects as decompose does, so on each input but I and -I its row equals
# decompose's; the rejection reports carry the bound the input missed. compose
# on the identity pair, a negative scalar left factor, a non-unit factor and
# a zero one: stdin, exit code, stdout and stderr, each recorded verbatim
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[f"{' '.join(case['args'])}, {case['input']}" for case in GOLDEN])
def test_golden_output(case, monkeypatch):
    """The checking commands print what they printed when the table was
    recorded, byte for byte, and exit with the same code."""
    assert run_cli(case["args"], case["stdin"], monkeypatch) == (
        case["exit"], case["stdout"], case["stderr"])


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_json_reports_are_strict(monkeypatch):
    """Sixteen 1e308 entries overflow the checks to inf and NaN; the JSON
    reports write those as null, and the message keeps the number. An
    infinite bound is a valid one, and every report lists it as null,
    whether the input is accepted (the identity) or rejected (sixteen 1e308
    entries, whose determinant is NaN), and a rejection as its "tol"."""
    for command in ("decompose", "verify"):
        code, out, _ = run_cli([command, "--json"], "1e308 " * 16, monkeypatch)
        assert code == 3
        error = json.loads(out, parse_constant=_reject_constant)["error"]
        assert error["type"] == "NotOrthogonalError" and error["tol"] == 1e-9
        assert error["measured"] is None and "= inf" in error["message"]
    for command in ("decompose", "classify", "verify"):
        for text, status in ((IDENTITY16, "ok"), ("1e308 " * 16, "rejected")):
            code, out, _ = run_cli([command, "--json", "--ortho-tol", "inf"], text, monkeypatch)
            assert code == (0 if status == "ok" else 3)
            report = json.loads(out, parse_constant=_reject_constant)
            assert report["status"] == status
            assert report["tolerances"] == {"ortho_tol": None, "dist_tol": None, "iso_tol": None}
            if status == "rejected":
                # an infinite ortho_tol passes the Gram deviation inf, and
                # the NaN determinant is rejected against the bound inf
                assert report["error"]["tol"] is None


def _finite_or_none(value):
    """value with every float that is not finite replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(item) for item in value]
    return value


# quotes, backslashes, control characters and non-ASCII, including a
# character outside the Basic Multilingual Plane (a surrogate pair in JSON)
_escapes = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€\u2028\U0001f600a '))
_strings = _escapes | st.text()
# -0.0, the smallest subnormal, a subnormal, and reprs with an exponent
_edge_floats = st.sampled_from([-0.0, 0.0, 5e-324, 1.5e-310, 1e16, 1e-05, 1.7976931348623157e308,
                                0.1, 1e22])


def _values(floats):
    leaves = (st.none() | st.booleans() | st.integers() | floats | _edge_floats | _strings)
    return st.recursive(
        leaves,
        lambda children: (st.lists(children) | st.lists(children).map(tuple)
                          | st.dictionaries(_strings, children)),
        max_leaves=30)


@settings(deadline=None, max_examples=400)
@given(_values(st.floats()))
@example([math.nan, math.inf, -math.inf])
@example({"measured": math.inf, "tolerances": {"ortho_tol": math.inf, "iso_tol": 1e-9}})
@example({"a": [], "b": {}, "c": [{}], "d": ()})
@example({"checks": [{"measured": math.nan}, 1.0]})
def test_dumps_writes_non_finite_floats_as_null(value):
    """The report writer writes one line, json.dumps(value) with each float
    that is not finite written as null, where json.dumps would write NaN or
    Infinity, which strict JSON has not."""
    text = _dumps(value)
    assert "\n" not in text
    assert text == json.dumps(_finite_or_none(value))
    assert json.loads(text, parse_constant=_reject_constant) == _finite_or_none(value)


def _one_parse_main(argv):
    """main as it ran with one parse by the whole parser tree, the reference
    that main's dispatch to the command's own parser must match."""
    args = build_parser().parse_args(cli._attach_vector_values(list(argv)))
    if "ortho_tol" in args:
        args.tolerances = Tolerances(args.ortho_tol)
    try:
        return args.func(args)
    except (ValidationError, DecompositionError) as exc:
        return cli._rejection(args, exc)
    except IsoclinicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli._exit_code(exc)


# each command with its flags, the flag spellings argparse accepts, usage
# errors found by the command's parser and by the top-level one, and argv
# lists that name no command first
DISPATCH_ARGV = [
    ["decompose"], ["decompose", "--json"], ["decompose", "-"],
    ["decompose", "--ortho-tol", "1e-6", "--iso-tol", "1e-3", "--json"],
    ["decompose", "--ortho-tol=1e-6"], ["decompose", "--js"], ["decompose", "--ortho", "1e-6"],
    ["classify"], ["classify", "--json", "--iso-tol", "0.5"],
    ["verify"], ["verify", "--json", "--ortho-tol", "0"],
    ["compose", "--left", "-1,0,0,0", "--right", "1 0 0 0"],
    ["compose", "--json", "--left=0,1,0,0", "--right", "-1,0,0,0"],
    ["compose", "--left", "1 0 0 0"], ["compose", "--left", "1 0 0", "--right", "1 0 0 0"],
    ["generate", "--seed", "3", "--count", "2"], ["generate", "--seed", "3", "--json"],
    ["generate", "--seed", "x"], ["generate", "--seed", "1", "--count", "0"],
    ["generate", "--seed", "-1"],
    ["--json", "decompose"], ["decompose", "a.txt", "b.txt"], ["decompose", "--dist-tol", "1"],
    ["decompose", "--ortho-tol", "nan"], ["verify", "--iso-tol", "-1"],
    ["classify", "--ortho-tol", "abc"], ["verify", "--ortho-tol"], ["decompose", "-x"],
    ["decompose", "--", "-"], ["decompose", "--json", "--"], ["--", "decompose"],
    ["decompose", "-h"], ["compose", "--help"], ["-h"], ["--help"],
    ["--left", "1,0,0,0", "compose"], ["frobnicate"], ["Decompose"], [],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_dispatch_matches_one_parse(argv, monkeypatch):
    """main parses argv after the command with that command's parser; exit
    code (SystemExit included), stdout and stderr are what one parse by
    the whole tree gives."""
    def outcome(run):
        monkeypatch.setattr(sys, "stdin", io.StringIO(IDENTITY16))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = run(list(argv))
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
        return code, out.getvalue(), err.getvalue()

    assert outcome(main) == outcome(_one_parse_main)


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


def run_fresh(command, *args, stdin=None):
    """stdout of `command args` in a fresh process, which must exit 0."""
    proc = subprocess.run([*command, *args], input=stdin, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def assert_round_trip(command):
    """generate, decompose --json and compose, each in a fresh process started
    as `command`, rebuild the generated matrix to within 1e-11."""
    def run(*args, stdin=None):
        return run_fresh(command, *args, stdin=stdin)

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


def test_generated_record_pipes_into_decompose():
    """generate --json writes the record decompose reads: piped between two
    fresh processes it gives the report that plain generate's line gives."""
    reports = [run_fresh(ENTRYPOINT, "decompose", "--json",
                         stdin=run_fresh(ENTRYPOINT, "generate", "--seed", "7", *flag))
               for flag in (["--json"], [])]
    assert reports[0] == reports[1]
    assert reports[0].count("\n") == 1 and json.loads(reports[0])["status"] == "ok"


def test_generate_rejects_a_negative_seed():
    """--seed -1 is a usage error, as --count 0 is: exit 2 and an argparse
    message naming the flag, not numpy's traceback."""
    proc = subprocess.run([*ENTRYPOINT, "generate", "--seed", "-1"], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--seed" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


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


def test_undecodable_input_is_a_parse_error(tmp_path):
    """Input that is not UTF-8, from a file or from stdin, is a parse error
    (exit 2) with a message and no traceback."""
    undecodable = b"\xff\xfe\x00"
    path = tmp_path / "matrix.txt"
    path.write_bytes(undecodable)
    # decode stdin strictly, as under a UTF-8 locale; under the POSIX locale
    # Python would decode it with surrogateescape and never fail
    env = {**child_env(), "PYTHONIOENCODING": "utf-8:strict"}
    for args, stdin in (([str(path)], b""), (["-"], undecodable)):
        proc = subprocess.run([*ENTRYPOINT, "decompose", *args], input=stdin, env=env,
                              capture_output=True, timeout=60)
        stderr = proc.stderr.decode()
        assert proc.returncode == 2, stderr
        assert "cannot read" in stderr and "Traceback" not in stderr, stderr


@pytest.mark.skipif(shutil.which("isoclinic") is None,
                    reason="isoclinic executable not on PATH (pip install -e .)")
def test_installed_console_script_round_trip():
    assert_round_trip(["isoclinic"])


def _json(matrix):
    return json.dumps({"matrix": matrix})


def _eye_with(entry):
    """The 4x4 identity as JSON rows, with its first entry replaced."""
    rows = np.eye(4).tolist()
    rows[0][0] = entry
    return _json(rows)


def _nested(depth):
    value = 1.0
    for _ in range(depth):
        value = [value]
    return _json(value)


NOT_FINITE = "error: matrix entries must be finite"


def _misfit(where, found):
    return f"error: matrix must be 4 arrays of 4 numbers: {where} is {found}"


# input text, exit code of `isoclinic decompose`, start of its stderr. A JSON
# matrix is 4 arrays of 4 JSON numbers (RFC 8259), an integer read as a
# float; the first part of it that is anything else, a bool, a string, null,
# an object or an array of another length, is named, outermost first, and
# only then is an entry that is not finite rejected. plain16 tokens are read
# by float().
PARSE_TABLE = {
    "integers": (_json(np.eye(4, dtype=int).tolist()), 0, ""),
    "numeric strings": (_json([["1", "0", "0", "0"], ["0", "1.0", "0", "0"],
                               ["0", "0", " 1 ", "0"], ["0", "0", "0", "1e0"]]),
                        2, _misfit("matrix[0][0]", "a string")),
    "booleans": (_json((np.eye(4) == 1).tolist()), 2, _misfit("matrix[0][0]", "a boolean")),
    "string with underscore": (_eye_with("1_0"), 2, _misfit("matrix[0][0]", "a string")),
    "null entry": (_eye_with(None), 2, _misfit("matrix[0][0]", "null")),
    "null matrix": (_json(None), 2, _misfit("matrix", "null")),
    "nan string": (_eye_with("nan"), 2, _misfit("matrix[0][0]", "a string")),
    "inf string": (_eye_with("inf"), 2, _misfit("matrix[0][0]", "a string")),
    "Infinity string": (_eye_with("-Infinity"), 2, _misfit("matrix[0][0]", "a string")),
    "NaN token": ('{"matrix": [[NaN, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
                  2, NOT_FINITE),
    "number past the float range": (_eye_with(1e400), 2, NOT_FINITE),
    "non-numeric string": (_eye_with("x"), 2, _misfit("matrix[0][0]", "a string")),
    "hex string": (_eye_with("0x1"), 2, _misfit("matrix[0][0]", "a string")),
    "empty string": (_eye_with(""), 2, _misfit("matrix[0][0]", "a string")),
    "object entry": (_eye_with({}), 2, _misfit("matrix[0][0]", "an object")),
    "object matrix": (_json({"a": 1}), 2, _misfit("matrix", "an object")),
    "string matrix": (_json("abc"), 2, _misfit("matrix", "a string")),
    "numeric string matrix": (_json("5"), 2, _misfit("matrix", "a string")),
    "number matrix": (_json(5), 2, _misfit("matrix", "a number")),
    "ragged rows": (_json([[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
                    2, _misfit("matrix[1]", "an array of 3")),
    "empty first row": (_json([[], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
                        2, _misfit("matrix[0]", "an array of 0")),
    "list entry": (_eye_with([0]), 2, _misfit("matrix[0][0]", "an array of 1")),
    "scalar row": (_json([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], 5]),
                   2, _misfit("matrix[3]", "a number")),
    "rows as strings": (_json(["1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1"]),
                        2, _misfit("matrix[0]", "a string")),
    "4x4x1": (_json(np.eye(4)[:, :, None].tolist()), 2, _misfit("matrix[0][0]", "an array of 1")),
    "16 in one row": (_json(np.eye(4).ravel().tolist()), 2, _misfit("matrix", "an array of 16")),
    "5 rows": (_json([[1, 0, 0, 0]] * 5), 2, _misfit("matrix", "an array of 5")),
    "empty rows": (_json([[], [], [], []]), 2, _misfit("matrix[0]", "an array of 0")),
    "empty matrix": (_json([]), 2, _misfit("matrix", "an array of 0")),
    "object in a wrong shape": (_json([[{}]]), 2, _misfit("matrix", "an array of 1")),
    "nan string in a wrong shape": (_json([["nan"]]), 2, _misfit("matrix", "an array of 1")),
    "64 levels": (_nested(64), 2, _misfit("matrix", "an array of 1")),
    "65 levels": (_nested(65), 2, _misfit("matrix", "an array of 1")),
    "plain16": (IDENTITY16, 0, ""),
    "plain16, 15 numbers": ("1 " * 15, 2, "error: expected 16 numbers, got 15"),
    "plain16, 17 numbers": ("1 " * 17, 2, "error: expected 16 numbers, got 17"),
    "plain16, nan token": ("nan " + "0 " * 15, 2, NOT_FINITE),
    "plain16, Infinity token": ("0 " * 15 + "-Infinity", 2, NOT_FINITE),
    "plain16, 1e400": ("1e400 " + "0 " * 15, 2, NOT_FINITE),
    "plain16, word": ("x " + "0 " * 15, 2, "error: non-numeric token in input"),
    # the sum of inf and -inf is NaN; that of sixteen 1e308 overflows, though
    # each is finite, so the text parses and validation rejects the matrix
    "plain16, inf and -inf": ("inf -inf " + "0 " * 14, 2, NOT_FINITE),
    "plain16, sum past the float range": ("1e308 " * 16, 3, "rejected: matrix is not orthogonal"),
    # one leading byte-order mark is dropped, as RFC 8259 lets a parser do
    "byte-order mark, plain16": ("\ufeff" + IDENTITY16, 0, ""),
    "byte-order mark, JSON": ("\ufeff" + _json(np.eye(4).tolist()), 0, ""),
}


@pytest.mark.parametrize("case", list(PARSE_TABLE))
def test_parse_table(case, monkeypatch):
    text, expected_code, expected_stderr = PARSE_TABLE[case]
    code, out, err = run_cli(["decompose"], text, monkeypatch)
    assert code == expected_code, err
    assert err.startswith(expected_stderr), err
    if expected_code == 2:
        with pytest.raises(ParseError):
            parse_matrix(text)
    else:
        entries = parse_matrix(text)
        assert len(entries) == 16 and all(type(x) is float for x in entries)


def test_json_past_the_parser_limits_is_a_parse_error(monkeypatch):
    """A JSON integer no float can hold, even one too long for int(), is not
    finite, and arrays nested past the recursion limit are invalid JSON:
    exit 2, no traceback."""
    code, _, err = run_cli(["decompose"], _eye_with(10 ** 400), monkeypatch)
    assert code == 2 and err.startswith(NOT_FINITE), err
    # json.dumps cannot write an int of more than 4300 digits
    long_int = ('{"matrix": [[1' + "0" * 5000
                + ', 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}')
    code, _, err = run_cli(["decompose"], long_int, monkeypatch)
    assert code == 2 and err == NOT_FINITE + "\n", err
    deep = '{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}"
    code, _, err = run_cli(["decompose"], deep, monkeypatch)
    assert code == 2 and err.startswith("error: invalid JSON input"), err


def _finite_number(value):
    """Whether value is a JSON number, not a bool, that a float holds."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _is_grid(matrix):
    """Whether json.dumps writes matrix as 4 arrays of 4 finite numbers."""
    return (type(matrix) in (list, tuple) and len(matrix) == 4
            and all(type(row) in (list, tuple) and len(row) == 4
                    and all(map(_finite_number, row)) for row in matrix))


_numbers = st.integers() | st.floats() | _edge_floats


def _grids(entries, sizes=st.just(4)):
    return sizes.flatmap(lambda size: st.lists(
        st.lists(entries, min_size=size, max_size=size), min_size=4, max_size=4))


@settings(deadline=None, max_examples=400)
@given(_values(st.floats()) | _grids(_numbers) | _grids(_numbers | _values(st.floats()))
       | _grids(_numbers, st.integers(3, 5)))
@example(np.eye(4, dtype=int).tolist())
@example([[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
@example([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 10 ** 400]])
def test_json_matrix_is_4_arrays_of_4_numbers(matrix):
    """A JSON matrix parses to 16 floats exactly when it is 4 arrays of 4
    finite numbers, and is a ParseError, never another exception, otherwise."""
    text = json.dumps({"matrix": matrix})
    if _is_grid(matrix):
        entries = parse_matrix(text)
        assert all(type(x) is float for x in entries)
        assert entries == [float(x) for row in matrix for x in row]
    else:
        with pytest.raises(ParseError):
            parse_matrix(text)


@settings(deadline=None, max_examples=400)
@given(_grids(st.floats(allow_nan=False, allow_infinity=False) | _edge_floats))
@example([[-0.0, 5e-324, -1.5e-310, 1.7976931348623157e308]] * 4)
def test_written_json_matrix_reads_back_bit_for_bit(rows):
    """The matrix compose --json writes is read back by decompose entry for
    entry, bit for bit: -0.0 and subnormals too."""
    entries = parse_matrix(_dumps({"matrix": rows}))
    assert list(map(float.hex, entries)) == [x.hex() for row in rows for x in row]

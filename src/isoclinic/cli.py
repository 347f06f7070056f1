"""Command-line interface.

Subcommands: decompose, compose, generate, verify, classify. Matrices come
from a file path or stdin as 16 whitespace-separated reals in row-major
order (plain16) or as JSON {"matrix": [[...], [...], [...], [...]]}; the
format is sniffed unless --format says otherwise. All numbers are printed
with repr, the shortest decimal that round-trips binary64, so piping output
back in is lossless.

Exit codes: 0 success, 1 decomposition failure, 2 parse or usage error,
3 validation failure (non-rotation input or zero quaternion), 141 (128 +
SIGPIPE, as a shell reports it) when stdout is closed before the output.
"""

import argparse
import json
import os
import sys

import numpy as np

from .associate import (
    DEFAULT_TOLERANCES,
    Tolerances,
    associate_matrix,
    classify_pair,
    decompose,
    max_abs_minor,
)
from .errors import (
    DecompositionError,
    IsoclinicError,
    ParseError,
    ValidationError,
    ZeroQuaternionError,
)
from .quat import normalize
from .rotation4 import ORTHO_TOL, random_rotation, validate_rotation, van_elfrinkhof

EXIT_OK = 0
EXIT_DECOMPOSITION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BROKEN_PIPE = 141


def _fmt(x) -> str:
    return repr(float(x))


def _matrix_line(A) -> str:
    return " ".join(_fmt(x) for x in np.asarray(A, dtype=float).ravel())


def _exit_code(exc: IsoclinicError) -> int:
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, (ValidationError, ZeroQuaternionError)):
        return EXIT_VALIDATION
    return EXIT_DECOMPOSITION


def parse_matrix(text: str, fmt: str = "auto") -> np.ndarray:
    """Parse one matrix from text in plain16 or JSON form.

    auto sniffs: a document whose first nonblank character is '{' is JSON,
    anything else is treated as 16 whitespace-separated reals.
    """
    if fmt == "auto":
        fmt = "json" if text.lstrip()[:1] == "{" else "plain16"
    if fmt == "json":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON input: {exc}") from exc
        if not isinstance(document, dict) or "matrix" not in document:
            raise ParseError('JSON input must be an object with a "matrix" key')
        rows = document["matrix"]
        try:
            A = np.array(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"matrix rows are not numeric: {exc}") from exc
        if A.shape != (4, 4):
            raise ParseError(f"matrix must be 4 rows of 4 numbers, got shape {A.shape}")
    else:
        tokens = text.split()
        if len(tokens) != 16:
            raise ParseError(f"expected 16 numbers, got {len(tokens)}")
        try:
            A = np.array([float(t) for t in tokens]).reshape(4, 4)
        except ValueError as exc:
            raise ParseError(f"non-numeric token in input: {exc}") from exc
    if not np.all(np.isfinite(A)):
        raise ParseError("matrix entries must be finite")
    return A


def _read_matrix(args) -> np.ndarray:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.input}: {exc}") from exc
    return parse_matrix(text, args.format)


def _parse_quat_arg(text: str, name: str) -> np.ndarray:
    tokens = text.replace(",", " ").split()
    if len(tokens) != 4:
        raise ParseError(f"--{name} needs 4 numbers, got {len(tokens)}")
    try:
        q = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise ParseError(f"--{name} has a non-numeric component: {exc}") from exc
    if not np.all(np.isfinite(q)):
        raise ParseError(f"--{name} components must be finite")
    return q


def _tolerances(args) -> Tolerances:
    return Tolerances(
        minor_tol=args.minor_tol,
        recon_tol=args.recon_tol,
        iso_tol=args.iso_tol,
    )


def _tolerance_fields(args) -> dict:
    tol = _tolerances(args)
    return {
        "ortho_tol": args.ortho_tol,
        "det_tol": args.ortho_tol,
        "norm_tol": tol.norm_tol,
        "minor_tol": tol.minor_tol,
        "factor_tol": tol.factor_tol,
        "recon_tol": tol.recon_tol,
        "sign_tol": tol.sign_tol,
        "iso_tol": tol.iso_tol,
    }


def _rejection(args, exc: IsoclinicError) -> int:
    """Emit a rejection report and return the exit code for exc."""
    if args.json:
        report = {
            "status": "rejected",
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "measured": None if exc.measured is None else float(exc.measured),
            },
            "tolerances": _tolerance_fields(args),
        }
        print(json.dumps(report, indent=2))
    print(f"rejected: {exc}", file=sys.stderr)
    return _exit_code(exc)


def _emit_matrix(A, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"matrix": np.asarray(A).tolist()}, indent=2))
    else:
        print(_matrix_line(A))


def _factor_input(args):
    """Read, validate, decompose and classify the input matrix."""
    A = _read_matrix(args)
    validate_rotation(A, args.ortho_tol, args.ortho_tol)
    result = decompose(A, _tolerances(args))
    return result, classify_pair(result.left, result.right, args.iso_tol)


def cmd_decompose(args) -> int:
    try:
        result, kind = _factor_input(args)
    except (ValidationError, DecompositionError) as exc:
        return _rejection(args, exc)
    if args.json:
        report = {
            "status": "ok",
            "left": result.left.tolist(),
            "right": result.right.tolist(),
            "alternate": "negate both factors for the second decomposition",
            "left_angle": kind.left_angle,
            "right_angle": kind.right_angle,
            "class": kind.kind.value,
            "residuals": {
                "reconstruction": result.reconstruction_residual,
                "norm_deviation": result.norm_deviation,
                "max_minor": result.max_minor,
            },
            "tolerances": _tolerance_fields(args),
        }
        print(json.dumps(report, indent=2))
    else:
        print(f"left:  {' '.join(_fmt(x) for x in result.left)}")
        print(f"right: {' '.join(_fmt(x) for x in result.right)}")
        print("alternate: negate both factors for the second decomposition")
        print(f"left angle:  {_fmt(kind.left_angle)}")
        print(f"right angle: {_fmt(kind.right_angle)}")
        print(f"class: {kind.kind.value}")
        print(f"reconstruction residual: {_fmt(result.reconstruction_residual)}")
        print(f"norm deviation: {_fmt(result.norm_deviation)}")
        print(f"max minor: {_fmt(result.max_minor)}")
    return EXIT_OK


def cmd_compose(args) -> int:
    left = _parse_quat_arg(args.left, "left")
    right = _parse_quat_arg(args.right, "right")
    factors = []
    for name, q in (("left", left), ("right", right)):
        deviation = abs(float(np.linalg.norm(q)) - 1.0)
        factors.append(normalize(q))
        if deviation > 1e-12:
            print(f"note: --{name} normalized (norm deviated by {deviation:.3e})",
                  file=sys.stderr)
    A = van_elfrinkhof(*factors)
    _emit_matrix(A, args.json)
    return EXIT_OK


def cmd_generate(args) -> int:
    rng = np.random.default_rng(args.seed)
    matrices = [random_rotation(rng) for _ in range(args.count)]
    if args.json:
        print(json.dumps({"matrices": [A.tolist() for A in matrices]}, indent=2))
    else:
        for A in matrices:
            print(_matrix_line(A))
    return EXIT_OK


def cmd_verify(args) -> int:
    A = _read_matrix(args)
    ortho_deviation = float(np.max(np.abs(A.T @ A - np.eye(4))))
    det = float(np.linalg.det(A))
    M = associate_matrix(A)
    norm_deviation = abs(float(np.linalg.norm(M)) - 1.0)
    minor_all = max_abs_minor(M)
    tol = _tolerances(args)
    checks = {
        "orthogonality": {"measured": ortho_deviation, "tol": args.ortho_tol,
                          "pass": ortho_deviation <= args.ortho_tol},
        "determinant": {"measured": det, "tol": args.ortho_tol,
                        "pass": abs(det - 1.0) <= args.ortho_tol},
        "norm_deviation": {"measured": norm_deviation, "tol": tol.norm_tol,
                           "pass": norm_deviation <= tol.norm_tol},
        "max_minor": {"measured": minor_all, "tol": tol.minor_tol,
                      "pass": minor_all <= tol.minor_tol},
    }
    ok = all(entry["pass"] for entry in checks.values())
    if args.json:
        print(json.dumps({"status": "ok" if ok else "rejected",
                          "checks": checks,
                          "tolerances": _tolerance_fields(args)}, indent=2))
    else:
        for name, entry in checks.items():
            verdict = "pass" if entry["pass"] else "FAIL"
            print(f"{name}: {_fmt(entry['measured'])} [{verdict}] (tol {entry['tol']:g})")
        print(f"overall: {'ok' if ok else 'rejected'}")
    if ok:
        return EXIT_OK
    if not (checks["orthogonality"]["pass"] and checks["determinant"]["pass"]):
        return EXIT_VALIDATION
    return EXIT_DECOMPOSITION


def cmd_classify(args) -> int:
    try:
        _, kind = _factor_input(args)
    except (ValidationError, DecompositionError) as exc:
        return _rejection(args, exc)
    if args.json:
        print(json.dumps({"status": "ok",
                          "class": kind.kind.value,
                          "left_angle": kind.left_angle,
                          "right_angle": kind.right_angle,
                          "tolerances": _tolerance_fields(args)}, indent=2))
    else:
        print(f"class: {kind.kind.value}")
        print(f"left angle:  {_fmt(kind.left_angle)}")
        print(f"right angle: {_fmt(kind.right_angle)}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("count must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoclinic",
        description="Split 4x4 rotation matrices into left- and right-isoclinic "
                    "factors, and verify the identities that make that possible.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    matrix_input = argparse.ArgumentParser(add_help=False)
    matrix_input.add_argument("input", nargs="?", default="-",
                              help="matrix file path, or - for stdin (default)")
    matrix_input.add_argument("--format", choices=["auto", "plain16", "json"],
                              default="auto", help="input format (default: sniff)")

    tolerance_flags = argparse.ArgumentParser(add_help=False)
    tolerance_flags.add_argument("--ortho-tol", type=float, default=ORTHO_TOL,
                                 help="orthogonality and determinant tolerance")
    tolerance_flags.add_argument("--minor-tol", type=float,
                                 default=DEFAULT_TOLERANCES.minor_tol,
                                 help="2x2 minor tolerance")
    tolerance_flags.add_argument("--recon-tol", type=float,
                                 default=DEFAULT_TOLERANCES.recon_tol,
                                 help="reconstruction residual tolerance")
    tolerance_flags.add_argument("--iso-tol", type=float,
                                 default=DEFAULT_TOLERANCES.iso_tol,
                                 help="trivial-factor threshold for classification")

    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true",
                           help="emit a JSON report instead of plain text")

    p = subparsers.add_parser(
        "decompose", parents=[matrix_input, tolerance_flags, json_flag],
        help="factor a rotation matrix into its unit-quaternion pair")
    p.set_defaults(func=cmd_decompose)

    p = subparsers.add_parser(
        "compose", parents=[json_flag],
        help="build the rotation matrix acting as P -> left * P * right")
    p.add_argument("--left", required=True,
                   help="four numbers 'w x y z' (commas or spaces)")
    p.add_argument("--right", required=True,
                   help="four numbers 'w x y z' (commas or spaces)")
    p.set_defaults(func=cmd_compose)

    p = subparsers.add_parser(
        "generate", parents=[json_flag],
        help="emit seeded uniform random rotation matrices")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--count", type=_positive_int, default=1,
                   help="number of matrices (default 1)")
    p.set_defaults(func=cmd_generate)

    p = subparsers.add_parser(
        "verify", parents=[matrix_input, tolerance_flags, json_flag],
        help="report orthogonality, determinant, norm and minor checks")
    p.set_defaults(func=cmd_verify)

    p = subparsers.add_parser(
        "classify", parents=[matrix_input, tolerance_flags, json_flag],
        help="name the rotation kind and its two factor angles")
    p.set_defaults(func=cmd_classify)

    return parser


def _attach_vector_values(argv):
    """Rewrite '--left V' as '--left=V' so values like '-1,0,0,0' are never
    mistaken for option names."""
    joined = []
    skip = False
    for position, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in ("--left", "--right") and position + 1 < len(argv):
            joined.append(f"{token}={argv[position + 1]}")
            skip = True
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_attach_vector_values(list(argv)))
    try:
        return args.func(args)
    except IsoclinicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the flush at
        # interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)

"""Command-line interface.

Subcommands: decompose, compose, generate, verify, classify. Matrices come
from a file path or stdin as 16 whitespace-separated reals in row-major
order (plain16) or as JSON {"matrix": [[...], [...], [...], [...]]}: input
whose first nonblank character is '{' is JSON. All numbers are printed with
repr, the shortest decimal that round-trips binary64, so piping output back
in is lossless.

Exit codes: 0 success, 1 decomposition failure, 2 parse or usage error,
3 validation failure (non-rotation input or zero quaternion), 141 (128 +
SIGPIPE, as a shell reports it) when stdout is closed before the output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from . import _kernel
from ._kernel import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    DecompositionError,
    IsoclinicError,
    NotUnitQuaternionError,
    ParseError,
    ValidationError,
    ZeroQuaternionError,
)
from .rotation4 import random_rotation

EXIT_OK = 0
EXIT_DECOMPOSITION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BROKEN_PIPE = 141
# numpy's limit on the number of array dimensions, which JSON rows must keep
_MAX_DIMS = 64


def _fmt(x) -> str:
    return repr(float(x))


def _matrix_line(entries) -> str:
    return " ".join(map(_fmt, entries))


def _exit_code(exc: IsoclinicError) -> int:
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, (ValidationError, ZeroQuaternionError)):
        return EXIT_VALIDATION
    return EXIT_DECOMPOSITION


def _dumps(value, indent="\n") -> str:
    """value as json.dumps(value, indent=2) writes it, byte for byte, except
    that a float that is not finite is null: strict JSON (RFC 8259) has no
    Infinity or NaN. Takes dicts with str keys, lists, tuples, str, float,
    int, bool and None; json's C encoder serves no indented output."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)  # int, bool or None
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(key)}: {_dumps(item, inner)}"
                 for key, item in value.items()]
        brackets = "{}"
    else:
        items = [_dumps(item, inner) for item in value]
        brackets = "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _bounds(tolerances) -> dict:
    return {name: getattr(tolerances, name) for name in ("ortho_tol", "dist_tol", "iso_tol")}


def parse_matrix(text: str) -> list:
    """Parse one matrix from text in plain16 or JSON form, as its 16 entries
    in row-major order.

    A document whose first nonblank character is '{' is JSON, anything else
    is treated as 16 whitespace-separated reals.
    """
    if text.lstrip()[:1] == "{":
        try:
            document = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays nested past the interpreter's recursion limit
            raise ParseError(f"invalid JSON input: {exc}") from exc
        if not isinstance(document, dict) or "matrix" not in document:
            raise ParseError('JSON input must be an object with a "matrix" key')
        entries = _json_entries(document["matrix"])
    else:
        tokens = text.split()
        if len(tokens) != 16:
            raise ParseError(f"expected 16 numbers, got {len(tokens)}")
        try:
            entries = [float(t) for t in tokens]
        except ValueError as exc:
            raise ParseError(f"non-numeric token in input: {exc}") from exc
    if not all(map(math.isfinite, entries)):
        raise ParseError("matrix entries must be finite")
    return entries


def _json_entries(rows) -> list:
    """The entries of JSON rows, read as np.array(rows, dtype=float) reads
    them: lists nest, any other value is one real (float() of it, with null
    as NaN), lists side by side must have the same shape, and a failed
    conversion is reported before a shape other than 4x4."""
    shape = _json_shape(rows, 0)
    flat = [rows]
    for _ in shape:
        flat = [item for sublist in flat for item in sublist]
    try:
        entries = [math.nan if value is None else float(value) for value in flat]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"matrix rows are not numeric: {exc}") from exc
    if shape != (4, 4):
        raise ParseError(f"matrix must be 4 rows of 4 numbers, got shape {shape}")
    return entries


def _json_shape(value, depth):
    """Shape of nested JSON lists; ParseError when lists side by side differ
    in shape or they nest deeper than _MAX_DIMS."""
    if not isinstance(value, list):
        return ()
    if depth == _MAX_DIMS:
        raise ParseError(f"matrix rows are not numeric: more than {_MAX_DIMS} levels of lists")
    shapes = {_json_shape(item, depth + 1) for item in value}
    if len(shapes) > 1:
        raise ParseError("matrix rows are not numeric: rows of unequal length")
    return (len(value),) + (shapes.pop() if shapes else ())


def _read_matrix(args) -> list:
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {args.input}: {exc}") from exc
    return parse_matrix(text)


def _parse_quat_arg(text: str, name: str) -> list:
    tokens = text.replace(",", " ").split()
    if len(tokens) != 4:
        raise ParseError(f"--{name} needs 4 numbers, got {len(tokens)}")
    try:
        q = [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"--{name} has a non-numeric component: {exc}") from exc
    if not all(map(math.isfinite, q)):
        raise ParseError(f"--{name} components must be finite")
    return q


def _rejection(args, exc: IsoclinicError) -> int:
    """Emit a rejection report and return the exit code for exc."""
    if args.json:
        report = {
            "status": "rejected",
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "measured": exc.measured,
            },
            "tolerances": _bounds(args.tolerances),
        }
        print(_dumps(report))
    print(f"rejected: {exc}", file=sys.stderr)
    return _exit_code(exc)


def _emit_matrix(entries, as_json: bool) -> None:
    if as_json:
        rows = [entries[i:i + 4] for i in range(0, 16, 4)]
        print(_dumps({"matrix": rows}))
    else:
        print(_matrix_line(entries))


def _factor_input(args):
    """Read, validate, decompose and classify the input matrix; returns
    (L, R, distance, norm deviation) and the RotationClass."""
    entries = _read_matrix(args)
    _kernel.validate(entries, args.tolerances)
    result = _kernel.decompose(entries, args.tolerances)
    return result, _kernel.classify(result[0], result[1], args.tolerances)


def cmd_decompose(args) -> int:
    (left, right, distance, norm_deviation), kind = _factor_input(args)
    if args.json:
        report = {
            "status": "ok",
            "left": left,
            "right": right,
            "alternate": "negate both factors for the second decomposition",
            "left_angle": kind.left_angle,
            "right_angle": kind.right_angle,
            "class": kind.kind.value,
            "residuals": {
                "distance": distance,
                "norm_deviation": norm_deviation,
            },
            "tolerances": _bounds(args.tolerances),
        }
        print(_dumps(report))
    else:
        print(f"left:  {_matrix_line(left)}")
        print(f"right: {_matrix_line(right)}")
        print("alternate: negate both factors for the second decomposition")
        print(f"left angle:  {_fmt(kind.left_angle)}")
        print(f"right angle: {_fmt(kind.right_angle)}")
        print(f"class: {kind.kind.value}")
        print(f"distance: {_fmt(distance)}")
        print(f"norm deviation: {_fmt(norm_deviation)}")
    return EXIT_OK


def cmd_compose(args) -> int:
    left = _parse_quat_arg(args.left, "left")
    right = _parse_quat_arg(args.right, "right")
    factors = []
    for name, q in (("left", left), ("right", right)):
        factors.append(_kernel.unit(q))
        try:
            # the note marks what the unit check of every factor input rejects
            _kernel.check_unit(q)
        except NotUnitQuaternionError:
            print(f"note: --{name} normalized (norm deviated by "
                  f"{abs(math.hypot(*q) - 1.0):.3e})", file=sys.stderr)
    _emit_matrix(_kernel.two_sided(*factors), args.json)
    return EXIT_OK


def cmd_generate(args) -> int:
    # the only command that builds arrays, so the only one that imports numpy
    import numpy as np
    rng = np.random.default_rng(args.seed)
    matrices = [random_rotation(rng).ravel().tolist() for _ in range(args.count)]
    if args.json:
        rows = [[A[i:i + 4] for i in range(0, 16, 4)] for A in matrices]
        print(_dumps({"matrices": rows}))
    else:
        for A in matrices:
            print(_matrix_line(A))
    return EXIT_OK


def cmd_verify(args) -> int:
    tolerances = args.tolerances
    entries = _read_matrix(args)
    ortho_deviation = _kernel.gram_deviation(entries)
    det = _kernel.determinant(entries)
    try:
        distance = _kernel.distance(entries)
    except ZeroQuaternionError:
        # every entry of M is below 1e-150, so every rotation lies at 2.0
        distance = 2.0
    checks = {
        "orthogonality": {"measured": ortho_deviation, "tol": tolerances.ortho_tol,
                          "pass": ortho_deviation <= tolerances.ortho_tol},
        "determinant": {"measured": det, "tol": tolerances.ortho_tol,
                        "pass": abs(det - 1.0) <= tolerances.ortho_tol},
        "distance": {"measured": distance, "tol": tolerances.dist_tol,
                     "pass": distance <= tolerances.dist_tol},
    }
    ok = all(entry["pass"] for entry in checks.values())
    if args.json:
        print(_dumps({"status": "ok" if ok else "rejected",
                      "checks": checks,
                      "tolerances": _bounds(tolerances)}))
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
    _, kind = _factor_input(args)
    if args.json:
        print(_dumps({"status": "ok",
                      "class": kind.kind.value,
                      "left_angle": kind.left_angle,
                      "right_angle": kind.right_angle,
                      "tolerances": _bounds(args.tolerances)}))
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


def _bound(field: str):
    """argparse type of the flag for Tolerances.<field>, checked by Tolerances."""
    def bound(text: str) -> float:
        value = float(text)
        try:
            Tolerances(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    bound.__name__ = "float"  # argparse's message on a non-number: "invalid float value"
    return bound


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    it unchanged, and building it costs more than a whole request."""
    parser = argparse.ArgumentParser(
        prog="isoclinic",
        description="Split 4x4 rotation matrices into left- and right-isoclinic "
                    "factors, and verify the identities that make that possible.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # name -> parser of each command, which main parses the rest of argv with
    parser.commands = subparsers.choices

    matrix_input = argparse.ArgumentParser(add_help=False)
    matrix_input.add_argument("input", nargs="?", default="-",
                              help="matrix file path, or - for stdin (default)")

    tolerance_flags = argparse.ArgumentParser(add_help=False)
    tolerance_flags.add_argument("--ortho-tol", type=_bound("ortho_tol"),
                                 default=DEFAULT_TOLERANCES.ortho_tol,
                                 help="orthogonality and determinant tolerance, half "
                                      "the distance tolerance")
    tolerance_flags.add_argument("--iso-tol", type=_bound("iso_tol"),
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
        help="report orthogonality, determinant and distance checks")
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
    argv = _attach_vector_values(list(argv))
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        # no command first (none at all, -h, an option, an unknown name):
        # the whole tree parses, and reports, as argparse does
        args = parser.parse_args(argv)
    else:
        # the command's parser takes the rest, as the tree would hand it on
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if "ortho_tol" in args:
        # decompose, verify and classify: the two tolerance flags make the
        # one bound object every check of the command reads
        args.tolerances = Tolerances(args.ortho_tol, args.iso_tol)
    try:
        return args.func(args)
    except (ValidationError, DecompositionError) as exc:
        return _rejection(args, exc)
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

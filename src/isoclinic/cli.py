"""Command-line interface.

Subcommands: decompose, compose, generate, verify, classify. The three
checking commands, decompose, verify and classify, run one pipeline
(decompose, which accepts exactly what validation accepts, then classify)
and differ only in what they print; a rejection is reported, and exits,
the same from each. Matrices come from a file path or stdin, and one
leading byte-order mark (U+FEFF) is dropped.
Input whose first nonblank character is '{' is JSON (RFC 8259): an object
whose "matrix" is 4 arrays of 4 JSON numbers, row by row; a boolean,
string, null, object or other array in a number's place is a parse
error. Any other input is plain16: 16 whitespace-separated tokens in
row-major order, each read by float(), so "+1", ".5" and "1_0" are reals.
--left and --right take 4 such tokens, separated by commas or spaces. Every
number must be finite. All numbers are printed with repr, the shortest
decimal that round-trips binary64, so piping output back in is lossless.
Under --json each result is one line of strict JSON (JSON Lines): a
report, or for compose and generate a {"matrix": ...} record per matrix,
the form decompose reads.

Each command's grammar, its function and its flags, is written once, in
the table _COMMANDS. main parses argv straight from that table when it is
a command name followed by that command's flags, spelled in full, and
their values, at most one input and no '--'; anything else, such as help,
a usage error or an abbreviated flag, goes to an argparse parser built
from the same table. argparse is imported only then, so a request that
parses straight from the table never loads it.

Exit codes: 0 success, 2 parse or usage error, 3 validation failure
(non-rotation input or zero quaternion), 141 (128 + SIGPIPE, as a shell
reports it) when stdout is closed before the output.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from types import SimpleNamespace

from . import _kernel
from ._kernel import DEFAULT_TOLERANCES, Tolerances
from .errors import IsoclinicError, NotUnitQuaternionError, ParseError, ValidationError
from .rotation4 import random_rotation

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BROKEN_PIPE = 141


def _fmt(x) -> str:
    return repr(float(x))


def _matrix_line(entries) -> str:
    return " ".join(map(_fmt, entries))


def _exit_code(exc: IsoclinicError) -> int:
    return EXIT_PARSE if isinstance(exc, ParseError) else EXIT_VALIDATION


# built once per process: json.dumps(allow_nan=False) builds a new encoder per call
_STRICT = json.JSONEncoder(allow_nan=False)


def _dumps(value) -> str:
    """value as one line of strict JSON (RFC 8259): json.dumps(value), with
    each float that is not finite written as null, since strict JSON has no
    Infinity or NaN. The encoder refuses such a float, and only then is the
    value walked to replace it."""
    try:
        return _STRICT.encode(value)
    except ValueError:
        return _STRICT.encode(_finite(value))


def _finite(value):
    """value with each float that is not finite replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _bounds(tolerances) -> dict:
    return {"ortho_tol": tolerances.ortho_tol}


def parse_matrix(text: str) -> list:
    """The 16 entries, in row-major order, of one matrix in JSON or plain16
    form, read by the grammar the module docstring states."""
    # a byte-order mark, as some editors save it, is no part of either form
    # (RFC 8259 section 8.1 lets a JSON parser ignore it)
    text = text.removeprefix("\ufeff")
    if text.lstrip()[:1] == "{":
        try:
            # every JSON number a float: an integer too long for int() is inf
            document = json.loads(text, parse_int=float)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays nested past the interpreter's recursion limit
            raise ParseError(f"invalid JSON input: {exc}") from exc
        if not isinstance(document, dict) or "matrix" not in document:
            raise ParseError('JSON input must be an object with a "matrix" key')
        return _reals(_json_grid(document["matrix"]), 16)
    return _reals(text.split(), 16)


_JSON_KINDS = {float: "a number", bool: "a boolean", str: "a string",
               type(None): "null", dict: "an object"}


def _json_grid(value, where="matrix", depth=0) -> list:
    """The entries, row by row, of a JSON matrix that is 4 arrays of 4
    numbers; a ParseError names the first part of it that is not."""
    if depth == 2 and type(value) is float:
        return [value]
    if depth < 2 and type(value) is list and len(value) == 4:
        return [x for i, item in enumerate(value)
                for x in _json_grid(item, f"{where}[{i}]", depth + 1)]
    found = f"an array of {len(value)}" if type(value) is list else _JSON_KINDS[type(value)]
    raise ParseError(f"matrix must be 4 arrays of 4 numbers: {where} is {found}")


def _reals(tokens, count, flag=None) -> list:
    """float() of each of count tokens, each finite: a matrix's 16 (plain16
    tokens or the floats of JSON rows) or the 4 of --left or --right, whose
    flag a ParseError names."""
    if len(tokens) != count:
        where = f"{flag}: " if flag else ""
        raise ParseError(f"{where}expected {count} numbers, got {len(tokens)}")
    try:
        values = list(map(float, tokens))
    except ValueError as exc:
        raise ParseError(f"non-numeric token in {flag or 'input'}: {exc}") from exc
    # the sum of finite floats is finite unless it overflows, and an inf or
    # NaN makes it inf or NaN, so the entries are scanned only after that
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise ParseError(f"{flag or 'matrix'} entries must be finite")
    return values


def _rejection(args, exc: IsoclinicError) -> int:
    """Emit a rejection report and return the exit code for exc."""
    if args.json:
        report = {
            "status": "rejected",
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "measured": exc.measured,
                "tol": exc.tol,
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
    """Read, decompose and classify the input matrix; returns its 16
    entries, (L, R, distance, norm deviation) and the RotationClass, or
    raises the rejection of the first check that fails. decompose accepts
    exactly what validation accepts and raises what it raises."""
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {args.input}: {exc}") from exc
    entries = parse_matrix(text)
    result = _kernel.decompose(entries, args.tolerances)
    return entries, result, _kernel.classify(result[0], result[1], args.tolerances)


def cmd_decompose(args) -> int:
    _, (left, right, distance, norm_deviation), kind = _factor_input(args)
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
    pair = {name: _reals(getattr(args, name).replace(",", " ").split(), 4, f"--{name}")
            for name in ("left", "right")}
    factors = []
    for name, q in pair.items():
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
    for _ in range(args.count):
        _emit_matrix(random_rotation(rng).ravel().tolist(), args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    # _factor_input returns only when every check passed; a rejection goes
    # to main, which reports it as it reports decompose's
    entries, (_, _, distance, norm_deviation), _ = _factor_input(args)
    tolerances = args.tolerances
    checks = {
        "orthogonality": {"measured": _kernel.gram_deviation(entries),
                          "tol": tolerances.ortho_tol, "pass": True},
        "determinant": {"measured": _kernel.determinant(entries), "tol": 0.0, "pass": True},
    }
    if args.json:
        print(_dumps({"status": "ok", "checks": checks,
                      "residuals": {"distance": distance, "norm_deviation": norm_deviation},
                      "tolerances": _bounds(tolerances)}))
    else:
        for name, entry in checks.items():
            print(f"{name}: {_fmt(entry['measured'])} [pass] (tol {entry['tol']:g})")
        print(f"distance: {_fmt(distance)}")
        print(f"norm deviation: {_fmt(norm_deviation)}")
        print("overall: ok")
    return EXIT_OK


def cmd_classify(args) -> int:
    *_, kind = _factor_input(args)
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


def _usage_error(message: str) -> Exception:
    """The error that makes argparse print message as a usage error. Only
    a rejected value builds one, and argparse then reports it, so argparse
    is imported here and not with the module."""
    import argparse
    return argparse.ArgumentTypeError(message)


def _int_from(low: int):
    """Converter of an integer flag whose values start at low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise _usage_error(f"not an integer: {text!r}") from exc
        if value < low:
            raise _usage_error(f"must be >= {low}, got {value}")
        return value
    return parse


def _tolerances(text: str) -> Tolerances:
    """Converter of --ortho-tol: the Tolerances it sets. Its ValueError on
    a NaN or negative budget becomes a usage error naming the field."""
    value = float(text)
    try:
        return Tolerances(value)
    except ValueError as exc:
        raise _usage_error(str(exc)) from None


_tolerances.__name__ = "float"  # argparse's message on a non-number: "invalid float value"

_INPUT_HELP = "matrix file path, or - for stdin (default)"
_VECTOR_HELP = "four numbers 'w x y z' (commas or spaces)"
# a flag is (spelling, dest, converter, default, metavar, help): a converter
# of None makes a switch that stores True, a default of None a required
# flag, and a metavar of None argparse's own, the dest in capitals
_JSON = ("--json", "json", None, False, None,
         "write each result as one line of JSON instead of plain text")
_ORTHO_TOL = ("--ortho-tol", "tolerances", _tolerances, DEFAULT_TOLERANCES, "ORTHO_TOL",
              "the one noise budget: orthogonality and trivial-factor tolerance; under "
              "any budget the determinant must be positive")

# The grammar of every command, written once: main parses argv straight
# from it, and build_parser builds argparse's tree from it. Each command
# has its function, its help, whether it takes the input positional, and
# its flags in the order help lists them.
_COMMANDS = {
    "decompose": (cmd_decompose, "factor a rotation matrix into its unit-quaternion pair",
                  True, (_ORTHO_TOL, _JSON)),
    "compose": (cmd_compose, "build the rotation matrix acting as P -> left * P * right",
                False, (_JSON, ("--left", "left", str, None, None, _VECTOR_HELP),
                        ("--right", "right", str, None, None, _VECTOR_HELP))),
    "generate": (cmd_generate, "emit seeded uniform random rotation matrices",
                 False, (_JSON, ("--seed", "seed", _int_from(0), None, None, "generator seed"),
                         ("--count", "count", _int_from(1), 1, None,
                          "number of matrices (default 1)"))),
    "verify": (cmd_verify, "report the orthogonality and determinant checks and the distance",
               True, (_ORTHO_TOL, _JSON)),
    "classify": (cmd_classify, "name the rotation kind and its two factor angles",
                 True, (_ORTHO_TOL, _JSON)),
}


def _grammar(func, _help, takes_input, flags):
    """What the direct parse reads of a command: the values it starts from
    (each flag's default, a required flag's None, the function, and "-"
    for the input), and each flag's dest and converter by its spelling."""
    start = {"func": func, **{dest: default for _, dest, _, default, *_ in flags}}
    if takes_input:
        start["input"] = "-"
    return start, {spelling: (dest, convert) for spelling, dest, convert, *_ in flags}


_GRAMMARS = {name: _grammar(*command) for name, command in _COMMANDS.items()}


def _direct_parse(argv):
    """The namespace argparse gives argv, read straight off _COMMANDS, or
    None, leaving argv to argparse, unless argv is a command name followed
    by that command's own flags spelled in full, each value after '=' or
    as the next token, not starting with '-', at most one input where the
    command takes one, every required flag, and values the converters
    accept."""
    grammar = _GRAMMARS.get(argv[0]) if argv else None
    if grammar is None:
        return None
    start, flags = grammar
    values = dict(start)
    positional_taken = "input" not in values  # a command without input takes none
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" or token == "-":
            # argparse reads "" and "-" as positionals too
            if positional_taken:
                return None
            values["input"] = token
            positional_taken = True
            continue
        spelling, equals, value = token.partition("=")
        flag = flags.get(spelling)
        if flag is None:
            return None
        dest, convert = flag
        if convert is None:
            if equals:
                return None
            values[dest] = True
            continue
        if not equals:
            # a missing value reads as "-", which starts with '-'
            value = next(tokens, "-")
            if value[:1] == "-":
                return None
        try:
            values[dest] = convert(value)
        except Exception:
            # a converter rejects a value with ValueError or, through
            # _usage_error, argparse's own error type, which is not imported
            # here; either way argparse parses argv again and reports it
            return None
    if None in values.values():
        return None
    return SimpleNamespace(**values)


@functools.cache
def build_parser():
    """argparse's tree of every command, built from _COMMANDS once per
    process: parsing leaves it unchanged. It parses what the direct parse
    leaves, and prints help and usage errors."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="isoclinic",
        description="Split 4x4 rotation matrices into left- and right-isoclinic "
                    "factors, and verify the identities that make that possible.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # name -> parser of each command, which main parses the rest of argv with
    parser.commands = subparsers.choices
    for name, (func, help_text, takes_input, flags) in _COMMANDS.items():
        command = subparsers.add_parser(name, help=help_text)
        if takes_input:
            command.add_argument("input", nargs="?", default="-", help=_INPUT_HELP)
        for spelling, dest, convert, default, metavar, flag_help in flags:
            if convert is None:
                command.add_argument(spelling, dest=dest, action="store_true", help=flag_help)
            else:
                command.add_argument(spelling, dest=dest, type=convert, default=default,
                                     metavar=metavar, required=default is None,
                                     help=flag_help)
        command.set_defaults(func=func)
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
    args = _direct_parse(argv)
    if args is None:
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
    try:
        return args.func(args)
    except ValidationError as exc:
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

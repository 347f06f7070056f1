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

Each command's grammar is written once, in the table _COMMANDS, and
parse_args reads every argv off it in one pass: the command first, then
its flags, each spelled in full, at most one input, and '--', after which
every token is an input. A value follows its flag after '=' or as the next
token, unless that is a flag of the command or help; any other token
starting with '-', such as -5, is an unknown flag. -h or --help prints help
from the table on stdout and exits 0; a usage error prints "usage:
isoclinic <command> ..." and "isoclinic <command>: error: ..." on stderr
and exits 2.

Exit codes: 0 success, 2 parse or usage error, 3 validation failure
(non-rotation input or zero quaternion), 141 (128 + SIGPIPE, as a shell
reports it) when stdout is closed before the output, help's included.
"""

from __future__ import annotations

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


def _int_from(low: int):
    """Converter of an integer flag whose values start at low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"not an integer: {text!r}") from None
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value
    return parse


def _tolerances(text: str) -> Tolerances:
    """Converter of --ortho-tol: the Tolerances it sets, whose ValueError
    names the field of a NaN or negative budget."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid float value: {text!r}") from None
    return Tolerances(value)


_ABOUT = ("Split 4x4 rotation matrices into left- and right-isoclinic factors, and "
          "verify the identities that make that possible.")
_INPUT_HELP = "matrix file path, or - for stdin (default)"
_VECTOR_HELP = "four numbers 'w x y z' (commas or spaces)"
# a flag maps its spelling to (dest, converter, default, help): a converter
# of None makes a switch that stores True, a default of None a required flag
_JSON = {"--json": ("json", None, False,
                    "write each result as one line of JSON instead of plain text")}
_ORTHO_TOL = {"--ortho-tol": ("tolerances", _tolerances, DEFAULT_TOLERANCES,
                              "the one noise budget, on ||A^T A - I||_F and on a trivial factor's "
                              "vector part; under any budget the determinant must be positive")}

# The grammar of every command, written once: parse_args reads argv from
# it, and help and usage errors are printed from it. Each command has its
# function, its help, whether it takes the input positional, and its flags
# by spelling, in the order help lists them.
_COMMANDS = {
    "decompose": (cmd_decompose, "factor a rotation matrix into its unit-quaternion pair",
                  True, {**_ORTHO_TOL, **_JSON}),
    "compose": (cmd_compose, "build the rotation matrix acting as P -> left * P * right",
                False, {**_JSON, "--left": ("left", str, None, _VECTOR_HELP),
                        "--right": ("right", str, None, _VECTOR_HELP)}),
    "generate": (cmd_generate, "emit seeded uniform random rotation matrices",
                 False, {**_JSON, "--seed": ("seed", _int_from(0), None, "generator seed"),
                         "--count": ("count", _int_from(1), 1,
                                     "number of matrices (default 1)")}),
    "verify": (cmd_verify, "report the orthogonality and determinant checks and the distance",
               True, {**_ORTHO_TOL, **_JSON}),
    "classify": (cmd_classify, "name the rotation kind and its two factor angles",
                 True, {**_ORTHO_TOL, **_JSON}),
}

# each command's start values, built once: func, input "-", each flag's default
_STARTS = {name: {"func": func, **({"input": "-"} if takes_input else {}),
                  **{dest: default for dest, _, default, _ in flags.values()}}
           for name, (func, _, takes_input, flags) in _COMMANDS.items()}
_HELP = ("-h", "--help")


def parse_args(argv):
    """The namespace of argv, read off _COMMANDS in one pass as the module
    docstring states; help is printed and exits 0, a usage error exits 2."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        _help_asked(None, argv[0] if argv else "")
        _fail(None, f"argument command: invalid choice: {argv[0]!r} (choose from "
                    f"{', '.join(_COMMANDS)})" if argv else
                    "the following arguments are required: command")
    name, flags = argv[0], command[3]
    values = _STARTS[name].copy()
    takes_input = "input" in values
    options = True  # until '--', after which every token is an input
    extras = ()
    tokens = iter(argv[1:])
    for token in tokens:
        spelling, equals, value = token.partition("=")
        flag = flags.get(spelling) if options else None
        if flag is None:
            if options and token[:1] == "-" and token != "-":
                if token == "--":
                    options = False
                    continue
                _help_asked(name, token)  # else an unknown flag
            elif takes_input:
                values["input"], takes_input = token, False
                continue
            extras += (token,)
            continue
        dest, convert, _, _ = flag
        if convert is None:
            if equals:
                _fail(name, f"argument {spelling}: ignored explicit argument {value!r}")
            values[dest] = True
            continue
        if not equals:
            value = next(tokens, None)
            if value is None or value in _HELP or value.partition("=")[0] in flags:
                _fail(name, f"argument {spelling}: expected one argument")
        try:
            values[dest] = convert(value)
        except ValueError as exc:
            _fail(name, f"argument {spelling}: {exc}")
    if extras or None in values.values():
        missing = [spelling for spelling, (dest, *_) in flags.items() if values[dest] is None]
        _fail(name, f"the following arguments are required: {', '.join(missing)}" if missing
              else f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def _help_asked(name, token):
    """Print the help of name (None: the program) and exit 0 if token is -h or --help."""
    spelling, equals, value = token.partition("=")
    if spelling in _HELP:
        if equals:
            _fail(name, f"argument -h/--help: ignored explicit argument {value!r}")
        print(_help(name))
        raise SystemExit(EXIT_OK)


def _fail(name, message):
    """Print message as a usage error of command name (None: the program); exit 2."""
    print(_usage(name), f"isoclinic{f' {name}' if name else ''}: error: {message}",
          sep="\n", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _term(spelling, convert):
    """A flag as usage and help show it: --json, or --ortho-tol ORTHO_TOL."""
    return spelling if convert is None else f"{spelling} {spelling[2:].upper().replace('-', '_')}"


def _usage(name):
    """The usage line of the command name, or of the program when None."""
    if name is None:
        return f"usage: isoclinic [-h] {{{','.join(_COMMANDS)}}} ..."
    _, _, takes_input, flags = _COMMANDS[name]
    words = [f"usage: isoclinic {name} [-h]"]
    for spelling, (_, convert, default, _) in flags.items():
        term = _term(spelling, convert)
        words.append(term if default is None else f"[{term}]")
    return " ".join(words + ["[input]"] * takes_input)


def _help(name):
    """The help of the command name, or of the program when None: its
    usage line, what it does, then each argument with its help."""
    import textwrap  # help alone wraps text, so only help loads it
    if name is None:
        about, takes_input, flags = _ABOUT, False, {}
        commands = [(command, entry[1]) for command, entry in _COMMANDS.items()]
    else:
        (_, about, takes_input, flags), commands = _COMMANDS[name], []
    groups = {"commands": commands, "positional arguments": [("input", _INPUT_HELP)] * takes_input,
              "options": [("-h, --help", "show this help message and exit")]
              + [(_term(spelling, convert), text)
                 for spelling, (_, convert, _, text) in flags.items()]}
    lines = [_usage(name), "", *textwrap.wrap(about, 79)]
    for title, rows in groups.items():
        lines += ["", f"{title}:"] * bool(rows)
        for term, text in rows:
            lines += textwrap.wrap(text, 79, initial_indent=f"  {term:<21} ",
                                   subsequent_indent=" " * 24)
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        return _rejection(args, exc)
    except IsoclinicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def entrypoint() -> None:
    """Run main() on sys.argv and end the process at its last write.

    The exit code is main()'s return value, or the code of the SystemExit
    that help and usage errors raise. stdout is flushed, then stderr, and
    the process ends at os._exit, as mypy's --fast-exit ends: no module or
    object finalization and no atexit callback runs after the report is
    written. A reader that closed stdout, during main() or at the flush,
    gets exit 141 and no traceback. Any other exception propagates, with
    its traceback, through the interpreter's normal exit. In-process
    callers use main(), which returns its code.
    """
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left in stdout's buffer is never flushed: os._exit skips it
        code = EXIT_BROKEN_PIPE
    sys.stderr.flush()
    os._exit(code)

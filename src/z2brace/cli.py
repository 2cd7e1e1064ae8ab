"""Command-line interface with JSON input/output.

Subcommands: check, classify, generate, search, ybe.  Exit codes
follow one convention everywhere: 0 means the mathematical check passed,
1 means it found a genuine failure (an invalid pair, a counterexample, a
valid pair outside every family, a family member that is not valid), 2
means the invocation itself was bad (malformed JSON, non-unimodular
matrices, unusable parameters).  classify exits 0 on a valid family
member and on an invalid pair outside every family (with a note on
stderr), and 1, with a stderr line saying the classification is
falsified, on a valid pair outside every family and on a family member
that check_pair finds invalid.

Specs are accepted inline ('{"phi": [[...]], "psi": [[...]]}') or as a
path to a file holding the same JSON; an argument starting with "{" or
"[" is read as inline JSON.  All output is deterministic:
identical arguments and seed produce byte-identical bytes.

A command computes and writes nothing: it returns its JSON payload,
whether its check passed, and at most one line for stderr.  main builds
the whole text with one small writer, _write, before writing anything, so
a payload that cannot be written (an int past int's digit limit) leaves
stdout empty and creates no --output file.  main then prints the line and
maps passed to exit code 0 and failed to 1.  The bytes are those of
json.dumps(payload, indent=2), but json's indented encoding runs in pure
Python, while _write covers just the payload types the commands return
(dicts with str keys, lists, str, int, bool and None) and raises
TypeError on any other.  json itself only decodes the specs.

Each command is declared once, in the table _DECLARATIONS: its help, its
handler and each argument's name or flag with its add_argument keywords.
_build_parser adds every command's parser from it in one loop, with
--output last, and reads each command's grammar off the Actions its
add_argument calls returned.  main parses each call once.  When the
first argument names a command, the rest goes to _parse_direct, with
that command's grammar.  It takes exact option strings ("--name value"
or "--name=value"), positionals in declared order, and an option value
that starts with "-" only as an ASCII -[0-9]+ integer; it converts each
value with the Action's type, checks its choices and fills the defaults,
at a fraction of argparse's cost per call.  On anything else (an abbreviation, an
unknown or repeated option, -h, --, a missing value or argument, an extra
positional, a failed type or choice) it returns None, and the command's
own argparse parser, the one the top-level parser holds, parses the call
instead, so every help text, usage line, error message and exit code is
argparse's.  No argument, -h or an unknown command goes to the top-level
parser, which prints its help or its error.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable

from .brace import BraceSpec, check_pair
from .classification import (
    RowParams,
    exhaustive_search,
    generate_row,
    row_label,
    row_membership,
)
from .gl2z import _decimal
from .ybe import sample_report

__all__ = ["main"]

# What a command returns: its JSON payload, whether its check passed, and
# its one stderr line or None.
_Result = tuple[object, bool, str | None]


def _load_spec(text: str) -> BraceSpec:
    if not text.lstrip().startswith(("{", "[")):
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    return BraceSpec.from_dict(json.loads(text))


def _write(value: object, parts: list[str], indent: str) -> None:
    """Append value's JSON to parts as json.dumps(value, indent=2) writes it,
    at nesting depth len(indent) // 2.  Only the types the commands emit are
    accepted: dicts with str keys, lists, str, int, bool and None.  An int
    with more digits than int converts to str raises ValueError naming its
    bit length."""
    if isinstance(value, bool):
        parts.append("true" if value else "false")
    elif isinstance(value, int):
        try:
            parts.append(int.__repr__(value))
        except ValueError:
            # More digits than int converts to str: name the int by its size.
            raise ValueError(f"cannot write {_decimal(value)}: it has more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
    elif isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif isinstance(value, list):
        if not value:
            parts.append("[]")
            return
        inner = indent + "  "
        separator = "[\n" + inner
        for item in value:
            parts.append(separator)
            _write(item, parts, inner)
            separator = ",\n" + inner
        parts.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(separator + encode_basestring_ascii(key) + ": ")
            _write(item, parts, inner)
            separator = ",\n" + inner
        parts.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _cmd_check(args: argparse.Namespace) -> _Result:
    verdict = check_pair(_load_spec(args.spec))
    return verdict.to_dict(), verdict.valid, None


def _cmd_classify(args: argparse.Namespace) -> _Result:
    spec = _load_spec(args.spec)
    labels = sorted(label.value for label in row_membership(spec))
    if check_pair(spec).valid:
        if labels:
            return labels, True, None
        failure = "valid pair outside every family"
    elif labels:
        failure = f"member of {', '.join(labels)} fails the validity conditions"
    else:
        note = "note: not a lambda-homomorphic brace (pair fails the validity conditions)"
        return labels, True, note
    return labels, False, f"{failure}; classification falsified"


def _cmd_generate(args: argparse.Namespace) -> _Result:
    label = row_label(args.row)
    params = RowParams(*(getattr(args, name) for name in RowParams._fields))
    return generate_row(label, params).to_dict(), True, None


def _cmd_search(args: argparse.Namespace) -> _Result:
    report = exhaustive_search(args.bound)
    return report.to_dict(), report.confirms_classification, None


def _cmd_ybe(args: argparse.Namespace) -> _Result:
    spec = _load_spec(args.spec)
    report = sample_report(spec, samples=args.samples, seed=args.seed, box=args.box)
    failures = ("ybe_failures", "involutivity_failures", "nondegeneracy_failures")
    return report, not any(report[key] for key in failures), None


# Each command's help, handler and arguments: the name or flag of each
# and its add_argument keywords, in declared order.  generate takes one
# int option per RowParams field, sign1 and sign2 only as 1 or -1.
# _build_parser adds --output to every command after them.
_DECLARATIONS: dict[str, tuple[str, Callable[[argparse.Namespace], _Result], list]] = {
    "check": ("validate a pair (exit 0 valid, 1 invalid)", _cmd_check, [
        ("spec", {"help": "inline JSON or a path to a spec file"}),
    ]),
    "classify": ("list the families a pair belongs to", _cmd_classify, [
        ("spec", {"help": "inline JSON or a path to a spec file"}),
    ]),
    "generate": ("construct a family member", _cmd_generate, [
        ("--row", {"required": True, "help": 'family label, e.g. "1.2"'}),
        *((f"--{name}", {"type": int, "choices": (1, -1) if name.startswith("sign") else None})
          for name in RowParams._fields),
    ]),
    "search": ("exhaustive cross-validation over a bounded entry box", _cmd_search, [
        ("--bound", {"type": int, "required": True, "help": "entry box half-width"}),
    ]),
    "ybe": ("sampled Yang-Baxter checks for a valid pair", _cmd_ybe, [
        ("spec", {"help": "inline JSON or a path to a spec file"}),
        ("--samples", {"type": int, "default": 1000}),
        ("--seed", {"type": int, "default": 0}),
        ("--box", {"type": int, "default": 4, "help": "sampling range only: sample "
                   "coordinates are drawn from [-box, box]; non-degeneracy is "
                   "checked as det lambda = +-1"}),
    ]),
}


def _build_parser() -> tuple[
    argparse.ArgumentParser,
    dict[str, argparse.ArgumentParser],
    dict[str, _Grammar],
]:
    """The top-level parser, its subparsers' choices (each command's parser)
    and each command's grammar for _parse_direct, all from _DECLARATIONS."""
    parser = argparse.ArgumentParser(
        prog="z2brace",
        description="Exact construction, validation and classification of "
        "lambda-homomorphic braces on Z^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    grammars = {}
    for name, (help_text, handler, arguments) in _DECLARATIONS.items():
        command = sub.add_parser(name, help=help_text)
        actions = [command.add_argument(flag, **keywords) for flag, keywords in arguments]
        actions.append(
            command.add_argument("--output", help="write JSON to this file instead of stdout")
        )
        command.set_defaults(func=handler)
        grammars[name] = _grammar(command, actions)
    return parser, sub.choices, grammars


# One command's grammar, read off the public attributes of its Actions:
# the Action of each option string, the positional Actions in declared
# order, every dest's default (func's from set_defaults) and the dests
# that must be given.
_Grammar = tuple[
    dict[str, argparse.Action],
    tuple[argparse.Action, ...],
    dict[str, object],
    frozenset[str],
]


def _grammar(parser: argparse.ArgumentParser, actions: list[argparse.Action]) -> _Grammar:
    options = {name: action for action in actions for name in action.option_strings}
    positionals = tuple(action for action in actions if not action.option_strings)
    defaults = {action.dest: action.default for action in actions}
    defaults["func"] = parser.get_default("func")
    required = frozenset(action.dest for action in actions if action.required)
    return options, positionals, defaults, required


def _parse_direct(grammar: _Grammar, argv: list[str]) -> argparse.Namespace | None:
    """The Namespace the command's parse_args(argv) returns, for a call
    written only in the forms the module docstring lists; None for any
    other, which argparse then parses.  Every Action the commands declare
    stores one value, the only kind of Action this reads."""
    options, positionals, defaults, required = grammar
    values: dict[str, object] = {}
    position = 0
    index = 0
    while index < len(argv):
        token = argv[index]
        index += 1
        if token[:1] == "-":
            name, equals, value = token.partition("=")
            action = options.get(name)
            if action is None or action.dest in values:
                return None
            if not equals:
                if index == len(argv):
                    return None
                value = argv[index]
                index += 1
            # argparse reads another "-" token as an option or, depending on
            # its version, as a number, and drops a "--" value.
            if value[:1] == "-" and not (value[1:].isascii() and value[1:].isdigit()):
                return None
        elif position < len(positionals):
            action = positionals[position]
            position += 1
            value = token
        else:
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= values.keys():
        return None
    return argparse.Namespace(**{**defaults, **values})


# Built once at import: parse_args leaves a parser unchanged, so every
# main() call in a process shares them.  _COMMANDS holds the same command
# parsers as _PARSER; _GRAMMARS holds each one's grammar.
_PARSER, _COMMANDS, _GRAMMARS = _build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        args = _PARSER.parse_args(argv)
    else:
        args = _parse_direct(_GRAMMARS[argv[0]], argv[1:])
        if args is None:
            args = command.parse_args(argv[1:])
    try:
        payload, passed, note = args.func(args)
        parts: list[str] = []
        _write(payload, parts, "")
        text = "".join(parts) + "\n"
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
    # BadParams, InvalidSpec, NotUnimodular, json.JSONDecodeError and an int
    # past the digit limit are all ValueErrors.
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if note is not None:
        print(note, file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

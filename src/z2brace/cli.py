"""Command-line interface with JSON input/output.

Subcommands: check, classify, generate, search, orders, ybe.  Exit codes
follow one convention everywhere: 0 means the mathematical check passed,
1 means it found a genuine failure (an invalid pair, a counterexample, a
valid pair outside every family), 2 means the invocation itself was bad
(malformed JSON, non-unimodular matrices, unusable parameters).

Specs are accepted inline ('{"phi": [[...]], "psi": [[...]]}') or as a
path to a file holding the same JSON; an argument starting with "{" or
"[" is read as inline JSON.  All output is deterministic:
identical arguments and seed produce byte-identical bytes.

main parses each call once: when the first argument names a command, the
rest goes straight to that command's own parser, the one the top-level
parser holds; anything else (no argument, -h, an unknown command) goes to
the top-level parser, which prints its help or its error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .brace import BraceSpec, check_pair
from .classification import (
    RowParams,
    exhaustive_search,
    generate_row,
    orders_crosscheck,
    row_label,
    row_membership,
)
from .ybe import sample_report

__all__ = ["main"]


def _load_spec(text: str) -> BraceSpec:
    if not text.lstrip().startswith(("{", "[")):
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    return BraceSpec.from_dict(json.loads(text))


# json.dumps(payload, indent=2) builds this same encoder on every call;
# one shared encoder writes the same bytes without that per-call setup.
# encode keeps no state between calls.
_ENCODER = json.JSONEncoder(indent=2)


def _emit(payload: object, output: str | None) -> None:
    text = _ENCODER.encode(payload) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_check(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    verdict = check_pair(spec)
    _emit(verdict.to_dict(), args.output)
    return 0 if verdict.valid else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    labels = sorted(label.value for label in row_membership(spec))
    _emit(labels, args.output)
    if check_pair(spec).valid:
        if not labels:
            print("valid pair outside every family; classification falsified", file=sys.stderr)
            return 1
        return 0
    print(
        "note: not a lambda-homomorphic brace (pair fails the validity conditions)",
        file=sys.stderr,
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    label = row_label(args.row)
    params = RowParams(
        m=args.m, p=args.p, q=args.q, n=args.n, sign1=args.sign1, sign2=args.sign2
    )
    spec = generate_row(label, params)
    _emit(spec.to_dict(), args.output)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    report = exhaustive_search(args.bound)
    _emit(report.to_dict(), args.output)
    return 0 if report.confirms_classification else 1


def _cmd_orders(args: argparse.Namespace) -> int:
    disagreements = orders_crosscheck(args.bound)
    payload = [
        {"matrix": matrix.rows(), "by_predicate": str(pred), "by_iteration": str(it)}
        for matrix, pred, it in disagreements
    ]
    _emit(payload, args.output)
    return 0 if not disagreements else 1


def _cmd_ybe(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    report = sample_report(spec, samples=args.samples, seed=args.seed, box=args.box)
    _emit(report, args.output)
    clean = not (
        report["ybe_failures"]
        or report["involutivity_failures"]
        or report["nondegeneracy_failures"]
    )
    return 0 if clean else 1


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers' choices: each command's parser."""
    parser = argparse.ArgumentParser(
        prog="z2brace",
        description="Exact construction, validation and classification of "
        "lambda-homomorphic braces on Z^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write JSON to this file instead of stdout")

    p_check = sub.add_parser("check", help="validate a pair (exit 0 valid, 1 invalid)")
    p_check.add_argument("spec", help="inline JSON or a path to a spec file")
    add_output(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_classify = sub.add_parser("classify", help="list the families a pair belongs to")
    p_classify.add_argument("spec", help="inline JSON or a path to a spec file")
    add_output(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_generate = sub.add_parser("generate", help="construct a family member")
    p_generate.add_argument("--row", required=True, help='family label, e.g. "1.2"')
    p_generate.add_argument("--m", type=int)
    p_generate.add_argument("--p", type=int)
    p_generate.add_argument("--q", type=int)
    p_generate.add_argument("--n", type=int)
    p_generate.add_argument("--sign1", type=int, choices=(1, -1))
    p_generate.add_argument("--sign2", type=int, choices=(1, -1))
    add_output(p_generate)
    p_generate.set_defaults(func=_cmd_generate)

    p_search = sub.add_parser(
        "search", help="exhaustive cross-validation over a bounded entry box"
    )
    p_search.add_argument("--bound", type=int, required=True, help="entry box half-width")
    add_output(p_search)
    p_search.set_defaults(func=_cmd_search)

    p_orders = sub.add_parser(
        "orders", help="cross-check order classification against iteration"
    )
    p_orders.add_argument("--bound", type=int, required=True, help="entry box half-width")
    add_output(p_orders)
    p_orders.set_defaults(func=_cmd_orders)

    p_ybe = sub.add_parser("ybe", help="sampled Yang-Baxter checks for a valid pair")
    p_ybe.add_argument("spec", help="inline JSON or a path to a spec file")
    p_ybe.add_argument("--samples", type=int, default=1000)
    p_ybe.add_argument("--seed", type=int, default=0)
    p_ybe.add_argument(
        "--box",
        type=int,
        default=4,
        help="sampling range only: sample coordinates are drawn from "
        "[-box, box]; non-degeneracy is checked as det lambda = +-1",
    )
    add_output(p_ybe)
    p_ybe.set_defaults(func=_cmd_ybe)

    return parser, sub.choices


# Built once at import: parse_args leaves a parser unchanged, so every
# main() call in a process shares them.  _COMMANDS holds the same command
# parsers as _PARSER.
_PARSER, _COMMANDS = _build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        args = _PARSER.parse_args(argv)
    else:
        args = command.parse_args(argv[1:])
    try:
        return args.func(args)
    # BadParams, InvalidSpec, NotUnimodular and json.JSONDecodeError are
    # all ValueErrors.
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

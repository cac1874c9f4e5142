"""Command-line front end.

Commands: normalize, eq, bound, reverse, info, conjecture,
census gen, census check.  Default output is human-readable text;
``--json`` switches to a single JSON document whose field names mirror
the library types.

Each command returns its exit code and its text, as chunks, and does no
output of its own; ``main`` alone writes the text, to stdout or to
``--out``, and reports a failed write as ``cannot write ...``.  The
help text of ``--help`` is written the same way.

This module parses the arguments, opens the files, maps errors to exit
codes and writes.  The text of the census listing and of the census
check report is spelled in ``census``.  ``census``, like ``json`` on the
``--json`` paths, is imported on first use, by the two census commands,
so a one-shot command neither loads nor compiles it.

Exit codes: 0 success, 1 usage or parse error, 2 validation failure,
3 census violation found.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterator

from .complexity import (
    conjectured_complexity,
    sharper_bound_note,
    upper_bound,
)
from .core import (
    NormalizedSeifertParams,
    boundary_profile,
    euler_char_base,
    is_closed,
    is_orientable,
    orbifold_summary,
    validate,
)
from .normal_form import normalize, reverse_orientation
from .notation import ParseError, format_params, parse_params

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VIOLATION = 3

# The census listing is written as it is walked and never held, so its
# memory is the walk's: the 2^(c-5) pairs that can share a multiset,
# spelled, and the index of the 2^(c-3) pairs with 2q <= p, as numbers.
# The listing, its run time and the walk's memory each grow about 2x per
# unit of budget: budget 20 lists 693,478 entries in about 1.5 s and
# 24 MB, budget 22 2,970,747 in about 5 s and 53 MB, and budget 24
# 12,716,832 in about 21 s and 170 MB (peak RSS, --out, text or --json,
# on a 2-vCPU host).  A larger budget is refused rather than left to run
# for minutes and then exhaust memory.
_GEN_BUDGET_LIMIT = 24


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Help(Exception):
    """--help was given; the argument is the help text."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the interface
    # reserves 2 for validation failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(EXIT_USAGE, f"{self.prog}: error: {message}")

    # argparse's --help writes the text itself, drops a failed write and
    # exits 0; main writes it instead, like any answer
    def print_help(self, file=None):
        raise _Help(self.format_help())


def _parse_valid(text: str) -> NormalizedSeifertParams:
    try:
        params = parse_params(text)
    except ParseError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    try:
        return normalize(params)
    except ValueError as exc:
        # normalize refuses invalid input in one line; list each problem
        raise _CliError(
            EXIT_INVALID,
            "invalid parameters:\n  " + "\n  ".join(validate(params))) from exc


def _emit(args, doc: dict, lines: list[str]) -> tuple[int, list[str]]:
    # a one-shot command's answer: doc under --json, else lines
    if args.json:
        import json

        return EXIT_OK, [json.dumps(doc, indent=2), "\n"]
    return EXIT_OK, ["\n".join(lines), "\n"]


def _cmd_normalize(args) -> tuple[int, list[str]]:
    result = format_params(_parse_valid(args.params))
    return _emit(args, {"params": args.params, "normalized": result}, [result])


def _cmd_eq(args) -> tuple[int, list[str]]:
    left = _parse_valid(args.left)
    right = _parse_valid(args.right)
    same = left == right
    doc = {
        "equivalent": same,
        "normalized_left": format_params(left),
        "normalized_right": format_params(right),
    }
    return _emit(args, doc, ["equivalent" if same else "not equivalent"])


def _cmd_bound(args) -> tuple[int, list[str]]:
    P = _parse_valid(args.params)
    bound = upper_bound(P)
    note = sharper_bound_note(P)
    normalized = format_params(P)
    doc = {"params": args.params, "normalized": normalized,
           **bound._asdict(), "note": note}
    lines = [
        f"normalized: {normalized}",
        f"value: {bound.value}",
        f"case: {bound.case_tag.value}",
        f"exact: {'yes' if bound.exact else 'no'}",
    ]
    if bound.label:
        lines.append(f"label: {bound.label}")
    if note:
        lines.append(note)
    return _emit(args, doc, lines)


def _cmd_reverse(args) -> tuple[int, list[str]]:
    params = _parse_valid(args.params)
    try:
        result = format_params(reverse_orientation(params))
    except ValueError as exc:
        raise _CliError(EXIT_INVALID, str(exc)) from exc
    return _emit(args, {"params": args.params, "reversed": result}, [result])


def _cmd_info(args) -> tuple[int, list[str]]:
    P = _parse_valid(args.params)
    profile = boundary_profile(P)
    orbifold = orbifold_summary(P)
    normalized = format_params(P)
    doc = {
        "params": args.params,
        "normalized": normalized,
        "orientable": is_orientable(P),
        "closed": is_closed(P),
        "euler_char_base": euler_char_base(P),
        "boundary_profile": profile._asdict(),
        "orbifold_summary": orbifold._asdict(),
    }
    cone = ",".join(f"({p},{q})" for p, q in orbifold.cone_points) or "none"
    lines = [
        f"normalized: {normalized}",
        f"orientable: {'yes' if doc['orientable'] else 'no'}",
        f"closed: {'yes' if doc['closed'] else 'no'}",
        f"base euler characteristic: {doc['euler_char_base']}",
        f"boundary: {profile.tori} tori, {profile.klein_regular} regular "
        f"Klein bottles, {profile.klein_with_exceptional} Klein bottles with "
        f"exceptional fibres ({profile.exceptional_annuli} exceptional annuli)",
        f"base orbifold: genus {orbifold.genus} "
        f"({'orientable' if orbifold.orientable_base else 'non-orientable'}), "
        f"cone points {cone}, {orbifold.reflector_circles} reflector circles, "
        f"{orbifold.reflector_arcs} reflector arcs, "
        f"{orbifold.underlying_boundary_components} boundary components, "
        f"{orbifold.minus_decorations} '-' decorations",
    ]
    return _emit(args, doc, lines)


def _cmd_conjecture(args) -> tuple[int, list[str]]:
    P = _parse_valid(args.params)
    try:
        value = conjectured_complexity(P)
    except ValueError as exc:
        raise _CliError(EXIT_INVALID, str(exc)) from exc
    if value is None:
        note = ("not applicable: recognized reducible fibration, "
                "outside the scope of the conjecture")
    else:
        note = None
    doc = {"params": args.params,
           "normalized": format_params(P),
           "conjectured_complexity": value, "note": note}
    return _emit(args, doc, [note if value is None
                             else f"conjectured complexity: {value}"])


def _cmd_census_gen(args) -> tuple[int, Iterator[str]]:
    from . import census

    # the listing is a lazy generator, walked only as main writes it,
    # so --out is opened before the walk
    return EXIT_OK, census._census_lines(args.cmax, args.json)


def _cmd_census_check(args) -> tuple[int, list[str]]:
    from . import census

    try:
        with open(args.file, "r", encoding="utf-8",
                  errors="surrogateescape") as handle:
            violations, chunks = census._check_report(handle, args.cmax,
                                                      args.json)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot read {args.file}: {exc}") from exc
    except census.CensusFormatError as exc:
        raise _CliError(EXIT_INVALID, f"{args.file}: {exc}") from exc
    return EXIT_VIOLATION if violations else EXIT_OK, chunks


def _budget(text: str) -> int:
    """argparse type of --cmax: an integer >= 0 in ASCII digits only;
    int() alone would also read a sign, padding, "_" and the digits of
    other scripts."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() reads
            pass
    raise argparse.ArgumentTypeError(
        f"expected an integer >= 0, got {text!r}")


def _gen_budget(text: str) -> int:
    """argparse type of census gen --cmax: a budget from 0 to
    _GEN_BUDGET_LIMIT."""
    value = _budget(text)
    if value > _GEN_BUDGET_LIMIT:
        raise argparse.ArgumentTypeError(
            f"census gen takes a budget of at most {_GEN_BUDGET_LIMIT}, "
            f"got {text!r}")
    return value


@functools.cache
def _build_parser() -> _ArgumentParser:
    # built once, on the first call of main: a parser is a web of
    # reference cycles, which each rebuild would leave to the collector
    parser = _ArgumentParser(
        prog="seifert",
        description="Invariants, canonical forms and complexity bounds "
                    "of Seifert fibre spaces in bracket notation.")
    sub = parser.add_subparsers(dest="command", required=True)

    # only census gen takes --out; the other commands write to stdout
    parser.set_defaults(out=None)

    def add(name, func, help_text, *positionals, subparsers=sub):
        p = subparsers.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON document instead of text")
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=func)
        return p

    add("normalize", _cmd_normalize, "print the canonical form", "params")
    add("eq", _cmd_eq,
        "test fibre-preserving equivalence of two parameter sets",
        "left", "right")
    add("bound", _cmd_bound, "complexity upper bound with case tag",
        "params")
    add("reverse", _cmd_reverse,
        "canonical form of the orientation-reversed space", "params")
    add("info", _cmd_info,
        "orientability, closedness, boundary and base orbifold", "params")
    add("conjecture", _cmd_conjecture,
        "conjectured exact complexity (closed non-orientable)", "params")

    census_parser = sub.add_parser("census", help="census tools")
    census_sub = census_parser.add_subparsers(dest="census_command",
                                              required=True)

    p = add("gen", _cmd_census_gen,
            "enumerate the closed non-orientable census up to a bound budget",
            subparsers=census_sub)
    p.add_argument("--cmax", type=_gen_budget, required=True)
    p.add_argument("--out", help="write to a file instead of stdout")

    p = add("check", _cmd_census_check,
            "compare the bound against a census TSV", subparsers=census_sub)
    p.add_argument("--file", required=True)
    p.add_argument("--cmax", type=_budget, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        out = args.out
        code, chunks = args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except _Help as exc:
        out, code, chunks = None, EXIT_OK, exc.args
    try:
        if out is not None:
            with open(out, "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            # flushed here so that a failed write is reported below
            sys.stdout.flush()
    except OSError as exc:
        if out is None:
            # Point stdout at devnull so the flush at interpreter exit
            # does not raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"cannot write {'stdout' if out is None else out}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())

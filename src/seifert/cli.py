"""Command-line front end.

Commands: normalize, eq, bound, reverse, info, conjecture,
census gen, census check.  Default output is human-readable text;
``--json`` switches to a single JSON document whose field names mirror
the library types.

``json`` is imported only on the ``--json`` paths, so a one-shot text
command does not load it.

Exit codes: 0 success, 1 usage or parse error, 2 validation failure,
3 census violation found.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Callable, Iterator

from .census import (
    CensusFormatError,
    _census_entries,
    _FibrationsByName,
    _graded,
    _records,
)
from .complexity import (
    conjectured_complexity,
    sharper_bound_note,
    upper_bound,
)
from .core import (
    ComplexityBound,
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

# The census listing, its run time and its memory each grow about 2.07x
# per unit of budget, and the pair pool alone holds 2^(c-2) pairs:
# budget 20 lists 693,478 entries in about 4.5 s and 150 MB (--out, on a
# 2-vCPU host), so 24 needs a few GB and over a minute, and each step
# past it doubles both.  A larger budget is refused rather than left to
# exhaust memory.
_GEN_BUDGET_LIMIT = 24


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the interface
    # reserves 2 for validation failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(EXIT_USAGE, f"{self.prog}: error: {message}")


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


def _emit(args, doc: dict, lines: list[str]) -> None:
    if args.json:
        import json

        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))


def _cmd_normalize(args) -> int:
    result = format_params(_parse_valid(args.params))
    _emit(args, {"params": args.params, "normalized": result}, [result])
    return EXIT_OK


def _cmd_eq(args) -> int:
    left = _parse_valid(args.left)
    right = _parse_valid(args.right)
    same = left == right
    doc = {
        "equivalent": same,
        "normalized_left": format_params(left),
        "normalized_right": format_params(right),
    }
    _emit(args, doc, ["equivalent" if same else "not equivalent"])
    return EXIT_OK


def _cmd_bound(args) -> int:
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
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_reverse(args) -> int:
    params = _parse_valid(args.params)
    try:
        result = format_params(reverse_orientation(params))
    except ValueError as exc:
        raise _CliError(EXIT_INVALID, str(exc)) from exc
    _emit(args, {"params": args.params, "reversed": result}, [result])
    return EXIT_OK


def _cmd_info(args) -> int:
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
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_conjecture(args) -> int:
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
    _emit(args, doc, [note if value is None else f"conjectured complexity: {value}"])
    return EXIT_OK


def _census_rows(cmax: int, prefix: str,
                 columns: Callable[[ComplexityBound], str]) -> list[str]:
    # prefix + printed form + columns(bound) for each census entry,
    # sorted.  A census has few distinct bounds, one per shape and pair
    # cost besides the special pairless ones, so each is spelled once.
    spelled: dict[ComplexityBound, str] = {}
    rows = []
    for text, bound, _, _, _ in _census_entries(cmax):
        tail = spelled.get(bound)
        if tail is None:
            tail = spelled[bound] = columns(bound)
        rows.append(f"{prefix}{text}{tail}")
    rows.sort()
    return rows


def _json_bound(bound: ComplexityBound, indent: str) -> str:
    # the fields of a bound as json.dumps(doc, indent=2) lays them out
    # at the given indent inside doc
    from json import dumps

    return (f'{indent}"value": {bound.value},\n'
            f'{indent}"case_tag": {dumps(bound.case_tag.value)},\n'
            f'{indent}"exact": {dumps(bound.exact)},\n'
            f'{indent}"label": {dumps(bound.label)}')


def _census_lines(args) -> Iterator[str]:
    if args.json:
        # one JSON text per entry, in json.dumps(doc, indent=2) layout;
        # a printed form is ASCII without quotes or backslashes, so it
        # is its own JSON string.  The quote after it sorts below every
        # printed character, so the rows sort as the texts do.
        rows = _census_rows(
            args.cmax, '    {\n      "params": "',
            lambda bound: f'",\n{_json_bound(bound, "      ")}\n    }}')
        yield (f'{{\n  "cmax": {args.cmax},\n  "count": {len(rows)},\n'
               f'  "entries": [\n')
        yield from (row + ",\n" for row in rows[:-1])
        yield rows[-1] + "\n  ]\n}\n"
        return
    # the tab after the printed form sorts below every printed character
    # and no two entries share a form, so the lines sort as the forms do
    lines = _census_rows(
        args.cmax, "",
        lambda bound: (f"\t{bound.value}\t{bound.case_tag.value}\t"
                       f"{'yes' if bound.exact else 'no'}\t"
                       f"{bound.label or '-'}\n"))
    yield (f"# closed non-orientable census, bound <= {args.cmax} "
           f"({len(lines)} entries)\n")
    yield "# params\tvalue\tcase_tag\texact\tlabel\n"
    yield from lines


def _cmd_census_gen(args) -> int:
    if not args.out:
        sys.stdout.writelines(_census_lines(args))
        return EXIT_OK
    # --out is opened before the enumeration, so an unwritable path
    # fails at once rather than after the whole run
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(_census_lines(args))
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot write {args.out}: {exc}") from exc
    return EXIT_OK


def _utf8_lines(handle):
    # The file is read with errors="surrogateescape", which turns each
    # undecodable byte into a lone surrogate; the first one is an error.
    for lineno, line in enumerate(handle, start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00
            raise CensusFormatError(
                lineno, f"byte 0x{byte:02x} is not valid UTF-8") from None
        yield line


def _cmd_census_check(args) -> int:
    # Each row is graded and spelled as it is read, and only the text of
    # the report is kept; it is written after the last row, so a
    # malformed row leaves stdout empty.
    if args.json:
        import json

        dumps = json.dumps
    rows: list[str] = []
    overestimated: list[str] = []  # the overestimate lines of the text
    sharp = overestimates = violations = 0
    names = _FibrationsByName()
    try:
        with open(args.file, "r", encoding="utf-8",
                  errors="surrogateescape") as handle:
            for row in _graded(_records(_utf8_lines(handle)), args.cmax):
                name, bound, status = row.name, row.bound, row.status
                form = format_params(row.normalized)
                names.add(name, form)
                if status == "sharp":
                    sharp += 1
                elif status == "violation":
                    violations += 1
                else:
                    overestimates += 1
                    if not args.json:
                        overestimated.append(
                            f"overestimate: {name} [{bound.case_tag.value}] "
                            f"{status}\n")
                if args.json:
                    # the row as json.dumps(doc, indent=2) lays it out in
                    # the rows of doc, with the text before it
                    rows.append(
                        (",\n" if rows else "[\n")
                        + f'    {{\n      "name": {dumps(name)},\n'
                        f'      "normalized": {dumps(form)},\n'
                        f'      "recorded": {row.recorded},\n'
                        '      "bound": {\n'
                        + _json_bound(bound, "        ")
                        + f'\n      }},\n      "status": {dumps(status)}\n    }}')
                else:
                    rows.append(f"{name}\t{form}\trecorded={row.recorded}\t"
                                f"bound={bound.value}\t{status}\n")
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot read {args.file}: {exc}") from exc
    except CensusFormatError as exc:
        raise _CliError(EXIT_INVALID, f"{args.file}: {exc}") from exc
    notes = names.notes()
    out = sys.stdout
    if args.json:
        out.write('{\n  "rows": ')
        out.writelines(rows)
        out.write("\n  ]" if rows else "[]")
        # the rest of doc, after its rows
        rest = dumps({
            "summary": {
                "rows": len(rows),
                "sharp": sharp,
                "overestimates": overestimates,
                "violations": violations,
            },
            "notes": list(notes),
        }, indent=2)
        out.write("," + rest[1:] + "\n")
    else:
        out.writelines(rows)
        out.write(f"rows: {len(rows)}  sharp: {sharp}  "
                  f"overestimates: {overestimates}  "
                  f"violations: {violations}\n")
        out.writelines(overestimated)
        out.writelines(f"note: {note}\n" for note in notes)
    return EXIT_VIOLATION if violations else EXIT_OK


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

    def add(name, func, help_text, subparsers=sub):
        p = subparsers.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON document instead of text")
        p.set_defaults(func=func)
        return p

    p = add("normalize", _cmd_normalize, "print the canonical form")
    p.add_argument("params")

    p = add("eq", _cmd_eq,
            "test fibre-preserving equivalence of two parameter sets")
    p.add_argument("left")
    p.add_argument("right")

    p = add("bound", _cmd_bound, "complexity upper bound with case tag")
    p.add_argument("params")

    p = add("reverse", _cmd_reverse,
            "canonical form of the orientation-reversed space")
    p.add_argument("params")

    p = add("info", _cmd_info,
            "orientability, closedness, boundary and base orbifold")
    p.add_argument("params")

    p = add("conjecture", _cmd_conjecture,
            "conjectured exact complexity (closed non-orientable)")
    p.add_argument("params")

    census_parser = sub.add_parser("census", help="census tools")
    census_sub = census_parser.add_subparsers(dest="census_command",
                                              required=True)

    p = add("gen", _cmd_census_gen,
            "enumerate the closed non-orientable census up to a bound budget",
            census_sub)
    p.add_argument("--cmax", type=_gen_budget, required=True)
    p.add_argument("--out", help="write to a file instead of stdout")

    p = add("check", _cmd_census_check,
            "compare the bound against a census TSV", census_sub)
    p.add_argument("--file", required=True)
    p.add_argument("--cmax", type=_budget, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        # flushed here so that a closed pipe is reported below
        sys.stdout.flush()
        return code
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except BrokenPipeError as exc:
        # The reader of stdout went away.  Point stdout at devnull so the
        # flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

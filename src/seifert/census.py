"""Census enumeration, ingestion and sharpness comparison.

``enumerate_nonorientable_closed`` lists every canonical closed
non-orientable parameter set whose complexity bound fits a budget.  The
search space is finite because each exceptional fibre contributes
S(p,q) + 1 >= 3 to the bound and the fixed part 6(1 - chi) + 6t is
non-negative for closed non-orientable spaces, which caps the genus, the
reflector count and the fibre data.  (The closed orientable spaces admit
no such census: a fixed lens space carries infinitely many one-fibre
fibrations with the same bound.)

The walk builds each entry in canonical form, with no ``normalize`` call
and no dedup, by the rules of ``normalize`` restricted to closed
non-orientable shapes:

* eps in {o1, n2} (here always t > 0): b = 0, pairs (p, q) with
  0 < q < p, and the sorted pair list is at most the sorted list of its
  mirror images (q -> p - q);
* every other eps: pairs with 2q <= p; b = 0 when t > 0, and when t = 0
  b is 0 or 1, with b = 1 only if no pair has p = 2.

The shapes {0;(eps,g,(t,k));(|);} are the points of an (eps, g, t, k)
grid that ``validate`` admits and ``is_orientable`` rejects.  An entry
with pairs has the general bound, which the walk takes from
``complexity._closed_nonorientable_general``, asked once per shape for
each fibre-term sum sum_j (S(p_j,q_j) + 1) within the budget; the special
fibrations all have no pairs, so only pairless entries go through
``upper_bound``.

Each pair costs at least 3, so a pair that costs more than c_max - 3
stands alone.  The fixed part 6(1 - chi) + 6t is a multiple of 6, so
such a pair fits only the two shapes of fixed part 0,
{b;(n1,1,(0,0));(|);} and {0;(o1,0,(1,0));(|);}, and both rules above
reduce to 2q <= p for one pair.  The walk stores only the pairs that can
share a multiset, those that cost at most c_max - 3 (1,023 of the 8,191
pairs at budget 15).  The lone pairs with 2q <= p are those whose first
continued-fraction coefficient a is at least 2, so each is built from a
first coefficient a >= 2 and the coefficients after it, and listed
alone (3,584 at budget 15); a lone pair with 2q > p is never made.

An entry is printed as the head of its shape and b, which is the printed
pairless set ``format_params(shape with b)`` less its closing brace,
followed by its pair list and "}".  So ``format_params`` is called once
per shape and b, and the spelling still has one home in ``notation``.

External census tables are read from TSV, one record per line:

    name <TAB> params <TAB> complexity <TAB> convention

with ``convention`` one of ``normalized`` or ``burton``; ``#`` comment
lines and blank lines are skipped, and so is a byte-order mark at the
start of the first line.  ``compare`` then grades the bound against each
recorded complexity.  Records, rows and reports are immutable named
tuples, like the records of ``core``.  ``ingest_census`` and ``compare``
collect the generators ``_records`` and ``_graded``, which yield one
record and one graded row at a time, so a caller that keeps less than
every row can grade a table while reading it.

The text of ``seifert census gen`` and ``seifert census check`` is
spelled here too, by ``_census_lines`` and ``_check_report``, as chunks
for ``cli.main`` to write.  It lives here rather than in ``cli``
because ``cli`` imports this module only when a census command runs.
"""
from __future__ import annotations

import io
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, product
from operator import itemgetter

from .complexity import _closed_nonorientable_general, upper_bound
from .core import (
    ORIENTABLE_AWAY_FROM_SE,
    ComplexityBound,
    Epsilon,
    NormalizedSeifertParams,
    SeifertParams,
    is_orientable,
    validate,
)
from .normal_form import normalize
from .notation import _format_pairs, format_params, parse_params

CONVENTIONS = ("normalized", "burton")


class CensusRecord(namedtuple("CensusRecord",
                              "name params complexity convention")):
    """One row of an external census table; ``params`` is the
    ``NormalizedSeifertParams`` of the row."""

    __slots__ = ()


class ComparisonRow(namedtuple("ComparisonRow",
                               "name normalized recorded bound status")):
    """One graded record: its ``NormalizedSeifertParams``, recorded
    complexity and ``ComplexityBound``.  ``status`` is "sharp",
    "overestimate(by n)" or "violation"."""

    __slots__ = ()


class ComparisonReport(namedtuple(
        "ComparisonReport", "rows sharp overestimates violations notes")):
    """Sharpness of the bound against a census table.

    ``rows`` and ``overestimates`` are tuples of ``ComparisonRow``,
    ``sharp`` and ``violations`` counts, ``notes`` a tuple of strings.
    A violation (bound below the recorded complexity) would contradict an
    upper bound, so it signals bad data or a normalization error.
    """

    __slots__ = ()


def _pairs_with_cf_sum(s_max: int) -> Iterator[tuple[int, int, int]]:
    # (cf_sum(p, q), p, q) for every coprime 0 < q < p with cf_sum <= s_max,
    # one per coefficient sequence (a_i >= 1, last >= 2, sum <= s_max).
    # Sequences grow at the front: if p/q = [a_2, ..., a_k], then
    # [a, a_2, ..., a_k] = a + q/p = (a*p + q)/p.
    stack = [(s, s, 1) for s in range(2, s_max + 1)]
    while stack:
        s, p, q = stack.pop()
        yield s, p, q
        stack.extend((s + a, a * p + q, p) for a in range(1, s_max - s + 1))


def enumerate_pairs_by_budget(s_max: int) -> list[tuple[int, int]]:
    """All coprime (p, q) with 0 < q < p and cf_sum(p, q) <= s_max,
    sorted lexicographically.

    Generated through the coefficient sequences themselves (a_i >= 1,
    last >= 2, sum <= s_max), each of which evaluates to a distinct pair.
    """
    return sorted((p, q) for _, p, q in _pairs_with_cf_sum(s_max))


def _pair_multisets(pool: list[tuple[int, tuple[int, int]]], budget: int,
                    start: int = 0, spent: int = 0,
                    multiset: tuple[tuple[int, int], ...] = ()
                    ) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    # (cost, multiset) for the non-empty multisets that extend multiset,
    # which costs spent, with pairs from pool[start:] and total cost
    # within budget, each listed once in pool order.  The pool is sorted
    # by cost, so a level stops at the first pair that no longer fits,
    # and a multiset whose last pair would not fit twice takes no pair of
    # the rest of the pool, so the walk goes no deeper from it.
    for i in range(start, len(pool)):
        cost, pq = pool[i]
        total = spent + cost
        if total > budget:
            break
        extended = multiset + (pq,)
        yield total, extended
        if total + cost <= budget:
            yield from _pair_multisets(pool, budget, i, total, extended)


def _census_entries(c_max: int) -> Iterator[
        tuple[str, ComplexityBound, int, SeifertParams, tuple[tuple[int, int], ...]]]:
    # (printed form, bound, b, shape, pairs) for every census entry,
    # unordered, built canonical by the rules of the module docstring.
    # Each pair costs S(p,q) + 1 >= 3 in the bound; outside o1/n2 a
    # fibre-reversing curve turns q into p - q, so those take q <= p/2.
    # The walk needs the pool sorted by cost only, and only the pairs
    # that can share a multiset: those that cost at most c_max - 3.
    full = sorted(((s + 1, (p, q)) for s, p, q in _pairs_with_cf_sum(c_max - 4)),
                  key=itemgetter(0))
    half = [item for item in full if 2 * item[1][1] <= item[1][0]]
    # (shape, heads, bounds) of the shapes of fixed part 0, the only ones
    # with room above c_max - 3, as the fixed part is a multiple of 6
    lone_shapes = []

    # the shapes: g, t, k <= c_max // 6 + 1, as each genus and each
    # reflector circle adds at least 6 to the bound; the budget is tested
    # before validate because it prunes most of the grid
    grid = range(c_max // 6 + 2)
    for eps, g, t, k in product(Epsilon, grid, grid, grid):
        shape = SeifertParams(0, eps, g, t, k)
        room = c_max - _closed_nonorientable_general(shape, 0).value
        if room < 0 or validate(shape) or is_orientable(shape):
            continue
        # bounds[s]: the one bound of the shape's entries whose pairs cost
        # s, and it fits, as s <= room
        bounds = [_closed_nonorientable_general(shape, s) for s in range(room + 1)]
        # heads[b]: the printed pairless set less its "}"; b = 1 only when
        # t = 0
        heads = [format_params(shape._replace(b=b))[:-1]
                 for b in ((0,) if t else (0, 1))]
        # the pairless entries, among them the special fibrations, whose
        # bound upper_bound knows
        for b, head in enumerate(heads):
            bound = upper_bound(NormalizedSeifertParams(b, eps, g, t, k))
            if bound.value <= c_max:
                yield head + "}", bound, b, shape, ()
        if room == c_max:
            lone_shapes.append((shape, heads, bounds))
        mirror_only = eps in ORIENTABLE_AWAY_FROM_SE
        for spent, multiset in _pair_multisets(full if mirror_only else half,
                                               room):
            pairs = tuple(sorted(multiset)) if len(multiset) > 1 else multiset
            if mirror_only and pairs > tuple(sorted((p, p - q) for p, q in pairs)):
                continue
            tail = _format_pairs(pairs) + "}"
            yield heads[0] + tail, bounds[spent], 0, shape, pairs
            # (2,1) is the least pair and the only one with p = 2
            if t == 0 and pairs[0] != (2, 1):
                yield heads[1] + tail, bounds[spent], 1, shape, pairs

    # A pair that costs more than c_max - 3 stands alone, in a shape of
    # room c_max, and takes q <= p/2 there under either rule, that is a
    # first coefficient a >= 2: it is (a*p + q, p) for a tail (s, p, q),
    # the empty tail (0, 1, 0) or a pair of cf_sum s, and costs s + a + 1.
    for s, p, q in chain(((0, 1, 0),), _pairs_with_cf_sum(c_max - 3)):
        for a in range(max(2, c_max - 3 - s), c_max - s):
            pairs = ((a * p + q, p),)
            tail = _format_pairs(pairs) + "}"
            for shape, heads, bounds in lone_shapes:
                yield heads[0] + tail, bounds[s + a + 1], 0, shape, pairs
                if shape.t == 0 and pairs[0] != (2, 1):
                    yield heads[1] + tail, bounds[s + a + 1], 1, shape, pairs


def enumerate_nonorientable_closed(
        c_max: int) -> list[tuple[NormalizedSeifertParams, ComplexityBound]]:
    """Every canonical closed non-orientable parameter set with bound
    <= c_max, with its bound, ordered by the printed normal form."""
    return [(NormalizedSeifertParams(b, shape.epsilon, shape.g, shape.t,
                                     shape.k, (), (), pairs), bound)
            for _, bound, b, shape, pairs in sorted(_census_entries(c_max),
                                                    key=itemgetter(0))]


class CensusFormatError(ValueError):
    """Malformed census input, carrying the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _records(source: Iterable[str] | str) -> Iterator[CensusRecord]:
    # the records of a census table, each parsed and normalized as its
    # line is read
    if isinstance(source, str):
        # split where a file read in text mode would: at \n, \r\n and \r
        source = io.StringIO(source, newline=None)
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if lineno == 1:
            line = line.removeprefix("\ufeff")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise CensusFormatError(
                lineno, f"expected 4 tab-separated fields, found {len(fields)}")
        name, params_text, complexity_text, convention = fields
        try:
            params = normalize(parse_params(params_text))
        except ValueError as exc:
            raise CensusFormatError(lineno, str(exc)) from exc
        try:
            # an optional "-" and ASCII digits only: int() would also read
            # "+", padding, "_" separators and the digits of other scripts
            digits = complexity_text.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            complexity = int(complexity_text)
        except ValueError:  # also more digits than int() reads
            raise CensusFormatError(
                lineno, f"complexity is not an integer: {complexity_text!r}") from None
        if complexity < 0:
            raise CensusFormatError(lineno, "complexity must be non-negative")
        if convention not in CONVENTIONS:
            raise CensusFormatError(
                lineno,
                f"unknown convention {convention!r}; expected one of "
                + ", ".join(CONVENTIONS))
        yield CensusRecord(name, params, complexity, convention)


def ingest_census(source: Iterable[str] | str) -> list[CensusRecord]:
    """Parse a census table.  Every row is normalized on the way in, which
    converts burton-convention rows, so ``CensusRecord.params`` is the
    canonical form under both conventions.  A byte-order mark (U+FEFF)
    at the start of the first line is skipped."""
    return list(_records(source))


def _graded(records: Iterable[CensusRecord],
            c_max: int | None) -> Iterator[ComparisonRow]:
    # the graded row of each record with complexity <= c_max (of every
    # record when c_max is None), in the order of the records
    for record in records:
        if c_max is not None and record.complexity > c_max:
            continue
        P = normalize(record.params)
        bound = upper_bound(P)
        delta = bound.value - record.complexity
        if delta == 0:
            status = "sharp"
        elif delta > 0:
            status = f"overestimate(by {delta})"
        else:
            status = "violation"
        yield ComparisonRow(record.name, P, record.complexity, bound, status)


class _FibrationsByName:
    """The distinct fibrations recorded under each name, kept only for
    the names that record more than one, and the notes that name them.
    A fibration is any value that is equal exactly when the fibrations
    are: a canonical form, or its printed text."""

    __slots__ = ("first", "repeated")

    def __init__(self):
        self.first = {}     # name -> its first fibration
        self.repeated = {}  # name -> its fibrations, if two or more

    def add(self, name: str, fibration) -> None:
        first = self.first.setdefault(name, fibration)
        if first != fibration:
            self.repeated.setdefault(name, {first}).add(fibration)

    def notes(self) -> tuple[str, ...]:
        return tuple(
            f"records named {name!r} normalize to {len(forms)} distinct fibrations"
            for name, forms in sorted(self.repeated.items()))


def compare(records: Iterable[CensusRecord],
            c_max: int | None = None) -> ComparisonReport:
    """Grade the bound against each record with recorded complexity
    <= c_max (all records when c_max is None)."""
    rows = tuple(_graded(records, c_max))
    names = _FibrationsByName()
    for row in rows:
        names.add(row.name, row.normalized)
    return ComparisonReport(
        rows=rows,
        sharp=sum(1 for row in rows if row.status == "sharp"),
        overestimates=tuple(row for row in rows
                            if row.status.startswith("overestimate")),
        violations=sum(1 for row in rows if row.status == "violation"),
        notes=names.notes(),
    )


# The text of the census commands; cli parses the arguments, opens the
# files and writes these chunks.

def _census_rows(c_max: int, prefix: str,
                 columns: Callable[[ComplexityBound], str]) -> list[str]:
    # prefix + printed form + columns(bound) for each census entry,
    # sorted.  A census has few distinct bounds, one per shape and pair
    # cost besides the special pairless ones, so each is spelled once.
    spelled: dict[ComplexityBound, str] = {}
    rows = []
    for text, bound, _, _, _ in _census_entries(c_max):
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


def _census_lines(c_max: int, as_json: bool) -> Iterator[str]:
    # the census gen listing, text or JSON, in chunks
    if as_json:
        # one JSON text per entry, in json.dumps(doc, indent=2) layout;
        # a printed form is ASCII without quotes or backslashes, so it
        # is its own JSON string.  The quote after it sorts below every
        # printed character, so the rows sort as the texts do.
        rows = _census_rows(
            c_max, '    {\n      "params": "',
            lambda bound: f'",\n{_json_bound(bound, "      ")}\n    }}')
        yield (f'{{\n  "cmax": {c_max},\n  "count": {len(rows)},\n'
               f'  "entries": [\n')
        yield from (row + ",\n" for row in rows[:-1])
        yield rows[-1] + "\n  ]\n}\n"
        return
    # the tab after the printed form sorts below every printed character
    # and no two entries share a form, so the lines sort as the forms do
    lines = _census_rows(
        c_max, "",
        lambda bound: (f"\t{bound.value}\t{bound.case_tag.value}\t"
                       f"{'yes' if bound.exact else 'no'}\t"
                       f"{bound.label or '-'}\n"))
    yield (f"# closed non-orientable census, bound <= {c_max} "
           f"({len(lines)} entries)\n")
    yield "# params\tvalue\tcase_tag\texact\tlabel\n"
    yield from lines


def _utf8_lines(handle: Iterable[str]) -> Iterator[str]:
    # cli reads the file with errors="surrogateescape", which turns each
    # undecodable byte into a lone surrogate; the first one is an error.
    for lineno, line in enumerate(handle, start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00
            raise CensusFormatError(
                lineno, f"byte 0x{byte:02x} is not valid UTF-8") from None
        yield line


def _check_report(handle: Iterable[str], c_max: int | None,
                  as_json: bool) -> tuple[int, list[str]]:
    # The number of violations and the census check report, text or
    # JSON, of the table read from handle.  Each row is graded and
    # spelled as it is read, and only the text of the report is kept;
    # it is returned after the last row, so a malformed row leaves
    # stdout empty.
    if as_json:
        from json import dumps
    rows: list[str] = []
    overestimated: list[str] = []  # the overestimate lines of the text
    summary = {"rows": 0, "sharp": 0, "overestimates": 0, "violations": 0}
    names = _FibrationsByName()
    for row in _graded(_records(_utf8_lines(handle)), c_max):
        name, bound, status = row.name, row.bound, row.status
        form = format_params(row.normalized)
        names.add(name, form)
        summary["rows"] += 1
        if status == "sharp":
            summary["sharp"] += 1
        elif status == "violation":
            summary["violations"] += 1
        else:
            summary["overestimates"] += 1
            if not as_json:
                overestimated.append(
                    f"overestimate: {name} [{bound.case_tag.value}] "
                    f"{status}\n")
        if as_json:
            # the row as json.dumps(doc, indent=2) lays it out in the
            # rows of doc, with the text before it
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
    notes = names.notes()
    if as_json:
        # the rest of doc, after its rows
        rest = dumps({"summary": summary, "notes": list(notes)}, indent=2)
        return summary["violations"], [
            '{\n  "rows": ', *rows, "\n  ]" if rows else "[]",
            "," + rest[1:] + "\n"]
    counts = "  ".join(f"{key}: {n}" for key, n in summary.items())
    return summary["violations"], [*rows, counts + "\n", *overestimated,
                                   *(f"note: {note}\n" for note in notes)]

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
"""
from __future__ import annotations

import io
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import product
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
    # (cost, multiset) for the multisets that extend multiset, which
    # costs spent, with pairs from pool[start:] and total cost within
    # budget, each listed once in pool order.  The pool is sorted by
    # cost, so a level stops at the first pair that no longer fits.
    yield spent, multiset
    for i in range(start, len(pool)):
        cost, pq = pool[i]
        if spent + cost > budget:
            break
        yield from _pair_multisets(pool, budget, i, spent + cost,
                                   multiset + (pq,))


def _census_entries(c_max: int) -> Iterator[
        tuple[str, ComplexityBound, int, SeifertParams, tuple[tuple[int, int], ...]]]:
    # (printed form, bound, b, shape, pairs) for every census entry,
    # unordered, built canonical by the rules of the module docstring.
    # Each pair costs S(p,q) + 1 in the bound; outside o1/n2 a
    # fibre-reversing curve turns q into p - q, so those take q <= p/2.
    # The walk needs the pool sorted by cost only.
    full = sorted(((s + 1, (p, q)) for s, p, q in _pairs_with_cf_sum(c_max - 1)),
                  key=itemgetter(0))
    half = [item for item in full if 2 * item[1][1] <= item[1][0]]

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
        mirror_only = eps in ORIENTABLE_AWAY_FROM_SE
        for spent, multiset in _pair_multisets(full if mirror_only else half,
                                               room):
            pairs = tuple(sorted(multiset))
            if not pairs:
                # the special fibrations, whose bound upper_bound knows
                for b, head in enumerate(heads):
                    bound = upper_bound(NormalizedSeifertParams(b, eps, g, t, k))
                    if bound.value <= c_max:
                        yield head + "}", bound, b, shape, pairs
                continue
            if mirror_only and pairs > tuple(sorted((p, p - q) for p, q in pairs)):
                continue
            tail = _format_pairs(pairs) + "}"
            yield heads[0] + tail, bounds[spent], 0, shape, pairs
            # (2,1) is the least pair and the only one with p = 2
            if t == 0 and pairs[0] != (2, 1):
                yield heads[1] + tail, bounds[spent], 1, shape, pairs


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

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
reduce to 2q <= p for one pair.  The walk spells and stores only the
pairs that can share a multiset, those that cost at most c_max - 3
(1,023 of the 8,191 pairs at budget 15).  The lone pairs with 2q <= p
(3,584 at budget 15) are kept as numbers and spelled as they are
listed; a lone pair with 2q > p is never made.

The walk lists the entries in the text order of their printed forms, so
nothing sorts them.  An entry is printed as the head of its shape and b,
which is the printed pairless set ``format_params(shape with b)`` less
its closing brace, followed by its pair list "((p,q),...)" and "}".

* Heads are prefix-free, so the entries of a head are contiguous; the
  heads are taken in text order, and the pairless entry "head}" of each
  comes after those with pairs, as "(" < "}".
* The texts "(p,q)" are prefix-free too and ")" < ",", so a pair list
  sorts before its extensions and as its sequence of pair texts.  A
  pre-order walk of the sorted pair lists that takes the children of a
  list, the pairs numerically at least its last one, in text order thus
  lists them in text order, each child's text its parent's plus one pair.
* ``_pair_index`` puts the pairs in text order with no sort over them:
  it groups each pair under p, the groups in the text order of p, and
  takes the pairs in the text order of q as it builds them.  The lone
  pairs stand among the first pairs of the shapes of fixed part 0.

``_census_heads`` gives one record per head, in text order: its text;
its pairless canonical form P, built once, from which ``format_params``
spells the head and which is the pairless entry; the bounds of its
entries with pairs by fibre-term sum, one list per shape that its b = 0
and b = 1 heads share; the bound of P, if it fits; its count of
entries; and the lazy walk of its entries with pairs, created there and
not started.  The walk spells each pair "(p,q)" as ``format_params``
does.  ``enumerate_nonorientable_closed`` builds each entry with pairs
from the first seven fields of P.  ``census gen`` prints the number of
entries before the first one, the sum of the counts of the heads; each
count is found with no walk, by generating functions over the number of
pairs of each cost, with Burnside's lemma for the mirror rule of o1 and
n2.

External census tables are read from TSV, one record per line:

    name <TAB> params <TAB> complexity <TAB> convention

with ``convention`` one of ``normalized`` or ``burton``; ``#`` comment
lines and blank lines are skipped, and so is a byte-order mark at the
start of the first line.  The census convention ``burton`` writes some
one-pair-reflected sets with b = 0 where the canonical form has b = 1:
for eps in {o2, n1, n3, n4},

    {0; (eps,g,(0,0)); ( | ); (..., (p_r, p_r - q_r))}

denotes the same space as {1; (eps,g,(0,0)); ( | ); (..., (p_r, q_r))}.
``normalize`` makes exactly that conversion and leaves canonical rows as
they are, so every row is read through it, whatever its convention; the
column is checked and then not used.  ``compare`` then grades the bound
against each recorded complexity.  Records, rows and reports are
immutable named tuples, like the records of ``core``.  One function reads
a row, ``_read_row``, which checks its fields and returns them with its
canonical form, and one grades it, ``_grade``, which returns its bound,
its status and the summary key that counts it.  ``ingest_census`` and
``compare`` wrap what they return in records and graded rows;
``compare`` normalizes each record's params first, as a record built by
hand may hold raw ones.  ``census check`` reads, grades and spells each
row of its file in one pass, after the UTF-8 check of its line, and
builds no record or row: it keeps only the text of the report.
``compare`` and ``census check`` fold the graded rows through one
tally, ``_Tally``, which counts them by summary key and notes each name
recorded with more than one fibration.

The rows of a table are independent, so ``census check`` grades a large
regular file on every usable CPU.  ``_ranges`` cuts the file into byte
ranges, each cut just after a newline byte, so that the ranges hold the
lines of the whole file; a forked worker per CPU grades one range at a
time through ``_grade_range`` and sends back its rows and its
overestimate lines as one string each, its tally and its count of
lines, or its first malformed row as data, its line counted within the
range.  ``_report`` merges the ranges in file order: it adds up the
counts, keeps each name's first fibration and joins the repeated ones,
places the JSON separators between the ranges, and raises the first
malformed row in file order at its line in the file.  A small table, a
file that is not regular (a pipe) and a host with one CPU are graded as
one range in this process, by the same function.

The text of ``seifert census gen`` and ``seifert census check`` is
spelled here too, by ``_census_lines`` and ``_check_report``, as chunks
for ``cli.main`` to write.  It lives here rather than in ``cli``
because ``cli`` imports this module only when a census command runs.
"""
import io
import os
from array import array
from collections import defaultdict, namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import accumulate, chain, product
from functools import partial
from math import comb
from operator import itemgetter
from stat import S_ISREG

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
from .notation import _int_max_str_digits, format_params, parse_params

_CONVENTIONS = ("normalized", "burton")


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


def _pair_index(c_max: int) -> list[tuple[int, array]]:
    # (p, [q, cost, q, cost, ...]) for the pool and for the pairs with
    # 2q <= p that cost at most c_max, in text order (module docstring).
    # Each is (a*p + q, p) for a first coefficient a and a tail (s, p, q),
    # the empty tail (0, 1, 0) or a pair of cf_sum s, and costs s + a + 1.
    # Each tail joins the group of its p, drawn once; taken by p in text
    # order, the tails then give each pair's group its q in text order.
    tails = defaultdict(partial(array, "i"))
    for s, p, q in chain(((0, 1, 0),), _pairs_with_cf_sum(c_max - 3)):
        tails[p].extend((s, q))
    groups = defaultdict(partial(array, "i"))
    for p in sorted(tails, key=str):
        tail = iter(tails.pop(p))
        for s, q in zip(tail, tail):
            # a = 1, 2q > p, only for a pool pair of a non-empty tail
            for a in range(1 if q and s <= c_max - 5 else 2, c_max - s):
                groups[a * p + q].extend((p, s + a + 1))
    return [(p, groups[p]) for p in sorted(groups, key=str)]


def _extensions(fits: list[list[tuple]], room: int, mirror: bool,
                items: Iterable[tuple], least: tuple[int, int],
                prefix: str = "(", spent: int = 0,
                pairs: tuple = ()) -> Iterator[tuple]:
    # (text, cost, pairs) for each pair list that extends pairs, which
    # cost spent and are spelled prefix, by one of the items (text, cost,
    # pair) of at least least, and then for its own extensions, from
    # fits[r], the pairs that cost at most r; all in text order, and text
    # less its closing ")".  Under mirror a list is listed only if it is
    # at most the sorted list of its mirror images, and extended anyway.
    for item, cost, pair in items:
        if pair < least:
            continue
        text = prefix + item
        total = spent + cost
        extended = pairs + (pair,)
        if not (mirror and pairs) or extended <= tuple(
                sorted([(p, p - q) for p, q in extended])):
            yield text, total, extended
        if room - total >= 3:  # room for one more pair
            yield from _extensions(fits, room, mirror, fits[room - total],
                                   pair, text + ",", total, extended)


def _multisets(kinds: dict[int, int], room: int) -> list[int]:
    # [number of multisets of total cost at most r for r in 0..room], the
    # empty one among them, of kinds[c] kinds of item of each cost c:
    # from the coefficients of prod_c 1/(1 - x^c)^kinds[c]
    coeffs = [1] + [0] * room
    for cost, n in kinds.items():
        coeffs = [sum(comb(n + j - 1, j) * coeffs[i - cost * j]
                      for j in range(i // cost + 1)) for i in range(room + 1)]
    return list(accumulate(coeffs))


def _census_heads(c_max: int) -> list[tuple]:
    # (head, P, bounds, bare, count, entries) for each head, in text
    # order: P is the head's pairless canonical form, bounds[s] the bound
    # of its entries of fibre-term sum s, bare the bound of P, None if it
    # exceeds c_max, count the number of its entries, and entries the
    # lazy walk of its entries with pairs, (text, cost, pairs) in text
    # order.  The shapes: g, t, k <= c_max // 6 + 1, as each genus and
    # each reflector circle adds at least 6 to the bound; the budget is
    # tested before validate because it prunes most of the grid.
    #
    # The counts come from n_full and n_half, the number of pairs of each
    # cost c, with no walk: 2^(c-3) with 0 < q < p, and with 2q <= p one
    # of cost 3, (2,1), and 2^(c-4) of each cost c >= 4.  Under the
    # mirror q -> p - q, which keeps the cost, an o1/n2 shape lists one
    # multiset of each orbit, (all + fixed) / 2 by Burnside; a fixed
    # multiset holds (2,1), the one fixed pair, and the other pairs in
    # couples with their mirror images.
    n_full = {c: 2 ** (c - 3) for c in range(3, c_max + 1)}
    n_half = {c: 2 ** (c - 4) for c in range(4, c_max + 1)}
    fixed = {3: 1, **{2 * c: n // 2 for c, n in n_full.items()
                       if 3 < c <= c_max // 2}}
    mirrored = [(n + n_fixed) // 2 for n, n_fixed in zip(
        _multisets(n_full, c_max), _multisets(fixed, c_max))]
    # b = 1 takes no (2,1)
    by_b = (_multisets({3: 1, **n_half}, c_max), _multisets(n_half, c_max))
    # full[r] and half[r]: the pairs of the pool that cost at most r, all
    # of them and those with 2q <= p
    index = _pair_index(c_max)
    pool = [(f"({p},{q})", cost, (p, q)) for p, group in index
            for q, cost in zip(*[iter(group)] * 2) if cost <= c_max - 3]
    full = [[item for item in pool if item[1] <= r] for r in range(c_max - 2)]
    half = [[item for item in fitting if 2 * item[2][1] <= item[2][0]]
            for fitting in full]
    heads = []
    grid = range(c_max // 6 + 2)
    for eps, g, t, k in product(Epsilon, grid, grid, grid):
        shape = SeifertParams(0, eps, g, t, k)
        room = c_max - _closed_nonorientable_general(shape, 0).value
        if room < 0 or validate(shape) or is_orientable(shape):
            continue
        bounds = [_closed_nonorientable_general(shape, s)
                  for s in range(room + 1)]
        mirror = eps in ORIENTABLE_AWAY_FROM_SE
        for b in (0,) if t else (0, 1):
            P = tuple.__new__(NormalizedSeifertParams,
                              (b, eps, g, t, k, (), (), ()))
            # the special fibrations are all pairless, and upper_bound
            # knows them
            bare = upper_bound(P)
            fits = bare.value <= c_max
            # the head lists its multisets but the empty one, and the
            # pairless entry if it fits
            count = (mirrored if mirror else by_b[b])[room] - 1 + fits
            # the first pair has 2q <= p under either rule; at room c_max
            # the lone pairs are among them, so they are spelled from the
            # index as they are listed, by a generator made for each head
            # as a generator runs once
            first = half[room] if room < c_max else (
                (f"({p},{q})", cost, (p, q)) for p, group in index
                for q, cost in zip(*[iter(group)] * 2) if 2 * q <= p)
            # b = 1 takes no (2,1), the least pair
            entries = _extensions(full if mirror else half, room, mirror,
                                  first, (2, 2) if b else (2, 1))
            heads.append((format_params(P)[:-1], P, bounds,
                          bare if fits else None, count, entries))
    heads.sort(key=itemgetter(0))
    return heads


def enumerate_nonorientable_closed(
        c_max: int) -> list[tuple[NormalizedSeifertParams, ComplexityBound]]:
    """Every canonical closed non-orientable parameter set with bound
    <= c_max, with its bound, ordered by the printed normal form."""
    entries = []
    for _, P, bounds, bare, _, walk in _census_heads(c_max):
        entries += [(tuple.__new__(NormalizedSeifertParams, (*P[:7], pairs)),
                     bounds[cost]) for _, cost, pairs in walk]
        if bare:
            entries.append((P, bare))
    return entries


class CensusFormatError(ValueError):
    """Malformed census input, carrying the 1-based line number and the
    message that follows it."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message

    def __reduce__(self):
        # pickle and copy rebuild it through __init__, which takes the
        # line number and the message, not args
        return type(self), (self.lineno, self.message), self.__dict__


def _read_row(lineno: int, line: str,
              bom: bool = True) -> tuple | None:
    # (name, canonical form, complexity, convention) of the census row
    # on line lineno, None for a blank or comment line; under bom, line
    # 1 is the first of the table, and a byte-order mark before it is
    # skipped
    line = line.rstrip("\r\n")
    if lineno == 1 and bom:
        line = line.removeprefix("\ufeff")
    stripped = line.lstrip()
    if not stripped or stripped[0] == "#":
        return None
    fields = line.split("\t")
    if len(fields) != 4:
        raise CensusFormatError(
            lineno, f"expected 4 tab-separated fields, found {len(fields)}")
    name, params_text, complexity_text, convention = fields
    try:
        params = normalize(parse_params(params_text))
    except ValueError as exc:
        raise CensusFormatError(lineno, str(exc)) from exc
    # an optional "-" and ASCII digits only: int() would also read "+",
    # padding, "_" separators and the digits of other scripts
    digits = complexity_text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise CensusFormatError(
            lineno, f"complexity is not an integer: {complexity_text!r}")
    limit = _int_max_str_digits()  # 0: int() reads any length
    if limit and len(digits) > limit:
        raise CensusFormatError(lineno, f"complexity has {len(digits)} digits, "
                                f"more than the {limit} that int() reads")
    complexity = int(complexity_text)
    if complexity < 0:
        raise CensusFormatError(lineno, "complexity must be non-negative")
    if convention not in _CONVENTIONS:
        raise CensusFormatError(
            lineno,
            f"unknown convention {convention!r}; expected one of "
            + ", ".join(_CONVENTIONS))
    return name, params, complexity, convention


def ingest_census(source: Iterable[str] | str) -> list[CensusRecord]:
    """Parse a census table.  Every row is normalized on the way in, which
    converts burton-convention rows, so ``CensusRecord.params`` is the
    canonical form under both conventions.  A byte-order mark (U+FEFF)
    at the start of the first line is skipped."""
    if isinstance(source, str):
        # split where a file read in text mode would: at \n, \r\n and \r
        source = io.StringIO(source, newline=None)
    records = []
    for lineno, line in enumerate(source, start=1):
        row = _read_row(lineno, line)
        if row is not None:
            records.append(CensusRecord._make(row))
    return records


def _grade(P: NormalizedSeifertParams,
           recorded: int) -> tuple[ComplexityBound, str, str]:
    # the bound of the canonical form P, and the status and summary key
    # of a row that records complexity recorded for it
    bound = upper_bound(P)
    delta = bound.value - recorded
    if delta == 0:
        return bound, "sharp", "sharp"
    if delta > 0:
        return bound, f"overestimate(by {delta})", "overestimates"
    return bound, "violation", "violations"


class _Tally:
    """The graded rows of a table counted by summary key, and the
    distinct fibrations recorded under each name, kept only for the names
    that record more than one.  ``add`` takes a row as its name, summary
    key and fibration, and ``merge`` counts the tally of the rows that
    follow.  A fibration is any value that is equal exactly when the
    fibrations are: a canonical form, or its printed text."""

    def __init__(self):
        # the counts, in the order the report prints them
        self.summary = {"rows": 0, "sharp": 0, "overestimates": 0,
                        "violations": 0}
        self.first = {}     # name -> its first fibration
        self.repeated = {}  # name -> its fibrations, if two or more

    def add(self, name: str, key: str, fibration) -> None:
        """Count a graded row by its name, summary key and fibration."""
        self.summary["rows"] += 1
        self.summary[key] += 1
        self.note(name, fibration)

    def note(self, name: str, fibration) -> None:
        """Note that name records fibration."""
        first = self.first.setdefault(name, fibration)
        if first != fibration:
            self.repeated.setdefault(name, {first}).add(fibration)

    def merge(self, other: "_Tally") -> None:
        """Count the rows of other, the tally of the rows after these."""
        for key, n in other.summary.items():
            self.summary[key] += n
        for name, fibration in other.first.items():
            self.note(name, fibration)
        for name, fibrations in other.repeated.items():
            for fibration in fibrations:
                self.note(name, fibration)

    def notes(self) -> tuple[str, ...]:
        return tuple(
            f"records named {name!r} normalize to {len(forms)} distinct fibrations"
            for name, forms in sorted(self.repeated.items()))


def compare(records: Iterable[CensusRecord],
            c_max: int | None = None) -> ComparisonReport:
    """Grade the bound against each record with recorded complexity
    <= c_max (all records when c_max is None)."""
    tally = _Tally()
    rows, overestimates = [], []
    for name, params, recorded, _ in records:
        if c_max is not None and recorded > c_max:
            continue
        # a record built by hand may hold raw params
        P = normalize(params)
        bound, status, key = _grade(P, recorded)
        rows.append(ComparisonRow(name, P, recorded, bound, status))
        tally.add(name, key, P)
        if key == "overestimates":
            overestimates.append(rows[-1])
    return ComparisonReport(
        rows=tuple(rows), sharp=tally.summary["sharp"],
        overestimates=tuple(overestimates),
        violations=tally.summary["violations"], notes=tally.notes())


# The text of the census commands; cli parses the arguments, opens
# --out and writes these chunks.

def _entry_rows(heads: list[tuple], prefix: str,
               columns: Callable[[ComplexityBound], str]) -> Iterator[str]:
    # prefix + printed form + columns(bound) for each census entry, one
    # at a time as the walk lists them, in the text order of the forms.
    # The columns are spelled once per bound of a head.
    for head, _, bounds, bare, _, entries in heads:
        start = prefix + head
        tails = [")}" + columns(bound) for bound in bounds]
        for text, cost, _ in entries:
            yield start + text + tails[cost]
        if bare:
            yield start + "}" + columns(bare)


def _json_bound(bound: ComplexityBound, indent: str) -> str:
    # the fields of a bound as json.dumps(doc, indent=2) lays them out
    # at the given indent inside doc: each is a scalar, so the layout is
    # the one-line object with the line break and indent in its item
    # separator, less its braces
    from json import dumps

    separators = (",\n" + indent, ": ")
    return indent + dumps(bound._asdict(), separators=separators)[1:-1]


def _census_lines(c_max: int, as_json: bool) -> Iterator[str]:
    # the census gen listing, text or JSON, in chunks, one per entry;
    # the count, which comes first, is the sum of the counts that the
    # heads carry
    heads = _census_heads(c_max)
    count = sum(head[4] for head in heads)
    if as_json:
        # one JSON text per entry, in json.dumps(doc, indent=2) layout;
        # a printed form is ASCII without quotes or backslashes, so it
        # is its own JSON string.  Each row starts with the comma that
        # parts it from the one before, which the first drops; there is
        # always a first, the two twisted bundles of bound 0.
        rows = _entry_rows(
            heads, ',\n    {\n      "params": "',
            lambda bound: f'",\n{_json_bound(bound, "      ")}\n    }}')
        yield (f'{{\n  "cmax": {c_max},\n  "count": {count},'
               f'\n  "entries": [\n' + next(rows)[2:])
        yield from rows
        yield "\n  ]\n}\n"
        return
    yield (f"# closed non-orientable census, bound <= {c_max} "
           f"({count} entries)\n")
    yield "# params\tvalue\tcase_tag\texact\tlabel\n"
    yield from _entry_rows(
        heads, "",
        lambda bound: (f"\t{bound.value}\t{bound.case_tag.value}\t"
                       f"{'yes' if bound.exact else 'no'}\t"
                       f"{bound.label or '-'}\n"))


def _check_report(path: str, c_max: int | None,
                  as_json: bool) -> tuple[int, list[str]]:
    # The number of violations and the census check report, text or
    # JSON, of the table in the file at path.  _ranges cuts the file
    # into byte ranges; _grade_range reads, grades and spells the rows of
    # one, each in one pass as its line is read, and keeps only the text
    # of the report.  A large regular file is graded in as many forked
    # workers as there are usable CPUs, each range on its own, and
    # _report merges the ranges in file order; anything else is one
    # range, graded in this process.  Forked workers start with the
    # package loaded, where spawned ones would import it again; leaving
    # the pool ends them, after the last range or at the first error.
    # The report is returned after the last row, so a malformed row
    # leaves stdout empty.
    workers, ranges = _ranges(path)
    if workers == 1:
        return _report(map(partial(_grade_range, path, c_max, as_json),
                           ranges), as_json)
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return _report(pool.imap(partial(_grade_in_worker, path, c_max,
                                         as_json), ranges), as_json)


# A regular file of at least _PARALLEL_BYTES is graded in ranges of at
# most about _RANGE_BYTES, their number a multiple of the workers.  On a
# 2-vCPU host under Python 3.11, over the first three calls in a fresh
# process, the pool's start and the import of multiprocessing included:
# 6,000 rows (0.33 MB) took 0.09-0.13 s in two workers against
# 0.11-0.14 s in one process, 10,000 rows (0.54 MB) 0.13-0.20 s against
# 0.18-0.30 s and 12,000 rows (0.65 MB) 0.18-0.24 s against 0.22-0.34 s,
# so the workers pay from about 0.5 MB on.  The 60,000 rows (3.26 MB)
# of the benchmark take 0.93 s in 256 KiB ranges against 1.35 s in one
# process; ranges of 128 KiB to 1 MiB read the same within the noise.
_PARALLEL_BYTES = 1 << 19
_RANGE_BYTES = 1 << 18


def _ranges(path: str) -> tuple[int, list[tuple[int, int | None]]]:
    # The number of processes that grade the table in the file at path,
    # and its byte ranges (start, stop) in file order, stop None for the
    # end of the file.  One process and one range, unless the file is
    # regular and of at least _PARALLEL_BYTES, the host has more than
    # one usable CPU and can fork, and this process runs no other
    # thread, which a forked worker would lack; else one worker per
    # usable CPU, and about equal ranges, each cut just after a b"\n".
    # No UTF-8 sequence holds that byte, and every line end (\n, \r\n
    # or a lone \r) ends at it or before it, so the ranges split into
    # the lines of the whole file.
    status = os.stat(path)
    if not S_ISREG(status.st_mode) or status.st_size < _PARALLEL_BYTES:
        return 1, [(0, None)]
    import threading

    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        workers = os.cpu_count() or 1
    if (workers == 1 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1, [(0, None)]
    size = status.st_size
    count = workers * -(-size // (workers * _RANGE_BYTES))
    cuts = [0]
    with open(path, "rb") as handle:
        for i in range(1, count):
            handle.seek(i * size // count)
            handle.readline()
            if cuts[-1] < handle.tell() < size:
                cuts.append(handle.tell())
    return workers, [*zip(cuts, cuts[1:]), (cuts[-1], None)]


def _grade_range(path: str, c_max: int | None, as_json: bool,
                 span: tuple[int, int | None]) -> tuple:
    # (part, None) for the rows of the byte range span = (start, stop)
    # of the file at path, part as _grade_lines returns it, or (None,
    # (lineno, message)) for its first malformed row, lineno counted
    # from 1 at start; an error is sent as data.  The range is read
    # whole, but the last one, from start to the end of the file, is
    # read as it is graded.
    start, stop = span
    with open(path, "rb") as handle:
        if start:
            handle.seek(start)
        # errors="surrogateescape" turns each undecodable byte into a
        # lone surrogate, which _grade_lines refuses
        lines = io.TextIOWrapper(
            handle if stop is None else io.BytesIO(handle.read(stop - start)),
            encoding="utf-8", errors="surrogateescape")
        try:
            return _grade_lines(lines, start == 0, c_max, as_json), None
        except CensusFormatError as exc:
            return None, (exc.lineno, exc.message)


def _grade_in_worker(path: str, c_max: int | None, as_json: bool,
                     span: tuple[int, int | None]) -> tuple:
    # _grade_range in a worker, its rows and its overestimate lines each
    # joined into one string, so that thousands of small strings are
    # neither sent nor held by the parent
    part, error = _grade_range(path, c_max, as_json, span)
    if part:
        rows, overestimated, tally, count = part
        part = ([(",\n" if as_json else "").join(rows)] if rows else [],
                ["".join(overestimated)], tally, count)
    return part, error


def _grade_lines(lines: Iterable[str], bom: bool, c_max: int | None,
                 as_json: bool) -> tuple[list[str], list[str], "_Tally", int]:
    # The report rows of the census table lines, numbered from 1, which
    # start the table, a byte-order mark skipped, under bom: the rows,
    # each read, graded and spelled in one pass as its line is read; the
    # overestimate lines of the text; the _Tally of the rows; and the
    # number of lines.
    rows: list[str] = []
    overestimated: list[str] = []  # the overestimate lines of the text
    if as_json:
        from json import dumps

        def spell(name, form, recorded, bound, status, key):
            # the row as json.dumps(doc, indent=2) lays it out in the
            # rows of doc; a printed form and a status are ASCII without
            # quotes or backslashes, so each is its own JSON string
            return (f'    {{\n      "name": {dumps(name)},\n'
                    f'      "normalized": "{form}",\n'
                    f'      "recorded": {recorded},\n'
                    '      "bound": {\n'
                    + _json_bound(bound, "        ")
                    + f'\n      }},\n      "status": "{status}"\n    }}')
    else:
        def spell(name, form, recorded, bound, status, key):
            # the row's line, and its line after the counts if it is
            # an overestimate
            if key == "overestimates":
                overestimated.append(f"overestimate: {name} "
                                     f"[{bound.case_tag.value}] {status}\n")
            return (f"{name}\t{form}\trecorded={recorded}\t"
                    f"bound={bound.value}\t{status}\n")
    tally = _Tally()
    lineno = 0
    for lineno, line in enumerate(lines, 1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            byte = ord(line[exc.start]) - 0xDC00
            raise CensusFormatError(
                lineno, f"byte 0x{byte:02x} is not valid UTF-8") from None
        row = _read_row(lineno, line, bom)
        if row is None:
            continue
        name, P, recorded, _ = row
        if c_max is not None and recorded > c_max:
            continue
        bound, status, key = _grade(P, recorded)
        form = format_params(P)
        tally.add(name, key, form)
        rows.append(spell(name, form, recorded, bound, status, key))
    return rows, overestimated, tally, lineno


def _report(parts: Iterable[tuple], as_json: bool) -> tuple[int, list[str]]:
    # The number of violations and the census check report of the
    # ranges whose results _grade_range gives as parts, in file order:
    # their counts added up, each name's first fibration kept and its
    # repeated ones joined, and the JSON separators placed between the
    # rows, or between the joined rows of two ranges.  A malformed row
    # raises CensusFormatError at its line in the file, its line in its
    # range plus the lines of the ranges before; so the first in file
    # order is raised.  The tally of the first range is kept and those
    # of the others merged into it, so one range copies no tally.
    tally = None
    rows: list[str] = []
    overestimated: list[str] = []
    lines = 0  # the lines of the ranges merged
    for part, error in parts:
        if error:
            lineno, message = error
            raise CensusFormatError(lines + lineno, message)
        part_rows, part_overestimated, part_tally, count = part
        del part
        if as_json:
            for row in part_rows:
                rows += (",\n" if rows else "[\n", row)
        else:
            rows += part_rows
        overestimated += part_overestimated
        if tally is None:
            tally = part_tally
        else:
            tally.merge(part_tally)
        del part_rows, part_overestimated, part_tally
        lines += count
    summary, notes = tally.summary, tally.notes()
    if as_json:
        from json import dumps

        # doc as json.dumps(doc, indent=2) lays it out, with the rows
        # spliced in at the [] of its empty "rows", which comes first
        head, _, tail = dumps({"rows": [], "summary": summary,
                               "notes": list(notes)}, indent=2).partition("[]")
        return summary["violations"], [
            head, *rows, "\n  ]" if rows else "[]", tail + "\n"]
    counts = "  ".join(f"{key}: {n}" for key, n in summary.items())
    return summary["violations"], [*rows, counts + "\n", *overestimated,
                                   *(f"note: {note}\n" for note in notes)]

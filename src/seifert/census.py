"""Census enumeration, ingestion and sharpness comparison.

``enumerate_nonorientable_closed`` lists every canonical closed
non-orientable parameter set whose complexity bound fits a budget.  The
search space is finite because each exceptional fibre contributes
S(p,q) + 1 >= 3 to the bound and the fixed part 6(1 - chi) + 6t is
non-negative for closed non-orientable spaces, which caps the genus, the
reflector count and the fibre data.  (The closed orientable spaces admit
no such census: a fixed lens space carries infinitely many one-fibre
fibrations with the same bound.)

External census tables are read from TSV, one record per line:

    name <TAB> params <TAB> complexity <TAB> convention

with ``convention`` one of ``normalized`` or ``burton``; ``#`` comment
lines and blank lines are skipped.  ``compare`` then grades the bound
against each recorded complexity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .complexity import upper_bound
from .core import (
    ORIENTABLE_AWAY_FROM_SE,
    ComplexityBound,
    Epsilon,
    NormalizedSeifertParams,
    SeifertParams,
    cf_sum,
)
from .normal_form import normalize
from .notation import format_params, parse_params

CONVENTIONS = ("normalized", "burton")


@dataclass(frozen=True)
class CensusRecord:
    """One row of an external census table."""

    name: str
    params: SeifertParams
    complexity: int
    convention: str


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    normalized: NormalizedSeifertParams
    recorded: int
    bound: ComplexityBound
    status: str  # "sharp" | "overestimate(by n)" | "violation"


@dataclass(frozen=True)
class ComparisonReport:
    """Sharpness of the bound against a census table.

    A violation (bound below the recorded complexity) would contradict an
    upper bound, so it signals bad data or a normalization error.
    """

    rows: tuple[ComparisonRow, ...]
    sharp: int
    overestimates: tuple[ComparisonRow, ...]
    violations: int
    notes: tuple[str, ...]


def _cf_value(coeffs: list[int]) -> tuple[int, int]:
    # [a_1, ..., a_k] -> (p, q) with p/q = a_1 + 1/(a_2 + 1/(...)).
    num, den = coeffs[-1], 1
    for a in reversed(coeffs[:-1]):
        num, den = a * num + den, num
    return num, den


def enumerate_pairs_by_budget(s_max: int) -> list[tuple[int, int]]:
    """All coprime (p, q) with 0 < q < p and cf_sum(p, q) <= s_max,
    sorted lexicographically.

    Generated through the coefficient sequences themselves (a_i >= 1,
    last >= 2, sum <= s_max), each of which evaluates to a distinct pair.
    """
    out: list[tuple[int, int]] = []

    def grow(coeffs: list[int], total: int) -> None:
        if coeffs and coeffs[-1] >= 2:
            out.append(_cf_value(coeffs))
        for a in range(1, s_max - total + 1):
            coeffs.append(a)
            grow(coeffs, total + a)
            coeffs.pop()

    grow([], 0)
    out.sort()
    return out


def _closed_nonorientable_shapes(c_max: int) -> Iterator[tuple[Epsilon, int, int, int, int]]:
    # (eps, g, t, k, chi) with 6(1 - chi) + 6t within budget; the closed
    # orientable shapes (t = 0 with eps in {o1, n2}) are skipped.
    g_cap = c_max // 6 + 2
    t_cap = (c_max + 6) // 6
    for eps in Epsilon:
        for g in range(eps.min_genus, g_cap + 1):
            chi = 2 - 2 * g if eps.orientable_base else 2 - g
            for t in range(t_cap + 1):
                if 6 * (1 - chi) + 6 * t > c_max:
                    break
                if eps in (Epsilon.O, Epsilon.N):
                    for k in range(2, t + 1, 2):
                        yield eps, g, t, k, chi
                elif t > 0 or eps not in ORIENTABLE_AWAY_FROM_SE:
                    yield eps, g, t, 0, chi


def _pair_multisets(pool: list[tuple[int, tuple[int, int]]],
                    budget: int) -> Iterator[tuple[tuple[int, int], ...]]:
    # Multisets of pairs with total cost within budget, each listed once
    # in pool order.  The pool is sorted by cost, so a level stops at the
    # first pair that no longer fits.
    acc: list[tuple[int, int]] = []

    def rec(start: int, remaining: int) -> Iterator[tuple[tuple[int, int], ...]]:
        yield tuple(acc)
        for i in range(start, len(pool)):
            cost, pq = pool[i]
            if cost > remaining:
                break
            acc.append(pq)
            yield from rec(i, remaining - cost)
            acc.pop()

    yield from rec(0, budget)


def enumerate_nonorientable_closed(
        c_max: int) -> list[tuple[NormalizedSeifertParams, ComplexityBound]]:
    """Every canonical closed non-orientable parameter set with bound
    <= c_max, with its bound, ordered by the printed normal form."""
    found: dict[NormalizedSeifertParams, ComplexityBound] = {}
    # each pair costs S(p,q) + 1 in the bound; outside o1/n2 a
    # fibre-reversing curve turns q into p - q, so those take q <= p/2
    full = sorted((cf_sum(p, q) + 1, (p, q))
                  for p, q in enumerate_pairs_by_budget(c_max - 1))
    half = [(cost, (p, q)) for cost, (p, q) in full if 2 * q <= p]

    for eps, g, t, k, chi in _closed_nonorientable_shapes(c_max):
        budget = c_max - 6 * (1 - chi) - 6 * t
        pool = full if eps in ORIENTABLE_AWAY_FROM_SE else half
        b_options = (0,) if t > 0 else (0, 1)
        for pairs in _pair_multisets(pool, budget):
            for b in b_options:
                candidate = SeifertParams(b, eps, g, t, k, (), (), pairs)
                P = normalize(candidate)
                if P in found:
                    continue
                bound = upper_bound(P)
                if bound.value <= c_max:
                    found[P] = bound

    return sorted(found.items(), key=lambda item: format_params(item[0]))


class CensusFormatError(ValueError):
    """Malformed census input, carrying the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def ingest_census(source: Iterable[str] | str) -> list[CensusRecord]:
    """Parse a census table.  Every row is normalized on the way in, which
    converts burton-convention rows, so ``CensusRecord.params`` is the
    canonical form under both conventions."""
    if isinstance(source, str):
        source = source.splitlines()
    records = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
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
            complexity = int(complexity_text)
        except ValueError:
            raise CensusFormatError(
                lineno, f"complexity is not an integer: {complexity_text!r}") from None
        if complexity < 0:
            raise CensusFormatError(lineno, "complexity must be non-negative")
        if convention not in CONVENTIONS:
            raise CensusFormatError(
                lineno,
                f"unknown convention {convention!r}; expected one of "
                + ", ".join(CONVENTIONS))
        records.append(CensusRecord(name, params, complexity, convention))
    return records


def compare(records: Iterable[CensusRecord],
            c_max: int | None = None) -> ComparisonReport:
    """Grade the bound against each record with recorded complexity
    <= c_max (all records when c_max is None)."""
    rows = []
    by_name: dict[str, set[NormalizedSeifertParams]] = {}
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
        rows.append(ComparisonRow(record.name, P, record.complexity,
                                  bound, status))
        by_name.setdefault(record.name, set()).add(P)

    notes = tuple(
        f"records named {name!r} normalize to {len(forms)} distinct fibrations"
        for name, forms in sorted(by_name.items()) if len(forms) > 1)
    return ComparisonReport(
        rows=tuple(rows),
        sharp=sum(1 for row in rows if row.status == "sharp"),
        overestimates=tuple(row for row in rows
                            if row.status.startswith("overestimate")),
        violations=sum(1 for row in rows if row.status == "violation"),
        notes=notes,
    )

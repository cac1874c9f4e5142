import gc
import tracemalloc
from bisect import bisect_left
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from itertools import combinations_with_replacement
from math import gcd
from random import Random

import pytest

import seifert as sf
from seifert.census import _census_heads, _extensions
from seifert.cli import main
from support import (census_brute_force, census_by_normalizing,
                     census_counts_by_shape, cf_coefficients, int_digit_limit,
                     plain, random_move_word)


def P(text):
    return sf.parse_params(text)


def census_tally(c_max):
    """(eps, g, t, k, b, value) of each entry the census walk lists."""
    for _, P, bounds, bare, _, entries in _census_heads(c_max):
        key = (P.epsilon, P.g, P.t, P.k, P.b)
        for _, cost, _ in entries:
            yield (*key, bounds[cost].value)
        if bare:
            yield (*key, bare.value)


def drain(c_max):
    for _ in census_tally(c_max):
        pass


class TestPairsByBudget:
    def test_small_budgets(self):
        assert sf.enumerate_pairs_by_budget(0) == []
        assert sf.enumerate_pairs_by_budget(1) == []
        assert sf.enumerate_pairs_by_budget(2) == [(2, 1)]
        assert sf.enumerate_pairs_by_budget(3) == [(2, 1), (3, 1), (3, 2)]

    def test_matches_brute_force(self):
        # any pair with S <= s has p <= 2^s, so a p-grid sweep is complete
        for s in range(2, 9):
            expected = sorted(
                (p, q) for p in range(2, 2 ** s + 1) for q in range(1, p)
                if gcd(p, q) == 1 and sf.cf_sum(p, q) <= s)
            assert sf.enumerate_pairs_by_budget(s) == expected

    def test_no_duplicates(self):
        pairs = sf.enumerate_pairs_by_budget(10)
        assert len(pairs) == len(set(pairs))

    def test_count_is_one_per_coefficient_sequence(self):
        # sequences of positive integers with sum <= s and last entry
        # >= 2 number 2^(s-1) - 1
        for s in range(1, 17):
            assert len(sf.enumerate_pairs_by_budget(s)) == 2 ** (s - 1) - 1


class TestPairMultisets:
    C_MAX = 8

    @pytest.mark.parametrize("full_range", [True, False])
    def test_matches_combinations_within_budget(self, full_range):
        # every pair that fits the largest budget, sorted by cost as the
        # walk needs, whole or with 2q <= p as outside o1/n2
        full = sorted((sf.cf_sum(p, q) + 1, (p, q))
                      for p, q in sf.enumerate_pairs_by_budget(self.C_MAX - 1))
        pool = full if full_range else [
            (cost, (p, q)) for cost, (p, q) in full if 2 * q <= p]
        pairs = [pq for _, pq in pool]
        cost = {pq: sum(cf_coefficients(*pq)) + 1 for pq in pairs}
        # the walk takes, for each room r, the pairs that cost at most r,
        # in the text order of "(p,q)"
        spelled = sorted((f"({p},{q})", cost[p, q], (p, q)) for p, q in pairs)
        fits = [[item for item in spelled if item[1] <= room]
                for room in range(self.C_MAX + 1)]
        for budget in range(self.C_MAX + 1):
            walked, texts = [], []
            for text, spent, ms in _extensions(fits, budget, False,
                                               fits[budget], (0, 0)):
                assert spent == sum(cost[pq] for pq in ms)
                walked.append(tuple(sorted(ms)))
                texts.append(text)
            # listed in text order, each pair list as format_params
            # spells it less its closing ")"
            assert texts == sorted(texts)
            assert [text + ")}" for text in texts] == [
                sf.format_params(sf.SeifertParams(0, sf.Epsilon.N1, 1, 0, 0,
                                                  pairs=ms)).removeprefix(
                    "{0;(n1,1,(0,0));(|);") for ms in walked]
            # the walk yields no empty multiset: _census_heads gives the
            # pairless entry of a head apart
            expected = {ms for size in range(1, budget // 3 + 1)
                        for ms in combinations_with_replacement(pairs, size)
                        if sum(cost[pq] for pq in ms) <= budget}
            assert len(walked) == len(set(walked))
            assert set(walked) == {tuple(sorted(ms)) for ms in expected}


    def test_walk_leaves_no_reference_cycles(self):
        # a cycle would keep the pair pool alive until the cyclic
        # collector ran, so the peak memory of a census walk would
        # depend on when it runs
        gc.collect()
        gc.disable()
        try:
            drain(12)
            fits = [[("(2,1)", 3, (2, 1))] if room >= 3 else []
                    for room in range(10)]
            walk = _extensions(fits, 9, False, fits[9], (0, 0))
            next(walk)
            walk.close()
            del walk
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_walk_stores_only_the_pairs_that_can_share_a_multiset(self):
        # at budget 18 the walk spells the 8,191 pairs that cost at most
        # 15 and keeps the 28,672 lone pairs with 2q <= p as numbers, and
        # holds no listing; it peaked at about 10 MB when it stored and
        # sorted all 65,535 pairs of cost at most 18
        tracemalloc.start()
        try:
            drain(18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    @pytest.mark.parametrize("c_max", [10, 15, 16])
    def test_walk_draws_only_the_pairs_it_lists(self, c_max, monkeypatch):
        # the walk draws the 2^(c-4) - 1 tails of cf_sum <= c - 3 once and
        # builds the pool and the lone pairs from them by a first
        # coefficient, so no pair is drawn twice or only to be skipped
        drawn = 0
        pairs_with_cf_sum = sf.census._pairs_with_cf_sum

        def counting(s_max):
            nonlocal drawn
            for item in pairs_with_cf_sum(s_max):
                drawn += 1
                yield item

        monkeypatch.setattr(sf.census, "_pairs_with_cf_sum", counting)
        drain(c_max)
        assert drawn <= 2 ** (c_max - 5) + 2 ** (c_max - 4)


class TestEnumeration:
    def test_budget_zero_is_the_two_twisted_bundles(self):
        entries = sf.enumerate_nonorientable_closed(0)
        assert [sf.format_params(p) for p, _ in entries] == [
            "{0;(o1,0,(1,0));(|);}",
            "{1;(n1,1,(0,0));(|);}",
        ]
        assert all(bd.value == 0 and bd.exact for _, bd in entries)

    def test_budget_one_adds_projective_plane_product(self):
        entries = dict(sf.enumerate_nonorientable_closed(1))
        added = P("{0;(n1,1,(0,0));(|);}")
        assert added in entries
        assert entries[added].value == 1

    def test_monotone_in_budget(self):
        previous = set()
        for c in range(6):
            current = {p for p, _ in sf.enumerate_nonorientable_closed(c)}
            assert previous <= current
            previous = current

    def test_entries_are_canonical_closed_nonorientable(self):
        for params, bound in sf.enumerate_nonorientable_closed(12):
            assert sf.is_closed(params)
            assert not sf.is_orientable(params)
            assert sf.normalize(plain(params)) == params
            assert sf.upper_bound(params) == bound

    def test_no_duplicates_up_to_equivalence(self):
        entries = sf.enumerate_nonorientable_closed(6)
        forms = [p for p, _ in entries]
        assert len(forms) == len(set(forms))

    def test_deterministic(self):
        first = sf.enumerate_nonorientable_closed(6)
        second = sf.enumerate_nonorientable_closed(6)
        assert first == second

    def test_entry_counts(self, capsys):
        # census(n) is the part of census(N) with value <= n, so one walk
        # at budget 19 and one `census gen` listing at budget 17 are
        # checked for every budget below them: against the pinned totals
        # and, by shape, b and value, against the generating-function
        # counts
        totals = [2, 3, 3, 5, 8, 14, 38, 64, 120, 241, 489, 996,
                  2079, 4263, 8812, 18223, 37742, 78097, 161817, 334921]
        expected = [census_counts_by_shape(c) for c in range(20)]

        def up_to(counts, c):
            return {key: n for key, n in counts.items() if key[5] <= c}

        # the pair pool is built per budget, so the small budgets are
        # also walked directly
        for c in range(5):
            entries = sf.enumerate_nonorientable_closed(c)
            assert len(entries) == totals[c]
            assert Counter((P.epsilon, P.g, P.t, P.k, P.b, bound.value)
                           for P, bound in entries) == expected[c]
        walked = Counter(census_tally(19))
        for c, total in enumerate(totals):
            assert up_to(walked, c) == expected[c]
            assert sum(expected[c].values()) == total
        # and the walk holds nothing above its budget
        assert dict(walked) == expected[19]
        assert main(["census", "gen", "--cmax", "17"]) == 0
        listed = Counter()
        for line in capsys.readouterr().out.splitlines()[2:]:
            text, value, *_ = line.split("\t")
            P = sf.parse_params(text)
            listed[P.epsilon, P.g, P.t, P.k, P.b, int(value)] += 1
        for c in range(18):
            assert up_to(listed, c) == expected[c]
        # nor does the listing
        assert dict(listed) == expected[17]

    def test_each_head_counts_what_the_walk_lists_under_it(self):
        # the closed-form count of each shape and b, not only the total:
        # the entries with pairs, and the pairless one when it fits
        for c_max in range(17):
            heads = _census_heads(c_max)
            listed = [sum(1 for _ in entries) + bool(bare)
                      for _, _, _, bare, _, entries in heads]
            assert listed == [count for _, _, _, _, count, _ in heads], c_max

    def test_matches_normalize_and_fold_reference(self):
        for c in range(13):
            assert (dict(sf.enumerate_nonorientable_closed(c))
                    == census_by_normalizing(c))

    def test_agrees_with_raw_grid_sweep_small(self):
        assert dict(sf.enumerate_nonorientable_closed(1)) == census_brute_force(1)


BISECT_BUDGET = 16
DRAWS = 3500


@pytest.fixture(scope="class")
def listing():
    """The rows of `census gen --cmax 16`, each split at its tabs."""
    out = StringIO()
    with redirect_stdout(out):
        assert main(["census", "gen", "--cmax", str(BISECT_BUDGET)]) == 0
    return [line.split("\t") for line in out.getvalue().splitlines()[2:]]


def random_census_draw(rng, shapes):
    """A raw closed non-orientable set: a shape weighted by the room its
    base leaves, b in -3..3, and pairs drawn as continued-fraction
    coefficient sequences whose sums use up that room, now and then by
    one or two more than it holds, so that costly pairs come up too."""
    weights = [room + 1 for _, room in shapes]
    (shape, room), = rng.choices(shapes, weights)
    pairs = []
    while room >= 3 and rng.random() < 0.9:
        # a composition of s, read as the coefficients a0, a1, ... of p/q
        s = rng.randrange(2, room + 2)
        cuts = sorted(rng.sample(range(1, s), rng.randrange(min(s - 1, 4))))
        coeffs = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, s])]
        x = Fraction(coeffs[-1])
        for a in reversed(coeffs[:-1]):
            x = a + 1 / x
        pairs.append((x.numerator,
                      x.denominator + x.numerator * rng.randrange(-3, 4)))
        room -= s + 1
    return shape._replace(b=rng.randrange(-3, 4), pairs=tuple(pairs))


class TestListingByBisection:
    # The listing is in strictly increasing text order, so membership is
    # one bisect: this checks the walk at a budget the normalize-and-fold
    # reference does not reach, against normalize and upper_bound.

    def test_listing_is_strictly_increasing(self, listing):
        texts = [row[0] for row in listing]
        assert len(texts) == 37742
        assert all(a < b for a, b in zip(texts, texts[1:]))

    def test_every_drawn_form_is_listed_exactly_when_it_fits(self, listing):
        texts = [row[0] for row in listing]
        # each admissible closed non-orientable shape with the room its
        # base 6(1 - chi) + 6t leaves for pairs, each costing S(p,q) + 1
        shapes = []
        for eps in sf.Epsilon:
            for g in range(eps.min_genus, BISECT_BUDGET + 3):
                for t in range(BISECT_BUDGET + 2):
                    for k in range(t + 1):
                        shape = sf.SeifertParams(0, eps, g, t, k)
                        if sf.validate(shape) or sf.is_orientable(shape):
                            continue
                        room = (BISECT_BUDGET - 6 * t
                                - 6 * (1 - sf.euler_char_base(shape)))
                        if room >= 0:
                            shapes.append((shape, room))
        rng = Random(16)
        hits = 0
        for _ in range(DRAWS):
            raw = random_census_draw(rng, shapes)
            P = sf.normalize(random_move_word(rng, raw, rng.randrange(1, 8)))
            assert P == sf.normalize(raw)
            text, value = sf.format_params(P), sf.upper_bound(P).value
            i = bisect_left(texts, text)
            listed = i < len(texts) and texts[i] == text
            assert listed == (value <= BISECT_BUDGET), (text, value)
            if listed:
                assert int(listing[i][1]) == value
            hits += listed
        # 2,097 of these draws fit; the rest check that what does not
        # fit is not listed
        assert hits >= 2000 and DRAWS - hits >= 1000

    def test_sampled_lines_normalize_to_themselves(self, listing):
        for text, value, *_ in Random(61).sample(listing, 2000):
            P = sf.parse_params(text)
            assert sf.format_params(sf.normalize(P)) == text
            assert sf.upper_bound(P).value == int(value)


CENSUS_TEXT = """\
# toy census
RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized

S2~S1\t{0;(o1,0,(1,0));(|);}\t0\tnormalized
X\t{0;(n3,2,(0,0));(|);((3,2))}\t10\tburton
"""
ROWS = CENSUS_TEXT.split("\n", 1)[1]  # the table without its comment line


class TestIngest:
    def test_parses_records_and_converts_burton(self):
        records = sf.ingest_census(CENSUS_TEXT)
        assert [r.name for r in records] == ["RP2xS1", "S2~S1", "X"]
        assert records[2].params == P("{1;(n3,2,(0,0));(|);((3,1))}")
        assert records[0].complexity == 1

    def test_params_are_canonical_under_both_conventions(self):
        records = sf.ingest_census(
            "a\t{3;(n1,1,(0,0));(|);((1,2))}\t0\tnormalized\n"
            "b\t{0;(n3,2,(0,0));(|);((3,2))}\t10\tburton\n")
        assert all(type(r.params) is sf.NormalizedSeifertParams
                   for r in records)
        assert records[0].params == P("{1;(n1,1,(0,0));(|);}")

    def test_empty_input(self):
        assert sf.ingest_census("") == []
        assert sf.ingest_census("# only a comment\n\n") == []

    def test_crlf_and_file_objects(self, tmp_path):
        path = tmp_path / "census.tsv"
        path.write_bytes(CENSUS_TEXT.replace("\n", "\r\n").encode())
        with open(path, encoding="utf-8") as handle:
            records = sf.ingest_census(handle)
        assert len(records) == 3

    def test_byte_order_mark_before_a_comment(self):
        records = sf.ingest_census("\ufeff# exported with a BOM\n"
                                   + CENSUS_TEXT)
        assert records == sf.ingest_census(CENSUS_TEXT)

    def test_byte_order_mark_before_a_row(self):
        records = sf.ingest_census("\ufeff" + ROWS)
        assert [r.name for r in records] == ["RP2xS1", "S2~S1", "X"]

    def test_byte_order_mark_in_a_plain_utf8_file(self, tmp_path):
        path = tmp_path / "census.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + ROWS.encode())
        with open(path, encoding="utf-8") as handle:
            records = sf.ingest_census(handle)
        assert [r.name for r in records] == ["RP2xS1", "S2~S1", "X"]

    def test_string_splits_like_a_file(self, tmp_path):
        # form feed, \x1c and U+2028 end a line for str.splitlines but
        # not in a file read in text mode
        text = ("form\x0cfeed\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\r\n"
                "sep\x1c\u2028\t{0;(o1,0,(1,0));(|);}\t0\tnormalized\r"
                "X\t{0;(n3,2,(0,0));(|);((3,2))}\t10\tburton\n")
        path = tmp_path / "census.tsv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as handle:
            from_file = sf.ingest_census(handle)
        assert [r.name for r in from_file] == ["form\x0cfeed",
                                               "sep\x1c\u2028", "X"]
        assert sf.ingest_census(text) == from_file
        # and a bad row is numbered alike
        path.write_bytes((text + "bad\n").encode("utf-8"))
        with pytest.raises(sf.CensusFormatError, match="line 4"):
            with open(path, encoding="utf-8") as handle:
                sf.ingest_census(handle)
        with pytest.raises(sf.CensusFormatError, match="line 4"):
            sf.ingest_census(text + "bad\n")

    @pytest.mark.parametrize("line,fragment", [
        ("bad line without tabs", "4 tab-separated fields"),
        ("a\t{0;(n1,1,(0,0));(|);}\tx\tnormalized", "not an integer"),
        ("a\t{0;(n1,1,(0,0));(|);}\t1_0\tnormalized", "not an integer"),
        ("a\t{0;(n1,1,(0,0));(|);}\t1\uff10\tnormalized", "not an integer"),
        ("a\t{0;(n1,1,(0,0));(|);}\t\u0663\tnormalized", "not an integer"),
        ("a\t{0;(n1,1,(0,0));(|);}\t+1\tnormalized", "not an integer"),
        ("a\t{0;(n1,1,(0,0));(|);}\t 1\tnormalized", "not an integer"),
        ("a\t{0;(n1,1,(0,0));(|);}\t1 \tnormalized", "not an integer"),
        # an integer, but more digits than int() reads
        pytest.param(
            "a\t{0;(n1,1,(0,0));(|);}\t%s\tnormalized"
            % ("9" * (int_digit_limit() + 1)),
            f"complexity has {int_digit_limit() + 1} digits, "
            f"more than the {int_digit_limit()} that int() reads",
            id="beyond-digit-limit",
            marks=pytest.mark.skipif(not int_digit_limit(),
                                     reason="int() reads any length")),
        # the limit does not count the sign
        pytest.param(
            "a\t{0;(n1,1,(0,0));(|);}\t-%s\tnormalized"
            % ("9" * int_digit_limit()), "non-negative",
            id="negative-at-digit-limit",
            marks=pytest.mark.skipif(not int_digit_limit(),
                                     reason="int() reads any length")),
        ("a\t{0;(n1,1,(0,0));(|);}\t-1\tnormalized", "non-negative"),
        ("a\t{0;(n1,1,(0,0));(|);}\t1\tregina", "unknown convention"),
        ("a\t{0;(n1,1,(0,0));(|)}\t1\tnormalized", "parse error"),
        ("a\t{0;(n4,1,(0,0));(|);}\t1\tnormalized", "invalid parameters"),
    ])
    def test_malformed_rows_report_line_numbers(self, line, fragment):
        with pytest.raises(sf.CensusFormatError) as err:
            sf.ingest_census("# header\n" + line + "\n")
        assert "line 2" in str(err.value)
        assert fragment in str(err.value)


class TestCompare:
    def test_sharp_rows(self):
        report = sf.compare(sf.ingest_census(CENSUS_TEXT))
        assert report.sharp == 3
        assert report.violations == 0
        assert report.overestimates == ()
        statuses = {row.name: row.status for row in report.rows}
        assert statuses["RP2xS1"] == "sharp"

    def test_case_dispatch_makes_projective_plane_sharp(self):
        rows = sf.compare(sf.ingest_census(
            "RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tnormalized\n")).rows
        assert rows[0].bound.value == 1
        assert rows[0].status == "sharp"

    def test_violation_detected(self):
        report = sf.compare(sf.ingest_census(
            "weird\t{1;(n1,1,(0,0));(|);}\t5\tnormalized\n"))
        assert report.violations == 1
        assert report.rows[0].status == "violation"

    def test_overestimate_reported_with_amount(self):
        report = sf.compare(sf.ingest_census(
            "opt\t{0;(n1,2,(0,0));(|);((2,1))}\t7\tnormalized\n"))
        assert report.rows[0].status == "overestimate(by 2)"
        assert len(report.overestimates) == 1

    def test_cmax_filters_rows(self):
        report = sf.compare(sf.ingest_census(CENSUS_TEXT), c_max=0)
        assert len(report.rows) == 1
        report = sf.compare(sf.ingest_census(CENSUS_TEXT), c_max=1)
        assert len(report.rows) == 2

    def test_records_built_by_hand(self):
        # a record built by hand may hold raw params: a unit pair, q out
        # of range, burton rows; compare grades their canonical forms
        table = [("unit", "{3;(n1,1,(0,0));(|);((1,2))}", 0, "normalized"),
                 ("range", "{0;(n1,2,(0,0));(|);((5,-7),(3,2))}", 12,
                  "burton"),
                 ("X", "{0;(n3,2,(0,0));(|);((3,2))}", 10, "burton"),
                 ("low", "{2;(o1,0,(1,0));(|);((3,4),(1,1))}", 5, "burton")]
        records = [sf.CensusRecord(name, P(text), value, convention)
                   for name, text, value, convention in table]
        report = sf.compare(records)
        assert [row.status for row in report.rows] == [
            "sharp", "overestimate(by 3)", "sharp", "violation"]
        for record, row in zip(records, report.rows):
            assert type(row) is sf.ComparisonRow
            assert type(row.normalized) is sf.NormalizedSeifertParams
            assert row.normalized == sf.normalize(record.params)
        ingested = sf.ingest_census("".join(
            f"{name}\t{text}\t{value}\t{convention}\n"
            for name, text, value, convention in table))
        assert all(type(record) is sf.CensusRecord for record in ingested)
        assert report == sf.compare(ingested)

    def test_duplicate_name_note(self):
        text = ("NxS1\t{0;(n1,1,(0,0));(0|);}\t0\tnormalized\n"
                "NxS1\t{0;(o1,0,(1,0));(0|);}\t0\tnormalized\n")
        report = sf.compare(sf.ingest_census(text))
        assert len(report.notes) == 1
        assert "2 distinct fibrations" in report.notes[0]

"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the plain test outcomes carry the same information.
"""
import time
from itertools import combinations_with_replacement
from math import gcd
from random import Random

import seifert as sf
from support import (
    PAPER_PARAM_STRINGS,
    census_brute_force,
    normal_form_violations,
    plain,
    random_move_word,
    random_valid,
)


def P(text):
    return sf.parse_params(text)


def _report(number, detail):
    print(f"criterion {number}: PASS ({detail})")


def test_c01_cf_sum_matches_quotient_sum_oracle():
    started = time.perf_counter()
    checked = 0
    for p in range(2, 501):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            quotients = []
            a, b = p, q
            while b:
                quotients.append(a // b)
                a, b = b, a % b
            # the quotient list is the canonical expansion of p/q
            num, den = quotients[-1], 1
            for c in reversed(quotients[:-1]):
                num, den = c * num + den, num
            assert (num, den) == (p, q)
            assert all(c >= 1 for c in quotients) and quotients[-1] >= 2
            assert sf.cf_sum(p, q) == sum(quotients) >= 2
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"{checked} coprime pairs with p <= 500 in {elapsed:.2f}s")


def test_c02_case3_tail_identity():
    started = time.perf_counter()
    checked = 0
    for p in range(3, 201):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            assert sf.cf_sum(p, q) - p // q == sf.cf_sum(q, p % q), (p, q)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(2, f"{checked} coprime pairs with p <= 200 in {elapsed:.2f}s")


def test_c03_normalization_soundness_idempotence_move_invariance():
    started = time.perf_counter()
    rng = Random(20260810)
    for _ in range(1000):
        seed = sf.normalize(random_valid(rng))
        assert normal_form_violations(seed) == []
        assert sf.normalize(plain(seed)) == seed
        moved = random_move_word(rng, seed, rng.randrange(1, 21))
        assert sf.normalize(moved) == seed
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(3, f"1000 seeds x move words of length <= 20 in {elapsed:.2f}s")


def test_c04_burton_identity_grid():
    normalized_pairs = [(p, q) for p in range(2, 13) for q in range(1, p // 2 + 1)
                        if gcd(p, q) == 1]
    checked = 0
    for eps in (sf.Epsilon.O2, sf.Epsilon.N1, sf.Epsilon.N3, sf.Epsilon.N4):
        for g in range(eps.min_genus, eps.min_genus + 2):
            for r in (1, 2):
                for combo in combinations_with_replacement(normalized_pairs, r):
                    *head, (p_r, q_r) = combo
                    burton = sf.SeifertParams(
                        0, eps, g, 0, 0, (), (),
                        tuple(head) + ((p_r, p_r - q_r),))
                    reference = sf.SeifertParams(
                        1, eps, g, 0, 0, (), (), combo)
                    assert sf.normalize(burton) == sf.normalize(reference)
                    checked += 1
    _report(4, f"{checked} census-convention grid points")


def test_c05_paper_fixture_values():
    cases = [
        ("{3;(o1,0,(0,0));(|);}", 0, False, "L(3,1)"),
        ("{0;(n1,1,(0,0));(|);}", 1, False, "RP2 x S1"),
        ("{1;(n1,1,(0,0));(|);}", 0, True, "S2 x~ S1"),
        ("{0;(o1,0,(1,0));(|);}", 0, True, "S2 x~ S1"),
        ("{0;(o,4,(1,1));(1|0);((3,1),(5,2))}", 2, False, None),
        # the four bordered spaces of complexity zero, in all their fibrations
        ("{0;(n1,1,(0,0));(0|);}", 0, True, "N x S1"),
        ("{0;(o1,0,(1,0));(0|);}", 0, True, "N x S1"),
        ("{0;(o1,0,(0,0));(1|);((2,1))}", 0, True, "N x~ S1"),
        ("{0;(o,0,(1,1));(|0);}", 0, True, "N x~ S1"),
        ("{0;(o1,0,(0,0));(0|);((7,3))}", 0, True, "D2 x S1"),
        ("{0;(o1,0,(0,0));(0|);}", 0, True, "D2 x S1"),
        ("{0;(o1,0,(0,0));(1|);}", 0, True, "SK"),
    ]
    for text, value, exact, label in cases:
        result = sf.upper_bound(P(text))
        assert result.value == value, text
        assert result.exact == exact, text
        if label is not None:
            assert result.label == label, text
    _report(5, f"{len(cases)} fixed parameter sets")


def test_c06_zero_complexity_corollary_sweep():
    started = time.perf_counter()
    kinds = [(2, 1), (3, 1), (3, 2)]
    entry_values = (0, 1, 2)
    boundary_shapes = (
        [(h, ()) for h in combinations_with_replacement(entry_values, 1)]
        + [(h, ()) for h in combinations_with_replacement(entry_values, 2)]
        + [((), kk) for kk in combinations_with_replacement(entry_values, 2)])
    checked = 0
    for eps in sf.Epsilon:
        for g in range(eps.min_genus, 4):
            for hplus, kminus in boundary_shapes:
                for size in range(4):
                    for pairs in combinations_with_replacement(kinds, size):
                        for b in (0, 2):
                            params = sf.SeifertParams(
                                b, eps, g, 0, 0, hplus, kminus, pairs)
                            if sf.validate(params):
                                continue
                            assert sf.zero_complexity_corollary_check(params)
                            assert sf.upper_bound(params).value == 0, params
                            checked += 1
    elapsed = time.perf_counter() - started
    assert checked > 1000
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(6, f"{checked} bordered grid points in {elapsed:.2f}s")


def test_c07_non_negativity_and_invariance():
    rng = Random(404)
    census_entries = sf.enumerate_nonorientable_closed(10)
    inputs = [params for params, _ in census_entries]
    inputs += [random_valid(rng) for _ in range(10_000)]
    for params in inputs:
        result = sf.upper_bound(params)
        assert result.value >= 0
        moved = random_move_word(rng, params, rng.randrange(1, 6))
        assert sf.upper_bound(moved) == result
        if params.epsilon in sf.ORIENTABLE_AWAY_FROM_SE:
            assert sf.upper_bound(sf.mirror(params)) == result
    _report(7, f"census(10) = {len(census_entries)} entries plus 10000 "
               "random inputs")


def test_c08_census_enumeration_matches_raw_grid_oracle():
    started = time.perf_counter()
    sizes = []
    for c_max in range(5):
        oracle = census_brute_force(c_max)
        assert dict(sf.enumerate_nonorientable_closed(c_max)) == oracle
        sizes.append(len(oracle))
    two_fibrations = sf.enumerate_nonorientable_closed(0)
    assert [sf.format_params(params) for params, _ in two_fibrations] == [
        "{0;(o1,0,(1,0));(|);}",
        "{1;(n1,1,(0,0));(|);}",
    ]
    assert all(bound.label == "S2 x~ S1" for _, bound in two_fibrations)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    _report(8, f"budgets 0..4 give {sizes} entries, oracle match "
               f"in {elapsed:.1f}s")


def test_c09_conjecture_agrees_with_bound():
    checked = 0
    for params, bound in sf.enumerate_nonorientable_closed(10):
        if bound.case_tag is sf.CaseTag.CLOSED_NONORIENTABLE_GENERAL:
            assert sf.conjectured_complexity(params) == bound.value
            checked += 1
        else:
            assert sf.conjectured_complexity(params) is None
    assert checked > 400
    _report(9, f"{checked} general-case census entries")


def test_c10_round_trip_parse_print():
    rng = Random(55)
    for _ in range(10_000):
        params = random_valid(rng)
        assert sf.parse_params(sf.format_params(params)) == params
    for text in PAPER_PARAM_STRINGS:
        params = sf.parse_params(text)
        assert sf.format_params(params) == text
        assert sf.parse_params(sf.format_params(params)) == params
    _report(10, f"10000 random sets plus {len(PAPER_PARAM_STRINGS)} "
                "fixed spellings")

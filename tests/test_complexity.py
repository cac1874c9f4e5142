from collections import Counter
from itertools import combinations_with_replacement
from math import gcd, prod
from random import Random

import pytest

import seifert as sf
from support import (PAPER_PARAM_STRINGS, random_move_word, random_valid,
                     reference_bound, seifert_invariants)


def P(text):
    return sf.parse_params(text)


def bound(text):
    return sf.upper_bound(P(text))


class TestBorderedBound:
    def test_worked_example(self):
        result = bound("{0;(o,4,(1,1));(1|0);((3,1),(5,2))}")
        assert result.value == 2
        assert result.case_tag is sf.CaseTag.BORDERED_GENERAL
        assert not result.exact

    def test_reduces_raw_input_first(self):
        # (5,7) twists down to (5,2), so the fibre contributes S(5,2)-3 = 1
        assert bound("{0;(o1,1,(0,0));(0|);((5,7))}").value == 1

    def test_reflector_circles_count(self):
        assert bound("{0;(o,2,(2,2));(0|0,0);}").value == 2

    @pytest.mark.parametrize("text,label", [
        ("{0;(n1,1,(0,0));(0|);}", "N x S1"),
        ("{0;(o1,0,(1,0));(0|);}", "N x S1"),
        ("{0;(o1,0,(0,0));(1|);((2,1))}", "N x~ S1"),
        ("{0;(o,0,(1,1));(|0);}", "N x~ S1"),
        ("{0;(o1,0,(0,0));(0|);((7,3))}", "D2 x S1"),
        ("{0;(o1,0,(0,0));(0|);}", "D2 x S1"),
        ("{0;(o1,0,(0,0));(1|);}", "SK"),
    ])
    def test_recognized_zero_complexity_spaces(self, text, label):
        result = bound(text)
        assert result == sf.ComplexityBound(
            0, sf.CaseTag.BORDERED_SPECIAL_ZERO, exact=True, label=label)

    def test_recognition_beats_the_formula(self):
        # a single high-S fibre on the solid torus would otherwise score 2
        result = bound("{0;(o1,0,(0,0));(0|);((7,3))}")
        assert result.value == 0 and result.exact


class TestClosedBound:
    def test_lens_b1(self):
        result = bound("{3;(o1,0,(0,0));(|);}")
        assert result.value == 0
        assert result.case_tag is sf.CaseTag.LENS_B1
        assert result.label == "L(3,1)"
        assert bound("{7;(o1,0,(0,0));(|);}").value == 4
        # b = 0 is S2 x S1
        assert bound("{0;(o1,0,(0,0));(|);}").label == "L(0,1)"

    def test_lens_bpq(self):
        result = bound("{2;(o1,0,(0,0));(|);((5,2))}")
        assert result.case_tag is sf.CaseTag.LENS_BPQ
        assert result.label == "L(12,5)"
        assert result.value == 2 + 4 - 3

    def test_lens_qp(self):
        result = bound("{0;(o1,0,(0,0));(|);((5,2))}")
        assert result.case_tag is sf.CaseTag.LENS_QP
        assert result.label == "L(2,1)"
        assert result.value == max(4 - 3 - 2, 0) == 0

    def test_lens_qp_with_q_one_is_a_sphere(self):
        result = bound("{0;(o1,0,(0,0));(|);((7,1))}")
        assert result.value == 0
        assert result.label == "L(1,0)"

    @pytest.mark.parametrize("text", [
        "{1;(o1,0,(0,0));(|);((5,2))}",
        "{1;(o1,0,(0,0));(|);((4,3))}",
        "{2;(o1,0,(0,0));(|);((3,1))}",
        "{3;(o1,0,(0,0));(|);((2,1))}",
    ])
    def test_lens_label_is_canonical(self, text):
        # L(7,5) = L(7,4) = L(7,3) = L(7,2): q' = +-q^(+-1) mod 7
        assert bound(text).label == "L(7,2)"

    def test_lens_label_is_the_order_of_homology(self):
        # |H1(L(p,q))| = p, and a closed o1 set over the sphere has
        # |H1| = |e| * prod p_j (0 for S2 x S1), with e from exact
        # fractions of its fields and no library move.  The grid: one
        # raw pair (p, q), unit pairs among them, or none, and b in -5..5.
        grid = [()] + [((p, q),) for p in range(1, 30)
                       for q in range(-2 * p, 2 * p + 1) if gcd(p, q) == 1]
        tags = Counter()
        for pairs in grid:
            for b in range(-5, 6):
                params = sf.SeifertParams(b, sf.Epsilon.O1, 0, 0, 0, (), (),
                                          pairs)
                result = sf.upper_bound(params)
                tags[result.case_tag] += 1
                order = int(result.label[2:].split(",")[0])
                e = seifert_invariants(params)[6]
                assert order == abs(e) * prod(p for p, _ in pairs), params
        assert tags == {sf.CaseTag.LENS_B1: 66, sf.CaseTag.LENS_BPQ: 9684,
                        sf.CaseTag.LENS_QP: 2152}

    def test_projective_plane_product(self):
        result = bound("{0;(n1,1,(0,0));(|);}")
        assert result == sf.ComplexityBound(
            1, sf.CaseTag.RP2_X_S1, exact=False, label="RP2 x S1")

    def test_twisted_bundle(self):
        result = bound("{1;(n1,1,(0,0));(|);}")
        assert result == sf.ComplexityBound(
            0, sf.CaseTag.S2_TWIST_S1, exact=True, label="S2 x~ S1")

    def test_twisted_bundle_reflector_fibration(self):
        result = bound("{0;(o1,0,(1,0));(|);}")
        assert result == sf.ComplexityBound(
            0, sf.CaseTag.S2_TWIST_S1_REFLECTOR, exact=True, label="S2 x~ S1")

    def test_nonorientable_general(self):
        result = bound("{0;(n1,2,(0,0));(|);((2,1))}")
        assert result.value == 6 + 0 + 3 == 9
        assert result.case_tag is sf.CaseTag.CLOSED_NONORIENTABLE_GENERAL

    def test_orientable_general(self):
        # chi = 0 torus base: max{b-1,0} + 6 + sum(S+1)
        result = bound("{2;(o1,1,(0,0));(|);((5,2))}")
        assert result.case_tag is sf.CaseTag.CLOSED_ORIENTABLE_GENERAL
        assert result.value == 1 + 6 + 5

    def test_orientable_sphere_base_many_fibres(self):
        result = bound("{0;(o1,0,(0,0));(|);((2,1),(3,1),(5,2))}")
        assert result.case_tag is sf.CaseTag.CLOSED_ORIENTABLE_GENERAL
        assert result.value == max(0 - 1 + 2, 0) - 6 + (3 + 4 + 5)

    def test_lens_case3_identity_sweep(self):
        # against the lens bound of the reduced type (q, p mod q)
        for p in range(3, 61):
            for q in range(2, p):
                if gcd(p, q) != 1:
                    continue
                value = bound(f"{{0;(o1,0,(0,0));(|);(({p},{q}))}}").value
                assert value == max(sf.cf_sum(q, p % q) - 3, 0), (p, q)


class TestZeroComplexityCorollary:
    def test_positive_case(self):
        params = P("{0;(o1,1,(0,0));(0|);((2,1),(3,2))}")
        assert sf.zero_complexity_corollary_check(params)
        assert sf.upper_bound(params).value == 0

    def test_reflector_circle_disqualifies(self):
        assert not sf.zero_complexity_corollary_check(
            P("{0;(o1,0,(1,0));(0|);((2,1))}"))

    def test_large_fibre_disqualifies(self):
        assert not sf.zero_complexity_corollary_check(
            P("{0;(o1,1,(0,0));(0|);((5,2))}"))

    def test_requires_boundary(self):
        with pytest.raises(ValueError):
            sf.zero_complexity_corollary_check(P("{0;(n1,1,(0,0));(|);}"))

    def test_small_bordered_sweep(self):
        # every admissible bordered shape carrying only (2,1),(3,1),(3,2)
        # fibres and no reflector circle has bound exactly 0
        kinds = [(2, 1), (3, 1), (3, 2)]
        boundary_shapes = [((0,), ()), ((1,), ()), ((0, 1), ()), ((), (0, 2))]
        for eps in sf.Epsilon:
            for hplus, kminus in boundary_shapes:
                for g in range(eps.min_genus, eps.min_genus + 2):
                    for size in range(3):
                        for pairs in combinations_with_replacement(kinds, size):
                            params = sf.SeifertParams(
                                0, eps, g, 0, 0, hplus, kminus, pairs)
                            if sf.validate(params):
                                continue
                            assert sf.zero_complexity_corollary_check(params)
                            assert sf.upper_bound(params).value == 0


class TestConjecture:
    def test_matches_general_value(self):
        assert sf.conjectured_complexity(P("{0;(n1,2,(0,0));(|);((2,1))}")) == 9

    def test_excludes_reducible_fibrations(self):
        assert sf.conjectured_complexity(P("{0;(n1,1,(0,0));(|);}")) is None
        assert sf.conjectured_complexity(P("{1;(n1,1,(0,0));(|);}")) is None
        assert sf.conjectured_complexity(P("{0;(o1,0,(1,0));(|);}")) is None

    def test_rejects_orientable(self):
        with pytest.raises(ValueError):
            sf.conjectured_complexity(P("{3;(o1,0,(0,0));(|);}"))

    def test_rejects_bordered(self):
        with pytest.raises(ValueError):
            sf.conjectured_complexity(P("{0;(o1,0,(0,0));(0|);}"))


class TestBoundInvariance:
    def test_non_negative_and_move_invariant(self):
        rng = Random(12)
        for _ in range(400):
            params = random_valid(rng)
            result = sf.upper_bound(params)
            assert result.value >= 0
            moved = random_move_word(rng, params, rng.randrange(1, 8))
            assert sf.upper_bound(moved) == result
            if params.epsilon in sf.ORIENTABLE_AWAY_FROM_SE:
                assert sf.upper_bound(sf.mirror(params)) == result


class TestSharperFamilyNote:
    def test_family_one(self):
        note = sf.sharper_bound_note(
            P("{-1;(o1,0,(0,0));(|);((2,1),(2,1),(5,1))}"))
        assert note and "(n,1),(m,1)" in note

    def test_family_two(self):
        note = sf.sharper_bound_note(
            P("{-1;(o1,0,(0,0));(|);((2,1),(3,1),(11,2))}"))
        assert note and "p/q > 5" in note

    def test_families_require_the_exact_shape(self):
        assert sf.sharper_bound_note(
            P("{-1;(o1,0,(0,0));(|);((2,1),(3,1),(11,3))}")) is None
        assert sf.sharper_bound_note(
            P("{0;(o1,0,(0,0));(|);((2,1),(3,1),(11,2))}")) is None
        assert sf.sharper_bound_note(P("{0;(n1,2,(0,0));(|);((2,1))}")) is None
        assert sf.sharper_bound_note(
            P("{-1;(o1,0,(0,0));(|);((3,1),(3,1),(4,1))}")) is None


class TestBoundAgainstReference:
    """upper_bound against support.reference_bound, which reads the
    formulas of the complexity docstring off the raw fields."""

    def test_census_entries(self):
        for Q, listed in sf.enumerate_nonorientable_closed(12):
            expected = reference_bound(Q)
            assert (listed.value, listed.case_tag.value) == expected
            bound = sf.upper_bound(Q)
            assert (bound.value, bound.case_tag.value) == expected

    def test_random_sets_over_all_eps(self):
        rng = Random(53)
        # the lens spaces, which the draws reach only a few times
        lenses = ["{0;(o1,0,(0,0));(|);}", "{1;(o1,0,(0,0));(|);}",
                  "{6;(o1,0,(0,0));(|);}", "{0;(o1,0,(0,0));(|);((7,1))}",
                  "{0;(o1,0,(0,0));(|);((7,2))}",
                  "{3;(o1,0,(0,0));(|);((8,3))}"]
        sets = [sf.normalize(P(text))
                for text in PAPER_PARAM_STRINGS + lenses]
        sets += [sf.normalize(random_valid(rng)) for _ in range(10000)]
        tags = set()
        for Q in sets:
            bound = sf.upper_bound(Q)
            assert ((bound.value, bound.case_tag.value)
                    == reference_bound(Q)), sf.format_params(Q)
            tags.add(bound.case_tag)
        # every branch of the dispatch is reached
        assert tags == set(sf.CaseTag)
        assert {Q.epsilon for Q in sets} == set(sf.Epsilon)

from itertools import combinations_with_replacement
from math import gcd
from random import Random

import pytest

import seifert as sf
from support import (normal_form_violations, plain, random_move_word,
                     random_valid, seifert_invariants)


def P(text):
    return sf.parse_params(text)


class TestTwist:
    def test_moves_one_twist_onto_pair(self):
        moved = sf.twist(P("{0;(o1,0,(0,0));(|);((5,7))}"), 1, 1)
        assert moved == P("{1;(o1,0,(0,0));(|);((5,2))}")
        assert sf.equivalent(moved, P("{0;(o1,0,(0,0));(|);((5,7))}"))

    def test_zero_is_identity(self):
        params = P("{2;(n1,1,(0,0));(|);((3,1))}")
        assert sf.twist(params, 1, 0) == params

    def test_inverse_composition(self):
        params = P("{1;(o1,0,(0,0));(|);((2,1))}")
        assert sf.twist(params, 1, -1) == P("{0;(o1,0,(0,0));(|);((2,3))}")
        assert sf.twist(sf.twist(params, 1, -1), 1, 1) == params

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            sf.twist(P("{0;(o1,0,(0,0));(|);((5,7))}"), 2, 1)
        with pytest.raises(IndexError):
            sf.twist(P("{0;(o1,0,(0,0));(|);}"), 1, 1)


class TestReflectPair:
    def test_burton_shift(self):
        moved = sf.reflect_pair(P("{1;(n1,2,(0,0));(|);((5,2))}"), 1)
        assert moved == P("{2;(n1,2,(0,0));(|);((5,3))}")

    def test_twice_shifts_b_by_two(self):
        params = P("{0;(o2,1,(0,0));(|);((5,2),(7,3))}")
        again = sf.reflect_pair(sf.reflect_pair(params, 2), 2)
        assert again == P("{2;(o2,1,(0,0));(|);((5,2),(7,3))}")

    def test_two_one_pair_is_fixed(self):
        moved = sf.reflect_pair(P("{0;(o2,1,(0,0));(|);((2,1))}"), 1)
        assert moved == P("{1;(o2,1,(0,0));(|);((2,1))}")
        assert sf.equivalent(moved, P("{0;(o2,1,(0,0));(|);((2,1))}"))

    def test_rejected_without_fibre_reversing_curve(self):
        with pytest.raises(ValueError):
            sf.reflect_pair(P("{0;(o1,0,(0,0));(|);((5,2))}"), 1)
        with pytest.raises(ValueError):
            sf.reflect_pair(P("{0;(n2,1,(0,0));(|);((5,2))}"), 1)

    @pytest.mark.parametrize("j", [0, 2])
    def test_rejects_a_pair_index_out_of_range(self, j):
        with pytest.raises(IndexError, match=f"pair index {j} out of range 1..1"):
            sf.reflect_pair(P("{1;(n1,2,(0,0));(|);((5,2))}"), j)


class TestMirror:
    def test_closed_orientable_formula(self):
        mirrored = sf.mirror(P("{-1;(o1,0,(0,0));(|);((2,1),(3,1),(3,1))}"))
        assert mirrored == P("{-2;(o1,0,(0,0));(|);((2,1),(3,2),(3,2))}")

    def test_involution(self):
        for text in ("{-1;(o1,0,(0,0));(|);((2,1),(3,1),(3,1))}",
                     "{0;(n2,1,(1,0));(|);((4,1))}",
                     "{3;(o1,0,(0,0));(|);((1,2),(5,2))}"):
            params = P(text)
            assert sf.mirror(sf.mirror(params)) == params

    def test_empty_closed_orientable(self):
        assert sf.mirror(P("{0;(o1,0,(0,0));(|);}")) == P("{0;(o1,0,(0,0));(|);}")

    def test_nonorientable_branch_flips_q_only(self):
        mirrored = sf.mirror(P("{0;(n2,1,(1,0));(|);((4,1))}"))
        assert mirrored == P("{0;(n2,1,(1,0));(|);((4,3))}")
        assert sf.equivalent(mirrored, P("{0;(n2,1,(1,0));(|);((4,1))}"))

    def test_rejected_for_other_epsilon(self):
        with pytest.raises(ValueError):
            sf.mirror(P("{0;(n1,1,(0,0));(|);}"))

    def test_canonical_form_forgets_orientation(self):
        # a set and its mirror image have one canonical form, so the
        # form of the orientation-reversed space is normalize's own
        rng = Random(31)
        seen = 0
        while seen < 300:
            params = random_valid(rng)
            if params.epsilon not in sf.ORIENTABLE_AWAY_FROM_SE:
                continue
            seen += 1
            assert sf.normalize(sf.mirror(params)) == sf.normalize(params)


class TestUnitPairs:
    def test_absorb(self):
        params = P("{3;(o1,0,(0,0));(|);((1,5),(2,1),(1,-2))}")
        assert sf.absorb_unit_pairs(params) == P("{6;(o1,0,(0,0));(|);((2,1))}")

    def test_insert_then_absorb_is_identity(self):
        params = P("{3;(n3,2,(0,0));(|);((5,2))}")
        assert sf.absorb_unit_pairs(sf.insert_unit_pair(params, 4)) == params


class TestNormalize:
    def test_twist_reduction(self):
        assert sf.normalize(P("{0;(o1,0,(0,0));(|);((5,7))}")) == \
            P("{1;(o1,0,(0,0));(|);((5,2))}")

    def test_idempotent_on_examples(self):
        for text in ("{1;(o1,0,(0,0));(|);((5,2))}",
                     "{0;(o,4,(1,1));(1|0);((3,1),(5,2))}",
                     "{1;(n1,1,(0,0));(|);}"):
            once = sf.normalize(P(text))
            assert sf.normalize(plain(once)) == once

    def test_canonical_input_is_returned_and_moves_are_plain(self):
        # normalize may return a NormalizedSeifertParams as is only
        # because no move, and no changed copy, hands one back.
        rng = Random(4242)
        for _ in range(300):
            canonical = sf.normalize(random_valid(rng))
            assert sf.normalize(canonical) is canonical
            moved = [sf.insert_unit_pair(canonical, 0),
                     sf.absorb_unit_pairs(canonical),
                     canonical._replace(),
                     canonical._replace(b=canonical.b + 1)]
            if canonical.pairs:
                moved.append(sf.twist(canonical, 1, 0))
            if canonical.epsilon in sf.ORIENTABLE_AWAY_FROM_SE:
                moved.append(sf.mirror(canonical))
            elif canonical.pairs:
                moved.append(sf.reflect_pair(canonical, 1))
            assert all(type(m) is sf.SeifertParams for m in moved)
            for m in moved:
                assert sf.normalize(m) == sf.normalize(plain(m))

    def test_mirror_applied_when_b_too_negative(self):
        assert sf.normalize(P("{-3;(o1,0,(0,0));(|);((2,1),(3,1))}")) == \
            P("{1;(o1,0,(0,0));(|);((2,1),(3,2))}")

    def test_b_mod_two(self):
        assert sf.normalize(P("{2;(n1,1,(0,0));(|);}")) == P("{0;(n1,1,(0,0));(|);}")
        assert sf.normalize(P("{5;(n3,2,(0,0));(|);((3,1))}")) == \
            P("{1;(n3,2,(0,0));(|);((3,1))}")

    def test_b_dies_against_a_two_pair(self):
        assert sf.normalize(P("{1;(o2,1,(0,0));(|);((2,1))}")) == \
            P("{0;(o2,1,(0,0));(|);((2,1))}")

    def test_b_absorbed_with_boundary(self):
        assert sf.normalize(P("{4;(o1,0,(0,0));(0|);((5,3))}")) == \
            P("{0;(o1,0,(0,0));(0|);((5,2))}")

    def test_sorts_boundary_lists_and_pairs(self):
        raw = sf.SeifertParams(0, sf.Epsilon.O, 1, 1, 1, (2, 0), (1,),
                               ((5, 2), (2, 1)))
        normalized = sf.normalize(raw)
        assert normalized.hplus == (0, 2)
        assert normalized.kminus == (1,)
        assert normalized.pairs == ((2, 1), (5, 2))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            sf.normalize(sf.SeifertParams(0, sf.Epsilon.N4, 1, 0, 0))

    def test_leading_pair_rule_bordered(self):
        assert sf.normalize(P("{0;(o1,0,(0,0));(0|);((5,3))}")) == \
            P("{0;(o1,0,(0,0));(0|);((5,2))}")

    def test_mirror_tie_at_minimal_b(self):
        # b = -r/2 leaves the choice to the pair list; both mirror images
        # must reduce to the same representative
        a = P("{-1;(o1,0,(0,0));(|);((5,1),(5,3))}")
        b = sf.mirror(a)
        assert sf.normalize(a) == sf.normalize(b)

    def test_soundness_and_move_invariance_sample(self):
        rng = Random(99)
        for _ in range(300):
            seed = sf.normalize(random_valid(rng))
            assert normal_form_violations(seed) == []
            moved = random_move_word(rng, seed, rng.randrange(1, 12))
            assert sf.normalize(moved) == seed


# the pairs 0 < q < p <= 5, and the raw pairs with p <= 5 and |q| <= p:
# unit pairs and q out of range among them
CLOSED_PAIRS = [(p, q) for p in range(2, 6) for q in range(1, p)
                if gcd(p, q) == 1]
RAW_PAIRS = [(p, q) for p in range(1, 6) for q in range(-p, p + 1)
             if gcd(p, q) == 1]


class TestSeifertInvariants:
    """normalize and the classical invariants, which share no code with
    it, split each grid of o1 and n2 sets into the same classes: the
    canonical form merges a set with its mirror image and with nothing
    else."""

    @staticmethod
    def classes(sets) -> int:
        found = {(sf.normalize(P), seifert_invariants(P)) for P in sets}
        assert len({form for form, _ in found}) == len(found)
        assert len({invariants for _, invariants in found}) == len(found)
        return len(found)

    @pytest.mark.parametrize("eps,g", [("o1", 0), ("o1", 1), ("n2", 1),
                                       ("n2", 2)])
    def test_closed(self, eps, g):
        sets = [sf.SeifertParams(b, sf.Epsilon(eps), g, 0, 0, (), (), pairs)
                for r in range(4)
                for pairs in combinations_with_replacement(CLOSED_PAIRS, r)
                for b in range(-4, 5)]
        # 1,386 of the 1,980 sets have their mirror image (-b - r, p - q)
        # in the grid, 6 of them as themselves: 1,980 - 1,380/2 classes
        assert len(sets) == 1980
        assert self.classes(sets) == 1290

    @pytest.mark.parametrize("shape", [
        "{0;(o1,0,(1,0));(|);}", "{0;(o1,0,(0,0));(0|);}",
        "{0;(n2,1,(0,0));(0,1|);}", "{0;(n2,1,(2,0));(|);}",
        "{0;(o1,1,(0,0));(2|);}"])
    def test_reflector_circles_or_boundary(self, shape):
        base = P(shape)
        sets = [base._replace(b=b, pairs=pairs)
                for pairs in combinations_with_replacement(RAW_PAIRS, 3)
                for b in (-1, 2)]
        # the 220 multisets of at most three of the 9 slopes q/p mod 1,
        # 12 of them their own negatives: (220 + 12)/2 classes
        assert self.classes(sets) == 116


class TestEquivalent:
    def test_distinct_fibrations_of_one_manifold_differ(self):
        assert not sf.equivalent(P("{0;(n1,1,(0,0));(0|);}"),
                                 P("{0;(o1,0,(1,0));(0|);}"))

    def test_twist_invariance(self):
        params = P("{0;(o1,1,(0,0));(|);((7,3))}")
        assert sf.equivalent(params, sf.twist(params, 1, 5))

    def test_burton_identity_example(self):
        assert sf.equivalent(P("{1;(n1,2,(0,0));(|);((3,1))}"),
                             P("{0;(n1,2,(0,0));(|);((3,2))}"))

    def test_equivalence_relation_on_samples(self):
        rng = Random(5)
        params = [random_valid(rng) for _ in range(40)]
        for x in params:
            assert sf.equivalent(x, x)
        for x in params[:12]:
            for y in params[:12]:
                assert sf.equivalent(x, y) == sf.equivalent(y, x)
                if sf.equivalent(x, y):
                    for z in params[:12]:
                        if sf.equivalent(y, z):
                            assert sf.equivalent(x, z)


class TestReverseOrientation:
    """The orientation-reversed space has the canonical form of the set
    itself: normalize of its mirror image."""

    def test_lens_space_is_fixed(self):
        assert sf.normalize(sf.mirror(P("{3;(o1,0,(0,0));(|);}"))) == \
            P("{3;(o1,0,(0,0));(|);}")

    def test_involution_on_normal_forms(self):
        rng = Random(31)
        seen = 0
        while seen < 100:
            params = random_valid(rng)
            if params.epsilon not in sf.ORIENTABLE_AWAY_FROM_SE:
                continue
            seen += 1
            once = sf.normalize(sf.mirror(params))
            assert sf.normalize(sf.mirror(once)) == once

    def test_bordered_keeps_leading_pair_representative(self):
        bordered = P("{0;(o1,0,(0,0));(0|);((5,2))}")
        assert sf.normalize(sf.mirror(bordered)) == bordered


class TestSolidTorus:
    def test_examples(self):
        T = sf.FibredSolidTorusType
        assert sf.solid_torus_equivalent(T(5, 2), T(5, 3))
        assert not sf.solid_torus_equivalent(T(5, 2), T(5, 1))
        assert sf.solid_torus_equivalent(T(1, 0), T(1, 7))
        assert not sf.solid_torus_equivalent(T(5, 2), T(7, 2))

    def test_matches_brute_force_residues(self):
        from math import gcd
        for p in range(1, 31):
            residues = [r for r in range(p + 1) if gcd(p, r) == 1]
            for r1 in residues:
                for r2 in residues:
                    expected = (r1 % p == r2 % p) or ((r1 + r2) % p == 0)
                    if p == 1:
                        expected = True
                    got = sf.solid_torus_equivalent(
                        sf.FibredSolidTorusType(p, r1),
                        sf.FibredSolidTorusType(p, r2))
                    assert got == expected, (p, r1, r2)


class TestFromBurton:
    """normalize converts census rows written in the burton convention."""

    def test_two_pair_then_b_collapses(self):
        # reflecting (5,4) back sets b = 1, which then dies against (2,1)
        assert sf.normalize(P("{0;(o2,1,(0,0));(|);((2,1),(5,4))}")) == \
            P("{0;(o2,1,(0,0));(|);((2,1),(5,1))}")

import copy
import pickle
from math import gcd
from random import Random

import pytest

import seifert as sf
from support import PAPER_PARAM_STRINGS, cf_coefficients


# The paper's table of the eight bundle symbols: member name, word,
# least genus of the base and whether the base is orientable.
EPSILON_TABLE = [
    ("O", "o", 0, True),
    ("O1", "o1", 0, True),
    ("O2", "o2", 1, True),
    ("N", "n", 1, False),
    ("N1", "n1", 1, False),
    ("N2", "n2", 1, False),
    ("N3", "n3", 2, False),
    ("N4", "n4", 3, False),
]


@pytest.mark.parametrize("name,word,min_genus,orientable_base",
                         EPSILON_TABLE, ids=[row[1] for row in EPSILON_TABLE])
class TestEpsilon:
    """The public behaviour of each member.  format() is left out: it
    gives the word on 3.10 and ``Epsilon.O1`` from 3.11 on."""

    def test_the_word_looks_up_the_member(self, name, word, min_genus,
                                          orientable_base):
        member = getattr(sf.Epsilon, name)
        assert sf.Epsilon(word) is member
        assert member.value == word
        assert member.name == name

    def test_repr_and_str(self, name, word, min_genus, orientable_base):
        member = sf.Epsilon(word)
        assert repr(member) == f"<Epsilon.{name}: {word!r}>"
        assert str(member) == f"Epsilon.{name}"

    def test_equals_and_hashes_like_its_word(self, name, word, min_genus,
                                             orientable_base):
        member = sf.Epsilon(word)
        assert member == word and word == member
        assert hash(member) == hash(word)
        assert {word: 1}[member] == 1

    def test_copies_are_the_member(self, name, word, min_genus,
                                   orientable_base):
        member = sf.Epsilon(word)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(member, protocol)) is member
        assert copy.copy(member) is member
        assert copy.deepcopy(member) is member

    def test_facts_match_the_paper(self, name, word, min_genus,
                                   orientable_base):
        member = sf.Epsilon(word)
        assert member.min_genus == min_genus
        assert type(member.min_genus) is int
        assert member.orientable_base is orientable_base

    def test_facts_are_read_only(self, name, word, min_genus,
                                 orientable_base):
        member = sf.Epsilon(word)
        with pytest.raises(AttributeError):
            member.min_genus = min_genus + 1
        with pytest.raises(AttributeError):
            member.orientable_base = not orientable_base
        assert member.min_genus == min_genus
        assert member.orientable_base is orientable_base


def test_epsilon_keeps_the_paper_order():
    assert [member.value for member in sf.Epsilon] == [
        row[1] for row in EPSILON_TABLE]


class TestCfSum:
    def test_integer_ratio(self):
        assert sf.cf_sum(2, 1) == 2

    def test_worked_values(self):
        # 5/2 = 2 + 1/2 and 3/2 = 1 + 1/2
        assert sf.cf_sum(5, 2) == 4
        assert sf.cf_sum(3, 2) == 3

    def test_q_one_gives_p(self):
        for p in (1, 2, 3, 17, 101):
            assert sf.cf_sum(p, 1) == p

    @pytest.mark.parametrize("p,q", [(4, 2), (6, 3), (10, 4)])
    def test_rejects_non_coprime(self, p, q):
        with pytest.raises(ValueError):
            sf.cf_sum(p, q)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            sf.cf_sum(5, 0)
        with pytest.raises(ValueError):
            sf.cf_sum(5, -2)
        with pytest.raises(ValueError):
            sf.cf_sum(5, 7)
        with pytest.raises(ValueError):
            sf.cf_sum(5, 5)

    def test_matches_expansion_and_canonical_form(self):
        for p in range(2, 120):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                coeffs = cf_coefficients(p, q)
                assert all(a >= 1 for a in coeffs)
                assert coeffs[-1] >= 2
                assert sf.cf_sum(p, q) == sum(coeffs) >= 2

    def test_tail_identity(self):
        # S(p,q) - floor(p/q) = S(q, p mod q) whenever p mod q != 0
        for p in range(3, 120):
            for q in range(2, p):
                if gcd(p, q) == 1:
                    assert sf.cf_sum(p, q) - p // q == sf.cf_sum(q, p % q)


class TestValidate:
    def test_genus_too_small_for_n4(self):
        params = sf.parse_params("{0;(n4,2,(0,0));(|);}")
        assert any("n4 requires g >= 3" in v for v in sf.validate(params))

    def test_accepts_twisted_bundle_fibration(self):
        assert sf.validate(sf.parse_params("{0;(o,0,(1,1));(|0);}")) == []

    def test_decorated_epsilon_with_klein_data(self):
        params = sf.parse_params("{0;(o1,0,(1,1));(0|);}")
        violations = sf.validate(params)
        assert any("o or n exactly when" in v for v in violations)
        # the same set also has k + m- odd; both must be reported
        assert any("odd" in v for v in violations)

    def test_collects_all_violations(self):
        params = sf.SeifertParams(0, sf.Epsilon.N4, 1, 0, 2, (), (), ((4, 2),))
        violations = sf.validate(params)
        assert len(violations) >= 4  # non-coprime, k > t, parity, eps rules
        params = sf.SeifertParams(0, sf.Epsilon.O, -1, -1, -1, (-1,), (-1,))
        assert {"g must be non-negative", "t must be non-negative",
                "k must be non-negative",
                "entries of the h-list must be non-negative",
                "entries of the k-list must be non-negative",
                } <= set(sf.validate(params))

    def test_raw_q_and_b_are_not_violations(self):
        assert sf.validate(sf.parse_params("{-7;(o1,0,(0,0));(|);((5,12))}")) == []
        assert sf.validate(sf.parse_params("{3;(o1,0,(0,0));(|);((1,5))}")) == []

    def test_p_nonpositive(self):
        params = sf.SeifertParams(0, sf.Epsilon.O1, 0, 0, 0, (), (), ((0, 1),))
        assert any("p must be positive" in v for v in sf.validate(params))

    def test_accepts_every_paper_fixture(self):
        for text in PAPER_PARAM_STRINGS:
            assert sf.validate(sf.parse_params(text)) == [], text


class TestElementaryInvariants:
    def test_euler_characteristic(self):
        assert sf.euler_char_base(sf.parse_params("{0;(o1,0,(0,0));(|);}")) == 2
        assert sf.euler_char_base(sf.parse_params("{0;(n1,1,(0,0));(|);}")) == 1
        assert sf.euler_char_base(sf.parse_params("{0;(n2,3,(0,0));(|);}")) == -1
        assert sf.euler_char_base(sf.parse_params("{0;(o,4,(1,1));(1|0);}")) == -6

    def test_orientability(self):
        assert sf.is_orientable(
            sf.parse_params("{-1;(o1,0,(0,0));(|);((2,1),(3,1),(3,1))}"))
        assert not sf.is_orientable(
            sf.parse_params("{0;(o,4,(1,1));(1|0);((3,1),(5,2))}"))
        # solid Klein bottle: h_1 = 1 forces non-orientability
        assert not sf.is_orientable(sf.parse_params("{0;(o1,0,(0,0));(1|);}"))
        assert sf.is_orientable(sf.parse_params("{0;(n2,1,(0,0));(|);}"))

    def test_closedness(self):
        assert sf.is_closed(sf.parse_params("{0;(n1,1,(0,0));(|);}"))
        assert not sf.is_closed(sf.parse_params("{0;(o1,0,(0,0));(0|);}"))
        assert not sf.is_closed(sf.parse_params("{0;(o,0,(1,1));(|0);}"))

    def test_orientable_spaces_have_torus_boundary_only(self):
        rng = Random(7)
        from support import random_valid
        for _ in range(500):
            params = random_valid(rng)
            if sf.is_orientable(params):
                profile = sf.boundary_profile(params)
                assert profile.klein_regular == 0
                assert profile.klein_with_exceptional == 0


class TestBoundaryProfile:
    def test_worked_example(self):
        profile = sf.boundary_profile(
            sf.parse_params("{0;(o,4,(1,1));(1|0);((3,1),(5,2))}"))
        assert profile == sf.BoundaryProfile(
            tori=0, klein_regular=1, klein_with_exceptional=1,
            exceptional_annuli=1)

    def test_closed(self):
        profile = sf.boundary_profile(sf.parse_params("{0;(n1,1,(0,0));(|);}"))
        assert profile == sf.BoundaryProfile(0, 0, 0, 0)

    def test_torus_times_interval(self):
        profile = sf.boundary_profile(sf.parse_params("{0;(o1,0,(0,0));(0,0|);}"))
        assert profile == sf.BoundaryProfile(
            tori=2, klein_regular=0, klein_with_exceptional=0,
            exceptional_annuli=0)


class TestOrbifoldSummary:
    def test_worked_example(self):
        summary = sf.orbifold_summary(
            sf.parse_params("{0;(o,4,(1,1));(1|0);((3,1),(5,2))}"))
        assert summary == sf.OrbifoldSummary(
            genus=4, orientable_base=True, cone_points=((3, 1), (5, 2)),
            reflector_circles=1, reflector_arcs=1,
            underlying_boundary_components=3, minus_decorations=2)

    def test_sphere_base_no_singularities(self):
        summary = sf.orbifold_summary(sf.parse_params("{0;(o1,0,(0,0));(|);}"))
        assert summary == sf.OrbifoldSummary(0, True, (), 0, 0, 0, 0)

    def test_projective_plane_base(self):
        summary = sf.orbifold_summary(sf.parse_params("{1;(n1,1,(0,0));(|);}"))
        assert summary == sf.OrbifoldSummary(1, False, (), 0, 0, 0, 0)


class TestSeifertParamsValue:
    # raw fields, not even valid: eps n3 with k + m- > 0
    FIELDS = (1, sf.Epsilon.N3, 2, 1, 1, (0,), (2,), ((3, 1), (5, 2)))
    # canonical fields, which normalize returns unchanged
    NORMAL = (0, sf.Epsilon.N, 2, 1, 1, (0,), (2,), ((3, 1), (5, 2)))

    def test_sequences_are_stored_as_tuples(self):
        N = sf.NormalizedSeifertParams(*self.NORMAL)
        for P in (sf.SeifertParams(1, sf.Epsilon.N3, 2, 1, 1, [0], [2],
                                   [[3, 1], [5, 2]]),
                  N._replace(b=1, epsilon=sf.Epsilon.N3, hplus=[0],
                             pairs=[[3, 1], [5, 2]]),
                  sf.SeifertParams._make(
                      [1, sf.Epsilon.N3, 2, 1, 1, [0], [2], [[3, 1], [5, 2]]])):
            assert type(P) is sf.SeifertParams
            assert type(P.hplus) is tuple and type(P.kminus) is tuple
            assert type(P.pairs) is tuple
            assert all(type(pq) is tuple for pq in P.pairs)
            assert P == sf.SeifertParams(*self.FIELDS)
            assert hash(P) == hash(sf.SeifertParams(*self.FIELDS))
        assert hash(N) == hash(sf.SeifertParams(*self.NORMAL))

    def test_epsilon_word_is_stored_as_its_member(self):
        # every reader takes the eps facts off the member
        word = sf.SeifertParams(0, "n1", 1, 0, 0)
        member = sf.SeifertParams(0, sf.Epsilon.N1, 1, 0, 0)
        assert word.epsilon is sf.Epsilon.N1
        assert sf.validate(word) == sf.validate(member) == []
        assert sf.validate(sf.SeifertParams(0, "n4", 2, 0, 0)) == [
            "n4 requires g >= 3"]
        assert sf.euler_char_base(word) == sf.euler_char_base(member) == 1
        assert sf.normalize(word) == sf.normalize(member)
        assert sf.upper_bound(word) == sf.upper_bound(member) == (
            sf.ComplexityBound(1, sf.CaseTag.RP2_X_S1, label="RP2 x S1"))
        assert sf.format_params(word) == sf.format_params(member) == (
            "{0;(n1,1,(0,0));(|);}")
        assert member._replace(epsilon="o2").epsilon is sf.Epsilon.O2

    def test_unknown_epsilon_word_is_refused(self):
        with pytest.raises(ValueError, match="'zz' is not a valid Epsilon"):
            sf.SeifertParams(0, "zz", 1, 0, 0)

    def test_make_takes_all_eight_fields(self):
        # the constructor alone would fill five to seven from defaults
        for size in (5, 7, 9):
            with pytest.raises(TypeError, match=f"got {size}$"):
                sf.SeifertParams._make(self.FIELDS[:5] + (None,) * (size - 5))

    def test_normalized_equals_and_hashes_like_plain(self):
        P = sf.SeifertParams(*self.NORMAL)
        N = sf.NormalizedSeifertParams(*self.NORMAL)
        assert P == N and N == P
        assert hash(P) == hash(N)
        assert len({P, N}) == 1

    def test_fields_cannot_be_set(self):
        for P in (sf.SeifertParams(*self.FIELDS),
                  sf.NormalizedSeifertParams(*self.NORMAL)):
            with pytest.raises(AttributeError):
                P.b = 0
            with pytest.raises(AttributeError):
                P.pairs = ()

    def test_instances_carry_no_dict(self):
        # census check keeps one record and one row per input line
        records = [sf.SeifertParams(*self.FIELDS),
                   sf.NormalizedSeifertParams(*self.NORMAL)]
        for record in records + _record_instances():
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_pickle_keeps_the_class(self):
        for cls, fields in ((sf.SeifertParams, self.FIELDS),
                            (sf.NormalizedSeifertParams, self.NORMAL)):
            P = pickle.loads(pickle.dumps(cls(*fields)))
            assert type(P) is cls
            assert P == cls(*fields)

    def test_repr_is_pinned(self):
        assert repr(sf.NormalizedSeifertParams(*self.NORMAL)) == (
            "NormalizedSeifertParams(b=0, epsilon=<Epsilon.N: 'n'>, g=2, "
            "t=1, k=1, hplus=(0,), kminus=(2,), pairs=((3, 1), (5, 2)))")

    def test_normalized_constructor_normalizes(self):
        # a canonical set comes back with its fields, a raw one canonical,
        # and an invalid one is refused
        N = sf.NormalizedSeifertParams(*self.NORMAL)
        assert type(N) is sf.NormalizedSeifertParams
        assert tuple(N) == self.NORMAL
        with pytest.raises(ValueError, match="epsilon is o or n exactly"):
            sf.NormalizedSeifertParams(*self.FIELDS)
        for fields in [(5, "n1", 1, 0, 0), (0, "o1", 0, 0, 0, (), (), ((7, 10),)),
                       (0, "n1", 1, 0, 0, (), (), ((5, -7), (1, 2), (3, 2)))]:
            raw = sf.SeifertParams(*fields)
            N = sf.NormalizedSeifertParams(*fields)
            assert type(N) is sf.NormalizedSeifertParams
            assert N == sf.normalize(raw) and sf.normalize(N) is N
            assert sf.equivalent(N, raw)
            assert sf.upper_bound(N) == sf.upper_bound(raw)
            assert sf.format_params(N) == sf.format_params(sf.normalize(raw))
        assert sf.NormalizedSeifertParams(5, "n1", 1, 0, 0) == (
            sf.NormalizedSeifertParams(b=1, epsilon=sf.Epsilon.N1, g=1, t=0,
                                       k=0))


def _record_instances():
    # one instance of each record type, built afresh on every call
    P = sf.NormalizedSeifertParams(0, sf.Epsilon.N1, 1, 0, 0)
    bound = sf.ComplexityBound(1, sf.CaseTag.RP2_X_S1, True, "RP2xS1")
    row = sf.ComparisonRow("RP2xS1", P, 1, bound, "sharp")
    return [
        bound,
        sf.boundary_profile(sf.parse_params("{0;(n,2,(1,1));(0|2);}")),
        sf.orbifold_summary(sf.parse_params("{0;(o1,0,(0,0));(|);((3,1))}")),
        sf.FibredSolidTorusType(5, 2),
        sf.CensusRecord("RP2xS1", P, 1, "normalized"),
        row,
        sf.ComparisonReport((row,), 1, (), 0, ("a note",)),
    ]


class TestRecordsAreValues:
    def test_fields_cannot_be_set(self):
        first_fields = ("value", "tori", "genus", "p", "name", "name", "rows")
        for record, field in zip(_record_instances(), first_fields):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)

    def test_equal_records_hash_alike(self):
        for left, right in zip(_record_instances(), _record_instances()):
            assert left is not right
            assert left == right and hash(left) == hash(right)

    def test_defaults(self):
        bound = sf.ComplexityBound(3, sf.CaseTag.BORDERED_GENERAL)
        assert bound.exact is False and bound.label is None

    def test_repr_is_pinned(self):
        assert repr(sf.ComplexityBound(1, sf.CaseTag.LENS_BPQ, False,
                                       "L(5,2)")) == (
            "ComplexityBound(value=1, case_tag=<CaseTag.LENS_BPQ: "
            "'Lens_bpq'>, exact=False, label='L(5,2)')")
        record = sf.ingest_census("RP2xS1\t{0;(n1,1,(0,0));(|);}\t1\tburton\n")
        assert repr(record[0]) == (
            "CensusRecord(name='RP2xS1', params=NormalizedSeifertParams("
            "b=0, epsilon=<Epsilon.N1: 'n1'>, g=1, t=0, k=0, hplus=(), "
            "kminus=(), pairs=()), complexity=1, convention='burton')")


class TestFibredSolidTorusType:
    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError, match=r"^\(p, r\) = \(4, 2\) must be coprime$"):
            sf.FibredSolidTorusType(4, 2)
        with pytest.raises(ValueError, match="^p must be positive, got 0$"):
            sf.FibredSolidTorusType(0, 1)

    def test_replace_checks_too(self):
        T = sf.FibredSolidTorusType(5, 2)
        assert T._replace(r=3) == sf.FibredSolidTorusType(5, 3)
        with pytest.raises(ValueError, match="must be coprime"):
            T._replace(p=4)
        with pytest.raises(ValueError, match="must be positive"):
            T._make((0, 1))

    def test_accepts_trivial(self):
        assert sf.FibredSolidTorusType(1, 0).p == 1

"""The small end of the closed non-orientable census against published
facts.

Each entry is graded by the orbifold Euler characteristic of its base,

    chi^orb = chi(base) - t - sum_j (1 - 1/p_j),

read off its fields with ``fractions.Fraction``: chi(base) is 2 - 2g on
an o, o1 or o2 base and 2 - g otherwise, each reflector circle takes 1
and each cone point 1 - 1/p.  The published facts below are quoted,
not checked here; the tests check only what the census lists against
them.

* Amendola and Martelli 2003 (Topology Appl. 133): no closed
  P^2-irreducible non-orientable manifold has complexity below 6.  The
  entries with chi^orb <= 0 are the candidates, so none may have a
  bound below 6.
* Wolf 1967 and Conway and Rossetti 2003 ("Describing the
  platycosms"): there are exactly four closed non-orientable flat
  manifolds, of complexity 6 by Amendola and Martelli.  Their Seifert
  fibrations are the entries with chi^orb = 0; the census lists twelve,
  each of bound 6.  That they fall into the four manifolds needs H1,
  which the library does not compute yet.
* Scott 1983 (Bull. London Math. Soc. 15), section 3: a closed Seifert
  space with chi^orb > 0 and no orientation is an S^2 x R manifold, and
  the closed non-orientable S^2 x R manifolds are RP^2 x S^1 and the
  twisted S^2 x S^1.  Their fibrations in the census have base RP^2 or
  a disc bounded by a reflector circle, each with at most one cone
  point: infinitely many fibrations of two manifolds, none of them
  P^2-irreducible.
"""
from fractions import Fraction

import pytest

import seifert as sf

BUDGET = 12


def chi_orb(P):
    base = 2 - 2 * P.g if P.epsilon.orientable_base else 2 - P.g
    return base - P.t - sum(1 - Fraction(1, p) for p, _ in P.pairs)


@pytest.fixture(scope="module")
def graded():
    """[(printed form, bound value, chi^orb)] of each entry, by budget."""
    return [[(sf.format_params(P), bound.value, chi_orb(P))
             for P, bound in sf.enumerate_nonorientable_closed(c)]
            for c in range(BUDGET + 1)]


# the twelve fibrations with chi^orb = 0, each of bound 6
FLAT = [
    "{0;(n1,1,(0,0));(|);((2,1),(2,1))}",
    "{0;(n1,1,(1,0));(|);}",
    "{0;(n1,2,(0,0));(|);}",
    "{0;(n2,1,(1,0));(|);}",
    "{0;(n3,2,(0,0));(|);}",
    "{0;(o,0,(2,2));(|);}",
    "{0;(o1,0,(1,0));(|);((2,1),(2,1))}",
    "{0;(o1,0,(2,0));(|);}",
    "{0;(o2,1,(0,0));(|);}",
    "{1;(n1,2,(0,0));(|);}",
    "{1;(n3,2,(0,0));(|);}",
    "{1;(o2,1,(0,0));(|);}",
]


def test_no_candidate_is_bounded_below_six(graded):
    for c, entries in enumerate(graded):
        assert all(value >= 6 for _, value, chi in entries if chi <= 0), c


def test_the_flat_fibrations_all_have_bound_six(graded):
    for c, entries in enumerate(graded):
        flat = [(text, value) for text, value, chi in entries if chi == 0]
        assert flat == ([(text, 6) for text in FLAT] if c >= 6 else []), c


def test_the_first_hyperbolic_base_is_at_seven(graded):
    # the first entries with chi^orb < 0, both of bound 7
    for c, entries in enumerate(graded[:7]):
        assert all(chi >= 0 for _, _, chi in entries), c
    assert [(text, value) for text, value, chi in graded[7] if chi < 0] == [
        ("{0;(n1,1,(0,0));(|);((2,1),(3,1))}", 7),
        ("{0;(o1,0,(1,0));(|);((2,1),(3,1))}", 7)]


def test_the_spherical_bases_are_two_families(graded):
    # chi^orb > 0 only on (n1, g 1, t 0) and on (o1, g 0, t 1, k 0),
    # with at most one pair: 1,025 and 513 entries at budget 12
    families = {(sf.Epsilon.N1, 1, 0, 0): 0, (sf.Epsilon.O1, 0, 1, 0): 0}
    for text, _, chi in graded[BUDGET]:
        if chi > 0:
            P = sf.parse_params(text)
            families[P.epsilon, P.g, P.t, P.k] += 1
            assert P.r <= 1, text
    assert list(families.values()) == [1025, 513]

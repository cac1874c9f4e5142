"""Complexity upper bounds for Seifert fibre spaces.

The bound counts true vertices of an almost simple spine assembled from
blocks: a main block over the trimmed base, one exceptional block per
closed exceptional surface, and one solid torus block per isolated
exceptional fibre carrying max{S(p,q) - 3, 0} vertices, where S(p,q) is
the continued fraction coefficient sum ``cf_sum``.

Bordered spaces get  t + sum_j max{S(p_j,q_j) - 3, 0},  with the finite
list of spaces known to have complexity exactly 0 recognized first.
Closed spaces dispatch on the normalized form: the chi = 2 fibrations
with at most one exceptional fibre are lens spaces with their classical
bound, two fibrations over the projective plane and the reflector-circle
fibration of the twisted 2-sphere bundle get special values, and the rest
use

    max{b - 1 + chi, 0} + 6(1 - chi) + sum_j (S(p_j,q_j) + 1)   (orientable)
    6(1 - chi) + 6t + sum_j (S(p_j,q_j) + 1)                    (non-orientable)

The non-orientable formula has one home, ``_closed_nonorientable_general``,
which takes the fibre-term sum; ``upper_bound`` and the census walk both
call it.
"""
from .core import (
    ORIENTABLE_AWAY_FROM_SE,
    CaseTag,
    ComplexityBound,
    Epsilon,
    SeifertParams,
    cf_sum,
    euler_char_base,
    is_closed,
    is_orientable,
)
from .normal_form import normalize

__all__ = [
    "upper_bound", "zero_complexity_corollary_check", "conjectured_complexity",
    "sharper_bound_note",
]

_REDUCIBLE_TAGS = frozenset((
    CaseTag.RP2_X_S1,
    CaseTag.S2_TWIST_S1,
    CaseTag.S2_TWIST_S1_REFLECTOR,
))

_ZERO_PAIRS = frozenset(((2, 1), (3, 1), (3, 2)))


# the bordered spaces of complexity 0 by canonical form, less the
# one-pair fibrations of the solid torus, which are infinitely many
_BORDERED_ZERO = {
    (0, Epsilon.N1, 1, 0, 0, (0,), (), ()): "N x S1",
    (0, Epsilon.O1, 0, 1, 0, (0,), (), ()): "N x S1",
    (0, Epsilon.O, 0, 1, 1, (), (0,), ()): "N x~ S1",
    (0, Epsilon.O1, 0, 0, 0, (0,), (), ()): "D2 x S1",
    (0, Epsilon.O1, 0, 0, 0, (1,), (), ()): "SK",
    (0, Epsilon.O1, 0, 0, 0, (1,), (), ((2, 1),)): "N x~ S1",
}


def _bordered_special(P: SeifertParams) -> str | None:
    """Name of P if it is one of the bordered spaces of complexity 0."""
    if P.r == 1 and P[:7] == (0, Epsilon.O1, 0, 0, 0, (0,), ()):
        return "D2 x S1"  # every one-pair fibration of the solid torus
    return _BORDERED_ZERO.get(P)


def _lens_label(p: int, q: int) -> str:
    """Canonical name of the lens space L(p, q).  L(p,q) and L(p,q') are
    homeomorphic iff q' = +-q^(+-1) mod p (Reidemeister 1935; Brody
    1960), so q is printed as the least of those residues (0 for p = 1)."""
    if p == 0:
        return "L(0,1)"
    inverse = pow(q, -1, p)
    return f"L({p},{min(q % p, -q % p, inverse, -inverse % p)})"


def upper_bound(params: SeifertParams) -> ComplexityBound:
    """Upper bound for the complexity, computed on the normalized form."""
    P = normalize(params)
    b, eps, _, t, _, hplus, kminus, pairs = P

    if hplus or kminus:
        label = _bordered_special(P)
        if label is not None:
            return ComplexityBound(0, CaseTag.BORDERED_SPECIAL_ZERO,
                                   exact=True, label=label)
        value = t + sum(max(cf_sum(p, q) - 3, 0) for p, q in pairs)
        return ComplexityBound(value, CaseTag.BORDERED_GENERAL)

    chi = euler_char_base(P)
    r = len(pairs)

    if chi == 2 and t == 0 and r == 0:
        return ComplexityBound(max(b - 3, 0), CaseTag.LENS_B1,
                               label=_lens_label(b, 1))
    if chi == 2 and t == 0 and r == 1:
        p, q = pairs[0]
        if b > 0:
            return ComplexityBound(max(b + cf_sum(p, q) - 3, 0),
                                   CaseTag.LENS_BPQ,
                                   label=_lens_label(b * p + q, p))
        return ComplexityBound(max(cf_sum(p, q) - 3 - p // q, 0),
                               CaseTag.LENS_QP, label=_lens_label(q, p))
    if chi == 1 and eps is Epsilon.N1 and t == 0 and r == 0:
        if b == 0:
            return ComplexityBound(1, CaseTag.RP2_X_S1, label="RP2 x S1")
        return ComplexityBound(0, CaseTag.S2_TWIST_S1, exact=True,
                               label="S2 x~ S1")
    if chi == 2 and t == 1 and r == 0:
        return ComplexityBound(0, CaseTag.S2_TWIST_S1_REFLECTOR, exact=True,
                               label="S2 x~ S1")

    fibre_terms = sum(cf_sum(p, q) + 1 for p, q in pairs)
    # closed, so orientable exactly when t = 0 and eps is o1 or n2
    if t == 0 and eps in ORIENTABLE_AWAY_FROM_SE:
        value = max(b - 1 + chi, 0) + 6 * (1 - chi) + fibre_terms
        return ComplexityBound(value, CaseTag.CLOSED_ORIENTABLE_GENERAL)
    return _closed_nonorientable_general(P, fibre_terms)


def _closed_nonorientable_general(P: SeifertParams,
                                  fibre_terms: int) -> ComplexityBound:
    """The general bound 6(1 - chi) + 6t + fibre_terms of a closed
    non-orientable P whose pairs give fibre_terms = sum_j (S(p_j,q_j) + 1)."""
    value = 6 * (1 - euler_char_base(P)) + 6 * P.t + fibre_terms
    return ComplexityBound(value, CaseTag.CLOSED_NONORIENTABLE_GENERAL)


def zero_complexity_corollary_check(params: SeifertParams) -> bool:
    """Whether a bordered space is covered by the zero-complexity
    criterion: no closed exceptional surface and every isolated fibre of
    type (2,1), (3,1) or (3,2).  When true, upper_bound returns 0."""
    P = normalize(params)
    if is_closed(P):
        raise ValueError("requires a space with non-empty boundary")
    return P.t == 0 and all(pq in _ZERO_PAIRS for pq in P.pairs)


def conjectured_complexity(params: SeifertParams) -> int | None:
    """The conjectured exact complexity of a closed non-orientable space.

    Equals the general non-orientable bound; the conjecture presumes the
    space irreducible and P^2-irreducible, so the recognized fibrations
    of RP2 x S1 and S2 x~ S1 are excluded (returns None).  Irreducibility
    itself is not checked.
    """
    P = normalize(params)
    if not is_closed(P):
        raise ValueError("requires a closed space")
    if is_orientable(P):
        raise ValueError("requires a non-orientable space")
    bound = upper_bound(P)
    if bound.case_tag in _REDUCIBLE_TAGS:
        return None
    return bound.value


def sharper_bound_note(params: SeifertParams) -> str | None:
    """Warn about the two closed orientable families whose general bound
    is known not to be sharp.  The bound itself is left unchanged."""
    P = normalize(params)
    if not (is_closed(P) and is_orientable(P)):
        return None
    if (P.b, P.epsilon, P.g, P.r) != (-1, Epsilon.O1, 0, 3):
        return None
    if P.pairs[0] != (2, 1):
        return None
    (p2, q2), (p3, q3) = P.pairs[1], P.pairs[2]
    if q2 == 1 and q3 == 1:
        return ("note: spaces {-1;(o1,0,(0,0));(|);((2,1),(n,1),(m,1))} admit "
                "a sharper estimate; the value shown may exceed the true "
                "complexity by one or two")
    if (p2, q2) == (3, 1) and q3 >= 2 and p3 > 5 * q3:
        return ("note: spaces {-1;(o1,0,(0,0));(|);((2,1),(3,1),(p,q))} with "
                "p/q > 5 admit a sharper estimate; the value shown may exceed "
                "the true complexity by one")
    return None

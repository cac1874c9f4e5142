"""Parameter sets of Seifert fibre spaces and their elementary invariants.

A Seifert fibre space is recorded in the bracket notation

    {b;(eps,g,(t,k));(h_1,...,h_{m+}|k_1,...,k_{m-});((p_1,q_1),...,(p_r,q_r))}

where

* ``b`` is the integer twist parameter (a regularly fibred filling of
  slope (1,b), absorbable whenever boundary or reflector data exists);
* ``eps`` encodes the orientability of the base surface together with the
  behaviour of the fibre orientation along its generators;
* ``g`` is the genus of the base surface;
* ``t`` counts the closed exceptional surfaces, ``k`` of which are Klein
  bottles (the remaining ``t - k`` are tori);
* ``h_i`` (resp. ``k_j``) counts the exceptional annuli attached along the
  i-th boundary component of the first kind (resp. j-th of the second
  kind, whose counterimage in the space is a Klein bottle);
* ``(p_j, q_j)`` are the isolated exceptional fibre types.

Raw parameter sets may carry (1,q) pairs, out-of-range q_j and arbitrary
b; the ``normal_form`` module reduces them to the unique canonical form.
Everything in this module is a direct read of the parameter set.

Every record here is a ``collections.namedtuple`` subclass with
``__slots__ = ()``: immutable, equal and hashed by value, with
``_asdict()`` giving the fields in declared order and ``_replace()`` a
changed copy, which for a parameter set is always a plain, raw
``SeifertParams``.
"""
from collections import namedtuple
from enum import Enum
from math import gcd
from operator import attrgetter

__all__ = [
    "Epsilon", "ORIENTABLE_AWAY_FROM_SE", "SeifertParams",
    "NormalizedSeifertParams", "FibredSolidTorusType", "BoundaryProfile",
    "OrbifoldSummary", "CaseTag", "ComplexityBound", "cf_sum", "validate",
    "euler_char_base", "is_orientable", "is_closed", "boundary_profile",
    "orbifold_summary",
]


class Epsilon(str, Enum):
    """Bundle-type symbol of the space away from its exceptional surfaces.

    Each member is its row of the paper's table: the word, the least
    genus of the base surface (``min_genus``) and whether the base is
    orientable (``orientable_base``).  The undecorated ``o`` and ``n``
    are used exactly when some boundary curve of the base reverses the
    fibre orientation, i.e. when k + m- > 0.
    """

    O = "o", 0, True
    O1 = "o1", 0, True
    O2 = "o2", 1, True
    N = "n", 1, False
    N1 = "n1", 1, False
    N2 = "n2", 1, False
    N3 = "n3", 2, False
    N4 = "n4", 3, False

    def __new__(cls, word: str, min_genus: int, orientable_base: bool):
        member = str.__new__(cls, word)
        member._value_ = word
        member._min_genus, member._orientable_base = min_genus, orientable_base
        return member

    min_genus = property(attrgetter("_min_genus"))
    orientable_base = property(attrgetter("_orientable_base"))


# the symbols used exactly when k + m- > 0
_UNDECORATED = frozenset((Epsilon.O, Epsilon.N))

# For these symbols the space minus its exceptional surfaces is
# orientable: no fibre-reversing curve is available short of a global
# orientation reversal.
ORIENTABLE_AWAY_FROM_SE = frozenset((Epsilon.O1, Epsilon.N2))


class SeifertParams(namedtuple("SeifertParams",
                                "b epsilon g t k hplus kminus pairs")):
    """A raw parameter set; not necessarily in canonical form.

    An immutable named tuple of the eight fields, so equality and
    hashing are by value: a ``NormalizedSeifertParams`` equals, and
    hashes like, the plain set with the same fields.  ``epsilon`` is
    stored as its ``Epsilon`` member, also when it is given as its word
    ("n1"); a word outside the eight raises ``ValueError``.  ``hplus``,
    ``kminus``, ``pairs`` and each pair are stored as tuples whatever
    sequences they are given as.  m+, m- and r are the lengths of
    ``hplus``, ``kminus`` and ``pairs`` and are never stored separately.

    ``notation.parse_params`` and ``normal_form.normalize`` skip this
    coercion, as they run once per row of a census table: they build
    through ``tuple.__new__`` from fields that they have just made as
    tuples of ints and of (p, q) tuples, so their fields are exact
    tuples anyway.

    ``_make``, and so ``_replace``, builds through this constructor and
    returns a plain ``SeifertParams`` even from a
    ``NormalizedSeifertParams``: a changed copy is raw.
    """

    __slots__ = ()

    def __new__(cls, b: int, epsilon: Epsilon, g: int, t: int, k: int,
                hplus: tuple[int, ...] = (), kminus: tuple[int, ...] = (),
                pairs: tuple[tuple[int, int], ...] = ()):
        if type(epsilon) is not Epsilon:
            epsilon = Epsilon(epsilon)
        return tuple.__new__(cls, (b, epsilon, g, t, k, tuple(hplus),
                                   tuple(kminus), tuple(map(tuple, pairs))))

    @classmethod
    def _make(cls, iterable):
        fields = tuple(iterable)
        # all eight, as the stock _make requires: the constructor alone
        # would fill a short list from its defaults
        if len(fields) != 8:
            raise TypeError(f"Expected 8 arguments, got {len(fields)}")
        return SeifertParams(*fields)

    @property
    def m_plus(self) -> int:
        return len(self.hplus)

    @property
    def m_minus(self) -> int:
        return len(self.kminus)

    @property
    def r(self) -> int:
        return len(self.pairs)


class NormalizedSeifertParams(SeifertParams):
    """A parameter set in canonical form; the type is the proof.

    The constructor takes the fields of any valid set and returns
    ``normal_form.normalize`` of it: a canonical set comes back with the
    same fields, a raw one comes back canonical, and an invalid one
    raises ``ValueError``.  ``normalize`` returns one of these unchanged.
    ``normalize`` and the census walk skip the constructor and build
    through ``tuple.__new__``; the census walk builds each entry directly
    from the canonical-form rules of closed non-orientable shapes, and
    the tests check every census entry P with ``normalize(plain(P)) ==
    P``.  The moves, ``_replace`` and ``_make`` all return a plain
    ``SeifertParams``.  Equality and hashing ignore the class.
    """

    __slots__ = ()

    def __new__(cls, *fields, **named):
        # normal_form imports this module, so it is imported here
        from .normal_form import normalize

        return normalize(SeifertParams(*fields, **named))


class FibredSolidTorusType(namedtuple("FibredSolidTorusType", "p r")):
    """Type (p, r) of a fibred solid torus: D x I glued by a 2*pi*r/p turn.

    ``_make``, and so ``_replace``, goes through the same checks."""

    __slots__ = ()

    def __new__(cls, p: int, r: int):
        if p <= 0:
            raise ValueError(f"p must be positive, got {p}")
        if gcd(p, r) != 1:
            raise ValueError(f"(p, r) = ({p}, {r}) must be coprime")
        return tuple.__new__(cls, (p, r))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class BoundaryProfile(namedtuple(
        "BoundaryProfile",
        "tori klein_regular klein_with_exceptional exceptional_annuli")):
    """Census of the boundary components of the fibred space.

    ``exceptional_annuli`` is the paper's t'."""

    __slots__ = ()


class OrbifoldSummary(namedtuple(
        "OrbifoldSummary",
        "genus orientable_base cone_points reflector_circles reflector_arcs "
        "underlying_boundary_components minus_decorations")):
    """The base orbifold: underlying surface plus its singular locus.

    ``cone_points`` is a tuple of (p, q) pairs."""

    __slots__ = ()


class CaseTag(str, Enum):
    """Which formula or recognition rule produced a complexity bound."""

    BORDERED_SPECIAL_ZERO = "BorderedSpecialZero"
    BORDERED_GENERAL = "BorderedGeneral"
    LENS_B1 = "Lens_b1"
    LENS_BPQ = "Lens_bpq"
    LENS_QP = "Lens_qp"
    RP2_X_S1 = "RP2xS1"
    S2_TWIST_S1 = "S2twistS1"
    S2_TWIST_S1_REFLECTOR = "S2twistS1_reflector"
    CLOSED_ORIENTABLE_GENERAL = "ClosedOrientableGeneral"
    CLOSED_NONORIENTABLE_GENERAL = "ClosedNonorientableGeneral"


class ComplexityBound(namedtuple("ComplexityBound",
                                 "value case_tag exact label",
                                 defaults=(False, None))):
    """An upper bound for the complexity (true vertices of a minimal
    almost simple spine).  ``exact`` is set only where equality is
    guaranteed, never merely because a general formula evaluated to 0.
    ``label`` names the manifold when it is recognized, else None."""

    __slots__ = ()


def cf_sum(p: int, q: int) -> int:
    """Sum of the continued fraction coefficients of p/q.

    Uses the canonical expansion with last coefficient >= 2, whose
    coefficients are exactly the quotients of the Euclidean algorithm on
    (p, q); in particular cf_sum(p, 1) = p.  Requires 0 < q < p coprime,
    or q = 1 <= p.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got q = {q}")
    if q > p or (q == p and p > 1):
        raise ValueError(f"need 0 < q < p or q = 1, got (p, q) = ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"(p, q) = ({p}, {q}) must be coprime")
    total = 0
    while q:
        total += p // q
        p, q = q, p % q
    return total


def validate(params: SeifertParams) -> list[str]:
    """All structural constraints violated by a raw parameter set.

    Returns the complete list (no fail-fast), empty when the set is
    admissible.  Out-of-range q_j and unreduced b are not violations:
    normalization takes care of them.
    """
    _, eps, g, t, k, hplus, kminus, pairs = params
    violations = [f"{name} must be non-negative"
                  for name, value in (("g", g), ("t", t), ("k", k))
                  if value < 0]
    if hplus and min(hplus) < 0:
        violations.append("entries of the h-list must be non-negative")
    if kminus and min(kminus) < 0:
        violations.append("entries of the k-list must be non-negative")
    for p, q in pairs:
        if p <= 0:
            violations.append(f"pair ({p},{q}): p must be positive")
        elif gcd(p, q) != 1:
            violations.append(f"pair ({p},{q}) is not coprime")
    if k > t:
        violations.append(f"k = {k} exceeds t = {t}")
    minus = k + len(kminus)
    if minus % 2 != 0:
        violations.append("k + m- is odd")
    if (eps in _UNDECORATED) != (minus > 0):
        violations.append("epsilon is o or n exactly when k + m- > 0")
    min_genus = eps.min_genus
    if 0 <= g < min_genus:
        violations.append(f"{eps._value_} requires g >= {min_genus}")
    return violations


def euler_char_base(params: SeifertParams) -> int:
    """Euler characteristic of the capped-off base surface."""
    if params.epsilon.orientable_base:
        return 2 - 2 * params.g
    return 2 - params.g


def is_orientable(params: SeifertParams) -> bool:
    """The total space is orientable iff it has no exceptional surface at
    all (t = m- = 0 and every h_i = 0) and eps is o1 or n2."""
    return (params.t == 0 and params.m_minus == 0
            and all(h == 0 for h in params.hplus)
            and params.epsilon in ORIENTABLE_AWAY_FROM_SE)


def is_closed(params: SeifertParams) -> bool:
    return params.m_plus == 0 and params.m_minus == 0


def boundary_profile(params: SeifertParams) -> BoundaryProfile:
    """Count the boundary components by type.

    A boundary entry h_i = 0 (resp. k_j = 0) leaves a torus (resp. a
    regularly fibred Klein bottle); a positive entry splits its component
    into that many Klein bottles, each containing two exceptional fibres
    of one exceptional annulus.
    """
    annuli = sum(params.hplus) + sum(params.kminus)
    return BoundaryProfile(
        tori=sum(1 for h in params.hplus if h == 0),
        klein_regular=sum(1 for kj in params.kminus if kj == 0),
        klein_with_exceptional=annuli,
        exceptional_annuli=annuli,
    )


def orbifold_summary(params: SeifertParams) -> OrbifoldSummary:
    """Describe the base orbifold of the fibred space."""
    annuli = sum(params.hplus) + sum(params.kminus)
    # (1, q) pairs are regular fillings and contribute no cone point.
    cone_points = tuple(pq for pq in params.pairs if pq[0] > 1)
    return OrbifoldSummary(
        genus=params.g,
        orientable_base=params.epsilon.orientable_base,
        cone_points=cone_points,
        reflector_circles=params.t,
        reflector_arcs=annuli,
        underlying_boundary_components=params.m_plus + params.m_minus + params.t,
        minus_decorations=params.k + params.m_minus,
    )

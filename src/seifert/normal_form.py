"""Reduction moves and the canonical form of a parameter set.

Two parameter sets describe fibre-preserving homeomorphic spaces exactly
when they are connected by the moves below:

* ``twist``: slide n fibre twists onto a pair, (p,q) -> (p, q - n*p) with
  b -> b + n.  Absorbing a (1,c) pair is the special case that adds c to b.
* ``reflect_pair``: reverse the fibre orientation around one filling
  curve, (p,q) -> (p, p-q) with b -> b + 1.  Needs a fibre-reversing loop
  in the base, so it is unavailable for eps in {o1, n2}.
* ``mirror``: reverse the orientation of the space (closed orientable
  case: b -> -b-r and every q -> p-q) or of its complement off the
  exceptional surfaces (all other eps in {o1, n2} cases: every q -> p-q,
  the leftover b shift being absorbable).

``normalize`` reduces any valid raw set to the unique representative of
its move class; ``equivalent`` compares two sets through it.  The class
holds ``mirror`` images, so the canonical form forgets orientation: for
eps in {o1, n2}, ``normalize(mirror(P)) == normalize(P)``.
"""
from .core import (
    ORIENTABLE_AWAY_FROM_SE,
    FibredSolidTorusType,
    NormalizedSeifertParams,
    SeifertParams,
    is_closed,
    is_orientable,
    validate,
)

__all__ = [
    "twist", "reflect_pair", "absorb_unit_pairs", "insert_unit_pair", "mirror",
    "normalize", "equivalent", "solid_torus_equivalent",
]


def twist(params: SeifertParams, j: int, n: int) -> SeifertParams:
    """Replace pair j (1-based) by (p_j, q_j - n*p_j) and b by b + n."""
    if not 1 <= j <= params.r:
        raise IndexError(f"pair index {j} out of range 1..{params.r}")
    p, q = params.pairs[j - 1]
    pairs = params.pairs[:j - 1] + ((p, q - n * p),) + params.pairs[j:]
    return params._replace(b=params.b + n, pairs=pairs)


def reflect_pair(params: SeifertParams, j: int) -> SeifertParams:
    """Replace pair j (1-based) by (p_j, p_j - q_j) and b by b + 1."""
    if params.epsilon in ORIENTABLE_AWAY_FROM_SE:
        raise ValueError(
            f"no fibre-reversing curve for eps = {params.epsilon.value}; "
            "pairs can only be reflected through a global mirror")
    if not 1 <= j <= params.r:
        raise IndexError(f"pair index {j} out of range 1..{params.r}")
    p, q = params.pairs[j - 1]
    pairs = params.pairs[:j - 1] + ((p, p - q),) + params.pairs[j:]
    return params._replace(b=params.b + 1, pairs=pairs)


def absorb_unit_pairs(params: SeifertParams) -> SeifertParams:
    """Trade every (1, q) pair for q extra twists on b."""
    extra = sum(q for p, q in params.pairs if p == 1)
    pairs = tuple(pq for pq in params.pairs if pq[0] != 1)
    return params._replace(b=params.b + extra, pairs=pairs)


def insert_unit_pair(params: SeifertParams, q: int) -> SeifertParams:
    """Split q twists off b into an explicit (1, q) pair."""
    return params._replace(b=params.b - q, pairs=params.pairs + ((1, q),))


def mirror(params: SeifertParams) -> SeifertParams:
    """Orientation reversal, defined for eps in {o1, n2}.

    For a closed orientable space this is b -> -b - r together with
    q_j -> p_j - q_j.  Otherwise (boundary present, or closed with
    reflector circles) only the pairs flip: the b shift produced by the
    reversal is absorbable there, so keeping b gives an equivalent set.
    """
    if params.epsilon not in ORIENTABLE_AWAY_FROM_SE:
        raise ValueError(
            f"mirror needs eps in {{o1, n2}}, got {params.epsilon.value}")
    flipped = tuple((p, p - q) for p, q in params.pairs)
    if is_closed(params) and is_orientable(params):
        return params._replace(b=-params.b - params.r, pairs=flipped)
    return params._replace(pairs=flipped)


def _mirror_min(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Lexicographically smaller of a sorted pair list and its mirror.

    Picking the smaller list realizes the leading-pair condition
    0 < q_l < p_l/2 (l the first index with p_l > 2) whenever that
    condition distinguishes the two lists, and breaks the tie
    deterministically when it does not (several pairs sharing the
    smallest p > 2 can leave both lists in range).
    """
    flipped = sorted((p, p - q) for p, q in pairs)
    return min(pairs, flipped)


def normalize(params: SeifertParams) -> NormalizedSeifertParams:
    """Reduce a valid parameter set to its unique canonical form.

    Steps (1)-(3) run on each pair in turn, in one pass over the pairs:
    (1) twist q_j into 0 <= q_j < p_j; (2) for eps outside {o1, n2}
    reflect the pair down to q_j <= p_j/2; (3) keep it only if p_j > 1,
    since a (1, q) pair has twisted wholly into b.  Then (4) reduce b:
    b = 0 whenever t + m+ + m- > 0, b mod 2 for eps in {o2, n1, n3, n4}
    (and b = 0 if a p_j = 2 then allows one more reflection), and for
    eps in {o1, n2} mirror until b >= -r/2 in the closed orientable case
    or until the pair list is the canonical one of the two mirror images
    otherwise; (5) sort the boundary lists and the pairs.

    The result is a fixed point of normalize and is constant on move
    classes: composing the input with any finite word of twist,
    reflect_pair, mirror and (1, q) absorption/insertion moves does not
    change the output.

    A ``NormalizedSeifertParams`` is canonical by construction and is
    returned unchanged.  The result is built through ``tuple.__new__``,
    skipping the constructor's coercion: its boundary lists and pairs
    are tuples made here, and the rest are the input's own fields.
    """
    if isinstance(params, NormalizedSeifertParams):
        return params
    problems = validate(params)
    if problems:
        raise ValueError("invalid parameters: " + "; ".join(problems))

    b, eps, g, t, k, hplus, kminus, raw_pairs = params
    mirror_only = eps in ORIENTABLE_AWAY_FROM_SE
    pairs = []
    for p, q in raw_pairs:
        b += q // p
        q %= p
        if 2 * q > p and not mirror_only:
            q = p - q
            b += 1
        if p > 1:
            pairs.append((p, q))
    pairs.sort()

    r = len(pairs)
    if t or hplus or kminus:
        b = 0
        if mirror_only:
            pairs = _mirror_min(pairs)
    elif not mirror_only:
        b %= 2
        if b == 1 and any(p == 2 for p, _ in pairs):
            b = 0
    else:
        # Closed orientable: the mirror sends b to -b - r, so exactly one
        # of b > -r/2 and -b - r > -r/2 holds unless 2b = -r.
        if 2 * b < -r:
            b = -b - r
            pairs = sorted((p, p - q) for p, q in pairs)
        elif 2 * b == -r:
            pairs = _mirror_min(pairs)

    return tuple.__new__(NormalizedSeifertParams, (
        b, eps, g, t, k, tuple(sorted(hplus)), tuple(sorted(kminus)),
        tuple(pairs)))


def equivalent(a: SeifertParams, b: SeifertParams) -> bool:
    """Whether two valid sets describe fibre-preserving homeomorphic
    spaces.  Distinct fibrations of one underlying manifold compare as
    not equivalent."""
    return normalize(a) == normalize(b)


def solid_torus_equivalent(a: FibredSolidTorusType,
                           b: FibredSolidTorusType) -> bool:
    """Fibre-preserving homeomorphism of fibred solid tori: equal p and
    r congruent to +-r' mod p."""
    if a.p != b.p:
        return False
    return (a.r - b.r) % a.p == 0 or (a.r + b.r) % a.p == 0

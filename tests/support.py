"""Shared generators and independent oracles for the test suite."""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd
from random import Random

import seifert as sf

EPSILONS = list(sf.Epsilon)


def cf_coefficients(p: int, q: int) -> list[int]:
    """Continued fraction of p/q by floor-and-reciprocal on exact
    rationals; independent of the library's Euclidean loop."""
    x = Fraction(p, q)
    coeffs = []
    while True:
        a = x.numerator // x.denominator
        coeffs.append(a)
        rest = x - a
        if rest == 0:
            return coeffs
        x = 1 / rest


def int_digit_limit() -> int:
    """The interpreter's cap on the digits int() reads from a string; 0
    when there is none (before Python 3.11, or switched off)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def random_pair(rng: Random, p_max: int = 12) -> tuple[int, int]:
    p = rng.randrange(1, p_max + 1)
    q0 = rng.choice([q for q in range(1, p + 1) if gcd(p, q) == 1])
    return (p, q0 + p * rng.randrange(-3, 4))


def random_valid(rng: Random) -> sf.SeifertParams:
    """A random valid raw parameter set (unreduced b and q ranges)."""
    eps = rng.choice(EPSILONS)
    g = eps.min_genus + rng.randrange(4)
    if eps in (sf.Epsilon.O, sf.Epsilon.N):
        k = rng.randrange(3)
        m_minus = rng.choice(
            [v for v in range(4) if (v + k) % 2 == 0 and v + k > 0])
        t = k + rng.randrange(3)
    else:
        k, m_minus = 0, 0
        t = rng.randrange(3)
    hplus = tuple(rng.randrange(3) for _ in range(rng.randrange(3)))
    kminus = tuple(rng.randrange(3) for _ in range(m_minus))
    pairs = tuple(random_pair(rng) for _ in range(rng.randrange(4)))
    b = rng.randrange(-5, 6)
    params = sf.SeifertParams(b, eps, g, t, k, hplus, kminus, pairs)
    assert not sf.validate(params)
    return params


# characters the parser skips between tokens: str.isspace() is true for
# each, the ones beyond ASCII included
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1f\x85\u00a0\u2028\u3000"

# one token of a spelling: an integer, an eps word or one character
SPELLING_TOKEN = re.compile(r"-?[0-9]+|[on][0-9]*|.", re.DOTALL)

# characters a mutation inserts: the grammar's own, a sign, whitespace,
# digits of other scripts (full-width, Arabic-Indic) and "_"
MUTATION_CHARS = "{}();,|-+0123456789on5 \u00a0\uff11\u0663_"

# spellings at the edges of the grammar: -0 and leading zeros are read,
# the others refused
ODD_SPELLINGS = [
    "{-0;(n1,1,(0,0));(|);((3,-0))}", "{007;(n1,01,(0,0));(00|);}",
    "", "()", "( , |)", "{}", "{0;(n1,1,(0,0));(|);}}",
    "{--1;(n1,1,(0,0));(|);}", "{+1;(n1,1,(0,0));(|);}",
    "{- 1;(n1,1,(0,0));(|);}", "{0;(n1,1,(0,0));(|);((3,--1))}",
    "{0;(o12,0,(0,0));(|);}", "{0;(n5,1,(0,0));(|);}",
    "{0;(,1,(0,0));(|);}", "{0;(n 1,1,(0,0));(|);}",
    "{0;(N1,1,(0,0));(|);}", "{0;(n1,-1,(0,0));(|);}",
    "{\uff11;(n1,1,(0,0));(|);}", "{0;(n1,\uff11,(0,0));(|);}",
    "{\u0663;(n1,1,(0,0));(|);}", "{0;(n1,1,(0,0));(|\u0663);}",
    "{0;(n1,1,(0,0));(|);((\u0663,1))}", "{1_0;(n1,1,(0,0));(|);}",
    "{0;(n1,1,(0,0));(|);()}", "{0;(n1,1,(0,0));(1,|);}",
    "{0;(n1,1,(0,0));(|);((3,1),)}", "{0;(n1,1,(0,0));(|);(3,1)}",
    "{0;(n1,1,(0,0));(|)}", "{0;(n1,1,(0,0));(|);",
]


def respaced(rng: Random, text: str) -> str:
    """text with a random run of whitespace, often empty, before each
    token and at the end."""
    def run() -> str:
        return "".join(rng.choices(WHITESPACE, k=rng.choice((0, 0, 1, 2))))
    return "".join(run() + token
                   for token in SPELLING_TOKEN.findall(text)) + run()


def mutated(rng: Random, text: str) -> str:
    """text with one character dropped, inserted or replaced."""
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + text[i + 1:]
    char = rng.choice(MUTATION_CHARS)
    return text[:i] + char + text[i + (kind == 2):]


def with_epsilon(text: str, word: str) -> str:
    """text with its eps word replaced by word."""
    return re.sub(r"\((?:o|n)[0-9]*,", f"({word},", text, count=1)


def near_digit_cap() -> list[str]:
    """Valid and invalid spellings around the parser's digit cap, half of
    int_digit_limit(): text just within and just beyond that length, and
    integers with just within and just beyond that many digits in all."""
    cap = int_digit_limit() // 2
    if not cap:
        return []
    template = "{%s;(n1,1,(0,0));(|);}"
    fill = cap - len(template % "")
    spellings = [template % ("9" * n) for n in (fill, fill + 1)]
    spellings += [template % ("9" * n) for n in (cap - 3, cap - 2)]
    spellings.append(" " * cap + template % "0")
    spellings.append(template.replace("}", "((3,%s))}")
                     % ("1", "-" + "7" * (cap - 5)))
    spellings.append(template.replace("}", "((3,%s))}")
                     % ("1", "-" + "7" * (cap - 4)))
    return spellings


def parse_outcome(parse, text: str) -> tuple:
    """What parse makes of text: the class and value it returns, or the
    message and offset of the ParseError it raises."""
    try:
        value = parse(text)
    except sf.ParseError as exc:
        return "error", str(exc), exc.pos
    return "value", type(value), value


def plain(P: sf.SeifertParams) -> sf.SeifertParams:
    """A plain SeifertParams with the fields of P.  normalize returns a
    NormalizedSeifertParams as is, so idempotence checks go through this
    to run the reduction itself."""
    return sf.SeifertParams(P.b, P.epsilon, P.g, P.t, P.k,
                            P.hplus, P.kminus, P.pairs)


def random_move_word(rng: Random, params: sf.SeifertParams,
                     length: int) -> sf.SeifertParams:
    """Apply a random word of equivalence moves."""
    cur = params
    for _ in range(length):
        options = ["insert"]
        if cur.pairs:
            options.append("twist")
        if cur.epsilon in sf.ORIENTABLE_AWAY_FROM_SE:
            options.append("mirror")
        elif cur.pairs:
            options.append("reflect")
        if any(p == 1 for p, _ in cur.pairs):
            options.append("absorb")
        op = rng.choice(options)
        if op == "insert":
            cur = sf.insert_unit_pair(cur, rng.randrange(-3, 4))
        elif op == "twist":
            cur = sf.twist(cur, rng.randrange(1, cur.r + 1),
                           rng.randrange(-5, 6))
        elif op == "mirror":
            cur = sf.mirror(cur)
        elif op == "reflect":
            cur = sf.reflect_pair(cur, rng.randrange(1, cur.r + 1))
        else:
            cur = sf.absorb_unit_pairs(cur)
    return cur


def normal_form_violations(P: sf.SeifertParams) -> list[str]:
    """Check every canonical-form invariant directly (not through the
    normalizer): admissibility, sorting, pair ranges, b ranges and the
    leading-pair conditions."""
    v = list(sf.validate(P))
    if list(P.hplus) != sorted(P.hplus):
        v.append("hplus not sorted")
    if list(P.kminus) != sorted(P.kminus):
        v.append("kminus not sorted")
    if list(P.pairs) != sorted(P.pairs):
        v.append("pairs not sorted")
    mirror_only = P.epsilon in sf.ORIENTABLE_AWAY_FROM_SE
    for p, q in P.pairs:
        if p < 2:
            v.append(f"pair ({p},{q}): p < 2")
        elif mirror_only:
            if not 0 < q < p:
                v.append(f"pair ({p},{q}): q outside (0,p)")
        elif not 0 < 2 * q <= p:
            v.append(f"pair ({p},{q}): q outside (0,p/2]")
    if P.t + P.m_plus + P.m_minus > 0:
        if P.b != 0:
            v.append("b != 0 with boundary or reflector data")
    elif not mirror_only:
        if P.b not in (0, 1):
            v.append("b outside {0,1}")
        elif P.b == 1 and any(p == 2 for p, _ in P.pairs):
            v.append("b = 1 with a p = 2 pair")
    if mirror_only:
        lead = next((pq for pq in P.pairs if pq[0] > 2), None)
        if sf.is_closed(P) and sf.is_orientable(P):
            if 2 * P.b < -P.r:
                v.append("b < -r/2")
            elif (2 * P.b == -P.r and lead is not None
                    and 2 * lead[1] > lead[0]):
                v.append("q_l > p_l/2 at b = -r/2")
        elif lead is not None and 2 * lead[1] > lead[0]:
            v.append("q_l > p_l/2")
    return v


def seifert_invariants(P: sf.SeifertParams) -> tuple:
    """The classical Seifert invariants of an o1 or n2 set (Seifert 1933,
    Acta Math. 60; Orlik 1972, Seifert Manifolds), read off its fields
    with exact fractions and no library move.

    A closed set with t = 0 has the Euler number e = -(b + sum q_j/p_j)
    and the multiset of q_j/p_j mod 1 over the pairs with p_j > 1.  With
    reflector circles (t > 0) or boundary, b is absorbed, and the
    multiset alone is kept, with the other fields.  Both are taken up to
    one global sign, which is the mirror image.  For these eps two sets
    describe fibre-preserving homeomorphic spaces exactly when their
    invariants are equal."""
    b, eps, g, t, k, hplus, kminus, pairs = P
    if eps.value not in ("o1", "n2"):
        raise ValueError(f"no classical invariants for eps = {eps.value}")
    closed = not (t or hplus or kminus)
    e = -(b + sum(Fraction(q, p) for p, q in pairs)) if closed else 0
    slopes = [Fraction(q, p) % 1 for p, q in pairs if p > 1]
    e, slopes = min((sign * e, sorted(sign * x % 1 for x in slopes))
                    for sign in (1, -1))
    return (eps, g, t, k, tuple(sorted(hplus)), tuple(sorted(kminus)),
            e, tuple(slopes))


# The bordered spaces of complexity 0, by canonical spelling: the two
# fibrations each of N x S1 and N x~ S1, the solid torus D2 x S1 and the
# solid Klein bottle.  Every one-pair fibration of the solid torus is the
# solid torus too; it is the spelling SOLID_TORUS_PAIRS + "(p,q))}".
BORDERED_ZERO = (
    "{0;(n1,1,(0,0));(0|);}", "{0;(o1,0,(1,0));(0|);}",
    "{0;(o1,0,(0,0));(1|);((2,1))}", "{0;(o,0,(1,1));(|0);}",
    "{0;(o1,0,(0,0));(0|);}", "{0;(o1,0,(0,0));(1|);}",
)
SOLID_TORUS_PAIRS = "{0;(o1,0,(0,0));(0|);("


def cf_total(p: int, q: int) -> int:
    """S(p, q), the sum of the continued fraction coefficients of p/q."""
    return sum(cf_coefficients(p, q))


def reference_bound(P: sf.SeifertParams) -> tuple[int, str]:
    """Value and case tag of the bound of a canonical P, read off its raw
    fields by the formulas of the ``complexity`` module docstring:

        t + sum_j max{S(p_j,q_j) - 3, 0}                       (bordered)
        max{b - 1 + chi, 0} + 6(1 - chi) + sum_j (S(p_j,q_j) + 1)
                                                   (closed orientable)
        6(1 - chi) + 6t + sum_j (S(p_j,q_j) + 1)   (closed non-orientable)

    after the recognized spaces: the bordered spaces of complexity 0;
    the lens spaces, {b;(o1,0,(0,0));(|);} = L(b, 1) and
    {b;(o1,0,(0,0));(|);((p,q))} = L(bp + q, p), with their classical
    bound max{S(n, m) - 3, 0} for L(n, m), m taken mod n (0 for the
    sphere L(1, 0)); the two fibrations over the projective plane; and
    the reflector-circle fibration over the disk.  It calls none of
    ``upper_bound``, ``euler_char_base``, ``is_closed`` and
    ``is_orientable``."""
    b, eps, g, t, _, hplus, kminus, pairs = P
    word, r = eps.value, len(pairs)
    if hplus or kminus:
        text = sf.format_params(P)
        if text in BORDERED_ZERO or (
                r == 1 and text.startswith(SOLID_TORUS_PAIRS)):
            return 0, "BorderedSpecialZero"
        return (t + sum(max(cf_total(p, q) - 3, 0) for p, q in pairs),
                "BorderedGeneral")
    chi = 2 - 2 * g if word.startswith("o") else 2 - g
    orientable = t == 0 and word in ("o1", "n2")
    if orientable and chi == 2 and r <= 1:
        p, q = pairs[0] if pairs else (1, 0)
        n = b * p + q
        m = p % n if n else 1  # L(0, 1) is S2 x S1
        value = max(cf_total(n, m) - 3, 0) if m else 0
        return value, ("Lens_b1" if not pairs else
                       "Lens_bpq" if b > 0 else "Lens_qp")
    if chi == 1 and word == "n1" and t == 0 and r == 0:
        return (1, "RP2xS1") if b == 0 else (0, "S2twistS1")
    if chi == 2 and t == 1 and r == 0:
        return 0, "S2twistS1_reflector"
    fibres = sum(cf_total(p, q) + 1 for p, q in pairs)
    if orientable:
        return (max(b - 1 + chi, 0) + 6 * (1 - chi) + fibres,
                "ClosedOrientableGeneral")
    return 6 * (1 - chi) + 6 * t + fibres, "ClosedNonorientableGeneral"


def census_brute_force(c_max: int) -> dict:
    """Raw-grid sweep: enumerate generous raw parameter grids, normalize,
    deduplicate, and keep the closed non-orientable forms whose bound
    fits.  Only feasible for small budgets."""
    p_cap = 2 ** (c_max + 2)
    pool = [(p, q) for p in range(2, p_cap + 1)
            for q in range(1, p) if gcd(p, q) == 1]
    # Each exceptional fibre costs at least 3 in every closed formula.
    r_max = max(1, c_max // 3)
    pair_sets = [ms for size in range(r_max + 1)
                 for ms in combinations_with_replacement(pool, size)]

    seen: dict = {}
    for eps in EPSILONS:
        for g in range(0, c_max + 3):
            # t up to c_max + 1: the reflector-circle fibration over the
            # disk has bound 0 with t = 1 regardless of c_max.
            for t in range(0, c_max + 2):
                for k in range(0, t + 1):
                    shape = sf.SeifertParams(0, eps, g, t, k)
                    if sf.validate(shape) or sf.is_orientable(shape):
                        continue
                    for b in range(-2, 3):
                        for pairs in pair_sets:
                            cand = sf.SeifertParams(b, eps, g, t, k,
                                                    (), (), pairs)
                            P = sf.normalize(cand)
                            if P in seen:
                                continue
                            seen[P] = sf.upper_bound(P)
    return {P: bd for P, bd in seen.items() if bd.value <= c_max}


def census_by_normalizing(c_max: int) -> dict:
    """The census the slow way: every multiset of the full pair pool on
    every admissible closed non-orientable shape, with b = 0 and b = 1,
    normalized, with the duplicates folded in a dict, keeping the forms
    whose bound fits.  It builds in none of the canonical-form rules the
    enumerator walks by, nor the enumerator's multiset walk."""
    # 6(1 - chi) + 6t >= 0 on these shapes, so a pair costs at most c_max
    pool = sorted((sum(cf_coefficients(p, q)) + 1, (p, q))
                  for p, q in sf.enumerate_pairs_by_budget(c_max - 1))
    found: dict = {}
    for eps in EPSILONS:
        for g in range(eps.min_genus, c_max + 3):
            chi = sf.euler_char_base(sf.SeifertParams(0, eps, g, 0, 0))
            for t in range(c_max + 2):
                fixed = 6 * (1 - chi) + 6 * t
                if fixed > c_max:
                    continue
                for k in range(t + 1):
                    shape = sf.SeifertParams(0, eps, g, t, k)
                    if sf.validate(shape) or sf.is_orientable(shape):
                        continue
                    for pairs in _multisets_within(pool, c_max - fixed):
                        for b in (0, 1):
                            P = sf.normalize(sf.SeifertParams(
                                b, eps, g, t, k, (), (), pairs))
                            if P not in found:
                                found[P] = sf.upper_bound(P)
    return {P: bd for P, bd in found.items() if bd.value <= c_max}


def _multisets_within(pool: list, budget: int):
    """The multisets of pool, a list of (cost, pair) sorted by cost,
    whose costs add up to at most budget, as tuples of pairs."""
    yield ()
    for i, (cost, pq) in enumerate(pool):
        if cost > budget:
            break
        for rest in _multisets_within(pool[i:], budget - cost):
            yield (pq,) + rest


def _multiset_counts(types: dict[int, int], budget: int) -> list[int]:
    """[x^j] of prod_c 1/(1 - x^c)^types[c] for j = 0..budget: the
    multisets of total cost j over types[c] kinds of cost c."""
    coeffs = [1] + [0] * budget
    for cost, kinds in types.items():
        grown = [0] * (budget + 1)
        for j in range(budget // cost + 1):
            # multisets of j items of this cost
            ways = comb(kinds + j - 1, j)
            for i in range(budget - cost * j + 1):
                grown[i + cost * j] += ways * coeffs[i]
        coeffs = grown
    return coeffs


def census_counts_by_shape(c_max: int) -> dict:
    """Census entries per (eps, g, t, k, b, value), counted by generating
    functions instead of walked.

    A pair (p, q) adds c = S(p,q) + 1 to the fixed part 6(1 - chi) + 6t
    of the bound, so an entry whose pairs cost j in all has value
    fixed + j.  There is one pair per continued fraction, so 2^(c-3)
    pairs of each cost c >= 3 with 0 < q < p; with 2q <= p there is one
    of cost 3, (2,1), and 2^(c-4) of each cost c >= 4.

    * o1/n2 shapes (here t > 0): b = 0, and the multisets of the first
      kind up to the mirror q -> p - q, by Burnside (all + fixed) / 2 at
      each cost, as the mirror keeps the cost.  A mirror-fixed multiset
      holds (2,1), the only fixed pair, any number of times and the
      other pairs in couples with their mirror images, each couple
      costing 2c.
    * Other shapes: the multisets of the second kind with b = 0, and
      when t = 0 also those without (2,1), the one pair with p = 2,
      with b = 1.
    * RP2 x S1, the pairless b = 0 fibration over the projective plane,
      has value 1, not its fixed part 0.
    """
    full = {c: 2 ** (c - 3) for c in range(3, c_max + 1)}
    half = {c: 1 if c == 3 else 2 ** (c - 4) for c in range(3, c_max + 1)}
    couples = {2 * c: n // 2 for c, n in full.items() if c > 3}
    counts = {}
    for eps in EPSILONS:
        for g in range(c_max + 3):
            chi = 2 - 2 * g if eps.orientable_base else 2 - g
            for t in range(c_max + 2):
                fixed = 6 * (1 - chi) + 6 * t
                for k in range(t + 1):
                    shape = sf.SeifertParams(0, eps, g, t, k)
                    room = c_max - fixed
                    if (room < 0 or sf.validate(shape)
                            or sf.is_orientable(shape)):
                        continue
                    if eps in sf.ORIENTABLE_AWAY_FROM_SE:
                        mirror_fixed = _multiset_counts({3: 1, **couples}, room)
                        by_b = {0: [(n + n_fixed) // 2 for n, n_fixed in zip(
                            _multiset_counts(full, room), mirror_fixed)]}
                    else:
                        by_b = {0: _multiset_counts(half, room)}
                        if t == 0:
                            by_b[1] = _multiset_counts(
                                {c: n for c, n in half.items() if c > 3},
                                room)
                    counts.update(((eps, g, t, k, b, fixed + cost), n)
                                  for b, by_cost in by_b.items()
                                  for cost, n in enumerate(by_cost) if n)
    # no pair costs 1, so RP2 x S1 is the only b = 0 entry of its shape
    # within value 1
    del counts[sf.Epsilon.N1, 1, 0, 0, 0, 0]
    if c_max >= 1:
        counts[sf.Epsilon.N1, 1, 0, 0, 0, 1] = 1
    return counts


PAPER_PARAM_STRINGS = [
    # worked example with every kind of exceptional set
    "{0;(o,4,(1,1));(1|0);((3,1),(5,2))}",
    # solid torus, with and without an exceptional fibre
    "{0;(o1,0,(0,0));(0|);((5,2))}",
    "{0;(o1,0,(0,0));(0|);}",
    # solid Klein bottle
    "{0;(o1,0,(0,0));(1|);}",
    # the two fibrations of N x S1
    "{0;(n1,1,(0,0));(0|);}",
    "{0;(o1,0,(1,0));(0|);}",
    # the two fibrations of N x~ S1
    "{0;(o1,0,(0,0));(1|);((2,1))}",
    "{0;(o,0,(1,1));(|0);}",
    # the two fibrations of K x I
    "{0;(o1,0,(0,0));(2|);}",
    "{0;(o,0,(0,0));(|0,0);}",
    # the two fibrations of K x~ I
    "{0;(n2,1,(0,0));(0|);}",
    "{0;(o1,0,(0,0));(0|);((2,1),(2,1))}",
    # T x I
    "{0;(o1,0,(0,0));(0,0|);}",
    # closed fibrations over the projective plane
    "{0;(n1,1,(0,0));(|);}",
    "{1;(n1,1,(0,0));(|);}",
]

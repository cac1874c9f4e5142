"""Hypothesis properties of the parser, the printer and the canonical form.

They sit beside the seeded ``Random`` loops of the other modules and
draw their inputs from strategies that shrink, so a failure is reported
as a small example.
"""
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import seifert as sf  # noqa: E402
from seifert.notation import _scan_params  # noqa: E402
from support import (ODD_SPELLINGS, SPELLING_TOKEN, WHITESPACE,  # noqa: E402
                     near_digit_cap, parse_outcome, with_epsilon)

# Fresh examples on every run: the seeded loops are the repeatable part.
# No deadline, because timings on a loaded machine are not the property;
# a failure prints the @seed that reproduces it.
PROPERTY = settings(deadline=None, database=None, max_examples=300)

GRAMMAR_CHARS = "{}();,|-0123456789on \t"


@st.composite
def pairs(draw, p_max=12):
    p = draw(st.integers(1, p_max))
    q = draw(st.sampled_from([q for q in range(1, p + 1) if gcd(p, q) == 1]))
    return p, q + p * draw(st.integers(-3, 3))


@st.composite
def valid_params(draw):
    """A valid raw parameter set, unreduced b and q ranges included."""
    eps = draw(st.sampled_from(list(sf.Epsilon)))
    g = eps.min_genus + draw(st.integers(0, 3))
    if eps in (sf.Epsilon.O, sf.Epsilon.N):
        k = draw(st.integers(0, 2))
        m_minus = draw(st.sampled_from(
            [v for v in range(4) if (v + k) % 2 == 0 and v + k > 0]))
        t = k + draw(st.integers(0, 2))
    else:
        k, m_minus = 0, 0
        t = draw(st.integers(0, 2))
    naturals = st.integers(0, 2)
    params = sf.SeifertParams(
        draw(st.integers(-5, 5)), eps, g, t, k,
        draw(st.lists(naturals, max_size=2)),
        draw(st.lists(naturals, min_size=m_minus, max_size=m_minus)),
        draw(st.lists(pairs(), max_size=3)))
    assert not sf.validate(params)
    return params


@st.composite
def closed_orientable_params(draw):
    # the one case where the mirror moves b (to -b - r); valid_params
    # draws it only now and then
    eps = draw(st.sampled_from(sorted(sf.ORIENTABLE_AWAY_FROM_SE)))
    return sf.SeifertParams(
        draw(st.integers(-5, 5)), eps, eps.min_genus + draw(st.integers(0, 3)),
        0, 0, (), (), draw(st.lists(pairs(), max_size=3)))


@st.composite
def mutated_spellings(draw):
    # a valid spelling with one character dropped or inserted, which
    # reaches deeper into the grammar than arbitrary text does
    text = sf.format_params(draw(valid_params()))
    i = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:i] + text[i + 1:]
    return text[:i] + draw(st.sampled_from(GRAMMAR_CHARS)) + text[i:]


@st.composite
def respaced_spellings(draw):
    # a valid spelling with whitespace, str.isspace() beyond ASCII
    # included, before each token
    text = sf.format_params(draw(valid_params()))
    runs = st.text(alphabet=WHITESPACE, max_size=2)
    return "".join(draw(runs) + token
                   for token in SPELLING_TOKEN.findall(text)) + draw(runs)


@st.composite
def foreign_digit_spellings(draw):
    # a valid spelling with one ASCII digit written in another script
    # (full-width, Arabic-Indic, Devanagari), which int() would read
    text = sf.format_params(draw(valid_params()))
    i = draw(st.sampled_from(
        [i for i, ch in enumerate(text) if ch.isdigit()]))
    zero = draw(st.sampled_from([0xFF10, 0x0660, 0x0966]))
    return text[:i] + chr(zero + int(text[i])) + text[i + 1:]


@st.composite
def unknown_epsilon_spellings(draw):
    return with_epsilon(sf.format_params(draw(valid_params())),
                        draw(st.text(alphabet="on0123456789", max_size=3)))


MOVES = st.lists(st.tuples(
    st.sampled_from(["insert", "twist", "mirror", "reflect", "absorb"]),
    st.integers(0, 5),
    st.integers(-5, 5)), min_size=1, max_size=8)


def apply_moves(params, moves):
    """Apply each move that is defined on the current set; skip the rest."""
    cur = params
    for op, index, n in moves:
        j = index % cur.r + 1 if cur.r else 0
        if op == "insert":
            cur = sf.insert_unit_pair(cur, n)
        elif op == "twist" and j:
            cur = sf.twist(cur, j, n)
        elif op == "mirror" and cur.epsilon in sf.ORIENTABLE_AWAY_FROM_SE:
            cur = sf.mirror(cur)
        elif (op == "reflect" and j
              and cur.epsilon not in sf.ORIENTABLE_AWAY_FROM_SE):
            cur = sf.reflect_pair(cur, j)
        elif op == "absorb":
            cur = sf.absorb_unit_pairs(cur)
    return cur


@PROPERTY
@given(st.one_of(st.text(), st.text(alphabet=GRAMMAR_CHARS, max_size=60),
                 mutated_spellings()))
def test_parse_raises_only_parse_error(text):
    try:
        sf.parse_params(text)
    except sf.ParseError:
        pass


@PROPERTY
@given(st.one_of(
    valid_params().map(sf.format_params), respaced_spellings(),
    mutated_spellings(), foreign_digit_spellings(),
    unknown_epsilon_spellings(),
    st.sampled_from(ODD_SPELLINGS + near_digit_cap()),
    st.text(alphabet=GRAMMAR_CHARS + WHITESPACE, max_size=60)))
def test_pattern_agrees_with_scanner(text):
    # the one-pattern reading of parse_params against the scanner alone:
    # the same class and value, or the same ParseError at the same offset
    outcome = parse_outcome(sf.parse_params, text)
    assert outcome == parse_outcome(_scan_params, text)
    assert outcome[0] == "error" or outcome[1] is sf.SeifertParams


@PROPERTY
@given(valid_params())
def test_format_parse_round_trip(params):
    text = sf.format_params(params)
    assert sf.parse_params(text) == params
    assert sf.format_params(sf.parse_params(text)) == text


@PROPERTY
@given(st.one_of(valid_params(), closed_orientable_params()), MOVES)
def test_normalize_is_invariant_under_move_words(params, moves):
    moved = apply_moves(params, moves)
    assert sf.normalize(moved) == sf.normalize(params)

import hashlib
import pickle
import sys
from copy import copy, deepcopy
from random import Random

import pytest

import seifert as sf
from seifert.notation import _scan_params
from support import (ODD_SPELLINGS, PAPER_PARAM_STRINGS, int_digit_limit,
                     mutated, near_digit_cap, parse_outcome, random_valid,
                     respaced, with_epsilon)


# the message and offset of the ParseError of each spelling
SYNTAX_ERRORS = {
    "": ("expected '{', found end of input", 0),
    "{0;(o,4,(1,1));(1|0)": ("expected ';', found end of input", 20),
    "{0;(q,4,(1,1));(1|0);}": (
        "unknown symbol 'q'; expected one of o, o1, o2, n, n1, n2, n3, n4", 4),
    "{0;(N1,1,(0,0));(|);}": (
        "unknown symbol 'N1'; expected one of o, o1, o2, n, n1, n2, n3, n4", 4),
    "{0;(n5,1,(0,0));(|);}": (
        "unknown symbol 'n5'; expected one of o, o1, o2, n, n1, n2, n3, n4", 4),
    "{0;(o,-4,(1,1));(1|0);}": ("expected a non-negative integer", 6),
    "{0;(o,4,(1,1));(1|0);()}": ("expected '(', found ')'", 22),
    "{0;(o,4,(1,1));(1|0);} trailing": ("unexpected trailing input", 23),
    "{0;(o,4,(1,1));(1,0);}": ("expected '|', found ')'", 19),
    "{x;(o,4,(1,1));(1|0);}": ("expected an integer", 1),
    "{0;(o 1,4,(1,1));(1|0);}": ("expected ',', found '1'", 6),
}


class TestParse:
    def test_full_example(self):
        params = sf.parse_params("{0;(o,4,(1,1));(1|0);((3,1),(5,2))}")
        assert params == sf.SeifertParams(
            0, sf.Epsilon.O, 4, 1, 1, (1,), (0,), ((3, 1), (5, 2)))

    def test_empty_lists(self):
        params = sf.parse_params("{1;(n1,1,(0,0));(|);}")
        assert params.hplus == () and params.kminus == () and params.pairs == ()
        assert params.b == 1 and params.epsilon is sf.Epsilon.N1

    def test_boundary_lists(self):
        params = sf.parse_params("{0;(o1,0,(0,0));(0,0|);}")
        assert params.hplus == (0, 0) and params.kminus == ()
        params = sf.parse_params("{0;(o,0,(0,0));(|0,0);}")
        assert params.hplus == () and params.kminus == (0, 0)

    def test_negative_b_and_q(self):
        params = sf.parse_params("{-4;(o1,0,(0,0));(|);((5,-2),(1,-3))}")
        assert params.b == -4
        assert params.pairs == ((5, -2), (1, -3))

    def test_whitespace_ignored_between_tokens(self):
        spaced = " { 0 ; ( o , 4 , ( 1 , 1 ) ) ; ( 1 | 0 ) ; ( (3,1) , (5,2) ) } "
        assert sf.parse_params(spaced) == \
            sf.parse_params("{0;(o,4,(1,1));(1|0);((3,1),(5,2))}")

    @pytest.mark.parametrize("text", SYNTAX_ERRORS)
    def test_syntax_errors_carry_positions(self, text):
        message, pos = SYNTAX_ERRORS[text]
        with pytest.raises(sf.ParseError) as err:
            sf.parse_params(text)
        assert str(err.value) == f"parse error at position {pos}: {message}"
        assert err.value.pos == pos

    def test_parse_error_survives_pickle_and_copy(self):
        # a worker process would send its exceptions pickled
        with pytest.raises(sf.ParseError) as err:
            sf.parse_params("{0;(N1,1,(0,0));(|);}")
        for original in (err.value, sf.ParseError(3, "x")):
            twins = [pickle.loads(pickle.dumps(original, protocol))
                     for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for twin in [*twins, copy(original), deepcopy(original)]:
                assert type(twin) is sf.ParseError
                assert (str(twin), twin.args, twin.pos) == (
                    str(original), original.args, original.pos)

    @pytest.mark.skipif(not int_digit_limit(), reason="int() reads any length")
    @pytest.mark.parametrize("template,pos", [
        ("{%s;(n1,1,(0,0));(|);}", 1),
        ("{0;(n1,%s,(0,0));(|);}", 7),
        ("{0;(n1,1,(0,0));(|);((3,-%s))}", 24),
    ])
    def test_too_many_digits_is_a_parse_error(self, template, pos):
        huge = "9" * (int_digit_limit() + 1)
        with pytest.raises(sf.ParseError) as err:
            sf.parse_params(template % huge)
        assert err.value.pos == pos
        assert "too many digits" in str(err.value)

    @pytest.mark.skipif(not int_digit_limit(), reason="int() reads any length")
    def test_digits_of_all_integers_share_half_the_limit(self):
        # g, t and k take three digits; b takes the rest of the cap
        cap = int_digit_limit() // 2
        b = "9" * (cap - 3)
        sf.parse_params("{%s;(n1,1,(0,0));(|);}" % b)
        text = "{%s;(n1,1,(0,0));(|);((3,1))}" % b
        with pytest.raises(sf.ParseError) as err:
            sf.parse_params(text)
        assert err.value.pos == text.index("(3,1)") + 1
        assert "too many digits" in str(err.value)
        # and a sign counts as a digit: k is one too many
        text = "{-%s;(n1,1,(0,0));(|);}" % b
        with pytest.raises(sf.ParseError) as err:
            sf.parse_params(text)
        assert err.value.pos == text.index(",0)") + 1

    @pytest.mark.skipif(not int_digit_limit(), reason="int() reads any length")
    def test_digit_cap_follows_a_limit_set_after_import(self):
        # 400 digits fit the default cap but not half of the lowest limit
        limit = int_digit_limit()
        text = "{%s;(n1,1,(0,0));(|);}" % ("9" * 400)
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(sf.ParseError) as err:
                sf.parse_params(text)
        finally:
            sys.set_int_max_str_digits(limit)
        assert err.value.pos == 1
        assert "too many digits (at most 320 in all)" in str(err.value)


class TestPatternAgreesWithScanner:
    """parse_params reads well-formed text with one pattern and leaves
    everything else to the scanner; both must give the same answer."""

    def test_seeded_corpus(self):
        # agreement on values only: every input the pattern refuses goes
        # through _scan_params on both sides, so the errors are compared
        # with themselves; test_parse_answers_are_pinned pins those
        rng = Random(29)
        corpus = list(ODD_SPELLINGS) + near_digit_cap()
        for _ in range(1500):
            text = sf.format_params(random_valid(rng))
            corpus += [text, respaced(rng, text), mutated(rng, text),
                       mutated(rng, respaced(rng, text)),
                       with_epsilon(text, rng.choice(
                           ["o12", "n5", "o3", "n0", "on", "oo1", ""]))]
        kinds = []
        for text in corpus:
            outcome = parse_outcome(sf.parse_params, text)
            assert outcome == parse_outcome(_scan_params, text), text
            assert outcome[0] == "error" or outcome[1] is sf.SeifertParams
            kinds.append(outcome[0])
        # the corpus reaches both answers, each many times
        assert kinds.count("value") > 3000 and kinds.count("error") > 3000


# sha256 of the answers of parse_params to pinned_parse_corpus(), one
# line each: the class name and canonical spelling of the value, or the
# message and offset of the ParseError
PINNED_ANSWERS = (
    "20a5c0182be60c434dc776b1e8d2b5d9b8b178565a37dae89331fed7d7d57738")


def pinned_parse_corpus() -> list[str]:
    """About 20,000 spellings: canonical texts, respaced, mutated,
    truncated and with odd eps words, and ODD_SPELLINGS.  None is long
    enough to reach the digit cap, so the answers do not depend on the
    interpreter's digit limit."""
    rng = Random(43)
    corpus = list(ODD_SPELLINGS)
    for _ in range(2500):
        text = sf.format_params(random_valid(rng))
        spaced = respaced(rng, text)
        odd = with_epsilon(text, rng.choice(["N1", "q", "n5", "o3", ""]))
        corpus += [text, spaced, mutated(rng, text), mutated(rng, spaced),
                   text[:rng.randrange(len(text))],
                   spaced[:rng.randrange(len(spaced))],
                   odd, respaced(rng, odd)]
    return corpus


def test_parse_answers_are_pinned():
    # every message and offset of the scanner, and every value, as one
    # digest: a rewrite of the scanner must leave it unchanged
    answers = []
    for text in pinned_parse_corpus():
        kind, first, second = parse_outcome(sf.parse_params, text)
        answers.append(f"{first}\t{second}" if kind == "error" else
                       f"{first.__name__}\t{sf.format_params(second)}")
    errors = sum(answer.startswith("parse error") for answer in answers)
    assert len(answers) > 20000 and 5000 < errors < len(answers) - 5000
    digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()
    assert digest == PINNED_ANSWERS


class TestExactTuples:
    """parse_params and normalize build their sets through tuple.__new__,
    with no coercion of the fields; the fields must still be exact
    tuples, so that the sets equal and hash like coerced ones."""

    @staticmethod
    def assert_exact(params):
        hplus, kminus, pairs = params[5:]
        assert all(type(field) is tuple
                   for field in (hplus, kminus, pairs, *pairs)), params
        coerced = sf.SeifertParams(*params)
        assert params == coerced and hash(params) == hash(coerced)

    def test_parsed_and_normalized_sets(self):
        rng = Random(59)
        corpus = pinned_parse_corpus()
        for _ in range(2000):
            params = random_valid(rng)
            if rng.random() < 0.5:
                params = sf.insert_unit_pair(params, rng.randrange(-3, 4))
            corpus.append(respaced(rng, sf.format_params(params)))
        normalized = 0
        for text in corpus:
            try:
                params = sf.parse_params(text)
            except sf.ParseError:
                continue
            self.assert_exact(params)
            if not sf.validate(params):
                self.assert_exact(sf.normalize(params))
                normalized += 1
        assert normalized > 7000


class TestFastPath:
    def test_well_formed_text_never_reaches_the_scanner(self, monkeypatch):
        # a change to the pattern that refuses good input would still
        # parse it, slowly, through the scanner; this makes it fail
        class NoScanner:
            def __init__(self, text):
                raise AssertionError(f"scanner used for {text!r}")

        monkeypatch.setattr("seifert.notation._Scanner", NoScanner)
        for P, _ in sf.enumerate_nonorientable_closed(12):
            assert sf.parse_params(sf.format_params(P)) == P
        rng = Random(31)
        for _ in range(400):
            params = random_valid(rng)
            if rng.random() < 0.5:
                params = sf.insert_unit_pair(params, rng.randrange(-3, 4))
            text = sf.format_params(params)
            assert sf.parse_params(text) == params
            assert sf.parse_params(respaced(rng, text)) == params


class TestFormat:
    def test_round_trip_examples(self):
        for text in PAPER_PARAM_STRINGS:
            params = sf.parse_params(text)
            assert sf.format_params(params) == text
            assert sf.parse_params(sf.format_params(params)) == params

    def test_parse_then_format_strips_whitespace(self):
        spaced = "{ 1; (n1, 1, (0,0)); ( | ); }"
        assert sf.format_params(sf.parse_params(spaced)) == "{1;(n1,1,(0,0));(|);}"

    def test_round_trip_random(self):
        rng = Random(17)
        for _ in range(2000):
            params = random_valid(rng)
            assert sf.parse_params(sf.format_params(params)) == params

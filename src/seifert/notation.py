"""Bracket-notation parser and printer.

Grammar (whitespace between tokens is ignored):

    params   := "{" int ";" "(" eps "," nat "," "(" nat "," nat ")" ")"
                ";" "(" natlist "|" natlist ")" ";" pairlist? "}"
    eps      := "o" | "o1" | "o2" | "n" | "n1" | "n2" | "n3" | "n4"
    natlist  := <empty> | nat ("," nat)*
    pairlist := "(" pair ("," pair)* ")"
    pair     := "(" int "," int ")"

``parse_params`` accepts input with one regular expression of this
grammar (``_PATTERN``, compiled on first use so that importing the
package does not pay for it), then reads each list with one ``findall``.
The pattern's eps group matches exactly the eight eps words, so it
refuses any other word itself.  Input the pattern refuses goes to
``_Scanner``, the token-by-token reader that is the one place a
``ParseError`` is raised, at the offset of the first bad token.  So does
input longer than ``_digit_cap()``, the cap on the digits of all
integers of one input together: text within that length cannot hold
more digits than the cap, so only the scanner has to count them.  The
scanner thus reads only refused or over-long text; the tests pin its
every message and offset by one digest.

``format_params`` emits the canonical spelling (no whitespace), so
``parse_params(format_params(x)) == x`` for every valid x.
"""
import functools
import re
import sys

from .core import Epsilon, SeifertParams

__all__ = ["ParseError", "parse_params", "format_params"]

_DIGITS = "0123456789"
_EPSILONS = {eps.value: eps for eps in Epsilon}

# int() and str() refuse more digits than sys.get_int_max_str_digits()
# (0: no limit; Python 3.10 has no limit and no such function).  Capping
# the digits of all integers of one input together at half of it keeps
# every printed value within it: the largest, b*p + q of a lens label
# after b has absorbed the other pairs, has at most twice as many.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _digit_cap() -> int:
    """The cap on the digits of one input, 0 for none.  Read on every
    call, because a program may change the limit after import."""
    return _int_max_str_digits() // 2


# The grammar above as one pattern.  Every token takes the whitespace
# after it, so no two \s* meet and a refused input is refused in linear
# time.  [0-9], not \d, which also takes other scripts' digits; \s takes
# exactly the characters of str.isspace(), as the scanner does.
_PAIR = r"\(\s*-?[0-9]+\s*,\s*-?[0-9]+\s*\)\s*"
_NATLIST = r"((?:[0-9]+\s*(?:,\s*[0-9]+\s*)*)?)"
_PATTERN = (
    r"\s*\{\s*(-?[0-9]+)\s*;\s*"
    r"\(\s*(o[12]?|n[1-4]?)\s*,\s*([0-9]+)\s*,"
    r"\s*\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)\s*\)\s*;\s*"
    rf"\(\s*{_NATLIST}\|\s*{_NATLIST}\)\s*;\s*"
    rf"(?:\(\s*({_PAIR}(?:,\s*{_PAIR})*)\)\s*)?\}}\s*")


@functools.cache
def _matchers():
    """The ``fullmatch`` of ``_PATTERN`` and the ``findall`` of an integer."""
    return re.compile(_PATTERN).fullmatch, re.compile(r"-?[0-9]+").findall


class ParseError(ValueError):
    """Syntax error, carrying the 0-based offset of the offending input
    and the message that follows it."""

    def __init__(self, pos: int, message: str):
        super().__init__(f"parse error at position {pos}: {message}")
        self.pos = pos
        self.message = message

    def __reduce__(self):
        # pickle and copy rebuild it through __init__, which takes the
        # offset and the message, not args
        return type(self), (self.pos, self.message), self.__dict__


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.digits = 0
        self.digit_cap = _digit_cap()

    def peek(self) -> str:
        """Skip whitespace; the next character, "" at the end."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos:self.pos + 1]

    def expect(self, literal: str) -> None:
        """Read literal one character at a time, skipping whitespace."""
        for ch in literal:
            got = self.peek()
            if got != ch:
                shown = repr(got) if got else "end of input"
                raise ParseError(self.pos, f"expected {ch!r}, found {shown}")
            self.pos += 1

    def integer(self) -> int:
        sign = self.peek() == "-"
        self.pos += sign
        return self._number(self.pos - sign, "expected an integer")

    def natural(self) -> int:
        self.peek()
        return self._number(self.pos, "expected a non-negative integer")

    def _number(self, start: int, message: str) -> int:
        # int(text[start:]) up to the last digit; a sign counts as a digit
        first_digit = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == first_digit:
            raise ParseError(start, message)
        self.digits += self.pos - start
        if self.digit_cap and self.digits > self.digit_cap:
            raise ParseError(start, "integer has too many digits "
                             f"(at most {self.digit_cap} in all)")
        return int(self.text[start:self.pos])

    def epsilon(self) -> Epsilon:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        word = self.text[start:self.pos]
        try:
            return Epsilon(word)
        except ValueError:
            raise ParseError(start, f"unknown symbol {word!r}; expected one "
                             f"of {', '.join(_EPSILONS)}") from None

    def items(self, read) -> list:
        """read() once, then again after each ","."""
        values = [read()]
        while self.peek() == ",":
            self.pos += 1
            values.append(read())
        return values

    def pair(self) -> tuple[int, int]:
        self.expect("(")
        p = self.integer()
        self.expect(",")
        q = self.integer()
        self.expect(")")
        return (p, q)


def parse_params(text: str) -> SeifertParams:
    """Parse bracket notation into a (structurally faithful, unvalidated)
    parameter set."""
    cap = _digit_cap()
    if not cap or len(text) <= cap:
        fullmatch, findall = _matchers()
        match = fullmatch(text)
        if match is not None:
            b, eps, g, t, k, hplus, kminus, pairs = match.groups()
            # p, q, p, q, ...: zip takes two of one iterator at a time
            ends = map(int, findall(pairs)) if pairs else ()
            # each field is made here as an exact tuple: no coercion
            return tuple.__new__(SeifertParams, (
                int(b), _EPSILONS[eps], int(g), int(t), int(k),
                tuple(map(int, findall(hplus))) if hplus else (),
                tuple(map(int, findall(kminus))) if kminus else (),
                tuple(zip(ends, ends))))
    return _scan_params(text)


def _scan_params(text: str) -> SeifertParams:
    """``parse_params`` token by token, raising ``ParseError`` at the
    first bad token."""
    s = _Scanner(text)
    s.expect("{")
    b = s.integer()
    s.expect(";(")
    eps = s.epsilon()
    s.expect(",")
    g = s.natural()
    s.expect(",(")
    t = s.natural()
    s.expect(",")
    k = s.natural()
    s.expect("));(")
    hplus = () if s.peek() == "|" else s.items(s.natural)
    s.expect("|")
    kminus = () if s.peek() == ")" else s.items(s.natural)
    s.expect(");")
    pairs = ()
    if s.peek() == "(":
        s.expect("(")
        pairs = s.items(s.pair)
        s.expect(")")
    s.expect("}")
    if s.peek():
        raise ParseError(s.pos, "unexpected trailing input")
    return SeifertParams(b, eps, g, t, k, hplus, kminus, pairs)


def format_params(params: SeifertParams) -> str:
    """Canonical bracket spelling: no whitespace, empty pair list omitted."""
    b, eps, g, t, k, hplus, kminus, pairs = params
    hplus = ",".join(map(str, hplus))
    kminus = ",".join(map(str, kminus))
    pairs = ("(" + ",".join([f"({p},{q})" for p, q in pairs]) + ")"
             if pairs else "")
    # _value_: the value property of an Enum costs more than a lookup
    return (f"{{{b};({eps._value_},{g},({t},{k}));({hplus}|{kminus});"
            f"{pairs}}}")

"""The expression parser checked against the hand-written one it replaced.

``_ReferenceParser`` below is that parser, a character loop for the
tokens and one method per precedence level.  On ASCII text the library's
parser must build the same AST or raise the same message at the same
column; outside ASCII the reference took any Unicode digit or letter,
and the library refuses it as an unexpected character.
"""

from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from omegafield import Expression, ExprSyntaxError, parse

_FUNCTIONS = ("inv", "sqrt", "pow", "trunc")


# kind is "int", "name", "op" or "end"; position is the 1-based column.
_Token = namedtuple("_Token", "kind text position")


def _tokenize(source: str):
    tokens = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(source) and source[i].isdigit():
                i += 1
            tokens.append(_Token("int", source[start:i], start + 1))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(source) and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("name", source[start:i], start + 1))
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token("op", ch, i + 1))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i + 1)
    tokens.append(_Token("end", "", len(source) + 1))
    return tokens


class _ReferenceParser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect_op(self, text: str) -> _Token:
        if self.current.kind == "op" and self.current.text == text:
            return self.advance()
        raise ExprSyntaxError(f"expected {text!r}", self.current.position)

    def at_op(self, *texts: str) -> bool:
        return self.current.kind == "op" and self.current.text in texts

    # ------------------------------------------------------------------

    def parse(self) -> Expression:
        node = self.expr()
        if self.current.kind != "end":
            raise ExprSyntaxError(
                f"unexpected {self.current.text!r}", self.current.position
            )
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.at_op("+", "-"):
            operator = self.advance().text
            right = self.term()
            node = Expression("add" if operator == "+" else "sub", (node, right))
        return node

    def term(self) -> Expression:
        node = self.unary()
        while self.at_op("*", "/"):
            operator = self.advance().text
            right = self.unary()
            node = Expression("mul" if operator == "*" else "div", (node, right))
        return node

    def unary(self) -> Expression:
        if self.at_op("-"):
            self.advance()
            return Expression("neg", (self.unary(),))
        if self.at_op("+"):
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> Expression:
        node = self.atom()
        if self.at_op("^"):
            self.advance()
            exponent = self.signed_integer()
            node = Expression("ipow", (node, exponent))
        return node

    def integer(self, expected: str = "expected an integer literal") -> int:
        token = self.current
        if token.kind != "int":
            raise ExprSyntaxError(expected, token.position)
        self.advance()
        try:
            return int(token.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ExprSyntaxError(
                f"integer literal of {len(token.text)} digits is too long",
                token.position,
            ) from None

    def signed_integer(self) -> int:
        negative = False
        if self.at_op("-"):
            self.advance()
            negative = True
        value = self.integer()
        return -value if negative else value

    def rational_literal(self) -> Fraction:
        numerator = self.signed_integer()
        if self.at_op("/"):
            self.advance()
            position = self.current.position
            denominator = self.integer("expected a denominator")
            if denominator == 0:
                raise ExprSyntaxError("zero denominator", position)
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def atom(self) -> Expression:
        token = self.current
        if token.kind == "int":
            return Expression("num", (Fraction(self.integer()),))
        if token.kind == "name":
            self.advance()
            if token.text in ("o", "S"):
                return Expression("sym", (token.text,))
            if token.text in _FUNCTIONS:
                return self.call(token)
            raise ExprSyntaxError(f"unknown name {token.text!r}", token.position)
        if self.at_op("("):
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, got {token.text or 'end of input'!r}",
            token.position,
        )

    def call(self, name: _Token) -> Expression:
        self.expect_op("(")
        first = self.expr()
        if name.text == "pow":
            self.expect_op(",")
            alpha = self.rational_literal()
            self.expect_op(")")
            return Expression("pow", (first, alpha))
        if name.text == "trunc":
            self.expect_op(",")
            position = self.current.position
            order = self.signed_integer()
            if order < 0:
                raise ExprSyntaxError("truncation order must be non-negative", position)
            self.expect_op(")")
            return Expression("trunc", (first, order))
        self.expect_op(")")
        return Expression(name.text, (first,))


def reference_parse(source: str) -> Expression:
    return _ReferenceParser(source).parse()


def outcome(parser, text):
    """The AST's repr (it shows each number's type), or the error's text
    and column."""
    try:
        return repr(parser(text))
    except ExprSyntaxError as exc:
        return str(exc), exc.position


#: Operands: a literal or a symbol, maybe signed, maybe raised to a power.
OPERANDS = [sign + atom + power for sign in ("", "-", "+", "- ")
            for atom in ("0", "1", "12", "007", "o", "S") for power in ("", "^2", "^-3")]
BINARY = ["+", "-", "*", "/", " + ", " * "]
#: What a span of a chain can be wrapped in, a few of them with an error.
WRAPPERS = ["({})", "({})", "-({})", "({})^2", "inv({})", "sqrt({})", "pow({}, 1/2)",
            "pow({}, -3)", "trunc({}, 2)", "pow({}, 1/0)", "trunc({}, -1)", "cos({})"]
#: Characters and fragments the grammar has no place for, or has elsewhere.
JUNK = ["", " ", "\t", "\x1c", "(", ")", ",", "^", "/", "-", "1", "o", "_x", "9a", "$", "."]


@st.composite
def grammatical(draw):
    """A chain of operands joined by binary operators, with up to three
    spans of it wrapped in parentheses or a call."""
    operands = draw(st.lists(st.sampled_from(OPERANDS), min_size=1, max_size=5))
    operators = draw(st.lists(st.sampled_from(BINARY), min_size=len(operands) - 1,
                              max_size=len(operands) - 1))
    parts = [operands[0]]  # operands at even indices, operators between
    for operator, operand in zip(operators, operands[1:]):
        parts += [operator, operand]
    for _ in range(draw(st.integers(0, 3))):
        first = 2 * draw(st.integers(0, len(parts) // 2))
        last = 2 * draw(st.integers(first // 2, len(parts) // 2))
        wrapped = "".join(parts[first:last + 1])
        parts[first:last + 1] = [draw(st.sampled_from(WRAPPERS)).format(wrapped)]
    return "".join(parts)


@st.composite
def ascii_texts(draw):
    """A grammatical text with up to two characters inserted, replaced or
    deleted."""
    text = draw(grammatical())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        junk = draw(st.one_of(st.sampled_from(JUNK), st.characters(max_codepoint=127)))
        text = text[:at] + junk + text[at + draw(st.integers(0, 1)):]
    return text


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(ascii_texts())
@example("1 + 2*o^2 - 3/4")
@example("1 - o - S")
@example("pow(1+o, 7/0)")
def test_ascii_text_parses_as_the_reference_parses_it(text):
    assert outcome(parse, text) == outcome(reference_parse, text)


@pytest.mark.parametrize(
    "text, reference, library",
    [
        ("2\N{SUPERSCRIPT TWO}", ("integer literal of 2 digits is too long at column 1", 1),
         ("unexpected character '\N{SUPERSCRIPT TWO}' at column 2", 2)),
        ("\N{ARABIC-INDIC DIGIT THREE}", repr(Expression("num", (Fraction(3),))),
         ("unexpected character '\N{ARABIC-INDIC DIGIT THREE}' at column 1", 1)),
        ("1 + \N{GREEK SMALL LETTER OMICRON}",
         ("unknown name '\N{GREEK SMALL LETTER OMICRON}' at column 5", 5),
         ("unexpected character '\N{GREEK SMALL LETTER OMICRON}' at column 5", 5)),
    ],
    ids=["superscript-two", "arabic-indic-three", "greek-omicron"],
)
def test_non_ascii_digits_and_letters_are_unexpected_characters(text, reference, library):
    assert outcome(reference_parse, text) == reference
    assert outcome(parse, text) == library


def test_unicode_whitespace_still_separates_tokens():
    text = "1\N{NO-BREAK SPACE}+\N{EM SPACE}o\u2028"
    assert outcome(parse, text) == outcome(reference_parse, text) == repr(parse("1 + o"))

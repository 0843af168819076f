"""Parser and evaluator for the small series-expression language.

Grammar (whitespace-insensitive)::

    expr  := term (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := ('-' | '+') unary | power
    power := atom ('^' signed-integer)?
    atom  := integer | 'o' | 'S' | '(' expr ')'
           | 'inv' '(' expr ')' | 'sqrt' '(' expr ')'
           | 'pow' '(' expr ',' rational ')' | 'trunc' '(' expr ',' integer ')'

Integer literals and names are ASCII; integer literals combined with '/'
cover all rational constants.  Errors report a 1-based column.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from . import _EXPORTS
from .errors import ExprSyntaxError
from .series import OmegaNumber, S, o, resolve_depth

__all__ = _EXPORTS["expressions"]


class Expression(namedtuple("Expression", "op args")):
    """AST node: ``op`` plus operands (children, numbers or names)."""

    __slots__ = ()

    def __str__(self):
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.op}({inner})"


#: One token per match; ``\s`` (the characters ``str.isspace`` accepts)
#: separates them, and any other character is an error.
_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^(),])|(?P<bad>\S)"
)
# kind is "int", "name", "op" or "end"; position is the 1-based column.
_Token = namedtuple("_Token", "kind text position")

#: The binary operators by precedence level, loosest first; all associate
#: to the left.
_LEVELS = ({"+": "add", "-": "sub"}, {"*": "mul", "/": "div"})


class _Parser:
    def __init__(self, source: str):
        self.tokens, self.index = [], 0
        for match in _TOKEN.finditer(source):
            kind, text, position = match.lastgroup, match.group(), match.start() + 1
            if kind == "bad":
                raise ExprSyntaxError(f"unexpected character {text!r}", position)
            self.tokens.append(_Token(kind, text, position))
        self.tokens.append(_Token("end", "", len(source) + 1))

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect_op(self, text: str) -> _Token:
        if self.at_op(text):
            return self.advance()
        raise ExprSyntaxError(f"expected {text!r}", self.current.position)

    def at_op(self, *texts: str) -> bool:
        return self.current.kind == "op" and self.current.text in texts

    def parse(self) -> Expression:
        node = self.expr()
        if self.current.kind != "end":
            raise ExprSyntaxError(
                f"unexpected {self.current.text!r}", self.current.position
            )
        return node

    def expr(self, level: int = 0) -> Expression:
        """A left-associative chain of the operators of ``_LEVELS[level]``,
        one Python frame per level, as one function per level would take."""
        operators, last = _LEVELS[level], level == len(_LEVELS) - 1
        node = self.unary() if last else self.expr(level + 1)
        while self.at_op(*operators):
            operator = operators[self.advance().text]
            right = self.unary() if last else self.expr(level + 1)
            node = Expression(operator, (node, right))
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

    def order(self) -> int:
        position = self.current.position
        order = self.signed_integer()
        if order < 0:
            raise ExprSyntaxError("truncation order must be non-negative", position)
        return order

    def atom(self) -> Expression:
        token = self.current
        if token.kind == "int":
            return Expression("num", (Fraction(self.integer()),))
        if token.kind == "name":
            self.advance()
            if token.text in ("o", "S"):
                return Expression("sym", (token.text,))
            if token.text in _FUNCTIONS:
                return self.call(token.text)
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

    def call(self, name: str) -> Expression:
        self.expect_op("(")
        args = [self.expr()]
        second = _FUNCTIONS[name]
        if second is not None:
            self.expect_op(",")
            args.append(second(self))
        self.expect_op(")")
        return Expression(name, tuple(args))


#: Each function's reader of its second argument, None for a function of
#: one argument.
_FUNCTIONS = {
    "inv": None, "sqrt": None, "pow": _Parser.rational_literal, "trunc": _Parser.order,
}


def parse(source: str) -> Expression:
    """Parse expression text into an AST; raises ExprSyntaxError, also
    for nesting deeper than Python's recursion limit lets it follow."""
    try:
        return _Parser(source).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", 1) from None


def evaluate(node: Expression, depth: "int | None" = None) -> OmegaNumber:
    """Evaluate an AST at the given working depth."""
    depth = resolve_depth(depth)
    try:
        return _evaluate(node, depth)
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", 1) from None


#: Each operation's value from the working depth and its operands, the
#: ``Expression`` ones already evaluated.
_RULES = {
    # from_rational(value) only calls single(0, value); a leaf is the
    # deepest frame of a long sum, so it calls single directly.
    "num": lambda depth, value: OmegaNumber.single(0, value),
    "sym": lambda depth, name: o if name == "o" else S,
    "add": lambda depth, a, b: a + b,
    "sub": lambda depth, a, b: a - b,
    "mul": lambda depth, a, b: a * b,
    "div": lambda depth, a, b: a * b.invert(depth),
    "neg": lambda depth, a: -a,
    "ipow": lambda depth, base, n: base.invert(depth) ** (-n) if n < 0 else base**n,
    "inv": lambda depth, a: a.invert(depth),
    "sqrt": lambda depth, a: a.pow_alpha(Fraction(1, 2), depth),
    "pow": lambda depth, a, alpha: a.pow_alpha(alpha, depth),
    "trunc": lambda depth, a, order: a.truncate(order),
}


def _evaluate(node: Expression, depth: int) -> OmegaNumber:
    rule = _RULES.get(node.op)
    if rule is None:
        raise ValueError(f"unknown operation {node.op!r}")
    # A plain loop: a comprehension would add a Python frame per tree level.
    operands = []
    for arg in node.args:
        operands.append(_evaluate(arg, depth) if isinstance(arg, Expression) else arg)
    return rule(depth, *operands)

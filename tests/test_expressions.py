from fractions import Fraction

import pytest

from omegafield import (
    DivisionByZeroError,
    Expression,
    ExprSyntaxError,
    ONE,
    OmegaNumber,
    S,
    evaluate,
    o,
    parse,
)


def run(text, depth=8):
    return evaluate(parse(text), depth)


class TestParse:
    def test_addition(self):
        node = parse("1 + o")
        assert node.op == "add"
        assert node.args[0].op == "num"
        assert node.args[1].op == "sym"

    def test_function_call(self):
        node = parse("sqrt(1+o)")
        assert node.op == "sqrt"
        assert node.args[0].op == "add"

    def test_error_position(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("1 + * o")
        assert info.value.position == 5

    def test_unknown_name(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin(1)")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ExprSyntaxError):
            parse("(1 + o")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 + o )")

    def test_pow_requires_rational_literal(self):
        parse("pow(1+o, 1/2)")
        parse("pow(1+o, -3)")
        with pytest.raises(ExprSyntaxError):
            parse("pow(1+o, o)")

    def test_zero_denominator_literal(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("pow(1+o, 1/0)")
        assert info.value.position == 12

    def test_caret_requires_integer_literal(self):
        parse("o^3")
        parse("S^-2")
        with pytest.raises(ExprSyntaxError):
            parse("o^(1/2)")

    def test_overlong_literals(self, int_str_digits):
        digits = "9" * 5000
        for text, column in [(digits, 1), (f"o^{digits}", 3),
                             (f"pow(1+o, 1/{digits})", 12), (f"pow(o, -{digits})", 9)]:
            with int_str_digits(4300), pytest.raises(ExprSyntaxError) as info:
                parse(text)
            assert info.value.position == column
            assert "digits is too long" in str(info.value)

    def test_node_value_semantics(self):
        node = parse("pow(1+o, 3/2)")
        assert node == parse("pow(1 + o, 3/2)")
        assert hash(node) == hash(parse("pow(1 + o, 3/2)"))
        assert node != parse("pow(1+o, 1/2)")
        assert repr(node.args[0]) == (
            "Expression(op='add', args=(Expression(op='num', args=(Fraction(1, 1),)), "
            "Expression(op='sym', args=('o',))))"
        )
        assert str(node) == "pow(add(num(1), sym(o)), 3/2)"
        with pytest.raises(AttributeError):
            node.op = "sqrt"


class TestEvaluate:
    def test_sum(self):
        assert run("1 + o") == ONE + o

    def test_division_is_rational(self):
        assert run("1/1000000") == OmegaNumber.from_rational(
            Fraction(1, 1000000)
        )

    def test_sigma_times_o(self):
        assert run("S*o") == ONE

    def test_sqrt_series(self):
        value = run("sqrt(1+o)", depth=4)
        assert value.coefficient(-4) == Fraction(-5, 128)

    def test_inverse(self):
        assert run("inv(2)") == OmegaNumber.from_rational(Fraction(1, 2))
        with pytest.raises(DivisionByZeroError):
            run("inv(0)")

    def test_pow_and_trunc(self):
        assert run("pow(1+o, 2)") == (ONE + o) ** 2
        assert run("trunc(inv(1-o), 2)", depth=8) == ONE + o + OmegaNumber.single(-2, 1)

    def test_unary_minus(self):
        assert run("-o + 1") == ONE - o
        assert run("--o") == o

    def test_caret_power(self):
        assert run("o^3") == OmegaNumber.single(-3, 1)
        assert run("S^-2", depth=6) == OmegaNumber.single(-2, 1)

    def test_precedence(self):
        assert run("1 + 2*o^2") == ONE + OmegaNumber.single(-2, 2)
        assert run("(1+o)*(1-o)") == ONE - OmegaNumber.single(-2, 1)

    def test_long_sum_and_deep_parentheses(self):
        # Evaluation takes one Python frame per tree level.
        assert run("+".join(["1"] * 800)) == OmegaNumber.from_rational(800)
        assert run("(" * 150 + "1+o" + ")" * 150) == ONE + o

    def test_unknown_operation_is_refused_before_its_operands(self):
        with pytest.raises(ValueError, match="^unknown operation 'cosh'$"):
            evaluate(Expression("cosh", (parse("inv(0)"),)))

"""Operator and problem-file parsing, diagnostics, and round-trips."""

from fractions import Fraction

import pytest

from conftest import qop
from dfan.errors import NotPrime, OperatorSyntaxError, UnknownName
from dfan.operators import exponent
from dfan.orders import Weight
from dfan.params import ParamField, ParamPoly
from dfan.parsing import parse_operator, parse_param_poly, parse_problem


def test_parse_operator_arithmetic():
    p = parse_operator("dx1^2 - 3/2*x1*z + (x1 + 1)^2", ["x1"])
    expect = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 1): Fraction(-3, 2),
                     ((2,), (0,), 0): 1, ((1,), (0,), 0): 2,
                     ((0,), (0,), 0): 1})
    assert p == expect


def test_parse_operator_is_noncommutative():
    assert (parse_operator("dx1*x1", ["x1"])
            == qop(1, {((1,), (1,), 0): 1, ((0,), (0,), 1): 1}))
    assert parse_operator("x1*dx1", ["x1"]) == qop(1, {((1,), (1,), 0): 1})


def test_parse_operator_with_params():
    F = ParamField(1)
    y = ParamPoly.var(1, 0)
    p = parse_operator("y*x2 - x1*x2 + x1", ["x1", "x2"], ["y"], F)
    assert p.terms[exponent(2, alpha=[0, 1])] == F.from_poly(y)


def test_unknown_name_position():
    with pytest.raises(UnknownName) as exc:
        parse_operator("x1 + x3", ["x1", "x2"])
    assert "x3" in str(exc.value) and "column 6" in str(exc.value)


def test_division_only_by_invertible_scalars():
    F = ParamField(1)
    p = parse_operator("dx1/y", ["x1"], ["y"], F)
    y = ParamPoly.var(1, 0)
    assert p.terms[exponent(1, beta=[1])] == F.one / F.from_poly(y)
    with pytest.raises(OperatorSyntaxError):
        parse_operator("dx1/x1", ["x1"])


def test_parse_param_poly():
    q = parse_param_poly("y1^2 - 2*y2", ["y1", "y2"])
    y1 = ParamPoly.var(2, 0)
    y2 = ParamPoly.var(2, 1)
    assert q == y1 * y1 - y2 - y2


def test_parameter_names_belong_to_their_problem():
    """Parsing another problem must not rename the parameters of the first."""
    first = parse_problem("params: a\nvars: x1\nideal: a*x1*dx1 + 1\n")
    parse_problem("params: t\nvars: x1\nideal: t*x1*dx1 + 1\n")
    parse_problem("vars: x1\nideal: x1*dx1 + 1\n")
    assert str(first.generators[0]) == "1 + a*x1*dx1"


def test_parse_problem_full():
    text = """# demo
params: y
vars: x1 x2
order: antigraded_lex x2 > x1
weight: u -1 0 v 2 1
cap: 5
qideal: y^2 - 2
ideal: y*x2 - x1*x2 + x1; dx1^2
dividend: dx2
"""
    prob = parse_problem(text)
    assert prob.params == ["y"] and prob.var_names == ["x1", "x2"]
    assert prob.cap == 5 and prob.n == 2 and prob.m == 1
    assert prob.order.xprio == (1, 0)
    assert prob.weights == [Weight.make((-1, 0), (2, 1))]
    assert len(prob.generators) == 2
    assert prob.dividend is not None
    assert len(prob.q_ideal.generators) == 1
    # a one-parameter Q must be prime: y^2 - y = y*(y - 1) is rejected
    with pytest.raises(NotPrime):
        parse_problem(text.replace("y^2 - 2", "y^2 - y"))


def test_parse_problem_serialize_roundtrip():
    text = """vars: x1
order: antigraded_lex
cap: 6
ideal: dx1^2 + x1*z^2
"""
    prob = parse_problem(text)
    again = parse_problem(prob.serialize())
    assert again.generators == prob.generators
    assert again.cap == prob.cap
    assert parse_problem(again.serialize()).serialize() == again.serialize()


def test_parse_problem_diagnostics():
    with pytest.raises(OperatorSyntaxError):
        parse_problem("cap: 5\n")              # missing vars
    with pytest.raises(OperatorSyntaxError):
        parse_problem("vars: x1\ncap: zero\n")
    with pytest.raises(OperatorSyntaxError):
        parse_problem("vars: z\n")             # z is reserved
    with pytest.raises(UnknownName) as exc:
        parse_problem("vars: x1\nideal: x1 + x3\n")
    assert "line 2" in str(exc.value) and "column 13" in str(exc.value)
    with pytest.raises(OperatorSyntaxError):
        parse_problem("vars: x1 x2\norder: antigraded_lex x1\n")


def test_weight_line_errors():
    with pytest.raises(OperatorSyntaxError):
        parse_problem("vars: x1\nweight: u -1\n")
    from dfan.errors import NotAdmissible
    with pytest.raises(NotAdmissible):
        parse_problem("vars: x1\nweight: u 1 v 0\n")

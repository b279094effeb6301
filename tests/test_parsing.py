"""Operator and problem-file parsing, diagnostics, and round-trips."""

from fractions import Fraction
from math import ceil, log2

import pytest

from conftest import qop
from dfan.errors import NotPrime, OperatorSyntaxError, UnknownName
from dfan.operators import HOperator, exponent
from dfan.orders import Weight
from dfan.params import ParamField, ParamIdeal, ParamPoly, poly_str
from dfan.parsing import parse_operator, parse_param_poly, parse_problem


def test_parse_operator_arithmetic():
    p = parse_operator("dx1^2 - 3/2*x1*z + (x1 + 1)^2", ["x1"])
    expect = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 1): Fraction(-3, 2),
                     ((2,), (0,), 0): 1, ((1,), (0,), 0): 2,
                     ((0,), (0,), 0): 1})
    assert p == expect


def test_unary_sign_takes_the_factor_with_its_power():
    """A unary sign negates the factor after it, power included, wherever
    it stands: after an operator as at the start of the expression."""
    minus_sq = qop(1, {((2,), (0,), 0): -1})
    assert parse_operator("-x1^2", ["x1"]) == minus_sq
    assert parse_operator("1*-x1^2", ["x1"]) == minus_sq
    assert parse_operator("+x1^2", ["x1"]) == -minus_sq
    assert parse_operator("x1 - -x1^2", ["x1"]) == qop(
        1, {((1,), (0,), 0): 1, ((2,), (0,), 0): 1})
    assert parse_operator("-x1^2*dx1", ["x1"]) == qop(1, {((2,), (1,), 0): -1})
    assert parse_operator("(-x1)^2", ["x1"]) == -minus_sq
    # the forms the benchmark's problem texts use
    assert parse_operator("-1*x1 - -1", ["x1"]) == qop(
        1, {((1,), (0,), 0): -1, ((0,), (0,), 0): 1})


def test_deep_nesting_is_a_syntax_error():
    """Nesting beyond the interpreter's recursion limit is reported at the
    expression's position, not as a RecursionError."""
    deep = "(" * 2000 + "x1" + ")" * 2000
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_problem("vars: x1\nideal: " + deep + "\n")
    assert "nested too deeply" in str(exc.value)
    assert (exc.value.line, exc.value.column) == (2, 8)
    with pytest.raises(OperatorSyntaxError):
        parse_operator("-" * 2000 + "x1", ["x1"])
    assert parse_operator("(" * 50 + "x1" + ")" * 50, ["x1"]) == qop(
        1, {((1,), (0,), 0): 1})


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


def test_division_by_a_zero_scalar():
    """0 is a scalar, but not an invertible one: `x1/0` and `dx1/(y - y)`
    say so at the `/`, in a problem file as in a bare expression."""
    for text, names, params, col in (("x1/0", ["x1"], [], 3),
                                     ("dx1/(y - y)", ["x1"], ["y"], 4)):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator(text, names, params)
        assert "division by zero" in str(exc.value)
        assert (exc.value.line, exc.value.column) == (1, col)
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_problem("params: y\nvars: x1\nideal: dx1/(y - y)\n")
    assert "division by zero at line 3, column 11" in str(exc.value)


def power_by_loop(v, k):
    """v^k as k products 1*v*...*v, the loop `_power` replaced."""
    r = HOperator.monomial(v.n, v.field, exponent(v.n))
    for _ in range(k):
        r = r * v
    return r


def test_powers_by_repeated_squaring(monkeypatch):
    """`^k` takes at most 2*ceil(log2 k) products, so a huge exponent
    parses at once, and gives the k-fold product's operator."""
    products = []
    mul = HOperator.__mul__
    monkeypatch.setattr(HOperator, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    k = 99999999
    p = parse_operator(f"x1^{k}", ["x1"])
    assert p == HOperator.monomial(1, p.field, exponent(1, alpha=[k]))
    assert len(products) <= 2 * ceil(log2(k))
    monkeypatch.setattr(HOperator, "__mul__", mul)
    FQ = ParamField(1, ParamIdeal(1, [ParamPoly.var(1, 0) ** 2 - 2]))
    for text, names, params, field in (("dx1 + x1*z", ["x1"], [], None),
                                       ("x2*dx1 - 1/2*dx2*x1", ["x1", "x2"], [], None),
                                       ("y*dx1 + x1 - 1", ["x1"], ["y"], FQ)):
        v = parse_operator(text, names, params, field=field)
        for k in range(8):
            p = parse_operator(f"({text})^{k}", names, params, field=field)
            assert p == power_by_loop(v, k), (text, k)


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


def serialize(problem):
    """A problem file text that parses back to the problem."""
    lines = []
    if problem.params:
        lines.append("params: " + " ".join(problem.params))
    lines.append("vars: " + " ".join(problem.var_names))
    lines.append("order: " + problem.order_desc)
    for w in problem.weights:
        lines.append("weight: u " + " ".join(str(a) for a in w.u)
                     + " v " + " ".join(str(b) for b in w.v))
    lines.append(f"cap: {problem.cap}")
    for g in problem.q_ideal.generators:
        lines.append("qideal: " + poly_str(g))
    for g in problem.generators:
        lines.append("ideal: " + str(g))
    if problem.dividend is not None:
        lines.append("dividend: " + str(problem.dividend))
    return "\n".join(lines) + "\n"


def test_parse_problem_serialize_roundtrip():
    text = """vars: x1
order: antigraded_lex
cap: 6
ideal: dx1^2 + x1*z^2
"""
    prob = parse_problem(text)
    again = parse_problem(serialize(prob))
    assert again.generators == prob.generators
    assert again.cap == prob.cap
    assert serialize(parse_problem(serialize(again))) == serialize(again)


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


def test_names_and_order_are_checked_where_written():
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_problem("params: y\nvars: x1 x2 x1\n")
    assert "duplicate name 'x1'" in str(exc.value)
    assert (exc.value.line, exc.value.column) == (2, 13)
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_problem("params: a b a\nvars: x1\n")
    assert (exc.value.line, exc.value.column) == (1, 13)
    for text, where in (("vars: x1\nparams: x1\n", (2, 9)),
                        ("params: y\nvars: x1 y\n", (2, 10)),
                        ("vars: x1 z\n", (1, 10))):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_problem(text)
        assert "names must be disjoint and avoid 'z'" in str(exc.value)
        assert (exc.value.line, exc.value.column) == where
    with pytest.raises(OperatorSyntaxError) as exc:
        parse_problem("vars: x1\ncap: 4\norder: lex x1\n")
    assert "unknown base order 'lex'" in str(exc.value) and exc.value.line == 3


def test_single_keys_are_stated_once():
    """A second `vars:`, `params:`, `order:`, `cap:` or `dividend:` line is
    refused at its line; it used to replace the first silently."""
    for text, ln in (("vars: x1\nvars: x2\nideal: x2\n", 2),
                     ("params: y\nvars: x1\nParams: a\n", 3),
                     ("vars: x1\norder: tdeg\norder: antigraded_lex\n", 3),
                     ("vars: x1\ncap: 3\nideal: x1\ncap : 4\n", 4),
                     ("vars: x1\ndividend: x1\ndividend: dx1\n", 3)):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_problem(text)
        assert "repeated" in str(exc.value) and exc.value.line == ln, text
    # `ideal:`, `qideal:` and `weight:` lines add up
    prob = parse_problem("params: y\nvars: x1\nqideal: y^2 + 1\nqideal: y^2 + 1\n"
                         "weight: u 0 v 1\nweight: u -1 v 2\nideal: x1\nideal: dx1\n")
    assert len(prob.generators) == 2 and len(prob.weights) == 2


def test_names_must_be_tokens_and_not_dx_partners():
    """A declared name is an identifier a token can spell, and never `d` +
    a declared variable, which names that variable's dx-partner."""
    for text, where in (("vars: x1 dx1\nideal: dx1*x1 - 1\n", (1, 10)),
                        ("vars: dx1 x1\n", (1, 7)),
                        ("params: dx1\nvars: x1\n", (1, 9)),
                        ("vars: x1\nparams: dx1\n", (2, 9))):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_problem(text)
        assert "'dx1' is the dx-partner of variable 'x1'" in str(exc.value)
        assert (exc.value.line, exc.value.column) == where
    for text, bad, where in (("params: y.\nvars: x1\n", "y.", (1, 9)),
                             ("vars: x1 1x\n", "1x", (1, 10)),
                             ("vars: x-y\n", "x-y", (1, 7))):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_problem(text)
        assert f"{bad!r} is not a name" in str(exc.value)
        assert (exc.value.line, exc.value.column) == where
    # d alone, or d + a name that is not a variable, is an ordinary name
    prob = parse_problem("params: dy\nvars: d x\nideal: dy*dd + dx\n")
    assert prob.params == ["dy"] and prob.var_names == ["d", "x"]


def test_parse_operator_checks_the_names_it_is_given():
    """The library entry point applies the name rules of a problem file:
    `dx1` declared as a variable used to overwrite x1's dx-partner."""
    for var_names, param_names, message in (
            (["x1", "dx1"], (), "'dx1' is the dx-partner of variable 'x1'"),
            (["x1"], ["dx1"], "'dx1' is the dx-partner of variable 'x1'"),
            (["x1", "1x"], (), "'1x' is not a name"),
            (["x1"], ["y."], "'y.' is not a name"),
            (["x1", "x1"], (), "duplicate name 'x1'"),
            (["x1"], ["y", "y"], "duplicate name 'y'"),
            (["x1", "z"], (), "names must be disjoint and avoid 'z'"),
            (["x1"], ["x1"], "names must be disjoint and avoid 'z'")):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator("dx1*x1 - 1", var_names, param_names, line=3, col=8)
        assert message in str(exc.value)
        assert (exc.value.line, exc.value.column) == (3, 8)
    # d alone, or d + a name that is not a variable, is an ordinary name
    assert str(parse_operator("dy*dd + dx", ["d", "x"], ["dy"])) == "dx2 + dy*dx1"


def test_weight_line_errors():
    with pytest.raises(OperatorSyntaxError):
        parse_problem("vars: x1\nweight: u -1\n")
    from dfan.errors import NotAdmissible
    with pytest.raises(NotAdmissible):
        parse_problem("vars: x1\nweight: u 1 v 0\n")

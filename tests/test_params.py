"""Parameter ring, ideals, and the fraction field Frac(C/Q)."""

from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dfan
from dfan.errors import DenominatorVanishes, DivisionByZeroModQ, NotPrime
from dfan.params import (ParamField, ParamFraction, ParamIdeal, ParamPoly,
                         _cancel, factor_squarefree, multiplier, param_ring,
                         poly_divides, poly_eval, poly_primitive)


def test_poly_arithmetic_basics():
    m = 2
    y1 = ParamPoly.var(m, 0)
    y2 = ParamPoly.var(m, 1)
    p = (y1 + y2) * (y1 - y2)
    assert p == y1 * y1 - y2 * y2
    assert poly_eval(p, (Fraction(3), Fraction(2))) == 5
    assert max(sum(e) for e in y1 ** 3) == 3
    assert not ParamPoly.const(m, 0)


def test_gcd_and_exact_division():
    y = ParamPoly.var(1, 0)
    a = (y + 1) * (y + 1) * y
    b = (y + 1) * y * y
    g = poly_primitive(a.gcd(b))
    assert g == (y + 1) * y
    assert poly_divides(g, a) and poly_divides(g, b)
    assert a.exquo(g) == y + 1
    assert not poly_divides(y + 1, y)


def test_factor_squarefree():
    y = ParamPoly.var(1, 0)
    fs = factor_squarefree(y * y * (y - 1) * 6)
    assert sorted(str(f) for f in fs) == ["y1", "y1 - 1"]
    assert factor_squarefree(ParamPoly.const(1, 5)) == []


def test_multiplier_does_not_depend_on_the_order_of_its_factors():
    """Every order of one run of factors, repeats included, gives one
    h_factors tuple: supports first, then coefficients, so y - 1 and
    y + 1 no longer keep their first-seen order."""
    y = param_ring(["y"]).gens[0]
    runs = {multiplier(y.ring, run) for run in permutations([y + 1, y, y - 1, y + 1])}
    assert runs == {(y ** 3 - y, (y - 1, y + 1, y))}
    a, b = param_ring(["a", "b"]).gens
    factors = [a + 2 * b, a - b, a + b, a, 2 * a - b]
    runs = {multiplier(a.ring, run)[1] for run in permutations(factors)}
    assert runs == {(a - b, 2 * a - b, a + b, a + 2 * b, a)}


def test_param_ideal_membership():
    # <y1^2, y1*y2> contains y1^2*y2 but not y1
    m = 2
    y1 = ParamPoly.var(m, 0)
    y2 = ParamPoly.var(m, 1)
    Q = ParamIdeal(m, [y1 * y1, y1 * y2])
    assert Q.contains(y1 * y1 * y2)
    assert not Q.contains(y1)
    assert ParamIdeal.zero(m).is_zero_ideal()
    assert ParamIdeal(m, [ParamPoly.const(m, 3)]).is_unit_ideal()


def test_fraction_normalization_and_zero_test():
    y = ParamPoly.var(1, 0)
    Q = ParamIdeal(1, [y])
    F = ParamField(1, Q)
    # numerator reduced mod Q: y/(y+1) is zero in Frac(C/(y))
    f = ParamFraction(F, y, y + 1)
    assert not f
    with pytest.raises(DivisionByZeroModQ):
        ParamFraction(F, ParamPoly.const(1, 1), y)


def test_constant_denominators_skip_the_normal_form(monkeypatch):
    """A nonzero constant lies in no proper Q, so constructing over it
    reduces the numerator alone; `zero` and `one` reduce nothing.  The
    representatives are those the full normalization gives (numerator
    reduced, then cancelled), and the unit ideal still rejects every
    denominator."""
    y = ParamPoly.var(1, 0)
    F = ParamField(1, ParamIdeal(1, [y * y - 2]))
    calls = []
    normal_form = ParamIdeal.normal_form
    monkeypatch.setattr(ParamIdeal, "normal_form",
                        lambda self, p: calls.append(p) or normal_form(self, p))
    for num, den in ((y ** 3 + 1, 3), (y - 1, 1), (6 * y, -4), (0, 5)):
        f = ParamFraction(F, F.ring(num), F.ring(den))
        assert calls == [F.ring(num)]
        calls.clear()
        n0 = normal_form(F.q, F.ring(num))
        assert (f.num, f.den) == (_cancel(n0, F.ring(den)) if n0 else (n0, F.ring.one))
    for c, want in ((F.zero, 0), (F.one, 1)):
        assert (c.num, c.den) == (F.ring(want), F.ring.one) and not calls
    unit = ParamField(1, ParamIdeal(1, [y, y - 1]))
    for make in (lambda: unit.one, lambda: unit.zero,
                 lambda: ParamFraction(unit, y, unit.ring(2))):
        with pytest.raises(DivisionByZeroModQ):
            make()


def test_fraction_cancellation():
    F = ParamField(2)
    y1 = ParamPoly.var(2, 0)
    y2 = ParamPoly.var(2, 1)
    f = ParamFraction(F, y1 * y2 + y2, y2 * y2)
    assert str(f) == "(y1 + 1)/y2"
    g = ParamFraction(F, (y1 + 1) * (y1 - 1), y1 + 1)
    assert g == F.from_poly(y1 - 1)


def test_not_prime_detection_is_lazy():
    y = ParamPoly.var(1, 0)
    Q = ParamIdeal(1, [y * (y - 1)])
    F = ParamField(1, Q)
    a = F.from_poly(y)
    b = F.from_poly(y - 1)
    assert a and b
    with pytest.raises(NotPrime):
        a * b


def test_specialize_and_denominator_vanishes():
    F = ParamField(1)
    y = ParamPoly.var(1, 0)
    f = ParamFraction(F, y + 1, y)
    assert f.specialize((Fraction(2),)) == Fraction(3, 2)
    with pytest.raises(DenominatorVanishes):
        f.specialize((Fraction(0),))


small_rats = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _poly(m, coeffs):
    return param_ring(m)({e: c for e, c in coeffs.items() if c})


poly1 = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3)),
    small_rats, max_size=3).map(lambda d: _poly(1, d))


@settings(max_examples=60, deadline=None)
@given(poly1, poly1, poly1)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(poly1, poly1, st.sampled_from([0, 1]))
def test_fraction_field_axioms_mod_q(a, b, which):
    """Field axioms in Frac(Q[y]/(y^2 - 2)) on non-degenerate inputs."""
    y = ParamPoly.var(1, 0)
    Q = ParamIdeal(1, [y * y - 2])
    F = ParamField(1, Q)
    try:
        fa = ParamFraction(F, a, ParamPoly.const(1, 1))
        fb = ParamFraction(F, b, y + 3)  # y+3 invertible mod y^2-2
    except DivisionByZeroModQ:
        return
    assert fa + fb == fb + fa
    assert fa * fb == fb * fa
    assert fa + F.zero == fa
    assert fa * F.one == fa
    assert fa - fa == F.zero
    if fa:
        inv = F.one / fa
        assert fa * inv == F.one
    # distributivity
    fc = F.from_poly(y) if which else F.one
    assert fa * (fb + fc) == fa * fb + fa * fc


# ---------------------------------------------------------------------------
# Differential test of the PolyRing route against the sympy expression route
# (sympy.reduced / gcd / div / factor_list / sqf_list / groebner), which is
# kept here as the reference.
# ---------------------------------------------------------------------------

def _syms(m):
    import sympy
    return sympy.symbols(f"y1:{m+1}") if m else ()


def _to_expr(p):
    import sympy
    expr = sympy.Integer(0)
    for e, c in p.items():
        t = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(_syms(p.ring.ngens), e):
            t *= s ** k
        expr += t
    return expr


def _from_expr(expr, m):
    import sympy
    if m == 0:
        q = sympy.Rational(expr)
        return ParamPoly.const(0, Fraction(q.p, q.q))
    poly = sympy.Poly(expr, *_syms(m), domain="QQ")
    return param_ring(m)({tuple(int(x) for x in mono): Fraction(c.p, c.q)
                          for mono, c in poly.terms()})


def ref_gb(gens, m):
    import sympy
    gens = [g for g in gens if g]
    if not gens:
        return []
    if m == 0 or any(g.is_ground for g in gens):
        return [ParamPoly.const(m, 1)]
    G = sympy.groebner([_to_expr(g) for g in gens], *_syms(m),
                       order="grevlex", domain="QQ")
    out = [poly_primitive(_from_expr(e, m)) for e in G.exprs]
    if any(g.is_ground for g in out):
        return [ParamPoly.const(m, 1)]
    return out


def ref_normal_form(gb, p):
    import sympy
    if not p or not gb:
        return p
    if any(g.is_ground for g in gb):
        return ParamPoly.zero(p.ring.ngens)
    _, r = sympy.reduced(_to_expr(p), [_to_expr(g) for g in gb], *_syms(p.ring.ngens),
                         order="grevlex", domain="QQ")
    return _from_expr(r, p.ring.ngens)


def ref_gcd(a, b):
    import sympy
    g = sympy.gcd(_to_expr(a), _to_expr(b))
    return poly_primitive(_from_expr(g, a.ring.ngens))


def ref_exact_div(b, a):
    import sympy
    q, r = sympy.div(_to_expr(b), _to_expr(a), *_syms(a.ring.ngens), domain="QQ")
    assert r == 0
    return _from_expr(q, b.ring.ngens)


def ref_factor_squarefree(p):
    """Non-constant primitive irreducible factors in sympy's order, each
    once, for any number of parameters."""
    import sympy
    m = p.ring.ngens
    _, fs = sympy.factor_list(_to_expr(p), *_syms(m), domain="QQ")
    out = []
    for f, _mult in fs:
        f = poly_primitive(_from_expr(f, m))
        if not f.is_ground and f not in out:
            out.append(f)
    return out


def _y(m, i):
    return ParamPoly.var(m, i)


# Q in {(0), (y^2 - 2), (y^3 - y - 1)} for m = 1, a two-parameter ideal and
# (0) for m = 2, and the unit ideal for both.
Q_GENS = {
    1: [[], [_y(1, 0) ** 2 - 2], [_y(1, 0) ** 3 - _y(1, 0) - 1],
        [ParamPoly.const(1, 2)]],
    2: [[], [_y(2, 0) ** 2 - 2, _y(2, 1) ** 2 - _y(2, 0)],
        [_y(2, 0) * _y(2, 1) - 1, _y(2, 1) ** 2 - 3],
        [_y(2, 0) - 1, _y(2, 0) + 1]],
}


def poly_m(m, max_deg=3, max_size=4):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_deg)] * m)
    return st.dictionaries(exps, small_rats, max_size=max_size).map(
        lambda d: _poly(m, d))


m_and_polys = st.sampled_from([1, 2]).flatmap(
    lambda m: st.tuples(st.just(m), poly_m(m), poly_m(m), poly_m(m, 2, 3)))


@settings(max_examples=60, deadline=None)
@given(m_and_polys, st.integers(min_value=0, max_value=3))
def test_normal_form_and_gb_match_expression_route(args, qi):
    m, a, b, _c = args
    gens = Q_GENS[m][qi]
    Q = ParamIdeal(m, gens)
    assert Q.gb == ref_gb(gens, m)
    for p in (a, b, a * b):
        assert Q.normal_form(p) == ref_normal_form(Q.gb, p)
        assert Q.contains(p) == (not ref_normal_form(Q.gb, p))


@settings(max_examples=40, deadline=None)
@given(m_and_polys)
def test_gb_of_random_generators_matches_expression_route(args):
    m, a, b, c = args
    gens = [a * c, b]
    assert ParamIdeal(m, gens).gb == ref_gb(gens, m)


@settings(max_examples=60, deadline=None)
@given(m_and_polys)
def test_gcd_and_exact_div_match_expression_route(args):
    m, a, b, c = args
    if not a or not b or not c:
        return
    ac, bc = a * c, b * c
    g = poly_primitive(ac.gcd(bc))
    if not (ac.is_ground or bc.is_ground):
        assert g == ref_gcd(ac, bc)
    assert poly_divides(g, ac) and poly_divides(c, bc)
    if not c.is_ground:
        assert ac.exquo(c) == ref_exact_div(ac, c) == a
    if not g.is_ground:
        assert bc.exquo(g) == ref_exact_div(bc, g)


@settings(max_examples=40, deadline=None)
@given(m_and_polys)
def test_factor_squarefree_matches_expression_route(args):
    m, a, b, c = args
    for p in (a * b, a * a * c, b):
        if p.is_ground:
            assert factor_squarefree(p) == []
        else:
            assert factor_squarefree(p) == ref_factor_squarefree(p)


def test_ring_route_edge_cases():
    # m = 0: only constants; the unit ideal reduces everything to 0
    Z0 = ParamIdeal(0, [])
    five = ParamPoly.const(0, 5)
    assert Z0.is_zero_ideal() and Z0.normal_form(five) == five
    U0 = ParamIdeal(0, [ParamPoly.const(0, 3)])
    assert U0.is_unit_ideal() and U0.contains(five)
    assert poly_primitive(five.gcd(ParamPoly.const(0, 2))) == ParamPoly.const(0, 1)
    assert factor_squarefree(five) == []
    assert ParamField(0).one * 2 == ParamField(0).coerce(2)
    # generators whose GB is {1} are normalized to the unit ideal
    y = _y(1, 0)
    U1 = ParamIdeal(1, [y, y - 1])
    assert U1.is_unit_ideal() and U1.gb == ref_gb([y, y - 1], 1)
    assert not U1.normal_form(y ** 3 + 2)
    # the zero polynomial
    Q = ParamIdeal(1, [y * y - 2])
    assert not Q.normal_form(ParamPoly.zero(1))
    assert poly_primitive(ParamPoly.zero(1).gcd(2 * y + 2)) == y + 1
    assert ParamPoly.zero(1).exquo(y) == ParamPoly.zero(1)


def test_coerce_keeps_fractions_of_an_equal_field():
    y = _y(1, 0)
    F = ParamField(1, ParamIdeal(1, [y * y - 2]))
    f = ParamFraction(F, y + 1, y)
    assert F.coerce(f) is f
    G = ParamField(1, ParamIdeal(1, [2 * y * y - 4]))
    assert G == F and G.coerce(f) is f
    # another field: rebuilt, and renormalized modulo its own ideal
    H = ParamField(1, ParamIdeal(1, [y * y - 3]))
    h = H.coerce(ParamField(1).from_poly(y * y))
    assert h.field is H and h.num == ParamPoly.const(1, 3)


def test_parameter_names_live_on_the_ring():
    R = param_ring(["a", "b"])
    a, b = R.gens
    F = ParamField(R, ParamIdeal(R, [a * a - 2]))
    assert str(F.from_poly(a * b - 1) / F.from_poly(b)) == "(a*b - 1)/b"
    assert str(F.q) == "<a^2 - 2>" and param_ring(R) is R
    assert [str(s) for s in param_ring(["a:c", "b"]).symbols] == ["a:c", "b"]
    assert poly_primitive(Fraction(-2, 3) * a - 4) == a + 6
    assert str(ParamField(2).from_poly(ParamPoly.var(2, 1) ** 2)) == "y2^2"
    with pytest.raises(ValueError):
        ParamIdeal(2, [a])
    with pytest.raises(ValueError):
        ParamField(2, F.q)


def test_no_expression_bridge_in_src():
    """The parameter ring runs on PolyRing elements; the sympy expression
    bridge, a converter to a second polynomial type and the mutable display
    names must not come back."""
    for path in sorted(Path(dfan.__file__).parent.glob("*.py")):
        text = path.read_text()
        for name in ("sympy.reduced", "_to_sympy", "_from_sympy", "_to_ring",
                     "_from_ring", "PARAM_DISPLAY", "set_param_display"):
            assert name not in text, f"{name} in {path.name}"


def test_foreign_ring_polynomial_is_rejected():
    F = ParamField(1)
    a = param_ring(["a"]).gens[0]
    for build in (F.from_poly, F.coerce, lambda p: F.one + p,
                  lambda p: ParamFraction(F, p, F.ring.one),
                  lambda p: ParamFraction(F, F.ring.one, p)):
        with pytest.raises(ValueError, match="parameter ring mismatch"):
            build(a)
    with pytest.raises(ValueError, match="parameter ring mismatch"):
        ParamFraction(ParamField(1), param_ring(["a"]).gens[0], ParamField(1).ring.one)
    assert F.from_poly(param_ring(1).gens[0]) == F.coerce(ParamPoly.var(1, 0))

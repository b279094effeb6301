"""Constancy certificates, stratification, and parameter sampling."""

from fractions import Fraction

import pytest

from conftest import (h_vanishes_at, qop, rationals_by_height, same_cone,
                      sample_points, stratum_contains, stratum_for)
import dfan.newton as newton_module
import dfan.parametric as parametric_module
from dfan.errors import DenominatorVanishes, ZeroOperator
from dfan.fan import enumerate_fan
from dfan.operators import HOperator, exponent
from dfan.orders import OrderSpec
from dfan.params import (ParamField, ParamIdeal, ParamPoly, factor_squarefree,
                         multiplier, poly_eval, poly_primitive, poly_str)
from dfan.parametric import (comprehensive_fan, constant_fan_certificate,
                             newton_stability_multiplier, specialize_ideal)
from dfan.parsing import parse_problem


def _param_airy(F1, y):
    # dx1^2 - y x1 z^2, homogeneous of level 2
    return HOperator(1, F1, {exponent(1, beta=[2]): F1.one,
                             exponent(1, alpha=[1], k=2): -F1.from_poly(y)})


def test_newton_stability_multiplier_vertex_coeffs(F1):
    y = ParamPoly.var(1, 0)
    g = _param_airy(F1, y)
    factors = newton_stability_multiplier(g)
    assert any(f == y for f in factors)  # coefficient on the x1 z^2 vertex


def test_certificate_for_parametric_airy(F1):
    y = ParamPoly.var(1, 0)
    Q = ParamIdeal(1, [])
    g = _param_airy(F1, y)
    cert = constant_fan_certificate([g], Q, cap=8)
    assert cert.h == y
    assert len(cert.fan.cells) == 4
    assert stratum_contains(cert, (Fraction(2),))
    assert not stratum_contains(cert, (Fraction(0),))
    # off V(h): specialized fans agree cellwise with the certified fan
    for y0 in ((Fraction(1),), (Fraction(-1, 2),), (Fraction(3),)):
        spec = enumerate_fan([g.specialize(y0)], cap=8)
        assert len(spec.cells) == len(cert.fan.cells)
        for c in cert.fan.cells:
            match = [d for d in spec.cells if same_cone(d.cone, c.cone)]
            assert len(match) == 1
            assert [b.specialize(y0) for b in c.basis] == match[0].basis


def test_certificate_builds_each_basis_polyhedron_once(F1, monkeypatch):
    """cell_at and the Newton stability factors share one polyhedron per
    basis operator, and cells that share a basis share its operators.
    Polyhedra are counted as they are constructed: `vertex_set` also runs
    on each cell's face sums."""
    built = []

    class Counted(newton_module.NewtonPolyhedron):
        __slots__ = ()

        def __init__(self, n, vertices):
            built.append(n)
            super().__init__(n, vertices)

    monkeypatch.setattr(newton_module, "NewtonPolyhedron", Counted)
    g = _param_airy(F1, ParamPoly.var(1, 0))
    cert = constant_fan_certificate([g], ParamIdeal(1, []), cap=8)
    operators = {id(b) for c in cert.fan.cells for b in c.basis}
    assert len(built) == len(operators) > 0
    b = cert.fan.cells[0].basis[0]
    assert newton_module.newton(b) is newton_module.newton(b)


@pytest.mark.parametrize("text, cells, operators", [
    ("params: y\nvars: x1\ncap: 8\nideal: dx1^2 - y*x1*z^2\n", 4, 1),
    ("params: y\nvars: x1 x2\ncap: 5\nideal: 2*y*x2 - x1*x2 + x1\n", 24, 2),
    ("params: y\nvars: x1\ncap: 6\nqideal: y^2 - 2\n"
     "ideal: dx1^2 - 3*y*x1*z^2 - x1*z\n", 4, 1),
], ids=["airy", "series", "airy_sqrt2"])
def test_certificate_reads_each_basis_operator_once(text, cells, operators,
                                                    monkeypatch):
    """The certificate factors the vertex coefficients of each distinct
    operator once, whether cells share one basis (airy, series) or complete
    equal operators apart (the non-graded airy_sqrt2); h is the one a walk
    over every cell's basis gives."""
    calls = []
    stability = parametric_module.newton_stability_multiplier
    monkeypatch.setattr(parametric_module, "newton_stability_multiplier",
                        lambda g: calls.append(g) or stability(g))
    prob = parse_problem(text)
    cert = constant_fan_certificate(prob.generators, prob.q_ideal, prob.cap)
    assert len(cert.fan.cells) == cells
    assert len(calls) == operators
    assert all(g != h for i, g in enumerate(calls) for h in calls[:i])
    factors = []
    for cell in cert.fan.cells:
        factors += cell.h_factors
        for g in cell.basis:
            factors += stability(g)
    assert (cert.h, cert.h_factors) == multiplier(prob.q_ideal.ring, factors)


def test_certificate_rejects_unit_q():
    y = ParamPoly.var(1, 0)
    one = ParamPoly.const(1, 1)
    Q = ParamIdeal(1, [one])
    F = ParamField(1)
    g = HOperator(1, F, {exponent(1, beta=[1]): F.one})
    with pytest.raises(ValueError):
        constant_fan_certificate([g], Q, cap=6)
    with pytest.raises(ZeroOperator):
        constant_fan_certificate([], ParamIdeal(1, []), cap=6)


def test_homogenization_commutes_staircase(F1):
    """h(specialized ideal) and specialized h(I) have the same staircase at
    allowed points."""
    from dfan.fan import homogenized_generators
    from dfan.standard import standard_basis

    y = ParamPoly.var(1, 0)
    a = HOperator(1, F1, {exponent(1, alpha=[1], beta=[1]): F1.one,
                          exponent(1, alpha=[1]): F1.from_poly(y)})
    b = HOperator(1, F1, {exponent(1, beta=[2]): F1.one})
    hom, _ = homogenized_generators([a, b], cap=8)
    order = OrderSpec(1)
    for y0 in ((Fraction(1),), (Fraction(-3),), (Fraction(2, 5),)):
        spec_then_hom, _ = homogenized_generators(
            [a.specialize(y0), b.specialize(y0)], cap=8)
        hom_then_spec = [g.specialize(y0) for g in hom]
        s1 = standard_basis(spec_then_hom, order, cap=8).staircase
        s2 = standard_basis(hom_then_spec, order, cap=8).staircase
        assert s1 == s2


def test_comprehensive_fan_two_strata(F1):
    y = ParamPoly.var(1, 0)
    g = _param_airy(F1, y)
    Q = ParamIdeal(1, [])
    comp = comprehensive_fan([g], Q, cap=8)
    strata = comp.strata()
    assert len(strata) == 2
    root = comp.root
    assert root.h == y and not root.q_ideal.gb
    child = root.children[0]
    assert list(child.q_ideal.gb) == [y]
    # every sampled point lands in exactly one stratum
    for y0 in [(q,) for q in (Fraction(0), Fraction(1), Fraction(-2),
                              Fraction(1, 3))]:
        holders = [s for s in strata
                   if all(poly_eval(p, y0) == 0 for p in s.q_ideal.gb)
                   and not h_vanishes_at(s.certificate, y0)]
        assert len(holders) == 1
        assert stratum_for(comp, y0) is holders[0]


def _is_squarefree(h):
    return poly_primitive(h.sqf_part()) == poly_primitive(h)


def test_two_parameter_strata_are_prime_and_every_h_squarefree():
    """With two parameters the root's h = a*b*(b - 1) opens the three prime
    strata (a), (b) and (b - 1), where square-free factoring once opened
    the stratum (a*b - a), which is not prime.  Each child from Q = (0) is
    principal with an irreducible generator, and every multiplier, of a
    stratum or of a cell, is square-free."""
    prob = parse_problem("params: a b\nvars: x1\ncap: 8\n"
                         "ideal: (a*b - a)*dx1^2 - b*x1*z^2 + x1*z\n")
    comp = comprehensive_fan(prob.generators, prob.q_ideal, prob.cap)
    root = comp.root
    assert poly_str(root.h) == "a*b^2 - a*b"
    children = [c.q_ideal.gb for c in root.children]
    assert sorted(poly_str(g) for g, in children) == ["a", "b", "b - 1"]
    for (g,) in children:
        assert factor_squarefree(g) == [g]
    for s in comp.strata():
        assert _is_squarefree(s.h)
        assert all(_is_squarefree(c.h) for c in s.certificate.fan.cells)


def test_specialize_ideal_and_denominator_guard(F1):
    y = ParamPoly.var(1, 0)
    c = F1.one / F1.from_poly(y)
    g = HOperator(1, F1, {exponent(1, beta=[1]): c})
    assert specialize_ideal([g], (Fraction(2),))[0] == qop(
        1, {((0,), (1,), 0): Fraction(1, 2)})
    with pytest.raises(DenominatorVanishes):
        specialize_ideal([g], (Fraction(0),))


def test_rationals_by_height_order_and_uniqueness():
    it = rationals_by_height()
    first = [next(it) for _ in range(11)]
    F = Fraction
    assert first == [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2),
                     F(3), F(-3), F(3, 2), F(-3, 2)]
    seen = set(first)
    for _ in range(200):
        q = next(it)
        assert q not in seen
        seen.add(q)


def test_sample_points_respects_q_and_avoid():
    y = ParamPoly.var(1, 0)
    pts = sample_points(1, avoid=y * (y - 1), num=6)
    assert len(pts) == 6
    for p in pts:
        assert p[0] not in (0, 1)
    Q = ParamIdeal(1, [y - 2])
    on_q = sample_points(1, Q=Q, num=1)
    assert on_q == [(Fraction(2),)]

"""Constancy certificates, stratification, and parameter sampling."""

from fractions import Fraction

import pytest

from conftest import qop
from dfan.errors import DenominatorVanishes, ZeroOperator
from dfan.fan import enumerate_fan, grid_weights
from dfan.operators import HOperator, exponent
from dfan.orders import OrderSpec, Weight
from dfan.params import ParamField, ParamIdeal, ParamPoly, poly_eval
from dfan.parametric import (ComprehensiveFan, common_refinement,
                             comprehensive_fan, constant_fan_certificate,
                             homogenization_commutes,
                             newton_stability_multiplier, rationals_by_height,
                             sample_points, specialize_ideal)


def _param_airy(F1, y):
    # dx1^2 - y x1 z^2, homogeneous of level 2
    return HOperator(1, F1, {exponent(1, beta=[2]): F1.one,
                             exponent(1, alpha=[1], k=2): -F1.from_poly(y)})


def test_newton_stability_multiplier_vertex_coeffs(F1):
    y = ParamPoly.var(1, 0)
    g = _param_airy(F1, y)
    factors = newton_stability_multiplier(g)
    assert any(f == y for f in factors.values())  # coefficient on the x1 z^2 vertex


def test_certificate_for_parametric_airy(F1):
    y = ParamPoly.var(1, 0)
    Q = ParamIdeal(1, [], claimed_prime=True)
    g = _param_airy(F1, y)
    cert = constant_fan_certificate([g], Q, cap=8)
    assert cert.h == y
    assert len(cert.fan.cells) == 4
    assert cert.stratum_contains((Fraction(2),))
    assert not cert.stratum_contains((Fraction(0),))
    # off V(h): specialized fans agree cellwise with the certified fan
    for y0 in ((Fraction(1),), (Fraction(-1, 2),), (Fraction(3),)):
        spec = enumerate_fan([g.specialize(y0)], cap=8)
        assert len(spec.cells) == len(cert.fan.cells)
        for c in cert.fan.cells:
            match = [d for d in spec.cells if d.cone.same_cone(c.cone)]
            assert len(match) == 1
            assert [b.specialize(y0) for b in c.basis] == match[0].basis


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
    from dfan.fan import homogenized_generators, t_order
    from dfan.orders import leading_data
    from dfan.standard import standard_basis

    y = ParamPoly.var(1, 0)
    a = HOperator(1, F1, {exponent(1, alpha=[1], beta=[1]): F1.one,
                          exponent(1, alpha=[1]): F1.from_poly(y)})
    b = HOperator(1, F1, {exponent(1, beta=[2]): F1.one})
    Q = ParamIdeal(1, [], claimed_prime=True)
    hom, factors = homogenization_commutes([a, b], Q, cap=8)
    order = OrderSpec(1)
    for y0 in ((Fraction(1),), (Fraction(-3),), (Fraction(2, 5),)):
        spec_then_hom = homogenized_generators(
            [a.specialize(y0), b.specialize(y0)], cap=8)
        hom_then_spec = [g.specialize(y0) for g in hom]
        s1 = standard_basis(spec_then_hom, order, cap=8).staircase
        s2 = standard_basis(hom_then_spec, order, cap=8).staircase
        assert s1 == s2


def test_comprehensive_fan_two_strata(F1):
    y = ParamPoly.var(1, 0)
    g = _param_airy(F1, y)
    Q = ParamIdeal(1, [], claimed_prime=True)
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
                   and not s.certificate.h_vanishes_at(y0)]
        assert len(holders) == 1
        assert comp.stratum_for(y0) is holders[0]


def test_common_refinement_covers_grid():
    a = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})
    b = qop(1, {((1,), (1,), 0): 1})
    fa = enumerate_fan([a], cap=8)
    fb = enumerate_fan([b], cap=8)
    cones = common_refinement([fa, fb])
    assert len(cones) >= max(len(fa.cells), len(fb.cells))
    for w in grid_weights(1, denominators=(1, 2), span=2):
        assert sum(1 for c in cones if c.contains(w.as_tuple())) == 1


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

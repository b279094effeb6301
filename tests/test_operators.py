"""The homogenized operator ring: normal ordering, grading, caps, taint."""

from fractions import Fraction
from itertools import product
from math import comb, perm, prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import qop, random_qop
from dfan.operators import Exponent, HOperator, exponent, homogenize, term_product
from dfan.orders import OrderSpec, leading_data
from dfan.params import QQ_FIELD, ParamField, ParamIdeal, ParamPoly


def levels(p):
    """The grading degrees of the terms of p."""
    return {e.level for e in p.terms}


def apply_to_poly(p, f):
    """Action of p, with z = 1, on a commutative polynomial in x (dict
    alpha -> Fraction)."""
    out = {}
    for e, c in p.terms.items():
        for g, cg in f.items():
            mult = prod(perm(gi, bi) for gi, bi in zip(g, e.beta))
            if not mult:
                continue
            tgt = tuple(gi - bi + ai for gi, bi, ai in zip(g, e.beta, e.alpha))
            s = out.get(tgt, Fraction(0)) + c * cg * mult
            if s:
                out[tgt] = s
            else:
                out.pop(tgt, None)
    return out


def substitute_z_one(p):
    """Project z -> 1, merging (alpha, beta, k) -> (alpha, beta, 0) in term
    order."""
    out = {}
    for e, c in p.terms.items():
        t = Exponent(e.alpha, e.beta, 0)
        if t not in out:
            out[t] = c
        elif out[t] + c:
            out[t] = out[t] + c
        else:
            del out[t]
    return HOperator(p.n, p.field, out, cap=p.cap, tainted=p.tainted)


def test_basic_commutation_relation():
    # dx1 * x1 = x1*dx1 + z
    x = qop(1, {((1,), (0,), 0): 1})
    dx = qop(1, {((0,), (1,), 0): 1})
    assert dx * x == qop(1, {((1,), (1,), 0): 1, ((0,), (0,), 1): 1})
    # other variables commute
    x2 = qop(2, {((0, 1), (0, 0), 0): 1})
    dx1 = qop(2, {((0, 0), (1, 0), 0): 1})
    assert dx1 * x2 == x2 * dx1


def test_higher_commutation_coefficients():
    # dx^2 * x^2 = x^2 dx^2 + 4 x dx z + 2 z^2
    x2 = qop(1, {((2,), (0,), 0): 1})
    dx2 = qop(1, {((0,), (2,), 0): 1})
    expect = qop(1, {((2,), (2,), 0): 1, ((1,), (1,), 1): 4, ((0,), (0,), 2): 2})
    assert dx2 * x2 == expect


def test_product_preserves_grading(rng):
    for _ in range(40):
        n = rng.randint(1, 2)
        a = random_qop(rng, n, 3)
        b = random_qop(rng, n, 3)
        p = a * b
        # every product term keeps the sum of the factor levels
        sums = {ea.level + eb.level for ea in a.terms for eb in b.terms}
        assert all(e.level in sums for e in p.terms)
        if len(levels(a)) == len(levels(b)) == 1 and not p.is_zero():
            assert levels(p) == sums


def test_leading_exponent_additivity(rng):
    order = OrderSpec(2)
    for _ in range(60):
        a = random_qop(rng, 2, 3)
        b = random_qop(rng, 2, 3)
        if a.is_zero() or b.is_zero():
            continue
        p = a * b
        assert not p.is_zero()  # domain: no zero divisors
        ea = leading_data(a, order)[0]
        eb = leading_data(b, order)[0]
        ep = leading_data(p, order)[0]
        assert ep == ea + eb


def test_associativity(rng):
    for _ in range(20):
        a = random_qop(rng, 2, 2, maxdeg=2)
        b = random_qop(rng, 2, 2, maxdeg=2)
        c = random_qop(rng, 2, 2, maxdeg=2)
        assert (a * b) * c == a * (b * c)


def test_homogenize():
    # x1*dx1^2 + dx1 + 1 -> x1*dx1^2 + dx1*z + z^2
    p = qop(1, {((1,), (2,), 0): 1, ((0,), (1,), 0): 1, ((0,), (0,), 0): 1})
    h = homogenize(p)
    assert h == qop(1, {((1,), (2,), 0): 1, ((0,), (1,), 1): 1, ((0,), (0,), 2): 1})
    assert levels(h) == {2}
    with pytest.raises(ValueError):
        homogenize(h)  # already involves z


def test_cap_discard_sets_taint():
    x = qop(1, {((1,), (0,), 0): 1})
    p = HOperator(1, QQ_FIELD, dict((x * x * x).terms), cap=2)
    assert p.is_zero() and p.tainted
    q = HOperator(1, QQ_FIELD, (x + qop(1, {((0,), (0,), 0): 1})).terms, cap=1)
    r = q * q  # x^2 discarded at cap 1
    assert r.tainted and exponent(1, alpha=[2]) not in r.terms
    assert r.terms[exponent(1, alpha=[1])] == 2


def test_truncated_and_window_exactness():
    x = qop(1, {((1,), (0,), 0): 1})
    one = qop(1, {((0,), (0,), 0): 1})
    p = (x + one) * (x + one) * (x + one)
    t = p.truncated(2)
    assert t.tainted
    assert t.terms[exponent(1, alpha=[2])] == 3
    assert not p.truncated(3).tainted


def test_action_on_polynomials_is_a_ring_morphism(rng):
    """(P*Q) f = P (Q f) with z = 1: the product law is the operator law."""
    for _ in range(25):
        a = random_qop(rng, 2, 2, maxdeg=2, maxk=1)
        b = random_qop(rng, 2, 2, maxdeg=2, maxk=1)
        f = {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(1, 4))
             for _ in range(3)}
        lhs = apply_to_poly(a * b, f)
        rhs = apply_to_poly(a, apply_to_poly(b, f))
        assert lhs == rhs


def test_str_roundtrip_through_parser():
    from dfan.parsing import parse_operator
    p = qop(2, {((1, 0), (0, 2), 1): Fraction(-3, 2), ((0, 0), (0, 0), 0): 5})
    q = parse_operator(str(p), ["x1", "x2"])
    assert q == p


_Y = ParamPoly.var(1, 0)
KERNEL_FIELDS = (QQ_FIELD, ParamField(1),
                 ParamField(1, ParamIdeal(1, [_Y * _Y - 2])))


@st.composite
def _kernel_case(draw):
    """(n, e, c, g, cap): a term c*x^a dx^b z^k and an operator g over QQ,
    Frac(Q[y]) or Frac(Q[y]/(y^2 - 2)), exponents up to 3."""
    n = draw(st.sampled_from((1, 2)))
    field = draw(st.sampled_from(KERNEL_FIELDS))
    small = st.integers(0, 3)
    exps = st.builds(Exponent, st.tuples(*[small] * n), st.tuples(*[small] * n), small)
    if field is QQ_FIELD:
        coeffs = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    else:
        ring = field.ring
        dens = st.sampled_from((ring.one, ring(2), _Y, _Y + 2))
        coeffs = st.builds(
            lambda a, b, d: field.from_poly(a + b * _Y) / field.from_poly(d),
            st.integers(-3, 3), st.integers(-2, 2), dens)
    e = draw(exps)
    c = draw(coeffs.filter(bool))
    g = HOperator(n, field, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4)))
    cap = draw(st.one_of(st.none(), st.integers(0, 6)))
    return n, e, c, g, cap


def double_loop_product(p, q):
    """Reference product: each term pair of p and q expanded by the Leibniz
    rule dx^b x^a = sum_j C(b,j) a!/(a-j)! x^(a-j) dx^(b-j) z^j
    coordinatewise, summed pair by pair (terms of p outermost), truncated at
    the smaller cap; tainted when a factor is or the cap cut a term."""
    caps = [c for c in (p.cap, q.cap) if c is not None]
    cap = min(caps) if caps else None
    out = {}
    discarded = False
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            base = c1 * c2
            lims = tuple(map(min, e1.beta, e2.alpha))
            for j in product(*(range(l + 1) for l in lims)):
                alpha = tuple(a1 + a2 - i for a1, a2, i in zip(e1.alpha, e2.alpha, j))
                if cap is not None and sum(alpha) > cap:
                    discarded = True
                    continue
                beta = tuple(b1 + b2 - i for b1, b2, i in zip(e1.beta, e2.beta, j))
                e = Exponent(alpha, beta, e1.k + e2.k + sum(j))
                mult = prod(comb(b, i) * perm(a, i)
                            for b, a, i in zip(e1.beta, e2.alpha, j))
                c = base * mult if mult != 1 else base
                if e not in out:
                    out[e] = c
                elif out[e] + c:
                    out[e] = out[e] + c
                else:
                    del out[e]
    return HOperator(p.n, p.field, out, cap=cap,
                     tainted=p.tainted or q.tainted or discarded)


def _same_terms(terms, op):
    """Equal terms, with the same representatives (same order of sums)."""
    return (terms.keys() == op.terms.keys()
            and all(str(tc) == str(op.terms[te]) for te, tc in terms.items()))


@settings(max_examples=300, deadline=None)
@given(_kernel_case())
def test_term_product_matches_general_product(case):
    """The term kernel against the double-loop product of a one-term
    operator, in the homogenized ring and through substitute_z_one in the
    z = 1 quotient: the same terms, and a discarded term exactly when the
    product is tainted."""
    n, e, c, g, cap = case
    m = HOperator.monomial(n, g.field, e, c, cap=cap)
    for z_one in (False, True):
        ref = double_loop_product(m, g)
        if z_one:
            ref = substitute_z_one(ref)
        terms, discarded = term_product(e, c, g, cap, z_one=z_one)
        assert _same_terms(terms, ref)
        assert discarded == ref.tainted


def _random_operator(rng, n, field, cap):
    """Up to four terms, exponents up to 2 and k up to 1 so that products
    collide (the sum order then shows in Frac(C/Q) representatives); the
    coefficients may all be zero."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        e = Exponent(tuple(rng.randint(0, 2) for _ in range(n)),
                     tuple(rng.randint(0, 2) for _ in range(n)), rng.randint(0, 1))
        if field is QQ_FIELD:
            terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        else:
            d = rng.choice((field.ring.one, field.ring(2), _Y, _Y + 2))
            terms[e] = (field.from_poly(rng.randint(-3, 3) + rng.randint(-2, 2) * _Y)
                        / field.from_poly(d))
    return HOperator(n, field, terms, cap=cap)


def test_product_matches_double_loop(rng):
    """HOperator.__mul__ sums term_product's rows over the terms of its left
    factor: the same terms as the double loop, with the same coefficient
    strings, the same cap and the same taint, over QQ and over
    Frac(Q[y]/(y^2 - 2)), with and without caps, zero factors included."""
    for field in (QQ_FIELD, KERNEL_FIELDS[2]):
        for _ in range(400):
            n = rng.choice((1, 1, 2))
            p, q = (_random_operator(rng, n, field, rng.choice((None, 1, 3, 5)))
                    for _ in range(2))
            ref = double_loop_product(p, q)
            got = p * q
            assert _same_terms(ref.terms, got)
            assert (got.cap, got.tainted) == (ref.cap, ref.tainted)


def test_product_with_zero_is_untainted():
    """A left term above the cap of a zero right factor cuts nothing in the
    product, though term_product reports the term itself as cut; above the
    cap of a nonzero factor it cuts every row."""
    e = exponent(1, alpha=[3], beta=[1])
    m = HOperator.monomial(1, QQ_FIELD, e)
    zero = HOperator.zero(1, QQ_FIELD, cap=1)
    got = m * zero
    assert got.is_zero() and not got.tainted and got.cap == 1
    assert not double_loop_product(m, zero).tainted
    assert term_product(e, Fraction(1), zero, 1) == ({}, True)
    one = HOperator(1, QQ_FIELD, {exponent(1): Fraction(1)}, cap=1)
    assert term_product(e, Fraction(1), one, 1) == ({}, True)
    assert (m * one).is_zero() and (m * one).tainted

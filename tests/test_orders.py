"""Admissible weights and term orders: axioms and leading data."""

from fractions import Fraction
from functools import cmp_to_key, partial
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import admissible_by_fractions, compare_by_rules, qop
from dfan.errors import NotAdmissible, ZeroOperator
from dfan.operators import Exponent, exponent
from dfan.orders import (OrderSpec, Weight, in_w, leading_data, w_forms,
                         w_values)
from dfan.params import ParamField, ParamIdeal, ParamPoly


def rand_exp(rng, n, maxdeg=4, maxk=3):
    return Exponent(tuple(rng.randint(0, maxdeg) for _ in range(n)),
                    tuple(rng.randint(0, maxdeg) for _ in range(n)),
                    rng.randint(0, maxk))


def rand_weight(rng, n):
    u = tuple(Fraction(-rng.randint(0, 3), rng.randint(1, 3)) for _ in range(n))
    v = tuple(-ui + Fraction(rng.randint(0, 4), rng.randint(1, 3)) for ui in u)
    return Weight.make(u, v)


def key_compare(order, a, b):
    """-1, 0 or 1 as the order's integer keys of a and b compare."""
    key = order.key()
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


def test_weight_admissibility():
    assert Weight.make((-1, 0), (2, 0)).is_admissible()
    assert not Weight.make((1,), (0,)).is_admissible()
    assert not Weight.make((-2,), (1,)).is_admissible()
    with pytest.raises(NotAdmissible):
        Weight.make((1,), (0,)).check_admissible()
    with pytest.raises(NotAdmissible):
        OrderSpec(1, weights=(Weight.make((1,), (0,)),))


def test_order_is_total_and_antisymmetric(rng):
    for n in (1, 2):
        order = OrderSpec(n, weights=(rand_weight(rng, n),))
        for _ in range(200):
            a, b = rand_exp(rng, n), rand_exp(rng, n)
            ca, cb = key_compare(order, a, b), key_compare(order, b, a)
            assert ca == -cb
            assert (ca == 0) == (a == b)


def test_order_compatible_with_addition(rng):
    for n in (1, 2):
        order = OrderSpec(n, weights=(rand_weight(rng, n),))
        for _ in range(200):
            a, b, c = rand_exp(rng, n), rand_exp(rng, n), rand_exp(rng, n)
            assert key_compare(order, a + c, b + c) == key_compare(order, a, b)


def test_local_axioms():
    """x_i below 1; x_i * dx_i above 1 (z-compensated at equal level)."""
    for n in (1, 2):
        order = OrderSpec(n)
        one = exponent(n)
        z = exponent(n, k=1)
        for i in range(n):
            xi = exponent(n, alpha=[0] * i + [1])
            xidxi = exponent(n, alpha=[0] * i + [1], beta=[0] * i + [1])
            assert key_compare(order, xi, one) < 0
            assert key_compare(order, xidxi, z) > 0


def test_homogenized_order_compares_level_first(rng):
    order = OrderSpec(1)
    lo = exponent(1, alpha=[5], beta=[1])   # level 1
    hi = exponent(1, beta=[1], k=1)         # level 2
    assert key_compare(order, hi, lo) > 0


def test_weight_refinement_changes_leader():
    order = OrderSpec(1)
    p = qop(1, {((0,), (1,), 0): 1, ((2,), (1,), 0): 1})   # dx1 + x1^2 dx1
    assert leading_data(p, order)[0] == exponent(1, beta=[1])
    w = Weight.make((-1,), (1,))
    assert (leading_data(p, order.with_weight(w))[0]
            == exponent(1, beta=[1]))  # x1^2 dx1 has lower w-value
    w2 = Weight.make((0,), (1,))
    # with u = 0 the weights tie and the base order still prefers dx1
    assert leading_data(p, order.with_weight(w2))[0] == exponent(1, beta=[1])


def test_xprio_controls_lex_tiebreak():
    # x2 > x1: between x1 and x2 (same degree) x2 wins
    order = OrderSpec(2, xprio=(1, 0))
    e1 = exponent(2, alpha=[1, 0])
    e2 = exponent(2, alpha=[0, 1])
    assert key_compare(order, e2, e1) > 0
    order_flip = OrderSpec(2, xprio=(0, 1))
    assert key_compare(order_flip, e2, e1) < 0


def test_leading_data_and_mod_q():
    from dfan.operators import HOperator
    y = ParamPoly.var(1, 0)
    Q = ParamIdeal(1, [y])
    F = ParamField(1)  # q = (0): the y-coefficient stays visible
    order = OrderSpec(1)
    # y*dx1 + x1: the dx1 term leads over Frac(C) and vanishes modulo Q
    p = HOperator(1, F, {exponent(1, beta=[1]): F.from_poly(y),
                         exponent(1, alpha=[1]): F.one})
    assert leading_data(p, order)[0] == exponent(1, beta=[1])
    pq = p.to_field(ParamField(1, Q))
    assert leading_data(pq, order) == (exponent(1, alpha=[1]), 1)
    with pytest.raises(ZeroOperator):
        leading_data(qop(1, {}), order)
    yonly = HOperator(1, F, {exponent(1): F.from_poly(y)})
    assert yonly.to_field(ParamField(1, Q)).is_zero()


def test_activity():
    w = Weight.make((0, -1), (1, 1))
    u0, uv0 = w.activity()
    assert u0 == frozenset({0})
    assert uv0 == frozenset({1})


def activity_by_fractions(w):
    """`Weight.activity` stated on the Fraction coordinates."""
    return (frozenset(i for i, a in enumerate(w.u) if a == 0),
            frozenset(i for i, (a, b) in enumerate(zip(w.u, w.v)) if a + b == 0))


def integer_form_by_fractions(w):
    """`Weight.integer_form` stated on the Fraction coordinates."""
    d = lcm(*(c.denominator for c in w.u + w.v))
    return (tuple(int(a * d) for a in w.u), tuple(int(b * d) for b in w.v))


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# zero often, so that W constraints are often active
coords = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def any_weight(draw):
    """A weight in 1-3 variables, admissible or not, with u_i = 0 and
    u_i + v_i = 0 often."""
    n = draw(st.integers(min_value=1, max_value=3))
    u = [draw(coords) for _ in range(n)]
    return Weight.make(u, [draw(coords) - a for a in u])


@settings(max_examples=500, deadline=None)
@given(any_weight())
def test_integer_vector_matches_the_fraction_formulas(w):
    """The cached integer vector is (u, v) times the lcm of its
    denominators, and admissibility, activity and the integer form read on
    it equal their Fraction statements."""
    assert w.den == lcm(*(c.denominator for c in w.as_tuple())) > 0
    assert all(type(c) is int for c in w.ivec)
    assert [Fraction(c, w.den) for c in w.ivec] == list(w.as_tuple())
    assert w.is_admissible() == admissible_by_fractions(w)
    assert w.activity() == activity_by_fractions(w)
    assert w.integer_form() == integer_form_by_fractions(w)
    assert all(type(c) is int for part in w.integer_form() for c in part)


def test_integer_vector_is_computed_once():
    w = Weight.make((Fraction(-1, 2), 0), (Fraction(5, 6), 1))
    assert w.ivec is w.ivec and w.ivec == (-3, 0, 5, 6) and w.den == 6
    assert w == Weight.make((Fraction(-1, 2), 0), (Fraction(5, 6), 1))


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
           st.integers(-12, 12), min_size=2 * n, max_size=2 * n)),
       st.integers(1, 12), st.integers(1, 6))
def test_weight_over_matches_make(vec, den, k):
    """`Weight.over` on any positive multiple (k vec, k den) of an integer
    vector over a denominator, coprime or not, is the weight `Weight.make`
    builds from the Fraction coordinates vec / den: equal, with the same
    hash and str, and both canonical."""
    n = len(vec) // 2
    coords = [Fraction(c, den) for c in vec]
    w = Weight.over([k * c for c in vec], k * den)
    ref = Weight.make(coords[:n], coords[n:])
    assert w == ref and hash(w) == hash(ref) and str(w) == str(ref)
    for x in (w, ref):
        assert all(type(c) is int for c in (*x.ivec, x.den))
        assert x.den > 0 and gcd(x.den, *x.ivec) == 1
        assert x.as_tuple() == tuple(coords)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
           st.integers(-3, 3), min_size=2 * n, max_size=2 * n)))
def test_w_forms_state_in_w_and_activity(vec):
    """The 2n forms of W are -u_i, then u_i + v_i, and `w_values` gives
    their values: a vector is in W exactly when none is negative, and the
    W constraints active at a weight are the forms that vanish on it, -u_i
    for the first set and u_i + v_i for the second."""
    n = len(vec) // 2
    forms = w_forms(n)
    assert len(forms) == 2 * n and all(len(g) == 2 * n for g in forms)
    vals = [sum(a * x for a, x in zip(g, vec)) for g in forms]
    assert vals == [-a for a in vec[:n]] + [a + b for a, b in zip(vec[:n], vec[n:])]
    assert w_values(vec) == vals
    assert in_w(vec) == all(x >= 0 for x in vals)
    assert Weight.over(vec, 1).activity() == (
        frozenset(i for i in range(n) if not vals[i]),
        frozenset(i for i in range(n) if not vals[n + i]))


@st.composite
def _order_and_exponents(draw):
    """An order on n in {1, 2, 3} variables (any xprio, 0-2 admissible
    refinement weights with fractional entries) and a few small exponents,
    so that weight values often tie."""
    n = draw(st.integers(min_value=1, max_value=3))
    small = st.integers(min_value=0, max_value=3)
    weights = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        u = [Fraction(-draw(small), draw(st.integers(1, 6))) for _ in range(n)]
        v = [Fraction(draw(small), draw(st.integers(1, 6))) - a for a in u]
        weights.append(Weight.make(u, v))
    order = OrderSpec(n, xprio=tuple(draw(st.permutations(range(n)))),
                      weights=tuple(weights))
    vec = st.lists(small, min_size=n, max_size=n).map(tuple)
    exps = draw(st.lists(st.builds(Exponent, vec, vec, small),
                         min_size=2, max_size=8))
    return order, exps


@settings(max_examples=300, deadline=None)
@given(_order_and_exponents())
def test_integer_key_matches_compare(args):
    """compare_by_rules is the specification; the integer key must order
    alike."""
    order, exps = args
    key = order.key()
    for a in exps:
        for b in exps:
            ka, kb = key(a), key(b)
            assert all(isinstance(x, int) for x in ka)
            assert (ka > kb) - (ka < kb) == compare_by_rules(order, a, b)
    assert (sorted(exps, key=key)
            == sorted(exps, key=cmp_to_key(partial(compare_by_rules, order))))


@st.composite
def _z_free_exponents(draw):
    """n in {1, 2, 3}, an xprio, and a list of exponents with k = 0, as
    every exponent of the z = 1 quotient has."""
    n = draw(st.integers(min_value=1, max_value=3))
    vec = st.lists(st.integers(min_value=0, max_value=3),
                   min_size=n, max_size=n).map(tuple)
    exps = draw(st.lists(st.builds(Exponent, vec, vec, st.just(0)),
                         min_size=2, max_size=10))
    return n, tuple(draw(st.permutations(range(n)))), exps


@settings(max_examples=200, deadline=None)
@given(_z_free_exponents())
def test_level_is_the_dx_degree_weight_on_z_free_exponents(args):
    """With k = 0 the level |beta| + k is the dx-degree, the value of the
    weight (0, 1): the plain order and the order refined by that weight
    sort every list of z-free exponents the same way, so the z = 1
    completion needs no order of its own."""
    n, xprio, exps = args
    plain = OrderSpec(n, xprio=xprio).key()
    dx_degree = OrderSpec(n, xprio=xprio,
                          weights=(Weight.make((0,) * n, (1,) * n),)).key()
    assert sorted(exps, key=plain) == sorted(exps, key=dx_degree)
    for a in exps:
        for b in exps:
            assert (plain(a) < plain(b)) == (dx_degree(a) < dx_degree(b))


def test_leading_data_memo_follows_the_order():
    """The memo answers only the OrderSpec object it was filled for."""
    p = qop(2, {((1, 0), (0, 0), 0): 1, ((0, 1), (0, 0), 0): 1})   # x1 + x2
    x1, x2 = exponent(2, alpha=[1, 0]), exponent(2, alpha=[0, 1])
    first, second = OrderSpec(2, xprio=(0, 1)), OrderSpec(2, xprio=(1, 0))
    assert leading_data(p, first)[0] == x1
    assert p.lead_memo == (first, x1)
    assert leading_data(p, second)[0] == x2
    assert leading_data(p, OrderSpec(2, xprio=(0, 1)))[0] == x1

"""Fraction-free division and S-pairs against the Fraction loops they
replaced.

`divide_by_fractions` and `spair_by_fractions` are the per-step loops that
`division.divide` and `standard.spair` ran before they moved onto integer
numerators over one common denominator: one field operation per term per
step, on the operators themselves, through the tuple term product of
`conftest`.  They stay here as the oracle.  Over QQ
the results must be equal and every coefficient a `Fraction`; over
Frac(C/Q) the same loop runs with cofactor 1, so every coefficient must
keep the oracle's representative."""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as hs

import dfan.standard as st
from conftest import join, oracle_mul, partition, term_product
from dfan.division import GUARD_SLACK, divide
from dfan.errors import LeadingTermNotCancelled
from dfan.operators import Exponent, HOperator
from dfan.orders import OrderSpec, Weight, leading_data
from dfan.params import QQ_FIELD, ParamField, ParamIdeal
from dfan.standard import reduce_basis, spair, standard_basis


# ---------------------------------------------------------------------------
# the oracle: the Fraction loops
# ---------------------------------------------------------------------------

def divide_by_fractions(P, G, ord_spec, mul=None):
    """The division loop on field coefficients: (remainder, quotients,
    denom_powers, tainted), as `divide` reports them."""
    mul = mul or term_product
    field, n = P.field, P.n
    lead = [leading_data(g, ord_spec) for g in G]
    classify = partition([e for e, _ in lead])
    caps = [p.cap for p in [P] + list(G) if p.cap is not None]
    cap = min(caps) if caps else None
    internal = (None if cap is None else
                cap + max(g.degrees()[0] for g in [P, *G]) + GUARD_SLACK)
    gcaps = [min(g.cap, internal) if g.tainted and g.cap is not None else internal
             for g in G]
    tainted = P.tainted or any(g.tainted for g in G)
    working = dict(P.terms)
    key = ord_spec.key()

    def entry(e):
        return tuple(-v for v in key(e)), e

    heap = [entry(e) for e in working]
    heapify(heap)
    quotients = [dict() for _ in G]
    remainder = {}
    denom_powers = {j: 0 for j in range(len(G))}
    while heap:
        e = heappop(heap)[1]
        c = working.pop(e, None)
        if c is None:
            continue
        j = classify(e)
        if j is None:
            remainder[e] = c
            continue
        ej, lcj = lead[j]
        coef = c / lcj
        qe = e - ej
        quotients[j][qe] = quotients[j].get(qe, field.zero) + coef
        denom_powers[j] += 1
        prod, discarded = mul(qe, coef, G[j], gcaps[j])
        tainted = tainted or discarded
        for te, tc in prod.items():
            if te == e:
                continue
            s = working.get(te, field.zero) - tc
            if s:
                if te not in working:
                    heappush(heap, entry(te))
                working[te] = s
            else:
                working.pop(te, None)
        got = prod.get(e)
        if got != c:
            if got is not None:
                raise LeadingTermNotCancelled(f"term {e}")
            tainted = True
    q_ops = [HOperator(n, field, q, cap=internal, tainted=tainted) for q in quotients]
    R = HOperator(n, field, remainder, cap=internal, tainted=tainted)
    if cap is not None:
        R = R.truncated(cap)
        tainted = tainted or R.tainted
        R.tainted = tainted
    return R, q_ops, denom_powers, tainted


def spair_by_fractions(gi, gj, ord_spec, mul=None):
    """The S-operator on field coefficients: each side times 1/lc."""
    mul = mul or term_product
    ei, lci = leading_data(gi, ord_spec)
    ej, lcj = leading_data(gj, ord_spec)
    e = join(ei, ej)
    field = gi.field
    ti, cut_i = mul(e - ei, field.one / lci, gi, gi.cap)
    tj, cut_j = mul(e - ej, field.one / lcj, gj, gj.cap)
    return (HOperator(gi.n, field, ti, cap=gi.cap, tainted=gi.tainted or cut_i)
            - HOperator(gj.n, field, tj, cap=gj.cap, tainted=gj.tainted or cut_j))


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def same_op(a, b):
    """Equal terms with equal representatives, cap and taint; over QQ every
    coefficient of a is a Fraction (an int would compare equal)."""
    if a.terms.keys() != b.terms.keys() or (a.cap, a.tainted) != (b.cap, b.tainted):
        return False
    if a.field == QQ_FIELD:
        return (all(type(c) is Fraction for c in a.terms.values())
                and all(a.terms[e] == b.terms[e] for e in a.terms))
    return all((a.terms[e].num, a.terms[e].den) == (b.terms[e].num, b.terms[e].den)
               for e in a.terms)


def run(f, *args, **kwargs):
    """f's result, or LeadingTermNotCancelled if f raised it."""
    try:
        return f(*args, **kwargs)
    except LeadingTermNotCancelled as exc:
        return type(exc)


def check_division(P, G, order, z_one=False):
    """divide against the oracle; returns the number of reduction steps."""
    ref = run(divide_by_fractions, P, G, order, mul=oracle_mul(z_one))
    res = run(divide, P, G, order, z_one=z_one)
    if isinstance(ref, type):
        assert res is ref
        return 0
    R, quotients, denom_powers, tainted = ref
    assert same_op(res.remainder, R)
    assert res.denom_powers == denom_powers and res.tainted == tainted
    assert len(res.quotients) == len(quotients)
    assert all(same_op(a, b) for a, b in zip(res.quotients, quotients))
    return sum(denom_powers.values())


def check_spairs(ops, order, z_one=False):
    """spair against the oracle; the cleared form the S-operator comes with
    is the one `field.clear` makes of its terms."""
    for i, gi in enumerate(ops):
        for gj in ops[i + 1:]:
            sp = spair(gi, gj, order, z_one=z_one)
            assert same_op(sp, spair_by_fractions(gi, gj, order,
                                                  mul=oracle_mul(z_one)))
            kept = sp.clear_memo
            assert kept is not None and kept == sp.field.clear(sp.terms)
            assert list(kept.terms) == list(sp.terms)
            if sp.field == QQ_FIELD:
                assert all(type(c) is int for c in [*kept.terms.values(), kept.den])


def by_fractions():
    """`standard`'s division and S-pair swapped for the oracle's."""
    def oracle_divide(P, G, order, z_one=False):
        R, quotients, denom_powers, tainted = divide_by_fractions(
            P, G, order, mul=oracle_mul(z_one))
        return mock.Mock(remainder=R, quotients=quotients,
                         denom_powers=denom_powers, tainted=tainted)

    def oracle_spair(gi, gj, order, z_one=False):
        return spair_by_fractions(gi, gj, order, mul=oracle_mul(z_one))

    return mock.patch.multiple(st, divide=oracle_divide, spair=oracle_spair)


def check_standard_basis(gens, order, cap, z_one=False):
    with by_fractions():
        ref = standard_basis(gens, order, cap=cap, z_one=z_one)
        ref_red = reduce_basis(ref.completed, order, z_one=z_one)
    sb = standard_basis(gens, order, cap=cap, z_one=z_one)
    assert len(sb.completed) == len(ref.completed)
    assert all(same_op(a, b) for a, b in zip(sb.completed, ref.completed))
    assert len(sb.basis) == len(ref.basis) and sb.tainted == ref.tainted
    assert all(same_op(a, b) for a, b in zip(sb.basis, ref.basis))
    red = reduce_basis(sb.completed, order, z_one=z_one)
    assert red[1] == ref_red[1] and len(red[0]) == len(ref_red[0])
    assert all(same_op(a, b) for a, b in zip(red[0], ref_red[0]))


# ---------------------------------------------------------------------------
# Hypothesis cases over QQ
# ---------------------------------------------------------------------------

def orders_for(n):
    """Admissible orders whose leading exponents differ on many operators:
    the base order, a reversed x priority, and weight refinements."""
    out = [OrderSpec(n),
           OrderSpec(n, weights=(Weight.make((-1,) * n, (2,) * n),)),
           OrderSpec(n, weights=(Weight.make((0,) * n, (1,) * n),))]
    if n == 2:
        out += [OrderSpec(2, xprio=(1, 0)),
                OrderSpec(2, weights=(Weight.make((-1, 0), (1, 2)),))]
    return out


@hs.composite
def qq_case(draw):
    """(dividend, divisors, orders, z_one, cap): QQ operators with exponents up
    to 2 and coefficients with denominators up to 6, in the homogenized
    ring or (z-free) through the z = 1 product; some divisors are cut below
    the dividend's cap, so they are capped and tainted."""
    n = draw(hs.sampled_from((1, 2)))
    z_one = draw(hs.booleans())
    small = hs.integers(0, 2)
    ks = hs.just(0) if z_one else small
    exps = hs.builds(Exponent, hs.tuples(*[small] * n), hs.tuples(*[small] * n), ks)
    coeffs = hs.builds(Fraction, hs.integers(-6, 6).filter(bool), hs.integers(1, 6))

    def operator(max_size):
        return HOperator(n, QQ_FIELD, draw(hs.dictionaries(exps, coeffs, min_size=1,
                                                           max_size=max_size)))

    # local orders make tails infinite, so every operator has a cap
    cap = draw(hs.integers(2, 5))
    P = operator(6).truncated(cap)
    G = [operator(4).truncated(draw(hs.sampled_from((cap, cap - 1, cap - 2))))
         for _ in range(draw(hs.integers(1, 3)))]
    G = [g for g in G if not g.is_zero()]
    orders = draw(hs.lists(hs.sampled_from(orders_for(n)), min_size=2,
                           max_size=3, unique=True))
    return P, G, orders, z_one, cap


@settings(max_examples=200, deadline=None)
@given(qq_case())
def test_divide_and_spair_match_the_fraction_oracle(case):
    """Each operator is divided, and paired, under several orders in turn,
    so a leading numerator kept per operator instead of per order fails."""
    P, G, orders, z_one, _ = case
    if P.is_zero() or not G:
        return
    for order in orders:
        check_division(P, G, order, z_one=z_one)
        check_spairs(G + [P], order, z_one=z_one)


@settings(max_examples=100, deadline=None)
@given(qq_case())
def test_standard_basis_matches_the_fraction_oracle(case):
    """Completion and reduction through the integer loops give the oracle
    loops' lists, reduced bases and taint, under each of several orders."""
    P, G, orders, z_one, cap = case
    gens = G[:2]
    if not gens:
        return
    for order in orders[:2]:
        check_standard_basis(gens, order, cap, z_one=z_one)


def test_the_cases_divide():
    """The Hypothesis cases are not vacuous: seeded draws of the same shape
    reduce, with cleared denominators above 1 and rescaled working terms."""
    rng = random.Random(19)
    steps = rescaled = 0
    for _ in range(60):
        n = rng.randint(1, 2)

        def operator(size, cap):
            terms = {Exponent(tuple(rng.randint(0, 2) for _ in range(n)),
                              tuple(rng.randint(0, 2) for _ in range(n)),
                              rng.randint(0, 2)):
                     Fraction(rng.choice((-5, -3, -1, 1, 2, 4)), rng.randint(1, 6))
                     for _ in range(size)}
            return HOperator(n, QQ_FIELD, terms).truncated(cap)

        P = operator(rng.randint(2, 6), 5)
        G = [g for g in (operator(rng.randint(1, 4), rng.choice((3, 4, 5)))
                         for _ in range(rng.randint(1, 3))) if not g.is_zero()]
        if P.is_zero() or not G:
            continue
        for order in orders_for(n)[:3]:
            res = divide(P, G, order)
            leads = [g.cleared().terms[leading_data(g, order)[0]] for g in G]
            rescaled += sum(d > 1 and abs(l) > 1
                            for d, l in zip(res.divisor_dens, leads))
            steps += check_division(P, G, order)
    assert steps > 300 and rescaled > 50


def test_criterion_3_pool_matches_the_fraction_oracle():
    """The bench's completion pool, through the oracle and the integer
    loops: the same completed lists, reduced bases and taint."""
    from test_standard import criterion_3_pool
    for n, gens in criterion_3_pool()[::3]:
        check_standard_basis(gens, OrderSpec(n), 6)


# ---------------------------------------------------------------------------
# Frac(C/Q): the same loop, with today's representatives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q_text", ["0", "y^2 - 2", "y^3 - y - 1"])
def test_parametric_division_keeps_the_oracle_representatives(q_text):
    """Over Frac(C/Q) the cofactor is 1 and nothing is cleared, so divide,
    spair and completion do the oracle's field arithmetic step for step:
    every coefficient has the oracle's numerator and denominator, even
    where Q admits another representative."""
    F1 = ParamField(1)
    y = F1.ring.gens[0]
    q = {"0": None, "y^2 - 2": y ** 2 - 2, "y^3 - y - 1": y ** 3 - y - 1}[q_text]
    F = F1 if q is None else ParamField(F1.ring, ParamIdeal(F1.ring, [q]))
    rng = random.Random(3)

    def operator(size, cap, n):
        terms = {}
        for _ in range(size):
            e = Exponent(tuple(rng.randint(0, 2) for _ in range(n)),
                         tuple(rng.randint(0, 1) for _ in range(n)), rng.randint(0, 1))
            num = rng.randint(-3, 3) + rng.randint(-2, 2) * y + rng.randint(0, 1) * y ** 2
            den = rng.choice((F.ring.one, F.ring(3), y + 2))
            if num:
                terms[e] = F.from_poly(num) / F.from_poly(den)
        return HOperator(n, F, terms).truncated(cap)

    steps = 0
    for _ in range(25):
        n = rng.randint(1, 2)
        P = operator(rng.randint(2, 4), 4, n)
        G = [g for g in (operator(rng.randint(1, 3), rng.choice((3, 4)), n)
                         for _ in range(rng.randint(1, 2))) if not g.is_zero()]
        if P.is_zero() or not G:
            continue
        for order in orders_for(n)[:2]:
            steps += check_division(P, G, order)
            check_spairs(G + [P], order)
    assert steps > 30
    gens = [operator(2, 4, 1) for _ in range(2)]
    check_standard_basis([g for g in gens if not g.is_zero()], OrderSpec(1), 4)


def test_uncapped_division_widens_its_codec():
    """Without a cap nothing bounds the x-degree in advance: x1^50 by
    x1 - x2^2 ends at x2^100, past the width the operands ask for, so the
    division starts again in a wider codec and gives the oracle's result."""
    P = HOperator(2, QQ_FIELD, {Exponent((50, 0), (0, 0), 0): Fraction(1)})
    g = HOperator(2, QQ_FIELD, {Exponent((1, 0), (0, 0), 0): Fraction(1),
                                Exponent((0, 2), (0, 0), 0): Fraction(-1)})
    order = OrderSpec(2)
    assert check_division(P, [g], order) == 50
    assert divide(P, [g], order).remainder.terms == {
        Exponent((0, 100), (0, 0), 0): Fraction(1)}
    assert order.codec(0, lambda n, bound: None).top >= 100


def test_completion_repacks_when_its_codec_widens():
    """x1^50 and x1 - x2^8, uncapped: a division reaches x2^400, past the
    codec the generators asked for, so the order's codec widens in the
    middle of the completion, which repacks its leaders and queued joins.
    The result is the oracle loops' basis, with x2^400 among the leaders."""
    x1_50 = HOperator(2, QQ_FIELD, {Exponent((50, 0), (0, 0), 0): Fraction(1)})
    g = HOperator(2, QQ_FIELD, {Exponent((1, 0), (0, 0), 0): Fraction(1),
                                Exponent((0, 8), (0, 0), 0): Fraction(-1)})
    # pairs with dx2 z join at level 2 and wait in the queue meanwhile
    h = HOperator(2, QQ_FIELD, {Exponent((0, 0), (0, 1), 1): Fraction(1)})
    order = OrderSpec(2)
    check_standard_basis([x1_50, g, h], order, None)
    sb = standard_basis([x1_50, g, h], order)
    assert Exponent((0, 400), (0, 0), 0) in sb.staircase
    assert order.codec(0, lambda n, bound: None).top >= 400

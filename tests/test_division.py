"""Division with remainder: contract and certificates.

`divide_by_scan` keeps the retired division modulo Q, which worked over
Frac(C) and routed terms whose coefficient numerator lies in Q to a T part,
as an oracle for plain division over Frac(C/Q)."""

import random
from fractions import Fraction
from functools import cmp_to_key, partial

import pytest

from conftest import compare_by_rules, qop, random_qop, reconstruct_window
from dfan.division import (GUARD_SLACK, denominator_certificate, divide,
                           partition)
from dfan.errors import LeadingTermNotCancelled, ZeroDivisor
from dfan.operators import Exponent, HOperator, exponent, term_product
from dfan.orders import OrderSpec, leading_data
from dfan.params import ParamField, ParamIdeal, ParamPoly


def test_partition_least_index():
    e1 = exponent(1, beta=[1])
    e2 = exponent(1, alpha=[1])
    classify = partition([e1, e2])
    assert classify(exponent(1, alpha=[1], beta=[1])) == 0   # least index wins
    assert classify(exponent(1, alpha=[2])) == 1
    assert classify(exponent(1, k=3)) is None


def test_zero_divisor_raises():
    with pytest.raises(ZeroDivisor):
        divide(qop(1, {((0,), (0,), 0): 1}), [qop(1, {})], OrderSpec(1))


def test_uncancelled_leading_term_raises():
    # a divisor product that leaves another coefficient on the term being
    # cancelled is a DfanError, which unlike an assert survives python -O
    def doubled(e, c, g, cap):
        terms, discarded = term_product(e, c, g, cap)
        return {te: 2 * tc for te, tc in terms.items()}, discarded

    x = qop(1, {((1,), (0,), 0): 1})
    x2 = qop(1, {((2,), (0,), 0): 1})
    assert divide(x2, [x], OrderSpec(1)).remainder.is_zero()
    with pytest.raises(LeadingTermNotCancelled):
        divide(x2, [x], OrderSpec(1), mul=doubled)


def test_quotients_are_built_once_on_first_read(rng, monkeypatch):
    """divide builds no operator per reduction step and no quotient; the
    first read of `quotients` builds one operator per divisor, equal to the
    reference division's, and later reads return the same list."""
    built = []
    init = HOperator.__init__
    monkeypatch.setattr(HOperator, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    checked = 0
    for _ in range(80):
        n = rng.randint(1, 2)
        order = OrderSpec(n)
        P = random_qop(rng, n, rng.randint(2, 6)).truncated(6)
        G = [g.truncated(6) for g in
             (random_qop(rng, n, rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))]
        G = [g for g in G if not g.is_zero()]
        if P.is_zero() or not G:
            continue
        built.clear()
        res = divide(P, G, order)
        assert len(built) <= 2  # the remainder and its truncation
        steps, before = sum(res.denom_powers.values()), len(built)
        quotients = res.quotients
        assert len(built) == before + len(G)
        assert res.quotients is quotients and len(built) == before + len(G)
        q_ref = divide_by_scan(P, G, order)[0]
        assert all(a == b and a.cap == b.cap and a.tainted == b.tainted
                   for a, b in zip(quotients, q_ref))
        checked += steps > 0
    assert checked >= 25


def test_simple_exact_division():
    order = OrderSpec(1)
    x = qop(1, {((1,), (0,), 0): 1})
    dx = qop(1, {((0,), (1,), 0): 1})
    P = dx * x  # = x dx + z
    res = divide(P.truncated(6), [x.truncated(6)], order)
    # dx * x = x dx + z exactly, so the quotient is dx with no remainder
    assert res.remainder.is_zero()
    assert res.quotients[0] == HOperator(1, dx.field, dx.terms, cap=res.quotients[0].cap)
    assert not res.tainted
    # z alone is reducible by nothing here
    res_z = divide(qop(1, {((0,), (0,), 1): 1}).truncated(6), [x.truncated(6)], order)
    assert res_z.remainder == qop(1, {((0,), (0,), 1): 1})


def test_division_contract_random_suite(rng):
    order_cache = {}
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 2)
        order = order_cache.setdefault(n, OrderSpec(n))
        P = random_qop(rng, n, rng.randint(1, 4)).truncated(8)
        G = [g.truncated(8) for g in
             (random_qop(rng, n, rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))]
        G = [g for g in G if not g.is_zero()]
        if P.is_zero() or not G:
            continue
        res = divide(P, G, order)
        # window reconstruction
        assert reconstruct_window(res, G, 8) == P.truncated(8)
        # Delta-support: each quotient term, shifted by its divisor's leading
        # exponent, classifies back to that divisor
        exps = [leading_data(g, order)[0] for g in G]
        classify = partition(exps)
        for j, q in enumerate(res.quotients):
            for e in q.terms:
                assert classify(e + exps[j]) == j
        for e in res.remainder.terms:
            assert classify(e) is None
        # idempotence and determinism
        if not res.remainder.is_zero():
            res2 = divide(res.remainder, G, order)
            assert res2.remainder == res.remainder
            assert all(q.is_zero() for q in res2.quotients)
        res3 = divide(P, G, order)
        assert res3.remainder == res.remainder
        assert all(a == b for a, b in zip(res3.quotients, res.quotients))
        assert denominator_certificate(res, G, order)
        checked += 1
    assert checked >= 80


def test_guard_band_keeps_window_exact():
    """A quotient term above the cap can push a commutation term back inside
    the window; the guard band keeps that term."""
    order = OrderSpec(1)
    cap = 3
    # P = dx1 * x1^(cap+1) has terms x^(cap+1) dx and (cap+1) x^cap z
    x = qop(1, {((1,), (0,), 0): 1})
    dx = qop(1, {((0,), (1,), 0): 1})
    P = dx
    for _ in range(cap + 1):
        P = P * x
    P = P.truncated(cap)  # only the z-term survives in the window
    assert P == HOperator(1, x.field, {exponent(1, alpha=[cap], k=1): cap + 1}, cap=cap)
    assert P.tainted


def test_divide_mod_q_routes_t_part(F1):
    """The old route sends the y-multiples to T; over Frac(C/Q) they are
    zero, and plain division gives the old remainder."""
    y = ParamPoly.var(1, 0)
    Q = ParamIdeal(1, [y])
    FQ = ParamField(1, Q)
    order = OrderSpec(1)
    g = HOperator(1, F1, {exponent(1, beta=[1]): F1.from_poly(y + 1),
                          exponent(1, alpha=[1]): F1.from_poly(y)}).truncated(5)
    P = HOperator(1, F1, {exponent(1, beta=[2]): F1.one}).truncated(5)
    _, R, T, _, _ = divide_by_scan(P, [g], order, mod_q=Q)
    assert not T.is_zero() and all(Q.contains(c.num) for c in T.terms.values())
    gq, Pq = g.to_field(FQ), P.to_field(FQ)
    res = divide(Pq, [gq], order)
    assert T.to_field(FQ).is_zero() and res.remainder == R.to_field(FQ)
    assert reconstruct_window(res, [gq], 5) == Pq
    assert denominator_certificate(res, [gq], order)


def test_divisor_in_q_raises(F1):
    """A divisor whose coefficients all lie in Q is zero over Frac(C/Q)."""
    y = ParamPoly.var(1, 0)
    FQ = ParamField(1, ParamIdeal(1, [y]))
    g = HOperator(1, F1, {exponent(1, beta=[1]): F1.from_poly(y)}).to_field(FQ)
    P = HOperator(1, FQ, {exponent(1, beta=[2]): FQ.one})
    with pytest.raises(ZeroDivisor):
        divide(P.truncated(4), [g.truncated(4)], OrderSpec(1))


def test_denominator_powers_bound(F1):
    """Denominators divide the product of leading coefficient numerators."""
    y = ParamPoly.var(1, 0)
    order = OrderSpec(1)
    g = HOperator(1, F1, {exponent(1, beta=[1]): F1.from_poly(y),
                          exponent(1, alpha=[1]): F1.one})
    P = HOperator(1, F1, {exponent(1, beta=[3]): F1.one})
    res = divide(P.truncated(6), [g.truncated(6)], order)
    assert denominator_certificate(res, [g.truncated(6)], order)
    assert res.denom_powers[0] >= 1


class AllCoefficientsInQ(Exception):
    """Every coefficient numerator of a divisor lies in Q."""


def coeff_num_in_q(c, Q):
    """Does the numerator of coefficient c lie in Q?  Of the plain Fractions
    only 0 does."""
    if isinstance(c, Fraction):
        return c == 0
    return Q.contains(c.num)


def leading_data_mod_q(p, ord_spec, Q):
    """(exp, lc) among the terms whose coefficient numerator is outside Q."""
    live = [e for e, c in p.terms.items() if not coeff_num_in_q(c, Q)]
    if not live:
        raise AllCoefficientsInQ(str(p))
    e = ord_spec.max_exponent(live)
    return e, p.terms[e]


def raise_caps(ops, cap):
    """The reference's operand copies: untainted capped operators raised to
    the internal cap (their content is exact); uncapped ones are used whole."""
    return [HOperator(p.n, p.field, p.terms, cap=cap)
            if not p.tainted and p.cap is not None and p.cap < cap else p
            for p in ops]


def divide_by_scan(P, G, ord_spec, mod_q=None):
    """Reference division: each step takes the largest working term by a
    max() scan through compare_by_rules.  With mod_q, the retired division modulo Q:
    leading data is taken modulo Q, and a term whose coefficient numerator
    lies in Q goes to the T part unreduced.  Returns (quotients, R, T,
    denom_powers, tainted)."""
    field, n = P.field, P.n
    route_q = mod_q is not None and not mod_q.is_zero_ideal()
    lead = [leading_data_mod_q(g, ord_spec, mod_q) if route_q
            else leading_data(g, ord_spec) for g in G]
    classify = partition([e for e, _ in lead])
    caps = [p.cap for p in [P] + G if p.cap is not None]
    cap = min(caps) if caps else None
    internal = None if cap is None else (
        cap + max((e.level for g in [P] + G for e in g.terms), default=0)
        + GUARD_SLACK)
    P_eff, *G_eff = raise_caps([P] + G, internal)
    tainted = P.tainted or any(g.tainted for g in G)
    working = dict(P_eff.terms)
    key = cmp_to_key(partial(compare_by_rules, ord_spec))
    quotients = [dict() for _ in G]
    remainder, t_terms = {}, {}
    denom_powers = {j: 0 for j in range(len(G))}
    while working:
        e = max(working, key=key)
        c = working.pop(e)
        if route_q and coeff_num_in_q(c, mod_q):
            t_terms[e] = t_terms.get(e, field.zero) + c
            if not t_terms[e]:
                del t_terms[e]
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
        prod = HOperator.monomial(n, field, qe, coef, cap=internal) * G_eff[j]
        tainted = tainted or prod.tainted
        for te, tc in prod.terms.items():
            if te == e:
                continue
            s = working.get(te, field.zero) - tc
            if s:
                working[te] = s
            else:
                working.pop(te, None)
        tainted = tainted or prod.terms.get(e) != c
    q_ops = [HOperator(n, field, q, cap=internal, tainted=tainted) for q in quotients]
    R = HOperator(n, field, remainder, cap=internal, tainted=tainted)
    T = HOperator(n, field, t_terms, cap=internal, tainted=tainted)
    if cap is not None:
        R, T = R.truncated(cap), T.truncated(cap)
        tainted = tainted or R.tainted or T.tainted
        R.tainted = R.tainted or tainted
        T.tainted = T.tainted or tainted
    return q_ops, R, T, denom_powers, tainted


def _same_division(res, ref):
    q_ref, R, T, denom_powers, tainted = ref
    same_ops = all(a == b and a.tainted == b.tainted and a.cap == b.cap
                   for a, b in zip(res.quotients + [res.remainder], q_ref + [R]))
    return (same_ops and T.is_zero() and len(res.quotients) == len(q_ref)
            and res.denom_powers == denom_powers and res.tainted == tainted)


def test_heap_division_matches_max_scan(rng):
    """Random capped QQ divisions: the heap picks the terms the scan picks."""
    steps = 0
    for _ in range(150):
        n = rng.randint(1, 2)
        cap = rng.choice((4, 6, 8))
        order = OrderSpec(n)
        P = random_qop(rng, n, rng.randint(1, 6)).truncated(cap)
        G = [random_qop(rng, n, rng.randint(1, 4)).truncated(cap)
             for _ in range(rng.randint(1, 3))]
        G = [g for g in G if not g.is_zero()]
        if P.is_zero() or not G:
            continue
        res = divide(P, G, order)
        assert _same_division(res, divide_by_scan(P, G, order))
        steps += sum(res.denom_powers.values())
    assert steps > 150


def test_tainted_divisors_match_max_scan(rng):
    """Divisors cut by a cap below the dividend's: the products with them
    stop at their own cap, and quotients, reduction counts and taint agree
    with the reference, which multiplies by the divisors themselves."""
    tainted_steps = 0
    for _ in range(100):
        n = rng.randint(1, 2)
        cap = rng.choice((1, 2, 3))
        order = OrderSpec(n)
        P = random_qop(rng, n, rng.randint(1, 6)).truncated(cap + 2)
        G = [random_qop(rng, n, rng.randint(3, 5)).truncated(cap)
             for _ in range(rng.randint(1, 2))]
        G = [g for g in G if not g.is_zero()]
        if P.is_zero() or not G:
            continue
        res = divide(P, G, order)
        assert _same_division(res, divide_by_scan(P, G, order))
        tainted_steps += sum(res.denom_powers[j] for j, g in enumerate(G) if g.tainted)
    assert tainted_steps > 20


def test_heap_division_matches_max_scan_mod_q(F1):
    """Over Frac(C/Q), on operators that had coefficients in Q."""
    y = ParamPoly.var(1, 0)
    Q = ParamIdeal(1, [y * y - 2])
    FQ = ParamField(1, Q)
    c = F1.from_poly
    order = OrderSpec(1)
    g = HOperator(1, F1, {exponent(1, beta=[1]): c(y + 1),
                          exponent(1, alpha=[1]): c(y * y - 2),
                          exponent(1, alpha=[1], k=1): c(y)}).truncated(6)
    P = HOperator(1, F1, {exponent(1, beta=[3]): F1.one,
                          exponent(1, alpha=[1], beta=[2]): c(y),
                          exponent(1, beta=[2], k=1): c(-(y * y) + 2),
                          exponent(1, alpha=[2], k=3): c(y - 3)}).truncated(6)
    assert not divide_by_scan(P, [g], order, mod_q=Q)[2].is_zero()
    gq, Pq = g.to_field(FQ), P.to_field(FQ)
    res = divide(Pq, [gq], order)
    assert res.denom_powers[0] > 1
    assert _same_division(res, divide_by_scan(Pq, [gq], order))


def _random_param_op(rng, F, n, q, nterms, cap, maxdeg):
    """Random operator over F = Frac(C) with small coefficients in y, about
    a third of them multiples of the generator q of Q."""
    y = F.ring.gens[0]
    terms = {}
    for _ in range(nterms):
        e = Exponent(tuple(rng.randint(0, maxdeg) for _ in range(n)),
                     tuple(rng.randint(0, maxdeg) for _ in range(n)),
                     rng.randint(0, 1))
        num = rng.randint(-3, 3) + rng.randint(-2, 2) * y
        if rng.random() < 0.35:
            num = (num or F.ring.one) * q
        den = rng.choice((F.ring.one, F.ring(2), y + 2))
        if num:
            terms[e] = F.from_poly(num) / F.from_poly(den)
    return HOperator(n, F, terms).truncated(cap)


@pytest.mark.parametrize("q_text", ["y^2 - 2", "y^3 - y - 1", "y"])
def test_frac_c_mod_q_division_matches_old_route(q_text):
    """Seeded differential test: the retired division modulo Q over Frac(C)
    against plain division of the same operators coerced into Frac(C/Q).
    Remainders agree, the old T part vanishes in Frac(C/Q), quotients agree
    inside the cap, and a tainted result was tainted before.  The guard band
    is sized from the nonzero terms, which differ between the two fields, so
    quotients and denominator powers may differ above the cap."""
    F1 = ParamField(1)
    y = F1.ring.gens[0]
    q = {"y^2 - 2": y ** 2 - 2, "y^3 - y - 1": y ** 3 - y - 1, "y": y}[q_text]
    Q = ParamIdeal(F1.ring, [q])
    FQ = ParamField(F1.ring, Q)
    rng = random.Random(7)
    checked = with_t = steps = 0
    for _ in range(200):
        n = rng.randint(1, 2)
        cap = rng.choice((3, 5))
        order = OrderSpec(n)
        P = _random_param_op(rng, F1, n, q, rng.randint(2, 6), cap, 2)
        G = [_random_param_op(rng, F1, n, q, rng.randint(1, 3), cap, 1)
             for _ in range(rng.randint(1, 2))]
        G = [g for g in G if not g.is_zero()]
        if P.is_zero() or not G:
            continue
        Pq, Gq = P.to_field(FQ), [g.to_field(FQ) for g in G]
        if any(g.is_zero() for g in Gq):
            with pytest.raises(AllCoefficientsInQ):
                divide_by_scan(P, G, order, mod_q=Q)
            with pytest.raises(ZeroDivisor):
                divide(Pq, Gq, order)
            continue
        q_old, R, T, _, tainted_old = divide_by_scan(P, G, order, mod_q=Q)
        res = divide(Pq, Gq, order)
        assert res.remainder == R.to_field(FQ)
        assert T.to_field(FQ).is_zero()
        assert all(a.truncated(cap) == b.to_field(FQ).truncated(cap)
                   for a, b in zip(res.quotients, q_old))
        assert tainted_old or not res.tainted
        checked += 1
        with_t += not T.is_zero()
        steps += sum(res.denom_powers.values())
    assert checked >= 100 and with_t >= 80 and steps >= 150

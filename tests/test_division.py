"""Division with remainder (and T part mod Q): contract and certificates."""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from conftest import qop, random_qop
from dfan.division import (DEFAULT_GUARD_SLACK, _effective,
                           denominator_certificate, divide, partition)
from dfan.errors import (DivisorInQ, LcDoesNotDivideH, LeadingTermNotCancelled,
                         ZeroDivisor)
from dfan.operators import Exponent, HOperator, exponent
from dfan.orders import OrderSpec, leading_data, leading_data_mod_q
from dfan.params import ParamField, ParamIdeal, ParamPoly, coeff_num_in_q


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


def test_uncancelled_leading_term_raises(monkeypatch):
    # a divisor product that leaves another coefficient on the term being
    # cancelled is a DfanError, which unlike an assert survives python -O
    mul = HOperator.__mul__
    monkeypatch.setattr(HOperator, "__mul__",
                        lambda a, b: mul(a, b).scale(Fraction(2)))
    x = qop(1, {((1,), (0,), 0): 1})
    x2 = qop(1, {((2,), (0,), 0): 1})
    with pytest.raises(LeadingTermNotCancelled):
        divide(x2, [x], OrderSpec(1))


def test_simple_exact_division():
    order = OrderSpec(1)
    x = qop(1, {((1,), (0,), 0): 1})
    dx = qop(1, {((0,), (1,), 0): 1})
    P = dx * x  # = x dx + z
    res = divide(P.truncated(6), [x.truncated(6)], order)
    # dx * x = x dx + z exactly, so the quotient is dx with no remainder
    assert res.remainder.is_zero()
    assert res.quotients[0] == qop(1, {((0,), (1,), 0): 1}).with_cap(res.quotients[0].cap)
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
        assert res.reconstruct_window(G, 8) == P.truncated(8)
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
    assert P == qop(1, {((cap,), (0,), 1): cap + 1}).with_cap(cap)
    assert P.tainted


def test_divide_mod_q_routes_t_part(F1):
    y = ParamPoly.var(1, 0)
    Q = ParamIdeal(1, [y], claimed_prime=True)
    order = OrderSpec(1)
    g = HOperator(1, F1, {exponent(1, beta=[1]): F1.from_poly(y + 1),
                          exponent(1, alpha=[1]): F1.from_poly(y)})
    P = HOperator(1, F1, {exponent(1, beta=[2]): F1.one})
    res = divide(P.truncated(5), [g.truncated(5)], order, mod_q=Q, h=y + 1)
    # every T coefficient numerator lies in Q, remainder's do not
    assert all(Q.contains(c.num) for c in res.t_part.terms.values())
    assert all(not Q.contains(c.num) for c in res.remainder.terms.values())
    assert res.reconstruct_window([g.truncated(5)], 5) == P.truncated(5)
    assert denominator_certificate(res, [g.truncated(5)], order, mod_q=Q)


def test_divisor_in_q_raises(F1):
    y = ParamPoly.var(1, 0)
    Q = ParamIdeal(1, [y], claimed_prime=True)
    g = HOperator(1, F1, {exponent(1, beta=[1]): F1.from_poly(y)})
    P = HOperator(1, F1, {exponent(1, beta=[2]): F1.one})
    with pytest.raises(DivisorInQ):
        divide(P.truncated(4), [g.truncated(4)], OrderSpec(1), mod_q=Q)


def test_lc_must_divide_h(F1):
    y = ParamPoly.var(1, 0)
    Q = ParamIdeal(1, [y - 1], claimed_prime=True)
    g = HOperator(1, F1, {exponent(1, beta=[1]): F1.from_poly(y + 1)})
    P = HOperator(1, F1, {exponent(1, beta=[2]): F1.one})
    with pytest.raises(LcDoesNotDivideH):
        divide(P.truncated(4), [g.truncated(4)], OrderSpec(1), mod_q=Q, h=y + 2)


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


def divide_by_scan(P, G, ord_spec, mod_q=None):
    """Reference division: each step takes the largest working term by a
    max() scan through compare.  Same contract as divide, without the h
    check."""
    field, n = P.field, P.n
    route_q = mod_q is not None and not mod_q.is_zero_ideal()
    lead = [leading_data_mod_q(g, ord_spec, mod_q) if route_q
            else leading_data(g, ord_spec) for g in G]
    classify = partition([e for e, _ in lead])
    caps = [p.cap for p in [P] + G if p.cap is not None]
    cap = min(caps) if caps else None
    internal = None if cap is None else (
        cap + max((e.level for g in [P] + G for e in g.terms), default=0)
        + DEFAULT_GUARD_SLACK)
    P_eff, *G_eff = _effective([P] + G, internal)
    tainted = P.tainted or any(g.tainted for g in G)
    working = dict(P_eff.terms)
    key = cmp_to_key(ord_spec.compare)
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
                   for a, b in zip(res.quotients + [res.remainder, res.t_part],
                                   q_ref + [R, T]))
    return (same_ops and len(res.quotients) == len(q_ref)
            and res.denom_powers == denom_powers and res.tainted == tainted)


def test_heap_division_matches_max_scan(rng):
    """Random capped QQ divisions: the heap picks the terms the scan picks."""
    steps = 0
    for _ in range(150):
        n = rng.randint(1, 2)
        cap = rng.choice((4, 6, 8))
        order = OrderSpec(n, homogenized=rng.random() < 0.7)
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


def test_heap_division_matches_max_scan_mod_q(F1):
    y = ParamPoly.var(1, 0)
    Q = ParamIdeal(1, [y * y - 2], claimed_prime=True)
    c = F1.from_poly
    order = OrderSpec(1)
    g = HOperator(1, F1, {exponent(1, beta=[1]): c(y + 1),
                          exponent(1, alpha=[1]): c(y * y - 2),
                          exponent(1, alpha=[1], k=1): c(y)}).truncated(6)
    P = HOperator(1, F1, {exponent(1, beta=[3]): F1.one,
                          exponent(1, alpha=[1], beta=[2]): c(y),
                          exponent(1, beta=[2], k=1): c(-(y * y) + 2),
                          exponent(1, alpha=[2], k=3): c(y - 3)}).truncated(6)
    res = divide(P, [g], order, mod_q=Q, h=y + 1)
    assert not res.t_part.is_zero() and res.denom_powers[0] > 1
    assert _same_division(res, divide_by_scan(P, [g], order, mod_q=Q))

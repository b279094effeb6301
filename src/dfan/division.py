"""Formal division in the homogenized ring (or, through `mul`, in its z = 1
quotient), plain and modulo Q.

The classical process: repeatedly pick the largest unresolved term, reduce it
by the first divisor whose leading exponent divides it, otherwise move it to
the remainder.  The unresolved terms wait in a max-heap on the order's
integer key: an exponent is pushed when it enters the working set, and an
entry whose term has cancelled since is skipped when popped.  Working modulo
Q, terms whose coefficient numerator lies in Q are routed straight to the T
part and never reduced; divisor leading data is taken modulo Q.  Truncation:
the requested x-degree cap is padded internally by a guard band (max
(dx,z)-degree + slack), which makes the reported window exact; quotients keep
the padded cap, remainder and T are truncated back.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .errors import (ZeroDivisor, DivisorInQ, LcDoesNotDivideH,
                     LeadingTermNotCancelled)
from .operators import HOperator
from .orders import leading_data, leading_data_mod_q
from .params import (ParamFraction, coeff_num_in_q, poly_divides, poly_primitive,
                     poly_str)

DEFAULT_GUARD_SLACK = 4


def partition(divisor_exps):
    """Delta classifier: e -> least j with e in exp_j + N^{2n+1}, else None."""
    exps = list(divisor_exps)

    def classify(e):
        for j, ej in enumerate(exps):
            if e.dominates(ej):
                return j
        return None

    return classify


@dataclass
class DivisionResult:
    quotients: list
    remainder: HOperator
    t_part: HOperator
    denom_powers: dict
    tainted: bool

    def reconstruct_window(self, G, cap):
        """sum q_j g_j + R + T truncated to the cap window."""
        acc = self.remainder.truncated(cap) + self.t_part.truncated(cap)
        for q, g in zip(self.quotients, G):
            acc = acc + (q * g).truncated(cap)
        return acc


def _effective(ops, cap):
    """Raise untainted operators to the internal cap (their content is exact)."""
    out = []
    for p in ops:
        if not p.tainted and (p.cap is None or (cap is not None and p.cap < cap)):
            out.append(p.with_cap(cap))
        else:
            out.append(p)
    return out


def divide(P, G, ord_spec, mod_q=None, h=None, guard_slack=DEFAULT_GUARD_SLACK,
           mul=operator.mul):
    """Divide P by the list G.

    mod_q: a ParamIdeal Q switches on division modulo Q (leading data mod Q,
    T-part bookkeeping).  h: optional localizer; when given, each divisor's
    mod-Q leading coefficient numerator must divide it.  mul: the ring
    product (the homogenized product by default).
    """
    field = P.field
    n = P.n
    if any(g.is_zero() for g in G):
        raise ZeroDivisor("zero divisor in division")
    lead = []
    for g in G:
        if mod_q is not None and not mod_q.is_zero_ideal():
            if all(coeff_num_in_q(c, mod_q) for c in g.terms.values()):
                raise DivisorInQ(f"divisor {g} lies in the Q-coefficient ideal")
            e, lc = leading_data_mod_q(g, ord_spec, mod_q)
            if h is not None and isinstance(lc, ParamFraction):
                if not poly_divides(lc.num, h):
                    raise LcDoesNotDivideH(f"lc numerator {poly_str(lc.num)} "
                                          f"does not divide {poly_str(h)}")
        else:
            e, lc = leading_data(g, ord_spec)
        lead.append((e, lc))
    classify = partition([e for e, _ in lead])

    caps = [p.cap for p in [P] + list(G) if p.cap is not None]
    cap = min(caps) if caps else None
    if cap is None:
        internal = None
    else:
        maxlevel = max((e.level for g in [P] + list(G) for e in g.terms), default=0)
        internal = cap + maxlevel + guard_slack
    P_eff, *G_eff = _effective([P] + list(G), internal)

    tainted = P.tainted or any(g.tainted for g in G)
    working = dict(P_eff.terms)
    key = ord_spec.key()

    def entry(e):
        return tuple(map(operator.neg, key(e))), e

    heap = [entry(e) for e in working]
    heapify(heap)
    quotients = [dict() for _ in G]
    remainder = {}
    t_terms = {}
    denom_powers = {j: 0 for j in range(len(G))}
    route_q = mod_q is not None and not mod_q.is_zero_ideal()

    while heap:
        e = heappop(heap)[1]
        c = working.pop(e, None)
        if c is None:
            continue  # cancelled since it was pushed
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
        mono = HOperator.monomial(n, field, qe, coef, cap=internal)
        prod = mul(mono, G_eff[j])
        tainted = tainted or prod.tainted
        for te, tc in prod.terms.items():
            if te == e:
                continue  # leading term cancels exactly
            s = working.get(te, field.zero) - tc
            if s:
                if te not in working:
                    heappush(heap, entry(te))
                working[te] = s
            else:
                working.pop(te, None)
        # exact cancellation of the leading term; with a tainted divisor the
        # product can lose it to the divisor's cap when e sits in the guard
        # band, which only forfeits exactness above the shared window
        got = prod.terms.get(e)
        if got != c:
            if got is not None:
                raise LeadingTermNotCancelled(
                    f"term {e}: divisor product has {got}, expected {c}")
            tainted = True

    q_ops = [HOperator(n, field, q, cap=internal, tainted=tainted) for q in quotients]
    R = HOperator(n, field, remainder, cap=internal, tainted=tainted)
    T = HOperator(n, field, t_terms, cap=internal, tainted=tainted)
    if cap is not None:
        R = R.truncated(cap)
        T = T.truncated(cap)
        tainted = tainted or R.tainted or T.tainted
        R.tainted = R.tainted or tainted
        T.tainted = T.tainted or tainted
    return DivisionResult(q_ops, R, T, denom_powers, tainted)


def denominator_certificate(res, G, ord_spec, mod_q=None):
    """Check that every coefficient denominator of R and the quotients divides
    the product of divisor leading-coefficient numerators raised to the
    recorded powers (up to rational units)."""
    lead_nums = []
    for g in G:
        if mod_q is not None and not mod_q.is_zero_ideal():
            _, lc = leading_data_mod_q(g, ord_spec, mod_q)
        else:
            _, lc = leading_data(g, ord_spec)
        lead_nums.append(lc)
    coeffs = list(res.remainder.terms.values())
    for q in res.quotients:
        coeffs.extend(q.terms.values())
    if all(isinstance(c, Fraction) for c in coeffs):
        return True
    field = next(c for c in coeffs if isinstance(c, ParamFraction)).field
    M = field.one.num  # the constant 1 polynomial
    for j, lc in enumerate(lead_nums):
        if isinstance(lc, ParamFraction):
            d = res.denom_powers.get(j, 0)
            if d:
                M = M * (poly_primitive(lc.num) ** d)
    for c in coeffs:
        if isinstance(c, Fraction):
            continue
        den = poly_primitive(c.den)
        if den.is_ground:
            continue
        if not poly_divides(den, M):
            return False
    return True

"""Formal division in the homogenized ring (or, through `mul`, in its z = 1
quotient).

The classical process: repeatedly pick the largest unresolved term, reduce it
by the first divisor whose leading exponent divides it, otherwise move it to
the remainder.  The unresolved terms wait in a max-heap on the order's
integer key: an exponent is pushed when it enters the working set, and an
entry whose term has cancelled since is skipped when popped.  Over
Frac(C/Q) a coefficient whose numerator lies in Q is zero in the field, so
division modulo Q is plain division there.  Truncation: the requested
x-degree cap is padded internally by a guard band (max (dx,z)-degree +
GUARD_SLACK), which makes the reported window exact; quotients keep the
padded cap, the remainder is truncated back.  A step subtracts the bare
terms of `operators.term_product`; quotient operators are built on demand.

Over QQ the loop is fraction-free: the working terms are integers W over
one denominator D, and each divisor enters as its cleared form (integer
terms over the lcm of its denominators, `HOperator.cleared`).  A step at a
term with numerator c, by a divisor with leading numerator l, takes the
least s, t with s*c == t*l (`field.cofactors`), scales W and D by s when
s != 1, and subtracts t * x^q * (cleared divisor).  Only the remainder and
the quotients become Fractions.  A parameter field clears nothing and
gives s = 1, t = c/l, so there the same loop does the field arithmetic
of plain division, step for step.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush

from .errors import LeadingTermNotCancelled, ZeroDivisor
from .operators import HOperator, term_product
from .orders import leading_data
from .params import ParamFraction, poly_divides, poly_primitive

GUARD_SLACK = 4


def partition(divisor_exps):
    """Delta classifier: e -> least j with e in exp_j + N^{2n+1}, else None."""
    vecs = [e.vec() for e in divisor_exps]

    def classify(e):
        v = e.vec()
        for j, vj in enumerate(vecs):
            if all(map(operator.ge, v, vj)):
                return j
        return None

    return classify


@dataclass
class DivisionResult:
    """One division.  `quotients` builds an operator per divisor from the
    raw `quotient_steps` when it is first read: a step (j, exponent, t, D)
    adds t * L_j / D to quotient j at that exponent, where L_j is the
    common denominator of divisor j's cleared form (`divisor_dens`)."""

    remainder: HOperator
    denom_powers: dict
    tainted: bool
    quotient_steps: list
    divisor_dens: list
    quotient_cap: object
    quotient_tainted: bool

    @cached_property
    def quotients(self):
        R = self.remainder
        field = R.field
        out = [dict() for _ in self.divisor_dens]
        for j, qe, t, d in self.quotient_steps:
            L = self.divisor_dens[j]
            q = out[j]
            q[qe] = q.get(qe, field.zero) + field.ratio(t * L if L != 1 else t, d)
        return [HOperator(R.n, field, q, cap=self.quotient_cap,
                          tainted=self.quotient_tainted) for q in out]

def divide(P, G, ord_spec, mul=None):
    """Divide P by the list G.  mul(e, c, g, cap) -> (terms, discarded) is
    the term product, `term_product` (homogenized) when None; g is a
    divisor's `cleared()` form."""
    mul = mul or term_product
    field = P.field
    n = P.n
    if any(g.is_zero() for g in G):
        raise ZeroDivisor("zero divisor in division")
    lead = [leading_data(g, ord_spec)[0] for g in G]
    forms = [g.cleared() for g in G]
    # the leading numerator depends on the order, so it is looked up here
    lnum = [f.terms[e] for f, e in zip(forms, lead)]
    classify = partition(lead)

    caps = [p.cap for p in [P] + list(G) if p.cap is not None]
    cap = min(caps) if caps else None
    if cap is None:
        internal = None
    else:
        internal = cap + max(g.top_level for g in [P, *G]) + GUARD_SLACK
    # a tainted divisor is known only up to its own cap
    gcaps = [min(g.cap, internal) if g.tainted and g.cap is not None else internal
             for g in G]

    tainted = P.tainted or any(g.tainted for g in G)
    start = P.cleared()
    working, D = dict(start.terms), start.den  # the terms are working[e] / D
    key = ord_spec.key()
    cofactors, ratio = field.cofactors, field.ratio

    def entry(e):
        return tuple(map(operator.neg, key(e))), e

    heap = [entry(e) for e in working]
    heapify(heap)
    steps = []
    remainder = {}
    denom_powers = {j: 0 for j in range(len(G))}

    while heap:
        e = heappop(heap)[1]
        c = working.pop(e, None)
        if c is None:
            continue  # cancelled since it was pushed
        j = classify(e)
        if j is None:
            remainder[e] = c, D
            continue
        # s*c == t*l: scale the working terms by s, then subtract
        # t * x^qe * (divisor j's cleared form)
        s, t = cofactors(c, lnum[j])
        if s != 1:
            working = {te: v * s for te, v in working.items()}
            c *= s
            D *= s
        qe = e - lead[j]
        steps.append((j, qe, t, D))
        denom_powers[j] += 1
        prod, discarded = mul(qe, t, forms[j], gcaps[j])
        tainted = tainted or discarded
        for te, tc in prod.items():
            if te == e:
                continue  # leading term cancels exactly
            if te in working:
                v = working[te] - tc
                if v:
                    working[te] = v
                else:
                    del working[te]
            elif tc:
                heappush(heap, entry(te))
                working[te] = -tc
        # exact cancellation of the leading term; with a tainted divisor the
        # product can lose it to the divisor's cap when e sits in the guard
        # band, which only forfeits exactness above the shared window
        got = prod.get(e)
        if got != c:
            if got is not None:
                raise LeadingTermNotCancelled(
                    f"term {e}: divisor product has {ratio(got, D)}, "
                    f"expected {ratio(c, D)}")
            tainted = True

    quotient_tainted = tainted
    R = HOperator(n, field, {e: ratio(v, d) for e, (v, d) in remainder.items()},
                  cap=internal, tainted=tainted)
    if cap is not None:
        R = R.truncated(cap)
        tainted = tainted or R.tainted
        R.tainted = tainted
    return DivisionResult(R, denom_powers, tainted, steps,
                          [f.den for f in forms], internal, quotient_tainted)


def denominator_certificate(res, G, ord_spec):
    """Check that every coefficient denominator of R and the quotients divides
    the product of divisor leading-coefficient numerators raised to the
    recorded powers (up to rational units)."""
    lead_nums = [leading_data(g, ord_spec)[1] for g in G]
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

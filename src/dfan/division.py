"""Formal division in the homogenized ring (or, with z_one, in its z = 1
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
terms of the packed product `operators._product`; quotient operators are
built on demand.

The loop runs on packed exponents (`operators.Codec`), in the codec of the
order (`OrderSpec.codec`) wide enough for the padded cap and the largest
level and field of the operands: every term the loop keeps has x-degree at
most the padded cap and level at most the dividend's, since the order
compares the level first.  Without a cap the x-degree has no bound known
in advance, so a division whose terms outgrow the width starts again in a
codec twice as wide.  Exponents are unpacked into the remainder's terms,
and into the quotients when they are first read.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush

from .errors import ExponentOverflow, LeadingTermNotCancelled, ZeroDivisor
from .operators import Codec, HOperator, _product, _z_one
from .orders import leading_data, packed_leader
from .params import ParamFraction, poly_divides, poly_primitive

GUARD_SLACK = 4


@dataclass
class DivisionResult:
    """One division.  `quotients` builds an operator per divisor from the
    raw `quotient_steps` when it is first read: a step (j, exponent, t, D)
    adds t * L_j / D to quotient j at that exponent, packed by `codec`,
    where L_j is the common denominator of divisor j's cleared form
    (`divisor_dens`)."""

    remainder: HOperator
    denom_powers: dict
    tainted: bool
    quotient_steps: list
    divisor_dens: list
    quotient_cap: object
    quotient_tainted: bool
    codec: object

    @cached_property
    def quotients(self):
        R = self.remainder
        field = R.field
        unpack = self.codec.unpack
        out = [dict() for _ in self.divisor_dens]
        for j, qp, t, d in self.quotient_steps:
            L = self.divisor_dens[j]
            q = out[j]
            qe = unpack(qp)
            q[qe] = q.get(qe, field.zero) + field.ratio(t * L if L != 1 else t, d)
        return [HOperator(R.n, field, q, cap=self.quotient_cap,
                          tainted=self.quotient_tainted) for q in out]


def divide(P, G, ord_spec, z_one=False):
    """Divide P by the list G, in the z = 1 quotient when z_one (every
    operator z-free)."""
    if not all(g.terms for g in G):
        raise ZeroDivisor("zero divisor in division")
    ops = [P, *G]
    caps = [g.cap for g in ops if g.cap is not None]
    cap = min(caps) if caps else None
    degrees = [g.degrees() for g in ops]
    level, xdeg = map(max, zip(*degrees))
    internal = None if cap is None else cap + level + GUARD_SLACK
    bound = max(internal or 0, level, xdeg)
    while True:
        codec = ord_spec.codec(bound, Codec.for_bound)
        try:
            return _divide(P, G, ord_spec, z_one, codec, cap, internal)
        except ExponentOverflow:
            if cap is not None:
                raise
            bound = (codec.top + 1) ** 2


def _divide(P, G, ord_spec, z_one, codec, cap, internal):
    field = P.field
    # the leading numerator depends on the order, so it comes with the leader
    leaders = [packed_leader(g, ord_spec, codec) for g in G]
    plead = [p for p, _ in leaders]
    rows = [g.packed(codec) for g in G]
    # a tainted divisor is known only up to its own cap
    gcaps = [min(g.cap, internal) if g.tainted and g.cap is not None else internal
             for g in G]

    tainted = P.tainted or any(g.tainted for g in G)
    working = {r[0]: r[1] for r in P.packed(codec)}  # the terms are working[p] / D
    D = P.cleared().den
    heap_key, unpack, guard = ord_spec.heap_key(codec), codec.unpack, codec.guard
    cofactors, ratio = field.cofactors, field.ratio
    heap = [(heap_key(p), p) for p in working]
    heapify(heap)
    steps = []
    remainder = {}
    denom_powers = {j: 0 for j in range(len(G))}

    while heap:
        e = heappop(heap)[1]
        c = working.pop(e, None)
        if c is None:
            continue  # cancelled since it was pushed
        # the least j whose leading exponent e dominates
        eg = e | guard
        for j, l in enumerate(plead):
            if (eg - l) & guard == guard:
                break
        else:
            remainder[e] = c, D
            continue
        # s*c == t*l: scale the working terms by s, then subtract
        # t * x^qe * (divisor j's cleared form)
        s, t = cofactors(c, leaders[j][1])
        if s != 1:
            working = {te: v * s for te, v in working.items()}
            c *= s
            D *= s
        qe = e - plead[j]
        steps.append((j, qe, t, D))
        denom_powers[j] += 1
        prod = {}
        if _product(prod, qe, t, rows[j], gcaps[j], codec):
            tainted = True
        if z_one:
            prod = _z_one(prod, codec)
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
                heappush(heap, (heap_key(te), te))
                working[te] = -tc
        # exact cancellation of the leading term; with a tainted divisor the
        # product can lose it to the divisor's cap when e sits in the guard
        # band, which only forfeits exactness above the shared window
        got = prod.get(e)
        if got != c:
            if got is not None:
                raise LeadingTermNotCancelled(
                    f"term {unpack(e)}: divisor product has {ratio(got, D)}, "
                    f"expected {ratio(c, D)}")
            tainted = True

    quotient_tainted = tainted
    R = HOperator(P.n, field,
                  {unpack(e): ratio(v, d) for e, (v, d) in remainder.items()},
                  cap=internal, tainted=tainted)
    if cap is not None:
        R = R.truncated(cap)
        tainted = tainted or R.tainted
        R.tainted = tainted
    return DivisionResult(R, denom_powers, tainted, steps,
                          [g.cleared().den for g in G], internal, quotient_tainted,
                          codec)


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

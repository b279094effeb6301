"""Standard bases by S-pair completion and reduction, with the constancy
multiplier h of a generic (parametric) standard basis.

Leading exponents are additive under the product, so completion is the usual
Buchberger loop, pruned by Buchberger's chain criterion in the Gebauer-Moller
form (it holds for left ideals of solvable algebras; the product criterion
does not).  Local orders make tails infinite series, which the x-degree cap
truncates.  A basis computed at several caps whose staircase has stabilized
between the last two caps is reported as certified.

One loop serves both rings: `standard_basis`, `spair`, `completion`,
`reduce_basis` and `division.divide` take the term product as `mul`, by
default `operators.term_product` in the homogenized ring;
`fan.homogenized_generators` passes its z = 1 form to complete plain
differential operators.  Over QQ, `spair` and `divide` run on integer
numerators over one common denominator and make Fractions only of the
coefficients they return (see `division`).

Over Frac(C/Q) the same loop computes the generic standard basis.  The field
is the only place Q enters: a coefficient whose numerator lies in Q is zero
there, so neither completion nor division treats Q specially.  The
multiplier h is a value of the result: the product of the distinct
irreducible numerator factors of the leading coefficients of the list
`completion` returns.  Those are all the coefficients the computation
divides by (reduction only rescales elements of that list), so any
specialization with h(y0) != 0 replays the whole trace verbatim.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush

from .division import divide
from .operators import Exponent, HOperator, _add_term, term_product
from .orders import leading_data
from .params import QQ_FIELD, multiplier, numerator_factors


def _join(a: Exponent, b: Exponent):
    return Exponent(tuple(map(max, a.alpha, b.alpha)),
                    tuple(map(max, a.beta, b.beta)), max(a.k, b.k))


def spair(gi, gj, ord_spec, mul=None):
    """S-operator: cross-multiply to the join of the leading exponents and
    subtract; the joined leading terms cancel exactly.  The products run on
    the cleared forms, scaled by a and b over one denominator d
    (`field.cross` of the leading numerators); mul is as in
    `division.divide`.  The S-operator keeps its own cleared form, made from
    those numerators (`field.clear_ratios`), so `divide` does not clear it
    again."""
    mul = mul or term_product
    ei = leading_data(gi, ord_spec)[0]
    ej = leading_data(gj, ord_spec)[0]
    fi, fj = gi.cleared(), gj.cleared()
    e = _join(ei, ej)
    field = gi.field
    a, b, d = field.cross(fi.terms[ei], fj.terms[ej])
    terms, cut_i = mul(e - ei, a, fi, gi.cap)
    tj, cut_j = mul(e - ej, b, fj, gj.cap)
    for te, c in tj.items():
        _add_term(terms, te, -c)
    caps = [c for c in (gi.cap, gj.cap) if c is not None]
    ratio = field.ratio
    sp = HOperator(gi.n, field, {te: ratio(c, d) for te, c in terms.items()},
                   cap=min(caps) if caps else None,
                   tainted=gi.tainted or cut_i or gj.tainted or cut_j)
    # the numerators of the terms kept are the cleared form `divide` needs
    sp.clear_memo = field.clear_ratios({te: terms[te] for te in sp.terms}, d)
    return sp


@dataclass
class StandardBasis:
    """A standard basis, and over Frac(C/Q) its multiplier h.

    `completed` is the list `completion` returned, before any reduction.
    `h_factors` are the distinct irreducible numerator factors of its leading
    coefficients, sorted as `params.multiplier` sorts them, and `h` is their
    product; both are computed on first read.  Over QQ, h is None and there
    are no factors.
    """

    basis: list
    ord_spec: object
    cap: object
    tainted: bool
    field: object
    completed: list

    @property
    def staircase(self):
        return sorted(leading_data(g, self.ord_spec)[0] for g in self.basis)

    @cached_property
    def _multiplier(self):
        if not self.field.is_param:
            return None, ()
        return multiplier(self.field.ring, numerator_factors(
            leading_data(g, self.ord_spec)[1] for g in self.completed))

    @property
    def h(self):
        return self._multiplier[0]

    @property
    def h_factors(self):
        return self._multiplier[1]


def completion(gens, ord_spec, cap=None, mul=None):
    """Run the S-pair loop with the term product mul (see `divide`); returns
    the (non-reduced) standard basis list and the taint flag.  Inputs and
    remainders enter through one Gebauer-Moller update; a pair it drops
    taints the result exactly when `spair` on it would have cut a term."""
    G, lead, top = [], [], []  # elements, leading exponents, top x-degrees
    key = ord_spec.key()
    count = itertools.count()
    heap = []    # (key of the join, formation count): least join first,
    queued = {}  # ties in the order formed; count -> (i, j, join) while live
    tainted = False

    def cut(t, L):
        # term_product(L - lead[t], ., G[t], G[t].cap) discards a term
        c = G[t].cap
        return c is not None and L.xdeg - lead[t].xdeg + top[t] > c

    def add(g):
        nonlocal tainted
        r = len(G)
        e = leading_data(g, ord_spec)[0]
        G.append(g)
        lead.append(e)
        top.append(max(x.xdeg for x in g.terms))
        # B: a queued pair whose join the new leader divides, and whose joins
        # with the new leader differ from its own, is useless
        for c, (i, j, L) in list(queued.items()):
            if (L.dominates(e) and _join(lead[i], e) != L
                    and _join(lead[j], e) != L):
                del queued[c]
                tainted = tainted or cut(i, L) or cut(j, L)
        # M: drop a new pair whose join strictly dominates another's;
        # F: of new pairs with equal joins keep the first formed
        new = [_join(et, e) for et in lead[:r]]
        kept = set()
        for t, L in enumerate(new):
            if L in kept or any(L != L2 and L.dominates(L2) for L2 in new):
                tainted = tainted or cut(t, L) or cut(r, L)
                continue
            kept.add(L)
            c = next(count)
            queued[c] = (t, r, L)
            heappush(heap, (key(L), c))

    for g in gens:
        g = g if cap is None else g.truncated(cap) if (g.cap is None or g.cap > cap) else g
        if not g.is_zero():
            tainted = tainted or g.tainted
            add(g)
    while heap:
        pair = queued.pop(heappop(heap)[1], None)
        if pair is None:
            continue  # dropped by a later update
        i, j, _ = pair
        sp = spair(G[i], G[j], ord_spec, mul=mul)
        tainted = tainted or sp.tainted
        if sp.is_zero():
            continue
        res = divide(sp, G, ord_spec, mul=mul)
        tainted = tainted or res.tainted
        if not res.remainder.is_zero():
            add(res.remainder)
    return G, tainted


def reduce_basis(basis, ord_spec, mul=None):
    """Minimal, monic, tail-reduced basis (the reduced standard basis)."""
    data = [(g,) + leading_data(g, ord_spec) for g in basis if not g.is_zero()]
    # minimalize: drop elements whose leading exponent is divisible by another's
    data.sort(key=lambda t: (t[1].xdeg + t[1].level, t[1].vec()))
    minimal = []
    for g, e, lc in data:
        if any(e.dominates(e2) for _, e2, _ in minimal):
            continue
        minimal.append((g, e, lc))
    field = minimal[0][0].field if minimal else None
    monic = [(g.scale(field.one / lc), e) for g, e, lc in minimal]
    G0 = [g for g, _ in monic]
    out = []
    tainted = any(g.tainted for g in G0)
    for g, e in monic:
        lm = HOperator.monomial(g.n, field, e, field.one, cap=g.cap)
        tail = g - lm
        if tail.is_zero():
            out.append(lm)
            continue
        res = divide(tail, G0, ord_spec, mul=mul)
        tainted = tainted or res.tainted
        r = res.remainder
        if r.cap is not None and e.xdeg > r.cap:
            # the remainder has the least cap of G0, below the leading
            # monomial: the element keeps its own cap, and so its leader
            r = HOperator(r.n, field, r.terms, cap=g.cap, tainted=r.tainted)
        out.append(lm + r)
    key = ord_spec.key()
    out.sort(key=lambda g: key(leading_data(g, ord_spec)[0]))
    return out, tainted


def standard_basis(gens, ord_spec, cap=None, reduced=True, mul=None):
    """Standard basis of the left ideal generated by gens, under the term
    product mul (see `division.divide`); over Frac(C/Q) the generic one,
    whose multiplier h is read off the result."""
    G, tainted = completion(gens, ord_spec, cap=cap, mul=mul)
    basis = G
    if reduced and G:
        basis, t2 = reduce_basis(G, ord_spec, mul=mul)
        tainted = tainted or t2
    field = gens[0].field if gens else QQ_FIELD
    return StandardBasis(basis, ord_spec, cap, tainted, field, G)


def certified_standard_basis(gens, ord_spec, caps, reduced=True):
    """Compute at increasing caps; certified when the staircase (and the
    shared window of the bases) is stable between the last two distinct
    caps.  With one distinct cap the result is uncertified."""
    caps = sorted(set(caps))
    runs = [standard_basis(gens, ord_spec, cap=cap, reduced=reduced)
            for cap in caps]
    certified = False
    if len(runs) >= 2:
        a, b = runs[-2], runs[-1]
        certified = a.staircase == b.staircase
        if certified and reduced:
            w = caps[-2]
            certified = all(x.truncated(w) == y.truncated(w)
                            for x, y in zip(a.basis, b.basis))
    return runs[-1], certified, [r.staircase for r in runs]

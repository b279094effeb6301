"""Standard bases by S-pair completion and reduction, with the constancy
multiplier h of a generic (parametric) standard basis.

Leading exponents are additive under the product, so completion is the usual
Buchberger loop, pruned by Buchberger's chain criterion in the Gebauer-Moller
form (it holds for left ideals of solvable algebras; the product criterion
does not).  Local orders make tails infinite series, which the x-degree cap
truncates.  A basis computed at several caps whose staircase has stabilized
between the last two caps is reported as certified.

One loop serves both rings: `standard_basis`, `spair`, `completion`,
`reduce_basis` and `division.divide` run in the homogenized ring, or with
`z_one` in its z = 1 quotient, where `fan.homogenized_generators`
completes plain differential operators.  Over QQ, `spair` and `divide` run
on integer numerators over one common denominator and make Fractions only
of the coefficients they return (see `division`).

Exponents are packed (`operators.Codec`) in the codec of the order
(`OrderSpec.codec`).  `spair` multiplies packed rows and hands `divide` the
S-operator's packed rows with its terms, so nothing is packed twice; it
unpacks the S-operator's terms.  `completion` keeps the leading exponents
packed, so the chain criterion's joins and divisibility tests are int
masks; when the order's codec widens, it repacks them.

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

from .division import GUARD_SLACK, divide
from .operators import Codec, HOperator, _add_term, _product, _z_one
from .orders import leading_data, packed_leader
from .params import QQ_FIELD, multiplier, numerator_factors


def spair(gi, gj, ord_spec, z_one=False):
    """S-operator: cross-multiply to the join of the leading exponents and
    subtract; the joined leading terms cancel exactly.  The products run on
    the cleared forms, scaled by a and b over one denominator d
    (`field.cross` of the leading numerators), in the z = 1 quotient when
    z_one.  The S-operator keeps its own cleared form, made from those
    numerators (`field.clear_ratios`), and its packed rows, so `divide`
    neither clears nor packs it again."""
    # a product term's level is at most the join's, at most the sum of the
    # leaders', and its x-degree at most the join's plus its factor's
    (li, xi), (lj, xj) = gi.degrees(), gj.degrees()
    codec = ord_spec.codec(max(li + lj, xi + xj + max(xi, xj)), Codec.for_bound)
    pi, ci = packed_leader(gi, ord_spec, codec)
    pj, cj = packed_leader(gj, ord_spec, codec)
    field = gi.field
    a, b, d = field.cross(ci, cj)
    e = codec.join(pi, pj)
    terms, tj = {}, {}
    cut_i = _product(terms, e - pi, a, gi.packed(codec), gi.cap, codec)
    cut_j = _product(tj, e - pj, b, gj.packed(codec), gj.cap, codec)
    if z_one:
        terms, tj = _z_one(terms, codec), _z_one(tj, codec)
    for te, c in tj.items():
        _add_term(terms, te, -c)
    caps = [c for c in (gi.cap, gj.cap) if c is not None]
    ratio, unpack = field.ratio, codec.unpack
    exps = [(unpack(te), te) for te in terms]
    sp = HOperator(gi.n, field, {x: ratio(terms[te], d) for x, te in exps},
                   cap=min(caps) if caps else None,
                   tainted=gi.tainted or cut_i or gj.tainted or cut_j)
    # the numerators of the terms kept are the cleared form `divide` needs
    if len(sp.terms) < len(exps):
        exps = [(x, te) for x, te in exps if x in sp.terms]
    sp.clear_memo = cl = field.clear_ratios({x: terms[te] for x, te in exps}, d)
    sp.pack_memo = codec.width, [codec.row(te, cl.terms[x], x) for x, te in exps]
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


def completion(gens, ord_spec, cap=None, z_one=False):
    """Run the S-pair loop, in the z = 1 quotient when z_one; returns the
    (non-reduced) standard basis list and the taint flag.  Inputs and
    remainders enter through one Gebauer-Moller update; a pair it drops
    taints the result exactly when `spair` on it would have cut a term."""
    G, lead, top = [], [], []  # elements, packed leading exponents, top x-degrees
    key = ord_spec.key()
    count = itertools.count()
    heap = []    # (key of the join, formation count): least join first,
    queued = {}  # ties in the order formed; count -> (i, j) while live
    tainted = False
    codec = None  # the order's codec when the last element was added
    top_level = top_xdeg = 0  # over the inputs and G

    def cut(t, L):
        # the product of spair(G[t], .) at the join L discards a term
        c = G[t].cap
        return (c is not None
                and codec.xdeg(L) - codec.xdeg(lead[t]) + top[t] > c)

    def add(g):
        nonlocal tainted, codec, top_level, top_xdeg
        r = len(G)
        G.append(g)
        level, xdeg = g.degrees()
        top.append(xdeg)
        top_level, top_xdeg = max(top_level, level), max(top_xdeg, xdeg)
        # the widest fields an S-pair or a division among G can need, asked
        # for at once so that they do not widen the codec one by one
        c = ord_spec.codec(max(2 * top_level, 3 * top_xdeg, 0 if cap is None
                               else cap + 2 * top_level + GUARD_SLACK),
                           Codec.for_bound)
        if c is not codec:  # the order's codec widened: repack the leaders
            lead[:] = [packed_leader(h, ord_spec, c)[0] for h in G[:r]]
            codec = c
        e = packed_leader(g, ord_spec, codec)[0]
        lead.append(e)
        dominates, join = codec.dominates, codec.join
        # B: a queued pair whose join the new leader divides, and whose joins
        # with the new leader differ from its own, is useless
        for q, (i, j) in list(queued.items()):
            L = join(lead[i], lead[j])
            if (dominates(L, e) and join(lead[i], e) != L
                    and join(lead[j], e) != L):
                del queued[q]
                tainted = tainted or cut(i, L) or cut(j, L)
        # M: drop a new pair whose join strictly dominates another's;
        # F: of new pairs with equal joins keep the first formed
        new = [join(et, e) for et in lead[:r]]
        kept = set()
        for t, L in enumerate(new):
            if L in kept or any(L != L2 and dominates(L, L2) for L2 in new):
                tainted = tainted or cut(t, L) or cut(r, L)
                continue
            kept.add(L)
            q = next(count)
            queued[q] = (t, r)
            heappush(heap, (key(codec.unpack(L)), q))

    inputs = [g if cap is None else g.truncated(cap) if (g.cap is None or g.cap > cap)
              else g for g in gens]
    inputs = [g for g in inputs if not g.is_zero()]
    for g in inputs:
        top_level, top_xdeg = map(max, (top_level, top_xdeg), g.degrees())
    for g in inputs:
        tainted = tainted or g.tainted
        add(g)
    while heap:
        pair = queued.pop(heappop(heap)[1], None)
        if pair is None:
            continue  # dropped by a later update
        i, j = pair
        sp = spair(G[i], G[j], ord_spec, z_one=z_one)
        tainted = tainted or sp.tainted
        if sp.is_zero():
            continue
        res = divide(sp, G, ord_spec, z_one=z_one)
        tainted = tainted or res.tainted
        if not res.remainder.is_zero():
            add(res.remainder)
    return G, tainted


def reduce_basis(basis, ord_spec, z_one=False):
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
        res = divide(tail, G0, ord_spec, z_one=z_one)
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


def standard_basis(gens, ord_spec, cap=None, reduced=True, z_one=False):
    """Standard basis of the left ideal generated by gens, in the z = 1
    quotient when z_one; over Frac(C/Q) the generic one, whose multiplier h
    is read off the result."""
    G, tainted = completion(gens, ord_spec, cap=cap, z_one=z_one)
    basis = G
    if reduced and G:
        basis, t2 = reduce_basis(G, ord_spec, z_one=z_one)
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

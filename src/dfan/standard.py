"""Standard bases by S-pair completion, reduction, and generic (parametric)
standard bases with a constancy multiplier h.

Leading exponents are additive under the product, so completion is the usual
Buchberger loop; local orders make tails infinite series, which the x-degree
cap truncates.  A basis computed at several caps whose staircase has
stabilized between the last two caps is reported as certified.

One loop serves both rings: `spair`, `completion`, `reduce_basis` and
`division.divide` take the product as `mul`, the homogenized product by
default.  `fan.dn_standard_basis` passes the z = 1 product to complete plain
differential operators.

Generic standard bases run the same loop over Frac(C/Q); the multiplier h
collects the (square-free) numerator factors of every leading coefficient the
completion divides by, so any specialization with h(y0) != 0 replays the
whole trace verbatim.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .division import divide
from .errors import CapTooSmall
from .operators import Exponent, HOperator
from .orders import leading_data
from .params import ParamField, ParamFraction, factor_squarefree


def _join(a: Exponent, b: Exponent):
    return Exponent(tuple(max(x, y) for x, y in zip(a.alpha, b.alpha)),
                    tuple(max(x, y) for x, y in zip(a.beta, b.beta)),
                    max(a.k, b.k))


def spair(gi, gj, ord_spec, mul=operator.mul):
    """S-operator: cross-multiply to the join of the leading exponents and
    subtract; the joined leading terms cancel exactly."""
    ei, lci = leading_data(gi, ord_spec)
    ej, lcj = leading_data(gj, ord_spec)
    e = _join(ei, ej)
    field = gi.field
    mi = HOperator.monomial(gi.n, field, e - ei, field.one / lci, cap=gi.cap)
    mj = HOperator.monomial(gj.n, field, e - ej, field.one / lcj, cap=gj.cap)
    return mul(mi, gi) - mul(mj, gj)


@dataclass
class StandardBasis:
    basis: list
    ord_spec: object
    cap: object
    tainted: bool

    @property
    def staircase(self):
        return sorted(leading_data(g, self.ord_spec)[0] for g in self.basis)


def _collect_lc_factors(lc, factors):
    if isinstance(lc, ParamFraction):
        for f in factor_squarefree(lc.num):
            factors.setdefault(f, f)


def completion(gens, ord_spec, cap=None, h_factors=None, mul=operator.mul):
    """Run the S-pair loop with the product mul; returns the (non-reduced)
    standard basis list and the taint flag."""
    G = []
    for g in gens:
        g = g if cap is None else g.truncated(cap) if (g.cap is None or g.cap > cap) else g
        if not g.is_zero():
            G.append(g)
    if h_factors is not None:
        for g in G:
            _collect_lc_factors(leading_data(g, ord_spec)[1], h_factors)
    # pairs wait in a heap: the least join of leading exponents first, ties
    # in the order the pairs were formed
    key = ord_spec.key()
    lead = [leading_data(g, ord_spec)[0] for g in G]
    count = itertools.count()
    pairs = [(key(_join(lead[i], lead[j])), next(count), i, j)
             for i, j in itertools.combinations(range(len(G)), 2)]
    heapify(pairs)
    tainted = any(g.tainted for g in G)
    while pairs:
        _, _, i, j = heappop(pairs)
        sp = spair(G[i], G[j], ord_spec, mul=mul)
        tainted = tainted or sp.tainted
        if sp.is_zero():
            continue
        res = divide(sp, G, ord_spec, mul=mul)
        tainted = tainted or res.tainted
        r = res.remainder + res.t_part
        if r.is_zero():
            continue
        if h_factors is not None:
            _collect_lc_factors(leading_data(r, ord_spec)[1], h_factors)
        G.append(r)
        e = leading_data(r, ord_spec)[0]
        for t, et in enumerate(lead):
            heappush(pairs, (key(_join(et, e)), next(count), t, len(lead)))
        lead.append(e)
    return G, tainted


def reduce_basis(basis, ord_spec, h_factors=None, mul=operator.mul):
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
    monic = []
    for g, e, lc in minimal:
        if h_factors is not None:
            _collect_lc_factors(lc, h_factors)
        monic.append((g.scale(field.one / lc), e))
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
        red = lm + res.remainder + res.t_part
        out.append(red)
    key = ord_spec.key()
    out.sort(key=lambda g: key(leading_data(g, ord_spec)[0]))
    return out, tainted


def standard_basis(gens, ord_spec, cap=None, reduced=True):
    """Standard basis of the left ideal generated by gens."""
    G, tainted = completion(gens, ord_spec, cap=cap)
    if reduced and G:
        G, t2 = reduce_basis(G, ord_spec)
        tainted = tainted or t2
    return StandardBasis(G, ord_spec, cap, tainted)


def certified_standard_basis(gens, ord_spec, caps, reduced=True, strict=False):
    """Compute at increasing caps; certified when the staircase (and the
    shared window of the bases) is stable between the last two caps."""
    caps = sorted(caps)
    runs = []
    for cap in caps:
        runs.append(standard_basis(gens, ord_spec, cap=cap, reduced=reduced))
    certified = False
    if len(runs) >= 2:
        a, b = runs[-2], runs[-1]
        certified = a.staircase == b.staircase
        if certified and reduced:
            w = caps[-2]
            certified = all(x.truncated(w) == y.truncated(w)
                            for x, y in zip(a.basis, b.basis))
    if strict and not certified:
        raise CapTooSmall(f"staircase not stable across caps {caps}")
    return runs[-1], certified, [r.staircase for r in runs]


# ---------------------------------------------------------------------------
# generic standard bases with constancy multiplier
# ---------------------------------------------------------------------------

@dataclass
class GenSBCertificate:
    """(G, h): G a standard basis over Frac(C/Q) whose computation trace
    specializes verbatim at every point of V(Q) off V(h)."""

    basis: list
    h: object
    h_factors: list
    q_ideal: object
    ord_spec: object
    cap: object
    tainted: bool
    certified: bool = True

    def specialized_basis(self, y0):
        return [g.specialize(y0) for g in self.basis]


def generic_standard_basis(gens, Q, ord_spec, cap=None, reduced=True):
    """Generic standard basis of the ideal generated by gens, modulo Q.

    gens may have Fraction, parameter-polynomial or ParamFraction
    coefficients; they are coerced into Frac(C/Q).  Returns a
    GenSBCertificate.
    """
    field = ParamField(Q.ring, Q)
    work = [g.to_field(field) for g in gens]
    factors = {}
    G, tainted = completion(work, ord_spec, cap=cap, h_factors=factors)
    if reduced and G:
        G, t2 = reduce_basis(G, ord_spec, h_factors=factors)
        tainted = tainted or t2
    h = Q.ring.one
    h_factors = sorted(factors.values(), key=sorted)
    for f in h_factors:
        h = h * f
    return GenSBCertificate(G, h, h_factors, Q, ord_spec, cap, tainted)


def reduced_generic_standard_basis(gens, Q, ord_spec, cap=None):
    return generic_standard_basis(gens, Q, ord_spec, cap=cap, reduced=True)


def uniqueness_check(gens, ord_spec, cap, shuffles=5, seed=0):
    """Reduced standard bases from shuffled and rescaled generator lists must
    coincide."""
    rng = random.Random(seed)
    ref = standard_basis(gens, ord_spec, cap=cap, reduced=True)
    for _ in range(shuffles):
        perm = list(gens)
        rng.shuffle(perm)
        field = perm[0].field
        perm = [g.scale(field.coerce(Fraction(rng.randint(1, 7),
                                              rng.randint(1, 7))
                                     * rng.choice((1, -1))))
                for g in perm]
        other = standard_basis(perm, ord_spec, cap=cap, reduced=True)
        if len(other.basis) != len(ref.basis):
            return False
        if any(a != b for a, b in zip(ref.basis, other.basis)):
            return False
    return True

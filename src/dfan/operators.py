"""Terms, operators and products in the homogenized differential operator ring.

An operator is a finite sum of terms c * x^alpha * dx^beta * z^k, stored
normal-ordered (all x to the left of all dx).  The only nontrivial relation is
[dx_i, x_i] = z, so a product expands by

    dx^b x^a = sum_j C(b,j) * a!/(a-j)! * x^(a-j) dx^(b-j) z^j

coordinatewise.  Products preserve the total (dx,z)-degree, the grading of the
ring.  An optional cap on the total x-degree truncates formal (power-series)
computations; discarding a term sets the taint flag on the result.
`term_product`, one term times an operator, is the product division runs on;
`HOperator.__mul__` sums it over the terms of its left factor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from operator import add, ge, sub
from typing import NamedTuple

from .params import QQ_FIELD


class Exponent(NamedTuple):
    alpha: tuple
    beta: tuple
    k: int

    def __add__(self, other):
        return Exponent(tuple(map(add, self.alpha, other.alpha)),
                        tuple(map(add, self.beta, other.beta)),
                        self.k + other.k)

    def __sub__(self, other):
        return Exponent(tuple(map(sub, self.alpha, other.alpha)),
                        tuple(map(sub, self.beta, other.beta)),
                        self.k - other.k)

    def dominates(self, other):
        """Componentwise >= (self lies in other + N^{2n+1})."""
        return (self.k >= other.k
                and all(map(ge, self.alpha, other.alpha))
                and all(map(ge, self.beta, other.beta)))

    @property
    def xdeg(self):
        return sum(self.alpha)

    @property
    def level(self):
        """Total (dx,z)-degree |beta| + k, the grading degree."""
        return sum(self.beta) + self.k

    def vec(self):
        """Point of Z^{2n+1}: (alpha, beta, k)."""
        return self.alpha + self.beta + (self.k,)


def exponent(n, alpha=(), beta=(), k=0):
    a = tuple(alpha) + (0,) * (n - len(alpha))
    b = tuple(beta) + (0,) * (n - len(beta))
    return Exponent(a, b, k)


def _falling(a, j):
    r = 1
    for t in range(j):
        r *= a - t
    return r


class HOperator:
    """Element of the homogenized ring over a coefficient field.

    `terms` is never mutated after construction.  `lead_memo` holds
    (OrderSpec, leading exponent) for the last order `orders.leading_data`
    was asked about, or None; `clear_memo` holds `cleared()` once read;
    `newton_memo` holds the polyhedron `newton.newton` built, or None;
    `level_memo` holds `top_level` once read; `str_memo` holds `str()`
    once read.
    """

    __slots__ = ("n", "field", "terms", "cap", "tainted", "lead_memo",
                 "clear_memo", "newton_memo", "level_memo", "str_memo")

    def __init__(self, n, field, terms=None, cap=None, tainted=False):
        self.n = n
        self.field = field
        clean = {}
        if terms:
            for e, c in terms.items():
                if not c:
                    continue
                if cap is not None and e.xdeg > cap:
                    tainted = True
                    continue
                clean[e] = c
        self.terms = clean
        self.cap = cap
        self.tainted = tainted
        self.lead_memo = None
        self.clear_memo = None
        self.newton_memo = None
        self.level_memo = None
        self.str_memo = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n, field, cap=None):
        return cls(n, field, None, cap=cap)

    @classmethod
    def monomial(cls, n, field, e, coeff=None, cap=None):
        c = field.one if coeff is None else coeff
        return cls(n, field, {e: c}, cap=cap)

    # -- predicates / views -------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def top_level(self):
        """Largest grading degree of a term (0 for the zero operator)."""
        if self.level_memo is None:
            self.level_memo = max((e.level for e in self.terms), default=0)
        return self.level_memo

    def cleared(self):
        """The terms over one common denominator, `field.clear(terms)`: a
        `params.Cleared` whose `terms` division and S-pairs multiply.  It
        does not depend on an order, so it is kept for good."""
        if self.clear_memo is None:
            self.clear_memo = self.field.clear(self.terms)
        return self.clear_memo

    def z_free(self):
        return all(e.k == 0 for e in self.terms)

    def __eq__(self, other):
        if not isinstance(other, HOperator):
            return NotImplemented
        if self.n != other.n or set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _meta(self, other):
        cap = self.cap
        if other.cap is not None:
            cap = other.cap if cap is None else min(cap, other.cap)
        return cap, self.tainted or other.tainted

    def __neg__(self):
        return HOperator(self.n, self.field, {e: -c for e, c in self.terms.items()},
                         cap=self.cap, tainted=self.tainted)

    def __add__(self, other):
        cap, taint = self._meta(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            _add_term(t, e, c)
        return HOperator(self.n, self.field, t, cap=cap, tainted=taint)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return HOperator.zero(self.n, self.field, cap=self.cap)
        return HOperator(self.n, self.field, {e: v * c for e, v in self.terms.items()},
                         cap=self.cap, tainted=self.tainted)

    def __mul__(self, other):
        """Normal-ordered ring product, truncated at the combined cap."""
        cap, taint = self._meta(other)
        out = {}
        for e, c in self.terms.items():
            if _product_into(out, e, c, other, cap):
                taint = True
        return HOperator(self.n, self.field, out, cap=cap, tainted=taint)

    # -- transforms ----------------------------------------------------------

    def truncated(self, cap):
        """Discard terms of x-degree above cap; taint if any were nonzero."""
        t = {e: c for e, c in self.terms.items() if e.xdeg <= cap}
        taint = self.tainted or len(t) != len(self.terms)
        return HOperator(self.n, self.field, t, cap=cap, tainted=taint)

    def specialize(self, y0):
        """Coefficientwise evaluation at the parameter point y0."""
        out = {}
        for e, c in self.terms.items():
            v = c if isinstance(c, Fraction) else c.specialize(y0)
            if v:
                out[e] = v
        return HOperator(self.n, QQ_FIELD, out, cap=self.cap, tainted=self.tainted)

    def to_field(self, field):
        """Coerce every coefficient into another coefficient field."""
        out = {}
        for e, c in self.terms.items():
            v = field.coerce(c)
            if v:
                out[e] = v
        return HOperator(self.n, field, out, cap=self.cap, tainted=self.tainted)

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.str_memo is None:
            self.str_memo = self._format()
        return self.str_memo

    def _format(self):
        if not self.terms:
            return "0"
        def key(e):
            return (e.level, e.xdeg, e.vec())
        parts = []
        for e in sorted(self.terms, key=key):
            parts.append(_fmt_term(e, self.terms[e]))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


def term_product(e, c, g, cap, z_one=False):
    """c * x^a dx^b z^k times g, for e = (a, b, k), truncated at the x-degree
    cap (None: none); with z_one, in the z = 1 quotient.  g is anything with
    `terms`, such as an operator or its `cleared()` form, and c any
    coefficient its terms multiply with.  Returns the terms dict and whether
    the cap cut a nonzero term, the term e itself included."""
    if cap is not None and sum(e[0]) > cap:
        return {}, True  # every product term has x-degree at least |a|
    out = {}
    discarded = _product_into(out, e, c, g, cap)
    return (_z_one(out) if z_one else out), discarded


def _product_into(out, e, c, g, cap):
    """Add c * x^a dx^b z^k times g, truncated at cap, into the terms dict
    out, row by row of g; returns whether the cap cut a nonzero term.
    `HOperator.__mul__` sums its rows term by term of the left factor into
    one dict, so both products give the same Frac(C/Q) representatives."""
    a, b, k = e
    xa = sum(a)
    discarded = False
    for (a2, b2, k2), c2 in g.terms.items():
        base = c * c2
        xdeg = xa + sum(a2)
        alpha = tuple(map(add, a, a2))
        beta = tuple(map(add, b, b2))
        lims = tuple(map(min, b, a2))
        # most pairs do not commute; skipping the call there is measurable
        for j, mult in _commutation_choices(b, a2, lims) if any(lims) else ((lims, 1),):
            s = sum(j)
            if cap is not None and xdeg - s > cap:
                discarded = True
                continue
            te = (Exponent(tuple(map(sub, alpha, j)), tuple(map(sub, beta, j)),
                           k + k2 + s) if s else Exponent(alpha, beta, k + k2))
            _add_term(out, te, base * mult if mult != 1 else base)
    return discarded


def _z_one(terms):
    """Merge exponents (alpha, beta, k) -> (alpha, beta, 0), in term order."""
    out = {}
    for e, c in terms.items():
        _add_term(out, Exponent(e.alpha, e.beta, 0), c)
    return out


def _add_term(terms, e, c):
    """terms[e] += c, dropping the entry when the sum is zero."""
    if e in terms:
        s = terms[e] + c
        if s:
            terms[e] = s
        else:
            del terms[e]
    else:
        terms[e] = c


def _commutation_choices(beta1, alpha2, lims):
    """All j <= lims = min(beta1, alpha2) with multiplicity
    prod_i C(beta1_i, j_i)*(alpha2_i)_{j_i}, starting with j = 0."""
    out = []
    for j in product(*(range(l + 1) for l in lims)):
        mult = 1
        for i, ji in enumerate(j):
            if ji:
                mult *= comb(beta1[i], ji) * _falling(alpha2[i], ji)
        if mult:
            out.append((j, mult))
    return out


def _fmt_term(e, c):
    factors = []
    for i, p in enumerate(e.alpha):
        if p:
            factors.append(f"x{i+1}" + (f"^{p}" if p > 1 else ""))
    for i, p in enumerate(e.beta):
        if p:
            factors.append(f"dx{i+1}" + (f"^{p}" if p > 1 else ""))
    if e.k:
        factors.append("z" + (f"^{e.k}" if e.k > 1 else ""))
    mono = "*".join(factors)
    cs = str(c)
    if not mono:
        return cs
    if cs == "1":
        return mono
    if cs == "-1":
        return "-" + mono
    if any(ch in cs for ch in "+-") and not (cs.startswith("-") and
                                             not any(ch in cs[1:] for ch in "+-")):
        cs = f"({cs})"
    return f"{cs}*{mono}"


def homogenize(p):
    """h(P): insert z-powers so every term has (dx,z)-degree deg(P)."""
    if not p.z_free():
        raise ValueError("operator already involves z")
    if p.is_zero():
        return p
    d = max(sum(e.beta) for e in p.terms)
    out = {Exponent(e.alpha, e.beta, d - sum(e.beta)): c for e, c in p.terms.items()}
    return HOperator(p.n, p.field, out, cap=p.cap, tainted=p.tainted)

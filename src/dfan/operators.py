"""Terms, operators and products in the homogenized differential operator ring.

An operator is a finite sum of terms c * x^alpha * dx^beta * z^k, stored
normal-ordered (all x to the left of all dx).  The only nontrivial relation is
[dx_i, x_i] = z, so a product expands by

    dx^b x^a = sum_j C(b,j) * a!/(a-j)! * x^(a-j) dx^(b-j) z^j

coordinatewise.  Products preserve the total (dx,z)-degree, the grading of the
ring.  An optional cap on the total x-degree truncates formal (power-series)
computations; discarding a term sets the taint flag on the result.

`Exponent` is the public value of an exponent.  The products, divisions and
S-pairs run on exponents packed into one int by a `Codec`: the fields of
`Exponent.vec()`, most significant first, each `width` bits wide with a
guard bit above it.  Sums and differences of exponents are int + and -, a
divisibility test is one guard-mask test and a join one mask.  The width is
the bit length of a bound on every field the computation can meet, worked
out from its own inputs (the padded cap and the largest level): products
keep the level, so a product term's level bounds its dx- and z-fields, and
the cap bounds its x-fields.  A field outside the width raises
`ExponentOverflow`, never wraps.  `HOperator.packed(codec)` keeps an
operator's packed rows; exponents are unpacked where they leave the packed
loops, as the terms of a result.  `_product` is the one Leibniz loop:
`HOperator.__mul__` sums its rows term by term of the left factor, and
`division.divide` and `standard.spair` multiply one term by an operator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from operator import add, ge, lshift, sub
from typing import NamedTuple

from .errors import ExponentOverflow
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


class Codec:
    """Exponents (alpha, beta, k) in n variables packed into one int.

    The 2n + 1 fields of `Exponent.vec()` sit most significant first, each
    `width` bits with a guard bit above it, so ints compare as the fields do
    lexicographically.  The sum of two packed exponents is their int sum, and
    a difference whose fields stay nonnegative their int difference; a field
    that outgrows the width sets its guard bit and cannot carry into its
    neighbour, as long as it stays below twice the width's range.  `packs`
    and `seen` remember the exponents `pack` and `unpack` met, each both
    ways, and `choice_memo` the commutation terms of each (beta, alpha)
    pair.
    """

    __slots__ = ("n", "width", "top", "shifts", "guard", "low", "alpha_low",
                 "packs", "seen", "choice_memo")

    def __init__(self, n, width):
        self.n = n
        self.width = width
        self.top = (1 << width) - 1  # the largest value a field holds
        step = width + 1
        self.shifts = tuple(step * i for i in range(2 * n, -1, -1))
        self.guard = sum(1 << (s + width) for s in self.shifts)
        self.low = (1 << step) - 1   # the k field and its guard bit
        self.alpha_low = sum(1 << s for s in self.shifts[:n])  # 1 in each alpha field
        self.packs = {}
        self.seen = {}
        self.choice_memo = {}

    @staticmethod
    def for_bound(n, bound):
        """The narrowest codec whose fields hold every value up to bound."""
        return Codec(n, max(bound, 1).bit_length())

    def pack(self, e):
        p = self.packs.get(e)
        if p is None:
            alpha, beta, k = e
            v = (*alpha, *beta, k)
            if min(v) < 0 or max(v) > self.top:
                raise ExponentOverflow(
                    f"exponent {e} does not fit {self.width}-bit fields")
            p = self.packs[e] = sum(map(lshift, v, self.shifts))
            self.seen[p] = e
        return p

    def fields(self, p):
        top = self.top
        return [(p >> s) & top for s in self.shifts]

    def unpack(self, p):
        e = self.seen.get(p)
        if e is None:
            f, n = self.fields(p), self.n
            e = self.seen[p] = Exponent(tuple(f[:n]), tuple(f[n:-1]), f[-1])
            self.packs[e] = p
        return e

    def row(self, p, c, e=None):
        """(p, c, alpha, x-degree, alpha support): the term c * x^alpha ...
        that p packs (e, when given) as the product reads it.  The support
        is the mask of the beta fields i with alpha_i > 0: a left factor
        dx^b commutes with x^alpha exactly when its packed exponent has no
        bit there.  Subtracting 1 from each alpha field leaves its guard
        bit set exactly when the field is nonzero; moved onto the beta
        fields, each such bit spreads to a mask of its field."""
        alpha = (e or self.unpack(p)).alpha
        w, low = self.width, self.alpha_low
        m = (((p | self.guard) - low) & (low << w)) >> (self.n * (w + 1))
        return p, c, alpha, sum(alpha), m - (m >> w)

    def dominates(self, p, q):
        """Componentwise p >= q."""
        g = self.guard
        return ((p | g) - q) & g == g

    def join(self, p, q):
        """Componentwise max: each guard bit of (p | guard) - q says p_i >= q_i,
        and spreads to a mask of its field."""
        m = ((p | self.guard) - q) & self.guard
        return q ^ ((p ^ q) & (m - (m >> self.width)))

    def xdeg(self, p):
        return sum(self.unpack(p).alpha)

    def clear_k(self, p):
        """The exponent with k = 0."""
        return p & ~self.low

    def choices(self, beta1, alpha2):
        """The commutation terms of dx^beta1 x^alpha2: each j <= min(beta1,
        alpha2) with multiplicity prod_i C(beta1_i, j_i)*(alpha2_i)_{j_i},
        starting with j = 0, as (d, |j|, multiplicity), where subtracting d
        takes j from alpha and beta and adds |j| to k."""
        key = beta1, alpha2
        out = self.choice_memo.get(key)
        if out is None:
            lims = tuple(map(min, beta1, alpha2))
            s, n = self.shifts, self.n
            out = []
            for j in product(*(range(l + 1) for l in lims)):
                mult = 1
                for i, ji in enumerate(j):
                    if ji:
                        mult *= comb(beta1[i], ji) * _falling(alpha2[i], ji)
                if mult:
                    t = sum(j)
                    d = sum(map(lshift, j, s)) + sum(map(lshift, j, s[n:]))
                    out.append((d - t, t, mult))
            self.choice_memo[key] = out
        return out


class HOperator:
    """Element of the homogenized ring over a coefficient field.

    `terms` is never mutated after construction.  `lead_memo` holds
    (OrderSpec, leading exponent) for the last order `orders.leading_data`
    was asked about, or None, and `plead_memo` (OrderSpec, codec, packed
    leading exponent) for the last codec `orders.packed_leader` was asked
    about; `clear_memo` holds `cleared()` once read, and `pack_memo`
    (width, rows) the rows `packed()` made of it last; `newton_memo` holds
    the polyhedron `newton.newton` built, or None; `degree_memo` holds
    `degrees()` once read; `str_memo` holds `str()` once read.
    """

    __slots__ = ("n", "field", "terms", "cap", "tainted", "lead_memo",
                 "plead_memo", "clear_memo", "pack_memo", "newton_memo",
                 "degree_memo", "str_memo")

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
        self.plead_memo = None
        self.clear_memo = None
        self.pack_memo = None
        self.newton_memo = None
        self.degree_memo = None
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

    def degrees(self):
        """(largest level, largest x-degree) of a term, (0, 0) for the zero
        operator."""
        if self.degree_memo is None:
            terms = self.terms
            self.degree_memo = (max([sum(b) + k for _, b, k in terms], default=0),
                                max([sum(a) for a, _, _ in terms], default=0))
        return self.degree_memo

    def cleared(self):
        """The terms over one common denominator, `field.clear(terms)`: a
        `params.Cleared` whose `terms` division and S-pairs multiply.  It
        does not depend on an order, so it is kept for good."""
        if self.clear_memo is None:
            self.clear_memo = self.field.clear(self.terms)
        return self.clear_memo

    def packed(self, codec):
        """The rows (`Codec.row`) of the cleared terms, in their order."""
        memo = self.pack_memo
        if memo is None or memo[0] != codec.width:
            memo = self.pack_memo = (codec.width, [
                codec.row(codec.pack(e), c, e) for e, c in self.cleared().terms.items()])
        return memo[1]

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
        """Normal-ordered ring product, truncated at the combined cap, on
        the cleared forms of both factors."""
        cap, taint = self._meta(other)
        (la, xa), (lb, xb) = self.degrees(), other.degrees()
        codec = Codec.for_bound(self.n, max(la + lb, xa + xb))
        rows = other.packed(codec)
        out = {}
        # a zero right factor cuts nothing, whatever the left factor's terms
        for r in self.packed(codec) if rows else ():
            if _product(out, r[0], r[1], rows, cap, codec):
                taint = True
        ratio, den = self.field.ratio, self.cleared().den * other.cleared().den
        return HOperator(self.n, self.field,
                         {codec.unpack(p): ratio(v, den) for p, v in out.items()},
                         cap=cap, tainted=taint)

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


def _product(out, p, c, rows, cap, codec):
    """Add c * x^a dx^b z^k times an operator into the dict out, for p the
    packed (a, b, k) and rows the operator's packed rows, row by row,
    truncated at the x-degree cap (None: none); returns whether the cap cut
    a nonzero term, the term p itself included."""
    top, s, n = codec.top, codec.shifts, codec.n
    xa = sum([(p >> s[i]) & top for i in range(n)])
    if cap is not None and xa > cap:
        return True  # every product term has x-degree at least |a|
    guard = codec.guard
    beta = None
    discarded = False
    for p2, c2, a2, x2, supp in rows:
        base = c * c2
        xd = xa + x2
        te = p + p2
        # most pairs do not commute: then the one product term is te
        if p & supp:
            if beta is None:
                beta = tuple([(p >> s[i]) & top for i in range(n, 2 * n)])
            terms = [(te - d, xd - j, base * mult if mult != 1 else base)
                     for d, j, mult in codec.choices(beta, a2)]
        else:
            terms = ((te, xd, base),)
        for te, xd, v in terms:
            if cap is not None and xd > cap:
                discarded = True
                continue
            if te & guard:
                raise ExponentOverflow(
                    f"product term {codec.fields(te)} does not fit "
                    f"{codec.width}-bit fields")
            if te in out:
                v = out[te] + v
                if v:
                    out[te] = v
                else:
                    del out[te]
            else:
                out[te] = v
    return discarded


def _z_one(terms, codec):
    """Merge packed exponents (alpha, beta, k) -> (alpha, beta, 0), in term
    order."""
    out = {}
    for p, c in terms.items():
        _add_term(out, codec.clear_k(p), c)
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

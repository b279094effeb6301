"""Admissible weights and term orders on the exponent lattice.

Orders must satisfy x_i < 1 and x_i*dx_i > 1.  The one built-in base
comparison takes the total dx-degree first (descending), then the x-part
antigraded lexicographically (lower total x-degree is greater, the local
direction), then lexicographically on dx.  Every order compares the level
|beta| + k first; weight vectors refine after it, in front of the base.  In
the z = 1 quotient every exponent has k = 0, so there the level is the
dx-degree.

The key is the order: `OrderSpec.key()` is a function, compiled once per
order, that maps an exponent to a tuple of integers, and two exponents
compare as their keys do lexicographically (each weight is scaled by the
lcm of its denominators, which keeps its order and makes its values
integers).  Completion, division and reduction all sort with it; the
rule-by-rule statement of the same order lives in the tests, as the oracle
the key is checked against.  `leading_data` remembers each operator's
leading exponent for the last order it was asked about.

Computations under one order share one packing of exponents into ints
(`operators.Codec`), kept by the order: `OrderSpec.codec(bound, make)`
returns it, rebuilt wider when a computation's field bound (its padded cap
and largest level, see `division`) exceeds it; it never narrows.  This
module does not import `operators`, so the caller passes the constructor.
`OrderSpec.heap_key(codec)` is the key of packed exponents, negated for
max-first heaps and computed once per exponent through an unpack, and
`packed_leader` keeps each operator's packed leading exponent and leading
numerator next to `leading_data`'s memo.

The admissible cone W = {u <= 0, u + v >= 0} is stated here and nowhere
else: `w_forms(n)` lists its 2n integer forms, -u_1 ... -u_n and then
u_1 + v_1 ... u_n + v_n, and a vector lies in W when none is negative.
`w_values(vec)` gives their values at a vector, in the same order, without
building the forms.  `newton` reads them for the W constraints of every
normal cone and for the generators of the dual cone W*, and the fan
traversal reads the values to step off a cell.  `in_w` and
`Weight.activity` test the same forms directly, since admissibility is
checked at every order refinement.

A weight is an integer vector over one positive denominator: `Weight.ivec`
is (u, v) times `Weight.den`, the least common denominator, and these two
fields are all a weight stores.  The pair is canonical (gcd(den, *ivec) =
1), so equality and hashing are those of the rational coordinates.  The
vector is a positive multiple of the weight, so admissibility (`in_w`), the
activity strata, the key's integer form, the faces of `newton.face_of` and
the cone membership tests of the fan traversal all read it.  `Weight` is
the one place that converts between weights and rationals: `Weight.make`
builds a weight from rational coordinates, and `u`, `v` and `as_tuple` are
Fraction views of it, for display and for the tests' oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul, neg

from .errors import NotAdmissible, ZeroOperator


def w_forms(n):
    """The 2n integer forms on Q^{2n} whose common nonnegative set is W:
    -u_i for each i, then u_i + v_i for each i."""
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return (tuple(tuple(-c for c in e) + (0,) * n for e in units)
            + tuple(e + e for e in units))


def w_values(vec):
    """The values of the forms `w_forms` at the vector (u, v), in their
    order: -u_i for each i, then u_i + v_i for each i."""
    n = len(vec) // 2
    return [-a for a in vec[:n]] + [a + b for a, b in zip(vec, vec[n:])]


def in_w(vec):
    """Is the vector (u, v), or any positive multiple of it, in the
    admissible cone W: every u_i <= 0 and every u_i + v_i >= 0?"""
    n = len(vec) // 2
    return (all(a <= 0 for a in vec[:n])
            and all(a + b >= 0 for a, b in zip(vec[:n], vec[n:])))


@dataclass(frozen=True)
class Weight:
    """Weight vector w = (u, v) on (x, dx); z always has weight 0.  Stored
    as ivec / den: ivec the integers (u, v) times den, den > 0 and
    gcd(den, *ivec) = 1."""

    ivec: tuple
    den: int

    @staticmethod
    def make(u, v):
        """The weight with the rational coordinates u, v."""
        coords = [Fraction(c) for c in (*u, *v)]
        den = lcm(*(c.denominator for c in coords))
        return Weight(tuple(c.numerator * (den // c.denominator) for c in coords),
                      den)

    @staticmethod
    def over(vec, den):
        """The weight vec / den, for an integer vector vec and den > 0."""
        g = gcd(den, *vec)
        return Weight(tuple(c // g for c in vec), den // g)

    @property
    def n(self):
        return len(self.ivec) // 2

    @property
    def u(self):
        return self.as_tuple()[:self.n]

    @property
    def v(self):
        return self.as_tuple()[self.n:]

    def is_admissible(self):
        return in_w(self.ivec)

    def check_admissible(self):
        if not self.is_admissible():
            raise NotAdmissible(f"weight {self} is not admissible")

    def as_tuple(self):
        """(u, v) as one tuple of Fractions."""
        return tuple(Fraction(c, self.den) for c in self.ivec)

    def integer_form(self):
        """(u, v) times the lcm of the denominators: integers, same order."""
        iv, n = self.ivec, self.n
        return iv[:n], iv[n:]

    def activity(self):
        """Indices of active W constraints: ({i: u_i = 0}, {i: u_i + v_i = 0})."""
        iv, n = self.ivec, self.n
        return (frozenset(i for i in range(n) if not iv[i]),
                frozenset(i for i in range(n) if not iv[i] + iv[n + i]))

    def __str__(self):
        return f"(u={tuple(map(str, self.u))}, v={tuple(map(str, self.v))})"


@dataclass(frozen=True)
class OrderSpec:
    """Admissible order: the level |beta| + k, then weight refinements,
    then the built-in base (total dx-degree, then antigraded lex on x, then
    lex on dx).

    xprio: x-variable priority for the lex tie-breaks (index tuple, highest
    priority first).
    weights: refinement chain, outermost first.
    """

    n: int
    xprio: tuple = ()
    weights: tuple = ()

    def __post_init__(self):
        if not self.xprio:
            object.__setattr__(self, "xprio", tuple(range(self.n)))
        for w in self.weights:
            if not w.is_admissible():
                raise NotAdmissible(f"refinement weight {w} is not admissible")

    def with_weight(self, w):
        """Refine by w in front of the existing chain."""
        return OrderSpec(self.n, self.xprio, (w,) + tuple(self.weights))

    def key(self):
        """Sort key for exponents, ascending in this order.

        The key of (alpha, beta, k) is the integer tuple
        (|beta| + k, each weight's value with its
        denominators cleared, |beta|, -|alpha|, alpha and then beta in xprio
        order, k), built once per OrderSpec.
        """
        return self._key

    @cached_property
    def _key(self):
        forms = tuple(w.integer_form() for w in self.weights)
        perm = None if self.xprio == tuple(range(self.n)) else self.xprio

        def key(e):
            alpha, beta, k = e
            dx = sum(beta)
            out = [dx + k]
            for u, v in forms:
                out.append(sum(map(mul, u, alpha)) + sum(map(mul, v, beta)))
            out.append(dx)
            out.append(-sum(alpha))
            if perm is not None:
                alpha = [alpha[i] for i in perm]
                beta = [beta[i] for i in perm]
            out.extend(alpha)
            out.extend(beta)
            out.append(k)
            return tuple(out)

        return key

    def max_exponent(self, exps):
        return max(exps, key=self.key())

    def codec(self, bound, make):
        """The packing of exponents that computations under this order
        share: the codec `make(n, bound)` (`operators.Codec.for_bound`)
        built for the largest field bound asked for so far, rebuilt when a
        computation needs more.  Its width grows only, so the packed rows
        and leaders the operators keep stay valid while no computation
        needs more."""
        c = self.__dict__.get("_codec")
        if c is None or c.top < bound:
            c = make(self.n, max(bound, c.top if c else 0))
            object.__setattr__(self, "_codec", c)  # a memo, not a field
        return c

    def heap_key(self, codec):
        """p -> the key of the exponent p packs in codec, negated, so a
        min-heap pops the greatest exponent first; each p's key is
        computed once per codec."""
        memo = self.__dict__.get("_heap_key")
        if memo is None or memo[0] is not codec:
            key, unpack, seen = self._key, codec.unpack, {}

            def heap_key(p):
                v = seen.get(p)
                if v is None:
                    v = seen[p] = tuple(map(neg, key(unpack(p))))
                return v

            memo = codec, heap_key
            object.__setattr__(self, "_heap_key", memo)  # a memo, not a field
        return memo[1]


def leading_data(p, ord_spec):
    """(exp, lc) of a nonzero operator.

    The leading exponent is kept in `p.lead_memo` with the order it was
    found for; an operator's terms never change after construction, so it
    stays valid for as long as the same OrderSpec object asks.
    """
    memo = p.lead_memo
    if memo is not None and memo[0] is ord_spec:
        e = memo[1]
    else:
        if p.is_zero():
            raise ZeroOperator("leading data of the zero operator")
        e = ord_spec.max_exponent(p.terms)
        p.lead_memo = (ord_spec, e)
    return e, p.terms[e]


def packed_leader(p, ord_spec, codec):
    """(packed leading exponent, its cleared numerator) of a nonzero
    operator, for a codec of ord_spec; kept in `p.plead_memo` for that
    order and codec."""
    memo = p.plead_memo
    if memo is not None and memo[0] is ord_spec and memo[1] is codec:
        return memo[2]
    e = leading_data(p, ord_spec)[0]
    out = codec.pack(e), p.cleared().terms[e]
    p.plead_memo = (ord_spec, codec, out)
    return out

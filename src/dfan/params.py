"""Parameter-ring arithmetic: Q[y1..ym], ideals Q, and the fraction field Frac(C/Q).

Coefficients of operators are either plain `fractions.Fraction` (ground field Q,
domain `QQ_FIELD`) or `ParamFraction` over a `ParamField`.  A `ParamField`
carries a `ParamIdeal` q; fraction numerators are kept normal-form reduced
modulo q, so the zero test is a stored-zero test and the field models
Frac(C/q).  The plain fraction field of C is the q = (0) case.  Frac(C/q) is
a field only for a prime q: a product of two nonzero elements that falls
into q raises `NotPrime`.

Reduction modulo a Groebner basis is unique and QQ-linear, so an ideal
reduces each monomial once, into its `nf_table`.  Arithmetic skips a
renormalization only where the full one gives the same (num, den): -num is
reduced and prime to den when num is, a product with 1/1 is the other
operand, and a fraction over 1 has nothing to cancel.

A parameter polynomial is an element of sympy's sparse `PolyRing` over QQ
with grevlex order, built by `param_ring`; its arithmetic, Groebner bases,
remainders, gcds and factoring are the ring's own.  The parameter names are
the ring's symbols, so a polynomial prints (through `poly_str`) with the
names of the problem it came from.  Operations take their ring from their
operands or their field; a bare parameter count m means the names y1..ym.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import DivisionByZeroModQ, NotPrime, DenominatorVanishes


def param_ring(params):
    """Q[params] with grevlex order.  params is a list of parameter names, a
    count m (names y1..ym), or a ring, which is returned unchanged."""
    from sympy import Symbol
    from sympy.polys.domains import QQ
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import PolyRing
    if isinstance(params, PolyRing):
        return params
    if isinstance(params, int):
        params = [f"y{i+1}" for i in range(params)]
    # Symbol keeps each name literal: sympy would read a string "a:c" as a range
    return PolyRing([Symbol(name) for name in params], QQ, grevlex)


class ParamPoly:
    """Constructors of parameter polynomials, which are elements of
    `param_ring(m)`."""

    @staticmethod
    def zero(m):
        return param_ring(m).zero

    @staticmethod
    def const(m, c):
        return param_ring(m)(c)

    @staticmethod
    def var(m, i, power=1):
        return param_ring(m).gens[i] ** power


def poly_str(f):
    """f with grevlex-descending terms, `^` powers and Fraction-style
    coefficients, in the parameter names of its ring."""
    if not f:
        return "0"
    names = [str(s) for s in f.ring.symbols]
    parts = []
    # one term needs no grevlex sort
    for e, c in f.items() if len(f) == 1 else f.terms():
        mono = "*".join(name + (f"^{p}" if p > 1 else "")
                        for name, p in zip(names, e) if p)
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append("-" + mono)
        else:
            parts.append(f"{c}*{mono}")
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def poly_eval(f, y0):
    """Exact value of f at the rational point y0 (length m)."""
    y0 = [Fraction(v) for v in y0]
    total = Fraction(0)
    for e, c in f.items():
        v = Fraction(c.numerator, c.denominator)
        for yi, ei in zip(y0, e):
            if ei:
                v *= yi ** ei
        total += v
    return total


def poly_primitive(f):
    """Canonical unit-normal form: integer coefficients, content 1,
    grevlex-leading coefficient positive."""
    if not f:
        return f
    _, f = f.primitive()
    return -f if f.LC < 0 else f


def poly_divides(a, b):
    """True iff a divides b in Q[y] (a nonzero)."""
    if not a:
        return not b
    return not b.rem(a)


def factor_squarefree(p):
    """The distinct irreducible factors of p, for any number of parameters.

    Returns a list of primitive non-constant factors (multiplicity dropped),
    in the order sympy lists them; their product is the square-free part of
    p, up to a constant.
    """
    if p.is_ground:
        return []
    used = [i for i, k in enumerate(next(iter(p))) if k] if len(p) == 1 else ()
    if len(used) == 1:  # c*y_i^k; sympy orders the factors of a*b its own way
        return [p.ring.gens[used[0]]]
    _, factors = p.factor_list()
    return list(dict.fromkeys(poly_primitive(f) for f, _mult in factors
                              if not f.is_ground))


def numerator_factors(coeffs):
    """The `factor_squarefree` factors of the numerator of each parameter
    coefficient in coeffs, in order and with repeats; rationals have none."""
    for c in coeffs:
        if isinstance(c, ParamFraction):
            yield from factor_squarefree(c.num)


def _factor_key(f):
    """Sort key of a polynomial: its monomials, then its coefficients in
    the same order, so y - 1 comes before y + 1."""
    monoms = sorted(f)
    return monoms, [f[m] for m in monoms]


def multiplier(ring, factors):
    """(h, h_factors) for a run of factors: each factor once, sorted by
    `_factor_key`, so in an order that does not depend on the run's, and
    their product."""
    h_factors = tuple(sorted(dict.fromkeys(factors), key=_factor_key))
    h = ring.one
    for f in h_factors:
        h = h * f
    return h, h_factors


# ---------------------------------------------------------------------------
# Ideals in the parameter ring
# ---------------------------------------------------------------------------

class ParamIdeal:
    """Ideal of Q[y1..ym] with its reduced grevlex Groebner basis `gb`, a
    list of primitive ring elements.

    The remainder modulo a Groebner basis does not depend on how its elements
    are scaled, so `normal_form` divides by `gb` as it is.
    """

    __slots__ = ("ring", "generators", "gb", "nf_table")

    def __init__(self, ring, generators):
        self.ring = R = param_ring(ring)
        self.generators = list(generators)
        gens = [g for g in self.generators if g]
        if any(g.ring != R for g in gens):
            raise ValueError("generators lie in another parameter ring")
        if any(g.is_ground for g in gens):
            # unit ideal; normalize to gb = {1}
            gb = [R.one]
        elif not gens:
            gb = []
        else:
            from sympy.polys.groebnertools import groebner
            gb = groebner(gens, R)
            if any(g.is_ground for g in gb):
                gb = [R.one]
        self.gb = [poly_primitive(g) for g in gb]
        self.nf_table = {}

    @classmethod
    def zero(cls, ring):
        return cls(ring, [])

    def is_zero_ideal(self):
        return not self.gb

    def is_unit_ideal(self):
        return len(self.gb) == 1 and self.gb[0].is_ground

    def normal_form(self, p):
        """Remainder of p on division by the reduced GB: the QQ-linear
        combination of its monomials' entries in `nf_table`, each the
        monomial's normal form, or the monomial (a tuple) when no leading
        monomial of `gb` divides it.  p itself when no monomial reduces."""
        if not p or not self.gb:
            return p
        R, gb, table, r = self.ring, self.gb, self.nf_table, None
        for m in p:
            f = table.get(m)
            if f is None:
                f = table[m] = (m if all(R.monomial_div(m, g.LM) is None for g in gb)
                                else R.term_new(m, R.domain.one).rem(gb))
            if f.__class__ is tuple:
                continue
            r = p.copy() if r is None else r
            c = r.pop(m)
            # f's monomials are normal, so none of them is popped later
            for fm, fc in f.items():
                v = r.get(fm, R.domain.zero) + c * fc
                if v:
                    r[fm] = v
                else:
                    del r[fm]
        return p if r is None else r

    def contains(self, p):
        return not self.normal_form(p)

    def __eq__(self, other):
        return (isinstance(other, ParamIdeal) and self.ring == other.ring
                and self.gb == other.gb)

    def __hash__(self):
        return hash((self.ring, tuple(self.gb)))

    def __str__(self):
        if not self.gb:
            return "(0)"
        return "<" + ", ".join(poly_str(g) for g in self.gb) + ">"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Coefficient domains
# ---------------------------------------------------------------------------

class Cleared(NamedTuple):
    """An operator's terms over one common denominator: the terms are
    `terms[e] / den`.  Over QQ the numerators are integers and den is the
    lcm of the coefficient denominators; a parameter field clears nothing,
    so there the terms are the coefficients and den is 1."""

    terms: dict
    den: object


class QQField:
    """Domain marker for plain Fraction coefficients.

    Division and S-pairs run on integer numerators over one common
    denominator (`clear`, `cofactors`, `cross`) and make Fractions (`ratio`)
    only of the coefficients they return."""

    is_param = False

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, ParamFraction):
            if not x.num.is_ground or not x.den.is_ground:
                raise ValueError("non-constant parameter fraction in QQ")
            # a constant has the same value at every point, so evaluate at ()
            return poly_eval(x.num, ()) / poly_eval(x.den, ())
        return Fraction(x)

    @staticmethod
    def clear(terms):
        den = lcm(*(c.denominator for c in terms.values()))
        return Cleared({e: c.numerator * (den // c.denominator)
                        for e, c in terms.items()}, den)

    @staticmethod
    def cofactors(c, l):
        """The least (s, t) with s*c == t*l and s > 0, for integers c and
        nonzero l."""
        g = gcd(c, l)
        if l < 0:
            g = -g
        return l // g, c // g

    @staticmethod
    def cross(li, lj):
        """(a, b, d) with a/d == 1/li and b/d == 1/lj, for nonzero integers
        li and lj; d is their lcm up to sign."""
        g = gcd(li, lj)
        return lj // g, li // g, li * (lj // g)

    @staticmethod
    def ratio(num, den):
        return Fraction(num, den)

    @staticmethod
    def clear_ratios(nums, den):
        """`clear` of the terms {e: ratio(c, den)}, from the integer
        numerators nums and the nonzero den: with g = gcd(den, *nums), the
        lcm of the denominators is |den| / g, and it scales ratio(c, den)
        to c / g with the sign of den."""
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        return Cleared({e: c // g for e, c in nums.items()}, den // g)

    def __eq__(self, other):
        return isinstance(other, QQField)

    def __hash__(self):
        return hash("QQField")

    def __repr__(self):
        return "QQ"


QQ_FIELD = QQField()


class ParamField:
    """The field Frac(C/q) with C = Q[y1..ym], the ring of q.

    `ring` is a parameter count, names or ring as `param_ring` takes them; q
    must lie in that ring and defaults to (0), which gives the plain fraction
    field Frac(C).  The field is the one place that knows q: generic standard
    bases, fans and certificates over V(Q) all compute in Frac(C/Q), where a
    coefficient whose numerator lies in Q is zero.
    """

    is_param = True

    def __init__(self, ring, q=None):
        ring = param_ring(ring)
        self.q = q if q is not None else ParamIdeal.zero(ring)
        if self.q.ring != ring:
            raise ValueError("the ideal lies in another parameter ring")
        self.ring = ring

    @property
    def zero(self):
        return self._constant(self.ring.zero)

    @property
    def one(self):
        return self._constant(self.ring.one)

    def _constant(self, c):
        """c/1 for c = 0 or 1, which a proper q leaves normalized."""
        if self.q.is_unit_ideal():
            return ParamFraction(self, c, self.ring.one)  # raises: 1 lies in q
        return ParamFraction.normalized(self, c, self.ring.one)

    def from_poly(self, p):
        return ParamFraction(self, p, self.ring.one)

    # The field clears no denominators: the arithmetic of a division or an
    # S-pair is the plain field arithmetic, with cofactor 1 and den 1.

    @staticmethod
    def clear(terms):
        return Cleared(terms, 1)

    @staticmethod
    def cofactors(c, l):
        return 1, c / l

    def cross(self, li, lj):
        return self.one / li, self.one / lj, 1

    @staticmethod
    def ratio(num, den):
        return num if den == 1 else num / den

    def clear_ratios(self, nums, den):
        return Cleared({e: self.ratio(c, den) for e, c in nums.items()}, 1)

    def coerce(self, x):
        """x as an element of this field: a ParamFraction (of this ring), a
        ring element, or a rational number."""
        if isinstance(x, ParamFraction):
            if x.field == self:
                return x
            return ParamFraction(self, x.num, x.den)
        if isinstance(x, (int, Fraction)):
            return self.from_poly(self.ring(x))
        return self.from_poly(x)

    def __eq__(self, other):
        return isinstance(other, ParamField) and self.q == other.q

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return f"Frac(Q[{', '.join(map(str, self.ring.symbols))}]/{self.q})"


class ParamFraction:
    """Fraction num/den of parameter polynomials (elements of the field's
    ring), normalized on construction.

    Normalization: numerator reduced modulo the field's q, common polynomial
    factor of num/den cancelled, denominator made primitive with positive
    leading coefficient.  Cancelling keeps every denominator a divisor of the
    product of leading-coefficient powers produced by divisions, so the
    denominator certificates stay valid while coefficient growth stays tame.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        ring = field.ring
        if ((num.ring is not ring or den.ring is not ring)
                and (num.ring != ring or den.ring != ring)):
            raise ValueError("parameter ring mismatch")
        # a nonzero constant lies in no proper q, so only the unit ideal
        # needs a test there
        if not den or (field.q.is_unit_ideal() if den.is_ground
                       else field.q.contains(den)):
            raise DivisionByZeroModQ(f"denominator {poly_str(den)} lies in {field.q}")
        num = field.q.normal_form(num)
        if not num:
            den = ring.one
        else:
            num, den = _cancel(num, den)
        self.field = field
        self.num = num
        self.den = den

    @classmethod
    def normalized(cls, field, num, den):
        """num/den as given, which the caller knows to be normalized."""
        self = object.__new__(cls)
        self.field = field
        self.num = num
        self.den = den
        return self

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.coerce(other)
        if not isinstance(other, ParamFraction):
            return NotImplemented
        diff = self.num * other.den - other.num * self.den
        return self.field.q.contains(diff)

    def __neg__(self):
        return ParamFraction.normalized(self.field, -self.num, self.den)

    def _coerce(self, other):
        if isinstance(other, ParamFraction):
            return other
        return self.field.coerce(other)

    def __add__(self, other):
        other = self._coerce(other)
        if self.den == other.den:
            return ParamFraction(self.field, self.num + other.num, self.den)
        return ParamFraction(self.field,
                             self.num * other.den + other.num * self.den,
                             self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if self.field is other.field:
            if _is_one(self.num) and _is_one(self.den):
                return other
            if _is_one(other.num) and _is_one(other.den):
                return self
        r = ParamFraction(self.field, self.num * other.num, self.den * other.den)
        # nonzero factors with a zero product: q is not prime (C is a
        # domain, so this never happens for q = (0))
        if not r and self and other:
            raise NotPrime(f"{self.field.q} is not prime: ({poly_str(self.num)})"
                           f"*({poly_str(other.num)}) fell into it")
        return r

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other:
            raise DivisionByZeroModQ(f"division by {poly_str(other.num)}/"
                                     f"{poly_str(other.den)} mod q")
        return ParamFraction(self.field, self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def specialize(self, y0):
        dv = poly_eval(self.den, y0)
        if dv == 0:
            at = ",".join(f"{name}={v}" for name, v in zip(self.den.ring.symbols, y0))
            raise DenominatorVanishes(f"denominator {poly_str(self.den)} "
                                      f"vanishes at {at}")
        return poly_eval(self.num, y0) / dv

    def __str__(self):
        ns = poly_str(self.num)
        if _is_one(self.den):
            return ns
        ds = poly_str(self.den)
        if len(self.num) > 1:
            ns = f"({ns})"
        if len(self.den) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    __repr__ = __str__


def _is_one(f):
    """f == 1, read off f's terms: sympy's `is_one` builds the ring's one
    to compare with."""
    return len(f) == 1 and f.get(f.ring.zero_monom) == 1


def _cancel(num, den):
    """Cancel common factors; normalize den primitive with positive lc."""
    if _is_one(den):
        return num, den
    R = den.ring
    # monomial fast path for the denominator
    if len(den) == 1:
        (de, dc), = den.items()
        shift = de
        for e in num:
            shift = R.monomial_gcd(shift, e)
            if not any(shift):
                break
        if any(shift):
            num = num.new([(R.monomial_ldiv(e, shift), c) for e, c in num.items()])
            de = R.monomial_ldiv(de, shift)
        return num.quo_ground(dc), R.term_new(de, R.domain.one)
    _, num, den = num.cofactors(den)
    cont, den = den.primitive()
    if den.LC < 0:
        cont, den = -cont, -den
    return num.quo_ground(cont), den

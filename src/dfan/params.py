"""Parameter-ring arithmetic: Q[y1..ym], ideals Q, and the fraction field Frac(C/Q).

Coefficients of operators are either plain `fractions.Fraction` (ground field Q,
domain `QQ_FIELD`) or `ParamFraction` over a `ParamField`.  A `ParamField`
carries a `ParamIdeal` q; fraction numerators are kept normal-form reduced
modulo q, so the zero test is a stored-zero test and the field models
Frac(C/q).  The plain fraction field of C is the q = (0) case.

`ParamPoly` is the value type (a dict of exponent tuples to Fractions, with
its own sum, product and printing).  Everything else -- Groebner bases,
normal forms, gcds, exact division and factoring -- runs on elements of
sympy's sparse `PolyRing` Q[y1..ym] with grevlex order, one ring per m, built
on first use; `_to_ring` and `_from_ring` convert between the two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZeroModQ, NotPrime, DenominatorVanishes

# display names for the parameters (index -> name); y{i+1} when unset
PARAM_DISPLAY = []


def set_param_display(names):
    """Set the names used when printing parameter polynomials."""
    PARAM_DISPLAY[:] = list(names)


def param_name(i):
    return PARAM_DISPLAY[i] if i < len(PARAM_DISPLAY) else f"y{i+1}"


def _grevlex_key(e):
    # ascending tuple key: bigger key = bigger monomial under grevlex
    return (sum(e), tuple(-e[i] for i in range(len(e) - 1, -1, -1)))


class ParamPoly:
    """Polynomial in the parameters y1..ym with Fraction coefficients.

    terms: dict exponent-tuple -> nonzero Fraction.  Immutable by convention.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        self.m = m
        if terms:
            self.terms = {e: c for e, c in terms.items() if c != 0}
        else:
            self.terms = {}

    @classmethod
    def zero(cls, m):
        return cls(m)

    @classmethod
    def const(cls, m, c):
        c = Fraction(c)
        return cls(m, {(0,) * m: c} if c else None)

    @classmethod
    def var(cls, m, i, power=1):
        e = [0] * m
        e[i] = power
        return cls(m, {tuple(e): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and (0,) * self.m in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.m, Fraction(0))

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return isinstance(other, ParamPoly) and self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def __neg__(self):
        return ParamPoly(self.m, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, Fraction(0)) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return ParamPoly(self.m, t)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            if not c0:
                return ParamPoly.zero(self.m)
            return ParamPoly(self.m, {e: c * c0 for e, c in self.terms.items()})
        other = self._coerce(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = t.get(e, Fraction(0)) + c1 * c2
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        return ParamPoly(self.m, t)

    __rmul__ = __mul__

    def __pow__(self, k):
        r = ParamPoly.const(self.m, 1)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            if other.m != self.m:
                raise ValueError("parameter count mismatch")
            return other
        return ParamPoly.const(self.m, other)

    def evaluate(self, y0):
        """Exact evaluation at a rational point y0 (length m)."""
        y0 = [Fraction(v) for v in y0]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for yi, ei in zip(y0, e):
                if ei:
                    v *= yi ** ei
            total += v
        return total

    def leading(self):
        """(exponent, coefficient) of the grevlex-leading term."""
        e = max(self.terms, key=_grevlex_key)
        return e, self.terms[e]

    def content(self):
        from math import gcd
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den) if num else Fraction(0)

    def primitive(self):
        """Canonical unit-normal form: integer coefficients, content 1,
        grevlex-leading coefficient positive."""
        if not self.terms:
            return self
        cont = self.content()
        _, lc = self.leading()
        if lc < 0:
            cont = -cont
        return ParamPoly(self.m, {e: c / cont for e, c in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grevlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                param_name(i) + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(e) if p
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append(str(c) + "*" + mono)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


# ---------------------------------------------------------------------------
# commutative algebra on sympy's sparse polynomial ring
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ring(m):
    """Q[y1..ym] as a sympy `PolyRing` with grevlex order (built on first use)."""
    from sympy.polys.domains import QQ
    from sympy.polys.orderings import grevlex
    from sympy.polys.rings import PolyRing
    return PolyRing([f"y{i+1}" for i in range(m)], QQ, grevlex)


def _to_ring(p):
    # terms are nonzero exact rationals, so the element is built without
    # sympy's per-coefficient domain conversion
    R = _ring(p.m)
    mpq = R.domain.dtype
    return R.dtype({e: mpq(c) for e, c in p.terms.items()})


def _from_ring(f, m):
    return ParamPoly(m, {e: Fraction(c.numerator, c.denominator) for e, c in f.items()})


def poly_gcd(a, b):
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    if a.is_constant() or b.is_constant():
        return ParamPoly.const(a.m, 1)
    return _from_ring(_to_ring(a).gcd(_to_ring(b)), a.m).primitive()


def poly_divides(a, b):
    """True iff a divides b in Q[y] (a nonzero)."""
    if a.is_zero():
        return b.is_zero()
    if b.is_zero():
        return True
    if a.is_constant():
        return True
    return not _to_ring(b).rem(_to_ring(a))


def poly_exact_div(b, a):
    """b / a assuming divisibility."""
    if b.is_zero():
        return ParamPoly.zero(b.m)
    if a.is_constant():
        return b * (1 / a.constant_value())
    q, r = _to_ring(b).div(_to_ring(a))
    if r:
        raise ValueError("not divisible")
    return _from_ring(q, b.m)


def factor_squarefree(p):
    """Irreducible factors for m = 1, square-free factors otherwise.

    Returns a list of primitive non-constant ParamPoly factors (multiplicity
    dropped).
    """
    if p.is_zero() or p.is_constant():
        return []
    f = _to_ring(p)
    _, factors = f.factor_list() if p.m == 1 else f.sqf_list()
    out = []
    seen = set()
    for f, _mult in factors:
        fp = _from_ring(f, p.m).primitive()
        if fp.is_constant():
            continue
        key = frozenset(fp.terms.items())
        if key not in seen:
            seen.add(key)
            out.append(fp)
    return out


# ---------------------------------------------------------------------------
# Ideals in the parameter ring
# ---------------------------------------------------------------------------

class ParamIdeal:
    """Ideal of Q[y1..ym] with a stored reduced grevlex Groebner basis.

    `gb` holds the basis as primitive `ParamPoly`s (the public value, used for
    printing and equality); the same basis is kept as `PolyRing` elements, so
    `normal_form` is one sparse division with no conversion of the divisors.
    """

    __slots__ = ("m", "generators", "gb", "claimed_prime", "_gb_ring")

    def __init__(self, m, generators, claimed_prime=False):
        self.m = m
        self.generators = [g for g in generators]
        self.claimed_prime = claimed_prime
        gens = [g for g in self.generators if not g.is_zero()]
        if any(g.is_constant() for g in gens):
            # unit ideal; normalize to gb = {1}
            self._gb_ring = [_ring(m).one]
        elif not gens:
            self._gb_ring = []
        else:
            from sympy.polys.groebnertools import groebner
            self._gb_ring = groebner([_to_ring(g) for g in gens], _ring(m))
            if any(g.is_ground for g in self._gb_ring):
                self._gb_ring = [_ring(m).one]
        self.gb = [_from_ring(g, m).primitive() for g in self._gb_ring]

    @classmethod
    def zero(cls, m, claimed_prime=True):
        return cls(m, [], claimed_prime=claimed_prime)

    def is_zero_ideal(self):
        return not self.gb

    def is_unit_ideal(self):
        return len(self.gb) == 1 and self.gb[0].is_constant() and not self.gb[0].is_zero()

    def normal_form(self, p):
        """Remainder of p on division by the reduced GB."""
        if p.is_zero() or not self.gb:
            return p
        if self.is_unit_ideal():
            return ParamPoly.zero(self.m)
        return _from_ring(_to_ring(p).rem(self._gb_ring), self.m)

    def contains(self, p):
        return self.normal_form(p).is_zero()

    def __eq__(self, other):
        return (isinstance(other, ParamIdeal) and self.m == other.m
                and self.gb == other.gb)

    def __hash__(self):
        return hash((self.m, tuple(frozenset(g.terms.items()) for g in self.gb)))

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.gb) + ">" if self.gb else "(0)"

    __repr__ = __str__


def commutative_gb(gens, m=None, claimed_prime=False):
    """ParamIdeal with reduced grevlex GB of the given generators."""
    if m is None:
        if not gens:
            raise ValueError("need m for an empty generator list")
        m = gens[0].m
    return ParamIdeal(m, gens, claimed_prime=claimed_prime)


# ---------------------------------------------------------------------------
# Coefficient domains
# ---------------------------------------------------------------------------

class QQField:
    """Domain marker for plain Fraction coefficients."""

    is_param = False
    m = 0

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, ParamFraction):
            if not x.num.is_constant() or not x.den.is_constant():
                raise ValueError("non-constant parameter fraction in QQ")
            return x.num.constant_value() / x.den.constant_value()
        return Fraction(x)

    def __eq__(self, other):
        return isinstance(other, QQField)

    def __hash__(self):
        return hash("QQField")

    def __repr__(self):
        return "QQ"


QQ_FIELD = QQField()


class ParamField:
    """The field Frac(C/q) with C = Q[y1..ym].

    q = (0) gives the plain fraction field Frac(C); this is the context used
    by certificate computations, which keep Q-coefficient bookkeeping
    explicit instead of reducing it away.
    """

    is_param = True

    def __init__(self, m, q=None):
        self.m = m
        self.q = q if q is not None else ParamIdeal.zero(m)
        if self.q.m != m:
            raise ValueError("ideal parameter count mismatch")

    @property
    def zero(self):
        return ParamFraction(self, ParamPoly.zero(self.m), ParamPoly.const(self.m, 1))

    @property
    def one(self):
        return ParamFraction(self, ParamPoly.const(self.m, 1), ParamPoly.const(self.m, 1))

    def from_poly(self, p):
        return ParamFraction(self, p, ParamPoly.const(self.m, 1))

    def coerce(self, x):
        if isinstance(x, ParamFraction):
            if x.field == self:
                return x
            if x.field.m != self.m:
                raise ValueError("parameter count mismatch")
            return ParamFraction(self, x.num, x.den)
        if isinstance(x, ParamPoly):
            return self.from_poly(x)
        return self.from_poly(ParamPoly.const(self.m, Fraction(x)))

    def __eq__(self, other):
        return isinstance(other, ParamField) and self.m == other.m and self.q == other.q

    def __hash__(self):
        return hash((self.m, self.q))

    def __repr__(self):
        return f"Frac(Q[y1..y{self.m}]/{self.q})"


class ParamFraction:
    """Fraction num/den of parameter polynomials, normalized on construction.

    Normalization: numerator reduced modulo the field's q, common polynomial
    factor of num/den cancelled, denominator made primitive with positive
    leading coefficient.  Cancelling keeps every denominator a divisor of the
    product of leading-coefficient powers produced by divisions, so the
    denominator certificates stay valid while coefficient growth stays tame.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        if den.is_zero() or field.q.contains(den):
            raise DivisionByZeroModQ(f"denominator {den} lies in {field.q}")
        num = field.q.normal_form(num)
        if num.is_zero():
            den = ParamPoly.const(field.m, 1)
        else:
            num, den = _cancel(num, den)
        self.field = field
        self.num = num
        self.den = den

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.coerce(other)
        if not isinstance(other, ParamFraction):
            return NotImplemented
        diff = self.num * other.den - other.num * self.den
        return self.field.q.contains(diff)

    def __neg__(self):
        return ParamFraction(self.field, -self.num, self.den)

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
        r = ParamFraction(self.field, self.num * other.num, self.den * other.den)
        if (self.field.q.claimed_prime and not self.field.q.is_zero_ideal()
                and bool(self) and bool(other) and not bool(r)):
            raise NotPrime(f"{self.field.q} is not prime: "
                           f"({self.num})*({other.num}) fell into it")
        return r

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other:
            raise DivisionByZeroModQ(f"division by {other.num}/{other.den} mod q")
        return ParamFraction(self.field, self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        return self.field.one / self

    def specialize(self, y0):
        dv = self.den.evaluate(y0)
        if dv == 0:
            raise DenominatorVanishes(f"denominator {self.den} vanishes at {tuple(y0)}")
        return self.num.evaluate(y0) / dv

    def __str__(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        ns = str(self.num)
        ds = str(self.den)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        if len(self.den.terms) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    __repr__ = __str__


def _cancel(num, den):
    """Cancel common factors; normalize den primitive with positive lc."""
    # monomial fast path for the denominator
    if len(den.terms) == 1:
        (de, dc), = den.terms.items()
        shift = list(de)
        for e in num.terms:
            for i, p in enumerate(e):
                if shift[i] > p:
                    shift[i] = p
            if not any(shift):
                break
        if any(shift):
            num = ParamPoly(num.m, {tuple(a - s for a, s in zip(e, shift)): c
                                    for e, c in num.terms.items()})
            de = tuple(a - s for a, s in zip(de, shift))
        unit = Fraction(dc)
        den = ParamPoly(num.m, {de: Fraction(1)})
        num = num * (1 / unit)
        return num, den
    g = poly_gcd(num, den)
    if not g.is_constant():
        num = poly_exact_div(num, g)
        den = poly_exact_div(den, g)
    cont = den.content()
    _, lc = den.leading()
    if lc < 0:
        cont = -cont
    den = den * (1 / cont)
    num = num * (1 / cont)
    return num, den


# ---------------------------------------------------------------------------
# module-level helpers used by the rest of the package
# ---------------------------------------------------------------------------

def coeff_num_in_q(c, Q):
    """Does the numerator of coefficient c lie in Q?

    For plain Fractions only the zero coefficient qualifies (and it is pruned
    from operators), matching the Q = (0) reading.
    """
    if isinstance(c, Fraction):
        return c == 0
    return Q.contains(c.num)

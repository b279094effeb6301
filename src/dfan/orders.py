"""Admissible weights and term orders on the exponent lattice.

Base orders must satisfy x_i < 1 and x_i*dx_i > 1.  The presets compare the
total dx-degree first (descending), then the x-part antigraded
lexicographically (lower total x-degree is greater, the local direction), then
lexicographically on dx.  Weight vectors refine in front of the base; the
homogenized variant compares |beta| + k before everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cmp_to_key

from .errors import NotAdmissible, ZeroOperator, AllCoefficientsInQ
from .operators import Exponent
from .params import coeff_num_in_q


@dataclass(frozen=True)
class Weight:
    """Weight vector w = (u, v) on (x, dx); z always has weight 0."""

    u: tuple
    v: tuple

    @staticmethod
    def make(u, v):
        return Weight(tuple(Fraction(a) for a in u), tuple(Fraction(b) for b in v))

    @property
    def n(self):
        return len(self.u)

    def is_admissible(self):
        return all(a <= 0 for a in self.u) and all(a + b >= 0 for a, b in zip(self.u, self.v))

    def check_admissible(self):
        if not self.is_admissible():
            raise NotAdmissible(f"weight {self} is not admissible")

    def dot(self, e: Exponent):
        return (sum(a * p for a, p in zip(self.u, e.alpha))
                + sum(b * p for b, p in zip(self.v, e.beta)))

    def dot_vec(self, vec):
        """Pairing with a point of Z^{2n+1} or Z^{2n} (z-slot ignored)."""
        n = self.n
        return (sum(self.u[i] * vec[i] for i in range(n))
                + sum(self.v[i] * vec[n + i] for i in range(n)))

    def as_tuple(self):
        return self.u + self.v

    def activity(self):
        """Indices of active W constraints: ({i: u_i = 0}, {i: u_i + v_i = 0})."""
        return (frozenset(i for i, a in enumerate(self.u) if a == 0),
                frozenset(i for i, (a, b) in enumerate(zip(self.u, self.v)) if a + b == 0))

    def __str__(self):
        return f"(u={tuple(map(str, self.u))}, v={tuple(map(str, self.v))})"


BASE_ORDERS = ("antigraded_lex", "tdeg")


@dataclass(frozen=True)
class OrderSpec:
    """Admissible order: weight refinements in front of a built-in base.

    base: preset name.  "antigraded_lex" and "tdeg" share the comparison
    (total dx-degree, then antigraded lex on x, then lex on dx); "tdeg" names
    the total-degree construction used for homogenization preprocessing.
    xprio: x-variable priority for the lex tie-breaks (index tuple, highest
    priority first).
    weights: refinement chain, outermost first.
    homogenized: compare |beta| + k before anything else.
    """

    n: int
    base: str = "antigraded_lex"
    xprio: tuple = ()
    weights: tuple = ()
    homogenized: bool = True

    def __post_init__(self):
        if self.base not in BASE_ORDERS:
            raise ValueError(f"unknown base order {self.base!r}")
        if not self.xprio:
            object.__setattr__(self, "xprio", tuple(range(self.n)))
        for w in self.weights:
            if not w.is_admissible():
                raise NotAdmissible(f"refinement weight {w} is not admissible")

    def with_weight(self, w):
        """Refine by w in front of the existing chain."""
        return OrderSpec(self.n, self.base, self.xprio, (w,) + tuple(self.weights),
                         self.homogenized)

    def compare(self, a: Exponent, b: Exponent):
        """-1, 0 or 1 for a < b, a = b, a > b."""
        if a == b:
            return 0
        if self.homogenized:
            la, lb = a.level, b.level
            if la != lb:
                return -1 if la < lb else 1
        for w in self.weights:
            wa, wb = w.dot(a), w.dot(b)
            if wa != wb:
                return -1 if wa < wb else 1
        c = self._base_compare(a, b)
        if c:
            return c
        # equal (alpha, beta): larger k first (inhomogeneous tie-break)
        if a.k != b.k:
            return -1 if a.k < b.k else 1
        return 0

    def _base_compare(self, a, b):
        da, db = sum(a.beta), sum(b.beta)
        if da != db:
            return -1 if da < db else 1
        xa, xb = sum(a.alpha), sum(b.alpha)
        if xa != xb:
            # antigraded: lower x-degree is greater
            return -1 if xa > xb else 1
        for i in self.xprio:
            if a.alpha[i] != b.alpha[i]:
                return -1 if a.alpha[i] < b.alpha[i] else 1
        for i in self.xprio:
            if a.beta[i] != b.beta[i]:
                return -1 if a.beta[i] < b.beta[i] else 1
        return 0

    def key(self):
        """Sort key object for exponents (ascending in this order)."""
        return cmp_to_key(self.compare)

    def max_exponent(self, exps):
        return max(exps, key=self.key())


def leading_data(p, ord_spec):
    """(exp, lc) of a nonzero operator."""
    if p.is_zero():
        raise ZeroOperator("leading data of the zero operator")
    e = ord_spec.max_exponent(p.terms)
    return e, p.terms[e]


def leading_data_mod_q(p, ord_spec, Q):
    """(exp, lc) among terms whose coefficient numerator is outside Q."""
    live = [e for e, c in p.terms.items() if not coeff_num_in_q(c, Q)]
    if not live:
        raise AllCoefficientsInQ("every coefficient numerator lies in Q")
    e = ord_spec.max_exponent(live)
    return e, p.terms[e]

"""Constancy certificates and comprehensive Groebner fans.

For an ideal with coefficients depending polynomially on parameters y, the
fan is constant on V(Q) off the hypersurface of a single polynomial h(y).
The certificate multiplies together:

  * h' — collected leading-coefficient factors of the dx-degree-weight basis
    used to homogenize, so homogenization commutes with specialization;
  * per cell: the generic-basis multiplier (its own leading-coefficient
    factors) and the Newton stability multipliers (vertex coefficient
    numerators of each basis element), so every cell's polyhedron, face and
    cone survive specialization.

The comprehensive fan stratifies the parameter space: compute the certificate
on a stratum (V(Q) off V(h)), then recurse into V(Q + (f)) for each new
irreducible factor f of h.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import count

from .errors import DepthExceeded, ZeroOperator
from .fan import enumerate_fan, homogenized_generators, GroebnerFan
from .newton import newton
from .params import ParamFraction, ParamIdeal, factor_squarefree, poly_eval


def newton_stability_multiplier(g, factors=None):
    """Product of the numerators of the coefficients sitting on the vertices
    of New(g): where it does not vanish, the specialized operator keeps the
    same Newton polyhedron."""
    poly = newton(g)
    if factors is None:
        factors = {}
    for e, c in g.terms.items():
        if e.vec() in poly.vertices and isinstance(c, ParamFraction):
            for f in factor_squarefree(c.num):
                factors.setdefault(f, f)
    return factors


def _product(ring, factors):
    h = ring.one
    for f in sorted(factors.values(), key=sorted):
        h = h * f
    return h


@dataclass
class ConstancyCertificate:
    """h(y) such that the fan is literally constant on V(Q) \\ V(h)."""

    q_ideal: ParamIdeal
    h: object
    h_factors: list
    fan: GroebnerFan
    hom_gens: list
    tainted: bool

    def h_vanishes_at(self, y0):
        return poly_eval(self.h, y0) == 0

    def stratum_contains(self, y0):
        return (all(poly_eval(g, y0) == 0 for g in self.q_ideal.gb)
                and not self.h_vanishes_at(y0))


def homogenization_commutes(gens, Q, cap):
    """Homogenized-ideal generators plus the multiplier h' making the
    construction commute with any specialization off V(h')."""
    factors = {}
    return homogenized_generators(gens, cap, h_factors=factors, Q=Q), factors


def constant_fan_certificate(gens, Q, cap):
    """Theorem-of-constancy pipeline: returns a ConstancyCertificate."""
    if not gens:
        raise ZeroOperator("certificate of the empty generating set")
    if Q.is_unit_ideal():
        raise ValueError("empty stratum: Q is the unit ideal")
    hom, factors = homogenization_commutes(gens, Q, cap)
    fan = enumerate_fan(hom, cap, Q=Q)
    tainted = any(c.tainted for c in fan.cells)
    for cell in fan.cells:
        for f in cell.h_factors:
            factors.setdefault(f, f)
        for g in cell.basis:
            newton_stability_multiplier(g, factors)
    h = _product(Q.ring, factors)
    h_factors = sorted(factors.values(), key=sorted)
    return ConstancyCertificate(Q, h, h_factors, fan, hom, tainted)


# ---------------------------------------------------------------------------
# comprehensive fan: stratification tree
# ---------------------------------------------------------------------------

@dataclass
class Stratum:
    certificate: ConstancyCertificate
    children: list = dc_field(default_factory=list)

    @property
    def q_ideal(self):
        return self.certificate.q_ideal

    @property
    def h(self):
        return self.certificate.h


@dataclass
class ComprehensiveFan:
    root: Stratum
    m: int

    def strata(self):
        out = []
        stack = [self.root]
        while stack:
            s = stack.pop()
            out.append(s)
            stack.extend(s.children)
        return out

    def stratum_for(self, y0):
        """The deepest stratum whose locus contains y0, or None."""
        best = None
        node = self.root
        while node is not None:
            if all(poly_eval(g, y0) == 0 for g in node.q_ideal.gb):
                if not node.certificate.h_vanishes_at(y0):
                    best = node
                nxt = None
                for ch in node.children:
                    if all(poly_eval(g, y0) == 0 for g in ch.q_ideal.gb):
                        nxt = ch
                        break
                node = nxt
            else:
                node = None
        return best


def comprehensive_fan(gens, Q, cap, max_depth=6):
    """Stratify V(Q) so that on every stratum the fan is constant."""

    def build(q, depth):
        if depth > max_depth:
            raise DepthExceeded(f"stratification deeper than {max_depth}")
        cert = constant_fan_certificate(gens, q, cap)
        node = Stratum(cert)
        for f in cert.h_factors:
            if q.contains(f):
                continue
            sub = ParamIdeal(q.ring, list(q.gb) + [f])
            if sub.is_unit_ideal():
                continue
            if sub == q:
                continue
            node.children.append(build(sub, depth + 1))
        return node

    return ComprehensiveFan(build(Q, 0), Q.ring.ngens)


def common_refinement(fans):
    """Pairwise nonempty intersections of cells across a list of fans: the
    coarsest fan refining all of them (as relatively open cones)."""
    if not fans:
        return []
    cones = [c.cone for c in fans[0].cells]
    for fan in fans[1:]:
        nxt = []
        for a in cones:
            for cell in fan.cells:
                inter = a.intersect(cell.cone)
                if inter is not None and not any(inter.same_cone(b) for b in nxt):
                    nxt.append(inter)
        cones = nxt
    return cones


# ---------------------------------------------------------------------------
# specialization and parameter sampling
# ---------------------------------------------------------------------------

def specialize_ideal(gens, y0):
    """Plain-rational generators at the parameter point y0."""
    return [g.specialize(y0) for g in gens]


def rationals_by_height():
    """0, 1, -1, 2, -2, 1/2, -1/2, 3, ... every rational exactly once."""
    from math import gcd
    yield Fraction(0)
    for h in count(1):
        for d in range(1, h + 1):
            n = h
            if gcd(n, d) == 1:
                yield Fraction(n, d)
                yield Fraction(-n, d)
        for n in range(1, h):
            if gcd(n, h) == 1:
                yield Fraction(n, h)
                yield Fraction(-n, h)


def sample_points(m, Q=None, avoid=None, num=10, limit=100000):
    """num rational points of V(Q) avoiding V(avoid), smallest height first.

    For m = 1 this walks the rational line; for larger m it walks tuples of
    bounded height.  Raises if the budget runs out before num points appear.
    """
    pts = []
    gens = rationals_by_height()
    pool = []
    tried = 0
    while len(pts) < num and tried < limit:
        pool.append(next(gens))
        # all m-tuples from the pool whose newest coordinate is the last one
        if m == 0:
            cands = [()]
        elif m == 1:
            cands = [(pool[-1],)]
        else:
            from itertools import product as iproduct
            last = pool[-1]
            cands = [c for c in iproduct(pool, repeat=m) if last in c]
        for y0 in cands:
            tried += 1
            if Q is not None and any(poly_eval(g, y0) != 0 for g in Q.gb):
                continue
            if avoid is not None and poly_eval(avoid, y0) == 0:
                continue
            if y0 not in pts:
                pts.append(y0)
                if len(pts) == num:
                    break
        if m == 0:
            break
    if len(pts) < num:
        raise ValueError(f"could not find {num} sample points")
    return pts

"""Constancy certificates and comprehensive Groebner fans.

For an ideal with coefficients depending polynomially on parameters y, the
fan is constant on V(Q) off the hypersurface of a single polynomial h(y).
The certificate multiplies together, through `params.multiplier`:

  * h' — the multiplier of the z = 1 basis used to homogenize (the factors
    `fan.homogenized_generators` returns), so homogenization commutes with
    specialization;
  * per cell: the generic-basis multiplier (the cell basis's h_factors) and
    the Newton stability factors (vertex coefficient numerators of each
    basis element), so every cell's polyhedron, face and cone survive
    specialization.

The comprehensive fan stratifies the parameter space: compute the certificate
on a stratum (V(Q) off V(h)), then recurse into V(Q + (f)) for each
irreducible factor f of h.  No f lies in Q: it divides the numerator of a
nonzero coefficient of Frac(C/Q), a normal form mod Q.  From Q = (0) each
child (f) is prime.  Deeper down Q + (f) need not be prime; a product of
two nonzero coefficients that falls into it raises `NotPrime` (see
`params.ParamFraction`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import DepthExceeded, ZeroOperator
from .fan import MAX_CELLS, GroebnerFan, enumerate_fan, homogenized_generators
from .newton import newton
from .params import ParamField, ParamIdeal, multiplier, numerator_factors


def newton_stability_multiplier(g):
    """The numerator factors of the coefficients sitting on the vertices of
    New(g), as a list: where their product does not vanish, the specialized
    operator keeps the same Newton polyhedron."""
    vertices = newton(g).vertices
    return list(numerator_factors(c for e, c in g.terms.items()
                                  if e.vec() in vertices))


@dataclass
class ConstancyCertificate:
    """h(y) such that the fan is literally constant on V(Q) \\ V(h)."""

    q_ideal: ParamIdeal
    h: object
    h_factors: tuple
    fan: GroebnerFan
    hom_gens: list
    tainted: bool


def constant_fan_certificate(gens, Q, cap, max_cells=MAX_CELLS):
    """Theorem-of-constancy pipeline: returns a ConstancyCertificate.  The
    fan traversal finds at most max_cells cells."""
    if not gens:
        raise ZeroOperator("certificate of the empty generating set")
    if Q.is_unit_ideal():
        raise ValueError("empty stratum: Q is the unit ideal")
    field = ParamField(Q.ring, Q)
    hom, hom_factors = homogenized_generators(
        [g.to_field(field) for g in gens], cap)
    factors = list(hom_factors)
    fan = enumerate_fan(hom, cap, max_cells=max_cells)
    tainted = any(c.tainted for c in fan.cells)
    seen = []  # many cells hold equal operators
    for cell in fan.cells:
        factors += cell.h_factors
        for g in cell.basis:
            if g not in seen:
                seen.append(g)
                factors += newton_stability_multiplier(g)
    h, h_factors = multiplier(Q.ring, factors)
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


def comprehensive_fan(gens, Q, cap, max_depth=6, max_cells=MAX_CELLS):
    """Stratify V(Q) so that on every stratum the fan is constant; each
    stratum's fan traversal finds at most max_cells cells."""

    def build(q, depth):
        if depth > max_depth:
            raise DepthExceeded(f"stratification deeper than {max_depth}")
        cert = constant_fan_certificate(gens, q, cap, max_cells=max_cells)
        node = Stratum(cert)
        for f in cert.h_factors:
            sub = ParamIdeal(q.ring, list(q.gb) + [f])
            if sub.is_unit_ideal():
                continue
            node.children.append(build(sub, depth + 1))
        return node

    return ComprehensiveFan(build(Q, 0), Q.ring.ngens)


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------

def specialize_ideal(gens, y0):
    """Plain-rational generators at the parameter point y0."""
    return [g.specialize(y0) for g in gens]

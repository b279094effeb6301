"""Groebner fans: equivalence classes of admissible weights.

Two weights are equivalent when they pick the same reduced standard basis;
the class of w is the relatively open normal cone of the Minkowski sum of the
Newton polyhedra of that basis at its w-face, refined by the active weight
constraints (u_i = 0, u_i + v_i = 0).  The fan is enumerated by crossing
closure facets from seed weights covering every activity stratum.

Inputs that do not involve z are first completed with respect to the
dx-degree weight order (computation in the z = 1 quotient), then homogenized;
this yields generators of the homogenized ideal, which is what the fan is
attached to.  The z = 1 completion is the same loop as `standard.completion`
and `standard.reduce_basis`, run with the z = 1 product.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product as iproduct

from .errors import NonConvergentTraversal, ZeroOperator
from .newton import (NewtonPolyhedron, face_of, minkowski_sum, minkowski_sum_by_hull,
                     newton, normal_cone)
from .operators import homogenize
from .orders import OrderSpec, Weight, leading_data
from .params import ParamField
from .standard import (completion, generic_standard_basis, reduce_basis,
                       standard_basis)


def t_order(n):
    """dx-degree weight order for computing in the z = 1 quotient."""
    t = Weight.make((0,) * n, (1,) * n)
    return OrderSpec(n, base="tdeg", weights=(t,), homogenized=False)


def base_fan_order(n):
    return OrderSpec(n, base="antigraded_lex", homogenized=True)


# ---------------------------------------------------------------------------
# completion in the z = 1 quotient (plain differential operators)
# ---------------------------------------------------------------------------

def _dn_mul(a, b):
    return (a * b).substitute_z_one()


def dn_standard_basis(gens, ord_spec, cap=None, h_factors=None):
    """Reduced standard basis in the z = 1 quotient: the completion loop of
    `standard` run with the z = 1 product."""
    if not all(g.z_free() for g in gens):
        raise ValueError("z = 1 completion expects z-free input")
    G, _ = completion(gens, ord_spec, cap=cap, h_factors=h_factors, mul=_dn_mul)
    return reduce_basis(G, ord_spec, h_factors=h_factors, mul=_dn_mul)[0]


def homogenized_generators(gens, cap, h_factors=None, Q=None):
    """Generators of the homogenized ideal of gens.

    z-free input is completed with respect to the dx-degree weight in the
    z = 1 quotient, then homogenized elementwise; input involving z is taken
    as given.  With a parameter ideal Q the coefficients are first coerced
    into Frac(C/Q)."""
    z_free = all(g.z_free() for g in gens)
    if Q is not None:
        field = ParamField(Q.ring, Q)
        gens = [g.to_field(field) for g in gens]
    if not z_free or not gens:
        return list(gens)
    n = gens[0].n
    basis = dn_standard_basis(gens, t_order(n), cap=cap, h_factors=h_factors)
    return [homogenize(g) for g in basis]


# ---------------------------------------------------------------------------
# fan cells
# ---------------------------------------------------------------------------

@dataclass
class FanCell:
    cone: object
    witness: Weight
    polyhedron: NewtonPolyhedron
    face_vertices: tuple
    basis: list
    staircase: list
    h: object = None        # constancy multiplier of the cell basis (parametric)
    h_factors: tuple = ()
    tainted: bool = False

    def contains(self, w: Weight):
        return self.cone.contains(w.as_tuple())

    def dim(self):
        from .cones import form_rank
        return self.cone.dim - form_rank(self.cone.equalities, self.cone.dim)


def _basis_at(gens, w, cap, Q, base_order):
    """(basis, staircase, h, h_factors, tainted): the reduced (generic)
    standard basis for the order refined by the admissible weight w."""
    w.check_admissible()
    n = gens[0].n
    order = (base_order or base_fan_order(n)).with_weight(w)
    if Q is not None:
        cert = generic_standard_basis(gens, Q, order, cap=cap)
        basis, h, h_factors, tainted = (cert.basis, cert.h, tuple(cert.h_factors),
                                        cert.tainted)
    else:
        sb = standard_basis(gens, order, cap=cap)
        basis, h, h_factors, tainted = sb.basis, None, (), sb.tainted
    if not basis:
        raise ZeroOperator("fan of the zero ideal")
    staircase = sorted(leading_data(g, order)[0] for g in basis)
    return basis, staircase, h, h_factors, tainted


def cell_at(gens, w, cap, Q=None, base_order=None):
    """The fan cell of the admissible weight w, for the homogenized ideal
    generated by gens (already z-graded)."""
    basis, staircase, h, h_factors, tainted = _basis_at(gens, w, cap, Q, base_order)
    P = minkowski_sum([newton(g) for g in basis])
    verts, _ = face_of(P, w)
    cone = normal_cone(P, w)
    return FanCell(cone, w, P, verts, basis, staircase, h, h_factors, tainted)


@dataclass
class GroebnerFan:
    n: int
    cells: list
    cap: object
    q_ideal: object = None
    gens: list = dc_field(default_factory=list)

    def cell_containing(self, w: Weight):
        for c in self.cells:
            if c.contains(w):
                return c
        return None

    def full_dim_cells(self):
        return [c for c in self.cells if not c.cone.equalities]


def _seed_weights(n):
    """One witness per activity pattern: each coordinate interior, on u = 0,
    on u + v = 0, or on both."""
    choices = [(Fraction(-1), Fraction(2)), (Fraction(0), Fraction(1)),
               (Fraction(-1), Fraction(1)), (Fraction(0), Fraction(0))]
    seeds = []
    for pick in iproduct(choices, repeat=n):
        u = tuple(p[0] for p in pick)
        v = tuple(p[1] for p in pick)
        seeds.append(Weight.make(u, v))
    return seeds


def _as_weight(n, point):
    return Weight.make(tuple(point[:n]), tuple(point[n:2 * n]))


def _leaves_w(n, pt, d):
    """True when no step pt + eps*d with eps > 0 is admissible: some W
    constraint is tight at pt (u_i = 0 or u_i + v_i = 0) and d leaves it."""
    return any((pt[i] == 0 and d[i] > 0)
               or (pt[i] + pt[n + i] == 0 and d[i] + d[n + i] < 0)
               for i in range(n))


def _cross_facet(n, facet_pt, inner_witness, cell):
    """A weight just past the facet: facet_pt + eps*(facet_pt - witness),
    eps halved until the step is admissible and stays adjacent (the new
    weight's cell closure must contain the facet point)."""
    d = tuple(p - q for p, q in zip(facet_pt, inner_witness))
    if _leaves_w(n, facet_pt, d):
        return None
    eps = Fraction(1)
    for _ in range(60):
        cand = tuple(p + eps * di for p, di in zip(facet_pt, d))
        w = _as_weight(n, cand)
        if w.is_admissible() and not cell.cone.contains(cand):
            return w
        eps /= 2
    return None


def enumerate_fan(gens, cap, Q=None, base_order=None, max_cells=4096):
    """All cells of the Groebner fan by facet traversal from stratum seeds."""
    if not gens:
        raise ZeroOperator("fan of the empty generating set")
    n = gens[0].n
    cells = []
    queue = list(_seed_weights(n))
    steps = 0
    while queue:
        steps += 1
        if steps > max_cells:
            raise NonConvergentTraversal("fan traversal did not stabilize")
        w = queue.pop(0)
        if any(c.contains(w) for c in cells):
            continue
        cell = cell_at(gens, w, cap, Q=Q, base_order=base_order)
        if any(c.cone.same_cone(cell.cone) for c in cells):
            continue
        cells.append(cell)
        # descend / move sideways: cross every closure facet
        for _form, pt in cell.cone.closure_facets():
            fw = _as_weight(n, pt)
            if fw.is_admissible():
                queue.append(fw)
                nb = _cross_facet(n, pt, cell.cone.witness, cell)
                if nb is not None:
                    queue.append(nb)
        # ascend: step off each equality in both directions
        for form in cell.cone.equalities:
            for sign in (1, -1):
                d = tuple(sign * Fraction(c) for c in form)
                if _leaves_w(n, cell.cone.witness, d):
                    continue
                eps = Fraction(1, 2)
                for _ in range(40):
                    cand = tuple(p + eps * di
                                 for p, di in zip(cell.cone.witness, d))
                    cw = _as_weight(n, cand)
                    if cw.is_admissible() and not cell.cone.contains(cand):
                        queue.append(cw)
                        break
                    eps /= 2
    cells.sort(key=lambda c: (-c.dim(), c.cone.equalities, c.cone.strict))
    return GroebnerFan(n, cells, cap, Q, list(gens))


def fan_of_ideal(gens, cap, Q=None, base_order=None, max_cells=4096):
    """Fan of an ideal of plain operators: homogenize (via the dx-degree
    completion in the z = 1 quotient) if needed, then enumerate."""
    return enumerate_fan(homogenized_generators(gens, cap, Q=Q), cap, Q=Q,
                         base_order=base_order, max_cells=max_cells)


# ---------------------------------------------------------------------------
# independent grid oracle
# ---------------------------------------------------------------------------

def grid_weights(n, denominators=(1, 2, 3), span=3):
    """Deterministic admissible rational grid covering every activity type."""
    vals = sorted({Fraction(a, d) for d in denominators
                   for a in range(-span * d, span * d + 1)})
    out = []
    for u in iproduct([x for x in vals if x <= 0], repeat=n):
        for v in iproduct(vals, repeat=n):
            if all(a + b >= 0 for a, b in zip(u, v)):
                out.append(Weight.make(u, v))
    return out


def oracle_classify(gens, w, cap, Q=None, base_order=None):
    """Cell data computed directly at w, with no traversal: the staircase of
    the reduced basis, the w-face of the Minkowski polyhedron, and the active
    weight constraints.  The polyhedron comes from the defining hull of all
    vertex sums, not from the normal-fan refinement `cell_at` uses, so the
    grid check shares no polyhedral code with the traversal."""
    basis, staircase, _, _, _ = _basis_at(gens, w, cap, Q, base_order)
    face, _ = face_of(minkowski_sum_by_hull([newton(g) for g in basis]), w)
    return (tuple(staircase), face, w.activity())


def check_fan_against_grid(fan, gens, weights, cap, Q=None, base_order=None):
    """Each grid weight must land in exactly one enumerated cell, and that
    cell's stored data must match the independent classification at w."""
    mismatches = []
    for w in weights:
        holders = [c for c in fan.cells if c.contains(w)]
        if len(holders) != 1:
            mismatches.append((w, f"{len(holders)} containing cells"))
            continue
        cell = holders[0]
        stair, face, act = oracle_classify(gens, w, cap, Q=Q, base_order=base_order)
        if tuple(cell.staircase) != stair:
            mismatches.append((w, "staircase differs"))
        elif cell.face_vertices != face:
            mismatches.append((w, "face differs"))
        elif cell.witness.activity() != act:
            mismatches.append((w, "activity differs"))
    return mismatches

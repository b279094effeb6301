"""Groebner fans: equivalence classes of admissible weights.

Two weights are equivalent when they pick the same reduced standard basis;
the class of w is the relatively open normal cone of the Minkowski sum of the
Newton polyhedra of that basis at its w-face.  The W constraints come with
the rays of W*, the recession cone of every such polyhedron: the cone holds
all 2n of them (-u_i, u_i + v_i), each an equality where it is active at w,
so every point of a cell's closure is admissible.  The fan is enumerated by
crossing closure facets from seed weights covering every activity stratum
(as in Fukuda-Jensen-Thomas, Computing Groebner fans, Math. Comp. 2007).
Many cells share one reduced basis, so a traversal keeps a dict from each
tuple of basis polyhedra to its Minkowski sum, made and dropped inside one
`enumerate_fan` call, and sums each distinct tuple once.

Inputs that do not involve z are first completed with respect to the
dx-degree weight order in the z = 1 quotient (`standard.standard_basis` run
with the z = 1 product), then homogenized; this yields generators of the
homogenized ideal, which is what the fan is attached to.
`homogenized_generators` is the one place that makes this choice.

Over a parameter field Frac(C/Q) each cell holds the generic standard basis
and its multiplier h, both from one `standard.standard_basis`; the
generators' coefficient field carries Q, so no function here takes Q
separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial
from itertools import product as iproduct

from .cones import form_rank
from .errors import NonConvergentTraversal, ZeroOperator
from .newton import face_of, minkowski_sum, minkowski_sum_by_hull, newton, normal_cone
from .operators import homogenize, term_product
from .orders import OrderSpec, Weight
from .standard import standard_basis


def t_order(n):
    """dx-degree weight order for computing in the z = 1 quotient."""
    t = Weight.make((0,) * n, (1,) * n)
    return OrderSpec(n, weights=(t,), homogenized=False)


def base_fan_order(n):
    return OrderSpec(n)


def homogenized_generators(gens, cap):
    """Generators of the homogenized ideal of gens, and the factors of the
    multiplier h' of the basis they come from.

    z-free input is completed with respect to the dx-degree weight in the
    z = 1 quotient, then homogenized elementwise; over Frac(C/Q) the
    construction commutes with any specialization of V(Q) off V(h').  Input
    involving z is taken as given, with no factors."""
    if not gens or not all(g.z_free() for g in gens):
        return list(gens), ()
    sb = standard_basis(gens, t_order(gens[0].n), cap=cap,
                        mul=partial(term_product, z_one=True))
    return [homogenize(g) for g in sb.basis], sb.h_factors


# ---------------------------------------------------------------------------
# fan cells
# ---------------------------------------------------------------------------

@dataclass
class FanCell:
    cone: object
    witness: Weight
    face_vertices: tuple
    basis: list
    staircase: list
    h: object = None        # constancy multiplier of the cell basis (parametric)
    h_factors: tuple = ()
    tainted: bool = False

    def contains(self, w: Weight):
        return self.cone.contains(w.as_tuple())

    def dim(self):
        return self.cone.dim - form_rank(self.cone.equalities)


def _basis_at(gens, w, cap):
    """The reduced standard basis (generic over a parameter field) for the
    order refined by the admissible weight w."""
    w.check_admissible()
    sb = standard_basis(gens, base_fan_order(gens[0].n).with_weight(w), cap=cap)
    if not sb.basis:
        raise ZeroOperator("fan of the zero ideal")
    return sb


def cell_at(gens, w, cap, sums=None):
    """The fan cell of the admissible weight w, for the homogenized ideal
    generated by gens (already z-graded).  sums, when given, maps a tuple of
    basis polyhedra to their Minkowski sum: `enumerate_fan` passes one dict
    per traversal, so each distinct basis is summed once."""
    sb = _basis_at(gens, w, cap)
    polys = tuple(newton(g) for g in sb.basis)
    if sums is None:
        sums = {}
    if polys not in sums:
        sums[polys] = minkowski_sum(polys)
    P = sums[polys]
    verts, _ = face_of(P, w)
    cone = normal_cone(P, w)
    return FanCell(cone, w, verts, sb.basis, sb.staircase, sb.h, sb.h_factors,
                   sb.tainted)


@dataclass
class GroebnerFan:
    n: int
    cells: list
    cap: object
    gens: list = dc_field(default_factory=list)


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


def _step_off(pt, d, cone, eps, tries):
    """The first admissible weight pt + eps*d outside cone, eps halved up to
    tries times; None when none is found or no step along d is admissible."""
    n = len(pt) // 2
    if _leaves_w(n, pt, d):
        return None
    for _ in range(tries):
        cand = tuple(p + eps * di for p, di in zip(pt, d))
        w = _as_weight(n, cand)
        if w.is_admissible() and not cone.contains(cand):
            return w
        eps /= 2
    return None


def enumerate_fan(gens, cap, max_cells=4096):
    """All cells of the Groebner fan by facet traversal from stratum seeds;
    more than max_cells cells raise NonConvergentTraversal.  Weights are
    queued only when a cell is added, so the cell bound bounds the loop."""
    if not gens:
        raise ZeroOperator("fan of the empty generating set")
    n = gens[0].n
    cells = []
    sums = {}
    queue = list(_seed_weights(n))
    while queue:
        w = queue.pop(0)
        if any(c.contains(w) for c in cells):
            continue
        if len(cells) >= max_cells:
            raise NonConvergentTraversal(
                f"fan traversal found more than {max_cells} cells")
        cell = cell_at(gens, w, cap, sums)
        cells.append(cell)
        # descend / move sideways: cross every closure facet, stepping
        # from the facet point away from the witness; the facet points lie
        # in W, since the cone carries all 2n W forms
        cone = cell.cone
        for _form, pt in cone.closure_facets():
            queue.append(_as_weight(n, pt))
            d = tuple(p - q for p, q in zip(pt, cone.witness))
            nb = _step_off(pt, d, cone, Fraction(1), 60)
            if nb is not None:
                queue.append(nb)
        # ascend: step off each equality in both directions
        for form in cone.equalities:
            for sign in (1, -1):
                d = tuple(sign * Fraction(c) for c in form)
                up = _step_off(cone.witness, d, cone, Fraction(1, 2), 40)
                if up is not None:
                    queue.append(up)
    cells.sort(key=lambda c: (-c.dim(), c.cone.equalities, c.cone.strict))
    return GroebnerFan(n, cells, cap, list(gens))


def fan_of_ideal(gens, cap, max_cells=4096):
    """Fan of an ideal of plain operators: homogenize (via the dx-degree
    completion in the z = 1 quotient) if needed, then enumerate."""
    return enumerate_fan(homogenized_generators(gens, cap)[0], cap,
                         max_cells=max_cells)


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


def oracle_classify(gens, w, cap):
    """Cell data computed directly at w, with no traversal: the staircase of
    the reduced basis, the w-face of the Minkowski polyhedron, and the active
    weight constraints.  The polyhedron comes from the defining hull of all
    vertex sums, not from the normal-fan refinement `cell_at` uses, so the
    grid check shares no polyhedral code with the traversal."""
    sb = _basis_at(gens, w, cap)
    face, _ = face_of(minkowski_sum_by_hull([newton(g) for g in sb.basis]), w)
    return (tuple(sb.staircase), face, w.activity())


def check_fan_against_grid(fan, gens, weights, cap):
    """Each grid weight must land in exactly one enumerated cell, and that
    cell's stored data must match the independent classification at w."""
    mismatches = []
    for w in weights:
        holders = [c for c in fan.cells if c.contains(w)]
        if len(holders) != 1:
            mismatches.append((w, f"{len(holders)} containing cells"))
            continue
        cell = holders[0]
        stair, face, act = oracle_classify(gens, w, cap)
        if tuple(cell.staircase) != stair:
            mismatches.append((w, "staircase differs"))
        elif cell.face_vertices != face:
            mismatches.append((w, "face differs"))
        elif cell.witness.activity() != act:
            mismatches.append((w, "activity differs"))
    return mismatches

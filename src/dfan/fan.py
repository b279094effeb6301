"""Groebner fans: equivalence classes of admissible weights.

Two weights are equivalent when they pick the same reduced standard basis;
the class of w is the relatively open normal cone of the Minkowski sum of the
Newton polyhedra of that basis at its w-face, refined by the active weight
constraints (u_i = 0, u_i + v_i = 0).  The fan is enumerated by crossing
closure facets from seed weights covering every activity stratum.

Inputs that do not involve z are first completed with respect to the
dx-degree weight order (computation in the z = 1 quotient), then homogenized;
this yields generators of the homogenized ideal, which is what the fan is
attached to.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product as iproduct

from .division import partition, DEFAULT_GUARD_SLACK
from .errors import NonConvergentTraversal, ZeroOperator
from .newton import (NewtonPolyhedron, face_of, minkowski_sum, minkowski_sum_by_hull,
                     newton, normal_cone)
from .operators import Exponent, HOperator, homogenize
from .orders import OrderSpec, Weight, leading_data
from .params import ParamField
from .standard import (GenSBCertificate, StandardBasis, _collect_lc_factors,
                       _join, generic_standard_basis, standard_basis)


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


def _dn_normal_form(p, G, ord_spec):
    """Remainder of p on division by G in the z = 1 quotient."""
    lead = [leading_data(g, ord_spec)[:2] for g in G]
    classify = partition([e for e, _ in lead])
    caps = [q.cap for q in [p] + list(G) if q.cap is not None]
    cap = min(caps) if caps else None
    internal = None
    if cap is not None:
        maxlevel = max((e.level for g in [p] + list(G) for e in g.terms), default=0)
        internal = cap + maxlevel + DEFAULT_GUARD_SLACK
    field = p.field
    key = ord_spec.key()
    working = dict(p.with_cap(internal).terms if not p.tainted else p.terms)
    tainted = p.tainted or any(g.tainted for g in G)
    remainder = {}
    while working:
        e = max(working, key=key)
        c = working.pop(e)
        j = classify(e)
        if j is None:
            remainder[e] = c
            continue
        ej, lcj = lead[j]
        g = G[j] if G[j].tainted else G[j].with_cap(internal)
        mono = HOperator.monomial(p.n, field, e - ej, c / lcj, cap=internal)
        prod = _dn_mul(mono, g)
        tainted = tainted or prod.tainted
        for te, tc in prod.terms.items():
            if te == e:
                continue
            s = working.get(te, field.zero) - tc
            if s:
                working[te] = s
            else:
                working.pop(te, None)
    R = HOperator(p.n, field, remainder, cap=internal, tainted=tainted)
    return R.truncated(cap) if cap is not None else R


def _dn_spair(gi, gj, ord_spec):
    ei, lci, _ = leading_data(gi, ord_spec)
    ej, lcj, _ = leading_data(gj, ord_spec)
    e = _join(ei, ej)
    field = gi.field
    mi = HOperator.monomial(gi.n, field, e - ei, field.one / lci, cap=gi.cap)
    mj = HOperator.monomial(gj.n, field, e - ej, field.one / lcj, cap=gj.cap)
    return _dn_mul(mi, gi) - _dn_mul(mj, gj)


def dn_standard_basis(gens, ord_spec, cap=None, h_factors=None):
    """Reduced standard basis in the z = 1 quotient."""
    G = []
    for g in gens:
        if not g.z_free():
            raise ValueError("z = 1 completion expects z-free input")
        if cap is not None and (g.cap is None or g.cap > cap):
            g = g.truncated(cap)
        if not g.is_zero():
            G.append(g)
    if h_factors is not None:
        for g in G:
            _collect_lc_factors(leading_data(g, ord_spec)[1], h_factors)
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    key = ord_spec.key()
    while pairs:
        pairs.sort(key=lambda p: key(_join(leading_data(G[p[0]], ord_spec)[0],
                                           leading_data(G[p[1]], ord_spec)[0])))
        i, j = pairs.pop(0)
        sp = _dn_spair(G[i], G[j], ord_spec)
        if sp.is_zero():
            continue
        r = _dn_normal_form(sp, G, ord_spec)
        if r.is_zero():
            continue
        if h_factors is not None:
            _collect_lc_factors(leading_data(r, ord_spec)[1], h_factors)
        G.append(r)
        pairs.extend((t, len(G) - 1) for t in range(len(G) - 1))
    # reduce: minimal, monic, tail-reduced
    data = [(g,) + leading_data(g, ord_spec)[:2] for g in G]
    data.sort(key=lambda t: (t[1].xdeg + t[1].level, t[1].vec()))
    minimal = []
    for g, e, lc in data:
        if any(e.dominates(e2) for _, e2, _ in minimal):
            continue
        minimal.append((g, e, lc))
    field = minimal[0][0].field if minimal else None
    monic = []
    for g, e, lc in minimal:
        if h_factors is not None:
            _collect_lc_factors(lc, h_factors)
        monic.append((g.scale(field.one / lc), e))
    G0 = [g for g, _ in monic]
    out = []
    for g, e in monic:
        lm = HOperator.monomial(g.n, field, e, field.one, cap=g.cap)
        tail = g - lm
        red = lm if tail.is_zero() else lm + _dn_normal_form(tail, G0, ord_spec)
        out.append(red)
    out.sort(key=lambda g: key(leading_data(g, ord_spec)[0]))
    return out


def homogenized_generators(gens, cap, h_factors=None):
    """Generators of the homogenized ideal: complete with respect to the
    dx-degree weight in the z = 1 quotient, then homogenize elementwise."""
    if not gens:
        return []
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


def _cross_facet(n, facet_pt, inner_witness, cell):
    """A weight just past the facet: facet_pt + eps*(facet_pt - witness),
    eps halved until the step is admissible and stays adjacent (the new
    weight's cell closure must contain the facet point)."""
    d = tuple(p - q for p, q in zip(facet_pt, inner_witness))
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
    if all(g.z_free() for g in gens):
        work = gens
        if Q is not None:
            field = ParamField(Q.m, Q)
            work = [g.to_field(field) for g in gens]
        gens = homogenized_generators(work, cap)
    return enumerate_fan(gens, cap, Q=Q, base_order=base_order,
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

"""Newton polyhedra New(g) = conv(E) + W* and their normal cones.

W* is the polar dual of the admissible cone W: its 2n generators are the
negated forms of W (`orders.w_forms`), e_i (1 in the x_i slot) and e'_i
(-1 in the x_i and dx_i slots), embedded in Z^{2n+1} with z-slot 0.  W* is
simplicial, so cone membership is a closed-form test.

The vertex set of one polyhedron comes from its support points by pairwise
W*-absorption and then an exact LP redundancy test (`vertex_set`), which
runs only for a point with two or more other candidates left: against one,
absorption has already decided.  That is the only place an LP runs.

A fan cell needs the w-face and the normal cone of a Minkowski sum
New(g1) + ... + New(gk), never the sum itself.  The normal fan of a sum is
the common refinement of the summands' normal fans (Ziegler, Lectures on
Polytopes, Prop. 7.12), so the w-face of the sum is the sum of the
summands' w-faces (`face_of_sum`), and the class of w is the intersection
of the summands' normal cones at w (`normal_cone`), cut by the forms of W:
each an equality where it vanishes at w and a strict form elsewhere.  At a
generic w each summand's face is one vertex, so the face is one sum and no
LP runs.
`minkowski_sum_by_hull` is the definition of the sum, kept as the grid
oracle's independent reference.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from .cones import RelOpenCone, lp_feasible
from .errors import ZeroOperator, NotAdmissible
from .orders import w_forms, w_values


def in_wstar(n, d):
    """Is the 2n+1 vector d in the cone W*?"""
    if d[2 * n] != 0:
        return False
    for i in range(n):
        if d[n + i] > 0:
            return False
        if d[i] - d[n + i] < 0:
            return False
    return True


def _conv_redundant(p, others, n):
    """Is p in conv(others) + W*?  Exact LP in the hull weights mu >= 0."""
    if not others:
        return False
    rows = [
        # sum mu = 1
        ((1,) * len(others), "eq", 1),
        # z-slot: sum mu q_z = p_z
        (tuple(q[2 * n] for q in others), "eq", p[2 * n]),
    ]
    for i in range(n):
        # (p - sum mu q)_{n+i} <= 0
        rows.append((tuple(q[n + i] for q in others), "ge", p[n + i]))
        # (p - sum mu q)_i - (p - sum mu q)_{n+i} >= 0
        rows.append((tuple(q[i] - q[n + i] for q in others), "le",
                     p[i] - p[n + i]))
    return lp_feasible(rows, len(others))


def vertex_set(n, points):
    """E: the minimal subset with conv(E) + W* containing all points."""
    pts = list(dict.fromkeys(tuple(p) for p in points))
    # pairwise W*-absorption first (cheap)
    keep = []
    for p in pts:
        absorbed = any(q != p and in_wstar(n, tuple(a - b for a, b in zip(p, q)))
                       for q in pts)
        if not absorbed:
            keep.append(p)
    # then convex redundancy, in one pass: W* is pointed, so dropping a
    # non-vertex never makes a vertex redundant.  Against one other point q,
    # p in q + W* is the absorption test above, so the LP needs two or more
    out = list(keep)
    for p in keep:
        others = [q for q in out if q != p]
        if len(others) > 1 and _conv_redundant(p, others, n):
            out.remove(p)
    return sorted(out)


class NewtonPolyhedron:
    """conv(vertices) + W*, vertices an irredundant finite point set."""

    __slots__ = ("n", "vertices")

    def __init__(self, n, vertices):
        self.n = n
        self.vertices = tuple(sorted(tuple(v) for v in vertices))

    def __eq__(self, other):
        return (isinstance(other, NewtonPolyhedron)
                and self.n == other.n and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.n, self.vertices))

    def __repr__(self):
        return f"New{list(self.vertices)}"


def newton(g):
    """Newton polyhedron of a nonzero operator.  Over Frac(C/Q) the terms
    whose coefficient numerator lies in Q are already gone, so this is the
    polyhedron of the specialization to V(Q).  It is kept in
    `g.newton_memo`: an operator's terms never change."""
    if g.newton_memo is None:
        if g.is_zero():
            raise ZeroOperator("Newton polyhedron of the zero operator")
        g.newton_memo = NewtonPolyhedron(
            g.n, vertex_set(g.n, [e.vec() for e in g.terms]))
    return g.newton_memo


def _vertex_sums(n, point_lists):
    """The vertex set of every sum of one point per list."""
    return vertex_set(n, [tuple(map(sum, zip(*pick)))
                          for pick in product(*point_lists)])


def minkowski_sum_by_hull(polys):
    """Minkowski sum from the definition: the vertex set of every sum of one
    vertex per summand.  Exponential in the number of summands; kept as the
    reference the fan's grid oracle is checked against."""
    if not polys:
        raise ValueError("empty Minkowski sum")
    n = polys[0].n
    return NewtonPolyhedron(n, _vertex_sums(n, [p.vertices for p in polys]))


def face_of(poly, w):
    """The face vertices of the polyhedron with respect to w in W."""
    w.check_admissible()
    iw = w.ivec  # a positive scale keeps the argmax; zip stops before the
                 # z-slot, which w ignores
    vals = {p: sum(map(mul, iw, p)) for p in poly.vertices}
    top = max(vals.values())
    return tuple(p for p in poly.vertices if vals[p] == top)


def face_of_sum(polys, w):
    """The face vertices of the Minkowski sum of polys with respect to w in
    W: the vertices among the sums of the summands' face vertices."""
    return tuple(_vertex_sums(polys[0].n, [face_of(p, w) for p in polys]))


def normal_cone(polys, w):
    """The equivalence class of w for the Minkowski sum of polys (one or
    more polyhedra): weights in W with the same face of every summand and
    the same active W constraints, as a relatively open cone in Q^{2n}.
    Each summand gives its own equalities and strict forms; the forms of W
    are added once, each an equality where it vanishes at w (the W
    constraint is active there) and a strict form elsewhere."""
    w.check_admissible()
    dim = 2 * polys[0].n
    eqs, strict = [], []
    for poly in polys:
        verts = face_of(poly, w)
        p0 = verts[0]
        eqs += [tuple(a - b for a, b in zip(p0[:dim], p)) for p in verts[1:]]
        strict += [tuple(a - b for a, b in zip(p0[:dim], q))
                   for q in poly.vertices if q not in verts]
    for g, x in zip(w_forms(polys[0].n), w_values(w.ivec)):
        (strict if x else eqs).append(g)
    cone = RelOpenCone(dim, eqs, strict)
    if not cone.contains(w.ivec):
        raise NotAdmissible("w lies outside its own normal cone")
    return cone

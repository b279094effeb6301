"""Groebner fans: equivalence classes of admissible weights.

Two weights are equivalent when they pick the same reduced standard basis;
the class of w is the relatively open normal cone of the Minkowski sum of the
Newton polyhedra of that basis at its w-face.  The sum is never built: its
normal fan is the common refinement of the summands' normal fans, so the
cone is the intersection of the summands' normal cones at w and the face is
the sum of their w-faces (see `newton`).  The cone also holds all 2n
forms of W (`orders.w_forms`: -u_i, u_i + v_i), each an equality where it
is active at w, so every point of a cell's closure is admissible.  The fan
is enumerated by crossing closure facets from seed weights covering every
activity stratum (as in Fukuda-Jensen-Thomas, Computing Groebner fans,
Math. Comp. 2007).

One `enumerate_fan` call keeps a set of the weights it has popped from its
queue and an index of its cells by activity stratum (the W constraints
active at the witness, `Weight.activity`).  A weight popped before is
skipped untested: it lies in a stored cell or is the witness of one.  Any
other weight is tested only against the cells of its own stratum.  The
index is exact, not a heuristic: a cell cone holds each W form as an
equality exactly where it is active at the witness and as a strict form
elsewhere, so every point of a cell has the witness's activity and no cell
holds a point of another stratum.  Every weight and cone point is an
integer vector over one positive denominator: a closure-facet point is
`cones.solve`'s (nums, den), a step off a cell (`_step_off`) is the integer
vector 2^k p + d over 2^k den, and each becomes a weight through
`Weight.over`.  Membership and admissibility read the integer vector
(`Weight.ivec`), so the traversal does no rational arithmetic.

A step off a cell is exact, in closed form.  It starts at a point p of the
cell's closure, which lies in W, and moves along d: from a closure-facet
point away from the witness, or from the witness along plus or minus an
equality form.  The step (p + d / 2^k) / den takes the least k >= first
that keeps every form g of W nonnegative.  A form with g(d) >= 0 holds
for every k; one with g(d) < 0 holds exactly from the least k with
2^k g(p) >= -g(d), and for no k when g(p) = 0, where the step leaves W and
none is taken.  No step lies in the cell it leaves: a crossed facet form f
has f(p) = 0 and f(d) < 0, so f is negative at the step, and an equality e
has e(w) = 0, so e is +-den |e|^2 != 0 at the step.

A traversal meets few distinct reduced bases, so it completes each one once.
For one `enumerate_fan` call it keeps every reduced basis found so far, with
its leading exponents.  At a new witness w, a kept basis G whose every
element keeps its leading exponent under the order refined by w is the
reduced basis at w, and the cell is built from G, sorted by the order of
w, with no completion.  This is exact
for z-graded generators (every term of each at one level |beta| + k): G is
then a standard basis at w with the same leading exponents (Fukuda-Jensen-
Thomas; for the Weyl algebra, Assi-Castro-Jimenez-Granger, The Groebner fan
of an A_n-module, JPAA 2000), still monic with its tails off the staircase,
and a reduced basis is fixed by its leading exponents.  Other generators
complete at every witness: the argument needs the grading, and without it a
kept basis that keeps its leading exponents can differ from the basis
completed at w, where the cap cuts a series.

A reused cell carries the multiplier h and the taint of the completion that
found G.  A completion at w itself runs other S-pairs and can divide by
other leading coefficients, so its h may differ; the kept h certifies the
cell at w all the same.  Where h(y0) != 0 the kept completion specializes
verbatim, so G(y0) is the reduced basis of the specialized ideal at the
witness that found G.  Each element of G(y0) is monic, with its terms
among those of the element of G it specializes, so it keeps its leading
exponent at w, and the argument above makes G(y0) the reduced basis at w.  An untainted G is exact, and so is the
reused cell; a tainted G taints it.

Inputs that do not involve z are first completed in the z = 1 quotient
(`standard.standard_basis` run with the z = 1 product) under `OrderSpec(n)`,
which there compares the dx-degree first, since every exponent has k = 0,
then homogenized; this yields generators of the homogenized ideal, which is
what the fan is attached to.  `homogenized_generators` is the one place
that makes this choice.

Over a parameter field Frac(C/Q) each cell holds the generic standard basis
and its multiplier h, both from the one `standard.standard_basis` that found
the basis; the generators' coefficient field carries Q, so no function here
takes Q separately.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product as iproduct

from .cones import form_rank
from .errors import NonConvergentTraversal, ZeroOperator
from .newton import face_of, face_of_sum, minkowski_sum_by_hull, newton, normal_cone
from .operators import homogenize, term_product
from .orders import OrderSpec, Weight, leading_data, w_values
from .standard import standard_basis

# the most cells one traversal may find, unless its caller says otherwise
MAX_CELLS = 4096


def homogenized_generators(gens, cap):
    """Generators of the homogenized ideal of gens, and the factors of the
    multiplier h' of the basis they come from.

    z-free input is completed under `OrderSpec(n)` in the z = 1 quotient,
    where every exponent has k = 0 and the order compares the dx-degree
    first, then homogenized elementwise; over Frac(C/Q) the
    construction commutes with any specialization of V(Q) off V(h').  Input
    involving z is taken as given, with no factors."""
    if not gens or not all(g.z_free() for g in gens):
        return list(gens), ()
    sb = standard_basis(gens, OrderSpec(gens[0].n), cap=cap,
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
        return self.cone.contains(w.ivec)

    def dim(self):
        return self.cone.dim - form_rank(self.cone.equalities)


def _basis_at(gens, w, cap):
    """The reduced standard basis (generic over a parameter field) for the
    order refined by the admissible weight w."""
    w.check_admissible()
    sb = standard_basis(gens, OrderSpec(w.n).with_weight(w), cap=cap)
    if not sb.basis:
        raise ZeroOperator("fan of the zero ideal")
    return sb


def _graded(gens):
    """Is every term of each generator at one level |beta| + k?"""
    return all(len({e.level for e in g.terms}) == 1 for g in gens)


def _kept_basis_at(w, kept):
    """(standard basis, its elements sorted by the order of w, their
    leading exponents) of the first kept basis whose elements all keep
    their leading exponents under the order refined by w, or None."""
    order = OrderSpec(w.n).with_weight(w)
    key = order.key()
    for sb, leads in kept:
        if all(leading_data(g, order)[0] == e for g, e in zip(sb.basis, leads)):
            basis = sorted(sb.basis, key=lambda g: key(leading_data(g, order)[0]))
            return sb, basis, leads
    return None


def cell_at(gens, w, cap, kept=None):
    """The fan cell of the admissible weight w, for the ideal generated by
    gens (already homogenized, see `homogenized_generators`).  Its face and
    cone come from the basis polyhedra one by one (`newton.face_of_sum`,
    `newton.normal_cone`); their Minkowski sum is never built.

    kept, when given, is one traversal's memo: `enumerate_fan` passes one
    list per traversal.  For graded generators it holds each reduced basis
    completed so far, with its leading exponents.  A kept basis that keeps
    all its leading exponents at w is the reduced basis at w (see the
    module docstring): the cell is built from it, sorted by the order of w,
    with its operators and with the h, h_factors and taint of the
    completion that found it; nothing is completed.  That h certifies the
    cell at w, though a completion at w may give another (see the module
    docstring).  A bare call keeps nothing and completes from scratch."""
    w.check_admissible()
    if kept is None:
        kept = []
    graded = _graded(gens)
    hit = _kept_basis_at(w, kept) if graded else None
    if hit is None:
        sb = _basis_at(gens, w, cap)
        basis = sb.basis
        leads = [leading_data(g, sb.ord_spec)[0] for g in basis]
        if graded:
            kept.append((sb, leads))
    else:
        sb, basis, leads = hit
    polys = [newton(g) for g in basis]
    return FanCell(normal_cone(polys, w), w, face_of_sum(polys, w), basis,
                   sorted(leads), sb.h, sb.h_factors, sb.tainted)


@dataclass
class GroebnerFan:
    n: int
    cells: list
    cap: object


def _seed_weights(n):
    """One witness per activity pattern: each coordinate interior, on u = 0,
    on u + v = 0, or on both."""
    choices = [(-1, 2), (0, 1), (-1, 1), (0, 0)]
    seeds = []
    for pick in iproduct(choices, repeat=n):
        u = tuple(p[0] for p in pick)
        v = tuple(p[1] for p in pick)
        seeds.append(Weight.make(u, v))
    return seeds


def _step_off(p, d, den, first):
    """The weight (p + d / 2^k) / den, as the integer vector 2^k p + d over
    2^k den, for the least k >= first that puts it in W, or None when no
    step along d stays in W (see the module docstring).  p and d are
    integer vectors, den > 0 and p / den lies in W."""
    falling = [(gp, gd) for gp, gd in zip(w_values(p), w_values(d)) if gd < 0]
    if not all(gp for gp, _ in falling):
        return None
    # 2^k gp >= -gd, that is 2^k >= ceil(-gd / gp), from this k on
    k = max([first] + [(-(gd // gp) - 1).bit_length() for gp, gd in falling])
    return Weight.over([(a << k) + b for a, b in zip(p, d)], den << k)


def enumerate_fan(gens, cap, max_cells=MAX_CELLS):
    """All cells of the Groebner fan by facet traversal from stratum seeds;
    more than max_cells cells raise NonConvergentTraversal.  Weights are
    queued only when a cell is added, so the cell bound bounds the loop.
    Every cell comes from `cell_at` with one memo for the whole traversal:
    on z-graded gens each distinct reduced basis is completed once, at the
    first witness where no kept basis keeps its leading exponents; the
    cells that reuse it carry the h and taint of that completion."""
    if not gens:
        raise ZeroOperator("fan of the empty generating set")
    n = gens[0].n
    cells = []
    strata = {}   # activity -> the cells of that stratum
    seen = set()  # the weights popped so far
    kept = []
    queue = deque(_seed_weights(n))
    while queue:
        w = queue.popleft()
        if w in seen:
            continue
        seen.add(w)
        stratum = strata.setdefault(w.activity(), [])
        if any(c.contains(w) for c in stratum):
            continue
        if len(cells) >= max_cells:
            raise NonConvergentTraversal(
                f"fan traversal found more than {max_cells} cells")
        cell = cell_at(gens, w, cap, kept)
        cells.append(cell)
        stratum.append(cell)
        # descend / move sideways: cross every closure facet, stepping
        # from the facet point pt away from the witness w, along pt - w
        # over the denominator of both; the facet points lie in W, since
        # the cone carries all 2n W forms
        cone = cell.cone
        for _form, pt in cone.closure_facets():
            f = Weight.over(*pt)
            queue.append(f)
            p = [a * w.den for a in f.ivec]
            d = [a - b * f.den for a, b in zip(p, w.ivec)]
            nb = _step_off(p, d, f.den * w.den, 0)
            if nb is not None:
                queue.append(nb)
        # ascend: step off each equality in both directions from eps = 1/2,
        # from w along +form and -form, each (+-den * form) over den
        for form in cone.equalities:
            for s in (w.den, -w.den):
                up = _step_off(w.ivec, [s * c for c in form], w.den, 1)
                if up is not None:
                    queue.append(up)
    cells.sort(key=lambda c: (-c.dim(), c.cone.equalities, c.cone.strict))
    return GroebnerFan(n, cells, cap)


def fan_of_ideal(gens, cap, max_cells=MAX_CELLS):
    """Fan of an ideal of plain operators: homogenize (via the completion in
    the z = 1 quotient) if needed, then enumerate."""
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
    weight constraints.  The face is taken on the Minkowski sum built from
    the defining hull of all vertex sums, not summed from the summands'
    faces as `cell_at` takes it (`face_of_sum`), so the grid check does not
    rest on the traversal's face route."""
    sb = _basis_at(gens, w, cap)
    face = face_of(minkowski_sum_by_hull([newton(g) for g in sb.basis]), w)
    return (tuple(sb.staircase), face, w.activity())

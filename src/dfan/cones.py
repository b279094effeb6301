"""Exact rational linear feasibility and relatively open polyhedral cones.

A cone constraint is a pair (form, rel) meaning form . x REL 0, with form a
tuple of integers and rel in {"eq", "ge", "gt"}.  `solve` decides such
homogeneous systems by Fourier-Motzkin elimination in integers, tracking
strictness, so cone decisions are exact.  The back-substitution stays in
integers too: the partial point is integer numerators over one positive
common denominator, bounds compare by cross-multiplying, and `solve` makes
Fractions only of the point it returns.  `lp_feasible` is an exact,
fraction-free simplex for the many-variable convex-hull redundancy test of
`newton.vertex_set`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def _normalize(form):
    """The integer form divided by the gcd of its coefficients."""
    g = gcd(*form)
    return tuple(c // g for c in form) if g > 1 else form


def _combine(pos, neg, var):
    """Eliminate x_var between pos (coefficient > 0) and neg (< 0)."""
    (p, prel), (q, qrel) = pos, neg
    a, b = p[var], -q[var]
    rel = "gt" if "gt" in (prel, qrel) else "ge"
    return (_normalize(tuple(b * x + a * y for x, y in zip(p, q))), rel)


def _substitute(con, var, pivot):
    """Eliminate x_var from con with the equality pivot: a positive multiple
    of con minus a multiple of pivot."""
    form, rel = con
    k = form[var]
    if not k:
        return con
    c = pivot[var]
    s = k if c > 0 else -k
    return (_normalize(tuple(abs(c) * a - s * b for a, b in zip(form, pivot))), rel)


def solve(constraints, dim):
    """A point of Q^dim satisfying every constraint (strict ones strictly),
    or None.  Deterministic: midpoints/offsets of the FM bounds."""
    sol = _solve([(_normalize(tuple(f)), rel) for f, rel in constraints], dim)
    if sol is None:
        return None
    nums, den = sol
    return tuple(Fraction(a, den) for a in nums)


def _solve(cons, dim):
    """`solve` on normalized integer forms, in integers throughout: None, or
    (nums, den), the point nums / den with den > 0 and gcd(den, *nums) = 1.
    Each bound on the last coordinate is a / (b * den) with b > 0, kept as
    the pair (a, b); bounds compare by cross-multiplying."""
    cons = list(dict.fromkeys(cons))
    if any(rel == "gt" and not any(f) for f, rel in cons):
        return None
    if dim == 0:
        return (), 1
    var = dim - 1
    with_var = [c for c in cons if c[0][var]]
    without = [c for c in cons if not c[0][var]]
    pivot = next((c for c in with_var if c[1] == "eq"), None)
    if pivot is not None:
        pf = pivot[0]
        reduced = [_substitute(k, var, pf) for k in cons if k is not pivot]
        sol = _solve_lower(reduced, dim)
        if sol is None:
            return None
        a, c = -sum(map(mul, pf, sol[0])), pf[var]
        return _extend(sol, a, c) if c > 0 else _extend(sol, -a, -c)
    pos = [c for c in with_var if c[0][var] > 0]
    neg = [c for c in with_var if c[0][var] < 0]
    reduced = without + [_combine(p, q, var) for p in pos for q in neg]
    sol = _solve_lower(reduced, dim)
    if sol is None:
        return None
    nums, den = sol
    lo = hi = None
    lo_strict = hi_strict = False
    for form, rel in with_var:
        a, c = -sum(map(mul, form, nums)), form[var]
        if c > 0:  # lower bound a / (c * den) on x_var
            d = 1 if lo is None else a * lo[1] - lo[0] * c
            if d > 0:
                lo, lo_strict = (a, c), rel == "gt"
            elif d == 0 and rel == "gt":
                lo_strict = True
        else:      # upper bound (-a) / (-c * den)
            a, c = -a, -c
            d = -1 if hi is None else a * hi[1] - hi[0] * c
            if d < 0:
                hi, hi_strict = (a, c), rel == "gt"
            elif d == 0 and rel == "gt":
                hi_strict = True
    if lo is not None and hi is not None:
        d = lo[0] * hi[1] - hi[0] * lo[1]
        if d > 0 or (d == 0 and (lo_strict or hi_strict)):
            return None
        # lo itself when the bounds meet, else their midpoint
        a, b = lo if d == 0 else (lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1])
    elif lo is not None:
        a, b = lo[0] + lo[1] * den, lo[1]  # push off the bound, interior when possible
    elif hi is not None:
        a, b = hi[0] - hi[1] * den, hi[1]
    else:
        a, b = 0, 1
    return _extend(sol, a, b)


def _extend(sol, a, b):
    """The point (nums, den) with the coordinate a / (b * den) appended,
    b > 0, over the least common denominator."""
    nums, den = sol
    g = gcd(a, b)
    a, b = a // g, b // g
    if b > 1:
        nums = tuple(x * b for x in nums)
    return nums + (a,), den * b


def _solve_lower(cons, dim):
    # strip the (zeroed) top coordinate before recursing
    return _solve([(f[:dim - 1], rel) for f, rel in cons], dim - 1)


def feasible(constraints, dim):
    return solve(constraints, dim) is not None


def lp_feasible(rows, nvars):
    """Feasibility of {x >= 0, coeffs . x REL rhs for each row}, REL in
    {"eq", "le", "ge"}, coefficients int or Fraction.  Exact phase-1
    simplex with Bland's rule; suited to many variables, where elimination
    blows up.

    Fraction-free (Edmonds; Bareiss, Math. Comp. 1968): each row is scaled
    to integers once, and the tableau is an integer matrix T over a common
    denominator D > 0, each pivot dividing exactly.  The artificial of a
    row scaled by c weighs 1/c in the phase-1 objective, so every reduced
    cost and ratio is a positive multiple of the rational tableau's and the
    pivots are the same.  Artificial columns never enter and are not kept."""
    cons = []
    for coeffs, rel, rhs in rows:
        vec = (*coeffs, rhs)
        row = _clear_denominators(vec)
        if row[-1] < 0:
            row = [-c for c in row]
            rel = {"le": "ge", "ge": "le", "eq": "eq"}[rel]
        cons.append((row, rel, lcm(*(c.denominator for c in vec))))
    nslack = sum(rel != "eq" for _, rel, _ in cons)
    total = nvars + nslack  # the columns that may enter; then the rhs
    weight = lcm(*(scale for _, rel, scale in cons if rel != "le"))
    T, basis, cost = [], [], [0] * (total + 1)
    slack, art = nvars, total
    for row, rel, scale in cons:
        tab = row[:-1] + [0] * nslack + row[-1:]
        if rel == "le":
            tab[slack] = 1
            basis.append(slack)
        else:
            if rel == "ge":
                tab[slack] = -1
            basis.append(art)
            art += 1
            k = weight // scale
            cost = [a + k * b for a, b in zip(cost, tab)]
        slack += rel != "eq"
        T.append(tab)
    D = 1
    while True:
        enter = next((j for j in range(total) if cost[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(T):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # row[total] / a against the best ratio, cross-multiplied
                here, best = row[total] * T[leave][enter], T[leave][total] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded")
        prow = T[leave]
        piv = prow[enter]
        for i, row in enumerate(T):
            if i != leave:
                f = row[enter]
                T[i] = [(piv * x - f * y) // D for x, y in zip(row, prow)]
        f = cost[enter]
        cost = [(piv * x - f * y) // D for x, y in zip(cost, prow)]
        D = piv
        basis[leave] = enter
    return cost[total] == 0


def _clear_denominators(vec):
    """The rational vector times the lcm of its denominators."""
    den = lcm(*(c.denominator for c in vec))
    return [c.numerator * (den // c.denominator) for c in vec]


def clear_form(form):
    """Scale a rational linear form to coprime integers (sign preserved)."""
    return _normalize(tuple(_clear_denominators(form)))


def form_rank(forms):
    """Rank of a set of integer linear forms, eliminating with `solve`'s
    integer step `_substitute`: each nonzero form in turn eliminates its
    first variable from the rest."""
    rows = [f for f in forms if any(f)]
    rank = 0
    while rows:
        pivot = rows.pop()
        var = next(i for i, c in enumerate(pivot) if c)
        rows = [f for f, _ in (_substitute((r, "eq"), var, pivot) for r in rows)
                if any(f)]
        rank += 1
    return rank


def _canon_eq(form):
    for c in form:
        if c < 0:
            return tuple(-x for x in form)
        if c > 0:
            return form
    return form


class RelOpenCone:
    """Relatively open rational polyhedral cone in Q^dim.

    equalities / strict are integer-cleared linear forms f with f(x) = 0 and
    f(x) > 0 respectively.  A witness interior point is stored; empty cones
    are never constructed (build via `make`).
    """

    __slots__ = ("dim", "equalities", "strict", "witness")

    def __init__(self, dim, equalities, strict, witness):
        self.dim = dim
        self.equalities = tuple(dict.fromkeys(_canon_eq(clear_form(f)) for f in equalities
                                              if any(f)))
        self.strict = tuple(dict.fromkeys(clear_form(f) for f in strict))
        self.witness = tuple(Fraction(x) for x in witness)

    @classmethod
    def make(cls, dim, equalities, strict, witness=None):
        """Construct, computing a witness; returns None if empty."""
        cone = cls(dim, equalities, strict, witness or (0,) * dim)
        if witness is not None and cone.contains(witness):
            return cone
        pt = solve(cone._constraints(), dim)
        if pt is None:
            return None
        cone.witness = pt
        return cone

    def _constraints(self):
        return ([(f, "eq") for f in self.equalities]
                + [(f, "gt") for f in self.strict])

    def contains(self, point):
        p = _clear_denominators(point)
        return (all(sum(map(mul, f, p)) == 0 for f in self.equalities)
                and all(sum(map(mul, f, p)) > 0 for f in self.strict))

    def _implies(self, form, rel):
        """Does every cone point satisfy form REL 0, REL "eq" or "gt"?"""
        cons = self._constraints()
        neg = tuple(-c for c in form)
        if rel == "gt":
            return not feasible(cons + [(neg, "ge")], self.dim)
        return (not feasible(cons + [(form, "gt")], self.dim)
                and not feasible(cons + [(neg, "gt")], self.dim))

    def included_in(self, other):
        return (other.contains(self.witness)
                and all(self._implies(f, "eq") for f in other.equalities)
                and all(self._implies(f, "gt") for f in other.strict))

    def same_cone(self, other):
        """Set equality of the two relatively open cones."""
        if self.dim != other.dim:
            return False
        if not other.contains(self.witness) or not self.contains(other.witness):
            return False
        return self.included_in(other) and other.included_in(self)

    def intersect(self, other):
        """Relatively open intersection, or None if empty."""
        return RelOpenCone.make(self.dim,
                                self.equalities + other.equalities,
                                self.strict + other.strict)

    def closure_facets(self):
        """(form, facet_interior_point) pairs: inequality forms whose zero set
        meets the closure in a facet with the other inequalities strict."""
        out = []
        for f in self.strict:
            cons = [(g, "eq") for g in self.equalities]
            cons.append((f, "eq"))
            cons += [(g, "gt") for g in self.strict if g != f]
            pt = solve(cons, self.dim)
            if pt is not None and any(pt):
                out.append((f, pt))
        return out

    def to_doc(self):
        doc = [{"rel": "=", "form": list(f)} for f in self.equalities]
        doc += [{"rel": ">", "form": list(f)} for f in self.strict]
        return {"forms": doc, "witness": [str(x) for x in self.witness]}

    def __repr__(self):
        bits = [f"{f}=0" for f in self.equalities]
        bits += [f"{f}>0" for f in self.strict]
        return "Cone{" + ", ".join(bits) + "}"

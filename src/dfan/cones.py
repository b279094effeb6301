"""Exact rational linear feasibility and relatively open polyhedral cones.

Everything runs on Fourier-Motzkin elimination over Fraction, tracking
strictness, so cone decisions are exact.  A constraint is a triple
(coeffs, const, rel) meaning coeffs . x + const REL 0 with rel in
{"eq", "ge", "gt"}.  Cones are homogeneous (const = 0) but the solver also
handles the affine feasibility problems used for convex-hull redundancy.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import EmptyCone


def _normalize(con):
    coeffs, const, rel = con
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c.numerator))
    g = gcd(g, abs(const.numerator))
    den = 1
    for c in list(coeffs) + [const]:
        den = den * c.denominator // gcd(den, c.denominator)
    if g:
        scale = Fraction(den, g)
        coeffs = tuple(c * scale for c in coeffs)
        const = const * scale
    return (coeffs, const, rel)


def _combine(pos, neg, var):
    """Eliminate var between pos (coeff > 0) and neg (coeff < 0)."""
    pc, pconst, prel = pos
    nc, nconst, nrel = neg
    a = pc[var]
    b = -nc[var]
    coeffs = tuple(b * p + a * q for p, q in zip(pc, nc))
    const = b * pconst + a * nconst
    rel = "gt" if "gt" in (prel, nrel) else "ge"
    return (coeffs, const, rel)


def _substitute(con, var, expr_coeffs, expr_const):
    """Replace x_var by expr (coeffs, const) in con."""
    coeffs, const, rel = con
    c = coeffs[var]
    if not c:
        return con
    new = tuple(a + c * b if i != var else Fraction(0)
                for i, (a, b) in enumerate(zip(coeffs, expr_coeffs)))
    return (new, const + c * expr_const, rel)


def solve(constraints, dim):
    """A point of Q^dim satisfying every constraint (strict ones strictly),
    or None.  Deterministic: midpoints/offsets of the FM bounds."""
    cons = []
    for coeffs, const, rel in constraints:
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != dim:
            coeffs = coeffs + (Fraction(0),) * (dim - len(coeffs))
        cons.append(_normalize((coeffs, Fraction(const), rel)))
    return _solve(cons, dim)


def _trivial_ok(const, rel):
    if rel == "eq":
        return const == 0
    if rel == "ge":
        return const >= 0
    return const > 0


def _solve(cons, dim):
    cons = list(dict.fromkeys(cons))
    for coeffs, const, rel in cons:
        if not any(coeffs) and not _trivial_ok(const, rel):
            return None
    if dim == 0:
        return ()
    var = dim - 1
    with_var = [c for c in cons if c[0][var]]
    without = [c for c in cons if not c[0][var]]
    pivot = next((c for c in with_var if c[2] == "eq"), None)
    if pivot is not None:
        pc, pconst, _ = pivot
        c = pc[var]
        expr_coeffs = tuple(-a / c for a in pc)
        expr_const = -pconst / c
        reduced = [_normalize(_substitute(k, var, expr_coeffs, expr_const))
                   for k in cons if k is not pivot]
        sol = _solve_lower(reduced, dim)
        if sol is None:
            return None
        val = expr_const + sum(a * s for a, s in zip(expr_coeffs, sol + (Fraction(0),)))
        return sol + (val,)
    pos = [c for c in with_var if c[0][var] > 0]
    neg = [c for c in with_var if c[0][var] < 0]
    reduced = list(without)
    for p in pos:
        for q in neg:
            reduced.append(_normalize(_combine(p, q, var)))
    sol = _solve_lower(reduced, dim)
    if sol is None:
        return None
    lo = hi = None
    lo_strict = hi_strict = False
    for coeffs, const, rel in with_var:
        rest = const + sum(a * s for a, s in zip(coeffs[:var], sol))
        c = coeffs[var]
        bound = -rest / c
        if c > 0:  # lower bound on x_var
            if lo is None or bound > lo:
                lo, lo_strict = bound, rel == "gt"
            elif bound == lo and rel == "gt":
                lo_strict = True
        else:      # upper bound
            if hi is None or bound < hi:
                hi, hi_strict = bound, rel == "gt"
            elif bound == hi and rel == "gt":
                hi_strict = True
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            return None
        val = lo if lo == hi else (lo + hi) / 2
    elif lo is not None:
        val = lo + 1  # push off the bound, interior when possible
    elif hi is not None:
        val = hi - 1
    else:
        val = Fraction(0)
    return sol + (val,)


def _solve_lower(cons, dim):
    # strip the (zeroed) top coordinate before recursing
    lower = [(c[0][:dim - 1], c[1], c[2]) for c in cons]
    return _solve(lower, dim - 1)


def feasible(constraints, dim):
    return solve(constraints, dim) is not None


def lp_feasible(rows, nvars):
    """Feasibility of {x >= 0, coeffs . x REL rhs for each row}, REL in
    {"eq", "le", "ge"}.  Exact phase-1 simplex with Bland's rule; suited to
    many variables, where elimination blows up."""
    conss = []
    for coeffs, rel, rhs in rows:
        coeffs = [Fraction(c) for c in coeffs]
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"le": "ge", "ge": "le", "eq": "eq"}[rel]
        conss.append((coeffs, rel, rhs))
    m = len(conss)
    col = nvars
    slack_col = {}
    for i, (_, rel, _) in enumerate(conss):
        if rel in ("le", "ge"):
            slack_col[i] = col
            col += 1
    art_col = {}
    for i, (_, rel, _) in enumerate(conss):
        if rel in ("eq", "ge"):
            art_col[i] = col
            col += 1
    total = col
    zero = Fraction(0)
    T = []
    basis = [None] * m
    for i, (coeffs, rel, rhs) in enumerate(conss):
        row = coeffs + [zero] * (total - nvars) + [rhs]
        if rel == "le":
            row[slack_col[i]] = Fraction(1)
            basis[i] = slack_col[i]
        elif rel == "ge":
            row[slack_col[i]] = Fraction(-1)
        if i in art_col:
            row[art_col[i]] = Fraction(1)
            basis[i] = art_col[i]
        T.append(row)
    arts = set(art_col.values())
    cost = [zero] * (total + 1)
    for i in range(m):
        if basis[i] in arts:
            cost = [a + b for a, b in zip(cost, T[i])]
    while True:
        enter = next((j for j in range(total)
                      if j not in arts and cost[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][total] / a
                if (best is None or ratio < best
                        or (ratio == best and basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded")
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter]:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        if cost[enter]:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, T[leave])]
        basis[leave] = enter
    return cost[total] == 0


def clear_form(form):
    """Scale a rational linear form to coprime integers (sign preserved)."""
    form = tuple(Fraction(c) for c in form)
    den = 1
    for c in form:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in form]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
    return tuple(ints)


def form_rank(forms, dim):
    """Rank of a set of linear forms (Gaussian elimination over Q)."""
    rows = [list(map(Fraction, f)) for f in forms if any(f)]
    rank = 0
    for col in range(dim):
        piv = next((r for r in rows[rank:] if r[col]), None)
        if piv is None:
            continue
        i = rows.index(piv)
        rows[rank], rows[i] = rows[i], rows[rank]
        for r in rows[rank + 1:]:
            if r[col]:
                t = r[col] / piv[col]
                for j in range(col, dim):
                    r[j] -= t * piv[j]
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

    equalities / strict / weak are integer-cleared linear forms f with
    f(x) = 0, f(x) > 0, f(x) >= 0 respectively.  A witness interior point is
    stored; empty cones are never constructed (build via `make`).
    """

    __slots__ = ("dim", "equalities", "strict", "weak", "witness")

    def __init__(self, dim, equalities, strict, weak, witness):
        self.dim = dim
        self.equalities = tuple(dict.fromkeys(_canon_eq(clear_form(f)) for f in equalities
                                              if any(f)))
        self.strict = tuple(dict.fromkeys(clear_form(f) for f in strict))
        self.weak = tuple(dict.fromkeys(clear_form(f) for f in weak))
        self.witness = tuple(Fraction(x) for x in witness)

    @classmethod
    def make(cls, dim, equalities, strict, weak=(), witness=None):
        """Construct, computing a witness; returns None if empty."""
        cone = cls(dim, equalities, strict, weak, witness or (0,) * dim)
        if witness is not None and cone.contains(witness):
            return cone
        pt = solve(cone._constraints(), dim)
        if pt is None:
            return None
        cone.witness = pt
        return cone

    def _constraints(self):
        zero = Fraction(0)
        cons = [(f, zero, "eq") for f in self.equalities]
        cons += [(f, zero, "gt") for f in self.strict]
        cons += [(f, zero, "ge") for f in self.weak]
        return cons

    def contains(self, point):
        point = [Fraction(x) for x in point]
        def ev(f):
            return sum(a * x for a, x in zip(f, point))
        return (all(ev(f) == 0 for f in self.equalities)
                and all(ev(f) > 0 for f in self.strict)
                and all(ev(f) >= 0 for f in self.weak))

    def closure_contains(self, point):
        point = [Fraction(x) for x in point]
        def ev(f):
            return sum(a * x for a, x in zip(f, point))
        return (all(ev(f) == 0 for f in self.equalities)
                and all(ev(f) >= 0 for f in self.strict)
                and all(ev(f) >= 0 for f in self.weak))

    def interior_point(self):
        pt = solve(self._constraints(), self.dim)
        if pt is None:
            raise EmptyCone("cone is empty")
        return pt

    def _implies(self, form, rel):
        """Does every cone point satisfy form REL 0?"""
        zero = Fraction(0)
        neg = tuple(-c for c in form)
        if rel == "eq":
            return (not feasible(self._constraints() + [(form, zero, "gt")], self.dim)
                    and not feasible(self._constraints() + [(neg, zero, "gt")], self.dim))
        if rel == "gt":
            return not feasible(self._constraints() + [(neg, zero, "ge")], self.dim)
        return not feasible(self._constraints() + [(neg, zero, "gt")], self.dim)

    def included_in(self, other):
        return (other.contains(self.witness)
                and all(self._implies(f, "eq") for f in other.equalities)
                and all(self._implies(f, "gt") for f in other.strict)
                and all(self._implies(f, "ge") for f in other.weak))

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
                                self.strict + other.strict,
                                self.weak + other.weak)

    def closure_facets(self):
        """(form, facet_interior_point) pairs: inequality forms whose zero set
        meets the closure in a facet with the other inequalities strict."""
        zero = Fraction(0)
        out = []
        ineqs = list(dict.fromkeys(self.strict + self.weak))
        for f in ineqs:
            cons = [(g, zero, "eq") for g in self.equalities]
            cons.append((f, zero, "eq"))
            for g in ineqs:
                if g != f:
                    cons.append((g, zero, "gt"))
            pt = solve(cons, self.dim)
            if pt is not None and any(pt):
                out.append((f, pt))
        return out

    def to_doc(self):
        doc = []
        for f in self.equalities:
            doc.append({"rel": "=", "form": list(f)})
        for f in self.strict:
            doc.append({"rel": ">", "form": list(f)})
        for f in self.weak:
            doc.append({"rel": ">=", "form": list(f)})
        return {"forms": doc, "witness": [str(x) for x in self.witness]}

    def __repr__(self):
        bits = [f"{f}=0" for f in self.equalities]
        bits += [f"{f}>0" for f in self.strict]
        bits += [f"{f}>=0" for f in self.weak]
        return "Cone{" + ", ".join(bits) + "}"

"""Exact linear feasibility and relatively open polyhedral cones, in
integers.

A cone is given by integer linear forms: equalities f . x = 0 and strict
forms f . x > 0.  `solve` finds a point of such a homogeneous system by
Fourier-Motzkin elimination in integers, so cone decisions are exact.
Eliminating a coordinate either substitutes an equality or adds strict
forms pairwise, which gives strict forms again, so every system holds
equalities and strict forms only and needs no strictness tracking.  The
back-substitution stays in integers too: a point is integer numerators over
one positive common denominator, (nums, den), and bounds compare by
cross-multiplying.  The forms are homogeneous, so a cone holds the point
exactly when it holds the integer vector nums: membership (`contains`)
takes integer vectors, and the fan traversal hands it a weight's
`orders.Weight.ivec`.  `lp_feasible` is an exact, fraction-free simplex for
the many-variable convex-hull redundancy test of `newton.vertex_set`.
Nothing here makes a rational number.
"""

from __future__ import annotations

from math import gcd
from operator import mul


def _normalize(form):
    """The integer form divided by the gcd of its coefficients."""
    g = gcd(*form)
    return tuple(c // g for c in form) if g > 1 else form


def _combine(p, q, var):
    """Eliminate x_var between the strict forms p (coefficient > 0) and q
    (< 0): their positive combination free of x_var."""
    a, b = p[var], -q[var]
    return _normalize(tuple(b * x + a * y for x, y in zip(p, q)))


def _substitute(form, var, pivot):
    """Eliminate x_var from form with the equality pivot: a positive
    multiple of form minus a multiple of pivot."""
    k = form[var]
    if not k:
        return form
    c = pivot[var]
    s = k if c > 0 else -k
    return _normalize(tuple(abs(c) * a - s * b for a, b in zip(form, pivot)))


def solve(equalities, strict, dim):
    """A point of Q^dim where every integer equality form vanishes and every
    integer strict form is positive, as (nums, den) with den > 0 and
    gcd(den, *nums) = 1 (the point nums / den), or None.  Deterministic:
    midpoints/offsets of the FM bounds."""
    return _solve([_normalize(tuple(f)) for f in equalities],
                  [_normalize(tuple(f)) for f in strict], dim)


def _solve(eqs, strict, dim):
    """`solve` on normalized integer forms, in integers throughout.
    Each bound on the last coordinate is a / (b * den) with b > 0, kept as
    the pair (a, b); bounds compare by cross-multiplying."""
    eqs = list(dict.fromkeys(eqs))
    strict = list(dict.fromkeys(strict))
    if not all(map(any, strict)):  # 0 > 0
        return None
    if dim == 0:
        return (), 1
    var = dim - 1
    pivot = next((f for f in eqs if f[var]), None)
    if pivot is not None:
        sol = _solve_lower(
            [_substitute(f, var, pivot) for f in eqs if f is not pivot],
            [_substitute(f, var, pivot) for f in strict], dim)
        if sol is None:
            return None
        a, c = -sum(map(mul, pivot, sol[0])), pivot[var]
        return _extend(sol, a, c) if c > 0 else _extend(sol, -a, -c)
    pos = [f for f in strict if f[var] > 0]
    neg = [f for f in strict if f[var] < 0]
    sol = _solve_lower(eqs, [f for f in strict if not f[var]]
                       + [_combine(p, q, var) for p in pos for q in neg], dim)
    if sol is None:
        return None
    nums, den = sol
    lo = hi = None
    for f in pos:  # lower bound a / (c * den) on x_var
        a, c = -sum(map(mul, f, nums)), f[var]
        if lo is None or a * lo[1] > lo[0] * c:
            lo = a, c
    for f in neg:  # upper bound a / (c * den)
        a, c = sum(map(mul, f, nums)), -f[var]
        if hi is None or a * hi[1] < hi[0] * c:
            hi = a, c
    if lo is not None and hi is not None:
        # the midpoint; lo < hi, as each pair's combination is positive at
        # the lower point
        a, b = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
    elif lo is not None:
        a, b = lo[0] + lo[1] * den, lo[1]  # one past the bound
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


def _solve_lower(eqs, strict, dim):
    # strip the (zeroed) top coordinate before recursing
    return _solve([f[:dim - 1] for f in eqs], [f[:dim - 1] for f in strict], dim - 1)


def lp_feasible(rows, nvars):
    """Feasibility of {x >= 0, coeffs . x REL rhs for each row}, REL in
    {"eq", "le", "ge"}, integer coefficients.  Exact phase-1 simplex with
    Bland's rule; suited to many variables, where elimination blows up.

    Fraction-free (Edmonds; Bareiss, Math. Comp. 1968): the tableau is an
    integer matrix T over a common denominator D > 0, each pivot dividing
    exactly, so every reduced cost and ratio is a positive multiple of the
    rational tableau's and the pivots are the same.  Artificial columns
    never enter and are not kept."""
    cons = []
    for coeffs, rel, rhs in rows:
        row = [*coeffs, rhs]
        if rhs < 0:
            row = [-c for c in row]
            rel = {"le": "ge", "ge": "le", "eq": "eq"}[rel]
        cons.append((row, rel))
    nslack = sum(rel != "eq" for _, rel in cons)
    total = nvars + nslack  # the columns that may enter; then the rhs
    T, basis, cost = [], [], [0] * (total + 1)
    slack, art = nvars, total
    for row, rel in cons:
        tab = row[:-1] + [0] * nslack + row[-1:]
        if rel == "le":
            tab[slack] = 1
            basis.append(slack)
        else:
            if rel == "ge":
                tab[slack] = -1
            basis.append(art)
            art += 1
            cost = [a + b for a, b in zip(cost, tab)]
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


def form_rank(forms):
    """Rank of a set of integer linear forms, eliminating with `solve`'s
    integer step `_substitute`: each nonzero form in turn eliminates its
    first variable from the rest."""
    rows = [f for f in forms if any(f)]
    rank = 0
    while rows:
        pivot = rows.pop()
        var = next(i for i, c in enumerate(pivot) if c)
        rows = [f for f in (_substitute(r, var, pivot) for r in rows) if any(f)]
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

    equalities / strict are integer linear forms f, divided by the gcd of
    their coefficients, with f(x) = 0 and f(x) > 0 respectively.
    """

    __slots__ = ("dim", "equalities", "strict")

    def __init__(self, dim, equalities, strict):
        self.dim = dim
        self.equalities = tuple(dict.fromkeys(_canon_eq(_normalize(tuple(f)))
                                              for f in equalities if any(f)))
        self.strict = tuple(dict.fromkeys(_normalize(tuple(f)) for f in strict))

    def contains(self, p):
        """Membership of an integer vector p, or of any positive rational
        multiple of p: the forms are homogeneous, so a weight's integer
        vector (`orders.Weight.ivec`) answers for the weight."""
        return (all(not sum(map(mul, f, p)) for f in self.equalities)
                and all(sum(map(mul, f, p)) > 0 for f in self.strict))

    def closure_facets(self):
        """(form, (nums, den)) pairs: the inequality forms whose zero set
        meets the closure in a facet, each with a point of that facet with
        the other inequalities strict, as `solve` returns it."""
        out = []
        for f in self.strict:
            pt = solve(self.equalities + (f,), [g for g in self.strict if g != f],
                       self.dim)
            if pt is not None and any(pt[0]):
                out.append((f, pt))
        return out

    def to_doc(self):
        doc = [{"rel": "=", "form": list(f)} for f in self.equalities]
        doc += [{"rel": ">", "form": list(f)} for f in self.strict]
        return {"forms": doc}

    def __repr__(self):
        bits = [f"{f}=0" for f in self.equalities]
        bits += [f"{f}>0" for f in self.strict]
        return "Cone{" + ", ".join(bits) + "}"

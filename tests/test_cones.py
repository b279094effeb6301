"""Exact feasibility (elimination and simplex) and relatively open cones."""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import conftest
import dfan.cones as cones
from conftest import included_in, same_cone, solved_cone
from dfan.cones import form_rank, lp_feasible, solve

F = Fraction


# ---------------------------------------------------------------------------
# the Fraction elimination that `solve` replaced, kept as its oracle
# ---------------------------------------------------------------------------

def _normalize_by_fractions(con):
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


def _combine_by_fractions(pos, neg, var):
    pc, pconst, prel = pos
    nc, nconst, nrel = neg
    a = pc[var]
    b = -nc[var]
    coeffs = tuple(b * p + a * q for p, q in zip(pc, nc))
    const = b * pconst + a * nconst
    rel = "gt" if "gt" in (prel, nrel) else "ge"
    return (coeffs, const, rel)


def _substitute_by_fractions(con, var, expr_coeffs, expr_const):
    coeffs, const, rel = con
    c = coeffs[var]
    if not c:
        return con
    new = tuple(a + c * b if i != var else Fraction(0)
                for i, (a, b) in enumerate(zip(coeffs, expr_coeffs)))
    return (new, const + c * expr_const, rel)


def _trivial_ok(const, rel):
    if rel == "eq":
        return const == 0
    if rel == "ge":
        return const >= 0
    return const > 0


def solve_by_fractions(constraints, dim):
    """Affine constraints (coeffs, const, rel), coeffs . x + const REL 0,
    eliminated in Fraction arithmetic."""
    cons = []
    for coeffs, const, rel in constraints:
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != dim:
            coeffs = coeffs + (Fraction(0),) * (dim - len(coeffs))
        cons.append(_normalize_by_fractions((coeffs, Fraction(const), rel)))
    return _solve_by_fractions(cons, dim)


def _solve_by_fractions(cons, dim):
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
        reduced = [_normalize_by_fractions(
            _substitute_by_fractions(k, var, expr_coeffs, expr_const))
            for k in cons if k is not pivot]
        sol = _lower_by_fractions(reduced, dim)
        if sol is None:
            return None
        val = expr_const + sum(a * s for a, s in zip(expr_coeffs, sol + (Fraction(0),)))
        return sol + (val,)
    pos = [c for c in with_var if c[0][var] > 0]
    neg = [c for c in with_var if c[0][var] < 0]
    reduced = list(without)
    for p in pos:
        for q in neg:
            reduced.append(_normalize_by_fractions(_combine_by_fractions(p, q, var)))
    sol = _lower_by_fractions(reduced, dim)
    if sol is None:
        return None
    lo = hi = None
    lo_strict = hi_strict = False
    for coeffs, const, rel in with_var:
        rest = const + sum(a * s for a, s in zip(coeffs[:var], sol))
        c = coeffs[var]
        bound = -rest / c
        if c > 0:
            if lo is None or bound > lo:
                lo, lo_strict = bound, rel == "gt"
            elif bound == lo and rel == "gt":
                lo_strict = True
        else:
            if hi is None or bound < hi:
                hi, hi_strict = bound, rel == "gt"
            elif bound == hi and rel == "gt":
                hi_strict = True
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            return None
        val = lo if lo == hi else (lo + hi) / 2
    elif lo is not None:
        val = lo + 1
    elif hi is not None:
        val = hi - 1
    else:
        val = Fraction(0)
    return sol + (val,)


def _lower_by_fractions(cons, dim):
    return _solve_by_fractions([(c[0][:dim - 1], c[1], c[2]) for c in cons], dim - 1)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _satisfied(pt, equalities, strict):
    def val(f):
        return sum(a * x for a, x in zip(f, pt))

    return (all(val(f) == 0 for f in equalities)
            and all(val(f) > 0 for f in strict))


def _split(cons):
    """The equality forms and the strict forms of (form, rel) pairs, rel in
    {"eq", "gt"}: `solve`'s arguments."""
    return ([f for f, rel in cons if rel == "eq"],
            [f for f, rel in cons if rel == "gt"])


def _by_fractions(equalities, strict, dim):
    """The Fraction oracle on `solve`'s arguments."""
    return solve_by_fractions([(f, 0, "eq") for f in equalities]
                              + [(f, 0, "gt") for f in strict], dim)


def _point(sol):
    """`solve`'s (nums, den) as the Fraction point nums / den, after
    checking that it is integers over the least positive denominator."""
    if sol is None:
        return None
    nums, den = sol
    assert all(type(c) is int for c in (*nums, den)), sol
    assert den > 0 and gcd(den, *nums) == 1, sol
    return tuple(F(a, den) for a in nums)


def test_solve_simple_systems():
    # x > 0, x < t, t > 0: the cone over the open interval 0 < x < 1
    strict = [(1, 0), (-1, 1), (0, 1)]
    pt = _point(solve([], strict, 2))
    assert pt is not None and 0 < pt[0] / pt[1] < 1 and _satisfied(pt, [], strict)
    # infeasible: x > 0 and x < 0
    assert solve([], [(1,), (-1,)], 1) is None
    # equality pivots: x + y = t, x - y = 0, t > 0 gives x = y = t/2
    nums, den = solve([(1, 1, -1), (1, -1, 0)], [(0, 0, 1)], 3)
    assert 2 * nums[0] == 2 * nums[1] == nums[2] > 0 and den > 0
    assert all(type(x) is int for x in (*nums, den))


def test_solve_strictness_tracking():
    """Strict forms hold strictly: with t > 0, x = t has a point, while
    x > t with x < t has none; 0 = 0 holds and 0 > 0 does not."""
    t_pos = [(0, 1)]
    assert solve([(1, -1)], t_pos, 2) == ((1, 1), 1)
    assert solve([], [(1, -1), (-1, 1)] + t_pos, 2) is None
    assert solve([(0, 0)], [], 2) == ((0, 0), 1) and solve([], [(0, 0)], 2) is None


def _integer_only_solve(seen):
    """Wrap cones._solve: every system elimination produces is recorded and
    must hold int coefficients only."""
    raw = cones._solve

    def checked(equalities, strict, dim):
        for form in equalities + strict:
            assert len(form) == dim and all(type(c) is int for c in form), form
        seen.append(len(equalities) + len(strict))
        return raw(equalities, strict, dim)

    return mock.patch.object(cones, "_solve", checked)


systems = st.integers(min_value=1, max_value=5).flatmap(
    lambda dim: st.tuples(st.just(dim), st.lists(
        st.tuples(st.lists(st.integers(min_value=-3, max_value=3),
                           min_size=dim, max_size=dim).map(tuple),
                  st.sampled_from(["eq", "gt"])),
        max_size=7)))


@settings(max_examples=400, deadline=None)
@given(systems)
def test_integer_elimination_matches_fraction_oracle(system):
    """Homogeneous systems: the integer elimination returns exactly the
    point (or None) of the Fraction elimination it replaced, and every
    system it recurses on holds ints only."""
    dim, cons = system
    eqs, strict = _split(cons)
    seen = []
    with _integer_only_solve(seen):
        pt = _point(solve(eqs, strict, dim))
    assert len(seen) == dim + 1 or pt is None
    assert pt == _by_fractions(eqs, strict, dim)
    if pt is not None:
        assert _satisfied(pt, eqs, strict)


# x0 = 1 and 1/2 < x1 < 2/3 put x1 at 7/12: a common denominator of 12 for
# whatever x2 is bounded by
_TWELFTHS = [((1, 0, 0), "gt"), ((-1, 2, 0), "gt"), ((2, -3, 0), "gt")]


@pytest.mark.parametrize("top, x2", [
    ([((0, -1, 1), "gt")], F(19, 12)),                      # lo + 1
    ([((0, 1, -1), "gt")], F(-5, 12)),                      # hi - 1
    ([((0, -1, 1), "gt"), ((0, 2, -1), "gt")], F(7, 8)),    # midpoint
    ([((0, -1, 1), "gt"), ((0, 1, -1), "gt")], None),       # lo == hi: empty
    ([((0, 1, -2), "eq")], F(7, 24)),                       # equality pivot
    ([((0, -1, 3), "gt"), ((0, 1, -1), "gt")], F(7, 18)),   # midpoint, reduced
    ([((0, -1, 1), "gt"), ((0, 3, -1), "gt")], F(7, 6)),    # midpoint in twelfths
], ids=["lo", "hi", "mid", "meet", "pivot", "mid_reduced", "mid_whole"])
def test_back_substitution_over_a_common_denominator(top, x2):
    """Each way of fixing the last coordinate, once the earlier ones share a
    denominator above 1, gives the Fraction oracle's point; strict bounds
    that meet leave no point."""
    eqs, strict = _split(_TWELFTHS + top)
    pt = _point(solve(eqs, strict, 3))
    assert pt == (None if x2 is None else (1, F(7, 12), x2))
    assert pt == _by_fractions(eqs, strict, 3)


def test_cone_queries_match_fraction_oracle():
    """The elimination inside cone construction, closure facets and the
    tests' cone equality answers as the Fraction oracle does, point for
    point."""
    calls = []
    raw = cones.solve

    def both(equalities, strict, dim):
        pt = raw(equalities, strict, dim)
        assert _point(pt) == _by_fractions(equalities, strict, dim)
        calls.append(pt)
        return pt

    with mock.patch.object(cones, "solve", both), \
            mock.patch.object(conftest, "solve", both):
        a = solved_cone(3, [], [(1, 0, 0), (0, 1, -1), (1, 1, 1)])
        redundant = solved_cone(3, [], [(2, 1, 1), (1, 0, 0), (0, 2, -2),
                                        (1, 1, 1)])
        b = solved_cone(3, [(1, -1, 0)], [(1, 0, 0), (0, 0, 1)])
        assert a.closure_facets() and b.closure_facets()
        assert same_cone(a, redundant) and not same_cone(a, b)
    assert len(calls) > 15 and any(pt is None for pt in calls)


# ---------------------------------------------------------------------------
# the Fraction simplex that `lp_feasible` replaced, kept as its oracle
# ---------------------------------------------------------------------------

def fraction_simplex(rows, nvars):
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


def _random_lp(rng):
    """(nvars, rows): 1-4 variables and 1-6 rows mixing eq/le/ge, integer
    coefficients, right-hand sides of either sign, all-zero rows, and
    positive multiples of earlier rows (tied ratios)."""
    def coeff():
        return rng.randint(-3, 3)

    nvars = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        rel = rng.choice(("eq", "le", "ge"))
        kind = rng.random()
        if kind < 0.2 and rows:
            c, _, r = rng.choice(rows)
            k = rng.choice((2, 3))
            rows.append((tuple(k * a for a in c), rel, k * r))
        elif kind < 0.3:
            rows.append(((0,) * nvars, rel, coeff()))
        else:
            rows.append((tuple(coeff() for _ in range(nvars)), rel, coeff()))
    return nvars, rows


# ---------------------------------------------------------------------------
# simplex, forms, cones
# ---------------------------------------------------------------------------

def _lp_by_elimination(rows, nvars):
    """`lp_feasible`'s question put to the Fraction elimination: the affine
    system x >= 0 and coeffs . x REL rhs for each row."""
    cons = [(tuple(int(i == j) for j in range(nvars)), 0, "ge")
            for i in range(nvars)]
    for coeffs, rel, rhs in rows:
        if rel == "le":
            cons.append((tuple(-c for c in coeffs), rhs, "ge"))
        else:
            cons.append((coeffs, -rhs, rel))
    return solve_by_fractions(cons, nvars) is not None


def test_lp_feasible_matches_elimination():
    # mu1 + mu2 = 1, mu >= 0, 2 mu1 - 2 mu2 >= 1
    rows = [((1, 1), "eq", 1), ((2, -2), "ge", 1)]
    assert lp_feasible(rows, 2) and _lp_by_elimination(rows, 2)
    rows_bad = [((1, 1), "eq", 1), ((1, 1), "ge", 2)]
    assert not lp_feasible(rows_bad, 2) and not _lp_by_elimination(rows_bad, 2)
    # degenerate equalities
    assert lp_feasible([((1,), "eq", 0)], 1)
    assert not lp_feasible([((0,), "eq", 1)], 1)
    # 200 seeded systems of the simplex sweep
    rng = random.Random(7)
    for _ in range(200):
        nvars, rows = _random_lp(rng)
        assert lp_feasible(rows, nvars) == _lp_by_elimination(rows, nvars), rows


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False))
def test_lp_feasible_matches_fraction_simplex(rng):
    nvars, rows = _random_lp(rng)
    assert lp_feasible(rows, nvars) == fraction_simplex(rows, nvars)


def test_lp_feasible_sweep_matches_fraction_simplex():
    """2,000 seeded systems: the integer tableau decides as the Fraction
    tableau does, and the sweep holds every kind of row and both answers."""
    rng = random.Random(2024)
    answers = []
    negative = zero = copies = 0
    for _ in range(2000):
        nvars, rows = _random_lp(rng)
        got = lp_feasible(rows, nvars)
        assert got == fraction_simplex(rows, nvars), rows
        answers.append(got)
        negative += any(r < 0 for _, _, r in rows)
        zero += any(not any(c) for c, _, _ in rows)
        copies += any(c[0] and d[0] and c != d and all(a * d[0] == b * c[0]
                                                       for a, b in zip(c, d))
                      for i, (c, _, _) in enumerate(rows)
                      for d, _, _ in rows[:i])
    assert min(negative, zero, copies) > 100
    assert 0.2 < sum(answers) / len(answers) < 0.8


def fraction_rank(forms, dim):
    """The Fraction Gauss elimination `form_rank` replaced, kept as its
    oracle."""
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


def test_clear_form_and_rank():
    """A form is divided by the gcd of its coefficients, sign kept."""
    assert cones._normalize((4, -6, 0)) == (2, -3, 0)
    assert cones._normalize((0, 0)) == (0, 0)
    assert form_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert form_rank([(1, 1), (2, 2)]) == 1
    assert form_rank([]) == 0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 5).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
             .map(tuple), max_size=6))))
def test_form_rank_matches_fraction_rank(args):
    """Small entries and up to six forms, so zero forms, repeats and
    dependent sets are common."""
    dim, forms = args
    assert form_rank(forms) == fraction_rank(forms, dim)


def test_rel_open_cone_membership():
    # open quadrant x > 0, y > 0
    c = solved_cone(2, [], [(1, 0), (0, 1)])
    assert c.contains(solve([], [(1, 0), (0, 1)], 2)[0])
    assert c.contains((1, 2)) and not c.contains((0, 1))
    assert c.contains((3, 2)) and not c.contains((-2, 15))
    # ray x = y, x > 0
    r = solved_cone(2, [(1, -1)], [(1, 0)])
    assert r.contains(solve([(1, -1)], [(1, 0)], 2)[0])
    assert r.contains((3, 3)) and not r.contains((3, 2))
    assert r.contains((2, 2)) and not r.contains((2, 3))
    # empty: x > 0 and x = 0
    assert solve([(1,)], [(1,)], 1) is None and solved_cone(1, [(1,)], [(1,)]) is None


def test_same_cone_and_inclusion():
    """The tests' cone equality: a redundant extra form changes no set."""
    a = solved_cone(2, [], [(1, 0), (0, 1)])
    b = solved_cone(2, [], [(2, 0), (0, 3), (1, 1)])
    assert same_cone(a, b)
    r = solved_cone(2, [(1, -1)], [(1, 0)])
    assert included_in(r, a) and not included_in(a, r) and not same_cone(a, r)


def test_closure_facets():
    c = solved_cone(2, [], [(1, 0), (0, 1)])
    facets = c.closure_facets()
    forms = sorted(f for f, _ in facets)
    assert forms == [(0, 1), (1, 0)]
    for f, (pt, den) in facets:
        assert sum(a * x for a, x in zip(f, pt)) == 0
        assert any(pt) and den > 0
    # every facet point lies on its form and strictly inside the others
    c = solved_cone(3, [], [(1, -1, 0), (0, 1, 0), (0, 0, 1)])
    facets = c.closure_facets()
    assert [f for f, _ in facets] == list(c.strict)
    for f, (pt, _) in facets:
        assert sum(a * x for a, x in zip(f, pt)) == 0
        assert all(sum(a * x for a, x in zip(g, pt)) > 0 for g in c.strict if g != f)
    # a pointed ray has no facets besides the excluded apex
    r = solved_cone(2, [(1, -1)], [(1, 0)])
    assert r.closure_facets() == []

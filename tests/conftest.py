"""Shared helpers: compact operator builders, and the reference order,
division check and cone equality that several test modules use."""

import random
from fractions import Fraction

import pytest

from dfan.cones import RelOpenCone, solve
from dfan.operators import Exponent, HOperator
from dfan.params import QQ_FIELD, ParamField, ParamIdeal
from dfan.parsing import parse_operator


def op(text, var_names, param_names=(), field=None):
    return parse_operator(text, var_names, param_names, field=field)


def qop(n, terms):
    """HOperator over QQ from {(alpha, beta, k): coeff} with tuples."""
    t = {}
    for (a, b, k), c in terms.items():
        t[Exponent(tuple(a), tuple(b), k)] = Fraction(c)
    return HOperator(n, QQ_FIELD, t)


def random_qop(rng, n, nterms, maxdeg=3, maxk=2):
    terms = {}
    for _ in range(nterms):
        a = tuple(rng.randint(0, maxdeg) for _ in range(n))
        b = tuple(rng.randint(0, maxdeg) for _ in range(n))
        k = rng.randint(0, maxk)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if c:
            terms[Exponent(a, b, k)] = c
    return HOperator(n, QQ_FIELD, terms)


def random_ideal(rng, n, maxk=1, most=2):
    """Generators drawn as the criterion-3 pool draws them."""
    maxdeg = 2 if n == 1 else 1
    gens = [random_qop(rng, n, rng.randint(1, 3) if n == 1 else 2,
                       maxdeg=maxdeg, maxk=maxk)
            for _ in range(rng.randint(1, most))]
    return [g for g in gens if not g.is_zero()]


def admissible_by_fractions(w):
    """`Weight.is_admissible` stated on the Fraction coordinates: the oracle
    of the test on the integer vector."""
    return all(a <= 0 for a in w.u) and all(a + b >= 0 for a, b in zip(w.u, w.v))


def _dot(w, e):
    return (sum(a * p for a, p in zip(w.u, e.alpha))
            + sum(b * p for b, p in zip(w.v, e.beta)))


def _base_compare(order, a, b):
    da, db = sum(a.beta), sum(b.beta)
    if da != db:
        return -1 if da < db else 1
    xa, xb = sum(a.alpha), sum(b.alpha)
    if xa != xb:
        # antigraded: lower x-degree is greater
        return -1 if xa > xb else 1
    for i in order.xprio:
        if a.alpha[i] != b.alpha[i]:
            return -1 if a.alpha[i] < b.alpha[i] else 1
    for i in order.xprio:
        if a.beta[i] != b.beta[i]:
            return -1 if a.beta[i] < b.beta[i] else 1
    return 0


def compare_by_rules(order, a, b):
    """The order stated rule by rule, with Fraction weights: -1, 0 or 1 for
    a < b, a = b, a > b.  The oracle `OrderSpec.key()` is checked against."""
    if a == b:
        return 0
    if order.homogenized:
        la, lb = a.level, b.level
        if la != lb:
            return -1 if la < lb else 1
    for w in order.weights:
        wa, wb = _dot(w, a), _dot(w, b)
        if wa != wb:
            return -1 if wa < wb else 1
    c = _base_compare(order, a, b)
    if c:
        return c
    # equal (alpha, beta): larger k first (inhomogeneous tie-break)
    if a.k != b.k:
        return -1 if a.k < b.k else 1
    return 0


def reconstruct_window(res, G, cap):
    """sum q_j g_j + R of the division result res, truncated to the cap
    window."""
    acc = res.remainder.truncated(cap)
    for q, g in zip(res.quotients, G):
        acc = acc + (q * g).truncated(cap)
    return acc


def solved_cone(dim, equalities, strict):
    """The relatively open cone of the forms, or None when `solve` finds it
    empty."""
    pt = solve(equalities, strict, dim)
    return None if pt is None else RelOpenCone(dim, equalities, strict)


def included_in(a, b):
    """Does every point of the cone a satisfy the forms of the cone b?  It
    does when `solve` finds no point of a with f > 0 or f < 0 for an
    equality f of b, and none with g = 0 or g < 0 for a strict form g.  The
    point `solve` finds in a is tested first."""
    def empty(eqs, strict):
        return solve(a.equalities + eqs, a.strict + strict, a.dim) is None

    pt = solve(a.equalities, a.strict, a.dim)
    return ((pt is None or b.contains(pt[0]))
            and all(empty((), (f,)) and empty((), (tuple(-c for c in f),))
                    for f in b.equalities)
            and all(empty((g,), ()) and empty((), (tuple(-c for c in g),))
                    for g in b.strict))


def same_cone(a, b):
    """Set equality of two relatively open cones."""
    return a.dim == b.dim and included_in(a, b) and included_in(b, a)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def F1():
    """Frac(Q[y]) with the zero ideal."""
    return ParamField(1, ParamIdeal.zero(1))

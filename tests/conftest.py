"""Shared helpers: compact operator builders, the reference order,
division check and cone equality that several test modules use, the tuple
forms of the term product, the divisor classifier and the join that the
packed loops replaced, and the checks and samplers the acceptance suite
runs on fans, bases and strata."""

import random
from fractions import Fraction
from functools import partial
from itertools import count, product
from math import comb, gcd
from operator import add, ge, sub

import pytest

from dfan.cones import RelOpenCone, solve
from dfan.fan import oracle_classify
from dfan.operators import Exponent, HOperator
from dfan.params import QQ_FIELD, ParamField, ParamIdeal, poly_eval
from dfan.parsing import parse_operator
from dfan.standard import standard_basis


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


def _falling(a, j):
    r = 1
    for t in range(j):
        r *= a - t
    return r


def _commutation_choices(beta1, alpha2, lims):
    """All j <= lims = min(beta1, alpha2) with multiplicity
    prod_i C(beta1_i, j_i)*(alpha2_i)_{j_i}, starting with j = 0."""
    out = []
    for j in product(*(range(l + 1) for l in lims)):
        mult = 1
        for i, ji in enumerate(j):
            if ji:
                mult *= comb(beta1[i], ji) * _falling(alpha2[i], ji)
        if mult:
            out.append((j, mult))
    return out


def _add_term(terms, e, c):
    if e in terms:
        s = terms[e] + c
        if s:
            terms[e] = s
        else:
            del terms[e]
    else:
        terms[e] = c


def term_product(e, c, g, cap, z_one=False):
    """The tuple form of the term product, the oracle of the packed
    `operators._product`: c * x^a dx^b z^k times g, for e = (a, b, k), on
    `Exponent`s, truncated at the x-degree cap (None: none); with z_one, in
    the z = 1 quotient, merged in term order.  g is anything with `terms`.
    Returns the terms dict and whether the cap cut a nonzero term, the
    term e itself included."""
    if cap is not None and sum(e[0]) > cap:
        return {}, True  # every product term has x-degree at least |a|
    a, b, k = e
    xa = sum(a)
    out = {}
    discarded = False
    for (a2, b2, k2), c2 in g.terms.items():
        base = c * c2
        xdeg = xa + sum(a2)
        alpha = tuple(map(add, a, a2))
        beta = tuple(map(add, b, b2))
        lims = tuple(map(min, b, a2))
        for j, mult in _commutation_choices(b, a2, lims) if any(lims) else ((lims, 1),):
            s = sum(j)
            if cap is not None and xdeg - s > cap:
                discarded = True
                continue
            te = (Exponent(tuple(map(sub, alpha, j)), tuple(map(sub, beta, j)),
                           k + k2 + s) if s else Exponent(alpha, beta, k + k2))
            _add_term(out, te, base * mult if mult != 1 else base)
    if z_one:
        merged = {}
        for te, tc in out.items():
            _add_term(merged, Exponent(te.alpha, te.beta, 0), tc)
        out = merged
    return out, discarded


def oracle_mul(z_one):
    """The tuple term product of the homogenized ring, or of its z = 1
    quotient."""
    return partial(term_product, z_one=True) if z_one else term_product


def partition(divisor_exps):
    """Delta classifier, the oracle of division's packed divisor test:
    e -> least j with e in exp_j + N^{2n+1}, else None."""
    vecs = [e.vec() for e in divisor_exps]

    def classify(e):
        v = e.vec()
        for j, vj in enumerate(vecs):
            if all(map(ge, v, vj)):
                return j
        return None

    return classify


def join(a, b):
    """Componentwise max of two exponents, the oracle of `Codec.join`."""
    return Exponent(tuple(map(max, a.alpha, b.alpha)),
                    tuple(map(max, a.beta, b.beta)), max(a.k, b.k))


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


def uniqueness_check(gens, ord_spec, cap, shuffles=5, seed=0):
    """Reduced standard bases from shuffled and rescaled generator lists must
    coincide."""
    rng = random.Random(seed)
    ref = standard_basis(gens, ord_spec, cap=cap, reduced=True)
    for _ in range(shuffles):
        perm = list(gens)
        rng.shuffle(perm)
        field = perm[0].field
        perm = [g.scale(field.coerce(Fraction(rng.randint(1, 7),
                                              rng.randint(1, 7))
                                     * rng.choice((1, -1))))
                for g in perm]
        other = standard_basis(perm, ord_spec, cap=cap, reduced=True)
        if len(other.basis) != len(ref.basis):
            return False
        if any(a != b for a, b in zip(ref.basis, other.basis)):
            return False
    return True


def rationals_by_height():
    """0, 1, -1, 2, -2, 1/2, -1/2, 3, ... every rational exactly once."""
    yield Fraction(0)
    for h in count(1):
        for d in range(1, h + 1):
            n = h
            if gcd(n, d) == 1:
                yield Fraction(n, d)
                yield Fraction(-n, d)
        for n in range(1, h):
            if gcd(n, h) == 1:
                yield Fraction(n, h)
                yield Fraction(-n, h)


def sample_points(m, Q=None, avoid=None, num=10, limit=100000):
    """num rational points of V(Q) avoiding V(avoid), smallest height first.

    For m = 1 this walks the rational line; for larger m it walks tuples of
    bounded height.  Raises if the budget runs out before num points appear.
    """
    pts = []
    gens = rationals_by_height()
    pool = []
    tried = 0
    while len(pts) < num and tried < limit:
        pool.append(next(gens))
        # all m-tuples from the pool whose newest coordinate is the last one
        if m == 0:
            cands = [()]
        elif m == 1:
            cands = [(pool[-1],)]
        else:
            last = pool[-1]
            cands = [c for c in product(pool, repeat=m) if last in c]
        for y0 in cands:
            tried += 1
            if Q is not None and any(poly_eval(g, y0) != 0 for g in Q.gb):
                continue
            if avoid is not None and poly_eval(avoid, y0) == 0:
                continue
            if y0 not in pts:
                pts.append(y0)
                if len(pts) == num:
                    break
        if m == 0:
            break
    if len(pts) < num:
        raise ValueError(f"could not find {num} sample points")
    return pts


def h_vanishes_at(cert, y0):
    """Does the certificate's multiplier h vanish at y0?"""
    return poly_eval(cert.h, y0) == 0


def stratum_contains(cert, y0):
    """Is y0 in V(Q) off V(h) for the certificate's Q and h?"""
    return (all(poly_eval(g, y0) == 0 for g in cert.q_ideal.gb)
            and not h_vanishes_at(cert, y0))


def stratum_for(comp, y0):
    """The deepest stratum of the comprehensive fan whose locus contains
    y0, or None."""
    best = None
    node = comp.root
    while node is not None:
        if all(poly_eval(g, y0) == 0 for g in node.q_ideal.gb):
            if not h_vanishes_at(node.certificate, y0):
                best = node
            nxt = None
            for ch in node.children:
                if all(poly_eval(g, y0) == 0 for g in ch.q_ideal.gb):
                    nxt = ch
                    break
            node = nxt
        else:
            node = None
    return best


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def F1():
    """Frac(Q[y]) with the zero ideal."""
    return ParamField(1, ParamIdeal.zero(1))

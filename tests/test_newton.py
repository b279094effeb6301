"""Newton polyhedra New(g) = conv(E) + W*, faces, and normal cones."""

import importlib
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import qop, same_cone
from dfan.cones import RelOpenCone
from dfan.errors import ZeroOperator
from dfan.fan import enumerate_fan, fan_of_ideal, grid_weights
from dfan.newton import (_conv_redundant, face_of, face_of_sum, in_wstar,
                         minkowski_sum_by_hull, newton, normal_cone,
                         vertex_set)
from dfan.orders import Weight
from dfan.parsing import parse_problem

newton_module = importlib.import_module("dfan.newton")


def dot(w, vec):
    """The Fraction pairing of w with a point of Z^{2n+1} (z-slot ignored)."""
    return sum(a * p for a, p in zip(w.as_tuple(), vec))


def wstar_generators(n):
    """The 2n generators of W* in Z^{2n+1}, written out: e_i (1 in the x_i
    slot), then e'_i (-1 in the x_i and dx_i slots): the forms of W
    negated, with a z-slot of 0."""
    rays = []
    for i in range(n):
        r = [0] * (2 * n + 1)
        r[i] = 1
        rays.append(tuple(r))
    for i in range(n):
        r = [0] * (2 * n + 1)
        r[i] = -1
        r[n + i] = -1
        rays.append(tuple(r))
    return tuple(rays)


def face_rays(n, w):
    """The generators of W* that w vanishes on: the rays of the w-face of
    every polyhedron conv(E) + W*."""
    return tuple(r for r in wstar_generators(n) if dot(w, r) == 0)


def test_wstar_membership_closed_form():
    assert in_wstar(1, (5, -2, 0))       # 5e1 + 2e'1... check: (5,-2): a-c=5? c=2,a=7 ok
    assert not in_wstar(1, (0, 1, 0))    # positive dx slot
    assert not in_wstar(1, (-1, 0, 0))   # alpha below the dx slot
    assert not in_wstar(1, (0, 0, 1))    # z slot must vanish
    for n in range(1, 5):
        assert all(in_wstar(n, r) for r in wstar_generators(n))


def test_w_wstar_duality_random(rng):
    """d in W* iff w.d <= 0 for all admissible w (checked on random pairs)."""
    n = 2
    for _ in range(1000):
        d = tuple(rng.randint(-3, 3) for _ in range(2 * n)) + (0,)
        u = tuple(Fraction(-rng.randint(0, 3)) for _ in range(n))
        v = tuple(-ui + Fraction(rng.randint(0, 4)) for ui in u)
        w = Weight.make(u, v)
        assert w.is_admissible()
        if in_wstar(n, d):
            assert dot(w, d) <= 0
    # and the converse: a non-member admits a separating admissible weight
    for _ in range(200):
        d = tuple(rng.randint(-3, 3) for _ in range(2 * n)) + (0,)
        if in_wstar(n, d):
            continue
        found = False
        for i in range(n):
            if d[n + i] > 0:
                w = Weight.make([0] * n, [1 if j == i else 0 for j in range(n)])
                found = dot(w, d) > 0
            elif d[i] - d[n + i] < 0:
                w = Weight.make([-1 if j == i else 0 for j in range(n)],
                                [1 if j == i else 0 for j in range(n)])
                found = dot(w, d) > 0
            if found:
                break
        assert found or d[2 * n] != 0


def test_vertex_set_absorption_and_hull():
    # x-direction is a recession ray: higher pure x-powers are absorbed
    assert vertex_set(1, [(1, 0, 0), (2, 0, 0)]) == [(1, 0, 0)]
    # beta-dominant points absorb (alpha may drop no faster than beta)
    assert vertex_set(1, [(0, 2, 0), (1, 0, 0)]) == [(0, 2, 0)]
    # different z-slots never absorb each other
    assert len(vertex_set(1, [(0, 2, 0), (1, 0, 2)])) == 2
    # true convex redundancy (not pairwise): midpoint of two x-vertices
    pts = [(0, 4, 0, 0, 0), (4, 0, 0, 0, 0), (2, 2, 0, 0, 0)]
    vs = vertex_set(2, pts)
    assert (2, 2, 0, 0, 0) not in vs and len(vs) == 2


def test_series_cap_artifacts_are_absorbed():
    # x2 + x1 + x1^2 + ... + x1^k: truncation vertices vanish into W*
    for cap in (3, 5, 8):
        terms = {((0, 1), (0, 0), 0): 1}
        for i in range(1, cap + 1):
            terms[((i, 0), (0, 0), 0)] = 1
        g = qop(2, terms)
        poly = newton(g)
        assert poly.vertices == ((0, 1, 0, 0, 0), (1, 0, 0, 0, 0))


def test_newton_of_zero_raises():
    with pytest.raises(ZeroOperator):
        newton(qop(1, {}))


def test_minkowski_sum_translation():
    g = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})  # Airy
    p = newton(g)
    s = minkowski_sum_by_hull([p, p])
    assert s.vertices == tuple(sorted(tuple(2 * a for a in v) for v in p.vertices))


def test_face_and_normal_cone_airy():
    g = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})
    p = newton(g)
    w_int = Weight.make((-1,), (2,))
    assert face_of(p, w_int) == ((0, 2, 0),)  # dx1^2 vertex maximizes
    cone = normal_cone([p], w_int)
    assert cone.contains((-2, 3)) and not cone.contains((0, 1))
    # on u = 0 the x-ray enters the face
    w_u0 = Weight.make((0,), (1,))
    assert face_of(p, w_u0) == ((0, 2, 0),)
    assert face_rays(1, w_u0) == ((1, 0, 0),)
    cone0 = normal_cone([p], w_u0)
    assert cone0.contains((0, 2)) and not cone0.contains((-1, 2))
    assert not same_cone(cone, cone0)


def test_normal_cones_partition_w(rng):
    """Every admissible weight lies in exactly its own cone; two weights share
    a cone iff the cones coincide."""
    g = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1, ((2,), (1,), 1): 1})
    p = newton(g)
    ws = []
    for _ in range(40):
        u = (Fraction(-rng.randint(0, 3)),)
        v = (-u[0] + Fraction(rng.randint(0, 4)),)
        ws.append(Weight.make(u, v))
    cones = [normal_cone([p], w) for w in ws]
    for w, c in zip(ws, cones):
        assert c.contains(w.ivec)
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            in_other = cones[j].contains(ws[i].ivec)
            same = same_cone(cones[i], cones[j])
            assert in_other == same


def _exponents(n):
    degs = st.tuples(*[st.integers(0, 3)] * n)
    return st.tuples(degs, degs, st.integers(0, 2))


@st.composite
def _summands(draw):
    """n in {1, 2} and 1-4 Newton polyhedra of random QQ operators, with
    repeated summands allowed."""
    n = draw(st.sampled_from((1, 2)))
    ops = st.lists(_exponents(n), min_size=1, max_size=5, unique=True).map(
        lambda terms: newton(qop(n, {t: 1 for t in terms})))
    pool = draw(st.lists(ops, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), min_size=len(pool),
                          max_size=len(pool)))
    return n, picks


@st.composite
def _admissible_weight(draw, n):
    den = draw(st.integers(1, 3))
    u = [Fraction(-draw(st.integers(0, 3)), den) for _ in range(n)]
    v = [-a + Fraction(draw(st.integers(0, 4)), den) for a in u]
    return Weight.make(u, v)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_vertex_set_irredundant_and_covering(data):
    n = data.draw(st.sampled_from((1, 2)))
    coord = st.tuples(*[st.integers(-2, 3)] * (2 * n), st.integers(0, 1))
    points = data.draw(st.lists(coord, min_size=1, max_size=8))
    out = vertex_set(n, points)
    for p in out:
        assert not _conv_redundant(p, [q for q in out if q != p], n)
    for p in points:
        assert p in out or _conv_redundant(p, out, n)


def vertex_set_by_lp(n, points):
    """`vertex_set` with the LP run on every point that absorption keeps,
    one other point or not."""
    pts = list(dict.fromkeys(tuple(p) for p in points))
    keep = [p for p in pts
            if not any(q != p and in_wstar(n, tuple(a - b for a, b in zip(p, q)))
                       for q in pts)]
    out = list(keep)
    for p in keep:
        if _conv_redundant(p, [q for q in out if q != p], n):
            out.remove(p)
    return sorted(out)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_vertex_set_matches_lp_on_every_point(data):
    n = data.draw(st.sampled_from((1, 2)))
    coord = st.tuples(*[st.integers(-2, 3)] * (2 * n), st.integers(0, 1))
    size = data.draw(st.sampled_from((2, 2, 3, 3, 5, 8)))
    points = data.draw(st.lists(coord, min_size=size, max_size=size))
    assert vertex_set(n, points) == vertex_set_by_lp(n, points)


def test_vertex_set_runs_no_one_point_lp():
    """The LP against a single other point only repeats the absorption
    test, so `vertex_set` never asks for one; it still asks for the rest."""
    calls = []
    raw = newton_module.lp_feasible

    def counted(rows, nvars):
        calls.append(nvars)
        return raw(rows, nvars)

    pts = [(0, 4, 0, 0, 0), (4, 0, 0, 0, 0), (2, 2, 0, 0, 0), (0, 0, 0, 0, 1),
           (3, 1, 0, 1, 0), (1, 0, 2, 0, 0), (0, 2, 0, 1, 0)]
    with mock.patch.object(newton_module, "lp_feasible", counted):
        got = [vertex_set(2, pts[:k]) for k in range(1, len(pts) + 1)]
    assert got == [vertex_set_by_lp(2, pts[:k]) for k in range(1, len(pts) + 1)]
    assert calls and 1 not in calls


CRITERION_4_IDEALS = [
    (1, [qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})]),
    (1, [qop(1, {((1,), (1,), 0): 1})]),
    (2, [qop(2, {((1, 0), (1, 0), 0): 1, ((0, 1), (0, 1), 0): 1}),
         qop(2, {((0, 0), (1, 1), 0): 1, ((0, 0), (0, 0), 2): 1})]),
]


def _criterion_4_polyhedra():
    """(n, polyhedra): the Newton polyhedra of the criterion-4 generators
    and of their Minkowski sum."""
    for n, gens in CRITERION_4_IDEALS:
        polys = [newton(g) for g in gens]
        yield n, polys + [minkowski_sum_by_hull(polys)]


def test_face_of_matches_fraction_argmax():
    """The integer pairing picks the face of the Fraction pairing on the
    criterion-4 polyhedra over the whole (1, 2, 3)-denominator grid."""
    checked = 0
    for n, polys in _criterion_4_polyhedra():
        for w in grid_weights(n, denominators=(1, 2, 3)):
            for poly in polys:
                vals = [dot(w, v) for v in poly.vertices]
                top = max(vals)
                verts = tuple(v for v, x in zip(poly.vertices, vals) if x == top)
                assert face_of(poly, w) == verts
                checked += 1
    assert checked > 20000


def normal_cone_with_w_loop(poly, w):
    """`normal_cone` as it was while a second loop added the W activity at w
    after the rays of W* had added the same forms, each an equality where
    it is a ray of the w-face.  The generators and face rays are the
    literal ones above."""
    n = poly.n
    dim = 2 * n
    verts, frays = face_of(poly, w), face_rays(n, w)
    p0 = verts[0]
    eqs = [tuple(a - b for a, b in zip(p0[:dim], p)) for p in verts[1:]]
    strict = [tuple(a - b for a, b in zip(p0[:dim], q))
              for q in poly.vertices if q not in verts]
    for r in wstar_generators(n):
        if r in frays:
            eqs.append(r[:dim])
        else:
            strict.append(tuple(-c for c in r[:dim]))
    for i in range(n):
        f = [0] * dim
        f[i] = -1  # -u_i
        (eqs if w.u[i] == 0 else strict).append(tuple(f))
        g = [0] * dim
        g[i] = g[n + i] = 1  # u_i + v_i
        (eqs if w.u[i] + w.v[i] == 0 else strict).append(tuple(g))
    return RelOpenCone(dim, eqs, strict)


def _assert_same_forms(poly, w):
    got, ref = normal_cone([poly], w), normal_cone_with_w_loop(poly, w)
    assert (got.equalities, got.strict) == (ref.equalities, ref.strict)


def test_normal_cone_matches_w_loop_on_criterion_4_cells():
    """Every cell of the three criterion-4 fans, at its witness."""
    cells = 0
    for _, gens in CRITERION_4_IDEALS:
        for cell in enumerate_fan(gens, cap=8).cells:
            _assert_same_forms(
                minkowski_sum_by_hull([newton(g) for g in cell.basis]),
                cell.witness)
            cells += 1
    assert cells == 4 + 4 + 24


@st.composite
def _boundary_weight(draw, n):
    """An admissible weight each of whose coordinates lies inside W, on
    u_i = 0, on u_i + v_i = 0, or on both."""
    den = draw(st.integers(1, 3))
    u, v = [], []
    for _ in range(n):
        on_u, on_uv = draw(st.booleans()), draw(st.booleans())
        a = 0 if on_u else Fraction(-draw(st.integers(1, 3)), den)
        u.append(a)
        v.append(-a if on_uv else -a + Fraction(draw(st.integers(1, 4)), den))
    return Weight.make(u, v)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_normal_cone_matches_w_loop_on_the_boundary_of_w(data):
    n, polys = data.draw(_summands())
    _assert_same_forms(minkowski_sum_by_hull(polys),
                       data.draw(_boundary_weight(n)))


# The summand route of a fan cell (`face_of_sum`, `normal_cone` on the basis
# polyhedra) against the hull route: the face and the normal cone of the
# Minkowski sum built from its definition.

def assert_summand_route_matches_hull(polys, w):
    """Same face and the same cone as a set; with one summand, the same
    cone forms too."""
    total = minkowski_sum_by_hull(polys)
    got, ref = normal_cone(polys, w), normal_cone([total], w)
    assert face_of_sum(polys, w) == face_of(total, w)
    assert same_cone(got, ref)
    if len(polys) == 1:
        assert (got.equalities, got.strict) == (ref.equalities, ref.strict)


FACTORS = ("params: y\nvars: x1 x2\ncap: 3\n"
           "ideal: (y - 1)*x1*dx1 + x2*dx2; (y + 1)*dx1*dx2 + z^2\n")


def test_summand_route_matches_hull_on_fan_cells():
    """Every cell of the three criterion-4 fans and of the parametric
    `factors` fan, at its witness."""
    prob = parse_problem(FACTORS)
    fans = [enumerate_fan(gens, cap=8) for _, gens in CRITERION_4_IDEALS]
    fans.append(fan_of_ideal(prob.generators, prob.cap))
    sizes = []
    for fan in fans:
        for cell in fan.cells:
            assert_summand_route_matches_hull(
                [newton(g) for g in cell.basis], cell.witness)
        sizes.append((len(fan.cells), max(len(c.basis) for c in fan.cells)))
    assert sizes == [(4, 1), (4, 1), (24, 4), (24, 4)]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_summand_route_matches_hull_definition(data):
    n, polys = data.draw(_summands())
    assert_summand_route_matches_hull(polys, data.draw(_admissible_weight(n)))
    assert_summand_route_matches_hull(polys, data.draw(_boundary_weight(n)))

"""Fan enumeration, the z = 1 completion, and the independent grid oracle."""

import hashlib
import random
from collections import deque
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (admissible_by_fractions, check_fan_against_grid, op, qop,
                      random_ideal, same_cone, sample_points)
import dfan.fan as fan_module
from dfan.cones import RelOpenCone
from dfan.errors import NonConvergentTraversal
from dfan.fan import (cell_at, enumerate_fan, fan_of_ideal, grid_weights,
                      homogenized_generators, oracle_classify)
from dfan.operators import HOperator, exponent, homogenize
from dfan.orders import OrderSpec, Weight
from dfan.parametric import constant_fan_certificate, specialize_ideal
from dfan.params import ParamField, ParamIdeal, poly_str
from dfan.parsing import parse_problem
from dfan.standard import standard_basis


def test_dn_standard_basis_euler_pair():
    """x1 dx1 and dx1^2 generate dx1 in the z = 1 quotient (the one
    `standard_basis` run with the z = 1 product):
    dx1 (x1 dx1) - x1 dx1^2 = dx1."""
    order = OrderSpec(1)
    a = qop(1, {((1,), (1,), 0): 1})
    b = qop(1, {((0,), (2,), 0): 1})
    basis = standard_basis([a, b], order, cap=8, z_one=True).basis
    assert [str(g) for g in basis] == ["dx1"]


def test_homogenized_generators_insert_z():
    a = qop(1, {((1,), (1,), 0): 1})
    b = qop(1, {((0,), (2,), 0): 1})
    gens, factors = homogenized_generators([a, b], cap=8)
    assert len(gens) == 1 and gens[0] == qop(1, {((0,), (1,), 0): 1})
    assert factors == ()
    # a generator with mixed levels picks up z on the lower part
    c = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 0): 1})
    gens2, _ = homogenized_generators([c], cap=8)
    assert gens2 == [qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})]
    # input involving z is taken as given, with no factors
    with_z = [b, qop(1, {((1,), (0,), 1): 1})]
    assert homogenized_generators(with_z, cap=8) == (with_z, ())


def test_cell_at_airy():
    g = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})
    w = Weight.make((-1,), (2,))
    cell = cell_at([g], w, cap=8)
    assert cell.staircase == [exponent(1, beta=[2])]
    assert cell.contains(Weight.make((-2,), (4,)))
    assert not cell.contains(Weight.make((0,), (1,)))
    assert cell.dim() == 2


def test_cell_at_takes_q_from_the_coefficient_field(F1):
    """Over Frac(C/Q) the cell holds the generic basis and its multiplier,
    and terms with coefficients in Q are gone; over QQ there is no h."""
    y = F1.ring.gens[0]
    g = HOperator(1, F1, {exponent(1, beta=[2]): F1.from_poly(y),
                          exponent(1, alpha=[1], k=2): -F1.one,
                          exponent(1, alpha=[2], k=2): F1.from_poly(y * y - 2)})
    FQ = ParamField(1, ParamIdeal(1, [y * y - 2]))
    w = Weight.make((-1,), (2,))
    cell = cell_at([g.to_field(FQ)], w, cap=8)
    assert [str(b) for b in cell.basis] == ["dx1^2 - 1/y1*x1*z^2"]
    assert cell.h == y and cell.h_factors == (y,)
    assert cell_at([g.specialize((Fraction(1),))], w, cap=8).h is None


def test_airy_fan_structure():
    g = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})
    fan = enumerate_fan([g], cap=8)
    dims = sorted(c.dim() for c in fan.cells)
    assert dims == [0, 1, 1, 2]
    stairs = {tuple(c.staircase) for c in fan.cells if not c.cone.equalities}
    assert stairs == {(exponent(1, beta=[2]),)}
    assert check_fan_against_grid(fan, [g], grid_weights(1), 8) == []


def test_max_cells_bounds_the_cells_not_the_queue():
    g = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})
    K = len(enumerate_fan([g], cap=8).cells)
    assert K == 4
    assert len(enumerate_fan([g], cap=8, max_cells=K).cells) == K
    with pytest.raises(NonConvergentTraversal):
        enumerate_fan([g], cap=8, max_cells=K - 1)


def test_euler_fan_structure():
    g = qop(1, {((1,), (1,), 0): 1})
    fan = enumerate_fan([g], cap=8)
    assert sorted(c.dim() for c in fan.cells) == [0, 1, 1, 2]
    assert check_fan_against_grid(fan, [g], grid_weights(1), 8) == []


def test_fan_of_plain_operators_homogenizes_first():
    # x1 dx1 + 1 is inhomogeneous; fan_of_ideal completes and homogenizes
    g = qop(1, {((1,), (1,), 0): 1, ((0,), (0,), 0): 1})
    fan = fan_of_ideal([g], cap=8)
    assert fan.cells and all(c.basis for c in fan.cells)
    for w in grid_weights(1, denominators=(1, 2), span=2):
        assert any(c.contains(w) for c in fan.cells)


def test_every_admissible_grid_weight_is_covered_once():
    g = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1, ((2,), (1,), 1): 1})
    fan = enumerate_fan([g], cap=8)
    for w in grid_weights(1):
        assert sum(1 for c in fan.cells if c.contains(w)) == 1


def test_oracle_matches_cells_pointwise(monkeypatch):
    g = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})
    fan = enumerate_fan([g], cap=8)
    # the oracle must get its faces without the traversal's face route
    def forbidden(polys, w):
        raise AssertionError("oracle used the traversal's face_of_sum")
    monkeypatch.setattr(fan_module, "face_of_sum", forbidden)
    for c in fan.cells:
        stair, face, act = oracle_classify([g], c.witness, 8)
        assert tuple(c.staircase) == stair and c.face_vertices == face


AIRY = [qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})]
EULER = [qop(1, {((1,), (1,), 0): 1})]
TWO_VARIABLE = [qop(2, {((1, 0), (1, 0), 0): 1, ((0, 1), (0, 1), 0): 1}),
                qop(2, {((0, 0), (1, 1), 0): 1, ((0, 0), (0, 0), 2): 1})]


@pytest.mark.parametrize("gens", [AIRY, EULER, TWO_VARIABLE],
                         ids=["airy", "euler", "two_variable"])
def test_each_cell_is_the_only_one_holding_its_witness(gens):
    """The traversal builds a cell only at a weight no stored cell holds,
    and the cell keeps that weight as its witness, which its cone holds, so
    no two cells can be the same cone."""
    fan = enumerate_fan(gens, cap=8)
    for cell in fan.cells:
        assert cell.cone.contains(cell.witness.ivec)
        holders = [c for c in fan.cells if c.contains(cell.witness)]
        assert len(holders) == 1 and holders[0] is cell


def recorded_pops(monkeypatch):
    """The weights `enumerate_fan` pops from its queue, in order, as a list
    it fills."""
    popped = []

    class Queue(deque):
        def popleft(self):
            popped.append(super().popleft())
            return popped[-1]

    monkeypatch.setattr(fan_module, "deque", Queue)
    return popped


@pytest.mark.parametrize("gens, pops, digest, tested, built", [
    (AIRY, 9, "d221ba7cbf2151d3993cc8e46a78a8c00464daea7b47dd4caf2cd806bce5219a",
     2, 4),
    (EULER, 8, "d5d4fed0eaeba16d6386fc094ecb235dff5733f3b2b6907178dd785dd586bfd1",
     2, 4),
    (TWO_VARIABLE, 87,
     "79b30c39dda2ffd4504b65d63743f646522de18f4391313326a8489792a36292", 61, 24),
], ids=["airy", "euler", "two_variable"])
def test_traversal_tries_the_same_weights(gens, pops, digest, tested, built,
                                          monkeypatch):
    """Pinned traversal work: the weights popped from the queue (their
    number and the sha256 of their strings, one a line), the membership
    tests of popped weights against stored cells, and the cells built.
    Facet crossings step from eps = 1 and ascents from eps = 1/2, each by
    the largest eps = 2^-k up to its start that stays in W (`_step_off`);
    another start queues other weights and changes the sequence.  A weight
    popped before is skipped untested, and any other is tested only against
    the cells of its own activity stratum: on the two-variable fan that is
    61 tests, where a test against every stored cell made 828."""
    popped = recorded_pops(monkeypatch)
    calls = []
    contains = fan_module.FanCell.contains
    monkeypatch.setattr(fan_module.FanCell, "contains",
                        lambda cell, w: calls.append(w) or contains(cell, w))
    fan = enumerate_fan(gens, cap=8)
    text = "\n".join(map(str, popped))
    assert (len(popped), hashlib.sha256(text.encode()).hexdigest()) == (pops, digest)
    assert (len(calls), len(fan.cells)) == (tested, built)


def assert_cells_match_fresh(fan, gens, cap):
    """Every traversal cell equals the cell a bare `cell_at`, which
    completes from scratch, builds at its witness: the basis in its order,
    the staircase, the face and the cone.  Its h factors and taint are
    those of the completion that found its basis: on graded gens the fresh
    cell's at the first witness with that basis and staircase, otherwise
    the fresh cell's at its own witness."""
    graded = fan_module._graded(gens)
    found = {}
    for cell in fan.cells:
        ref = cell_at(gens, cell.witness, cap)
        where = str(cell.witness)
        assert cell.basis == ref.basis, where
        assert cell.staircase == ref.staircase, where
        assert cell.face_vertices == ref.face_vertices, where
        assert (cell.cone.equalities, cell.cone.strict, cell.witness) == (
            ref.cone.equalities, ref.cone.strict, ref.witness), where
        key = (frozenset(map(str, cell.basis)), tuple(cell.staircase))
        first = found.setdefault(key, ref) if graded else ref
        assert (cell.h_factors, cell.tainted) == (
            first.h_factors, first.tainted), where


def counted_completions(monkeypatch):
    """The weights `fan._basis_at` completes at, as a list it fills."""
    weights = []
    basis_at = fan_module._basis_at
    monkeypatch.setattr(fan_module, "_basis_at", lambda gens, w, cap:
                        weights.append(w) or basis_at(gens, w, cap))
    return weights


@pytest.mark.parametrize("gens, distinct", [(AIRY, 1), (EULER, 1),
                                             (TWO_VARIABLE, 2)],
                         ids=["airy", "euler", "two_variable"])
def test_traversal_sums_each_basis_once(gens, distinct, monkeypatch):
    """On these graded generators one traversal completes once per
    distinct reduced basis and builds each cell through the module's
    `cell_at`; every other cell reuses a basis that keeps its leading
    exponents at the cell's witness.  Every cell equals the one a bare
    `cell_at` builds at its witness, which completes afresh."""
    built = []
    raw_cell_at = fan_module.cell_at
    monkeypatch.setattr(fan_module, "cell_at",
                        lambda *args: built.append(args) or raw_cell_at(*args))
    weights = counted_completions(monkeypatch)
    fan = enumerate_fan(gens, cap=8)
    assert len(weights) == distinct
    assert len(built) == len(fan.cells) > distinct
    del weights[:]
    assert_cells_match_fresh(fan, gens, 8)
    assert len(weights) == len(fan.cells)


# parametric problems in the style of the bench templates
SERIES_Q0 = ("params: y\nvars: x1 x2\norder: antigraded_lex x2 > x1\ncap: 5\n"
             "ideal: 2*y*x2 - x1*x2 + x1\n")
SERIES_I = ("params: y\nvars: x1 x2\ncap: 3\nqideal: y^2 + 1\n"
            "ideal: 3*y*x2 - x1*x2 - x1\n")
AIRY_Q0 = "params: y\nvars: x1\ncap: 8\nideal: dx1^2 - 2*y*x1*z^2\n"
AIRY_CUBIC = ("params: y\nvars: x1\ncap: 6\nqideal: y^3 - y - 1\n"
              "ideal: dx1^2 - y*x1*z^2 + 2*y^2*z^2\n")
AIRY_SQRT2 = ("params: y\nvars: x1\ncap: 6\nqideal: y^2 - 2\n"
              "ideal: dx1^2 - 3*y*x1*z^2 - x1*z\n")
AIRY_AB = ("params: a b\nvars: x1\ncap: 6\n"
           "ideal: a*dx1^2 - 2*b*x1*z^2 + x1*z\n")


def certificate_of(text):
    prob = parse_problem(text)
    return constant_fan_certificate(prob.generators, prob.q_ideal, prob.cap)


@pytest.mark.parametrize("text", [SERIES_Q0, SERIES_I, AIRY_Q0, AIRY_CUBIC,
                                  AIRY_SQRT2, AIRY_AB],
                         ids=["series_q0", "series_i", "airy_q0", "airy_cubic",
                              "airy_sqrt2", "airy_ab"])
def test_parametric_traversal_cells_match_fresh(text):
    cert = certificate_of(text)
    assert_cells_match_fresh(cert.fan, cert.hom_gens, cert.fan.cap)


AIRY_I = ("params: y\nvars: x1\ncap: 6\nqideal: y^2 + 1\n"
          "ideal: dx1^2 + (2*y - 1)*x1*z^2\n")
EULER_Q0 = "params: y\nvars: x1\ncap: 6\nideal: x1*dx1 - 3*y*x1 - 1\n"

# the criterion-4 fans and the certificate fans of the bench templates
FANS = {"airy": lambda: enumerate_fan(AIRY, cap=8),
        "euler": lambda: enumerate_fan(EULER, cap=8),
        "two_variable": lambda: enumerate_fan(TWO_VARIABLE, cap=8)}
FANS.update((name, lambda text=text: certificate_of(text).fan) for name, text in [
    ("series_q0", SERIES_Q0), ("series_i", SERIES_I), ("airy_q0", AIRY_Q0),
    ("airy_cubic", AIRY_CUBIC), ("airy_sqrt2", AIRY_SQRT2), ("airy_ab", AIRY_AB),
    ("airy_i", AIRY_I), ("euler_q0", EULER_Q0)])


@pytest.mark.parametrize("name", list(FANS))
def test_stratum_lookup_finds_the_cell_a_full_scan_finds(name, monkeypatch):
    """Every weight the traversal queues lies in at most one cell, and the
    cells of its own activity stratum find it exactly when all cells do:
    the traversal's index by activity skips no cell that holds it."""
    popped = recorded_pops(monkeypatch)
    fan = FANS[name]()
    strata = {}
    for cell in fan.cells:
        strata.setdefault(cell.witness.activity(), []).append(cell)
    assert len(set(popped)) > len(fan.cells) and len(strata) > 1
    for w in popped:
        full = [c for c in fan.cells if c.contains(w)]
        assert len(full) <= 1, str(w)
        assert full == [c for c in strata.get(w.activity(), ()) if c.contains(w)]


@pytest.mark.parametrize("name", list(FANS))
def test_w_forms_are_equalities_exactly_where_the_witness_is_active(name):
    """Each cell cone holds all 2n W forms, -u_i and u_i + v_i: as an
    equality where the constraint is active at the witness, as a strict
    form elsewhere.  So every point of a cell has the witness's activity,
    which makes the traversal's stratum index exact."""
    fan = FANS[name]()
    n = fan.n

    def unit(*slots):
        return tuple(int(j in slots) for j in range(2 * n))

    for cell in fan.cells:
        u_zero, uv_zero = cell.witness.activity()
        eqs, strict = set(cell.cone.equalities), set(cell.cone.strict)
        for i in range(n):
            u, uv = unit(i), unit(i, n + i)
            minus_u = tuple(-c for c in u)
            assert (u in eqs, minus_u in strict) == (i in u_zero, i not in u_zero)
            assert (uv in eqs, uv in strict) == (i in uv_zero, i not in uv_zero)


def weight_at(point):
    """The weight with the rational coordinates point = (u, v)."""
    n = len(point) // 2
    return Weight.make(point[:n], point[n:])


def holds_by_fractions(cone, pt):
    """Cone membership stated on a Fraction point."""
    return (all(sum(a * x for a, x in zip(f, pt)) == 0 for f in cone.equalities)
            and all(sum(a * x for a, x in zip(f, pt)) > 0 for f in cone.strict))


def step_off_by_fractions(pt, d, cone, eps, tries):
    """The step off a cell by halving, on Fraction points: the first
    admissible pt + eps*d outside cone, eps halved up to tries times, or
    None.  The oracle of the closed-form `fan._step_off`."""
    for _ in range(tries):
        cand = tuple(p + eps * di for p, di in zip(pt, d))
        w = weight_at(cand)
        if admissible_by_fractions(w) and not holds_by_fractions(cone, cand):
            return w
        eps /= 2
    return None


@pytest.mark.parametrize("name", list(FANS))
def test_integer_step_off_matches_the_fraction_oracle(name, monkeypatch):
    """Each step of the traversal goes from a closure-facet point pt along
    pt - witness from eps = 1, or from the witness along an equality form
    or its negative from eps = 1/2, and returns the weight the Fraction
    halving loop with its cone test returns within 200 halvings: integers
    over the least positive denominator, in W and outside the cell it
    steps off."""
    step_off = fan_module._step_off
    raw_cell_at = fan_module.cell_at
    cells = []  # the cells built so far; the traversal steps off the last
    facets = {}
    results = []

    def recorded_cell_at(*args):
        cells.append(raw_cell_at(*args))
        return cells[-1]

    def checked(p, d, den, first):
        got = step_off(p, d, den, first)
        cone, witness = cells[-1].cone, cells[-1].witness.as_tuple()
        pt = tuple(Fraction(a, den) for a in p)
        dd = tuple(Fraction(a, den) for a in d)
        if first == 0:
            if id(cone) not in facets:
                facets[id(cone)] = [tuple(Fraction(a, q_den) for a in q)
                                    for _, (q, q_den) in cone.closure_facets()]
            assert pt in facets[id(cone)]
            assert dd == tuple(a - b for a, b in zip(pt, witness))
        else:
            assert first == 1 and pt == witness
            assert dd in cone.equalities or tuple(-c for c in dd) in cone.equalities
        assert got == step_off_by_fractions(pt, dd, cone, Fraction(1, 2 ** first),
                                            200)
        if got is not None:
            assert all(type(c) is int for c in (*got.ivec, got.den))
            assert got.den > 0 and gcd(got.den, *got.ivec) == 1
            assert got.is_admissible() and not cone.contains(got.ivec)
        results.append(got)
        return got

    monkeypatch.setattr(fan_module, "cell_at", recorded_cell_at)
    monkeypatch.setattr(fan_module, "_step_off", checked)
    FANS[name]()
    assert any(results)


# graded but not z-free, so taken as given
TWO_ORDERS = ("params: a b\nvars: x1 x2\n"
              "ideal: z*dx1 + a*z*dx2; z*dx1 + b*z*dx2\n")


def test_reused_cells_carry_the_multiplier_that_found_their_basis():
    """All 16 cells share the reduced basis {z*dx1, z*dx2}.  Completed
    under dx1 > dx2, as at the first witness, it divides by a - b only;
    under dx2 > dx1 by a and b as well.  Every cell carries the first h,
    and that h certifies the whole fan: off V(a - b), a*b = 0 included,
    the fan of the specialized ideal is the generic one."""
    prob = parse_problem(TWO_ORDERS)
    cert = constant_fan_certificate(prob.generators, prob.q_ideal, prob.cap)
    cells = cert.fan.cells
    assert fan_module._graded(cert.hom_gens) and len(cells) == 16
    fresh = {cell_at(cert.hom_gens, c.witness, prob.cap).h_factors
             for c in cells}
    assert {c.h_factors for c in cells} == {cert.h_factors} < fresh
    assert len(fresh) == 2 and poly_str(cert.h) == "a - b"
    assert_cells_match_fresh(cert.fan, cert.hom_gens, prob.cap)
    points = sample_points(2, avoid=cert.h, num=6)
    assert any(a * b == 0 for a, b in points)
    for y0 in points:
        spec = fan_of_ideal(specialize_ideal(prob.generators, y0), prob.cap)
        assert len(spec.cells) == len(cells)
        for c in cells:
            match = [d for d in spec.cells if same_cone(d.cone, c.cone)]
            assert len(match) == 1, y0
            assert [b.specialize(y0) for b in c.basis] == match[0].basis, y0


def test_certificate_completes_each_graded_basis_once(monkeypatch):
    """The 24-cell series certificate meets two reduced bases (one the
    other scaled by 2y, so they share their polyhedra) and completes each
    once; the non-graded airy_sqrt2 generator completes at every cell."""
    weights = counted_completions(monkeypatch)
    cert = certificate_of(SERIES_Q0)
    assert len(cert.fan.cells) == 24 and len(weights) <= 2
    del weights[:]
    cert = certificate_of(AIRY_SQRT2)
    assert not fan_module._graded(cert.hom_gens)
    assert len(weights) == len(cert.fan.cells) == 4


def test_reused_basis_is_sorted_by_the_witness_order():
    """A kept basis is listed in the order of the new witness, as
    `reduce_basis` lists a fresh one; on this ideal the order of the
    elements changes between cells that share the basis."""
    gens = [op("-1/2*dx1 + 3*x2*dx2", ["x1", "x2"]),
            op("-3/2*dx2 - x2*dx1*dx2", ["x1", "x2"])]
    hom = homogenized_generators(gens, 4)[0]
    fan = enumerate_fan(hom, 4)
    orders = {tuple(map(str, c.basis)) for c in fan.cells}
    assert len(orders) > len({frozenset(o) for o in orders})
    assert_cells_match_fresh(fan, hom, 4)


def test_non_graded_generators_complete_at_every_witness(monkeypatch):
    """With terms at two levels a kept basis can keep its leading exponents
    at w and still differ from the basis at w: here at u = (-1, 0),
    v = (2, 0), where the fresh basis is tainted."""
    gens = [op("-5/2*x2 - 5/3*x1*dx1*dx2*z", ["x1", "x2"]),
            op("-1/2*x2*dx1*z + 5/2*x1*dx1*dx2", ["x1", "x2"])]
    assert not fan_module._graded(gens)
    weights = counted_completions(monkeypatch)
    fan = enumerate_fan(gens, 4)
    completions = len(weights)
    assert_cells_match_fresh(fan, gens, 4)
    assert completions == len(fan.cells)
    w = Weight.make((-1, 0), (2, 0))
    assert any(c.witness == w and c.tainted for c in fan.cells)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=2), st.booleans())
def test_traversal_cells_match_fresh_on_random_graded_ideals(seed, n, whole):
    """Criterion-3-style z-free ideals at cap 4, made graded either through
    the z = 1 completion (`homogenized_generators`) or elementwise."""
    gens = random_ideal(random.Random(seed), n, maxk=0)
    assume(gens)
    hom = (homogenized_generators(gens, 4)[0] if whole
           else [homogenize(g) for g in gens])
    assert fan_module._graded(hom)
    assert_cells_match_fresh(enumerate_fan(hom, 4), hom, 4)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=2))
def test_traversal_cells_match_fresh_on_random_non_graded_ideals(seed, n):
    gens = random_ideal(random.Random(seed), n)
    assume(gens and not fan_module._graded(gens)
           and not all(g.z_free() for g in gens))
    assert_cells_match_fresh(enumerate_fan(gens, 4), gens, 4)


@pytest.mark.parametrize("gens", [AIRY, EULER, TWO_VARIABLE],
                         ids=["airy", "euler", "two_variable"])
def test_every_closure_facet_point_is_admissible(gens):
    """The traversal queues each closure-facet point unchecked: every cell
    cone carries all 2n W forms, so its closure lies in W."""
    fan = enumerate_fan(gens, cap=8)
    points = [pt for c in fan.cells for _, pt in c.cone.closure_facets()]
    assert points
    assert all(Weight.over(*pt).is_admissible() for pt in points)


def test_grid_weights_admissible_and_exhaustive():
    ws = grid_weights(2, denominators=(1,), span=2)
    assert all(w.is_admissible() for w in ws)
    activities = {w.activity() for w in ws}
    # all four per-coordinate activity patterns occur in the grid
    assert (frozenset(), frozenset()) in activities
    assert (frozenset({0, 1}), frozenset({0, 1})) in activities


@st.composite
def steps_off(draw):
    """(p, d, den, first) for `fan._step_off`: p / den in W, often on its
    boundary, and d with entries up to 7 * 2^90, so that -g(d) / g(p)
    ranges up to about 2^90 over the forms g of W."""
    n = draw(st.integers(min_value=1, max_value=2))
    u = [-draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    v = [draw(st.integers(min_value=0, max_value=3)) - a for a in u]
    d = [draw(st.integers(min_value=-7, max_value=7))
         << draw(st.integers(min_value=0, max_value=90)) for _ in range(2 * n)]
    return (tuple(u + v), tuple(d), draw(st.integers(min_value=1, max_value=6)),
            draw(st.integers(min_value=0, max_value=1)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(steps_off())
@example(((-1, 1), (2 ** 90 + 1, 0), 1, 0))  # k = 91
@example(((0, 1), (1, 0), 1, 0))             # leaves W at u = 0
def test_step_off_matches_the_fraction_oracle_on_random_steps(step):
    """The closed-form step equals the Fraction halving loop with a
    200-halving budget, on steps that need up to about 94 halvings, and it
    is None exactly where that loop finds no admissible step.  The
    traversal's steps never lie in the cell they leave, so the loop here
    tests against a cone holding no point."""
    p, d, den, first = step
    nowhere = RelOpenCone(len(p), [], [(0,) * len(p)])
    got = fan_module._step_off(p, d, den, first)
    want = step_off_by_fractions(tuple(Fraction(a, den) for a in p),
                                 tuple(Fraction(a, den) for a in d), nowhere,
                                 Fraction(1, 2 ** first), 200)
    assert got == want


coords = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(-1, 3), Fraction(0),
                          Fraction(1, 2), Fraction(1), Fraction(3)])


def on_one_denominator(pt, d):
    """(p, d, den): the Fraction vectors pt and d as integer vectors over
    their least common denominator den."""
    den = 1
    for x in (*pt, *d):
        den = den * x.denominator // gcd(den, x.denominator)
    return ([int(x * den) for x in pt], [int(x * den) for x in d], den)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=2).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(coords, min_size=2 * n, max_size=2 * n),
                        st.lists(coords, min_size=2 * n, max_size=2 * n))))
def test_leaves_w_is_exact(args):
    """When `_step_off` finds that d leaves W no halved step pt + 2^-k d
    (k < 60) is admissible; when it finds a step from an admissible pt, that
    step is admissible and so is a small one."""
    n, pt, d = args
    steps = [weight_at([p + Fraction(1, 2 ** k) * di for p, di in zip(pt, d)])
             for k in range(60)]
    got = fan_module._step_off(*on_one_denominator(pt, d), 0)
    if got is None:
        assert not any(w.is_admissible() for w in steps)
    elif weight_at(pt).is_admissible():
        assert got.is_admissible() and got in steps
        assert steps[-1].is_admissible()


def _fan_doc(fan):
    return [[c.cone.to_doc(), str(c.witness), [str(e) for e in c.staircase],
             [list(v) for v in c.face_vertices]] for c in fan.cells]


@pytest.mark.parametrize("gens", [
    [qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})],
    [qop(2, {((1, 0), (1, 0), 0): 1, ((0, 1), (0, 1), 0): 1}),
     qop(2, {((0, 0), (1, 1), 0): 1, ((0, 0), (0, 0), 2): 1})],
])
def test_w_boundary_exit_keeps_the_fan(gens, monkeypatch):
    """The traversal's steps that leave W exactly, found in closed form by
    `_step_off`, give the fan that a plain halving loop with no W exit
    test, which gives up after 200 halvings, gives."""
    fired = []
    step_off = fan_module._step_off

    def recording(*args):
        fired.append(step_off(*args) is None)
        return step_off(*args)

    def halving(p, d, den, first):
        nowhere = RelOpenCone(len(p), [], [(0,) * len(p)])
        return step_off_by_fractions(tuple(Fraction(a, den) for a in p),
                                     tuple(Fraction(a, den) for a in d), nowhere,
                                     Fraction(1, 2 ** first), 200)

    monkeypatch.setattr(fan_module, "_step_off", recording)
    with_exit = _fan_doc(enumerate_fan(gens, cap=8))
    assert any(fired)
    monkeypatch.setattr(fan_module, "_step_off", halving)
    assert _fan_doc(enumerate_fan(gens, cap=8)) == with_exit

"""Fan enumeration, the z = 1 completion, and the independent grid oracle."""

import json
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import qop
import dfan.fan as fan_module
from dfan.errors import NonConvergentTraversal
from dfan.fan import (cell_at, check_fan_against_grid, enumerate_fan,
                      fan_of_ideal, grid_weights, homogenized_generators,
                      oracle_classify, t_order)
from dfan.operators import HOperator, exponent, term_product
from dfan.orders import Weight
from dfan.params import ParamField, ParamIdeal
from dfan.standard import standard_basis


def test_dn_standard_basis_euler_pair():
    """x1 dx1 and dx1^2 generate dx1 in the z = 1 quotient (the one
    `standard_basis` run with the z = 1 product):
    dx1 (x1 dx1) - x1 dx1^2 = dx1."""
    order = t_order(1)
    a = qop(1, {((1,), (1,), 0): 1})
    b = qop(1, {((0,), (2,), 0): 1})
    basis = standard_basis([a, b], order, cap=8,
                           mul=partial(term_product, z_one=True)).basis
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
    FQ = ParamField(1, ParamIdeal(1, [y * y - 2], claimed_prime=True))
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
    # the oracle must get its faces without the traversal's Minkowski sum
    def forbidden(polys):
        raise AssertionError("oracle used the traversal's minkowski_sum")
    monkeypatch.setattr(fan_module, "minkowski_sum", forbidden)
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
    and the cell's cone keeps that weight as its witness, so no two cells
    can be the same cone."""
    fan = enumerate_fan(gens, cap=8)
    for cell in fan.cells:
        assert cell.cone.witness == cell.witness.as_tuple()
        holders = [c for c in fan.cells if c.contains(cell.witness)]
        assert len(holders) == 1 and holders[0] is cell


@pytest.mark.parametrize("gens, tried, built", [(AIRY, 14, 4), (EULER, 13, 4),
                                                (TWO_VARIABLE, 828, 24)],
                         ids=["airy", "euler", "two_variable"])
def test_traversal_tries_the_same_weights(gens, tried, built, monkeypatch):
    """Pinned traversal work: the membership tests of queued weights against
    stored cells, and the cells built.  Facet crossings step from eps = 1
    with 60 halvings and ascents from eps = 1/2 with 40; another start or
    budget queues other weights and changes these counts."""
    calls = []
    contains = fan_module.FanCell.contains
    monkeypatch.setattr(fan_module.FanCell, "contains",
                        lambda cell, w: calls.append(w) or contains(cell, w))
    fan = enumerate_fan(gens, cap=8)
    assert (len(calls), len(fan.cells)) == (tried, built)


@pytest.mark.parametrize("gens, distinct", [(AIRY, 1), (EULER, 1),
                                             (TWO_VARIABLE, 2)],
                         ids=["airy", "euler", "two_variable"])
def test_traversal_sums_each_basis_once(gens, distinct, monkeypatch):
    """One traversal runs `minkowski_sum` once per distinct tuple of basis
    polyhedra and builds each cell through the module's `cell_at`; every
    cell equals the one a bare `cell_at` builds at its witness, which sums
    afresh."""
    sums, built = [], []
    minkowski_sum, raw_cell_at = fan_module.minkowski_sum, fan_module.cell_at
    monkeypatch.setattr(fan_module, "minkowski_sum",
                        lambda polys: sums.append(polys) or minkowski_sum(polys))
    monkeypatch.setattr(fan_module, "cell_at",
                        lambda *args: built.append(args) or raw_cell_at(*args))
    fan = enumerate_fan(gens, cap=8)
    assert len(sums) == len(set(sums)) == distinct
    assert len(built) == len(fan.cells)
    del sums[:]
    for cell in fan.cells:
        ref = cell_at(gens, cell.witness, 8)
        assert (cell.cone.equalities, cell.cone.strict, cell.cone.witness) == (
            ref.cone.equalities, ref.cone.strict, ref.cone.witness)
        assert cell.face_vertices == ref.face_vertices
        assert cell.staircase == ref.staircase
    assert len(sums) == len(fan.cells)


@pytest.mark.parametrize("gens", [AIRY, EULER, TWO_VARIABLE],
                         ids=["airy", "euler", "two_variable"])
def test_every_closure_facet_point_is_admissible(gens):
    """The traversal queues each closure-facet point unchecked: every cell
    cone carries all 2n W forms, so its closure lies in W."""
    fan = enumerate_fan(gens, cap=8)
    points = [pt for c in fan.cells for _, pt in c.cone.closure_facets()]
    assert points
    assert all(fan_module._as_weight(fan.n, pt).is_admissible() for pt in points)


def test_grid_weights_admissible_and_exhaustive():
    ws = grid_weights(2, denominators=(1,), span=2)
    assert all(w.is_admissible() for w in ws)
    activities = {w.activity() for w in ws}
    # all four per-coordinate activity patterns occur in the grid
    assert (frozenset(), frozenset()) in activities
    assert (frozenset({0, 1}), frozenset({0, 1})) in activities


coords = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(-1, 3), Fraction(0),
                          Fraction(1, 2), Fraction(1), Fraction(3)])


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=2).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(coords, min_size=2 * n, max_size=2 * n),
                        st.lists(coords, min_size=2 * n, max_size=2 * n))))
def test_leaves_w_is_exact(args):
    """When the predicate fires no halved step pt + 2^-k d (k < 60) is
    admissible; when it does not fire at an admissible pt, a small one is."""
    n, pt, d = args
    steps = [fan_module._as_weight(n, [p + Fraction(1, 2 ** k) * di
                                       for p, di in zip(pt, d)])
             for k in range(60)]
    if fan_module._leaves_w(n, pt, d):
        assert not any(w.is_admissible() for w in steps)
    elif fan_module._as_weight(n, pt).is_admissible():
        assert steps[-1].is_admissible()


def _fan_doc(fan):
    return json.dumps([[c.cone.to_doc(), str(c.witness), [str(e) for e in c.staircase],
                        [list(v) for v in c.face_vertices]] for c in fan.cells])


@pytest.mark.parametrize("gens", [
    [qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})],
    [qop(2, {((1, 0), (1, 0), 0): 1, ((0, 1), (0, 1), 0): 1}),
     qop(2, {((0, 0), (1, 1), 0): 1, ((0, 0), (0, 0), 2): 1})],
])
def test_w_boundary_exit_keeps_the_fan(gens, monkeypatch):
    """Skipping steps that leave W changes no cell of the enumerated fan."""
    fired = []
    leaves_w = fan_module._leaves_w

    def recording(*args):
        fired.append(leaves_w(*args))
        return fired[-1]

    monkeypatch.setattr(fan_module, "_leaves_w", recording)
    with_exit = _fan_doc(enumerate_fan(gens, cap=8))
    assert any(fired)
    monkeypatch.setattr(fan_module, "_leaves_w", lambda *a: False)
    assert _fan_doc(enumerate_fan(gens, cap=8)) == with_exit

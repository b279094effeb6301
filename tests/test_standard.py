"""Standard bases: completion, reduction, cap certification, generic (G, h)."""

import random
from fractions import Fraction
from functools import cache, cmp_to_key, partial

from conftest import compare_by_rules, join, qop, random_ideal, uniqueness_check
import dfan.params as params_module
import dfan.standard as st
from dfan.division import divide
from dfan.operators import HOperator, exponent
from dfan.orders import OrderSpec, leading_data
from dfan.params import ParamField, ParamIdeal, ParamPoly
from dfan.standard import (certified_standard_basis, completion,
                           reduce_basis, spair, standard_basis)


def test_spair_cancels_leading_terms():
    order = OrderSpec(1)
    a = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})   # dx^2 + x z^2
    b = qop(1, {((1,), (1,), 0): 1, ((0,), (0,), 1): 2})   # x dx + 2z
    s = spair(a.truncated(8), b.truncated(8), order)
    ea = leading_data(a, order)[0]
    eb = leading_data(b, order)[0]
    join = exponent(1, alpha=[1], beta=[2])
    assert ea != eb and join not in s.terms


def test_principal_ideal_basis_is_generator():
    order = OrderSpec(1)
    g = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})
    sb = standard_basis([g], order, cap=8)
    assert len(sb.basis) == 1
    assert sb.basis[0] == g.truncated(8)
    assert not sb.tainted


def test_completion_adds_new_leader():
    """x1 dx1 + z and dx1^2 generate dx1 z (a genuinely new leading exponent)."""
    order = OrderSpec(1)
    a = qop(1, {((1,), (1,), 0): 1, ((0,), (0,), 1): 1})
    b = qop(1, {((0,), (2,), 0): 1})
    sb = standard_basis([a, b], order, cap=8)
    stair = sb.staircase
    assert exponent(1, beta=[1], k=1) in stair or exponent(1, beta=[1]) in stair
    # the basis closes every S-pair: dividing any S-pair gives remainder 0
    from dfan.division import divide
    for i in range(len(sb.basis)):
        for j in range(i + 1, len(sb.basis)):
            s = spair(sb.basis[i], sb.basis[j], order)
            if s.is_zero():
                continue
            res = divide(s, sb.basis, order)
            assert res.remainder.is_zero()


def test_reduced_basis_is_monic_minimal_autoreduced():
    order = OrderSpec(1)
    a = qop(1, {((1,), (1,), 0): 2, ((0,), (0,), 1): 2})
    b = qop(1, {((0,), (2,), 0): 3})
    sb = standard_basis([a, b], order, cap=8)
    stair = sb.staircase
    for g in sb.basis:
        e, lc = leading_data(g, order)
        assert lc == g.field.one
        # no lower term of g is divisible by another leader
        for t in g.terms:
            if t == e:
                continue
            assert not any(t.dominates(s) for s in stair if s != e)
    # minimality: no leader divides another
    for i, s in enumerate(stair):
        for j, t in enumerate(stair):
            assert i == j or not t.dominates(s)


def test_a_leader_above_another_elements_cap_is_kept():
    """With generators cut at caps 4 and 2, the tail of the first reduces
    to a remainder at cap 2, below its leading monomial (x-degree 4).  The
    reduced element keeps its own cap and its leader, and is tainted since
    the tail was cut; it used to lose the leader, and here became zero."""
    g = qop(2, {((2, 2), (1, 0), 0): 1, ((2, 2), (0, 0), 0): 1}).truncated(4)
    h = qop(2, {((0, 0), (0, 1), 0): 1}).truncated(2)
    for z_one in (False, True):
        sb = standard_basis([g, h], OrderSpec(2), cap=4, z_one=z_one)
        assert [str(b) for b in sb.basis] == ["x1^2*x2^2*dx1", "dx2"]
        assert [b.cap for b in sb.basis] == [4, 2] and sb.tainted


def test_cap_certification():
    order = OrderSpec(1)
    g = qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})
    sb, certified, stairs = certified_standard_basis([g], order, (4, 6, 8))
    assert certified and len(set(map(tuple, stairs))) == 1
    # a series-producing ideal under a tiny cap pair still stabilizes its
    # staircase, so certification tracks the staircase, not the tails
    y = ParamPoly.var(1, 0)


def test_a_repeated_cap_certifies_nothing():
    """Certification compares two distinct caps; a cap listed twice is one
    run, which cannot be compared with itself."""
    order = OrderSpec(1)
    gens = [qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): -1}),
            qop(1, {((1,), (1,), 0): 1, ((3,), (0,), 0): -1})]
    sb, certified, stairs = certified_standard_basis(gens, order, (1, 1))
    assert not certified and len(stairs) == 1
    assert sb.staircase != standard_basis(gens, order, cap=3).staircase
    _, certified, stairs = certified_standard_basis(gens, order, (3, 1, 3))
    assert len(stairs) == 2 and stairs[0] != stairs[1] and not certified


def test_uniqueness_under_shuffles_and_scalings():
    order = OrderSpec(2)
    gens = [qop(2, {((1, 0), (1, 0), 0): 1, ((0, 1), (0, 1), 0): 1}),
            qop(2, {((0, 0), (1, 1), 0): 1, ((0, 0), (0, 0), 2): 1})]
    assert uniqueness_check(gens, order, cap=6, shuffles=5, seed=3)


def test_generic_basis_series_example():
    """y x2 - x1 x2 + x1 over Q[y]: the reduced generic basis is the
    geometric series x2 + sum_i x1^i / y^i and h = y."""
    Q = ParamIdeal(1, [])
    F = ParamField(1, Q)
    y = ParamPoly.var(1, 0)
    order = OrderSpec(2, xprio=(1, 0))
    g = HOperator(2, F, {
        exponent(2, alpha=[0, 1]): F.from_poly(y),
        exponent(2, alpha=[1, 1]): -F.one,
        exponent(2, alpha=[1, 0]): F.one,
    })
    for cap in (3, 5, 8):
        cert = standard_basis([g], order, cap=cap)
        assert len(cert.basis) == 1
        b = cert.basis[0]
        expect = {exponent(2, alpha=[0, 1]): F.one}
        c = F.one
        for i in range(1, cap + 1):
            c = c / F.from_poly(y)
            expect[exponent(2, alpha=[i, 0])] = c
        assert dict(b.terms) == expect
        assert cert.h == y
        assert cert.tainted  # honest: the series was truncated


def test_generic_basis_specializes_off_h(F1):
    y = ParamPoly.var(1, 0)
    order = OrderSpec(1)
    g = HOperator(1, F1, {exponent(1, beta=[2]): F1.one,
                          exponent(1, alpha=[1]): -F1.from_poly(y)})
    cert = standard_basis([g], order, cap=8)
    assert not cert.h_factors or cert.h == y
    for y0 in ((Fraction(1),), (Fraction(-2),), (Fraction(1, 3),)):
        spec = [b.specialize(y0) for b in cert.basis]
        direct = standard_basis(
            [g.specialize(y0)], order, cap=8, reduced=True).basis
        assert spec == direct


def test_generic_basis_collects_reduction_denominators():
    """h must cover leading coefficients met during tail reduction too."""
    Q = ParamIdeal(1, [])
    F = ParamField(1, Q)
    y = ParamPoly.var(1, 0)
    order = OrderSpec(1)
    a = HOperator(1, F, {exponent(1, beta=[1]): F.from_poly(y),
                         exponent(1, alpha=[1]): F.one})
    cert = standard_basis([a], order, cap=8)
    assert any(f == y for f in cert.h_factors)


def test_h_is_factored_from_the_completion_on_first_read(monkeypatch):
    """QQ bases never factor; a parametric one factors each leading
    coefficient of the completion list once, when h or h_factors is first
    read.  Factors of equal support sort by their coefficients."""
    calls = []
    factor = params_module.factor_squarefree
    monkeypatch.setattr(params_module, "factor_squarefree",
                        lambda p: calls.append(p) or factor(p))
    order = OrderSpec(2)
    qq = [qop(2, {((1, 0), (1, 0), 0): 1, ((0, 1), (0, 1), 0): 1}),
          qop(2, {((0, 0), (1, 1), 0): 1, ((0, 0), (0, 0), 2): 1})]
    for reduced in (True, False):
        sb = standard_basis(qq, order, cap=4, reduced=reduced)
        assert sb.h is None and sb.h_factors == () and not calls
    F = ParamField(1)
    y = F.ring.gens[0]
    gens = [HOperator(2, F, {exponent(2, alpha=[1], beta=[1]): F.from_poly(y - 1),
                             exponent(2, alpha=[0, 1], beta=[0, 1]): F.one}),
            HOperator(2, F, {exponent(2, beta=[1, 1]): F.from_poly(y + 1),
                             exponent(2, k=2): F.one})]
    for reduced in (True, False):
        calls.clear()
        sb = standard_basis(gens, order, cap=3, reduced=reduced)
        assert not calls
        assert sb.h_factors == (y - 1, y + 1, y)
        lcs = [leading_data(g, order)[1].num for g in sb.completed]
        assert calls == lcs and len(lcs) > len(gens)
        assert sb.h == (y - 1) * (y + 1) * y and calls == lcs


def completion_by_resort(gens, ord_spec, cap, z_one=False):
    """Reference pair queue, without criteria: re-sort every pair by the
    join of its leading exponents (stable, through compare_by_rules) on every
    iteration and take the first.  Returns G, the taint flag, the pairs in
    the order taken and how often the first two pairs tied."""
    G = [g.truncated(cap) for g in gens]
    G = [g for g in G if not g.is_zero()]
    key = cmp_to_key(partial(compare_by_rules, ord_spec))

    def lead(g):
        return max(g.terms, key=key)

    @cache  # G only grows, so a pair's join never changes
    def pair_key(p):
        return key(join(lead(G[p[0]]), lead(G[p[1]])))

    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    tainted = any(g.tainted for g in G)
    taken = []
    ties = 0
    while pairs:
        pairs.sort(key=pair_key)
        ties += len(pairs) > 1 and pair_key(pairs[0]) == pair_key(pairs[1])
        i, j = pairs.pop(0)
        taken.append((i, j))
        sp = spair(G[i], G[j], ord_spec, z_one=z_one)
        tainted = tainted or sp.tainted
        if sp.is_zero():
            continue
        res = divide(sp, G, ord_spec, z_one=z_one)
        tainted = tainted or res.tainted
        r = res.remainder
        if r.is_zero():
            continue
        G.append(r)
        pairs.extend((t, len(G) - 1) for t in range(len(G) - 1))
    return G, tainted, taken, ties


def criterion_3_pool():
    """The criterion-3 pool and two shuffled, rescaled copies of each ideal."""
    rng = random.Random(20240817)
    ideals = []
    while len(ideals) < 20:
        n = rng.randint(1, 2)
        gens = random_ideal(rng, n)
        if gens:
            ideals.append((n, gens))
    shuffle = random.Random(5)
    cases = []
    for n, gens in ideals:
        cases.append((n, list(gens)))
        for _ in range(2):
            perm = list(gens)
            shuffle.shuffle(perm)
            cases.append((n, [g.scale(Fraction(shuffle.randint(1, 7),
                                               shuffle.randint(1, 7))
                                      * shuffle.choice((1, -1)))
                              for g in perm]))
    return cases


def reduced(G, tainted, order, z_one=False):
    """The reduced basis of a completion and the combined taint flag."""
    basis, t2 = reduce_basis(G, order, z_one=z_one)
    return basis, tainted or t2


def taken_pairs(monkeypatch):
    """The S-pairs `completion` forms, as a list of (G[i], G[j]) it fills."""
    spairs = []
    monkeypatch.setattr(st, "spair", lambda gi, gj, *a, **k:
                        spairs.append((gi, gj)) or spair(gi, gj, *a, **k))
    return spairs


def test_pair_heap_matches_resorted_queue(monkeypatch):
    """On the criterion-3 pool and shuffled, rescaled copies of it, the
    pruned heap queue gives the oracle's reduced basis and taint flag.
    Where the criterion leaves the non-reduced list as the oracle builds it,
    the heap takes the oracle's pairs in the oracle's order, ties included,
    less the ones it dropped."""
    spairs = taken_pairs(monkeypatch)
    ties = 0
    for n, gens in criterion_3_pool():
        order = OrderSpec(n)
        spairs.clear()
        G, tainted = completion(gens, order, cap=6)
        G_ref, tainted_ref, taken_ref, t = completion_by_resort(gens, order, 6)
        assert reduced(G, tainted, order) == reduced(G_ref, tainted_ref, order)
        if G == G_ref:
            index = {id(g): i for i, g in enumerate(G)}
            rest = iter(taken_ref)
            assert all((index[id(a)], index[id(b)]) in rest for a, b in spairs)
            ties += t
    assert ties > 0  # the insertion count, not luck, decided some pops
    # leading exponents A, A, B, B: the oracle takes the tied pairs (0, 3)
    # and (1, 2); the chain criterion drops both
    order = OrderSpec(1)
    gens = [qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1}),
            qop(1, {((0,), (2,), 0): 2, ((0,), (0,), 2): 1}),
            qop(1, {((1,), (1,), 0): 1, ((0,), (0,), 1): 1}),
            qop(1, {((1,), (1,), 0): 1, ((2,), (0,), 1): 3})]
    spairs.clear()
    G, tainted = completion(gens, order, cap=6)
    G_ref, tainted_ref, taken_ref, t = completion_by_resort(gens, order, 6)
    assert reduced(G, tainted, order) == reduced(G_ref, tainted_ref, order)
    index = {id(g): i for i, g in enumerate(G)}
    taken = [(index[id(a)], index[id(b)]) for a, b in spairs]
    assert t > 0 and {(0, 3), (1, 2)} <= set(taken_ref)
    assert (0, 3) not in taken and (1, 2) not in taken


def test_a_dropped_pair_keeps_its_cut(monkeypatch):
    """At cap 2, no S-pair the pruned run forms and no division it runs cuts
    a term; some pair the criterion drops would have.  The result is
    tainted, as the oracle's is."""
    order = OrderSpec(2)
    gens = [qop(2, {((0, 0), (1, 0), 0): Fraction(4, 3),
                    ((0, 1), (1, 1), 1): Fraction(2, 3)}),
            qop(2, {((0, 1), (0, 0), 1): 2,
                    ((1, 1), (1, 0), 1): Fraction(2, 3)})]
    cuts = []

    def record(f):
        def wrapped(*args, **kwargs):
            out = f(*args, **kwargs)
            cuts.append(out.tainted)
            return out
        return wrapped

    monkeypatch.setattr(st, "spair", record(spair))
    monkeypatch.setattr(st, "divide", record(divide))
    _, tainted = completion(gens, order, cap=2)
    assert cuts and not any(cuts)
    assert tainted and completion_by_resort(gens, order, 2)[1]


def test_chain_criterion_matches_the_oracle():
    """Differential test of the pruned completion, reduced, against the
    criterion-free oracle: random QQ ideals (n = 1, 2 at caps 4 and 6), the
    z = 1 product, and an ideal over Frac(Q[y]/(y^2 - 2)).  An untainted
    oracle result is matched exactly.  An untainted result is exact, so it
    matches the oracle wherever the oracle is untainted, at the cap or two
    above it.  The flags themselves are not compared: a pruned run takes
    other pairs, and its divisions can cut terms the oracle's did not meet
    (or the other way round)."""
    rng = random.Random(1988)
    cases = []
    while len(cases) < 100:
        n = rng.randint(1, 2)
        gens = random_ideal(rng, n, most=3)
        if gens:
            cases.append((gens, OrderSpec(n), rng.choice((4, 6)), False))
    while len(cases) < 130:
        n = rng.randint(1, 2)
        gens = random_ideal(rng, n, maxk=0, most=3)
        if gens:
            cases.append((gens, OrderSpec(n), rng.choice((4, 6)), True))
    y = ParamPoly.var(1, 0)
    F = ParamField(1, ParamIdeal(1, [y * y - 2]))
    c = F.from_poly
    cases.append(([HOperator(2, F, {exponent(2, alpha=[1], beta=[1]): c(y),
                                    exponent(2, alpha=[0, 1], beta=[0, 1]): F.one,
                                    exponent(2, alpha=[1, 1], beta=[1]):
                                        c(y * y - 2)}),
                   HOperator(2, F, {exponent(2, beta=[1, 1]): F.one,
                                    exponent(2, k=2): c(y)})],
                  OrderSpec(2), 4, False))

    def oracle(gens, order, cap, z_one):
        G, tainted, _, _ = completion_by_resort(gens, order, cap, z_one)
        return reduced(G, tainted, order, z_one=z_one)

    exact = 0
    for gens, order, cap, z_one in cases:
        basis, tainted = reduced(*completion(gens, order, cap=cap, z_one=z_one),
                                 order, z_one=z_one)
        ref, tainted_ref = oracle(gens, order, cap, z_one)
        if tainted_ref and not tainted:
            ref, tainted_ref = oracle(gens, order, cap + 2, z_one)
        if not tainted_ref:
            assert basis == ref
            exact += 1
    assert exact > len(cases) // 2
    assert not tainted_ref  # the last case, over Frac(Q[y]/(y^2 - 2))


def test_chain_criterion_cuts_the_pairs(monkeypatch):
    """On the criterion-3 pool at cap 6, the pruned queue forms at most
    40 % of the S-pairs the criterion-free oracle forms."""
    spairs = taken_pairs(monkeypatch)
    formed = 0
    for n, gens in criterion_3_pool():
        completion(gens, OrderSpec(n), cap=6)
        formed += len(completion_by_resort(gens, OrderSpec(n), 6)[2])
    assert len(spairs) <= 0.4 * formed

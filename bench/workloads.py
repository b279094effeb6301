"""The three benchmark workloads: inputs from a seed, the timed ops, and the
correctness check of every op.

A workload is built once per process (set-up) and then yields passes.  A
pass is the workload's whole input set, run once; each pass draws its own
inputs from the seed and the pass number, so later passes are not replays of
earlier ones.  Every op is a thunk (timed) plus a check (not timed).  Why
each workload was chosen is in NOTES.md.

The library is reached only through module attributes looked up at call
time (``fan.cell_at``, ``cli.main``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction

from dfan import cli, fan, operators, orders, params, standard

WORKLOADS = ("fan_grid", "sb_random", "param_strata")
CAP_FAN = 8
CAP_SB = 6


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Op:
    """One timed user operation and the check of its result."""

    __slots__ = ("kind", "key", "run", "check")

    def __init__(self, kind, key, run, check):
        self.kind = kind
        self.key = key
        self.run = run
        self.check = check


def _qop(n, terms):
    """Operator over QQ from {(alpha, beta, k): coeff}."""
    return operators.HOperator(n, params.QQ_FIELD, {
        operators.Exponent(tuple(a), tuple(b), k): Fraction(c)
        for (a, b, k), c in terms.items()})


# ---------------------------------------------------------------------------
# fan_grid: Groebner fans over QQ (traversal + point queries)
# ---------------------------------------------------------------------------

def fan_ideals():
    """The three ideals of the criterion-4 fan test."""
    return [
        [_qop(1, {((0,), (2,), 0): 1, ((1,), (0,), 2): 1})],
        [_qop(1, {((1,), (1,), 0): 1})],
        [_qop(2, {((1, 0), (1, 0), 0): 1, ((0, 1), (0, 1), 0): 1}),
         _qop(2, {((0, 0), (1, 1), 0): 1, ((0, 0), (0, 0), 2): 1})],
    ]


def cell_signature(cell):
    """The mathematical content of a cell, independent of how its cone is
    stored and of the order in which the traversal found it."""
    return json.dumps([cell.dim(), [list(e) for e in cell.staircase],
                       [list(v) for v in cell.face_vertices],
                       [str(g) for g in cell.basis]], default=str)


def fan_digest(gfan):
    return digest("\n".join(sorted(cell_signature(c) for c in gfan.cells)))


class FanGrid:
    """Op type 1: traverse each criterion-4 ideal with enumerate_fan.
    Op type 2: cell_at point queries on the 2-variable ideal, at weights the
    seed samples from the 225-weight grid (without repeats until the grid is
    used up)."""

    queries_per_pass = 32

    def __init__(self, seed, scale, golden):
        self.ideals = fan_ideals()
        self.golden = golden["fan_grid"]
        self.grid = fan.grid_weights(2, denominators=(1, 2), span=2)
        self.order = random.Random(f"fan_grid:{seed}").sample(
            range(len(self.grid)), len(self.grid))
        self.nq = max(1, round(self.queries_per_pass * scale))
        self.fans = {}

    def pass_ops(self, k):
        ops = []
        for i, gens in enumerate(self.ideals):
            ops.append(Op("traverse", f"ideal{i}",
                          lambda gens=gens: fan.enumerate_fan(gens, cap=CAP_FAN),
                          lambda res, i=i: self._check_traversal(i, res)))
        gens = self.ideals[2]
        for j in range(self.nq):
            w = self.grid[self.order[(k * self.nq + j) % len(self.grid)]]
            ops.append(Op("cell_at", str(w),
                          lambda w=w: fan.cell_at(gens, w, CAP_FAN),
                          lambda res, w=w: self._check_query(w, res)))
        return ops

    def _check_traversal(self, i, res):
        self.fans[i] = res
        return (len(res.cells) == self.golden[i]["cells"]
                and fan_digest(res) == self.golden[i]["digest"])

    def _check_query(self, w, res):
        holders = [c for c in self.fans[2].cells if c.contains(w)]
        if len(holders) != 1:
            return False
        cell = holders[0]
        return (tuple(cell.staircase) == tuple(res.staircase)
                and cell.face_vertices == res.face_vertices
                and cell.witness.activity() == w.activity())


# ---------------------------------------------------------------------------
# sb_random: completion and reduction over QQ
# ---------------------------------------------------------------------------

def _random_qop(rng, n, nterms, maxdeg, maxk):
    terms = {}
    for _ in range(nterms):
        a = tuple(rng.randint(0, maxdeg) for _ in range(n))
        b = tuple(rng.randint(0, maxdeg) for _ in range(n))
        k = rng.randint(0, maxk)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if c:
            terms[operators.Exponent(a, b, k)] = c
    return operators.HOperator(n, params.QQ_FIELD, terms)


def sb_pool():
    """The criterion-3 pool: 20 ideals drawn with random.Random(20240817).
    Fixed on purpose; the seed only picks shuffles, rescalings and op order
    (see NOTES.md for why the ideals themselves are not drawn per seed)."""
    rng = random.Random(20240817)
    ideals = []
    while len(ideals) < 20:
        n = rng.randint(1, 2)
        maxdeg = 2 if n == 1 else 1
        gens = [_random_qop(rng, n, rng.randint(1, 3) if n == 1 else 2,
                            maxdeg=maxdeg, maxk=1)
                for _ in range(rng.randint(1, 2))]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            ideals.append((n, gens))
    return ideals


def basis_digest(sb):
    return digest("\n".join(str(g) for g in sb.basis) + f"\ntainted={sb.tainted}")


class SbRandom:
    """One op is standard_basis(gens, OrderSpec(n), cap=6) on a shuffled and
    rescaled copy of a pool ideal's generators; a pass runs every pool ideal
    in `variants` such copies, in seeded order."""

    variants = 6

    def __init__(self, seed, scale, golden):
        self.seed = seed
        self.pool = sb_pool()
        self.golden = golden["sb_random"]
        self.nideals = max(1, round(len(self.pool) * scale))

    def pass_ops(self, k):
        rng = random.Random(f"sb_random:{self.seed}:{k}")
        ops = []
        for i, (n, gens) in enumerate(self.pool[:self.nideals]):
            for v in range(self.variants):
                perm = list(gens)
                rng.shuffle(perm)
                perm = [g.scale(Fraction(rng.randint(1, 7), rng.randint(1, 7))
                                * rng.choice((1, -1))) for g in perm]
                ops.append(Op("standard_basis", f"ideal{i}",
                              lambda n=n, perm=perm: standard.standard_basis(
                                  perm, orders.OrderSpec(n), cap=CAP_SB),
                              lambda res, i=i: basis_digest(res) == self.golden[i]))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# param_strata: parametric problems through the CLI
# ---------------------------------------------------------------------------

# Each template is a problem file with coefficient slots c1, c2.  The seed
# draws c1 from C1 and c2 from C2 per pass; neither choice changes which
# strata or cells appear, so passes cost about the same.
C1 = (1, 2, 3)
C2 = (1, 2, -1)
TEMPLATES = {
    "airy_q0": ("params: y\nvars: x1\ncap: 8\n"
                "ideal: dx1^2 - {c1}*y*x1*z^2\n"
                "dividend: dx1^3 + {c2}*x1\n"),
    "series_q0": ("params: y\nvars: x1 x2\norder: antigraded_lex x2 > x1\n"
                  "cap: 5\nideal: {c1}*y*x2 - x1*x2 + {c2}*x1\n"
                  "dividend: dx2*x2\n"),
    "airy_sqrt2": ("params: y\nvars: x1\ncap: 6\nqideal: y^2 - 2\n"
                   "ideal: dx1^2 - {c1}*y*x1*z^2 + {c2}*x1*z\n"
                   "dividend: dx1^2*x1\n"),
    "airy_i": ("params: y\nvars: x1\ncap: 6\nqideal: y^2 + 1\n"
               "ideal: dx1^2 + ({c1}*y - {c2})*x1*z^2\n"),
    "airy_cubic": ("params: y\nvars: x1\ncap: 6\nqideal: y^3 - y - 1\n"
                   "ideal: dx1^2 - {c1}*y*x1*z^2 + {c2}*y^2*z^2\n"
                   "dividend: dx1*x1^2\n"),
    "series_i": ("params: y\nvars: x1 x2\norder: antigraded_lex x2 > x1\n"
                 "cap: 3\nqideal: y^2 + 1\n"
                 "ideal: {c1}*y*x2 - x1*x2 + {c2}*x1\n"
                 "dividend: dx1*x2\n"),
    "airy_ab": ("params: a b\nvars: x1\ncap: 6\n"
                "ideal: a*dx1^2 - {c1}*b*x1*z^2 + {c2}*x1*z\n"
                "dividend: dx1^2 + x1\n"),
    "euler_q0": ("params: y\nvars: x1\ncap: 6\n"
                 "ideal: x1*dx1 - {c1}*y*x1 + {c2}\n"
                 "dividend: x1*dx1^2\n"),
}
VERBS = ("gensb", "certify", "compfan", "div")


def param_problems():
    """Every (template, c1, c2) the seed can choose, with its text."""
    for name, text in TEMPLATES.items():
        for c1 in C1:
            for c2 in C2:
                yield name, c1, c2, text.format(c1=c1, c2=c2)


def param_key(name, c1, c2, verb):
    return f"{name}|{c1}|{c2}|{verb}"


def run_cli(verb, text):
    """dfan.cli.main in-process on the problem text; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([verb, "-"])
    finally:
        sys.stdin = stdin
    return rc, out.getvalue()


def verbs_for(text):
    return [v for v in VERBS if v != "div" or "dividend:" in text]


class ParamStrata:
    """Every template once per pass, with seeded coefficients, through
    gensb, certify, compfan and (where the template has a dividend) div."""

    def __init__(self, seed, scale, golden):
        self.seed = seed
        self.golden = golden["param_strata"]
        names = list(TEMPLATES)
        self.names = names[:max(1, round(len(names) * scale))]

    def pass_ops(self, k):
        rng = random.Random(f"param_strata:{self.seed}:{k}")
        ops = []
        for name in self.names:
            c1, c2 = rng.choice(C1), rng.choice(C2)
            text = TEMPLATES[name].format(c1=c1, c2=c2)
            for verb in verbs_for(text):
                want = self.golden.get(param_key(name, c1, c2, verb))
                ops.append(Op(verb, f"{name}|{c1}|{c2}",
                              lambda verb=verb, text=text: run_cli(verb, text),
                              lambda res, want=want: res[0] == 0
                              and digest(res[1]) == want))
        return ops


def build(name, seed, scale, golden):
    cls = {"fan_grid": FanGrid, "sb_random": SbRandom,
           "param_strata": ParamStrata}[name]
    return cls(seed, scale, golden)

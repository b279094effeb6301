"""Command-line front end: `dfan VERB problem-file [flags]`.

Each verb reads a problem file, delegates to the library, and prints one JSON
document (sorted keys, exact rationals as strings) on stdout.  Exit codes:
0 success, 1 mathematical error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .division import divide, denominator_certificate
from .errors import DfanError, OperatorSyntaxError
from .fan import (fan_of_ideal, grid_weights, oracle_classify,
                  homogenized_generators)
from .orders import Weight
from .parametric import (comprehensive_fan, constant_fan_certificate,
                         specialize_ideal)
from .params import poly_str
from .parsing import parse_problem
from .standard import certified_standard_basis, generic_standard_basis, standard_basis

VERBS = ("div", "sb", "reduce", "gensb", "fan", "compfan", "certify",
         "oracle-fan", "specialize")


def _rat(x):
    return str(Fraction(x))


def _exp_doc(e):
    return {"alpha": list(e.alpha), "beta": list(e.beta), "k": e.k}


def _basis_doc(basis):
    return [str(g) for g in basis]


def _weight_doc(w):
    return {"u": [_rat(a) for a in w.u], "v": [_rat(b) for b in w.v]}


def _cell_doc(cell):
    return {
        "cone": cell.cone.to_doc(),
        "dim": cell.dim(),
        "witness": _weight_doc(cell.witness),
        "grading": {"u_zero": sorted(cell.witness.activity()[0]),
                    "uv_zero": sorted(cell.witness.activity()[1])},
        "staircase": [_exp_doc(e) for e in cell.staircase],
        "basis": _basis_doc(cell.basis),
        "face_vertices": [list(v) for v in cell.face_vertices],
        "h": poly_str(cell.h) if cell.h is not None else None,
        "tainted": cell.tainted,
    }


def _capped(ops, cap):
    return [g.truncated(cap) for g in ops]


def _order_for(problem, args):
    order = problem.order
    if args.seed_weight:
        vals = [Fraction(x) for x in args.seed_weight]
        n = problem.n
        if len(vals) != 2 * n:
            raise OperatorSyntaxError(f"--seed-weight needs {2 * n} entries")
        order = order.with_weight(Weight.make(vals[:n], vals[n:]))
    return order


def _q_or_none(problem):
    return problem.q_ideal if problem.params else None


def run_command(verb, problem, args):
    cap = args.cap if args.cap is not None else problem.cap
    order = _order_for(problem, args)
    Q = _q_or_none(problem)

    if verb == "div":
        if problem.dividend is None:
            raise OperatorSyntaxError("div needs a 'dividend:' line")
        P = problem.dividend.truncated(cap)
        G = _capped(problem.generators, cap)
        res = divide(P, G, order, mod_q=Q, guard_slack=args.guard)
        return {
            "quotients": _basis_doc(res.quotients),
            "remainder": str(res.remainder),
            "t_part": str(res.t_part),
            "denom_powers": {str(j): d for j, d in res.denom_powers.items()},
            "denominator_certificate": denominator_certificate(res, G, order,
                                                               mod_q=Q),
            "tainted": res.tainted,
        }

    if verb == "sb":
        sb, certified, stairs = certified_standard_basis(
            problem.generators, order, [max(1, cap - 2), cap], reduced=False)
        return {"basis": _basis_doc(sb.basis),
                "staircase": [_exp_doc(e) for e in sb.staircase],
                "cap": cap, "cap_certified": certified, "tainted": sb.tainted}

    if verb in ("reduce", "gensb"):
        reduced = verb == "reduce"
        if problem.params:
            cert = generic_standard_basis(problem.generators, problem.q_ideal,
                                          order, cap=cap, reduced=reduced)
            return {"basis": _basis_doc(cert.basis), "h": poly_str(cert.h),
                    "h_factors": [poly_str(f) for f in cert.h_factors],
                    "q_ideal": [poly_str(g) for g in problem.q_ideal.gb],
                    "cap": cap, "tainted": cert.tainted}
        sb = standard_basis(problem.generators, order, cap=cap, reduced=reduced)
        return {"basis": _basis_doc(sb.basis), "h": "1", "h_factors": [],
                "q_ideal": [], "cap": cap, "tainted": sb.tainted}

    if verb == "fan":
        fan = fan_of_ideal(problem.generators, cap, Q=Q,
                           max_cells=args.max_cells)
        return {"n": fan.n, "cap": cap, "num_cells": len(fan.cells),
                "cells": [_cell_doc(c) for c in fan.cells]}

    if verb == "certify":
        if not problem.params:
            raise OperatorSyntaxError("certify needs parameters")
        cert = constant_fan_certificate(problem.generators, problem.q_ideal, cap)
        return {"h": poly_str(cert.h),
                "h_factors": [poly_str(f) for f in cert.h_factors],
                "q_ideal": [poly_str(g) for g in cert.q_ideal.gb],
                "num_cells": len(cert.fan.cells),
                "cells": [_cell_doc(c) for c in cert.fan.cells],
                "homogenized_generators": _basis_doc(cert.hom_gens),
                "tainted": cert.tainted}

    if verb == "compfan":
        if not problem.params:
            raise OperatorSyntaxError("compfan needs parameters")
        comp = comprehensive_fan(problem.generators, problem.q_ideal, cap,
                                 max_depth=args.max_depth)
        strata = []
        for s in comp.strata():
            strata.append({
                "q_ideal": [poly_str(g) for g in s.q_ideal.gb],
                "h": poly_str(s.h),
                "num_cells": len(s.certificate.fan.cells),
                "cells": [_cell_doc(c) for c in s.certificate.fan.cells],
            })
        strata.sort(key=lambda d: (len(d["q_ideal"]), d["q_ideal"]))
        return {"m": comp.m, "cap": cap, "strata": strata}

    if verb == "oracle-fan":
        gens = homogenized_generators(problem.generators, cap, Q=Q)
        weights = grid_weights(problem.n)
        if 0 < args.samples < len(weights):
            # evenly spaced: the grid's first weights all share the smallest u1
            weights = [weights[i * len(weights) // args.samples]
                       for i in range(args.samples)]
        groups = {}
        for w in weights:
            stair, face, act = oracle_classify(gens, w, cap, Q=Q)
            sig = json.dumps({"staircase": [_exp_doc(e) for e in stair],
                              "face": [list(v) for v in face],
                              "u_zero": sorted(act[0]),
                              "uv_zero": sorted(act[1])}, sort_keys=True)
            groups.setdefault(sig, []).append(_weight_doc(w))
        classes = [{"signature": json.loads(sig), "weights": ws}
                   for sig, ws in sorted(groups.items())]
        return {"n": problem.n, "cap": cap, "num_weights": len(weights),
                "num_classes": len(classes), "classes": classes}

    if verb == "specialize":
        if not args.at:
            raise OperatorSyntaxError("specialize needs --at name=value,...")
        assign = {}
        for part in args.at.split(","):
            if "=" not in part:
                raise OperatorSyntaxError(f"bad assignment {part!r}")
            k, v = part.split("=", 1)
            assign[k.strip()] = Fraction(v.strip())
        try:
            y0 = tuple(assign[p] for p in problem.params)
        except KeyError as exc:
            raise OperatorSyntaxError(f"missing value for parameter {exc}")
        spec = specialize_ideal(problem.generators, y0)
        return {"at": {p: _rat(assign[p]) for p in problem.params},
                "ideal": _basis_doc(spec)}

    raise OperatorSyntaxError(f"unknown verb {verb!r}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dfan",
        description="standard bases and Groebner fans for homogenized "
                    "differential operators with parametric coefficients")
    ap.add_argument("verb", choices=VERBS)
    ap.add_argument("problem", help="path to a problem file ('-' for stdin)")
    ap.add_argument("--cap", type=int, default=None, help="x-degree cap override")
    ap.add_argument("--guard", type=int, default=4, help="truncation guard slack")
    ap.add_argument("--samples", type=int, default=0,
                    help="grid size limit for oracle-fan")
    ap.add_argument("--max-cells", type=int, default=4096,
                    help="fan traversal budget")
    ap.add_argument("--max-depth", type=int, default=6,
                    help="stratification depth budget")
    ap.add_argument("--seed-weight", nargs="*", default=None, metavar="Q",
                    help="extra weight refinement: u1..un v1..vn")
    ap.add_argument("--at", default=None, help="parameter point, e.g. y=1")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.problem == "-":
            text = sys.stdin.read()
        else:
            with open(args.problem, encoding="utf-8") as fh:
                text = fh.read()
        problem = parse_problem(text)
        doc = run_command(args.verb, problem, args)
    except OperatorSyntaxError as exc:
        print(f"dfan: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"dfan: {exc}", file=sys.stderr)
        return 2
    except DfanError as exc:
        print(f"dfan: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

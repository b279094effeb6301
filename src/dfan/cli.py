"""Command-line front end: `dfan VERB problem-file [flags]`.

Each verb reads a problem file, delegates to the library, and prints one JSON
document (sorted keys, exact rationals as strings) on stdout.  Exit codes:
0 success, 1 mathematical error, 2 usage or parse error.

The parser reads every operator of a problem with parameters into Frac(C/Q),
so the verbs pass no Q of their own.  `div` keeps its `t_part` key, always
"0", so that its JSON is unchanged.

`_to_json` prints the document in one pass, byte for byte as `json.dumps(doc,
sort_keys=True, indent=2)`, whose `indent` makes json run its pure-Python
encoder; a list of only ints or only strings is joined in one call.

`build_parser` builds the argument parser on its first call and returns the
same one afterwards, so an in-process caller of `main` does not rebuild it
per call; parsing arguments reads the parser and changes nothing in it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from .division import divide, denominator_certificate
from .errors import DfanError, OperatorSyntaxError
from .fan import (MAX_CELLS, fan_of_ideal, grid_weights, oracle_classify,
                  homogenized_generators)
from .parametric import (comprehensive_fan, constant_fan_certificate,
                         specialize_ideal)
from .params import poly_str
from .parsing import parse_problem
from .standard import certified_standard_basis, standard_basis

VERBS = ("div", "sb", "reduce", "gensb", "fan", "compfan", "certify",
         "oracle-fan", "specialize")


def _exp_doc(e):
    return {"alpha": list(e.alpha), "beta": list(e.beta), "k": e.k}


def _basis_doc(basis):
    return [str(g) for g in basis]


def _weight_doc(w):
    coords = [str(Fraction(c, w.den)) for c in w.ivec]
    return {"u": coords[:w.n], "v": coords[w.n:]}


def _cell_doc(cell):
    witness = _weight_doc(cell.witness)
    u_zero, uv_zero = cell.witness.activity()
    return {
        "cone": {**cell.cone.to_doc(), "witness": witness["u"] + witness["v"]},
        "dim": cell.dim(),
        "witness": witness,
        "grading": {"u_zero": sorted(u_zero), "uv_zero": sorted(uv_zero)},
        "staircase": [_exp_doc(e) for e in cell.staircase],
        "basis": _basis_doc(cell.basis),
        "face_vertices": [list(v) for v in cell.face_vertices],
        "h": poly_str(cell.h) if cell.h is not None else None,
        "tainted": cell.tainted,
    }


def _to_json(doc, indent="\n"):
    """json.dumps(doc, sort_keys=True, indent=2) for a doc of dicts with
    string keys, lists, strings, ints, booleans and None; TypeError on any
    other value."""
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if doc is None or doc is True or doc is False:
        return "null" if doc is None else "true" if doc else "false"
    if type(doc) is int:
        return int.__repr__(doc)
    inner = indent + "  "
    if type(doc) is dict:
        if not all(isinstance(k, str) for k in doc):
            raise TypeError("a dfan JSON document has string keys only")
        items = (encode_basestring_ascii(k) + ": " + _to_json(doc[k], inner)
                 for k in sorted(doc))
        return "{" + inner + ("," + inner).join(items) + indent + "}" if doc else "{}"
    if type(doc) is list:
        if all(type(x) is int for x in doc):
            items = map(int.__repr__, doc)
        elif all(type(x) is str for x in doc):
            items = map(encode_basestring_ascii, doc)
        else:
            items = (_to_json(x, inner) for x in doc)
        return "[" + inner + ("," + inner).join(items) + indent + "]" if doc else "[]"
    raise TypeError(f"{type(doc).__name__} is not part of a dfan JSON document")


def _fraction(text, flag):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise OperatorSyntaxError(f"{flag}: {text!r} is not a rational number")


def _capped(ops, cap):
    return [g.truncated(cap) for g in ops]


def run_command(verb, problem, args):
    cap = args.cap if args.cap is not None else problem.cap
    if cap < 1:
        raise OperatorSyntaxError("cap must be at least 1")
    if args.max_cells < 1:
        raise OperatorSyntaxError("--max-cells must be at least 1")
    if args.max_depth < 0:
        raise OperatorSyntaxError("--max-depth must be at least 0")
    if args.samples < 0:
        raise OperatorSyntaxError("--samples must be at least 0")
    order = problem.order

    if verb == "div":
        if problem.dividend is None:
            raise OperatorSyntaxError("div needs a 'dividend:' line")
        P = problem.dividend.truncated(cap)
        G = _capped(problem.generators, cap)
        res = divide(P, G, order)
        return {
            "quotients": _basis_doc(res.quotients),
            "remainder": str(res.remainder),
            "t_part": "0",
            "denom_powers": {str(j): d for j, d in res.denom_powers.items()},
            "denominator_certificate": denominator_certificate(res, G, order),
            "tainted": res.tainted,
        }

    if verb == "sb":
        sb, certified, stairs = certified_standard_basis(
            problem.generators, order, [max(1, cap - 2), cap], reduced=False)
        return {"basis": _basis_doc(sb.basis),
                "staircase": [_exp_doc(e) for e in sb.staircase],
                "cap": cap, "cap_certified": certified, "tainted": sb.tainted}

    if verb in ("reduce", "gensb"):
        sb = standard_basis(problem.generators, order, cap=cap,
                            reduced=verb == "reduce")
        return {"basis": _basis_doc(sb.basis),
                "h": poly_str(sb.h) if sb.h is not None else "1",
                "h_factors": [poly_str(f) for f in sb.h_factors],
                "q_ideal": [poly_str(g) for g in problem.q_ideal.gb],
                "cap": cap, "tainted": sb.tainted}

    if verb == "fan":
        fan = fan_of_ideal(problem.generators, cap, max_cells=args.max_cells)
        return {"n": fan.n, "cap": cap, "num_cells": len(fan.cells),
                "cells": [_cell_doc(c) for c in fan.cells]}

    if verb == "certify":
        if not problem.params:
            raise OperatorSyntaxError("certify needs parameters")
        cert = constant_fan_certificate(problem.generators, problem.q_ideal, cap,
                                        max_cells=args.max_cells)
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
                                 max_depth=args.max_depth,
                                 max_cells=args.max_cells)
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
        gens = homogenized_generators(problem.generators, cap)[0]
        weights = grid_weights(problem.n)
        if 0 < args.samples < len(weights):
            # evenly spaced: the grid's first weights all share the smallest u1
            weights = [weights[i * len(weights) // args.samples]
                       for i in range(args.samples)]
        groups = {}
        for w in weights:
            stair, face, act = oracle_classify(gens, w, cap)
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
        if problem.params and not args.at:
            raise OperatorSyntaxError("specialize needs --at name=value,...")
        assign = {}
        for part in args.at.split(",") if args.at else ():
            if "=" not in part:
                raise OperatorSyntaxError(f"bad assignment {part!r}")
            k, v = (t.strip() for t in part.split("=", 1))
            if k not in problem.params:
                raise OperatorSyntaxError(f"--at: unknown parameter {k!r}")
            if k in assign:
                raise OperatorSyntaxError(f"--at: repeated parameter {k!r}")
            assign[k] = _fraction(v, "--at")
        try:
            y0 = tuple(assign[p] for p in problem.params)
        except KeyError as exc:
            raise OperatorSyntaxError(f"missing value for parameter {exc}")
        spec = specialize_ideal(problem.generators, y0)
        return {"at": {p: str(assign[p]) for p in problem.params},
                "ideal": _basis_doc(spec)}

    raise OperatorSyntaxError(f"unknown verb {verb!r}")


@cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="dfan",
        description="standard bases and Groebner fans for homogenized "
                    "differential operators with parametric coefficients")
    ap.add_argument("verb", choices=VERBS)
    ap.add_argument("problem", help="path to a problem file ('-' for stdin)")
    ap.add_argument("--cap", type=int, default=None, help="x-degree cap override")
    ap.add_argument("--samples", type=int, default=0,
                    help="grid size limit for oracle-fan")
    ap.add_argument("--max-cells", type=int, default=MAX_CELLS,
                    help="most cells a fan traversal may find")
    ap.add_argument("--max-depth", type=int, default=6,
                    help="stratification depth budget")
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
    print(_to_json(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

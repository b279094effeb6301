"""Span tracer for the traced run, installed from outside the library.

Every public function of each dfan module (layer), and the methods listed
in METHODS, is replaced by a wrapper that records one span: name, start,
end and parent.  Modules import each other with ``from .x import y``, so a
wrapper is installed on every dfan namespace that holds the original
object.  Spans are kept in flat in-memory arrays and written out once, at
the end, by ``dump``.  A layer's self time is the sum over its spans of the
span's duration minus the durations of its child spans.

sympy's entry points used by the parameter ring are wrapped with a bare
call counter (no span), so their time stays in the calling layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("params", "operators", "orders", "division", "standard", "newton",
          "cones", "fan", "parametric", "parsing", "cli")

# Methods worth a span: the arithmetic and queries that do real work.
# Trivial accessors (is_zero, support, ...) are left out to bound overhead.
METHODS = {
    "operators.HOperator": ("__mul__", "__add__", "__sub__", "__neg__",
                            "scale", "truncated", "with_cap",
                            "substitute_z_one", "specialize", "to_field",
                            "apply_to_poly", "__str__"),
    "params.ParamPoly": ("__mul__", "__add__", "__sub__", "__neg__",
                         "__pow__", "evaluate", "content", "primitive",
                         "__str__"),
    "params.ParamFraction": ("__add__", "__sub__", "__rsub__", "__mul__",
                             "__truediv__", "__rtruediv__", "__neg__",
                             "inverse", "specialize", "__str__"),
    "params.ParamIdeal": ("normal_form", "contains"),
    "params.ParamField": ("coerce", "from_poly"),
    "cones.RelOpenCone": ("make", "contains", "closure_contains",
                          "interior_point", "included_in", "same_cone",
                          "intersect", "closure_facets", "to_doc"),
    "orders.OrderSpec": ("with_weight", "max_exponent", "sort"),
}

# Functions counted under another layer than the module that defines them.
# The z = 1 completion lives in fan.py but is completion work.
LAYER_OF = {"fan.dn_standard_basis": "standard"}

SYMPY_FUNCS = ("reduced", "gcd", "div", "factor_list", "sqf_list", "groebner")


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of_name = []
        self.name_arr = array("i")
        self.parent_arr = array("i")
        self.start_arr = array("d")
        self.end_arr = array("d")
        self.stack = [-1]
        self.on = True
        self.results = Counter()      # sums taken from return values
        self.sympy_calls = Counter()

    # -- recording -----------------------------------------------------------

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layer_of_name.append(layer)
        return len(self.names) - 1

    def wrap(self, name, layer, fn, on_return=None):
        nid = self._name_id(name, layer)
        names, parents = self.name_arr, self.parent_arr
        starts, ends, stack = self.start_arr, self.end_arr, self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(args, out)
            return out

        return wrapper

    def count_sympy(self, name, fn):
        calls = self.sympy_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        import sympy

        for fname in SYMPY_FUNCS:
            setattr(sympy, fname, self.count_sympy(fname, getattr(sympy, fname)))
        modules = {layer: importlib.import_module(f"dfan.{layer}")
                   for layer in LAYERS}
        namespaces = [sys.modules["dfan"]] + list(modules.values())
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, LAYER_OF.get(name, layer), obj,
                                    self._on_return(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, key, wrapped)
        for qual, methods in METHODS.items():
            layer, cls_name = qual.split(".")
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                raw = cls.__dict__.get(meth)
                if isinstance(raw, classmethod):
                    fn = self.wrap(f"{qual}.{meth}", layer, raw.__func__)
                    setattr(cls, meth, classmethod(fn))
                elif inspect.isfunction(raw):
                    setattr(cls, meth, self.wrap(f"{qual}.{meth}", layer, raw))

    def _on_return(self, name):
        res = self.results
        if name == "fan.enumerate_fan":
            def hook(args, out):
                res["fan.cells"] += len(out.cells)
        elif name == "standard.completion":
            def hook(args, out):
                res["standard.growth"] += max(0, len(out[0]) - len(args[0]))
        elif name == "division.divide":
            def hook(args, out):
                res["division.reductions"] += sum(out.denom_powers.values())
        elif name == "parametric.comprehensive_fan":
            def hook(args, out):
                res["parametric.strata"] += len(out.strata())
        else:
            return None
        return hook

    # -- analysis ----------------------------------------------------------------

    def summary(self):
        """Per-layer self time, per-name call counts, the sums taken from
        return values, and the bases of the two useful-work ratios."""
        n = len(self.name_arr)
        names, parents = self.name_arr, self.parent_arr
        dur = [e - s for s, e in zip(self.start_arr, self.end_arr)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = Counter()
        calls = Counter()
        layer_of = self.layer_of_name
        label = self.names
        for i in range(n):
            nid = names[i]
            self_s[layer_of[nid]] += dur[i] - child[i]
            calls[label[nid]] += 1
        return {"self_s": dict(self_s), "calls": dict(calls),
                "results": dict(self.results),
                "sympy_calls": dict(self.sympy_calls),
                "cell_at_in_traversal": self.calls_inside(
                    "fan.cell_at", "fan.enumerate_fan"),
                "spair_in_completion": self.calls_inside(
                    "standard.spair", "standard.completion")}

    def calls_inside(self, inner, outer):
        """Calls of `inner` made, directly or not, inside a call of `outer`."""
        ids = {name: i for i, name in enumerate(self.names)}
        if inner not in ids or outer not in ids:
            return 0
        want, stop = ids[inner], ids[outer]
        names, parents = self.name_arr, self.parent_arr
        count = 0
        for i, nid in enumerate(names):
            if nid == want:
                p = parents[i]
                while p >= 0 and names[p] != stop:
                    p = parents[p]
                count += p >= 0
        return count

    def dump(self, path):
        """Write the spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            head = {"names": self.names, "layers": self.layer_of_name,
                    "count": len(self.name_arr),
                    "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.name_arr, self.parent_arr, self.start_arr,
                        self.end_arr):
                arr.tofile(fh)

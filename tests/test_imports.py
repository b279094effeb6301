"""Lint: every name a dfan module or a test imports is used there, no module
keeps mutable state at its top level, every error class is raised, the
retired mod-Q route and cone API stay gone, the hot LP, the elimination and
the traversal's weight tests stay fraction-free, and each submodule is
reachable under its own name."""

import ast
import dataclasses
import inspect
import re
import types
from pathlib import Path

import dfan
import dfan.newton
from dfan.orders import OrderSpec
from dfan.params import ParamIdeal


def unused_imports(source):
    """(line, name) of each name an import binds that no expression reads.
    `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_unused_imports_detects_and_ignores():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport re as regex\n"
           "from fractions import Fraction, gcd as g\n"
           "x = os.path.join(Fraction(1), regex)\n")
    assert unused_imports(src) == [(4, "g")]


def test_no_unused_imports_in_src():
    """__init__.py is exempt: its imports are the package's re-exports."""
    found = []
    for path in sorted(Path(dfan.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found += [f"{path.name}:{line}: {name}"
                  for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_no_unused_imports_in_tests():
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line}: {name}"
                  for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)


def mutable_module_state(source):
    """(line, target) of each top-level assignment whose value is a list,
    dict or set display or comprehension, or a list()/dict()/set() call."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        v = node.value
        if (isinstance(v, _MUTABLE_DISPLAYS)
                or (isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
                    and v.func.id in ("list", "dict", "set"))):
            found += [(node.lineno, ast.unparse(t)) for t in targets]
    return found


def test_mutable_module_state_detects_and_ignores():
    src = ("A = []\nB: dict = {}\nC = {k: 0 for k in 'ab'}\nD = set()\n"
           "E = (1, 2)\nF = frozenset()\nG = list\n"
           "def f():\n    local = []\n    return local\n"
           "class K:\n    attr = []\n")
    assert mutable_module_state(src) == [(1, "A"), (2, "B"), (3, "C"), (4, "D")]


def test_no_mutable_module_state_in_src():
    found = []
    for path in sorted(Path(dfan.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{line}: {name}"
                  for line, name in mutable_module_state(path.read_text())]
    assert not found, "module-level mutable state:\n" + "\n".join(found)


def error_classes(errors_source):
    """Names of the classes in errors_source that derive, directly or
    through another class there, from DfanError."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in ast.parse(errors_source).body
             if isinstance(node, ast.ClassDef)}
    found = set()
    changed = True
    while changed:
        changed = False
        for name, parents in bases.items():
            if name not in found and any(p == "DfanError" or p in found
                                         for p in parents):
                found.add(name)
                changed = True
    return found


def raised_names(source):
    """Names raised in source, as `raise X` or `raise X(...)`."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
    return out


def test_error_lint_detects_and_ignores():
    errors = ("class DfanError(Exception): pass\n"
              "class A(DfanError): pass\nclass B(A): pass\n"
              "class C(ValueError): pass\n")
    assert error_classes(errors) == {"A", "B"}
    src = ("def f(x):\n    if x:\n        raise A('a')\n    raise C\n"
           "try:\n    f(0)\nexcept B:\n    raise\n")
    assert raised_names(src) == {"A", "C"}


def test_every_error_class_is_raised():
    """A DfanError subclass that no module raises is dead API."""
    root = Path(dfan.__file__).parent
    raised = set()
    for path in sorted(root.glob("*.py")):
        raised |= raised_names(path.read_text())
    unraised = error_classes((root / "errors.py").read_text()) - raised
    assert not unraised, f"error classes never raised: {sorted(unraised)}"


def test_no_mod_q_route_in_src():
    """Q lives in the coefficient field Frac(C/Q); the division-level route
    modulo Q, its errors and the tuning knobs must not come back."""
    names = ("mod_q", "t_terms", "leading_data_mod_q", "coeff_num_in_q",
             "DivisorInQ", "AllCoefficientsInQ", "LcDoesNotDivideH",
             "base_order", "guard_slack")
    root = Path(dfan.__file__).parent
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        for name in names:
            assert name not in text, f"{name} in {path.name}"
    for node in ast.walk(ast.parse((root / "fan.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            args = node.args.args + node.args.kwonlyargs
            assert "Q" not in [a.arg for a in args], f"fan.{node.name} takes Q"


def retired_names(source, names):
    """The names that occur in source as whole identifiers (or, for a name
    starting with ".", as an attribute access)."""
    return [name for name in names
            if re.search((r"\b" if name[0].isidentifier() else "")
                         + re.escape(name) + r"\b", source)]


def test_retired_names_detects_and_ignores():
    src = "c.weak = 1\nfacet_interior_point = cell.polyhedron_count\n"
    assert retired_names(src, ("weak", "interior_point", ".polyhedron")) == ["weak"]
    assert retired_names("x = cell.polyhedron\n", (".polyhedron",)) == [".polyhedron"]


def test_no_retired_cone_api_in_src():
    """Cones hold equality and strict forms only; the unused weak
    inequalities, closure and interior-point queries, the fan cell's
    unread polyhedron and the reduced-basis alias must not come back, nor division's per-call cap copies, the z = 1 product built
    from a general product, the uncalled cap copier, or the second
    generic-basis entry point with its out-parameter collector.  Nor may
    the z = 1 side path: its own basis entry point and homogenization
    helper, the order's label-only base name, the seed-weight flag, the
    test-only strict certification with its error, and the second
    step-off loop of the fan traversal, nor the weight's Fraction pairing
    with lattice points.  Nor may the order's rule-by-rule comparison
    (its key is the order), or the helpers only tests read: the grading
    degree, the z = 1 projection, the action on polynomials, the division
    window check, the polynomial gcd and exact division, and the fan's
    cell lookups.  Nor may the folded Minkowski sum with its per-vertex
    cones and interior-point test: a cell takes its face and cone from
    the summands.  Nor may the cone set algebra with its constructor,
    inclusion, equality, intersection and feasibility tests, the common
    refinement of fans, or the strictness bookkeeping of the elimination:
    the fan asks a cone for membership and closure facets only, and `solve`
    takes equalities and strict forms.  Nor may a second membership test
    for rational points, the rational form clearing, or a cone's copy of
    its cell's witness: cones take and return integer vectors, and a weight
    is its integer vector over its denominator.  Nor may the fan's own
    W-exit test or its one-line base-order wrapper: the forms of W live in
    `orders`, and a step off a cell is computed from them, nor the rays of
    W*, which only a test read.  Nor may the options product code set one
    way only: an order that skips the level |beta| + k (every order
    compares it first, and in the z = 1 quotient it is the dx-degree, so
    no separate z = 1 order is needed) and an ideal's claim to be prime
    (the zero-divisor test runs for every q).  Nor may the helpers only the
    tests read: the grid check of a fan, the uniqueness check of reduced
    bases, the rational samplers and the stratum lookups."""
    names = ("weak", "closure_contains", "interior_point", "EmptyCone",
             "reduced_generic_standard_basis", ".polyhedron", "_effective",
             "_dn_mul", "with_cap", "generic_standard_basis", "GenSBCertificate",
             "_collect_lc_factors", "dn_standard_basis",
             "homogenization_commutes", ".base", "BASE_ORDERS", "seed_weight",
             "--seed-weight", "_order_for", "strict=", "CapTooSmall",
             "_cross_facet", "dot_vec", "_base_compare", "def compare",
             "hom_degree", "substitute_z_one", "apply_to_poly",
             "reconstruct_window", "poly_gcd", "poly_exact_div",
             "cell_containing", "full_dim_cells", "minkowski_sum",
             "_vertex_cones", "_satisfies", "same_cone", "included_in",
             "_implies", "intersect", "feasible", "common_refinement",
             "_constraints", "lo_strict", "contains_integer", "clear_form",
             "_clear_denominators", "_as_weight", "_leaves_w", "base_fan_order",
             "wstar_rays", ".homogenized", "homogenized=", "claimed_prime",
             "t_order", "check_fan_against_grid", "uniqueness_check",
             "sample_points", "rationals_by_height", "stratum_for",
             "stratum_contains", "h_vanishes_at")
    found = []
    for path in sorted(Path(dfan.__file__).parent.glob("*.py")):
        found += [f"{path.name}: {name}"
                  for name in retired_names(path.read_text(), names)]
    assert not found, "retired names:\n" + "\n".join(found)
    assert not hasattr(dfan.cones.RelOpenCone, "make")
    assert dfan.cones.RelOpenCone.__slots__ == ("dim", "equalities", "strict")
    assert [f.name for f in dataclasses.fields(dfan.orders.Weight)] == ["ivec", "den"]
    assert [f.name for f in dataclasses.fields(OrderSpec)] == ["n", "xprio", "weights"]
    assert list(inspect.signature(ParamIdeal).parameters) == ["ring", "generators"]
    orders = (Path(dfan.__file__).parent / "orders.py").read_text()
    assert "from .operators" not in orders


def names_in_function(source, func):
    """The identifiers (names and attribute names) the body of the
    top-level function func, or of the method "Class.name", mentions."""
    body = ast.parse(source).body
    if "." in func:
        cls, func = func.split(".")
        body = next(n for n in body
                    if isinstance(n, ast.ClassDef) and n.name == cls).body
    node = next(n for n in body
                if isinstance(n, ast.FunctionDef) and n.name == func)
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_names_in_function_detects_and_ignores():
    src = ("from fractions import Fraction\n"
           "def f(x):\n    return fractions.Fraction(x) + g(x)\n"
           "def g(x):\n    return x.denominator\n"
           "class K:\n    def g(self):\n        return Fraction(self.y)\n")
    assert "Fraction" in names_in_function(src, "f")
    assert names_in_function(src, "g") == {"x", "denominator"}
    assert names_in_function(src, "K.g") == {"self", "y", "Fraction"}


def test_hot_lp_is_fraction_free():
    """The cone layer is integers only: the simplex, the elimination with
    its back-substitution, the points `solve` returns and cone membership.
    `cones.py` imports no `fractions`, and the rows `vertex_set` hands the
    simplex are integers.  Nor may Fractions come back into the fan
    traversal's weight tests and steps: a weight built from an integer
    vector, the admissibility test that reads it, the W-exit test of a step
    and the step itself."""
    root = Path(dfan.__file__).parent
    cones = ast.parse((root / "cones.py").read_text())
    imported = {a.name for n in ast.walk(cones) if isinstance(n, ast.Import)
                for a in n.names}
    imported |= {n.module for n in ast.walk(cones) if isinstance(n, ast.ImportFrom)}
    assert "fractions" not in imported
    for module, func in (("newton.py", "_conv_redundant"),
                         ("orders.py", "Weight.over"), ("orders.py", "in_w"),
                         ("fan.py", "_step_off")):
        names = names_in_function((root / module).read_text(), func)
        assert "Fraction" not in names, f"{module}: {func} names Fraction"


def test_w_is_read_from_orders():
    """A step off a cell is computed in closed form from the values of the
    forms of W: it tests no cone membership and calls no admissibility
    test.  A face is
    its vertices, and the normal cone takes the W constraints from the
    forms of W, not from the rays of W*."""
    root = Path(dfan.__file__).parent
    step = names_in_function((root / "fan.py").read_text(), "_step_off")
    assert not {"contains", "in_w"} & step
    newton = (root / "newton.py").read_text()
    for func in ("face_of", "normal_cone"):
        assert "wstar_rays" not in names_in_function(newton, func), func


def test_submodules_are_not_shadowed():
    """`import dfan.newton` binds the module, not a function the package
    re-exports under the same name."""
    assert isinstance(dfan.newton, types.ModuleType)
    assert callable(dfan.newton.newton)

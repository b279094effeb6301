"""Lint: every name a dfan module imports is used in that module, and no
module keeps mutable state at its top level."""

import ast
from pathlib import Path

import dfan


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

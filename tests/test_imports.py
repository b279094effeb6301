"""Lint: every name a dfan module imports is used in that module."""

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

"""Regrowth guard: every public library name has a caller in the system
(``src/`` or ``perfbench/``), not only in the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_has_a_system_caller():
    uses = Counter()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses[node.id if isinstance(node, ast.Name) else node.attr] += 1
    defined = []
    for path in sorted((ROOT / "src" / "mmgcn").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [m.name for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    unused = sorted(name for name in defined if not uses[name])
    assert not unused, f"library names only tests reach: {unused}"


def test_package_binds_no_name():
    # the package exports nothing: every name is imported from its module
    tree = ast.parse((ROOT / "src" / "mmgcn" / "__init__.py").read_text())
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    assert not body, f"mmgcn/__init__.py binds names: {[ast.unparse(node) for node in body]}"

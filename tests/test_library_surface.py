"""Regrowth guard: every public library name has a caller in the system
(``src/`` or ``perfbench/``), not only in the tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Kept for the tests alone: the references they compare against
# (``cheb_conv``, ``finite_diff_gradient``), the flat-vector harness
# ``finite_diff_gradient`` needs, and acceptance criterion 6's predictors.
TEST_REFERENCES = {"cheb_conv", "finite_diff_gradient", "pack_params", "unpack_params",
                   "pack_grads", "zeros_baseline_rmse", "historical_average_rmse"}


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
    unused = sorted(name for name in defined if not uses[name] and name not in TEST_REFERENCES)
    assert not unused, f"library names only tests reach: {unused}"

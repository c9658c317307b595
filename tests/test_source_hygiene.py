"""Source hygiene of src/tailtest: no unused import, no unreferenced private function.

No linter ships with the test dependencies, so these two checks stand in for one
and keep code that nothing calls from lingering after a refactor. An import on a
line marked `# noqa: F401` is kept for its side effect and is exempt.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tailtest"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in __all__ counts as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(bound)
    return unused


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """'module:name' of each top-level `def _name` that no module names anywhere."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__") and node.name not in named]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_function_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_private_functions(sources) == []


def test_checks_find_what_they_look_for():
    source = (
        "import math\n"
        "import numpy.random  # noqa: F401\n"
        "from os import path, sep as separator\n"
        "__all__ = ['path']\n"
        "def _helper():\n    return _used()\n"
        "def _used():\n    return 1\n"
    )
    assert unused_imports(source) == ["math", "separator"]
    assert unreferenced_private_functions({"m.py": source}) == ["m.py:_helper"]

"""Source hygiene of src/tailtest: no unused import, no unreferenced private name, no
private name imported across modules, no package name that hides a submodule.

No linter ships with the test dependencies, so these checks stand in for one and
keep code that nothing uses from lingering after a refactor. An import on a line
marked `# noqa: F401` is kept for its side effect and is exempt. A private name
belongs to its module: one another module needs is public, or lives with it.
"""
import ast
from pathlib import Path

import pytest

import tailtest

SRC = Path(__file__).resolve().parents[1] / "src" / "tailtest"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in a literal __all__ counts as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
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


def top_level_names(node: ast.stmt) -> list[str]:
    """Names a module-level `def`, `class` or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """'module:name' of each top-level private function, class or constant that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [f"{module}:{name}" for module, tree in trees.items() for node in tree.body
            for name in top_level_names(node)
            if name.startswith("_") and not name.startswith("__") and name not in named]


def private_imports(source: str) -> list[str]:
    """The private names (one leading underscore) a module imports from another."""
    return [alias.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def hiding_names(public, paths) -> set[str]:
    """The package's public names that are also the names of its submodules."""
    return set(public) & ({path.stem for path in paths} - {"__init__", "__main__"})


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_name_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_private_names(sources) == []


def test_no_module_imports_a_private_name():
    imported = {path.name: private_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {module: names for module, names in imported.items() if names} == {}


def test_no_package_name_hides_a_submodule():
    # `import tailtest.m` binds tailtest.m to the submodule, so a public name m would then
    # read as the module, not the object __getattr__ loads from it
    assert hiding_names(tailtest.__all__, MODULES) == set()


def test_import_checks_find_what_they_look_for():
    source = (
        "import os.path\n"
        "from .base import _RULE, __version__, check\n"
        "from . import _private as alias\n"
        "_LIMIT, LIMIT = 3, 4\n"
        "def tail_test():\n    return _RULE\n"
    )
    assert private_imports(source) == ["_RULE", "_private"]
    paths = [SRC / "__init__.py", SRC / "blocking.py", SRC / "tail_test.py"]
    assert hiding_names(["blocked_test", "tail_test"], paths) == {"tail_test"}


def test_checks_find_what_they_look_for():
    source = (
        "import math\n"
        "import numpy.random  # noqa: F401\n"
        "from os import path, sep as separator\n"
        "__all__ = ['path']\n"
        "_LIMIT = 3\n"
        "_SCALE: float = 2.0\n"
        "_SCALE += _LIMIT\n"
        "class _Unused:\n    pass\n"
        "class _Base:\n    pass\n"
        "class Public(_Base):\n    pass\n"
        "def _helper():\n    return _used()\n"
        "def _used():\n    return 1\n"
    )
    assert unused_imports(source) == ["math", "separator"]
    assert unused_imports("import os\n__all__ = sorted(_NAMES)\n") == ["os"]
    assert unreferenced_private_names({"m.py": source}) == [
        "m.py:_SCALE", "m.py:_Unused", "m.py:_helper"]

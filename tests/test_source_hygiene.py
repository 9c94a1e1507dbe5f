"""Static checks on the package source, with ``ast`` only: no import that a
module neither uses nor exports, and no private module-level function that
nothing in the package calls. Deleting a check or a wrapper can leave either
behind; these tests name what is left.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tppkit"
MODULES = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _imports(tree):
    """(bound name, line) of every import but ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used_or_exported(module):
    tree = MODULES[module]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]
    assert not unused, f"tppkit.{module} imports names it neither uses nor exports: {unused}"


def test_every_private_function_has_a_caller():
    referenced = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dead = [f"tppkit.{module}.{node.name} (line {node.lineno})"
            for module, tree in MODULES.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in referenced]
    assert not dead, f"private functions that nothing in the package calls: {dead}"


def _bound(tree) -> set:
    """Names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
    return names


@pytest.mark.parametrize("module", sorted(m for m, tree in MODULES.items() if _exported(tree)))
def test_all_lists_exactly_the_public_definitions(module):
    tree = MODULES[module]
    exported = _exported(tree)
    missing = sorted(exported - _bound(tree))
    assert not missing, f"tppkit.{module}.__all__ lists names it does not define: {missing}"
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    unlisted = sorted(public - exported)
    assert not unlisted, f"tppkit.{module} defines public names __all__ omits: {unlisted}"

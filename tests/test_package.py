"""Package hygiene: no unused module-level import in stgp, no dangling export, and no
orphaned helper, private or public but not exported."""
import ast
from pathlib import Path

import pytest

import stgp

PACKAGE = Path(stgp.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def module_imports(tree: ast.Module) -> dict[str, int]:
    """The names bound by the module's top-level imports, with their line numbers."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                assert alias.name != "*", f"star import at line {node.lineno}"
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in module_imports(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def test_every_export_resolves():
    assert len(set(stgp.__all__)) == len(stgp.__all__)
    missing = [name for name in stgp.__all__ if not hasattr(stgp, name)]
    assert not missing, f"stgp.__all__ names missing from the package: {missing}"


def test_every_name_the_package_imports_is_exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = set(module_imports(tree))
    assert imported <= set(stgp.__all__), f"imported, not exported: {imported - set(stgp.__all__)}"


def referenced_names(tree: ast.AST) -> list[str]:
    """Every name a tree uses: loaded or stored names, attributes, and names imported from a module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.extend(alias.name for alias in node.names)
    return names


def orphans(keep) -> list[str]:
    """The module-level functions and classes of stgp that `keep(name)` selects and that
    nothing in stgp refers to but their own definitions."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    used = [name for tree in trees.values() for name in referenced_names(tree)]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and keep(node.name):
                # A helper that only calls itself is still unreferenced.
                own = referenced_names(node).count(node.name)
                if used.count(node.name) <= own:
                    found.append(f"{module}: {node.name} (line {node.lineno})")
    return found


def test_every_private_helper_is_referenced():
    found = orphans(lambda name: name.startswith("_"))
    assert not found, f"private helpers nothing in stgp refers to: {found}"


def test_every_public_name_that_is_not_exported_is_referenced():
    # A public helper outside stgp.__all__ serves stgp itself, so it goes with its last caller.
    found = orphans(lambda name: not name.startswith("_") and name not in stgp.__all__)
    assert not found, f"public helpers that stgp neither exports nor refers to: {found}"

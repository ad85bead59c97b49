"""Package hygiene: no unused module-level import in stgp, no dangling export, and no
orphaned private helper."""
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


def test_every_private_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    used = [name for tree in trees.values() for name in referenced_names(tree)]
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                # A helper that only calls itself is still unreferenced.
                own = referenced_names(node).count(node.name)
                if used.count(node.name) <= own:
                    orphans.append(f"{module}: {node.name} (line {node.lineno})")
    assert not orphans, f"private helpers nothing in stgp refers to: {orphans}"

"""Checks on the package's own source text."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "masa_kit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports


def _imported_names(tree: ast.Module) -> set[str]:
    """The names an import binds in the module: ``import a.b`` binds a, ``from m import x as y`` binds y."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"attention", "blocks", "cli", "decay", "errors", "tensor", "train"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(_imported_names(tree) - _read_names(tree)) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nimport os.path\nfrom x import y as z\nprint(os)\n")
    assert _imported_names(tree) - _read_names(tree) == {"math", "z"}

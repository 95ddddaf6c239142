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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _nested_tracking_reads(tree: ast.Module) -> list[int]:
    """Lines where a function or lambda nested inside another function reads ``.requires_grad``
    or ``._record``: an adjoint that tests which parents are tracked, which only ``_result`` decides."""
    lines = set()
    for outer in ast.walk(tree):
        if isinstance(outer, _FUNCTIONS):
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, _FUNCTIONS):
                    lines.update(node.lineno for node in ast.walk(inner) if isinstance(node, ast.Attribute)
                                 and isinstance(node.ctx, ast.Load) and node.attr in ("requires_grad", "_record"))
    return sorted(lines)


def test_no_adjoint_in_the_tensor_core_reads_which_parents_are_tracked():
    path = PACKAGE / "tensor.py"
    assert _nested_tracking_reads(ast.parse(path.read_text(), filename=str(path))) == []


def test_a_nested_tracking_read_is_found():
    tree = ast.parse("def op(x, w):\n"
                     "    ok = x.requires_grad\n"
                     "    def adjoint(g):\n"
                     "        return g if w.requires_grad else None\n"
                     "    return lambda g: x._record, adjoint\n"
                     "def make(t):\n"
                     "    t._record = None\n")
    assert _nested_tracking_reads(tree) == [4, 5]

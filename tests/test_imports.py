"""Every name a library module or test file imports is read somewhere in
that file, and every name the package exports exists."""

import ast
import pathlib

import pytest

import wreath_dio

PACKAGE = pathlib.Path(wreath_dio.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def _read_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_modules_found():
    assert {p.name for p in MODULES} >= {"abelian.py", "solvers.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _imported_names(tree) - _read_names(tree)
    assert not unused, f"{path.name} imports but never reads {sorted(unused)}"


def test_every_exported_name_resolves():
    missing = [name for name in wreath_dio.__all__ if not hasattr(wreath_dio, name)]
    assert not missing, f"__all__ names {missing} that the package does not define"

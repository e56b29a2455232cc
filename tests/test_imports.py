"""Every name a library module or test file imports is read somewhere in
that file, every name the package exports exists, every library name the
benchmark in perfbench/ uses resolves, and no library check is a bare
assert."""

import ast
import importlib
import pathlib

import pytest

import wreath_dio

PACKAGE = pathlib.Path(wreath_dio.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_library_has_no_assert_statement(path):
    # python -O strips assert statements, so no library check may be one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"


def test_every_exported_name_resolves():
    missing = [name for name in wreath_dio.__all__ if not hasattr(wreath_dio, name)]
    assert not missing, f"__all__ names {missing} that the package does not define"


def _library_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for each name imported from the package and each
    attribute read off a package module, whether the module is a bare name
    (abelian.quotient_maps) or an attribute (api.solvers.dispatch).  Names
    held in strings, such as tracing.TARGETS, are not seen."""
    submodules = {p.stem for p in MODULES}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "wreath_dio"
        ):
            found.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module, _, name = alias.name.rpartition(".")
                if module.startswith("wreath_dio"):
                    found.add((module, name))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value
            tail = getattr(base, "id", None) or getattr(base, "attr", None)
            if tail in submodules:
                found.add((f"wreath_dio.{tail}", node.attr))
    return found


def test_every_library_name_the_benchmark_uses_resolves():
    # the benchmark runs the library from its own checkout, so a name it
    # needs must not be deleted; its files are parsed, not imported
    files = sorted(PERFBENCH.glob("*.py"))
    assert files, f"no benchmark files under {PERFBENCH}"
    for p in MODULES:
        importlib.import_module(f"wreath_dio.{p.stem}")
    missing = sorted(
        f"{path.name}: {module}.{name}"
        for path in files
        for module, name in _library_names(ast.parse(path.read_text(encoding="utf-8")))
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, f"benchmark names that do not resolve: {missing}"

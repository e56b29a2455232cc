"""Every name a library module or test file imports is read somewhere in
that file, every name the package exports exists, every library name the
benchmark in perfbench/ uses resolves, every library definition has a caller
outside the tests, no library check is a bare assert, the exhaustive
oracle reaches no membership code, every CLI exit code is documented, and
cli.main is the CLI's one error boundary."""

import ast
import collections
import importlib
import pathlib
import re

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


def _read_counts(root: ast.AST) -> collections.Counter:
    return collections.Counter(
        node.id
        for node in ast.walk(root)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    )


def _read_names(tree: ast.Module) -> set[str]:
    return set(_read_counts(tree))


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
    """(module, name) for each name imported from the package, by an
    absolute or a package-relative import, and each attribute read off a
    package module, whether the module is a bare name
    (abelian.quotient_maps) or an attribute (api.solvers.dispatch).  Names
    held in strings, such as tracing.TARGETS, are not seen."""
    submodules = {p.stem for p in MODULES}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("wreath_dio")
        ):
            module = f"wreath_dio.{node.module}" if node.level else node.module
            found.update((module, alias.name) for alias in node.names)
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


# lemma-library functions that only the acceptance criteria and the tests
# call: they check the paper's lemmas, so they stay without a library caller
LEMMA_LIBRARY = {
    "group_ring.diameter",
    "group_ring.lambda_map",
    "lattice.is_lll_reduced",
    "qsp.cluster_shift",
    "qsp.normalize_deltas",
    "wreath.residual_function",
}


def _top_level_definitions(tree: ast.Module):
    """(name, node) for each module-level function, class and assigned name,
    dunders such as __all__ left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("__"))


def test_every_library_definition_has_a_caller():
    # a definition is called when its own module reads it outside its own
    # body, a sibling module or the benchmark imports it, or the package
    # exports it; the lemma library is the only exception, and must stay one
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(PACKAGE.glob("*.py"))
    }
    callers = set()
    for stem, tree in trees.items():
        callers |= {c for c in _library_names(tree) if c[0] != f"wreath_dio.{stem}"}
    for path in sorted(PERFBENCH.glob("*.py")):
        callers |= _library_names(ast.parse(path.read_text(encoding="utf-8")))
    exported = set(wreath_dio.__all__)
    defined, uncalled = set(), set()
    for stem, tree in trees.items():
        module_reads = _read_counts(tree)
        for name, node in _top_level_definitions(tree):
            defined.add(f"{stem}.{name}")
            read_elsewhere = (module_reads - _read_counts(node))[name]
            called = (f"wreath_dio.{stem}", name) in callers
            if not (read_elsewhere or called or name in exported):
                uncalled.add(f"{stem}.{name}")
    assert not uncalled - LEMMA_LIBRARY, (
        f"library definitions that nothing outside the tests reads: "
        f"{sorted(uncalled - LEMMA_LIBRARY)}"
    )
    assert LEMMA_LIBRARY <= defined, f"stale: {sorted(LEMMA_LIBRARY - defined)}"
    assert LEMMA_LIBRARY <= uncalled, (
        f"lemma-library names that now have a library caller: "
        f"{sorted(LEMMA_LIBRARY - uncalled)}"
    )


# names through which the solvers and the certificate path test membership
# or quotients; the oracle is their reference, so it decides without them
ORACLE_FORBIDDEN = {
    "is_zero_mod",
    "subgroup_contains",
    "satisfies_equation",
    "_quotient_form",
    "_subgroup_form",
    "project_coords",
    "_anchored_search",
    "subgroup_rank",
}


def test_oracle_decides_without_membership():
    # oracle_solve and every solvers.py function it reaches, directly or
    # through another, as names or attributes
    tree = ast.parse((PACKAGE / "solvers.py").read_text(encoding="utf-8"))
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    reached, queue, offenders = set(), ["oracle_solve"], {}
    while queue:
        name = queue.pop()
        if name in reached:
            continue
        reached.add(name)
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(functions[name])
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        if names & ORACLE_FORBIDDEN:
            offenders[name] = sorted(names & ORACLE_FORBIDDEN)
        queue.extend(names & functions.keys())
    assert "_zero_sum_partitions" in reached
    assert not offenders, f"the oracle reaches membership code: {offenders}"


REPO = PERFBENCH.parent
CLI = PACKAGE / "cli.py"


def _exit_codes() -> dict[str, int]:
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    return {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("EXIT_")
    }


def test_every_exit_code_is_documented():
    codes = _exit_codes()
    formats = (REPO / "FORMATS.md").read_text(encoding="utf-8")
    table = formats.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    rows = {int(m) for m in re.findall(r"^\| (\d+) \|", table, re.M)}
    assert rows == set(codes.values()), f"FORMATS.md exit-code rows {sorted(rows)}"
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"exit codes\s+are\s+(.+?)\.\s", readme, re.S)
    assert sentence, "README.md has no 'exit codes are ...' sentence"
    named = {int(m) for m in re.findall(r"(?:^|/)\s*(\d+)\s", sentence.group(1))}
    assert named == set(codes.values()), f"README.md names exit codes {sorted(named)}"


# exceptions that cli.main alone turns into exit codes
BOUNDARY_EXCEPTIONS = {"Exception", "CodecError", "ShapeMismatch"}


def test_main_is_the_only_cli_error_boundary():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    catchers = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for handler in ast.walk(fn):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                caught = {
                    node.id for node in ast.walk(handler.type) if isinstance(node, ast.Name)
                }
                if caught & BOUNDARY_EXCEPTIONS:
                    catchers.add(fn.name)
    assert catchers == {"main"}, f"cli.py catches {BOUNDARY_EXCEPTIONS} in {catchers}"

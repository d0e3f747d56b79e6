"""The modules of the package use one another through public names only,
and importing the package loads no introspection module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ybhecke

MODULES = sorted(Path(ybhecke.__file__).parent.glob("*.py"))
# The private names a module may take from a sibling: none.
ALLOWED: set[tuple[str, str, str]] = set()
# Standard modules that ``import ybhecke`` must not load: the records are
# named tuples and plain classes, not dataclasses.
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def private_imports(source: str, importer: str) -> set[tuple[str, str, str]]:
    """(importer, sibling, name) for every underscore name that ``source``
    imports from a module of the package, relatively or by absolute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "ybhecke":
            continue
        sibling = module.split(".")[-1] if module else ""
        for alias in node.names:
            if alias.name.startswith("_"):
                found.add((importer, sibling or alias.name, alias.name))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_private_name_of_a_sibling(path):
    found = private_imports(path.read_text(encoding="utf-8"), path.stem)
    assert found <= ALLOWED, sorted(found - ALLOWED)


def test_the_named_exception_is_the_one_that_exists():
    found = set()
    for path in MODULES:
        found |= private_imports(path.read_text(encoding="utf-8"), path.stem)
    assert not found, sorted(found)


@pytest.mark.parametrize(
    "source, expect",
    [
        ("from .hecke import _spectrum, yb_basis\n", {("cli", "hecke", "_spectrum")}),
        ("from ybhecke.poly import _floor\n", {("cli", "poly", "_floor")}),
        ("from . import _private\n", {("cli", "_private", "_private")}),
        ("from .hecke import yb_basis\nfrom functools import _lru_cache_wrapper\n", set()),
    ],
)
def test_the_scan_sees_relative_and_absolute_imports(source, expect):
    assert private_imports(source, "cli") == expect


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_the_import_scan_sees_both_forms():
    assert imported_modules("import os.path\nfrom dataclasses import field\nfrom . import x\n") == {
        "os", "dataclasses"}


def test_importing_the_package_loads_no_introspection_module():
    # a fresh interpreter, so no test has loaded these modules before
    child = (
        "import sys; before = set(sys.modules); import ybhecke; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ybhecke.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "ybhecke" in added and not added & INTROSPECTION, sorted(added & INTROSPECTION)

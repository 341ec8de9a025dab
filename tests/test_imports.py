"""Every module-level import of the library is used.

Each name a module of `jetforge` binds by a module-level import must be read
in that module, or be imported from it by another module of the package, as
`flags.HodgeData` is re-exported.  `__init__.py`, whose imports are the
package's interface, and `from __future__` imports are exempt.
"""

import ast
import pathlib

import pytest

import jetforge

SOURCE = pathlib.Path(jetforge.__file__).parent
MODULES = sorted(SOURCE.glob("*.py"))


def imported_names(tree):
    """(line, name) for every name bound by a module-level import."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                found.append((node.lineno, name))
    return found


def read_names(tree):
    """The names a module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def reexported(trees):
    """(module, name) for every name a package module imports from a
    sibling by a relative import."""
    pairs = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module:
                pairs.update((node.module, alias.name) for alias in node.names)
    return pairs


def unused_imports(trees):
    """(module, line, name) for every import no module reads or imports."""
    exported = reexported(trees)
    unused = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        read = read_names(tree)
        unused += [(module, line, name) for line, name in imported_names(tree)
                   if name not in read and (module, name) not in exported]
    return unused


@pytest.fixture(scope="module")
def package():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in MODULES}


def test_the_package_has_no_unused_import(package):
    assert len(package) > 10
    assert unused_imports(package) == []


def test_reexports_count_as_uses(package):
    # flags reads HodgeData nowhere; io and the package import it from there
    assert "HodgeData" not in read_names(package["flags"])
    assert ("flags", "HodgeData") in reexported(package)


def test_the_guard_finds_leftovers():
    trees = {
        "a": ast.parse("from __future__ import annotations\n"
                       "import math\nimport os.path\nimport re\n"
                       "from .b import used, shared, left\n"
                       "print(used, os.path.sep)\n"),
        "b": ast.parse("from fractions import Fraction\n"
                       "from itertools import chain as shared\n"
                       "used = left = 1\n"),
        "c": ast.parse("from .b import shared\nshared()\n"),
        "__init__": ast.parse("from .a import math\nimport json\n"),
    }
    assert unused_imports(trees) == [("a", 4, "re"), ("a", 5, "shared"),
                                     ("a", 5, "left"), ("b", 1, "Fraction")]

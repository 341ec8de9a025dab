"""Every private helper of the library is read.

Each module-level function or class of `jetforge` whose name starts with an
underscore, and each such method of a class, must be read somewhere in the
package: called or named in a module, read as an attribute, or imported by
another module.  Dunder names are exempt.  A helper whose last caller went
fails here, as `test_imports` fails an import that nothing reads.
"""

import ast
import pathlib

import pytest

import jetforge

SOURCE = pathlib.Path(jetforge.__file__).parent
MODULES = sorted(SOURCE.glob("*.py"))


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_helpers(trees):
    """(module, qualified name, name) for every private module-level
    function or class, and every private method of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defs) and is_private(node.name):
                found.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(module, f"{node.name}.{item.name}", item.name)
                          for item in node.body
                          if isinstance(item, defs) and is_private(item.name)]
    return found


def read_names(trees):
    """Every name the package reads: loaded names, attributes read, and
    the names one module imports from another."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read.update(alias.name for alias in node.names)
    return read


def dead_helpers(trees):
    """(module, qualified name) for every private helper nothing reads."""
    read = read_names(trees)
    return [(module, qualified)
            for module, qualified, name in private_helpers(trees)
            if name not in read]


@pytest.fixture(scope="module")
def package():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in MODULES}


def test_the_package_has_no_dead_helper(package):
    helpers = private_helpers(package)
    assert len(helpers) > 20
    assert dead_helpers(package) == []


def test_the_guard_finds_leftovers():
    trees = {
        "a": ast.parse(
            "def _called(): pass\n"
            "def _left(): pass\n"
            "def _exported(): pass\n"
            "class _Kept: pass\n"
            "class Table:\n"
            "    def __len__(self): return 0\n"
            "    def _read(self): pass\n"
            "    def _unread(self): pass\n"
            "    def public(self): return self._read(), _called()\n"
            "def helper():\n"
            "    def _nested(): pass\n"
            "    return _Kept\n"),
        "b": ast.parse("from .a import _exported\n"
                       "def _common(): pass\n"
                       "_common = None\n"),
    }
    assert dead_helpers(trees) == [("a", "_left"), ("a", "Table._unread"),
                                   ("b", "_common")]

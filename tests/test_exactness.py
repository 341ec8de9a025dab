"""The library computes in exact arithmetic only.

Every module of `jetforge` is parsed and searched for float or complex
literals, for the names `float` and `complex` and for `cmath`.  The one
exception is the seeded generators of `verify.py`, which draw a term with a
float probability: a literal compared with `rng.random()`, or bound to a
parameter that is.
"""

import ast
import pathlib

import pytest

import jetforge

SOURCE = pathlib.Path(jetforge.__file__).parent
MODULES = sorted(SOURCE.glob("*.py"))


def is_draw(node):
    """Whether a node is the call rng.random()."""
    return (isinstance(node, ast.Call) and not node.args
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "random"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "rng")


def probabilities(tree):
    """The float literals that are probabilities of a seeded draw."""
    compares = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and is_draw(node.left)]
    allowed = {id(c) for node in compares for c in node.comparators}
    names = {c.id for node in compares for c in node.comparators
             if isinstance(c, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg in names:
            allowed.add(id(node.value))
        elif isinstance(node, ast.FunctionDef):
            params = node.args.args[len(node.args.args)
                                    - len(node.args.defaults):]
            allowed.update(id(default) for p, default
                           in zip(params, node.args.defaults)
                           if p.arg in names)
    return allowed


def inexact(path):
    """(line, what) for every inexact construct in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = probabilities(tree) if path.name == "verify.py" else set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)) and id(node) not in allowed:
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id in (
                "float", "complex", "cmath"):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, "import cmath") for alias in node.names
                         if alias.name == "cmath")
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            found.append((node.lineno, "from cmath import"))
    return found


def test_every_module_is_scanned():
    assert {"connection.py", "series.py", "verify.py"} <= \
        {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_is_exact(path):
    assert inexact(path) == []


def test_the_guard_finds_each_construct(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import cmath\n"
                    "from cmath import sqrt\n"
                    "x = 1.5\n"
                    "y = 2j\n"
                    "z = float(x) + complex(y)\n")
    assert sorted(inexact(path)) == [
        (1, "import cmath"), (2, "from cmath import"), (3, "1.5"),
        (4, "2j"), (5, "complex"), (5, "float")]


def test_probabilities_are_allowed_in_the_generators_only(tmp_path):
    text = ("def draw(rng, density=0.6):\n"
            "    return rng.random() < density or rng.random() < 0.5\n"
            "draw(None, density=0.8)\n"
            "scale = 0.25\n")
    for name, count in (("verify.py", 1), ("other.py", 4)):
        path = tmp_path / name
        path.write_text(text)
        assert len(inexact(path)) == count

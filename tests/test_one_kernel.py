"""Every sum and product of series runs one kernel, and every substitution
into monomials one walker.

In `series`, the kernel `_combined` is the only reader of `mul_terms`, the
product of two tables, and `__pow__` the only reader of `pow_terms`; the
module imports none of the other sums of tables of `poly` (`add_terms`,
`add_fractions`, `scale_fraction`), which serve `Polynomial`.  The monomial
walker `_monomials` is defined in `poly` alone, where `evaluate_in` reads
it, and `series` imports it from there for `series_compose_all`.  The
modules are parsed and searched for every read of those names, for the
functions they define and for what they import, so a second path for a sum
or a product of series, or a second walker, fails here.
"""

import ast
import pathlib

import jetforge

SERIES = pathlib.Path(jetforge.__file__).parent / "series.py"
POLY = SERIES.parent / "poly.py"
READERS = {("_combined", "mul_terms"), ("__pow__", "pow_terms")}
REFUSED = {"add_terms", "add_fractions", "scale_fraction"}
GUARDED = {name for _, name in READERS} | REFUSED
WALKER = "_monomials"


def reads(tree, names):
    """(function, name) for each read of one of `names` in a parsed module,
    the function the innermost def around it (None at module level)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            name = child.id if isinstance(child, ast.Name) else \
                child.attr if isinstance(child, ast.Attribute) else None
            if name in names:
                found.add((owner, name))
            visit(child, owner)

    visit(tree, None)
    return found


def kernel_reads(path):
    """The reads of the guarded names in a module (see `reads`), and the
    guarded names the module imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    return reads(tree, GUARDED), imported & GUARDED


def walker_uses(path):
    """(the functions a module defines, the functions that read the walker,
    the names it imports from `poly`)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {node.name for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    from_poly = {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and node.level == 1 and node.module == "poly"
                 for alias in node.names}
    return defined, {owner for owner, _ in reads(tree, {WALKER})}, from_poly


def test_series_sums_and_products_run_one_kernel():
    found, imported = kernel_reads(SERIES)
    assert found == READERS
    assert imported == {"mul_terms", "pow_terms"}


def test_the_scan_finds_a_second_path(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from .poly import add_fractions, mul_terms, pow_terms\n"
        "from . import poly\n"
        "def _combined(a, b):\n"
        "    return mul_terms(a, b)\n"
        "class S:\n"
        "    def __pow__(self, n):\n"
        "        return pow_terms(self, n)\n"
        "    def __mul__(self, other):\n"
        "        def inner(x):\n"
        "            return poly.scale_fraction(x, 1, 2)\n"
        "        return mul_terms(self, other), inner\n"
        "    def __add__(self, other):\n"
        "        return add_fractions(self, 1, other, 1)\n")
    found, imported = kernel_reads(path)
    assert found - READERS == {("__mul__", "mul_terms"),
                               ("inner", "scale_fraction"),
                               ("__add__", "add_fractions")}
    assert imported == {"add_fractions", "mul_terms", "pow_terms"}


def test_one_walker_substitutes_into_monomials():
    defined, readers, from_poly = walker_uses(SERIES)
    assert WALKER not in defined and WALKER in from_poly
    assert readers == {"series_compose_all"}
    defined, readers, _ = walker_uses(POLY)
    assert WALKER in defined and "evaluate_terms" not in defined
    assert readers == {"evaluate_in"}


def test_the_scan_finds_a_second_walker(tmp_path):
    series, poly = tmp_path / "series.py", tmp_path / "poly.py"
    series.write_text(
        "from .poly import mul_terms\n"
        "from .scheme import _monomials\n"
        "def _monomials(keys, arity, values, one):\n"
        "    return {0: one}\n"
        "def series_compose_all(fs, jet):\n"
        "    return _monomials(fs, 1, jet, 1)\n")
    poly.write_text(
        "def _monomials(keys, arity, values, one):\n"
        "    return {0: one}\n"
        "def evaluate_terms(terms, arity, values, one):\n"
        "    return _monomials(terms, arity, values, one)\n"
        "class Polynomial:\n"
        "    def evaluate_in(self, values, one):\n"
        "        return evaluate_terms(self, 1, values, one)\n")
    defined, readers, from_poly = walker_uses(series)
    assert WALKER in defined and from_poly == {"mul_terms"}
    assert readers == {"series_compose_all"}
    defined, readers, _ = walker_uses(poly)
    assert {WALKER, "evaluate_terms"} <= defined
    assert readers == {"evaluate_terms"}

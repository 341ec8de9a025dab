"""Every sum and product of series runs one kernel.

In `series`, the kernel `_combined` is the only reader of `mul_terms`, the
product of two tables, and `__pow__` the only reader of `pow_terms`; the
module imports none of the other sums of tables of `poly` (`add_terms`,
`add_fractions`, `scale_fraction`), which serve `Polynomial`.  The module
is parsed and searched for every read of those names and for what it
imports, so a second path for a sum or a product of series fails here.
"""

import ast
import pathlib

import jetforge

SERIES = pathlib.Path(jetforge.__file__).parent / "series.py"
READERS = {("_combined", "mul_terms"), ("__pow__", "pow_terms")}
REFUSED = {"add_terms", "add_fractions", "scale_fraction"}
GUARDED = {name for _, name in READERS} | REFUSED


def kernel_reads(path):
    """(function, name) for each read of a guarded name in a module, the
    function the innermost def around it (None at module level), and the
    guarded names the module imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            name = child.id if isinstance(child, ast.Name) else \
                child.attr if isinstance(child, ast.Attribute) else None
            if name in GUARDED:
                found.add((owner, name))
            visit(child, owner)

    visit(tree, None)
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    return found, imported & GUARDED


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

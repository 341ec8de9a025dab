"""Every sum and product of series runs one kernel, every substitution
into monomials one walker, and every Taylor sum one function.

In `series`, the kernel `_combined` is the only reader of `mul_terms`, the
product of two tables, and `__pow__` the only reader of `pow_terms`; the
module imports none of the other sums of tables of `poly` (`add_terms`,
`add_fractions`, `scale_fraction`), which serve `Polynomial`.  The monomial
walker `_monomials` is defined in `poly` alone, where `evaluate_in` reads
it, and `series` imports it from there for `series_compose_all`.  The
Taylor sum sum_q X_q w_q is `series.taylor_sum` alone, which `beta`'s
Taylor part, `alpha` and the Taylor route of `scheme` import and read.  The
modules are parsed and searched for every read of those names, for the
functions they define and for what they import, so a second path for a sum
or a product of series, a second walker or a second Taylor sum fails here.
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
TAYLOR_SUM = "taylor_sum"
# the one reader of the Taylor sum in each module that forms one
TAYLOR_READERS = {"connection.py": "_taylor_part", "flags.py": "alpha",
                  "scheme.py": "_taylor_compose_all"}


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


def uses(path, name, source):
    """(the functions a module defines, the functions that read `name`, the
    names it imports from its sibling module `source`)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {node.name for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.level == 1 and node.module == source
                for alias in node.names}
    return defined, {owner for owner, _ in reads(tree, {name})}, imported


def walker_uses(path):
    """`uses` of the walker, imported from `poly`."""
    return uses(path, WALKER, "poly")


def taylor_sums(package):
    """The modules of a package directory that define a Taylor sum, and for
    each module of `TAYLOR_READERS` there: (the functions that read
    `taylor_sum`, whether it imports `taylor_sum` from `series`, whether it
    defines `_taylor_compose`)."""
    defining = {path.name for path in package.glob("*.py")
                if TAYLOR_SUM in uses(path, TAYLOR_SUM, "series")[0]}
    callers = {}
    for name in TAYLOR_READERS:
        defined, readers, from_series = uses(package / name, TAYLOR_SUM,
                                             "series")
        callers[name] = (readers, TAYLOR_SUM in from_series,
                         "_taylor_compose" in defined)
    return defining, callers


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


def test_one_taylor_sum():
    defining, callers = taylor_sums(SERIES.parent)
    assert defining == {"series.py"}
    assert callers == {name: ({reader}, True, False)
                       for name, reader in TAYLOR_READERS.items()}


def test_the_scan_finds_a_second_taylor_sum(tmp_path):
    (tmp_path / "series.py").write_text(
        "def taylor_sum(weight, dims, order, partials):\n"
        "    return ()\n")
    (tmp_path / "connection.py").write_text(
        "from .series import taylor_sum\n"
        "def taylor_sum(sigma, matrix):\n"
        "    return ()\n"
        "def _taylor_part(chart, sigma, table):\n"
        "    return taylor_sum(sigma, None)\n")
    (tmp_path / "flags.py").write_text(
        "from .connection import taylor_sum\n"
        "def alpha(chart, sigma, matrix):\n"
        "    return taylor_sum(sigma, matrix)\n")
    (tmp_path / "scheme.py").write_text(
        "from . import series\n"
        "def _taylor_compose(f, sigma, weight):\n"
        "    return f\n"
        "def _taylor_compose_all(polys, sigma, weight):\n"
        "    return [_taylor_compose(f, sigma, weight) for f in polys]\n"
        "def jet_prolong_universal(g, d, r):\n"
        "    return series.taylor_sum(None, d, r, [])\n")
    defining, callers = taylor_sums(tmp_path)
    assert defining == {"series.py", "connection.py"}
    assert callers == {"connection.py": ({"_taylor_part"}, True, False),
                       "flags.py": ({"alpha"}, False, False),
                       "scheme.py": ({"jet_prolong_universal"}, False, True)}

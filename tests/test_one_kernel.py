"""Every sum and product of polynomials and of series runs one table
kernel, every substitution into monomials one walker, and every Taylor sum
one function.

`poly._sum_terms` is the one table kernel: the sum of products and scaled
tables over one common denominator.  In `poly` its readers are
`Polynomial._sum`, behind `+`, `-` and `__rsub__`, and `Polynomial.__mul__`;
in `series` it is `_combined`, the entry of every sum and product of series.
A table sum adds numerators into a table and deletes a key whose sum
cancels, `del table[key]`: in `poly` only the kernel, the product
`mul_terms` it runs (which `pow_terms` and `taylor_shift` run too),
`fraction_table`, which sums the terms of input, and `rename_into`, which
sums the terms a renaming sends to one key, do, and in `series` no
function does; no other module reads a stored table.  `add_terms`,
`add_fractions` and `scale_fraction`, the sums that served `Polynomial`
beside the kernel, are gone from every module.  The monomial walker
`_monomials` is defined in `poly` alone, where `evaluate_in` reads it, and
`series` imports it from there for `series_compose_all`.  The Taylor sum
sum_q X_q w_q is `series.taylor_sum` alone, which `beta`'s Taylor part,
`alpha` and the Taylor route of `scheme` import and read.  The modules are
parsed and searched for every read of those names, for the functions they
define and for what they import, so a second sum or product of tables, a
second walker or a second Taylor sum fails here.
"""

import ast
import pathlib

import jetforge

SERIES = pathlib.Path(jetforge.__file__).parent / "series.py"
POLY = SERIES.parent / "poly.py"
KERNEL = "_sum_terms"
# (function, name) for each read of a guarded name, by module
READERS = {
    "poly.py": {("_sum", KERNEL), ("__mul__", KERNEL),
                (KERNEL, "mul_terms"), ("pow_terms", "mul_terms"),
                ("taylor_shift", "mul_terms"), ("__pow__", "pow_terms")},
    "series.py": {("_combined", KERNEL), ("__pow__", "pow_terms")}}
# the functions that sum into a table, by module
SUMS = {"poly.py": {KERNEL, "mul_terms", "fraction_table", "rename_into"},
        "series.py": set()}
REFUSED = {"add_terms", "add_fractions", "scale_fraction"}
GUARDED = {KERNEL, "mul_terms", "pow_terms"} | REFUSED
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


def table_sums(tree):
    """The functions of a parsed module that delete a subscripted entry,
    as a sum into a table drops a key whose sum cancels."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(target, ast.Subscript)
                    for inner in ast.walk(node)
                    if isinstance(inner, ast.Delete)
                    for target in inner.targets)}


def kernel_reads(path):
    """The reads of the guarded names in a module (see `reads`), the
    guarded names it imports, the functions of it that sum into a table
    and the refused names it defines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    defined = {node.name for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return (reads(tree, GUARDED), imported & GUARDED, table_sums(tree),
            defined & REFUSED)


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


def test_polynomials_and_series_run_one_table_kernel():
    found = {path.name: kernel_reads(path)
             for path in sorted(POLY.parent.glob("*.py"))}
    assert len(found) > 10
    assert found["poly.py"] == (READERS["poly.py"], set(), SUMS["poly.py"],
                                set())
    assert found["series.py"] == (READERS["series.py"], {KERNEL, "pow_terms"},
                                  set(), set())
    # no other module, none of which reads a stored table, reads, imports
    # or defines a sum of tables
    assert {name: (reads_, imported, refused)
            for name, (reads_, imported, _, refused) in found.items()
            if name not in READERS and (reads_ or imported or refused)} == {}


def test_the_scan_finds_a_second_path(tmp_path):
    poly, series = tmp_path / "poly.py", tmp_path / "series.py"
    poly.write_text(
        "def mul_terms(a, b):\n"
        "    return {}\n"
        "def _sum_terms(terms, den):\n"
        "    out = {}\n"
        "    del out[0]\n"
        "    return mul_terms(out, out)\n"
        "def add_terms(a, b):\n"
        "    out = dict(a)\n"
        "    for p, c in b.items():\n"
        "        del out[p]\n"
        "    return out\n"
        "class Polynomial:\n"
        "    def _sum(self, x, other, y):\n"
        "        return _sum_terms([], 1)\n"
        "    def __mul__(self, other):\n"
        "        return mul_terms(self, other)\n")
    series.write_text(
        "from .poly import add_fractions, _sum_terms, mul_terms, pow_terms\n"
        "from . import poly\n"
        "def _combined(dims, order, terms):\n"
        "    return _sum_terms(terms, 1)\n"
        "class S:\n"
        "    def __pow__(self, n):\n"
        "        return pow_terms(self, n)\n"
        "    def __mul__(self, other):\n"
        "        def inner(x):\n"
        "            return poly.scale_fraction(x, 1, 2)\n"
        "        return mul_terms(self, other), inner\n"
        "    def __add__(self, other):\n"
        "        out = {}\n"
        "        for p, n in other.items():\n"
        "            del out[p]\n"
        "        return add_fractions(self, 1, other, 1)\n")
    reads_, imported, sums, refused = kernel_reads(poly)
    assert reads_ - READERS["poly.py"] == {("__mul__", "mul_terms")}
    assert READERS["poly.py"] - reads_ == {
        ("__mul__", KERNEL), ("pow_terms", "mul_terms"),
        ("taylor_shift", "mul_terms"), ("__pow__", "pow_terms")}
    assert imported == set()
    assert sums - SUMS["poly.py"] == {"add_terms"}
    assert refused == {"add_terms"}
    reads_, imported, sums, refused = kernel_reads(series)
    assert reads_ - READERS["series.py"] == {
        ("__mul__", "mul_terms"), ("inner", "scale_fraction"),
        ("__add__", "add_fractions")}
    assert imported == {"add_fractions", KERNEL, "mul_terms", "pow_terms"}
    assert sums == {"__add__"}
    assert refused == set()


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

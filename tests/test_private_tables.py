"""Only `poly` and `series` touch the stored form of their values.

A `Polynomial` or a `TruncatedSeries` keeps its coefficients as a packed
integer table `_table` over one denominator `_den`, in `_arity` coefficient
variables (see `poly` and `series`).  Every other module works through
their public operations, so a loop over stored tables, such as the Euler
solver's or the flatness test's, stays in `series`: each module of the
package is parsed and searched for a read or a write of those attributes.
"""

import ast
import pathlib

import jetforge

SOURCE = pathlib.Path(jetforge.__file__).parent
OWNERS = {"poly.py", "series.py"}
STORED = {"_table", "_den", "_arity"}


def stored_reads(path):
    """The lines of a module that read or write a stored-form attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in STORED)


def test_no_other_module_reads_a_stored_form():
    found = {path.name: stored_reads(path)
             for path in sorted(SOURCE.glob("*.py"))
             if path.name not in OWNERS}
    assert len(found) >= 10
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_owners_read_them():
    for name in OWNERS:
        assert stored_reads(SOURCE / name)


def test_the_scan_finds_stored_reads(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def f(s, g):\n"
        "    table = s._table\n"
        "    return [g(x._den, x.arity) for x in table], s.table\n"
        "def h(s):\n"
        "    s._arity = 0\n")
    assert stored_reads(path) == [2, 3, 5]

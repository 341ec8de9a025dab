"""Only `poly` and `series` know the stored form of their tables.

The packed exponent keys of `Polynomial` and `TruncatedSeries` tables are
read and written by those two modules alone: every other module of
`jetforge` is parsed and searched for a `._table` attribute.
"""

import ast
import pathlib

import pytest

import jetforge

SOURCE = pathlib.Path(jetforge.__file__).parent
OWNERS = {"poly.py", "series.py"}
OTHERS = sorted(path for path in SOURCE.glob("*.py")
                if path.name not in OWNERS)


def table_reads(path):
    """The lines of a module that name a `_table` attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_table"]


def test_the_owners_are_where_the_scan_expects_them():
    assert OWNERS <= {path.name for path in SOURCE.glob("*.py")}
    assert {"connection.py", "ratfunc.py", "scheme.py"} <= \
        {path.name for path in OTHERS}


@pytest.mark.parametrize("path", OTHERS, ids=lambda path: path.name)
def test_no_other_module_reads_a_table(path):
    assert table_reads(path) == []


def test_the_scan_finds_a_read(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("def f(p):\n    return p._table == {}\n")
    assert table_reads(path) == [2]

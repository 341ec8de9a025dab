"""`connection` expands the chart's coefficients in batches.

Each evaluator of `connection` expands every nonzero coefficient it reads
along its jet in one call of `RationalFunction.eval_all_on_jet`, which
inverts each distinct denominator once.  A call of `eval_on_jet`, or a
batch of one repeated by a loop, would invert a shared denominator once
per entry again: the module is parsed and searched for both.
"""

import ast
import pathlib

import jetforge

CONNECTION = pathlib.Path(jetforge.__file__).parent / "connection.py"
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def per_entry_expansions(path):
    """The lines of a module that expand functions along a jet one at a
    time: a call of `eval_on_jet`, or a call of `eval_all_on_jet` inside a
    loop body or a comprehension, other than as the iterable that the loop
    or the comprehension's first clause reads once."""
    found = []

    def visit(node, repeated):
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            name = node.func.attr
            if name == "eval_on_jet" or (name == "eval_all_on_jet"
                                         and repeated):
                found.append(node.lineno)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            visit(node.iter, repeated)
            once, again = [], [node.target, *node.body, *node.orelse]
        elif isinstance(node, ast.While):
            once, again = [], list(ast.iter_child_nodes(node))
        elif isinstance(node, COMPREHENSIONS):
            first, *rest = node.generators
            visit(first.iter, repeated)
            once, again = [], [child for child in ast.iter_child_nodes(node)
                               if child is not first]
            again += [first.target, *first.ifs]
        else:
            once, again = list(ast.iter_child_nodes(node)), []
        for child in once:
            visit(child, repeated)
        for child in again:
            visit(child, True)

    visit(ast.parse(path.read_text(), filename=str(path)), False)
    return found


def test_connection_expands_no_entry_on_its_own():
    assert per_entry_expansions(CONNECTION) == []


def test_connection_expands_in_batches():
    # series_oracle and check_flatness, along sigma; the values at a base
    # point read the Taylor coefficients of the chart's polynomial data
    # from `poly.taylor_shift` and expand nothing along a jet
    tree = ast.parse(CONNECTION.read_text())
    batches = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "eval_all_on_jet"]
    assert len(batches) == 2


def test_the_scan_finds_per_entry_expansions(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def f(row, fs, s, R):\n"
        "    for rf in row:\n"
        "        rf.eval_on_jet(s)\n"
        "    a = [R.eval_all_on_jet([rf], s) for rf in row]\n"
        "    for x in zip(fs, R.eval_all_on_jet(fs, s)):\n"
        "        pass\n"
        "    b = [x for x in R.eval_all_on_jet(fs, s)]\n"
        "    while fs:\n"
        "        R.eval_all_on_jet(fs, s)\n"
        "    return [g.eval_on_jet(s) for g in fs]\n")
    assert per_entry_expansions(path) == [3, 4, 9, 10]

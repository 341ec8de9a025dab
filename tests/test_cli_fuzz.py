"""Fuzz of the exit-code contract: mutated JSON never ends in a traceback.

Each example starts from valid documents (the exported Legendre chart, a
small jet on it, a flag jet, the initial matrix, a scheme and a map), edits
one to three nodes (replace, delete or repeat) and runs one CLI command on
them.  Every run must return 0, 1, 2 or 3; an escaping exception fails.
Integers are drawn small, so no run builds a large jet.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import jetforge.io as jio
from jetforge.cli import run
from jetforge.examples import legendre_chart

JET = {"d": 1, "r": 2, "series": ["1/2 + 1 * t1^1"]}
INIT = [["1", "0"], ["0", "1/4"]]
FLAG = {"chart": [[0]], "coords": {"w_1_0": "-8 * t1^1 + 8 * t1^2"}, "d": 1,
        "hodge": {"filtration_dims": [2, 1], "m": 2,
                  "polarization": [[0, 1], [-1, 0]], "weight": 1},
        "r": 2}
SCHEME = {"n": 2, "variables": ["x", "y"], "generators": ["x^2 + y^2 - 1"]}
MAP = {"n": 1, "m": 1, "variables": ["x"], "components": ["x^2"]}
DOCUMENTS = {"chart": jio.chart_to_json(legendre_chart()), "jet": JET,
             "init": INIT, "flag": FLAG, "scheme": SCHEME, "map": MAP}

# the documents each command reads, and how it is called on them
COMMANDS = {
    "beta": ("chart", "jet", "init"),
    "alpha": ("chart", "jet", "init"),
    "hr1": ("chart", "flag"),
    "fv": ("chart", "init"),
    "membership": ("scheme", "jet"),
    "nondeg": ("jet",),
    "jetspace": ("scheme",),
    "prolong": ("map",),
}

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.sampled_from(["", "0", "1", "-1/2", "1/0", "x", "z1", "t1", "t1^-1",
                     "1e-3 * t1^1", "z1^2 - 1", "w_9_9", "xe-y", "abc",
                     "1e999999", "3/0", "\u0663", "x^\u0663", "1_0", "--x",
                     "+-"]),
    st.text(alphabet="xyzt1209^*+-/. e_(", max_size=8),
    st.just([]), st.just({}), st.just([[1, 2]]),
    st.lists(st.integers(-1, 2), max_size=3))


@st.composite
def mutated(draw, value):
    """A copy of a JSON value with one node replaced, deleted or repeated."""
    if not (isinstance(value, (dict, list)) and value) \
            or not draw(st.integers(0, 3)):
        return draw(LEAVES)
    action = draw(st.integers(0, 5))
    if isinstance(value, dict):
        key = draw(st.sampled_from(sorted(value)))
        out = dict(value)
        if action == 0:
            del out[key]
        else:
            out[key] = draw(mutated(value[key]))
        return out
    i = draw(st.integers(0, len(value) - 1))
    out = list(value)
    if action == 0:
        del out[i]
    elif action == 1:
        out.append(value[i])
    else:
        out[i] = draw(mutated(value[i]))
    return out


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    names = COMMANDS[command]
    docs = {name: DOCUMENTS[name] for name in names}
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(names))
        docs[name] = draw(mutated(docs[name]))
    orders = (draw(st.integers(-1, 2)), draw(st.integers(-1, 2)))
    return command, docs, orders


def argv_for(command, docs, orders, folder):
    def path(name):
        target = Path(folder) / f"{name}.json"
        target.write_text(json.dumps(docs[name]))
        return str(target)

    inline = {name: json.dumps(value) for name, value in docs.items()}
    d, r = (str(x) for x in orders)
    if command in ("beta", "alpha"):
        return [command, "--connection", path("chart"), "--jet",
                inline["jet"], "--init", inline["init"], "-r", r]
    if command == "hr1":
        return [command, "--connection", path("chart"), "--flag",
                inline["flag"]]
    if command == "fv":
        return [command, "--connection", path("chart"), "--point", "[\"1/2\"]",
                "--matrix", inline["init"]]
    if command == "membership":
        return [command, "--scheme", path("scheme"), "--jet", inline["jet"]]
    if command == "nondeg":
        return [command, "--jet", inline["jet"]]
    if command == "jetspace":
        return [command, "--scheme", path("scheme"), "-d", d, "-r", r]
    return [command, "--map", path("map"), "-d", d, "-r", r]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cases())
def test_cli_exit_codes_on_mutated_json(case):
    command, docs, orders = case
    with tempfile.TemporaryDirectory() as folder:
        argv = argv_for(command, docs, orders, folder)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    assert code in (0, 1, 2, 3)

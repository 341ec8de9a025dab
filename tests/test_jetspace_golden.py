"""Byte-for-byte pins on the CLI `jetspace` and `prolong` outputs, by both
routes, for the circle and a few seeded schemes and maps.

The outputs are the JSON of an AffineScheme and an AffineMap in jet
coordinates.  Polynomial text is canonical, so the two routes print the
same bytes; each route is pinned on its own all the same.  To rewrite the
golden file after a deliberate change of output:

    PYTHONPATH=src python3 tests/test_jetspace_golden.py
"""

import contextlib
import io
import json
import pathlib
import random
import tempfile

from jetforge import io as jio
from jetforge.cli import run
from jetforge.poly import Polynomial
from jetforge.scheme import AffineMap, AffineScheme
from jetforge.verify import random_affine_map, random_scheme

GOLDEN = pathlib.Path(__file__).parent / "golden" / "jet_spaces.json"

CIRCLE = AffineScheme(2, [Polynomial(2, {(2, 0): 1, (0, 2): 1, (0, 0): -1})],
                      names=("x", "y"))
# the circle parametrization numerators ((1 - u^2), 2u), as a map A^1 -> A^2
CURVE = AffineMap(1, 2, [Polynomial(1, {(0,): 1, (2,): -1}),
                         Polynomial(1, {(1,): 2})])
SHAPES = ((1, 0), (1, 2), (2, 1), (2, 2))


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert code == 0, argv
    return out.getvalue()


def golden_inputs():
    """(command, file flag, name, input JSON) of every pinned input."""
    inputs = [("jetspace", "--scheme", "circle", jio.scheme_to_json(CIRCLE)),
              ("prolong", "--map", "circle numerators",
               jio.affine_map_to_json(CURVE))]
    for seed in (1, 2, 3):
        inputs.append(("jetspace", "--scheme", f"random_scheme(seed {seed})",
                       jio.scheme_to_json(random_scheme(random.Random(seed)))))
        inputs.append(("prolong", "--map", f"random_affine_map(seed {seed})",
                       jio.affine_map_to_json(
                           random_affine_map(random.Random(seed)))))
    return inputs


def golden_outputs():
    """The stdout of each run, one canonical JSON line, by a name that
    gives the command, input, shape and route."""
    outputs = {}
    with tempfile.TemporaryDirectory() as workdir:
        for index, (command, flag, name, data) in enumerate(golden_inputs()):
            path = pathlib.Path(workdir) / f"input{index}.json"
            path.write_text(json.dumps(data))
            for d, r in SHAPES:
                argv = [command, flag, str(path), "-d", str(d), "-r", str(r)]
                outputs[f"{command} {name}, d = {d}, r = {r}, direct"] = \
                    _cli(argv)
                outputs[f"{command} {name}, d = {d}, r = {r}, universal"] = \
                    _cli(argv + ["--universal"])
    return outputs


def golden_text(outputs):
    return jio.canonical_dumps({name: json.loads(line)
                                for name, line in outputs.items()}) + "\n"


def test_jetspace_and_prolong_outputs_match_golden():
    outputs = golden_outputs()
    for line in outputs.values():
        assert line == jio.canonical_dumps(json.loads(line)) + "\n"
    assert golden_text(outputs) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text(golden_outputs()))

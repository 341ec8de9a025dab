"""Byte-for-byte pin on `jetforge verify` over the built-in examples.

Each entry holds the exit code and the canonical stdout report of
`jetforge verify --connection <example> --seed <s>` with the default
--max-order and --cases, for seeds 0 to 2.  To rewrite the golden file
after a deliberate change of output:

    PYTHONPATH=src python3 tests/test_verify_golden.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

from jetforge import io as jio
from jetforge.cli import run
from jetforge.examples import builtin_examples

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_reports.json"
SEEDS = (0, 1, 2)


def golden_outputs():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, example in sorted(builtin_examples().items()):
            path = pathlib.Path(tmp) / f"{name}.json"
            chart = jio.chart_to_json(example.chart)
            path.write_text(jio.canonical_dumps(chart))
            for seed in SEEDS:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run(["verify", "--connection", str(path),
                                "--seed", str(seed)])
                text = stdout.getvalue()
                report = json.loads(text)
                assert text == jio.canonical_dumps(report) + "\n"
                out[f"{name} --seed {seed}"] = {"exit": code, "report": report}
    return out


def golden_text():
    return jio.canonical_dumps(golden_outputs()) + "\n"


def test_verify_reports_match_golden(monkeypatch):
    monkeypatch.delenv("JETFORGE_SEED", raising=False)
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())

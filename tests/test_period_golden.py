"""Byte-for-byte pins on the outputs that invert matrices: period systems
(the inverse Gram matrix over rational functions) and alpha flag jets (the
inverse of a flat-frame jet).

Multivariate rational functions are not reduced by a gcd, so their text
shows the elimination order even where `==` would not.  To rewrite the
golden file after a deliberate change of output:

    PYTHONPATH=src python3 tests/test_period_golden.py
"""

import pathlib
import random
from fractions import Fraction

from jetforge import io as jio
from jetforge.connection import period_system
from jetforge.examples import builtin_examples, legendre_chart
from jetforge.flags import alpha
from jetforge.linalg import identity
from jetforge.series import JetPoint, TruncatedSeries
from jetforge.verify import random_flat_chart

GOLDEN = pathlib.Path(__file__).parent / "golden" / "period_systems.json"


def golden_outputs():
    charts = {name: ex.chart for name, ex in builtin_examples().items()}
    charts["random_flat_chart(seed 1, m 3, n 2)"] = random_flat_chart(
        random.Random(1), 3, 2).chart
    legendre = legendre_chart()
    flags = {}
    for base in (Fraction(1, 2), Fraction(2)):
        for r in range(5):
            sigma = JetPoint([TruncatedSeries(1, r, {(0,): base, (1,): 1})])
            flags[f"z = {base}, r = {r}"] = jio.flagjet_to_json(
                alpha(legendre, sigma, identity(2)))
    return {"period_system": {name: jio.chart_to_json(period_system(chart))
                              for name, chart in charts.items()},
            "legendre_alpha": flags}


def golden_text():
    return jio.canonical_dumps(golden_outputs()) + "\n"


def test_period_systems_and_alpha_flags_match_golden():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())

import json
import random
from fractions import Fraction

import pytest

import jetforge.io as jio
from jetforge.connection import MatrixJet
from jetforge.errors import InputError
from jetforge.examples import legendre_chart, nilpotent_chart
from jetforge.flags import HodgeData, alpha, flag_of_matrix
from jetforge.poly import Polynomial, graded_monomials
from jetforge.scheme import AffineMap, AffineScheme
from jetforge.series import JetPoint, TruncatedSeries
from jetforge.verify import rand_poly, random_flat_chart


def rand_jet(rng, n, d, r):
    return JetPoint([
        TruncatedSeries(d, r, {mono: Fraction(rng.randint(-4, 4),
                                              rng.randint(1, 3))
                               for mono in graded_monomials(d, r)
                               if rng.random() < 0.7})
        for _ in range(n)])


def test_fraction_round_trip():
    for x in (Fraction(3), Fraction(-7, 2), Fraction(0)):
        assert jio.fraction_from_str(jio.fraction_to_str(x)) == x
    with pytest.raises(InputError):
        jio.fraction_from_str("x")


def test_jet_round_trip():
    rng = random.Random(1)
    for _ in range(10):
        jet = rand_jet(rng, rng.randint(1, 3), rng.randint(1, 2),
                       rng.randint(0, 4))
        data = jio.jet_to_json(jet)
        assert jio.jet_from_json(json.loads(json.dumps(data))) == jet


def test_matrixjet_round_trip():
    rng = random.Random(2)
    jet0 = rand_jet(rng, 4, 1, 3)
    entries = [[jet0.series[0] + TruncatedSeries.const(3, 1, 3),
                jet0.series[1]],
               [jet0.series[2],
                jet0.series[3] + TruncatedSeries.const(2, 1, 3)]]
    mjet = MatrixJet(entries)
    assert jio.matrixjet_from_json(jio.matrixjet_to_json(mjet)) == mjet


def test_scheme_and_map_round_trip():
    rng = random.Random(3)
    scheme = AffineScheme(2, [rand_poly(rng, 2, 3), rand_poly(rng, 2, 2)],
                          names=("x", "y"))
    back = jio.scheme_from_json(jio.scheme_to_json(scheme))
    assert back.n == scheme.n
    assert back.equations == scheme.equations
    amap = AffineMap(2, 3, [rand_poly(rng, 2, 2) for _ in range(3)])
    back = jio.affine_map_from_json(jio.affine_map_to_json(amap))
    assert back.components == amap.components


def test_chart_round_trip_is_bit_exact():
    for chart in (legendre_chart(), nilpotent_chart()):
        data = jio.chart_to_json(chart)
        text = jio.canonical_dumps(data)
        again = jio.chart_from_json(json.loads(text))
        assert jio.canonical_dumps(jio.chart_to_json(again)) == text
        for i in range(chart.m):
            for j in range(chart.m):
                for l in range(chart.n):
                    assert again.coeffs[i][j][l] == chart.coeffs[i][j][l]
        assert again.hodge == chart.hodge


def test_random_two_variable_chart_round_trip():
    rng = random.Random(9)
    chart = random_flat_chart(rng, 3, 2).chart
    data = jio.chart_to_json(chart)
    text = jio.canonical_dumps(data)
    again = jio.chart_from_json(json.loads(text))
    assert jio.canonical_dumps(jio.chart_to_json(again)) == text
    for i in range(3):
        for j in range(3):
            for l in range(2):
                assert again.coeffs[i][j][l] == chart.coeffs[i][j][l]


def test_chart_examples_block():
    data = jio.chart_to_json(legendre_chart(),
                             examples={"base": (Fraction(1, 2),)})
    parsed = jio.chart_examples_from_json(data)
    assert parsed == {"base": (Fraction(1, 2),)}


def test_flagjet_round_trip():
    chart = nilpotent_chart()
    sigma = JetPoint([TruncatedSeries(1, 3, {(1,): 1})])
    flag = alpha(chart, sigma, [[Fraction(1), 0], [Fraction(2), Fraction(1)]])
    data = jio.flagjet_to_json(flag)
    assert jio.flagjet_from_json(json.loads(json.dumps(data))) == flag


def test_constant_flag_round_trip():
    hodge = HodgeData(3, 2, (3, 2, 1), [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    flag = flag_of_matrix(hodge, [[2, 1, 0], [1, 1, 1], [0, 3, 1]])
    data = jio.flagjet_to_json(flag)
    assert jio.flagjet_from_json(data) == flag


@pytest.mark.parametrize("key", ["w_x_0", "w_1", "v_1_0", "w_-1_0"])
def test_malformed_flag_key(key):
    data = jio.flagjet_to_json(flag_of_matrix(
        HodgeData(2, 1, (2, 1), [[0, 1], [-1, 0]]), [[1, 0], [2, 1]]))
    data["coords"][key] = "0"
    with pytest.raises(InputError, match="bad coordinate key"):
        jio.flagjet_from_json(data)


@pytest.mark.parametrize("key", ["w_1_5", "w_0_0"])
def test_flag_coordinate_outside_representative(key):
    data = jio.flagjet_to_json(flag_of_matrix(
        HodgeData(2, 1, (2, 1), [[0, 1], [-1, 0]]), [[1, 0], [2, 1]]))
    data["coords"][key] = "1"
    with pytest.raises(InputError, match="echelon representative"):
        jio.flagjet_from_json(data)


def test_malformed_inputs():
    with pytest.raises(InputError):
        jio.jet_from_json({"d": 1})
    with pytest.raises(InputError):
        jio.chart_from_json({"n": 1})
    with pytest.raises(InputError):
        jio.flagjet_from_json({"d": 1, "r": 0, "hodge": {}, "chart": []})


def _legendre_data():
    return jio.chart_to_json(legendre_chart())


def _flag_data():
    return jio.flagjet_to_json(flag_of_matrix(
        HodgeData(2, 1, (2, 1), [[0, 1], [-1, 0]]), [[1, 0], [2, 1]]))


def _edited(data, path, value):
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@pytest.mark.parametrize("load, data, path, value", [
    (jio.jet_from_json, {"d": 1, "r": 1, "series": ["1"]}, ["d"], 1.9),
    (jio.jet_from_json, {"d": 1, "r": 1, "series": ["1"]}, ["r"], 1.7),
    (jio.jet_from_json, {"d": 1, "r": 1, "series": ["1"]}, ["r"], "1"),
    (jio.jet_from_json, {"d": 1, "r": 1, "series": ["1"]}, ["d"], True),
    (jio.matrixjet_from_json, {"d": 1, "r": 0, "entries": [["1"]]},
     ["r"], 0.0),
    (jio.scheme_from_json, {"n": 1, "generators": ["x1"]}, ["n"], 1.0),
    (jio.affine_map_from_json, {"n": 1, "m": 1, "components": ["x1"]},
     ["m"], 1.5),
    (jio.affine_map_from_json, {"n": 1, "m": 1, "components": ["x1"]},
     ["n"], True),
    (jio.chart_from_json, _legendre_data(), ["polarization"],
     [[0, 1.5], [-1.5, 0]]),
    (jio.chart_from_json, _legendre_data(), ["weight"], 1.0),
    (jio.chart_from_json, _legendre_data(), ["n"], 1.0),
    (jio.chart_from_json, _legendre_data(), ["filtration_dims"], [2, 1.0]),
    (jio.flagjet_from_json, _flag_data(), ["r"], 0.5),
    (jio.flagjet_from_json, _flag_data(), ["hodge", "weight"], 1.0),
    (jio.flagjet_from_json, _flag_data(), ["hodge", "polarization"],
     [[0, 1.0], [-1, 0]]),
    (jio.flagjet_from_json, _flag_data(), ["chart"], [[1.0]]),
])
def test_integer_fields_must_be_integers(load, data, path, value):
    # int() used to truncate 1.9 to 1 and accept "1" and true
    data = json.loads(json.dumps(data))
    load(data)
    with pytest.raises(InputError, match="integer"):
        load(_edited(data, path, value))


@pytest.mark.parametrize("load, data, key", [
    (jio.scheme_from_json, {"n": 2, "variables": ["x", "y"],
                            "generators": ["x^2 - 1"]}, "variables"),
    (jio.affine_map_from_json, {"n": 2, "m": 1, "variables": ["x", "y"],
                                "components": ["x"]}, "variables"),
    (jio.chart_from_json, jio.chart_to_json(random_flat_chart(
        random.Random(5), 1, 2).chart), "variables"),
])
def test_repeated_variable_names(load, data, key):
    load(data)
    data = dict(data, **{key: [data[key][0]] * len(data[key])})
    with pytest.raises(InputError, match="repeat"):
        load(data)

"""Canonical JSON forms for every exported type.

Rationals travel as strings "p/q" (or "p"), series and polynomials as their
canonical graded-lex term strings, so files are byte-stable: serializing a
parsed object reproduces the input.  `canonical_dumps` pins key order.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .connection import ConnectionChart, MatrixJet
from .errors import InputError
from .flags import FlagChart, FlagJet, HodgeData
from .poly import Polynomial, default_names
from .ratfunc import RationalFunction
from .scheme import AffineMap, AffineScheme
from .series import JetPoint, TruncatedSeries

# a flag coordinate key w_row_col: each index ASCII digits with no leading
# zero, so one coordinate has one key ("w_01_0" would be "w_1_0"), and
# under 100 digits, which any frame row or column is
_COORDINATE = re.compile(r"w_(0|[1-9][0-9]{0,98})_(0|[1-9][0-9]{0,98})")


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fraction_to_str(x):
    x = Fraction(x)
    return str(x)


def fraction_from_str(text):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad rational {text!r}") from None


def point_to_json(point):
    return [fraction_to_str(x) for x in point]


def point_from_json(data):
    if not isinstance(data, (list, tuple)):
        raise InputError("a point must be a list of rationals")
    return tuple(fraction_from_str(x) for x in data)


def _is_rows(data):
    return isinstance(data, list) and bool(data) \
        and all(isinstance(row, list) for row in data)


def _check_shape(data, shape, what):
    """Raise InputError unless data is a nested list of the given shape."""
    if not shape:
        return
    if not isinstance(data, list) or len(data) != shape[0]:
        raise InputError(
            f"{what} must be nested lists of shape {' x '.join(map(str, shape))}")
    for item in data:
        _check_shape(item, shape[1:], what)


def _check_dims_order(d, r):
    if d < 1 or r < 0:
        raise InputError(f"series need d >= 1 and r >= 0, got d={d}, r={r}")


def _int(value):
    """A JSON integer as is; floats, strings and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"expected an integer, got {value!r}")
    return value


def _strings(data, what):
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise InputError(f"{what} must be a list of strings")
    return data


def _names(data, what):
    """A list of distinct variable names."""
    names = _strings(data, what)
    if len(set(names)) != len(names):
        raise InputError(f"{what} must not repeat a name")
    return names


def matrix_from_json(data):
    if not _is_rows(data):
        raise InputError("a matrix must be a non-empty list of rows")
    return [[fraction_from_str(x) for x in row] for row in data]


# -- series and jets ----------------------------------------------------------

def jet_to_json(jet):
    return {"d": jet.dims, "r": jet.order,
            "series": [s.to_string() for s in jet.series]}


def jet_from_json(data, check_size=None):
    """The jet of a JSON object; `check_size(n, d, r)`, when given, runs
    before any series is parsed."""
    try:
        d, r = _int(data["d"]), _int(data["r"])
        strings = data["series"]
    except (KeyError, TypeError, ValueError):
        raise InputError("a jet needs keys d, r and series") from None
    _check_dims_order(d, r)
    if not isinstance(strings, list) or not strings:
        raise InputError("jet series must be a non-empty list")
    if check_size is not None:
        check_size(len(strings), d, r)
    return JetPoint([TruncatedSeries.from_string(s, d, r) for s in strings])


def matrixjet_to_json(jet):
    return {"d": jet.dims, "r": jet.order,
            "entries": [[s.to_string() for s in row] for row in jet.entries]}


def matrixjet_from_json(data):
    try:
        d, r = _int(data["d"]), _int(data["r"])
        rows = data["entries"]
    except (KeyError, TypeError, ValueError):
        raise InputError("a matrix jet needs keys d, r and entries") from None
    _check_dims_order(d, r)
    if not _is_rows(rows):
        raise InputError("matrix jet entries must be a non-empty list of rows")
    entries = [[TruncatedSeries.from_string(s, d, r) for s in row]
               for row in rows]
    return MatrixJet(entries)


# -- schemes and maps, ambient and in jet coordinates ---------------------------

def scheme_to_json(scheme):
    return {"n": scheme.n, "variables": list(scheme.names),
            "generators": [g.to_string(scheme.names)
                           for g in scheme.equations]}


def scheme_from_json(data):
    try:
        n = _int(data["n"])
        names = _names(data.get("variables") or default_names(n, "x"),
                       "variables")
        gens = _strings(data.get("generators", []), "generators")
    except (KeyError, TypeError, ValueError):
        raise InputError("a scheme needs n and generators") from None
    if len(names) != n:
        raise InputError("variable list does not match n")
    return AffineScheme(n, [Polynomial.from_string(g, names) for g in gens],
                        names=names)


def affine_map_to_json(amap, names=None):
    names = names or default_names(amap.n, "x")
    return {"n": amap.n, "m": amap.m, "variables": list(names),
            "components": [c.to_string(names) for c in amap.components]}


def affine_map_from_json(data):
    try:
        n, m = _int(data["n"]), _int(data["m"])
        names = _names(data.get("variables") or default_names(n, "x"),
                       "variables")
        comps = _strings(data["components"], "components")
    except (KeyError, TypeError, ValueError):
        raise InputError("a map needs n, m and components") from None
    if len(names) != n:
        raise InputError("variable list does not match n")
    return AffineMap(n, m, [Polynomial.from_string(c, names) for c in comps])


def polysystem_to_json(scheme):
    """The jet-space form of a scheme: its variables and equations."""
    return {"variables": list(scheme.names),
            "equations": [eq.to_string(scheme.names)
                          for eq in scheme.equations]}


def polymap_to_json(pmap, source_names=None):
    """The jet-space form of a map: source variables, target arity and
    components."""
    names = source_names or default_names(pmap.n, "u")
    return {"source_variables": list(names),
            "target_arity": pmap.m,
            "components": [c.to_string(names) for c in pmap.components]}


# -- connection charts -----------------------------------------------------------

def _rf_to_json(rf, names):
    return {"num": rf.num.to_string(names), "den": rf.den.to_string(names)}


def _rf_from_json(data, names):
    if not isinstance(data, dict) or "num" not in data:
        raise InputError("a rational function needs num and den strings")
    num = Polynomial.from_string(data["num"], names)
    den = Polynomial.from_string(data.get("den", "1"), names)
    if den.is_zero():
        raise InputError("denominator is identically zero")
    return RationalFunction(num, den)


def chart_to_json(chart, examples=None):
    names = list(chart.variables)
    data = {
        **hodge_to_json(chart.hodge),
        "n": chart.n,
        "variables": names,
        "connection": [[[_rf_to_json(chart.coeffs[i][j][l], names)
                         for l in range(chart.n)]
                        for j in range(chart.m)]
                       for i in range(chart.m)],
        "gram": [[_rf_to_json(chart.gram[i][k], names)
                  for k in range(chart.m)]
                 for i in range(chart.m)],
    }
    if examples:
        data["examples"] = {name: point_to_json(pt)
                            for name, pt in examples.items()}
    return data


def chart_from_json(data):
    try:
        n, m = _int(data["n"]), _int(data["m"])
        weight = _int(data["weight"])
        dims = [_int(x) for x in data["filtration_dims"]]
        conn = data["connection"]
        gram = data["gram"]
        pol = data["polarization"]
        names = _names(data.get("variables") or default_names(n, "z"),
                       "variables")
    except (KeyError, TypeError, ValueError):
        raise InputError("malformed connection chart") from None
    if n < 1 or m < 1:
        raise InputError(f"a chart needs n >= 1 and m >= 1, got n={n}, m={m}")
    if len(names) != n:
        raise InputError("variable list does not match n")
    _check_shape(conn, (m, m, n), "connection")
    _check_shape(gram, (m, m), "gram")
    _check_shape(pol, (m, m), "polarization")
    coeffs = [[[_rf_from_json(conn[i][j][l], names) for l in range(n)]
               for j in range(m)] for i in range(m)]
    gram_rf = [[_rf_from_json(gram[i][k], names) for k in range(m)]
               for i in range(m)]
    try:
        polarization = [[_int(x) for x in row] for row in pol]
        return ConnectionChart(n, m, coeffs, weight, dims, gram_rf,
                               polarization, variables=names)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed connection chart: {exc}") from None


def chart_examples_from_json(data):
    out = {}
    for name, pt in (data.get("examples") or {}).items():
        out[name] = point_from_json(pt)
    return out


# -- flags -----------------------------------------------------------------------

def hodge_to_json(hodge):
    return {"m": hodge.m, "weight": hodge.weight,
            "filtration_dims": list(hodge.filtration_dims),
            "polarization": [list(row) for row in hodge.polarization]}


def hodge_from_json(data):
    try:
        return HodgeData(_int(data["m"]), _int(data["weight"]),
                         [_int(x) for x in data["filtration_dims"]],
                         [[_int(x) for x in row]
                          for row in data["polarization"]])
    except (KeyError, TypeError, ValueError):
        raise InputError("malformed filtration data") from None


def flagjet_to_json(flag):
    return {
        "d": flag.dims,
        "r": flag.order,
        "hodge": hodge_to_json(flag.hodge),
        "chart": [list(s) for s in flag.chart.pivot_sets],
        "coords": {f"w_{row}_{col}": series.to_string()
                   for (row, col), series in sorted(flag.coords.items())},
    }


def flagjet_from_json(data):
    try:
        d, r = _int(data["d"]), _int(data["r"])
        hodge = hodge_from_json(data["hodge"])
        chart = FlagChart([tuple(_int(x) for x in s) for s in data["chart"]])
        raw = data.get("coords", {})
    except (KeyError, TypeError, ValueError):
        raise InputError("malformed flag jet") from None
    _check_dims_order(d, r)
    if not isinstance(raw, dict):
        raise InputError("flag coords must be an object of series strings")
    coords = {}
    for key, text in raw.items():
        match = _COORDINATE.fullmatch(key)
        if match is None:
            raise InputError(f"bad coordinate key {key!r}")
        coords[tuple(map(int, match.groups()))] = \
            TruncatedSeries.from_string(text, d, r)
    try:
        return FlagJet(hodge, chart, coords, d, r)
    except ValueError as exc:
        raise InputError(f"malformed flag jet: {exc}") from None

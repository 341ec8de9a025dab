"""Sparse multivariate polynomials over exact rationals.

A polynomial is a map from exponent tuples to nonzero Fraction coefficients.
The single term order used throughout the package is graded lexicographic:
smaller total degree first, ties broken so that earlier variables dominate
(so for two variables the monomials read 1, x1, x2, x1^2, x1*x2, x2^2, ...).

The module functions `*_terms` are the arithmetic of such sparse tables for
`Polynomial` and `series.TruncatedSeries`.  Only `clean_terms` checks its
input; the others map canonical tables to canonical tables, since over the
integral domains Q and Q[x] only a sum can cancel to zero.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import product
from operator import add, index as exact_int

from .errors import ArityMismatch, IndexOutOfRange, InputError

# exponent tuples double as multi-indices everywhere in the package
MultiIndex = tuple


def monomial_key(exponents):
    """Sort key realizing the graded lexicographic order (ascending)."""
    return (sum(exponents), tuple(-e for e in exponents))


def graded_monomials(arity, max_degree):
    """All exponent tuples with total degree <= max_degree, graded-lex sorted.

    For arity d and bound r the list has C(r + d, d) entries; the empty
    exponent comes first.
    """
    if arity == 0:
        return [()]
    mons = [p for p in product(range(max_degree + 1), repeat=arity)
            if sum(p) <= max_degree]
    mons.sort(key=monomial_key)
    return mons


def _fr(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# -- the term-table kernel ---------------------------------------------------

def clean_terms(pairs, arity, coerce, max_degree=None,
                mismatch=ArityMismatch):
    """The canonical table of caller input, given as (exponent, coefficient)
    pairs: int exponent tuples of length `arity` (else `mismatch`) with no
    negative entry (else ValueError), none of total degree above
    `max_degree`, coefficients through `coerce`, repeats summed, zeros
    dropped."""
    out = {}
    for expo, c in pairs:
        expo = tuple(map(exact_int, expo))
        if len(expo) != arity:
            raise mismatch(
                f"exponent {expo} has length {len(expo)}, expected {arity}")
        if any(e < 0 for e in expo):
            raise ValueError(f"negative exponent in {expo}")
        if max_degree is not None and sum(expo) > max_degree:
            continue
        c = coerce(c)
        if c:
            s = out.get(expo)
            s = c if s is None else s + c
            if s:
                out[expo] = s
            else:
                del out[expo]
    return out


def add_terms(a, b):
    """The sum of two canonical tables."""
    out = dict(a)
    for p, c in b.items():
        s = out.get(p)
        s = c if s is None else s + c
        if s:
            out[p] = s
        else:
            del out[p]
    return out


def mul_terms(a, b, max_degree=None):
    """The product of two canonical tables, cut above `max_degree`."""
    right = [(q, sum(q), d) for q, d in b.items()]
    out = {}
    for p, c in a.items():
        room = math.inf if max_degree is None else max_degree - sum(p)
        for q, dq, d in right:
            if dq <= room:
                pq = tuple(map(add, p, q))
                s = out.get(pq)
                s = c * d if s is None else s + c * d
                if s:
                    out[pq] = s
                else:
                    del out[pq]
    return out


def derive_terms(terms, index, arity):
    """The partial derivative of a canonical table along variable `index`."""
    if not 0 <= index < arity:
        raise IndexOutOfRange(f"variable {index} not in 0..{arity - 1}")
    return {p[:index] + (p[index] - 1,) + p[index + 1:]: c * p[index]
            for p, c in terms.items() if p[index]}


def pow_terms(terms, n, arity, max_degree=None):
    """A canonical table to the power n >= 0, cut above `max_degree`."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = {(0,) * arity: Fraction(1)}
    for _ in range(n):
        result = mul_terms(result, terms, max_degree)
    return result


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms",
                           clean_terms((terms or {}).items(), arity, _fr))

    @classmethod
    def _wrap(cls, arity, terms):
        """The polynomial of a canonical table, taken as is."""
        self = object.__new__(cls)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity):
        return cls(arity, {})

    @classmethod
    def const(cls, value, arity):
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, index, arity):
        if not 0 <= index < arity:
            raise IndexOutOfRange(f"variable {index} not in 0..{arity - 1}")
        expo = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {expo: Fraction(1)})

    # -- basic structure ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(p) for p in self.terms)

    def leading(self):
        """(exponent, coefficient) of the graded-lex greatest monomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        expo = max(self.terms, key=monomial_key)
        return expo, self.terms[expo]

    def constant_term(self):
        return self.terms.get((0,) * self.arity, Fraction(0))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other, self.arity)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(other, self.arity)
        if isinstance(other, Polynomial):
            if other.arity != self.arity:
                raise ArityMismatch(
                    f"cannot combine arity {self.arity} with {other.arity}")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._wrap(self.arity, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._wrap(self.arity,
                                {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._wrap(self.arity, mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        return Polynomial._wrap(self.arity,
                                pow_terms(self.terms, n, self.arity))

    # -- calculus and evaluation -------------------------------------------

    def derivative(self, index):
        """Formal partial derivative with respect to variable `index`."""
        return Polynomial._wrap(self.arity,
                                derive_terms(self.terms, index, self.arity))

    def evaluate(self, point):
        """Exact value at a tuple of rationals."""
        if len(point) != self.arity:
            raise ArityMismatch(
                f"expected {self.arity} values, got {len(point)}")
        point = [_fr(v) for v in point]
        return evaluate_terms(self.terms, point, Fraction(1))

    def evaluate_in(self, values, one):
        """Evaluate on elements of any commutative ring.

        `values` substitute the variables; `one` must be the multiplicative
        identity of the target ring (used for the empty product).
        """
        if len(values) != self.arity:
            raise ArityMismatch(
                f"expected {self.arity} values, got {len(values)}")
        return evaluate_terms(self.terms, list(values), one)

    def rename_into(self, target_arity, index_map):
        """Reinterpret inside a larger ring, sending variable i to index_map[i]."""
        pairs = []
        for p, c in self.terms.items():
            q = [0] * target_arity
            for i, e in enumerate(p):
                q[index_map[i]] += e
            pairs.append((q, c))
        return Polynomial._wrap(target_arity,
                                clean_terms(pairs, target_arity, _fr))

    # -- canonical form ----------------------------------------------------

    def normalized(self):
        """Primitive integer form with positive graded-lex leading coefficient.

        Clears denominators, divides by the gcd of the integer coefficients
        and fixes the sign, so two generators of the same rational line get
        the literal same representation.  Zero maps to zero.
        """
        if not self.terms:
            return self
        denlcm = 1
        for c in self.terms.values():
            denlcm = denlcm * c.denominator // math.gcd(denlcm, c.denominator)
        ints = {p: c * denlcm for p, c in self.terms.items()}
        g = 0
        for c in ints.values():
            g = math.gcd(g, int(c))
        lead = ints[max(ints, key=monomial_key)]
        if lead < 0:
            g = -g
        return Polynomial._wrap(self.arity,
                                {p: c / g for p, c in ints.items()})

    # -- text form ---------------------------------------------------------

    def to_string(self, names=None):
        """Canonical text: graded-lex sorted terms joined by ' + '."""
        names = names or default_names(self.arity)
        if len(names) != self.arity:
            raise ArityMismatch("wrong number of variable names")
        return terms_to_string(self.terms, names, "*")

    @classmethod
    def from_string(cls, text, names):
        """Parse the textual form; tolerates '-' separators, bare variables
        and omitted '^1' exponents.

        The text is read as tokens, so '+' and '-' separate terms everywhere
        except inside the decimal exponent of a number such as 1e-3.
        """
        if not isinstance(text, str):
            raise InputError(
                f"expected polynomial text, got {type(text).__name__}")
        index = {n: i for i, n in enumerate(names)}
        arity = len(names)
        if len(index) != arity:
            raise InputError("repeated variable name")
        pairs = []
        for sign, factors in _split_terms(text):
            coeff = Fraction(sign)
            expo = [0] * arity
            for factor in factors:
                kind, value = factor[0]
                if kind == "number" and len(factor) == 1:
                    try:
                        coeff *= Fraction(value)
                    except (ValueError, ZeroDivisionError):
                        raise InputError(f"bad coefficient {value!r}") from None
                elif kind == "name" and (len(factor) == 1 or (
                        len(factor) == 3 and factor[1] == ("op", "^")
                        and factor[2][1].isdecimal())):
                    if value not in index:
                        raise InputError(f"unknown variable {value!r}")
                    expo[index[value]] += \
                        int(factor[2][1]) if len(factor) == 3 else 1
                else:
                    raise InputError("bad factor " + repr(
                        "".join(v for _, v in factor)))
            pairs.append((expo, coeff))
        return cls._wrap(arity, clean_terms(pairs, arity, _fr))

    def __repr__(self):
        return f"Polynomial({self.to_string()!r})"


# A number (digits, an optional '/q', decimal point or decimal exponent), a
# name (a letter or '_', then anything but blanks and operators), an
# operator, or any other visible character, which is an error.
_TOKEN = re.compile(r"""\s*(?:
    (?P<number>(?:\d|\.\d)[\w.]*(?:/\w+|(?<=[eE])[+-]\w+)?)
  | (?P<name>[^\W\d][^\s+\-*^]*)
  | (?P<op>[-+*^])
  | (?P<other>\S)
)""", re.VERBOSE)


def _split_terms(text):
    """The terms of polynomial text as (sign, factors), each factor a list
    of (kind, value) tokens.

    Empty terms are skipped after '+' and at the start, so '+ -x' reads as
    '-x'; an empty term after '-' is an error.
    """
    terms = [(1, [])]
    for match in _TOKEN.finditer(text.rstrip()):
        kind = match.lastgroup
        value = match.group(kind)
        if kind == "other":
            raise InputError(f"unexpected character {value!r}")
        if kind == "op" and value in "+-":
            terms.append((1 if value == "+" else -1, []))
        else:
            terms[-1][1].append((kind, value))
    out = []
    for sign, tokens in terms:
        if not tokens:
            if sign < 0:
                raise InputError("a '-' is not followed by a term")
            continue
        factors = [[]]
        for token in tokens:
            if token == ("op", "*"):
                factors.append([])
            else:
                factors[-1].append(token)
        if not all(factors):
            raise InputError("empty factor in term " + repr(
                "".join(v for _, v in tokens)))
        out.append((sign, factors))
    return out


def terms_to_string(terms, names, times):
    """Canonical text of a table: graded-lex terms 'c<times>x^e*y^f...'
    joined by ' + ', or '0'."""
    parts = []
    for p in sorted(terms, key=monomial_key):
        c = terms[p]
        text = c.to_string() if isinstance(c, Polynomial) else str(c)
        factors = "*".join(f"{names[i]}^{e}" for i, e in enumerate(p) if e)
        parts.append(text + times + factors if factors else text)
    return " + ".join(parts) or "0"


def default_names(arity):
    return [f"x{i + 1}" for i in range(arity)]


def evaluate_terms(terms, values, one):
    """Sum of c * prod(values[i] ** e) over a sparse term table.

    Works over any commutative ring containing the rational coefficients;
    powers of each value are computed once and cached.
    """
    if not terms:
        return one * Fraction(0)
    maxexp = {}
    for p in terms:
        for i, e in enumerate(p):
            if e:
                maxexp[i] = max(maxexp.get(i, 0), e)
    powers = {}
    for i, top in maxexp.items():
        row = [one]
        for _ in range(top):
            row.append(row[-1] * values[i])
        powers[i] = row
    total = None
    for p, c in terms.items():
        term = one
        for i, e in enumerate(p):
            if e:
                term = term * powers[i][e]
        term = term * c
        total = term if total is None else total + term
    return total

"""Sparse multivariate polynomials over exact rationals.

A polynomial is stored as a sparse table from exponent tuples to nonzero
integer numerators over one positive common denominator, in lowest terms:
no factor divides the denominator and every numerator.  The single term
order used throughout the package is graded lexicographic: smaller total
degree first, ties broken so that earlier variables dominate (so for two
variables the monomials read 1, x1, x2, x1^2, x1*x2, x2^2, ...).

The module functions `*_terms` are the arithmetic of sparse tables for
`Polynomial` and `series.TruncatedSeries`.  Only `clean_terms` checks its
input; the others map canonical tables to canonical tables, since over the
integral domains Z, Q and Q[x] only a sum can cancel to zero.  Rational
tables of either class run them on the integer numerators and keep the
denominator with the functions under "rational tables": one lcm to clear
Fractions, one gcd to reduce a result (the content and primitive part of
Knuth, TAOCP vol. 2, 4.6.1).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add, index as exact_int

from .errors import ArityMismatch, IndexOutOfRange, InputError

# exponent tuples double as multi-indices everywhere in the package
MultiIndex = tuple


def monomial_key(exponents):
    """Sort key realizing the graded lexicographic order (ascending)."""
    return (sum(exponents), tuple(-e for e in exponents))


def graded_sorted(exponents):
    """Exponent tuples of one length in ascending graded-lex order, the
    order of `monomial_key`: lex descending, then a stable sort by total
    degree, both with the builtin comparisons."""
    out = sorted(exponents, reverse=True)
    out.sort(key=sum)
    return out


def graded_monomials(arity, max_degree):
    """All exponent tuples with total degree <= max_degree, graded-lex sorted.

    For arity d and bound r the list has C(r + d, d) entries; the empty
    exponent comes first.  Each exponent is extended within the degree left,
    so the work follows the output rather than the (r + 1)^d box.
    """
    mons = [()]
    for _ in range(arity):
        mons = [p + (e,) for p in mons for e in range(max_degree + 1 - sum(p))]
    return graded_sorted(mons)


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


def mul_terms(a, b, max_degree=None, prefix=None, out=None, factor=1):
    """The product of two canonical tables, cut above `max_degree` in the
    total degree of the first `prefix` exponents (of all by default).
    Given a canonical table `out`, the product is added into it instead,
    and `out` is returned.  A `factor` other than 1 multiplies the product,
    folded into the numerators of `b` as they are read."""
    degree = sum if prefix is None else lambda p: sum(p[:prefix])
    right = [(q, degree(q), d) for q, d in b.items()] if factor == 1 else \
        [(q, degree(q), d * factor) for q, d in b.items()]
    if out is None:
        out = {}
    for p, c in a.items():
        room = math.inf if max_degree is None else max_degree - degree(p)
        for q, dq, d in right:
            if dq <= room:
                # built at its final length, so it can reuse a freed tuple
                # of that length: tuple() of a map starts at ten slots and
                # resizes, and the short tuples it frees (CPython keeps up
                # to 2000 per length below 20) would never be taken back
                pq = (*map(add, p, q),)
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


def pow_terms(terms, n, arity, max_degree=None, prefix=None):
    """A canonical table to the power n >= 0, cut as `mul_terms` cuts."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = {(0,) * arity: 1}
    for _ in range(n):
        result = mul_terms(result, terms, max_degree, prefix)
    return result


def leading_exponent(terms):
    """The graded-lex greatest exponent of a nonempty table: the
    lexicographically least one of top total degree."""
    top = max(map(sum, terms))
    return min(p for p in terms if sum(p) == top)


# -- rational tables: integer numerators over one common denominator ----------

def integer_table(terms):
    """(numerators, denominator) of a canonical table of rationals; the
    denominator is the lcm of theirs, so the pair is in lowest terms."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return ({p: c.numerator * (den // c.denominator)
             for p, c in terms.items()}, den)


def lowest_terms(num, den):
    """(num, den), integer numerators over a positive denominator, divided
    by the gcd of all of them."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {p: n // g for p, n in num.items()}
            den //= g
    return num, den


def add_fractions(a, da, b, db):
    """The sum a/da + b/db of two integer tables, in lowest terms."""
    if da != db:
        g = math.gcd(da, db)
        if db != g:
            a = {p: n * (db // g) for p, n in a.items()}
        if da != g:
            b = {p: n * (da // g) for p, n in b.items()}
        da = da // g * db
    return lowest_terms(add_terms(a, b), da)


def scale_fraction(num, den, scalar):
    """num/den times an int or Fraction, in lowest terms."""
    if not scalar:
        return {}, 1
    return lowest_terms({p: n * scalar.numerator for p, n in num.items()},
                        den * scalar.denominator)


def primitive_parts(polys):
    """The polynomials times one rational: integer coefficients with no
    factor common to all of them, the first polynomial's leading
    coefficient positive unless it is zero.  All zero stays zero."""
    den = math.lcm(*(f._den for f in polys))
    tables = [f._table if f._den == den else
              {p: n * (den // f._den) for p, n in f._table.items()}
              for f in polys]
    g = math.gcd(*(n for table in tables for n in table.values()))
    first = tables[0]
    if first and first[leading_exponent(first)] < 0:
        g = -g
    return [Polynomial._new(f.arity, table if g in (0, 1) else
                            {p: n // g for p, n in table.items()}, 1)
            for f, table in zip(polys, tables)]


class Polynomial:
    """Immutable sparse polynomial with rational coefficients.

    `_table` maps exponents to nonzero integer numerators and `_den` is their
    positive common denominator, with no factor common to all of them.
    `_terms` keeps the Fractions once `terms` has been read.
    """

    __slots__ = ("arity", "_table", "_den", "_terms")

    def __new__(cls, arity, terms=None):
        return cls._new(arity, *integer_table(
            clean_terms((terms or {}).items(), arity, _fr)))

    @classmethod
    def _new(cls, arity, table, den):
        """The polynomial of a stored form (see the class docstring), taken
        as is."""
        self = object.__new__(cls)
        _set_arity(self, arity)
        _set_table(self, table)
        _set_den(self, den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self):
        """The read-only dict of nonzero Fraction coefficients by exponent,
        built from the integer form on first read and kept."""
        try:
            return self._terms
        except AttributeError:
            den = self._den
            terms = {p: Fraction(n, den) for p, n in self._table.items()}
            _set_terms(self, terms)
            return terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity):
        return cls._new(arity, {}, 1)

    @classmethod
    def const(cls, value, arity):
        value = _fr(value)
        return cls._new(arity, {(0,) * arity: value.numerator} if value
                        else {}, value.denominator)

    @classmethod
    def variable(cls, index, arity):
        if not 0 <= index < arity:
            raise IndexOutOfRange(f"variable {index} not in 0..{arity - 1}")
        expo = tuple(1 if i == index else 0 for i in range(arity))
        return cls._new(arity, {expo: 1}, 1)

    # -- basic structure ---------------------------------------------------

    def is_zero(self):
        return not self._table

    def __bool__(self):
        return bool(self._table)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self._table:
            return -1
        return max(map(sum, self._table))

    def leading(self):
        """(exponent, coefficient) of the graded-lex greatest monomial."""
        if not self._table:
            raise ValueError("zero polynomial has no leading term")
        expo = leading_exponent(self._table)
        return expo, Fraction(self._table[expo], self._den)

    def constant_term(self):
        return Fraction(self._table.get((0,) * self.arity, 0), self._den)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.const(other, self.arity)
        return (self.arity == other.arity and self._den == other._den
                and self._table == other._table)

    def __hash__(self):
        return hash((self.arity, self._den, frozenset(self._table.items())))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.arity != self.arity:
                raise ArityMismatch(
                    f"cannot combine arity {self.arity} with {other.arity}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(other, self.arity)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._new(self.arity, *add_fractions(
            self._table, self._den, other._table, other._den))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._new(self.arity,
                               {p: -n for p, n in self._table.items()},
                               self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # a scalar scales the stored form; no constant polynomial is built
        if not isinstance(other, Polynomial) and isinstance(
                other, (int, Fraction)):
            return Polynomial._new(self.arity, *scale_fraction(
                self._table, self._den, other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._new(self.arity, *lowest_terms(
            mul_terms(self._table, other._table), self._den * other._den))

    __rmul__ = __mul__

    def __pow__(self, n):
        return Polynomial._new(self.arity, *lowest_terms(
            pow_terms(self._table, n, self.arity), self._den ** n))

    # -- calculus and evaluation -------------------------------------------

    def derivative(self, index):
        """Formal partial derivative with respect to variable `index`."""
        return Polynomial._new(self.arity, *lowest_terms(
            derive_terms(self._table, index, self.arity), self._den))

    def evaluate(self, point):
        """Exact value at a tuple of rationals."""
        if len(point) != self.arity:
            raise ArityMismatch(
                f"expected {self.arity} values, got {len(point)}")
        point = [_fr(v) for v in point]
        return evaluate_terms(self._table, point, Fraction(1)) / self._den

    def evaluate_in(self, values, one):
        """Evaluate on elements of any commutative ring.

        `values` substitute the variables; `one` must be the multiplicative
        identity of the target ring (used for the empty product).
        """
        if len(values) != self.arity:
            raise ArityMismatch(
                f"expected {self.arity} values, got {len(values)}")
        return evaluate_terms(self._table, list(values), one, self._den)

    def rename_into(self, target_arity, index_map):
        """Reinterpret inside a larger ring, sending variable i to index_map[i]."""
        out = {}
        for p, n in self._table.items():
            q = [0] * target_arity
            for i, e in enumerate(p):
                q[index_map[i]] += e
            q = tuple(q)
            s = out.get(q, 0) + n
            if s:
                out[q] = s
            else:
                del out[q]
        return Polynomial._new(target_arity, *lowest_terms(out, self._den))

    # -- canonical form ----------------------------------------------------

    def normalized(self):
        """Primitive integer form with positive graded-lex leading coefficient.

        Divides the numerators by their gcd and fixes the sign, so two
        generators of the same rational line get the literal same
        representation.  Zero maps to zero.
        """
        return primitive_parts([self])[0]

    # -- text form ---------------------------------------------------------

    def to_string(self, names=None):
        """Canonical text: graded-lex sorted terms joined by ' + '."""
        names = names or default_names(self.arity, "x")
        if len(names) != self.arity:
            raise ArityMismatch("wrong number of variable names")
        return terms_to_string(self._table, names, "*", self._den)

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
        return cls._new(arity, *integer_table(clean_terms(pairs, arity, _fr)))

    def __repr__(self):
        return f"Polynomial({self.to_string()!r})"


# Writers of the slots of a polynomial, past the guard of its __setattr__.
_set_arity, _set_table, _set_den, _set_terms = (
    getattr(Polynomial, name).__set__ for name in Polynomial.__slots__)


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


def terms_to_string(terms, names, times, den=1):
    """Canonical text of a table with coefficients c / den: graded-lex terms
    'c<times>x^e*y^f...' joined by ' + ', or '0'."""
    parts = []
    for p in graded_sorted(terms):
        c = terms[p]
        text = c.to_string() if isinstance(c, Polynomial) else str(
            c if den == 1 else Fraction(c, den))
        factors = "*".join(f"{names[i]}^{e}" for i, e in enumerate(p) if e)
        parts.append(text + times + factors if factors else text)
    return " + ".join(parts) or "0"


def default_names(arity, letter):
    """The coordinate names letter1, ..., letter<arity>."""
    return [f"{letter}{i + 1}" for i in range(arity)]


def evaluate_terms(terms, values, one, den=1):
    """Sum of c / den * prod(values[i] ** e) over a sparse term table.

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
        term = term * (c if den == 1 else Fraction(c, den))
        total = term if total is None else total + term
    return total

"""Sparse multivariate polynomials over exact rationals.

A polynomial is stored as a sparse table from packed exponent keys to
nonzero integer numerators over one positive common denominator, in lowest
terms: no factor divides the denominator and every numerator.  The single
term order used throughout the package is graded lexicographic: smaller
total degree first, ties broken so that earlier variables dominate (so for
two variables the monomials read 1, x1, x2, x1^2, x1*x2, x2^2, ...).

Packed keys.  The key of an exponent (e_1, ..., e_k) is one int of k + 1
fields of `BITS` bits each: the total degree in the most significant field,
then e_1, ..., e_k, first variable most significant,

    key = deg << BITS*k | e_1 << BITS*(k-1) | ... | e_k.

So the key of a product of monomials is the sum of their keys, the
constant monomial has key 0 in every arity, the total degree is
key >> BITS*k, and keys compare by total degree first, then
lexicographically.  Every total degree, and so every exponent, stays below
`BOUND` = 2^(BITS - 1): two fields below it add to less than 2^BITS, so a
product never carries from one field into the next, and input or a
product that reaches the bound raises `InputError` instead of being read
wrong.  With 20-bit fields the bound is 2^19 = 524288, which keeps
exponents such as x1^200000 exact while the 49-field key of a term of a
generic series in two t's over 45 jet coordinates stays under 1000 bits
(1568 with 32-bit fields and a bound of 2^31; the README weighs the two).  Public reads (`terms`, `leading`,
the text form) give exponent tuples.

The module functions `*_terms` are the arithmetic of sparse tables for
`Polynomial` and `series.TruncatedSeries`.  Only `pack` and
`rational_table` check their input; the others map canonical tables to
canonical tables, since over the integral domains Z, Q and Q[x] only a sum
can cancel to zero.  Rational tables of either class run them on the
integer numerators and keep the denominator with the functions under
"rational tables": one lcm to clear Fractions, one gcd to reduce a result
(the content and primitive part of Knuth, TAOCP vol. 2, 4.6.1).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import index as exact_int

from .errors import ArityMismatch, IndexOutOfRange, InputError

# exponent tuples double as multi-indices everywhere in the package
MultiIndex = tuple

# the width of one field of a packed key, the bound below which every total
# degree and exponent stays, and the mask of one field
BITS = 20
BOUND = 1 << (BITS - 1)
FIELD = (1 << BITS) - 1


def monomial_key(exponents):
    """Sort key realizing the graded lexicographic order (ascending)."""
    return (sum(exponents), tuple(-e for e in exponents))


def graded_monomials(arity, max_degree):
    """All exponent tuples with total degree <= max_degree, graded-lex sorted.

    For arity d and bound r the list has C(r + d, d) entries; the empty
    exponent comes first.  Each exponent is extended within the degree left,
    so the work follows the output rather than the (r + 1)^d box.
    """
    mons = [()]
    for _ in range(arity):
        mons = [p + (e,) for p in mons for e in range(max_degree + 1 - sum(p))]
    # lex descending, then a stable sort by total degree
    mons.sort(reverse=True)
    mons.sort(key=sum)
    return mons


def _fr(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# -- packed keys ---------------------------------------------------------------

def past_bound(what):
    """The error for a total degree or exponent that reaches `BOUND`."""
    return InputError(f"{what} reaches the exponent bound 2^{BITS - 1}")


def pack(expo, arity, mismatch=ArityMismatch):
    """The key of an exponent given by a caller: `arity` int entries (else
    `mismatch`), none negative (else ValueError), of total degree below
    `BOUND` (else InputError)."""
    expo = tuple(map(exact_int, expo))
    if len(expo) != arity:
        raise mismatch(
            f"exponent {expo} has length {len(expo)}, expected {arity}")
    if any(e < 0 for e in expo):
        raise ValueError(f"negative exponent in {expo}")
    key = sum(expo)
    if key >= BOUND:
        raise past_bound(f"the total degree of {expo}")
    for e in expo:
        key = key << BITS | e
    return key


def unpack(key, arity):
    """The exponent tuple of a key in `arity` variables."""
    return tuple(key >> shift & FIELD
                 for shift in range(BITS * (arity - 1), -1, -BITS))


def graded_sorted(keys, arity):
    """Keys in `arity` variables in ascending graded-lex order: total degree
    ascending, then lexicographically descending, which is ascending order
    once every field below the degree is complemented."""
    return sorted(keys, key=((1 << BITS * arity) - 1).__xor__)


def leading_exponent(table, arity):
    """The graded-lex greatest key of a nonempty table: the lexicographically
    least one of top total degree."""
    return max(table, key=((1 << BITS * arity) - 1).__xor__)


# -- the term-table kernel ---------------------------------------------------

def rational_table(pairs, arity, limit=None, mismatch=ArityMismatch):
    """(numerators, denominator) of caller input in lowest terms, given as
    (exponent, coefficient) pairs: exponents checked by `pack`, those whose
    key reaches `limit` dropped, coefficients ints or Fractions (else
    TypeError), repeats summed and zeros dropped.  One pass reads the
    pairs; the lcm of their denominators scales the numerators."""
    keys, nums, dens = [], [], []
    for expo, c in pairs:
        key = pack(expo, arity, mismatch)
        if limit is not None and key >= limit:
            continue
        if isinstance(c, int):
            n, d = c, 1
        elif isinstance(c, Fraction):
            n, d = c.numerator, c.denominator
        else:
            raise TypeError(
                f"expected an exact rational, got {type(c).__name__}")
        if n:
            keys.append(key)
            nums.append(n)
            dens.append(d)
    den = math.lcm(*dens)
    table = {}
    for key, n, d in zip(keys, nums, dens):
        if d != den:
            n *= den // d
        s = table.get(key)
        if s is None:
            table[key] = n
        elif s + n:
            table[key] = s + n
        else:
            del table[key]
    return lowest_terms(table, den)


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


def mul_terms(a, b, limit=None, out=None, factor=1):
    """The product of two canonical tables, without its keys at or above
    `limit`.  A series cuts at order r with the limit (r + 1) << s, s the
    shift of its t-degree field, so the cut is one comparison per pair.
    Given a canonical table `out`, the product is added into it instead,
    and `out` is returned.  A `factor` other than 1 multiplies the product,
    folded into the numerators of `b` as they are read."""
    if factor != 1:
        b = {q: d * factor for q, d in b.items()}
    if out is None:
        out = {}
    get = out.get
    right = b.items()
    for p, c in a.items():
        for q, d in right:
            pq = p + q
            if limit is None or pq < limit:
                s = get(pq)
                if s is None:
                    out[pq] = c * d
                else:
                    s += c * d
                    if s:
                        out[pq] = s
                    else:
                        del out[pq]
    return out


def derive_terms(table, index, arity, low=0):
    """The partial derivative of a canonical table along variable `index` of
    `arity`, whose fields (total degree first) sit above the `low` bits of
    each key."""
    if not 0 <= index < arity:
        raise IndexOutOfRange(f"variable {index} not in 0..{arity - 1}")
    shift = low + BITS * (arity - 1 - index)
    # one off the exponent and one off the total degree
    step = (1 << shift) + (1 << low + BITS * arity)
    out = {}
    for p, n in table.items():
        e = p >> shift & FIELD
        if e:
            out[p - step] = n * e
    return out


def check_power(n):
    """n, refused unless it is a non-negative integer exponent."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a non-negative integer")
    return n


def pow_terms(table, n, limit=None, guard=0):
    """A canonical table to the power n >= 0, cut as `mul_terms` cuts.  A
    nonzero `guard` is the top bit of a degree field that no product may
    reach."""
    result = {0: 1}
    for _ in range(check_power(n)):
        result = mul_terms(result, table, limit)
        if guard and any(map(guard.__and__, result)):
            raise past_bound("a degree of a power")
    return result


# -- rational tables: integer numerators over one common denominator ----------

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
    if first and first[leading_exponent(first, polys[0].arity)] < 0:
        g = -g
    return [Polynomial._new(f.arity, table if g in (0, 1) else
                            {p: n // g for p, n in table.items()}, 1)
            for f, table in zip(polys, tables)]


class Polynomial:
    """Immutable sparse polynomial with rational coefficients.

    `_table` maps packed exponent keys (see the module docstring) to nonzero
    integer numerators and `_den` is their positive common denominator,
    with no factor common to all of them.  `_terms` keeps the Fractions by
    exponent tuple once `terms` has been read.
    """

    __slots__ = ("arity", "_table", "_den", "_terms")

    def __new__(cls, arity, terms=None):
        return cls._new(arity, *rational_table((terms or {}).items(), arity))

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
            arity, den = self.arity, self._den
            terms = {unpack(p, arity): Fraction(n, den)
                     for p, n in self._table.items()}
            _set_terms(self, terms)
            return terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity):
        return cls._new(arity, {}, 1)

    @classmethod
    def const(cls, value, arity):
        value = _fr(value)
        return cls._new(arity, {0: value.numerator} if value else {},
                        value.denominator)

    @classmethod
    def variable(cls, index, arity):
        if not 0 <= index < arity:
            raise IndexOutOfRange(f"variable {index} not in 0..{arity - 1}")
        return cls._new(arity, {1 << BITS * arity
                                | 1 << BITS * (arity - 1 - index): 1}, 1)

    # -- basic structure ---------------------------------------------------

    def is_zero(self):
        return not self._table

    def __bool__(self):
        return bool(self._table)

    def _is_one(self):
        return (self._den == 1 and len(self._table) == 1
                and self._table.get(0) == 1)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self._table:
            return -1
        return max(self._table) >> BITS * self.arity

    def leading(self):
        """(exponent, coefficient) of the graded-lex greatest monomial."""
        if not self._table:
            raise ValueError("zero polynomial has no leading term")
        key = leading_exponent(self._table, self.arity)
        return unpack(key, self.arity), Fraction(self._table[key], self._den)

    def constant_term(self):
        return Fraction(self._table.get(0, 0), self._den)

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
        a, b = self._table, other._table
        # the top keys add to the key of the product's top degree
        if a and b and max(a) + max(b) >= BOUND << BITS * self.arity:
            raise past_bound("the degree of a product")
        return Polynomial._new(self.arity, *lowest_terms(
            mul_terms(a, b), self._den * other._den))

    __rmul__ = __mul__

    def __pow__(self, n):
        if self._table and self.degree() * check_power(n) >= BOUND:
            raise past_bound("the degree of a power")
        return Polynomial._new(self.arity, *lowest_terms(
            pow_terms(self._table, n), self._den ** n))

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
        return evaluate_terms(self._table, self.arity, point,
                              Fraction(1)) / self._den

    def evaluate_in(self, values, one):
        """Evaluate on elements of any commutative ring.

        `values` substitute the variables; `one` must be the multiplicative
        identity of the target ring (used for the empty product).
        """
        if len(values) != self.arity:
            raise ArityMismatch(
                f"expected {self.arity} values, got {len(values)}")
        return evaluate_terms(self._table, self.arity, list(values), one,
                              self._den)

    def rename_into(self, target_arity, index_map):
        """Reinterpret inside a larger ring, sending variable i to index_map[i].

        The total degree is kept, so exponents sent to one variable add up
        below the bound."""
        top, target_top = BITS * self.arity, BITS * target_arity
        # (shift of variable i's field, one in the field of its image)
        fields = [(BITS * (self.arity - 1 - i), 1 << BITS * (
            target_arity - 1 - j)) for i, j in enumerate(index_map)]
        out = {}
        for p, n in self._table.items():
            q = p >> top << target_top
            for shift, unit in fields:
                q += (p >> shift & FIELD) * unit
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
        return terms_to_string(self._table, self.arity, names, "*", self._den)

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
        return cls._new(arity, *rational_table(pairs, arity))

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


def terms_to_string(terms, arity, names, times, den=1):
    """Canonical text of a table in `arity` variables with coefficients
    c / den: graded-lex terms 'c<times>x^e*y^f...' joined by ' + ', or '0'."""
    parts = []
    for p in graded_sorted(terms, arity):
        c = terms[p]
        text = c.to_string() if isinstance(c, Polynomial) else str(
            c if den == 1 else Fraction(c, den))
        factors = "*".join(f"{names[i]}^{e}"
                           for i, e in enumerate(unpack(p, arity)) if e)
        parts.append(text + times + factors if factors else text)
    return " + ".join(parts) or "0"


def default_names(arity, letter):
    """The coordinate names letter1, ..., letter<arity>."""
    return [f"{letter}{i + 1}" for i in range(arity)]


def evaluate_terms(terms, arity, values, one, den=1):
    """Sum of c / den * prod(values[i] ** e) over a sparse term table in
    `arity` variables.

    Works over any commutative ring containing the rational coefficients;
    powers of each value are computed once and cached, and the terms are
    summed with `+`.  It serves `Polynomial.evaluate` at points and
    `Polynomial.evaluate_in`; substitution into jets goes through
    `series.series_compose_all`, which forms each polynomial as one
    combination.
    """
    if not terms:
        return one * Fraction(0)
    terms = {unpack(p, arity): c for p, c in terms.items()}
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

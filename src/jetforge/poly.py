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
`Polynomial` and `series.TruncatedSeries`.  Only `pack`, `rational_table`
and `parse_table` check their input; the others map canonical tables to
canonical tables, since over the integral domains Z, Q and Q[x] only a sum
can cancel to zero.  Rational tables of either class run them on the
integer numerators and keep the denominator with the functions under
"rational tables": one lcm to clear Fractions, one gcd to reduce a result
(the content and primitive part of Knuth, TAOCP vol. 2, 4.6.1).
`add_fractions` and `scale_fraction` serve `Polynomial` only: every sum and
product of series takes its common denominator in `series._combined`.
`_monomials` substitutes ring elements into monomials, one product each,
for `Polynomial.evaluate_in` and `series.series_compose_all`.
Univariate division and gcd read the numerators as dense integer lists,
and text is read into a table in one pass over its tokens.
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

def rational_table(pairs, arity):
    """(numerators, denominator) of caller input in lowest terms, given as
    (exponent, coefficient) pairs: exponents checked by `pack`, coefficients
    ints or Fractions (else TypeError), repeats summed and zeros dropped."""
    keys, nums, dens = [], [], []
    for expo, c in pairs:
        key = pack(expo, arity)
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
    return fraction_table(keys, nums, dens)


def fraction_table(keys, nums, dens):
    """(numerators, denominator) in lowest terms of the terms nums[i] /
    dens[i] at keys[i], each numerator nonzero and each denominator
    positive: the lcm of the denominators scales the numerators, repeats
    are summed and zeros dropped."""
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


def _monomials(keys, arity, values, one):
    """{p: x^p} for the packed keys p of monomials in `arity` variables,
    x = `values`, with the key 0 of the constant `one`.

    Each monomial is one product, x^p = x^(p - e_l) * x_l with l the first
    index where p_l > 0.  A key missing from the table walks down that way
    to the first monomial already formed, and the products then run back
    up: a loop, not a recursion, so that an exponent in the hundreds of
    thousands needs no call stack.  Every chain starts from `one`, so each
    monomial lies in its ring.
    """
    # the key of x_l, one in the degree field and in its exponent field,
    # by the shift of that field
    units = {BITS * (arity - 1 - l): 1 << BITS * arity
             | 1 << BITS * (arity - 1 - l) for l in range(arity)}
    index = {unit: l for l, unit in enumerate(units.values())}
    table = {0: one}
    for p in keys:
        chain = []
        while p not in table:
            chain.append(p)
            for shift, unit in units.items():
                if p >> shift & FIELD:
                    break
            p -= unit
        for q in reversed(chain):
            table[q] = table[p] * values[index[q - p]]
            p = q
    return table


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


def over_primitive(num, den):
    """num / den as num * c / (den * c), for the one rational c that makes
    den primitive with integer coefficients and a positive leading
    coefficient."""
    table = den._table
    g = math.gcd(*table.values())
    if table[leading_exponent(table, den.arity)] < 0:
        g = -g
    # c = den._den / g
    scale = den._den if g > 0 else -den._den
    return (Polynomial._new(num.arity, *lowest_terms(
                {p: n * scale for p, n in num._table.items()},
                num._den * abs(g))),
            Polynomial._new(den.arity, table if g == 1 else
                            {p: n // g for p, n in table.items()}, 1))


def _quotient_hash(num, den=None):
    """The hash of num / den (of num when den is None), den nonzero: equal
    for equal quotients, and to that of the int or Fraction one equals.
    Keys add when monomials multiply, so a common factor changes neither
    the difference of the greatest keys nor the ratio of their
    coefficients, hashed with the arity; zero hashes as 0, and a constant
    (difference 0) as the ratio."""
    table = num._table
    if not table:
        return 0
    key = max(table)
    n, d = table[key], num._den
    if den is not None:
        low = max(den._table)
        key, n, d = key - low, n * den._den, d * den._table[low]
    if not key:
        return hash(n if d == 1 else Fraction(n, d))
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    return hash((num.arity, key, n // g, d // g))


# -- univariate division and gcd on dense integer coefficient lists ----------

def _dense(f):
    """The numerators of a univariate polynomial as a list, constant term
    first, and its denominator."""
    if f.arity != 1:
        raise ArityMismatch(f"expected one variable, got {f.arity}")
    coeffs = [0] * (f.degree() + 1)
    for p, n in f._table.items():
        coeffs[p & FIELD] = n
    return coeffs, f._den


def _from_dense(coeffs, den):
    """The univariate polynomial sum coeffs[e] x^e / den, den > 0."""
    step = (1 << BITS) + 1  # the key of x
    return Polynomial._new(1, *lowest_terms(
        {e * step: c for e, c in enumerate(coeffs) if c}, den))


def _divide(a, b):
    """(q, r, s) with s * a = q * b + r, s > 0 and len(r) < len(b), for
    dense integer lists a and b, b's last entry nonzero, r without zero
    top entries.  The remainder is scaled at a step only by what makes
    the next quotient entry an integer, |lc(b)| / gcd(top, lc(b))."""
    r = list(a)
    n = len(b) - 1
    lead = b[-1]
    s = 1
    steps = []
    for i in range(len(r) - 1 - n, -1, -1):
        top = r.pop()
        if top:
            g = math.gcd(top, lead)
            f = abs(lead) // g
            if f != 1:
                r = [c * f for c in r]
                s *= f
            c = top // g if lead > 0 else -(top // g)
            for j in range(n):
                r[i + j] -= c * b[j]
            steps.append((i, c, s))
    q = [0] * max(len(a) - n, 0)
    for i, c, si in steps:
        q[i] = c * (s // si)
    while r and not r[-1]:
        r.pop()
    return q, r, s


def _primitive(coeffs):
    """A dense integer list over the gcd of its entries, with its last
    entry positive."""
    g = math.gcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    return coeffs if g == 1 else [c // g for c in coeffs]


def univ_divmod(a, b):
    """Quotient and remainder over Q of univariate polynomials, b nonzero:
    one integer division of the numerators (see `_divide`)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    (num, den), (bnum, bden) = _dense(a), _dense(b)
    q, r, s = _divide(num, bnum)
    return _from_dense([c * bden for c in q], s * den), _from_dense(r, s * den)


def univ_gcd(a, b):
    """The gcd of univariate polynomials in primitive integer form with a
    positive leading coefficient, zero when both are zero: the primitive
    remainder sequence of the numerators (Brown, JACM 1971; Knuth, TAOCP
    vol. 2, 4.6.1)."""
    a, b = _dense(a)[0], _dense(b)[0]
    if not a:
        a, b = b, a
    if not a:
        return Polynomial.zero(1)
    a = _primitive(a)
    while b:
        b = _primitive(b)
        a, b = b, _divide(a, b)[1]
    return _from_dense(a, 1)


def univ_lcm(polys):
    """The lcm of univariate polynomials in primitive integer form with
    positive leading coefficients, in that form: highest degree first, so
    that most of the others divide it, and a gcd only for one that does
    not."""
    lcm, *others = sorted(polys, key=Polynomial.degree, reverse=True)
    for f in others:
        if univ_divmod(lcm, f)[1]:
            lcm = univ_divmod(lcm * f, univ_gcd(lcm, f))[0]
    return lcm


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
        return _quotient_hash(self)

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
        """Exact value at a tuple of rationals: the order-0 Taylor
        coefficient there (see `_shifted`), summed in integers and formed
        as one Fraction."""
        table, den = _shifted(self, [_fr(x) for x in point], 0)
        return Fraction(table.get(0, 0), den)

    def evaluate_in(self, values, one):
        """Evaluate on elements of any commutative ring.

        `values` substitute the variables; `one` must be the multiplicative
        identity of the target ring (the empty product; times 0, the zero
        polynomial's value).  The terms c * x^p, x^p from `_monomials`,
        are summed with `+` in the order of the stored table.
        """
        if len(values) != self.arity:
            raise ArityMismatch(
                f"expected {self.arity} values, got {len(values)}")
        table, den = self._table, self._den
        if not table:
            return one * Fraction(0)
        powers = _monomials(table, self.arity, list(values), one)
        total = None
        for p, n in table.items():
            term = powers[p] * (n if den == 1 else Fraction(n, den))
            total = term if total is None else total + term
        return total

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
        and omitted '^1' exponents (see `parse_table`)."""
        if not isinstance(text, str):
            raise InputError(
                f"expected polynomial text, got {type(text).__name__}")
        return cls._new(len(names), *parse_table(text, names))

    def __repr__(self):
        return f"Polynomial({self.to_string()!r})"


# Writers of the slots of a polynomial, past the guard of its __setattr__.
_set_arity, _set_table, _set_den, _set_terms = (
    getattr(Polynomial, name).__set__ for name in Polynomial.__slots__)


# -- polynomial text -------------------------------------------------------------

# A number (digits, an optional '/q', decimal point or decimal exponent), a
# name (a letter or '_', then anything but blanks and operators), an
# operator, or any other visible character, which is an error.
_TOKEN = re.compile(r"""\s*(?:
    (?P<number>(?:\d|\.\d)[\w.]*(?:/\w+|(?<=[eE])[+-]\w+)?)
  | (?P<name>[^\W\d][^\s+\-*^]*)
  | (?P<op>[-+*^])
  | (?P<other>\S)
)""", re.VERBOSE)

# a decimal number with an exponent, as `Fraction` reads it; group 1 holds
# the exponent's digits
_DECIMAL_EXPONENT = re.compile(
    r"(?=\d|\.\d)(?:\d*|\d+(?:_\d+)*)(?:\.(?:\d*|\d+(?:_\d+)*))?"
    r"[eE][-+]?(\d+(?:_\d+)*)")


def parse_table(text, names):
    """(numerators, denominator) of polynomial text in the variables
    `names`, read in one pass over its tokens.

    A term is a '*'-product of numbers and factors 'name' or 'name^k';
    '+' and '-' separate terms everywhere except inside the decimal
    exponent of a number such as 1e-3.  Empty terms are skipped after '+'
    and at the start, so '+ -x' reads as '-x'; an empty term after '-' is
    an error.  Each term's key is packed as its term ends.  Of several
    errors the one raised is an unexpected character, else an empty term
    or factor, else a bad factor or an exponent of more than `BITS` bits,
    else a term of total degree at the bound: the first of its rank in the
    text.
    """
    arity = len(names)
    index = {name: i for i, name in enumerate(names)}
    if len(index) != arity:
        raise InputError("repeated variable name")
    tokens = _TOKEN.findall(text.rstrip())
    tokens.append(("", "", "+", ""))  # ends the last term
    keys, nums, dens = [], [], []
    # the first error of each rank below an unexpected character
    shape = factor = degree = None
    # the term's sign, its first token, the first token of its last factor
    sign, start, first = 1, 0, 0
    num, den, expo, hollow = 1, 1, [0] * arity, False
    for i, (_, _, op, other) in enumerate(tokens):
        if other:
            raise InputError(f"unexpected character {other!r}")
        if op in ("", "^"):
            continue
        if i == first:
            hollow = hollow or op == "*" or i > start
        elif not (shape or factor):
            try:
                n, d = _read_factor(tokens[first:i], index, expo)
            except InputError as exc:
                factor = exc
            else:
                num *= n
                den *= d
        first = i + 1
        if op == "*":
            continue
        if i == start:
            if sign < 0 and not shape:
                shape = InputError("a '-' is not followed by a term")
        elif hollow:
            if not shape:
                shape = InputError("empty factor in term " + repr(
                    "".join(map("".join, tokens[start:i]))))
        elif not (shape or factor or degree):
            key = sum(expo)
            if key >= BOUND:
                degree = past_bound(f"the total degree of {tuple(expo)}")
            elif num:
                for e in expo:
                    key = key << BITS | e
                keys.append(key)
                nums.append(sign * num)
                dens.append(den)
        sign, start = (1 if op == "+" else -1), first
        num, den, expo, hollow = 1, 1, [0] * arity, False
    for error in (shape, factor, degree):
        if error:
            raise error
    return fraction_table(keys, nums, dens)


def _read_factor(tokens, index, expo):
    """The (numerator, denominator) a factor of a term multiplies its
    coefficient by: a number's, or (1, 1) for a variable, whose exponent
    is added into `expo`."""
    number, name, _, _ = tokens[0]
    if number and len(tokens) == 1:
        return _read_number(number)
    if name and (len(tokens) == 1 or len(tokens) == 3 and tokens[1][2] == "^"
                 and tokens[2][0].isdecimal()):
        if name not in index:
            raise InputError(f"unknown variable {name!r}")
        try:
            e = int(tokens[2][0]) if len(tokens) == 3 else 1
        except ValueError:  # more digits than int() reads
            raise past_bound(f"an exponent of {name!r}") from None
        # wider than a key's field: refused as read, since a term of such
        # exponents could sum to more digits than str() writes in the
        # message of its total degree
        if e >> BITS:
            raise past_bound(f"an exponent of {name!r}")
        expo[index[name]] += e
        return 1, 1
    raise InputError("bad factor " + repr("".join(map("".join, tokens))))


def _read_number(text):
    """(numerator, positive denominator) of a number token: digits and
    digits/digits as ints, other forms through `Fraction` once a decimal
    exponent is seen to stay below `BOUND`."""
    try:
        if text.isascii():
            if text.isdigit():
                return int(text), 1
            p, slash, q = text.partition("/")
            if slash and p.isdigit() and q.isdigit() and q.strip("0"):
                return int(p), int(q)
        exponent = _DECIMAL_EXPONENT.fullmatch(text)
        if exponent:
            digits = exponent[1].replace("_", "").lstrip("0")
            if len(digits) > len(str(BOUND)) or int(digits or 0) >= BOUND:
                raise past_bound(f"the decimal exponent of {text!r}")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad coefficient {text!r}") from None
    return value.numerator, value.denominator


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


# -- values and Taylor coefficients at a rational point, in integers ---------

def taylor_shift(products, point, order):
    """(den, tables): the Taylor coefficients of products of polynomials at
    a point of rationals through total degree `order`, in integers.

    Each item of `products` is a sequence of polynomials, and its product
    f is f(point + t) = sum_b tables[k][b] t^b / den up to that degree:
    each table maps exponent tuples b, |b| <= order, to nonzero ints, and
    den is one positive int for them all, with no factor common to it and
    every coefficient.  Each distinct polynomial is shifted once (see
    `_shifted`), and the tables of a product's factors are multiplied by
    `mul_terms` cut above the degree, which is exact up to it; the empty
    product is 1.  No series is formed.
    """
    arity = len(point)
    point = [_fr(x) for x in point]
    limit = (order + 1) << BITS * arity
    # id(f) -> its shifted (table, den)
    shifted, tables, dens = {}, [], []
    for factors in products:
        table, den = {0: 1}, 1
        for f in factors:
            one = shifted.get(id(f))
            if one is None:
                one = shifted[id(f)] = _shifted(f, point, order)
            table, den = mul_terms(table, one[0], limit), den * one[1]
        tables.append(table)
        dens.append(den)
    common = math.lcm(*dens)
    tables = [table if den == common else
              {p: c * (common // den) for p, c in table.items()}
              for table, den in zip(tables, dens)]
    g = math.gcd(common, *(c for table in tables for c in table.values()))
    return common // g, [{unpack(p, arity): c // g for p, c in table.items()}
                         for table in tables]


def _shifted(f, point, order):
    """(table, den): f(point + t) = sum table[key] t^key / den through
    total degree `order`, in packed keys and integers.  One variable at a
    time: with x_i = u_i / v_i and E_i the top exponent of variable i in
    f,

        v_i^E_i (x_i + t_i)^e
            = sum_{j <= e} C(e, j) u_i^(e - j) v_i^(E_i - e + j) t_i^j,

    so each term spreads over at most order + 1 terms by products of
    integers, and terms that then agree in the key are summed before the
    next variable."""
    arity = f.arity
    if len(point) != arity:
        raise ArityMismatch(f"expected {arity} values, got {len(point)}")
    table, den = f._table, f._den
    for i, x in enumerate(point):
        shift = BITS * (arity - 1 - i)
        unit = 1 << BITS * arity | 1 << shift  # the key of x_i, and of t_i
        u, v = x.numerator, x.denominator
        top = max(p >> shift & FIELD for p in table) if table else 0
        if not top:
            continue
        den *= v ** top
        # exponent e -> (key of t_i^j, integer weight); at u = 0 only j = e
        spreads, out = {}, {}
        for p, n in table.items():
            e = p >> shift & FIELD
            spread = spreads.get(e)
            if spread is None:
                spread = spreads[e] = [
                    (j * unit, math.comb(e, j) * u ** (e - j)
                     * v ** (top - e + j))
                    for j in range(min(e, order) + 1) if u or j == e]
            base = p - e * unit
            for step, w in spread:
                key = base + step
                out[key] = out.get(key, 0) + n * w
        table = out
    limit = (order + 1) << BITS * arity
    return {key: c for key, c in table.items() if c and key < limit}, den

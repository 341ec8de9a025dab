"""Exact arithmetic in the truncated multivariate power series ring.

A series lives in Q[t_1..t_d]/(t_1..t_d)^(r+1): a sparse map from exponent
tuples of total degree <= r to nonzero coefficients.

A series whose coefficients are all rational stores them as `Polynomial`
does: a sparse table of nonzero integer numerators over one positive common
denominator, kept in lowest terms.  Its arithmetic runs the term-table
kernel of `poly` on the integers and keeps the denominator with the
rational-table functions of `poly` that `Polynomial` uses too, which reduce
each result once, with one gcd over the numerators and the denominator.  A
series with any other coefficient (notably Polynomial, for generic jets)
keeps a table of those ring elements, which need only support +, * and
truth testing; an operation with such an operand runs the kernel on the
coefficients themselves.  `coeffs` reads either form as a
dict of ring elements, with Fractions for rationals.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (ArityMismatch, DimensionMismatch, InputError, NotAUnit,
                     OrderIncrease)
from .linalg import unipotent_inverse
from .poly import (Polynomial, add_fractions, add_terms, clean_terms,
                   derive_terms, evaluate_terms, integer_table, lowest_terms,
                   mul_terms, pow_terms, scale_fraction, terms_to_string)


def _ring_element(c):
    return Fraction(c) if isinstance(c, int) else c


def _check_shape(dims, order):
    if dims < 1:
        raise ValueError("series need at least one variable")
    if order < 0:
        raise ValueError("truncation order must be non-negative")


class TruncatedSeries:
    """Element of the order-r truncated power series ring in d variables.

    With all coefficients rational, `_table` maps exponents to integer
    numerators and `_den` is their positive common denominator, with no
    factor common to all of them; otherwise `_table` maps exponents to the
    coefficients and `_den` is None.  Either way the table holds no zero.
    `_coeffs` keeps the Fractions of a rational series once `coeffs` has
    been read.
    """

    __slots__ = ("dims", "order", "_table", "_den", "_coeffs")

    def __new__(cls, dims, order, coeffs=None):
        _check_shape(dims, order)
        return cls._wrap(dims, order, clean_terms(
            (coeffs or {}).items(), dims, _ring_element, order,
            DimensionMismatch))

    @classmethod
    def _new(cls, dims, order, table, den):
        """The series of a stored form (see the class docstring), taken as is."""
        self = object.__new__(cls)
        _set_dims(self, dims)
        _set_order(self, order)
        _set_table(self, table)
        _set_den(self, den)
        return self

    @classmethod
    def _wrap(cls, dims, order, table):
        """The series of a canonical table of ring elements of degree <=
        order, unchecked; in integer form if every coefficient is an int or
        a Fraction."""
        for c in table.values():
            if type(c) is not Fraction and type(c) is not int:
                return cls._new(dims, order, table, None)
        return cls._new(dims, order, *integer_table(table))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def coeffs(self):
        """The read-only dict of nonzero coefficients by exponent, rationals
        as Fractions, shared by every reader of the series; for a rational
        series it is built from the integer form on first read and kept."""
        den = self._den
        if den is None:
            return self._table
        try:
            return self._coeffs
        except AttributeError:
            coeffs = {p: Fraction(n, den) for p, n in self._table.items()}
            _set_coeffs(self, coeffs)
            return coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dims, order):
        _check_shape(dims, order)
        return cls._new(dims, order, {}, 1)

    @classmethod
    def const(cls, value, dims, order):
        if not isinstance(value, (int, Fraction)):
            return cls(dims, order, {(0,) * dims: value})
        _check_shape(dims, order)
        return cls._new(
            dims, order, {(0,) * dims: value.numerator} if value else {},
            value.denominator)

    @classmethod
    def one(cls, dims, order):
        return cls.const(1, dims, order)

    @classmethod
    def variable(cls, index, dims, order):
        return cls(dims, order, Polynomial.variable(index, dims)._table)

    # -- inspection --------------------------------------------------------

    def coefficient(self, expo):
        expo = tuple(expo)
        if self._den is None:
            return self._table.get(expo, Fraction(0))
        return Fraction(self._table.get(expo, 0), self._den)

    def constant_term(self):
        return self.coefficient((0,) * self.dims)

    def is_zero(self):
        return not self._table

    def __bool__(self):
        return bool(self._table)

    def _is_one(self):
        return (self._den == 1 and len(self._table) == 1
                and self._table.get((0,) * self.dims) == 1)

    def homogeneous(self, degree):
        """The degree-s coefficients as a dict (may be empty)."""
        den = self._den
        return {p: c if den is None else Fraction(c, den)
                for p, c in self._table.items() if sum(p) == degree}

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.dims != other.dims or self.order != other.order:
            return False
        if self._den is None or other._den is None:
            return self.coeffs == other.coeffs
        return self._den == other._den and self._table == other._table

    def __hash__(self):
        # equal series share their exponents, whatever the coefficient type
        return hash((self.dims, self.order, frozenset(self._table)))

    def _check_compatible(self, other):
        if self.dims != other.dims or self.order != other.order:
            raise DimensionMismatch(
                f"series in ({self.dims} vars, order {self.order}) vs "
                f"({other.dims} vars, order {other.order})")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self + TruncatedSeries.const(other, self.dims, self.order)
        self._check_compatible(other)
        da, db = self._den, other._den
        if da is None or db is None:
            return TruncatedSeries._wrap(self.dims, self.order,
                                         add_terms(self.coeffs, other.coeffs))
        return TruncatedSeries._new(self.dims, self.order, *add_fractions(
            self._table, da, other._table, db))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._new(self.dims, self.order,
                                    {p: -c for p, c in self._table.items()},
                                    self._den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_compatible(other)
        # products by 1, where powers and Taylor weights start, are free
        if self._is_one():
            return other
        if other._is_one():
            return self
        if self._den is None or other._den is None:
            return TruncatedSeries._wrap(self.dims, self.order, mul_terms(
                self.coeffs, other.coeffs, self.order))
        return TruncatedSeries._new(self.dims, self.order, *lowest_terms(
            mul_terms(self._table, other._table, self.order),
            self._den * other._den))

    __rmul__ = __mul__

    def scale(self, scalar):
        """Multiply every coefficient by a ring scalar."""
        if not scalar:
            return TruncatedSeries.zero(self.dims, self.order)
        if self._den is not None and isinstance(scalar, (int, Fraction)):
            return TruncatedSeries._new(self.dims, self.order, *scale_fraction(
                self._table, self._den, scalar))
        den = self._den
        return TruncatedSeries._wrap(self.dims, self.order, {
            p: (c if den is None else Fraction(c, den)) * scalar
            for p, c in self._table.items()})

    def __pow__(self, n):
        table = pow_terms(self._table, n, self.dims, self.order)
        if self._den is None:
            return TruncatedSeries._wrap(self.dims, self.order, table)
        return TruncatedSeries._new(self.dims, self.order,
                                    *lowest_terms(table, self._den ** n))

    # -- truncation structure ----------------------------------------------

    def restrict(self, new_order):
        """Truncate to a lower (or equal) order."""
        if new_order > self.order:
            raise OrderIncrease(
                f"cannot restrict order {self.order} to {new_order}")
        if new_order < 0:
            raise ValueError("truncation order must be non-negative")
        table = {p: c for p, c in self._table.items() if sum(p) <= new_order}
        if self._den is None:
            return TruncatedSeries._wrap(self.dims, new_order, table)
        return TruncatedSeries._new(self.dims, new_order,
                                    *lowest_terms(table, self._den))

    def zero_extended(self, new_order):
        """The zero-fill preimage at a higher order (a section of restrict)."""
        if new_order < self.order:
            raise OrderIncrease(
                f"zero_extended targets order >= {self.order}")
        return TruncatedSeries._new(self.dims, new_order, self._table,
                                    self._den)

    def derive(self, index):
        """Formal d/dt_index.

        The result is declared at the same order r but carries no degree-r
        information: a caller that needs the derivative faithful at order r
        must start from an order r+1 series.
        """
        table = derive_terms(self._table, index, self.dims)
        if self._den is None:
            return TruncatedSeries._wrap(self.dims, self.order, table)
        return TruncatedSeries._new(self.dims, self.order,
                                    *lowest_terms(table, self._den))

    def invert_unit(self):
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        c0 = self.constant_term()
        if isinstance(c0, Polynomial):
            if c0.degree() <= 0:
                c0 = c0.constant_term()
            else:
                raise NotAUnit("constant term is not a rational unit")
        if not c0:
            raise NotAUnit("constant term is zero")
        # a = c0 (1 + n) with n of positive valuation, so n^(r+1) = 0
        inv0 = Fraction(1) / c0
        one = TruncatedSeries.one(self.dims, self.order)
        [[result]] = unipotent_inverse([[one]], [[self.scale(inv0) - one]],
                                       self.order)
        return result.scale(inv0)

    # -- text form ---------------------------------------------------------

    def to_string(self):
        """Canonical text: graded-lex terms 'c * t1^e1*...' joined by ' + '."""
        return terms_to_string(
            self._table, [f"t{i + 1}" for i in range(self.dims)], " * ",
            self._den or 1)

    @classmethod
    def from_string(cls, text, dims, order):
        """Parse the canonical text (rational coefficients only)."""
        names = [f"t{i + 1}" for i in range(dims)]
        poly = Polynomial.from_string(text, names)
        for p in poly._table:
            if sum(p) > order:
                raise InputError(
                    f"term of degree {sum(p)} exceeds order {order}")
        _check_shape(dims, order)
        # a rational series stores what a polynomial stores
        return cls._new(dims, order, poly._table, poly._den)

    def __repr__(self):
        return f"TruncatedSeries(d={self.dims}, r={self.order}, {self.to_string()!r})"


# Writers of the slots of a series, past the guard of its __setattr__; the
# slot descriptors' own setters are the cheapest way in.
_set_dims, _set_order, _set_table, _set_den, _set_coeffs = (
    getattr(TruncatedSeries, name).__set__
    for name in TruncatedSeries.__slots__)


class JetPoint:
    """A point of the jet space of affine n-space: n series sharing (d, r).

    The coefficient of t^p in component i is the jet coordinate indexed by
    (p, i); the constant terms form the base point.
    """

    __slots__ = ("series",)

    def __init__(self, series):
        series = tuple(series)
        if not series:
            raise ArityMismatch("a jet needs at least one component")
        d, r = series[0].dims, series[0].order
        for s in series:
            if not isinstance(s, TruncatedSeries):
                raise TypeError("jet components must be TruncatedSeries")
            if s.dims != d or s.order != r:
                raise DimensionMismatch(
                    "all jet components must share the same (dims, order)")
        object.__setattr__(self, "series", series)

    def __setattr__(self, name, value):
        raise AttributeError("JetPoint is immutable")

    @property
    def n(self):
        return len(self.series)

    @property
    def dims(self):
        return self.series[0].dims

    @property
    def order(self):
        return self.series[0].order

    def component(self, i):
        return self.series[i]

    def basepoint(self):
        return tuple(s.constant_term() for s in self.series)

    def offsets(self):
        """Components minus their constant terms (positive valuation parts)."""
        return tuple(s - TruncatedSeries.const(s.constant_term(), s.dims, s.order)
                     for s in self.series)

    def restrict(self, new_order):
        return JetPoint([s.restrict(new_order) for s in self.series])

    def zero_extended(self, new_order):
        return JetPoint([s.zero_extended(new_order) for s in self.series])

    def __eq__(self, other):
        if not isinstance(other, JetPoint):
            return NotImplemented
        return self.series == other.series

    def __repr__(self):
        return f"JetPoint({[s.to_string() for s in self.series]})"

    @classmethod
    def constant(cls, values, dims, order):
        """The constant jet sitting at a rational point."""
        return cls([TruncatedSeries.const(v, dims, order) for v in values])


def taylor_weights(offsets):
    """The map q -> prod_i offsets[i]^q[i] / q! over multi-degrees q.

    `offsets` are series of positive valuation sharing (dims, order), such as
    the offsets of a jet; the powers of each are cached across calls.
    """
    one = TruncatedSeries.one(offsets[0].dims, offsets[0].order)
    powers = [[one] for _ in offsets]

    def weight(q):
        w = one
        qfact = 1
        for cache, s, e in zip(powers, offsets, q):
            while len(cache) <= e:
                cache.append(cache[-1] * s)
            if e:
                w = w * cache[e]
                qfact *= math.factorial(e)
        return w if qfact == 1 else w.scale(Fraction(1, qfact))

    return weight


def series_compose(f, jet):
    """Substitute the components of a jet into f and truncate.

    `f` may be a Polynomial in n variables (full substitution) or a
    TruncatedSeries in n variables, in which case it is evaluated on the
    positive-valuation offsets of the jet (a Taylor-style composition).
    """
    if isinstance(f, Polynomial):
        if f.arity != jet.n:
            raise ArityMismatch(
                f"polynomial in {f.arity} variables applied to a jet with "
                f"{jet.n} components")
        one = TruncatedSeries.one(jet.dims, jet.order)
        return evaluate_terms(f._table, list(jet.series), one, f._den)
    if isinstance(f, TruncatedSeries):
        if f.dims != jet.n:
            raise ArityMismatch(
                f"series in {f.dims} variables applied to a jet with "
                f"{jet.n} components")
        one = TruncatedSeries.one(jet.dims, jet.order)
        return evaluate_terms(f._table, list(jet.offsets()), one, f._den or 1)
    raise TypeError("series_compose expects a Polynomial or TruncatedSeries")

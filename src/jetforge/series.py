"""Exact arithmetic in the truncated multivariate power series ring.

A series lives in R[t_1..t_d]/(t_1..t_d)^(r+1), with R = Q or R =
Q[a_1..a_k]: a sparse map from exponent tuples of total degree <= r to
nonzero coefficients.  A generic jet, or symbolic initial data, has
polynomial coefficients in the jet coordinates a_1..a_k.

A rational series is the case k = 0 of a series over Q[a_1..a_k], and
every operation has one code path for both.  A series is stored as
`Polynomial` is: a sparse table of nonzero integer numerators over one
positive common denominator, kept in lowest terms, keyed by packed exponent
keys (see `poly`).  The key of t^p a^e is the key of p followed by the key
of e, a-degree first,

    key = key(p) << BITS*(k+1) | key(e),

and with no a-part at all when k = 0, so that a rational series stores
what a polynomial in t_1..t_d stores.  The low part of a key is the
coefficient polynomial's own key, a rational table is padded to Q[a] by one
shift, and a key is split by one shift and one mask (both nothing at k = 0).
The t-degree is the most significant field, so a product cut at order r
keeps exactly the keys below (r + 1) << s, s the shift of that field: one
comparison.  The order stays below the exponent bound of `poly` (else
`InputError`), so the t-degrees of two factors add without carrying out of
their field.  The a-degree of a product is not cut, so a product that takes
it to the bound raises `InputError`.  A zero series is rational.

One read tells the rings apart on purpose: one coefficient of a rational
series is one lookup in the table, with no pass over it, since
`constant_term` is on every hot path.  `==` compares values, not stored
forms, so a rational series equals one over Q[a] whose coefficients are
constants.

Every sum and product of series runs one entry, `_combined`, on the
stored forms of its operands: each term is a table, its denominator and
its arity, times another table or an int numerator, each with its own.
One pass over the terms takes their common denominator and their one ring
of coefficients, rational tables are padded to that ring, and the table
kernel of `poly`, which `Polynomial` arithmetic runs too, sums the terms
on the integers, cut at the order.  The sum comes back over the common
denominator, and a series that keeps it reduces it once, with one gcd over
the numerators and the denominator.  `+` and `-` are two unit terms, `*`
one product term, and `scale` a one-term `combination`.

`TruncatedSeries.combination` forms a linear combination sum c * a, whose
coefficients c are rationals, `Polynomial`s or series (then each term is
a product, cut at the order), as one kernel pass, where a chain of
`scale`, `*` and `+` would build and reduce a series per term.  Two
solvers run the kernel on stored tables, with no series per intermediate
sum: `euler_solve` solves E F = S F degree by degree (E the Euler
operator), keeping each degree of each entry as a stored form in lowest
terms and building one series per entry from their union, which needs no
gcd, and `is_flat` tests dF/dt_a + C_a F = 0 through the order below a
frame's, forming each C_a entry and each residual as one kernel pass and
reducing none.  `graded_parts` splits a series into its homogeneous parts.

`series_compose_all` substitutes one jet into a list of polynomials (or of
series, on the jet's offsets) in one call: every distinct monomial the list
reads is one product, in a table that `poly._monomials`, the walker that
`Polynomial.evaluate_in` reads too, builds for the call alone, and each
polynomial is one `combination` of those monomials.  `series_compose` is its
one-element case.

`taylor_sum` forms sum_q X_q w_q over the weights w_q = offsets^q / q! of
`taylor_weights`, with no w_q of a zero X_q: `beta`, `alpha` and the
Taylor route of `scheme` run it on partials at a base point.

`coeffs`, `coefficient`, `homogeneous` and the text form read the
coefficients, built when read: a constant one as a Fraction, any other as a
`Polynomial` in the a-variables.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no synchronization.  The map that
`taylor_weights` returns keeps the weights it has formed in a table that
only grows, so threads may share it too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (ArityMismatch, DimensionMismatch, InputError, NotAUnit,
                     OrderIncrease)
from .linalg import unipotent_inverse
from .poly import (BITS, BOUND, Polynomial, _monomials, _sum_terms,
                   default_names, derive_terms, fraction_table, lowest_terms,
                   pack, past_bound, pow_terms, terms_to_string, unpack)


def _check_shape(dims, order):
    if dims < 1:
        raise ValueError("series need at least one variable")
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    # every t-degree is at most the order, so below the bound no product
    # carries out of the t-degree field
    if order >= BOUND:
        raise past_bound("the truncation order")


def _low(arity):
    """The bits below the t-part of a key over Q[a_1..a_arity], 0 over Q."""
    return BITS * (arity + 1) if arity else 0


def _shift(dims, arity):
    """The shift of the t-degree field of a key, `_low(arity)` included."""
    return BITS * (dims + arity + 1) if arity else BITS * dims


def _padded(table, arity):
    """A rational table over Q[a_1..a_arity]: each key followed by the key
    of the constant monomial, 0."""
    low = _low(arity)
    return {p << low: n for p, n in table.items()}


def _combined(dims, order, terms):
    """The series entry to the table kernel: the stored form (table, den,
    arity) of sum a/da * b/db over the terms (a, da, ka, b, db, kb), cut
    at `order`, over the lcm den of the products da db, not reduced.

    a is a table over Q[a_1..a_ka] with denominator da, and b is one over
    Q[a_1..a_kb] with denominator db, or a nonzero int numerator over db
    (kb = 0).  One pass takes den and the one nonzero arity (two raise
    `ArityMismatch`); rational tables are padded to it, in a new term list
    only when one needs it, and `poly._sum_terms` sums the terms.  A
    product of two tables over Q[a] whose a-degree reaches the exponent
    bound raises `InputError`.  The empty sum is the rational zero ({}, 1,
    0).
    """
    den, arity, guard = 1, 0, 0
    for _, da, ka, _, db, kb in terms:
        dd = da * db
        if den % dd:
            den = math.lcm(den, dd)
        if ka or kb:
            if len({arity, ka, kb} - {0}) > 1:
                raise ArityMismatch(
                    "series combined over different coefficient variables")
            # only a product of two tables over Q[a] adds a-degrees
            arity, guard = ka or kb, guard or (ka and kb)
    if arity and any(ka != arity or kb != arity and type(b) is not int
                     for _, _, ka, b, _, kb in terms):
        terms = [(a if ka == arity else _padded(a, arity), da, ka,
                  b if kb == arity or type(b) is int else _padded(b, arity),
                  db, kb) for a, da, ka, b, db, kb in terms]
    out = _sum_terms(terms, den, order + 1 << _shift(dims, arity))
    if not out:
        return {}, 1, 0
    # an a-degree that reached the bound sets the top bit of its field
    if guard and any(map((1 << _low(arity) - 1).__and__, out)):
        raise past_bound("the degree in the coefficient variables")
    return out, den, arity


def _summed(dims, order, terms):
    """The series of the kernel's sum over the terms, in lowest terms."""
    table, den, arity = _combined(dims, order, terms)
    return TruncatedSeries._new(dims, order, *lowest_terms(table, den), arity)


def same_form(x, y):
    """Whether two series have one stored form: the same shape, table,
    denominator and ring of coefficients."""
    return (x.dims == y.dims and x.order == y.order and x._den == y._den
            and x._arity == y._arity and x._table == y._table)


class TruncatedSeries:
    """Element of the order-r truncated power series ring in d variables.

    `_table` maps packed keys (see the module docstring) to nonzero integer
    numerators and `_den` is their positive common denominator, with no
    factor common to all of them.  `_arity` is the number k of coefficient
    variables, 0 for rational coefficients: a key is a t-key followed by an
    a-key, none when k = 0, and the coefficient of t^p is the polynomial of
    the keys whose t-part is p's.  A zero series is rational.  `_coeffs`
    keeps the coefficients once `coeffs` has been read.
    """

    __slots__ = ("dims", "order", "_table", "_den", "_arity", "_coeffs")

    def __new__(cls, dims, order, coeffs=None):
        _check_shape(dims, order)
        coeffs = coeffs or {}
        arity = 0
        for c in coeffs.values():
            if isinstance(c, Polynomial):
                if c and c.arity != arity:
                    if arity:
                        raise ArityMismatch(
                            f"coefficients in {arity} and {c.arity} variables")
                    arity = c.arity
            elif not isinstance(c, (int, Fraction)):
                raise TypeError("series coefficients must be rationals or "
                                f"Polynomials, got {type(c).__name__}")
        # one term per monomial t^p a^e of a coefficient; a rational
        # coefficient is the term at e = 0
        low = _low(arity)
        limit = order + 1 << BITS * dims
        keys, nums, dens = [], [], []
        for p, c in coeffs.items():
            key = pack(p, dims, DimensionMismatch)
            if key >= limit:
                continue
            key <<= low
            if isinstance(c, Polynomial):
                for a, n in c._table.items():
                    keys.append(key | a)
                    nums.append(n)
                    dens.append(c._den)
            elif c:
                keys.append(key)
                nums.append(c.numerator)
                dens.append(c.denominator)
        return cls._new(dims, order, *fraction_table(keys, nums, dens), arity)

    @classmethod
    def _new(cls, dims, order, table, den, arity=0):
        """The series of a stored form (see the class docstring), taken as
        is over Q[a_1..a_arity]; an empty table is rational."""
        self = object.__new__(cls)
        _set_dims(self, dims)
        _set_order(self, order)
        _set_table(self, table)
        _set_den(self, den)
        _set_arity(self, arity if table else 0)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def coeffs(self):
        """The read-only dict of nonzero coefficients by exponent tuple, as
        Fractions or `Polynomial`s, shared by every reader of the series;
        built from the stored form on first read and kept."""
        try:
            return self._coeffs
        except AttributeError:
            d = self.dims
            coeffs = {unpack(p, d): c
                      for p, c in self._polynomials().items()}
            _set_coeffs(self, coeffs)
            return coeffs

    def _polynomials(self, start=0, stop=None):
        """The coefficients by t-key, for the t-keys in [start, stop), all
        when stop is None: a Fraction for a constant coefficient, else a
        `Polynomial`.  The one reader of coefficients; over Q each is one
        numerator of the table."""
        arity, den = self._arity, self._den
        low = _low(arity)
        items = self._table.items()
        if stop is not None:
            # the keys of a t-key p are those of p << low plus an a-key
            start, stop = start << low, stop << low
            items = [(key, n) for key, n in items if start <= key < stop]
        if not arity:
            return {p: Fraction(n, den) for p, n in items}
        mask = (1 << low) - 1
        split = {}
        for key, n in items:
            p = key >> low
            part = split.get(p)
            if part is None:
                split[p] = part = {}
            part[key & mask] = n
        return {p: Fraction(part[0], den) if len(part) == 1 and 0 in part
                else Polynomial._new(arity, *lowest_terms(part, den))
                for p, part in split.items()}

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
        return cls._new(dims, order, {0: value.numerator} if value else {},
                        value.denominator)

    @classmethod
    def one(cls, dims, order):
        return cls.const(1, dims, order)

    @classmethod
    def variable(cls, index, dims, order):
        _check_shape(dims, order)
        # a rational series stores what a polynomial stores
        return cls._new(dims, order,
                        Polynomial.variable(index, dims)._table if order
                        else {}, 1)

    # -- inspection --------------------------------------------------------

    def coefficient(self, expo):
        """The coefficient of t^expo: a Fraction, or a `Polynomial` when it
        is not constant."""
        return self._coefficient(pack(expo, self.dims, DimensionMismatch))

    def _coefficient(self, key):
        # over Q a coefficient is one read of the table, with no pass over
        # it: `constant_term` is on every hot path
        if not self._arity:
            return Fraction(self._table.get(key, 0), self._den)
        return self._polynomials(key, key + 1).get(key, Fraction(0))

    def constant_term(self):
        return self._coefficient(0)

    def is_zero(self):
        return not self._table

    def __bool__(self):
        return bool(self._table)

    def _is_one(self):
        return (self._den == 1 and len(self._table) == 1
                and self._table.get(0) == 1)

    def homogeneous(self, degree):
        """The degree-s coefficients by exponent tuple (may be empty)."""
        d = self.dims
        shift = BITS * d
        return {unpack(p, d): c for p, c in self._polynomials(
            degree << shift, degree + 1 << shift).items()}

    def graded_parts(self):
        """The homogeneous parts of degrees 0..order, as series of this
        shape whose sum is the series."""
        parts = _graded(self)
        return [TruncatedSeries._new(self.dims, self.order, *lowest_terms(
            parts.get(e, {}), self._den), self._arity)
                for e in range(self.order + 1)]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.dims != other.dims or self.order != other.order \
                or self._den != other._den:
            return False
        # values, not stored forms, are compared: a rational series equals
        # one over Q[a_1..a_k] whose coefficients are constants
        a, b, ka, kb = self._table, other._table, self._arity, other._arity
        if ka == kb:
            return a == b
        if ka and kb:
            return False
        return _padded(a, kb) == b if kb else a == _padded(b, ka)

    def __hash__(self):
        # equal series share their t-keys, whatever the coefficients
        return hash((self.dims, self.order, frozenset(map(
            _low(self._arity).__rrshift__, self._table))))

    def _check_compatible(self, other):
        if self.dims != other.dims or self.order != other.order:
            raise DimensionMismatch(
                f"series in ({self.dims} vars, order {self.order}) vs "
                f"({other.dims} vars, order {other.order})")

    # -- ring operations ---------------------------------------------------

    def _sum(self, x, other, y):
        """x self + y other for units x and y, other a series of this shape
        or a coefficient: two unit terms of the kernel."""
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.const(other, self.dims, self.order)
        self._check_compatible(other)
        return _summed(self.dims, self.order,
                       [(self._table, self._den, self._arity, x, 1, 0),
                        (other._table, other._den, other._arity, y, 1, 0)])

    def __add__(self, other):
        return self._sum(1, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._new(self.dims, self.order,
                                    {p: -c for p, c in self._table.items()},
                                    self._den, self._arity)

    def __sub__(self, other):
        return self._sum(1, other, -1)

    def __rsub__(self, other):
        return self._sum(-1, other, 1)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_compatible(other)
        # products by 1, where powers and Taylor weights start, are free
        if self._is_one():
            return other
        if other._is_one():
            return self
        return _summed(self.dims, self.order, [(
            self._table, self._den, self._arity,
            other._table, other._den, other._arity)])

    __rmul__ = __mul__

    def scale(self, scalar):
        """Multiply every coefficient by a rational or a `Polynomial`.

        The scalar is the coefficient of a one-term `combination`, so both
        take coefficients by one rule: a series multiplies, as `*` does,
        and anything else raises TypeError."""
        return TruncatedSeries.combination(self.dims, self.order,
                                           [(scalar, self)])

    @classmethod
    def combination(cls, dims, order, pairs):
        """The linear combination sum c * a over the pairs (c, a).

        Each a is a series of shape (dims, order) and each c a rational (an
        int, a bool among them, or a Fraction), a `Polynomial` or a series
        of that shape, whose product with a is cut at the order as `*` cuts
        it; any other c raises TypeError, whatever its truth value.  A pair
        with a zero member adds nothing, nor does a product cut to nothing,
        and the empty sum is zero.  Rational tables are padded to the
        coefficient variables of the other terms, as `+` pads them.

        One pass over the pairs checks them and hands each term's stored
        forms to the kernel `_combined`, which adds every term into one
        integer table over one common denominator and reduces the sum once.
        """
        if dims < 1 or not 0 <= order < BOUND:
            _check_shape(dims, order)
        # (a's stored form, then c's: a table or an int numerator) per term
        terms = []
        for c, a in pairs:
            kind = type(c)
            if kind is int:
                if not c:
                    continue
                b, db, kb = c, 1, 0
            elif kind is Fraction:
                b = c.numerator
                if not b:
                    continue
                db, kb = c.denominator, 0
            elif kind is TruncatedSeries:
                b = c._table
                if not b:
                    continue
                db, kb = c._den, c._arity
            elif kind is Polynomial:
                # its keys are its keys at t-exponent 0
                b = c._table
                if not b:
                    continue
                db, kb = c._den, c.arity
            elif isinstance(c, (int, Fraction)):
                # a bool, or another subclass of the rationals, as a Fraction
                b = c.numerator
                if not b:
                    continue
                db, kb = c.denominator, 0
            else:
                raise TypeError("series combine with rationals, Polynomials "
                                f"or series, got {kind.__name__}")
            table = a._table
            if not table:
                continue
            if a.dims != dims or a.order != order:
                raise DimensionMismatch(
                    f"series in ({a.dims} vars, order {a.order}) in a "
                    f"combination in ({dims} vars, order {order})")
            if kind is TruncatedSeries and (c.dims != dims
                                            or c.order != order):
                a._check_compatible(c)
            ka = a._arity
            # a term brings its coefficient variables in unless it is a
            # product of series cut to nothing: the lowest t-degrees of the
            # factors add past the order
            if (ka or kb) and kind is TruncatedSeries and (
                    min(b) >> _shift(dims, kb)) \
                    + (min(table) >> _shift(dims, ka)) > order:
                continue
            terms.append((table, a._den, ka, b, db, kb))
        return _summed(dims, order, terms)

    def __pow__(self, n):
        arity = self._arity
        table = pow_terms(self._table, n, self.order + 1 << _shift(
            self.dims, arity), arity and 1 << _low(arity) - 1)
        return TruncatedSeries._new(self.dims, self.order,
                                    *lowest_terms(table, self._den ** n),
                                    arity)

    # -- truncation structure ----------------------------------------------

    def restrict(self, new_order):
        """Truncate to a lower (or equal) order."""
        if new_order > self.order:
            raise OrderIncrease(
                f"cannot restrict order {self.order} to {new_order}")
        if new_order < 0:
            raise ValueError("truncation order must be non-negative")
        limit = new_order + 1 << _shift(self.dims, self._arity)
        table = {p: c for p, c in self._table.items() if p < limit}
        return TruncatedSeries._new(self.dims, new_order,
                                    *lowest_terms(table, self._den),
                                    self._arity)

    def zero_extended(self, new_order):
        """The zero-fill preimage at a higher order (a section of restrict)."""
        if new_order < self.order:
            raise OrderIncrease(
                f"zero_extended targets order >= {self.order}")
        _check_shape(self.dims, new_order)
        return TruncatedSeries._new(self.dims, new_order, self._table,
                                    self._den, self._arity)

    def derive(self, index):
        """Formal d/dt_index.

        The result is declared at the same order r but carries no degree-r
        information: a caller that needs the derivative faithful at order r
        must start from an order r+1 series.
        """
        table = derive_terms(self._table, index, self.dims, _low(self._arity))
        return TruncatedSeries._new(self.dims, self.order,
                                    *lowest_terms(table, self._den),
                                    self._arity)

    def invert_unit(self):
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        c0 = self.constant_term()
        if isinstance(c0, Polynomial):
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
        d = self.dims
        return terms_to_string(self._polynomials(), d, default_names(d, "t"),
                               " * ")

    @classmethod
    def from_string(cls, text, dims, order):
        """Parse the canonical text (rational coefficients only)."""
        poly = Polynomial.from_string(text, default_names(dims, "t"))
        degree = poly.degree()
        if degree > order:
            raise InputError(f"term of degree {degree} exceeds order {order}")
        _check_shape(dims, order)
        # a rational series stores what a polynomial stores
        return cls._new(dims, order, poly._table, poly._den)

    def __repr__(self):
        return f"TruncatedSeries(d={self.dims}, r={self.order}, {self.to_string()!r})"


# Writers of the slots of a series, past the guard of its __setattr__; the
# slot descriptors' own setters are the cheapest way in.
_set_dims, _set_order, _set_table, _set_den, _set_arity, _set_coeffs = (
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
    the offsets of a jet.  Each weight is one product, formed when first
    read: w_q = w_(q - e_l) * offsets[l] / q_l with l the first index where
    q_l > 0, walking down to the first weight already formed.  The weights
    go into a table that only grows, the map's `table`, so threads may
    share one map: two of them at worst form one weight twice, and store
    equal values.
    """
    one = TruncatedSeries.one(offsets[0].dims, offsets[0].order)
    table = {(0,) * len(offsets): one}

    def weight(q):
        chain = []
        while q not in table:
            l = next(i for i, e in enumerate(q) if e)
            chain.append((q, l))
            q = q[:l] + (q[l] - 1,) + q[l + 1:]
        w = table[q]
        for q, l in reversed(chain):
            w = w * offsets[l]
            if q[l] > 1:
                w = w.scale(Fraction(1, q[l]))
            table[q] = w
        return w

    weight.table = table
    return weight


def taylor_sum(weight, dims, order, partials):
    """The matrix sum_q X_q weight(q) over the list of pairs (q, X_q) in
    `partials`, X_q matrices of rationals or `Polynomial`s of one shape, as
    a tuple of rows of series of shape (dims, order): one `combination` per
    entry.  The weight of an all-zero X_q is not read, so not formed."""
    terms = [(x, weight(q)) for q, x in partials if any(map(any, x))]
    return tuple(tuple(TruncatedSeries.combination(dims, order, [
        (x[j][i], w) for x, w in terms]) for i in range(len(row)))
        for j, row in enumerate(partials[0][1]))


def series_compose_all(fs, jet):
    """`series_compose(f, jet)` for every f in fs, in one pass.

    All the polynomials share one table of the monomials they read, built
    for this call alone by `poly._monomials`, and so do all the series, on
    the offsets of the jet.  Each f is then one
    `TruncatedSeries.combination` of its coefficients with those monomials:
    the substitution step of Brent and Kung ("Fast algorithms for
    manipulating formal power series", J. ACM 25, 1978), done sparsely.
    """
    n = jet.n
    # per f: its {key: coefficient} and whether it is evaluated on the
    # offsets
    jobs = []
    for f in fs:
        if isinstance(f, Polynomial):
            if f.arity != n:
                raise ArityMismatch(
                    f"polynomial in {f.arity} variables applied to a jet with "
                    f"{n} components")
            jobs.append((_fractions(f._table, f._den), False))
        elif isinstance(f, TruncatedSeries):
            if f.dims != n:
                raise ArityMismatch(
                    f"series in {f.dims} variables applied to a jet with "
                    f"{n} components")
            jobs.append((f._polynomials(), True))
        else:
            raise TypeError(
                "series_compose expects a Polynomial or TruncatedSeries")
    d, r = jet.dims, jet.order
    one = TruncatedSeries.one(d, r)
    tables = {shifted: _monomials(
        [p for terms, s in jobs if s == shifted for p in terms], n,
        jet.offsets() if shifted else jet.series, one)
        for shifted in {s for _, s in jobs}}
    return [TruncatedSeries.combination(d, r, [
        (c, tables[shifted][p]) for p, c in terms.items()])
        for terms, shifted in jobs]


def _fractions(table, den):
    """A rational table's coefficients by key: ints when `den` is 1."""
    return table if den == 1 else {p: Fraction(n, den)
                                   for p, n in table.items()}


def series_compose(f, jet):
    """Substitute the components of a jet into f and truncate.

    `f` may be a Polynomial in n variables (full substitution) or a
    TruncatedSeries in n variables, in which case it is evaluated on the
    positive-valuation offsets of the jet (a Taylor-style composition).
    The one-element case of `series_compose_all`.
    """
    return series_compose_all([f], jet)[0]


def _graded(s):
    """The homogeneous parts of a series by t-degree, {degree: table}, each
    table a part of its stored table over its denominator."""
    shift = _shift(s.dims, s._arity)
    parts = {}
    for key, n in s._table.items():
        e = key >> shift
        part = parts.get(e)
        if part is None:
            parts[e] = part = {}
        part[key] = n
    return parts


def _split(s):
    """The homogeneous parts of a series of positive valuation, as
    (degree, table, den, arity) over its denominator, degree ascending."""
    parts = _graded(s)
    if 0 in parts:
        raise ValueError("the system must have no constant term")
    return [(e, parts[e], s._den, s._arity) for e in sorted(parts)]


def euler_solve(system, initial):
    """The m x m series F with E F = S F and F(0) = `initial`, S = `system`.

    S is an m x m matrix of series of one shape (d, r), each of positive
    valuation, and `initial` an m x m matrix of rationals or `Polynomial`s,
    singular ones included.  The Euler operator E = sum_a t_a d/dt_a is k
    times the degree-k part, so that part of F is

        F_k = (1/k) sum_(e >= 1) S_e F_(k-e)

    over the homogeneous parts S_e of S: the power-series ODE step of Brent
    and Kung ("Fast algorithms for manipulating formal power series",
    J. ACM 25, 1978), which forms only products of degree k.  Each S entry
    is split into its homogeneous tables once, and each F_k entry is kept
    as a stored form, one pass of the kernel `_combined` with 1/k folded
    into the denominators, reduced with one gcd.  A series is built once
    per returned entry, from one more kernel pass over its parts and no
    gcd.  The rows of F are returned as lists.
    """
    m = len(system)
    d, r = system[0][0].dims, system[0][0].order
    if any(len(row) != m for row in system) or len(initial) != m \
            or any(len(row) != m for row in initial):
        raise ArityMismatch("system and initial matrix must be m x m")
    if any(s.dims != d or s.order != r for row in system for s in row):
        raise DimensionMismatch("system entries must share (dims, order)")
    s_parts = [[_split(s) for s in row] for row in system]
    # parts[i][c][k] is the stored form (table, den, arity) of F_k[i][c]
    parts = [[[(x._table, x._den, x._arity)] for x in (
        TruncatedSeries.const(v, d, r) for v in row)] for row in initial]
    for k in range(1, r + 1):
        for s_row, f_row in zip(s_parts, parts):
            for c, f_parts in enumerate(f_row):
                # the terms (F_(k-e), S_e / k)
                terms = []
                for s_entry, f_entry in zip(s_row, parts):
                    f_entry = f_entry[c]
                    for e, b, db, kb in s_entry:
                        if e > k:
                            break
                        a, da, ka = f_entry[k - e]
                        if a:
                            terms.append((a, da, ka, b, db * k, kb))
                table, den, arity = _combined(d, r, terms)
                f_parts.append((*lowest_terms(table, den), arity))
    # the parts of an entry are in lowest terms and have disjoint keys, so
    # their union over the lcm of their denominators is in lowest terms too
    return [[TruncatedSeries._new(d, r, *_combined(d, r, [
        (a, da, ka, 1, 1, 0) for a, da, ka in entry])) for entry in row]
            for row in parts]


def is_flat(forms, sigma, frame):
    """Whether d F/dt_a + C_a F vanishes through order r - 1 for every jet
    variable t_a, F = `frame`, an m x m matrix of series of order r (at
    r = 0 there is nothing to test).

    C_a[j][i] is the sum of c * d sigma_l/dt_a over the pairs (l, c) of
    `forms[j][i]`, c a series at order r - 1 and sigma the jet, of the
    frame's shape: the dt_a part of a connection form pulled back along
    sigma.  Everything is formed at order r - 1 on stored tables: the
    partials are read from the order-r tables of sigma and F (a derivative
    loses the top degree), and each C_a entry and each residual is one pass
    of the kernel `_combined`, cut at r - 1 and not reduced: a residual is
    only tested for emptiness.
    """
    d, r = sigma.dims, sigma.order
    low = r - 1
    columns = list(zip(*frame))
    for a in range(d):
        partials = [(derive_terms(s._table, a, d, _low(s._arity)), s._den,
                     s._arity) for s in sigma.series]
        for form_row, row in zip(forms, frame):
            c_row = [_combined(d, low, [
                (c._table, c._den, c._arity, *partials[l])
                for l, c in pairs if partials[l][0] and c._table])
                     for pairs in form_row]
            for f, column in zip(row, columns):
                derivative = derive_terms(f._table, a, d, _low(f._arity))
                terms = [(derivative, f._den, f._arity, 1, 1, 0)] \
                    if derivative else []
                terms += [(x._table, x._den, x._arity, b, db, kb)
                          for (b, db, kb), x in zip(c_row, column)
                          if b and x._table]
                if _combined(d, low, terms)[0]:
                    return False
    return True

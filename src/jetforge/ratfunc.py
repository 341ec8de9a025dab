"""Rational functions on an affine chart, with exact evaluation on jets.

A rational function is a pair of polynomials in the chart coordinates.  The
denominator is kept integer-primitive with positive leading coefficient, and
univariate pairs are reduced by their gcd so that repeated differentiation
(quotient rule) does not pile up spurious factors.  The gcd and the division
by it run in `poly` on dense integer coefficient lists (a primitive
remainder sequence, and a division that scales the remainder only as far as
each quotient coefficient needs), and the denominator is made primitive by
one integer gcd, so none of them forms a Fraction per step.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArityMismatch, NotAUnit, SingularPoint
from .poly import (Polynomial, _quotient_hash, over_primitive,
                   univ_divmod as _univ_divmod, univ_gcd as _univ_gcd)
from .series import series_compose_all


def _times(p, q):
    """p * q, with no product when either is the constant 1."""
    return p if q._is_one() else q if p._is_one() else p * q


class RationalFunction:
    """Numerator over denominator, both polynomials in the same variables."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Polynomial.const(1, num.arity)
        if num.arity != den.arity:
            raise ArityMismatch("numerator and denominator arities differ")
        if den.is_zero():
            raise ZeroDivisionError("denominator is identically zero")
        if num.is_zero():
            den = Polynomial.const(1, num.arity)
        elif num.arity == 1 and den.degree() > 0 and num.degree() > 0:
            # a constant numerator's gcd with the denominator is a unit
            g = _univ_gcd(num, den)
            if g.degree() > 0:
                num = _univ_divmod(num, g)[0]
                den = _univ_divmod(den, g)[0]
        # the constant denominator 1 is already in normal form
        if not den._is_one():
            num, den = over_primitive(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value, arity):
        return cls(Polynomial.const(value, arity))

    @classmethod
    def zero(cls, arity):
        return cls(Polynomial.zero(arity))

    @classmethod
    def one(cls, arity):
        return cls.const(1, arity)

    @property
    def arity(self):
        return self.num.arity

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(other, self.arity)
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        if isinstance(other, RationalFunction):
            if other.arity != self.arity:
                raise ArityMismatch("rational functions in different rings")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            _times(self.num, other.den) + _times(other.num, self.den),
            _times(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        # the negation of a reduced pair is reduced: no gcd to take again
        neg = object.__new__(RationalFunction)
        object.__setattr__(neg, "num", -self.num)
        object.__setattr__(neg, "den", self.den)
        return neg

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            _times(self.num, other.den) - _times(other.num, self.den),
            _times(self.den, other.den))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num,
                                _times(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        # values of two rings differ, as polynomials of two arities do
        if isinstance(other, (Polynomial, RationalFunction)) \
                and other.arity != self.arity:
            return False
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:  # one stored form: no products needed
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # without a multivariate gcd the stored pair is not canonical, so
        # hash what a factor common to both leaves unchanged
        return _quotient_hash(self.num, self.den)

    # -- calculus and evaluation ---------------------------------------------

    def derivative(self, index):
        return RationalFunction(
            self.num.derivative(index) * self.den
            - self.num * self.den.derivative(index),
            self.den * self.den)

    def evaluate(self, point):
        # the constructor keeps a constant denominator equal to 1
        if self.den._is_one():
            return self.num.evaluate(point)
        dv = self.den.evaluate(point)
        if dv == 0:
            raise SingularPoint(f"denominator vanishes at {tuple(point)}")
        return self.num.evaluate(point) / dv

    def eval_on_jet(self, jet):
        """Exact truncated series of the function along a jet."""
        return RationalFunction.eval_all_on_jet([self], jet)[0]

    @staticmethod
    def eval_all_on_jet(functions, jet):
        """`f.eval_on_jet(jet)` for every f in functions, in one pass.

        The numerators and the distinct non-constant denominators are
        expanded in one call of `series_compose_all`, and each of those
        denominators is inverted once, so functions that share one share
        its inverse.  Raises SingularPoint when a denominator vanishes at
        the base point.
        """
        functions = list(functions)
        for f in functions:
            if jet.n != f.arity:
                raise ArityMismatch(
                    f"function of {f.arity} variables on a jet with {jet.n} "
                    "components")
        # the constructor keeps a constant denominator equal to 1
        dens = {}
        for f in functions:
            if not f.den._is_one():
                dens.setdefault(f.den, len(dens))
        series = series_compose_all([f.num for f in functions] + list(dens),
                                    jet)
        inverses = []
        for den_series in series[len(functions):]:
            try:
                inverses.append(den_series.invert_unit())
            except NotAUnit:
                raise SingularPoint(
                    f"denominator vanishes at {jet.basepoint()}") from None
        return [num if f.den._is_one() else num * inverses[dens[f.den]]
                for f, num in zip(functions, series)]

    def to_string(self, names=None):
        return f"({self.num.to_string(names)}) / ({self.den.to_string(names)})"

    def __repr__(self):
        return f"RationalFunction({self.to_string()!r})"

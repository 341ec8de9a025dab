"""Rational functions on an affine chart, with exact evaluation on jets.

A rational function is a pair of polynomials in the chart coordinates.  The
denominator is kept integer-primitive with positive leading coefficient, and
univariate pairs are reduced by their gcd so that repeated differentiation
(quotient rule) does not pile up spurious factors.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArityMismatch, NotAUnit, SingularPoint
from .poly import Polynomial
from .series import series_compose


def _univ_divmod(a, b):
    """Quotient and remainder of univariate polynomials (b nonzero)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = Polynomial.zero(1)
    r = a
    db = b.degree()
    lb = b.leading()[1]
    while not r.is_zero() and r.degree() >= db:
        dr = r.degree()
        c = r.leading()[1] / lb
        mono = Polynomial(1, {(dr - db,): c})
        q = q + mono
        r = r - mono * b
    return q, r


def _univ_gcd(a, b):
    while not b.is_zero():
        a, b = b, _univ_divmod(a, b)[1]
    if a.is_zero():
        return a
    return a.normalized()


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
        elif num.arity == 1 and den.degree() > 0:
            g = _univ_gcd(num, den)
            if g.degree() > 0:
                num = _univ_divmod(num, g)[0]
                den = _univ_divmod(den, g)[0]
        if not den.is_zero():
            dnorm = den.normalized()
            scale = dnorm.leading()[1] / den.leading()[1]
            num = num * scale
            den = dnorm
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
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

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
        return RationalFunction(self.num * other.num, self.den * other.den)

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus and evaluation ---------------------------------------------

    def derivative(self, index):
        return RationalFunction(
            self.num.derivative(index) * self.den
            - self.num * self.den.derivative(index),
            self.den * self.den)

    def evaluate(self, point):
        dv = self.den.evaluate(point)
        if dv == 0:
            raise SingularPoint(f"denominator vanishes at {tuple(point)}")
        return self.num.evaluate(point) / dv

    def eval_on_jet(self, jet):
        """Exact truncated series of the function along a jet."""
        if jet.n != self.arity:
            raise ArityMismatch(
                f"function of {self.arity} variables on a jet with {jet.n} "
                "components")
        if self.den.degree() == 0:
            # the constructor keeps a constant denominator equal to 1
            return series_compose(self.num, jet)
        den_series = series_compose(self.den, jet)
        try:
            inv = den_series.invert_unit()
        except NotAUnit:
            raise SingularPoint(
                f"denominator vanishes at {jet.basepoint()}") from None
        return series_compose(self.num, jet) * inv

    def to_string(self, names=None):
        return f"({self.num.to_string(names)}) / ({self.den.to_string(names)})"

    def __repr__(self):
        return f"RationalFunction({self.to_string()!r})"

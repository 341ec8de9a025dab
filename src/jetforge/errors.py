"""Exception hierarchy shared by all jetforge modules."""


class JetforgeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(JetforgeError):
    """Two truncated series do not share the same (dims, order)."""


class ArityMismatch(JetforgeError):
    """A polynomial, map or jet was applied to the wrong number of arguments."""


class IndexOutOfRange(JetforgeError):
    """A variable index is outside the valid range."""


class NotAUnit(JetforgeError):
    """Inversion was requested for a series whose constant term is zero."""


class OrderIncrease(JetforgeError):
    """restrict() was asked to raise the truncation order."""


class OrderMismatch(JetforgeError):
    """Jet compatibility was queried with orders in the wrong relation."""


class OrderTooLow(JetforgeError):
    """The operation needs at least a first-order jet."""


class SingularPoint(JetforgeError):
    """A denominator of the chart data vanishes at the requested point."""


class SingularInitial(JetforgeError):
    """The initial matrix of a frame jet is not invertible."""


class NonIntegrable(JetforgeError):
    """The flat-frame system of a chart fails the mixed-partial condition."""


class NoValidChart(JetforgeError):
    """No pivot row set gives an invertible constant minor."""


class NoRationalFvPoint(JetforgeError):
    """The Gram matrix at this point is not rationally congruent to the lattice form."""


class CongruenceSearchExhausted(NoRationalFvPoint):
    """The bounded congruence search found no torsor point; unlike its base
    class, this proves nothing about congruence."""


class BasepointNotOnScheme(JetforgeError):
    """The supplied base point does not satisfy the scheme's equations."""


class InputError(JetforgeError):
    """Malformed textual or JSON input."""

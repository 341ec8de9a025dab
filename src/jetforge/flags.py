"""Flag-variety charts, jets of local period maps and the polarization torsor.

A flag with prescribed step dimensions is represented on an affine chart by
nested pivot row sets and the non-pivot entries of a column-echelon
representative; a matrix (or matrix jet) is sent to the flag spanned by the
leading columns of each step.  On top of this sit:

* the first-relation check on polarized flags (pairings between
  complementary filtration steps vanish);
* the torsor condition M^T Gram(s) M = Q tying frame changes to the lattice
  polarization;
* `alpha`, the jet of the local period map: the flag of the inverse of the
  flat-frame jet; and
* `eta_chartlocal`, which picks a canonical rational torsor point over the
  base point (when one exists) and returns it with the associated flag jet.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .congruence import miss_is_proof, solve_congruence
# HodgeData lives with the charts that hold it; it stays importable here
from .connection import (HodgeData, MatrixJet, beta, invert_series_matrix,
                         matrixjet_invert, series_product)
from .errors import (ArityMismatch, CongruenceSearchExhausted,
                     NoRationalFvPoint, NoValidChart)
from .series import TruncatedSeries


class FlagChart:
    """Nested pivot row sets, one per filtration step (deepest first)."""

    __slots__ = ("pivot_sets",)

    def __init__(self, pivot_sets):
        pivot_sets = tuple(tuple(sorted(int(x) for x in s)) for s in pivot_sets)
        prev = ()
        for s in pivot_sets:
            if len(set(s)) != len(s):
                raise ValueError("repeated pivot row")
            if not set(prev) <= set(s):
                raise ValueError("pivot sets must be nested")
            if len(s) <= len(prev):
                raise ValueError("pivot sets must strictly grow")
            prev = s
        object.__setattr__(self, "pivot_sets", pivot_sets)

    def __setattr__(self, name, value):
        raise AttributeError("FlagChart is immutable")

    def columns(self):
        """(step_index, pivot_row) for every representative column, in order."""
        out = []
        prev = ()
        for step, pivots in enumerate(self.pivot_sets):
            out.extend((step, row) for row in pivots if row not in prev)
            prev = pivots
        return out

    def __eq__(self, other):
        if not isinstance(other, FlagChart):
            return NotImplemented
        return self.pivot_sets == other.pivot_sets

    def __repr__(self):
        return f"FlagChart({self.pivot_sets})"


class FlagJet:
    """A point of the jet space of the flag variety, in chart coordinates.

    `coords` maps (row, column) pairs of the echelon representative to
    truncated series; pivot entries are implicit (one on the matching pivot
    row, zero on the other pivot rows of the same or deeper steps).
    """

    __slots__ = ("hodge", "chart", "coords", "dims", "order")

    def __init__(self, hodge, chart, coords, dims, order):
        sizes = hodge.step_sizes()
        if len(chart.pivot_sets) != len(sizes) or any(
                len(s) != size for s, size in zip(chart.pivot_sets, sizes)):
            raise ValueError("chart does not match the filtration dims")
        if any(not 0 <= row < hodge.m for s in chart.pivot_sets for row in s):
            raise ValueError("pivot row outside the frame")
        coords = dict(coords)
        columns = chart.columns()
        for (row, col), series in coords.items():
            if series.dims != dims or series.order != order:
                raise ValueError("coordinate series must share (dims, order)")
            if not 0 <= row < hodge.m:
                raise ValueError("coordinate row out of range")
            if not 0 <= col < len(columns) \
                    or row in chart.pivot_sets[columns[col][0]]:
                raise ValueError(f"coordinate ({row}, {col}) is not a free "
                                 "entry of the echelon representative")
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("FlagJet is immutable")

    def representative(self):
        """The echelon representative as an m x (dim of widest step) matrix."""
        m = self.hodge.m
        width = self.hodge.step_sizes()[-1] if self.hodge.step_sizes() else 0
        zero = TruncatedSeries.zero(self.dims, self.order)
        one = TruncatedSeries.one(self.dims, self.order)
        rep = [[zero for _ in range(width)] for _ in range(m)]
        for col, (step, pivot_row) in enumerate(self.chart.columns()):
            pivots = set(self.chart.pivot_sets[step])
            for row in range(m):
                if row == pivot_row:
                    rep[row][col] = one
                elif row in pivots:
                    rep[row][col] = zero
                else:
                    rep[row][col] = self.coords.get((row, col), zero)
        return rep

    def __eq__(self, other):
        if not isinstance(other, FlagJet):
            return NotImplemented
        if (self.hodge, self.chart, self.dims, self.order) != \
                (other.hodge, other.chart, other.dims, other.order):
            return False
        keys = set(self.coords) | set(other.coords)
        zero = TruncatedSeries.zero(self.dims, self.order)
        return all(self.coords.get(k, zero) == other.coords.get(k, zero)
                   for k in keys)

    def __repr__(self):
        shown = {key: s.to_string() for key, s in sorted(self.coords.items())}
        return f"FlagJet(chart={self.chart.pivot_sets}, coords={shown})"


def _as_matrixjet(matrix):
    if isinstance(matrix, MatrixJet):
        return matrix
    return MatrixJet.from_constant(matrix, 1, 0)


def select_chart(hodge, constant_matrix):
    """Deterministic chart for a flag given by leading columns of a matrix:
    per step (deepest first) the lexicographically smallest nested pivot set
    whose constant minor is invertible: the rows one elimination of the
    transposed leading columns keeps greedily, previous pivot rows first and
    the rest ascending (a matroid's greedy basis is the least)."""
    pivot_sets = []
    prev = ()
    for size in hodge.step_sizes():
        order = list(prev) + [row for row in range(hodge.m) if row not in prev]
        columns = [[constant_matrix[row][col] for row in order]
                   for col in range(size)]
        pivots = linalg.eliminate(columns)[1]
        if len(pivots) < size:
            raise NoValidChart("no pivot set has an invertible constant minor")
        prev = tuple(sorted(order[c] for c in pivots))
        pivot_sets.append(prev)
    return FlagChart(pivot_sets)


def flag_of_matrix(hodge, matrix):
    """The flag jet spanned by the leading columns of a matrix jet.

    Step k of the flag is spanned by the first (dim of step k) columns; the
    result is the echelon-normalized chart representative, and is invariant
    under right multiplication by block-triangular jets preserving the
    leading column blocks.
    """
    jet = _as_matrixjet(matrix)
    if jet.m != hodge.m:
        raise ArityMismatch("matrix size does not match the frame size")
    sizes = hodge.step_sizes()
    if not sizes:
        return FlagJet(hodge, FlagChart([]), {}, jet.dims, jet.order)
    chart = select_chart(hodge, jet.constant_matrix())
    columns = chart.columns()
    coords = {}
    done = 0
    for step, size in enumerate(sizes):
        pivots = chart.pivot_sets[step]
        leading = [[jet.entry(row, c) for c in range(size)]
                   for row in range(hodge.m)]
        block = series_product(leading, invert_series_matrix(
            [leading[row] for row in pivots]))
        for col in range(done, size):   # the columns this step adds
            src_col = pivots.index(columns[col][1])
            for row in range(hodge.m):
                if row not in pivots and not block[row][src_col].is_zero():
                    coords[(row, col)] = block[row][src_col]
        done = size
    return FlagJet(hodge, chart, coords, jet.dims, jet.order)


def check_hr1(hodge, flag):
    """Whether all pairings between complementary filtration steps vanish
    identically at the jet order."""
    rep = flag.representative()
    if not rep or not rep[0]:
        return True
    pairing = linalg.mat_mul(linalg.transpose(rep),
                             linalg.mat_mul(hodge.polarization, rep))
    return not any(pairing[a][b] for left, right in hodge.complementary_steps()
                   for a in range(left) for b in range(right))


def gram_obeys_first_relation(chart):
    """Whether the chart's Gram matrix vanishes identically on complementary
    filtration blocks (the pattern that makes the containment of period-map
    jets in the first-relation locus a theorem for this chart)."""
    for left, right in chart.hodge.complementary_steps():
        for i in range(left):
            for k in range(right):
                if chart.gram[i][k]:
                    return False
    return True


def check_fv(chart, point, matrix):
    """Whether M^T Gram(point) M equals the lattice polarization exactly."""
    gram = chart.gram_at(point)
    lhs = linalg.mat_mul(linalg.transpose(matrix),
                         linalg.mat_mul(gram, matrix))
    target = [[Fraction(x) for x in row] for row in chart.hodge.polarization]
    return linalg.mat_eq(lhs, target)


class TorsorPoint:
    """A base jet together with a frame change satisfying the torsor condition."""

    __slots__ = ("sigma", "matrix")

    def __init__(self, sigma, matrix):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "matrix",
                           tuple(tuple(Fraction(x) for x in row)
                                 for row in matrix))

    def __setattr__(self, name, value):
        raise AttributeError("TorsorPoint is immutable")

    @classmethod
    def validated(cls, chart, sigma, matrix):
        if not check_fv(chart, sigma.basepoint(), matrix):
            raise ValueError("matrix does not satisfy the torsor condition")
        return cls(sigma, matrix)


class EtaWitness:
    """Return value of eta_chartlocal: a torsor point and its flag jet."""

    __slots__ = ("point", "flag")

    def __init__(self, point, flag):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "flag", flag)

    def __setattr__(self, name, value):
        raise AttributeError("EtaWitness is immutable")


def alpha(chart, sigma, matrix):
    """Jet of the local period map: the flag of the inverse flat-frame jet.

    No torsor condition is imposed; when check_fv holds at the base point the
    resulting flag jet satisfies check_hr1 at every order.
    """
    frame = beta(chart, sigma, matrix)
    inverse = matrixjet_invert(frame)
    return flag_of_matrix(chart.hodge, inverse)


def eta_chartlocal(chart, sigma):
    """Canonical orbit witness above a base jet.

    Picks a rational matrix M* with M*^T Gram(s) M* = Q by exact congruence
    solving (closed form for alternating pairings, descent for symmetric
    pairs of size two, bounded search above) and returns the torsor point
    together with alpha at M*.  Raises NoRationalFvPoint when no rational
    torsor point exists, and its subclass CongruenceSearchExhausted when the
    bounded search found none without proving that.  The torsor point, or
    the kind of miss, is found once per base point and kept in the chart's
    record for it, as are the values G_q(s) alpha reads.  Two jets map to
    the same orbit exactly when their witnesses differ by a symmetry of the
    lattice form; deciding that relation is out of scope here.
    """
    s = sigma.basepoint()
    chart.assert_regular(s)
    # the answer depends on the base point alone: kept in the chart's record
    found = chart.torsor_at(s, _torsor_point)
    if found is CongruenceSearchExhausted:
        raise found(f"the bounded search found no torsor point above {s}")
    if found is NoRationalFvPoint:
        raise found(
            f"Gram at {s} is not rationally congruent to the lattice form")
    mstar = [list(row) for row in found]
    point = TorsorPoint(sigma, mstar)
    return EtaWitness(point, alpha(chart, sigma, mstar))


def _torsor_point(chart, s):
    """The rows of a rational M* with M*^T Gram(s) M* = Q, or the class of
    the error a miss raises (see `eta_chartlocal`)."""
    gram = chart.gram_at(s)
    hodge = chart.hodge
    mstar = solve_congruence(gram, hodge.polarization, hodge.weight)
    if mstar is not None:
        return tuple(map(tuple, mstar))
    if miss_is_proof(gram, hodge.polarization, hodge.weight):
        return NoRationalFvPoint
    return CongruenceSearchExhausted

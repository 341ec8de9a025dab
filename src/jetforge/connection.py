"""Jets of flat frames of a connection on an affine chart.

A chart stores the connection coefficients c[i][j][l] of a frame v^i (the
dz_l component of the 1-form acting on v^i with output coefficient on v^j),
a Gram matrix of the frame pairing, and the constant integer polarization
form of the reference lattice.  Flat frames b^k = sum_i f_ik v^i satisfy the
linear system

    d/dz_l f_jk = - sum_i f_ik c[i][j][l]

and two independent evaluators compute the order-r jet of f along a base
jet sigma with initial matrix M:

* `beta` expresses every iterated partial of f at the base point as a
  linear form in the entries of f, G_q with d_q f = G_q f (see
  `ConnectionChart.gammas_at`).  Their values at the point come from a
  short recurrence on integer matrices: with one polynomial denominator P
  of the chart and the polynomial matrices N_l = P A_l (see
  `ConnectionChart.factored`), the Leibniz rule on P d_l f = N_l f reads
  only the finitely many nonzero partials of P and N_l at the point, their
  Taylor coefficients there from `poly.taylor_shift` cleared of
  denominators by one common factor, so each step has at most as many
  terms as the data has monomials.  `beta` then assembles the Taylor
  composition as F = W M, W = sum_q G_q w_q over the Taylor weights w_q
  (`series.taylor_sum`).  The same partials decide integrability:
  an order-r jet exists exactly when the curvature, or P^2 times it,
  vanishes at the base point through order r - 2;
* `series_oracle` pulls the system back along sigma and solves the truncated
  equations degree by degree in jet coordinates, forming only the degree
  it reads: degree k of f is a sum of products of homogeneous parts whose
  degrees add up to k, the step of an online power-series solver (van der
  Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput. 34, 2002).

`taylor_sum` builds each entry of W with `TruncatedSeries.combination`,
one sum over one common denominator; the oracle's `series.euler_solve` and
`check_flatness`'s `series.is_flat`, which works at order r - 1, the order
it compares, run the same kernel on stored tables.  `series_product` forms
W M, `MatrixJet` products and the block product of `flags.flag_of_matrix`
with one combination per entry.
The values G_q(s) form no series, no product and no inverse of one: they
are integer matrices from the Taylor coefficients of polynomials.

The inverse of the frame needs no series inverse either.  The inverse
Phi^-1 of the solution with Phi(s) = I solves the adjoint system
P d_l Psi = -Psi N_l, and the mirror of the recurrence for G_q gives its
partials K_q(s) on the same cleared partials of P and the N_l (see
`ConnectionChart.inverses_at`).  So the inverse of the frame with initial
value M is M^-1 sum_q K_q(s) w_q, a polynomial in the jet coordinates, which
`flags.alpha` assembles with the same `series.taylor_sum`.
`invert_series_matrix`, a Neumann sum, is left to the pivot minors of
`flags.flag_of_matrix` and to `matrixjet_invert`.

`beta` and the oracle share the series ring and nothing else, so their
exact agreement is a genuine cross-check: the oracle and `check_flatness`
expand all the nonzero coefficients along sigma in one call of
`RationalFunction.eval_all_on_jet`, with one inverse per distinct
denominator, while `beta` expands nothing along a jet.

A chart keeps one record for each of its last `_POINT_RECORDS` base points
(see `_PointRecord`): whether `assert_regular` passed there, the values
G_q(s) `beta` reads there, the values K_q(s) `flags.alpha` reads there, the
torsor point `eta_chartlocal` found there, and the Taylor part W of the
last jet above the point.  Many jets above one base point share the first
four; `check_right_equivariance` after `beta` on the same jet, as a
`verify` case runs them, reuses W.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple

from . import linalg
from .errors import (ArityMismatch, DimensionMismatch, NonIntegrable,
                     SingularInitial, SingularPoint)
from .poly import (Polynomial, default_names, graded_monomials,
                   primitive_parts, taylor_shift, univ_lcm)
from .ratfunc import RationalFunction, _univ_divmod
from .series import (TruncatedSeries, euler_solve, is_flat, same_form,
                     taylor_sum, taylor_weights)


class HodgeData:
    """Frame size, weight, filtration step dimensions and lattice form."""

    __slots__ = ("m", "weight", "filtration_dims", "polarization")

    def __init__(self, m, weight, filtration_dims, polarization):
        filtration_dims = tuple(filtration_dims)
        if not filtration_dims or filtration_dims[0] != m:
            raise ValueError("filtration dims must start at the frame size")
        if any(a <= b for a, b in zip(filtration_dims, filtration_dims[1:])):
            raise ValueError("filtration dims must be strictly decreasing")
        if filtration_dims[-1] < 1:
            raise ValueError("filtration dims must be positive")
        if len(polarization) != m or any(len(r) != m for r in polarization):
            raise ArityMismatch("polarization must be m x m")
        if any(not isinstance(x, (int, Fraction)) or x.denominator != 1
               for row in polarization for x in row):
            raise ValueError("polarization entries must be exact integers")
        sign = -1 if weight % 2 else 1
        for i in range(m):
            for k in range(m):
                if polarization[i][k] != sign * polarization[k][i]:
                    raise ValueError(
                        "polarization does not have the symmetry of the weight")
        if linalg.det([[Fraction(x) for x in row] for row in polarization]) == 0:
            raise ValueError("polarization is degenerate")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "filtration_dims", filtration_dims)
        object.__setattr__(self, "polarization",
                           tuple(tuple(int(x) for x in row)
                                 for row in polarization))

    def __setattr__(self, name, value):
        raise AttributeError("HodgeData is immutable")

    @classmethod
    def of_chart(cls, chart):
        return chart.hodge

    def step_sizes(self):
        """Proper step dimensions, deepest first (ascending)."""
        return tuple(reversed(self.filtration_dims[1:]))

    def dim_of_level(self, p):
        """Dimension of the level-p filtration step (full space for p <= 0)."""
        if p <= 0:
            return self.m
        if p < len(self.filtration_dims):
            return self.filtration_dims[p]
        return 0

    def complementary_steps(self):
        """(dim of level p, dim of level weight + 1 - p) for p = 1..weight,
        the step pairs the first relation asks to be orthogonal."""
        return [(self.dim_of_level(p), self.dim_of_level(self.weight + 1 - p))
                for p in range(1, self.weight + 1)]

    def __eq__(self, other):
        if not isinstance(other, HodgeData):
            return NotImplemented
        return (self.m, self.weight, self.filtration_dims, self.polarization) \
            == (other.m, other.weight, other.filtration_dims, other.polarization)


# The most base points a chart keeps a record for; the oldest goes first.
_POINT_RECORDS = 32


class _PointRecord(NamedTuple):
    """What a chart knows about one base point s.

    `regular` is set by `assert_regular` once every chart denominator has
    been checked at s; `gammas` is {q: G_q(s)} for every |q| <= `order`,
    set by `ConnectionChart.gammas_at` for `beta`; `inverses` is {q:
    K_q(s)}, the partials of the inverse frame, for every |q| <=
    `inverse_order`, set by `ConnectionChart.inverses_at` for `flags.alpha`,
    which reads no G_q; `torsor`, set by `torsor_at` for
    `flags.eta_chartlocal`, is the torsor point it found at s as a tuple of
    rows, or the class of the error a miss raises: NoRationalFvPoint when
    the miss is a proof, CongruenceSearchExhausted when the bounded search
    ran out.  Those fields are functions of (chart, s, order) alone, and
    each of `gammas` and `inverses` is built only when first asked for.
    `taylor`, set by `_taylor_part`, is (sigma, W) for the last jet sigma
    above s whose Taylor part W was formed, W a tuple of rows; it is a
    function of (chart, sigma), so `beta` and then
    `check_right_equivariance` on one jet form W once.  A record is
    replaced whole, never changed in place, so a race between threads
    costs at most a recompute.
    """

    regular: bool = False
    order: int = -1
    gammas: dict = None
    inverse_order: int = -1
    inverses: dict = None
    torsor: object = None
    taylor: tuple = None


_NO_RECORD = _PointRecord()


class ConnectionChart:
    """Connection data on one affine chart with coordinates z_1..z_n.

    The frame size, weight, filtration and lattice form are validated and
    held as a HodgeData in `hodge`.  The coefficients A_l of the flat-frame
    system have one polynomial denominator P, and N_l = P A_l are
    polynomial matrices: `factored` keeps them as factors, built on first
    use.  P(s) = 0 exactly where some coefficient has a pole, and the
    values at a base point run a short recurrence on P and the N_l (see
    `_local_gammas`); the per-entry rational functions stay the public and
    JSON form.  `_points` maps base points to their `_PointRecord`, in the
    order they were first recorded; reads take no lock, and `_lock`
    serializes the writes.
    """

    __slots__ = ("n", "m", "coeffs", "hodge", "gram", "variables",
                 "_a_matrices", "_denominators", "_factored", "_points",
                 "_lock")

    def __init__(self, n, m, coeffs, weight, filtration_dims, gram,
                 polarization, variables=None):
        if len(coeffs) != m or any(len(row) != m for row in coeffs):
            raise ArityMismatch("connection coefficient array is not m x m")
        for row in coeffs:
            for entry in row:
                if len(entry) != n:
                    raise ArityMismatch(
                        "each coefficient needs one component per coordinate")
                for rf in entry:
                    if rf.arity != n:
                        raise ArityMismatch(
                            "coefficient arity does not match the chart")
        hodge = HodgeData(m, weight, filtration_dims, polarization)
        if len(gram) != m or any(len(r) != m for r in gram):
            raise ArityMismatch("gram must be m x m")
        odd = weight % 2
        for i in range(m):
            for k in range(m):
                if gram[i][k].arity != n:
                    raise ArityMismatch("gram arity does not match the chart")
                # each unordered pair once; an odd weight's diagonal vanishes
                if k >= i + 1 - odd and not (
                        gram[i][k] == (-gram[k][i] if odd else gram[k][i])):
                    raise ValueError(
                        "gram does not have the symmetry of the weight")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs",
                           tuple(tuple(tuple(e) for e in row) for row in coeffs))
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "gram", tuple(tuple(row) for row in gram))
        object.__setattr__(self, "variables",
                           tuple(variables or default_names(n, "z")))
        # the solver works with A_l = - C_l^T acting on the left of f
        a_mats = []
        for l in range(n):
            a_mats.append(tuple(tuple(-self.coeffs[i][j][l]
                                      for i in range(m)) for j in range(m)))
        object.__setattr__(self, "_a_matrices", tuple(a_mats))
        # the distinct non-constant A_l denominators: P vanishes where they do
        object.__setattr__(self, "_denominators", tuple(dict.fromkeys(
            rf.den for a in a_mats for row in a for rf in row
            if rf.den.degree() > 0)))
        object.__setattr__(self, "_factored", None)
        object.__setattr__(self, "_points", {})
        object.__setattr__(self, "_lock", threading.Lock())

    def __setattr__(self, name, value):
        raise AttributeError("ConnectionChart is immutable")

    def a_matrix(self, l):
        """The left-multiplier matrix of the flat-frame system for d/dz_l."""
        return [list(row) for row in self._a_matrices[l]]

    def c_matrix(self, l):
        return [[self.coeffs[i][j][l] for j in range(self.m)]
                for i in range(self.m)]

    def factored(self):
        """(factors, cofactors): the chart's denominator P as a tuple of
        polynomial factors, and for each denominator d other than 1 of an
        A_l entry the factors of P / d, so that an entry num / d has
        N = num * prod(cofactors[d]), and an entry of denominator 1 has
        N = num * P.

        In one coordinate P is the lcm of the denominators, where the
        univariate gcd applies, and P / d its quotient by each; in more, P
        is the product of the distinct denominators, kept unmultiplied.
        Every A_l polynomial gives P = 1, the empty product, with no gcd.
        Built on first use and kept; a race between threads costs a
        recompute.
        """
        form = self._factored
        if form is None:
            dens = self._denominators
            if self.n == 1 and dens:
                den = univ_lcm(dens)
                form = (den,), {d: (_univ_divmod(den, d)[0],) if d != den
                                 else () for d in dens}
            else:
                form = dens, {d: tuple(e for e in dens if e != d)
                              for d in dens}
            object.__setattr__(self, "_factored", form)
        return form

    def _keep(self, point, record):
        """Store a point's record, dropping the oldest point when full."""
        points = self._points
        with self._lock:
            if point not in points and len(points) >= _POINT_RECORDS:
                del points[next(iter(points))]
            points[point] = record

    def torsor_at(self, point, search):
        """The `torsor` field of a point's record (see `_PointRecord`);
        `search(self, point)` finds it the first time and it is kept."""
        record = self._points.get(point, _NO_RECORD)
        found = record.torsor
        if found is None:
            found = search(self, point)
            self._keep(point, record._replace(torsor=found))
        return found

    def gammas_at(self, point, order):
        """{q: G_q(point)} for every |q| <= order, at a regular point.

        G_q is the matrix with d_q f = G_q f for every solution f: the system
        is linear, so the coefficient of f_ik in the form for d_q f_jk is
        G_q[j][i] for every column k.  G_0 is the identity, and G_q(s) is the
        q-th partial at s of the solution that is the identity at s; mixed
        partials are keyed by their multi-degree, which `_local_gammas`
        checks through the order minus two.  The values are built once per
        point, at the highest order asked there, and kept in its record: the
        shared dict may reach past `order` and is not to be changed.  A build
        that raises NonIntegrable leaves the record as it was.
        """
        record = self._points.get(point, _NO_RECORD)
        if record.order < order:
            record = record._replace(order=order,
                                     gammas=_local_gammas(self, order, point))
            self._keep(point, record)
        return record.gammas

    def inverses_at(self, point, order):
        """{q: K_q(point)} for every |q| <= order, at a regular point: the
        partials there of the inverse of the solution that is the identity
        at the point (see `_local_inverses`).  Built and kept as
        `gammas_at` builds and keeps G_q, in a field of its own."""
        record = self._points.get(point, _NO_RECORD)
        if record.inverse_order < order:
            record = record._replace(
                inverse_order=order,
                inverses=_local_inverses(self, order, point))
            self._keep(point, record)
        return record.inverses

    def assert_regular(self, point):
        """Raise SingularPoint if any chart denominator vanishes at the point:
        that of an A_l entry, so P (see `factored`), or of a Gram entry.

        A point that passes is recorded, and returns at once next time.
        """
        point = tuple(point)
        if len(point) != self.n:
            raise ArityMismatch("point dimension does not match the chart")
        record = self._points.get(point, _NO_RECORD)
        if record.regular:
            return
        shown = "(" + ", ".join(str(x) for x in point) + ")"
        if any(f.evaluate(point) == 0 for f in self._denominators):
            raise SingularPoint(
                f"connection coefficient has a pole at {shown}")
        for row in self.gram:
            for rf in row:
                if rf.den.degree() > 0 and rf.den.evaluate(point) == 0:
                    raise SingularPoint(f"gram has a pole at {shown}")
        self._keep(point, record._replace(regular=True))

    def gram_at(self, point):
        return [[rf.evaluate(point) for rf in row] for row in self.gram]

    def pairing_is_flat(self):
        """Whether the frame pairing is parallel for the connection."""
        g = [list(row) for row in self.gram]
        for l in range(self.n):
            cl = self.c_matrix(l)
            dg = [[rf.derivative(l) for rf in row] for row in g]
            rhs = linalg.mat_add(linalg.mat_mul(cl, g),
                                 linalg.mat_mul(g, linalg.transpose(cl)))
            if not linalg.mat_eq(dg, rhs):
                return False
        return True


class MatrixJet:
    """A square matrix of truncated series sharing (dims, order)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        m = len(entries)
        if any(len(row) != m for row in entries):
            raise ArityMismatch("matrix jet must be square")
        d, r = entries[0][0].dims, entries[0][0].order
        for row in entries:
            for s in row:
                if s.dims != d or s.order != r:
                    raise DimensionMismatch(
                        "matrix jet entries must share (dims, order)")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixJet is immutable")

    @property
    def m(self):
        return len(self.entries)

    @property
    def dims(self):
        return self.entries[0][0].dims

    @property
    def order(self):
        return self.entries[0][0].order

    @classmethod
    def from_constant(cls, matrix, dims, order):
        return cls([[TruncatedSeries.const(x, dims, order) for x in row]
                    for row in matrix])

    @classmethod
    def identity(cls, m, dims, order):
        return cls.from_constant(linalg.identity(m), dims, order)

    def entry(self, j, k):
        return self.entries[j][k]

    def constant_matrix(self):
        return [[s.constant_term() for s in row] for row in self.entries]

    def transpose(self):
        return MatrixJet(tuple(zip(*self.entries)))

    def restrict(self, new_order):
        return MatrixJet([[s.restrict(new_order) for s in row]
                          for row in self.entries])

    def __mul__(self, other):
        """Product with another matrix jet or a constant matrix on the right."""
        if isinstance(other, MatrixJet):
            other = other.entries
        return MatrixJet(series_product(self.entries, other))

    def __eq__(self, other):
        if not isinstance(other, MatrixJet):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"MatrixJet({[[s.to_string() for s in row] for row in self.entries]})"


def series_product(rows, other):
    """rows x other, one `TruncatedSeries.combination` per entry.  The rows
    of series may be rectangular; the entries of `other` may be series of
    their shape, rationals or Polynomials."""
    if any(len(row) != len(other) for row in rows) \
            or any(len(row) != len(other[0]) for row in other):
        raise DimensionMismatch("matrix shapes do not chain in the product")
    d, r = rows[0][0].dims, rows[0][0].order
    columns = list(zip(*other))
    return [[TruncatedSeries.combination(d, r, zip(column, row))
             for column in columns] for row in rows]


def invert_series_matrix(entries):
    """Inverse of a square series matrix with invertible rational constant term.

    Writes the matrix as M0 (I + N) with N of positive valuation; the inverse
    is the Neumann sum of `linalg.unipotent_inverse` times the inverse of M0.
    """
    m = len(entries)
    d, r = entries[0][0].dims, entries[0][0].order
    const = [[s.constant_term() for s in row] for row in entries]
    for row in const:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise SingularInitial(
                    "series matrix inversion needs rational constant terms")
    try:
        inv0 = linalg.invert(const)
    except ValueError:
        raise SingularInitial("constant term matrix is singular") from None
    nilpotent = [[s - 1 if i == j else s for j, s in enumerate(row)]
                 for i, row in enumerate(linalg.mat_mul(inv0, entries))]
    one, zero = TruncatedSeries.one(d, r), TruncatedSeries.zero(d, r)
    identity = [[one if i == j else zero for j in range(m)] for i in range(m)]
    return linalg.mat_mul(linalg.unipotent_inverse(identity, nilpotent, r),
                          inv0)


def matrixjet_invert(jet):
    """Multiplicative inverse of a matrix jet, exact at its order."""
    return MatrixJet(invert_series_matrix(jet.entries))


class XiTable(NamedTuple):
    """A (chart, order) pair that `beta` and `check_right_equivariance`
    accept as `table`: the order at which the chart's records are to hold
    the values G_q (see `ConnectionChart.gammas_at`).  It holds no values;
    `table` is always empty, and the benchmark's den_degree_max reads it.
    """

    chart: object
    order: int
    table: object = MappingProxyType({})


def build_xi(chart, order):
    """The `XiTable` of the chart at order.

    Does no algebra: the values at a base point are built by the first
    frame there that needs this order.
    """
    return XiTable(chart, order)


def _leibniz_terms(k, table):
    """The Leibniz terms of d^k: (C(k, g), table[g], k - g) for every g <= k
    in the table."""
    return [(math.prod(map(math.comb, k, g)), x, tuple(map(int.__sub__, k, g)))
            for g, x in table.items() if all(map(int.__le__, g, k))]


def _block_product(terms, m):
    """sum c X Y over the terms (c, X, Y) of m x m integer matrices, as one
    product of an m x km block row by a km x m block column."""
    if not terms:
        return [[0] * m for _ in range(m)]
    return linalg.mat_mul(
        [[c * x for c, left, _ in terms for x in left[j]] for j in range(m)],
        [row for _, _, right in terms for row in right])


def _cleared_partials(chart, order, point):
    """(den, partials): den[b] = D d^b P(s), and partials[l][b] = D d^b
    N_l(s) an integer matrix, for every |b| <= order - 1 where it is not
    zero, with P the chart's denominator, N_l = P A_l and D one positive
    integer: what the recurrences of `_local_gammas` and `_local_inverses`
    read.  P and the N_l are polynomials, so only finitely many of these
    partials are nonzero.

    D times the Taylor coefficients of P and the N_l at s come from one
    `poly.taylor_shift` of their factors (see `ConnectionChart.factored`),
    and d^b f(s) is b! times the coefficient of t^b.  SingularPoint is
    raised where P(s) = 0.

    For a < b the partials of the frame take d_a d_b Phi = (d_a A_b + A_b
    A_a) Phi; integrability asks the curvature K_ab = d_a A_b + A_b A_a -
    d_b A_a - A_a A_b to vanish at s through order `order - 2`, the part
    the recurrences read.  Since P(s) != 0 it does exactly when the
    polynomial matrix

        P^2 K_ab = P (d_a N_b - d_b N_a) - (d_a P) N_b + (d_b P) N_a
                   + N_b N_a - N_a N_b

    does, and D^2 times each of its Taylor coefficients there is tested in
    integers; otherwise the values would depend on the order of the
    partials, and NonIntegrable is raised.
    """
    m, n = chart.m, chart.n
    factors, cofactors = chart.factored()
    # the nonzero entries of the A_l as (l, j, i, factors of N_l[j][i])
    entries = [(l, j, i, (rf.num, *cofactors.get(rf.den, factors)))
               for l, a in enumerate(chart._a_matrices)
               for j, row in enumerate(a) for i, rf in enumerate(row) if rf]
    _, (den_coeffs, *coeffs) = taylor_shift(
        [factors] + [f for *_, f in entries], point, max(order - 1, 0))
    zero = (0,) * n
    if zero not in den_coeffs:
        shown = ", ".join(str(x) for x in point)
        raise SingularPoint(f"connection coefficient has a pole at ({shown})")
    # the Taylor tables of P, as scalar matrices, and of the N_l
    tables = [{b: [[c * (i == j) for i in range(m)] for j in range(m)]
               for b, c in den_coeffs.items()}] + [{} for _ in range(n)]
    for (l, j, i, _), table in zip(entries, coeffs):
        for b, c in table.items():
            matrix = tables[l + 1].get(b)
            if matrix is None:
                tables[l + 1][b] = matrix = [[0] * m for _ in range(m)]
            matrix[j][i] = c
    for a, b in combinations(range(n), 2):
        # empty below order 2
        if order >= 2 and not _vanishes_through(
                _curvature_factors(tables, a, b), order - 2, m):
            shown = ", ".join(str(x) for x in point)
            raise NonIntegrable("the chart's flat-frame system fails the "
                                f"mixed-partial condition at ({shown})")
    weight = {b: math.prod(map(math.factorial, b)) for table in tables
              for b in table}
    return ({b: c * weight[b] for b, c in den_coeffs.items()},
            [{b: [[x * weight[b] for x in row] for row in matrix]
              for b, matrix in table.items()} for table in tables[1:]])


def _derived(table, a):
    """The Taylor table of d_a f from that of f: the coefficient of t^k is
    k_a + 1 times that of t^(k + e_a)."""
    return {k[:a] + (k[a] - 1,) + k[a + 1:]: [[k[a] * x for x in row]
                                              for row in matrix]
            for k, matrix in table.items() if k[a]}


def _curvature_factors(tables, a, b):
    """P^2 K_ab (see `_cleared_partials`) as (sign, X, Y) for its products
    X Y of Taylor tables, from the tables [P, N_1, ..., N_n]."""
    p, n_a, n_b = tables[0], tables[a + 1], tables[b + 1]
    return [(1, p, _derived(n_b, a)), (-1, p, _derived(n_a, b)),
            (-1, _derived(p, a), n_b), (1, _derived(p, b), n_a),
            (1, n_b, n_a), (-1, n_a, n_b)]


def _vanishes_through(factors, top, m):
    """Whether the sum of the products sign X Y of Taylor tables of m x m
    integer matrices has no nonzero coefficient of degree <= top."""
    products = {}
    for sign, left, right in factors:
        for k1, x in left.items():
            for k2, y in right.items():
                if sum(k1) + sum(k2) <= top:
                    products.setdefault(tuple(map(int.__add__, k1, k2)),
                                        []).append((sign, x, y))
    return not any(any(map(any, _block_product(terms, m)))
                   for terms in products.values())


def _local_gammas(chart, order, point):
    """{q: G_q(point)} for every |q| <= order, by a recurrence on integer
    matrices at the point.

    G_q(s) is the q-th partial at s of the solution Phi with Phi(s) = I, so
    with l the lowest index where q_l > 0 and p = q - e_l, the Leibniz rule
    on d^p (P d_l Phi) = d^p (N_l Phi), P and N_l = P A_l the chart's
    polynomial data, gives the short recurrence

        P(s) G_q = sum_{b <= p} C(p, b) d^b N_l(s) G_(p-b)
                   - sum_{0 != b <= p} C(p, b) d^b P(s) G_(q-b),

    whose sums run over the b where those partials are nonzero, so |b| is
    at most the degree of the data: the flat frame is D-finite, with
    P-recursive Taylor coefficients (Stanley, Europ. J. Combin. 1, 1980).
    It reads the cleared partials D d^b P(s) and D d^b N_l(s) from
    `_cleared_partials`, which raises NonIntegrable when the chart fails
    the mixed-partial condition at s below order - 1.  With c = D P(s),
    H_q = c^|q| G_q(s) is integral,

        H_q = sum C(p, b) c^|b| (D d^b N_l(s)) H_(p-b)
              - sum C(p, b) c^(|b| - 1) (D d^b P(s)) H_(q-b),

    each step one `linalg.mat_mul`, and Fractions are formed only for the
    values returned.
    """
    return _local_values(chart, order, point, adjoint=False)


def _local_inverses(chart, order, point):
    """{q: K_q(point)} for every |q| <= order: the partials at s of the
    inverse Psi = Phi^-1 of the solution with Phi(s) = I.

    Psi solves the adjoint system d_l Psi = -Psi A_l (Coddington and
    Levinson, Theory of Ordinary Differential Equations, 1955), so the
    mirror of the recurrence of `_local_gammas`, on P d_l Psi = -Psi N_l
    and with the same integrability test, gives

        P(s) K_q = -sum_{b <= p} C(p, b) K_(p-b) d^b N_l(s)
                   - sum_{0 != b <= p} C(p, b) d^b P(s) K_(q-b),

    in integers on L_q = c^|q| K_q(s) as for H_q.  No series is inverted,
    and no G_q is formed.
    """
    return _local_values(chart, order, point, adjoint=True)


def _local_values(chart, order, point, adjoint):
    """The integer recurrence of `_local_gammas`, or with `adjoint` the one
    of `_local_inverses`, over the partials of `_cleared_partials`."""
    den, partials = _cleared_partials(chart, order, point)
    m, n = chart.m, chart.n
    identity = [[int(i == j) for i in range(m)] for j in range(m)]
    zero = (0,) * n
    powers = [1]
    for _ in range(order):
        powers.append(powers[-1] * den[zero])
    # the partials of P past its value
    higher = {b: c for b, c in den.items() if b != zero}
    scaled = {zero: identity}
    for q in graded_monomials(n, order)[1:]:
        l = next(i for i, e in enumerate(q) if e)
        p = q[:l] + (q[l] - 1,) + q[l + 1:]
        # C(p, b) c^|b| (D d^b N_l) and H_(p-b), with |b| = |p| - |p-b|
        terms = [(c * powers[sum(p) - sum(rest)], x, scaled[rest])
                 for c, x, rest in _leibniz_terms(p, partials[l])]
        if adjoint:
            terms = [(-c, rest, x) for c, x, rest in terms]
        # -C(p, b) c^(|b| - 1) (D d^b P) and H_(q-b), q - b = p - b + e_l
        terms += [(-c * x * powers[sum(p) - sum(rest) - 1], identity,
                   scaled[rest[:l] + (rest[l] + 1,) + rest[l + 1:]])
                  for c, x, rest in _leibniz_terms(p, higher)]
        scaled[q] = _block_product(terms, m)
    return {q: [[Fraction(x, powers[sum(q)]) for x in row] for row in h]
            for q, h in scaled.items()}


def _check_initial(matrix, m, what="initial matrix"):
    """Refuse a matrix that is not m x m, or whose determinant is zero:
    polynomial entries are read as rational functions, so that its
    elimination runs over a field."""
    if len(matrix) != m or any(len(row) != m for row in matrix):
        raise ArityMismatch(f"{what} has the wrong size")
    if not linalg.det([[RationalFunction(x) if isinstance(x, Polynomial) else x
                        for x in row] for row in matrix]):
        raise SingularInitial(f"{what} is singular")


def beta(chart, sigma, initial, table=None):
    """Order-r jet of the flat frame along sigma with value `initial` at the
    base point, assembled from the values G_q at the base point.

    The result equals the jet of the unique local solution of the flat-frame
    system through (base point, initial); its constant term is `initial`.
    Entries of `initial` may be polynomials (the map is linear in them), as
    long as the determinant is not identically zero.  The values are read
    at order r from `ConnectionChart.gammas_at`, or at the order of `table`,
    an `XiTable` of the chart reaching r.  Raises NonIntegrable when the
    chart fails the mixed-partial condition at the base point below that
    order minus one (see `_local_gammas`).
    """
    if sigma.n != chart.n:
        raise ArityMismatch("jet does not live on the chart")
    _check_initial(initial, chart.m)
    return MatrixJet(series_product(_taylor_part(chart, sigma, table),
                                    initial))


def _taylor_part(chart, sigma, table):
    """The m x m series matrix W = sum_q G_q(s) w_q over the Taylor weights
    w_q of sigma, so that the frame jet with initial value M is W M:
    `series.taylor_sum`, which reads no w_q of a zero G_q(s).

    It depends on (chart, sigma) alone: `table` only sets the order the
    values are built at.  The record of the base point keeps the W of the
    last jet there, which is returned, before any value is read, for a jet
    of the same stored form (see `_same_jet`)."""
    s = sigma.basepoint()
    kept = chart._points.get(s, _NO_RECORD).taylor
    if kept is not None and _same_jet(kept[0], sigma):
        return kept[1]
    chart.assert_regular(s)
    r = sigma.order
    order = table.order if table is not None and table.chart is chart else r
    gammas = chart.gammas_at(s, max(order, r))  # may reach past r
    w_matrix = taylor_sum(taylor_weights(sigma.offsets()), sigma.dims, r, [
        (q, gammas[q]) for q in graded_monomials(chart.n, r)])
    chart._keep(s, chart._points.get(s, _NO_RECORD)._replace(
        taylor=(sigma, w_matrix)))
    return w_matrix


def _same_jet(a, b):
    """Whether two jets have one stored form: in each component the same
    shape, table, denominator and ring of coefficients, where `==` equates
    a rational jet with one over Q[a_1..a_k] of equal value, whose W is over
    Q[a_1..a_k] too."""
    return a is b or all(map(same_form, a.series, b.series))


def series_oracle(chart, sigma, initial):
    """Same contract as `beta`, computed by pulling the system back along
    sigma and solving the truncated equations degree by degree.

    The pulled-back system is dF/dt_a = G_a F, with G_a = sum_l (d sigma_l
    / d t_a) (A_l along sigma).  The Euler operator E = sum_a t_a d/dt_a
    turns it into E F = S F with S = sum_a t_a G_a, which
    `series.euler_solve` solves degree by degree, forming only products of
    the degree it makes.

    Shares with `beta` only the series ring.  It expands the
    coefficients along sigma with `RationalFunction.eval_all_on_jet`, one
    call for every nonzero A_l[j][i] it reads.  The recursion is linear in
    `initial`, so any square initial matrix is accepted, singular ones
    included.
    """
    if sigma.n != chart.n:
        raise ArityMismatch("jet does not live on the chart")
    if len(initial) != chart.m or any(len(row) != chart.m for row in initial):
        raise ArityMismatch("initial matrix has the wrong size")
    s = sigma.basepoint()
    chart.assert_regular(s)
    d, r = sigma.dims, sigma.order
    m = chart.m
    combination = TruncatedSeries.combination
    # S = sum_a t_a G_a = sum_l E(sigma_l) (A_l along sigma), and E is
    # the degree times each homogeneous part
    euler = [combination(d, r, enumerate(comp.graded_parts()))
             for comp in sigma.series]
    # (l, j, i, A_l[j][i]) for the nonzero entries that meet a nonzero E
    entries = [(l, j, i, rf) for l, a in enumerate(chart._a_matrices)
               if euler[l] for j, row in enumerate(a)
               for i, rf in enumerate(row) if rf]
    pulled = [[[] for _ in range(m)] for _ in range(m)]
    for (l, j, i, _), along in zip(entries, RationalFunction.eval_all_on_jet(
            [rf for *_, rf in entries], sigma)):
        pulled[j][i].append((euler[l], along))
    return MatrixJet(euler_solve(
        [[combination(d, r, pairs) for pairs in row] for row in pulled],
        initial))


def check_right_equivariance(chart, sigma, initial, action, table=None):
    """Whether the frame jet of initial*A equals the frame jet of initial
    times A, exactly at the jet order.

    Both sides are products with one Taylor part W (see `_taylor_part`),
    kept from `beta` when it ran last at the base point on the same jet:
    W (M A) against (W M) A.  `initial` and `action` are validated as `beta`
    validates an initial matrix, which M A then passes too.
    """
    m = chart.m
    _check_initial(action, m, "acting matrix")
    if sigma.n != chart.n:
        raise ArityMismatch("jet does not live on the chart")
    _check_initial(initial, m)
    w_matrix = _taylor_part(chart, sigma, table)
    return series_product(w_matrix, linalg.mat_mul(initial, action)) \
        == series_product(series_product(w_matrix, initial), action)


def check_flatness(chart, sigma, frame_jet):
    """Whether a frame jet satisfies the pulled-back system at order r - 1.

    For every jet variable t_a, each entry's t_a-derivative plus its pairing
    with the pulled-back connection forms must vanish through order r - 1
    (see `series.is_flat`), and everything is formed at that order: the
    coefficients are expanded along sigma cut to order r - 1 (truncation
    commutes with evaluation).
    """
    d, r = sigma.dims, sigma.order
    if (frame_jet.dims, frame_jet.order) != (d, r):
        raise DimensionMismatch("frame jet and base jet differ in shape")
    if r == 0:
        return True
    m = chart.m
    # at [j][i]: c_ij along sigma, each with the l of the d sigma_l it
    # pairs with
    entries = [(j, i, l, rf) for j in range(m) for i in range(m)
               for l, rf in enumerate(chart.coeffs[i][j]) if rf]
    forms = [[[] for _ in range(m)] for _ in range(m)]
    for (j, i, l, _), s in zip(entries, RationalFunction.eval_all_on_jet(
            [rf for *_, rf in entries], sigma.restrict(r - 1))):
        forms[j][i].append((l, s))
    return is_flat(forms, sigma, frame_jet.entries)


def period_system(chart):
    """The companion chart whose flat frames are the inverse transposes of
    the original chart's flat frames.

    Solutions of the returned system are the coefficient functions expressing
    the original frame in a flat basis (period coordinates).  The pairing
    data is the induced dual pairing, with the lattice form scaled to a
    primitive integer matrix; filtration dims are carried over unchanged and
    the companion is intended for flat-frame computations.
    """
    m, n = chart.m, chart.n
    coeffs = [[[-chart.coeffs[j][i][l] for l in range(n)]
               for j in range(m)] for i in range(m)]
    gram_inv_t = linalg.transpose(linalg.invert(chart.gram))
    hodge = chart.hodge
    adj = _integer_adjugate(hodge.polarization)
    return ConnectionChart(n, m, coeffs, hodge.weight, hodge.filtration_dims,
                           gram_inv_t, adj, chart.variables)


def _integer_adjugate(q):
    """The adjugate of an integer matrix over the gcd of its entries:
    sign(det q) times the primitive integer form of q^-1."""
    fr = [[Fraction(x) for x in row] for row in q]
    inv = linalg.invert(fr)
    den = math.lcm(*(x.denominator for row in inv for x in row))
    nums = [[x.numerator * (den // x.denominator) for x in row] for row in inv]
    g = math.gcd(*(x for row in nums for x in row))
    if linalg.det(fr) < 0:
        g = -g
    return [[x // g for x in row] for row in nums]


def scalar_ode(chart):
    """Eliminate one entry of the rank-2 system on a one-dimensional chart.

    Returns the primitive integer coefficient polynomials (p2, p1, p0) of the
    scalar equation p2 y'' + p1 y' + p0 y = 0 satisfied by the period
    coordinates (the first row of the inverse of any flat frame); the leading
    coefficient of p2 is positive.
    """
    if chart.m != 2 or chart.n != 1:
        raise ArityMismatch("scalar elimination needs m = 2, n = 1")
    c11 = chart.coeffs[0][0][0]
    c12 = chart.coeffs[0][1][0]
    c21 = chart.coeffs[1][0][0]
    c22 = chart.coeffs[1][1][0]
    if not c12:
        raise ValueError("the system does not couple the two entries")
    logd = c12.derivative(0) / c12
    p2 = RationalFunction.one(1)
    p1 = -(c11 + c22 + logd)
    p0 = c11 * c22 - c12 * c21 - c11.derivative(0) + c11 * logd
    return normalize_poly_triple(p2, p1, p0)


def normalize_poly_triple(p2, p1, p0):
    """Clear denominators of three rational functions in one variable and
    return primitive integer polynomials with p2's leading coefficient
    positive."""
    lcm = univ_lcm([p.den for p in (p2, p1, p0)])
    return tuple(primitive_parts([p.num * _univ_divmod(lcm, p.den)[0]
                                  for p in (p2, p1, p0)]))

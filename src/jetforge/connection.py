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
  `ConnectionChart.gammas_at`).  Their values at the point come from the
  Leibniz rule on d_q f = d_p (A_l f), a recursion over derivative
  multi-degrees on integer matrices: the partials of the coefficients at
  the point, read off their Taylor series there and cleared of
  denominators by one common factor.  `beta` then assembles the Taylor
  composition as F = W M, where W[j][i] sums the Taylor weights w_q
  against the values G_q[j][i].  The same partials decide integrability:
  an order-r jet exists exactly when the curvature vanishes at the base
  point through order r - 2;
* `series_oracle` pulls the system back along sigma and solves the truncated
  equations degree by degree in jet coordinates, forming only the degree
  it reads: degree k of f is a sum of products of homogeneous parts whose
  degrees add up to k, the step of an online power-series solver (van der
  Hoeven, "Relax, but don't be too lazy", J. Symbolic Comput. 34, 2002).

Both build each entry of the frame with `TruncatedSeries.combination`,
one sum over one common denominator, and so does `check_flatness`, which
works at order r - 1, the order it compares; `series_product` forms W M,
`MatrixJet` products and the block product of `flags.flag_of_matrix` so
(only `invert_series_matrix` keeps its Neumann sum).  The values G_q(s)
form no series product: past the expansion of the coefficients they are
integer matrices.

They share the series ring and `RationalFunction.eval_on_jet`, which
expands the coefficients (along the identity jet at the base point for
`beta`, along sigma for the oracle), and nothing else, so their exact
agreement is a genuine cross-check.

A chart keeps one record for each of its last `_POINT_RECORDS` base points
(see `_PointRecord`): whether `assert_regular` passed there, the values
G_q(s) `beta` reads there and the torsor point `eta_chartlocal` found
there.  Many jets above one base point share that work.
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
from .poly import Polynomial, default_names, graded_monomials, primitive_parts
from .ratfunc import RationalFunction, _univ_divmod, _univ_gcd
from .series import JetPoint, TruncatedSeries, taylor_weights


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
    set by `ConnectionChart.gammas_at`; `torsor`, set by `torsor_at` for
    `flags.eta_chartlocal`, is the torsor point it found at s as a tuple of
    rows, or the class of the error a miss raises: NoRationalFvPoint when
    the miss is a proof, CongruenceSearchExhausted when the bounded search
    ran out.  Each field is a function of (chart, s, order) alone, and a
    record is replaced whole, never changed in place.
    """

    regular: bool = False
    order: int = -1
    gammas: dict = None
    torsor: object = None


_NO_RECORD = _PointRecord()


class ConnectionChart:
    """Connection data on one affine chart with coordinates z_1..z_n.

    The frame size, weight, filtration and lattice form are validated and
    held as a HodgeData in `hodge`.  `_points` maps base points to their
    `_PointRecord`, in the order they were first recorded; reads take no
    lock, and `_lock` serializes the writes.
    """

    __slots__ = ("n", "m", "coeffs", "hodge", "gram", "variables",
                 "_a_matrices", "_points", "_lock")

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

    def assert_regular(self, point):
        """Raise SingularPoint if any chart denominator vanishes at the point.

        A point that passes is recorded, and returns at once next time.
        """
        point = tuple(point)
        if len(point) != self.n:
            raise ArityMismatch("point dimension does not match the chart")
        record = self._points.get(point, _NO_RECORD)
        if record.regular:
            return
        shown = "(" + ", ".join(str(x) for x in point) + ")"
        # a constant denominator is kept equal to 1 and never vanishes
        for row in self.coeffs:
            for entry in row:
                for rf in entry:
                    if rf.den.degree() > 0 and rf.den.evaluate(point) == 0:
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


def _local_gammas(chart, order, point):
    """{q: G_q(point)} for every |q| <= order, by a recursion on integer
    matrices at the point.

    G_q(s) is the q-th partial at s of the solution Phi with Phi(s) = I, so
    with l the lowest index where q_l > 0 and p = q - e_l, the Leibniz rule
    on d^p (A_l Phi) gives

        G_q(s) = sum_{b <= p} C(p, b) d^b A_l(s) G_(p-b)(s).

    It reads d^b A_l(s) only for |b| <= order - 1: each nonzero entry of
    each A_l is expanded along the identity jet point + t at that order,
    d^b A_l(s) is b! times its Taylor coefficient of t^b, and one D, the lcm
    of the expansions' denominators, makes every D d^b A_l(s) an integer
    matrix.  Then H_q = D^|q| G_q(s) is integral,

        H_q = sum_{b <= p} C(p, b) D^|b| (D d^b A_l(s)) H_(p-b),

    each sum one `linalg.mat_mul`, and Fractions are formed only for the
    values returned.

    For a < b the values take d_a d_b Phi = (d_a A_b + A_b A_a) Phi;
    integrability asks the curvature d_a A_b + A_b A_a - d_b A_a - A_a A_b
    to vanish at s through order `order - 2`, the part the recursion reads.
    Each of its partials there, times D^2, is tested in integers; otherwise
    the values would depend on the order of the partials, and NonIntegrable
    is raised.
    """
    m, n = chart.m, chart.n
    low = max(order - 1, 0)
    jet = JetPoint([TruncatedSeries.const(x, n, low)
                    + TruncatedSeries.variable(i, n, low)
                    for i, x in enumerate(point)])
    expansions = [[[rf.eval_on_jet(jet).coeffs if rf else {} for rf in row]
                   for row in chart.a_matrix(l)] for l in range(n)]
    den = math.lcm(*(c.denominator for a in expansions for row in a
                     for coeffs in row for c in coeffs.values()))
    # derivs[l][b] = D d^b A_l(s), for the b where it is not zero
    derivs = []
    for a in expansions:
        table = {}
        for j, row in enumerate(a):
            for i, coeffs in enumerate(row):
                for b, c in coeffs.items():
                    matrix = table.get(b)
                    if matrix is None:
                        table[b] = matrix = [[0] * m for _ in range(m)]
                    matrix[j][i] = (c.numerator * (den // c.denominator)
                                    * math.prod(map(math.factorial, b)))
        derivs.append(table)
    identity = [[int(i == j) for i in range(m)] for j in range(m)]
    zero = [[0] * m for _ in range(m)]

    def split(k, table):
        """The Leibniz terms of d^k: (C(k, g), table[g], k - g) for every g
        <= k in the table."""
        return [(math.prod(map(math.comb, k, g)), x,
                 tuple(map(int.__sub__, k, g)))
                for g, x in table.items() if all(map(int.__le__, g, k))]

    def leibniz(terms):
        """sum c X Y over the terms (c, X, Y), as one product of an m x km
        block row by a km x m block column."""
        if not terms:
            return zero
        return linalg.mat_mul(
            [[c * x for c, left, _ in terms for x in left[j]]
             for j in range(m)],
            [row for _, _, right in terms for row in right])

    def shift(k, i):
        return k[:i] + (k[i] + 1,) + k[i + 1:]

    powers = [den ** k for k in range(order + 1)]
    scaled = {(0,) * n: identity}
    for q in graded_monomials(n, order)[1:]:
        l = next(i for i, e in enumerate(q) if e)
        p = q[:l] + (q[l] - 1,) + q[l + 1:]
        # H_q = sum C(p, b) D^|b| (D d^b A_l) H_(p-b), with |b| = |p| - |p-b|
        scaled[q] = leibniz([(c * powers[sum(p) - sum(rest)], x, scaled[rest])
                             for c, x, rest in split(p, derivs[l])])
    for a, b in combinations(range(n), 2):
        # empty below order 2
        for k in graded_monomials(n, order - 2):
            # D^2 d^k (d_a A_b + A_b A_a - d_b A_a - A_a A_b) at s
            terms = []
            for x, y, sign in ((b, a, 1), (a, b, -1)):
                terms.append((sign * den, derivs[x].get(shift(k, y), zero),
                              identity))
                terms += [(sign * c, left, derivs[y][rest])
                          for c, left, rest in split(k, derivs[x])
                          if rest in derivs[y]]
            if any(map(any, leibniz(terms))):
                shown = ", ".join(str(x) for x in point)
                raise NonIntegrable("the chart's flat-frame system fails the "
                                    f"mixed-partial condition at ({shown})")
    return {q: [[Fraction(x, powers[sum(q)]) for x in row] for row in h]
            for q, h in scaled.items()}


def _check_initial(matrix, m):
    if len(matrix) != m or any(len(row) != m for row in matrix):
        raise ArityMismatch("initial matrix has the wrong size")
    if not linalg.det([[RationalFunction(x) if isinstance(x, Polynomial) else x
                        for x in row] for row in matrix]):
        raise SingularInitial("initial matrix is singular")


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
    """The m x m series matrix W with W[j][i] = sum_q G_q(s)[j][i] w_q over
    the Taylor weights w_q of sigma, so that the frame jet with initial
    value M is W M; one combination per entry.  It depends on (chart,
    sigma) alone: `table` only sets the order the values are built at."""
    s = sigma.basepoint()
    chart.assert_regular(s)
    d, r = sigma.dims, sigma.order
    order = table.order if table is not None and table.chart is chart else r
    values = chart.gammas_at(s, max(order, r))
    weight = taylor_weights(sigma.offsets())
    # a zero weight adds nothing to a combination
    gammas = [(values[q], weight(q)) for q in graded_monomials(chart.n, r)]
    m = chart.m
    return [[TruncatedSeries.combination(d, r, [(g[j][i], w)
                                                for g, w in gammas])
             for i in range(m)] for j in range(m)]


def series_oracle(chart, sigma, initial):
    """Same contract as `beta`, computed by pulling the system back along
    sigma and solving the truncated equations degree by degree.

    The pulled-back system is dF/dt_a = G_a F, with G_a = sum_l (d sigma_l
    / d t_a) (A_l along sigma).  The Euler operator E = sum_a t_a d/dt_a
    turns it into E F = S F with S = sum_a t_a G_a, and E is k times the
    degree-k part, so that part of F is (1/k) sum_e S_e F_(k-e) over the
    homogeneous parts S_e of S, e >= 1.  Step k thus forms only products
    of degree k, one combination per entry, and none at full order.

    Shares with the xi-table route only the series ring and
    `RationalFunction.eval_on_jet`.  The recursion is linear in `initial`,
    so any square initial matrix is accepted, singular ones included.
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
    pulled = [[[] for _ in range(m)] for _ in range(m)]
    for l, moved in enumerate(euler):
        if moved:
            for j, row in enumerate(chart.a_matrix(l)):
                for i, rf in enumerate(row):
                    if rf:
                        pulled[j][i].append((moved, rf.eval_on_jet(sigma)))
    # the nonzero parts S_e of S, with their degrees e >= 1
    s_parts = [[[(e, part) for e, part in enumerate(
        combination(d, r, pairs).graded_parts()) if part] for pairs in row]
               for row in pulled]
    # the degree-k part of F is (1/k) sum_e S_e F_(k-e): each product is of
    # two homogeneous parts and has degree k
    parts = [[[TruncatedSeries.const(x, d, r)] for x in row]
             for row in initial]
    for k in range(1, r + 1):
        inv_k = Fraction(1, k)
        for s_row, f_row in zip(s_parts, parts):
            for c, f_parts in enumerate(f_row):
                f_parts.append(combination(d, r, [
                    (part, parts[i][c][k - e])
                    for i, s_entry in enumerate(s_row)
                    for e, part in s_entry if e <= k]).scale(inv_k))
    return MatrixJet([[combination(d, r, [(1, p) for p in entry])
                       for entry in row] for row in parts])


def check_right_equivariance(chart, sigma, initial, action, table=None):
    """Whether the frame jet of initial*A equals the frame jet of initial
    times A, exactly at the jet order.

    Both sides are products with one Taylor part W (see `_taylor_part`):
    W (M A) against (W M) A.  `initial` and `action` are validated as `beta`
    validates an initial matrix, which M A then passes too.
    """
    m = chart.m
    if len(action) != m or any(len(row) != m for row in action):
        raise ArityMismatch("acting matrix has the wrong size")
    if not linalg.det(action):
        raise SingularInitial("the acting matrix is singular")
    if sigma.n != chart.n:
        raise ArityMismatch("jet does not live on the chart")
    _check_initial(initial, m)
    w_matrix = _taylor_part(chart, sigma, table)
    return series_product(w_matrix, linalg.mat_mul(initial, action)) \
        == series_product(series_product(w_matrix, initial), action)


def check_flatness(chart, sigma, frame_jet):
    """Whether a frame jet satisfies the pulled-back system at order r - 1.

    For every jet variable t_a, each entry's t_a-derivative plus its pairing
    with the pulled-back connection forms must vanish through order r - 1,
    and everything is formed at that order: each derivative is taken from
    the order-r entry (derivatives lose the top degree) before it is cut,
    the coefficients are expanded along sigma cut to order r - 1
    (truncation commutes with evaluation), and each sum is one combination.
    """
    d, r = sigma.dims, sigma.order
    if (frame_jet.dims, frame_jet.order) != (d, r):
        raise DimensionMismatch("frame jet and base jet differ in shape")
    if r == 0:
        return True
    low, combination, m = r - 1, TruncatedSeries.combination, chart.m
    sigma_low = sigma.restrict(low)
    jacobian = [[s.derive(a).restrict(low) for a in range(d)]
                for s in sigma.series]
    # at [j][i]: c_ij along sigma, each with the d sigma_l / dt_a it pairs with
    along = [[[(rf.eval_on_jet(sigma_low), jacobian[l])
               for l, rf in enumerate(chart.coeffs[i][j]) if rf]
              for i in range(m)] for j in range(m)]
    frame = frame_jet.entries
    columns = list(zip(*[[s.restrict(low) for s in row] for row in frame]))
    for a in range(d):
        for along_row, row in zip(along, frame):
            # the dt_a components of the pulled-back forms c_ij, i = 0..m-1
            forms = [combination(d, low, [(c, dl[a]) for c, dl in pairs])
                     for pairs in along_row]
            for s, column in zip(row, columns):
                if combination(d, low, [(1, s.derive(a).restrict(low)),
                                        *zip(forms, column)]):
                    return False
    return True


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
    dens = [p.den for p in (p2, p1, p0)]
    lcm = dens[0]
    for dpoly in dens[1:]:
        g = _univ_gcd(lcm, dpoly)
        lcm = _univ_divmod(lcm * dpoly, g)[0]
    return tuple(primitive_parts([p.num * _univ_divmod(lcm, p.den)[0]
                                  for p in (p2, p1, p0)]))

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
  linear form in the entries of f (the xi table), recursing over derivative
  multi-degrees in chart coordinates on the Taylor series of the
  coefficients there, and assembles the Taylor composition.  The same
  series decide integrability: an order-r jet exists exactly when the
  mixed-partial condition holds at the base point through order r - 2;
* `series_oracle` pulls the system back along sigma and solves the truncated
  equations degree by degree in jet coordinates.

They share the series ring and `RationalFunction.eval_on_jet`, which
expands the coefficients (along the identity jet at the base point for
`beta`, along sigma for the oracle), and nothing else, so their exact
agreement is a genuine cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from . import linalg
from .errors import (ArityMismatch, DimensionMismatch, NonIntegrable,
                     SingularInitial, SingularPoint)
from .poly import graded_monomials, primitive_parts
from .ratfunc import RationalFunction
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

    def __eq__(self, other):
        if not isinstance(other, HodgeData):
            return NotImplemented
        return (self.m, self.weight, self.filtration_dims, self.polarization) \
            == (other.m, other.weight, other.filtration_dims, other.polarization)


class ConnectionChart:
    """Connection data on one affine chart with coordinates z_1..z_n.

    The frame size, weight, filtration and lattice form are validated and
    held as a HodgeData in `hodge`; `weight`, `filtration_dims` and
    `polarization` repeat its fields.
    """

    __slots__ = ("n", "m", "coeffs", "hodge", "weight", "filtration_dims",
                 "gram", "polarization", "variables", "_a_matrices")

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
        sign = Fraction(-1 if weight % 2 else 1)
        for i in range(m):
            for k in range(m):
                if gram[i][k].arity != n:
                    raise ArityMismatch("gram arity does not match the chart")
                if not (gram[i][k] == gram[k][i] * sign):
                    raise ValueError(
                        "gram does not have the symmetry of the weight")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs",
                           tuple(tuple(tuple(e) for e in row) for row in coeffs))
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "weight", hodge.weight)
        object.__setattr__(self, "filtration_dims", hodge.filtration_dims)
        object.__setattr__(self, "gram", tuple(tuple(row) for row in gram))
        object.__setattr__(self, "polarization", hodge.polarization)
        object.__setattr__(self, "variables", tuple(variables) if variables
                           else tuple(f"z{i + 1}" for i in range(n)))
        # the solver works with A_l = - C_l^T acting on the left of f
        a_mats = []
        for l in range(n):
            a_mats.append(tuple(tuple(-self.coeffs[i][j][l]
                                      for i in range(m)) for j in range(m)))
        object.__setattr__(self, "_a_matrices", tuple(a_mats))

    def __setattr__(self, name, value):
        raise AttributeError("ConnectionChart is immutable")

    def a_matrix(self, l):
        """The left-multiplier matrix of the flat-frame system for d/dz_l."""
        return [list(row) for row in self._a_matrices[l]]

    def c_matrix(self, l):
        return [[self.coeffs[i][j][l] for j in range(self.m)]
                for i in range(self.m)]

    def assert_regular(self, point):
        """Raise SingularPoint if any chart denominator vanishes at the point."""
        point = tuple(point)
        if len(point) != self.n:
            raise ArityMismatch("point dimension does not match the chart")
        shown = "(" + ", ".join(str(x) for x in point) + ")"
        for row in self.coeffs:
            for entry in row:
                for rf in entry:
                    if rf.den.evaluate(point) == 0:
                        raise SingularPoint(
                            f"connection coefficient has a pole at {shown}")
        for row in self.gram:
            for rf in row:
                if rf.den.evaluate(point) == 0:
                    raise SingularPoint(f"gram has a pole at {shown}")

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
    """A square matrix of truncated series with invertible constant term."""

    __slots__ = ("entries",)

    def __init__(self, entries, require_invertible=True):
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
        if require_invertible:
            c = [[s.constant_term() for s in row] for row in entries]
            if not linalg.det(c):
                raise SingularInitial("constant term matrix is singular")
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
    def from_constant(cls, matrix, dims, order, require_invertible=True):
        return cls([[TruncatedSeries.const(x, dims, order) for x in row]
                    for row in matrix], require_invertible)

    @classmethod
    def identity(cls, m, dims, order):
        return cls.from_constant(linalg.identity(m), dims, order)

    def entry(self, j, k):
        return self.entries[j][k]

    def constant_matrix(self):
        return [[s.constant_term() for s in row] for row in self.entries]

    def transpose(self):
        return MatrixJet(tuple(zip(*self.entries)), require_invertible=False)

    def restrict(self, new_order):
        return MatrixJet([[s.restrict(new_order) for s in row]
                          for row in self.entries], require_invertible=False)

    def __mul__(self, other):
        """Product with another matrix jet or a constant matrix on the right."""
        if isinstance(other, MatrixJet):
            other = other.entries
        return MatrixJet(linalg.mat_mul(self.entries, other),
                         require_invertible=False)

    def __eq__(self, other):
        if not isinstance(other, MatrixJet):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"MatrixJet({[[s.to_string() for s in row] for row in self.entries]})"


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


class XiTable:
    """The derivative forms of flat frames, at base points on demand.

    For every derivative multi-degree q with |q| <= order, G_q is the matrix
    with d_q f = G_q f for every solution f; since the system is linear, the
    coefficient of f_ik in the form for d_q f_jk is G_q[j][i], independent
    of the column k.  G_0 is the identity and G_q = d_l G_p + G_p A_l with
    p = q - e_l, l the lowest index with q_l > 0.  Mixed partials are keyed
    by their multi-degree; the word-order independence this assumes is
    checked at each base point, through the order the jet reads.

    `gamma_at(q, s)` is the value of G_q at a regular point s.  The first
    call at s builds the values of every G_q there (see `_local_gammas`)
    and keeps them on the table, so later calls at s, from any number of
    `beta` calls sharing the table, reuse them.
    """

    __slots__ = ("chart", "order", "table", "_local")

    def __init__(self, chart, order):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "order", order)
        # always empty: the benchmark's den_degree_max counter still reads it
        object.__setattr__(self, "table", {})
        object.__setattr__(self, "_local", {})

    def __setattr__(self, name, value):
        raise AttributeError("XiTable is immutable")

    def gamma_at(self, q, point):
        """The matrix G_q at a regular point, as rationals."""
        point = tuple(point)
        local = self._local.get(point)
        if local is None:
            local = self._local[point] = _local_gammas(self.chart, self.order,
                                                       point)
        return [list(row) for row in local[tuple(q)]]


def build_xi(chart, order):
    """The table of derivative forms for all multi-degrees up to order.

    Does no algebra: the values at a base point are built by the table's
    first `gamma_at` call there.
    """
    return XiTable(chart, order)


def _local_gammas(chart, order, point):
    """{q: G_q(point)} for every |q| <= order, from Taylor series at the point.

    The entries of each A_l are expanded to order `order` along the
    identity jet point + t, and the recursion of `XiTable` runs over those
    series, with G_q carried at order `order - |q|`: the parent is
    differentiated before it is truncated, so no degree is lost.

    For a < b the recursion takes G at e_a + e_b to be d_a A_b + A_b A_a;
    integrability asks d_b A_a + A_a A_b to agree with it, through order
    `order - 2`, the part the recursion reads.  Otherwise the values would
    depend on the order of the partials, and NonIntegrable is raised.
    """
    m, n = chart.m, chart.n
    jet = JetPoint([TruncatedSeries.const(x, n, order)
                    + TruncatedSeries.variable(i, n, order)
                    for i, x in enumerate(point)])
    zero = TruncatedSeries.zero(n, order)
    a_series = [[[rf.eval_on_jet(jet) if rf else zero for rf in row]
                 for row in chart.a_matrix(l)] for l in range(n)]

    def step(gamma, l, k):
        """d_l gamma + gamma A_l at order k, skipping zero products."""
        a_low = [[(i, s.restrict(k)) for i, s in enumerate(row)
                  if not s.is_zero()] for row in a_series[l]]
        out = []
        for row in gamma:
            new = [s.derive(l).restrict(k) for s in row]
            for g, a_row in zip(row, a_low):
                if not g.is_zero():
                    g = g.restrict(k)
                    for i, a in a_row:
                        new[i] = new[i] + g * a
            out.append(new)
        return out

    one = TruncatedSeries.one(n, order)
    gammas = {(0,) * n: [[one if i == j else zero for i in range(m)]
                         for j in range(m)]}
    for q in graded_monomials(n, order)[1:]:
        l = next(i for i, e in enumerate(q) if e)
        prev = q[:l] + (q[l] - 1,) + q[l + 1:]
        gammas[q] = step(gammas[prev], l, order - sum(q))
    for a, b in combinations(range(n), 2) if order >= 2 else ():
        mixed = tuple(int(i in (a, b)) for i in range(n))
        if not linalg.mat_eq(gammas[mixed], step(a_series[a], b, order - 2)):
            shown = ", ".join(str(x) for x in point)
            raise NonIntegrable("the chart's flat-frame system fails the "
                                f"mixed-partial condition at ({shown})")
    return {q: [[s.constant_term() for s in row] for row in gamma]
            for q, gamma in gammas.items()}


def _check_initial(matrix, m):
    if len(matrix) != m or any(len(row) != m for row in matrix):
        raise ArityMismatch("initial matrix has the wrong size")
    if not linalg.det(matrix):
        raise SingularInitial("initial matrix is singular")


def beta(chart, sigma, initial, table=None):
    """Order-r jet of the flat frame along sigma with value `initial` at the
    base point, assembled from the xi table.

    The result equals the jet of the unique local solution of the flat-frame
    system through (base point, initial); its constant term is `initial`.
    Entries of `initial` may be polynomials (the map is linear in them), as
    long as the determinant is not identically zero.  A table passed in is
    reused when it belongs to the chart and reaches order r.  Raises
    NonIntegrable when the chart fails the mixed-partial condition at the
    base point below the table's order minus one (see `_local_gammas`).
    """
    if sigma.n != chart.n:
        raise ArityMismatch("jet does not live on the chart")
    _check_initial(initial, chart.m)
    s = sigma.basepoint()
    chart.assert_regular(s)
    d, r = sigma.dims, sigma.order
    if table is None or table.order < r or table.chart is not chart:
        table = build_xi(chart, r)
    weight = taylor_weights(sigma.offsets())
    acc = [[TruncatedSeries.zero(d, r) for _ in range(chart.m)]
           for _ in range(chart.m)]
    for q in graded_monomials(chart.n, r):
        wq = weight(q)
        if wq.is_zero():
            continue
        coeff = linalg.mat_mul(table.gamma_at(q, s), initial)
        for j in range(chart.m):
            for k in range(chart.m):
                c = coeff[j][k]
                if c:
                    acc[j][k] = acc[j][k] + wq.scale(c)
    return MatrixJet(acc)


def series_oracle(chart, sigma, initial, require_invertible=True):
    """Same contract as `beta`, computed by pulling the system back along
    sigma and solving the truncated equations degree by degree.

    Shares with the xi-table route only the series ring and
    `RationalFunction.eval_on_jet`.  With
    `require_invertible=False` the recursion extends linearly to singular
    initial matrices.
    """
    if sigma.n != chart.n:
        raise ArityMismatch("jet does not live on the chart")
    if len(initial) != chart.m or any(len(row) != chart.m for row in initial):
        raise ArityMismatch("initial matrix has the wrong size")
    if require_invertible and not linalg.det(initial):
        raise SingularInitial("initial matrix is singular")
    s = sigma.basepoint()
    chart.assert_regular(s)
    d, r = sigma.dims, sigma.order
    m = chart.m
    # pulled-back multipliers: dF/dt_a = G_a F with
    # G_a = sum_l (d sigma_l / d t_a) (A_l along sigma)
    pulled = []
    for a in range(d):
        g = [[TruncatedSeries.zero(d, r) for _ in range(m)] for _ in range(m)]
        for l in range(chart.n):
            ds = sigma.series[l].derive(a)
            if ds.is_zero():
                continue
            amat = chart.a_matrix(l)
            for j in range(m):
                for i in range(m):
                    if amat[j][i]:
                        g[j][i] = g[j][i] + amat[j][i].eval_on_jet(sigma) * ds
        pulled.append(g)
    parts = [[{(0,) * d: initial[j][k]} if initial[j][k] else {}
              for k in range(m)] for j in range(m)]
    for degree in range(1, r + 1):
        # the new degree reads the products only in degree - 1, so both
        # factors are cut there
        low = degree - 1
        current = [[TruncatedSeries(d, low, parts[j][k]) for k in range(m)]
                   for j in range(m)]
        inv_deg = Fraction(1, degree)
        for a in range(d):
            prod = linalg.mat_mul([[s.restrict(low) for s in row]
                                   for row in pulled[a]], current)
            for j in range(m):
                for k in range(m):
                    for p, c in prod[j][k].homogeneous(low).items():
                        shifted = tuple(e + 1 if i == a else e
                                        for i, e in enumerate(p))
                        prev = parts[j][k].get(shifted)
                        val = c * inv_deg
                        parts[j][k][shifted] = prev + val if prev is not None \
                            else val
    entries = [[TruncatedSeries(d, r, parts[j][k]) for k in range(m)]
               for j in range(m)]
    return MatrixJet(entries, require_invertible=require_invertible)


def check_right_equivariance(chart, sigma, initial, action, table=None):
    """Whether the frame jet of initial*A equals the frame jet of initial
    times A, exactly at the jet order."""
    if not linalg.det(action):
        raise SingularInitial("the acting matrix is singular")
    if table is None:
        table = build_xi(chart, sigma.order)
    moved = linalg.mat_mul(initial, action)
    left = beta(chart, sigma, moved, table=table)
    right = beta(chart, sigma, initial, table=table) * action
    return left == right


def check_flatness(chart, sigma, frame_jet):
    """Whether a frame jet satisfies the pulled-back system at order r - 1.

    Checks, for every jet variable t_a, that the t_a-derivative of each entry
    plus the pairing against the pulled-back connection forms vanishes one
    order below the jet order (derivatives lose the top degree).
    """
    d, r = sigma.dims, sigma.order
    if r == 0:
        return True
    m = chart.m
    pullback = [[[None] * d for _ in range(m)] for _ in range(m)]
    dsigma = [[sigma.series[l].derive(a) for a in range(d)]
              for l in range(chart.n)]
    for i in range(m):
        for j in range(m):
            for a in range(d):
                acc = TruncatedSeries.zero(d, r)
                for l in range(chart.n):
                    rf = chart.coeffs[i][j][l]
                    if rf:
                        acc = acc + rf.eval_on_jet(sigma) * dsigma[l][a]
                pullback[i][j][a] = acc
    for a in range(d):
        for j in range(m):
            for k in range(m):
                lhs = frame_jet.entry(j, k).derive(a)
                for i in range(m):
                    lhs = lhs + frame_jet.entry(i, k) * pullback[i][j][a]
                if not lhs.restrict(r - 1).is_zero():
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
    adj = _integer_adjugate(chart.polarization)
    return ConnectionChart(n, m, coeffs, chart.weight, chart.filtration_dims,
                           gram_inv_t, adj, chart.variables)


def _integer_adjugate(q):
    m = len(q)
    fr = [[Fraction(x) for x in row] for row in q]
    adj = []
    for i in range(m):
        row = []
        for j in range(m):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(fr) if k != j]
            cof = linalg.det(minor) if minor else Fraction(1)
            row.append(cof if (i + j) % 2 == 0 else -cof)
        adj.append(row)
    g = 0
    for row in adj:
        for x in row:
            g = math.gcd(g, int(x))
    g = g or 1
    return [[int(x) // g for x in row] for row in adj]


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
    from .ratfunc import _univ_divmod, _univ_gcd

    dens = [p.den for p in (p2, p1, p0)]
    lcm = dens[0]
    for dpoly in dens[1:]:
        g = _univ_gcd(lcm, dpoly)
        lcm = _univ_divmod(lcm * dpoly, g)[0]
    return tuple(primitive_parts([p.num * _univ_divmod(lcm, p.den)[0]
                                  for p in (p2, p1, p0)]))

"""Exact linear algebra on matrices given as plain lists of row lists.

Over any commutative ring (Fractions, polynomials, truncated series):
`transpose`, `mat_mul`, `mat_add`, `mat_eq` and
`unipotent_inverse`, the one Neumann sum.  `mat_mul` is
the one matrix product: it skips every term with a falsy factor, and an
entry whose terms are all skipped is the product of its first pair, so it
is a zero of the right ring and shape without the caller passing one in.
Entries may not be None.

Over any field whose elements support +, -, *, truth testing and `1 / x`
(Fractions, rational functions): `invert` and the Gauss-Jordan elimination
`eliminate` it runs, and `det` by Bareiss's (Math. Comp. 22, 1968), which
inverts no pivot.  Matrices of ints and Fractions run both in integers:
each row is cleared of denominators, Bareiss and the fraction-free
Gauss-Jordan elimination divide exactly with `//`, and Fractions are
formed only for the result.  In any other matrix ints are read as
Fractions.  `rank`, `kernel_basis` and `solve` fill in
rational zeros and ones, so they take rational matrices.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def identity(m):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(m)]
            for i in range(m)]


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def transpose(a):
    return [list(row) for row in zip(*a)]


def mat_mul(a, b):
    """The product a b, forming no term with a falsy factor.

    An entry whose terms are all skipped is the product of its first pair,
    a zero of the operands' ring and shape.
    """
    cols = range(len(b[0]))
    out = []
    for arow in a:
        terms = [(x, brow) for x, brow in zip(arow, b) if x]
        row = []
        for j in cols:
            acc = None
            for x, brow in terms:
                y = brow[j]
                if y:
                    acc = x * y if acc is None else acc + x * y
            row.append(arow[0] * b[0][j] if acc is None else acc)
        out.append(row)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b):
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


def det(a):
    """Determinant by Bareiss's elimination, which divides exactly by the
    previous pivot: in integers once each row of ints and Fractions is
    cleared of denominators (see `_cleared_rows`), with one Fraction for
    the result, and with `/` over any other field."""
    if len(a) == 1:
        x = a[0][0]
        return Fraction(x) if isinstance(x, int) else x
    rows, scale = _cleared_rows(a)
    if rows is None:
        return _bareiss([[Fraction(x) if isinstance(x, int) else x
                          for x in row] for row in a], operator.truediv)
    return Fraction(_bareiss(rows, operator.floordiv), scale)


def _bareiss(rows, divide):
    """The determinant of a square matrix of rows, which it consumes; each
    step's entries are minors of the matrix, so `divide` by the previous
    pivot is exact."""
    negate, prev = False, None
    while len(rows) > 1:
        for i, top in enumerate(rows):
            if top[0]:
                break
        else:
            return top[0]   # a zero column: the zero of the entries
        if i:
            rows[i] = rows[0]
            negate = not negate
        del rows[0]
        pivot, tail = top[0], top[1:]
        rows = [[pivot * x - row[0] * y for x, y in zip(row[1:], tail)]
                if row[0] else [pivot * x for x in row[1:]] for row in rows]
        if prev is not None:
            rows = [[divide(x, prev) for x in row] for row in rows]
        prev = pivot
    return -rows[0][0] if negate else rows[0][0]


def _cleared_rows(a):
    """(rows, scale): each row of a matrix of ints and Fractions times the
    lcm of its denominators, as lists of ints, and the product of those
    lcms; (None, None) when some entry is neither an int nor a Fraction.
    Scaling rows keeps their span, and scales the determinant by `scale`.
    """
    rows, scale = [], 1
    for row in a:
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                if den % x.denominator:
                    den = math.lcm(den, x.denominator)
            elif not isinstance(x, int):
                return None, None
        rows.append([x * den if isinstance(x, int)
                     else x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return rows, scale


def unipotent_inverse(identity, nilpotent, steps):
    """(I + N)^-1 for a nilpotent N: the sum of the powers of -N.

    The sum stops at the first zero power and after at most `steps` powers,
    so N^(steps + 1) must vanish.  `identity` is I over the ring of N's
    entries.
    """
    negated = [[-x for x in row] for row in nilpotent]
    total = power = identity
    for _ in range(steps):
        power = mat_mul(power, negated)
        if not any(x for row in power for x in row):
            break
        total = mat_add(total, power)
    return total


def eliminate(a):
    """Reduced row echelon form (copy); returns (rows, pivot_columns).

    Rows of ints and Fractions are cleared of denominators (see
    `_cleared_rows`) and reduced by fraction-free Gauss-Jordan elimination:
    at a pivot p every other row becomes (p row - f top) divided by the
    previous pivot, exactly, since its entries are minors of the matrix,
    and each pivot row ends with the last pivot at its pivot column.  The
    reduced form is unique, and its Fractions are formed once, at the end.
    Entries of any other field are reduced with `/` by their pivots.
    """
    rows, _ = _cleared_rows(a)
    if rows is None:
        return _eliminate_over_field(a)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    prev = 1
    for col in range(ncols):
        rank_row = len(pivots)
        pivot = next((i for i in range(rank_row, nrows) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank_row], rows[pivot] = rows[pivot], rows[rank_row]
        top = rows[rank_row]
        p = top[col]
        for i, row in enumerate(rows):
            if i != rank_row:
                f = row[col]
                rows[i] = ([(p * x - f * y) // prev for x, y in zip(row, top)]
                           if f else [p * x // prev for x in row])
        prev = p
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return [[Fraction(x, prev) for x in row] for row in rows], pivots


def _eliminate_over_field(a):
    """`eliminate` over a field whose elements support +, -, *, truth
    testing and `1 / x`."""
    rows = [[Fraction(x) if isinstance(x, int) else x for x in row]
            for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank_row = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank_row, nrows) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank_row], rows[pivot] = rows[pivot], rows[rank_row]
        inv = 1 / rows[rank_row][col]
        rows[rank_row] = [x * inv for x in rows[rank_row]]
        for i in range(nrows):
            if i != rank_row and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank_row])]
        pivots.append(col)
        rank_row += 1
        if rank_row == nrows:
            break
    return rows, pivots


def rank(a):
    if not a:
        return 0
    return len(eliminate(a)[1])


def kernel_basis(a):
    """Basis of the right kernel of a rational matrix."""
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = eliminate(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][f]
        basis.append(vec)
    return basis


def solve(a, b):
    """One solution of a x = b with free variables set to zero, or None."""
    if not a:
        return [] if all(x == 0 for x in b) else None
    ncols = len(a[0])
    augmented = [list(row) + [bv] for row, bv in zip(a, b)]
    rows, pivots = eliminate(augmented)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = rows[i][ncols]
    return x


def invert(a):
    """Inverse of a square matrix over a field; ValueError if singular."""
    m = len(a)
    augmented = [list(row) + [int(i == j) for j in range(m)]
                 for i, row in enumerate(a)]
    rows, pivots = eliminate(augmented)
    if pivots[:m] != list(range(m)):
        raise ValueError("matrix is singular")
    return [row[m:] for row in rows[:m]]

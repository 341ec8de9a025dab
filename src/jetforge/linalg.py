"""Exact linear algebra over the rationals (and small division-free helpers).

Matrices are plain lists of row lists.  Entries are Fractions except where
noted: `det` uses cofactor expansion and therefore also works for entries in
any commutative ring (polynomials, truncated series).
"""

from __future__ import annotations

from fractions import Fraction


def identity(m):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(m)]
            for i in range(m)]


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def transpose(a):
    return [list(row) for row in zip(*a)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        arow = a[i]
        row = []
        for j in range(cols):
            acc = arow[0] * b[0][j]
            for k in range(1, inner):
                acc = acc + arow[k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def mat_eq(a, b):
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


def det(a):
    """Determinant by cofactor expansion; division-free, any commutative ring."""
    m = len(a)
    if m == 1:
        return a[0][0]
    if m == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = None
    for j in range(m):
        if not a[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = a[0][j] * det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        zero = a[0][0] - a[0][0]
        return zero
    return total


def _eliminate(a):
    """Row echelon form (copy); returns (rows, pivot_columns)."""
    rows = [list(map(Fraction, row)) for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank_row = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank_row, nrows) if rows[i][col] != 0),
                     None)
        if pivot is None:
            continue
        rows[rank_row], rows[pivot] = rows[pivot], rows[rank_row]
        inv = Fraction(1) / rows[rank_row][col]
        rows[rank_row] = [x * inv for x in rows[rank_row]]
        for i in range(nrows):
            if i != rank_row and rows[i][col] != 0:
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
    return len(_eliminate(a)[1])


def kernel_basis(a):
    """Basis of the right kernel of a rational matrix."""
    if not a:
        return []
    ncols = len(a[0])
    rows, pivots = _eliminate(a)
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
    rows, pivots = _eliminate(augmented)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = rows[i][ncols]
    return x


def invert(a):
    """Inverse of a square rational matrix; ValueError if singular."""
    m = len(a)
    augmented = [list(map(Fraction, row)) + identity(m)[i]
                 for i, row in enumerate(a)]
    rows, pivots = _eliminate(augmented)
    if pivots[:m] != list(range(m)):
        raise ValueError("matrix is singular")
    return [row[m:] for row in rows[:m]]

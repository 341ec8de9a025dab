"""Exact linear algebra on matrices given as plain lists of row lists.

Over any commutative ring (Fractions, polynomials, truncated series):
`transpose`, `mat_mul`, `mat_add`, `mat_eq`, `det` (cofactor expansion,
division-free) and `unipotent_inverse`, the one Neumann sum.

Over any field whose elements support +, -, *, truth testing and `1 / x`
(Fractions, rational functions): `invert` and the Gauss-Jordan elimination
`_eliminate` it runs; ints are read as Fractions.  `rank`, `kernel_basis`
and `solve` fill in rational zeros and ones, so they take rational matrices.
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


def _eliminate(a):
    """Reduced row echelon form (copy); returns (rows, pivot_columns)."""
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
    """Inverse of a square matrix over a field; ValueError if singular."""
    m = len(a)
    augmented = [list(row) + unit for row, unit in zip(a, identity(m))]
    rows, pivots = _eliminate(augmented)
    if pivots[:m] != list(range(m)):
        raise ValueError("matrix is singular")
    return [row[m:] for row in rows[:m]]

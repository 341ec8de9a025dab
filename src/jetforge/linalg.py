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
inverts no pivot: on the 2x2 Fraction matrices of most calls it costs under
a quarter of `eliminate`.  Ints are read as Fractions.  `rank`, `kernel_basis`
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
    """Determinant over a field by Bareiss's fraction-free elimination."""
    rows = [[Fraction(x) if isinstance(x, int) else x for x in row]
            for row in a]
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
        if prev is not None:   # exact, as the entries are minors of a
            rows = [[x / prev for x in row] for row in rows]
        prev = pivot
    return -rows[0][0] if negate else rows[0][0]


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
    augmented = [list(row) + unit for row, unit in zip(a, identity(m))]
    rows, pivots = eliminate(augmented)
    if pivots[:m] != list(range(m)):
        raise ValueError("matrix is singular")
    return [row[m:] for row in rows[:m]]

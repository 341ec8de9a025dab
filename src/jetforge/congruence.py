"""Exact solving of the matrix congruence M^T G M = Q over the rationals.

Alternating forms of equal rank are always congruent; a skew Gram-Schmidt
produces the change of basis in closed form.  For symmetric forms the
two-by-two case is decided completely (diagonalize, then solve a ternary
quadratic by descent); larger symmetric forms fall back to a bounded search
for representing vectors, so a miss there is reported as failure without
claiming a proof of non-congruence.  Every returned matrix is verified
against the defining equation before being handed back.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from . import linalg

# the largest |entry| of the integer directions the symmetric search tries
SEARCH_BOUND = 6


def is_square(x):
    """Whether a rational is a square of a rational."""
    x = Fraction(x)
    if x < 0:
        return False
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    return rn * rn == x.numerator and rd * rd == x.denominator


def rational_sqrt(x):
    x = Fraction(x)
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))


def _bilinear(g, u, v):
    return sum(u[i] * sum(g[i][j] * v[j] for j in range(len(v)))
               for i in range(len(u)))


def darboux_basis(g):
    """Columns P with P^T g P the standard paired symplectic form
    diag([[0,1],[-1,0]], ...); g must be alternating and non-degenerate."""
    m = len(g)
    space = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    pairs = []
    while space:
        u = space[0]
        rest = space[1:]
        idx = next((k for k, v in enumerate(rest)
                    if _bilinear(g, u, v) != 0), None)
        if idx is None:
            raise ValueError("alternating form is degenerate")
        scale = Fraction(1) / _bilinear(g, u, rest[idx])
        w = [x * scale for x in rest[idx]]
        pairs.extend([u, w])
        projected = []
        for k, v in enumerate(rest):
            if k == idx:
                continue
            bu = _bilinear(g, u, v)
            bw = _bilinear(g, w, v)
            vv = [v[i] + bw * u[i] - bu * w[i] for i in range(m)]
            if any(vv):
                projected.append(vv)
        space = projected
    return linalg.transpose(pairs)


def diagonalize_symmetric(g):
    """(P, diag) with P^T g P diagonal, by symmetric Gaussian elimination."""
    m = len(g)
    work = [[Fraction(x) for x in row] for row in g]
    p = linalg.identity(m)

    def add_col(dst, src, c):
        for i in range(m):
            work[i][dst] += c * work[i][src]
        for i in range(m):
            work[dst][i] += c * work[src][i]
        for i in range(m):
            p[i][dst] += c * p[i][src]

    def swap_cols(a, b):
        for row in work:
            row[a], row[b] = row[b], row[a]
        work[a], work[b] = work[b], work[a]
        for row in p:
            row[a], row[b] = row[b], row[a]

    for col in range(m):
        if work[col][col] == 0:
            pivot = next((j for j in range(col + 1, m) if work[j][j] != 0), None)
            if pivot is not None:
                swap_cols(col, pivot)
            else:
                off = next((j for j in range(col + 1, m)
                            if work[col][j] != 0), None)
                if off is None:
                    continue
                add_col(col, off, Fraction(1))
        for j in range(col + 1, m):
            if work[col][j] != 0:
                add_col(j, col, -work[col][j] / work[col][col])
    return p, [work[i][i] for i in range(m)]


def _represent_ternary(a1, a2, b):
    """A rational (x, y) with a1 x^2 + a2 y^2 = b, or None.

    Complete for nonzero rational inputs: reduces to isotropy of the ternary
    form a1 X^2 + a2 Y^2 - b Z^2 over the integers.  sympy is imported
    here, the only place that needs it, to keep it out of `import jetforge`.
    """
    from sympy import symbols
    from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic

    denom = (a1.denominator * a2.denominator * b.denominator)
    A1, A2, B = (int(a1 * denom), int(a2 * denom), int(b * denom))
    x, y, z = symbols("x y z", integer=True)
    sol = diop_ternary_quadratic(A1 * x**2 + A2 * y**2 - B * z**2)
    if sol is None or sol[0] is None:
        return None
    sx, sy, sz = (Fraction(int(v)) for v in sol)
    if sz != 0:
        return (sx / sz, sy / sz)
    # isotropic vector with z = 0: the binary form represents everything
    if sy == 0:
        return None
    u = (sx, sy)
    w = (sx, -sy)
    pairing = 2 * (a1 * u[0] * w[0] + a2 * u[1] * w[1])
    if pairing == 0:
        return None
    alpha = b / pairing
    return (alpha * u[0] + w[0], alpha * u[1] + w[1])


def _match_diag_2x2(a, b):
    """X with X^T diag(a) X = diag(b), complete over the rationals."""
    if not is_square((a[0] * a[1]) / (b[0] * b[1])):
        return None
    v = _represent_ternary(a[0], a[1], b[0])
    if v is None:
        return None
    w = (-a[1] * v[1], a[0] * v[0])
    wnorm = a[0] * w[0] ** 2 + a[1] * w[1] ** 2
    ratio = b[1] / wnorm
    if not is_square(ratio):
        return None
    s = rational_sqrt(ratio)
    return [[v[0], s * w[0]], [v[1], s * w[1]]]


def _bounded_represent(diag, target):
    """Integer-direction search for v with sum diag[i] v_i^2 = target."""
    m = len(diag)
    for vec in product(range(-SEARCH_BOUND, SEARCH_BOUND + 1), repeat=m):
        if not any(vec):
            continue
        val = sum(d * Fraction(c) ** 2 for d, c in zip(diag, vec))
        if val == 0:
            continue
        ratio = target / val
        if is_square(ratio):
            s = rational_sqrt(ratio)
            return [s * Fraction(c) for c in vec]
    return None


def _match_symmetric(g, targets):
    """X with X^T g X = diag(targets); complete for size 2, bounded above."""
    m = len(g)
    p, diag = diagonalize_symmetric(g)
    if any(d == 0 for d in diag):
        raise ValueError("symmetric form is degenerate")
    if m == 1:
        ratio = targets[0] / diag[0]
        if not is_square(ratio):
            return None
        return linalg.mat_mul(p, [[rational_sqrt(ratio)]])
    if m == 2:
        x = _match_diag_2x2(diag, targets)
        return None if x is None else linalg.mat_mul(p, x)
    v = _bounded_represent(diag, targets[0])
    if v is None:
        return None
    # complement of v with respect to diag, then recurse
    functional = [[diag[i] * v[i] for i in range(m)]]
    basis = linalg.kernel_basis(functional)
    w = linalg.transpose(basis)
    restricted = linalg.mat_mul(linalg.transpose(w),
                                linalg.mat_mul([[diag[i] if i == j else Fraction(0)
                                                 for j in range(m)]
                                                for i in range(m)], w))
    rest = _match_symmetric(restricted, targets[1:])
    if rest is None:
        return None
    tail = linalg.mat_mul(w, rest)
    cols = [[v[i]] + tail[i] for i in range(m)]
    return linalg.mat_mul(p, cols)


def _same_det_class(g, q):
    """Whether det g / det q is a rational square, as congruence requires."""
    return is_square(Fraction(linalg.det(g)) / linalg.det(q))


def miss_is_proof(g, q, weight):
    """Whether a None from `solve_congruence` proves g and q non-congruent.

    It does for alternating forms, for forms of size two or less and when
    the determinant classes differ; otherwise the bounded search only ran
    out of directions.
    """
    return bool(weight % 2) or len(g) <= 2 or not _same_det_class(g, q)


def solve_congruence(g, q, weight):
    """A rational matrix M with M^T g M = q, or None.

    `g` is a rational matrix, `q` an integer matrix, both with the symmetry
    of the given weight.  Alternating pairs always succeed; a None for a
    symmetric pair of size two is a proof of non-congruence, while for larger
    symmetric pairs it only reports that the bounded search failed.
    """
    m = len(g)
    gfr = [[Fraction(x) for x in row] for row in g]
    qfr = [[Fraction(x) for x in row] for row in q]
    if linalg.mat_eq(gfr, qfr):
        return linalg.identity(m)
    if weight % 2:
        pg = darboux_basis(gfr)
        pq = darboux_basis(qfr)
        result = linalg.mat_mul(pg, linalg.invert(pq))
    else:
        if not _same_det_class(gfr, qfr):
            return None
        r, b = diagonalize_symmetric(qfr)
        x = _match_symmetric(gfr, b)
        if x is None:
            return None
        result = linalg.mat_mul(x, linalg.invert(r))
    check = linalg.mat_mul(linalg.transpose(result),
                           linalg.mat_mul(gfr, result))
    if not linalg.mat_eq(check, qfr):
        raise AssertionError("congruence witness failed verification")
    return result

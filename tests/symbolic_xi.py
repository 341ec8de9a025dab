"""The universal rational forms of the xi table, as a reference for tests.

The library builds the derivative forms G_q only as values at a base point
(`ConnectionChart.gammas_at`), and checks integrability there.  These helpers build
the same forms as matrices of rational functions on the whole chart, and
the global mixed-partial condition, so tests can compare the local values
with an independent symbolic computation.
"""

import jetforge.linalg as la
from jetforge.ratfunc import RationalFunction


def word_gamma(chart, word):
    """The derivative form along an explicit word of partials, as rational
    functions: G_empty = I and G_{w l} = d_l G_w + G_w A_l.

    For charts whose system is integrable the result depends only on the
    multi-degree of the word.
    """
    m, n = chart.m, chart.n
    one = RationalFunction.one(n)
    zero = RationalFunction.zero(n)
    gamma = [[one if i == j else zero for i in range(m)] for j in range(m)]
    for l in word:
        derived = [[rf.derivative(l) for rf in row] for row in gamma]
        gamma = la.mat_add(derived, la.mat_mul(gamma, chart.a_matrix(l)))
    return gamma


def gamma(chart, q):
    """The matrix G_q of rational functions, along the word that the
    library's recursion follows (lowest index applied last)."""
    return word_gamma(chart, [l for l in reversed(range(chart.n))
                              for _ in range(q[l])])


def entry(chart, q, j, k):
    """The linear form for d_q f_jk as {(i, k): coefficient}."""
    row = gamma(chart, q)[j]
    return {(i, k): row[i] for i in range(chart.m) if row[i]}


def is_integrable(chart):
    """Global mixed-partial consistency of the flat-frame system:
    d_a A_b + A_b A_a == d_b A_a + A_a A_b for every pair a < b."""
    for a in range(chart.n):
        for b in range(a + 1, chart.n):
            aa, ab = chart.a_matrix(a), chart.a_matrix(b)
            left = la.mat_add([[rf.derivative(a) for rf in row] for row in ab],
                              la.mat_mul(ab, aa))
            right = la.mat_add([[rf.derivative(b) for rf in row] for row in aa],
                               la.mat_mul(aa, ab))
            if not la.mat_eq(left, right):
                return False
    return True

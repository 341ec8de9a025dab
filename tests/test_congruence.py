import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import jetforge
import jetforge.linalg as la
from jetforge.congruence import (darboux_basis, diagonalize_symmetric,
                                 is_square, rational_sqrt, solve_congruence)


def test_is_square():
    assert is_square(Fraction(9, 4))
    assert not is_square(Fraction(3))
    assert not is_square(Fraction(-4))
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)


def test_darboux_standardizes_alternating_forms():
    rng = random.Random(5)
    for _ in range(10):
        m = rng.choice([2, 4])
        while True:
            upper = [[Fraction(rng.randint(-3, 3)) for _ in range(m)]
                     for _ in range(m)]
            g = [[upper[i][j] - upper[j][i] for j in range(m)]
                 for i in range(m)]
            if la.det(g) != 0:
                break
        p = darboux_basis(g)
        result = la.mat_mul(la.transpose(p), la.mat_mul(g, p))
        expected = la.zeros(m, m)
        for b in range(m // 2):
            expected[2 * b][2 * b + 1] = Fraction(1)
            expected[2 * b + 1][2 * b] = Fraction(-1)
        assert la.mat_eq(result, expected)


def test_diagonalize_symmetric():
    rng = random.Random(7)
    for _ in range(10):
        m = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(m)]
             for _ in range(m)]
        g = [[a[i][j] + a[j][i] for j in range(m)] for i in range(m)]
        p, diag = diagonalize_symmetric(g)
        result = la.mat_mul(la.transpose(p), la.mat_mul(g, p))
        for i in range(m):
            for j in range(m):
                assert result[i][j] == (diag[i] if i == j else 0)


def test_alternating_always_solvable():
    rng = random.Random(11)
    q = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    for _ in range(6):
        while True:
            upper = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in range(4)] for _ in range(4)]
            g = [[upper[i][j] - upper[j][i] for j in range(4)]
                 for i in range(4)]
            if la.det(g) != 0:
                break
        m = solve_congruence(g, q, weight=1)
        assert m is not None


def test_symmetric_congruent_cases():
    assert solve_congruence([[1, 0], [0, 1]], [[1, 0], [0, 1]], 0) == \
        la.identity(2)
    m = solve_congruence([[2, 0], [0, 2]], [[1, 0], [0, 1]], 0)
    assert m is not None
    m = solve_congruence([[Fraction(1, 4), 0], [0, 1]], [[1, 0], [0, 1]], 0)
    assert m is not None
    # hyperbolic plane scaled
    m = solve_congruence([[0, 5], [5, 0]], [[0, 1], [1, 0]], 0)
    assert m is not None


def test_symmetric_obstructions():
    # 3 is not a sum of two rational squares
    assert solve_congruence([[3, 0], [0, 3]], [[1, 0], [0, 1]], 0) is None
    # determinant class obstruction
    assert solve_congruence([[2, 0], [0, 1]], [[1, 0], [0, 1]], 0) is None
    # negative definite cannot match positive definite
    assert solve_congruence([[-1, 0], [0, -1]], [[1, 0], [0, 1]], 0) is None


def test_three_by_three_bounded_search():
    g = [[4, 0, 0], [0, 1, 0], [0, 0, 1]]
    q = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    m = solve_congruence(g, q, 0)
    assert m is not None
    anti = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    m = solve_congruence([[0, 0, 4], [0, 4, 0], [4, 0, 0]], anti, 2)
    assert m is not None
    # scaling by 2 changes the determinant class in odd rank
    assert solve_congruence([[0, 0, 2], [0, 2, 0], [2, 0, 0]], anti, 2) is None


def test_import_leaves_sympy_unloaded():
    # sympy is imported only by the ternary-quadratic branch
    src = str(pathlib.Path(jetforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", "import jetforge, sys; "
                    "assert 'sympy' not in sys.modules"], env=env, check=True)

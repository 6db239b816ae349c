import random
from fractions import Fraction as F

import pytest

from arrmc.errors import InternalError
from arrmc.linalg import (
    charpoly,
    det,
    find_invertible_combination,
    identity,
    integer_eigenvalues,
    intertwiner_space,
    lagrange_interpolate,
    mat,
    mat_inverse,
    mat_mul,
    nullspace,
    pencil_minor_gcd,
    poly_degree,
    poly_eval,
    poly_gcd,
    poly_mul,
    quotient,
    rank,
    rref,
)


def random_matrix(rng, n, lo=-3, hi=3):
    return mat([[F(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)])


def test_rref_canonical_and_idempotent():
    m = mat([[2, 4, 2], [1, 2, 3]])
    red, pivots = rref(m)
    assert pivots == (0, 2)
    assert red == mat([[1, 2, 0], [0, 0, 1]])
    assert rref(red) == (red, pivots)


def test_nullspace_annihilates():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        ns = nullspace(m)
        assert len(ns) == n - rank(m)
        for v in ns:
            assert all(sum(row[j] * v[j] for j in range(n)) == 0 for row in m)


def test_det_multiplicative():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 4)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_det_small_known():
    assert det(mat([[1, 2], [3, 4]])) == -2
    assert det(()) == 1
    assert det(mat([[0, 1], [0, 0]])) == 0


def test_inverse_roundtrip():
    m = mat([[1, 2], [3, 5]])
    assert mat_mul(m, mat_inverse(m)) == identity(2)


def test_charpoly_companion():
    # companion matrix of x^3 - 2x + 5
    m = mat([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert charpoly(m) == (F(5), F(-2), F(0), F(1))


def test_charpoly_cayley_hamilton():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n)
        p = charpoly(m)
        acc = mat([[0] * n for _ in range(n)])
        power = identity(n)
        for c in p:
            acc = mat(
                [
                    [acc[i][j] + c * power[i][j] for j in range(n)]
                    for i in range(n)
                ]
            )
            power = mat_mul(power, m)
        assert all(x == 0 for row in acc for x in row)


def test_integer_eigenvalues_known():
    assert integer_eigenvalues(mat([[1, 0], [0, F(1, 2)]])) == [1]
    assert integer_eigenvalues(mat([[0, 1], [0, 0]])) == [0]
    assert integer_eigenvalues(mat([[F(1, 2), 0], [0, F(1, 3)]])) == []
    assert integer_eigenvalues(mat([[-3]])) == [-3]
    assert integer_eigenvalues(()) == []


def test_integer_eigenvalues_vs_exhaustive_singularity_scan():
    # agreement with brute-force singularity of (M - k Id) for |k| <= 2B
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, -2, 2)
        if rng.random() < 0.5:
            # plant an integer eigenvalue via a triangular block
            k = rng.randint(-3, 3)
            rows = [list(r) for r in m]
            rows[0] = [F(0)] * n
            rows[0][0] = F(k)
            for i in range(1, n):
                rows[i][0] = F(0)
            m = mat(rows)
        p = charpoly(m)
        bound = 1 + max((abs(c) for c in p[:-1]), default=F(0))
        kmax = 2 * int(bound)
        expected = sorted(
            k
            for k in range(-kmax, kmax + 1)
            if det(
                mat(
                    [
                        [m[i][j] - (k if i == j else 0) for j in range(n)]
                        for i in range(n)
                    ]
                )
            )
            == 0
        )
        assert integer_eigenvalues(m) == expected


def test_poly_gcd():
    # (x-1)(x-2) and (x-1)(x-3) share (x-1)
    p = poly_mul((F(-1), F(1)), (F(-2), F(1)))
    q = poly_mul((F(-1), F(1)), (F(-3), F(1)))
    assert poly_gcd(p, q) == (F(-1), F(1))
    assert poly_gcd(p, ()) == (F(2), F(-3), F(1))
    assert poly_gcd((), ()) == ()


def test_lagrange_interpolation():
    pts = [(F(0), F(1)), (F(1), F(2)), (F(2), F(5))]
    p = lagrange_interpolate(pts)  # 1 + x^2 fits
    assert p == (F(1), F(0), F(1))
    for x, y in pts:
        assert poly_eval(p, x) == y


def test_pencil_minor_gcd_full_rank():
    # (A + t) restricted to the column span(e1): minors t and 1 are coprime
    a = mat([[0, 1], [1, 0]])
    b = mat([[1], [0]])
    g = pencil_minor_gcd(mat_mul(a, b), b)
    assert poly_degree(g) == 0


def test_pencil_minor_gcd_detects_shared_root():
    a = mat([[1, 0], [0, 1]])
    b = identity(2)
    # (A + t) singular at t = -1: single maximal minor det(A + t) = (1+t)^2
    g = pencil_minor_gcd(a, b)
    assert poly_degree(g) >= 1
    assert poly_eval(g, F(-1)) == 0


def test_pencil_empty_basis_vacuous():
    assert pencil_minor_gcd((), ()) == (F(1),)


def test_intertwiner_space_and_search():
    a = mat([[1, 1], [0, 2]])
    p = mat([[1, 2], [1, 3]])
    b = mat_mul(p, mat_mul(a, mat_inverse(p)))
    space = intertwiner_space([(a, b)], 2)
    s = find_invertible_combination(space, 2)
    assert s is not None
    assert mat_mul(s, a) == mat_mul(b, s)


def test_find_invertible_none_for_degenerate_span():
    # span of a single nilpotent matrix has no invertible element
    n = mat([[0, 1], [0, 0]])
    assert find_invertible_combination([n], 2) is None


def test_quotient_refuses_non_invariant_span():
    # e1 is an eigenvector of the upper triangular matrix, e2 is not
    m = mat([[1, 1], [0, 2]])
    assert quotient([m], [(F(1), F(0))], 2) == [mat([[2]])]
    with pytest.raises(InternalError, match="not invariant"):
        quotient([m], [(F(0), F(1))], 2)


def test_quotient_refuses_dependent_columns():
    with pytest.raises(InternalError, match="dependent"):
        quotient([identity(2)], [(F(1), F(2)), (F(2), F(4))], 2)

import itertools
import random
import signal
from fractions import Fraction as F
from functools import reduce

import pytest

from arrmc import ConvolutionParameter, convolve
from arrmc.errors import InternalError
from arrmc.linalg import (
    charpoly,
    find_invertible_combination,
    identity,
    integer_eigenvalues,
    intertwiner_space,
    invariant_projection,
    invertible_intertwiner,
    joint_kernel,
    kernel_pencil_ok,
    mat,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    nullspace,
    poly_degree,
    poly_eval,
    poly_trim,
    quotient,
    rank,
    rref,
    transpose,
    zeros,
)

from conftest import (
    X_AXIS_1D,
    assert_invariant,
    composition_corpus,
    det,
    extend_to_basis,
    from_columns,
    line_system,
    mat_inverse,
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


# Reference for the star test: the gcd of the maximal minors of the pencil
# (A + t) B, B a basis of the joint kernel W of the other matrices, each minor
# interpolated from exact determinants.  Exponential in dim W, so only for
# small cases.


def poly_mul(p, q):
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return ()
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def poly_mod(a, b):
    a, b = list(poly_trim(a)), poly_trim(b)
    while a and len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = list(poly_trim(a))
    return tuple(a)


def poly_gcd(a, b):
    """Monic gcd; gcd(0, 0) is the zero polynomial."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_mod(a, b)
    return tuple(c / a[-1] for c in a) if a else ()


def lagrange_interpolate(points):
    out = ()
    for i, (xi, yi) in enumerate(points):
        term = (yi,)
        for j, (xj, _) in enumerate(points):
            if j != i:
                term = poly_mul(term, (-xj / (xi - xj), 1 / (xi - xj)))
        width = max(len(out), len(term))
        out = poly_trim(
            tuple(
                (out[k] if k < len(out) else F(0)) + (term[k] if k < len(term) else F(0))
                for k in range(width)
            )
        )
    return out


def pencil_minor_gcd(c, d):
    """Gcd of the maximal minors of the rows x w pencil c + t d, rows >= w."""
    nrows, w = len(c), len(c[0]) if c else 0
    if w == 0:
        return (F(1),)
    samples = [F(k) for k in range(w + 1)]
    g = ()
    for rows_idx in itertools.combinations(range(nrows), w):
        pts = [
            (t, det(tuple(tuple(c[i][j] + t * d[i][j] for j in range(w)) for i in rows_idx)))
            for t in samples
        ]
        g = poly_gcd(g, lagrange_interpolate(pts))
        if poly_degree(g) == 0:
            break
    return g


def reference_kernel_pencil_ok(mats, idx, dim):
    w_basis = joint_kernel([m for j, m in enumerate(mats) if j != idx], dim)
    if not w_basis:
        return True
    b = transpose(tuple(w_basis))
    return poly_degree(pencil_minor_gcd(mat_mul(mats[idx], b), b)) == 0


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
    # W = ker(other) = span(e1), and e1 is no eigenvector of the swap a:
    # the minors t and 1 of (a + t) e1 are coprime
    a = mat([[0, 1], [1, 0]])
    other = mat([[0, 0], [0, 1]])
    b = mat([[1], [0]])
    assert poly_degree(pencil_minor_gcd(mat_mul(a, b), b)) == 0
    assert kernel_pencil_ok([a, other], 0, 2)
    assert reference_kernel_pencil_ok([a, other], 0, 2)


def test_pencil_minor_gcd_detects_shared_root():
    a = identity(2)
    # (A + t) singular at t = -1: single maximal minor det(A + t) = (1+t)^2
    g = pencil_minor_gcd(a, identity(2))
    assert poly_degree(g) >= 1
    assert poly_eval(g, F(-1)) == 0
    # with no other matrix W is everything, and every vector is an
    # eigenvector of the identity
    assert not kernel_pencil_ok([a], 0, 2)
    assert not reference_kernel_pencil_ok([a], 0, 2)


def test_pencil_empty_basis_vacuous():
    assert pencil_minor_gcd((), ()) == (F(1),)
    # an invertible other matrix leaves W = 0, and so does dimension 0
    a = mat([[0, 1], [0, 0]])
    assert kernel_pencil_ok([a, identity(2)], 0, 2)
    assert kernel_pencil_ok([(), ()], 1, 0)
    assert kernel_pencil_ok([()], 0, 0)


def low_rank(rng, d):
    r = rng.randint(0, d)
    if r == 0:
        return zeros(d, d)
    return mat_mul(sparse_rational(rng, d, r, 0.3), sparse_rational(rng, r, d, 0.3))


def with_shared_eigenvector(rng, mats, idx):
    """The tuple conjugated so that one vector lies in the joint kernel of
    all matrices but ``mats[idx]``, and is an eigenvector of that one."""
    d = len(mats[0])
    p = _invertible(rng, d)
    p_inv = mat_inverse(p)
    eig = F(rng.randint(-2, 2), rng.randint(1, 3))
    out = []
    for j, m in enumerate(mats):
        rows = [list(r) for r in m]
        for i in range(d):
            rows[i][0] = eig if (j == idx and i == 0) else F(0)
        out.append(mat_mul(p, mat_mul(tuple(tuple(r) for r in rows), p_inv)))
    return out


def test_kernel_pencil_ok_matches_minor_gcd_reference():
    rng = random.Random(2011)
    checks = failing = 0
    seen = set()
    for case in range(300):
        d = rng.randint(0, 5)
        count = rng.randint(1, 4)
        mats = [low_rank(rng, d) for _ in range(count)]
        if d and case % 3 == 0:
            mats = with_shared_eigenvector(rng, mats, rng.randrange(count))
        if d and case % 7 == 0:
            # an invertible other matrix: the joint kernel is 0
            mats.append(_invertible(rng, d))
        for side in (mats, [transpose(m) for m in mats]):
            for idx in range(len(side)):
                ok = kernel_pencil_ok(side, idx, d)
                assert ok == reference_kernel_pencil_ok(side, idx, d)
                checks += 1
                failing += not ok
                seen.add((d, len(side) == 1, ok))
    assert checks >= 1000
    assert 0.2 * checks < failing < 0.8 * checks
    # dimension 0, a lone matrix, and both verdicts with and without others
    assert (0, False, True) in seen and (0, True, True) in seen
    assert {(3, True, False), (3, False, True), (3, False, False)} <= seen


def test_intertwiner_space_and_search():
    a = mat([[1, 1], [0, 2]])
    p = mat([[1, 2], [1, 3]])
    b = mat_mul(p, mat_mul(a, mat_inverse(p)))
    space = intertwiner_space([(a, b)], 2)
    s = find_invertible_combination(space, 2)
    assert s is not None
    assert mat_mul(s, a) == mat_mul(b, s)
    assert invertible_intertwiner([(a, b)], 2) == s
    assert invertible_intertwiner([(a, mat([[1, 0], [0, 3]]))], 2) is None


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
    # the projection along e1 onto e2, and the error names the span
    assert invariant_projection([m], [(F(1), F(0))], 2, "blockwise kernel") == ([1], mat([[0, 1]]))
    with pytest.raises(InternalError, match="^diagonal kernel is not invariant"):
        invariant_projection([m], [(F(0), F(1))], 2, "diagonal kernel")


def test_quotient_refuses_dependent_columns():
    with pytest.raises(InternalError, match="dependent"):
        quotient([identity(2)], [(F(1), F(2)), (F(2), F(4))], 2)


def reference_quotient(mats, cols, dim):
    """The lower-right block of P^-1 M P, P = [cols | the chosen e_j]."""
    comp = extend_to_basis(cols, dim)
    std = identity(dim)
    p = from_columns(list(cols) + [std[j] for j in comp], dim)
    p_inv = mat_inverse(p)
    cut = len(cols)
    out = []
    for m in mats:
        q = mat_mul(p_inv, mat_mul(m, p))
        if any(q[i][j] != 0 for i in range(cut, dim) for j in range(cut)):
            raise InternalError("span is not invariant; quotient ill-defined")
        out.append(tuple(r[cut:] for r in q[cut:]))
    return out


def quotient_or_refusal(quotient_fn, mats, cols, dim):
    try:
        return quotient_fn(mats, cols, dim)
    except InternalError as exc:
        return str(exc)


def test_quotient_matches_change_of_basis_reference_on_invariant_spans():
    rng = random.Random(2012)
    kept = refused = 0
    for case in range(150):
        dim = rng.randint(1, 7)
        k = rng.randint(0, dim)
        p = _invertible(rng, dim)
        p_inv = mat_inverse(p)
        cols = list(transpose(p)[:k])
        mats = []
        for _ in range(rng.randint(1, 3)):
            # block upper triangular in the basis p: span(cols) is invariant
            m = sparse_rational(rng, dim, dim, 0.4)
            if case % 5:
                m = tuple(
                    tuple(F(0) if i >= k > j else x for j, x in enumerate(r))
                    for i, r in enumerate(m)
                )
            mats.append(mat_mul(p, mat_mul(m, p_inv)))
        got = quotient_or_refusal(quotient, mats, cols, dim)
        assert got == quotient_or_refusal(reference_quotient, mats, cols, dim)
        if isinstance(got, str):
            refused += 1
        else:
            kept += 1
    assert kept > 100 and refused > 10


def test_quotient_matches_change_of_basis_reference_on_convolutions():
    rng = random.Random(2013)
    lam = ConvolutionParameter.make(F(1, 5))
    cases = composition_corpus()
    for _ in range(40):
        d, n = rng.randint(1, 3), rng.randint(1, 4)
        mats = [low_rank(rng, d) for _ in range(n)]
        if rng.random() < 0.5:
            # residue sum + lambda of low rank: the diagonal kernel is nonzero
            rest = reduce(mat_add, mats[1:], mat_scale(identity(d), lam.value))
            mats[0] = mat_sub(low_rank(rng, d), rest)
        cases.append((line_system(list(range(n)), mats), X_AXIS_1D))
    both = 0
    for sys_, y in cases:
        cr = convolve(sys_, y, lam)
        kl = list(cr.block_kernel_basis) + list(cr.diagonal_kernel_basis)
        mats = list(cr.system.residues.values())
        big = cr.system.dim_e
        assert quotient(mats, kl, big) == reference_quotient(mats, kl, big)
        both += bool(cr.block_kernel_basis) and bool(cr.diagonal_kernel_basis)
    assert both >= 5


def invariance_refusal(check, mats, cols, dim):
    """The InternalError message of an invariance check, or None if it passes."""
    try:
        check(mats, cols, dim)
    except InternalError as exc:
        return str(exc)
    return None


def test_invariant_projection_matches_reduction_reference():
    """Seeded random spans, invariant and not, against the old reduction of
    every image by the echelon form of the span.  The matrices are block
    upper triangular in the basis [cols | the chosen e_j] plus, in a third of
    the cases, one nonzero entry of the lower-left block, which puts the
    violation into a single row of Pi M cols."""
    rng = random.Random(2014)
    seen = {"kept": 0, "one row": 0, "dense": 0}
    for case in range(300):
        dim = rng.randint(1, 7)
        k = rng.randint(0, dim)
        cols = list(transpose(_invertible(rng, dim))[:k])
        comp = extend_to_basis(cols, dim)
        p = from_columns(cols + [identity(dim)[j] for j in comp], dim)
        p_inv = mat_inverse(p)
        kind = case % 3 if 0 < k < dim else 0
        bad = rng.randrange(3)
        mats = []
        for i in range(3):
            m = [list(r) for r in sparse_rational(rng, dim, dim, 0.4)]
            if kind != 2 or i != bad:
                for r in range(k, dim):
                    m[r][:k] = [F(0)] * k
            if kind == 1 and i == bad:
                m[rng.randrange(k, dim)][rng.randrange(k)] = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5))
            mats.append(mat_mul(p, mat_mul(mat(m), p_inv)))
        want = invariance_refusal(
            lambda ms, cs, _: assert_invariant(ms, tuple(cs), "span"), mats, cols, dim
        )
        got = invariance_refusal(
            lambda ms, cs, n: invariant_projection(ms, cs, n, "span"), mats, cols, dim
        )
        assert (got is None) == (want is None)
        if got is not None:
            assert got == "span is not invariant; quotient ill-defined"
            assert invariance_refusal(quotient, mats, cols, dim) == got
        seen["kept" if got is None else ("one row", "dense")[kind - 1]] += 1
    assert seen["kept"] > 150 and seen["one row"] > 40 and seen["dense"] > 40


def test_quotient_matches_reference_with_small_and_large_complements():
    """Spans with small (|C|^2 < dim span) and large complements C: the
    presentations and refusals match the change-of-basis reference."""
    rng = random.Random(2015)
    seen = {(small, kept): 0 for small in (True, False) for kept in (True, False)}
    for case in range(300):
        dim = rng.randint(2, 8)
        k = rng.randint(1, dim - 1)
        p = _invertible(rng, dim)
        cols = list(transpose(p)[:k])
        mats = []
        for i in range(rng.randint(1, 3)):
            m = [list(r) for r in sparse_rational(rng, dim, dim, 0.5)]
            for r in range(k, dim):
                m[r][:k] = [F(0)] * k
            if case % 4 == 0 and i == 0:
                bad = F(rng.choice([-2, 1, 3]), rng.randint(1, 4))
                m[rng.randrange(k, dim)][rng.randrange(k)] = bad
            mats.append(mat_mul(p, mat_mul(mat(m), mat_inverse(p))))
        got = quotient_or_refusal(quotient, mats, cols, dim)
        assert got == quotient_or_refusal(reference_quotient, mats, cols, dim)
        seen[((dim - k) ** 2 < k, not isinstance(got, str))] += 1
    assert min(seen.values()) >= 15, seen


def reference_find_invertible_combination(basis, d):
    """The search as it was written with ``det``: same candidates, same order."""
    for s in basis:
        if det(s) != 0:
            return s
    m = len(basis)
    if m <= 1:
        return None
    if m <= 4:
        for coeffs in itertools.product(range(d + 1), repeat=m):
            if sum(coeffs) == 0:
                continue
            cand = reduce(mat_add, (mat_scale(s, F(c)) for c, s in zip(coeffs, basis)))
            if det(cand) != 0:
                return cand
        return None
    rng = random.Random(0x5EBA11)
    for _ in range(max(128, d + 1)):
        coeffs = [F(rng.randrange(-(1 << 70), 1 << 70)) for _ in range(m)]
        cand = reduce(mat_add, (mat_scale(s, c) for c, s in zip(coeffs, basis)))
        if det(cand) != 0:
            return cand
    return None


def test_invertible_combination_by_rank_matches_det_reference():
    """Spans with and without an invertible element, found by a single basis
    element, on the grid or by the random search, against the ``det`` search."""
    rng = random.Random(2015)
    found = {"single": 0, "grid": 0, "random": 0, "none": 0}
    for case in range(120):
        d = rng.randint(1, 4)
        m = rng.randint(1, 6)
        if case % 2:
            basis = [low_rank(rng, d) for _ in range(m)]
        else:
            # intertwiners of a tuple with a conjugate of itself
            a = [sparse_rational(rng, d, d, 0.6) for _ in range(rng.randint(1, 2))]
            p = _invertible(rng, d)
            p_inv = mat_inverse(p)
            basis = intertwiner_space([(x, mat_mul(p, mat_mul(x, p_inv))) for x in a], d)
            m = len(basis)
        got = find_invertible_combination(basis, d)
        assert got == reference_find_invertible_combination(basis, d)
        if got is None:
            found["none"] += 1
        elif got in basis:
            found["single"] += 1
        else:
            found["grid" if m <= 4 else "random"] += 1
        if got is not None:
            assert rank(got) == d
    assert all(count >= 5 for count in found.values()), found


def dense_mat_mul(a, b):
    """Reference product over every entry, zeros included."""
    bt = transpose(b)
    return tuple(tuple(sum((x * y for x, y in zip(ra, cb)), F(0)) for cb in bt) for ra in a)


def sparse_rational(rng, rows, cols, zero_share=0.7):
    return tuple(
        tuple(
            F(0) if rng.random() < zero_share else F(rng.randint(-5, 5), rng.randint(1, 7))
            for _ in range(cols)
        )
        for _ in range(rows)
    )


def test_mat_mul_matches_dense_reference_on_sparse_matrices():
    rng = random.Random(11)
    for _ in range(60):
        r, k, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        share = rng.choice([0.0, 0.5, 0.8, 1.0])
        a, b = sparse_rational(rng, r, k, share), sparse_rational(rng, k, c, share)
        assert mat_mul(a, b) == dense_mat_mul(a, b)


def test_mat_mul_empty_operand_shapes():
    two_by_zero = ((), ())
    three_by_zero = ((), (), ())
    two_by_three = mat([[1, 0, 2], [0, 0, 3]])
    three_by_two = mat([[1, 0], [0, 2], [4, 0]])
    for a, b in [
        ((), ()),
        ((), three_by_two),
        (two_by_zero, ()),
        (two_by_three, three_by_zero),
    ]:
        assert mat_mul(a, b) == dense_mat_mul(a, b)
    assert mat_mul(two_by_three, three_by_zero) == two_by_zero


def fraction_rref(m):
    """Reference: Gauss-Jordan elimination over Fraction, pivots left to
    right, the first nonzero row as pivot row, zero rows dropped."""
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    pr = 0
    for pc in range(nc):
        pivot_row = next((i for i in range(pr, nr) if rows[i][pc] != 0), None)
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = 1 / rows[pr][pc]
        rows[pr] = [x * inv for x in rows[pr]]
        for i in range(nr):
            if i != pr and rows[i][pc] != 0:
                f = rows[i][pc]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return tuple(tuple(r) for r in rows[:pr]), tuple(pivots)


def random_rational_rows(rng, nrows, ncols, max_den, zero_share):
    max_num = max(9, max_den)
    return [
        [
            F(0) if rng.random() < zero_share
            else F(rng.randint(-max_num, max_num), rng.randint(1, max_den))
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def assert_kernel_matches_reference(m):
    red, pivots = rref(m)
    assert (red, pivots) == fraction_rref(m)
    assert all(type(x) is F for row in red for x in row)
    assert rank(m) == len(pivots)


def test_rref_and_rank_on_degenerate_shapes():
    for m in [
        (),
        ((),),
        ((), (), ()),
        mat([[0]]),
        mat([[0, 0, 0], [0, 0, 0]]),
        mat([[0, 2, 4], [0, 2, 4], [0, 0, 0], [0, 1, 2]]),
        mat([["1/2"], ["-3/4"]]),
        mat([[5, "7/3", 0, -1]]),
    ]:
        assert_kernel_matches_reference(m)
    assert rref(()) == ((), ()) and rank(((), ())) == 0


def test_rref_and_rank_match_fraction_reference_on_random_matrices():
    rng = random.Random(20260)
    for trial in range(400):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        max_den = rng.choice([1, 1, 7, 1000, 10**6])
        rows = random_rational_rows(rng, nrows, ncols, max_den, rng.choice([0.0, 0.5, 0.8]))
        kind = trial % 4
        if kind == 1:
            # low rank: rows are rational combinations of a few random rows
            basis = random_rational_rows(rng, rng.randint(1, 3), ncols, max_den, 0.3)
            rows = [
                [sum((rng.randint(-3, 3) * b[j] for b in basis), F(0)) for j in range(ncols)]
                for _ in range(nrows)
            ]
        elif kind == 2:
            # duplicated, rescaled and zero rows
            for _ in range(rng.randint(1, 4)):
                src = rng.choice(rows)
                scale = rng.choice([F(1), F(-2), F(3, 7)])
                rows.insert(rng.randrange(len(rows) + 1), [scale * x for x in src])
            rows.insert(rng.randrange(len(rows) + 1), [F(0)] * ncols)
            rows = rows[:12]
        assert_kernel_matches_reference(tuple(tuple(r) for r in rows))


def greedy_extend_to_basis(cols, dim):
    """Reference definition: add e_j whenever it raises the rank, one rank
    computation per standard vector."""
    current = list(cols)
    r = rank(tuple(current)) if current else 0
    if r != len(current):
        raise InternalError("columns are linearly dependent")
    chosen = []
    for j in range(dim):
        if r == dim:
            break
        cand = current + [identity(dim)[j]]
        if rank(tuple(cand)) > r:
            chosen.append(j)
            current = cand
            r += 1
    return chosen


def test_extend_to_basis_matches_greedy_rank_definition():
    rng = random.Random(12)
    checked = dependent = 0
    for _ in range(150):
        dim = rng.randint(1, 8)
        count = rng.randint(0, dim)
        cols = [tuple(r) for r in sparse_rational(rng, count, dim, rng.choice([0.3, 0.6, 0.85]))]
        if count and rng.random() < 0.2:
            cols.append(tuple(x + 2 * y for x, y in zip(cols[0], cols[-1])))
        if cols and rank(tuple(cols)) < len(cols):
            dependent += 1
            with pytest.raises(InternalError, match="dependent"):
                extend_to_basis(cols, dim)
            continue
        checked += 1
        assert extend_to_basis(cols, dim) == greedy_extend_to_basis(cols, dim)
    assert checked > 80 and dependent > 10
    assert extend_to_basis([], 4) == [0, 1, 2, 3]
    assert extend_to_basis(list(identity(3)), 3) == []
    full = [(F(1), F(2), F(0)), (F(0), F(1), F(5)), (F(3), F(0), F(1))]
    assert extend_to_basis(full, 3) == greedy_extend_to_basis(full, 3) == []
    # the complement of span(e0 + e1) is e0 by the greedy rule, not e1
    assert extend_to_basis([(F(1), F(1))], 2) == greedy_extend_to_basis([(F(1), F(1))], 2) == [0]


# a residue of the benchmark's fault (b) input: the cleared constant term of
# its characteristic polynomial has 19 digits while the Cauchy bound is below 2
FAULT_B_RESIDUE = mat(
    [
        ["-1/8", "-3/19", "0", "-1/3", "-3/19", "1/16"],
        ["3/8", "-2/23", "1/18", "-1/12", "3/10", "-1/13"],
        ["-1/5", "1/5", "-1/6", "-1/16", "1/9", "-3/17"],
        ["2/19", "1/14", "-1/7", "0", "-3/16", "-3/16"],
        ["1/16", "3/23", "-1/10", "0", "0", "-1/7"],
        ["-1/15", "3/8", "-3/8", "0", "1/22", "2/17"],
    ]
)


class _OutOfTime(Exception):
    pass


def _singular_shifts(m, kmax):
    n = len(m)
    return [
        k
        for k in range(-kmax, kmax + 1)
        if det(tuple(tuple(m[i][j] - (k if i == j else 0) for j in range(n)) for i in range(n))) == 0
    ]


def _cauchy_bound(m):
    p = charpoly(m)
    return int(1 + max((abs(c) for c in p[:-1]), default=F(0)))


def test_integer_eigenvalues_finishes_on_large_constant_term():
    expected = _singular_shifts(FAULT_B_RESIDUE, _cauchy_bound(FAULT_B_RESIDUE))

    def out_of_time(signum, frame):
        raise _OutOfTime

    found = None
    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        found = integer_eigenvalues(FAULT_B_RESIDUE)
    except _OutOfTime:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert found is not None, "integer_eigenvalues took more than 2 s"
    assert found == expected


def _invertible(rng, n):
    while True:
        p = sparse_rational(rng, n, n, 0.3)
        if det(p) != 0:
            return p


def test_integer_eigenvalues_vs_brute_force_on_rational_matrices():
    rng = random.Random(13)
    planted_total = 0
    for case in range(50):
        n = rng.randint(1, 5)
        if case % 2:
            # P J P^-1 with J upper triangular: integer and non-integer
            # eigenvalues on the diagonal, arbitrary entries above it
            diag = [
                F(rng.randint(-4, 4)) if rng.random() < 0.5 else F(rng.randint(-9, 9), rng.randint(2, 9))
                for _ in range(n)
            ]
            j_form = tuple(
                tuple(diag[i] if i == j else (F(rng.randint(-2, 2)) if j > i else F(0)) for j in range(n))
                for i in range(n)
            )
            p = _invertible(rng, n)
            m = mat_mul(p, mat_mul(j_form, mat_inverse(p)))
            planted = {int(x) for x in diag if x.denominator == 1}
        else:
            m = sparse_rational(rng, n, n, 0.3)
            planted = set()
        found = integer_eigenvalues(m)
        assert found == _singular_shifts(m, _cauchy_bound(m))
        assert planted <= set(found)
        planted_total += len(planted)
    assert planted_total > 10

"""Exact linear algebra over the rationals.

Matrices are immutable tuples of row tuples of ``fractions.Fraction``.
Everything here is exact; ``to_complex`` is the one way out to floating
point, and it refuses a value that no float can hold.

Row reduction runs on integers.  ``integer_rows`` scales each row by the
lcm of its denominators, which keeps the row space, and ``echelon``
eliminates fraction-free: a row is cross-multiplied against the pivot row
by cofactors of their gcd, then divided by its content, the gcd of its
entries, so the integers stay small.  ``rank`` counts the pivots of that
echelon form and builds no ``Fraction``; ``integer_rref`` back-substitutes
and makes ``Fraction`` entries only for its output.  Both choose pivots
left to right, and the reduced form is unique, so callers see the canonical
rows over Q.  No row is changed in place, so a caller may keep integer rows
and eliminate on them again, as the intersection poset does.

Every exact decision reuses that elimination, each in one function.
A d x d matrix is nonsingular iff its ``rank`` is d; there is no
determinant.  ``kernel_pencil_ok``, the star test, grows an observability
row space on integer rows.  ``invariant_projection`` reads the projection
Pi along span(cols) off the one rref of ``_reduced_span`` and checks
Pi M cols = 0, the invariance of the kernels of ``convolution.convolve``;
``quotient`` presents Pi M on the complement, with no change of basis and
no inverse.  The middle convolution needs neither: it runs on the residue
images, and takes its products there in integers (``mul_nonzero`` with
``zero=0``).  ``invertible_intertwiner`` is the exact isomorphism search:
an invertible element of the intertwiner space, found by ``rank``.
``integer_eigenvalues`` takes its candidates from the characteristic
polynomial modulo primes and keeps each one that ``echelon`` finds
singular; no polynomial over Q is formed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm

from .errors import InputError, InternalError

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"2/3"`` and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def to_complex(x: Fraction) -> complex:
    """The nearest complex float; a value beyond the float range is an input
    error that names its order of magnitude."""
    try:
        return complex(x)
    except OverflowError:
        digits = len(str(abs(x.numerator) // x.denominator))
        sign = "-" if x < 0 else ""
        raise InputError(f"exact value of order {sign}1e{digits - 1} is too large for a float") from None


def vec(xs) -> Vector:
    return tuple(frac(x) for x in xs)


def mat(rows) -> Matrix:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def zeros(r: int, c: int) -> Matrix:
    return tuple((Fraction(0),) * c for _ in range(r))


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, s: Fraction) -> Matrix:
    return tuple(tuple(s * x for x in r) for r in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product skipping zero entries: convolution residues and changes of
    basis are mostly zero."""
    return mul_nonzero(a, nonzero_rows(b), len(b[0]) if b else 0)


def nonzero_rows(b: Matrix) -> list[list[tuple[int, Fraction]]]:
    """(column, entry) of the nonzero entries of each row of ``b``."""
    return [[(j, y) for j, y in enumerate(rb) if y] for rb in b]


def mul_nonzero(a: Matrix, b_nonzero, ncols: int, zero=Fraction(0)) -> Matrix:
    """a times the ``ncols``-column matrix whose rows ``nonzero_rows`` gave;
    ``zero=0`` multiplies integer matrices in integers."""
    out = []
    for ra in a:
        acc = [zero] * ncols
        for x, rb in zip(ra, b_nonzero):
            if x:
                for j, y in rb:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def is_zero_matrix(m: Matrix) -> bool:
    return all(x == 0 for r in m for x in r)


def integer_nonzero_rows(m: Matrix) -> tuple[int, list[list[tuple[int, int]]]]:
    """The lcm D of the denominators of ``m``, and the ``nonzero_rows`` of
    the integer matrix D m."""
    den = lcm(*[x.denominator for r in m for x in r])
    return den, [[(j, x.numerator * (den // x.denominator)) for j, x in enumerate(r) if x] for r in m]


def integer_rows(m: Matrix) -> list[list[int]]:
    """Each row times the lcm of its denominators: the same row space with
    plain int entries."""
    out = []
    for r in m:
        d = lcm(*[x.denominator for x in r])
        out.append([x.numerator * (d // x.denominator) for x in r])
    return out


def _reduce(row: list[int], prow: list[int], col: int) -> list[int]:
    """``row`` with its entry in ``col`` cleared against ``prow``, divided by
    its content."""
    p, f = prow[col], row[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = [a * x - b * y for x, y in zip(row, prow)]
    c = gcd(*new)
    if c > 1:
        new = [x // c for x in new]
    return new


def echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Row echelon form of integer rows, zero rows dropped, and its pivots.

    Pivots are chosen left to right, the first remaining row nonzero in a
    column being its pivot row; only rows nonzero in the pivot column are
    touched.  Reorders the list ``rows`` but changes no row in place.
    """
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots: list[int] = []
    pr = 0
    for pc in range(nc):
        for i in range(pr, nr):
            if rows[i][pc]:
                break
        else:
            continue
        rows[pr], rows[i] = rows[i], rows[pr]
        prow = rows[pr]
        for i in range(pr + 1, nr):
            if rows[i][pc]:
                rows[i] = _reduce(rows[i], prow, pc)
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return rows[:pr], pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped.

    Pivots are chosen left to right, so the result is the canonical form
    used for flat equality throughout the package.
    """
    return integer_rref(integer_rows(m))


def integer_rref(rows: list[list[int]]) -> tuple[Matrix, tuple[int, ...]]:
    """``rref`` of integer ``rows``; like ``echelon``, changes no row in place."""
    rows, pivots = echelon(rows)
    for k in range(len(rows) - 1, 0, -1):
        pc = pivots[k]
        for i in range(k):
            if rows[i][pc]:
                rows[i] = _reduce(rows[i], rows[k], pc)
    zero = Fraction(0)
    red = tuple(
        tuple(Fraction(x, row[pc]) if x else zero for x in row)
        for row, pc in zip(rows, pivots)
    )
    return red, tuple(pivots)


def rank(m: Matrix) -> int:
    return len(echelon(integer_rows(m))[1])


def nullspace(m: Matrix, ncols: int | None = None) -> list[Vector]:
    """Canonical kernel basis: one vector per free column, ordered by it."""
    return row_and_null_space(m, ncols)[1]


def row_and_null_space(m: Matrix, ncols: int | None = None) -> tuple[Matrix, list[Vector]]:
    """The reduced rows of ``m``, a basis of its row space, and the canonical
    kernel basis read off them: one ``rref``."""
    if not m:
        n = ncols if ncols is not None else 0
        return (), [tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n)]
    n = len(m[0])
    red, pivots = rref(m)
    pivset = set(pivots)
    basis = []
    for j in range(n):
        if j in pivset:
            continue
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][j]
        basis.append(tuple(v))
    return red, basis


# ---------------------------------------------------------------------------
# joint kernels and the eigenvector test on them


def joint_kernel(mats: list[Matrix], dim: int) -> list[Vector]:
    """Canonical basis of the common kernel of matrices with ``dim`` columns."""
    return nullspace(tuple(r for m in mats for r in m), dim)


def kernel_pencil_ok(mats: list[Matrix], idx: int, dim: int) -> bool:
    """True iff no complex t admits a nonzero v with mats[idx] v = -t v
    inside the joint kernel of the other matrices.

    Such a v is an eigenvector of A = mats[idx] inside the joint kernel W of
    the others, and W holds one iff its largest A-invariant subspace is
    nonzero.  That subspace is the unobservable subspace of (C, A), with C
    the other matrices stacked, so the test is the Popov-Belevitch-Hautus
    rank test: the rows of C, C A, C A^2, ... span all ``dim`` coordinates.
    Their row space O grows as rowspace(C and O A) until its rank stops
    growing, at most ``dim`` rounds of one integer elimination each; A is
    scaled by the lcm of its denominators, which keeps every O A.
    """
    a_int = integer_nonzero_rows(mats[idx])[1]
    others = tuple(r for j, m in enumerate(mats) if j != idx for r in m)
    obs, _ = echelon(integer_rows(others))
    while len(obs) < dim:
        images = []
        for row in obs:
            acc = [0] * dim
            for x, arow in zip(row, a_int):
                if x:
                    for j, y in arow:
                        acc[j] += x * y
            images.append(acc)
        grown, _ = echelon(obs + images)
        if len(grown) == len(obs):
            return False
        obs = grown
    return True


# ---------------------------------------------------------------------------
# integer eigenvalue detection


def _charpoly_mod(rows: list[list[int]], p: int) -> list[int]:
    """det(x Id - B) modulo p for the integer rows B, coefficients low to
    high degree: B is brought to Hessenberg form H by similarity, and the
    polynomial P_k of the leading k x k block of H follows from the smaller
    ones (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.9).  O(d^3) operations on residues."""
    n = len(rows)
    h = [[x % p for x in r] for r in rows]
    for c in range(n - 2):
        i = next((i for i in range(c + 1, n) if h[i][c]), None)
        if i is None:
            continue
        h[c + 1], h[i] = h[i], h[c + 1]
        for r in h:
            r[c + 1], r[i] = r[i], r[c + 1]
        piv, inv = h[c + 1], pow(h[c + 1][c], -1, p)
        for i in range(c + 2, n):
            u = h[i][c] * inv % p
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], piv)]
                for r in h:
                    r[c + 1] = (r[c + 1] + u * r[i]) % p
    polys = [[1]]
    for k in range(n):
        # P_(k+1) = x P_k - sum over i <= k of h[i][k] h[k][k-1] ... h[i+1][i] P_i
        out, t = [0] + polys[k], 1
        for i in range(k, -1, -1):
            if i < k:
                t = t * h[i + 1][i] % p
            f = h[i][k] * t % p
            if f:
                for j, a in enumerate(polys[i]):
                    out[j] = (out[j] - f * a) % p
        polys.append(out)
    return polys[n]


def _eval_mod(poly: list[int], x: int, p: int) -> int:
    out = 0
    for a in reversed(poly):
        out = (out * x + a) % p
    return out


def integer_eigenvalues(m: Matrix) -> list[int]:
    """All integer eigenvalues of ``m``, zero included, exactly, in
    increasing order.

    With D the lcm of the denominators of m and B = D m, an integer
    eigenvalue k makes Dk a root of the monic integer polynomial
    det(x Id - B), so a root modulo every prime, and |k| <= b, the largest
    absolute row sum of m rounded down.  Its residues modulo the primes
    p > 4096 that do not divide D are found by testing every residue (only
    the integers of [-b, b] when 2b < p, the usual case of one prime), and
    combined by the Chinese remainder theorem until their modulus M exceeds
    2b, which fixes k.  Each candidate in [-b, b] is kept iff B - Dk Id is
    singular, by ``echelon``.
    """
    d = len(m)
    den = lcm(*[x.denominator for r in m for x in r])
    rows = [[x.numerator * (den // x.denominator) for x in r] for r in m]
    bound = max((sum(map(abs, r)) for r in rows), default=0) // den
    modulus, residues, p = 1, [0], 4096
    while modulus <= 2 * bound:
        p = next(q for q in count(p + 1) if den % q and all(q % f for f in range(2, isqrt(q) + 1)))
        poly = _charpoly_mod(rows, p)
        tested = range(-bound, bound + 1) if 2 * bound < p else range(p)
        roots = sorted({k % p for k in tested if _eval_mod(poly, den * k, p) == 0})
        step = pow(modulus, -1, p)
        residues = [a + modulus * ((r - a) * step % p) for a in residues for r in roots]
        modulus *= p
    candidates = sorted(a if 2 * a <= modulus else a - modulus for a in residues)
    return [
        k for k in candidates
        if abs(k) <= bound
        and len(echelon([[x - den * k if i == j else x for j, x in enumerate(r)] for i, r in enumerate(rows)])[1]) < d
    ]


# ---------------------------------------------------------------------------
# subspace helpers (columns spanning subspaces)


def _reduced_span(cols: list[Vector], dim: int) -> tuple[Matrix, list[int], list[int]]:
    """A reduced basis of span(``cols``), the coordinates it is the identity
    on, and the complementary coordinates.

    The basis is the rref of the reversed columns, read back in order: its
    r-th vector is 1 at ``skipped[r]`` and 0 at every other skipped
    coordinate.  Coordinate j is skipped exactly when e_j lies in the span of
    ``cols`` and e_0, ..., e_(j-1): those j are the pivots of the reversed
    echelon form.  The rest, in index order, is the complement.
    """
    red, pivots = rref(tuple(tuple(reversed(c)) for c in cols))
    if len(pivots) != len(cols):
        raise InternalError("columns are linearly dependent")
    skipped = [dim - 1 - p for p in pivots]
    taken = set(skipped)
    basis = tuple(tuple(reversed(r)) for r in red)
    return basis, skipped, [j for j in range(dim) if j not in taken]


def invariant_projection(
    mats: list[Matrix], cols: list[Vector], dim: int, what: str
) -> tuple[list[int], Matrix]:
    """The complement C of span(``cols``) and the projection Pi along
    span(cols) onto it, once every dim x dim M is checked to leave span(cols)
    invariant.

    C holds the standard basis vectors e_j that do not lie in the span of
    ``cols`` and e_0, ..., e_(j-1), in index order.
    With B the reduced basis of span(cols), the identity on the skipped
    coordinates S, the class of v has coordinates v[C] - B[C,:] v[S]; that
    projection Pi is [1 on C | -B[C,:] on S], and its kernel is span(cols).
    So span(cols) is invariant under M iff Pi (M cols) = 0, formed reading
    the nonzero pattern of cols once.  Raises InternalError, naming
    ``what``, for the first M where it is not, and when ``cols`` are
    dependent.
    """
    basis, skipped, comp = _reduced_span(cols, dim)
    proj = []
    for c in comp:
        row = [Fraction(0)] * dim
        row[c] = Fraction(1)
        for s, b in zip(skipped, basis):
            row[s] = -b[c]
        proj.append(tuple(row))
    proj = tuple(proj)
    if cols and comp:
        span = nonzero_rows(transpose(tuple(cols)))
        for m in mats:
            if not is_zero_matrix(mat_mul(proj, mul_nonzero(m, span, len(cols)))):
                raise InternalError(f"{what} is not invariant; quotient ill-defined")
    return comp, proj


def quotient(mats: list[Matrix], cols: list[Vector], dim: int) -> list[Matrix]:
    """Action of each dim x dim matrix M on C^dim / span(cols), presented on
    the complement C of ``invariant_projection``: Pi M restricted to C."""
    comp, proj = invariant_projection(mats, cols, dim, "span")
    return [mat_mul(proj, tuple(tuple(r[c] for c in comp) for r in m)) for m in mats]


# ---------------------------------------------------------------------------
# intertwiner search


def intertwiner_space(pairs: list[tuple[Matrix, Matrix]], d: int) -> list[Matrix]:
    """Basis of {S : S A = B S for every pair (A, B)} of d x d matrices."""
    if d == 0:
        return []
    rows = []
    for a, b in pairs:
        for i in range(d):
            for j in range(d):
                row = [Fraction(0)] * (d * d)
                for k in range(d):
                    row[i * d + k] += a[k][j]
                    row[k * d + j] -= b[i][k]
                rows.append(tuple(row))
    basis = nullspace(tuple(rows), d * d) if rows else nullspace((), d * d)
    return [tuple(tuple(v[i * d + j] for j in range(d)) for i in range(d)) for v in basis]


_SEARCH_SEED = 0x5EBA11
_SEARCH_SAMPLES = 128
_SEARCH_RANGE = 1 << 70


def find_invertible_combination(basis: list[Matrix], d: int) -> Matrix | None:
    """An invertible element of the span, or None when there is none.

    Single basis elements are tried first.  For spans of dimension at most
    four the determinant polynomial has degree at most d in each coefficient,
    so scanning the integer grid {0..d}^m decides existence exactly.  Larger
    spans fall back to fixed-seed random evaluation with failure probability
    below 2**-64 per declared miss.
    """
    import random
    from itertools import product as _product

    for s in basis:
        if rank(s) == d:
            return s
    m = len(basis)
    if m <= 1:
        return None
    if m <= 4:
        for coeffs in _product(range(d + 1), repeat=m):
            if sum(coeffs) == 0:
                continue
            cand = mat_scale(basis[0], Fraction(coeffs[0]))
            for c, s in zip(coeffs[1:], basis[1:]):
                cand = mat_add(cand, mat_scale(s, Fraction(c)))
            if rank(cand) == d:
                return cand
        return None
    rng = random.Random(_SEARCH_SEED)
    for _ in range(max(_SEARCH_SAMPLES, d + 1)):
        coeffs = [Fraction(rng.randrange(-_SEARCH_RANGE, _SEARCH_RANGE)) for _ in range(m)]
        cand = mat_scale(basis[0], coeffs[0])
        for c, s in zip(coeffs[1:], basis[1:]):
            cand = mat_add(cand, mat_scale(s, c))
        if rank(cand) == d:
            return cand
    return None


def invertible_intertwiner(pairs: list[tuple[Matrix, Matrix]], d: int) -> Matrix | None:
    """An invertible S with S A = B S for every pair (A, B) of d x d
    matrices, or None when there is none: the exact isomorphism search."""
    return find_invertible_combination(intertwiner_space(pairs, d), d)

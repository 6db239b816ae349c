"""Exact linear algebra over the rationals.

Matrices are immutable tuples of row tuples of ``fractions.Fraction``; the
characteristic polynomials read by the integer eigenvalue search are tuples
of coefficients in increasing degree order (the zero polynomial is the
empty tuple).  Everything here is exact; ``to_complex`` is the one way out
to floating point, and it refuses a value that no float can hold.

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
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import InputError, InternalError

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
Poly = tuple[Fraction, ...]


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


def charpoly(m: Matrix) -> Poly:
    """Monic characteristic polynomial, coefficients low to high degree.

    Faddeev-LeVerrier recursion; exact over the rationals.
    """
    n = len(m)
    if n == 0:
        return (Fraction(1),)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = m
    for k in range(1, n + 1):
        ck = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = ck
        if k < n:
            mk = mat_mul(m, mat_add(mk, mat_scale(identity(n), ck)))
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# polynomials in one variable, coefficients low -> high


def poly_trim(p) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_degree(p: Poly) -> int:
    """Degree; the zero polynomial gets -1."""
    return len(poly_trim(p)) - 1


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


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


def _divisors_up_to(n: int, bound: int) -> list[int]:
    """Positive divisors of n up to bound.  Trial division up to
    min(bound, isqrt(n)) is complete: a divisor above isqrt(n) is found
    through its cofactor, which lies below isqrt(n)."""
    n = abs(n)
    out = set()
    for d in range(1, min(bound, isqrt(n)) + 1):
        if n % d == 0:
            out.add(d)
            if n // d <= bound:
                out.add(n // d)
    return sorted(out)


def integer_eigenvalues(m: Matrix) -> list[int]:
    """All integer eigenvalues of ``m``, zero included, exactly.

    Candidates are capped by the Cauchy bound 1 + max |coefficient| of the
    monic characteristic polynomial and pre-filtered by the rational root
    theorem (integer roots divide the cleared constant term), searched no
    further than the smaller of the bound and the square root of that term;
    each survivor is confirmed by evaluating the characteristic polynomial,
    i.e. by the exact singularity of m - k*Id.
    """
    p = charpoly(m)
    if len(p) == 1:
        return []
    found = []
    work = poly_trim(p)
    zero_mult = 0
    while work and work[0] == 0:
        zero_mult += 1
        work = work[1:]
    if zero_mult:
        found.append(0)
    if poly_degree(work) < 1:
        return found
    bound = 1 + max(abs(c) for c in work[:-1])
    kmax = int(bound)
    const = int(work[0] * lcm(*[c.denominator for c in work]))
    for k in _divisors_up_to(const, kmax):
        for s in (k, -k):
            if poly_eval(p, Fraction(s)) == 0:
                found.append(s)
    return sorted(found)


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

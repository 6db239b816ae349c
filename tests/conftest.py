"""Shared corpus builders for the test suite."""

from __future__ import annotations

import itertools
import random
import signal
from fractions import Fraction as F

from arrmc import (
    Arrangement,
    Hyperplane,
    LineDirection,
    PfaffianSystem,
    convolve,
)
from arrmc.arrangement import Flat
from arrmc.cli import main
from arrmc.errors import InternalError
from arrmc.linalg import (
    Matrix,
    Vector,
    _reduced_span,
    dot,
    identity,
    mat,
    mat_add,
    mat_mul,
    mat_scale,
    nullspace,
    quotient,
    rank,
    rref,
    transpose,
    zeros,
)

Y_AXIS = LineDirection.make([0, 1])


def four_lines() -> Arrangement:
    """{x=0, y=0, x-y=0, x=1} in C^2; the y-axis is a good line."""
    return Arrangement.make(
        2,
        [
            Hyperplane.make([1, 0], 0, "x"),
            Hyperplane.make([0, 1], 0, "y"),
            Hyperplane.make([1, -1], 0, "d"),
            Hyperplane.make([1, 0], -1, "x1"),
        ],
    )


def braid3() -> Arrangement:
    return Arrangement.make(
        2,
        [
            Hyperplane.make([1, 0], 0, "x"),
            Hyperplane.make([0, 1], 0, "y"),
            Hyperplane.make([1, -1], 0, "d"),
        ],
    )


def triple_point_system(a=F(1, 2), b=F(1, 3), e=F(2, 7)) -> PfaffianSystem:
    """Three transverse lines through the origin plus two vertical walls.

    All three transverse pairs shift onto the same wall x=0, so the shifted
    contributions accumulate; n = 3.
    """
    arr = Arrangement.make(
        2,
        [
            Hyperplane.make([1, 0], 0, "x"),
            Hyperplane.make([0, 1], 0, "y"),
            Hyperplane.make([1, -1], 0, "d"),
            Hyperplane.make([1, 1], 0, "s"),
            Hyperplane.make([1, 0], -1, "x1"),
        ],
    )
    return PfaffianSystem.make(
        arr, 1, {"x": [[0]], "y": [[a]], "d": [[b]], "s": [[e]], "x1": [[0]]}
    )


def nongood_pair() -> Arrangement:
    """{y=0, x-y=0}: the y-axis is not good (the origin shifts to x=0)."""
    return Arrangement.make(
        2,
        [
            Hyperplane.make([0, 1], 0, "y"),
            Hyperplane.make([1, -1], 0, "d"),
        ],
    )


def four_lines_system(a, b, c, d) -> PfaffianSystem:
    return PfaffianSystem.make(
        four_lines(),
        1,
        {"x": [[c]], "y": [[a]], "d": [[b]], "x1": [[d]]},
    )


def kz_system(scale=F(1, 2), outer=F(1, 3)) -> PfaffianSystem:
    """Noncommuting 2x2 integrable system on the four-line arrangement.

    The three residues through the origin sum to a central matrix, and the
    parallel line x=1 carries a scalar, so all rank-two commutator
    conditions hold while the transverse residues do not commute.
    """
    a_y = mat([[0, 1], [0, 0]])
    a_d = mat([[0, 0], [1, 0]])
    a_x = mat([[scale, -1], [-1, scale]])
    a_x1 = mat([[outer, 0], [0, outer]])
    return PfaffianSystem.make(
        four_lines(), 2, {"x": a_x, "y": a_y, "d": a_d, "x1": a_x1}
    )


class OutOfTime(BaseException):
    """Raised by the alarm of ``main_within``: a BaseException, so no
    handler inside the program can swallow it."""


def main_within(argv, seconds: float) -> int | None:
    """``cli.main(argv)`` in-process under a ``SIGALRM`` limit, as the
    benchmark runs a job: its exit code, or None when it ran out of time."""

    def alarm(signum, frame):
        raise OutOfTime

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return main(list(argv))
    except OutOfTime:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def from_columns(cols, nrows: int | None = None) -> Matrix:
    """The matrix with columns ``cols``; ``nrows`` rows when there is none."""
    cols = list(cols)
    if not cols:
        return zeros(nrows or 0, 0)
    return transpose(tuple(cols))


def extend_to_basis(cols: list[Vector], dim: int) -> list[int]:
    """Indices of standard basis vectors completing the independent
    ``cols`` to a basis: the complement that ``invariant_projection``
    chooses.

    Greedy in index order; deterministic: e_j is chosen exactly when it does
    not lie in the span of ``cols`` and e_0, ..., e_(j-1).
    """
    return _reduced_span(cols, dim)[2]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum((x * y for x, y in zip(r, v)), F(0)) for r in a)


def in_span(v: Vector, cols: list[Vector]) -> bool:
    if all(x == 0 for x in v):
        return True
    if not cols:
        return False
    base = tuple(cols)
    return rank(base) == rank(base + (v,))


def charpoly(m: Matrix) -> tuple[F, ...]:
    """Monic characteristic polynomial, coefficients low to high degree, by
    the Faddeev-LeVerrier recursion, exact over the rationals: the reference
    for the residues modulo primes that ``integer_eigenvalues`` reads."""
    n = len(m)
    if n == 0:
        return (F(1),)
    coeffs = [F(0)] * (n + 1)
    coeffs[n] = F(1)
    mk = m
    for k in range(1, n + 1):
        ck = -sum((mk[i][i] for i in range(n)), F(0)) / k
        coeffs[n - k] = ck
        if k < n:
            mk = mat_mul(m, mat_add(mk, mat_scale(identity(n), ck)))
    return tuple(coeffs)


# polynomials in one variable, coefficients low -> high; the zero polynomial
# is the empty tuple


def poly_trim(p) -> tuple[F, ...]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_degree(p) -> int:
    """Degree; the zero polynomial gets -1."""
    return len(poly_trim(p)) - 1


def poly_eval(p, x: F) -> F:
    out = F(0)
    for c in reversed(p):
        out = out * x + c
    return out


def det(m: Matrix) -> F:
    """Determinant by Fraction Gaussian elimination: the reference for the
    nonsingularity tests, which the library decides by ``rank``."""
    n = len(m)
    if n == 0:
        return F(1)
    rows = [list(r) for r in m]
    sign = 1
    out = F(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            return F(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        out *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return sign * out


def mat_inverse(m: Matrix) -> Matrix:
    n = len(m)
    aug = [list(r) + [F(1 if i == j else 0) for j in range(n)] for i, r in enumerate(m)]
    red, pivots = rref(tuple(tuple(r) for r in aug))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(r[n:] for r in red)


def assert_invariant(mats: list[Matrix], cols: tuple[Vector, ...], name: str) -> None:
    """Each matrix maps span(cols) into itself: every image, reduced against
    the echelon form of ``cols``, vanishes in the free columns.  The
    reference for ``linalg.invariant_projection``."""
    if not cols:
        return
    red, pivots = rref(cols)
    free = [j for j in range(len(cols[0])) if j not in pivots]
    basis = transpose(cols)
    for m in mats:
        for image in transpose(mat_mul(m, basis)):
            terms = [(image[p], row) for p, row in zip(pivots, red) if image[p]]
            if any(image[j] != sum((c * row[j] for c, row in terms), F(0)) for j in free):
                raise InternalError(f"{name} is not invariant under a residue")


def reference_middle_convolve(sys, y, lam, require_good=True) -> PfaffianSystem:
    """The middle convolution as the quotient of ``convolve``'s n d space by
    K + L, on the complement ``linalg.quotient`` chooses: the reference for
    ``middle_convolve``, which never builds that space."""
    cr = convolve(sys, y, lam, require_good=require_good)
    res, big = cr.system.residues, cr.system.dim_e
    kl = list(cr.block_kernel_basis) + list(cr.diagonal_kernel_basis)
    mats = quotient(list(res.values()), kl, big)
    return PfaffianSystem.make(
        cr.system.arrangement, big - len(kl), dict(zip(res, mats)), check=False
    )


def line_points(qs) -> Arrangement:
    """Points q on the affine line, as an arrangement in C^1."""
    return Arrangement.make(
        1, [Hyperplane.make([1], -F(q), f"p{i}") for i, q in enumerate(qs)]
    )


def line_system(qs, mats) -> PfaffianSystem:
    arr = line_points(qs)
    d = len(mats[0])
    return PfaffianSystem.make(
        arr, d, {f"p{i}": m for i, m in enumerate(mats)}
    )


X_AXIS_1D = LineDirection.make([1])
Z_AXIS_3D = LineDirection.make([0, 0, 1])


def slab_system_3d() -> PfaffianSystem:
    """Two parallel transverse planes and one parallel wall in C^3.

    The transverse planes never meet, so the shifted family is empty and the
    transverse residues may be chosen freely (the wall carries a scalar).
    """
    arr = Arrangement.make(
        3,
        [
            Hyperplane.make([0, 0, 1], 0, "z0"),
            Hyperplane.make([0, 0, 1], -1, "z1"),
            Hyperplane.make([1, 0, 0], 0, "x"),
        ],
    )
    return PfaffianSystem.make(
        arr,
        2,
        {
            "x": [[F(1, 3), 0], [0, F(1, 3)]],
            "z0": [[F(1, 2), F(1, 4)], [0, F(1, 5)]],
            "z1": [[F(1, 7), 0], [F(1, 2), F(2, 5)]],
        },
    )


def composition_corpus() -> list[tuple[PfaffianSystem, LineDirection]]:
    """Systems passing the star conditions, for the composition laws."""
    return [
        (four_lines_system(F(1, 2), F(1, 3), 0, 0), Y_AXIS),
        (four_lines_system(F(1, 2), F(1, 3), F(1, 4), F(1, 5)), Y_AXIS),
        (
            PfaffianSystem.make(
                braid3(),
                1,
                {"x": [[F(1, 4)]], "y": [[F(1, 2)]], "d": [[F(2, 5)]]},
            ),
            Y_AXIS,
        ),
        (kz_system(), Y_AXIS),
        (line_system([0, 1, 3], [[[F(1, 2)]], [[F(1, 3)]], [[F(2, 7)]]]), X_AXIS_1D),
        (
            line_system(
                [0, 2],
                [mat([[F(1, 2), F(1, 3)], [0, F(1, 5)]]), mat([[F(1, 7), 0], [F(1, 2), F(2, 5)]])],
            ),
            X_AXIS_1D,
        ),
        (slab_system_3d(), Z_AXIS_3D),
        (triple_point_system(), Y_AXIS),
    ]


def random_arrangement(rng: random.Random, dim: int, count: int) -> Arrangement:
    """Deterministic random arrangement with small rational coefficients."""
    hs = []
    seen = set()
    attempts = 0
    while len(hs) < count and attempts < 200:
        attempts += 1
        coeffs = [F(rng.randint(-2, 2)) for _ in range(dim)]
        if all(c == 0 for c in coeffs):
            continue
        const = F(rng.randint(-2, 2), rng.randint(1, 2))
        h = Hyperplane.make(coeffs, const, f"h{len(hs)}")
        key = (h.coeffs, h.constant)
        if key in seen:
            continue
        seen.add(key)
        hs.append(h)
    return Arrangement.make(dim, hs)


def random_arrangement_with_parallels(rng: random.Random, dim: int) -> Arrangement:
    """``random_arrangement`` plus one or two translates of each of its
    first two hyperplanes, so that parallel families always occur."""
    hs = list(random_arrangement(rng, dim, rng.randint(2, 5)).hyperplanes)
    seen = {(h.coeffs, h.constant) for h in hs}
    for h in hs[:2]:
        for shift in rng.sample(range(1, 6), rng.randint(1, 2)):
            t = Hyperplane(h.coeffs, h.constant + shift, f"{h.label}+{shift}")
            if (t.coeffs, t.constant) not in seen:
                seen.add((t.coeffs, t.constant))
                hs.append(t)
    return Arrangement.make(dim, hs)


def reference_containing(flat: Flat, arr: Arrangement) -> frozenset[str]:
    """Labels of the hyperplanes containing ``flat``, by one rank of the
    stacked equations each: the reference for ``Flat.containing``."""
    return frozenset(
        h.label for h in arr.hyperplanes if rank(flat.rows + (h.equation_row(),)) == flat.rank
    )


def contains_flat(upper: Flat, lower: Flat) -> bool:
    """True iff ``lower`` is a subset of ``upper`` (both nonempty), by one
    rank of the stacked equations: the reference for the covers, which the
    poset decides by containing sets."""
    if not upper.rows:
        return True
    return rank(lower.rows + upper.rows) == lower.rank


def flat_point(flat: Flat) -> Vector:
    """``Flat.point`` with its pivots from a second ``rref``: the reference."""
    x = [F(0)] * flat.ambient_dim
    _, pivots = rref(flat.coefficient_rows()) if flat.rows else ((), ())
    for r, p in zip(flat.rows, pivots):
        x[p] = r[-1]
    return tuple(x)


def transverse_rank_two(arr: Arrangement, y: LineDirection) -> tuple[Flat, ...]:
    """Rank-two flats of the transverse subarrangement, from its own poset:
    the reference for the Xs of ``arr.along(y).shifts``."""
    return Arrangement.make(arr.ambient_dim, arr.along(y).transverse).poset.rank_two()


def reference_basis(y: LineDirection) -> Matrix:
    """An invertible matrix whose last column is y, the others standard
    vectors chosen greedily in index order: the reference for the axis of
    ``AlongLine``, the coordinate of y that no standard vector replaces."""
    dim = y.dim
    std = identity(dim)
    chosen = [std[j] for j in extend_to_basis([y.direction], dim)]
    return from_columns(chosen + [y.direction], dim)


def reference_forms(arr: Arrangement, y: LineDirection) -> dict[str, Vector]:
    """Each hyperplane's linear part in the coordinates of ``reference_basis``."""
    cols = tuple(zip(*reference_basis(y)))
    return {h.label: tuple(dot(h.coeffs, col) for col in cols) for h in arr.hyperplanes}


def reference_coordinates(y: LineDirection, x: Vector) -> Vector:
    """Coordinates u with ``reference_basis(y) @ u = x``, by one ``rref``."""
    basis = reference_basis(y)
    n = len(basis)
    red, pivots = rref(tuple(basis[i] + (x[i],) for i in range(n)))
    if pivots != tuple(range(n)):
        raise InternalError("transverse basis is singular")
    return tuple(r[-1] for r in red)


def reference_shift(flat: Flat, y: LineDirection) -> Flat:
    """The flat X + Y by elimination: the normals of X's directions and y,
    through X's point, in reduced echelon form.  The reference for
    ``AlongLine.shifts``."""
    normals = nullspace(tuple(flat.directions() + [y.direction]), flat.ambient_dim)
    p = flat.point()
    red, pivots = rref(tuple(w + (dot(w, p),) for w in normals))
    if flat.ambient_dim in pivots:
        raise InternalError("shifting a flat produced an empty set")
    return Flat(flat.ambient_dim, red, frozenset())


def brute_force_poset(arr: Arrangement) -> set[Matrix]:
    """All canonical flats by explicit subset enumeration (the oracle)."""
    flats: set[Matrix] = {()}
    for r in range(1, len(arr.hyperplanes) + 1):
        for subset in itertools.combinations(arr.hyperplanes, r):
            rows = tuple(h.equation_row() for h in subset)
            red, pivots = rref(rows)
            if arr.ambient_dim in pivots:
                continue
            flats.add(red)
    return flats

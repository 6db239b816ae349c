"""Small exact linear algebra over Q for the input generators and oracles.

Written apart from ``arrmc.linalg`` so that the checks do not share code
with the program they check.  Matrices are lists of rows of Fractions.
"""

from __future__ import annotations

from fractions import Fraction as F


def identity(n: int) -> list[list[F]]:
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def transpose(m):
    return [list(c) for c in zip(*m)]


def rref(rows):
    """(reduced rows without zero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    top = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        p = next((i for i in range(top, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[top], rows[p] = rows[p], rows[top]
        piv = rows[top][c]
        rows[top] = [x / piv for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[top])]
        pivots.append(c)
        top += 1
        if top == len(rows):
            break
    return rows[:top], pivots


def rank(rows) -> int:
    return len(rref(rows)[0]) if rows else 0


def nullspace(rows, ncols: int) -> list[list[F]]:
    """Basis of {v : rows v = 0} in F^ncols."""
    if not rows:
        return identity(ncols)
    red, pivots = rref(rows)
    out = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [F(0)] * ncols
        v[j] = F(1)
        for r, p in zip(red, pivots):
            v[p] = -r[j]
        out.append(v)
    return out


def inverse(m):
    n = len(m)
    red, pivots = rref([list(r) + e for r, e in zip(m, identity(n))])
    if pivots[:n] != list(range(n)) or len(red) < n:
        raise ZeroDivisionError("singular matrix")
    return [r[n:] for r in red]


def has_invariant_line_in(a, w_basis) -> bool:
    """True iff ``a`` has an eigenvector (over C) inside span(w_basis).

    The largest a-invariant subspace of W is {v : a^j v in W, 0 <= j < d};
    it is nonzero exactly when it holds an eigenvector of a."""
    d = len(a)
    if not w_basis:
        return False
    annihilator = nullspace(w_basis, d)  # rows n with n . w = 0 on W
    if not annihilator:
        return True
    stacked = []
    power = identity(d)
    for _ in range(d):
        stacked += mat_mul(annihilator, power)
        power = mat_mul(a, power)
    return bool(nullspace(stacked, d))


def star_failures(residues: list[tuple[str, list]]) -> set[tuple[str, str]]:
    """Dettweiler-Reiter conditions (*) and (**) for (label, residue) pairs.

    (*) fails at k when an eigenvector of A_k lies in the joint kernel of the
    other residues; (**) is (*) for the transposes."""
    out = set()
    for kind, mats in (("kernel", [m for _, m in residues]), ("image", [transpose(m) for _, m in residues])):
        d = len(mats[0])
        for k, (label, _) in enumerate(residues):
            others = [row for j, m in enumerate(mats) if j != k for row in m]
            w = nullspace(others, d)
            if has_invariant_line_in(mats[k], w):
                out.add((kind, label))
    return out

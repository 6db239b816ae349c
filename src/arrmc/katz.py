"""Multiplicative middle convolution on monodromy tuples.

Tuples represent the local system on the fiber line through its monodromy
matrices, ordered by the puncture convention of the numeric module: poles
sorted by (real, imaginary) part, base point below all poles, and the
product M_1 ... M_n equal to the inverse of the monodromy at infinity.

The convolution is the block construction on C^(n*rank): the k-th generator
is the identity except for its k-th block row
(c(M_1-1), ..., c(M_(k-1)-1), c M_k, (M_(k+1)-1), ..., (M_n-1)); the middle
convolution quotients by the blockwise fixed spaces of the input together
with the common fixed space of the convolution tuple.

Exact and numeric tuples share one construction and one property check.
``_in_one_field`` chooses the field once, at entry: the work stays exact
only when both the tuple and the character value are exact (a rational
scalar, or the exponent 1/2), and runs on ``to_numeric()`` of the tuple
otherwise.  Every later step handles numpy arrays of that field,
``dtype=object`` holding Fractions or ``complex``, and only three
primitives differ by field: the kernel (``linalg.joint_kernel`` or a cut of
the singular values), the quotient (``linalg.quotient`` or its
floating-point mirror) and the eigenvector test (``linalg.kernel_pencil_ok``
or one SVD per eigenvalue).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    SingularInput,
    ToleranceNotMet,
    TrivialCharacter,
)
from . import linalg as la


@dataclass(frozen=True)
class CharacterValue:
    """A nontrivial multiplicative character through its value at 1.

    Either a unit-circle value exp(2*pi*i*exponent) with exact rational
    exponent modulo 1, or an exact rational scalar; both are nontrivial
    (value distinct from 1).  The scalar form keeps the whole multiplicative
    theory exact when the tuples themselves are rational.
    """

    exponent: Fraction | None = None
    scalar: Fraction | None = None

    def __post_init__(self):
        if (self.exponent is None) == (self.scalar is None):
            raise InputError("character needs exactly one of exponent or scalar")
        if self.exponent is not None and self.exponent % 1 == 0:
            raise TrivialCharacter("exponent is an integer, character is trivial")
        if self.scalar is not None:
            if self.scalar == 0:
                raise SingularInput("character value must be nonzero")
            if self.scalar == 1:
                raise TrivialCharacter("character value 1 is trivial")

    @staticmethod
    def from_exponent(value) -> "CharacterValue":
        return CharacterValue(exponent=la.frac(value) % 1)

    @staticmethod
    def from_scalar(value) -> "CharacterValue":
        return CharacterValue(scalar=la.frac(value))

    def value(self) -> complex:
        if self.scalar is not None:
            return la.to_complex(self.scalar)
        return cmath.exp(2j * math.pi * float(self.exponent))

    def exact_value(self) -> Fraction | None:
        if self.scalar is not None:
            return self.scalar
        if self.exponent % 1 == Fraction(1, 2):
            return Fraction(-1)
        return None

    def inverse(self) -> "CharacterValue":
        if self.scalar is not None:
            return CharacterValue(scalar=1 / self.scalar)
        return CharacterValue(exponent=(-self.exponent) % 1)

    def product(self, other: "CharacterValue") -> "CharacterValue":
        if (self.scalar is None) != (other.scalar is None):
            raise InputError("cannot mix unit-circle and scalar characters")
        if self.scalar is not None:
            return CharacterValue(scalar=self.scalar * other.scalar)
        return CharacterValue(exponent=(self.exponent + other.exponent) % 1)


@dataclass(frozen=True)
class MonodromyTuple:
    """Ordered invertible matrices, one per puncture.

    ``matrices`` holds numpy complex arrays when ``exact`` is False and
    exact rational matrices otherwise.
    """

    rank: int
    matrices: tuple
    exact: bool
    labels: tuple[str, ...] | None = None

    @property
    def npoints(self) -> int:
        return len(self.matrices)

    @staticmethod
    def numeric(mats, labels=None) -> "MonodromyTuple":
        ms = tuple(np.asarray(m, dtype=complex) for m in mats)
        r = ms[0].shape[0] if ms else 0
        for m in ms:
            if m.shape != (r, r):
                raise DimensionMismatch("tuple matrices must share a square shape")
            if r and np.linalg.cond(m) > 1e12:
                raise SingularInput("tuple matrix is numerically singular")
        return MonodromyTuple(r, ms, False, tuple(labels) if labels else None)

    @staticmethod
    def exact_tuple(mats, labels=None) -> "MonodromyTuple":
        ms = tuple(la.mat(m) for m in mats)
        r = la.shape(ms[0])[0] if ms else 0
        for m in ms:
            if la.shape(m) != (r, r):
                raise DimensionMismatch("tuple matrices must share a square shape")
            if la.rank(m) != r:
                raise SingularInput("tuple matrix is singular")
        return MonodromyTuple(r, ms, True, tuple(labels) if labels else None)

    def to_numeric(self) -> "MonodromyTuple":
        if not self.exact:
            return self
        ms = tuple(
            np.array([[la.to_complex(x) for x in r] for r in m], dtype=complex).reshape(self.rank, self.rank)
            for m in self.matrices
        )
        return MonodromyTuple(self.rank, ms, False, self.labels)

    @cached_property
    def charpolys(self) -> tuple[np.ndarray, ...]:
        """Numeric characteristic polynomial coefficients of each generator,
        highest degree first; computed once per tuple."""
        return tuple(_charpoly_numeric(m) for m in self.to_numeric().matrices)

    def condition_numbers(self) -> tuple[float, ...]:
        t = self.to_numeric()
        return tuple(float(np.linalg.cond(m)) if self.rank else 1.0 for m in t.matrices)


# ---------------------------------------------------------------------------
# the field and its three primitives


def _in_one_field(t: MonodromyTuple, c: CharacterValue | None = None):
    """(tuple, character value, dtype) that every later step shares.

    The tuple stays exact only when it and the character value both are;
    otherwise its numeric copy is used throughout.
    """
    cval = None if c is None else c.exact_value()
    if t.exact and (c is None or cval is not None):
        return t, cval, object
    return t.to_numeric(), None if c is None else c.value(), complex


def _kernel(mats: list, dim: int, dtype, tol: float) -> np.ndarray:
    """Columns spanning the joint kernel of matrices with ``dim`` columns."""
    if dtype is object:
        basis = la.joint_kernel([la.mat(m) for m in mats], dim)
        return np.array(basis, dtype=object).reshape(len(basis), dim).T
    return _numeric_nullspace(np.vstack(mats) if mats else np.zeros((0, dim), dtype=complex), tol)


def _quotient(mats, joint: np.ndarray, tol: float) -> list:
    """Action of each matrix on the quotient by the span of ``joint``'s
    columns, on the standard basis vectors completing them greedily."""
    if joint.dtype == object:
        return la.quotient(list(mats), list(la.mat(joint.T)), joint.shape[0])
    return _numeric_quotient(mats, joint, tol)


def _eigenvector_tests(mats: list, dim: int, dtype, tol: float) -> list[bool]:
    """For each k: no eigenvector of mats[k] lies in the joint kernel of the
    others."""
    if dtype is object:
        exact = [la.mat(m) for m in mats]
        return [la.kernel_pencil_ok(exact, k, dim) for k in range(len(mats))]
    return [_numeric_pencil_condition(mats, k, dim, tol) for k in range(len(mats))]


def _numeric_nullspace(m: np.ndarray, tol: float) -> np.ndarray:
    """Columns spanning the kernel; singular values are cut relative to the
    largest one."""
    if m.size == 0:
        return np.eye(m.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(m)
    return vh[int(np.sum(s > s[0] * tol)) :].conj().T


def _numeric_rank(cols: np.ndarray, tol: float) -> int:
    if cols.size == 0:
        return 0
    s = np.linalg.svd(cols, compute_uv=False)
    return int(np.sum(s > s[0] * tol))


def _numeric_quotient(mats, joint: np.ndarray, tol: float) -> list[np.ndarray]:
    """The floating-point mirror of ``linalg.quotient``.

    The complement C is greedy in index order: e_j is kept iff it raises
    the numeric rank of the basis built so far, whose rank is its column
    count.  With P = [joint | e_C], the projection Pi is the C rows of
    P^-1, the quotient of M is (Pi M)[:, C], and max |Pi M joint| is the
    leak out of the span, checked against the rank threshold.
    """
    dim, cut = joint.shape
    if _numeric_rank(joint, tol) != cut:
        raise ToleranceNotMet(
            f"numeric fixed spaces intersect nontrivially at rank threshold {tol:g}"
        )
    basis, comp = joint, []
    for j in range(dim):
        if basis.shape[1] == dim:
            break
        e = np.zeros((dim, 1), dtype=complex)
        e[j, 0] = 1.0
        cand = np.hstack([basis, e])
        if _numeric_rank(cand, tol) == basis.shape[1] + 1:
            basis = cand
            comp.append(j)
    if basis.shape[1] != dim:
        raise ToleranceNotMet(
            f"could not complete the numeric fixed spaces to a basis at rank threshold {tol:g}"
        )
    proj = np.linalg.inv(basis)[cut:]
    scale = max([1.0] + [float(np.max(np.abs(b), initial=0.0)) for b in mats])
    out = []
    for b in mats:
        pb = proj @ b
        leak = float(np.max(np.abs(pb @ joint), initial=0.0))
        if leak > 1e3 * tol * scale:
            raise ToleranceNotMet(
                f"fixed spaces are not numerically invariant: lower-left block "
                f"{leak:.2e} exceeds {1e3 * tol * scale:.2e}"
            )
        out.append(pb[:, comp])
    return out


def _numeric_pencil_condition(mats, idx, r, tol) -> bool:
    """True iff no eigenvector of mats[idx] lies in the joint kernel of the
    others."""
    w = _kernel([m for j, m in enumerate(mats) if j != idx], r, complex, tol)
    if w.shape[1] == 0:
        return True
    for tau in np.linalg.eigvals(mats[idx]):
        e = _numeric_nullspace(mats[idx] - tau * np.eye(r), 1e3 * tol)
        if e.shape[1] == 0:
            continue
        joint = np.hstack([e, w])
        s = np.linalg.svd(joint, compute_uv=False)
        if int(np.sum(s > s[0] * tol * 10)) < joint.shape[1]:
            return False
    return True


# ---------------------------------------------------------------------------
# construction


def _arrays(mats, r: int, dtype) -> list[np.ndarray]:
    return [np.asarray(m, dtype=dtype).reshape(r, r) for m in mats]


def convolution_tuple(t: MonodromyTuple, c: CharacterValue) -> MonodromyTuple:
    """The block convolution tuple before taking the quotient, in the field
    that ``_in_one_field`` chooses."""
    t, cval, dtype = _in_one_field(t, c)
    n, r = t.npoints, t.rank
    mats = _arrays(t.matrices, r, dtype)
    shifted = [m - np.eye(r, dtype=dtype) for m in mats]
    out = []
    for k, m in enumerate(mats):
        b = np.eye(n * r, dtype=dtype)
        b[k * r : (k + 1) * r] = np.hstack(
            [cval * a for a in shifted[:k]] + [cval * m] + shifted[k + 1 :]
        )
        out.append(la.mat(b) if dtype is object else b)
    return MonodromyTuple(n * r, tuple(out), dtype is object, t.labels)


def multiplicative_kernels(
    t: MonodromyTuple, c: CharacterValue, tol: float = 1e-9
):
    """(blockwise fixed columns, common fixed columns of the convolution,
    the convolution tuple); the columns are arrays of the tuple's field."""
    t, _, dtype = _in_one_field(t, c)
    conv = convolution_tuple(t, c)
    r, big = t.rank, conv.rank
    blocks = [
        _kernel([m - np.eye(r, dtype=dtype)], r, dtype, tol) for m in _arrays(t.matrices, r, dtype)
    ]
    k_cols = np.zeros((big, sum(b.shape[1] for b in blocks)), dtype=dtype)
    col = 0
    for k, b in enumerate(blocks):
        k_cols[k * r : (k + 1) * r, col : col + b.shape[1]] = b
        col += b.shape[1]
    shifted = [b - np.eye(big, dtype=dtype) for b in _arrays(conv.matrices, big, dtype)]
    return k_cols, _kernel(shifted, big, dtype, tol), conv


def multiplicative_middle_convolution(
    t: MonodromyTuple, c: CharacterValue, tol: float = 1e-9
) -> MonodromyTuple:
    """Quotient of the convolution tuple by its two canonical fixed spaces.

    Output rank is n*rank - dim(blockwise fixed) - dim(common fixed).
    """
    return quotient_by_fixed_spaces(t, multiplicative_kernels(t, c, tol), tol)


def quotient_by_fixed_spaces(t: MonodromyTuple, kernels, tol: float = 1e-9) -> MonodromyTuple:
    """The quotient step of the middle convolution, given the result of
    ``multiplicative_kernels`` for ``t``."""
    if t.npoints == 0:
        return t
    k_cols, l_cols, conv = kernels
    joint = np.hstack([k_cols, l_cols])
    out = _quotient(conv.matrices, joint, tol)
    return MonodromyTuple(conv.rank - joint.shape[1], tuple(out), conv.exact, t.labels)


# ---------------------------------------------------------------------------
# property check


@dataclass(frozen=True)
class PropertyReport:
    ok: bool
    failures: tuple[str, ...]


def check_property_p(t: MonodromyTuple, tol: float = 1e-9) -> PropertyReport:
    """Sufficient operational criterion for the no-constant-piece property.

    (a) no common fixed vector, (b) no common fixed covector, and (c) for
    each k no eigenvector of M_k inside the joint fixed space of the others,
    together with the transposed version of (c).  (M - 1) v = -s v iff
    M v = (1 - s) v, so (c) is the eigenvector test on A_k = M_k - 1.
    """
    t, _, dtype = _in_one_field(t)
    r = t.rank
    shifted = [m - np.eye(r, dtype=dtype) for m in _arrays(t.matrices, r, dtype)]
    sides = (
        ("vector", "kernel", shifted),
        ("covector", "image", [a.T for a in shifted]),
    )
    failures = [
        f"common fixed {fixed}" for fixed, _, mats in sides if _kernel(mats, r, dtype, tol).shape[1]
    ]
    tests = [_eigenvector_tests(mats, r, dtype, tol) for _, _, mats in sides]
    for k in range(t.npoints):
        for (_, name, _), results in zip(sides, tests):
            if not results[k]:
                failures.append(f"{name} condition at puncture {k}")
    return PropertyReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# tuple isomorphism


def _charpoly_numeric(m: np.ndarray) -> np.ndarray:
    return np.poly(m) if m.size else np.array([1.0 + 0j])


def invariants_match(t1: MonodromyTuple, t2: MonodromyTuple, tol: float) -> bool:
    """Conjugacy invariants: characteristic polynomials of the generators
    and of adjacent products."""
    a = t1.to_numeric().matrices
    b = t2.to_numeric().matrices
    scale = max(
        [1.0]
        + [float(np.max(np.abs(m))) for m in a if m.size]
        + [float(np.max(np.abs(m))) for m in b if m.size]
    )
    for x, y in zip(t1.charpolys, t2.charpolys):
        if np.max(np.abs(x - y)) > tol * scale ** t1.rank:
            return False
    for i in range(len(a) - 1):
        px, py = a[i] @ a[i + 1], b[i] @ b[i + 1]
        if np.max(np.abs(_charpoly_numeric(px) - _charpoly_numeric(py))) > tol * scale ** (2 * t1.rank):
            return False
    return True


_SVD_TOL = 1e-9  # floor of the relative cut for candidate intertwiner directions


def tuple_isomorphism(t1: MonodromyTuple, t2: MonodromyTuple, tol: float = 1e-6):
    """Simultaneous conjugator S with S M1_k = M2_k S, if one exists."""
    if t1.npoints != t2.npoints or t1.rank != t2.rank:
        raise DimensionMismatch("tuples must share rank and length")
    r = t1.rank
    if r == 0:
        return True, np.zeros((0, 0), dtype=complex)
    if t1.exact and t2.exact:
        pairs = list(zip(t1.matrices, t2.matrices))
        s = la.invertible_intertwiner(pairs, r)
        return s is not None, s
    a = t1.to_numeric().matrices
    b = t2.to_numeric().matrices
    if not invariants_match(t1, t2, tol):
        return False, None
    rows = []
    for m1, m2 in zip(a, b):
        rows.append(np.kron(np.eye(r), m1.T) - np.kron(m2, np.eye(r)))
    system = np.vstack(rows)
    scale = max([1.0] + [float(np.max(np.abs(m), initial=0.0)) for m in a + b])
    # candidate directions: singular vectors whose residual already beats the
    # isomorphism tolerance; the final residual check below rejects impostors
    cut = scale * max(_SVD_TOL, tol / 10.0)
    _, sv_sys, vh = np.linalg.svd(system)
    keep = int(np.sum(sv_sys > cut))
    basis = vh[keep:].conj().T
    if basis.shape[1] == 0:
        return False, None
    cands = [basis[:, i].reshape(r, r) for i in range(basis.shape[1])]
    rng = np.random.default_rng(0x5EBA11)
    for _ in range(24):
        coeffs = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
        cands.append((basis @ coeffs).reshape(r, r))
    for s in cands:
        sv = np.linalg.svd(s, compute_uv=False)
        if sv.size == 0 or sv[-1] <= 1e-8 * max(sv[0], 1e-300):
            continue
        resid = max(float(np.max(np.abs(s @ m1 - m2 @ s))) for m1, m2 in zip(a, b))
        if resid <= tol * scale * max(1.0, float(sv[0])):
            return True, s
    return False, None

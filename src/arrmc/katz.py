"""Multiplicative middle convolution on monodromy tuples.

Tuples represent the local system on the fiber line through its monodromy
matrices, ordered by the puncture convention of the numeric module: poles
sorted by (real, imaginary) part, base point below all poles, and the
product M_1 ... M_n equal to the inverse of the monodromy at infinity.

The convolution is the block construction on C^(n*rank): the k-th generator
is the identity except for its k-th block row
(c(M_1-1), ..., c(M_(k-1)-1), c M_k, (M_(k+1)-1), ..., (M_n-1)); the middle
convolution quotients by the blockwise fixed spaces of the input together
with the common fixed space of the convolution tuple.  Entries are either
double-precision complex or exact rationals; the construction is the same.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
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
from .linalg import Fraction as _F


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
            return complex(self.scalar)
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
            if la.det(m) == 0:
                raise SingularInput("tuple matrix is singular")
        return MonodromyTuple(r, ms, True, tuple(labels) if labels else None)

    def to_numeric(self) -> "MonodromyTuple":
        if not self.exact:
            return self
        ms = tuple(
            np.array([[complex(x) for x in row] for row in m], dtype=complex).reshape(
                self.rank, self.rank
            )
            for m in self.matrices
        )
        return MonodromyTuple(self.rank, ms, False, self.labels)

    def condition_numbers(self) -> tuple[float, ...]:
        t = self.to_numeric()
        return tuple(float(np.linalg.cond(m)) if self.rank else 1.0 for m in t.matrices)

    def infinity_monodromy(self):
        """Inverse of the ordered product M_1 ... M_n (recorded convention)."""
        if self.exact:
            prod = la.identity(self.rank)
            for m in self.matrices:
                prod = la.mat_mul(prod, m)
            return la.mat_inverse(prod)
        prod = np.eye(self.rank, dtype=complex)
        for m in self.matrices:
            prod = prod @ m
        return np.linalg.inv(prod)


# ---------------------------------------------------------------------------
# construction


def convolution_tuple(t: MonodromyTuple, c: CharacterValue) -> MonodromyTuple:
    """The block convolution tuple before taking the quotient."""
    n, r = t.npoints, t.rank
    if t.exact:
        cval = c.exact_value()
        if cval is None:
            return convolution_tuple(t.to_numeric(), c)
        eye_r = la.identity(r)
        out = []
        for k in range(n):
            rows = [
                [_F(1) if (i == j) else _F(0) for j in range(n * r)]
                for i in range(n * r)
            ]
            for j in range(n):
                m = t.matrices[j]
                if j == k:
                    blk = la.mat_scale(m, cval)
                elif j < k:
                    blk = la.mat_scale(la.mat_sub(m, eye_r), cval)
                else:
                    blk = la.mat_sub(m, eye_r)
                for i in range(r):
                    for jj in range(r):
                        rows[k * r + i][j * r + jj] = blk[i][jj]
            out.append(tuple(tuple(row) for row in rows))
        return MonodromyTuple(n * r, tuple(out), True, t.labels)
    cval = c.value()
    eye = np.eye(r, dtype=complex)
    out = []
    for k in range(n):
        b = np.eye(n * r, dtype=complex)
        for j in range(n):
            m = t.matrices[j]
            if j == k:
                blk = cval * m
            elif j < k:
                blk = cval * (m - eye)
            else:
                blk = m - eye
            b[k * r : (k + 1) * r, j * r : (j + 1) * r] = blk
        out.append(b)
    return MonodromyTuple(n * r, tuple(out), False, t.labels)


def _numeric_nullspace(m: np.ndarray, tol: float, scale: float | None = None) -> np.ndarray:
    """Columns spanning the kernel; singular values are cut relative to the
    largest one, or to ``scale`` when the whole matrix may be near zero."""
    if m.size == 0:
        w = m.shape[1] if m.ndim == 2 else 0
        return np.eye(w, dtype=complex)
    u, s, vh = np.linalg.svd(m)
    if s.size:
        cut = max(s[0], scale or 0.0) * tol
        r = int(np.sum(s > cut))
    else:
        r = 0
    return vh[r:].conj().T


def _numeric_rank(cols: np.ndarray, tol: float) -> int:
    if cols.size == 0:
        return 0
    s = np.linalg.svd(cols, compute_uv=False)
    return int(np.sum(s > (s[0] * tol if s.size else 0)))


def multiplicative_kernels(
    t: MonodromyTuple, c: CharacterValue, tol: float = 1e-9
):
    """(blockwise fixed columns, common fixed columns of the convolution)."""
    conv = convolution_tuple(t, c)
    n, r = t.npoints, t.rank
    big = n * r
    if conv.exact:
        k_cols = []
        for k in range(n):
            for v in la.nullspace(la.mat_sub(t.matrices[k], la.identity(r)), r):
                col = [_F(0)] * big
                for i, x in enumerate(v):
                    col[k * r + i] = x
                k_cols.append(tuple(col))
        eye = la.identity(big)
        l_cols = la.joint_kernel([la.mat_sub(b, eye) for b in conv.matrices], big)
        return tuple(k_cols), tuple(l_cols), conv
    k_blocks = []
    for k in range(n):
        kern = _numeric_nullspace(t.matrices[k] - np.eye(r), tol)
        block = np.zeros((big, kern.shape[1]), dtype=complex)
        block[k * r : (k + 1) * r, :] = kern
        k_blocks.append(block)
    k_cols = np.hstack(k_blocks) if k_blocks else np.zeros((big, 0), dtype=complex)
    stacked = np.vstack([b - np.eye(big) for b in conv.matrices]) if n else np.zeros((0, big))
    l_cols = _numeric_nullspace(stacked, tol)
    return k_cols, l_cols, conv


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
    big = t.npoints * t.rank
    if conv.exact:
        joint = list(k_cols) + list(l_cols)
        out = la.quotient(list(conv.matrices), joint, big)
        return MonodromyTuple(big - len(joint), tuple(out), True, t.labels)
    joint = np.hstack([k_cols, l_cols])
    jr = _numeric_rank(joint, tol)
    if jr != joint.shape[1]:
        raise ToleranceNotMet(
            f"numeric fixed spaces intersect nontrivially at rank threshold {tol:g}"
        )
    cur = joint
    comp = []
    for j in range(big):
        if cur.shape[1] == big:
            break
        e = np.zeros((big, 1), dtype=complex)
        e[j, 0] = 1.0
        cand = np.hstack([cur, e])
        if _numeric_rank(cand, tol) > _numeric_rank(cur, tol):
            cur = cand
            comp.append(j)
    p = cur
    if p.shape[1] != big:
        raise ToleranceNotMet(
            f"could not complete the numeric fixed spaces to a basis at rank threshold {tol:g}"
        )
    cut = joint.shape[1]
    p_inv = np.linalg.inv(p)
    out = []
    scale = max([1.0] + [float(np.max(np.abs(b), initial=0.0)) for b in conv.matrices])
    for b in conv.matrices:
        q = p_inv @ b @ p
        lower_left = q[cut:, :cut]
        leak = float(np.max(np.abs(lower_left))) if lower_left.size else 0.0
        if leak > 1e3 * tol * scale:
            raise ToleranceNotMet(
                f"fixed spaces are not numerically invariant: lower-left block "
                f"{leak:.2e} exceeds {1e3 * tol * scale:.2e}"
            )
        out.append(q[cut:, cut:])
    return MonodromyTuple(big - cut, tuple(out), False, t.labels)


# ---------------------------------------------------------------------------
# property check


@dataclass(frozen=True)
class PropertyReport:
    ok: bool
    failures: tuple[str, ...]
    warnings: tuple[str, ...] = ()


def _numeric_common_fixed(mats, r, tol) -> np.ndarray:
    if not mats:
        return np.eye(r, dtype=complex)
    stacked = np.vstack([m - np.eye(r) for m in mats])
    return _numeric_nullspace(stacked, tol)


def _numeric_pencil_condition(mats, idx, r, tol) -> tuple[bool, float]:
    """Checks that no eigenvector of M_idx lies in the joint fixed space of
    the others; returns (ok, margin)."""
    others = [m for j, m in enumerate(mats) if j != idx]
    w = _numeric_common_fixed(others, r, tol)
    if w.shape[1] == 0:
        return True, math.inf
    eigvals = np.linalg.eigvals(mats[idx])
    margin = math.inf
    for tau in eigvals:
        e = _numeric_nullspace(mats[idx] - tau * np.eye(r), 1e3 * tol)
        if e.shape[1] == 0:
            continue
        joint = np.hstack([e, w])
        total = joint.shape[1]
        s = np.linalg.svd(joint, compute_uv=False)
        rk = int(np.sum(s > s[0] * tol * 10)) if s.size else 0
        if rk < total:
            return False, float(s[rk]) if rk < s.size else 0.0
        margin = min(margin, float(s[-1] / s[0]))
    return True, margin


def check_property_p(t: MonodromyTuple, tol: float = 1e-9) -> PropertyReport:
    """Sufficient operational criterion for the no-constant-piece property.

    (a) no common fixed vector, (b) no common fixed covector, and (c) for
    each k no eigenvector of M_k inside the joint fixed space of the others,
    together with the transposed version of (c).
    """
    n, r = t.npoints, t.rank
    failures: list[str] = []
    warnings: list[str] = []
    if t.exact:
        # (M - 1) v = -t v iff M v = (1 - t) v: the pencil test on M - 1
        # is the eigenvector condition on M
        eye = la.identity(r)
        shifted = [la.mat_sub(m, eye) for m in t.matrices]
        shifted_t = [la.transpose(m) for m in shifted]
        if la.joint_kernel(shifted, r):
            failures.append("common fixed vector")
        if la.joint_kernel(shifted_t, r):
            failures.append("common fixed covector")
        for k in range(n):
            if not la.kernel_pencil_ok(shifted, k, r):
                failures.append(f"kernel condition at puncture {k}")
            if not la.kernel_pencil_ok(shifted_t, k, r):
                failures.append(f"image condition at puncture {k}")
        return PropertyReport(not failures, tuple(failures), tuple(warnings))
    mats = [np.asarray(m) for m in t.matrices]
    mats_t = [m.T for m in mats]
    if _numeric_common_fixed(mats, r, tol).shape[1]:
        failures.append("common fixed vector")
    if _numeric_common_fixed(mats_t, r, tol).shape[1]:
        failures.append("common fixed covector")
    for k in range(n):
        ok, margin = _numeric_pencil_condition(mats, k, r, tol)
        if not ok:
            failures.append(f"kernel condition at puncture {k}")
        elif margin < 1e-6:
            warnings.append(f"kernel condition nearly fails at puncture {k}")
        ok, margin = _numeric_pencil_condition(mats_t, k, r, tol)
        if not ok:
            failures.append(f"image condition at puncture {k}")
        elif margin < 1e-6:
            warnings.append(f"image condition nearly fails at puncture {k}")
    return PropertyReport(not failures, tuple(failures), tuple(warnings))


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
    for x, y in zip(a, b):
        if np.max(np.abs(_charpoly_numeric(x) - _charpoly_numeric(y))) > tol * scale ** t1.rank:
            return False
    for i in range(len(a) - 1):
        px, py = a[i] @ a[i + 1], b[i] @ b[i + 1]
        if np.max(np.abs(_charpoly_numeric(px) - _charpoly_numeric(py))) > tol * scale ** (2 * t1.rank):
            return False
    return True


def tuple_isomorphism(
    t1: MonodromyTuple, t2: MonodromyTuple, tol: float = 1e-6, svd_tol: float = 1e-9
):
    """Simultaneous conjugator S with S M1_k = M2_k S, if one exists."""
    if t1.npoints != t2.npoints or t1.rank != t2.rank:
        raise DimensionMismatch("tuples must share rank and length")
    r = t1.rank
    if r == 0:
        return True, np.zeros((0, 0), dtype=complex)
    if t1.exact and t2.exact:
        pairs = list(zip(t1.matrices, t2.matrices))
        s = la.find_invertible_combination(la.intertwiner_space(pairs, r), r)
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
    cut = scale * max(svd_tol, tol / 10.0)
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

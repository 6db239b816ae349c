"""Logarithmic Pfaffian systems with constant coefficients.

A system attaches one exact rational residue matrix to each hyperplane of an
arrangement.  This module owns the exact run-time checks: integrability via
commutators over rank-two flats, the no-nonzero-integer-eigenvalue condition,
the kernel/image genericity ("star") conditions used by the composition laws,
duality, and restriction to a fiber line for the numeric module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .arrangement import (
    Arrangement,
    Flat,
    LineDirection,
    fiber_points,
)
from .errors import InputError, NonIntegrableInput, ParameterIntegral
from .fuchsian import FuchsianODE, standard_basepoint
from .linalg import (
    Matrix,
    commutator,
    frac,
    identity,
    integer_eigenvalues,
    is_zero_matrix,
    kernel_pencil_ok,
    mat,
    mat_add,
    mat_scale,
    shape,
    to_complex,
    transpose,
    zeros,
)


@dataclass(frozen=True)
class ConvolutionParameter:
    """Exact rational convolution parameter, required to be non-integer."""

    value: Fraction

    @staticmethod
    def make(value) -> "ConvolutionParameter":
        v = frac(value)
        if v.denominator == 1:
            raise ParameterIntegral(f"parameter {v} is an integer")
        return ConvolutionParameter(v)

    def negated(self) -> "ConvolutionParameter":
        return ConvolutionParameter(-self.value)


@dataclass(frozen=True)
class PfaffianSystem:
    arrangement: Arrangement
    dim_e: int
    residues: dict[str, Matrix]

    def __post_init__(self):
        labels = set(self.arrangement.labels())
        if set(self.residues) != labels:
            raise InputError("residues must cover exactly the arrangement's labels")
        for lbl, m in self.residues.items():
            if shape(m) != (self.dim_e, self.dim_e):
                raise InputError(f"residue {lbl} is not {self.dim_e} x {self.dim_e}")
        if self.dim_e < 0:
            raise InputError("dimension must be nonnegative")

    @staticmethod
    def make(arrangement: Arrangement, dim_e: int, residues, check: bool = True) -> "PfaffianSystem":
        res = {lbl: mat(m) for lbl, m in residues.items()}
        sys = PfaffianSystem(arrangement, dim_e, res)
        if check and not sys.integrability.ok:
            witness = sys.integrability.witness[1]
            raise NonIntegrableInput(
                f"integrability fails at flat of rank two (hyperplane {witness})"
            )
        return sys

    @cached_property
    def integrability(self) -> "IntegrabilityReport":
        """The integrability report, computed on first use and kept."""
        return check_integrability(self)

    def transverse_residues(self, y: LineDirection) -> list[tuple[str, Matrix]]:
        """(label, residue) for hyperplanes not parallel to y, in label order
        of the arrangement."""
        return [(h.label, self.residues[h.label]) for h in self.arrangement.along(y).transverse]

    @cached_property
    def _sums(self) -> dict[LineDirection, Matrix]:
        return {}

    def transverse_sum(self, y: LineDirection) -> Matrix:
        """The sum of the transverse residues, formed on first use per
        direction and kept."""
        if y not in self._sums:
            residues = [m for _, m in self.transverse_residues(y)] or [zeros(self.dim_e, self.dim_e)]
            self._sums[y] = reduce(mat_add, residues)
        return self._sums[y]


@dataclass(frozen=True)
class IntegrabilityReport:
    ok: bool
    witness: tuple[Flat, str] | None = None


def check_integrability(sys: PfaffianSystem) -> IntegrabilityReport:
    """Commutator test over rank-two flats.

    The wedge square of the coefficient form vanishes iff for every rank-two
    flat X and every hyperplane H containing X, the residue of H commutes
    with the sum of the residues of all hyperplanes containing X.  Parallel
    pairs drop out because their differentials are proportional.  The
    commutators with the flat's sum add up to zero, so the last label's is
    minus the sum of the others and is not computed: when it is nonzero, an
    earlier label already fails, and the witness is the same.
    """
    if sys.dim_e <= 1:
        return IntegrabilityReport(True)
    for x in sys.arrangement.poset.rank_two():
        labels = sorted(x.containing)
        if len(labels) < 2:
            continue
        total = reduce(mat_add, (sys.residues[lbl] for lbl in labels))
        for lbl in labels[:-1]:
            if not is_zero_matrix(commutator(sys.residues[lbl], total)):
                return IntegrabilityReport(False, (x, lbl))
    return IntegrabilityReport(True)


@dataclass(frozen=True)
class GenericityReport:
    ok: bool
    offenders: tuple[tuple[str, int], ...]


def check_assumption_generic(
    sys: PfaffianSystem, y: LineDirection, lam: ConvolutionParameter
) -> GenericityReport:
    """No transverse residue, nor their sum plus the parameter, may have a
    nonzero integer eigenvalue."""
    offenders: list[tuple[str, int]] = []
    for lbl, m in sys.transverse_residues(y):
        for k in integer_eigenvalues(m):
            if k != 0:
                offenders.append((lbl, k))
    shifted = mat_add(sys.transverse_sum(y), mat_scale(identity(sys.dim_e), lam.value))
    for k in integer_eigenvalues(shifted):
        if k != 0:
            offenders.append(("<sum>", k))
    return GenericityReport(not offenders, tuple(offenders))


@dataclass(frozen=True)
class StarReport:
    ok: bool
    failures: tuple[tuple[str, str], ...]  # (condition, hyperplane label)


def check_star_conditions(sys: PfaffianSystem, y: LineDirection) -> StarReport:
    """Kernel and image genericity for every transverse hyperplane.

    The kernel condition at H asks that the joint kernel of the other
    transverse residues hold no eigenvector of A_H; ``kernel_pencil_ok``
    decides it by one observability rank.  The image condition is the same
    test applied to the transposed system.
    """
    res = sys.transverse_residues(y)
    mats = [m for _, m in res]
    mats_t = [transpose(m) for m in mats]
    failures: list[tuple[str, str]] = []
    for i, (lbl, _) in enumerate(res):
        if not kernel_pencil_ok(mats, i, sys.dim_e):
            failures.append(("kernel", lbl))
        if not kernel_pencil_ok(mats_t, i, sys.dim_e):
            failures.append(("image", lbl))
    return StarReport(not failures, tuple(failures))


def fiber_restriction(sys: PfaffianSystem, y: LineDirection, base) -> FuchsianODE:
    """Restrict to the fiber over ``base``: one simple pole per transverse
    hyperplane, same residues, converted to floating complex here and only
    here."""
    fp = fiber_points(sys.arrangement, y, base)
    if fp.has_collision:
        raise InputError(
            f"fiber points collide over this base: {fp.collisions}; "
            "the line is not good or the base is special"
        )
    items = sorted(fp.points.items(), key=lambda kv: (kv[1], kv[0]))
    poles = tuple(to_complex(q) for _, q in items)
    labels = tuple(lbl for lbl, _ in items)
    d = sys.dim_e
    residues = tuple(
        np.array([[to_complex(x) for x in r] for r in sys.residues[lbl]], dtype=complex).reshape(d, d)
        for lbl in labels
    )
    return FuchsianODE(poles, residues, labels, standard_basepoint(poles), d)

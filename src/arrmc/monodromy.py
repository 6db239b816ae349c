"""Numeric analytic continuation along loops and the compatibility check.

The fundamental matrix F of dF/dy = A(y) F, F(start) = Id, is transported
along polyline loops with an adaptive Dormand-Prince 5(4) step.  Transport
matrices compose so that the ordered product M_1 ... M_n over the standard
loops equals the transport around a large counterclockwise circle; the
monodromy at infinity is its inverse, and this identity is checked against
the integrator output on every tuple extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import kernel_subspaces, middle_convolve
from .errors import AssumptionFail, StepUnderflow, ToleranceNotMet
from .fuchsian import FuchsianODE, LoopPath, enclosing_polyline, standard_loops, validate_loop
from .katz import (
    CharacterValue,
    MonodromyTuple,
    multiplicative_kernels,
    quotient_by_fixed_spaces,
    tuple_isomorphism,
    _charpoly_numeric,
)
from .pfaffian import (
    ConvolutionParameter,
    PfaffianSystem,
    check_assumption_generic,
    fiber_restriction,
)

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)

_MIN_STEP = 1e-13
_MAX_STEPS = 400_000


def _transport_segment(ode: FuchsianODE, start: complex, end: complex, f: np.ndarray, tol: float) -> np.ndarray:
    d = end - start
    seg_len = abs(d)
    if seg_len == 0.0:
        return f
    t = 0.0
    h = 0.1
    steps = 0
    while t < 1.0:
        steps += 1
        if steps > _MAX_STEPS:
            raise ToleranceNotMet("step budget exhausted on a segment")
        y = start + t * d
        dist = min((abs(y - q) for q in ode.poles), default=math.inf)
        cap = 1.0 - t
        if math.isfinite(dist):
            cap = min(cap, 0.5 * dist / seg_len)
        if cap < _MIN_STEP:
            raise StepUnderflow("step size underflow; path too close to a pole")
        h = min(h, cap)
        while True:
            ks = []
            for i in range(7):
                yi = start + (t + _DP_C[i] * h) * d
                fi = f
                for j, a in enumerate(_DP_A[i]):
                    if a:
                        fi = fi + (h * a) * ks[j]
                ks.append(ode.coefficient(yi) @ fi * d)
            f5 = f
            f4 = f
            for b, k in zip(_DP_B5, ks):
                if b:
                    f5 = f5 + (h * b) * k
            for b, k in zip(_DP_B4, ks):
                if b:
                    f4 = f4 + (h * b) * k
            err = float(np.max(np.abs(f5 - f4))) if f5.size else 0.0
            limit = tol * max(1.0, float(np.max(np.abs(f5))) if f5.size else 1.0)
            if err <= limit:
                f = f5
                t += h
                grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (limit / err) ** 0.2))
                h = min(max(h * grow, _MIN_STEP), 0.5)
                break
            h *= max(0.1, 0.9 * (limit / err) ** 0.25)
            if h < _MIN_STEP:
                raise StepUnderflow("step size underflow; path too close to a pole")
    return f


def _transport_polyline(ode: FuchsianODE, points, tol: float) -> np.ndarray:
    f = np.eye(ode.dim, dtype=complex)
    for a, b in zip(points[:-1], points[1:]):
        f = _transport_segment(ode, a, b, f, tol)
    return f


def transport_along_loop(ode: FuchsianODE, path: LoopPath, tol: float = 1e-10) -> np.ndarray:
    """Fundamental-matrix transport around a validated loop."""
    if tol <= 0:
        raise ToleranceNotMet("tolerance must be positive")
    validate_loop(path, ode.poles)
    return _transport_polyline(ode, path.points, tol)


@dataclass(frozen=True)
class TupleExtraction:
    monodromy: MonodromyTuple
    basepoint: complex
    product_residual: float
    infinity_residue: np.ndarray


def monodromy_tuple_of_ode(
    ode: FuchsianODE, tol: float = 1e-10, consistency_tol: float = 1e-6
) -> TupleExtraction:
    base, loops, order = standard_loops(ode.poles, ode.basepoint)
    mats = [_transport_polyline(ode, path.points, tol) for path in loops]
    labels = [ode.labels[i] for i in order]
    residual = 0.0
    if loops:
        big = enclosing_polyline(ode.poles, base)
        t_big = _transport_polyline(ode, big, tol)
        prod = np.eye(ode.dim, dtype=complex)
        for m in mats:
            prod = prod @ m
        scale = max(1.0, float(np.max(np.abs(t_big))))
        residual = float(np.max(np.abs(prod - t_big))) / scale
        if residual > consistency_tol:
            raise ToleranceNotMet(
                f"loop product inconsistent with the enclosing transport: {residual:.3e}"
            )
    t = MonodromyTuple(ode.dim, tuple(mats), False, tuple(labels))
    return TupleExtraction(t, base, residual, ode.residue_at_infinity())


def monodromy_tuple_of_system(
    sys: PfaffianSystem,
    y,
    base,
    tol: float = 1e-10,
    consistency_tol: float = 1e-6,
) -> TupleExtraction:
    """Fiber restriction followed by loop transports in the standard
    convention; punctures are ordered by (real, imaginary) part."""
    ode = fiber_restriction(sys, y, base)
    return monodromy_tuple_of_ode(ode, tol, consistency_tol)


# ---------------------------------------------------------------------------
# the compatibility check


@dataclass(frozen=True)
class CompatibilityReport:
    """Side-by-side evidence for one base point.

    ``multiplicative`` is the middle convolution of the fiber tuple of the
    input system; ``restricted`` is the fiber tuple of the middle-convolved
    system ``mc_system``.  They must be isomorphic as tuples.
    """

    base: tuple
    n: int
    rank_multiplicative: int
    rank_restricted: int
    charpoly_deviation: float
    isomorphic: bool
    intertwiner_residual: float | None
    generator_charpolys: dict
    product_residuals: tuple[float, float]
    kernel_dims: tuple[int, int]
    mc_system: PfaffianSystem
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.isomorphic and self.rank_multiplicative == self.rank_restricted


def _charpoly_table(t1: MonodromyTuple, t2: MonodromyTuple):
    table = {}
    dev = 0.0
    for i, (m1, m2) in enumerate(zip(t1.matrices, t2.matrices)):
        p1 = _charpoly_numeric(np.asarray(m1))
        p2 = _charpoly_numeric(np.asarray(m2))
        table[f"generator_{i + 1}"] = {
            "multiplicative": [[float(c.real), float(c.imag)] for c in p1],
            "restricted": [[float(c.real), float(c.imag)] for c in p2],
        }
        if p1.shape == p2.shape:
            dev = max(dev, float(np.max(np.abs(p1 - p2))))
        else:
            dev = math.inf
    return table, dev


def verify_mc_compatibility(
    sys: PfaffianSystem,
    y,
    lam: ConvolutionParameter,
    base,
    tol: float = 1e-10,
    iso_tol: float = 1e-6,
    rank_tol: float = 1e-9,
) -> CompatibilityReport:
    """Check that the multiplicative middle convolution of the fiber tuple
    matches the fiber tuple of the additive middle convolution.

    The character is exp(2*pi*i*lambda).  Raises AssumptionFail before any
    integration when the eigenvalue genericity fails.  Under that assumption
    the numeric fixed-space dimensions provably equal the exact additive
    kernel dimensions, so a disagreement certifies that the fiber tuple is
    too ill-conditioned for ``rank_tol`` and raises ToleranceNotMet instead
    of reporting a bogus verdict.
    """
    gen = check_assumption_generic(sys, y, lam)
    if not gen.ok:
        raise AssumptionFail(f"integer eigenvalue obstruction: {gen.offenders}")

    ext0 = monodromy_tuple_of_system(sys, y, base, tol)
    character = CharacterValue.from_exponent(lam.value)
    kernels = multiplicative_kernels(ext0.monodromy, character, rank_tol)
    t_mult = quotient_by_fixed_spaces(ext0.monodromy, kernels, rank_tol)
    k_cols, l_cols, _ = kernels
    kdim = k_cols.shape[1] if hasattr(k_cols, "shape") else len(k_cols)
    ldim = l_cols.shape[1] if hasattr(l_cols, "shape") else len(l_cols)
    k_exact, l_exact = kernel_subspaces(sys, y, lam)
    if (kdim, ldim) != (len(k_exact), len(l_exact)):
        conds = ", ".join(f"{c:.2e}" for c in ext0.monodromy.condition_numbers())
        raise ToleranceNotMet(
            f"numeric fixed-space dimensions ({kdim}, {ldim}) disagree with the "
            f"exact kernels ({len(k_exact)}, {len(l_exact)}); generator condition "
            f"numbers [{conds}] exceed what the rank threshold {rank_tol:g} resolves"
        )

    mc_sys = middle_convolve(sys, y, lam)
    ext1 = monodromy_tuple_of_system(mc_sys, y, base, tol)
    t_restr = ext1.monodromy

    warnings: tuple[str, ...] = ()
    table, dev, iso, residual = {}, math.inf, False, None
    if t_mult.rank != t_restr.rank:
        warnings = (
            f"rank mismatch: multiplicative {t_mult.rank} vs restricted {t_restr.rank}",
        )
    else:
        table, dev = _charpoly_table(t_mult, t_restr)
        iso, s = tuple_isomorphism(t_mult, t_restr, iso_tol)
        if iso and s is not None and t_mult.rank:
            scale = max(1.0, float(np.max(np.abs(s))))
            residual = max(
                float(np.max(np.abs(s @ np.asarray(m1) - np.asarray(m2) @ s))) / scale
                for m1, m2 in zip(t_mult.matrices, t_restr.matrices)
            )
    return CompatibilityReport(
        base=tuple(str(b) for b in (base if isinstance(base, (list, tuple)) else [base])),
        n=ext0.monodromy.npoints,
        rank_multiplicative=t_mult.rank,
        rank_restricted=t_restr.rank,
        charpoly_deviation=dev,
        isomorphic=iso,
        intertwiner_residual=residual,
        generator_charpolys=table,
        product_residuals=(ext0.product_residual, ext1.product_residual),
        kernel_dims=(kdim, ldim),
        mc_system=mc_sys,
        warnings=warnings,
    )

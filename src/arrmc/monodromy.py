"""Numeric analytic continuation along loops and the compatibility check.

The fundamental matrix F of dF/dy = A(y) F, F(start) = Id, is transported
along polyline loops with an adaptive Dormand-Prince 5(4) step.  Transport
matrices compose so that the ordered product M_1 ... M_n over the standard
loops equals the transport around a large counterclockwise circle; the
monodromy at infinity is its inverse, and this identity is checked against
the integrator output on every tuple extraction.

All polylines of one extraction start from the identity at the base point,
so they are integrated as one batch: every pass makes one step attempt per
unfinished polyline, evaluates A at the six new stage points of all of them
in one call, and forms the stage combinations as one batched product.  The
seventh stage is evaluated at the accepted solution, so it is the first
stage of the next step (first same as last) and is only recomputed where a
polyline turns a corner.  Each polyline keeps its own step size and step
rule, so its transport does not depend on what else is in the batch.
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

# Dormand-Prince 5(4).  Row i of _DP_A weighs stages 1..7 in the input of
# stage i + 2.  The last row is the fifth-order solution, so stage 7 is
# evaluated at the accepted point and is the first stage of the next step.
_DP_A = np.array(
    [
        [1 / 5, 0, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
        [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    ]
)
_DP_C = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1])  # stages 2..7
_DP_B4 = np.array([5179 / 57600, 0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
# the stage weights, then the error weights b5 - b4; scaled by h once per pass
_DP_W = np.vstack([_DP_A, _DP_A[-1] - _DP_B4]).astype(complex)

_MIN_STEP = 1e-13
_MAX_STEPS = 400_000


class _Track:
    """Step state of one polyline: its current segment start + t * d, the
    step size h and the steps taken on the segment."""

    __slots__ = ("index", "points", "seg", "start", "d", "seg_len", "t", "h", "steps")

    def __init__(self, index: int, points):
        self.index = index
        self.points = points
        self.seg = -1

    def next_segment(self, poles) -> bool:
        """Move to the next segment of nonzero length and begin its first
        step; False when the polyline is exhausted."""
        while True:
            self.seg += 1
            if self.seg + 1 >= len(self.points):
                return False
            self.start = self.points[self.seg]
            self.d = self.points[self.seg + 1] - self.start
            self.seg_len = abs(self.d)
            if self.seg_len != 0.0:
                break
        self.t = 0.0
        self.h = 0.1
        self.steps = 0
        self.begin_step(poles)
        return True

    def begin_step(self, poles) -> None:
        """Count the step and cap h so it stays inside the segment and moves
        at most half the distance to the nearest pole."""
        self.steps += 1
        if self.steps > _MAX_STEPS:
            raise ToleranceNotMet("step budget exhausted on a segment")
        y = self.start + self.t * self.d
        dist = min((abs(y - q) for q in poles), default=math.inf)
        cap = 1.0 - self.t
        if math.isfinite(dist):
            cap = min(cap, 0.5 * dist / self.seg_len)
        if cap < _MIN_STEP:
            raise StepUnderflow("step size underflow; path too close to a pole")
        self.h = min(self.h, cap)


def _first_stages(ode: FuchsianODE, tracks, f: np.ndarray) -> np.ndarray:
    """A(start) F d at the start of each track's segment."""
    d = np.array([tr.d for tr in tracks])
    a = ode.coefficient(np.array([tr.start for tr in tracks])) * d[:, None, None]
    return a @ f


def _transport_polylines(ode: FuchsianODE, polylines, tol: float) -> list[np.ndarray]:
    """Transport F = Id from the first point of each polyline to its last.

    All polylines advance together: each pass makes one Dormand-Prince
    attempt on every live trajectory, evaluates the coefficient at all their
    new stage points in one call and combines the stages in one batched
    product.  The step rule of a trajectory does not depend on the others,
    so each result equals the transport of its polyline alone.
    """
    dim = ode.dim
    out: list = [np.eye(dim, dtype=complex) for _ in polylines]
    tracks = [_Track(i, points) for i, points in enumerate(polylines)]
    live = [tr for tr in tracks if tr.next_segment(ode.poles)]
    f = np.tile(np.eye(dim, dtype=complex), (len(live), 1, 1))
    k1 = _first_stages(ode, live, f)
    while live:
        b = len(live)
        h = np.array([tr.h for tr in live])
        t = np.array([tr.t for tr in live])
        start = np.array([tr.start for tr in live])
        d = np.array([tr.d for tr in live])
        y = start[:, None] + (t[:, None] + _DP_C * h[:, None]) * d[:, None]
        a = ode.coefficient(y) * d[:, None, None, None]
        hw = h[:, None, None] * _DP_W
        k = np.zeros((b, 7, dim, dim), dtype=complex)
        k[:, 0] = k1
        kf = k.reshape(b, 7, dim * dim)
        for i in range(6):
            fi = f + (hw[:, i : i + 1] @ kf).reshape(b, dim, dim)
            k[:, i + 1] = a[:, i] @ fi
        f5 = fi
        errs = np.abs(hw[:, 6:] @ kf).max(axis=(1, 2), initial=0.0).tolist()
        fmax = np.abs(f5).max(axis=(1, 2), initial=0.0).tolist()
        accepted, entered, keep = [], [], []
        for j, tr in enumerate(live):
            err, limit = errs[j], tol * max(1.0, fmax[j])
            if err <= limit:
                accepted.append(j)
                tr.t += tr.h
                grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (limit / err) ** 0.2))
                tr.h = min(max(tr.h * grow, _MIN_STEP), 0.5)
                if tr.t < 1.0:
                    tr.begin_step(ode.poles)
                elif tr.next_segment(ode.poles):
                    entered.append(j)
                else:
                    out[tr.index] = f5[j].copy()
                    continue
            else:
                tr.h *= max(0.1, 0.9 * (limit / err) ** 0.25)
                if tr.h < _MIN_STEP:
                    raise StepUnderflow("step size underflow; path too close to a pole")
            keep.append(j)
        f[accepted] = f5[accepted]
        k1[accepted] = k[accepted, 6]
        if entered:
            k1[entered] = _first_stages(ode, [live[j] for j in entered], f[entered])
        if len(keep) < b:
            live = [live[j] for j in keep]
            f, k1 = f[keep], k1[keep]
    return out


def transport_along_loop(ode: FuchsianODE, path: LoopPath, tol: float = 1e-10) -> np.ndarray:
    """Fundamental-matrix transport around a validated loop."""
    if tol <= 0:
        raise ToleranceNotMet("tolerance must be positive")
    validate_loop(path, ode.poles)
    return _transport_polylines(ode, [path.points], tol)[0]


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
    labels = [ode.labels[i] for i in order]
    mats = []
    residual = 0.0
    if loops:
        big = enclosing_polyline(ode.poles, base)
        *mats, t_big = _transport_polylines(ode, [path.points for path in loops] + [big], tol)
        prod = np.eye(ode.dim, dtype=complex)
        for m in mats:
            prod = prod @ m
        scale = max(1.0, float(np.max(np.abs(t_big), initial=0.0)))
        residual = float(np.max(np.abs(prod - t_big), initial=0.0)) / scale
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

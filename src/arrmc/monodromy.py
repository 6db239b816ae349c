"""Numeric analytic continuation along loops and the compatibility check.

The fundamental matrix F of dF/dy = A(y) F, F(start) = Id, is transported
along polyline loops by Taylor steps over a chain of discs (after
Chudnovsky-Chudnovsky 1990 and Mezzarobba 2010).  Each step z from a center
c satisfies |z| <= theta * rho(c), rho(c) being the distance to the nearest
pole and theta = min(1/3, 1/S) with S = sum_k ||R_k||_2, so the majorant
(1 - z/rho)^(-S) bounds the truncation error a priori: one order per ODE,
no step rejection and no run-time error estimate.  Transport matrices compose so that the ordered
product M_1 ... M_n over the standard loops equals the transport around a
large counterclockwise circle; the monodromy at infinity is its inverse,
and this identity is checked on every tuple extraction.

The disc chain depends only on the geometry, so the propagators of all
discs of all polylines of one extraction are independent: they are
computed as one batch, in chunks that follow a working-set budget rather
than a fixed disc count, with one running sum per pole in the Taylor
recurrence: each order is one 2-D product over the chunk's running sums.
The polylines multiply their chains together, one stacked product per
disc index.  A ``LoopGeometry`` holds the loops, the enclosing polyline
and their discs per step fraction; ``verify_mc_compatibility`` builds one
and shares it between its two extractions.  The order of summation in
these products may change between versions, so report floats may move by
round-off, within the golden tolerance of 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import middle_convolve_with_kernel_dims
from .errors import AssumptionFail, StepUnderflow, ToleranceNotMet
from .fuchsian import FuchsianODE, LoopPath, enclosing_polyline, standard_loops, validate_loop
from .katz import (
    CharacterValue,
    MonodromyTuple,
    multiplicative_kernels,
    quotient_by_fixed_spaces,
    tuple_isomorphism,
)
from .pfaffian import (
    ConvolutionParameter,
    GenericityReport,
    PfaffianSystem,
    check_assumption_generic,
    fiber_restriction,
)

# Each disc step z from a center c satisfies |z| <= theta * rho(c), where
# rho(c) is the distance from c to the nearest pole and theta is at most
# _THETA (see _step_and_order).
_THETA = 1 / 3
_MIN_STEP = 1e-13
_MAX_STEPS = 400_000
_MAX_ORDER = 10_000
# elements of the running sums of one batched recurrence, b discs * dim^2 *
# poles: 64 discs at rank 4 with 4 poles; bounds the working set
_BUDGET = 4096
# largest relative gap between the ordered product of the loop transports and
# the transport along the enclosing loop
_CONSISTENCY_TOL = 1e-6


def _disc_chain(points, poles, theta: float) -> list[tuple[complex, complex]]:
    """(center, step) of every disc along the polyline, in path order.

    Each segment a -> b is walked from a with steps of length
    theta * rho(center); the last disc of a segment lands exactly on b.
    """
    discs: list[tuple[complex, complex]] = []
    for a, b in zip(points[:-1], points[1:]):
        d = b - a
        seg_len = abs(d)
        if seg_len == 0.0:
            continue
        unit = d / seg_len
        c, walked = a, 0.0
        for _ in range(_MAX_STEPS):
            reach = theta * min([abs(c - q) for q in poles]) if poles else math.inf
            if reach < _MIN_STEP * seg_len:
                raise StepUnderflow("step size underflow; path too close to a pole")
            if walked + reach >= seg_len:
                discs.append((c, b - c))
                break
            walked += reach
            nxt = a + walked * unit
            discs.append((c, nxt - c))
            c = nxt
        else:
            raise ToleranceNotMet("step budget exhausted on a segment")
    return discs


def _step_and_order(ode: FuchsianODE, tol: float) -> tuple[float, int]:
    """Step fraction theta and truncation order N of every disc sum of ``ode``.

    With S = sum_k ||R_k||_2, the series (1 - z/rho)^(-S) majorizes the
    propagator of a disc with |z| <= theta * rho, term by term.  theta is
    min(_THETA, 1/S), so the sum of the majorant's terms, (1 - theta)^(-S),
    stays below 27/8 however large S is: large residues cost more, shorter
    discs rather than cancellation among large terms.  The tail past order
    N is at most sum_{m>N} binom(S+m-1, m) theta^m, and N is the first
    order at which the geometric bound on that tail falls to ``tol``.  A
    ``tol`` below the round-off floor N * eps * (1 - theta)^(-S) of the sum
    is refused.
    """
    residues = np.array(ode.residues, dtype=complex).reshape(len(ode.poles), ode.dim, ode.dim)
    s = sum(float(x) for x in np.linalg.svd(residues, compute_uv=False).max(axis=1, initial=0.0))
    theta = min(_THETA, 1.0 / s) if s > 0 else _THETA
    n, term = 0, s * theta  # term = binom(S+n, n+1) theta^(n+1)
    while True:
        ratio = theta * max(1.0, (s + n + 1) / (n + 2))
        if ratio < 1.0 and term / (1.0 - ratio) <= tol:
            break
        n += 1
        term *= theta * (s + n) / (n + 1)
        if n > _MAX_ORDER:
            raise ToleranceNotMet(f"no truncation order up to {_MAX_ORDER} meets tolerance {tol:g}")
    floor = n * np.finfo(float).eps * (1.0 - theta) ** -s
    if tol < floor:
        raise ToleranceNotMet(
            f"tolerance {tol:.3e} is below the round-off floor {floor:.3e} "
            f"of the order-{n} disc sum"
        )
    return theta, n


def _chunk_discs(ode: FuchsianODE) -> int:
    """Discs per batched recurrence: its running sums hold b * dim^2 * poles
    elements, kept within _BUDGET."""
    return max(1, _BUDGET // max(1, ode.dim * ode.dim * len(ode.poles)))


def _disc_propagators(ode: FuchsianODE, discs, order: int) -> np.ndarray:
    """Phi(z) = sum_{m<=order} G_m with G_m = F_m z^m, F(c) = Id, per disc.

    With u_k = z / (q_k - c), z^(i+1) A_i = -sum_k R_k u_k^(i+1), so the
    recurrence (m+1) G_{m+1} = sum_{i<=m} (z^(i+1) A_i) G_{m-i} becomes
    (m+1) G_{m+1} = -[R_1 | ... | R_n] [S_1; ...; S_n] with one running sum
    per pole, S_k(m) = u_k (G_m + S_k(m-1)): n dim^3 work per disc and order.

    G and the S_k are kept transposed, the S_k of one disc side by side in
    dim rows of one (b dim) x (n dim) matrix S over the batch of b discs, so
    each order is one 2-D product G^T = S B_m, B_m being the stacked R_k^T
    over -(m+1).  The running sums advance as S <- U * (S + G^T E), where
    E = [Id | ... | Id] repeats G^T once per pole (exactly: its entries are
    0 and 1) and U holds u_k per disc and pole: whole-array updates, with no
    broadcast temporaries.  A product over stacked rows computes each
    disc's rows alone, so a disc's propagator does not depend on the rest of
    the batch.
    """
    dim, n = ode.dim, len(ode.poles)
    centers, steps = np.asarray(discs, dtype=complex).reshape(-1, 2).T
    b = len(centers)
    if b * dim == 1:
        # numpy multiplies a single row on a vector path of its own; two
        # rows take the product that every larger batch takes
        return _disc_propagators(ode, [(centers[0], steps[0])] * 2, order)[:1]
    u = (steps / (np.array(ode.poles, dtype=complex)[:, None] - centers)).T
    u = np.ascontiguousarray(np.broadcast_to(u[:, None, :, None], (b, dim, n, dim)))
    u = u.reshape(b * dim, n * dim)
    stack = np.array(ode.residues, dtype=complex).reshape(n, dim, dim).transpose(0, 2, 1)
    stack = stack.reshape(n * dim, dim)
    b_m = stack / -np.arange(1, order + 1)[:, None, None]
    spread = np.tile(np.eye(dim, dtype=complex), n)
    phi = np.tile(np.eye(dim, dtype=complex), (b, 1))  # phi[c dim + l, i] = Phi[i, l] of disc c
    t = phi @ spread  # G_0^T + S_k(-1)^T for every pole k, S_k(-1) = 0
    s = t * u
    g = np.empty_like(phi)
    for m in range(order):
        np.matmul(s, b_m[m], out=g)
        phi += g
        if m + 1 < order:
            np.matmul(g, spread, out=t)
            t += s
            np.multiply(t, u, out=s)
    return phi.reshape(b, dim, dim).transpose(0, 2, 1)


@dataclass(frozen=True)
class _Discs:
    """The discs of some polylines laid out by disc index: rows starts[j] to
    starts[j + 1] hold disc j of every polyline that has one, longest chains
    first, and rank[i] is polyline i's place in that order."""

    rows: np.ndarray  # (center, step)
    starts: tuple[int, ...]
    rank: tuple[int, ...]


def _lay_out_discs(polylines, poles, theta: float) -> _Discs:
    """The disc chains of ``polylines`` at step fraction ``theta``, laid out."""
    chains = [_disc_chain(points, poles, theta) for points in polylines]
    by_length = sorted(range(len(chains)), key=lambda i: -len(chains[i]))
    rows, starts = [], [0]
    for j in range(len(chains[by_length[0]]) if chains else 0):
        rows += [chains[i][j] for i in by_length if j < len(chains[i])]
        starts.append(len(rows))
    rank = [0] * len(chains)
    for r, i in enumerate(by_length):
        rank[i] = r
    return _Discs(np.array(rows, dtype=complex).reshape(-1, 2), tuple(starts), tuple(rank))


def _transport_discs(ode: FuchsianODE, discs: _Discs, order: int) -> list[np.ndarray]:
    """Transport F = Id along each polyline whose discs ``discs`` holds.

    The propagators are computed _chunk_discs at a time (which bounds the
    working set), and each chunk is multiplied into the transports before
    the next one is computed: the polylines advance together, one stacked
    product per disc index, and the polylines still going at disc j are the
    first ones in ``discs.rank`` order.  A disc's propagator does not depend
    on the rest of its chunk, so each result is bitwise the transport of its
    polyline alone.
    """
    rows, starts, dim = discs.rows, discs.starts, ode.dim
    out = np.empty((len(discs.rank), dim, dim), dtype=complex)
    out[:] = np.eye(dim)
    chunk = _chunk_discs(ode)
    j = 0
    for lo in range(0, len(rows), chunk):
        hi = min(lo + chunk, len(rows))
        phis = _disc_propagators(ode, rows[lo:hi], order)
        a = lo
        while a < hi:
            while starts[j + 1] <= a:
                j += 1
            b = min(starts[j + 1], hi)
            p, q = a - starts[j], b - starts[j]
            out[p:q] = phis[a - lo : b - lo] @ out[p:q]
            a = b
    return [out[r] for r in discs.rank]


def _transport_polylines(ode: FuchsianODE, polylines, tol: float) -> list[np.ndarray]:
    """Transport F = Id from the first point of each polyline to its last."""
    theta, order = _step_and_order(ode, tol)
    return _transport_discs(ode, _lay_out_discs(polylines, ode.poles, theta), order)


def transport_along_loop(ode: FuchsianODE, path: LoopPath, tol: float = 1e-10) -> np.ndarray:
    """Fundamental-matrix transport around a validated loop."""
    if tol <= 0:
        raise ToleranceNotMet("tolerance must be positive")
    validate_loop(path, ode.poles)
    return _transport_polylines(ode, [path.points], tol)[0]


class LoopGeometry:
    """The standard loops around ``poles`` from ``basepoint`` and the
    enclosing polyline, built once, and their discs for each step fraction
    theta, laid out once per theta.  Extractions of systems with the same
    poles and base point share it."""

    def __init__(self, poles, basepoint: complex):
        self.poles, self.basepoint = tuple(poles), basepoint
        self.base, loops, self.order = standard_loops(self.poles, basepoint)
        self.polylines = [path.points for path in loops]
        if loops:
            self.polylines.append(enclosing_polyline(self.poles, self.base))
        self._discs: dict = {}

    def fits(self, ode: FuchsianODE) -> bool:
        return self.poles == ode.poles and self.basepoint == ode.basepoint

    def transports(self, ode: FuchsianODE, tol: float) -> list[np.ndarray]:
        """The transports of ``ode`` along the loops, then the enclosing polyline."""
        theta, order = _step_and_order(ode, tol)
        if theta not in self._discs:
            self._discs[theta] = _lay_out_discs(self.polylines, self.poles, theta)
        return _transport_discs(ode, self._discs[theta], order)


@dataclass(frozen=True)
class TupleExtraction:
    monodromy: MonodromyTuple
    basepoint: complex
    product_residual: float
    infinity_residue: np.ndarray


def monodromy_tuple_of_ode(
    ode: FuchsianODE, tol: float = 1e-10, loops: LoopGeometry | None = None
) -> TupleExtraction:
    """The monodromy tuple of ``ode`` along its standard loops.  ``loops``,
    if given and built for the same poles and base point, is reused."""
    if loops is None or not loops.fits(ode):
        loops = LoopGeometry(ode.poles, ode.basepoint)
    labels = [ode.labels[i] for i in loops.order]
    mats = []
    residual = 0.0
    if loops.polylines:
        *mats, t_big = loops.transports(ode, tol)
        prod = np.eye(ode.dim, dtype=complex)
        for m in mats:
            prod = prod @ m
        scale = max(1.0, float(np.max(np.abs(t_big), initial=0.0)))
        residual = float(np.max(np.abs(prod - t_big), initial=0.0)) / scale
        if residual > _CONSISTENCY_TOL:
            raise ToleranceNotMet(
                f"loop product inconsistent with the enclosing transport: {residual:.3e}"
            )
    t = MonodromyTuple(ode.dim, tuple(mats), False, tuple(labels))
    return TupleExtraction(t, loops.base, residual, ode.residue_at_infinity())


def monodromy_tuple_of_system(sys: PfaffianSystem, y, base, tol: float = 1e-10) -> TupleExtraction:
    """Fiber restriction followed by loop transports in the standard
    convention; punctures are ordered by (real, imaginary) part."""
    ode = fiber_restriction(sys, y, base)
    return monodromy_tuple_of_ode(ode, tol)


# ---------------------------------------------------------------------------
# the compatibility check


@dataclass(frozen=True)
class CompatibilityReport:
    """Side-by-side evidence for one base point.

    ``multiplicative`` is the middle convolution of the fiber tuple of the
    input system; ``restricted`` is the fiber tuple of the middle-convolved
    system ``mc_system``.  They must be isomorphic as tuples.
    """

    rank_multiplicative: int
    rank_restricted: int
    charpoly_deviation: float
    isomorphic: bool
    intertwiner_residual: float | None
    generator_charpolys: dict
    product_residuals: tuple[float, float]
    mc_system: PfaffianSystem

    @property
    def ok(self) -> bool:
        return self.isomorphic and self.rank_multiplicative == self.rank_restricted


def _charpoly_table(t1: MonodromyTuple, t2: MonodromyTuple):
    table = {}
    dev = 0.0
    for i, (p1, p2) in enumerate(zip(t1.charpolys, t2.charpolys)):
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
    *,
    genericity: GenericityReport | None = None,
) -> CompatibilityReport:
    """Check that the multiplicative middle convolution of the fiber tuple
    matches the fiber tuple of the additive middle convolution.

    The character is exp(2*pi*i*lambda).  Raises AssumptionFail before any
    integration when the eigenvalue genericity fails.  Under that assumption
    the numeric fixed-space dimensions provably equal the exact additive
    kernel dimensions, so a disagreement certifies that the fiber tuple is
    too ill-conditioned for ``rank_tol`` and raises ToleranceNotMet instead
    of reporting a bogus verdict.  ``genericity`` is the caller's
    ``check_assumption_generic(sys, y, lam)``, if it has one.
    """
    gen = check_assumption_generic(sys, y, lam) if genericity is None else genericity
    if not gen.ok:
        raise AssumptionFail(f"integer eigenvalue obstruction: {gen.offenders}")

    ode0 = fiber_restriction(sys, y, base)
    loops = LoopGeometry(ode0.poles, ode0.basepoint)
    ext0 = monodromy_tuple_of_ode(ode0, tol, loops)
    character = CharacterValue.from_exponent(lam.value)
    kernels = multiplicative_kernels(ext0.monodromy, character, rank_tol)
    t_mult = quotient_by_fixed_spaces(ext0.monodromy, kernels, rank_tol)
    kdim, ldim = (cols.shape[1] for cols in kernels[:2])
    mc_sys, k_exact, l_exact = middle_convolve_with_kernel_dims(sys, y, lam)
    if (kdim, ldim) != (k_exact, l_exact):
        conds = ", ".join(f"{c:.2e}" for c in ext0.monodromy.condition_numbers())
        raise ToleranceNotMet(
            f"numeric fixed-space dimensions ({kdim}, {ldim}) disagree with the "
            f"exact kernels ({k_exact}, {l_exact}); generator condition "
            f"numbers [{conds}] exceed what the rank threshold {rank_tol:g} resolves"
        )

    ext1 = monodromy_tuple_of_ode(fiber_restriction(mc_sys, y, base), tol, loops)
    t_restr = ext1.monodromy

    table, dev, iso, residual = {}, math.inf, False, None
    if t_mult.rank == t_restr.rank:
        table, dev = _charpoly_table(t_mult, t_restr)
        iso, s = tuple_isomorphism(t_mult, t_restr, iso_tol)
        if iso and s is not None and t_mult.rank:
            scale = max(1.0, float(np.max(np.abs(s))))
            residual = max(
                float(np.max(np.abs(s @ np.asarray(m1) - np.asarray(m2) @ s))) / scale
                for m1, m2 in zip(t_mult.matrices, t_restr.matrices)
            )
    return CompatibilityReport(
        rank_multiplicative=t_mult.rank,
        rank_restricted=t_restr.rank,
        charpoly_deviation=dev,
        isomorphic=iso,
        intertwiner_residual=residual,
        generator_charpolys=table,
        product_residuals=(ext0.product_residual, ext1.product_residual),
        mc_system=mc_sys,
    )

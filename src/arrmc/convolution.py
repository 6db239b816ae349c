"""Additive convolution and middle convolution along a line direction.

The convolution of a system with parameter lambda lives on the tensor space
V = E (x) C^n, one block per hyperplane transverse to the line, over the
original arrangement enlarged by the shifts of rank-two transverse flats;
that arrangement, and the hyperplane each shift lands on, are
``Arrangement.along(y).enlarged``.
Middle convolution quotients V by two invariant subspaces, the blockwise
residue kernels K and the diagonal kernel L of (sum of residues + lambda).
It runs on W = (+)_p im A_p = V/K, never on V, and decides integrability on
the input; ``convolve`` builds V for its own report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations

from .arrangement import Arrangement, LineDirection, is_good_line
from .errors import (
    DimensionMismatch,
    InputError,
    InternalError,
    NotGoodLine,
    ParameterIntegral,
    StarConditionsFail,
)
from .linalg import (
    Matrix,
    Vector,
    echelon,
    identity,
    integer_nonzero_rows,
    integer_rows,
    invariant_projection,
    invertible_intertwiner,
    mat_add,
    mat_mul,
    mat_scale,
    mul_nonzero,
    nonzero_rows,
    rank,
    row_and_null_space,
    rref,
    transpose,
)
from .pfaffian import (
    ConvolutionParameter,
    PfaffianSystem,
    check_star_conditions,
)


@dataclass(frozen=True)
class ConvolutionResult:
    """Convolved system plus the block bookkeeping needed downstream.

    ``block_order`` fixes the ordering of the transverse hyperplanes
    indexing the tensor factor; ``block_kernel_basis`` spans the blockwise
    residue kernels (one block per transverse hyperplane), and
    ``diagonal_kernel_basis`` spans the kernel of (residue sum + lambda)
    embedded diagonally.  Their direct sum is invariant under every residue.
    """

    system: PfaffianSystem
    block_order: tuple[str, ...]
    block_kernel_basis: tuple[Vector, ...]
    diagonal_kernel_basis: tuple[Vector, ...]


def residue_kernels(
    sys: PfaffianSystem, y: LineDirection, lam: ConvolutionParameter
) -> tuple[list[tuple[Matrix, list[Vector]]], list[Vector]]:
    """The reduced rows and the kernel basis of each transverse residue, in
    block order, from one ``rref`` each, and the kernel basis of (the sum of
    the transverse residues + lambda)."""
    d = sys.dim_e
    blocks = [row_and_null_space(sys.residues[lbl], d) for lbl in sys.arrangement.along(y).blocks]
    shifted = mat_add(sys.transverse_sum(y), mat_scale(identity(d), lam.value))
    return blocks, row_and_null_space(shifted, d)[1]


def kernel_subspaces(
    sys: PfaffianSystem, y: LineDirection, lam: ConvolutionParameter
) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Column bases of the blockwise kernels and of the diagonal kernel.

    The two spans always intersect trivially; this is asserted.
    """
    blocks, diagonal = residue_kernels(sys, y, lam)
    n, d = len(blocks), sys.dim_e
    zero = (Fraction(0),)
    k_cols = [zero * (p * d) + v + zero * ((n - 1 - p) * d) for p, (_, ker) in enumerate(blocks) for v in ker]
    l_cols = [v * n for v in diagonal]
    joint = k_cols + l_cols
    if joint and rank(tuple(joint)) != len(joint):
        raise InternalError("blockwise and diagonal kernels intersect nontrivially")
    return tuple(k_cols), tuple(l_cols)


def _accumulate(
    sys: PfaffianSystem, y: LineDirection, lam: ConvolutionParameter, left: list, require_good: bool
) -> tuple[Arrangement, dict[str, Matrix]]:
    """The convolution's arrangement, and its residues with block row p
    multiplied on the left by ``left[p]``, an integer matrix with d columns;
    the products with the residues are taken in integers.

    Transverse hyperplanes get one full block row, parallel ones act
    blockwise diagonally, and the shift X + Y of each rank-two flat X
    receives the antisymmetrized contribution of every transverse pair
    through X (two transverse hyperplanes meet in exactly one such X).
    Contributions landing on the same hyperplane (always, for a good line)
    are summed into a single residue; the arrangement and the label of each
    shift are ``Arrangement.along(y).enlarged``.
    """
    arr, view, d = sys.arrangement, sys.arrangement.along(y), sys.dim_e
    order = view.blocks
    if not order:
        raise InputError("no hyperplane is transverse to the line; nothing to convolve")
    if require_good:
        good, witness = is_good_line(arr, y)
        if not good:
            raise NotGoodLine(f"line is not good; offending rank-two flat {witness.rows}")
    pos = {lbl: p for p, lbl in enumerate(order)}
    offsets = list(accumulate(map(len, left), initial=0))
    width = len(order) * d
    integer = {lbl: integer_nonzero_rows(m) for lbl, m in sys.residues.items()}
    acc: dict[str, list[list[Fraction]]] = {}

    def add(target: str, p: int, q: int, m: Matrix, negate: bool = False) -> None:
        if target not in acc:
            acc[target] = [[Fraction(0)] * width for _ in range(offsets[-1])]
        for row, tr in zip(m, acc[target][offsets[p]:offsets[p + 1]]):
            for j, x in enumerate(row, q * d):
                if x:
                    tr[j] = tr[j] - x if negate else tr[j] + x

    @cache
    def product(p: int, lbl: str) -> Matrix:
        den, rows = integer[lbl]
        num = mul_nonzero(left[p], rows, d, zero=0)
        return tuple(tuple(Fraction(x, den) for x in r) for r in num)

    for p, lbl in enumerate(order):
        for q, lbl2 in enumerate(order):
            add(lbl, p, q, product(p, lbl2))
        add(lbl, p, p, mat_scale(left[p], lam.value))
    for h in view.parallel:
        for p in range(len(order)):
            add(h.label, p, p, product(p, h.label))
    merged, shift_labels = view.enlarged
    for (x, _), target in zip(view.shifts, shift_labels):
        through = [lbl for lbl in order if lbl in x.containing]
        for lbl1, lbl2 in combinations(through, 2):
            p1, p2 = pos[lbl1], pos[lbl2]
            add(target, p2, p2, product(p2, lbl1))
            add(target, p2, p1, product(p2, lbl1), negate=True)
            add(target, p1, p1, product(p1, lbl2))
            add(target, p1, p2, product(p1, lbl2), negate=True)
    zero = [[Fraction(0)] * width for _ in range(offsets[-1])]
    residues = {h.label: tuple(map(tuple, acc.get(h.label, zero))) for h in merged.hyperplanes}
    return merged, residues


def convolve(
    sys: PfaffianSystem,
    y: LineDirection,
    lam: ConvolutionParameter,
    require_good: bool = True,
) -> ConvolutionResult:
    """Convolution along the line with the given parameter on the n d space
    V, checked integrable, with both kernels asserted invariant."""
    d, order = sys.dim_e, sys.arrangement.along(y).blocks
    unit = [[int(i == j) for j in range(d)] for i in range(d)]
    merged, residues = _accumulate(sys, y, lam, [unit] * len(order), require_good)
    out = PfaffianSystem.make(merged, len(order) * d, residues, check=True)
    k_cols, l_cols = kernel_subspaces(sys, y, lam)
    mats = list(out.residues.values())
    invariant_projection(mats, list(k_cols), out.dim_e, "blockwise kernel")
    invariant_projection(mats, list(l_cols), out.dim_e, "diagonal kernel")
    return ConvolutionResult(out, order, k_cols, l_cols)


def middle_convolve_with_kernel_dims(
    sys: PfaffianSystem, y: LineDirection, lam: ConvolutionParameter, require_good: bool = True
) -> tuple[PfaffianSystem, int, int]:
    """The middle convolution, and the dimensions of the blockwise and the
    diagonal kernel K and L, computed on W = (+)_p im A_p, never on the n d
    space V of ``convolve``.

    phi = diag(phi_p), phi_p independent rows of A_p, maps V onto W with
    kernel K (Dettweiler-Reiter 2007); a residue M enters only as phi M,
    whose block (p, q) is phi_p M_pq.  K is invariant iff every
    phi_p M_pq N_q = 0, N_q a kernel basis of A_q; L is invariant modulo K
    iff phi M L lies in phi(L); K meets L trivially iff phi(L) has full
    rank.  The presentation is ``linalg.quotient``'s by K + L: e_j is in the
    complement C iff phi(e_j) is not in the span of phi(L) and the phi(e_i)
    before it, and a residue is the C-rows of [phi(L) | phi(e_C)]^-1 phi M e_C.
    Integrability is decided on the input; a non-integrable one goes through
    ``convolve``, whose refusal names the convolution's witness.
    """
    if not sys.integrability.ok:
        convolve(sys, y, lam, require_good)
    blocks, diagonal = residue_kernels(sys, y, lam)
    n, d = len(blocks), sys.dim_e
    phis = [integer_rows(red) for red, _ in blocks]
    merged, residues = _accumulate(sys, y, lam, phis, require_good)
    # the rows of phi M that are not zero (a transverse residue has r_p of
    # them) and the kernel vectors, each scaled to integers
    live = [integer_rows([r for r in m if any(r)]) for m in residues.values()]
    for q, (_, ker) in enumerate(blocks):
        ker_rows = nonzero_rows(transpose(integer_rows(ker)))
        for m in live:
            on_ker = mul_nonzero([r[q * d:(q + 1) * d] for r in m], ker_rows, len(ker), zero=0)
            if any(map(any, on_ker)):
                raise InternalError("blockwise kernel is not invariant; quotient ill-defined")

    ell = len(diagonal)
    diag_cols = nonzero_rows(transpose(diagonal))
    # the rows of [phi(L) | phi(e_0) ... phi(e_(nd-1))]; its pivot columns
    # are the greedy choice, phi(L) first
    zero = (Fraction(0),)
    spans = [
        l_row + zero * (p * d) + tuple(r) + zero * ((n - 1 - p) * d)
        for p, phi in enumerate(phis)
        for l_row, r in zip(mul_nonzero(phi, diag_cols, ell), phi)
    ]
    pivots = echelon(integer_rows(spans))[1]
    if pivots[:ell] != list(range(ell)):
        raise InternalError("blockwise and diagonal kernels intersect nontrivially")
    comp = [j - ell for j in pivots[ell:]]
    basis = [s[:ell] + tuple(s[ell + c] for c in comp) + e for s, e in zip(spans, identity(len(spans)))]
    # the C-rows of [phi(L) | phi(e_C)]^-1
    inverse = tuple(r[len(spans):] for r in rref(tuple(basis))[0][ell:])

    out = {}
    for lbl, m in residues.items():
        if ell:
            folded = tuple(tuple(sum(x for x in r[i::d] if x) for i in range(d)) for r in m)
            if any(map(any, mat_mul(inverse, mul_nonzero(folded, diag_cols, ell)))):
                raise InternalError("diagonal kernel is not invariant; quotient ill-defined")
        out[lbl] = mat_mul(inverse, tuple(tuple(r[c] for c in comp) for r in m))
    kdim = sum(len(ker) for _, ker in blocks)
    return PfaffianSystem.make(merged, len(comp), out, check=False), kdim, ell


def middle_convolve(
    sys: PfaffianSystem,
    y: LineDirection,
    lam: ConvolutionParameter,
    require_good: bool = True,
) -> PfaffianSystem:
    """The quotient of the convolution by its two invariant kernels,
    computed on the residue images (``middle_convolve_with_kernel_dims``)."""
    return middle_convolve_with_kernel_dims(sys, y, lam, require_good)[0]


# ---------------------------------------------------------------------------
# isomorphism of systems


def is_isomorphic(
    s1: PfaffianSystem, s2: PfaffianSystem
) -> tuple[bool, Matrix | None]:
    """Invertible S with S A1_H = A2_H S for every hyperplane, if one exists.

    Residues are paired by canonical hyperplane form, so labels may differ.
    """
    if not s1.arrangement.same_hyperplanes(s2.arrangement):
        raise DimensionMismatch("systems live on different arrangements")
    if s1.dim_e != s2.dim_e:
        return False, None
    d = s1.dim_e
    if d == 0:
        return True, ()
    by_key2 = {
        (h.coeffs, h.constant): s2.residues[h.label] for h in s2.arrangement.hyperplanes
    }
    pairs = [
        (s1.residues[h.label], by_key2[(h.coeffs, h.constant)])
        for h in s1.arrangement.hyperplanes
    ]
    s = invertible_intertwiner(pairs, d)
    return s is not None, s


@dataclass(frozen=True)
class CompositionReport:
    parameters: tuple[Fraction, Fraction]
    star_ok: bool
    intermediate_star_ok: bool
    dims: dict[str, int]
    additive_law_holds: bool
    inverse_law_holds: bool
    additive_intertwiner: Matrix | None
    inverse_intertwiner: Matrix | None

    @property
    def ok(self) -> bool:
        return self.additive_law_holds and self.inverse_law_holds


def verify_composition_law(
    sys: PfaffianSystem,
    y: LineDirection,
    lam: ConvolutionParameter,
    mu: ConvolutionParameter,
) -> CompositionReport:
    """Check mc_mu . mc_lam ~ mc_{lam+mu} and mc_{-lam} . mc_lam ~ id.

    The star conditions are required on the input; they are re-checked on
    the intermediate system and reported rather than assumed.
    """
    star = check_star_conditions(sys, y)
    if not star.ok:
        raise StarConditionsFail(f"input fails star conditions: {star.failures}")
    total = lam.value + mu.value
    if total.denominator == 1:
        raise ParameterIntegral("lambda + mu is an integer; first law undefined")

    first = middle_convolve(sys, y, lam)
    star_mid = check_star_conditions(first, y)

    composed = middle_convolve(first, y, mu)
    direct = middle_convolve(sys, y, ConvolutionParameter.make(total))
    iso1, s1 = is_isomorphic(composed, direct)

    back = middle_convolve(first, y, lam.negated())
    iso2, s2 = is_isomorphic(back, sys)

    return CompositionReport(
        parameters=(lam.value, mu.value),
        star_ok=star.ok,
        intermediate_star_ok=star_mid.ok,
        dims={
            "first": first.dim_e,
            "composed": composed.dim_e,
            "direct": direct.dim_e,
            "round_trip": back.dim_e,
        },
        additive_law_holds=iso1,
        inverse_law_holds=iso2,
        additive_intertwiner=s1,
        inverse_intertwiner=s2,
    )

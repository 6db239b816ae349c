"""Additive convolution and middle convolution along a line direction.

The convolution of a system with parameter lambda lives on the tensor space
E (x) C^n, one block per hyperplane transverse to the line, over the original
arrangement enlarged by the shifts of rank-two transverse flats.  Middle
convolution quotients by the two canonical invariant subspaces: the blockwise
residue kernels and the diagonal kernel of (sum of residues + lambda).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .arrangement import (
    Arrangement,
    Hyperplane,
    LineDirection,
    _canonical_form,
    is_good_line,
)
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
    identity,
    invariant_projection,
    invertible_intertwiner,
    mat_add,
    mat_scale,
    nullspace,
    quotient,
    rank,
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

    def middle(self) -> PfaffianSystem:
        """Quotient by the two invariant kernels, presented on the
        deterministic complement spanned by standard basis vectors chosen
        greedily in index order.  It is integrable, with no check: the
        convolution is, and ``convolve`` asserted both kernels invariant."""
        res, big = self.system.residues, self.system.dim_e
        kl = list(self.block_kernel_basis) + list(self.diagonal_kernel_basis)
        mats = quotient(list(res.values()), kl, big)
        return PfaffianSystem.make(
            self.system.arrangement, big - len(kl), dict(zip(res, mats)), check=False
        )


def kernel_subspaces(
    sys: PfaffianSystem, y: LineDirection, lam: ConvolutionParameter
) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Column bases of the blockwise kernels and of the diagonal kernel.

    The two spans always intersect trivially; this is asserted.
    """
    order = sys.arrangement.along(y).blocks
    n = len(order)
    d = sys.dim_e
    big = n * d
    k_cols: list[Vector] = []
    for p, lbl in enumerate(order):
        for v in nullspace(sys.residues[lbl], d):
            col = [Fraction(0)] * big
            for i, x in enumerate(v):
                col[p * d + i] = x
            k_cols.append(tuple(col))
    shifted = mat_add(sys.transverse_sum(y), mat_scale(identity(d), lam.value))
    l_cols: list[Vector] = []
    for v in nullspace(shifted, d):
        col = [Fraction(0)] * big
        for p in range(n):
            for i, x in enumerate(v):
                col[p * d + i] = x
        l_cols.append(tuple(col))
    joint = k_cols + l_cols
    if joint and rank(tuple(joint)) != len(joint):
        raise InternalError("blockwise and diagonal kernels intersect nontrivially")
    return tuple(k_cols), tuple(l_cols)


def _accumulate(target: list[list[Fraction]], p: int, q: int, m: Matrix, d: int) -> None:
    for i in range(d):
        for j in range(d):
            target[p * d + i][q * d + j] += m[i][j]


def _freeze(rows: list[list[Fraction]]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def convolve(
    sys: PfaffianSystem,
    y: LineDirection,
    lam: ConvolutionParameter,
    require_good: bool = True,
) -> ConvolutionResult:
    """Convolution along the line with the given parameter.

    Residues over the enlarged arrangement, per transverse hyperplane block:
    transverse hyperplanes get one full block row, parallel ones act
    blockwise diagonally, and the shift X + Y of each rank-two flat X
    receives the antisymmetrized contribution of every transverse pair
    through X (two transverse hyperplanes meet in exactly one such X).
    Contributions landing on the same hyperplane (always, for a good line)
    are summed into a single residue.  The invariance of both kernels is
    asserted.
    """
    arr = sys.arrangement
    view = arr.along(y)
    order = view.blocks
    n = len(order)
    if n == 0:
        raise InputError("no hyperplane is transverse to the line; nothing to convolve")
    if require_good:
        good, witness = is_good_line(arr, y)
        if not good:
            raise NotGoodLine(
                f"line is not good; offending rank-two flat {witness.rows}"
            )
    d = sys.dim_e
    big = n * d
    pos = {lbl: p for p, lbl in enumerate(order)}

    acc: dict[tuple, list[list[Fraction]]] = {}
    key_of = {h.label: (h.coeffs, h.constant) for h in arr.hyperplanes}

    def target(key) -> list[list[Fraction]]:
        if key not in acc:
            acc[key] = [[Fraction(0)] * big for _ in range(big)]
        return acc[key]

    for lbl in order:
        p = pos[lbl]
        t = target(key_of[lbl])
        for lbl2 in order:
            q = pos[lbl2]
            m = sys.residues[lbl2]
            if lbl2 == lbl:
                m = mat_add(m, mat_scale(identity(d), lam.value))
            _accumulate(t, p, q, m, d)
    for h in view.parallel:
        t = target(key_of[h.label])
        m = sys.residues[h.label]
        for p in range(n):
            _accumulate(t, p, p, m, d)

    new_keys: dict[tuple, None] = {}
    existing_keys = set(key_of.values())
    for x, shifted in view.shifts:
        row = shifted.rows[0]
        key = _canonical_form(row[:-1], -row[-1])
        if key not in existing_keys:
            new_keys[key] = None
        t = target(key)
        through = [lbl for lbl in order if lbl in x.containing]
        for lbl1, lbl2 in combinations(through, 2):
            p1, p2 = pos[lbl1], pos[lbl2]
            a1, a2 = sys.residues[lbl1], sys.residues[lbl2]
            _accumulate(t, p2, p2, a1, d)
            _accumulate(t, p2, p1, mat_scale(a1, Fraction(-1)), d)
            _accumulate(t, p1, p1, a2, d)
            _accumulate(t, p1, p2, mat_scale(a2, Fraction(-1)), d)

    # without new hyperplanes (always, on a good line) the input arrangement
    # is the convolution's, and its cached poset is shared
    merged = arr
    if new_keys:
        hyperplanes = list(arr.hyperplanes)
        used_labels = set(key_of)
        counter = 0
        for key in sorted(new_keys):
            counter += 1
            while f"S{counter}" in used_labels:
                counter += 1
            lbl = f"S{counter}"
            used_labels.add(lbl)
            hyperplanes.append(Hyperplane(key[0], key[1], lbl))
        merged = Arrangement.make(arr.ambient_dim, hyperplanes)

    residues = {}
    for h in merged.hyperplanes:
        key = (h.coeffs, h.constant)
        residues[h.label] = _freeze(acc[key]) if key in acc else _freeze(
            [[Fraction(0)] * big for _ in range(big)]
        )
    out = PfaffianSystem.make(merged, big, residues, check=True)

    k_cols, l_cols = kernel_subspaces(sys, y, lam)
    mats = list(out.residues.values())
    invariant_projection(mats, list(k_cols), big, "blockwise kernel")
    invariant_projection(mats, list(l_cols), big, "diagonal kernel")
    return ConvolutionResult(out, order, k_cols, l_cols)


def middle_convolve(
    sys: PfaffianSystem,
    y: LineDirection,
    lam: ConvolutionParameter,
    require_good: bool = True,
) -> PfaffianSystem:
    """Quotient of the convolution by the two invariant kernels
    (``ConvolutionResult.middle``)."""
    return convolve(sys, y, lam, require_good=require_good).middle()


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

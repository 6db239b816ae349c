import random
from fractions import Fraction as F
from functools import reduce
from itertools import combinations

import pytest

from arrmc import (
    Arrangement,
    ConvolutionParameter,
    DimensionMismatch,
    Hyperplane,
    LineDirection,
    NotGoodLine,
    ParameterIntegral,
    PfaffianSystem,
    StarConditionsFail,
    check_integrability,
    convolve,
    is_isomorphic,
    kernel_subspaces,
    middle_convolve,
    verify_composition_law,
)
from arrmc.convolution import middle_convolve_with_kernel_dims
from arrmc import convolution
from arrmc.arrangement import Flat, _canonical_form
from arrmc.errors import InternalError
from arrmc.linalg import (
    dot,
    identity,
    mat,
    mat_add,
    mat_mul,
    mat_scale,
    rank,
    rref,
)

from conftest import (
    X_AXIS_1D,
    Y_AXIS,
    composition_corpus,
    four_lines_system,
    in_span,
    kz_system,
    line_system,
    mat_inverse,
    mat_vec,
    nongood_pair,
    random_arrangement,
    reference_middle_convolve,
    reference_shift,
)

LAM = ConvolutionParameter.make(F(1, 5))


def test_convolve_matches_hand_computation():
    a, b, c, d = F(1, 2), F(1, 3), F(1, 4), F(1, 5)
    lam = F(1, 5)
    cr = convolve(four_lines_system(a, b, c, d), Y_AXIS, LAM)
    assert cr.block_order == ("y", "d")
    assert cr.system.dim_e == 2
    res = cr.system.residues
    assert res["y"] == mat([[a + lam, b], [0, 0]])
    assert res["d"] == mat([[0, 0], [a, b + lam]])
    assert res["x"] == mat([[c + b, -b], [-a, c + a]])
    assert res["x1"] == mat([[d, 0], [0, d]])


def test_convolve_triple_point_accumulates_pairs():
    from conftest import triple_point_system

    a, b, e = F(1, 2), F(1, 3), F(2, 7)
    cr = convolve(triple_point_system(a, b, e), Y_AXIS, LAM)
    assert cr.block_order == ("y", "d", "s")
    # all three transverse pairs shift the origin onto x = 0
    assert cr.system.residues["x"] == (
        (b + e, -b, -e),
        (-a, a + e, -e),
        (-a, -b, a + b),
    )
    assert cr.system.residues["x1"] == tuple(
        tuple(F(0) for _ in range(3)) for _ in range(3)
    )


def test_convolve_zero_residues():
    lam = ConvolutionParameter.make(F(1, 2))
    cr = convolve(four_lines_system(0, 0, 0, 0), Y_AXIS, lam)
    res = cr.system.residues
    assert res["y"] == mat([[F(1, 2), 0], [0, 0]])
    assert res["d"] == mat([[0, 0], [0, F(1, 2)]])
    assert res["x"] == mat([[0, 0], [0, 0]])
    assert res["x1"] == mat([[0, 0], [0, 0]])


def test_convolve_dimension_is_n_times_dim():
    for sys, y in composition_corpus():
        cr = convolve(sys, y, LAM)
        n = len(cr.block_order)
        assert cr.system.dim_e == n * sys.dim_e


def test_convolve_preserves_integrability():
    for sys, y in composition_corpus():
        cr = convolve(sys, y, LAM)
        assert check_integrability(cr.system).ok


def test_convolve_requires_good_line():
    sys = PfaffianSystem.make(nongood_pair(), 1, {"y": [[F(1, 2)]], "d": [[F(1, 3)]]})
    with pytest.raises(NotGoodLine):
        convolve(sys, Y_AXIS, LAM)
    # structural path still works unchecked; the arrangement grows by x=0
    cr = convolve(sys, Y_AXIS, LAM, require_good=False)
    assert len(cr.system.arrangement) == 3
    keys = cr.system.arrangement.canonical_set()
    assert ((F(1), F(0)), F(0)) in keys


def test_kernel_subspaces_examples():
    # a = 0: one blockwise kernel vector in the first slot
    k, l = kernel_subspaces(four_lines_system(0, F(1, 3), 0, 0), Y_AXIS, LAM)
    assert len(k) == 1 and len(l) == 0
    assert k[0] == (F(1), F(0))
    # a + b + lambda = 0: diagonal kernel spanned by (1, 1)
    lam = ConvolutionParameter.make(F(-5, 6))
    k, l = kernel_subspaces(four_lines_system(F(1, 2), F(1, 3), 0, 0), Y_AXIS, lam)
    assert len(k) == 0 and len(l) == 1
    assert l[0] == (F(1), F(1))
    # generic: both trivial
    k, l = kernel_subspaces(four_lines_system(F(1, 2), F(1, 3), 0, 0), Y_AXIS, LAM)
    assert not k and not l


def test_kernel_spans_are_invariant():
    for sys, y in composition_corpus():
        cr = convolve(sys, y, LAM)
        cols = list(cr.block_kernel_basis) + list(cr.diagonal_kernel_basis)
        if not cols:
            continue
        assert rank(tuple(cols)) == len(cols)
        for m in cr.system.residues.values():
            for v in cols:
                image = mat_vec(m, v)
                assert in_span(image, cols)


def test_convolve_names_the_kernel_that_is_not_invariant(monkeypatch):
    sys = kz_system()
    big = convolve(sys, Y_AXIS, LAM).system.dim_e
    e1 = tuple(F(int(i == 1)) for i in range(big))
    monkeypatch.setattr(convolution, "kernel_subspaces", lambda *args: ((e1,), ()))
    with pytest.raises(InternalError, match="^blockwise kernel is not invariant"):
        convolve(sys, Y_AXIS, LAM)
    monkeypatch.setattr(convolution, "kernel_subspaces", lambda *args: ((), (e1,)))
    with pytest.raises(InternalError, match="^diagonal kernel is not invariant"):
        convolve(sys, Y_AXIS, LAM)


def test_middle_convolve_names_the_check_that_fails(monkeypatch):
    """The checks on the residue images keep the messages of the n d
    checks: K blockwise, L in W, and K meeting L."""
    sys = kz_system()  # A_y and A_d have rank one, K = (e_1, 0) + (0, e_2)
    (red_y, ker_y), block_d = convolution.residue_kernels(sys, Y_AXIS, LAM)[0]
    e1, e2 = identity(2)
    for blocks, diagonal, message in (
        ([(red_y, [e2]), block_d], [], "^blockwise kernel is not invariant"),
        ([(red_y, ker_y), block_d], [e1], "^diagonal kernel is not invariant"),
        ([(red_y, ker_y), block_d], [e1, e1], "^blockwise and diagonal kernels intersect"),
    ):
        monkeypatch.setattr(convolution, "residue_kernels", lambda *args: (blocks, diagonal))
        with pytest.raises(InternalError, match=message):
            middle_convolve(sys, Y_AXIS, LAM)


def test_middle_convolve_dimension_formula():
    for sys, y in composition_corpus():
        k, l = kernel_subspaces(sys, y, LAM)
        out = middle_convolve(sys, y, LAM)
        n = len(convolve(sys, y, LAM).block_order)
        assert out.dim_e == n * sys.dim_e - len(k) - len(l)
        assert check_integrability(out).ok


def test_middle_convolve_generic_scalar_is_full():
    sys = four_lines_system(F(1, 2), F(1, 3), 0, 0)
    out = middle_convolve(sys, Y_AXIS, LAM)
    assert out.dim_e == 2
    cr = convolve(sys, Y_AXIS, LAM)
    assert out.residues == cr.system.residues  # trivial quotient


def test_middle_convolve_all_zero_gives_rank_zero():
    lam = ConvolutionParameter.make(F(1, 2))
    out = middle_convolve(four_lines_system(0, 0, 0, 0), Y_AXIS, lam)
    assert out.dim_e == 0


def test_is_isomorphic_identity_and_conjugate():
    sys = kz_system()
    ok, s = is_isomorphic(sys, sys)
    assert ok and s is not None
    p = mat([[1, 1], [0, 1]])
    p_inv = mat_inverse(p)
    conj = PfaffianSystem.make(
        sys.arrangement,
        2,
        {lbl: mat_mul(p, mat_mul(m, p_inv)) for lbl, m in sys.residues.items()},
    )
    ok, s = is_isomorphic(sys, conj)
    assert ok
    for lbl, m in sys.residues.items():
        assert mat_mul(s, m) == mat_mul(conj.residues[lbl], s)


def test_is_isomorphic_rejects_different_scalars():
    s1 = line_system([0], [[[F(1, 2)]]])
    s2 = line_system([0], [[[F(1, 3)]]])
    ok, s = is_isomorphic(s1, s2)
    assert not ok and s is None


def test_is_isomorphic_arrangement_mismatch():
    s1 = line_system([0], [[[F(1, 2)]]])
    s2 = line_system([1], [[[F(1, 2)]]])
    with pytest.raises(DimensionMismatch):
        is_isomorphic(s1, s2)


def test_is_isomorphic_dim_mismatch_is_false():
    s1 = line_system([0, 2], [[[F(1, 2)]], [[F(1, 3)]]])
    big = line_system(
        [0, 2],
        [mat([[F(1, 2), 0], [0, F(1, 2)]]), mat([[F(1, 3), 0], [0, F(1, 3)]])],
    )
    ok, _ = is_isomorphic(s1, big)
    assert not ok


def test_functoriality_on_kernels():
    """A conjugation morphism maps the kernel subspaces onto each other."""
    sys = kz_system()
    p = mat([[2, 1], [1, 1]])
    p_inv = mat_inverse(p)
    conj = PfaffianSystem.make(
        sys.arrangement,
        2,
        {lbl: mat_mul(p, mat_mul(m, p_inv)) for lbl, m in sys.residues.items()},
    )
    k1, l1 = kernel_subspaces(sys, Y_AXIS, LAM)
    k2, l2 = kernel_subspaces(conj, Y_AXIS, LAM)
    assert len(k1) == len(k2) and len(l1) == len(l2)
    n = 2
    kron_map = [[F(0)] * (2 * n) for _ in range(2 * n)]
    for blk in range(n):
        for i in range(2):
            for j in range(2):
                kron_map[blk * 2 + i][blk * 2 + j] = p[i][j]
    phi = mat(kron_map)
    for v in k1:
        assert in_span(mat_vec(phi, v), list(k2))
    for v in l1:
        assert in_span(mat_vec(phi, v), list(l2))


def test_composition_law_scalar():
    sys = four_lines_system(F(1, 2), F(1, 3), 0, 0)
    rep = verify_composition_law(
        sys, Y_AXIS, ConvolutionParameter.make(F(1, 5)), ConvolutionParameter.make(F(1, 7))
    )
    assert rep.ok
    assert rep.dims["first"] == 2 and rep.dims["round_trip"] == 1
    assert rep.additive_intertwiner is not None
    assert rep.inverse_intertwiner is not None


def test_composition_parameter_integral_guard():
    sys = four_lines_system(F(1, 2), F(1, 3), 0, 0)
    with pytest.raises(ParameterIntegral):
        verify_composition_law(
            sys,
            Y_AXIS,
            ConvolutionParameter.make(F(1, 3)),
            ConvolutionParameter.make(F(2, 3)),
        )


def test_composition_star_guard():
    sys = four_lines_system(0, F(1, 3), 0, 0)  # zero residue breaks the stars
    with pytest.raises(StarConditionsFail):
        verify_composition_law(sys, Y_AXIS, LAM, ConvolutionParameter.make(F(1, 7)))


def test_round_trip_identity_on_corpus():
    lam = ConvolutionParameter.make(F(1, 5))
    for sys, y in composition_corpus():
        first = middle_convolve(sys, y, lam)
        back = middle_convolve(first, y, lam.negated())
        assert back.dim_e == sys.dim_e
        ok, s = is_isomorphic(back, sys)
        assert ok


def _pair_shifts(arr, y):
    """Transverse hyperplanes in canonical order, and (p1, h1, p2, h2, key)
    for each pair that meets, with key the canonical form of its flat
    shifted along y by elimination (``reference_shift``)."""
    rest = sorted(
        (h for h in arr.hyperplanes if dot(h.coeffs, y.direction) != 0),
        key=Hyperplane.sort_key,
    )
    pairs = []
    for (p1, h1), (p2, h2) in combinations(enumerate(rest), 2):
        red, pivots = rref((h1.equation_row(), h2.equation_row()))
        if arr.ambient_dim not in pivots:
            row = reference_shift(Flat(arr.ambient_dim, red, frozenset()), y).rows[0]
            pairs.append((p1, h1, p2, h2, _canonical_form(row[:-1], -row[-1])))
    return rest, pairs


def reference_convolve(sys, y, lam):
    """The convolution's residues and enlarged arrangement, built pair by pair.

    Each pair of transverse hyperplanes is intersected and its flat shifted
    along y on its own; new shifts get ``S#`` labels in key order, skipping
    used labels.  Kept as the reference for ``convolve``, which sums the
    pairs per rank-two flat of the input's poset.
    """
    arr, d = sys.arrangement, sys.dim_e
    par = [h for h in arr.hyperplanes if dot(h.coeffs, y.direction) == 0]
    rest, pairs = _pair_shifts(arr, y)
    n = len(rest)
    acc = {}

    def add(key, p, q, m):
        t = acc.setdefault(key, [[F(0)] * (n * d) for _ in range(n * d)])
        for i in range(d):
            for j in range(d):
                t[p * d + i][q * d + j] += m[i][j]

    for p, h in enumerate(rest):
        for q, h2 in enumerate(rest):
            m = sys.residues[h2.label]
            if q == p:
                m = mat_add(m, mat_scale(identity(d), lam.value))
            add(h.sort_key(), p, q, m)
    for h in par:
        for p in range(n):
            add(h.sort_key(), p, p, sys.residues[h.label])
    existing = {h.sort_key() for h in arr.hyperplanes}
    new_keys = set()
    for p1, h1, p2, h2, key in pairs:
        if key not in existing:
            new_keys.add(key)
        a1, a2 = sys.residues[h1.label], sys.residues[h2.label]
        add(key, p2, p2, a1)
        add(key, p2, p1, mat_scale(a1, F(-1)))
        add(key, p1, p1, a2)
        add(key, p1, p2, mat_scale(a2, F(-1)))
    hyperplanes = list(arr.hyperplanes)
    used, counter = set(arr.labels()), 0
    for key in sorted(new_keys):
        counter += 1
        while f"S{counter}" in used:
            counter += 1
        used.add(f"S{counter}")
        hyperplanes.append(Hyperplane(key[0], key[1], f"S{counter}"))
    zero = [[F(0)] * (n * d) for _ in range(n * d)]
    residues = {h.label: mat(acc.get(h.sort_key(), zero)) for h in hyperplanes}
    return Arrangement.make(arr.ambient_dim, hyperplanes), residues


def _made_good(arr, y):
    """The arrangement with every missing shift added: the shifts are
    parallel to y, so they create no new rank-two flat met by two
    transverse hyperplanes, and y is good for the result."""
    keys = {h.sort_key() for h in arr.hyperplanes}
    added = sorted({key for *_, key in _pair_shifts(arr, y)[1]} - keys)
    extra = [Hyperplane(c, a, f"g{i}") for i, (c, a) in enumerate(added)]
    return Arrangement.make(arr.ambient_dim, list(arr.hyperplanes) + extra)


def _commuting_system(rng, arr):
    """Residues P D_H P^-1 with one random P and diagonal D_H: integrable on
    any arrangement."""
    d = rng.randint(1, 2)
    while True:
        p = mat([[F(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)])
        if rank(p) == d:
            break
    p_inv = mat_inverse(p)
    residues = {}
    for h in arr.hyperplanes:
        diag = mat([[F(rng.randint(-3, 3), rng.randint(2, 7)) * (i == j) for j in range(d)] for i in range(d)])
        residues[h.label] = mat_mul(p, mat_mul(diag, p_inv))
    return PfaffianSystem.make(arr, d, residues)


def _check_against_reference(sys, y, lam, require_good=True):
    """``convolve`` gives the reference's labels, canonical forms and residues."""
    ref_arr, ref_res = reference_convolve(sys, y, lam)
    cr = convolve(sys, y, lam, require_good=require_good)
    assert [(h.label, h.coeffs, h.constant) for h in cr.system.arrangement.hyperplanes] == [
        (h.label, h.coeffs, h.constant) for h in ref_arr.hyperplanes
    ]
    assert cr.system.residues == ref_res


def test_convolve_matches_the_pairwise_reference():
    for sys, y in composition_corpus():  # the triple point included
        _check_against_reference(sys, y, LAM)
    sys = PfaffianSystem.make(nongood_pair(), 1, {"y": [[F(1, 2)]], "d": [[F(1, 3)]]})
    _check_against_reference(sys, Y_AXIS, LAM, require_good=False)


def test_convolve_matches_the_pairwise_reference_on_random_systems():
    rng = random.Random(2012)
    seen = {True: 0, False: 0}
    compared = 0
    while compared < 200:
        dim = rng.choice((2, 3))
        arr = random_arrangement(rng, dim, rng.randint(2, 4))
        direction = [rng.randint(-1, 1) for _ in range(dim)]
        if not any(direction):
            continue
        y = LineDirection.make(direction)
        made_good = compared % 2 == 1
        if made_good:
            arr = _made_good(arr, y)
        if not arr.along(y).transverse:
            continue
        sys = _commuting_system(rng, arr)
        good = arr.along(y).witness is None
        assert good or not made_good
        lam = ConvolutionParameter.make(F(rng.choice((1, 2, 3, 4)), 5))
        _check_against_reference(sys, y, lam, require_good=good)
        seen[good] += 1
        compared += 1
    assert min(seen.values()) >= 70, seen


def _outcome(mc, sys, y, lam, require_good):
    """The middle convolution's arrangement, rank and residues."""
    out = mc(sys, y, lam, require_good)
    hyperplanes = [(h.label, h.coeffs, h.constant) for h in out.arrangement.hyperplanes]
    return hyperplanes, out.dim_e, out.residues


def _low_rank(rng, d, zero_share=0.3):
    """A random d x d matrix of rank 0 to d."""
    def draw(rows, cols):
        return mat([[0 if rng.random() < zero_share else F(rng.randint(-4, 4), rng.randint(1, 5))
                     for _ in range(cols)] for _ in range(rows)])
    r = rng.randint(0, d)
    return mat_mul(draw(d, r), draw(r, d)) if r else mat([[0] * d] * d)


def test_middle_convolve_matches_the_nd_quotient():
    """``middle_convolve``, computed on the residue images, against the
    quotient of the n d convolution by K + L: the same arrangement, rank and
    residues entry for entry, on the corpus (line,
    ``kz``, triple point and slab systems), a rank-0 result, random line
    systems with and without K and L, and non-good lines, whose convolution
    adds ``S`` hyperplanes."""
    rng = random.Random(2020)
    cases = [(sys, y, LAM, True) for sys, y in composition_corpus()]
    cases.append((four_lines_system(0, 0, 0, 0), Y_AXIS, ConvolutionParameter.make(F(1, 2)), True))
    cases.append((four_lines_system(F(1, 2), F(1, 3), 0, 0), Y_AXIS, ConvolutionParameter.make(F(-5, 6)), True))
    for _ in range(60):
        d, n = rng.randint(1, 3), rng.randint(1, 4)
        mats = [_low_rank(rng, d) if rng.random() < 0.6 else _low_rank(rng, d, 0.0) for _ in range(n)]
        lam = ConvolutionParameter.make(F(rng.choice((-3, -1, 1, 2)), 5))
        if rng.random() < 0.4:
            # residue sum + lambda of low rank: L is nonzero
            rest = reduce(mat_add, mats[1:], mat_scale(identity(d), lam.value))
            mats[0] = mat_add(_low_rank(rng, d), mat_scale(rest, F(-1)))
        cases.append((line_system(list(range(n)), mats), X_AXIS_1D, lam, True))
    cases.append((PfaffianSystem.make(nongood_pair(), 1, {"y": [[F(1, 2)]], "d": [[F(1, 3)]]}), Y_AXIS, LAM, False))
    while len(cases) < 140:
        dim = rng.choice((2, 3))
        arr = random_arrangement(rng, dim, rng.randint(2, 4))
        y = LineDirection.make([rng.randint(-1, 1) for _ in range(dim - 1)] + [1])
        if arr.along(y).transverse and arr.along(y).witness is not None:
            cases.append((_commuting_system(rng, arr), y, LAM, False))
    seen = {"K": 0, "L": 0, "neither": 0, "rank 0": 0, "S": 0}
    for sys, y, lam, good in cases:
        want = _outcome(reference_middle_convolve, sys, y, lam, good)
        assert _outcome(middle_convolve, sys, y, lam, good) == want
        k, l = kernel_subspaces(sys, y, lam)
        assert middle_convolve_with_kernel_dims(sys, y, lam, good)[1:] == (len(k), len(l))
        seen["K"] += bool(k)
        seen["L"] += bool(l)
        seen["neither"] += not (k or l)
        seen["rank 0"] += want[1] == 0
        seen["S"] += len(want[0]) > len(sys.arrangement)
    assert min(seen.values()) >= 1 and seen["S"] >= 40 and seen["L"] >= 10, seen

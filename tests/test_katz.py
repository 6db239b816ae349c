import cmath
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from arrmc import (
    CharacterValue,
    DimensionMismatch,
    MonodromyTuple,
    SingularInput,
    ToleranceNotMet,
    TrivialCharacter,
    check_property_p,
    multiplicative_middle_convolution,
    tuple_isomorphism,
)
from arrmc.katz import (
    _numeric_rank,
    convolution_tuple,
    multiplicative_kernels,
    quotient_by_fixed_spaces,
)
from arrmc.linalg import mat_mul

from conftest import mat_inverse


def unit(lam_num, lam_den):
    return cmath.exp(2j * math.pi * lam_num / lam_den)


def test_character_validation():
    with pytest.raises(TrivialCharacter):
        CharacterValue.from_exponent(2)
    with pytest.raises(TrivialCharacter):
        CharacterValue.from_scalar(1)
    with pytest.raises(SingularInput):
        CharacterValue.from_scalar(0)
    c = CharacterValue.from_exponent(F(6, 5))
    assert c.exponent == F(1, 5)
    assert abs(c.value() - unit(1, 5)) < 1e-15
    assert c.inverse().exponent == F(4, 5)
    assert CharacterValue.from_exponent(F(1, 2)).exact_value() == -1
    assert CharacterValue.from_scalar(F(2)).product(
        CharacterValue.from_scalar(F(3))
    ).scalar == 6


def test_tuple_validation():
    with pytest.raises(SingularInput):
        MonodromyTuple.exact_tuple([[[F(0)]]])
    with pytest.raises(SingularInput):
        MonodromyTuple.numeric([np.zeros((2, 2))])
    t = MonodromyTuple.exact_tuple([[[F(2)]], [[F(3)]]])
    assert t.rank == 1 and t.npoints == 2
    # monodromy at infinity: the inverse of the ordered product
    assert mat_inverse(mat_mul(*t.matrices)) == ((F(1, 6),),)


def test_rank1_construction_and_local_eigenvalues():
    m1, m2 = unit(1, 2), unit(1, 3)
    c = CharacterValue.from_exponent(F(1, 5))
    t = MonodromyTuple.numeric([[[m1]], [[m2]]])
    out = multiplicative_middle_convolution(t, c)
    assert out.rank == 2
    cval = c.value()
    eig1 = sorted(np.linalg.eigvals(out.matrices[0]), key=lambda z: (z.real, z.imag))
    expect1 = sorted([1.0 + 0j, m1 * cval], key=lambda z: (z.real, z.imag))
    assert np.allclose(eig1, expect1, atol=1e-12)
    eig2 = sorted(np.linalg.eigvals(out.matrices[1]), key=lambda z: (z.real, z.imag))
    expect2 = sorted([1.0 + 0j, m2 * cval], key=lambda z: (z.real, z.imag))
    assert np.allclose(eig2, expect2, atol=1e-12)


def test_identity_tuple_collapses_to_rank_zero():
    t = MonodromyTuple.numeric([np.eye(2), np.eye(2)])
    out = multiplicative_middle_convolution(t, CharacterValue.from_exponent(F(1, 5)))
    assert out.rank == 0


def test_dimension_formula_matches_kernels():
    rng = np.random.default_rng(5)
    c = CharacterValue.from_exponent(F(1, 5))
    for _ in range(6):
        n = int(rng.integers(2, 4))
        r = int(rng.integers(1, 3))
        mats = []
        for _ in range(n):
            while True:
                m = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
                if abs(np.linalg.det(m)) > 0.1:
                    break
            mats.append(m)
        t = MonodromyTuple.numeric(mats)
        k_cols, l_cols, _ = multiplicative_kernels(t, c)
        out = multiplicative_middle_convolution(t, c)
        assert out.rank == n * r - k_cols.shape[1] - l_cols.shape[1]


def test_unit_circle_character_on_exact_tuple_is_numeric():
    c = CharacterValue.from_exponent(F(1, 5))
    cases = [
        [[[F(2)]], [[F(3)]]],
        [
            [[F(2), F(1)], [F(0), F(3)]],
            [[F(1), F(0)], [F(1), F(2)]],
        ],
        [
            [[F(1), F(1)], [F(0), F(1)]],
            [[F(1), F(0)], [F(1), F(1)]],
            [[F(1, 2), F(0)], [F(3), F(-1)]],
        ],
    ]
    for mats in cases:
        te = MonodromyTuple.exact_tuple(mats)
        got = multiplicative_middle_convolution(te, c)
        want = multiplicative_middle_convolution(te.to_numeric(), c)
        assert not got.exact and got.rank == want.rank
        for a, b in zip(got.matrices, want.matrices):
            np.testing.assert_array_equal(a, b)


def test_exact_composition_laws():
    t = MonodromyTuple.exact_tuple(
        [
            [[F(2), F(1)], [F(0), F(3)]],
            [[F(1), F(0)], [F(1), F(2)]],
        ]
    )
    assert check_property_p(t).ok
    c2 = CharacterValue.from_scalar(F(2))
    c3 = CharacterValue.from_scalar(F(3))
    mc2 = multiplicative_middle_convolution(t, c2)
    comp = multiplicative_middle_convolution(mc2, c3)
    direct = multiplicative_middle_convolution(t, c2.product(c3))
    ok, s = tuple_isomorphism(comp, direct)
    assert ok and s is not None
    back = multiplicative_middle_convolution(mc2, c2.inverse())
    ok, _ = tuple_isomorphism(back, t)
    assert ok


def test_numeric_composition_laws():
    rng = np.random.default_rng(12)
    c = CharacterValue.from_exponent(F(1, 5))
    cp = CharacterValue.from_exponent(F(1, 7))
    made = 0
    while made < 3:
        n = int(rng.integers(2, 4))
        r = int(rng.integers(1, 3))
        mats = []
        for _ in range(n):
            m = np.diag(np.exp(2j * np.pi * rng.uniform(0.1, 0.9, size=r)))
            g = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
            if abs(np.linalg.det(g)) < 0.2:
                continue
            mats.append(np.linalg.solve(g, m @ g))
        if len(mats) < n:
            continue
        t = MonodromyTuple.numeric(mats)
        if not check_property_p(t).ok:
            continue
        made += 1
        comp = multiplicative_middle_convolution(
            multiplicative_middle_convolution(t, c), cp
        )
        direct = multiplicative_middle_convolution(t, c.product(cp))
        assert comp.rank == direct.rank
        ok, _ = tuple_isomorphism(comp, direct, tol=1e-8)
        assert ok
        back = multiplicative_middle_convolution(
            multiplicative_middle_convolution(t, c), c.inverse()
        )
        ok, _ = tuple_isomorphism(back, t, tol=1e-8)
        assert ok


def test_property_p_examples():
    ident = MonodromyTuple.numeric([np.eye(2), np.eye(2)])
    rep = check_property_p(ident)
    assert not rep.ok and "common fixed vector" in rep.failures

    good = MonodromyTuple.numeric([[[unit(1, 2)]], [[unit(1, 3)]]])
    assert check_property_p(good).ok

    # direct sum with the trivial rank-1 tuple has a constant piece
    block = MonodromyTuple.numeric(
        [
            np.diag([unit(1, 2), 1.0]),
            np.diag([unit(1, 3), 1.0]),
        ]
    )
    rep = check_property_p(block)
    assert not rep.ok


def test_property_p_scalar_closed_form():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        vals = [rng.choice([1.0, unit(1, 2), unit(1, 3), unit(2, 5)]) for _ in range(n)]
        t = MonodromyTuple.numeric([[[v]] for v in vals])
        expected = n >= 2 and all(
            any(abs(v - 1) > 1e-12 for j, v in enumerate(vals) if j != k)
            for k in range(n)
        )
        assert check_property_p(t).ok == expected


def test_property_p_exact_matches_numeric():
    cases = [
        [[[F(2)]], [[F(3)]]],
        [[[F(1)]], [[F(3)]]],
        [
            [[F(2), F(1)], [F(0), F(3)]],
            [[F(1), F(0)], [F(1), F(2)]],
        ],
        [
            [[F(1), F(1)], [F(0), F(1)]],
            [[F(1), F(0)], [F(1), F(1)]],
        ],
    ]
    for mats in cases:
        te = MonodromyTuple.exact_tuple(mats)
        tn = te.to_numeric()
        assert check_property_p(te).ok == check_property_p(tn).ok


def test_tuple_isomorphism_basics():
    t = MonodromyTuple.numeric(
        [
            [[1.0, 2.0], [0.5, 3.0]],
            [[2.0, 0.0], [1.0, 1.0]],
        ]
    )
    ok, s = tuple_isomorphism(t, t)
    assert ok
    p = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    conj = MonodromyTuple.numeric([p @ np.asarray(m) @ np.linalg.inv(p) for m in t.matrices])
    ok, s = tuple_isomorphism(t, conj)
    assert ok
    resid = max(
        float(np.max(np.abs(s @ np.asarray(m1) - np.asarray(m2) @ s)))
        for m1, m2 in zip(t.matrices, conj.matrices)
    )
    assert resid < 1e-8


def test_tuple_isomorphism_trace_fast_path():
    t1 = MonodromyTuple.numeric([[[2.0]], [[3.0]]])
    t2 = MonodromyTuple.numeric([[[2.5]], [[3.0]]])
    ok, s = tuple_isomorphism(t1, t2)
    assert not ok and s is None


def test_tuple_isomorphism_shape_guard():
    t1 = MonodromyTuple.numeric([[[2.0]]])
    t2 = MonodromyTuple.numeric([[[2.0]], [[3.0]]])
    with pytest.raises(DimensionMismatch):
        tuple_isomorphism(t1, t2)


def test_convolution_tuple_blocks():
    # hand-check the two-puncture block layout
    t = MonodromyTuple.exact_tuple([[[F(2)]], [[F(3)]]])
    c = CharacterValue.from_scalar(F(5))
    conv = convolution_tuple(t, c)
    b1, b2 = conv.matrices
    assert b1 == ((F(10), F(2)), (F(0), F(1)))
    assert b2 == ((F(1), F(0)), (F(5), F(15)))


def reference_numeric_quotient(t, kernels, tol=1e-9):
    """The numeric quotient as P^-1 M P on P = [fixed spaces | e_C], the
    complement C chosen by comparing two SVD ranks per standard vector.
    This was the implementation; it is kept as the reference of the
    quotient in linalg.quotient's form."""
    k_cols, l_cols, conv = kernels
    big = t.npoints * t.rank
    joint = np.hstack([k_cols, l_cols])
    if _numeric_rank(joint, tol) != joint.shape[1]:
        raise ToleranceNotMet("numeric fixed spaces intersect nontrivially")
    p = joint
    for j in range(big):
        if p.shape[1] == big:
            break
        e = np.zeros((big, 1), dtype=complex)
        e[j, 0] = 1.0
        cand = np.hstack([p, e])
        if _numeric_rank(cand, tol) > _numeric_rank(p, tol):
            p = cand
    if p.shape[1] != big:
        raise ToleranceNotMet("could not complete the numeric fixed spaces to a basis")
    cut = joint.shape[1]
    p_inv = np.linalg.inv(p)
    scale = max([1.0] + [float(np.max(np.abs(b), initial=0.0)) for b in conv.matrices])
    out = []
    for b in conv.matrices:
        q = p_inv @ b @ p
        if float(np.max(np.abs(q[cut:, :cut]), initial=0.0)) > 1e3 * tol * scale:
            raise ToleranceNotMet("fixed spaces are not numerically invariant")
        out.append(q[cut:, cut:])
    return out


def random_exact_tuple(rng):
    """n <= 4 generators of rank <= 3: identities, unipotent-like upper
    triangular matrices and dense small rationals, so that fixed spaces and
    property P failures are common."""
    n, r = rng.randint(1, 4), rng.randint(1, 3)
    mats = []
    while len(mats) < n:
        u = rng.random()
        if u < 0.2:
            m = [[int(i == j) for j in range(r)] for i in range(r)]
        elif u < 0.45:
            m = [
                [rng.choice([1, 2, -1, 3]) if i == j else rng.randint(-1, 1) * (j > i)
                 for j in range(r)]
                for i in range(r)
            ]
        else:
            m = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(r)] for _ in range(r)]
        try:
            mats.append(MonodromyTuple.exact_tuple([m]).matrices[0])
        except SingularInput:
            pass
    return MonodromyTuple.exact_tuple(mats)


def test_fields_agree_on_random_tuples():
    # Even draws: an exact tuple and its numeric copy.  Odd draws: the numeric
    # copy perturbed by up to 1e-5, near the rank threshold, where the
    # quotient may be refused.
    rng, noise = random.Random(2026), np.random.default_rng(2026)
    chars = [
        CharacterValue.from_scalar(2),
        CharacterValue.from_exponent(F(1, 2)),
        CharacterValue.from_exponent(F(1, 5)),
        CharacterValue.from_scalar(F(-1, 3)),
    ]
    refused = exact_checked = 0
    for i in range(1000):
        te = random_exact_tuple(rng)
        c = chars[(i // 2) % 4]
        tn = te.to_numeric()
        if i % 2:
            eps = 10.0 ** noise.uniform(-12, -5)
            shape = (tn.rank, tn.rank)
            tn = MonodromyTuple.numeric(
                [m + eps * (noise.normal(size=shape) + 1j * noise.normal(size=shape)) for m in tn.matrices]
            )
        else:
            pe, pn = check_property_p(te), check_property_p(tn)
            assert (pe.ok, pe.failures) == (pn.ok, pn.failures), i
        kernels = multiplicative_kernels(tn, c)
        try:
            want = reference_numeric_quotient(tn, kernels)
        except ToleranceNotMet as exc:
            refused += 1
            with pytest.raises(ToleranceNotMet, match=str(exc)):
                quotient_by_fixed_spaces(tn, kernels)
            continue
        got = quotient_by_fixed_spaces(tn, kernels)
        assert got.rank == want[0].shape[0]
        for a, b in zip(got.matrices, want):
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-12, i
        if i % 2:
            continue
        out = multiplicative_middle_convolution(te, c)
        if c.exact_value() is None:
            assert not out.exact
            for a, b in zip(out.matrices, got.matrices):
                np.testing.assert_array_equal(a, b)
        else:
            exact_checked += 1
            assert out.exact and out.rank == got.rank
            for a, b in zip(out.matrices, got.matrices):
                a = np.array(a, dtype=complex).reshape(b.shape)
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-9, i
    assert refused > 0 and exact_checked >= 200

import cmath
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from arrmc import (
    AssumptionFail,
    ConvolutionParameter,
    FuchsianODE,
    LoopPath,
    PfaffianSystem,
    StepUnderflow,
    ToleranceNotMet,
    monodromy_tuple_of_system,
    transport_along_loop,
    tuple_isomorphism,
    verify_mc_compatibility,
)
from arrmc import katz, monodromy
from arrmc.fuchsian import enclosing_polyline, lasso_loop, standard_loops, winding_number
from arrmc.monodromy import (
    _disc_chain,
    _disc_propagators,
    _step_and_order,
    _transport_polylines,
    monodromy_tuple_of_ode,
)

from conftest import Y_AXIS, four_lines_system, kz_system, mat_inverse

TOL = 1e-10


def scalar_ode(a, pole=0j):
    return FuchsianODE(
        (pole,), (np.array([[complex(a)]]),), ("p",), pole - 2j, 1
    )


def unit(n, d):
    return cmath.exp(2j * math.pi * n / d)


def test_scalar_loop_oracle():
    for num, den in ((1, 2), (1, 3), (1, 5)):
        ode = scalar_ode(F(num, den))
        _, loops, _ = standard_loops(ode.poles, ode.basepoint)
        m = transport_along_loop(ode, loops[0], TOL)
        assert abs(m[0, 0] - unit(num, den)) < 1e-8


def test_zero_residues_give_identity():
    ode = FuchsianODE((0j, 2 + 0j), (np.zeros((2, 2)),) * 2, ("a", "b"), -3j, 2)
    _, loops, _ = standard_loops(ode.poles, ode.basepoint)
    for path in loops:
        m = transport_along_loop(ode, path, TOL)
        assert np.max(np.abs(m - np.eye(2))) < 1e-9


def test_loop_enclosing_no_pole_is_identity():
    ode = scalar_ode(F(1, 2), pole=0j)
    square = (5 + 0j, 6 + 0j, 6 + 1j, 5 + 1j, 5 + 0j)
    path = LoopPath(square, 5.5 + 0.5j)
    assert winding_number(square, 0j) == 0
    m = transport_along_loop(ode, path, TOL)
    assert abs(m[0, 0] - 1) < 1e-9


def test_determinant_identity_single_pole():
    rng = np.random.default_rng(3)
    for _ in range(5):
        r = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        r *= 0.4
        ode = FuchsianODE((0j,), (r,), ("p",), -2j, 2)
        _, loops, _ = standard_loops(ode.poles, ode.basepoint)
        m = transport_along_loop(ode, loops[0], TOL)
        expected = cmath.exp(2j * math.pi * np.trace(r))
        assert abs(np.linalg.det(m) - expected) / max(1.0, abs(expected)) < 1e-8


def test_path_invariance_homotopic_loops():
    r = np.array([[0.25, 0.5], [0.125, -0.3]], dtype=complex)
    ode = FuchsianODE((0j, 3 + 0j), (r, 0.5 * r @ r + 0.2 * np.eye(2)), ("a", "b"), -4j, 2)
    m1 = transport_along_loop(ode, lasso_loop(ode.basepoint, 0j, 0.7, ode.poles), TOL)
    m2 = transport_along_loop(ode, lasso_loop(ode.basepoint, 0j, 1.0, ode.poles), TOL)
    assert np.max(np.abs(m1 - m2)) < 10 * 1e-8


def test_tuple_product_matches_infinity_for_commuting_residues():
    # diagonal residues: monodromies commute and exponentiate exactly
    d1 = np.diag([0.25 + 0j, -0.4 + 0j])
    d2 = np.diag([1 / 3 + 0j, 0.2 + 0j])
    ode = FuchsianODE((0j, 1 + 0j), (d1, d2), ("a", "b"), -3j, 2)
    ext = monodromy_tuple_of_ode(ode, TOL)
    prod = np.eye(2, dtype=complex)
    for m in ext.monodromy.matrices:
        prod = prod @ m
    expected = np.diag(np.exp(2j * np.pi * np.diag(d1 + d2)))
    assert np.max(np.abs(prod - expected)) < 10 * 1e-8
    # the recorded convention: the monodromy at infinity, the inverse of the
    # product, is exp(2 pi i R_inf) for the commuting residue at infinity
    inf = np.diag(np.exp(2j * np.pi * np.diag(ext.infinity_residue)))
    assert np.max(np.abs(np.linalg.inv(prod) - inf)) < 10 * 1e-8


def test_monodromy_tuple_scalar_example():
    sys = four_lines_system(F(1, 2), F(1, 3), 0, 0)
    ext = monodromy_tuple_of_system(sys, Y_AXIS, [F(2)], TOL)
    t = ext.monodromy
    assert t.labels == ("y", "d")
    assert abs(t.matrices[0][0, 0] - unit(1, 2)) < 1e-8
    assert abs(t.matrices[1][0, 0] - unit(1, 3)) < 1e-8
    assert ext.product_residual < 1e-8


def test_monodromy_zero_residue_system_gives_identities():
    sys = four_lines_system(0, 0, 0, 0)
    ext = monodromy_tuple_of_system(sys, Y_AXIS, [F(2)], TOL)
    for m in ext.monodromy.matrices:
        assert abs(m[0, 0] - 1) < 1e-9


def test_monodromy_gauge_invariance():
    sys = kz_system()
    p = ((F(1), F(1)), (F(0), F(1)))
    from arrmc.linalg import mat_mul

    conj = PfaffianSystem.make(
        sys.arrangement,
        2,
        {lbl: mat_mul(p, mat_mul(m, mat_inverse(p))) for lbl, m in sys.residues.items()},
    )
    t1 = monodromy_tuple_of_system(sys, Y_AXIS, [F(2)], TOL).monodromy
    t2 = monodromy_tuple_of_system(conj, Y_AXIS, [F(2)], TOL).monodromy
    ok, s = tuple_isomorphism(t1, t2, tol=1e-7)
    assert ok


def test_all_parallel_gives_empty_tuple():
    from arrmc import Arrangement, Hyperplane

    arr = Arrangement.make(
        2, [Hyperplane.make([1, 0], 0, "a"), Hyperplane.make([1, 0], -1, "b")]
    )
    sys = PfaffianSystem.make(arr, 2, {
        "a": [[F(1, 2), 0], [0, F(1, 3)]],
        "b": [[F(1, 5), 0], [0, F(1, 7)]],
    })
    ext = monodromy_tuple_of_system(sys, Y_AXIS, [F(5)], TOL)
    assert ext.monodromy.npoints == 0 and ext.monodromy.rank == 2


def test_step_underflow_on_pole_grazing_path():
    ode = scalar_ode(F(1, 2))
    grazing = (-2j, 1e-16 - 1e-16j, 2 + 0j, 2 - 2j, -2j)
    with pytest.raises(StepUnderflow):
        _transport_polylines(ode, [grazing], TOL)


# An adaptive per-segment Dormand-Prince 5(4) transport, kept as an
# independent reference: one trajectory, one point at a time.
_REF_A = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
        [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    ]
)
_REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_REF_B5 = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0])
_REF_B4 = np.array([5179 / 57600, 0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


def _reference_segment(ode, start, end, f, tol):
    d = end - start
    seg_len = abs(d)
    if seg_len == 0.0:
        return f
    dim = ode.dim
    poles = np.array(ode.poles)
    residues = (np.array(ode.residues) * d).reshape(len(poles), -1)
    fv = f.ravel()
    k = np.zeros((7, dim * dim), dtype=complex)
    t, h = 0.0, 0.1
    while t < 1.0:
        dist = float(np.min(np.abs(start + t * d - poles)))
        h = min(h, 1.0 - t, 0.5 * dist / seg_len)
        while True:
            for i in range(7):
                yi = start + (t + _REF_C[i] * h) * d
                fi = fv + (h * _REF_A[i, :i]) @ k[:i]
                a = ((1 / (yi - poles)) @ residues).reshape(dim, dim)
                k[i] = (a @ fi.reshape(dim, dim)).ravel()
            f5 = fv + (h * _REF_B5) @ k
            err = float(np.max(np.abs((h * (_REF_B5 - _REF_B4)) @ k)))
            limit = tol * max(1.0, float(np.max(np.abs(f5))))
            if err <= limit:
                fv = f5
                t += h
                grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (limit / err) ** 0.2))
                h = min(max(h * grow, 1e-13), 0.5)
                break
            h *= max(0.1, 0.9 * (limit / err) ** 0.25)
    return fv.reshape(dim, dim)


def _reference_polyline(ode, points, tol):
    f = np.eye(ode.dim, dtype=complex)
    for a, b in zip(points[:-1], points[1:]):
        f = _reference_segment(ode, a, b, f, tol)
    return f


RANDOM_SHAPES = ((1, 2), (2, 3), (3, 4), (4, 2), (2, 4))  # (dim, number of poles)


def random_ode(rng, dim, npoles):
    poles = tuple(complex(*rng.uniform(-2, 2, size=2)) for _ in range(npoles))
    while min(abs(p - q) for i, p in enumerate(poles) for q in poles[:i]) < 0.5:
        poles = tuple(complex(*rng.uniform(-2, 2, size=2)) for _ in range(npoles))
    residues = tuple(
        0.3 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        for _ in range(npoles)
    )
    labels = tuple(f"p{i}" for i in range(npoles))
    return FuchsianODE(poles, residues, labels, complex(0, -6), dim)


def tuple_polylines(ode):
    base, loops, _ = standard_loops(ode.poles, ode.basepoint)
    return [path.points for path in loops] + [enclosing_polyline(ode.poles, base)]


def test_batched_transport_equals_each_polyline_alone():
    rng = np.random.default_rng(11)
    for dim, npoles in RANDOM_SHAPES:
        ode = random_ode(rng, dim, npoles)
        polylines = tuple_polylines(ode)
        together = _transport_polylines(ode, polylines, TOL)
        for points, m in zip(polylines, together):
            alone = _transport_polylines(ode, [points], TOL)[0]
            assert np.array_equal(m, alone)


def test_disc_propagator_does_not_depend_on_its_batch():
    # one disc alone, at rank 1 a single row of the recurrence, is bitwise
    # the same disc in the whole batch
    rng = np.random.default_rng(15)
    for dim, npoles in RANDOM_SHAPES:
        ode = random_ode(rng, dim, npoles)
        theta, order = _step_and_order(ode, TOL)
        discs = [d for pl in tuple_polylines(ode) for d in _disc_chain(pl, ode.poles, theta)]
        batch = _disc_propagators(ode, discs, order)
        for k in (0, len(discs) // 2, len(discs) - 1):
            assert np.array_equal(_disc_propagators(ode, discs[k : k + 1], order)[0], batch[k])


# The block-row recurrence that the pole-wise one replaced, kept as an
# independent reference: the step-scaled coefficients
# z^(i+1) A_i = -sum_k R_k u_k^(i+1) laid out as one block row, and each order
# (m+1) G_{m+1} = sum_{i<=m} (z^(i+1) A_i) G_{m-i} one product over all earlier G.
def _block_row_propagators(ode, discs, order):
    dim, b = ode.dim, len(discs)
    centers = np.array([c for c, _ in discs], dtype=complex)
    steps = np.array([z for _, z in discs], dtype=complex)
    row = np.zeros((b, order, dim, dim), dtype=complex)
    for q, r in zip(ode.poles, ode.residues):
        u = steps / (q - centers)
        row -= np.cumprod(np.repeat(u[:, None], order, axis=1), axis=1)[..., None, None] * r
    row = row.transpose(0, 2, 1, 3).reshape(b, dim, order * dim)
    g = np.zeros((b, (order + 1) * dim, dim), dtype=complex)
    g[:, order * dim :] = np.eye(dim)
    for m in range(order):
        lo = (order - m) * dim
        g[:, lo - dim : lo] = (row[:, :, : (m + 1) * dim] @ g[:, lo:]) / (m + 1)
    return g.reshape(b, order + 1, dim, dim).sum(axis=1)


def reference_odes():
    rng = np.random.default_rng(13)
    zero = np.zeros((2, 2))
    big = 2.0 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return (
        FuchsianODE((0j, 1 + 0j), (np.zeros((0, 0)),) * 2, ("a", "b"), -2j, 0),  # rank 0
        FuchsianODE((0j,), (0.4 * rng.normal(size=(3, 3)) + 0j,), ("a",), -2j, 3),  # one pole
        FuchsianODE((0j, 2 + 0j), (zero, zero), ("a", "b"), -3j, 2),  # order 0
        FuchsianODE((0j, 1 + 1j), (big, -big.T), ("a", "b"), -2j, 2),  # S > 3
        *(random_ode(rng, dim, npoles) for dim, npoles in RANDOM_SHAPES),
    )


def test_pole_wise_recurrence_matches_block_rows():
    thetas, orders = [], []
    for ode in reference_odes():
        theta, order = _step_and_order(ode, TOL)
        thetas.append(theta)
        orders.append(order)
        discs = [d for pl in tuple_polylines(ode) for d in _disc_chain(pl, ode.poles, theta)]
        got = _disc_propagators(ode, discs, order)
        ref = _block_row_propagators(ode, discs, order)
        assert got.shape == ref.shape == (len(discs), ode.dim, ode.dim)
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13 * np.max(np.abs(ref), initial=0.0)
    assert 0 in orders and min(thetas) < 1 / 3


def test_transport_of_a_full_chunk_and_one_more_disc_matches_block_rows():
    # segments shorter than every step, so each segment is one disc
    ode = random_ode(np.random.default_rng(14), 2, 3)
    theta, order = _step_and_order(ode, TOL)
    chunk = monodromy._chunk_discs(ode)
    for count in (chunk, chunk + 1):
        points = tuple(3 + 3j + 0.05j * k for k in range(count + 1))
        half = count // 2
        for polylines in ([points], [points[: half + 1], points[half:]]):
            chains = [_disc_chain(pl, ode.poles, theta) for pl in polylines]
            assert sum(len(chain) for chain in chains) == count
            for chain, m in zip(chains, _transport_polylines(ode, polylines, TOL)):
                ref = np.eye(2, dtype=complex)
                for phi in _block_row_propagators(ode, chain, order):
                    ref = phi @ ref
                assert np.max(np.abs(m - ref)) <= 1e-13 * np.max(np.abs(ref))


def extraction_peak(ode):
    """Peak traced allocation of one tuple extraction, in bytes."""
    tracemalloc.start()
    try:
        monodromy_tuple_of_ode(ode, TOL)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transport_working_set_is_bounded():
    # rank 4, 4 poles: the block-row recurrence, 16 discs at a time, peaked
    # at about 360 KB on this extraction
    ode = random_ode(np.random.default_rng(3), 4, 4)
    assert extraction_peak(ode) <= 320_000


@pytest.mark.parametrize("dim, npoles", [(1, 4), (2, 2)])
def test_transport_working_set_is_bounded_at_low_rank(dim, npoles):
    # a chunk holds 4096 / (dim^2 poles) discs, 1024 at rank 1 with 4 poles
    # and 512 at rank 2 with 2 poles: each extraction is one batch
    ode = random_ode(np.random.default_rng(3), dim, npoles)
    assert extraction_peak(ode) <= 320_000


def test_transport_matches_tight_dopri_reference():
    # the reference runs at 1e-14; adaptive DOPRI at 1e-10 itself misses
    # this bound by up to 15x on these shapes
    rng = np.random.default_rng(12)
    for dim, npoles in RANDOM_SHAPES:
        ode = random_ode(rng, dim, npoles)
        polylines = tuple_polylines(ode)
        for points, m in zip(polylines, _transport_polylines(ode, polylines, TOL)):
            ref = _reference_polyline(ode, points, 1e-14)
            assert np.max(np.abs(m - ref)) <= 1e-10 * np.max(np.abs(ref))


def grid_ode(rng):
    """Up to four poles on the grid of step 1/2 in [-2, 2]^2, residues with
    real and imaginary entries in [-1/2, 1/2]."""
    dim, npoles = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    cells = rng.choice(81, size=npoles, replace=False)
    poles = tuple(complex(c // 9 - 4, c % 9 - 4) / 2 for c in cells)
    residues = tuple(
        rng.uniform(-0.5, 0.5, (dim, dim)) + 1j * rng.uniform(-0.5, 0.5, (dim, dim))
        for _ in poles
    )
    labels = tuple(f"p{i}" for i in range(npoles))
    return FuchsianODE(poles, residues, labels, complex(0, -6), dim)


def non_resonant(r):
    ev = np.linalg.eigvals(r)
    gaps = [a - b for i, a in enumerate(ev) for b in ev[:i]]
    return all(abs(g - round(g.real)) > 1e-3 or round(g.real) == 0 for g in gaps)


def test_lasso_monodromies_match_local_exponents():
    for seed in range(50):
        ode = grid_ode(np.random.default_rng(seed))
        ext = monodromy_tuple_of_ode(ode, TOL)
        order = sorted(range(len(ode.poles)), key=lambda i: (ode.poles[i].real, ode.poles[i].imag))
        for m, k in zip(ext.monodromy.matrices, order):
            r = ode.residues[k]
            expected = cmath.exp(2j * math.pi * np.trace(r))
            assert abs(np.linalg.det(m) - expected) <= 1e-8 * max(1.0, abs(expected))
            if non_resonant(r):
                local = np.poly(np.exp(2j * np.pi * np.linalg.eigvals(r)))
                assert np.max(np.abs(np.poly(m) - local)) <= 1e-7 * np.max(np.abs(local))
        assert ext.product_residual <= 1e-8


def exp_2pi_i(r):
    ev, p = np.linalg.eig(r)
    return p @ np.diag(np.exp(2j * np.pi * ev)) @ np.linalg.inv(p)


def test_large_residues_match_exp_2pi_i_r():
    # S = sum_k ||R_k||_2 between 24 and 31.  All residues of one ODE
    # commute, so each lasso monodromy is exp(2 pi i R_k) itself.
    c, s = math.cos(0.7), math.sin(0.7)
    p = np.array([[c, -s], [s, c]]) @ np.diag([1.0, 1.5])
    pi = np.linalg.inv(p)
    r1 = (p @ np.diag([12.25, 12.75]) @ pi).astype(complex)
    r2 = (p @ np.diag([3.5, 2.25]) @ pi).astype(complex)
    odes = (
        scalar_ode(24.5),
        scalar_ode(-24.5),
        scalar_ode(30.25),
        FuchsianODE((0j,), (2.4 * r1,), ("a",), -2j, 2),
        FuchsianODE((0j, 1 + 0j), (r1, 2 * r2), ("a", "b"), 0.5 - 2j, 2),
    )
    for ode in odes:
        ext = monodromy_tuple_of_ode(ode, TOL)
        for m, r in zip(ext.monodromy.matrices, ode.residues):
            assert np.max(np.abs(np.asarray(m) - exp_2pi_i(r))) <= 1e-8
        assert ext.product_residual <= 1e-8


def test_tolerance_below_round_off_floor_is_refused():
    ode = scalar_ode(F(1, 2))
    _, loops, _ = standard_loops(ode.poles, ode.basepoint)
    with pytest.raises(ToleranceNotMet, match=r"1\.000e-20 is below the round-off floor \d"):
        transport_along_loop(ode, loops[0], 1e-20)


def test_compatibility_main_scenario(monkeypatch):
    kernel_calls = []
    original = katz.multiplicative_kernels

    def counting(*args):
        kernel_calls.append(args)
        return original(*args)

    for module in (katz, monodromy):
        monkeypatch.setattr(module, "multiplicative_kernels", counting)
    sys = four_lines_system(F(1, 2), F(1, 3), 0, 0)
    lam = ConvolutionParameter.make(F(1, 5))
    rep = verify_mc_compatibility(sys, Y_AXIS, lam, [F(2)], TOL, 1e-6)
    assert len(kernel_calls) == 1  # the fixed spaces are computed once
    assert rep.ok
    assert rep.rank_multiplicative == rep.rank_restricted == 2
    assert rep.charpoly_deviation < 1e-6
    assert rep.intertwiner_residual is not None and rep.intertwiner_residual < 1e-6


def test_compatibility_second_base_matches():
    sys = four_lines_system(F(1, 2), F(1, 3), 0, 0)
    lam = ConvolutionParameter.make(F(1, 5))
    r2 = verify_mc_compatibility(sys, Y_AXIS, lam, [F(2)], TOL, 1e-6)
    r3 = verify_mc_compatibility(sys, Y_AXIS, lam, [F(3)], TOL, 1e-6)
    assert r2.ok and r3.ok
    for key, entry in r2.generator_charpolys.items():
        other = r3.generator_charpolys[key]
        a = np.array(entry["multiplicative"])
        b = np.array(other["multiplicative"])
        assert np.max(np.abs(a - b)) < 1e-6


def test_compatibility_shifted_parameter_reported():
    # same character, parameter shifted by one: both runs succeed and the
    # multiplicative side is identical; equality of the additive sides is
    # reported through the same isomorphism machinery rather than asserted.
    sys = four_lines_system(F(1, 2), F(1, 3), 0, 0)
    r1 = verify_mc_compatibility(sys, Y_AXIS, ConvolutionParameter.make(F(1, 5)), [F(2)])
    r2 = verify_mc_compatibility(sys, Y_AXIS, ConvolutionParameter.make(F(6, 5)), [F(2)])
    assert r1.ok
    assert r2.rank_multiplicative == r1.rank_multiplicative
    assert isinstance(r2.ok, bool)


def test_compatibility_kz_system():
    sys = kz_system()
    lam = ConvolutionParameter.make(F(1, 5))
    rep = verify_mc_compatibility(sys, Y_AXIS, lam, [F(2)], TOL, 1e-6)
    assert rep.ok
    assert rep.rank_multiplicative == 2  # 2*2 - dim K (2) - dim L (0)


def test_compatibility_triple_point_three_punctures():
    from conftest import triple_point_system

    sys = triple_point_system()
    lam = ConvolutionParameter.make(F(1, 5))
    for base in ([F(2)], [F(-2)]):
        rep = verify_mc_compatibility(sys, Y_AXIS, lam, base, TOL, 1e-6)
        assert rep.ok
        assert rep.rank_multiplicative == 3


def test_compatibility_triple_point_with_large_residues():
    # transverse residues up to 3/2 in size: the loop-product check of
    # both fiber tuples must still pass
    from conftest import triple_point_system

    sys = triple_point_system(F(-1, 3), F(-3, 2), F(-7, 5))
    lam = ConvolutionParameter.make(F(-1, 6))
    rep = verify_mc_compatibility(sys, Y_AXIS, lam, [F(2)], TOL, 1e-6)
    assert rep.ok
    assert max(rep.product_residuals) < 1e-9


def test_compatibility_three_dimensional_slab():
    from conftest import Z_AXIS_3D, slab_system_3d

    sys = slab_system_3d()
    lam = ConvolutionParameter.make(F(1, 5))
    rep = verify_mc_compatibility(sys, Z_AXIS_3D, lam, [F(1, 3), F(0)], TOL, 1e-6)
    assert rep.ok
    assert rep.rank_multiplicative == 4
    assert rep.charpoly_deviation < 1e-6


def test_compatibility_randomized_parameters():
    # mixed signs, non-unit denominators, bases on both sides of the poles,
    # and resonant parameters (integer residue eigenvalues downstream)
    import random

    rng = random.Random(99)
    for _ in range(6):
        while True:
            a = F(rng.randint(-4, 4), rng.randint(2, 7))
            b = F(rng.randint(-4, 4), rng.randint(2, 7))
            lam_v = F(rng.randint(-3, 3), rng.randint(2, 7))
            if a == 0 or b == 0 or lam_v.denominator == 1:
                continue
            sys = four_lines_system(
                a, b, F(rng.randint(-2, 2), 3), F(rng.randint(-2, 2), 5)
            )
            lam = ConvolutionParameter.make(lam_v)
            from arrmc import check_assumption_generic

            if not check_assumption_generic(sys, Y_AXIS, lam).ok:
                continue
            break
        base = [F(rng.choice([-3, -2, 2, 3, 5]))]
        rep = verify_mc_compatibility(sys, Y_AXIS, lam, base)
        assert rep.ok, (a, b, lam_v, base)


def test_ill_conditioned_fiber_tuple_is_refused_not_misjudged():
    # complex residue eigenvalues with large imaginary part give monodromies
    # with ~1e7 condition number; numeric rank decisions cannot be trusted
    # there, and the verifier must say so instead of reporting a verdict
    from arrmc import Arrangement, Hyperplane
    from arrmc.errors import ToleranceNotMet

    arr = Arrangement.make(
        2,
        [
            Hyperplane.make([1, 0], 0, "x"),
            Hyperplane.make([0, 1], 0, "y"),
            Hyperplane.make([1, -1], 0, "d"),
            Hyperplane.make([1, 0], -1, "x1"),
        ],
    )
    a_y = ((F(-1), F(-1, 4)), (F(-2), F(-1, 2)))
    a_d = ((F(2), F(-1)), (F(2), F(3, 2)))
    s = F(-2, 5)
    a_x = tuple(
        tuple(s * (1 if i == j else 0) - a_y[i][j] - a_d[i][j] for j in range(2))
        for i in range(2)
    )
    sys = PfaffianSystem.make(
        arr, 2, {"x": a_x, "y": a_y, "d": a_d, "x1": ((F(0), F(0)), (F(0), F(0)))}
    )
    lam = ConvolutionParameter.make(F(1, 5))
    with pytest.raises(ToleranceNotMet, match="condition"):
        verify_mc_compatibility(sys, Y_AXIS, lam, [F(2)])


def test_assumption_guard_fires_before_integration():
    sys = four_lines_system(1, F(1, 3), 0, 0)  # integer eigenvalue 1
    with pytest.raises(AssumptionFail):
        verify_mc_compatibility(sys, Y_AXIS, ConvolutionParameter.make(F(1, 5)), [F(2)])


def test_loop_product_with_poles_above_each_other():
    # the arm to the upper pole must pass right of the lower one, which
    # comes first in the (real, imaginary) order
    r0 = np.array([[0, 0], [0, 0.5j]])
    r1 = np.array([[0, 0], [0.5, 0]], dtype=complex)
    ode = FuchsianODE((0j, 0.5j), (r0, r1), ("a", "b"), -6j, 2)
    assert monodromy_tuple_of_ode(ode, TOL).product_residual < 1e-8


def test_enclosing_polyline_winds_once():
    poles = [0j, 2 + 0j, 1 + 1j]
    pts = enclosing_polyline(poles, -5j)
    for q in poles:
        assert winding_number(pts, q) == 1

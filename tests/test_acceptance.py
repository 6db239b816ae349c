"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
"""

import contextlib
import json
import random
import time
from fractions import Fraction as F

import numpy as np

from arrmc import (
    Arrangement,
    CharacterValue,
    ConvolutionParameter,
    Hyperplane,
    LineDirection,
    MonodromyTuple,
    build_intersection_poset,
    check_assumption_generic,
    check_integrability,
    check_property_p,
    check_star_conditions,
    convolve,
    goodness_fiber_oracle,
    is_good_line,
    kernel_subspaces,
    middle_convolve,
    multiplicative_middle_convolution,
    transport_along_loop,
    tuple_isomorphism,
    verify_composition_law,
    verify_mc_compatibility,
)
from arrmc.fuchsian import FuchsianODE, standard_loops
from arrmc.linalg import rank as mat_rank
from arrmc.cli import main as cli_main

from conftest import (
    Y_AXIS,
    braid3,
    brute_force_poset,
    composition_corpus,
    four_lines,
    four_lines_system,
    in_span,
    mat_vec,
    random_arrangement,
)

H = Hyperplane.make


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS")


def test_criterion_01_poset_matches_brute_force():
    with criterion(1, "intersection poset vs subset enumeration"):
        start = time.monotonic()
        rng = random.Random(101)
        checked = 0
        while checked < 25:
            dim = rng.randint(1, 3)
            arr = random_arrangement(rng, dim, rng.randint(0, 6))
            poset = build_intersection_poset(arr)
            assert {f.rows for f in poset.flats()} == brute_force_poset(arr)
            checked += 1
        elapsed = time.monotonic() - start
        assert checked >= 25
        assert elapsed < 10.0, f"poset oracle took {elapsed:.1f}s"


def _goodness_corpus():
    e2 = Y_AXIS
    diag = LineDirection.make([1, 1])
    e3 = LineDirection.make([0, 0, 1])
    cases = [
        (four_lines(), e2, True),
        (braid3(), e2, True),
        (Arrangement.make(2, [H([1, 0], 0, "x")]), e2, True),
        (Arrangement.make(2, [H([1, 0], 0, "a"), H([1, 0], -1, "b")]), e2, True),
        (braid3(), diag, True),
        (
            Arrangement.make(
                3, [H([1, 0, 0], 0, "x"), H([0, 1, 0], 0, "y"), H([0, 0, 1], 0, "z")]
            ),
            e3,
            True,
        ),
        (
            Arrangement.make(
                2,
                [
                    H([1, 0], 0, "x"),
                    H([0, 1], 0, "y"),
                    H([1, -1], 0, "d"),
                    H([1, 1], 0, "s"),
                ],
            ),
            e2,
            True,
        ),
        (
            Arrangement.make(
                2,
                [H([1, 0], 0, "x"), H([0, 1], 0, "y"), H([1, 0], -1, "x1"), H([0, 1], -1, "y1")],
            ),
            e2,
            True,
        ),
        (Arrangement.make(2, [H([0, 1], 0, "y"), H([1, -1], 0, "d")]), e2, False),
        (four_lines(), diag, False),
        (
            Arrangement.make(
                2, [H([1, 0], 0, "x"), H([0, 1], 0, "y"), H([1, 1], -1, "t")]
            ),
            e2,
            False,
        ),
        (
            Arrangement.make(3, [H([0, 1, 0], 0, "y"), H([1, -1, 0], 0, "d")]),
            LineDirection.make([0, 1, 0]),
            False,
        ),
    ]
    return cases


def test_criterion_02_goodness_equivalence():
    with criterion(2, "good-line test vs fiber-counting oracle"):
        cases = _goodness_corpus()
        assert len(cases) >= 10
        assert sum(1 for _, _, expected in cases if not expected) >= 3
        for arr, y, expected in cases:
            exact, witness = is_good_line(arr, y)
            oracle, report = goodness_fiber_oracle(arr, y, 20)
            assert exact is expected
            assert oracle is expected
            if not expected:
                assert witness is not None
                assert report["collision"] is not None


LAM = ConvolutionParameter.make(F(1, 5))


def test_criterion_03_convolution_preserves_integrability():
    with criterion(3, "convolution preserves integrability"):
        count = 0
        for sys, y in composition_corpus() + [
            (four_lines_system(0, 0, 0, 0), Y_AXIS),
            (four_lines_system(0, F(1, 3), F(2, 7), F(1, 2)), Y_AXIS),
        ]:
            assert check_integrability(sys).ok
            cr = convolve(sys, y, LAM)
            assert check_integrability(cr.system).ok
            count += 1
        assert count >= 7


def test_criterion_04_dimension_formulas():
    with criterion(4, "convolution and quotient dimension formulas"):
        corpus = composition_corpus() + [
            (four_lines_system(0, 0, 0, 0), Y_AXIS),
            (four_lines_system(0, F(1, 3), 0, 0), Y_AXIS),
        ]
        for sys, y in corpus:
            cr = convolve(sys, y, LAM)
            n = len(cr.block_order)
            assert cr.system.dim_e == n * sys.dim_e
            out = middle_convolve(sys, y, LAM)
            k, l = kernel_subspaces(sys, y, LAM)
            assert out.dim_e == n * sys.dim_e - len(k) - len(l)
        lam_half = ConvolutionParameter.make(F(1, 2))
        degenerate = middle_convolve(four_lines_system(0, 0, 0, 0), Y_AXIS, lam_half)
        assert degenerate.dim_e == 0


def test_criterion_05_kernel_invariance():
    with criterion(5, "kernel subspaces: trivial intersection and invariance"):
        corpus = composition_corpus() + [
            (four_lines_system(0, 0, 0, 0), Y_AXIS),
            (four_lines_system(0, F(1, 3), 0, 0), Y_AXIS),
        ]
        checked = 0
        for sys, y in corpus:
            if not check_assumption_generic(sys, y, LAM).ok:
                continue
            cr = convolve(sys, y, LAM)
            cols = list(cr.block_kernel_basis) + list(cr.diagonal_kernel_basis)
            if cols:
                assert mat_rank(tuple(cols)) == len(cols)  # K meets L trivially
            for m in cr.system.residues.values():
                for v in cols:
                    assert in_span(mat_vec(m, v), cols)
            checked += 1
        assert checked >= 7


def test_criterion_06_additive_composition_laws():
    with criterion(6, "additive composition and inverse laws"):
        start = time.monotonic()
        pairs = [
            (F(1, 5), F(1, 7)),
            (F(1, 2), F(1, 3)),
            (F(2, 3), F(-1, 5)),
        ]
        systems = [
            (sys, y)
            for sys, y in composition_corpus()
            if check_star_conditions(sys, y).ok
        ]
        assert len(systems) >= 5
        for lam_v, mu_v in pairs:
            for sys, y in systems:
                rep = verify_composition_law(
                    sys, y, ConvolutionParameter.make(lam_v), ConvolutionParameter.make(mu_v)
                )
                assert rep.additive_law_holds and rep.additive_intertwiner is not None
                assert rep.inverse_law_holds and rep.inverse_intertwiner is not None
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"composition laws took {elapsed:.1f}s"


def _property_p_tuples():
    exact_1 = MonodromyTuple.exact_tuple(
        [[[F(2), F(1)], [F(0), F(3)]], [[F(1), F(0)], [F(1), F(2)]]]
    )
    exact_2 = MonodromyTuple.exact_tuple([[[F(2)]], [[F(3)]], [[F(5)]]])
    exact_3 = MonodromyTuple.exact_tuple(
        [[[F(3), F(1)], [F(1), F(2)]], [[F(2), F(0)], [F(1), F(1, 2)]]]
    )
    e = lambda num, den: complex(np.exp(2j * np.pi * num / den))
    num_1 = MonodromyTuple.numeric([[[e(1, 2)]], [[e(1, 3)]]])
    g = np.array([[1.0, 1.0], [0.5, -1.0]], dtype=complex)
    gi = np.linalg.inv(g)
    num_2 = MonodromyTuple.numeric(
        [
            g @ np.diag([e(1, 3), e(1, 7)]) @ gi,
            g @ np.diag([e(2, 5), e(1, 2)]) @ gi,
        ]
    )
    return [exact_1, exact_2, exact_3, num_1, num_2]


def test_criterion_07_multiplicative_composition_laws():
    with criterion(7, "multiplicative composition and inverse laws"):
        tuples = _property_p_tuples()
        assert len(tuples) >= 5
        for t in tuples:
            assert check_property_p(t).ok
            if t.exact:
                c = CharacterValue.from_scalar(F(2))
                cp = CharacterValue.from_scalar(F(3))
            else:
                c = CharacterValue.from_exponent(F(1, 5))
                cp = CharacterValue.from_exponent(F(1, 7))
            mc = multiplicative_middle_convolution(t, c)
            comp = multiplicative_middle_convolution(mc, cp)
            direct = multiplicative_middle_convolution(t, c.product(cp))
            ok, _ = tuple_isomorphism(comp, direct, tol=1e-8)
            assert ok
            back = multiplicative_middle_convolution(mc, c.inverse())
            ok, _ = tuple_isomorphism(back, t, tol=1e-8)
            assert ok


def test_criterion_08_numeric_monodromy_oracle():
    with criterion(8, "numeric loop monodromy against closed forms"):
        start = time.monotonic()
        for num, den in ((1, 2), (1, 3), (1, 5)):
            ode = FuchsianODE(
                (0j,), (np.array([[complex(F(num, den))]]),), ("p",), -2j, 1
            )
            _, loops, _ = standard_loops(ode.poles, ode.basepoint)
            m = transport_along_loop(ode, loops[0], 1e-10)
            assert abs(m[0, 0] - np.exp(2j * np.pi * num / den)) < 1e-8
        r = np.array([[F(1, 4), F(1, 3)], [F(1, 5), F(1, 7)]], dtype=complex)
        ode = FuchsianODE((0j,), (r,), ("p",), -2j, 2)
        _, loops, _ = standard_loops(ode.poles, ode.basepoint)
        m = transport_along_loop(ode, loops[0], 1e-10)
        assert abs(np.linalg.det(m) - np.exp(2j * np.pi * np.trace(r))) < 1e-8
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"monodromy oracle took {elapsed:.1f}s"


def test_criterion_09_convolution_monodromy_compatibility():
    with criterion(9, "middle convolution compatible with fiber monodromy"):
        start = time.monotonic()
        sys = four_lines_system(F(1, 2), F(1, 3), 0, 0)
        lam = ConvolutionParameter.make(F(1, 5))
        rep2 = verify_mc_compatibility(sys, Y_AXIS, lam, [F(2)], 1e-10, 1e-6)
        assert rep2.ok
        assert rep2.charpoly_deviation < 1e-6
        assert rep2.intertwiner_residual is not None
        assert rep2.intertwiner_residual < 1e-6
        rep3 = verify_mc_compatibility(sys, Y_AXIS, lam, [F(3)], 1e-10, 1e-6)
        assert rep3.ok and rep3.charpoly_deviation < 1e-6
        # constancy over the base: conjugacy invariants agree between fibers
        for key, entry in rep2.generator_charpolys.items():
            a = np.array(entry["multiplicative"])
            b = np.array(rep3.generator_charpolys[key]["multiplicative"])
            assert np.max(np.abs(a - b)) < 1e-6
            a = np.array(entry["restricted"])
            b = np.array(rep3.generator_charpolys[key]["restricted"])
            assert np.max(np.abs(a - b)) < 1e-6
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"compatibility check took {elapsed:.1f}s"


def test_criterion_10_rh_transfer_scenario(tmp_path, capsys):
    with criterion(10, "solvability transfer pipeline end to end"):
        from arrmc import serialization as ser

        sys = four_lines_system(F(1, 2), F(1, 3), 0, 0)
        path = tmp_path / "system.json"
        path.write_text(ser.dumps(ser.system_to_json(sys)))
        code = cli_main(
            [
                "rh-verify",
                str(path),
                "--line",
                "0,1",
                "--lambda",
                "1/5",
                "--base",
                "2",
            ]
        )
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == 0
        assert report["ok"]
        assert report["stages"] == {
            "integrable": True,
            "genericity_ok": True,
            "star_ok": True,
            "compatibility_ok": True,
            "round_trip_ok": True,
        }

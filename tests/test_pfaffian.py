import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from arrmc import (
    Arrangement,
    CharacterValue,
    ConvolutionParameter,
    Hyperplane,
    InputError,
    NonIntegrableInput,
    ParameterIntegral,
    PfaffianSystem,
    check_assumption_generic,
    check_integrability,
    check_star_conditions,
    fiber_restriction,
)
from arrmc.linalg import commutator, is_zero_matrix, mat_add, mat_scale, transpose

from conftest import (
    Y_AXIS,
    X_AXIS_1D,
    braid3,
    four_lines_system,
    kz_system,
    line_system,
    random_arrangement,
)

H = Hyperplane.make


def test_parameter_must_be_noninteger():
    with pytest.raises(ParameterIntegral):
        ConvolutionParameter.make(2)
    p = ConvolutionParameter.make(F(7, 5))
    assert CharacterValue.from_exponent(p.value).exponent == F(2, 5)
    assert p.negated().value == F(-7, 5)


def test_system_validation():
    arr = braid3()
    with pytest.raises(InputError):
        PfaffianSystem.make(arr, 1, {"x": [[1]], "y": [[1]]})
    with pytest.raises(InputError):
        PfaffianSystem.make(arr, 2, {"x": [[1]], "y": [[1]], "d": [[1]]})


def test_integrability_scalar_and_identity_cases():
    sys = four_lines_system(F(1, 2), F(1, 3), F(1, 5), F(2, 7))
    assert check_integrability(sys).ok
    arr = braid3()
    ident = {lbl: [[F(i + 1), 0], [0, F(i + 1)]] for i, lbl in enumerate(arr.labels())}
    assert check_integrability(PfaffianSystem.make(arr, 2, ident)).ok


def test_integrability_failure_witness():
    arr = Arrangement.make(2, [H([1, 0], 0, "a"), H([0, 1], 0, "b")])
    residues = {"a": [[0, 1], [0, 0]], "b": [[0, 0], [1, 0]]}
    rep = check_integrability(PfaffianSystem.make(arr, 2, residues, check=False))
    assert not rep.ok
    flat, lbl = rep.witness
    assert flat.rank == 2 and lbl in ("a", "b")
    with pytest.raises(NonIntegrableInput):
        PfaffianSystem.make(arr, 2, residues)


def full_loop_integrability_witness(sys):
    """Reference: the commutator of every label of a rank-two flat with the
    flat's sum, the last label included; the first failure or None."""
    if sys.dim_e <= 1:
        return None
    for x in sys.arrangement.poset.rank_two():
        labels = sorted(x.containing)
        if len(labels) < 2:
            continue
        total = functools.reduce(mat_add, (sys.residues[lbl] for lbl in labels))
        for lbl in labels:
            if not is_zero_matrix(commutator(sys.residues[lbl], total)):
                return (x, lbl)
    return None


def test_integrability_witness_matches_full_loop_reference():
    rng = random.Random(29)
    failing = 0
    for _ in range(40):
        # lines through the origin meet in one flat of several labels
        count = rng.randint(3, 5)
        hs, seen = [], set()
        while len(hs) < count:
            coeffs = [rng.randint(-2, 2), rng.randint(-2, 2)]
            if not any(coeffs):
                continue
            h = H(coeffs, rng.choice([0, 0, 1]), f"h{len(hs)}")
            if (h.coeffs, h.constant) not in seen:
                seen.add((h.coeffs, h.constant))
                hs.append(h)
        arr = Arrangement.make(2, hs)
        d_e = rng.randint(2, 3)
        residues = {
            h.label: [[F(rng.randint(-2, 2)) for _ in range(d_e)] for _ in range(d_e)]
            for h in arr.hyperplanes
        }
        sys = PfaffianSystem.make(arr, d_e, residues, check=False)
        rep = check_integrability(sys)
        reference = full_loop_integrability_witness(sys)
        assert rep.ok == (reference is None)
        assert rep.witness == reference
        failing += not rep.ok
    assert failing >= 30


def test_kz_system_integrable_but_noncommuting():
    sys = kz_system()
    assert check_integrability(sys).ok
    assert not is_zero_matrix(commutator(sys.residues["y"], sys.residues["d"]))


def _poly_mulv(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, F(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _linear_form_poly(h, l: int) -> dict:
    out = {(0,) * l: h.constant}
    for i, c in enumerate(h.coeffs):
        if c != 0:
            e = tuple(1 if k == i else 0 for k in range(l))
            out[e] = c
    return {e: c for e, c in out.items() if c != 0}


def _wedge_expansion_vanishes(sys: PfaffianSystem) -> bool:
    """Independent symbolic oracle: expand the wedge square in coordinates.

    The dx_i ^ dx_j coefficient times the defining polynomial equals
    sum over pairs of [A_a, A_b] (c_ai c_bj - c_aj c_bi) prod_(h != a,b) f_h,
    a genuine polynomial; it is expanded exactly and compared with zero.
    """
    arr = sys.arrangement
    l = arr.ambient_dim
    hs = list(arr.hyperplanes)
    m = len(hs)
    d_e = sys.dim_e
    for i, j in itertools.combinations(range(l), 2):
        total: dict = {}
        for a, b in itertools.combinations(range(m), 2):
            ha, hb = hs[a], hs[b]
            minor = ha.coeffs[i] * hb.coeffs[j] - ha.coeffs[j] * hb.coeffs[i]
            if minor == 0:
                continue
            comm = commutator(sys.residues[ha.label], sys.residues[hb.label])
            if is_zero_matrix(comm):
                continue
            cofactor = {(0,) * l: F(1)}
            for k, h in enumerate(hs):
                if k not in (a, b):
                    cofactor = _poly_mulv(cofactor, _linear_form_poly(h, l))
            for r in range(d_e):
                for s in range(d_e):
                    if comm[r][s] == 0:
                        continue
                    for e, c in cofactor.items():
                        key = (r, s, e)
                        total[key] = total.get(key, F(0)) + minor * comm[r][s] * c
        if any(c != 0 for c in total.values()):
            return False
    return True


def test_integrability_agrees_with_wedge_expansion():
    # both branches pinned first
    assert _wedge_expansion_vanishes(kz_system())
    arr = Arrangement.make(2, [H([1, 0], 0, "a"), H([0, 1], 0, "b")])
    bad = PfaffianSystem.make(
        arr, 2, {"a": [[0, 1], [0, 0]], "b": [[0, 0], [1, 0]]}, check=False
    )
    assert not _wedge_expansion_vanishes(bad)

    rng = random.Random(17)
    agree_checked = 0
    for _ in range(12):
        dim = rng.randint(2, 3)
        arr = random_arrangement(rng, dim, rng.randint(2, 4))
        if len(arr) < 2:
            continue
        d_e = rng.randint(1, 2)
        residues = {
            h.label: [[F(rng.randint(-2, 2)) for _ in range(d_e)] for _ in range(d_e)]
            for h in arr.hyperplanes
        }
        sys = PfaffianSystem.make(arr, d_e, residues, check=False)
        assert check_integrability(sys).ok == _wedge_expansion_vanishes(sys)
        agree_checked += 1
    assert agree_checked >= 8


def test_genericity_examples():
    arr = Arrangement.make(2, [H([0, 1], 0, "y"), H([1, -1], 0, "d")])
    lam = ConvolutionParameter.make(F(1, 5))
    bad = PfaffianSystem.make(
        arr, 2, {"y": [[1, 0], [0, F(1, 2)]], "d": [[0, 0], [0, 0]]}, check=False
    )
    rep = check_assumption_generic(bad, Y_AXIS, lam)
    assert not rep.ok and ("y", 1) in rep.offenders

    good = PfaffianSystem.make(
        arr, 2, {"y": [[F(1, 2), 0], [0, F(1, 3)]], "d": [[F(1, 3), 0], [0, F(1, 2)]]},
        check=False,
    )
    assert check_assumption_generic(good, Y_AXIS, lam).ok

    nilp = PfaffianSystem.make(
        arr, 2, {"y": [[0, 1], [0, 0]], "d": [[0, 0], [0, 0]]}, check=False
    )
    rep = check_assumption_generic(nilp, Y_AXIS, ConvolutionParameter.make(F(1, 5)))
    assert rep.ok  # zero is not a nonzero integer


def test_genericity_checks_shifted_sum():
    arr = Arrangement.make(2, [H([0, 1], 0, "y"), H([1, -1], 0, "d")])
    # sum of transverse residues + lambda = 1 exactly
    sys = PfaffianSystem.make(arr, 1, {"y": [[F(1, 4)]], "d": [[F(1, 4)]]})
    rep = check_assumption_generic(sys, Y_AXIS, ConvolutionParameter.make(F(1, 2)))
    assert not rep.ok and ("<sum>", 1) in rep.offenders


def test_star_scalar_closed_form():
    # dim 1: the kernel condition for H holds iff some other residue is nonzero
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        qs = list(range(n))
        scalars = [F(rng.randint(0, 2), rng.randint(1, 3)) for _ in range(n)]
        sys = line_system(qs, [[[s]] for s in scalars])
        rep = check_star_conditions(sys, X_AXIS_1D)
        expected = all(
            any(s2 != 0 for j2, s2 in enumerate(scalars) if j2 != j) for j in range(n)
        )
        assert rep.ok == expected


def test_star_examples():
    sys = four_lines_system(F(1, 2), F(1, 3), 0, 0)
    assert check_star_conditions(sys, Y_AXIS).ok
    zero_one = four_lines_system(0, F(1, 3), 0, 0)
    rep = check_star_conditions(zero_one, Y_AXIS)
    assert not rep.ok
    assert ("kernel", "d") in rep.failures  # W = Ker(A_y) = E, pencil singular
    assert check_star_conditions(kz_system(), Y_AXIS).ok


def test_dual_preserves_genericity_status():
    lam = ConvolutionParameter.make(F(1, 5))
    cases = [
        four_lines_system(F(1, 2), F(1, 3), 0, 0),
        four_lines_system(1, F(1, 3), 0, 0),  # integer eigenvalue 1
        kz_system(),
    ]
    for sys in cases:
        direct = check_assumption_generic(sys, Y_AXIS, lam).ok
        # the dual system: residues negated and transposed
        residues = {lbl: mat_scale(transpose(m), F(-1)) for lbl, m in sys.residues.items()}
        dual_sys = PfaffianSystem(sys.arrangement, sys.dim_e, residues)
        dual = check_assumption_generic(dual_sys, Y_AXIS, lam.negated()).ok
        assert direct == dual


def test_fiber_restriction():
    sys = four_lines_system(F(1, 2), F(1, 3), 0, 0)
    ode = fiber_restriction(sys, Y_AXIS, [F(2)])
    assert ode.poles == (0j, 2 + 0j)
    assert ode.labels == ("y", "d")
    assert ode.residues[0][0, 0] == 0.5
    assert ode.residues[1][0, 0] == pytest.approx(1 / 3)
    inf = ode.residue_at_infinity()
    assert inf[0, 0] == pytest.approx(-0.5 - 1 / 3)


def test_fiber_restriction_all_parallel_is_empty():
    arr = Arrangement.make(2, [H([1, 0], 0, "a"), H([1, 0], -1, "b")])
    sys = PfaffianSystem.make(arr, 3, {
        "a": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        "b": [[0, 0, 0], [1, 0, 0], [0, 0, 1]],
    }, check=False)
    ode = fiber_restriction(sys, Y_AXIS, [F(5)])
    assert ode.poles == () and ode.dim == 3


def test_fiber_restriction_rejects_collision_base():
    from conftest import nongood_pair

    sys = PfaffianSystem.make(
        nongood_pair(), 1, {"y": [[F(1, 2)]], "d": [[F(1, 3)]]}
    )
    with pytest.raises(InputError):
        fiber_restriction(sys, Y_AXIS, [F(0)])

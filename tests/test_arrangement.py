import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from arrmc import (
    Arrangement,
    ConvolutionParameter,
    Hyperplane,
    InputError,
    LineDirection,
    PfaffianSystem,
    build_intersection_poset,
    cone,
    convolve,
    decone,
    fiber_points,
    goodness_fiber_oracle,
    is_good_line,
    middle_convolve,
)
from arrmc import arrangement, linalg, serialization
from arrmc.linalg import integer_rref, mat, rank, rref, vec

from conftest import (
    Y_AXIS,
    braid3,
    brute_force_poset,
    contains_flat,
    flat_point,
    four_lines,
    mat_inverse,
    mat_vec,
    nongood_pair,
    random_arrangement,
    random_arrangement_with_parallels,
    reference_containing,
    reference_coordinates,
    reference_forms,
    reference_shift,
    transverse_rank_two,
)


H = Hyperplane.make


def test_hyperplane_canonical_equality():
    h1 = H([2, -4], 6, "a")
    h2 = H([1, -2], 3, "b")
    assert h1 == h2 and hash(h1) == hash(h2)
    assert h1.label == "a"
    with pytest.raises(InputError):
        H([0, 0], 1, "zero")


def test_arrangement_rejects_duplicates():
    with pytest.raises(InputError):
        Arrangement.make(2, [H([1, 0], 0, "a"), H([2, 0], 0, "b")])
    with pytest.raises(InputError):
        Arrangement.make(2, [H([1, 0], 0, "a"), H([0, 1], 0, "a")])


def test_poset_braid_example():
    poset = build_intersection_poset(braid3())
    assert [len(s) for s in poset.by_rank] == [1, 3, 1]
    origin = poset.by_rank[2][0]
    assert origin.containing == {"x", "y", "d"}
    assert origin.point() == (F(0), F(0))


def test_poset_is_cached_on_the_arrangement():
    arr = four_lines()
    assert arr.poset is arr.poset
    assert arr.poset == build_intersection_poset(arr)


def test_middle_convolve_builds_each_poset_once(monkeypatch):
    built = []
    original = arrangement.build_intersection_poset

    def counting(arr):
        built.append(arr)
        return original(arr)

    monkeypatch.setattr(arrangement, "build_intersection_poset", counting)
    corpus = Path(__file__).parent / "corpus" / "four_lines_system.json"
    sys_ = serialization.system_from_json(serialization.load_path(str(corpus)))
    out = middle_convolve(sys_, Y_AXIS, ConvolutionParameter.make(F(1, 5)))
    # a good line adds no hyperplane: the convolution and its quotient live
    # on the input arrangement and share its poset
    assert len(built) == 1
    assert built[0] is sys_.arrangement
    assert out.arrangement is sys_.arrangement


def test_convolve_off_a_good_line_builds_the_enlarged_poset(monkeypatch):
    built = []
    original = arrangement.build_intersection_poset

    def counting(arr):
        built.append(arr)
        return original(arr)

    monkeypatch.setattr(arrangement, "build_intersection_poset", counting)
    corpus = Path(__file__).parent / "corpus" / "nongood_arrangement.json"
    arr = serialization.arrangement_from_json(serialization.load_path(str(corpus)))
    sys_ = PfaffianSystem.make(arr, 1, {"y": [[F(1, 2)]], "d": [[F(1, 3)]]})
    cr = convolve(sys_, Y_AXIS, ConvolutionParameter.make(F(1, 5)), require_good=False)
    # the shifts are read from the input's poset; the shift of the origin
    # adds x = 0, so the convolution needs a new arrangement, and its
    # integrability check builds that poset once
    enlarged = cr.system.arrangement
    assert enlarged is not arr and len(enlarged) == len(arr) + 1
    assert len(built) == 2 and built[0] is arr and built[1] is enlarged


def test_poset_empty_arrangement():
    poset = build_intersection_poset(Arrangement.make(2, []))
    assert [len(s) for s in poset.by_rank] == [1]


def test_poset_parallel_lines_no_meet():
    arr = Arrangement.make(2, [H([1, 0], 0, "a"), H([1, 0], -1, "b")])
    poset = build_intersection_poset(arr)
    assert [len(s) for s in poset.by_rank] == [1, 2]


def test_poset_rank_one_is_the_arrangement():
    poset = build_intersection_poset(four_lines())
    assert all(len(f.containing) == 1 for f in poset.by_rank[1])
    assert {next(iter(f.containing)) for f in poset.by_rank[1]} == set(
        four_lines().labels()
    )


def test_poset_matches_brute_force_random():
    rng = random.Random(11)
    for _ in range(12):
        dim = rng.randint(1, 3)
        arr = random_arrangement(rng, dim, rng.randint(0, 6))
        poset = build_intersection_poset(arr)
        got = {f.rows for f in poset.flats()}
        assert got == brute_force_poset(arr)


def test_containing_matches_the_rank_reference_random():
    """Every flat's containing set against one rank per hyperplane, on
    random arrangements in C^1 to C^4: small coefficients give many
    coincidences, and every third arrangement has parallel families.  The
    kept integer rows of flats and hyperplanes span the canonical rows."""
    rng = random.Random(2023)
    flats = 0
    for trial in range(300):
        dim = 1 + trial % 4
        if trial % 3 == 0:
            arr = random_arrangement_with_parallels(rng, dim)
        else:
            arr = random_arrangement(rng, dim, rng.randint(1, 8 - dim))
        for h in arr.hyperplanes:
            assert all(type(c) is int for c in h.integer_row)
            assert rref((vec(h.integer_row),))[0] == (h.equation_row(),)
        for f in arr.poset.flats():
            assert f.containing == reference_containing(f, arr)
            assert integer_rref(f.integer_rows)[0] == f.rows
            flats += 1
    assert flats >= 3000, flats


def test_poset_build_eliminates_no_fraction_rows(monkeypatch):
    """The poset build eliminates only on kept integer rows: ``rank`` and
    ``rref``, which convert ``Fraction`` rows, are never called."""

    def refuse(*args):
        raise AssertionError("the poset build converted Fraction rows")

    converting = (linalg.rank, linalg.rref)
    for module in (linalg, arrangement):
        for name, obj in list(vars(module).items()):
            if obj in converting:
                monkeypatch.setattr(module, name, refuse)
    arr = random_arrangement(random.Random(8), 3, 8)
    assert len(arr) == 8
    got = {f.rows for f in build_intersection_poset(arr).flats()}
    monkeypatch.undo()
    assert got == brute_force_poset(arr)


def test_cover_relations_are_inclusions():
    poset = build_intersection_poset(four_lines())
    assert poset.covers
    for upper, lower in poset.covers:
        assert lower.rank == upper.rank + 1
        assert contains_flat(upper, lower)


@pytest.mark.parametrize("dim", [2, 3])
def test_covers_and_points_match_rank_references_random(dim):
    rng = random.Random(100 + dim)
    for _ in range(15):
        poset = build_intersection_poset(random_arrangement_with_parallels(rng, dim))
        expected = [
            (f.rows, g.rows)
            for upper, lower in zip(poset.by_rank, poset.by_rank[1:])
            for f in upper
            for g in lower
            if contains_flat(f, g)
        ]
        assert [(f.rows, g.rows) for f, g in poset.covers] == expected
        assert all(f.point() == flat_point(f) for f in poset.flats())


@pytest.mark.parametrize("dim", [2, 3])
def test_shift_flats_are_the_transverse_rank_two_flats_random(dim):
    rng = random.Random(200 + dim)
    checked = 0
    for _ in range(15):
        arr = random_arrangement_with_parallels(rng, dim)
        for _ in range(3):
            direction = [rng.randint(-1, 2) for _ in range(dim)]
            if not any(direction):
                continue
            y = LineDirection.make(direction)
            got = [x.rows for x, _ in arr.along(y).shifts]
            assert got == [x.rows for x in transverse_rank_two(arr, y)]
            checked += bool(got)
    assert checked >= 10


# directions whose last coordinate is 0 put the axis of the view elsewhere
_OFF_AXIS = {2: [(1, 0), (2, -1)], 3: [(0, 1, 0), (2, -1, 0), (1, 0, 0)], 4: [(1, -2, 1, 0), (0, 0, 1, 0)]}


def test_along_line_matches_the_elimination_references_random():
    """``forms``, the coordinates of every flat's point and directions, and
    the shifts X + Y, against the basis-and-elimination references, on
    random arrangements in C^2 to C^4 and random directions, some with last
    coordinate 0."""
    rng = random.Random(2021)
    off_axis = shifted = 0
    for trial in range(300):
        dim = 2 + trial % 3
        if trial % 4 == 0 and dim < 4:
            arr = random_arrangement_with_parallels(rng, dim)
        else:
            arr = random_arrangement(rng, dim, rng.randint(2, 7 - dim))
        if trial // 3 % 3 == 0:
            direction = rng.choice(_OFF_AXIS[dim])
        else:
            direction = [rng.randint(-2, 2) for _ in range(dim)]
            if not any(direction):
                continue
        y = LineDirection.make(direction)
        off_axis += y.direction[-1] == 0
        view = arr.along(y)
        assert view.forms == reference_forms(arr, y)
        for f in arr.poset.flats():
            for x in [f.point()] + f.directions():
                assert view.coordinates(x) == reference_coordinates(y, x)
        want = [(x.rows, reference_shift(x, y).rows) for x in transverse_rank_two(arr, y)]
        assert [(x.rows, s.rows) for x, s in view.shifts] == want
        shifted += len(want)
    assert off_axis >= 100 and shifted >= 800, (off_axis, shifted)


def test_goodline_job_builds_one_poset(monkeypatch, tmp_path):
    from arrmc import cli

    built = []
    original = arrangement.build_intersection_poset

    def counting(arr):
        built.append(arr)
        return original(arr)

    monkeypatch.setattr(arrangement, "build_intersection_poset", counting)
    corpus = Path(__file__).parent / "corpus" / "four_lines_arrangement.json"
    out = tmp_path / "report.json"
    code = cli.main(["goodline", str(corpus), "--line", "0,1", "--samples", "5", "--out", str(out)])
    assert code == 0
    assert len(built) == 1


def test_good_line_examples():
    assert is_good_line(four_lines(), Y_AXIS)[0]
    good, witness = is_good_line(nongood_pair(), Y_AXIS)
    assert not good
    assert witness.rank == 2 and witness.point() == (F(0), F(0))
    single = Arrangement.make(2, [H([1, 0], 0, "x")])
    assert is_good_line(single, Y_AXIS)[0]  # vacuous
    assert is_good_line(single, LineDirection.make([1, 7]))[0]


def test_good_line_invariant_under_coordinate_change():
    rng = random.Random(5)
    cases = [(four_lines(), True), (nongood_pair(), False), (braid3(), True)]
    for _ in range(8):
        while True:
            t = mat([[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
            if rank(t) == 2:
                break
        t_inv = mat_inverse(t)
        for arr, expected in cases:
            # substitute x -> T x: coeffs transform by T^T, direction by T^-1
            hs = [
                Hyperplane.make(mat_vec(tuple(zip(*t)), h.coeffs), h.constant, h.label)
                for h in arr.hyperplanes
            ]
            y2 = LineDirection.make(mat_vec(t_inv, Y_AXIS.direction))
            assert is_good_line(Arrangement.make(2, hs), y2)[0] is expected


def test_parallel_subarrangement():
    view = four_lines().along(Y_AXIS)
    assert [h.label for h in view.parallel] == ["x", "x1"]
    assert [h.label for h in view.transverse] == ["y", "d"]
    arr = Arrangement.make(2, [H([0, 1], 0, "y")])
    assert not arr.along(Y_AXIS).parallel and len(arr.along(Y_AXIS).transverse) == 1
    view = arr.along(LineDirection.make([1, 0]))
    assert len(view.parallel) == 1 and not view.transverse


def test_along_line_is_kept_per_direction():
    arr = four_lines()
    view = arr.along(Y_AXIS)
    assert arr.along(LineDirection.make([0, 2])) is view
    assert arr.along(LineDirection.make([1, 1])) is not view
    assert view.blocks == ("y", "d")
    # the last coordinate of a form is its value on y: zero iff parallel
    assert {lbl for lbl, f in view.forms.items() if f[-1] == 0} == {"x", "x1"}
    with pytest.raises(InputError, match="line direction dimension mismatch"):
        arr.along(LineDirection.make([1]))


def test_shifted_family_examples():
    x_axis = ((F(1), F(0), F(0)),)  # x = 0
    for arr in (four_lines(), braid3()):
        shifts = arr.along(Y_AXIS).shifts
        assert shifts and all(shifted.rows == x_axis for _, shifted in shifts)
    # all transverse hyperplanes mutually parallel: nothing to shift
    arr = Arrangement.make(2, [H([0, 1], 0, "a"), H([0, 1], -1, "b")])
    assert arr.along(Y_AXIS).shifts == ()


def test_good_implies_shifted_family_inside():
    for arr in (four_lines(), braid3()):
        members = {f.rows for f in arr.poset.flats()}
        for _, shifted in arr.along(Y_AXIS).shifts:
            assert shifted.rows in members


def test_cone_examples():
    arr = Arrangement.make(1, [H([1], -1, "a")])
    c = cone(arr)
    assert c.ambient_dim == 2 and c.is_central()
    keys = c.canonical_set()
    assert (tuple([F(1), F(-1)]), F(0)) in keys  # x1 - x0, scaled to lead 1
    assert (tuple([F(1), F(0)]), F(0)) in keys
    assert decone(c).same_hyperplanes(arr)


def test_cone_decone_roundtrip():
    arr = four_lines()
    assert decone(cone(arr)).same_hyperplanes(arr)
    c = cone(arr)
    assert cone(decone(c)).same_hyperplanes(c)


def test_cone_decone_roundtrip_random():
    rng = random.Random(31)
    for _ in range(15):
        arr = random_arrangement(rng, rng.randint(1, 3), rng.randint(1, 5))
        if not len(arr):
            continue
        assert decone(cone(arr)).same_hyperplanes(arr)


def test_decone_requires_origin_hyperplane():
    central = Arrangement.make(2, [H([0, 1], 0, "y")])
    with pytest.raises(InputError):
        decone(central)
    affine = Arrangement.make(2, [H([1, 0], -1, "a"), H([1, 0], 0, "x0?")])
    with pytest.raises(InputError):
        decone(affine)


def test_cone_label_collision():
    arr = Arrangement.make(1, [H([1], 0, "H0")])
    with pytest.raises(InputError):
        cone(arr)


def test_fiber_points_examples():
    fp = fiber_points(four_lines(), Y_AXIS, [F(2)])
    assert fp.points == {"y": F(0), "d": F(2)}
    assert not fp.has_collision
    with pytest.raises(InputError):
        fiber_points(four_lines(), Y_AXIS, [F(0)])
    fp = fiber_points(nongood_pair(), Y_AXIS, [F(0)])
    assert fp.has_collision and fp.points == {"y": F(0), "d": F(0)}


def test_fiber_points_respects_direction_change():
    # direction (1, 1): x - y = 0 becomes the parallel one
    y = LineDirection.make([1, 1])
    fp = fiber_points(four_lines(), y, [F(5)])
    assert set(fp.points) == {"x", "y", "x1"}


def test_goodness_oracle_agreement():
    cases = [
        (four_lines(), True),
        (braid3(), True),
        (nongood_pair(), False),
        (Arrangement.make(2, [H([1, 0], 0, "x")]), True),
    ]
    for arr, expected in cases:
        ok, report = goodness_fiber_oracle(arr, Y_AXIS, 20)
        assert ok is expected
        if not expected:
            assert report["collision"] is not None


def test_goodness_oracle_vacuous_when_all_parallel():
    arr = Arrangement.make(2, [H([1, 0], 0, "a"), H([1, 0], -1, "b")])
    ok, report = goodness_fiber_oracle(arr, Y_AXIS, 5)
    assert ok and report["collision"] is None


def test_goodness_oracle_seed_determinism():
    arr = four_lines()
    assert goodness_fiber_oracle(arr, Y_AXIS, 10) == goodness_fiber_oracle(arr, Y_AXIS, 10)
    ok, rep = goodness_fiber_oracle(arr, Y_AXIS, 10, seed=3)
    assert ok


@pytest.mark.parametrize("args", [{"sample_count": -3}, {"sample_count": 2, "seed": -5}])
def test_goodness_oracle_refuses_negative_count_or_seed(args):
    with pytest.raises(InputError, match="nonnegative"):
        goodness_fiber_oracle(four_lines(), Y_AXIS, **args)


def test_goodness_oracle_zero_samples_probes_the_projections():
    ok, rep = goodness_fiber_oracle(nongood_pair(), Y_AXIS, 0)
    assert not ok and rep["samples"] and rep["collision"] is not None


def test_random_good_agreement_between_poset_and_oracle():
    rng = random.Random(23)
    checked = 0
    for _ in range(40):
        dim = 2
        arr = random_arrangement(rng, dim, rng.randint(2, 5))
        good, _ = is_good_line(arr, Y_AXIS)
        oracle, rep = goodness_fiber_oracle(arr, Y_AXIS, 8)
        assert good == oracle
        if not good:
            assert rep["collision"] is not None
        checked += 1
    assert checked == 40

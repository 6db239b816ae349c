import json
import os
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

from arrmc import serialization as ser
from arrmc.cli import _build_parser, main
from arrmc.katz import MonodromyTuple

from conftest import four_lines, four_lines_system, kz_system, main_within

CORPUS = Path(
    os.environ.get("ARRMC_CORPUS_DIR", Path(__file__).parent / "corpus")
)


def corpus(name: str) -> str:
    return str(CORPUS / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_roundtrip_arrangement():
    arr = four_lines()
    again = ser.arrangement_from_json(
        json.loads(ser.dumps(ser.arrangement_to_json(arr)))
    )
    assert again.same_hyperplanes(arr)
    assert again.labels() == arr.labels()


def test_roundtrip_system():
    sys = kz_system()
    again = ser.system_from_json(json.loads(ser.dumps(ser.system_to_json(sys))))
    assert again.residues == sys.residues
    assert again.dim_e == sys.dim_e


def test_roundtrip_tuples(tmp_path):
    exact = MonodromyTuple.exact_tuple([[[F(2)]], [[F(3)]]], labels=["a", "b"])
    again = ser.tuple_from_json(json.loads(ser.dumps(ser.tuple_to_json(exact))))
    assert again.exact and again.matrices == exact.matrices
    import numpy as np

    num = MonodromyTuple.numeric([np.array([[1.5 + 0.25j]])])
    again = ser.tuple_from_json(json.loads(ser.dumps(ser.tuple_to_json(num))))
    assert not again.exact
    assert np.allclose(again.matrices[0], num.matrices[0])


def test_character_to_json():
    from arrmc import CharacterValue

    c = CharacterValue.from_exponent(F(6, 5))
    assert ser.character_to_json(c) == {"schema": 1, "lambda": "1/5"}
    c = CharacterValue.from_scalar(F(-2, 3))
    assert ser.character_to_json(c) == {"schema": 1, "scalar": "-2/3"}


def test_unknown_field_rejected():
    with pytest.raises(Exception):
        ser.arrangement_from_json({"dim": 2, "hyperplanes": [], "extra": 1})
    with pytest.raises(Exception):
        ser.arrangement_from_json({"schema": 2, "dim": 2, "hyperplanes": []})


def test_cli_poset(capsys):
    code, rep = run_cli(capsys, "poset", corpus("four_lines_arrangement.json"))
    assert code == 0
    assert rep["counts"] == [1, 4, 3]


def test_cli_goodline_true_false(capsys):
    code, rep = run_cli(
        capsys, "goodline", corpus("four_lines_arrangement.json"), "--line", "0,1"
    )
    assert code == 0 and rep["good"] and "witness" not in rep
    code, rep = run_cli(
        capsys, "goodline", corpus("nongood_arrangement.json"), "--line", "0,1"
    )
    assert code == 1 and not rep["good"] and rep["witness"]["rank"] == 2


def test_cli_goodline_with_oracle(capsys):
    code, rep = run_cli(
        capsys,
        "goodline",
        corpus("nongood_arrangement.json"),
        "--line",
        "0,1",
        "--samples",
        "10",
    )
    assert code == 1
    assert rep["fiber_oracle"]["collision"] is not None
    assert rep["agreement"] is True


def test_cli_cone_decone_roundtrip(capsys, tmp_path):
    code, rep = run_cli(capsys, "cone", corpus("four_lines_arrangement.json"))
    assert code == 0
    coned = tmp_path / "coned.json"
    coned.write_text(ser.dumps(rep["arrangement"]))
    code, rep2 = run_cli(capsys, "decone", str(coned))
    assert code == 0
    back = ser.arrangement_from_json(rep2["arrangement"])
    assert back.same_hyperplanes(four_lines())


def test_cli_check_pass_and_fail(capsys):
    code, rep = run_cli(
        capsys,
        "check",
        corpus("four_lines_system.json"),
        "--line",
        "0,1",
        "--lambda",
        "1/5",
    )
    assert code == 0 and rep["ok"]
    code, rep = run_cli(
        capsys,
        "check",
        corpus("integer_eigenvalue_system.json"),
        "--line",
        "0,1",
        "--lambda",
        "1/5",
    )
    assert code == 1 and not rep["ok"]
    assert ["y", 1] in rep["genericity"]["offenders"]


def test_cli_convolve_and_middle_convolve(capsys):
    code, rep = run_cli(
        capsys,
        "convolve",
        corpus("four_lines_system.json"),
        "--line",
        "0,1",
        "--lambda",
        "1/5",
    )
    assert code == 0
    assert rep["dim"] == 2 and rep["block_order"] == ["y", "d"]
    sys_out = ser.system_from_json(rep["system"])
    assert sys_out.dim_e == 2
    code, rep = run_cli(
        capsys,
        "middle-convolve",
        corpus("four_lines_system.json"),
        "--line",
        "0,1",
        "--lambda",
        "1/5",
    )
    assert code == 0 and rep["dim"] == 2


def test_cli_compose_verify(capsys):
    code, rep = run_cli(
        capsys,
        "compose-verify",
        corpus("four_lines_system.json"),
        "--line",
        "0,1",
        "--lambda",
        "1/5",
        "--mu",
        "1/7",
    )
    assert code == 0 and rep["ok"]
    assert rep["additive_law_holds"] and rep["inverse_law_holds"]


def test_cli_katz_mc(capsys):
    code, rep = run_cli(
        capsys, "katz-mc", corpus("exact_tuple.json"), "--scalar", "2"
    )
    assert code == 0
    assert rep["input_rank"] == 2 and rep["output_rank"] == 3
    assert rep["property_p"]["ok"]
    out = ser.tuple_from_json(rep["tuple"])
    assert out.exact and out.rank == 3


def test_cli_katz_mc_unit_circle_character_on_exact_tuple(capsys):
    # exp(2 pi i / 5) is not rational, so the exact tuple is convolved in
    # floating point from the start, not only its convolution tuple
    code, rep = run_cli(
        capsys, "katz-mc", corpus("exact_tuple.json"), "--lambda", "1/5"
    )
    assert code == 0
    assert rep["input_rank"] == 2 and rep["output_rank"] == 3
    out = ser.tuple_from_json(rep["tuple"])
    assert not out.exact and out.rank == 3


def test_cli_monodromy(capsys):
    code, rep = run_cli(
        capsys,
        "monodromy",
        corpus("four_lines_system.json"),
        "--line",
        "0,1",
        "--base",
        "2",
    )
    assert code == 0
    assert rep["punctures"] == 2 and rep["rank"] == 1
    assert rep["product_residual"] < 1e-8
    t = ser.tuple_from_json(rep["tuple"])
    assert t.npoints == 2


def test_cli_rh_verify(capsys):
    code, rep = run_cli(
        capsys,
        "rh-verify",
        corpus("four_lines_system.json"),
        "--line",
        "0,1",
        "--lambda",
        "1/5",
        "--base",
        "2",
    )
    assert code == 0 and rep["ok"]
    assert rep["stages"]["compatibility_ok"] and rep["stages"]["round_trip_ok"]


def test_cli_rh_verify_does_exact_work_once(capsys, monkeypatch):
    from arrmc import cli, convolution, monodromy, pfaffian

    calls = {"genericity": 0, "kernels": []}
    genericity, kernels = pfaffian.check_assumption_generic, convolution.residue_kernels

    def counting_genericity(*args):
        calls["genericity"] += 1
        return genericity(*args)

    def counting_kernels(sys, *args):
        calls["kernels"].append(sys)
        return kernels(sys, *args)

    for module in (pfaffian, cli, monodromy):
        monkeypatch.setattr(module, "check_assumption_generic", counting_genericity)
    monkeypatch.setattr(convolution, "residue_kernels", counting_kernels)
    code, rep = run_cli(
        capsys, "rh-verify", corpus("four_lines_system.json"),
        "--line", "0,1", "--lambda", "1/5", "--base", "2",
    )
    assert code == 0 and rep["ok"]
    assert calls["genericity"] == 1
    # once for the input, once for the forward system of the round trip
    assert len(calls["kernels"]) == 2 and calls["kernels"][1] is not calls["kernels"][0]


def test_cli_rh_verify_sums_the_transverse_residues_once_per_system_and_line(capsys, monkeypatch):
    from arrmc.pfaffian import PfaffianSystem

    sums: dict = {}
    original = PfaffianSystem.transverse_sum

    def recording_sum(self, y):
        out = original(self, y)
        sums.setdefault((id(self), y), []).append(out)
        return out

    monkeypatch.setattr(PfaffianSystem, "transverse_sum", recording_sum)
    code, rep = run_cli(
        capsys, "rh-verify", corpus("four_lines_system.json"),
        "--line", "0,1", "--lambda", "1/5", "--base", "2",
    )
    assert code == 0 and rep["ok"]
    # genericity and the kernels of the input both read the input's sum
    assert max(len(v) for v in sums.values()) >= 2
    assert all(all(s is v[0] for s in v) for v in sums.values())


def test_cli_rh_verify_builds_loop_geometry_once(capsys, monkeypatch):
    from arrmc import monodromy

    calls = {"loops": 0, "layouts": 0}
    loops, layout = monodromy.standard_loops, monodromy._lay_out_discs

    def counting_loops(*args):
        calls["loops"] += 1
        return loops(*args)

    def counting_layout(*args):
        calls["layouts"] += 1
        return layout(*args)

    monkeypatch.setattr(monodromy, "standard_loops", counting_loops)
    monkeypatch.setattr(monodromy, "_lay_out_discs", counting_layout)
    code, rep = run_cli(
        capsys, "rh-verify", corpus("four_lines_system.json"),
        "--line", "0,1", "--lambda", "1/5", "--base", "2",
    )
    assert code == 0 and rep["ok"]
    # both extractions share the loops, and their discs: the two systems
    # have the same poles, base point and step fraction
    assert calls == {"loops": 1, "layouts": 1}


def test_cli_checks_input_integrability_once(capsys, monkeypatch, tmp_path):
    from arrmc import Arrangement, Hyperplane, PfaffianSystem, cli, pfaffian

    checked = []
    original = pfaffian.check_integrability

    def counting(sys):
        checked.append(sys)
        return original(sys)

    for module in (pfaffian, cli):
        monkeypatch.setattr(module, "check_integrability", counting, raising=False)
    arr = Arrangement.make(
        2, [Hyperplane.make([1, 0], 0, "a"), Hyperplane.make([0, 1], 0, "b")]
    )
    bad = tmp_path / "bad.json"
    bad.write_text(ser.dumps(ser.system_to_json(PfaffianSystem.make(
        arr, 2, {"a": [[0, 1], [0, 0]], "b": [[0, 0], [1, 0]]}, check=False
    ))))
    system, line = corpus("four_lines_system.json"), ("--line", "0,1", "--lambda", "1/5")
    for expected, argv in (
        (0, ("check", system, *line)),
        (0, ("rh-verify", system, *line, "--base", "2")),
        (1, ("check", str(bad), *line, "--unchecked")),
    ):
        checked.clear()
        code, _ = run_cli(capsys, *argv)
        assert code == expected
        # the first check is the input's; the round trip checks other systems
        assert sum(s is checked[0] for s in checked) == 1, argv


def test_cli_convolve_rejects_bad_line(capsys, tmp_path):
    from arrmc import PfaffianSystem
    from conftest import nongood_pair

    sys = PfaffianSystem.make(
        nongood_pair(), 1, {"y": [[F(1, 2)]], "d": [[F(1, 3)]]}
    )
    path = tmp_path / "nongood_system.json"
    path.write_text(ser.dumps(ser.system_to_json(sys)))
    code, rep = run_cli(
        capsys, "convolve", str(path), "--line", "0,1", "--lambda", "1/5"
    )
    assert code == 2 and "not good" in rep["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--line", "0,1,5", "--lambda", "1/5"),
        ("check", "--line", "1", "--lambda", "1/5"),
        ("compose-verify", "--line", "1", "--lambda", "1/5", "--mu", "1/7"),
        ("rh-verify", "--line", "1", "--lambda", "1/5", "--base", "2"),
        ("convolve", "--unchecked", "--line", "1", "--lambda", "1/5"),
    ],
)
def test_cli_line_of_the_wrong_dimension_is_input_error(capsys, argv):
    command, *rest = argv
    code, rep = run_cli(capsys, command, corpus("four_lines_system.json"), *rest)
    assert code == 2
    assert rep["error"] == "line direction dimension mismatch"


def test_cli_unreadable_input_is_input_error(capsys, tmp_path):
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\x80")
    for path in (str(CORPUS), str(undecodable)):
        code, rep = run_cli(capsys, "poset", path)
        assert code == 2 and path in rep["error"]


def test_cli_unwritable_out_is_input_error(capsys, tmp_path):
    out = tmp_path / "missing" / "x.json"
    code = main(["check", corpus("four_lines_system.json"), "--line", "0,1",
                 "--lambda", "1/5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and not out.exists() and captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_cli_convolving_a_non_integrable_input_is_input_error(capsys, tmp_path):
    # a random rank-2 four-lines system whose residues through the origin
    # do not commute with their sum
    residues = {
        "x": [["3/4", "3/4"], ["-1", "1/4"]],
        "y": [["0", "0"], ["1/2", "1/2"]],
        "d": [["-1/2", "3"], ["1/3", "1/2"]],
        "x1": [["-1", "2"], ["1", "0"]],
    }
    from arrmc import PfaffianSystem

    bad = tmp_path / "bad.json"
    bad.write_text(ser.dumps(ser.system_to_json(
        PfaffianSystem.make(four_lines(), 2, residues, check=False)
    )))
    line = ("--line", "0,1", "--lambda", "1/5", "--unchecked")
    for argv in (("middle-convolve", str(bad), *line),
                 ("compose-verify", str(bad), *line, "--mu", "1/7")):
        code, rep = run_cli(capsys, *argv)
        assert code == 2, argv
        assert rep == {
            "command": argv[0],
            "error": "integrability fails at flat of rank two (hyperplane d)",
        }


def test_cli_input_error_exit_codes(capsys):
    code, rep = run_cli(capsys, "poset", "/nonexistent/file.json")
    assert code == 2
    code, rep = run_cli(
        capsys,
        "check",
        corpus("four_lines_arrangement.json"),  # wrong schema for a system
        "--line",
        "0,1",
        "--lambda",
        "1/5",
    )
    assert code == 2


def test_cli_numeric_failure_exit_code(capsys):
    code, rep = run_cli(
        capsys,
        "monodromy",
        corpus("four_lines_system.json"),
        "--line",
        "0,1",
        "--base",
        "2",
        "--tol",
        "1e-30",
    )
    assert code == 3 and "error" in rep


def test_cli_numeric_katz_failure_exit_code(capsys, tmp_path):
    # the numeric multiplicative middle convolution of this fiber tuple
    # cannot certify its quotient; that is a numeric failure, not bad input
    from conftest import line_system

    residues = [
        [["1/2", 0, "1/2"], ["-2/9", "1/3", "1/2"], ["1/2", "-1/3", "-1/3"]],
        [["-2/7", "-3/8", "3/4"], ["1/7", 0, "-1/6"], [0, "1/3", "2/7"]],
        [["-2/9", "3/5", 0], ["-3/2", "-1/2", "-1/3"], ["1/7", "3/5", "-1/9"]],
        [[0, "-3/7", "3/4"], ["3/5", 0, "-3/2"], [0, 1, "1/3"]],
    ]
    sys = line_system([0, 1, 2, 3], residues)
    path = tmp_path / "line_system.json"
    path.write_text(ser.dumps(ser.system_to_json(sys)))
    code, rep = run_cli(capsys, "rh-verify", str(path), "--line=1", "--lambda=1/5", "--base=")
    assert code == 3
    assert "numerically invariant" in rep["error"]


def test_cli_monodromy_of_rank_zero_system(capsys, tmp_path):
    # middle convolution can return a system of rank 0; its fiber tuple is
    # one empty generator per puncture and the loop-product check is trivial
    from conftest import line_system

    path = tmp_path / "one_point.json"
    path.write_text(ser.dumps(ser.system_to_json(line_system([0], [[["1/3"]]]))))
    code, rep = run_cli(capsys, "middle-convolve", str(path), "--line=1", "--lambda=-1/3")
    assert code == 0 and rep["dim"] == 0
    path.write_text(ser.dumps(rep["system"]))
    code, rep = run_cli(capsys, "monodromy", str(path), "--line=1", "--base=")
    assert code == 0 and rep["ok"]
    assert rep["rank"] == 0 and rep["punctures"] == 1
    assert rep["tuple"]["matrices"] == [[]]
    assert rep["product_residual"] == 0.0


def test_cli_rh_verify_of_rank_zero_system(capsys, tmp_path):
    # the numeric Katz branch and the tuple isomorphism scale their
    # tolerances by the largest entry, which a rank-0 tuple does not have
    from conftest import line_system

    path = tmp_path / "one_point.json"
    path.write_text(ser.dumps(ser.system_to_json(line_system([0], [[["1/3"]]]))))
    code, rep = run_cli(capsys, "middle-convolve", str(path), "--line=1", "--lambda=-1/3")
    assert code == 0 and rep["dim"] == 0
    path.write_text(ser.dumps(rep["system"]))
    code, rep = run_cli(
        capsys, "rh-verify", str(path), "--line", "1", "--lambda", "1/5", "--base="
    )
    assert code in (0, 1, 3)
    assert rep["command"] == "rh-verify"
    if code == 3:
        assert rep["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "four_lines_system.json", "--line", "0,q", "--lambda", "1/5"),
        ("check", "four_lines_system.json", "--line", "0,1", "--lambda", "x"),
        ("check", "four_lines_system.json", "--line", "0,1", "--lambda", "1/0"),
        ("compose-verify", "four_lines_system.json", "--line", "0,1",
         "--lambda", "1/5", "--mu", "1/2/3"),
        ("rh-verify", "four_lines_system.json", "--line", "0,1",
         "--lambda", "1/5", "--base", "2,y"),
        ("katz-mc", "exact_tuple.json", "--scalar", "two"),
        # empty values; only --base= is a valid empty value
        ("check", "four_lines_system.json", "--line", "0,1", "--lambda="),
        ("check", "four_lines_system.json", "--line=", "--lambda", "1/5"),
        ("goodline", "four_lines_arrangement.json", "--line="),
        ("compose-verify", "four_lines_system.json", "--line", "0,1",
         "--lambda", "1/5", "--mu="),
        ("katz-mc", "exact_tuple.json", "--scalar="),
        ("katz-mc", "exact_tuple.json", "--lambda="),
    ],
)
def test_cli_malformed_rational_is_input_error(capsys, argv):
    command, name, *rest = argv
    code = main([command, corpus(name), *rest])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "rational" in captured.err


def exit_code(argv) -> int:
    """The exit code of ``arrmc argv``, whether main returns it or argparse
    exits with it."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "character",
    [(), ("--lambda", "1/5", "--scalar", "2"), ("--scalar", "2", "--lambda=1/2")],
)
def test_cli_katz_mc_takes_exactly_one_character_option(capsys, character):
    assert exit_code(["katz-mc", corpus("exact_tuple.json"), *character]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "-1e-9"])
@pytest.mark.parametrize(
    "argv",
    [
        ("rh-verify", "four_lines_system.json", "--line", "0,1", "--lambda", "1/5",
         "--base", "2", "--tol"),
        ("rh-verify", "four_lines_system.json", "--line", "0,1", "--lambda", "1/5",
         "--base", "2", "--iso-tol"),
        ("rh-verify", "four_lines_system.json", "--line", "0,1", "--lambda", "1/5",
         "--base", "2", "--rank-tol"),
        ("monodromy", "four_lines_system.json", "--line", "0,1", "--base", "2", "--tol"),
        ("katz-mc", "exact_tuple.json", "--lambda", "1/5", "--rank-tol"),
    ],
)
def test_cli_tolerance_must_be_finite_and_positive(capsys, argv, value):
    command, name, *rest, option = argv
    # "--tol=-inf": a separate "-inf" would be taken for an option
    assert exit_code([command, corpus(name), *rest, f"{option}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite and positive" in captured.err


ARRANGEMENT = {"dim": 1, "hyperplanes": [{"label": "h", "coeffs": ["1"], "constant": "0"}]}


@pytest.mark.parametrize(
    "command, data",
    [
        ("poset", {"dim": 2, "hyperplanes": 5}),
        ("poset", {"dim": 2, "hyperplanes": [{"label": "h", "coeffs": "12", "constant": "0"}]}),
        ("check", {"arrangement": ARRANGEMENT, "dimE": 1, "residues": [["1"]]}),
        ("check", {"arrangement": ARRANGEMENT, "dimE": 1, "residues": {"h": "1"}}),
        ("katz-mc", {"rank": 1, "exact": True, "matrices": 5}),
    ],
)
def test_cli_input_of_the_wrong_container_type_is_input_error(capsys, tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    options = {"check": ["--line", "1", "--lambda", "1/5"], "katz-mc": ["--scalar", "2"]}
    code, rep = run_cli(capsys, command, str(path), *options.get(command, []))
    assert code == 2 and "error" in rep


@pytest.mark.parametrize(
    "command, data",
    [
        ("poset", {"dim": True, "hyperplanes": [{"label": "h", "coeffs": ["1"], "constant": "0"}]}),
        ("check", {"arrangement": ARRANGEMENT, "dimE": True, "residues": {"h": [["1"]]}}),
        ("katz-mc", {"rank": True, "exact": True, "matrices": [[["2"]]]}),
    ],
)
def test_cli_json_boolean_is_not_an_integer(capsys, tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    options = {"check": ["--line", "1", "--lambda", "1/5"], "katz-mc": ["--scalar", "2"]}
    code, rep = run_cli(capsys, command, str(path), *options.get(command, []))
    assert code == 2 and "integer" in rep["error"]


@pytest.mark.parametrize(
    "entry",
    ['"2"', "[1]", '["a", 0]', "[true, 0]", "[1, 0, 0]", "[NaN, 0]", "[0, Infinity]", "null"],
)
def test_cli_numeric_tuple_entry_must_be_a_pair_of_finite_numbers(capsys, tmp_path, entry):
    path = tmp_path / "input.json"
    path.write_text(f'{{"rank": 1, "matrices": [[[{entry}]]]}}', encoding="utf-8")
    code, rep = run_cli(capsys, "katz-mc", str(path), "--scalar", "2")
    assert code == 2 and "[re, im] pair of finite numbers" in rep["error"]


def test_cli_numeric_tuple_entries_read_as_complex(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text('{"rank": 1, "exact": false, "matrices": [[[[2, 0.5]]]]}', encoding="utf-8")
    code, rep = run_cli(capsys, "katz-mc", str(path), "--scalar", "2")
    # one puncture: the convolution multiplies its matrix by the scalar
    assert code == 0 and rep["tuple"]["matrices"] == [[[[4.0, 1.0]]]]


@pytest.mark.parametrize("exact", ['"false"', '"true"', "0", "1", "null"])
def test_cli_tuple_exact_flag_must_be_a_boolean(capsys, tmp_path, exact):
    path = tmp_path / "input.json"
    path.write_text(f'{{"rank": 1, "exact": {exact}, "matrices": [[["2"]]]}}', encoding="utf-8")
    code, rep = run_cli(capsys, "katz-mc", str(path), "--scalar", "2")
    assert code == 2 and '"exact" must be true or false' in rep["error"]


@pytest.mark.parametrize(
    "command, data",
    [
        ("poset", {"dim": 1, "hyperplanes": [{"label": "h", "coeffs": ["1"], "constant": "1/0"}]}),
        ("check", {"arrangement": ARRANGEMENT, "dimE": 1, "residues": {"h": [["1/0"]]}}),
        ("katz-mc", {"rank": 1, "exact": True, "matrices": [[["1/0"]]]}),
    ],
)
def test_cli_zero_denominator_is_input_error(capsys, tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    options = {"check": ["--line", "1", "--lambda", "1/5"], "katz-mc": ["--scalar", "2"]}
    code, rep = run_cli(capsys, command, str(path), *options.get(command, []))
    assert code == 2 and "bad rational '1/0'" in rep["error"]


def _four_lines_system_with_residue(d: str) -> dict:
    data = json.loads(Path(corpus("four_lines_system.json")).read_text(encoding="utf-8"))
    data["residues"]["d"] = [[d]]
    return data


LARGE_ENTRY = 10**30 + 57


def test_cli_check_of_a_large_integer_residue_finishes(capsys, tmp_path):
    # a residue with a 31-digit integer eigenvalue
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_four_lines_system_with_residue(str(LARGE_ENTRY))), encoding="utf-8")
    code = main_within(["check", str(path), "--line", "0,1", "--lambda", "1/5"], 10.0)
    assert code == 1, "check did not finish within 10 s" if code is None else code
    rep = json.loads(capsys.readouterr().out)
    assert rep["genericity"]["offenders"] == [["d", LARGE_ENTRY]]


def test_cli_rh_verify_of_a_residue_beyond_the_float_range_stops_at_genericity(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_four_lines_system_with_residue("1e400")), encoding="utf-8")
    argv = ["rh-verify", str(path), "--line", "0,1", "--lambda", "1/5", "--base", "2"]
    code = main_within(argv, 10.0)
    assert code == 1, "rh-verify did not finish within 10 s" if code is None else code
    rep = json.loads(capsys.readouterr().out)
    assert rep["stages"] == {"integrable": True, "genericity_ok": False, "star_ok": True}
    assert rep["offenders"]["genericity"] == [["d", 10**400]]


@pytest.mark.parametrize(
    "command, data, options",
    [
        # an exact tuple made numeric for a unit-circle character
        ("katz-mc", {"rank": 1, "exact": True, "matrices": [[["1e400"]]]}, ["--lambda", "1/5"]),
        # an exact scalar character on a numeric tuple
        ("katz-mc", {"rank": 1, "matrices": [[[[2, 0]]]]}, ["--scalar", "1e400"]),
        # a residue on the fiber
        ("monodromy", _four_lines_system_with_residue("1e400"), ["--line", "0,1", "--base", "2"]),
        ("monodromy", _four_lines_system_with_residue("-1e400"), ["--line", "0,1", "--base", "2"]),
    ],
)
def test_cli_exact_value_beyond_the_float_range_is_input_error(capsys, tmp_path, command, data, options):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, rep = run_cli(capsys, command, str(path), *options)
    assert code == 2 and "1e400" in rep["error"] and "too large for a float" in rep["error"]


def test_cli_decone_of_a_line_is_input_error(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(ARRANGEMENT), encoding="utf-8")
    code, rep = run_cli(capsys, "decone", str(path))
    assert code == 2 and "dimension >= 2" in rep["error"]


@pytest.mark.parametrize("option", ["--samples=-3", "--samples=-1", "--seed=-5", "--seed=x"])
def test_cli_goodline_samples_and_seed_must_be_nonnegative(capsys, option):
    argv = ["goodline", corpus("four_lines_arrangement.json"), "--line", "0,1", "--samples", "2"]
    assert exit_code([*argv, option]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "nonnegative integer" in captured.err


def test_cli_goodline_zero_samples_probes_the_projections(capsys):
    code, rep = run_cli(
        capsys, "goodline", corpus("nongood_arrangement.json"), "--line", "0,1", "--samples", "0"
    )
    assert code == 1 and not rep["fiber_oracle"]["good"] and rep["agreement"]
    assert rep["fiber_oracle"]["samples"]


def test_cli_check_unchecked_reports_nonintegrable(capsys, tmp_path):
    from arrmc import Arrangement, Hyperplane, PfaffianSystem

    arr = Arrangement.make(
        2, [Hyperplane.make([1, 0], 0, "a"), Hyperplane.make([0, 1], 0, "b")]
    )
    bad = PfaffianSystem.make(
        arr, 2, {"a": [[0, 1], [0, 0]], "b": [[0, 0], [1, 0]]}, check=False
    )
    path = tmp_path / "bad.json"
    path.write_text(ser.dumps(ser.system_to_json(bad)))
    # without --unchecked the load itself rejects the system
    code, rep = run_cli(capsys, "check", str(path), "--line", "0,1", "--lambda", "1/5")
    assert code == 2
    code, rep = run_cli(
        capsys, "check", str(path), "--line", "0,1", "--lambda", "1/5", "--unchecked"
    )
    assert code == 1
    assert rep["integrable"] is False
    assert rep["integrability_witness"]["hyperplane"] in ("a", "b")


def test_cli_reports_are_deterministic(capsys):
    args = (
        "rh-verify",
        corpus("four_lines_system.json"),
        "--line",
        "0,1",
        "--lambda",
        "1/5",
        "--base",
        "2",
    )
    main(list(args))
    first = capsys.readouterr().out
    main(list(args))
    second = capsys.readouterr().out
    assert first == second


def test_cli_out_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "goodline",
            corpus("four_lines_arrangement.json"),
            "--line",
            "0,1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["good"]
    assert capsys.readouterr().out == ""


# the arguments each subcommand requires, and the subcommands that read each
# optional option
REQUIRED = {
    "poset": [],
    "goodline": ["--line", "0,1"],
    "cone": [],
    "decone": [],
    "check": ["--line", "0,1", "--lambda", "1/5"],
    "convolve": ["--line", "0,1", "--lambda", "1/5"],
    "middle-convolve": ["--line", "0,1", "--lambda", "1/5"],
    "compose-verify": ["--line", "0,1", "--lambda", "1/5", "--mu", "1/7"],
    "katz-mc": ["--scalar", "2"],
    "monodromy": ["--line", "0,1", "--base", "2"],
    "rh-verify": ["--line", "0,1", "--lambda", "1/5", "--base", "2"],
}
READ_BY = {
    "--unchecked": {
        "check", "convolve", "middle-convolve", "compose-verify", "monodromy", "rh-verify"
    },
    "--tol": {"monodromy", "rh-verify"},
    "--iso-tol": {"rh-verify"},
    "--rank-tol": {"rh-verify", "katz-mc"},
    "--samples": {"goodline"},
    "--seed": {"goodline"},
}
VALUE = {"--unchecked": [], "--tol": ["1e-10"], "--iso-tol": ["1e-6"], "--rank-tol": ["1e-9"],
         "--samples": ["20"], "--seed": ["3"]}


@pytest.mark.parametrize(
    "command, option",
    [(c, o) for c in REQUIRED for o in READ_BY if c not in READ_BY[o]],
)
def test_cli_rejects_an_option_its_command_ignores(command, option):
    parser = _build_parser()
    argv = [command, "input.json", *REQUIRED[command]]
    parser.parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*argv, option, *VALUE[option]])
    assert exc.value.code == 2


@pytest.mark.parametrize("option", sorted(READ_BY))
def test_cli_accepts_an_option_where_it_is_read(option):
    for command in READ_BY[option]:
        argv = [command, "input.json", *REQUIRED[command], option, *VALUE[option]]
        _build_parser().parse_args(argv)


def test_cli_accepts_every_documented_option():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    usages = [line.split("#")[0] for line in block.splitlines() if line.startswith("arrmc ")]
    assert len(usages) == len(REQUIRED)
    argvs = [shlex.split(u.replace("[", "").replace("]", ""))[1:] for u in usages]
    argvs += [  # the forms the benchmark jobs pass
        ["goodline", "a.json", "--line=0,1", "--samples=20"],
        ["check", "s.json", "--line=1", "--lambda=1/5"],
        ["compose-verify", "s.json", "--line=1", "--lambda=1/5", "--mu=1/7"],
        ["katz-mc", "t.json", "--scalar=2"],
        ["rh-verify", "s.json", "--line=1", "--lambda=1/5", "--base="],
    ]
    for argv in argvs:
        _build_parser().parse_args([*argv, "--out", "report.json"])

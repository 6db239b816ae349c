"""Golden CLI reports for every corpus input and each command that takes it.

The files under ``tests/golden`` pin the report bytes and exit codes.  Exact
commands must reproduce them byte for byte; ``rh-verify`` reports carry
floating-point fields that depend on the numpy build, so those compare within
1e-9 while everything else in them (stages, round trip, ranks) compares
exactly.

Regenerate after an intended change of output with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from arrmc.cli import main

HERE = Path(__file__).parent
CORPUS = HERE / "corpus"
GOLDEN = HERE / "golden"

SYSTEM_ARGS = ["--line", "0,1", "--lambda", "1/5"]

# (golden name, command, input file, extra arguments, exit code)
CASES = [
    ("four_lines_arrangement.poset", "poset", "four_lines_arrangement.json", [], 0),
    ("four_lines_arrangement.goodline", "goodline", "four_lines_arrangement.json", ["--line", "0,1"], 0),
    (
        "four_lines_arrangement.goodline-diagonal",
        "goodline",
        "four_lines_arrangement.json",
        ["--line", "1,1", "--samples", "5"],
        1,
    ),
    ("nongood_arrangement.poset", "poset", "nongood_arrangement.json", [], 0),
    ("nongood_arrangement.goodline", "goodline", "nongood_arrangement.json", ["--line", "0,1"], 1),
    ("exact_tuple.katz-mc", "katz-mc", "exact_tuple.json", ["--scalar", "2"], 0),
]
for _stem, _codes in (
    ("four_lines_system", (0, 0, 0, 0, 0)),
    ("integer_eigenvalue_system", (1, 0, 0, 0, 1)),
):
    for _command, _extra, _code in zip(
        ("check", "convolve", "middle-convolve", "compose-verify", "rh-verify"),
        ([], [], [], ["--mu", "1/7"], ["--base", "2"]),
        _codes,
    ):
        CASES.append((f"{_stem}.{_command}", _command, f"{_stem}.json", SYSTEM_ARGS + _extra, _code))


def _run(command, input_name, extra, out_path) -> int:
    return main([command, str(CORPUS / input_name), *extra, "--out", str(out_path)])


def _close(got, want, path="report") -> None:
    """Exact equality, except floats within 1e-9."""
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), path
        assert got == want or abs(got - want) <= 1e-9, f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name,command,input_name,extra,code", CASES, ids=[c[0] for c in CASES])
def test_golden_report(tmp_path, name, command, input_name, extra, code):
    out = tmp_path / "report.json"
    assert _run(command, input_name, extra, out) == code
    got = out.read_text(encoding="utf-8")
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    if command == "rh-verify":
        _close(json.loads(got), json.loads(want))
    else:
        assert got == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, command, input_name, extra, code in CASES:
        got = _run(command, input_name, extra, GOLDEN / f"{name}.json")
        if got != code:
            sys.exit(f"{name}: exit code {got}, expected {code}")

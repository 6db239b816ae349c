"""Input fuzzing of the command line, with the standard library only.

Each run takes one corpus input and one command, makes one mutation, and
runs ``cli.main`` in-process under a time limit.  A mutation replaces a
rational entry by one of ``RATIONALS`` or any JSON value by one of
``VALUES``, deletes a key, duplicates a list element, or replaces an
option value by one of ``OPTION_VALUES``.  Whatever the
input, the program must finish within the limit with exit code 0, 1, 2 or
3 and no traceback, and an input or usage error (exit 2) must name itself
in one ``error`` line or in the report's ``"error"`` field.

The seeds are fixed, so every run repeats the same inputs; a failure
prints the command line and the mutated input that reproduce it.
"""

import contextlib
import copy
import io
import json
import random
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from conftest import main_within

CORPUS = Path(__file__).parent / "corpus"
SYSTEM = ["--line", "0,1", "--lambda", "1/5"]

# (corpus input, command and options)
TARGETS = [
    ("exact_tuple.json", ["katz-mc", "--scalar", "2"]),
    ("exact_tuple.json", ["katz-mc", "--lambda", "1/5"]),
    ("four_lines_arrangement.json", ["poset"]),
    ("four_lines_arrangement.json", ["goodline", "--line", "0,1", "--samples", "2"]),
    ("four_lines_arrangement.json", ["cone"]),
    ("nongood_arrangement.json", ["goodline", "--line", "0,1", "--samples", "0"]),
    ("nongood_arrangement.json", ["decone"]),
    ("four_lines_system.json", ["check", *SYSTEM]),
    ("four_lines_system.json", ["convolve", *SYSTEM]),
    ("integer_eigenvalue_system.json", ["middle-convolve", *SYSTEM]),
    ("four_lines_system.json", ["compose-verify", *SYSTEM, "--mu", "1/7"]),
    ("four_lines_system.json", ["monodromy", "--line", "0,1", "--base", "2"]),
    ("four_lines_system.json", ["rh-verify", *SYSTEM, "--base", "2"]),
]

# a value of each JSON type, and edge cases of the rational format
VALUES = [None, True, False, "", "1/0", "1e400", 10**30 + 57, float("nan"), [], {}, [[]], [[["1", "2"]]]]

# values for a rational entry that keep most inputs readable
RATIONALS = ["0", "1", "-2", "1/2", "-7/3", "1e400", "-1e400", str(10**30 + 57), "1/0", ""]

OPTION_VALUES = ["", "-1", "-2/3", "nan", "1/0", "1e400", "0", "1", "0,1,1", "1,", "x"]

RUNS_PER_TARGET = 30
LIMIT_S = 5.0


def _paths(node, path=()):
    """The path of every value inside ``node``, ``node`` itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def mutate(data, argv: list[str], rng: random.Random):
    """One mutation of the input ``data`` or of an option value of ``argv``."""
    data, argv = copy.deepcopy(data), list(argv)
    values = [i for i in range(2, len(argv)) if not argv[i].startswith("--")]
    if values and rng.random() < 0.2:
        argv[rng.choice(values)] = rng.choice(OPTION_VALUES)
        return data, argv
    paths = list(_paths(data))[1:]
    rationals = [p for p in paths if p[-1] != "label" and isinstance(reduce(getitem, p, data), str)]
    if rationals and rng.random() < 0.5:
        path = rng.choice(rationals)
        reduce(getitem, path[:-1], data)[path[-1]] = rng.choice(RATIONALS)
        return data, argv
    path = rng.choice(paths)
    parent, key = reduce(getitem, path[:-1], data), path[-1]
    kind = rng.random()
    if kind < 0.7:
        parent[key] = rng.choice(VALUES)
    elif isinstance(parent, dict):
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return data, argv


def run_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code, or None past the limit; standard output; standard error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main_within(argv, LIMIT_S)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            return None, out.getvalue(), f"Traceback: {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("target", range(len(TARGETS)), ids=[f"{t[0]}-{t[1][0]}" for t in TARGETS])
def test_mutated_inputs_exit_cleanly(tmp_path, target):
    name, (command, *options) = TARGETS[target]
    original = json.loads((CORPUS / name).read_text(encoding="utf-8"))
    rng = random.Random(1000 + target)
    path = tmp_path / name
    for _ in range(RUNS_PER_TARGET):
        data, argv = mutate(original, [command, str(path), *options], rng)
        text = json.dumps(data)
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(argv)
        repro = f"arrmc {' '.join(argv)} on {text}"
        assert code in (0, 1, 2, 3), f"exit code {code}, {err or f'no result within {LIMIT_S} s'}\n{repro}"
        assert "Traceback" not in err, f"{err}\n{repro}"
        if code == 2:
            named = [line for line in err.splitlines() if "error: " in line]
            assert len(named) == 1 or "error" in json.loads(out or "{}"), f"{err}\n{repro}"

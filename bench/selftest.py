"""Self-test of the oracles: each accepts a genuine report and rejects a
deliberately corrupted copy of it.  Also checks that a job without a verdict
makes a run incorrect unless it reproduces a known fault.

    python3 bench/selftest.py

Exits nonzero if an oracle accepts a corrupted report or rejects a genuine
one, or if a failed job is judged wrongly.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
from fractions import Fraction

from run import ROOT, WORK, verify


def _scale_residue(report):
    res = report["system"]["residues"]
    lbl = sorted(res)[0]
    res[lbl] = [[str(2 * Fraction(x)) for x in row] for row in res[lbl]]


def _drop_flat(report):
    top = report["flats_by_rank"][-1]
    top.pop()
    report["counts"][-1] -= 1


def _nudge_charpoly(report):
    table = report["compatibility"]["generator_charpolys"]
    table["generator_1"]["restricted"][1][0] += 1e-4


def _perturb(path):
    def corrupt(report):
        *keys, last = path
        node = report
        for k in keys:
            node = node[k]
        node[last] = node[last] + 1 if not isinstance(node[last], bool) else not node[last]

    return corrupt


def _clear_offenders(report):
    report["genericity"] = {"ok": True, "offenders": []}


# (workload, job name, description, corruption, exit code to claim or None)
CASES = [
    ("arrangements", "poset-rand2-m8", "a flat of top rank dropped", _drop_flat, None),
    ("arrangements", "poset-fiber3-c2", "cover count off by one", _perturb(["cover_count"]), None),
    ("arrangements", "goodline-rand2-m6", "verdict flipped to good", _perturb(["good"]), 0),
    ("arrangements", "goodline-fiber2-c3", "verdict flipped to not good", _perturb(["good"]), 1),
    ("exact-mc", "check-line-n4-nongeneric", "integer eigenvalue hidden", _clear_offenders, None),
    ("exact-mc", "check-kz", "star verdict flipped", _perturb(["star", "ok"]), None),
    ("exact-mc", "mc-line-n4-d2", "dimension off by one", _perturb(["dim"]), None),
    ("exact-mc", "mc-line-n3-d3", "a residue doubled", _scale_residue, None),
    ("exact-mc", "compose-kz", "first dimension off by one", _perturb(["dims", "first"]), None),
    ("exact-mc", "katz-r3", "output rank off by one", _perturb(["output_rank"]), None),
    ("rh-verify", "rh-kz", "a charpoly coefficient moved by 1e-4", _nudge_charpoly, None),
    ("rh-verify", "rh-line-n3-d2", "forward dimension off by one", _perturb(["round_trip", "forward_dim"]), None),
]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import oracles
    from arrmc.cli import main as arrmc

    work = WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for workload, name, what, corrupt, claim in CASES:
            job = next(j for j in inputs.WORKLOADS[workload](random.Random(1)) if j.name == name)
            path, out = work / "input.json", work / "report.json"
            path.write_text(json.dumps(job.data), encoding="utf-8")
            code = arrmc([job.command, str(path), *job.options, "--out", str(out)])
            report = json.loads(out.read_text(encoding="utf-8"))
            genuine = oracles.check(job, code, report)
            broken = copy.deepcopy(report)
            corrupt(broken)
            caught = oracles.check(job, code if claim is None else claim, broken)
            ok = not genuine and bool(caught)
            bad += not ok
            print(f"{'PASS' if ok else 'FAIL'} {job.command:15s} {name}: {what}"
                  + (f" -> {caught[0]}" if caught else "") + (f" [genuine rejected: {genuine}]" if genuine else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad += not failures_judged(inputs.WORKLOADS["exact-mc"](random.Random(1)))
    return 1 if bad else 0


def failures_judged(jobs) -> bool:
    """A job that exits 3 is a problem; the known-fault job timing out is not."""
    plain = next(i for i, j in enumerate(jobs) if not j.fault)
    fault = next(i for i, j in enumerate(jobs) if j.fault)
    # records as run_rounds makes them: (job, round, code, seconds, report, error)
    _, failed, problems = verify(jobs, [(plain, 0, 3, 0.1, None, None)])
    plain_ok = failed == 1 and bool(problems)
    _, failed, problems = verify(jobs, [(fault, 0, None, 1.0, None, "no result within 1.0 s")])
    fault_ok = failed == 1 and not problems
    print(f"{'PASS' if plain_ok else 'FAIL'} verify          {jobs[plain].name}: exit 3 makes the run incorrect")
    print(f"{'PASS' if fault_ok else 'FAIL'} verify          {jobs[fault].name}: known fault counted as failed only")
    return plain_ok and fault_ok


if __name__ == "__main__":
    sys.exit(main())

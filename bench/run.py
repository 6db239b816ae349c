"""Benchmark for arrmc: one closed-loop client, one workload per run.

    python3 bench/run.py --workload exact-mc --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src/``.  Set-up imports arrmc, generates the workload's inputs from the
seed and writes them as JSON.  The timed loop then runs whole rounds of the
workload's jobs, each through ``arrmc.cli.main([..., "--out", path])`` in
this process, until ``--seconds`` have passed.  Afterwards every report is
checked against independent oracles (``oracles.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).  The exit code is 1 when a check fails and 2
when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build"

SETUP_REPEATS = 9
END_TO_END = {"setup_s": "s", "jobs_per_s": "jobs/s", "job_geomean_s": "s", "peak_rss_mb": "MB"}


class JobTimeout(BaseException):
    """Raised by the alarm in the middle of a job that ran out of time.

    A BaseException, so no handler inside the program can swallow it."""


def _alarm(signum, frame):
    raise JobTimeout


def _purge_arrmc() -> None:
    for name in [n for n in sys.modules if n == "arrmc" or n.startswith("arrmc.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, work: Path):
    """Import arrmc, generate the inputs and write them; repeated, with the
    median time.  Returns (median seconds, jobs, input paths, cli module)."""
    import inputs

    times = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        _purge_arrmc()
        cli = importlib.import_module("arrmc.cli")
        jobs = inputs.WORKLOADS[workload](random.Random(seed))
        folder = work / f"inputs{rep}"
        folder.mkdir(parents=True)
        paths = []
        for job in jobs:
            path = folder / f"{job.name}.json"
            path.write_text(json.dumps(job.data, indent=1), encoding="utf-8")
            paths.append(str(path))
        times.append(time.perf_counter() - start)
    return statistics.median(times), jobs, paths, cli


def run_job(main, job, path: str, out: Path):
    """(exit code or None, seconds, report text or None, error)."""
    if out.exists():
        out.unlink()
    argv = [job.command, path, *job.options, "--out", str(out)]
    error = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, job.limit_s)
        try:
            code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        code, error = None, f"no result within {job.limit_s} s"
    except SystemExit as exc:
        code, error = None, f"exited with {exc.code}"
    except Exception as exc:  # a crash of the program is a failed job
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.read_text(encoding="utf-8") if code is not None and out.exists() else None
    if code is not None and text is None:
        code, error = None, "no report written"
    return code, seconds, text, error


def run_rounds(main, jobs, paths, seconds: float, out: Path, results: list) -> list[float]:
    """Whole rounds until ``seconds`` have passed; appends one record per
    job and round to ``results`` and returns the wall time of each round."""
    round_times = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for index, (job, path) in enumerate(zip(jobs, paths)):
            code, secs, text, error = run_job(main, job, path, out)
            results.append((index, len(round_times), code, secs, text, error))
        round_times.append(time.perf_counter() - round_start)
        if time.perf_counter() - start >= seconds:
            return round_times


def verify(jobs, results):
    """Check every report once per distinct output.

    A job that gives no verdict has failed.  That is a problem unless the job
    reproduces a known fault; a known-fault job that does give a verdict is
    checked like any other.  Returns (records with a success flag, failed
    count, problems)."""
    import oracles

    verdicts = {}
    problems = []
    texts = {}
    checked = []
    failed = 0
    reported = set()
    for index, rnd, code, secs, text, error in results:
        job = jobs[index]
        if code not in (0, 1):
            failed += 1
            why = error or f"exit code {code}"
            if not job.fault:
                problems.append(f"{job.name}: failed in round {rnd + 1}: {why}")
            elif index not in reported:
                reported.add(index)
                print(f"failed: {job.name} (known fault {job.fault}): {why}", file=sys.stderr)
            checked.append((index, rnd, secs, False))
            continue
        if texts.setdefault(index, text) != text:
            problems.append(f"{job.name}: report differs between rounds")
        key = (index, code, text)
        if key not in verdicts:
            try:
                found = oracles.check(job, code, json.loads(text))
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                found = [f"report does not have the expected form: {exc!r}"]
            verdicts[key] = not found
            problems += [f"{job.name}: {p}" for p in found]
        checked.append((index, rnd, secs, verdicts[key]))
    return checked, failed, problems


def end_to_end(setup_s, checked, round_times, peak_rss_mb) -> dict:
    successes = [0] * len(round_times)  # by round
    latencies: dict[int, list[float]] = {}  # of the successful jobs, by job
    for index, rnd, secs, ok in checked:
        if ok:
            successes[rnd] += 1
            latencies.setdefault(index, []).append(secs)
    # Rounds are identical, so each gives the loop's throughput, and each job
    # its latency once per round; medians over rounds keep bursts of machine
    # contention out.  The geometric mean weighs every job alike, so it tracks
    # the typical job without landing on a different job for each seed, as the
    # median of a round's few dozen mixed jobs does.
    typical = [statistics.median(lat) for lat in latencies.values()]
    values = {
        "setup_s": setup_s,
        "jobs_per_s": statistics.median(n / t for n, t in zip(successes, round_times)),
        "job_geomean_s": statistics.geometric_mean(typical) if typical else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def parse_args(argv):
    import inputs

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            import numpy  # noqa: F401  (arrmc's dependency, loaded before set-up is timed)

            setup_s, jobs, paths, cli = setup(args.workload, args.seed, work)
        except ImportError as exc:
            print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
            print(f"arrmc was imported from {cli.__file__}, not from this checkout", file=sys.stderr)
            return 2
        signal.signal(signal.SIGALRM, _alarm)
        out = work / "report.json"
        results: list = []
        main_fn = cli.main
        if args.trace:
            from spans import Tracer

            untraced = run_rounds(main_fn, jobs, paths, args.seconds / 2, out, [])
            tracer = Tracer()
            tracer.install()
            round_times = run_rounds(tracer.wrap_job(main_fn), jobs, paths, args.seconds / 2, out, results)
            overhead = 100.0 * (statistics.median(round_times) / statistics.median(untraced) - 1.0)
        else:
            round_times = run_rounds(main_fn, jobs, paths, args.seconds, out, results)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked, failed, problems = verify(jobs, results)
        for p in problems:
            print(f"incorrect: {p}", file=sys.stderr)
        if args.trace:
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json")
            metrics = tracer.per_layer(len(round_times), overhead)
        else:
            metrics = end_to_end(setup_s, checked, round_times, peak_rss_mb)
        print(
            f"{args.workload} seed {args.seed}: {len(round_times)} rounds of {len(jobs)} jobs",
            file=sys.stderr,
        )
        print(json.dumps({"correct": not problems, "attempted": len(results), "failed": failed, "metrics": metrics}))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

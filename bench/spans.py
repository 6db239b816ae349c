"""Layer spans for the traced run, recorded from outside the program.

``install`` replaces public functions of arrmc's modules by timing wrappers
at every module attribute that refers to them, so calls made through
``from .linalg import rref``, through ``la.rref`` and from inside the defining
module are all caught.  Each wrapped call is a span; a span's self time is
its duration minus the time of the wrapped calls it made.  Spans outside
``linalg`` are kept in memory with their parent and job; the very frequent
``linalg`` calls are only counted, with their self time.  Nothing
under ``src/`` changes, and the untraced run installs nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function, metric prefix).  A function that a later version of the
# program no longer has is skipped and its metrics read zero.
LAYERS = [
    ("arrangement", "build_intersection_poset", "arrangement.poset"),
    ("arrangement", "is_good_line", "arrangement.goodline"),
    ("arrangement", "goodness_fiber_oracle", "arrangement.oracle"),
    ("pfaffian", "check_integrability", "pfaffian.integrability"),
    ("pfaffian", "check_assumption_generic", "pfaffian.genericity"),
    ("pfaffian", "check_star_conditions", "pfaffian.star"),
    ("convolution", "convolve", "convolution.convolve"),
    ("convolution", "middle_convolve", "convolution.middle_convolve"),
    ("convolution", "is_isomorphic", "convolution.isomorphic"),
    ("katz", "multiplicative_middle_convolution", "katz.mmc"),
    ("katz", "tuple_isomorphism", "katz.tuple_iso"),
    ("katz", "check_property_p", "katz.property_p"),
    ("monodromy", "monodromy_tuple_of_ode", "monodromy.tuple"),
    ("monodromy", "verify_mc_compatibility", "monodromy.compat"),
    ("serialization", "load_path", "serialization.load"),
    ("serialization", "system_from_json", "serialization.load"),
    ("serialization", "tuple_from_json", "serialization.load"),
    ("serialization", "arrangement_from_json", "serialization.load"),
    ("serialization", "dumps", "serialization.dump"),
    ("serialization", "system_to_json", "serialization.dump"),
    ("serialization", "tuple_to_json", "serialization.dump"),
    ("serialization", "arrangement_to_json", "serialization.dump"),
]
COUNTED = [  # linalg: counted and timed, no span kept
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "integer_eigenvalues", "linalg.integer_eigenvalues"),
    ("linalg", "pencil_minor_gcd", "linalg.pencil_minor_gcd"),
]

# per-layer metric: unit.  Counts and self times are per round of the loop.
PER_LAYER = {
    "arrangement.poset_calls": "count",
    "arrangement.poset_s": "s",
    "arrangement.flats": "count",
    "arrangement.goodline_s": "s",
    "arrangement.oracle_s": "s",
    "pfaffian.integrability_calls": "count",
    "pfaffian.integrability_s": "s",
    "pfaffian.genericity_s": "s",
    "pfaffian.star_s": "s",
    "linalg.integer_eigenvalues_s": "s",
    "linalg.pencil_minor_gcd_s": "s",
    "convolution.convolve_calls": "count",
    "convolution.convolve_s": "s",
    "convolution.middle_convolve_calls": "count",
    "convolution.middle_convolve_s": "s",
    "convolution.isomorphic_s": "s",
    "convolution.max_dim": "count",
    "linalg.rref_calls": "count",
    "linalg.rref_s": "s",
    "linalg.rref_max_rows": "count",
    "linalg.mat_mul_calls": "count",
    "linalg.mat_mul_s": "s",
    "linalg.det_calls": "count",
    "linalg.det_s": "s",
    "katz.mmc_exact_s": "s",
    "katz.mmc_numeric_s": "s",
    "katz.tuple_iso_s": "s",
    "katz.property_p_s": "s",
    "monodromy.tuple_calls": "count",
    "monodromy.tuple_s": "s",
    "monodromy.compat_s": "s",
    "fuchsian.rhs_evals": "count",
    "serialization.load_s": "s",
    "serialization.dump_s": "s",
    "trace.overhead_pct": "%",
}
# sizes reported as the largest seen, not per round
MAXIMA = {"arrangement.flats", "convolution.max_dim", "linalg.rref_max_rows"}


class Tracer:
    """Spans and per-name totals for the wrapped calls of one process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.maxima = defaultdict(int)
        self.spans = []  # (job, name, start, end, parent span index or -1)
        self.job = 0  # sequence number of the current job
        self._stack = []  # [span index or -1, seconds spent in wrapped children]

    def _wrap(self, fn, name, keep, observe=None, metric_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            metric = metric_of(args) if metric_of else name
            frame = [-1, 0.0]
            parent = next((f[0] for f in reversed(tracer._stack) if f[0] >= 0), -1)
            if keep:
                frame[0] = len(tracer.spans)
                tracer.spans.append(None)
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.self_s[metric] += duration - frame[1]
                tracer.calls[metric] += 1
                if keep:
                    tracer.spans[frame[0]] = (tracer.job, metric, start, end, parent)
            if observe:
                try:
                    observe(args, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    pass  # the program's objects changed shape; the size reads 0
            return result

        return wrapper

    def _observe(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def install(self) -> None:
        """Wrap every listed function that the loaded arrmc defines."""
        modules = [m for name, m in list(sys.modules.items()) if name == "arrmc" or name.startswith("arrmc.")]
        observers = {
            "arrangement.poset": lambda a, r: self._observe("arrangement.flats", sum(len(s) for s in r.by_rank)),
            "convolution.convolve": lambda a, r: self._observe("convolution.max_dim", r.system.dim_e),
            "linalg.rref": lambda a, r: self._observe("linalg.rref_max_rows", len(a[0])),
        }
        metric_of = {"katz.mmc": lambda a: "katz.mmc_exact" if getattr(a[0] if a else None, "exact", False) else "katz.mmc_numeric"}
        for layers, keep in ((LAYERS, True), (COUNTED, False)):
            for module, func, name in layers:
                owner = sys.modules.get(f"arrmc.{module}")
                original = getattr(owner, func, None)
                if original is None:
                    continue
                wrapped = self._wrap(original, name, keep, observers.get(name), metric_of.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
        fuchsian = sys.modules.get("arrmc.fuchsian")
        ode = getattr(fuchsian, "FuchsianODE", None)
        if ode is not None and hasattr(ode, "coefficient"):
            ode.coefficient = self._counter(ode.coefficient, "fuchsian.rhs_evals")

    def _counter(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap_job(self, fn):
        """The root span of each job, everything the CLI does; its spans
        share the job's sequence number."""
        root = self._wrap(fn, "cli.main", True)

        @functools.wraps(fn)
        def job(*args, **kwargs):
            self.job += 1
            return root(*args, **kwargs)

        return job

    def per_layer(self, rounds: int, overhead_pct: float) -> dict:
        out = {}
        for name, unit in PER_LAYER.items():
            if name in MAXIMA:
                value = self.maxima[name]
            elif name.endswith("_calls"):
                value = self.calls[name[: -len("_calls")]] / rounds
            elif name.endswith("_s"):
                value = self.self_s[name[: -len("_s")]] / rounds
            elif name == "trace.overhead_pct":
                value = overhead_pct
            else:
                value = self.calls[name] / rounds
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["job", "name", "start", "end", "parent"],
                    "spans": self.spans,
                    "calls": dict(self.calls),
                    "self_s": dict(self.self_s),
                },
                fh,
            )

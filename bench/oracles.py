"""Independent checks of every report the benchmark produces.

Each oracle recomputes what the report must say from the input file alone,
with sympy or with the small exact routines of ``exact.py``, and never
with arrmc.  ``check(job, code, report)`` returns a list of problems; an
empty list means the output is correct.  The rules come from outside the
program:

- the intersection poset, by enumerating all subsets of at most ``dim``
  hyperplanes;
- goodness, by the criterion that every rank-two flat X not parallel to the
  line lies in a hyperplane parallel to it (then that hyperplane is X + Y);
- the dimension of the additive middle convolution,
  sum rk A_k + rk(sum A_k + lambda) - d, and its local rule on Jordan
  blocks: J(a, m) -> J(a + lambda, m) for a != 0, J(0, m) -> J(lambda, m - 1),
  the rest of the residue being zero (Dettweiler-Reiter 2007);
- the rank of the multiplicative middle convolution,
  sum rk(M_k - 1) + rk(c M_1...M_n - 1) - r (Dettweiler-Reiter 2000);
- integer eigenvalues as the integer roots of the characteristic
  polynomial, found by factoring it with sympy.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import sympy

from exact import rank as q_rank
from exact import rref, star_failures

CHARPOLY_TOL = 1e-6


# ---------------------------------------------------------------------------
# parsing


def _matrix(rows) -> list[list[F]]:
    return [[F(x) for x in row] for row in rows]


def _hyperplanes(arr: dict) -> list[tuple[str, list[F], F]]:
    return [(h["label"], [F(c) for c in h["coeffs"]], F(h["constant"])) for h in arr["hyperplanes"]]


def _options(job) -> dict:
    out = {}
    for opt in job.options:
        key, _, value = opt.partition("=")
        out[key.lstrip("-")] = value
    return out


def _sym(m) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def _sym_rank(m) -> int:
    return _sym(m).rank() if m else 0


# ---------------------------------------------------------------------------
# arrangements


def flats(arr: dict) -> dict[frozenset, int]:
    """{labels of the hyperplanes containing the flat: rank} for every flat,
    by enumerating all subsets of at most ``dim`` hyperplanes."""
    dim = arr["dim"]
    hs = _hyperplanes(arr)
    rows = [coeffs + [-const] for _, coeffs, const in hs]
    out = {frozenset(): 0}
    for size in range(1, dim + 1):
        for subset in combinations(range(len(hs)), size):
            red, pivots = rref([rows[i] for i in subset])
            if dim in pivots:
                continue  # empty intersection
            r = len(red)
            containing = frozenset(hs[j][0] for j in range(len(hs)) if q_rank(red + [rows[j]]) == r)
            out[containing] = r
    return out


def _flat_rows(arr: dict, labels) -> list:
    rows = {lbl: coeffs + [-const] for lbl, coeffs, const in _hyperplanes(arr)}
    return rref([rows[lbl] for lbl in sorted(labels)])[0] if labels else []


def check_poset(job, code: int, report: dict) -> list[str]:
    arr = job.data
    expected = flats(arr)
    by_rank: dict[int, set] = {}
    for labels, r in expected.items():
        by_rank.setdefault(r, set()).add(labels)
    ranks = max(by_rank) + 1
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if report.get("dim") != arr["dim"]:
        problems.append("wrong ambient dimension")
    if report.get("counts") != [len(by_rank[r]) for r in range(ranks)]:
        problems.append(f"counts {report.get('counts')} != {[len(by_rank[r]) for r in range(ranks)]}")
    got = report.get("flats_by_rank", [])
    if len(got) != ranks:
        return problems + [f"{len(got)} ranks reported, expected {ranks}"]
    for r, stratum in enumerate(got):
        seen = set()
        for f in stratum:
            labels = frozenset(f["containing"])
            if f["rank"] != r or len(f["equations"]) != r:
                problems.append(f"flat {sorted(labels)} reported with the wrong rank")
            if labels in seen:
                problems.append(f"flat {sorted(labels)} reported twice")
            seen.add(labels)
            if rref(_matrix(f["equations"]))[0] != _flat_rows(arr, labels):
                problems.append(f"equations of flat {sorted(labels)} do not cut it out")
        if seen != by_rank[r]:
            problems.append(f"rank {r}: flats differ from the subset enumeration")
    covers = sum(
        1
        for f, rf in expected.items()
        for g, rg in expected.items()
        if rg == rf + 1 and f <= g
    )
    if report.get("cover_count") != covers:
        problems.append(f"cover_count {report.get('cover_count')} != {covers}")
    return problems


def bad_rank_two_flats(arr: dict, direction: list[F]) -> set[frozenset]:
    """Rank-two flats X with X + Y outside the intersection lattice."""
    parallel = {lbl for lbl, coeffs, _ in _hyperplanes(arr) if sum(c * y for c, y in zip(coeffs, direction)) == 0}
    # X + Y lies in the lattice iff it is a hyperplane of the arrangement
    # (or X itself, when Y is in X's direction space), iff some hyperplane
    # through X is parallel to Y.
    return {labels for labels, r in flats(arr).items() if r == 2 and not labels & parallel}


def check_goodline(job, code: int, report: dict) -> list[str]:
    opts = _options(job)
    direction = [F(c) for c in opts["line"].split(",")]
    lead = next(c for c in direction if c != 0)
    bad = bad_rank_two_flats(job.data, direction)
    good = not bad
    problems = []
    if code != (0 if good else 1):
        problems.append(f"exit code {code}, expected {0 if good else 1}")
    if report.get("good") is not good:
        problems.append(f"verdict good={report.get('good')}, expected {good}")
    if report.get("direction") != [str(c / lead) for c in direction]:
        problems.append("direction not canonical")
    if not good:
        w = report.get("witness")
        if not w or w.get("rank") != 2 or frozenset(w.get("containing", ())) not in bad:
            problems.append("witness is not a rank-two flat X with X + Y outside the lattice")
    oracle = report.get("fiber_oracle", {})
    if oracle.get("good") is not good or report.get("agreement") is not True:
        problems.append("fiber oracle disagrees with the verdict")
    return problems


# ---------------------------------------------------------------------------
# systems


def _transverse(job) -> tuple[list[tuple[str, list]], list[F]]:
    direction = [F(c) for c in _options(job)["line"].split(",")]
    out = []
    for lbl, coeffs, _ in _hyperplanes(job.data["arrangement"]):
        if sum(c * y for c, y in zip(coeffs, direction)) != 0:
            out.append((lbl, _matrix(job.data["residues"][lbl])))
    return out, direction


def _add_scalar(m, s):
    return [[x + (s if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(m)]


def _sum(mats, d: int):
    return [[sum((m[i][j] for m in mats), F(0)) for j in range(d)] for i in range(d)]


def integer_eigenvalues(m) -> list[int]:
    """Distinct nonzero integer eigenvalues, from sympy's rational roots."""
    x = sympy.Symbol("x")
    roots = sympy.Poly(_sym(m).charpoly(x).as_expr(), x).ground_roots()
    return sorted(int(r) for r in roots if r.is_integer and r != 0)


def integrable(system: dict) -> bool:
    """[A_H, sum of A_K over K through X] = 0 for every rank-two flat X."""
    d = system["dimE"]
    res = {lbl: _sym(_matrix(m)) for lbl, m in system["residues"].items()}
    for labels, r in flats(system["arrangement"]).items():
        if r != 2 or len(labels) < 2:
            continue
        total = sympy.zeros(d, d)
        for lbl in labels:
            total += res[lbl]
        if any(not (res[lbl] * total - total * res[lbl]).is_zero_matrix for lbl in labels):
            return False
    return True


def _verdicts(job, lam: F):
    trans, _ = _transverse(job)
    d = job.data["dimE"]
    offenders = [[lbl, k] for lbl, m in trans for k in integer_eigenvalues(m)]
    offenders += [["<sum>", k] for k in integer_eigenvalues(_add_scalar(_sum([m for _, m in trans], d), lam))]
    star = star_failures(trans)
    return integrable(job.data), offenders, star


def check_check(job, code: int, report: dict) -> list[str]:
    lam = F(_options(job)["lambda"])
    integ, offenders, star = _verdicts(job, lam)
    ok = integ and not offenders and not star
    problems = []
    if code != (0 if ok else 1):
        problems.append(f"exit code {code}, expected {0 if ok else 1}")
    if report.get("integrable") is not integ:
        problems.append("integrability verdict wrong")
    gen = report.get("genericity", {})
    if gen.get("ok") is not (not offenders) or sorted(map(tuple, gen.get("offenders", []))) != sorted(map(tuple, offenders)):
        problems.append(f"genericity offenders {gen.get('offenders')} != {offenders}")
    st = report.get("star", {})
    if st.get("ok") is not (not star) or set(map(tuple, st.get("failures", []))) != star:
        problems.append(f"star failures {st.get('failures')} != {sorted(star)}")
    if report.get("ok") is not ok:
        problems.append("overall verdict wrong")
    return problems


def mc_dimension(trans, d: int, lam: F) -> int:
    """sum rk A_k + rk(sum A_k + lambda) - d, with sympy ranks."""
    return sum(_sym_rank(m) for _, m in trans) + _sym_rank(_add_scalar(_sum([m for _, m in trans], d), lam)) - d


def _rational_spectrum(m) -> dict:
    x = sympy.Symbol("x")
    roots = sympy.Poly(_sym(m).charpoly(x).as_expr(), x).ground_roots()
    if sum(roots.values()) != len(m):
        raise ValueError("spectrum is not rational")
    return {F(int(r.p), int(r.q)): k for r, k in roots.items()}


def jordan_partition(m, eig: F) -> list[int]:
    """Block sizes of eigenvalue ``eig``, from ranks of powers of m - eig."""
    n = len(m)
    shifted = _sym(_add_scalar(m, -eig))
    ranks = [n]
    power = sympy.eye(n)
    while True:
        power = power * shifted
        ranks.append(power.rank())
        if ranks[-1] == ranks[-2]:
            break
    at_least = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]  # blocks of size >= j
    sizes = []
    for j, count in enumerate(at_least, start=1):
        bigger = at_least[j] if j < len(at_least) else 0
        sizes += [j] * (count - bigger)
    return sorted(sizes, reverse=True)


def predicted_jordan(a, lam: F, dim_out: int) -> dict[F, list[int]]:
    """Jordan data of the middle convolution's residue at the same point."""
    out: dict[F, list[int]] = {}
    for alpha in _rational_spectrum(a):
        for size in jordan_partition(a, alpha):
            if alpha == 0:
                if size > 1:
                    out.setdefault(lam, []).append(size - 1)
            elif alpha == -lam:
                out.setdefault(F(0), []).append(size + 1)
            else:
                out.setdefault(alpha + lam, []).append(size)
    fill = dim_out - sum(sum(v) for v in out.values())
    if fill < 0:
        raise ValueError("predicted blocks exceed the output dimension")
    out.setdefault(F(0), []).extend([1] * fill)
    return {k: sorted(v, reverse=True) for k, v in out.items() if v}


def check_middle_convolve(job, code: int, report: dict) -> list[str]:
    lam = F(_options(job)["lambda"])
    trans, _ = _transverse(job)
    d = job.data["dimE"]
    dim = mc_dimension(trans, d, lam)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if report.get("input_dim") != d or report.get("dim") != dim:
        return problems + [f"dimension {report.get('dim')} != {dim}"]
    out = report.get("system", {})
    labels = {h["label"] for h in job.data["arrangement"]["hyperplanes"]}
    if out.get("dimE") != dim or set(out.get("residues", {})) != labels:
        return problems + ["output system has the wrong shape or hyperplanes"]
    if star_failures(trans):
        return problems  # the local rule needs (*) and (**)
    for lbl, a in trans:
        b = _matrix(out["residues"][lbl])
        for beta, sizes in predicted_jordan(a, lam, dim).items():
            if jordan_partition(b, beta) != sizes:
                problems.append(f"residue {lbl}: Jordan blocks at {beta} are {jordan_partition(b, beta)}, expected {sizes}")
    return problems


def _invertible(rows) -> bool:
    return _sym(_matrix(rows)).det() != 0


def check_compose_verify(job, code: int, report: dict) -> list[str]:
    opts = _options(job)
    lam, mu = F(opts["lambda"]), F(opts["mu"])
    trans, _ = _transverse(job)
    d = job.data["dimE"]
    problems = []
    if star_failures(trans):
        return [] if code == 1 and report.get("ok") is False else ["input fails (*) or (**) but was not refused"]
    if code != 0 or report.get("ok") is not True:
        problems.append(f"exit code {code}, ok={report.get('ok')}; both laws hold under (*) and (**)")
    first, direct = mc_dimension(trans, d, lam), mc_dimension(trans, d, lam + mu)
    want = {"first": first, "composed": direct, "direct": direct, "round_trip": d}
    if report.get("dims") != want:
        problems.append(f"dims {report.get('dims')} != {want}")
    if report.get("lambda") != str(lam) or report.get("mu") != str(mu):
        problems.append("parameters echoed wrongly")
    for key, size in (("additive_intertwiner", direct), ("inverse_intertwiner", d)):
        s = report.get(key)
        if s is None or len(s) != size or (size and not _invertible(s)):
            problems.append(f"{key} is missing or not invertible")
    if report.get("star_ok") is not True:
        problems.append("star_ok wrong")
    return problems


def check_katz_mc(job, code: int, report: dict) -> list[str]:
    c = F(_options(job)["scalar"])
    mats = [_sym(_matrix(m)) for m in job.data["matrices"]]
    r = job.data["rank"]
    eye = sympy.eye(r)
    prod = eye
    for m in mats:
        prod = prod * m
    expected = sum((m - eye).rank() for m in mats) + (sympy.Rational(c.numerator, c.denominator) * prod - eye).rank() - r
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    t = report.get("tuple", {})
    if report.get("output_rank") != expected or t.get("rank") != expected:
        problems.append(f"output rank {report.get('output_rank')} != {expected}")
    if report.get("input_rank") != r or report.get("punctures") != len(mats):
        problems.append("input shape echoed wrongly")
    if report.get("character") != {"schema": 1, "scalar": str(c)}:
        problems.append("character echoed wrongly")
    out = t.get("matrices", [])
    if t.get("exact") is not True or len(out) != len(mats) or (expected and not all(_invertible(m) for m in out)):
        problems.append("output tuple is not an exact tuple of invertible matrices")
    return problems


def _fiber_order(job, trans, direction) -> list[str]:
    """Transverse labels sorted by their point on the fiber over the base.

    The line direction is the last axis, so the fiber coordinate of a
    hyperplane c . x + a = 0 over base b is -(c' . b + a) / c_last."""
    if any(direction[:-1]) or direction[-1] == 0:
        raise ValueError("the oracle expects the last axis as the line")
    base = [F(b) for b in _options(job)["base"].split(",") if b.strip()]
    hs = {lbl: (coeffs, const) for lbl, coeffs, const in _hyperplanes(job.data["arrangement"])}
    point = {}
    for lbl, _ in trans:
        coeffs, const = hs[lbl]
        point[lbl] = -(sum(c * b for c, b in zip(coeffs[:-1], base)) + const) / coeffs[-1]
    return sorted(point, key=lambda lbl: point[lbl])


def predicted_charpoly(a, lam: F, dim_out: int) -> np.ndarray | None:
    """Coefficients, highest degree first, of prod (x - exp(2 pi i beta))
    over the predicted spectrum beta of the convolved residue: alpha + lambda
    for every nonzero eigenvalue alpha of A, lambda with multiplicity
    m0 - g0 (the algebraic and geometric multiplicities of 0 in A), and 0
    for the rest.  The nonzero eigenvalues need not be rational; they are
    the roots of A's exact characteristic polynomial.  None when the
    predicted spectrum does not fit in ``dim_out``."""
    d = len(a)
    x = sympy.Symbol("x")
    coeffs = sympy.Poly(_sym(a).charpoly(x).as_expr(), x).all_coeffs()  # highest degree first
    m0 = next(k for k, c in enumerate(reversed(coeffs)) if c != 0)
    g0 = d - _sym_rank(a)
    rest = dim_out - (d - m0) - (m0 - g0)
    if rest < 0:
        return None
    nonzero = np.roots([float(c) for c in coeffs[: len(coeffs) - m0]]) if m0 < d else []
    roots = [cmath.exp(2j * math.pi * (complex(alpha) + float(lam))) for alpha in nonzero]
    roots += [cmath.exp(2j * math.pi * float(lam))] * (m0 - g0) + [1.0] * rest
    return np.poly(np.array(roots, dtype=complex)) if roots else np.array([1.0 + 0j])


def check_rh_verify(job, code: int, report: dict) -> list[str]:
    lam = F(_options(job)["lambda"])
    trans, direction = _transverse(job)
    d = job.data["dimE"]
    integ, offenders, star = _verdicts(job, lam)
    stages = report.get("stages", {})
    if not (integ and not offenders and not star):
        want = {"integrable": integ, "genericity_ok": not offenders, "star_ok": not star}
        return [] if code == 1 and stages == want and report.get("ok") is False else [f"stages {stages} != {want}"]
    dim = mc_dimension(trans, d, lam)
    problems = []
    if code != 0 or report.get("ok") is not True or not all(stages.get(k) for k in
            ("integrable", "genericity_ok", "star_ok", "compatibility_ok", "round_trip_ok")):
        problems.append(f"exit code {code}, stages {stages}; the pipeline must pass")
    compat = report.get("compatibility", {})
    if compat.get("rank_multiplicative") != dim or compat.get("rank_restricted") != dim:
        problems.append(f"fiber tuple ranks {compat.get('rank_multiplicative')}, {compat.get('rank_restricted')} != {dim}")
    rt = report.get("round_trip", {})
    if rt.get("forward_dim") != dim or rt.get("back_dim") != d or rt.get("isomorphic") is not True:
        problems.append("round trip dimensions or verdict wrong")
    table = compat.get("generator_charpolys", {})
    residues = dict(trans)
    order = _fiber_order(job, trans, direction)
    if len(table) != len(order):
        return problems + [f"{len(table)} generators reported, expected {len(order)}"]
    for i, lbl in enumerate(order):
        want = predicted_charpoly(residues[lbl], lam, dim)
        if want is None:
            problems.append(f"residue {lbl}: predicted spectrum does not fit dimension {dim}")
            continue
        for side in ("multiplicative", "restricted"):
            got = np.array([complex(re, im) for re, im in table[f"generator_{i + 1}"][side]])
            scale = max(1.0, float(np.max(np.abs(want))))
            if got.shape != want.shape or float(np.max(np.abs(got - want))) > CHARPOLY_TOL * scale:
                problems.append(f"generator {i + 1} ({lbl}, {side}): eigenvalues are not exp(2 pi i spec) of the predicted residue")
    return problems


CHECKS = {
    "poset": check_poset,
    "goodline": check_goodline,
    "check": check_check,
    "middle-convolve": check_middle_convolve,
    "compose-verify": check_compose_verify,
    "katz-mc": check_katz_mc,
    "rh-verify": check_rh_verify,
}


def check(job, code: int, report: dict) -> list[str]:
    """Problems with one job's exit code and report; empty when correct."""
    if report.get("command") != job.command:
        return [f"report is for {report.get('command')!r}"]
    return CHECKS[job.command](job, code, report)

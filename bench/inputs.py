"""Seeded inputs for the three workloads.

Every input is a schema-1 JSON object built here from exact rationals, with
no call into arrmc, so the program sees only the files it would see from a
user.  The same seed gives the same inputs.  The two inputs that reproduce
known faults are drawn from fixed generators of their own and do not depend
on the benchmark seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations

from exact import inverse, mat_mul, rank, star_failures

Y_2D = "0,1"
Z_3D = "0,0,1"
X_1D = "1"


@dataclass(frozen=True)
class Job:
    """One CLI call ``arrmc <command> <input file> <options>`` of a round."""

    name: str
    command: str
    data: dict
    options: tuple[str, ...] = ()
    fault: str = ""  # the known fault this job reproduces, if any
    # Wall-clock limit; a job that reaches it has failed.  The largest jobs
    # take about 1.5 s and the host runs up to 1.9 times slower in bursts of
    # contention; the hang of fault (b) shows within 1 s.
    limit_s: float = 5.0


# ---------------------------------------------------------------------------
# matrices with a known Jordan form


def jordan(blocks) -> list[list[F]]:
    """Block-diagonal Jordan matrix from (eigenvalue, size) pairs."""
    n = sum(size for _, size in blocks)
    m = [[F(0)] * n for _ in range(n)]
    at = 0
    for eig, size in blocks:
        for i in range(size):
            m[at + i][at + i] = F(eig)
            if i + 1 < size:
                m[at + i][at + i + 1] = F(1)
        at += size
    return m


def unimodular(rng: random.Random, d: int):
    """L U with unit diagonals and off-diagonal entries +-1, so the inverse
    is integral too and every draw has the same sparsity."""
    low = [[F(rng.choice((-1, 1))) if j < i else F(int(i == j)) for j in range(d)] for i in range(d)]
    up = [[F(rng.choice((-1, 1))) if j > i else F(int(i == j)) for j in range(d)] for i in range(d)]
    return mat_mul(low, up)


def conjugated(rng: random.Random, blocks):
    """P J P^-1 for a random unimodular P: rational entries, known Jordan form."""
    p = unimodular(rng, sum(size for _, size in blocks))
    return mat_mul(mat_mul(p, jordan(blocks)), inverse(p))


# Denominators are fixed by position and only numerators are drawn, so the
# size of the exact arithmetic, and with it the cost of a job, varies little
# from seed to seed.
DENOMINATORS = (3, 4, 5, 7)
LAMBDA_DENOMINATOR = 6
MU_DENOMINATOR = 8


def non_integer(rng: random.Random, q: int, scale: F = F(3, 2)) -> F:
    """p/q with 0 < |p/q| <= scale and q not dividing p."""
    top = int(scale * q)
    while True:
        p = rng.randint(-top, top)
        if p % q:
            return F(p, q)


def denominator(k: int) -> int:
    return DENOMINATORS[k % len(DENOMINATORS)]


# ---------------------------------------------------------------------------
# schema-1 JSON objects


def rstr(x) -> str:
    return str(F(x))


def matrix_json(m) -> list:
    return [[rstr(x) for x in row] for row in m]


def hyperplane(label: str, coeffs, constant) -> dict:
    return {"label": label, "coeffs": [rstr(c) for c in coeffs], "constant": rstr(constant)}


def arrangement(dim: int, hyperplanes) -> dict:
    return {"schema": 1, "dim": dim, "hyperplanes": list(hyperplanes)}


def system(arr: dict, dim_e: int, residues: dict) -> dict:
    return {
        "schema": 1,
        "arrangement": arr,
        "dimE": dim_e,
        "residues": {lbl: matrix_json(m) for lbl, m in residues.items()},
    }


def exact_tuple(mats) -> dict:
    return {"schema": 1, "rank": len(mats[0]), "exact": True, "matrices": [matrix_json(m) for m in mats]}


def line_system(points, mats) -> dict:
    """Points on the affine line C^1, one residue each (labels p0, p1, ...)."""
    arr = arrangement(1, [hyperplane(f"p{i}", [1], -F(q)) for i, q in enumerate(points)])
    return system(arr, len(mats[0]), {f"p{i}": m for i, m in enumerate(mats)})


def four_lines() -> dict:
    """{x=0, y=0, x-y=0, x=1} in C^2; the y-axis is a good line."""
    return arrangement(
        2,
        [
            hyperplane("x", [1, 0], 0),
            hyperplane("y", [0, 1], 0),
            hyperplane("d", [1, -1], 0),
            hyperplane("x1", [1, 0], -1),
        ],
    )


def four_lines_system(a, b, c, d) -> dict:
    return system(four_lines(), 1, {"x": [[c]], "y": [[a]], "d": [[b]], "x1": [[d]]})


def kz_system(scale, outer) -> dict:
    """Noncommuting rank-2 integrable system on the four lines: the three
    residues through the origin sum to a scalar matrix."""
    return system(
        four_lines(),
        2,
        {
            "x": [[scale, -1], [-1, scale]],
            "y": [[0, 1], [0, 0]],
            "d": [[0, 0], [1, 0]],
            "x1": [[outer, 0], [0, outer]],
        },
    )


def triple_point_system(a, b, e) -> dict:
    """Three transverse lines through the origin plus two vertical walls."""
    arr = arrangement(
        2,
        [
            hyperplane("x", [1, 0], 0),
            hyperplane("y", [0, 1], 0),
            hyperplane("d", [1, -1], 0),
            hyperplane("s", [1, 1], 0),
            hyperplane("x1", [1, 0], -1),
        ],
    )
    return system(arr, 1, {"x": [[0]], "y": [[a]], "d": [[b]], "s": [[e]], "x1": [[0]]})


def slab_system_3d(z0, z1, wall) -> dict:
    """Two parallel transverse planes and one wall carrying a scalar in C^3."""
    arr = arrangement(
        3,
        [
            hyperplane("z0", [0, 0, 1], 0),
            hyperplane("z1", [0, 0, 1], -1),
            hyperplane("x", [1, 0, 0], 0),
        ],
    )
    return system(arr, 2, {"x": [[wall, 0], [0, wall]], "z0": z0, "z1": z1})


def triangular(rng: random.Random, scale: F = F(3, 2)) -> list[list[F]]:
    """Upper-triangular 2x2 with non-integer entries of size <= scale."""
    a, b, c = (non_integer(rng, denominator(k), scale) for k in range(3))
    return [[a, c], [F(0), b]]


# ---------------------------------------------------------------------------
# residues and tuples


# Jordan blocks at eigenvalue 0 of the k-th residue of a rank-d line system,
# cycling with k: a simple zero, a nilpotent J(0,2), and for d = 3 a double
# zero.  The rest of the spectrum is drawn.
ZERO_BLOCKS = {1: [[]], 2: [[1], [1], [2]], 3: [[1], [2], [1], [1, 1]]}


def rank_deficient_residue(rng: random.Random, d: int, k: int):
    """Residue with rational spectrum, singular for d >= 2 so the blockwise
    kernels of the convolution are nonzero.  Nonzero eigenvalues are never
    integers."""
    zeros = ZERO_BLOCKS[d][k % len(ZERO_BLOCKS[d])]
    rest = d - sum(zeros)
    return conjugated(rng, [(0, s) for s in zeros] + [(non_integer(rng, denominator(k + i)), 1) for i in range(rest)])


def random_points(rng: random.Random, n: int) -> list[int]:
    return sorted(rng.sample(range(-4, 5), n))


# Points of the rh-verify line systems.  They are fixed because the number of
# integrator steps depends on the gaps between the poles and on their
# distance to the base point, which would make the cost vary with the seed.
RH_POINTS = {3: [0, 1, 2], 4: [0, 1, 2, 3]}


def random_invertible(rng: random.Random, r: int, with_one: bool):
    """Rational matrix with rational spectrum, eigenvalue 1 included on
    request so that rk(M - 1) < r."""
    eigs = [F(1)] if with_one else []
    while len(eigs) < r:
        x = F(rng.choice([-3, -2, -1, 2, 3, 5]), rng.choice([1, 2, 3]))
        if x != 1:
            eigs.append(x)
    return conjugated(rng, [(e, 1) for e in eigs])


# ---------------------------------------------------------------------------
# arrangements


def random_arrangement(rng: random.Random, dim: int, count: int) -> dict:
    """Hyperplanes in general position with coefficients in [-4, 4] and
    constants p/q, |p| <= 4, q in {1, 2, 3}; exactly one of them is parallel
    to the last axis.

    Any k <= dim of the normals are independent and no dim + 1 hyperplanes
    meet in a point, so there are C(count, k) flats of rank k.  The test
    suite's generator draws from [-2, 2] and leaves coincidences and
    hyperplanes parallel to the last axis to chance; both change the cost of
    a job, the second through the transverse subarrangement that goodline
    builds; drawn that way, the rref calls of a round vary by up to 26%
    from seed to seed."""
    hs: list[tuple[list[F], F]] = []
    while len(hs) < count:
        coeffs = [F(rng.randint(-4, 4)) for _ in range(dim)]
        if (coeffs[-1] == 0) != (not hs):
            continue
        const = F(rng.randint(-4, 4), rng.randint(1, 3))
        if _in_general_position(hs, coeffs, const, dim):
            hs.append((coeffs, const))
    return arrangement(dim, [hyperplane(f"h{i}", c, b) for i, (c, b) in enumerate(hs)])


def _in_general_position(hs, coeffs, const, dim: int) -> bool:
    """Whether adding the hyperplane coeffs . x + const = 0 to ``hs`` keeps
    every k <= dim normals independent and no dim + 1 through one point."""
    for k in range(dim):
        for subset in combinations(hs, k):
            if rank([c for c, _ in subset] + [coeffs]) < k + 1:
                return False
    return all(
        rank([c + [b] for c, b in subset] + [coeffs + [const]]) == dim + 1
        for subset in combinations(hs, dim)
    )


def fiber_type_arrangement(rng: random.Random, dim: int, nconst: int) -> dict:
    """x_i = c for every axis i and c in C, plus every x_i - x_j = 0.

    For each rank-two flat X transverse to the last axis Y, X + Y is again
    one of these hyperplanes, so the last axis is good."""
    consts = sorted(rng.sample(sorted({F(p, q) for p in range(-3, 4) for q in (1, 2)}), nconst))
    hs = []
    for i in range(dim):
        e = [int(k == i) for k in range(dim)]
        for j, c in enumerate(consts):
            hs.append(hyperplane(f"a{i}_{j}", e, -c))
    for i in range(dim):
        for j in range(i + 1, dim):
            hs.append(hyperplane(f"b{i}{j}", [1 if k == i else -1 if k == j else 0 for k in range(dim)], 0))
    return arrangement(dim, hs)


# ---------------------------------------------------------------------------
# the two known-fault inputs (fixed, independent of the benchmark seed)


def fault_a_system() -> dict:
    """4-point rank-3 line system, entries p/q with |p| <= 3, 2 <= q <= 9.

    rh-verify refuses it: the loop-product check in monodromy_tuple_of_ode
    scales its residual by the norm of the enclosing transport only, so
    round-off amplified through the product exceeds the tolerance."""
    rng = random.Random(FAULT_A_SEED)
    mats = [[[F(rng.randint(-3, 3), rng.randint(2, 9)) for _ in range(3)] for _ in range(3)] for _ in range(4)]
    return line_system([0, 1, 2, 3], mats)


FAULT_A_SEED = 7


def fault_b_system() -> dict:
    """One point carrying a 6x6 residue with denominators 7..23.

    ``check`` hangs in integer_eigenvalues: it trial-divides the cleared
    constant term of the characteristic polynomial up to its square root,
    although the Cauchy bound is about 2."""
    rng = random.Random(FAULT_B_SEED)
    m = [[F(rng.randint(-3, 3), rng.randint(7, 23)) for _ in range(6)] for _ in range(6)]
    return line_system([0], [m])


FAULT_B_SEED = 4


# ---------------------------------------------------------------------------
# genericity helpers used while drawing inputs


def charpoly(m) -> list[F]:
    """Monic characteristic polynomial, low degree first (Faddeev-LeVerrier)."""
    n = len(m)
    coeffs = [F(0)] * n + [F(1)]
    mk = m
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs[n - k] = ck
        if k < n:
            shifted = [[mk[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
            mk = mat_mul(m, shifted)
    return coeffs


def has_nonzero_integer_eigenvalue(m) -> bool:
    p = charpoly(m)
    bound = int(1 + max(abs(c) for c in p[:-1]))
    return any(
        sum(c * k**i for i, c in enumerate(p)) == 0 for k in range(-bound, bound + 1) if k
    )


def shifted_sum(mats, lam: F):
    d = len(mats[0])
    return [[sum(m[i][j] for m in mats) + (lam if i == j else 0) for j in range(d)] for i in range(d)]


def generic_parameter(rng: random.Random, mats, q: int = LAMBDA_DENOMINATOR) -> F:
    """A non-integer lambda, |lambda| < 1, with sum(A_k) + lambda free of
    nonzero integer eigenvalues."""
    while True:
        lam = non_integer(rng, q, F(1))
        if not has_nonzero_integer_eigenvalue(shifted_sum(mats, lam)):
            return lam


def second_parameter(rng: random.Random, mats, lam: F) -> F:
    """mu with mu and lambda + mu non-integer and generic for the input."""
    while True:
        mu = generic_parameter(rng, mats, MU_DENOMINATOR)
        if (lam + mu).denominator != 1:
            return mu


# ---------------------------------------------------------------------------
# workloads: the jobs of one round, in order


def transverse(data: dict, line: str) -> list[tuple[str, list]]:
    """(label, residue) of the hyperplanes not parallel to the line, in
    arrangement order."""
    y = [F(c) for c in line.split(",")]
    out = []
    for h in data["arrangement"]["hyperplanes"]:
        if sum(F(c) * v for c, v in zip(h["coeffs"], y)) != 0:
            out.append((h["label"], [[F(x) for x in row] for row in data["residues"][h["label"]]]))
    return out


def _frobenius2(m) -> F:
    return sum(x * x for row in m for x in row)


def _residues(rng: random.Random, n: int, d: int, draw, max_sum_norm=None):
    """n residues ``draw(rng, d, k)`` with no nonzero integer eigenvalue
    that satisfy the conditions (*) and (**); optionally with a small sum."""
    while True:
        mats = [draw(rng, d, k) for k in range(n)]
        if any(has_nonzero_integer_eigenvalue(m) for m in mats):
            continue
        if max_sum_norm is not None and _frobenius2(shifted_sum(mats, F(0))) > max_sum_norm**2:
            continue
        if not star_failures([(str(k), m) for k, m in enumerate(mats)]):
            return mats


def _with_integer_eigenvalue(rng: random.Random) -> list:
    """Rank-2 residue with one nonzero integer eigenvalue: not generic."""
    return conjugated(rng, [(F(rng.choice([-2, -1, 1, 2])), 1), (non_integer(rng, 5), 1)])


def _corpus_values(rng: random.Random, count: int) -> list[F]:
    return [non_integer(rng, denominator(k)) for k in range(count)]


def _small_values(rng: random.Random, count: int) -> list[F]:
    """Values of size <= 1/2 whose sum has size <= 1."""
    while True:
        values = [non_integer(rng, denominator(k), F(1, 2)) for k in range(count)]
        if abs(sum(values)) <= 1:
            return values


def exact_mc_jobs(rng: random.Random) -> list[Job]:
    """check and middle-convolve on line systems with n = 3..5 points and
    ranks d = 1..3, compose-verify where n <= 4 and n*d <= 8 (the n = 5
    rungs take seconds each), a non-generic check per n, the three
    higher-dimensional corpus systems, katz-mc on exact tuples of rank 1..3
    and the hanging check of fault (b)."""
    jobs = []
    for n in (3, 4, 5):
        for d in (1, 2, 3):
            mats = _residues(rng, n, d, rank_deficient_residue)
            data = line_system(random_points(rng, n), mats)
            lam = generic_parameter(rng, mats)
            opts = ("--line=" + X_1D, f"--lambda={lam}")
            jobs.append(Job(f"check-line-n{n}-d{d}", "check", data, opts))
            jobs.append(Job(f"mc-line-n{n}-d{d}", "middle-convolve", data, opts))
            if n <= 4 and n * d <= 8:
                mu = second_parameter(rng, mats, lam)
                jobs.append(Job(f"compose-line-n{n}-d{d}", "compose-verify", data, opts + (f"--mu={mu}",)))
        mats = [_with_integer_eigenvalue(rng)] + [rank_deficient_residue(rng, 2, k) for k in range(1, n)]
        data = line_system(random_points(rng, n), mats)
        lam = non_integer(rng, LAMBDA_DENOMINATOR, F(1))
        jobs.append(Job(f"check-line-n{n}-nongeneric", "check", data, ("--line=" + X_1D, f"--lambda={lam}")))
    corpus = [
        ("kz", kz_system(*_corpus_values(rng, 2)), Y_2D),
        ("triple", triple_point_system(*_corpus_values(rng, 3)), Y_2D),
        ("slab", slab_system_3d(triangular(rng), triangular(rng), *_corpus_values(rng, 1)), Z_3D),
    ]
    for name, data, line in corpus:
        mats = [m for _, m in transverse(data, line)]
        lam = generic_parameter(rng, mats)
        mu = second_parameter(rng, mats, lam)
        opts = (f"--line={line}", f"--lambda={lam}")
        jobs.append(Job(f"check-{name}", "check", data, opts))
        jobs.append(Job(f"mc-{name}", "middle-convolve", data, opts))
        jobs.append(Job(f"compose-{name}", "compose-verify", data, opts + (f"--mu={mu}",)))
    for r in (1, 2, 3):
        mats = [random_invertible(rng, r, with_one=(k % 2 == 0)) for k in range(3)]
        c = rng.choice([F(2), F(3), F(-2), F(1, 2), F(-1, 3), F(3, 2)])
        jobs.append(Job(f"katz-r{r}", "katz-mc", exact_tuple(mats), (f"--scalar={c}",)))
    jobs.append(Job("check-fault-b", "check", fault_b_system(), ("--line=" + X_1D, "--lambda=1/5"), fault="b", limit_s=1.0))
    return jobs


def _small_rank2(rng: random.Random, d: int, k: int):
    """Singular rank-2 residue with spectrum of size <= 1/2 and Frobenius
    norm <= 1, which keeps the exact round trip of rh-verify small.

    Larger residues make the loop-product check of the numeric layer refuse
    on some draws (the family of fault (a)), so they are kept out here."""
    while True:
        m = conjugated(rng, [(F(0), 1), (non_integer(rng, denominator(k), F(1, 2)), 1)])
        if _frobenius2(m) <= 1:
            return m


def _small_rank1(rng: random.Random, d: int, k: int):
    return [[non_integer(rng, denominator(k), F(1, 2))]]


def rh_verify_jobs(rng: random.Random) -> list[Job]:
    """rh-verify on the corpus systems and on rank-1 and rank-2 line systems
    with 3 and 4 points, plus the refused input of fault (a)."""
    # Transverse residues are kept small, with |sum| <= 1, as for the line
    # systems below: larger sums make the loop-product check refuse even
    # rank-1 systems on some draws (the mechanism of fault (a)).
    corpus = [
        ("kz", kz_system(*_corpus_values(rng, 2)), Y_2D, "2"),
        ("four-lines", four_lines_system(*_small_values(rng, 2), *_corpus_values(rng, 2)), Y_2D, "2"),
        ("triple", triple_point_system(*_small_values(rng, 3)), Y_2D, "2"),
        ("slab", slab_system_3d(triangular(rng, F(1, 2)), triangular(rng, F(1, 2)), *_corpus_values(rng, 1)), Z_3D, "2,3"),
    ]
    for d, draw in ((1, _small_rank1), (2, _small_rank2)):
        for n in (3, 4):
            mats = _residues(rng, n, d, draw, max_sum_norm=1)
            corpus.append((f"line-n{n}-d{d}", line_system(RH_POINTS[n], mats), X_1D, ""))
    jobs = []
    for name, data, line, base in corpus:
        lam = generic_parameter(rng, [m for _, m in transverse(data, line)])
        jobs.append(Job(f"rh-{name}", "rh-verify", data, (f"--line={line}", f"--lambda={lam}", f"--base={base}")))
    jobs.append(Job("rh-fault-a", "rh-verify", fault_a_system(), ("--line=" + X_1D, "--lambda=1/5", "--base="), fault="a"))
    return jobs


def arrangement_jobs(rng: random.Random) -> list[Job]:
    """poset and goodline --samples 20 on random arrangements in C^2 and C^3
    and on fiber-type arrangements whose last axis is good."""
    arrs = [(f"rand2-m{m}", random_arrangement(rng, 2, m), Y_2D) for m in (6, 8, 10, 12)]
    arrs += [(f"rand3-m{m}", random_arrangement(rng, 3, m), Z_3D) for m in (6, 8)]
    arrs += [(f"fiber2-c{c}", fiber_type_arrangement(rng, 2, c), Y_2D) for c in (3, 5)]
    arrs += [(f"fiber3-c{c}", fiber_type_arrangement(rng, 3, c), Z_3D) for c in (2, 3)]
    jobs = []
    for name, data, line in arrs:
        jobs.append(Job(f"poset-{name}", "poset", data))
        jobs.append(Job(f"goodline-{name}", "goodline", data, (f"--line={line}", "--samples=20")))
    return jobs


WORKLOADS = {
    "exact-mc": exact_mc_jobs,
    "rh-verify": rh_verify_jobs,
    "arrangements": arrangement_jobs,
}

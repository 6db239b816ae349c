"""Exact combinatorics of affine hyperplane arrangements.

Intersection posets (covers decided by containing sets), the arrangement
seen along a line direction (``AlongLine``: the parallel/transverse split,
the coordinates along the line, the shifts X + Y and the convolution's
arrangement enlarged by them, all in closed form with no elimination),
good-line detection, cone/decone and fiber points.  All data is rational and
canonicalized, so equality of hyperplanes and flats is syntactic.  Each
hyperplane and flat keeps its rows scaled to integers, once converted, and
the poset build eliminates on those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import InputError, InternalError
from .linalg import Matrix, Vector, dot, echelon, frac, integer_rows, integer_rref, nullspace, vec


def _canonical_form(coeffs: Vector, constant: Fraction) -> tuple[Vector, Fraction]:
    lead = next((c for c in coeffs if c != 0), None)
    if lead is None:
        raise InputError("hyperplane has zero linear part")
    return tuple(c / lead for c in coeffs), constant / lead


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Zero locus of an affine-linear form ``coeffs . x + constant``.

    Stored in canonical form (first nonzero coefficient equal to 1);
    equality and hashing ignore the label.
    """

    coeffs: Vector
    constant: Fraction
    label: str

    @staticmethod
    def make(coeffs, constant, label: str) -> "Hyperplane":
        c, a = _canonical_form(vec(coeffs), frac(constant))
        return Hyperplane(c, a, label)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hyperplane):
            return NotImplemented
        return self.coeffs == other.coeffs and self.constant == other.constant

    def __hash__(self) -> int:
        return hash((self.coeffs, self.constant))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def sort_key(self):
        return (self.coeffs, self.constant)

    def equation_row(self) -> Vector:
        """Augmented row (coeffs | rhs) of the equation ``coeffs . x = -constant``."""
        return self.coeffs + (-self.constant,)

    @cached_property
    def integer_row(self) -> list[int]:
        """``equation_row`` scaled to integers, converted once and kept."""
        return integer_rows((self.equation_row(),))[0]


@dataclass(frozen=True)
class Arrangement:
    ambient_dim: int
    hyperplanes: tuple[Hyperplane, ...]

    def __post_init__(self):
        labels = [h.label for h in self.hyperplanes]
        if len(set(labels)) != len(labels):
            raise InputError("duplicate hyperplane labels")
        if len(set(self.hyperplanes)) != len(self.hyperplanes):
            raise InputError("duplicate hyperplanes (equal canonical forms)")
        for h in self.hyperplanes:
            if h.dim != self.ambient_dim:
                raise InputError(
                    f"hyperplane {h.label} lives in dimension {h.dim}, "
                    f"arrangement in {self.ambient_dim}"
                )

    @staticmethod
    def make(dim: int, hyperplanes) -> "Arrangement":
        return Arrangement(dim, tuple(hyperplanes))

    def __len__(self) -> int:
        return len(self.hyperplanes)

    def labels(self) -> tuple[str, ...]:
        return tuple(h.label for h in self.hyperplanes)

    def canonical_set(self) -> frozenset[tuple[Vector, Fraction]]:
        return frozenset((h.coeffs, h.constant) for h in self.hyperplanes)

    def same_hyperplanes(self, other: "Arrangement") -> bool:
        return (
            self.ambient_dim == other.ambient_dim
            and self.canonical_set() == other.canonical_set()
        )

    def is_central(self) -> bool:
        return all(h.constant == 0 for h in self.hyperplanes)

    @cached_property
    def poset(self) -> IntersectionPoset:
        """The intersection poset, built on first use and kept."""
        return build_intersection_poset(self)

    @cached_property
    def _views(self) -> dict[LineDirection, AlongLine]:
        return {}

    def along(self, y: LineDirection) -> AlongLine:
        """The arrangement seen along y, built on first use per direction and kept."""
        if y not in self._views:
            self._views[y] = AlongLine(self, y)
        return self._views[y]


@dataclass(frozen=True)
class Flat:
    """An element of the intersection poset, canonically presented.

    ``rows`` is the reduced row echelon form of the augmented system
    (A | b) with solution set the flat; ``rank`` is the codimension and
    equals the number of rows.  Equality is equality of canonical forms.
    """

    ambient_dim: int
    rows: Matrix
    containing: frozenset[str] = field(compare=False)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def sort_key(self):
        return self.rows

    def coefficient_rows(self) -> Matrix:
        return tuple(r[:-1] for r in self.rows)

    def point(self) -> Vector:
        """Canonical point: free variables zero, and each row's pivot, its
        first nonzero entry, equal to the row's rhs."""
        x = [Fraction(0)] * self.ambient_dim
        for r in self.rows:
            x[next(j for j, c in enumerate(r) if c)] = r[-1]
        return tuple(x)

    def directions(self) -> list[Vector]:
        """Basis of the direction space (kernel of the linear part)."""
        if not self.rows:
            return nullspace((), self.ambient_dim)
        return nullspace(self.coefficient_rows())

    @cached_property
    def integer_rows(self) -> list[list[int]]:
        return integer_rows(self.rows)

    def contains_hyperplane_locus(self, h: Hyperplane) -> bool:
        """True iff the flat lies in ``h``: its equation adds no pivot."""
        return len(echelon(self.integer_rows + [h.integer_row])[1]) == self.rank


def _flat_from_augmented(arr: Arrangement, flat: Flat, h: Hyperplane) -> Flat | None:
    """The intersection of ``flat`` and ``h`` in canonical form, with the
    hyperplanes of ``arr`` containing it; None when it is empty."""
    dim = arr.ambient_dim
    red, pivots = integer_rref(flat.integer_rows + [h.integer_row])
    if dim in pivots:
        return None
    flat = Flat(dim, red, frozenset())
    containing = frozenset(h.label for h in arr.hyperplanes if flat.contains_hyperplane_locus(h))
    return Flat(dim, red, containing)


def whole_space_flat(arr: Arrangement) -> Flat:
    return Flat(arr.ambient_dim, (), frozenset())


@dataclass(frozen=True)
class IntersectionPoset:
    """Flats grouped by rank with cover relations by inclusion.

    Each flat carries its containing set, and f contains g exactly when
    containing(f) is a subset of containing(g)."""

    arrangement: Arrangement
    by_rank: tuple[tuple[Flat, ...], ...]
    covers: tuple[tuple[Flat, Flat], ...]

    def flats(self, rank: int | None = None) -> tuple[Flat, ...]:
        if rank is None:
            return tuple(f for stratum in self.by_rank for f in stratum)
        if rank < 0 or rank >= len(self.by_rank):
            return ()
        return self.by_rank[rank]

    def rank_two(self) -> tuple[Flat, ...]:
        return self.flats(2)


def build_intersection_poset(arr: Arrangement) -> IntersectionPoset:
    """All nonempty intersections of hyperplanes, deduplicated and ranked.

    Breadth-first closure: each flat of rank r is intersected with every
    hyperplane; empty and unchanged results are discarded.  Equivalent to
    enumerating all subsets because every rank r+1 flat is some rank r flat
    cut by one more hyperplane.
    """
    dim = arr.ambient_dim
    strata: list[list[Flat]] = [[whole_space_flat(arr)]]
    seen: set[Matrix] = {()}
    frontier = strata[0]
    while frontier:
        nxt: dict[Matrix, Flat] = {}
        for flat in frontier:
            for h in arr.hyperplanes:
                cand = _flat_from_augmented(arr, flat, h)
                if cand is None or cand.rank == flat.rank:
                    continue
                if cand.rows not in seen and cand.rows not in nxt:
                    nxt[cand.rows] = cand
        frontier = sorted(nxt.values(), key=Flat.sort_key)
        if frontier:
            strata.append(frontier)
            seen.update(nxt)
    by_rank = tuple(tuple(sorted(s, key=Flat.sort_key)) for s in strata)
    # a flat is the intersection of the hyperplanes containing it, so f
    # contains g exactly when every hyperplane through f passes through g
    covers = tuple(
        (f, g)
        for upper, lower in zip(by_rank, by_rank[1:])
        for f in upper
        for g in lower
        if f.containing <= g.containing
    )
    return IntersectionPoset(arr, by_rank, covers)


@dataclass(frozen=True)
class LineDirection:
    """A line through the origin given by its direction vector, canonicalized."""

    direction: Vector

    @staticmethod
    def make(direction) -> "LineDirection":
        d = vec(direction)
        lead = next((c for c in d if c != 0), None)
        if lead is None:
            raise InputError("line direction must be nonzero")
        return LineDirection(tuple(c / lead for c in d))

    @property
    def dim(self) -> int:
        return len(self.direction)


@dataclass(frozen=True, eq=False)
class AlongLine:
    """The arrangement seen along the line direction y (``Arrangement.along``).

    Each part is computed on first use and kept, in closed form:

    - ``axis``: k, the last nonzero coordinate of y.  The coordinates along
      the line write x as the sum of u_j e_j over j != k, plus u y: they are
      x_j - (x_k/y_k) y_j for j != k, then u = x_k/y_k (``coordinates``);
    - ``forms``: each hyperplane's linear part in those coordinates, by
      label: its coefficients without entry k, then coeffs . y, which is 0
      exactly when the hyperplane is parallel to y;
    - ``parallel`` and ``transverse``: the split, in arrangement order;
    - ``blocks``: the transverse labels in canonical order, which index the
      tensor factor of the convolution;
    - ``shifts``: (X, X + Y) in poset order for each rank-two flat X met by at
      least two transverse hyperplanes.  With r1, r2 the reduced augmented
      rows of X and y^ = (y, 0), X + Y is the hyperplane of the row
      (r2 . y^) r1 - (r1 . y^) r2, scaled to lead 1;
    - ``witness``: the first such X whose shift is no hyperplane of the
      arrangement, None iff y is good.  A shift has rank one, so it is a flat
      exactly when it is a hyperplane.  The other rank-two flats need no
      test: if X lies in a parallel H then X + Y = H, and if every
      hyperplane through X is parallel then X + Y = X;
    - ``enlarged``: the convolution's arrangement and the label of each
      shift in it.  A shift that is no hyperplane becomes a new hyperplane
      ``S#``, numbered past the used labels in (coeffs, constant) order;
      without one, always on a good line, it is the arrangement itself,
      cached poset included.
    """

    arrangement: Arrangement
    line: LineDirection

    def __post_init__(self):
        if self.line.dim != self.arrangement.ambient_dim:
            raise InputError("line direction dimension mismatch")

    @cached_property
    def axis(self) -> int:
        return max(j for j, c in enumerate(self.line.direction) if c)

    def coordinates(self, x: Vector) -> Vector:
        y, k = self.line.direction, self.axis
        u = x[k] / y[k]
        return tuple(xj - u * yj for j, (xj, yj) in enumerate(zip(x, y)) if j != k) + (u,)

    @cached_property
    def forms(self) -> dict[str, Vector]:
        y, k = self.line.direction, self.axis
        return {
            h.label: h.coeffs[:k] + h.coeffs[k + 1:] + (dot(h.coeffs, y),)
            for h in self.arrangement.hyperplanes
        }

    @cached_property
    def parallel(self) -> tuple[Hyperplane, ...]:
        return tuple(h for h in self.arrangement.hyperplanes if self.forms[h.label][-1] == 0)

    @cached_property
    def transverse(self) -> tuple[Hyperplane, ...]:
        return tuple(h for h in self.arrangement.hyperplanes if self.forms[h.label][-1] != 0)

    @cached_property
    def blocks(self) -> tuple[str, ...]:
        return tuple(h.label for h in sorted(self.transverse, key=Hyperplane.sort_key))

    @cached_property
    def shifts(self) -> tuple[tuple[Flat, Flat], ...]:
        y_hat = self.line.direction + (Fraction(0),)
        transverse = {h.label for h in self.transverse}
        out = []
        for x in self.arrangement.poset.rank_two():
            if len(x.containing & transverse) < 2:
                continue
            r1, r2 = x.rows
            a, b = dot(r2, y_hat), dot(r1, y_hat)
            if a == 0 and b == 0:
                raise InternalError("transverse rank-two flat must shift to a hyperplane")
            row = tuple(a * c1 - b * c2 for c1, c2 in zip(r1, r2))
            lead = next(c for c in row if c)
            out.append((x, Flat(x.ambient_dim, (tuple(c / lead for c in row),), frozenset())))
        return tuple(out)

    @cached_property
    def witness(self) -> Flat | None:
        rows = {h.equation_row() for h in self.arrangement.hyperplanes}
        return next((x for x, shifted in self.shifts if shifted.rows[0] not in rows), None)

    @cached_property
    def enlarged(self) -> tuple[Arrangement, tuple[str, ...]]:
        arr = self.arrangement
        label_of = {h.equation_row(): h.label for h in arr.hyperplanes}
        new = sorted({(r[:-1], -r[-1]) for _, s in self.shifts for r in s.rows} - arr.canonical_set())
        hyperplanes, used, counter = list(arr.hyperplanes), set(label_of.values()), 0
        for coeffs, constant in new:
            counter += 1
            while f"S{counter}" in used:
                counter += 1
            h = Hyperplane(coeffs, constant, f"S{counter}")
            used.add(h.label)
            label_of[h.equation_row()] = h.label
            hyperplanes.append(h)
        merged = Arrangement.make(arr.ambient_dim, hyperplanes) if new else arr
        return merged, tuple(label_of[s.rows[0]] for _, s in self.shifts)


def is_good_line(arr: Arrangement, y: LineDirection) -> tuple[bool, Flat | None]:
    """Check X + Y in L(arr) for every rank-two flat X; witness on failure."""
    witness = arr.along(y).witness
    return witness is None, witness


def cone(arr: Arrangement, origin_label: str = "H0") -> Arrangement:
    """Homogenize to a central arrangement one dimension up.

    Coordinates are (x0, x1, ..., xl); each form L + a becomes L + a*x0 and
    the hyperplane x0 = 0 is appended with ``origin_label``.
    """
    if any(h.label == origin_label for h in arr.hyperplanes):
        raise InputError(f"label {origin_label!r} already used")
    hs = [
        Hyperplane.make((h.constant,) + h.coeffs, 0, h.label)
        for h in arr.hyperplanes
    ]
    zero_h = Hyperplane.make((1,) + (0,) * arr.ambient_dim, 0, origin_label)
    return Arrangement.make(arr.ambient_dim + 1, hs + [zero_h])


def decone(arr: Arrangement) -> Arrangement:
    """Restrict a central arrangement containing x0 = 0 to the slice x0 = 1."""
    if not arr.is_central():
        raise InputError("decone requires a central arrangement")
    if arr.ambient_dim < 2:
        # the slice of C^1 is a point, which no arrangement file describes
        raise InputError("decone requires ambient dimension >= 2")
    x0 = Hyperplane.make((1,) + (0,) * (arr.ambient_dim - 1), 0, "_x0")
    if x0 not in set(arr.hyperplanes):
        raise InputError("decone requires the hyperplane x0 = 0")
    out = []
    for h in arr.hyperplanes:
        if h == x0:
            continue
        coeffs, constant = h.coeffs[1:], h.coeffs[0]
        if all(c == 0 for c in coeffs):
            raise InputError(f"hyperplane {h.label} degenerates at x0 = 1")
        out.append(Hyperplane.make(coeffs, constant, h.label))
    return Arrangement.make(arr.ambient_dim - 1, out)


# ---------------------------------------------------------------------------
# fiber extraction along a line direction


@dataclass(frozen=True)
class FiberPoints:
    """Solutions of each transverse hyperplane on the fiber over a base point.

    ``points`` maps hyperplane labels to the rational fiber coordinate;
    ``collisions`` lists label pairs with equal coordinates, which for some
    admissible base point happens exactly when the line is not good.
    """

    points: dict[str, Fraction]
    collisions: tuple[tuple[str, str], ...]

    @property
    def has_collision(self) -> bool:
        return bool(self.collisions)


def fiber_points(arr: Arrangement, y: LineDirection, base) -> FiberPoints:
    """Roots along the fiber {base} x C after moving y to the last axis."""
    forms = arr.along(y).forms
    base_v = vec(base)
    if len(base_v) != arr.ambient_dim - 1:
        raise InputError(
            f"base point must have {arr.ambient_dim - 1} coordinates, got {len(base_v)}"
        )
    points: dict[str, Fraction] = {}
    for h in arr.hyperplanes:
        *head, last = forms[h.label]
        affine = dot(head, base_v) + h.constant
        if last == 0:
            if affine == 0:
                raise InputError(
                    f"base point lies on the projected hyperplane {h.label}"
                )
            continue
        points[h.label] = -affine / last
    seen: dict[Fraction, str] = {}
    collisions = []
    for label in sorted(points):
        q = points[label]
        if q in seen:
            collisions.append((seen[q], label))
        else:
            seen[q] = label
    return FiberPoints(points, tuple(collisions))


def _halton(index: int, base: int) -> Fraction:
    f = Fraction(1)
    r = Fraction(0)
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _halton_point(index: int, dim: int) -> Vector:
    return tuple(3 * _halton(index, _PRIMES[j % len(_PRIMES)]) - 1 for j in range(dim))


def _off_projected(base_v: Vector, rows) -> bool:
    return all(dot(c, base_v) + a != 0 for c, a in rows)


def goodness_fiber_oracle(
    arr: Arrangement, y: LineDirection, sample_count: int = 20, seed: int = 0
) -> tuple[bool, dict]:
    """Fiber-counting oracle for goodness, independent of the poset test's
    verdict.

    Deterministic rational base points off the projected parallel
    subarrangement are probed; the line is declared not good as soon as some
    fiber carries fewer than n distinct roots.  The sample sequence is a
    low-discrepancy Halton fill augmented, ahead of it, with one point on the
    projection of each rank-two flat met by two transverse hyperplanes (the
    Xs of ``arr.along(y).shifts``): root collisions happen exactly over those
    projections, so every non-good case exhibits a collision sample while
    agreement on all samples is reported as evidence.  ``sample_count`` and
    ``seed`` are nonnegative; with no samples only the projections are probed.
    """
    if sample_count < 0 or seed < 0:
        raise InputError(
            f"sample count and seed must be nonnegative, got {sample_count} and {seed}"
        )
    view = arr.along(y)
    l = arr.ambient_dim
    # the projected parallel hyperplanes, as forms in the base coordinates
    proj_rows = [(view.forms[h.label][:-1], h.constant) for h in view.parallel]
    report: dict = {"samples": [], "collision": None}

    candidates: list[Vector] = []
    for x, _ in view.shifts:
        proj_p = view.coordinates(x.point())[:-1]
        proj_dirs = [view.coordinates(d)[:-1] for d in x.directions()]
        if _projection_inside_parallel(proj_p, proj_dirs, proj_rows):
            continue
        candidates.append(_point_on_subspace_off(proj_p, proj_dirs, proj_rows))

    tested = 0
    idx = seed
    queue = list(candidates)
    while tested < max(sample_count, len(candidates)):
        if queue:
            base_v = queue.pop(0)
        else:
            idx += 1
            base_v = _halton_point(idx, l - 1)
            if not _off_projected(base_v, proj_rows):
                continue
        fp = fiber_points(arr, y, base_v)
        tested += 1
        report["samples"].append([str(c) for c in base_v])
        if fp.has_collision:
            report["collision"] = {
                "base": [str(c) for c in base_v],
                "pairs": [list(p) for p in fp.collisions],
            }
            return False, report
    return True, report


def _projection_inside_parallel(p: Vector, dirs: list[Vector], proj_rows) -> bool:
    """True iff the projected flat lies inside some projected parallel hyperplane."""
    for c, a in proj_rows:
        if dot(c, p) + a == 0 and all(dot(c, d) == 0 for d in dirs):
            return True
    return False


def _point_on_subspace_off(p: Vector, dirs: list[Vector], proj_rows) -> Vector:
    """Deterministic point of p + span(dirs) avoiding the projected hyperplanes."""
    attempt = 0
    while True:
        shift = [Fraction(0)] * len(p)
        if attempt:
            for j, d in enumerate(dirs):
                t = Fraction(attempt) * _halton(attempt + j, _PRIMES[j % len(_PRIMES)]) + attempt
                shift = [s + t * dc for s, dc in zip(shift, d)]
        cand = tuple(pc + sc for pc, sc in zip(p, shift))
        if _off_projected(cand, proj_rows):
            return cand
        attempt += 1
        if attempt > 100:
            raise InternalError("failed to leave the projected parallel arrangement")

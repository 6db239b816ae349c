"""One-variable Fuchsian data and polygonal loop geometry.

A FuchsianODE is the restriction of a system to a fiber line: simple poles
with constant residue matrices.  Loops are polylines; winding numbers are
validated by summing argument increments, so a malformed loop is rejected
before any integration happens.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalError


@dataclass(frozen=True)
class FuchsianODE:
    """dF/dy = (sum_k residues[k] / (y - poles[k])) F on the fiber line."""

    poles: tuple[complex, ...]
    residues: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    basepoint: complex
    dim: int

    def __post_init__(self):
        if len(self.poles) != len(self.residues) or len(self.poles) != len(self.labels):
            raise InputError("poles, residues and labels must align")
        if len(set(self.poles)) != len(self.poles):
            raise InputError("poles must be pairwise distinct")
        for r in self.residues:
            if r.shape != (self.dim, self.dim):
                raise InputError("residues must be square matrices of the stated dimension")
        margin = self.pole_gap() / 4
        if any(abs(self.basepoint - q) <= margin for q in self.poles):
            raise InputError("basepoint too close to a pole")

    def pole_gap(self) -> float:
        qs = self.poles
        gaps = [abs(qs[i] - qs[j]) for i in range(len(qs)) for j in range(i)]
        return min(gaps) if gaps else 1.0

    def residue_at_infinity(self) -> np.ndarray:
        """Minus the sum of the finite residues (residue theorem on P^1)."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for r in self.residues:
            out -= r
        return out


@dataclass(frozen=True)
class LoopPath:
    """Closed polyline based at its first point, encircling ``pole`` once."""

    points: tuple[complex, ...]
    pole: complex

    def __post_init__(self):
        if len(self.points) < 4 or self.points[0] != self.points[-1]:
            raise InputError("loop must be a closed polyline")


def winding_number(points: tuple[complex, ...], z: complex) -> int:
    """Winding of a closed polyline around z by argument summation."""
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        if a == z or b == z:
            raise InputError("polyline passes through the point")
        total += cmath.phase((b - z) / (a - z))
    w = total / (2 * math.pi)
    r = round(w)
    if abs(w - r) > 1e-9:
        raise InternalError("argument sum is not an integer multiple of 2*pi")
    return int(r)


def validate_loop(path: LoopPath, poles) -> None:
    for q in poles:
        expected = 1 if q == path.pole else 0
        if winding_number(path.points, q) != expected:
            raise InputError(f"loop has wrong winding number around pole {q}")


def _circle(center: complex, radius: float, nseg: int = 24, start: float = -math.pi / 2):
    pts = [
        center + radius * cmath.exp(1j * (start + 2 * math.pi * k / nseg))
        for k in range(nseg)
    ]
    return pts + [pts[0]]


def _segment_clear(a: complex, b: complex, poles, margin: float) -> bool:
    d = b - a
    length2 = (d.real * d.real + d.imag * d.imag) or 1.0
    for q in poles:
        w = q - a
        t = max(0.0, min(1.0, (w.real * d.real + w.imag * d.imag) / length2))
        if abs(a + t * d - q) < margin:
            return False
    return True


def standard_basepoint(poles) -> complex:
    """Deterministic base point strictly below all poles."""
    if not poles:
        return complex(0.0, -1.0)
    re_mid = (min(p.real for p in poles) + max(p.real for p in poles)) / 2
    depth = 2.0 * (max(abs(p) for p in poles) + 1.0)
    return complex(re_mid, min(p.imag for p in poles) - depth)


def lasso_loop(base: complex, pole: complex, radius: float, poles) -> LoopPath:
    """Polyline lasso: rise to just below the pole, circle it CCW, return.

    The vertical approach abscissa is nudged sideways when another pole
    obstructs it, but never past a lower pole to the side that breaks the
    (real, imaginary) order: earlier poles stay left of the arm, later ones
    right.  The resulting winding numbers are validated exactly.
    """
    margin = radius / 2
    others = [q for q in poles if q != pole]
    key = (pole.real, pole.imag)
    lower = [(q.real, (q.real, q.imag) < key) for q in others if q.imag < pole.imag]
    for k in range(16):
        off = 0.0 if k == 0 else ((-1) ** k) * ((k + 1) // 2) * margin
        if any((pole.real + off > x) != earlier for x, earlier in lower):
            continue
        bottom = pole - 1j * radius
        if off == 0.0:
            arm = [base, complex(pole.real, base.imag), bottom]
        else:
            arm = [
                base,
                complex(pole.real + off, base.imag),
                complex(pole.real + off, pole.imag - radius),
                bottom,
            ]
        segs = list(zip(arm[:-1], arm[1:]))
        if not all(_segment_clear(a, b, others, margin) for a, b in segs):
            continue
        if not all(_segment_clear(a, b, [pole], margin * 0.99) for a, b in segs):
            continue
        circ = _circle(pole, radius)
        pts = tuple(arm + circ[1:] + list(reversed(arm))[1:])
        path = LoopPath(pts, pole)
        try:
            validate_loop(path, poles)
        except InputError:
            continue
        return path
    raise InternalError("could not route a clear loop around the pole")


def standard_loops(poles, basepoint: complex):
    """Loops around each pole in the standard convention.

    Poles are sorted by (real, imaginary) part; the base point sits below
    all poles, as ``standard_basepoint`` places it; each loop is a
    counterclockwise polygonal lasso of radius one third of the minimal pole
    gap.  Returns (basepoint, loops, order) where
    order[i] is the index of the i-th sorted pole in the input sequence.
    """
    poles = list(poles)
    order = sorted(range(len(poles)), key=lambda i: (poles[i].real, poles[i].imag))
    if not poles:
        return basepoint, [], []
    gaps = [abs(poles[i] - poles[j]) for i in range(len(poles)) for j in range(i)]
    radius = (min(gaps) / 3) if gaps else 1.0
    loops = [lasso_loop(basepoint, poles[i], radius, poles) for i in order]
    return basepoint, loops, order


def enclosing_polyline(poles, base: complex) -> tuple[complex, ...]:
    """Counterclockwise polygonal circle around all poles, based at ``base``.

    Its transport equals the ordered product M_1 ... M_n of the standard
    loops' transports; the monodromy at infinity is its inverse.
    """
    if not poles:
        raise InputError("need at least one pole")
    c = sum(poles) / len(poles)
    radius = 2 * max(abs(p - c) for p in poles) + 2.0 + abs(base - c)
    start = cmath.phase(base - c) if base != c else -math.pi / 2
    circ = _circle(c, radius, nseg=48, start=start)
    pts = tuple([base] + circ + [base])
    for q in poles:
        if winding_number(pts, q) != 1:
            raise InternalError("enclosing loop must wind once around every pole")
    return pts

"""JSON schemas for arrangements, systems, tuples and characters.

All files carry ``"schema": 1`` (optional on input, always emitted);
unknown fields are rejected.  Rationals travel as strings so no float ever
contaminates the exact data.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .arrangement import Arrangement, Hyperplane
from .errors import InputError
from .katz import CharacterValue, MonodromyTuple
from .linalg import Matrix, frac
from .pfaffian import PfaffianSystem

SCHEMA = 1


def rational_str(x: Fraction) -> str:
    return str(x)


def _check_fields(obj: dict, required, optional=()):
    if not isinstance(obj, dict):
        raise InputError("expected a JSON object")
    allowed = set(required) | set(optional) | {"schema"}
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"unknown fields: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise InputError(f"missing fields: {sorted(missing)}")
    if obj.get("schema", SCHEMA) != SCHEMA:
        raise InputError(f"unsupported schema version {obj.get('schema')}")


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise InputError(f"{what} must be a JSON list, got {type(x).__name__}")
    return x


def _integer(x, what: str, least: int) -> int:
    """A JSON integer of at least ``least`` (0 or 1); true and false are not
    integers."""
    if isinstance(x, bool) or not isinstance(x, int) or x < least:
        kind = "positive" if least else "nonnegative"
        raise InputError(f"{what} must be a {kind} integer")
    return x


def _complex(x) -> complex:
    """A numeric tuple entry: an [re, im] pair of finite JSON numbers; true
    and false are not numbers."""
    if not (
        isinstance(x, list)
        and len(x) == 2
        and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in x
        )
    ):
        raise InputError(
            f"a numeric tuple entry must be an [re, im] pair of finite numbers, got {x!r}"
        )
    return complex(x[0], x[1])


def _parse_rational(x) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise InputError(f"rationals must be strings or integers, got {x!r}")
    try:
        return frac(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {x!r}") from exc


def arrangement_to_json(arr: Arrangement) -> dict:
    return {
        "schema": SCHEMA,
        "dim": arr.ambient_dim,
        "hyperplanes": [
            {
                "label": h.label,
                "coeffs": [rational_str(c) for c in h.coeffs],
                "constant": rational_str(h.constant),
            }
            for h in arr.hyperplanes
        ],
    }


def arrangement_from_json(obj: dict) -> Arrangement:
    _check_fields(obj, ("dim", "hyperplanes"))
    dim = _integer(obj["dim"], "dim", 1)
    hs = []
    for entry in _list(obj["hyperplanes"], "hyperplanes"):
        _check_fields(entry, ("label", "coeffs", "constant"))
        hs.append(
            Hyperplane.make(
                [_parse_rational(c) for c in _list(entry["coeffs"], "coeffs")],
                _parse_rational(entry["constant"]),
                str(entry["label"]),
            )
        )
    return Arrangement.make(dim, hs)


def matrix_to_json(m: Matrix) -> list:
    return [[rational_str(x) for x in row] for row in m]


def _matrix_from_json(rows, d: int) -> Matrix:
    out = tuple(
        tuple(_parse_rational(x) for x in _list(row, "a matrix row"))
        for row in _list(rows, "a matrix")
    )
    if len(out) != d or any(len(r) != d for r in out):
        raise InputError(f"residue matrix is not {d} x {d}")
    return out


def system_to_json(sys: PfaffianSystem) -> dict:
    return {
        "schema": SCHEMA,
        "arrangement": arrangement_to_json(sys.arrangement),
        "dimE": sys.dim_e,
        "residues": {
            lbl: matrix_to_json(m) for lbl, m in sorted(sys.residues.items())
        },
    }


def system_from_json(obj: dict, check: bool = True) -> PfaffianSystem:
    _check_fields(obj, ("arrangement", "dimE", "residues"))
    arr = arrangement_from_json(obj["arrangement"])
    d = _integer(obj["dimE"], "dimE", 0)
    if not isinstance(obj["residues"], dict):
        raise InputError("residues must be a JSON object")
    residues = {
        str(lbl): _matrix_from_json(rows, d) for lbl, rows in obj["residues"].items()
    }
    return PfaffianSystem.make(arr, d, residues, check=check)


def tuple_to_json(t: MonodromyTuple) -> dict:
    out: dict = {"schema": SCHEMA, "rank": t.rank, "exact": t.exact}
    if t.exact:
        out["matrices"] = [matrix_to_json(m) for m in t.matrices]
    else:
        out["matrices"] = [
            [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]
            for m in t.matrices
        ]
    if t.labels:
        out["labels"] = list(t.labels)
    return out


def tuple_from_json(obj: dict) -> MonodromyTuple:
    _check_fields(obj, ("rank", "matrices"), optional=("exact", "labels"))
    rank = _integer(obj["rank"], "rank", 0)
    labels = obj.get("labels")
    if labels is not None:
        _list(labels, "labels")
    matrices = _list(obj["matrices"], "matrices")
    exact = obj.get("exact", False)
    if not isinstance(exact, bool):
        raise InputError(f'"exact" must be true or false, got {exact!r}')
    if exact:
        mats = [_matrix_from_json(rows, rank) for rows in matrices]
        return MonodromyTuple.exact_tuple(mats, labels)
    mats = []
    for rows in matrices:
        rows = [_list(r, "a matrix row") for r in _list(rows, "a matrix")]
        if len(rows) != rank or any(len(r) != rank for r in rows):
            raise InputError(f"tuple matrix is not {rank} x {rank}")
        entries = [[_complex(e) for e in row] for row in rows]
        mats.append(np.array(entries, dtype=complex).reshape(rank, rank))
    return MonodromyTuple.numeric(mats, labels)


def character_to_json(c: CharacterValue) -> dict:
    if c.scalar is not None:
        return {"schema": SCHEMA, "scalar": rational_str(c.scalar)}
    return {"schema": SCHEMA, "lambda": rational_str(c.exponent)}


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_path(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc

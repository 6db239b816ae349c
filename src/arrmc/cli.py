"""Command-line front end.

Exit codes: 0 success / property true, 1 property false (witness in the
report), 2 input error, 3 numeric failure.  Reports are JSON with sorted
keys, byte-identical across runs for fixed inputs and tolerances.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .arrangement import (
    Flat,
    LineDirection,
    cone,
    decone,
    goodness_fiber_oracle,
    is_good_line,
)
from .convolution import (
    convolve,
    is_isomorphic,
    middle_convolve,
    verify_composition_law,
)
from .errors import (
    ArrmcError,
    InputError,
    NumericError,
    PropertyFailure,
)
from .katz import CharacterValue, check_property_p, multiplicative_middle_convolution
from .linalg import frac
from .monodromy import monodromy_tuple_of_system, verify_mc_compatibility
from .pfaffian import (
    ConvolutionParameter,
    check_assumption_generic,
    check_star_conditions,
)
from . import serialization as ser


def _flat_json(f: Flat) -> dict:
    return {
        "rank": f.rank,
        "equations": ser.matrix_to_json(f.rows),
        "containing": sorted(f.containing),
    }


def _rational(s: str):
    """An exact rational from a command-line string; malformed is an input error."""
    try:
        return frac(s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"malformed rational {s!r}") from None


def _parse_line(s: str) -> LineDirection:
    return LineDirection.make([_rational(part) for part in s.split(",")])


def _tolerance(s: str) -> float:
    """A tolerance from the command line: finite and positive, or a usage error."""
    try:
        x = float(s)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {s!r}")
    return x


def _nonnegative(s: str) -> int:
    """A count or offset from the command line: a nonnegative integer, or a
    usage error."""
    try:
        x = int(s)
    except ValueError:
        x = -1
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {s!r}")
    return x


def _parse_base(s: str):
    s = s.strip()
    if not s:
        return []
    return [_rational(part) for part in s.split(",")]


def _parameter(s: str) -> ConvolutionParameter:
    return ConvolutionParameter.make(_rational(s))


# the conversions of the string options, in order, applied before ``run``;
# a malformed value is an input error
_CONVERSIONS = {
    "line": _parse_line,
    "lam": _parameter,
    "mu": _parameter,
    "base": _parse_base,
    "scalar": _rational,
}


def _convert(args: argparse.Namespace) -> None:
    for name, conversion in _CONVERSIONS.items():
        if getattr(args, name, None) is not None:
            setattr(args, name, conversion(getattr(args, name)))


def _load_system(args: argparse.Namespace):
    return ser.system_from_json(ser.load_path(args.input), check=not args.unchecked)


def _load_arrangement(args: argparse.Namespace):
    return ser.arrangement_from_json(ser.load_path(args.input))


def _cmd_poset(args: argparse.Namespace):
    arr = _load_arrangement(args)
    poset = arr.poset
    report = {
        "command": "poset",
        "dim": arr.ambient_dim,
        "flats_by_rank": [
            [_flat_json(f) for f in stratum] for stratum in poset.by_rank
        ],
        "counts": [len(s) for s in poset.by_rank],
        "cover_count": len(poset.covers),
    }
    return 0, report


def _cmd_goodline(args: argparse.Namespace):
    arr = _load_arrangement(args)
    y = args.line
    good, witness = is_good_line(arr, y)
    report = {
        "command": "goodline",
        "direction": [ser.rational_str(c) for c in y.direction],
        "good": good,
    }
    if witness is not None:
        report["witness"] = _flat_json(witness)
    if args.samples is not None:
        oracle, odata = goodness_fiber_oracle(arr, y, args.samples, seed=args.seed)
        report["fiber_oracle"] = {"good": oracle, **odata}
        report["agreement"] = oracle == good
    return (0 if good else 1), report


def _cmd_cone(args: argparse.Namespace):
    out = ser.arrangement_to_json(cone(_load_arrangement(args)))
    return 0, {"command": "cone", "arrangement": out}


def _cmd_decone(args: argparse.Namespace):
    out = ser.arrangement_to_json(decone(_load_arrangement(args)))
    return 0, {"command": "decone", "arrangement": out}


def _cmd_check(args: argparse.Namespace):
    sys_ = _load_system(args)
    y, lam = args.line, args.lam
    integ = sys_.integrability
    gen = check_assumption_generic(sys_, y, lam)
    star = check_star_conditions(sys_, y)
    ok = integ.ok and gen.ok and star.ok
    report = {
        "command": "check",
        "integrable": integ.ok,
        "genericity": {
            "ok": gen.ok,
            "offenders": [[lbl, k] for lbl, k in gen.offenders],
        },
        "star": {"ok": star.ok, "failures": [list(f) for f in star.failures]},
        "ok": ok,
    }
    if not integ.ok:
        report["integrability_witness"] = {
            "flat": _flat_json(integ.witness[0]),
            "hyperplane": integ.witness[1],
        }
    return (0 if ok else 1), report


def _cmd_convolve(args: argparse.Namespace):
    sys_ = _load_system(args)
    cr = convolve(sys_, args.line, args.lam, require_good=not args.unchecked)
    report = {
        "command": "convolve",
        "block_order": list(cr.block_order),
        "dim": cr.system.dim_e,
        "kernel_dims": {
            "blockwise": len(cr.block_kernel_basis),
            "diagonal": len(cr.diagonal_kernel_basis),
        },
        "blockwise_kernel_basis": ser.matrix_to_json(cr.block_kernel_basis),
        "diagonal_kernel_basis": ser.matrix_to_json(cr.diagonal_kernel_basis),
        "system": ser.system_to_json(cr.system),
    }
    return 0, report


def _cmd_middle_convolve(args: argparse.Namespace):
    sys_ = _load_system(args)
    out = middle_convolve(sys_, args.line, args.lam, require_good=not args.unchecked)
    report = {
        "command": "middle-convolve",
        "input_dim": sys_.dim_e,
        "dim": out.dim_e,
        "system": ser.system_to_json(out),
    }
    return 0, report


def _cmd_compose_verify(args: argparse.Namespace):
    rep = verify_composition_law(_load_system(args), args.line, args.lam, args.mu)
    report = {
        "command": "compose-verify",
        "lambda": ser.rational_str(rep.parameters[0]),
        "mu": ser.rational_str(rep.parameters[1]),
        "dims": rep.dims,
        "star_ok": rep.star_ok,
        "intermediate_star_ok": rep.intermediate_star_ok,
        "additive_law_holds": rep.additive_law_holds,
        "inverse_law_holds": rep.inverse_law_holds,
        "ok": rep.ok,
    }
    if rep.additive_intertwiner is not None:
        report["additive_intertwiner"] = ser.matrix_to_json(rep.additive_intertwiner)
    if rep.inverse_intertwiner is not None:
        report["inverse_intertwiner"] = ser.matrix_to_json(rep.inverse_intertwiner)
    return (0 if rep.ok else 1), report


def _cmd_katz_mc(args: argparse.Namespace):
    t = ser.tuple_from_json(ser.load_path(args.input))
    if args.scalar is not None:
        c = CharacterValue.from_scalar(args.scalar)
    else:
        c = CharacterValue.from_exponent(args.lam.value)
    prop = check_property_p(t, args.rank_tol)
    out = multiplicative_middle_convolution(t, c, args.rank_tol)
    report = {
        "command": "katz-mc",
        "character": ser.character_to_json(c),
        "input_rank": t.rank,
        "punctures": t.npoints,
        "property_p": {"ok": prop.ok, "failures": list(prop.failures)},
        "output_rank": out.rank,
        "tuple": ser.tuple_to_json(out),
    }
    return 0, report


def _cmd_monodromy(args: argparse.Namespace):
    ext = monodromy_tuple_of_system(_load_system(args), args.line, args.base, args.tol)
    t = ext.monodromy
    report = {
        "command": "monodromy",
        "base": [ser.rational_str(b) for b in args.base],
        "basepoint": [ext.basepoint.real, ext.basepoint.imag],
        "punctures": t.npoints,
        "rank": t.rank,
        "labels": list(t.labels or ()),
        "product_residual": ext.product_residual,
        "condition_numbers": list(t.condition_numbers()),
        "residue_at_infinity": [
            [[float(x.real), float(x.imag)] for x in row] for row in ext.infinity_residue
        ],
        "tuple": ser.tuple_to_json(t),
        "ok": True,
    }
    return 0, report


def _cmd_rh_verify(args: argparse.Namespace):
    sys_ = _load_system(args)
    y, lam = args.line, args.lam

    integ = sys_.integrability
    gen = check_assumption_generic(sys_, y, lam)
    star = check_star_conditions(sys_, y)
    stages: dict = {
        "integrable": integ.ok,
        "genericity_ok": gen.ok,
        "star_ok": star.ok,
    }
    report = {"command": "rh-verify", "stages": stages, "ok": False}
    if not (integ.ok and gen.ok and star.ok):
        report["offenders"] = {
            "genericity": [[lbl, k] for lbl, k in gen.offenders],
            "star": [list(f) for f in star.failures],
        }
        return 1, report

    compat = verify_mc_compatibility(
        sys_, y, lam, args.base, args.tol, args.iso_tol, args.rank_tol, genericity=gen
    )
    stages["compatibility_ok"] = compat.ok
    report["compatibility"] = {
        "rank_multiplicative": compat.rank_multiplicative,
        "rank_restricted": compat.rank_restricted,
        "charpoly_deviation": compat.charpoly_deviation,
        "isomorphic": compat.isomorphic,
        "intertwiner_residual": compat.intertwiner_residual,
        "generator_charpolys": compat.generator_charpolys,
    }
    if not compat.ok:
        return 1, report

    forward = compat.mc_system
    back = middle_convolve(forward, y, lam.negated())
    iso, intertwiner = is_isomorphic(back, sys_)
    stages["round_trip_ok"] = iso
    report["round_trip"] = {
        "forward_dim": forward.dim_e,
        "back_dim": back.dim_e,
        "isomorphic": iso,
    }
    if intertwiner is not None:
        report["round_trip"]["intertwiner"] = ser.matrix_to_json(intertwiner)
    report["ok"] = iso
    return (0 if iso else 1), report


_COMMANDS = {
    "poset": _cmd_poset,
    "goodline": _cmd_goodline,
    "cone": _cmd_cone,
    "decone": _cmd_decone,
    "check": _cmd_check,
    "convolve": _cmd_convolve,
    "middle-convolve": _cmd_middle_convolve,
    "compose-verify": _cmd_compose_verify,
    "katz-mc": _cmd_katz_mc,
    "monodromy": _cmd_monodromy,
    "rh-verify": _cmd_rh_verify,
}


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Dispatch parsed and converted arguments; returns (exit code, report)."""
    try:
        return _COMMANDS[args.command](args)
    except PropertyFailure as exc:
        return 1, {"command": args.command, "ok": False, "error": str(exc)}
    except InputError as exc:
        return 2, {"command": args.command, "error": str(exc)}
    except NumericError as exc:
        return 3, {"command": args.command, "error": str(exc)}
    except ArrmcError as exc:
        return 2, {"command": args.command, "error": str(exc)}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="arrmc",
        description="Hyperplane arrangements, middle convolution and numeric monodromy.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    options = {
        "--line": dict(required=True, help='line direction, e.g. "0,1"'),
        "--lambda": dict(dest="lam", required=True, help="parameter p/q"),
        "--mu": dict(required=True, help="second parameter p/q"),
        "--base": dict(required=True, help='base point, e.g. "2" or "2,3"'),
        "--unchecked": dict(action="store_true", help="skip integrability at load"),
        "--tol": dict(type=_tolerance, default=1e-10, help="integration tolerance"),
        "--iso-tol": dict(type=_tolerance, default=1e-6),
        "--rank-tol": dict(type=_tolerance, default=1e-9,
                           help="relative singular value threshold for numeric ranks"),
        "--samples": dict(type=_nonnegative, help="fiber oracle sample count"),
        "--seed": dict(type=_nonnegative, default=0, help="sample sequence offset"),
    }

    def add(name, *flags):
        """A subcommand with exactly the options its handler reads."""
        sp = sub.add_parser(name)
        sp.add_argument("input", help="input JSON file")
        for flag in flags:
            sp.add_argument(flag, **options[flag])
        sp.add_argument("--out", help="write the report to this file")

    system = ("--line", "--lambda", "--unchecked")
    add("poset")
    add("goodline", "--line", "--samples", "--seed")
    add("cone")
    add("decone")
    add("check", *system)
    add("convolve", *system)
    add("middle-convolve", *system)
    add("compose-verify", *system, "--mu")
    katz = sub.add_parser("katz-mc")
    katz.add_argument("input")
    character = katz.add_mutually_exclusive_group(required=True)
    character.add_argument("--lambda", dest="lam", help="character exponent p/q")
    character.add_argument("--scalar", help="exact rational character value")
    katz.add_argument("--rank-tol", **options["--rank-tol"])
    katz.add_argument("--out")
    add("monodromy", "--line", "--base", "--unchecked", "--tol")
    add("rh-verify", *system, "--base", "--tol", "--iso-tol", "--rank-tol")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _convert(args)
    except ArrmcError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    code, report = run(args)
    text = ser.dumps(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.out}: {exc.strerror}\n")
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Every successful invocation prints a single JSON document to stdout with
two top-level keys: "meta" (the full run configuration, including the
worker count) and "data" (the result).  The data section depends only on
the mathematical inputs, never on scheduling, so reruns and runs with
different --jobs produce byte-identical data sections.  No timestamps,
hostnames, or other ambient state are emitted.

Exit codes:
    0   success
    2   parse errors, usage errors, violated preconditions
    3   certified precision exceeded the configured bit cap
    4   enumeration size exceeded the configured budget
    5   a claimed decomposition invariant was falsified on a concrete input

Errors print a JSON {"error": {"type", "message"}} document to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DecompositionFalsified,
    ParseError,
    PolynomialError,
    PrecisionExhausted,
)
from .measure import is_kronecker, measure
from .poly import IntPoly, is_reciprocal, is_skew_reciprocal, parse_poly, poly_to_string
from .roots import DEFAULT_MAX_BITS

__all__ = ["main"]

_ENV_MAX_BITS = "SKEWREC_MAX_BITS"


def _max_bits(flag: int | None) -> int:
    """The precision cap from --max-bits, else the environment, else the default.

    Both sources obey one rule: an integer of at least 64 bits.
    """
    if flag is not None:
        source, raw = "--max-bits", flag
    else:
        raw = os.environ.get(_ENV_MAX_BITS)
        if raw is None:
            return DEFAULT_MAX_BITS
        source = _ENV_MAX_BITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParseError(f"{source} must be an integer, got {raw!r}") from exc
    if value < 64:
        raise ParseError(f"{source} must be >= 64, got {value}")
    return value


def _check_run_options(args: argparse.Namespace) -> None:
    """Reject a tolerance that is not positive and finite, and jobs or budget < 1.

    A budget below 1 admits no space, so it is a usage error, as jobs < 1 is.
    """
    tol = getattr(args, "tol", None)
    if tol is not None and not 0 < tol < math.inf:
        raise ParseError(f"--tol must be a positive finite number, got {tol!r}")
    for name in ("jobs", "budget"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ParseError(f"--{name} must be >= 1, got {value}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    parse_args leaves the parser unchanged, so in-process callers of
    main() pay for building it once, and importing the module builds
    nothing.
    """
    parser = argparse.ArgumentParser(
        prog="skewrec",
        description="Certified Mahler measure, house, and structure tools "
        "for reciprocal and skew-reciprocal integer polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, jobs=False, budget=False):
        p.add_argument("--tol", type=float, default=1e-10,
                       help="target enclosure width (default 1e-10)")
        p.add_argument("--max-bits", type=int, default=None,
                       help=f"precision cap in bits (default {_ENV_MAX_BITS} "
                            f"or {DEFAULT_MAX_BITS})")
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes (default 1), at most one "
                                "per chunk and per CPU; results do not "
                                "depend on this")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="enumeration size limit "
                                f"(default {DEFAULT_BUDGET})")

    p = sub.add_parser("measure", help="certified Mahler measure and house")
    p.add_argument("poly", help="polynomial, e.g. 't^2-3*t+1' or '[1,-3,1]'")
    add_common(p)

    p = sub.add_parser("classify", help="symmetry class and Kronecker status")
    p.add_argument("poly")

    p = sub.add_parser("decompose",
                       help="decompose a skew-reciprocal polynomial")
    p.add_argument("poly")
    p.add_argument("--allow-any-multiple-of-four", action="store_true",
                   help="accept any degree divisible by 4, not only powers "
                        "of two")

    p = sub.add_parser("companion",
                       help="symplectic or anti-symplectic companion matrix")
    p.add_argument("poly")

    p = sub.add_parser("search", help="minimum Mahler measure or house over "
                                      "a height-bounded family")
    p.add_argument("--kind", choices=["reciprocal", "skew_reciprocal"],
                   required=True)
    p.add_argument("--degree", type=int, required=True, help="even degree 2d")
    p.add_argument("--height", type=int, required=True,
                   help="free coefficients range over [-H, H]")
    p.add_argument("--quantity", choices=["mahler", "house"],
                   default="mahler")
    add_common(p, jobs=True, budget=True)

    p = sub.add_parser("table", help="minima table over degrees 2**i")
    p.add_argument("--max-i", type=int, required=True)
    p.add_argument("--heights", required=True,
                   help="comma-separated height per row, e.g. '3,2,1'")
    p.add_argument("--csv", action="store_true",
                   help="emit CSV rows instead of JSON")
    add_common(p, jobs=True, budget=True)

    p = sub.add_parser("verify", help="decompose every member of a "
                                      "skew-reciprocal family and audit "
                                      "witness measures")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    add_common(p, budget=True)
    return parser


def _meta(args: argparse.Namespace, max_bits: int) -> dict:
    return {
        "command": args.command,
        "tol": repr(getattr(args, "tol", None)),
        "max_bits": max_bits,
        "jobs": getattr(args, "jobs", 1),
        "budget": getattr(args, "budget", None),
    }


def _is_skew(f: IntPoly) -> bool:
    """is_skew_reciprocal, with the inputs it rejects (odd degree) as False."""
    try:
        return is_skew_reciprocal(f)
    except PolynomialError:
        return False


def _parse_arg_poly(text: str) -> IntPoly:
    f = parse_poly(text)
    if f.degree < 0:
        raise ParseError("the zero polynomial is not a valid input")
    return f


def _from_search(name: str):
    """search.<name>, behind a module global that imports search on its first call.

    Only the commands that search load the search layer.  _run calls these
    globals by name, so a wrapper bound over one (perfbench's layer tracer
    wraps all three) still sees every call.
    """
    def call(*args, **kwargs):
        from . import search

        return getattr(search, name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


min_mahler = _from_search("min_mahler")
min_house = _from_search("min_house")
verify_decomposition_over_space = _from_search("verify_decomposition_over_space")


def _run(args: argparse.Namespace) -> dict:
    max_bits = _max_bits(getattr(args, "max_bits", None))
    _check_run_options(args)
    meta = _meta(args, max_bits)

    if args.command == "measure":
        f = _parse_arg_poly(args.poly)
        result = measure(f, tol=args.tol, max_bits=max_bits)
        return {"meta": meta, "data": result.to_json()}

    if args.command == "classify":
        f = _parse_arg_poly(args.poly)
        data = {
            "poly": poly_to_string(f),
            "degree": f.degree,
            "monic": f.is_monic(),
            "reciprocal": is_reciprocal(f),
            "skew_reciprocal": _is_skew(f),
            "kronecker": is_kronecker(f) if f.is_monic() else None,
        }
        return {"meta": meta, "data": data}

    if args.command == "decompose":
        from .structure import decompose_skew_reciprocal

        f = _parse_arg_poly(args.poly)
        outcome = decompose_skew_reciprocal(
            f, allow_any_multiple_of_four=args.allow_any_multiple_of_four
        )
        return {"meta": meta, "data": outcome.to_json()}

    if args.command == "companion":
        from .symplectic import (
            companion_anti_symplectic,
            companion_symplectic,
            is_anti_symplectic,
            is_symplectic,
        )

        f = _parse_arg_poly(args.poly)
        if is_reciprocal(f):
            b = companion_symplectic(f)
            data = {"kind": "symplectic", "size": b.size,
                    "matrix": b.to_json(), "form_check": is_symplectic(b)}
        elif _is_skew(f):
            b = companion_anti_symplectic(f)
            data = {"kind": "anti_symplectic", "size": b.size,
                    "matrix": b.to_json(), "form_check": is_anti_symplectic(b)}
        else:
            raise PolynomialError(
                "companion needs a reciprocal or skew-reciprocal polynomial"
            )
        return {"meta": meta, "data": data}

    if args.command == "search":
        from .search import SearchSpace

        space = SearchSpace(args.kind, args.degree, args.height)
        search = min_mahler if args.quantity == "mahler" else min_house
        report = search(space, tol=args.tol, jobs=args.jobs,
                        max_bits=max_bits, budget=args.budget)
        return {"meta": meta, "data": report.to_json()}

    if args.command == "table":
        from .search import sequence_table

        try:
            heights = [int(h) for h in args.heights.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad --heights value {args.heights!r}") from exc
        table = sequence_table(args.max_i, heights, tol=args.tol,
                               jobs=args.jobs, max_bits=max_bits,
                               budget=args.budget)
        if args.csv:
            return {"__csv__": table.to_csv()}
        return {"meta": meta, "data": table.to_json()}

    if args.command == "verify":
        from .search import SearchSpace

        space = SearchSpace("skew_reciprocal", args.degree, args.height)
        survey = verify_decomposition_over_space(
            space, tol=args.tol, max_bits=max_bits, budget=args.budget
        )
        return {"meta": meta, "data": survey.to_json()}

    raise ParseError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = _run(args)
    except (ParseError, PolynomialError, ValueError) as exc:
        _print_error(exc)
        return 2
    except PrecisionExhausted as exc:
        _print_error(exc)
        return 3
    except BudgetExceeded as exc:
        _print_error(exc)
        return 4
    except DecompositionFalsified as exc:
        _print_error(exc)
        return 5
    if "__csv__" in payload:
        sys.stdout.write(payload["__csv__"])
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def _print_error(exc: Exception) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())

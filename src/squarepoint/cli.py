"""Command-line entry point.

Subcommands: sieve, search, distances, three-distance, lists, verify.
Every subcommand is a thin adapter over the library; all configuration is
by flags (no environment variables).  Exit codes: 0 success, 1 usage error,
2 computation error.
"""

from __future__ import annotations

import argparse
import sys

from .filters import FilterConfig, FilterId
from .model import Candidate
from .report import FORMATS, serialize, unavailable_lists
from .search import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ScanRequest,
    oracle_scan,
    search_range,
    sieve_z,
)
from .selfcheck import SUITES


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="squarepoint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("sieve", help="filter all candidates at one side length")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--filters", default="all",
                   help="comma-separated filter ids, or 'all'")
    add_output_flags(p)

    p = sub.add_parser("search", help="sieve a range of side lengths")
    p.add_argument("--z-min", type=int, required=True)
    p.add_argument("--z-max", type=int, required=True)
    p.add_argument("--mod12-only", action="store_true",
                   help="only sieve z divisible by 12")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--filters", default="all")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="most candidates (primitive canonical interior "
                        "points) the range may hold")
    add_output_flags(p)

    p = sub.add_parser("distances", help="corner distances of one point")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    add_output_flags(p)

    p = sub.add_parser("three-distance",
                       help="scan for points with many integer corner distances")
    p.add_argument("--z-max", type=int, required=True)
    p.add_argument("--z-min", type=int, default=1)
    p.add_argument("--min-count", type=int, default=3)
    p.add_argument("--include-boundary", action="store_true")
    p.add_argument("--all-points", action="store_true",
                   help="include non-primitive points")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="most points (x, y) the scan may visit: (z - 1)**2 "
                        "per z, (z + 1)**2 with --include-boundary")
    add_output_flags(p)

    p = sub.add_parser("lists", help="values ruled out for x and y at one side")
    p.add_argument("--z", type=int, required=True)
    add_output_flags(p)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    return parser


def _parse_filters(raw: str) -> frozenset[FilterId]:
    if raw == "all":
        return frozenset(FilterId)
    try:
        return frozenset(FilterId(name.strip()) for name in raw.split(","))
    except ValueError:
        valid = ",".join(f.value for f in FilterId)
        raise UsageError(f"unknown filter in {raw!r}; valid ids: {valid}")


def _emit(data: bytes, out: str | None) -> None:
    if out:
        try:
            with open(out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror}") from exc
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _cmd_sieve(args) -> int:
    if args.z < 1:
        raise UsageError("--z must be positive")
    cfg = FilterConfig(enabled=_parse_filters(args.filters))
    result = sieve_z(args.z, cfg)
    _emit(serialize(result, args.format), args.out)
    return 0


def _cmd_search(args) -> int:
    if args.z_min < 1 or args.z_min > args.z_max:
        raise UsageError("need 1 <= --z-min <= --z-max")
    if args.threads < 1:
        raise UsageError("--threads must be positive")
    cfg = FilterConfig(enabled=_parse_filters(args.filters))
    results = search_range(args.z_min, args.z_max, cfg, workers=args.threads,
                           mod12_only=args.mod12_only, budget=args.budget)
    _emit(serialize(results, args.format), args.out)
    return 0


def _cmd_distances(args) -> int:
    if args.z < 1 or not (0 <= args.x <= args.z and 0 <= args.y <= args.z):
        raise UsageError("need 0 <= x,y <= z and z >= 1")
    _emit(serialize(Candidate(args.x, args.y, args.z), args.format), args.out)
    return 0


def _cmd_three_distance(args) -> int:
    if args.z_min < 1 or args.z_min > args.z_max:
        raise UsageError("need 1 <= --z-min <= --z-max")
    req = ScanRequest(
        z_min=args.z_min,
        z_max=args.z_max,
        min_count=args.min_count,
        include_boundary=args.include_boundary,
        primitive_only=not args.all_points,
        budget=args.budget,
    )
    _emit(serialize(oracle_scan(req), args.format), args.out)
    return 0


def _cmd_lists(args) -> int:
    if args.z < 2 or args.z % 2:
        raise UsageError("--z must be an even integer >= 2")
    _emit(serialize(unavailable_lists(args.z), args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    checks = SUITES[args.suite]()
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        line = f"{status} {check.name}"
        if check.detail:
            line += f" [{check.detail}]"
        print(line)
    failed = sum(not c.ok for c in checks)
    print(f"{args.suite}: {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 2


_COMMANDS = {
    "sieve": _cmd_sieve,
    "search": _cmd_search,
    "distances": _cmd_distances,
    "three-distance": _cmd_three_distance,
    "lists": _cmd_lists,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceededError, RuntimeError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())

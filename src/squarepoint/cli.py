"""Command-line entry point.

Subcommands: sieve, search, distances, three-distance, lists, verify.
Each result subcommand is one library call whose result is serialized; all
configuration is by flags (no environment variables).  The library checks
all input, and the CLI only maps library errors to exit codes: 0 success,
1 usage error (ValueError), 2 computation error (RuntimeError).
"""

from __future__ import annotations

import argparse
import sys

# Every import at the top lands on every call, so the library calls go
# through the lazy package: it imports a module on first use of its names.
import squarepoint as lib

from .model import DEFAULT_BUDGET, Candidate
from .report import FORMATS, serialize, unavailable_lists

# the names of selfcheck.SUITES, which a test pins to them
_SUITE_NAMES = ("arith", "filters", "paper")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _filter_config(raw: str) -> lib.FilterConfig:
    """The argparse type of --filters: comma-separated filter ids, or 'all'."""
    if raw == "all":
        return lib.FilterConfig()
    try:
        ids = frozenset(lib.FilterId(name.strip()) for name in raw.split(","))
        return lib.FilterConfig(ids)
    except ValueError:
        valid = ",".join(f.value for f in lib.FilterId)
        raise argparse.ArgumentTypeError(f"unknown filter in {raw!r}; valid ids: {valid}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="squarepoint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("sieve", help="filter all candidates at one side length")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--filters", type=_filter_config, default="all",
                   help="comma-separated filter ids, or 'all'")
    add_output_flags(p)

    p = sub.add_parser("search", help="sieve a range of side lengths")
    p.add_argument("--z-min", type=int, required=True)
    p.add_argument("--z-max", type=int, required=True)
    p.add_argument("--mod12-only", action="store_true",
                   help="only sieve z divisible by 12")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--filters", type=_filter_config, default="all")
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
    p.add_argument("--suite", choices=_SUITE_NAMES, required=True)
    return parser


# the library call behind each result subcommand; it raises ValueError on
# bad input (a Candidate's bounds are checked when serialize profiles it).
# sieve is a one-z search, so it is charged the default budget.
_RESULTS = {
    "sieve": lambda a: lib.search_range(a.z, a.z, a.filters)[0],
    "search": lambda a: lib.search_range(a.z_min, a.z_max, a.filters, workers=a.threads,
                                         mod12_only=a.mod12_only, budget=a.budget),
    "distances": lambda a: Candidate(a.x, a.y, a.z),
    "three-distance": lambda a: lib.oracle_scan(lib.ScanRequest(
        z_min=a.z_min,
        z_max=a.z_max,
        min_count=a.min_count,
        include_boundary=a.include_boundary,
        primitive_only=not a.all_points,
        budget=a.budget,
    )),
    "lists": lambda a: unavailable_lists(a.z),
}


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


def _cmd_verify(args) -> int:
    from .selfcheck import SUITES

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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        _emit(serialize(_RESULTS[args.command](args), args.format), args.out)
        return 0
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # BudgetExceededError too
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())

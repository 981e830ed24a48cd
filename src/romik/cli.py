"""Command-line front end.

``COMMANDS`` is the one table of subcommands (compute, grid, verify,
scan-period, cache): each name maps to its help line, the function that adds
its arguments, and its handler.  A run whose first word names a command
builds only that command's parser; help, no command or an unknown word builds
all of them.

Exit status: 0 on success (all suites passing), 1 when a verification suite
fails, 2 for usage errors and unreadable/corrupt files.  The default cache
directory may be set through the ROMIK_CACHE_DIR environment variable and
overridden per run with --cache-dir.

``main`` holds the one cache session: for every command but ``cache check``
it loads the cache directory once if it exists, hands the cache to the
command's handler, stores once if a table grew, and only then writes the
lines the handler returned.  Handlers compute and never print.  A corrupt
file is refused with the remedy, since the command would append to it,
whether the load finds it or the handler does: the s-table rows of a load
are decoded as they are first read.  ``cache check`` reads every row.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cache_io, verify
from .core import IntegrityError, SequenceCache
from .residues import VanishingThresholds, build_residue_grid, is_prime

CACHE_DIR_ENV = "ROMIK_CACHE_DIR"


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The romik parser with only the subparser of the command argv[0] names (its
    metavar keeps the usage line of the full parser), else with all of them."""
    parser = argparse.ArgumentParser(
        prog="romik",
        description="Exact computation and congruence verification for the "
        "Romik sequence d(n) and its auxiliary tables.",
    )
    only = argv[0] if argv and argv[0] in COMMANDS else None
    metavar = "{" + ",".join(COMMANDS) + "}" if only else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        if only in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    handler = COMMANDS[args.command][2]
    try:
        directory = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
        # A directory still to be made gets sizes (), so that the store makes it.
        cache, before = SequenceCache(), ()
        if getattr(args, "cache_command", None) == "check":
            # Outside the session: a missing directory is an error, and nothing is stored.
            cache, directory = cache_io.load_cache(directory), None
        try:
            if directory and os.path.isdir(directory):
                cache = cache_io.load_cache(directory)
                before = _cache_sizes(cache)
            # s.bin's rows are decoded as they are first read, so the handler
            # can meet a bad stored value too.
            code, lines = handler(args, parser, cache)
        except cache_io.CacheFormatError as exc:
            raise (exc.refusing_store() if directory else exc) from None
        if directory and _cache_sizes(cache) != before:
            cache_io.store_cache(directory, cache)
        _emit(args, lines)
        return code
    except (cache_io.CacheFormatError, ValueError, IntegrityError) as exc:
        print(f"romik: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        path = getattr(exc, "filename", None)
        where = f"{path}: " if path else ""
        print(f"romik: error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


# -- shared helpers ------------------------------------------------------


def _cache_sizes(cache: SequenceCache) -> tuple[int, ...]:
    return (*map(cache.known_count, "uvd"), cache.s_bound)


def _emit(args, lines: list[str]) -> None:
    """Write the lines to --output or stdout, and grid's --highlight-n0
    marker to <output>.n0 or stderr."""
    output = getattr(args, "output", None)
    _write(output, lines, sys.stdout)
    if getattr(args, "highlight_n0", False):
        n0 = VanishingThresholds.for_prime(args.prime).n0
        _write(output and output + ".n0", [f"n0={n0}"], sys.stderr)


def _write(path: str | None, lines: list[str], stream) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        stream.write(text)


def _triangle_lines(rows, fmt: str, name: str) -> list[str]:
    """Rows n = 1, 2, ... of a triangle as 'n: x ...' table lines, or as
    'n,k,<name>' CSV."""
    if fmt == "csv":
        return [f"n,k,{name}"] + [
            f"{n},{k},{x}" for n, row in enumerate(rows, 1) for k, x in enumerate(row, 1)
        ]
    return [f"{n}: " + " ".join(map(str, row)) for n, row in enumerate(rows, 1)]


# -- commands: an argument adder and a handler each, tabled in COMMANDS --


def _compute_arguments(parser) -> None:
    parser.add_argument("--seq", required=True, choices=("u", "v", "d", "s", "r"))
    parser.add_argument("--max", required=True, type=int, metavar="N",
                        help="largest index n to print")
    parser.add_argument("--mod", type=int, metavar="P", help="reduce every value mod the prime P")
    parser.add_argument("--format", choices=("table", "csv"), default="table")
    parser.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    parser.add_argument("--cache-dir", metavar="DIR")


def _run_compute(args, parser, cache) -> tuple[int, list[str]]:
    if args.max < 0:
        parser.error("--max must be >= 0")
    if args.seq in ("s", "r") and args.max < 1:
        parser.error("--max must be >= 1 for the s/r triangle")
    if args.mod is not None and not is_prime(args.mod):
        parser.error(f"--mod must be prime, got {args.mod}")
    reduce = (lambda x: x % args.mod) if args.mod is not None else (lambda x: x)

    if args.seq in ("u", "v", "d"):
        value = getattr(cache, args.seq)
        value(args.max)  # grows the s-table for d in one call, not one per index
        values = [reduce(value(n)) for n in range(args.max + 1)]
        if args.format == "csv":
            return 0, ["n,value"] + [f"{n},{x}" for n, x in enumerate(values)]
        return 0, [",".join(str(x) for x in values)]
    cache.build_s_table(args.max)
    entry = cache.s if args.seq == "s" else cache.r
    rows = [[reduce(entry(n, k)) for k in range(1, n + 1)] for n in range(1, args.max + 1)]
    return 0, _triangle_lines(rows, args.format, "value")


def _grid_arguments(parser) -> None:
    parser.add_argument("--prime", required=True, type=int)
    parser.add_argument("--max-n", required=True, type=int)
    parser.add_argument("--format", choices=("table", "csv", "pgm"), default="csv")
    parser.add_argument("--output", metavar="PATH")
    parser.add_argument("--highlight-n0", action="store_true",
                        help="emit the k = n0 boundary as a sidecar marker "
                        "(primes p = 3 mod 4 only)")
    parser.add_argument("--cache-dir", metavar="DIR")


def _run_grid(args, parser, cache) -> tuple[int, list[str]]:
    if args.highlight_n0:
        VanishingThresholds.for_prime(args.prime)  # rejects p = 1 (mod 4) before any work
    grid = build_residue_grid(args.prime, args.max_n, cache)
    if args.format == "pgm":
        return 0, grid.pgm_lines()
    return 0, _triangle_lines(grid.rows, args.format, "residue")


def _verify_arguments(parser) -> None:
    parser.add_argument("--suite", default="all", choices=(*verify.suites(), "all"))
    parser.add_argument("--prime", type=int, help="prime for the vanishing/uv suites")
    parser.add_argument("--max", type=int, metavar="N",
                        help="range bound override for a single suite")
    parser.add_argument("--format", choices=("table", "csv"), default="table")
    parser.add_argument("--cache-dir", metavar="DIR")


def _run_verify(args, parser, cache) -> tuple[int, list[str]]:
    table = verify.suites()
    if args.suite == "all":
        if args.max is not None or args.prime is not None:
            parser.error("--max/--prime apply to a single suite, not --suite all")
        calls = [
            (run, prime_args)
            for run, primes in table.values()
            for prime_args in ([(p,) for p in primes] or [()])
        ]
    else:
        run, primes = table[args.suite]
        if primes and args.prime is None:
            parser.error(f"--suite {args.suite} requires --prime")
        if not primes and args.prime is not None:
            parser.error(f"--suite {args.suite} takes no --prime")
        calls = [(run, (args.prime,) if primes else ())]
    bound = {} if args.max is None else {"max_n": args.max}
    reports = [run(cache, *prime_args, **bound) for run, prime_args in calls]

    if args.format == "csv":
        lines = [verify.REPORT_CSV_HEADER] + [report.csv_row() for report in reports]
    else:
        lines = []
        for report in reports:
            lines.append(report.line())
            if report.details:
                lines.append(f"  note: {report.details}")
    return (0 if all(r.passed for r in reports) else 1), lines


def _scan_arguments(parser) -> None:
    parser.add_argument("--prime", required=True, type=int)
    parser.add_argument("--bound", required=True, type=int,
                        help="scan d(0..bound); must be at least 4p")
    parser.add_argument("--cache-dir", metavar="DIR")


def _run_scan(args, parser, cache) -> tuple[int, list[str]]:
    result = verify.scan_periodicity(cache, args.prime, args.bound)
    head = f"PRIME {result.prime} BOUND {result.scan_bound}"
    if not result.conclusive:
        return 0, [f"{head} INCONCLUSIVE"]
    cycle = ",".join(str(x) for x in result.residue_cycle)
    return 0, [f"{head} PREPERIOD {result.preperiod} PERIOD {result.period} CYCLE {cycle}"]


def _cache_arguments(parser) -> None:
    sub = parser.add_subparsers(dest="cache_command", required=True)
    build = sub.add_parser("build", help="compute values and store them")
    build.add_argument("--dir", required=True, dest="cache_dir", metavar="DIR")
    build.add_argument("--max", required=True, type=int, metavar="N")
    check = sub.add_parser("check", help="validate stored files and summarize")
    check.add_argument("--dir", required=True, dest="cache_dir", metavar="DIR")


def _run_cache(args, parser, cache) -> tuple[int, list[str]]:
    if args.cache_command == "check":
        cache.stored_s_rows()  # decodes and checks every stored row
        counts = [f"SEQ {name} COUNT {cache.known_count(name)}" for name in ("u", "v", "d")]
        return 0, counts + [f"SEQ s ROWS {cache.s_bound}"]
    if args.max < 0:
        parser.error("--max must be >= 0")
    # d(max) returns at once when d.bin already holds 0..max, so a directory
    # whose s.bin or v.bin fell behind it is topped up by these two calls.
    cache.build_s_table(args.max)
    cache.v(args.max)
    cache.d(args.max)
    cache.u(args.max)
    return 0, [f"stored u, v, d (0..{args.max}) and s-table (bound {args.max}) in {args.cache_dir}"]


# name: (help line, function adding the command's arguments, handler)
COMMANDS = {
    "compute": ("print sequence values", _compute_arguments, _run_compute),
    "grid": ("export the triangular grid r(n, k) mod p", _grid_arguments, _run_grid),
    "verify": ("run congruence verification suites", _verify_arguments, _run_verify),
    "scan-period": ("scan d(n) mod p for a residue period", _scan_arguments, _run_scan),
    "cache": ("manage the on-disk cache", _cache_arguments, _run_cache),
}


if __name__ == "__main__":
    entry_point()

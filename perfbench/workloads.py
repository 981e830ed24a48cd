"""The benchmark's workloads: set-up, one timed iteration, and output checks.

Every workload is a closed loop: one caller runs each operation after the
previous one finished.  The seed only orders operations and (n, k) pairs
inside an iteration; sizes come from ``spec.json``.  ``iteration`` returns the
iteration's operations, unstarted, for the harness to time one by one; each
returns an ``Outcome`` whose outputs are checked against the pinned digests
once the clock has stopped.

Library calls go through module attributes at call time (``romik.cli.main``,
never a name bound at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Outcome:
    """One operation: its error (None if it ran cleanly), the bytes it wrote
    to stdout, and a check run after timing that returns problems found."""

    name: str
    error: str | None
    stdout_bytes: int = 0
    check: Callable[[dict], list[str]] = lambda expected: []


Operation = Callable[[], Outcome]


@dataclass
class Context:
    romik: object
    sizes: dict
    work: str  # directory for this run's temporary files
    fixture: object = None
    made_caches: list = field(default_factory=list)
    leftovers: list[str] = field(default_factory=list)

    def temp_dir(self) -> str:
        """A fresh directory, removed by clean() after the iteration."""
        path = tempfile.mkdtemp(dir=self.work)
        self.leftovers.append(path)
        return path

    def clean(self) -> None:
        for path in self.leftovers:
            shutil.rmtree(path, ignore_errors=True)
        self.leftovers.clear()


# -- canonical texts and digests ---------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ints_text(values) -> str:
    return ",".join(map(str, values))


def rows_text(rows) -> str:
    return "\n".join(ints_text(row) for row in rows)


def pairs_text(values: dict) -> str:
    return "\n".join(f"{n},{k},{v}" for (n, k), v in sorted(values.items()))


def verdict_lines(stdout: str) -> str:
    """The 'SUITE ... RESULT <verdict>' part of each report line; fields a
    report may append after the verdict are not part of the contract."""
    out = []
    for line in stdout.splitlines():
        words = line.split()
        if words[:1] == ["SUITE"] and "RESULT" in words:
            out.append(" ".join(words[: words.index("RESULT") + 2]))
    return "\n".join(out)


def digest_problems(expected: dict, facts: dict[str, str]) -> list[str]:
    problems = []
    for key, text in facts.items():
        got = sha256(text)
        if got != expected.get(key):
            problems.append(f"digest {key}: got {got}, expected {expected.get(key)}")
        if key == "d" and not text.startswith(expected["d_prefix"]):
            problems.append(f"d does not start with {expected['d_prefix']}")
    return problems


def table_facts(cache, max_n: int, d_key: str = "d", s_key: str = "s") -> dict[str, str]:
    d = cache.known_values("d")
    rows = cache.known_s_rows()
    if len(d) <= max_n or len(rows) < max_n:
        return {d_key: f"d has {len(d)} values, s has {len(rows)} rows"}
    return {d_key: ints_text(d[: max_n + 1]), s_key: rows_text(rows[:max_n])}


# -- running the CLI in process -----------------------------------------------


def run_cli(ctx: Context, argv: list[str], facts: Callable[[str, list], dict] | None = None) -> Outcome:
    """Run ``romik <argv>`` through cli.main with stdout captured.

    ``facts(stdout, caches)`` maps digest keys to the canonical texts to
    check, given the caches the command made.  A nonzero exit, an escaped exception (IntegrityError among them) or an
    argparse exit is a failed operation.
    """
    out, err = io.StringIO(), io.StringIO()
    ctx.made_caches.clear()
    name = " ".join(argv[:1] + [a for a in argv[1:] if not os.path.isabs(a)])
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = ctx.romik.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the operation fails; the benchmark goes on
        return Outcome(name, f"{type(exc).__name__}: {exc}")
    stdout = out.getvalue()
    size = len(stdout.encode())
    if code != 0:
        return Outcome(name, f"exit {code}: {err.getvalue().strip()}", size)
    caches = list(ctx.made_caches)
    if facts is None:
        return Outcome(name, None, size)
    return Outcome(name, None, size, lambda expected: digest_problems(expected, facts(stdout, caches)))


def record_caches(ctx: Context) -> None:
    """Keep every SequenceCache made during an operation in ctx.made_caches."""
    cls = ctx.romik.core.SequenceCache
    original = cls.__init__

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        ctx.made_caches.append(self)

    cls.__init__ = __init__


# -- workloads ------------------------------------------------------------------


class VerifyCold:
    """`romik verify`, all suites at their default bounds, on a fresh
    SequenceCache with no cache directory: the main user-facing run."""

    name = "verify-cold"

    def setup(self, ctx: Context) -> list[Outcome]:
        record_caches(ctx)
        return []

    def iteration(self, ctx: Context, rng) -> list[Operation]:
        max_n = ctx.sizes["max_n"]

        def facts(stdout, caches):
            return {"verify_lines": verdict_lines(stdout), **table_facts(caches[-1], max_n)}

        return [lambda: run_cli(ctx, ctx.sizes["argv"], facts)]


class CacheWarm:
    """Commands served from a cache directory built in set-up, plus a
    load_cache -> store_cache round trip into a fresh directory."""

    name = "cache-warm"

    def setup(self, ctx: Context) -> list[Outcome]:
        directory = tempfile.mkdtemp(dir=ctx.work)  # lives until the run ends
        ctx.fixture = directory
        return [run_cli(ctx, ["cache", "build", "--dir", directory, "--max", str(ctx.sizes["max_n"])])]

    def iteration(self, ctx: Context, rng) -> list[Operation]:
        directory, sizes = ctx.fixture, ctx.sizes
        target = ctx.temp_dir()
        ops = [
            lambda: run_cli(ctx, ["cache", "check", "--dir", directory], self._check_facts),
            lambda: run_cli(ctx, sizes["verify_argv"] + ["--cache-dir", directory],
                            lambda stdout, _: {"verify_lines": verdict_lines(stdout)}),
            lambda: run_cli(ctx, ["grid", "--prime", "5", "--max-n", str(sizes["grid5_max_n"]),
                                  "--format", "csv", "--cache-dir", directory],
                            lambda stdout, _: {"grid5_csv": stdout}),
            lambda: run_cli(ctx, ["grid", "--prime", "7", "--max-n", str(sizes["grid7_max_n"]),
                                  "--format", "pgm", "--cache-dir", directory],
                            lambda stdout, _: {"grid7_pgm": stdout}),
            lambda: self._round_trip(ctx, directory, target),
        ]
        rng.shuffle(ops)
        return ops

    def _check_facts(self, stdout, caches):
        return {"cache_check": "\n".join(line for line in stdout.splitlines() if line.startswith("SEQ "))}

    def _round_trip(self, ctx: Context, directory: str, target: str) -> Outcome:
        try:
            cache = ctx.romik.cache_io.load_cache(directory)
            ctx.romik.cache_io.store_cache(target, cache)
        except Exception as exc:  # the operation fails; the benchmark goes on
            return Outcome("load_cache/store_cache", f"{type(exc).__name__}: {exc}")

        def check(expected):
            names = sorted(os.listdir(directory))
            if sorted(os.listdir(target)) != names:
                return [f"round trip wrote {sorted(os.listdir(target))}, source has {names}"]
            return [
                f"round trip changed {name}"
                for name in names
                if Path(directory, name).read_bytes() != Path(target, name).read_bytes()
            ]

        return Outcome("load_cache/store_cache", None, 0, check)


class GrowSession:
    """One cache directory extended across runs of `scan-period` with a
    growing bound, starting empty."""

    name = "grow-session"

    def setup(self, ctx: Context) -> list[Outcome]:
        record_caches(ctx)
        return []

    def iteration(self, ctx: Context, rng) -> list[Operation]:
        sizes = ctx.sizes
        directory = ctx.temp_dir()
        bounds = range(sizes["first"], sizes["last"] + 1, sizes["step"])
        ops = []
        lines = []
        for bound in bounds:
            last = bound == bounds[-1]

            def facts(stdout, caches, last=last):
                lines.append(stdout)
                if not last:
                    return {}
                return {"scan_lines": "".join(lines), **table_facts(caches[-1], sizes["last"])}

            argv = ["scan-period", "--prime", str(sizes["prime"]), "--bound", str(bound),
                    "--cache-dir", directory]
            ops.append(lambda argv=argv, facts=facts: run_cli(ctx, argv, facts))
        return ops


class OracleCrosscheck:
    """The library's independent routes checked against the exact table
    built in set-up: partition sums, the Fraction series, and the two mod-5
    closed forms."""

    name = "oracle-crosscheck"

    def setup(self, ctx: Context) -> list[Outcome]:
        table_n = ctx.sizes["table_n"]
        cache = ctx.romik.SequenceCache()
        cache.d(table_n)
        ctx.fixture = cache
        facts = table_facts(cache, table_n, "oracle_d", "oracle_s")
        return [Outcome("exact table", None, 0, lambda expected: digest_problems(expected, facts))]

    def iteration(self, ctx: Context, rng) -> list[Operation]:
        cache, sizes, romik = ctx.fixture, ctx.sizes, ctx.romik
        partition_pairs = _pairs(sizes["partitions_n"], rng)
        r_pairs = _pairs(sizes["mod5_n"], rng)
        s_pairs = _pairs(sizes["mod5_n"], rng)
        ops = [
            lambda: _compare_pairs(
                "s_by_partitions", "partition_sums", partition_pairs,
                lambda n, k: romik.partitions.s_by_partitions(n, k, cache), lambda n, k: cache.s(n, k)),
            lambda: self._series(romik, cache, sizes["series_n"]),
            lambda: _compare_pairs(
                "r_mod5_closed_form", "r_mod5", r_pairs,
                lambda n, k: romik.residues.r_mod5_closed_form(n, k), lambda n, k: cache.r(n, k) % 5),
            lambda: _compare_pairs(
                "s_mod5_single_index", "s_mod5", s_pairs,
                lambda n, k: romik.residues.s_mod5_single_index(n, k), lambda n, k: cache.s(n, k) % 5),
        ]
        rng.shuffle(ops)
        return ops

    def _series(self, romik, cache, max_n: int) -> Outcome:
        name = "s_table_by_series"
        try:
            rows = romik.core.s_table_by_series(max_n, cache)
        except Exception as exc:  # the operation fails; the benchmark goes on
            return Outcome(name, f"{type(exc).__name__}: {exc}")
        if rows != cache.known_s_rows()[:max_n]:
            return Outcome(name, "differs from the exact table")
        return Outcome(name, None, 0,
                       lambda expected: digest_problems(expected, {"series_table": rows_text(rows)}))


def _pairs(max_n: int, rng) -> list[tuple[int, int]]:
    pairs = [(n, k) for n in range(1, max_n + 1) for k in range(1, n + 1)]
    rng.shuffle(pairs)
    return pairs


def _compare_pairs(name, key, pairs, route, exact) -> Outcome:
    values = {}
    try:
        for n, k in pairs:
            value = route(n, k)
            if value != exact(n, k):
                return Outcome(name, f"({n},{k}): route gives {value}, exact table {exact(n, k)}")
            values[n, k] = value
    except Exception as exc:  # the operation fails; the benchmark goes on
        return Outcome(name, f"{type(exc).__name__}: {exc}")
    return Outcome(name, None, 0, lambda expected: digest_problems(expected, {key: pairs_text(values)}))


WORKLOADS = {w.name: w for w in (VerifyCold(), CacheWarm(), GrowSession(), OracleCrosscheck())}

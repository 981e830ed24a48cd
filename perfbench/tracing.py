"""Span tracing of romik's public calls, installed from outside the package.

The tracer replaces public functions and ``SequenceCache`` methods with
wrappers while it is installed and restores the originals on uninstall, so
an untraced iteration runs exactly the library code.  A span's self time is
its duration minus the time covered by the spans it caused; a wrapper's own
bookkeeping and probes are charged to no span.  Spans are folded into
per-name totals as they close rather than stored one by one.

Cheap hot lookups (``cache.r`` always, ``cache.u``, ``v`` and ``d`` when the
value is already cached) are only counted.  A lookup that has
to extend its sequence opens a span, since that is where the work happens.
"""

from __future__ import annotations

import builtins
import os
import sys
from collections import Counter
from time import perf_counter

# Span name -> (module, attribute) of each traced public function.
SPANNED_FUNCTIONS = {
    "core.s_table_by_series": ("romik.core", "s_table_by_series"),
    "partitions.s_by_partitions": ("romik.partitions", "s_by_partitions"),
    "residues.r_mod5_closed_form": ("romik.residues", "r_mod5_closed_form"),
    "residues.s_mod5_single_index": ("romik.residues", "s_mod5_single_index"),
    "residues.build_residue_grid": ("romik.residues", "build_residue_grid"),
    "cache_io.load_cache": ("romik.cache_io", "load_cache"),
    "cache_io.store_cache": ("romik.cache_io", "store_cache"),
    "verify.parity": ("romik.verify", "verify_parity"),
    "verify.mod5": ("romik.verify", "verify_mod5"),
    "verify.mod_p_vanishing": ("romik.verify", "verify_mod_p_vanishing"),
    "verify.uv_structure": ("romik.verify", "verify_uv_structure"),
    "verify.even_odd_sums": ("romik.verify", "verify_even_odd_sums"),
    "verify.scan_periodicity": ("romik.verify", "scan_periodicity"),
    "cli.main": ("romik.cli", "main"),
}

# SequenceCache lookups that extend an append-only sequence, with the
# attribute holding it.  Without that attribute every call counts as a miss.
EXTENDING_LOOKUPS = {"u": "_u", "v": "_v", "d": "_d"}

SPAN_NAMES = ("core.build_s_table", "core.u", "core.v", "core.d", *SPANNED_FUNCTIONS)

# Every per-layer metric a traced run reports, with its unit.  Counts and
# byte sizes repeat exactly from run to run; self times do not.
LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SPAN_NAMES},
    "core.build_s_table.calls": "count",
    "core.s_rows_built": "count",
    "core.s_rows_useful_ratio": "ratio",
    "core.s_table_bytes": "bytes",
    "core.u.calls": "count",
    "core.r.calls": "count",
    "partitions.partitions_enumerated": "count",
    "cache_io.bytes_read": "bytes",
    "cache_io.bytes_written": "bytes",
    "cache_io.parsed_bytes": "bytes",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}
COUNT_NAMES = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes")]


def deep_size(values) -> int:
    """Bytes held by a list of ints, or by a list of such lists."""
    total = sys.getsizeof(values)
    for item in values:
        total += deep_size(item) if isinstance(item, list) else sys.getsizeof(item)
    return total


class Tracer:
    """Span and count totals over one iteration, for one import of romik."""

    def __init__(self, romik) -> None:
        self._romik = romik
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._written: list[str] = []
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.maxima: Counter[str] = Counter()

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()
        self.maxima.clear()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        cls = self._romik.core.SequenceCache
        self._patch(cls, "build_s_table", self._span(
            "core.build_s_table", cls.build_s_table, self._rows_before, self._rows_after
        ))
        for name, attr in EXTENDING_LOOKUPS.items():
            self._patch(cls, name, self._lookup(name, attr, getattr(cls, name)))
        self._patch(cls, "r", self._counted("core.r.calls", cls.r))
        for span, (module, attr) in SPANNED_FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            after = self._io_after if span.startswith("cache_io.") else None
            self._patch_everywhere(original, self._span(span, original, None, after))
        enumerate_partitions = self._romik.partitions.enumerate_partitions
        self._patch_everywhere(enumerate_partitions, self._counted_generator(
            "partitions.partitions_enumerated", enumerate_partitions
        ))
        # A module global named ``open`` shadows the builtin inside cache_io.
        self._patch(self._romik.cache_io, "open", self._counting_open)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name == "romik" or name.startswith("romik."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, replacement)

    def exclude(self, seconds: float) -> None:
        """Leave out of the innermost open span's self time work that is
        not the span's own (the harness's speed samples)."""
        if self._stack:
            self._stack[-1][0] += seconds

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, before, after):
        stack, self_s, counts = self._stack, self.self_s, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            p0 = perf_counter()
            state = before(*args) if before else None
            children = [0.0]
            stack.append(children)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if after:
                    after(state, result, *args)
                self_s[name] += (t1 - t0) - children[0]
                counts[calls] += 1
                if stack:
                    stack[-1][0] += perf_counter() - p0

        return wrapper

    def _lookup(self, name, attr, fn):
        span = self._span(f"core.{name}", fn, None, None)
        counts, calls = self.counts, f"core.{name}.calls"

        def wrapper(cache, n):
            known = getattr(cache, attr, None)
            if known is not None and n < len(known):
                counts[calls] += 1
                return fn(cache, n)
            return span(cache, n)  # counts the call itself

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_generator(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def _counting_open(self, path, mode="r", *args, **kwargs):
        if "r" in mode:
            self.counts["cache_io.bytes_read"] += os.path.getsize(path)
        else:
            self._written.append(path)
        return builtins.open(path, mode, *args, **kwargs)

    # -- probes --------------------------------------------------------------

    def _rows_before(self, cache, max_n):
        # Holding the old rows keeps their ids from being reused by new rows.
        rows = getattr(cache, "_s_rows", None)
        return cache.s_bound, None if rows is None else list(rows)

    def _rows_after(self, state, result, cache, max_n):
        bound_before, rows_before = state
        rows = getattr(cache, "_s_rows", None)
        if rows is None or rows_before is None:
            built = cache.s_bound - bound_before
        else:
            old = {id(row) for row in rows_before}
            built = sum(1 for row in rows if id(row) not in old)
        if built:
            self.counts["core.s_rows_built"] += built
            self._maximum("core.s_rows_kept", cache.s_bound)
            self._maximum("core.s_table_bytes", deep_size(cache.known_s_rows()))

    def _io_after(self, state, result, *args):
        for path in self._written:
            self.counts["cache_io.bytes_written"] += os.path.getsize(path)
        self._written.clear()
        if result is not None:
            loaded = [result.known_values(name) for name in "uvd"] + [result.known_s_rows()]
            self._maximum("cache_io.parsed_bytes", deep_size(loaded))

    def _maximum(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    # -- results -------------------------------------------------------------

    def iteration_metrics(self) -> dict[str, float]:
        """Self times and counts of the iteration since the last reset."""
        out = {f"{name}.self_s": self.self_s[name] for name in SPAN_NAMES}
        totals = self.counts + self.maxima
        out.update((name, totals[name]) for name in COUNT_NAMES)
        built = totals["core.s_rows_built"]
        # Nothing built wastes nothing.
        out["core.s_rows_useful_ratio"] = totals["core.s_rows_kept"] / built if built else 1.0
        return out


_ABSENT = object()

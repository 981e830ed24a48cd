"""Congruence verification suites over configurable ranges.

Each suite walks one family of congruences from the smallest index upward
and reports pass/fail together with the minimal counterexample when a check
fails (smallest n first, then smallest k).  Suites only read the cache, so
a single cache built to the largest needed bound can serve all of them.
u, v and d mod p come only from the cache's one reader,
``SequenceCache.residues``, and r(n, k) mod p only from
``residues.build_residue_grid``, the per-prime table built in the run,
which reads no cache.  Only a counterexample's text may print an exact value.

Each suite function holds its own default bound and argument checks: parity
and mod5 run to 150, vanishing to ``DEFAULT_VANISHING_MAX``, uv to n0 + 20
(p = 3 mod 4) or 40, sums to 60.  ``suites()`` is the one table of suites.

The periodicity scanner for primes p = 1 (mod 4) is exploratory: it returns
(preperiod, period, cycle) with the smallest preperiod + period consistent
with the scanned prefix, or None, and never asserts that d is periodic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import SequenceCache
from .residues import _require_prime, build_residue_grid, is_prime, vanishing_n0

# Desk-scale default bounds; every suite accepts an explicit override.
DEFAULT_MAX_N = 150
DEFAULT_VANISHING_MAX = {3: 40, 7: 60, 11: 90}

REPORT_CSV_HEADER = "suite,lo,hi,prime,result,ce_n,ce_k,expected,actual"


@dataclass(frozen=True)
class Counterexample:
    n: int
    k: int | None
    expected: object
    actual: object


@dataclass
class VerificationReport:
    """Pass/fail record for one suite run.

    ``passed`` is true exactly when ``counterexample`` is absent; ``details``
    carries free-form observations (used by exploratory runs) and is not part
    of the serialized line.
    """

    suite: str
    lo: int
    hi: int
    prime: int | None
    counterexample: Counterexample | None = None
    elapsed: float = 0.0
    details: str = ""

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def line(self) -> str:
        prime = "-" if self.prime is None else str(self.prime)
        out = (
            f"SUITE {self.suite} RANGE {self.lo}..{self.hi} PRIME {prime} "
            f"RESULT {'PASS' if self.passed else 'FAIL'}"
        )
        if self.counterexample is not None:
            ce = self.counterexample
            k = "-" if ce.k is None else str(ce.k)
            out += f" CE n={ce.n} k={k} expected={ce.expected} actual={ce.actual}"
        return out

    def csv_row(self) -> str:
        prime = "" if self.prime is None else str(self.prime)
        ce = self.counterexample
        tail = (
            f"{ce.n},{'' if ce.k is None else ce.k},{ce.expected},{ce.actual}"
            if ce is not None
            else ",,,"
        )
        result = "PASS" if self.passed else "FAIL"
        return f"{self.suite},{self.lo},{self.hi},{prime},{result},{tail}"


def verify_parity(cache: SequenceCache, max_n: int = DEFAULT_MAX_N) -> VerificationReport:
    """d(n) and v(n) odd for 0 <= n <= max_n, by two reads.

    ``residues("d", 2, max_n)`` derives d, checked odd where it is made:
    ``SequenceCache.d`` raises IntegrityError on an even value, ``from_stored``
    refuses a stored one.  ``residues("v", 2, max_n)`` gives v mod 2; only a
    counterexample's text reads an exact v(n).  r(n, k) = s^(n, k) 2^(E(n) -
    E(k) + n - k) is even for k < n in any table, so it is not checked, and
    d(n) = v(n) mod 2: the content of the suite is that v(n) is odd."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    started = time.perf_counter()
    cache.residues("d", 2, max_n)
    v = cache.residues("v", 2, max_n)
    ce = None
    for n in range(max_n + 1):
        if not v[n]:
            ce = Counterexample(n, None, "odd v", f"v({n})={cache.v(n)}")
            break
    return VerificationReport("parity", 0, max_n, None, ce, time.perf_counter() - started)


def verify_mod5(cache: SequenceCache, max_n: int = DEFAULT_MAX_N) -> VerificationReport:
    """d(n) alternates 1, 4, 1, 4, ... mod 5 from n = 1 (4 at even n)."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    started = time.perf_counter()
    d = cache.residues("d", 5, max_n)
    ce = None
    for n in range(1, max_n + 1):
        expected = 1 if n & 1 else 4
        if d[n] != expected:
            ce = Counterexample(n, None, expected, d[n])
            break
    return VerificationReport("mod5", 1, max_n, 5, ce, time.perf_counter() - started)


def verify_mod_p_vanishing(
    cache: SequenceCache, p: int, max_n: int | None = None
) -> VerificationReport:
    """For p = 3 (mod 4): d(n) = 0 mod p for all n0 < n <= max_n, together
    with the vanishing of the whole r-submatrix 1 <= k <= n0 < n <= max_n
    that drives it, read from rows n0+1..max_n of ``build_residue_grid(p,
    max_n)``.  Fails if either family has an exception.  ``max_n``
    defaults to ``DEFAULT_VANISHING_MAX`` (n0 + 30 for primes not in it)."""
    n0 = vanishing_n0(p)
    if max_n is None:
        max_n = DEFAULT_VANISHING_MAX.get(p, n0 + 30)
    if max_n <= n0:
        raise ValueError(f"max_n must exceed n0={n0}, got {max_n}")
    started = time.perf_counter()
    d = cache.residues("d", p, max_n)
    rows = build_residue_grid(p, max_n)
    ce = None
    for n in range(n0 + 1, max_n + 1):
        if d[n]:
            ce = Counterexample(n, None, 0, d[n])
            break
        low = rows[n - 1][:n0]  # r(n, k) mod p for k = 1..n0
        if any(low):
            k = next(k for k, residue in enumerate(low, 1) if residue)
            ce = Counterexample(n, k, 0, low[k - 1])
            break
    return VerificationReport("mod_p_vanishing", n0 + 1, max_n, p, ce, time.perf_counter() - started)


def verify_uv_structure(
    cache: SequenceCache, p: int, max_n: int | None = None
) -> VerificationReport:
    """Residue structure of u and v mod an odd prime p, for 0 <= n <= max_n
    (default n0 + 20 for p = 3 (mod 4), 40 otherwise).

    p = 5: u = (1, 1, 1, 0, 0, ...) and v = (1, 1, 2, 0, 0, ...) mod 5.
    p = 3 (mod 4): u((p-1)/2) = 0, u(n) = 0 for n >= n0, v(n) = 0 for
    n > n0 (checked up to max_n).
    Other p (= 1 mod 4, p != 5): exploratory; the observed vanishing onset
    is reported in ``details`` and nothing is asserted.
    """
    _require_prime(p, odd=True)
    n0 = vanishing_n0(p) if p % 4 == 3 else None
    if max_n is None:
        max_n = 40 if n0 is None else n0 + 20
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    started = time.perf_counter()
    u = cache.residues("u", p, max_n)
    v = cache.residues("v", p, max_n)
    ce = None
    details = ""
    if p == 5:
        u_prefix, v_prefix = (1, 1, 1), (1, 1, 2)
        for n in range(max_n + 1):
            expected_u = u_prefix[n] if n < 3 else 0
            expected_v = v_prefix[n] if n < 3 else 0
            if u[n] != expected_u:
                ce = Counterexample(n, None, f"u%5={expected_u}", u[n])
                break
            if v[n] != expected_v:
                ce = Counterexample(n, None, f"v%5={expected_v}", v[n])
                break
    elif n0 is not None:
        half = (p - 1) // 2
        if half <= max_n and u[half]:
            ce = Counterexample(half, None, "u%p=0", u[half])
        if ce is None:
            for n in range(n0, max_n + 1):
                if u[n]:
                    ce = Counterexample(n, None, "u%p=0", u[n])
                    break
                if n > n0 and v[n]:
                    ce = Counterexample(n, None, "v%p=0", v[n])
                    break
    else:
        details = f"{_observed_vanishing('u', u)}; {_observed_vanishing('v', v)}"
    return VerificationReport("uv_structure", 0, max_n, p, ce, time.perf_counter() - started, details)


def _observed_vanishing(name: str, residues: list[int]) -> str:
    """The vanishing tail of one residue list x(0..max_n) mod p, as text."""
    max_n = len(residues) - 1
    onset = next((n + 1 for n in range(max_n, -1, -1) if residues[n]), 0)
    if onset > max_n:
        return f"{name}: no vanishing tail up to n={max_n}"
    return f"{name}: residues vanish for {onset} <= n <= {max_n}"


def verify_even_odd_sums(
    cache: SequenceCache, max_n: int = 60
) -> VerificationReport:
    """For 3 <= n <= max_n (default 60) the sums of r(n, k) over even k and over odd k,
    both restricted to n/5 <= k <= n, each vanish mod 5.  The residues are
    the rows of ``build_residue_grid(5, max_n)``: the cache is not read."""
    if max_n < 3:
        raise ValueError(f"max_n must be >= 3, got {max_n}")
    started = time.perf_counter()
    rows = build_residue_grid(5, max_n)
    ce = None
    for n in range(3, max_n + 1):
        lo = -(-n // 5)  # smallest integer k with 5k >= n
        tail = rows[n - 1][lo - 1 :]  # r(n, k) mod 5 for k = lo..n
        from_lo, after_lo = sum(tail[::2]), sum(tail[1::2])
        odd_sum, even_sum = (from_lo, after_lo) if lo & 1 else (after_lo, from_lo)
        if even_sum % 5 != 0:
            ce = Counterexample(n, None, "even-k sum 0", even_sum % 5)
            break
        if odd_sum % 5 != 0:
            ce = Counterexample(n, None, "odd-k sum 0", odd_sum % 5)
            break
    return VerificationReport("even_odd_sums", 3, max_n, 5, ce, time.perf_counter() - started)


def suites() -> dict:
    """Suite name -> (function, primes that a full run checks it at); an empty
    tuple means the suite takes no prime.  Built per call, so a function
    rebound on this module (by a tracer or a test) is the one returned."""
    return {
        "parity": (verify_parity, ()),
        "mod5": (verify_mod5, ()),
        "vanishing": (verify_mod_p_vanishing, (3, 7, 11)),
        "uv": (verify_uv_structure, (5, 3, 7)),
        "sums": (verify_even_odd_sums, ()),
    }


def scan_periodicity(
    cache: SequenceCache, p: int, scan_bound: int
) -> tuple[int, int, tuple[int, ...]] | None:
    """Return ``(preperiod, period, cycle)`` for d(0..scan_bound) mod p, or
    None when no pair leaves two full cycles in the window.  ``cycle[j]`` is
    the residue of every n >= preperiod with n = j (mod period).  The pair has
    the smallest sum, ties to the smaller period; the smallest period alone
    flips with the bound: period 1 after preperiod scan_bound - 1 only says
    that the last two residues agree.

    Only primes p = 1 (mod 4) are accepted; the result is observational
    evidence, not a verified statement about the infinite sequence.
    """
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"p must be a prime congruent to 1 mod 4, got {p}")
    if scan_bound < 4 * p:
        raise ValueError(f"scan_bound must be at least 4p={4 * p}, got {scan_bound}")
    residues = cache.residues("d", p, scan_bound)
    best, best_sum = None, scan_bound + 1  # a confirmed pair sums to <= scan_bound
    for period in range(1, scan_bound // 2 + 1):
        if period >= best_sum:
            break
        preperiod = 0
        for n in range(scan_bound - period, -1, -1):
            if residues[n] != residues[n + period]:
                preperiod = n + 1
                break
        # Confirmed only when two full cycles fit after the preperiod.
        if preperiod + 2 * period - 1 <= scan_bound and preperiod + period < best_sum:
            best, best_sum = (preperiod, period), preperiod + period
    if best is None:
        return None
    preperiod, period = best
    cycle = tuple(
        residues[preperiod + ((j - preperiod) % period)] for j in range(period)
    )
    return preperiod, period, cycle

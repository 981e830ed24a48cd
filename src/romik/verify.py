"""Congruence verification suites over configurable ranges.

Each suite walks one family of congruences from the smallest index upward
and reports pass/fail together with the minimal counterexample when a check
fails (smallest n first, then smallest k).  Suites only read the cache, so
a single cache built to the largest needed bound can serve all of them.
The vanishing and sums suites read r(n, k) mod p from
``SequenceCache.r_residues``, which never forms r; no suite forms the exact
r(n, k).

Each suite function holds its own default bound and argument checks: parity
and mod5 run to 150, vanishing to ``DEFAULT_VANISHING_MAX``, uv to n0 + 20
(p = 3 mod 4) or 40, sums to 60.  ``suites()`` is the one table of suites.

The periodicity scanner for primes p = 1 (mod 4) is exploratory: it reports
the (preperiod, period) with the smallest sum consistent with the scanned
prefix, or nothing, and never asserts that the sequence is in fact periodic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import SequenceCache
from .residues import VanishingThresholds, is_prime

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


def _report(suite, lo, hi, prime, started, ce, details=""):
    return VerificationReport(
        suite=suite,
        lo=lo,
        hi=hi,
        prime=prime,
        counterexample=ce,
        elapsed=time.perf_counter() - started,
        details=details,
    )


def verify_parity(cache: SequenceCache, max_n: int = DEFAULT_MAX_N) -> VerificationReport:
    """d(n) and v(n) odd for 0 <= n <= max_n.

    r(n, k) even for k < n is not checked: no table can break it, since
    r(n, k) = s^(n, k) 2^(E(n) - E(k) + n - k) with the exponent >= n - k >= 1.
    So d(n) = v(n) mod 2, and the content of the suite is that v(n) is odd."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    started = time.perf_counter()
    cache.d(max_n)
    ce = None
    for n in range(max_n + 1):
        if cache.d(n) & 1 == 0:
            ce = Counterexample(n, None, "odd d", f"d({n})={cache.d(n)}")
            break
        if cache.v(n) & 1 == 0:
            ce = Counterexample(n, None, "odd v", f"v({n})={cache.v(n)}")
            break
    return _report("parity", 0, max_n, None, started, ce)


def verify_mod5(cache: SequenceCache, max_n: int = DEFAULT_MAX_N) -> VerificationReport:
    """d(n) alternates 1, 4, 1, 4, ... mod 5 from n = 1 (4 at even n)."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    started = time.perf_counter()
    cache.d(max_n)
    ce = None
    for n in range(1, max_n + 1):
        expected = 1 if n & 1 else 4
        actual = cache.d(n) % 5
        if actual != expected:
            ce = Counterexample(n, None, expected, actual)
            break
    return _report("mod5", 1, max_n, 5, started, ce)


def verify_mod_p_vanishing(
    cache: SequenceCache, p: int, max_n: int | None = None
) -> VerificationReport:
    """For p = 3 (mod 4): d(n) = 0 mod p for all n0 < n <= max_n, together
    with the vanishing of the whole r-submatrix 1 <= k <= n0 < n <= max_n
    that drives it.  Fails if either family has an exception.  ``max_n``
    defaults to ``DEFAULT_VANISHING_MAX`` (n0 + 30 for primes not in it)."""
    n0 = VanishingThresholds.for_prime(p).n0
    if max_n is None:
        max_n = DEFAULT_VANISHING_MAX.get(p, n0 + 30)
    if max_n <= n0:
        raise ValueError(f"max_n must exceed n0={n0}, got {max_n}")
    started = time.perf_counter()
    cache.d(max_n)
    residues = cache.r_residues(p, max_n, n0 + 1, n0)
    ce = None
    for n in range(n0 + 1, max_n + 1):
        if cache.d(n) % p != 0:
            ce = Counterexample(n, None, 0, cache.d(n) % p)
            break
        low = residues[n - n0 - 1]  # r(n, k) mod p for k = 1..n0
        if any(low):
            k = next(k for k, residue in enumerate(low, 1) if residue)
            ce = Counterexample(n, k, 0, low[k - 1])
            break
    return _report("mod_p_vanishing", n0 + 1, max_n, p, started, ce)


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
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if max_n is None:
        max_n = VanishingThresholds.for_prime(p).n0 + 20 if p % 4 == 3 else 40
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    started = time.perf_counter()
    cache.u(max_n)
    cache.v(max_n)
    ce = None
    details = ""
    if p == 5:
        u_prefix, v_prefix = (1, 1, 1), (1, 1, 2)
        for n in range(max_n + 1):
            expected_u = u_prefix[n] if n < 3 else 0
            expected_v = v_prefix[n] if n < 3 else 0
            if cache.u(n) % 5 != expected_u:
                ce = Counterexample(n, None, f"u%5={expected_u}", cache.u(n) % 5)
                break
            if cache.v(n) % 5 != expected_v:
                ce = Counterexample(n, None, f"v%5={expected_v}", cache.v(n) % 5)
                break
    elif p % 4 == 3:
        n0 = VanishingThresholds.for_prime(p).n0
        half = (p - 1) // 2
        if half <= max_n and cache.u(half) % p != 0:
            ce = Counterexample(half, None, "u%p=0", cache.u(half) % p)
        if ce is None:
            for n in range(n0, max_n + 1):
                if cache.u(n) % p != 0:
                    ce = Counterexample(n, None, "u%p=0", cache.u(n) % p)
                    break
                if n > n0 and cache.v(n) % p != 0:
                    ce = Counterexample(n, None, "v%p=0", cache.v(n) % p)
                    break
    else:
        details = _observed_vanishing(cache, p, max_n)
    return _report("uv_structure", 0, max_n, p, started, ce, details)


def _observed_vanishing(cache: SequenceCache, p: int, max_n: int) -> str:
    out = []
    for name in ("u", "v"):
        value = getattr(cache, name)
        onset = None
        for n in range(max_n, -1, -1):
            if value(n) % p != 0:
                onset = n + 1
                break
        else:
            onset = 0
        if onset > max_n:
            out.append(f"{name}: no vanishing tail up to n={max_n}")
        else:
            out.append(f"{name}: residues vanish for {onset} <= n <= {max_n}")
    return "; ".join(out)


def verify_even_odd_sums(
    cache: SequenceCache, max_n: int = 60
) -> VerificationReport:
    """For 3 <= n <= max_n (default 60) the sums of r(n, k) over even k and over odd k,
    both restricted to n/5 <= k <= n, each vanish mod 5."""
    if max_n < 3:
        raise ValueError(f"max_n must be >= 3, got {max_n}")
    started = time.perf_counter()
    residues = cache.r_residues(5, max_n)
    ce = None
    for n in range(3, max_n + 1):
        lo = -(-n // 5)  # smallest integer k with 5k >= n
        tail = residues[n - 1][lo - 1 :]  # r(n, k) mod 5 for k = lo..n
        from_lo, after_lo = sum(tail[::2]), sum(tail[1::2])
        odd_sum, even_sum = (from_lo, after_lo) if lo & 1 else (after_lo, from_lo)
        if even_sum % 5 != 0:
            ce = Counterexample(n, None, "even-k sum 0", even_sum % 5)
            break
        if odd_sum % 5 != 0:
            ce = Counterexample(n, None, "odd-k sum 0", odd_sum % 5)
            break
    return _report("even_odd_sums", 3, max_n, 5, started, ce)


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


@dataclass(frozen=True)
class PeriodScanResult:
    """Outcome of the exploratory residue-period scan for d(n) mod p.

    ``preperiod`` and ``period`` are None when no period could be confirmed
    over at least two full cycles of the scanned prefix.  When present,
    ``residue_cycle[j]`` is the residue shared by all n >= preperiod with
    n = j (mod period)."""

    prime: int
    preperiod: int | None
    period: int | None
    residue_cycle: tuple[int, ...]
    scan_bound: int

    @property
    def conclusive(self) -> bool:
        return self.period is not None


def scan_periodicity(
    cache: SequenceCache, p: int, scan_bound: int
) -> PeriodScanResult:
    """Search d(0..scan_bound) mod p for the (preperiod, period) with the
    smallest sum, ties to the smaller period, among those that leave two
    full cycles in the window.  The smallest period alone flips with the
    bound: period 1 after preperiod scan_bound - 1 only says that the last
    two residues agree.

    Only primes p = 1 (mod 4) are accepted; the result is observational
    evidence, not a verified statement about the infinite sequence.
    """
    if not is_prime(p) or p % 4 != 1:
        raise ValueError(f"p must be a prime congruent to 1 mod 4, got {p}")
    if scan_bound < 4 * p:
        raise ValueError(f"scan_bound must be at least 4p={4 * p}, got {scan_bound}")
    cache.d(scan_bound)
    residues = [cache.d(n) % p for n in range(scan_bound + 1)]
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
        return PeriodScanResult(p, None, None, (), scan_bound)
    preperiod, period = best
    cycle = tuple(
        residues[preperiod + ((j - preperiod) % period)] for j in range(period)
    )
    return PeriodScanResult(p, preperiod, period, cycle, scan_bound)

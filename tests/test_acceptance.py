"""Acceptance suite: one test per criterion, each at its stated range and
with exact (zero-tolerance) comparisons.  Run with

    pytest -s tests/test_acceptance.py

to get one PASS/FAIL line per criterion on stdout.
"""

import time
from itertools import permutations
from math import comb

import pytest

from romik import (
    PartitionFilter,
    SequenceCache,
    binomial_vanishes,
    count_fifth_roots,
    enumerate_partitions,
    factorial_valuation,
    factorial_valuation_by_floor_sum,
    multinomial_count,
    r_mod5_closed_form,
    s_by_partitions,
    s_mod5_single_index,
    single_index_term_valuation,
    vanishing_n0,
    verify_even_odd_sums,
    verify_mod5,
    verify_mod_p_vanishing,
    verify_parity,
)
from romik.cli import main as cli_main

FULL_MAX = 150

D_GOLDEN = [1, 1, -1, 51, 849, -26199, 1341999, 82018251, 18703396449]
U_GOLDEN = [1, 6, 256, 28560, 6071040]
V_GOLDEN = [1, 1, 47, 7395, 2453425, 1399055625]


@pytest.fixture(scope="module")
def big():
    """Cache built once to the largest bound any criterion needs."""
    started = time.perf_counter()
    cache = SequenceCache()
    cache.d(FULL_MAX)
    build_seconds = time.perf_counter() - started
    return cache, build_seconds


def check(number, name, passed, elapsed=None, limit=None):
    status = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"CRITERION {number:02d} {name}: {status}{timing}")
    assert passed, f"criterion {number} ({name}) failed"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"


def test_c01_golden_values():
    started = time.perf_counter()
    cache = SequenceCache()
    d = [cache.d(n) for n in range(9)]
    u = [cache.u(n) for n in range(5)]
    v = [cache.v(n) for n in range(6)]
    elapsed = time.perf_counter() - started
    check(
        1,
        "golden values of d(0..8), u(0..4), v(0..5)",
        d == D_GOLDEN and u == U_GOLDEN and v == V_GOLDEN,
        elapsed,
        limit=1.0,
    )


def test_c02_partition_oracle_equivalence(big):
    cache, _ = big
    started = time.perf_counter()
    ok = all(
        s_by_partitions(n, k, cache) == cache.s(n, k)
        for n in range(1, 16)
        for k in range(1, n + 1)
    )
    elapsed = time.perf_counter() - started
    check(2, "partition sum equals series table for n <= 15", ok, elapsed, limit=60.0)


def test_c03_parity(big):
    cache, build_seconds = big
    started = time.perf_counter()
    report = verify_parity(cache, FULL_MAX)
    elapsed = build_seconds + (time.perf_counter() - started)
    check(
        3,
        "d odd, v odd, r even below the diagonal, n <= 150",
        report.passed,
        elapsed,
        limit=300.0,
    )


def test_c04_mod5_alternation(big):
    cache, _ = big
    started = time.perf_counter()
    report = verify_mod5(cache, FULL_MAX)
    elapsed = time.perf_counter() - started
    check(4, "d(n) alternates 1, 4 mod 5 for 1 <= n <= 150", report.passed, elapsed)


def test_c05_vanishing_mod_p(big):
    cache, build_seconds = big
    started = time.perf_counter()
    direct = all(
        cache.d(n) % p == 0
        for p, hi in ((3, 40), (7, 60), (11, 90))
        for n in range((p * p - 1) // 2 + 1, hi + 1)
    )
    suites = all(
        verify_mod_p_vanishing(cache, p, hi).passed
        for p, hi in ((3, 40), (7, 60), (11, 90))
    )
    elapsed = build_seconds + (time.perf_counter() - started)
    check(
        5,
        "d(n) vanishes mod 3/7/11 beyond (p^2-1)/2",
        direct and suites,
        elapsed,
        limit=300.0,
    )


def test_c06_mod5_closed_forms(big):
    cache, _ = big
    started = time.perf_counter()
    ok = True
    for n in range(1, 61):
        for k in range(1, n + 1):
            closed = r_mod5_closed_form(n, k)
            exact = cache.r(n, k) % 5
            via_sum = pow(2, n - k, 5) * s_mod5_single_index(n, k) % 5
            if not closed == exact == via_sum:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - started
    check(6, "closed form = exact = single-index route mod 5, n <= 60", ok, elapsed)


def test_c07_term_valuation_minimum():
    started = time.perf_counter()
    ok = True
    for n in range(1, 61):
        for k in range(-(-n // 5), n + 1):
            lo, hi = max(0, n - 3 * k), (n - k) // 2
            values = [single_index_term_valuation(n, k, c) for c in range(lo, hi + 1)]
            if min(values) != values[-1] or values.count(values[-1]) != 1:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - started
    check(7, "summand valuation uniquely minimal at the top index, n <= 60", ok, elapsed)


def test_c08_factorial_valuation_oracle():
    started = time.perf_counter()
    ok = all(
        factorial_valuation(n, p) == factorial_valuation_by_floor_sum(n, p)
        for p in (3, 5, 7, 11, 13)
        for n in range(100_001)
    )
    elapsed = time.perf_counter() - started
    check(8, "digit-sum valuation equals floor-sum oracle, n <= 1e5", ok, elapsed, limit=30.0)


def test_c09_fifth_root_counts():
    started = time.perf_counter()
    divisible = all(count_fifth_roots(n) % 5 == 0 for n in range(5, 41))
    brute_ok = True
    for n in range(1, 11):
        count = 0
        for perm in permutations(range(n)):
            if all(perm[perm[perm[perm[perm[i]]]]] == i for i in range(n)):
                count += 1
        if count != count_fifth_roots(n):
            brute_ok = False
            break
    elapsed = time.perf_counter() - started
    check(
        9,
        "5 divides the count of x^5 = 1 solutions; brute force agrees for n <= 10",
        divisible and brute_ok,
        elapsed,
    )


def test_c10_even_odd_sums(big):
    cache, _ = big
    started = time.perf_counter()
    report = verify_even_odd_sums(cache, 60)
    elapsed = time.perf_counter() - started
    check(10, "parity-restricted r sums vanish mod 5 for 3 <= n <= 60", report.passed, elapsed)


def test_c11_uv_vanishing(big):
    cache, _ = big
    started = time.perf_counter()
    ok = True
    for p in (3, 7):
        n0 = vanishing_n0(p)
        if cache.u((p - 1) // 2) % p != 0:
            ok = False
        if any(cache.u(n) % p for n in range(n0, n0 + 21)):
            ok = False
        if any(cache.v(n) % p for n in range(n0 + 1, n0 + 21)):
            ok = False
    elapsed = time.perf_counter() - started
    check(11, "u and v vanish mod 3 and mod 7 past their thresholds", ok, elapsed)


def test_c12_restricted_partition_valuations():
    started = time.perf_counter()
    flt = PartitionFilter.avoiding_prime(3)
    ok = all(
        multinomial_count(lam) % 3 == 0
        for k in range(1, 5)
        for n in range(5, 13)
        for lam in enumerate_partitions(2 * n, 2 * k, flt)
    )
    elapsed = time.perf_counter() - started
    check(
        12,
        "multinomials over the restricted family divisible by 3, k <= 4 < n <= 12",
        ok,
        elapsed,
        limit=60.0,
    )


def test_c13_binomial_window():
    started = time.perf_counter()
    ok = True
    for p in (3, 7, 11):
        square = p * p
        for b in range(square):
            for a in range(square, b + square):
                if not binomial_vanishes(a, b, p) or comb(a, b) % p != 0:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - started
    check(13, "binomials vanish across the whole p^2 window for p = 3, 7, 11", ok, elapsed)


def test_c14_figure_grids(tmp_path):
    started = time.perf_counter()

    def load_grid(prime, max_n):
        out = tmp_path / f"grid{prime}.csv"
        code = cli_main(
            ["grid", "--prime", str(prime), "--max-n", str(max_n),
             "--format", "csv", "--output", str(out)]
        )
        assert code == 0
        entries = {}
        lines = out.read_text().splitlines()
        assert lines[0] == "n,k,residue"
        for line in lines[1:]:
            n, k, value = (int(x) for x in line.split(","))
            entries[(n, k)] = value
        return entries

    grid5 = load_grid(5, 119)
    grid7 = load_grid(7, 59)
    ok = all(grid5[(n, n)] == 1 for n in range(1, 120))
    ok = ok and all(grid7[(n, n)] == 1 for n in range(1, 60))
    ok = ok and all(
        value == 0 for (n, k), value in grid5.items() if n > 5 * k
    )
    ok = ok and all(
        value == 0 for (n, k), value in grid7.items() if k <= 24 < n
    )
    elapsed = time.perf_counter() - started
    check(14, "figure grids: unit diagonal and zero regions mod 5 and 7", ok, elapsed, limit=300.0)

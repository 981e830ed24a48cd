"""Tests for digit sums, factorial valuations, closed-form residues,
five-cycle counts, grid rows and the vanishing threshold n0."""

from itertools import permutations, zip_longest
from math import comb, factorial, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romik import (
    IntegrityError,
    PartitionFilter,
    SequenceCache,
    binomial_vanishes,
    build_residue_grid,
    count_fifth_roots,
    digit_sum,
    factorial_valuation,
    factorial_valuation_by_floor_sum,
    five_cycle_class_size,
    is_prime,
    r_mod5_closed_form,
    residues,
    s_by_partitions,
    s_mod5_single_index,
    single_index_term_valuation,
    vanishing_n0,
)
from romik.cli import _pgm_lines
from romik.core import _exact_quotient, factorial as cached_factorial

PRIMES = (3, 5, 7, 11, 13)


def digit_sum_facts_hold(r, s, p):
    """The base-p digit-sum facts for r, s >= 1 and prime p: subadditivity
    s_p(r+s) <= s_p(r) + s_p(s), with equality exactly when no column of the
    base-p addition carries; the mixed-digit bound
    s_p(r) + s_p(s) >= s_p(s_p(r) + p*s_p(s)); and s_p(mp) = s_p(m) with
    s_p(m) = m exactly for single-digit m, for m in {r, s}."""
    sr, ss = digit_sum(r, p), digit_sum(s, p)
    if digit_sum(r + s, p) > sr + ss:
        return False
    no_carries = all(
        dr + ds <= p - 1
        for dr, ds in zip_longest(_digits(r, p), _digits(s, p), fillvalue=0)
    )
    if (digit_sum(r + s, p) == sr + ss) != no_carries:
        return False
    if sr + ss < digit_sum(sr + p * ss, p):
        return False
    for m in (r, s):
        if digit_sum(m * p, p) != digit_sum(m, p):
            return False
        if (digit_sum(m, p) == m) != (m <= p - 1):
            return False
    return True


def _digits(n, p):
    out = []
    while n:
        n, digit = divmod(n, p)
        out.append(digit)
    return out


class TestDigitSum:
    def test_base_five(self):
        assert digit_sum(100, 5) == 4  # 100 = 400 base 5

    def test_single_digit(self):
        for p in PRIMES:
            assert digit_sum(p - 1, p) == p - 1

    def test_base_itself(self):
        for p in PRIMES:
            assert digit_sum(p, p) == 1

    def test_zero(self):
        assert digit_sum(0, 7) == 0
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            digit_sum(-1, 5)
        with pytest.raises(ValueError, match=r"^base must be >= 2, got 1$"):
            digit_sum(5, 1)

    @given(st.integers(min_value=0, max_value=10**9), st.sampled_from(PRIMES))
    def test_matches_string_expansion(self, n, p):
        total, m = 0, n
        while m:
            total += m % p
            m //= p
        assert digit_sum(n, p) == total


class TestFactorialValuation:
    def test_known_values(self):
        assert factorial_valuation(100, 5) == 24
        assert factorial_valuation(4, 5) == 0
        assert factorial_valuation(25, 5) == 6

    def test_floor_sum_oracle_small(self):
        for p in PRIMES:
            for n in range(0, 2000):
                assert factorial_valuation(n, p) == factorial_valuation_by_floor_sum(n, p)

    @given(st.integers(min_value=0, max_value=10**7), st.sampled_from(PRIMES))
    def test_floor_sum_oracle_random(self, n, p):
        assert factorial_valuation(n, p) == factorial_valuation_by_floor_sum(n, p)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            factorial_valuation(10, 4)
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            factorial_valuation(-1, 5)
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            factorial_valuation_by_floor_sum(-1, 5)


class TestFactorialTable:
    def test_values(self):
        assert [cached_factorial(n) for n in range(251)] == [factorial(n) for n in range(251)]

    def test_memoized(self):
        assert cached_factorial(250) is cached_factorial(250)

    def test_exact_quotient(self):
        assert _exact_quotient(factorial(10), factorial(7), "10!/7!") == 720
        with pytest.raises(IntegrityError, match=r"^s\(7,2\) summand c=1 is not an integer$"):
            _exact_quotient(10, 3, "s(%d,%d) summand c=%d", 7, 2, 1)
        pairs = ((1, 3), (5, 1))
        with pytest.raises(IntegrityError, match=r"^multinomial for \(\(1, 3\), \(5, 1\)\) is not"):
            _exact_quotient(10, 3, "multinomial for %s", pairs)


class TestSingleIndexTermValuation:
    def test_worked_value(self):
        # term for n=3, k=1, c=1 is 6!/(1! 0! 1! 5) = 144, so valuation 0
        assert single_index_term_valuation(3, 1, 1) == 0

    def test_degenerate_range(self):
        # n = k leaves c = 0 as the only index
        assert single_index_term_valuation(4, 4, 0) == 0

    def test_interior_strictly_larger(self):
        assert single_index_term_valuation(6, 2, 0) > single_index_term_valuation(6, 2, 2)

    def test_minimum_at_top_of_range(self):
        for n in range(1, 25):
            for k in range(max(1, -(-n // 5)), n + 1):
                lo, hi = max(0, n - 3 * k), (n - k) // 2
                values = [single_index_term_valuation(n, k, c) for c in range(lo, hi + 1)]
                assert min(values) == values[-1]
                assert values.count(values[-1]) == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            single_index_term_valuation(6, 1, 0)  # n > 5k
        with pytest.raises(ValueError):
            single_index_term_valuation(6, 2, 3)  # c above floor((n-k)/2)
        with pytest.raises(ValueError):
            single_index_term_valuation(10, 3, 0)  # c below n-3k


class TestMod5Forms:
    def test_known_residues(self):
        assert r_mod5_closed_form(3, 1) == 4
        assert r_mod5_closed_form(3, 2) == 0
        assert r_mod5_closed_form(3, 3) == 1
        assert r_mod5_closed_form(2, 1) == 3

    def test_zero_region(self):
        assert r_mod5_closed_form(6, 1) == 0
        assert s_mod5_single_index(6, 1) == 0

    def test_single_index_values(self):
        assert s_mod5_single_index(3, 3) == 1
        assert s_mod5_single_index(2, 1) == 4

    def test_closed_form_vs_single_index(self):
        for n in range(1, 30):
            for k in range(1, n + 1):
                expected = pow(2, n - k, 5) * s_mod5_single_index(n, k) % 5
                assert r_mod5_closed_form(n, k) == expected, (n, k)

    def test_against_exact_table(self, cache):
        for n in range(1, 61):
            for k in range(1, n + 1):
                assert r_mod5_closed_form(n, k) == cache.r(n, k) % 5, (n, k)
                assert s_mod5_single_index(n, k) == cache.s(n, k) % 5, (n, k)

    def test_single_index_matches_per_summand_quotients(self):
        # Reference: each summand as its own big quotient of factorials,
        # with no stepping from one summand to the next.
        def reference(n, k):
            if n > 5 * k:
                return 0
            total = 0
            for c in range(max(0, n - 3 * k), (n - k) // 2 + 1):
                den = factorial(3 * k - n + c) * factorial(n - k - 2 * c) * factorial(c) * 5**c
                term, rem = divmod(factorial(2 * n), den)
                assert rem == 0, (n, k, c)
                total += (-1) ** c * term
            return total % 5

        for n in range(1, 81):
            for k in range(1, n + 1):
                assert s_mod5_single_index(n, k) == reference(n, k), (n, k)

    def test_single_index_step_remainder_raises(self, monkeypatch):
        # With 10! read as 6, s(5,2)'s first summand 6 / (1! 3! 0!) = 1 is exact,
        # and the step to c = 1, 1 * 3 * 2 / (2 * 1 * 5), leaves a remainder.
        monkeypatch.setattr(residues, "factorial", lambda m: 6 if m == 10 else factorial(m))
        with pytest.raises(IntegrityError, match=r"^s\(5,2\) summand c=1 is not an integer$"):
            s_mod5_single_index(5, 2)

    def test_diagonal(self):
        assert all(r_mod5_closed_form(n, n) == 1 for n in range(1, 40))


class TestBinomialVanishes:
    def test_examples(self):
        assert binomial_vanishes(9, 3, 3)
        assert binomial_vanishes(49, 5, 7)
        assert not binomial_vanishes(17, 0, 3)
        with pytest.raises(ValueError, match=r"^need 0 <= b <= a, got a=2, b=3$"):
            binomial_vanishes(2, 3, 5)

    def test_matches_direct_binomial(self):
        for p in (3, 5, 7):
            for a in range(0, 60):
                for b in range(0, a + 1):
                    assert binomial_vanishes(a, b, p) == (comb(a, b) % p == 0)

    def test_window_exhaustive_p3(self):
        p = 3
        for b in range(p * p):
            for a in range(p * p, b + p * p):
                assert binomial_vanishes(a, b, p)


def brute_force_fifth_roots(n):
    count = 0
    for perm in permutations(range(n)):
        if all(perm[perm[perm[perm[perm[i]]]]] == i for i in range(n)):
            count += 1
    return count


class TestFifthRoots:
    def test_class_sizes(self):
        assert five_cycle_class_size(5, 1) == 24
        assert five_cycle_class_size(10, 2) == 72576
        assert all(five_cycle_class_size(n, 0) == 1 for n in range(1, 8))

    def test_class_size_domain(self):
        with pytest.raises(ValueError):
            five_cycle_class_size(9, 2)
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            count_fifth_roots(0)

    def test_counts(self):
        assert count_fifth_roots(4) == 1
        assert count_fifth_roots(5) == 25
        assert count_fifth_roots(10) == 78625

    def test_divisibility(self):
        assert all(count_fifth_roots(n) % 5 == 0 for n in range(5, 41))

    def test_brute_force_small(self):
        for n in range(1, 8):
            assert count_fifth_roots(n) == brute_force_fifth_roots(n)


class TestDigitSumFacts:
    def test_carry_free_pair(self):
        # 4 = 11 and 3 = 10 base 3 add without carries, so digit sums add up
        assert digit_sum_facts_hold(4, 3, 3)
        assert digit_sum(7, 3) == digit_sum(4, 3) + digit_sum(3, 3)

    def test_carry_pair(self):
        assert digit_sum_facts_hold(6, 1, 7)
        assert digit_sum(6 + 1, 7) == 1 < digit_sum(6, 7) + digit_sum(1, 7)

    def test_append_zero_digit(self):
        assert digit_sum(123 * 7, 7) == digit_sum(123, 7)

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
        st.sampled_from(PRIMES),
    )
    def test_holds_generally(self, r, s, p):
        assert digit_sum_facts_hold(r, s, p)


N0_CASES = [(3, 4), (7, 24), (11, 60), (19, 180), (23, 264)] + [
    (p, "p must be 3 mod 4, got %d" % p) for p in (5, 13, 2)
] + [(p, "p must be prime, got %d" % p) for p in (9, 1)]


@pytest.mark.parametrize("p, expected", N0_CASES, ids=[f"p={p}" for p, _ in N0_CASES])
def test_vanishing_n0(p, expected):
    if isinstance(expected, int):
        assert vanishing_n0(p) == expected
    else:
        with pytest.raises(ValueError, match=f"^{expected}$"):
            vanishing_n0(p)


def _r_mod(cache, p, max_n):
    """Rows n = 1..max_n of the exact r(n, k) % p."""
    return [[cache.r(n, k) % p for k in range(1, n + 1)] for n in range(1, max_n + 1)]


class TestResidueGrid:
    """build_residue_grid reads r(n, k) mod p off a per-prime table for every
    prime, with slots as wide as p and max_n need: rows that equal the exact
    r(n, k) % p."""

    def test_entries(self):
        rows = build_residue_grid(5, 10)
        assert rows[2][0] == 4  # r(3, 1) mod 5
        assert all(rows[n - 1][n - 1] == 1 for n in range(1, 11))

    def test_zero_region_mod5(self):
        rows = build_residue_grid(5, 20)
        for n in range(1, 21):
            for k in range(1, n + 1):
                if n > 5 * k:
                    assert rows[n - 1][k - 1] == 0

    def test_pgm_layout(self):
        lines = _pgm_lines(build_residue_grid(7, 3), 6)
        assert lines[:3] == ["P2", "3 3", "6"]
        assert lines[3] == "1 6 6"  # background = maxval fills k > n
        assert lines[4] == "6 1 6"
        assert lines[5] == "3 2 1"

    def test_is_the_r_residues(self, exact150):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 29, 41, 97):
            assert build_residue_grid(p, 150) == _r_mod(exact150, p, 150), p

    def test_longer_grid_keeps_the_shorter_rows(self):
        assert build_residue_grid(5, 300)[:150] == build_residue_grid(5, 150)

    def test_slot_bound(self, exact150, monkeypatch):
        # At max_n = 3 the slots widen from 64 to 128 bits between the largest
        # prime whose slot sums stay below 2^31 and the next one; 65537 to 60
        # takes 128-bit and 2^31 - 1 to 20 takes 192-bit slots.
        max_n = 3
        edge = 1 + isqrt(((1 << 31) - 1) // max_n)
        inside = next(p for p in range(edge, 1, -1) if is_prime(p))
        past = next(p for p in range(edge + 1, 2 * edge) if is_prime(p))
        assert (inside, past) == (26737, 26759)
        cases = [(inside, max_n), (past, max_n), (65537, 60), ((1 << 31) - 1, 20)]
        exact = [_r_mod(exact150, p, n) for p, n in cases]
        widths, made = [], []
        reducer, init = residues._slot_reducer, SequenceCache.__init__
        monkeypatch.setattr(residues, "_slot_reducer",
                            lambda p, bits, width, slots: widths.append(width)
                            or reducer(p, bits, width, slots))
        monkeypatch.setattr(SequenceCache, "__init__", lambda self: made.append(self) or init(self))
        assert [build_residue_grid(p, n) for p, n in cases] == exact
        assert widths == [64, 128, 128, 192]
        assert made == []  # the grid builds no exact table, for any p
        SequenceCache()  # the spy is live
        assert len(made) == 1

    @pytest.mark.parametrize("p, max_n, built", [(4001, 150, 1), (5, 119, 2)])
    def test_pascal_rows_of_the_u_pass_serve_a_window_they_cover(
        self, exact150, monkeypatch, p, max_n, built
    ):
        # For p > 4 max_n no square (1*5*...*(4t-3))^2 vanishes, so the u
        # pass's rows are as wide as the window; at p = 5 the window is wider.
        calls = []
        binomial_rows = residues._binomial_rows
        monkeypatch.setattr(residues, "_binomial_rows",
                            lambda *args: calls.append(args) or binomial_rows(*args))
        assert build_residue_grid(p, max_n) == _r_mod(exact150, p, max_n)
        assert len(calls) == built

    @settings(max_examples=60)
    @given(
        st.sampled_from([2, 3, 5, 7, 127, 32749, 46337, 65537, 1000003, (1 << 31) - 1]),
        st.sampled_from([64, 128, 192]),
        st.data(),
    )
    def test_slot_reducer_is_the_slotwise_residue(self, p, width, data):
        bits = data.draw(st.integers(1, (width - 1) // 2) | st.just((width - 1) // 2))
        top = (1 << bits) - 1
        slots = data.draw(st.lists(st.integers(0, top) | st.sampled_from([0, 1, top]),
                                   min_size=1, max_size=12))
        packed = sum(x << width * j for j, x in enumerate(slots))
        reduced = residues._slot_reducer(p, bits, width, len(slots))(packed)
        assert reduced == sum(x % p << width * j for j, x in enumerate(slots))

    @pytest.mark.parametrize("p, max_n, message", [
        (6, 5, "p must be prime, got 6"),
        (1, 5, "p must be prime, got 1"),
        (5, 0, "max_n must be >= 1, got 0"),
        (1 << 64, 5, f"p must be below 2\\^64, got {1 << 64}"),
        (-5, 5, "p must be prime, got -5"),
    ])
    def test_rejects(self, p, max_n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_residue_grid(p, max_n)


class TestIsPrime:
    def test_basics(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)
        assert is_prime(7919)
        assert not is_prime(7917)


@pytest.mark.parametrize("entry", [
    lambda n, k, cache: cache.s(n, k),
    lambda n, k, cache: r_mod5_closed_form(n, k),
    lambda n, k, cache: s_mod5_single_index(n, k),
    s_by_partitions,
    lambda n, k, cache: s_by_partitions(n, k, cache, PartitionFilter.first_three_odds()),
], ids=["s", "r_mod5_closed_form", "s_mod5_single_index", "s_by_partitions",
        "s_by_partitions_filtered"])
def test_index_guard(entry, cache):
    with pytest.raises(ValueError, match=r"^need 1 <= k <= n, got n=3, k=4$"):
        entry(3, 4, cache)

"""Tests for the exact sequence recurrences and the series-based s-table."""

import hashlib
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from romik import (
    IntegrityError,
    RationalSeries,
    SequenceCache,
    odd_product_squared,
    s_table_by_series,
    theta_series,
)
from romik.cache_io import load_cache, store_cache
from romik.core import _binomial_row

# Published initial segments.
U_VALUES = [1, 6, 256, 28560, 6071040]
V_VALUES = [1, 1, 47, 7395, 2453425, 1399055625]
D_VALUES = [1, 1, -1, 51, 849, -26199, 1341999, 82018251, 18703396449]

# SHA-256 of ",".join(d(0..150)) and of the s rows 1..150, one row per line
# with its values comma-joined.
D_150_SHA256 = "8ce8eab94666689ea20b7f293dcdbd6decafafeb5f372d72db400b61115bbd92"
S_150_SHA256 = "5d93860d78cde1a1218584e852c54e930b21cbab09f6d5ce6360fd3b091e21fc"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestBinomialRow:
    def test_matches_comb(self):
        for n in range(402):
            assert _binomial_row(n) == [comb(n, i) for i in range(n + 1)]


class TestOddProductSquared:
    def test_single_factor(self):
        assert odd_product_squared(1, 3) == 9

    def test_two_factors(self):
        assert odd_product_squared(2, 3) == 441  # (3*7)^2
        assert odd_product_squared(2, 1) == 25  # (1*5)^2

    def test_empty_product(self):
        assert odd_product_squared(0, 1) == 1
        assert odd_product_squared(0, 3) == 1

    def test_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            odd_product_squared(2, 2)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            odd_product_squared(-1, 1)


class TestSequences:
    def test_u_golden(self, cache):
        assert [cache.u(n) for n in range(5)] == U_VALUES

    def test_v_golden(self, cache):
        assert [cache.v(n) for n in range(6)] == V_VALUES

    def test_d_golden(self, cache):
        assert [cache.d(n) for n in range(9)] == D_VALUES

    def test_seeds(self):
        c = SequenceCache()
        assert c.u(0) == c.v(0) == c.d(0) == 1

    def test_d_values_all_odd(self, cache):
        assert all(cache.d(n) & 1 for n in range(26))

    def test_negative_index_rejected(self, cache):
        for f in (cache.u, cache.v, cache.d):
            with pytest.raises(ValueError):
                f(-1)

    def test_u_v_match_definition_when_grown_in_steps(self):
        u_ref, v_ref = [1], [1]
        for n in range(1, 31):
            u_sum = sum(
                comb(2 * n + 1, 2 * m + 1) * odd_product_squared(n - m, 1) * u_ref[m]
                for m in range(n)
            )
            u_ref.append(odd_product_squared(n, 3) - u_sum)
            v_sum = sum(comb(2 * n, 2 * m) * v_ref[m] * v_ref[n - m] for m in range(1, n))
            halved, rem = divmod(v_sum, 2)
            assert rem == 0
            v_ref.append(2 ** (n - 1) * odd_product_squared(n, 1) - halved)
        grown = SequenceCache()
        for n in (1, 2, 7, 30):
            grown.u(n)
            grown.v(n)
        assert grown.known_values("u") == u_ref
        assert grown.known_values("v") == v_ref

    def test_known_count_is_length_of_known_values(self, cache):
        for name in "uvd":
            assert cache.known_count(name) == len(cache.known_values(name))
        for lookup in (cache.known_count, cache.known_values):
            with pytest.raises(ValueError, match="unknown sequence"):
                lookup("s")

    def test_pinned_digests_to_150(self):
        fresh = SequenceCache()
        fresh.d(150)
        assert _sha256(",".join(map(str, fresh.known_values("d")))) == D_150_SHA256
        rows = fresh.known_s_rows()
        assert len(rows) == 150
        assert _sha256("\n".join(",".join(map(str, row)) for row in rows)) == S_150_SHA256

    def test_cold_cache_recomputation_is_identical(self, cache):
        fresh = SequenceCache()
        fresh.build_s_table(12)
        fresh.u(12)
        fresh.d(12)
        assert fresh.known_values("u") == cache.known_values("u")[:13]
        assert fresh.known_values("v") == cache.known_values("v")[:13]
        assert fresh.known_values("d") == cache.known_values("d")[:13]
        assert fresh.known_s_rows() == cache.known_s_rows()[:12]


class TestSTable:
    def test_spec_values(self, cache):
        assert cache.s(1, 1) == 1
        assert cache.s(2, 1) == 24
        assert cache.s(3, 2) == 120
        assert cache.s(3, 1) == 1896

    def test_r_values(self, cache):
        assert cache.r(2, 1) == 48
        assert cache.r(3, 1) == 7584

    def test_diagonal_is_one(self, cache):
        assert all(cache.s(n, n) == 1 for n in range(1, 26))
        assert all(cache.r(n, n) == 1 for n in range(1, 26))

    def test_r_even_below_diagonal(self, cache):
        for n in range(2, 15):
            for k in range(1, n):
                assert cache.r(n, k) % 2 == 0

    def test_rejects_out_of_range(self, cache):
        with pytest.raises(ValueError):
            cache.s(3, 4)
        with pytest.raises(ValueError):
            cache.s(3, 0)

    def test_d_consistent_with_table(self, cache):
        # d(2) = v(2) - r(2,1) d(1) and d(3) = v(3) - r(3,1) d(1) - r(3,2) d(2)
        assert cache.d(2) == 47 - 48 * 1 == -1
        assert cache.d(3) == 7395 - 7584 * 1 - 240 * (-1) == 51

    def test_matches_rational_reference_path(self):
        fresh = SequenceCache()
        fresh.build_s_table(80)
        assert s_table_by_series(80, fresh) == fresh.known_s_rows()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_small_bounds_match_rational_reference_path(self, cache, n):
        assert s_table_by_series(n, cache) == cache.known_s_rows()[:n]

    def test_incremental_growth_matches_bulk(self, cache):
        grown = SequenceCache()
        for n in (3, 9, 17):
            grown.build_s_table(n)
        assert grown.known_s_rows() == cache.known_s_rows()[:17]

        # Growth appends: rows already held are kept as the same objects.
        grown = SequenceCache()
        grown.build_s_table(10)
        held = list(grown._s_rows)
        grown.build_s_table(20)
        assert all(a is b for a, b in zip(grown._s_rows[:10], held, strict=True))
        assert grown.known_s_rows() == cache.known_s_rows()[:20]

        # Growth one row at a time, through ascending d(), gives the same rows.
        grown = SequenceCache()
        for n in range(1, 18):
            grown.d(n)
        assert grown.known_s_rows() == cache.known_s_rows()[:17]

    def test_ascending_d_matches_bulk(self):
        bulk = SequenceCache()
        bulk.build_s_table(60)
        bulk.d(60)
        ascending = SequenceCache()
        assert [ascending.d(n) for n in range(61)] == bulk.known_values("d")
        assert ascending.known_s_rows() == bulk.known_s_rows()

    def test_reloaded_cache_extends_to_bulk(self, tmp_path):
        stored = SequenceCache()
        stored.build_s_table(20)
        stored.d(20)
        store_cache(str(tmp_path), stored)
        reloaded = load_cache(str(tmp_path))
        assert reloaded.s_bound == 20
        # Each growth indexes the rows it finds held: restored, then restored
        # and appended.
        reloaded.d(30)
        assert reloaded.s_bound == 30
        reloaded.d(40)
        bulk = SequenceCache()
        bulk.build_s_table(40)
        bulk.d(40)
        assert reloaded.known_s_rows() == bulk.known_s_rows()
        for name in "uvd":
            assert reloaded.known_values(name)[:41] == bulk.known_values(name)[:41]

    def test_edited_row_fails_exact_division_on_growth(self, cache):
        rows = [list(row) for row in cache.stored_s_rows()[:10]]
        rows[9][4] += 1  # the held entry s^(10, 5) + 1, i.e. s(10, 5) + 2^(E(10) - E(5))
        edited = SequenceCache.from_stored(u=cache.known_values("u")[:10], s_rows=rows)
        with pytest.raises(IntegrityError, match="not an integer"):
            edited.build_s_table(16)


def _v2(x):
    """The exponent of 2 in the nonzero integer x, read off its trailing zero bits."""
    return (x & -x).bit_length() - 1


def _e(n):
    """E(n) = v2((2n)!)."""
    return _v2(factorial(2 * n))


class TestNormalizedTable:
    """The s-table is held as s^(n, k) = s(n, k) >> (E(n) - E(k))."""

    def test_stored_entries_shift_back_to_s(self):
        fresh = SequenceCache()
        fresh.build_s_table(80)
        rows = fresh.stored_s_rows()
        known = fresh.known_s_rows()
        for n in range(1, 81):
            assert known[n - 1] == [x << (_e(n) - _e(k)) for k, x in enumerate(rows[n - 1], 1)]
            for k in range(1, n + 1):
                assert fresh.s(n, k) == fresh._s_rows[n - 1][k - 1] << (_e(n) - _e(k))
                assert fresh.r(n, k) == fresh.s(n, k) << (n - k)

    def test_shift_is_attained_in_every_column(self):
        # v2(s(n, k)) = E(n) - E(k) where the stored entry is odd.  The
        # diagonal s^(k, k) = 1 attains it in every column; below the
        # diagonal, within n <= 80, all columns k < 80 but six attain it too.
        fresh = SequenceCache()
        fresh.build_s_table(80)
        rows = fresh.stored_s_rows()
        assert all(rows[k - 1][k - 1] == 1 for k in range(1, 81))
        unattained = [k for k in range(1, 80) if not any(rows[n - 1][k - 1] & 1 for n in range(k + 1, 81))]
        assert unattained == [32, 64, 72, 76, 78, 79]

    def test_u_carries_the_factorial_two_power(self):
        fresh = SequenceCache()
        fresh.u(300)
        for j, u in enumerate(fresh.known_values("u")):
            assert _v2(u) >= _v2(factorial(2 * j + 1)), j

    def test_edited_u_fails_the_h_two_power_check(self, cache):
        u = cache.known_values("u")[:4]
        u[3] += 1  # moves h(4) by 2 * C(8, 1) = 16, short of 2^E(4) = 2^7
        edited = SequenceCache.from_stored(u=u)
        with pytest.raises(IntegrityError, match=r"h\(4\) / 2\^7 is not an integer"):
            edited.build_s_table(4)

    def test_stored_rows_are_the_held_rows(self, cache):
        rows = cache.stored_s_rows()
        assert rows is not cache._s_rows
        assert all(a is b for a, b in zip(rows, cache._s_rows, strict=True))

    def test_from_stored_takes_rows_as_held(self, cache):
        rows = cache.stored_s_rows()[:12]
        restored = SequenceCache.from_stored(u=cache.known_values("u"), s_rows=rows)
        assert restored.stored_s_rows() == rows
        assert restored.known_s_rows() == cache.known_s_rows()[:12]

    def test_from_stored_keeps_the_given_rows(self, cache):
        rows = cache.stored_s_rows()[:12]
        restored = SequenceCache.from_stored(s_rows=rows)
        assert restored._s_rows is not rows
        assert all(a is b for a, b in zip(restored._s_rows, rows, strict=True))


class TestResidueReader:
    """r_residues reads r(n, k) mod p from the held table, never forming r."""

    @pytest.fixture(scope="class")
    def table(self):
        fresh = SequenceCache()
        fresh.build_s_table(150)
        return fresh

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 19, 2**61 - 1])
    def test_equals_exact_r_reduced(self, table, p):
        expected = [[table.r(n, k) % p for k in range(1, n + 1)] for n in range(1, 151)]
        assert table.r_residues(p, 150) == expected

    def test_grows_a_restored_cache(self, table):
        restored = SequenceCache.from_stored(
            u=table.known_values("u")[:20], s_rows=table.stored_s_rows()[:20]
        )
        assert restored.r_residues(7, 40) == table.r_residues(7, 40)
        assert restored.stored_s_rows() == table.stored_s_rows()[:40]

    @pytest.mark.parametrize(
        "p, lo, max_n, max_k",
        [(3, 5, 40, 4), (7, 25, 60, 24), (5, 1, 30, None), (2, 10, 30, 40), (11, 30, 30, 1)],
    )
    def test_window_is_a_slice_of_the_full_rows(self, table, p, lo, max_n, max_k):
        full = table.r_residues(p, max_n)
        expected = [row[:max_k] for row in full[lo - 1 :]]
        assert table.r_residues(p, max_n, lo, max_k) == expected

    def test_empty_bound_and_bad_modulus(self):
        fresh = SequenceCache()
        assert fresh.r_residues(5, 0) == []
        assert fresh.s_bound == 0
        for p in (1, 0, -3):
            with pytest.raises(ValueError, match="p must be >= 2"):
                fresh.r_residues(p, 3)
        with pytest.raises(ValueError, match="lo >= 1"):
            fresh.r_residues(5, 3, 0)


class TestThetaSeries:
    def test_order_one(self, cache):
        assert theta_series(1, cache).coefficients == [0, 1]

    def test_order_three(self, cache):
        assert theta_series(3, cache).coefficients == [0, 1, 0, 1]

    def test_fifth_coefficient(self, cache):
        assert theta_series(5, cache).coefficient(5) == Fraction(32, 15)

    def test_even_coefficients_vanish(self, cache):
        series = theta_series(12, cache)
        assert all(series.coefficient(m) == 0 for m in range(0, 13, 2))

    def test_general_coefficient(self, cache):
        series = theta_series(9, cache)
        for j in range(5):
            assert series.coefficient(2 * j + 1) == Fraction(
                cache.u(j), factorial(2 * j + 1)
            )

    def test_order_zero_rejected(self, cache):
        with pytest.raises(ValueError):
            theta_series(0, cache)


# Rationals with small, often repeated denominators; many of them are zero.
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
)


class TestRationalSeries:
    def test_mul_truncates_at_smaller_order(self):
        a = RationalSeries([Fraction(1), Fraction(1), Fraction(1)], 2)
        b = RationalSeries([Fraction(1), Fraction(1)], 1)
        prod = a * b
        assert prod.truncation_order == 1
        assert prod.coefficients == [Fraction(1), Fraction(2)]

    @given(
        a=st.lists(RATIONALS, min_size=1, max_size=12),
        b=st.lists(RATIONALS, min_size=1, max_size=12),
    )
    def test_mul_matches_naive_convolution(self, a, b):
        order = min(len(a), len(b)) - 1
        expected = [
            sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0))
            for m in range(order + 1)
        ]
        prod = RationalSeries(a, len(a) - 1) * RationalSeries(b, len(b) - 1)
        assert prod.truncation_order == order
        assert prod.coefficients == expected
        assert all(type(c) is Fraction for c in prod.coefficients)

    @staticmethod
    def _assert_lowest_terms(series):
        assert series.denominator > 0
        assert gcd(series.denominator, *series.numerators) == 1
        assert len(series.numerators) == series.truncation_order + 1

    @given(
        a=st.lists(RATIONALS, min_size=1, max_size=12),
        b=st.lists(RATIONALS, min_size=1, max_size=12),
    )
    def test_held_in_lowest_terms(self, a, b):
        x, y = RationalSeries(a, len(a) - 1), RationalSeries(b, len(b) - 1)
        for series in (x, y, x * y):
            self._assert_lowest_terms(series)

    def test_zero_series_product(self):
        zero = RationalSeries([Fraction(0)] * 4, 3)
        other = RationalSeries([Fraction(1, 3), Fraction(-2, 5), Fraction(7), Fraction(1, 2)], 3)
        for prod in (zero * other, other * zero, zero * zero):
            assert prod.coefficients == [0, 0, 0, 0]
            assert (prod.numerators, prod.denominator) == ([0, 0, 0, 0], 1)

    def test_leading_zeros_past_the_truncation_order(self):
        # z^3 * z^2 lands on z^5, beyond order 4: nothing survives
        a = RationalSeries([0, 0, 0, Fraction(2, 3), 1], 4)
        b = RationalSeries([0, 0, Fraction(5, 7), 0, 0, 1], 5)
        prod = a * b
        assert prod.truncation_order == 4
        assert (prod.numerators, prod.denominator) == ([0] * 5, 1)
        # z^1 * z^2 lands on z^3 and z^4, the last powers kept
        c = RationalSeries([0, Fraction(1, 2), Fraction(1, 3), 0, 0], 4)
        assert (c * b).coefficients == [0, 0, 0, Fraction(5, 14), Fraction(5, 21)]

    def test_negative_coefficients(self):
        a = RationalSeries([Fraction(-1, 2), Fraction(3, 4), Fraction(-5, 6)], 2)
        b = RationalSeries([Fraction(-2, 3), Fraction(-1, 9), Fraction(4)], 2)
        assert (a * b).coefficients == [
            Fraction(1, 3),
            Fraction(1, 18) - Fraction(1, 2),
            Fraction(-2) - Fraction(1, 12) + Fraction(5, 9),
        ]
        self._assert_lowest_terms(a * b)

    def test_exact_equality(self):
        a = RationalSeries([Fraction(2, 4)], 0)
        b = RationalSeries([Fraction(1, 2)], 0)
        assert a == b

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RationalSeries([Fraction(1)], 3)

    def test_coefficient_out_of_range(self):
        series = RationalSeries([Fraction(1), Fraction(0)], 1)
        with pytest.raises(IndexError):
            series.coefficient(2)


class TestInvariants:
    @given(st.integers(min_value=1, max_value=300))
    def test_even_binomial_halving_identity(self, n):
        # sum over even lower indices of C(2n, .) is half of 2^(2n)
        assert sum(comb(2 * n, 2 * m) for m in range(n + 1)) == 1 << (2 * n - 1)

    def test_v_halved_sum_is_exact(self):
        # the even-sum integrity check never fires on genuine input
        c = SequenceCache()
        assert c.v(20) % 2 == 1

    def test_integrity_error_is_arithmetic_error(self):
        assert issubclass(IntegrityError, ArithmeticError)

"""Tests for the exact sequence recurrences and the series-based s-table."""

import hashlib
from fractions import Fraction
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import romik
from romik import IntegrityError, SequenceCache, s_table_by_series
from romik.cache_io import load_cache, store_cache
from romik.core import StoredValueError, _binomial_row, _truncated_product

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


def odd_product_squared(n, offset):
    """Square of offset * (offset+4) * ... * (4n - (4-offset)), offset 1 or 3;
    1 for n = 0.  The u and v recurrences carry these products themselves."""
    if offset not in (1, 3):
        raise ValueError(f"offset must be 1 or 3, got {offset}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return prod(range(offset, 4 * n, 4)) ** 2


def test_public_names_resolve():
    assert len(set(romik.__all__)) == len(romik.__all__)
    assert [name for name in romik.__all__ if not hasattr(romik, name)] == []


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
        # v sums its symmetric terms once; steps of both parities check the
        # odd and the even (middle-term) case against the full sum.
        u_ref, v_ref = [1], [1]
        for n in range(1, 61):
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
        for n in (1, 2, 7, 30, 31, 60):
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

    def test_reference_matches_naive_powers_of_f(self, cache):
        # f^(2k) by repeated Fraction convolution, independent of both routes.
        max_n = 10
        f = [Fraction(0)] * (2 * max_n + 1)
        for j in range(max_n):
            f[2 * j + 1] = Fraction(cache.u(j), factorial(2 * j + 1))
        naive = [[] for _ in range(max_n)]
        power = [Fraction(1)] + [Fraction(0)] * (2 * max_n)
        for e in range(1, 2 * max_n + 1):
            power = [sum(power[i] * f[m - i] for i in range(m + 1)) for m in range(2 * max_n + 1)]
            if e % 2 == 0:
                k = e // 2
                for n in range(k, max_n + 1):
                    s = power[2 * n] * factorial(2 * n) / factorial(2 * k)
                    assert s.denominator == 1
                    naive[n - 1].append(int(s))
        for n in range(1, max_n + 1):
            assert s_table_by_series(n, cache) == naive[:n]

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


    def test_from_stored_checks_each_row_it_takes(self, cache):
        rows = [list(row) for row in cache.stored_s_rows()[:6]]
        rows[4][4] = 3
        with pytest.raises(StoredValueError, match=r"s\(5,5\) = 3, expected 1"):
            SequenceCache.from_stored(s_rows=rows)
        with pytest.raises(StoredValueError, match="s-table row 3 has 2 entries"):
            SequenceCache.from_stored(s_rows=[[1], [6, 1], [237, 1]])
        # Rows handed over with their count are taken, and checked, when read.
        waiting = SequenceCache.from_stored(s_rows=iter(rows), s_count=6)
        assert waiting.s_bound == 6
        assert waiting.s(4, 2) == cache.s(4, 2)
        with pytest.raises(StoredValueError, match=r"s\(5,5\) = 3, expected 1"):
            waiting.s(6, 1)


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


class TestSeriesReference:
    """s_table_by_series reads only u: f = sum_j u(j)/(2j+1)! z^(2j+1)."""

    def test_bound_one(self, cache):
        assert s_table_by_series(1, cache) == [[1]]

    def test_two_rows(self, cache):
        rows = s_table_by_series(2, cache)
        assert rows == [[1], [24, 1]]
        assert all(type(x) is int for row in rows for x in row)

    def test_reads_u_only_to_the_bound(self):
        fresh = SequenceCache()
        s_table_by_series(12, fresh)
        assert fresh.known_count("u") == 12
        assert fresh.s_bound == 0

    def test_bound_zero_rejected(self, cache):
        with pytest.raises(ValueError):
            s_table_by_series(0, cache)


class TestThetaSeries:
    """f's coefficient of z^(2j+1) is u(j)/(2j+1)!, and s(n, 1) = (2n)!/2 [z^(2n)] f^2."""

    def test_fifth_coefficient(self, cache):
        # u(1)/3! = 1 and u(2)/5! = 32/15, so s(3, 1) = 6!/2 (2 * 32/15 + 1).
        assert Fraction(cache.u(2), factorial(5)) == Fraction(32, 15)
        assert s_table_by_series(3, cache)[2][0] == 1896 == 360 * (Fraction(64, 15) + 1)

    def test_general_coefficient(self, cache):
        rows = s_table_by_series(9, cache)
        f = [Fraction(cache.u(j), factorial(2 * j + 1)) for j in range(9)]
        for n in range(1, 10):
            f2 = sum(f[i] * f[n - 1 - i] for i in range(n))  # [z^(2n)] f^2
            assert rows[n - 1][0] == f2 * factorial(2 * n) / 2


# Numerators and denominators with small, often shared factors; many
# numerators are zero.
NUMERATORS = st.lists(
    st.one_of(st.just(0), st.integers(min_value=-50, max_value=50)), min_size=0, max_size=12
)
DENOMINATORS = st.integers(min_value=1, max_value=30)


def _product(a, da, b, db):
    """_truncated_product of a / da and b / db, as Fractions."""
    nums, den = _truncated_product(a, b, da * db)
    assert den > 0
    assert gcd(den, *nums) == 1
    return [Fraction(x, den) for x in nums]


class TestRationalSeries:
    """Rational series as the reference carries them, integer numerators
    over one denominator, multiplied by ``_truncated_product``."""

    def test_mul_truncates_at_smaller_order(self):
        assert _product([1, 1, 1], 1, [1, 1], 1) == [Fraction(1), Fraction(2)]
        assert _product([1, 1], 1, [1, 1, 1], 1) == [Fraction(1), Fraction(2)]

    @given(a=NUMERATORS, da=DENOMINATORS, b=NUMERATORS, db=DENOMINATORS, same=st.booleans())
    def test_mul_matches_naive_convolution(self, a, da, b, db, same):
        if same:  # the very same list object takes the square path
            b, db = a, da
        x = [Fraction(c, da) for c in a]
        y = [Fraction(c, db) for c in b]
        expected = [
            sum((x[i] * y[m - i] for i in range(m + 1)), Fraction(0))
            for m in range(min(len(a), len(b)))
        ]
        assert _product(a, da, b, db) == expected

    @given(a=NUMERATORS, da=DENOMINATORS, b=NUMERATORS, db=DENOMINATORS)
    def test_held_in_lowest_terms(self, a, da, b, db):
        nums, den = _truncated_product(a, b, da * db)
        assert len(nums) == min(len(a), len(b))
        assert den > 0 and da * db % den == 0
        assert gcd(den, *nums) == 1

    def test_zero_series_product(self):
        zero = [0] * 4
        other = [10, -12, 210, 15]  # 1/3, -2/5, 7, 1/2 over 30
        for a, b in ((zero, other), (other, zero), (zero, zero)):
            assert _truncated_product(a, b, 30) == ([0, 0, 0, 0], 1)

    def test_leading_zeros_past_the_truncation_order(self):
        # z^3 * z^2 lands on z^5, beyond order 4: nothing survives
        a = [0, 0, 0, 14, 21]  # 2/3 z^3 + z^4 over 21
        b = [0, 0, 5, 0, 0, 7]  # 5/7 z^2 + z^5 over 7
        assert _truncated_product(a, b, 21 * 7) == ([0] * 5, 1)
        # z^1 * z^2 lands on z^3 and z^4, the last powers kept
        c = [0, 3, 2, 0, 0]  # 1/2 z + 1/3 z^2 over 6
        assert _product(c, 6, b, 7) == [0, 0, 0, Fraction(5, 14), Fraction(5, 21)]

    def test_negative_coefficients(self):
        a = [-6, 9, -10]  # -1/2, 3/4, -5/6 over 12
        b = [-6, -1, 36]  # -2/3, -1/9, 4 over 9
        assert _product(a, 12, b, 9) == [
            Fraction(1, 3),
            Fraction(1, 18) - Fraction(1, 2),
            Fraction(-2) - Fraction(1, 12) + Fraction(5, 9),
        ]

    def test_exact_equality(self):
        # Lowest terms make equal values equal representations.
        assert _truncated_product([2], [1], 4) == _truncated_product([1], [1], 2) == ([1], 2)

    def test_square_matches_product_of_equal_copies(self):
        a = [6, -15, 0, 10, -3, 21, 4]
        assert _truncated_product(a, a, 36) == _truncated_product(a, list(a), 36)


class TestInvariants:
    @given(st.integers(min_value=1, max_value=300))
    def test_even_binomial_halving_identity(self, n):
        # sum over even lower indices of C(2n, .) is half of 2^(2n)
        assert sum(comb(2 * n, 2 * m) for m in range(n + 1)) == 1 << (2 * n - 1)

    def test_integrity_error_is_arithmetic_error(self):
        assert issubclass(IntegrityError, ArithmeticError)

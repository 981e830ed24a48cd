"""Tests for the exact sequence recurrences and the series-based s-table."""

import errno
import hashlib
import os
import threading
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import romik
from romik import IntegrityError, SequenceCache, s_table_by_series
from romik import cli, core
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

    def test_a_d_read_grows_v_once(self, monkeypatch):
        # d(40) grows v inside its one lockstep build, by one run of v's step
        # (its odd product carried from index to index), never through v().
        started = []
        steps = core._v_steps

        def spy(v):
            started.append(len(v))
            return steps(v)

        def reader(self, n):
            raise AssertionError("v() called")

        monkeypatch.setattr(core, "_v_steps", spy)
        monkeypatch.setattr(SequenceCache, "v", reader)
        fresh = SequenceCache()
        fresh.d(40)
        assert started == [1]
        assert fresh.known_count("v") == 41

    def test_an_s_table_build_grows_neither_v_nor_d(self):
        fresh = SequenceCache()
        fresh.build_s_table(40)
        assert [fresh.known_count(name) for name in "uvd"] == [40, 1, 1]
        assert fresh.s_bound == 40

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

    def test_e_is_the_legendre_valuation(self):
        # core's E(n) = 2n - (binary digit sum of n), against v2((2n)!) by Legendre.
        expected = [romik.factorial_valuation(2 * n, 2) for n in range(301)]
        assert [romik.core._e(n) for n in range(301)] == expected

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

    def test_a_diagonal_other_than_one_fails_the_build(self):
        # With u(0) = 3, h(1) = C(2, 1) u(0)^2 = 18 passes the 2^E(1) = 2
        # check, and row 1 comes out [9].
        edited = SequenceCache()
        edited._u[0] = 3
        with pytest.raises(IntegrityError, match=r"^s\(1,1\) = 9, expected 1$"):
            edited.build_s_table(1)

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


@contextmanager
def _reaped_forks():
    """Yields the list of the children os.fork makes inside; on leaving,
    even by an exception, checks that each has been reaped and that this
    process has no child left at all."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(os, "fork", recorded)
        try:
            yield pids
        finally:
            for pid in [*pids, -1]:
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)


def _build(grow, max_n, split, forked=True):
    """grow(max_n), cache.build_s_table or cache.d, with the split forced:
    0 builds in this process alone, K forks a child for columns K+1.. of
    every new row, and a schedule, a function, gives K(n) = split(n, first)
    for each new row n, first the first of them.  forked=False expects no
    child even so, where os.fork or os.pipe fails."""

    def schedule(first, last, lockstep):
        if callable(split):
            return [split(n, first) for n in range(first, last + 1)]
        return [split] * (last - first + 1) if split else []

    with pytest.MonkeyPatch.context() as patched, _reaped_forks() as pids:
        patched.setattr(core, "_split_column", schedule)
        try:
            grow(max_n)
        finally:
            assert len(pids) == (split != 0 and forked)


def _every_row(n, first):
    """The boundary from column 1 on the first new row, one column on at every row."""
    return n - first + 1


def _every_other_row(n, first):
    """The boundary from column 1 on the first new row, one column on at every other row."""
    return 1 + (n - first) // 2


def _moving(k, at):
    """The boundary at column k, one column on at row at - 1 and one more at row at."""
    return lambda n, first: k + min(2, max(0, n - at + 2))


MOVING = [pytest.param(_every_row, id="every-row"), pytest.param(_every_other_row, id="every-other-row")]


def _check_schedule(split, first, last):
    """split is K(first..last): within 1..n, never back, at most one column a row."""
    assert len(split) == last - first + 1
    assert all(1 <= k <= n for n, k in enumerate(split, first))
    assert all(b - a in (0, 1) for a, b in zip(split, split[1:]))


def _tables(cache):
    """Everything the cache holds: its s rows as held, then u, v and d."""
    return cache.stored_s_rows(), *(cache.known_values(name) for name in "uvd")


def _fails(make, max_n, split, read="build_s_table"):
    """The text of the IntegrityError that a forced-split build of make(),
    through its method read, raises, and the tables it left held."""
    cache = make()
    with pytest.raises(IntegrityError) as caught:
        _build(getattr(cache, read), max_n, split)
    return str(caught.value), _tables(cache)


def _edited_entry(cache):
    """Rows 1..10 and u held, s^(10, 5) + 1: it passes at row 11 and fails
    exact division further out, at row 16 or below."""
    rows = [list(row) for row in cache.stored_s_rows()[:10]]
    rows[9][4] += 1
    return SequenceCache.from_stored(u=cache.known_values("u")[:10], s_rows=rows)


def _interrupted():
    """A build split at 5 interrupted in its own part of row 12: the child
    still waits for rows that will not come, so the build must kill it to
    reap it."""
    head = core._head

    def failing(u, e, cols, n, split):
        if n == 12:
            raise KeyboardInterrupt
        return head(u, e, cols, n, split)

    with pytest.MonkeyPatch.context() as patched, pytest.raises(KeyboardInterrupt):
        patched.setattr(core, "_head", failing)
        _build(SequenceCache().build_s_table, 20, 5)


def _can_split():
    return len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1


@pytest.fixture(scope="module")
def split150():
    """Rows 1..150 built from empty at the split the code picks."""
    fresh = SequenceCache()
    with _reaped_forks() as pids:
        fresh.build_s_table(150)
    if _can_split():
        assert len(pids) == 1
    return fresh


class TestSplitBuild:
    """A build may fork a child for the columns past a split; the rows, the
    first failure and the tables held after it are the serial build's."""

    def test_from_empty_to_150_at_the_picked_split(self, split150):
        if _can_split():
            split = core._split_column(1, 150, False)
            _check_schedule(split, 1, 150)
            assert (split[0], split[-1]) == (1, 29)
        rows = split150.known_s_rows()
        assert _sha256("\n".join(",".join(map(str, row)) for row in rows)) == S_150_SHA256
        assert split150.known_count("v") == split150.known_count("d") == 1

    @pytest.mark.parametrize("max_n", [3, 17, 40])
    @pytest.mark.parametrize("split", [2, 5, -1, *MOVING])
    def test_forced_splits_match_serial(self, max_n, split):
        serial, forked = SequenceCache(), SequenceCache()
        _build(serial.build_s_table, max_n, 0)
        _build(forked.build_s_table, max_n, max_n - 1 if split == -1 else split)
        assert _tables(forked) == _tables(serial)

    def test_growing_from_held_rows(self):
        serial = SequenceCache()
        _build(serial.build_s_table, 40, 0)
        for split in (9, _every_row, _every_other_row):
            grown = SequenceCache()
            _build(grown.build_s_table, 20, 0)
            held = list(grown._s_rows)
            _build(grown.build_s_table, 40, split)
            assert all(a is b for a, b in zip(grown._s_rows[:20], held, strict=True))
            assert grown.stored_s_rows() == serial.stored_s_rows(), split

    def test_growing_a_cache_with_waiting_rows(self, split150):
        rows = split150.stored_s_rows()
        for split in (9, _every_row, _every_other_row):
            restored = SequenceCache.from_stored(
                u=split150.known_values("u")[:20], s_rows=iter(rows[:20]), s_count=20
            )
            _build(restored.build_s_table, 40, split)
            assert restored.stored_s_rows() == rows[:40], split

    def test_a_failing_entry_raises_what_the_serial_build_raises(self, cache):
        def make():
            return _edited_entry(cache)

        text, held = _fails(make, 16, 0)
        row, column = map(int, text[2:].split(")")[0].split(","))
        splits = range(2, 16)
        # The failing entry falls in this process's columns and in the child's.
        assert min(splits) < column <= max(splits)
        for split in splits:
            assert _fails(make, 16, split) == (text, held), split
        # The boundary moves on the failing row and on the row before or after it.
        for at in (row, row + 1):
            for k in range(1, 14):
                assert _fails(make, 16, _moving(k, at)) == (text, held), (k, at)

    @pytest.mark.parametrize("child_fails_too", [False, True])
    def test_a_failing_h_check_raises_what_the_serial_build_raises(self, cache, child_fails_too):
        u = cache.known_values("u")[:4]
        u[3] += 1  # h(4) is off by 16, short of 2^E(4) = 2^7
        rows = [list(row) for row in cache.stored_s_rows()[:3]]
        if child_fails_too:
            # s^(3, 2) + 1 moves the sum for s(4, 3) by C^(4, 1) = 7, not a
            # multiple of 15: with the split at 2 the child fails in row 4 too.
            rows[2][1] += 1
            with pytest.raises(IntegrityError, match=r"^s\(4,3\) is not an integer$"):
                SequenceCache.from_stored(u=u[:3], s_rows=rows).build_s_table(4)

        def make(held_rows=3):
            return SequenceCache.from_stored(u=u, s_rows=[list(row) for row in rows[:held_rows]])

        text, held = _fails(make, 8, 0)
        assert text == "h(4) / 2^7 is not an integer"
        for split in (2, 3, 5):
            assert _fails(make, 8, split) == (text, held)
        if not child_fails_too:
            # Rows 2 and 3 built again are the held ones, and the boundary
            # can move on rows 3, 4 and 5.
            for at in (4, 5):
                for k in (1, 2, 3):
                    assert _fails(lambda: make(1), 8, _moving(k, at)) == (text, held), (k, at)

    def test_a_diagonal_other_than_one_raises_what_the_serial_build_raises(self):
        def make():
            edited = SequenceCache()
            edited._u[0] = 3
            return edited

        text, held = _fails(make, 6, 0)
        assert text == "s(1,1) = 9, expected 1"
        for split in (2, 3, 5):
            assert _fails(make, 6, split) == (text, held)

    def test_an_error_of_its_own_kills_the_child(self):
        _interrupted()


class TestForkSelection:
    """Where a build must not fork, it builds in this process alone."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        def fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", fork)

    def test_one_cpu(self, split150, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        fresh = SequenceCache()
        fresh.build_s_table(150)
        assert fresh.stored_s_rows() == split150.stored_s_rows()

    def test_another_thread_alive(self, split150):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            fresh = SequenceCache()
            fresh.build_s_table(150)
        finally:
            release.set()
            waiter.join()
        assert fresh.stored_s_rows() == split150.stored_s_rows()

    def test_small_call(self, split150):
        rows = split150.stored_s_rows()
        grown = SequenceCache.from_stored(u=split150.known_values("u")[:149], s_rows=rows[:149])
        grown.build_s_table(150)
        assert grown.stored_s_rows() == rows


@pytest.fixture(scope="module")
def lockstep150():
    """u, v, d and the rows to 150, grown by d(150) from empty at the split
    the code picks."""
    fresh = SequenceCache()
    with _reaped_forks() as pids:
        fresh.d(150)
    if _can_split():
        assert len(pids) == 1
    return fresh


class TestLockstepBuild:
    """d(n) grows u, the rows, v and d in one loop, split or not: u(n-1),
    row n, v(n), d(n) in that order, and a failure raises and leaves what
    the serial loop raises and leaves."""

    def test_from_empty_to_150_at_the_picked_split(self, lockstep150):
        if _can_split():
            split = core._split_column(1, 150, True)
            _check_schedule(split, 1, 150)
            assert (split[0], split[-1]) == (1, 27)
        serial = SequenceCache()
        _build(serial.d, 150, 0)
        assert _tables(lockstep150) == _tables(serial)
        assert [lockstep150.known_count(name) for name in "uvd"] == [150, 151, 151]
        assert _sha256(",".join(map(str, lockstep150.known_values("d")))) == D_150_SHA256

    @pytest.mark.parametrize("max_n", [3, 17, 40])
    @pytest.mark.parametrize("split", [2, 5, -1, *MOVING])
    def test_forced_splits_match_serial(self, max_n, split):
        serial, forked = SequenceCache(), SequenceCache()
        _build(serial.d, max_n, 0)
        _build(forked.d, max_n, max_n - 1 if split == -1 else split)
        assert _tables(forked) == _tables(serial)

    @pytest.mark.parametrize("split", [0, 9, *MOVING])
    @pytest.mark.parametrize("v_to, d_to", [(20, 20), (14, 10), (10, 14)])
    def test_growing_a_restored_cache(self, lockstep150, split, v_to, d_to):
        # v and d may lag the 20 restored rows, and either may lag the other.
        rows = lockstep150.stored_s_rows()
        restored = SequenceCache.from_stored(
            u=lockstep150.known_values("u")[:20],
            v=lockstep150.known_values("v")[: v_to + 1],
            d=lockstep150.known_values("d")[: d_to + 1],
            s_rows=iter(rows[:20]),
            s_count=20,
        )
        _build(restored.d, 40, split)
        grown = rows[:40], *(lockstep150.known_values(name)[:n] for name, n in zip("uvd", (40, 41, 41)))
        assert _tables(restored) == grown

    def test_a_planted_even_d_raises_what_the_serial_loop_raises(self, lockstep150):
        v = lockstep150.known_values("v")[:41]
        v[12] += 1  # d(12) = v(12) - (even terms) comes out even

        def make():
            return SequenceCache.from_stored(v=v)

        text, held = _fails(make, 20, 0, "d")
        assert text.startswith("d(12) = ") and text.endswith(" is even")
        rows, u, v_held, d = held
        # Row 12 and v(12) precede d(12); u(12) and row 13 follow it.
        assert (len(rows), len(u), len(v_held), len(d)) == (12, 12, 41, 12)
        for split in range(2, 20):
            assert _fails(make, 20, split, "d") == (text, held), split
        for at in (12, 13):
            for k in range(1, 11):
                assert _fails(make, 20, _moving(k, at), "d") == (text, held), (k, at)

    def test_a_failing_h_check_after_an_even_d(self, cache):
        # u(3) + 1 fails the check of h(4), and v(3) + 1 makes d(3) even,
        # which comes first: this process's own failure in row 4 waits.
        u = cache.known_values("u")[:4]
        u[3] += 1
        v = cache.known_values("v")[:9]
        v[3] += 1

        def make():
            return SequenceCache.from_stored(u=u, v=v)

        text, held = _fails(make, 8, 0, "d")
        assert text.startswith("d(3) = ") and text.endswith(" is even")
        for split in (2, 3, 5):
            assert _fails(make, 8, split, "d") == (text, held)
        for at in (3, 4, 5):
            for k in (1, 2, 3):
                assert _fails(make, 8, _moving(k, at), "d") == (text, held), (k, at)

    def test_a_failing_entry_after_an_even_d(self, cache):
        # The edited s^(10, 5) fails exact division in a later row; v edited
        # one index below that row makes d there even, and that comes first.
        rows = [list(row) for row in cache.stored_s_rows()[:10]]
        rows[9][4] += 1

        def make(v=None):
            return SequenceCache.from_stored(
                u=cache.known_values("u")[:10], v=v, s_rows=[list(row) for row in rows]
            )

        text, _ = _fails(make, 16, 0, "d")
        row = int(text.split("(")[1].split(",")[0])
        fresh = SequenceCache()
        fresh.v(16)
        v = fresh.known_values("v")
        v[row - 1] += 1
        text, held = _fails(lambda: make(v), 16, 0, "d")
        assert text.startswith(f"d({row - 1}) = ") and text.endswith(" is even")
        for split in range(2, 16):
            assert _fails(lambda: make(v), 16, split, "d") == (text, held), split
        for at in (row, row + 1):
            for k in range(1, 14):
                assert _fails(lambda: make(v), 16, _moving(k, at), "d") == (text, held), (k, at)


def _restored(source, start, a, v_to=None, d_to=None, edit=None):
    """A cache started from source's tables: empty, or u and rows 1..a held
    ("held") or waiting to be read ("waiting"), with v and d to v_to and
    d_to (a by default).  edit = (n, k, delta) adds delta to the held
    s^(n, k)."""
    if start == "empty":
        return SequenceCache()
    rows = source.stored_s_rows()[:a]
    if edit:
        n, k, delta = edit
        rows[n - 1] = list(rows[n - 1])
        rows[n - 1][k - 1] += delta
    v_to, d_to = (a if to is None else to for to in (v_to, d_to))
    held = {
        "u": source.known_values("u")[:a],
        "v": source.known_values("v")[: v_to + 1],
        "d": source.known_values("d")[: d_to + 1],
    }
    if start == "waiting":
        return SequenceCache.from_stored(**held, s_rows=iter(rows), s_count=a)
    return SequenceCache.from_stored(**held, s_rows=rows)


def _outcome(cache, read, max_n, split, forked=True):
    """The text and type of the IntegrityError a forced-split build raises,
    or None, and the tables it left held."""
    try:
        _build(getattr(cache, read), max_n, split, forked)
    except IntegrityError as exc:
        return (type(exc), str(exc)), _tables(cache)
    return None, _tables(cache)


@st.composite
def _split_cases(draw):
    """A start state, a target b <= 40, a schedule K(first..b), lockstep
    or not, and at most one edited held entry."""
    start = draw(st.sampled_from(["empty", "held", "waiting"]))
    a = 0 if start == "empty" else draw(st.integers(1, 39))
    first = a + 1
    b = draw(st.integers(first, 40))
    ks = [draw(st.integers(1, first))]
    for _ in range(b - first):
        ks.append(ks[-1] + draw(st.integers(0, 1)))
    edit = None
    if a >= 2 and draw(st.booleans()):
        n = draw(st.integers(2, a))
        edit = n, draw(st.integers(1, n - 1)), draw(st.sampled_from([1, -1, 2, 3, 105]))
    state = dict(start=start, a=a, v_to=draw(st.integers(0, a)), d_to=draw(st.integers(0, a)), edit=edit)
    return state, b, ks, draw(st.sampled_from(["build_s_table", "d"]))


class TestSplitProperty:
    """Whatever the start, target, schedule and planted edit, a forced-split
    build returns or raises what the build without a child does, and leaves
    the same tables."""

    @settings(max_examples=100, deadline=None)
    @given(case=_split_cases())
    def test_forced_split_matches_the_unforked_build(self, lockstep150, case):
        state, b, ks, read = case
        _check_schedule(ks, state["a"] + 1, b)
        serial = _outcome(_restored(lockstep150, **state), read, b, 0)
        forked = _outcome(_restored(lockstep150, **state), read, b, lambda n, first: ks[n - first])
        assert forked == serial


def _errno(cls, code):
    return cls(code, os.strerror(code))


FORK_FAULTS = [
    pytest.param("fork", _errno(BlockingIOError, errno.EAGAIN), id="fork-EAGAIN"),
    pytest.param("fork", _errno(OSError, errno.ENOMEM), id="fork-ENOMEM"),
    pytest.param("pipe", _errno(OSError, errno.EMFILE), id="second-pipe-EMFILE"),
]


@contextmanager
def _failing(name, exc):
    """Inside, os.fork raises exc, or os.pipe raises it on its second call;
    yields the list of calls made."""
    real = getattr(os, name)
    calls = []

    def stand_in():
        calls.append(name)
        if name == "fork" or len(calls) == 2:
            raise exc
        return real()

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(os, name, stand_in)
        yield calls


class TestForkFailure:
    """A build that would split but cannot fork builds alone, in the same
    loop: the serial tables and no child."""

    @pytest.mark.parametrize("name, exc", FORK_FAULTS)
    @pytest.mark.parametrize("read", ["build_s_table", "d"])
    @pytest.mark.parametrize("start", ["empty", "held", "waiting"])
    def test_builds_the_serial_tables(self, lockstep150, name, exc, read, start):
        serial = _outcome(_restored(lockstep150, start, 20), read, 40, 0)
        cache = _restored(lockstep150, start, 20)
        with _failing(name, exc) as calls:
            assert _outcome(cache, read, 40, 5, forked=False) == serial
        assert len(calls) == (1 if name == "fork" else 2)

    def test_verify_passes(self, capsys, monkeypatch):
        monkeypatch.setattr(core, "_split_column", lambda first, last, lockstep: [1] * (last - first + 1))
        with _reaped_forks() as pids, _failing("fork", _errno(BlockingIOError, errno.EAGAIN)) as calls:
            assert cli.main(["verify", "--suite", "mod5"]) == 0
        assert calls and not pids
        assert capsys.readouterr().out.startswith("SUITE mod5 RANGE 1..150 PRIME 5 RESULT PASS")


def _a_split_build(cache):
    _build(SequenceCache().d, 40, 5)


def _a_failing_child(cache):
    with pytest.raises(IntegrityError, match=r"^s\(\d+,([3-9]|1\d)\) is not an integer$"):
        _build(_edited_entry(cache).build_s_table, 16, 2)  # a column past 2: the child's


def _a_failing_fork(name, exc):
    def build(cache):
        with _failing(name, exc):
            _build(SequenceCache().d, 40, 5, forked=False)

    return build


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(_a_split_build, id="split"),
        pytest.param(_a_failing_child, id="failing-child"),
        pytest.param(lambda cache: _interrupted(), id="interrupted"),
        *(pytest.param(_a_failing_fork(*fault.values), id=fault.id) for fault in FORK_FAULTS),
    ],
)
def test_a_build_leaves_the_descriptors_it_found(cache, build):
    before = os.listdir("/proc/self/fd")
    build(cache)
    assert os.listdir("/proc/self/fd") == before


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


class TestSequenceResidues:
    """residues(name, p, max_n) reads u, v or d mod p, grown in one call."""

    PRIMES = [2, 3, 5, 7, 11, 13]

    @pytest.mark.parametrize("name", ["u", "v", "d"])
    @pytest.mark.parametrize("p", PRIMES)
    def test_equals_the_values_reduced(self, cache, name, p):
        assert cache.residues(name, p, 20) == [x % p for x in cache.known_values(name)[:21]]

    def test_reads_restored_and_grown_values(self, cache, tmp_path):
        small = SequenceCache()
        small.d(15)
        store_cache(str(tmp_path), small)
        for p in self.PRIMES:
            loaded = load_cache(str(tmp_path))
            assert loaded._pending == loaded.s_bound == 15  # every row still waiting
            for name in "uvd":
                expected = [x % p for x in cache.known_values(name)[:21]]
                assert loaded.residues(name, p, 20) == expected, (name, p)
            assert loaded._pending == 0 and loaded.s_bound == 20

    def test_a_d_read_past_the_rows_builds_once(self, cache, monkeypatch):
        fresh = SequenceCache()
        fresh.d(5)
        calls = []
        build = SequenceCache.build_s_table

        def spy(self, max_n, **lockstep):
            calls.append(max_n)
            build(self, max_n, **lockstep)

        monkeypatch.setattr(SequenceCache, "build_s_table", spy)
        assert fresh.residues("d", 7, 20) == [x % 7 for x in cache.known_values("d")[:21]]
        assert calls == [20]

    def test_rejects(self):
        fresh = SequenceCache()
        assert fresh.residues("d", 5, 0) == [1]
        for p in (1, 0, -3):
            with pytest.raises(ValueError, match="p must be >= 2"):
                fresh.residues("d", p, 3)
        with pytest.raises(ValueError, match="max_n >= 0"):
            fresh.residues("u", 5, -1)
        with pytest.raises(ValueError, match="unknown sequence 's'"):
            fresh.residues("s", 5, 3)
        assert fresh.known_count("u") == fresh.known_count("d") == 1


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

"""Tests for the exact sequence recurrences and the series-based s-table."""

import errno
import hashlib
import os
import signal
import threading
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import romik
from romik import IntegrityError, SequenceCache, s_table_by_series
from romik import cli, core
from romik.cache_io import load_cache, store_cache
from romik.core import StoredValueError, _binomial_row, _truncated_product
from romik.residues import build_residue_grid

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

    @pytest.mark.parametrize("start", ["empty", "held", "restored"])
    @pytest.mark.parametrize("read", ["build_s_table", "s", "r", "d"])
    def test_every_build_leaves_v_and_d_at_its_bound(self, table150, start, read):
        # From empty, from 20 held rows, or from 40 stored rows with v and d to 5.
        states = {"empty": ("empty", 0), "held": ("held", 20), "restored": ("waiting", 40, None, 5, 5)}
        grown = _restored(table150, *states[start])
        reads = {"s": lambda n: grown.s(n, 1), "r": lambda n: grown.r(n, 1)}
        reads.get(read, getattr(grown, read))(30)
        assert grown.known_count("v") == grown.known_count("d") == 31
        assert grown.known_count("u") >= 30 and grown.s_bound >= 30

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
        ascending = SequenceCache()
        assert [ascending.d(n) for n in range(61)] == bulk.known_values("d")
        assert ascending.known_s_rows() == bulk.known_s_rows()

    def test_reloaded_cache_extends_to_bulk(self, tmp_path):
        stored = SequenceCache()
        stored.build_s_table(20)
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
def _reaped_forks(kill_after=None):
    """Yields the list of the children os.fork makes inside.  With
    kill_after = j, each is sent SIGKILL once this process has read j rows
    from it, or for j = 0 by itself as it starts.  On leaving, even by an
    exception, checks that each has been reaped and that this process has
    no child left at all."""
    pids, reads, parent = [], [], os.getpid()
    fork, receive = os.fork, core._receive

    def recorded():
        pid = fork()
        if pid == 0 and kill_after == 0:
            os.kill(os.getpid(), signal.SIGKILL)  # before its first row, whatever the timing
        if pid:
            pids.append(pid)
            reads.clear()
        return pid

    def counted(inbox):
        value = receive(inbox)
        if os.getpid() == parent:  # the child reads its input with it too
            reads.append(value)
            if len(reads) == kill_after:
                os.kill(pids[-1], signal.SIGKILL)
        return value

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(os, "fork", recorded)
        patched.setattr(core, "_receive", counted)
        try:
            yield pids
        finally:
            for pid in [*pids, -1]:
                with pytest.raises(ChildProcessError):
                    os.waitpid(pid, os.WNOHANG)


def _build(grow, max_n, split=None, forked=True, kill_after=None):
    """grow(max_n), cache.build_s_table or cache.d, with the split forced:
    None builds alone, and a schedule forks a child for columns K(n)+1..n
    of each new row n, K(n) = split(n, first), first the first new row.
    forked=False expects no child even so, where os.fork or os.pipe fails;
    kill_after is as for _reaped_forks."""
    asked = []

    def schedule(first, last):
        asked.append(first)  # not reached where v or d fails below the first new row
        return [split(n, first) for n in range(first, last + 1)] if split else []

    with pytest.MonkeyPatch.context() as patched, _reaped_forks(kill_after) as pids:
        patched.setattr(core, "_split_column", schedule)
        try:
            grow(max_n)
        finally:
            assert len(pids) == bool(asked and split and forked)


def _at(k):
    """The boundary at column k (at n on the rows n < k)."""
    return lambda n, first: min(n, k)


def _moving(k, at):
    """The boundary at column k, one column on at row at - 1 and one more at row at."""
    return lambda n, first: min(n, k + min(2, max(0, n - at + 2)))


def _from_one(rows):
    """The boundary at column 1 on the first new row, one column on every so many rows."""
    return lambda n, first: 1 + (n - first) // rows


MOVING = [pytest.param(_from_one(1), id="every-row"), pytest.param(_from_one(2), id="every-other-row")]


def _check_schedule(split, first, last):
    """split is K(first..last): within 1..n, never back, at most one column a row."""
    assert len(split) == last - first + 1
    assert all(1 <= k <= n for n, k in enumerate(split, first))
    assert all(b - a in (0, 1) for a, b in zip(split, split[1:]))


def _tables(cache):
    """Everything the cache holds: its s rows as held, then u, v and d."""
    return cache.stored_s_rows(), *(cache.known_values(name) for name in "uvd")


def _restored(source, start, a, u_to=None, v_to=None, d_to=None, edits=()):
    """A cache started from source's tables: rows 1..a held ("held") or
    waiting to be read ("waiting"), none for "empty" (a = 0), u to u_to
    (a - 1 by default) and v and d to v_to and d_to (a by default).  Each
    edit (table, index, delta) adds delta to u(index) or v(index), or for
    table "s" to the held s^(n, k), index (n, k)."""
    rows = [list(row) for row in source.stored_s_rows()[:a]]
    for table, index, delta in edits:
        if table == "s":
            rows[index[0] - 1][index[1] - 1] += delta
    tos = (a - 1 if u_to is None else u_to, a if v_to is None else v_to, a if d_to is None else d_to)
    held = {name: source.known_values(name)[: max(to, 0) + 1] for name, to in zip("uvd", tos)}
    if start == "waiting":
        rows = iter(rows)
    cache = SequenceCache.from_stored(**held, s_rows=rows, s_count=a if start == "waiting" else None)
    for table, index, delta in edits:
        if table != "s":  # past from_stored, which takes no u(0) but 1
            cache._sequence(table)[index] += delta
    return cache


def _outcome(cache, read, max_n, split=None, forked=True, kill_after=None):
    """The type and text of the IntegrityError a forced-split build raises,
    or None, and the tables it left held."""
    try:
        _build(getattr(cache, read), max_n, split, forked, kill_after)
    except IntegrityError as exc:
        return (type(exc), str(exc)), _tables(cache)
    return None, _tables(cache)


def _case(b, split, read="build_s_table", kill=None, start="empty", a=0, expect=None, **state):
    """A case of TestSplitProperty: the start state as for _restored, the
    target b, the schedule K(n) = split(n, first), or the constant split
    (b - 1 for -1), the read, the child's kill_after, and what the build
    alone must raise and leave: (the error text, the lengths of the
    tables), or None."""
    if not callable(split):
        split = _at(b - 1 if split == -1 else split)
    ks = [split(n, a + 1) for n in range(a + 1, b + 1)]
    return dict(start=start, a=a, **state), b, ks, read, kill, expect


def _agrees(source, case):
    """The property: the build of case, with its schedule forced, returns or
    raises what the build alone does from the same state, with the same
    exception type and text and the same u, v, d and rows.  It keeps the
    rows it found held as the same objects and leaves no child."""
    state, b, ks, read, kill, expect = case
    _check_schedule(ks, state["a"] + 1, b)
    serial = _outcome(_restored(source, **state), read, b)
    if expect:  # where the index order fails, pinned
        assert (serial[0][1], tuple(map(len, serial[1]))) == expect
    forked = _restored(source, **state)
    held = list(forked._s_rows)
    assert _outcome(forked, read, b, lambda n, first: ks[n - first], kill_after=kill) == serial
    assert all(x is y for x, y in zip(forked._s_rows, held))


def _can_split():
    return len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1


def _picked(read):
    """A cache grown from empty by read(150), build_s_table or d, at the split the code picks."""
    fresh = SequenceCache()
    with _reaped_forks() as pids:
        getattr(fresh, read)(150)
    assert len(pids) == _can_split()
    return fresh


@pytest.fixture(scope="module")
def table150():
    return _picked("build_s_table")


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
        _build(SequenceCache().build_s_table, 20, _at(5))


class TestSplitBuild:
    """A build may fork a child for the columns past a split, at the
    schedule the code picks; the fixed schedules below run the property's
    check (``_agrees``) without a planted fault."""

    def test_from_empty_to_150_at_the_picked_split(self, table150):
        if _can_split():
            split = core._split_column(1, 150)
            _check_schedule(split, 1, 150)
            assert (split[0], split[-1]) == (1, 27)
        rows = table150.known_s_rows()
        assert _sha256("\n".join(",".join(map(str, row)) for row in rows)) == S_150_SHA256
        assert [table150.known_count(name) for name in "uvd"] == [150, 151, 151]

    def test_the_schedule_is_pinned(self, monkeypatch):
        # Every build weighs v(n) and d(n) as its own work, as d reads always
        # did, so the builds from d reads keep the K(n) they were measured at.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        split = core._split_column(1, 150)
        _check_schedule(split, 1, 150)
        steps = [n for n, (k, after) in enumerate(zip(split, split[1:]), 2) if after > k]
        assert split[0] == 1 and steps == [23, 28, 33, 39, 44, 49, 54, 59, 64, 69, 74, 78, 83, 88,
                                           93, 98, 103, 108, 113, 118, 123, 127, 132, 137, 142, 147]
        assert core._split_column(91, 100) == [15, 15, 16, 16, 16, 16, 16, 17, 17, 17]
        assert core._split_column(141, 150) == [25, 26, 26, 26, 26, 26, 27, 27, 27, 27]

    @pytest.mark.parametrize("max_n", [3, 17, 40])
    @pytest.mark.parametrize("split", [2, 5, -1, *MOVING])
    def test_forced_splits_match_serial(self, table150, max_n, split):
        # Growth over held rows 1..max_n/2, with v and d lagging them.
        a = max_n // 2
        _agrees(table150, _case(max_n, split, start="held", a=a, v_to=a // 2, d_to=a // 2))

    def test_growing_from_held_rows(self, table150):
        # Rows 1..20 held with v and d level with them, grown to 40.
        for split in (9, _from_one(1), _from_one(2)):
            _agrees(table150, _case(40, split, start="held", a=20))

    def test_an_error_of_its_own_kills_the_child(self):
        _interrupted()


class TestForkSelection:
    """Where a build must not fork, it builds in this process alone."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        def fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", fork)

    def test_one_cpu(self, table150, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        fresh = SequenceCache()
        fresh.build_s_table(150)
        assert fresh.stored_s_rows() == table150.stored_s_rows()

    def test_another_thread_alive(self, table150):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            fresh = SequenceCache()
            fresh.build_s_table(150)
        finally:
            release.set()
            waiter.join()
        assert fresh.stored_s_rows() == table150.stored_s_rows()

    def test_small_call(self, table150):
        rows = table150.stored_s_rows()
        grown = SequenceCache.from_stored(u=table150.known_values("u")[:149], s_rows=rows[:149])
        grown.build_s_table(150)
        assert grown.stored_s_rows() == rows


class TestLockstepBuild:
    """Every build grows u, the rows, v and d in one loop, split or not:
    u(n-1), row n, v(n), d(n) in that order."""

    def test_from_empty_to_150_at_the_picked_split(self, table150):
        picked = _picked("d")
        serial = SequenceCache()
        _build(serial.d, 150)
        assert _tables(picked) == _tables(serial) == _tables(table150)
        assert _sha256(",".join(map(str, picked.known_values("d")))) == D_150_SHA256

    @pytest.mark.parametrize("max_n", [3, 17, 40])
    @pytest.mark.parametrize("split", [2, 5, -1, *MOVING])
    def test_forced_splits_match_serial(self, table150, max_n, split):
        _agrees(table150, _case(max_n, split, "d"))

    @pytest.mark.parametrize("split", [0, 9, *MOVING])
    @pytest.mark.parametrize("v_to, d_to", [(20, 20), (14, 10), (10, 14)])
    def test_growing_a_restored_cache(self, table150, split, v_to, d_to):
        # v and d may lag the 20 restored rows, and either may lag the other.
        restored = dict(start="waiting", a=20, v_to=v_to, d_to=d_to)
        if split:
            _agrees(table150, _case(40, split, "d", **restored))
        else:  # alone, against the tables d(150) grew
            grown = _restored(table150, **restored)
            _build(grown.d, 40)
            assert _tables(grown) == tuple(x[:n] for x, n in zip(_tables(table150), (40, 40, 41, 41)))


@st.composite
def _split_cases(draw):
    """A start state, a target b <= 40, a schedule K(first..b), at most one
    planted fault, and the number of rows after which the child is killed,
    or None."""
    start = draw(st.sampled_from(["empty", "held", "waiting"]))
    a = 0 if start == "empty" else draw(st.integers(1, 39))
    first = a + 1
    b = draw(st.integers(first, 40))
    ks = [draw(st.integers(1, first))]
    for _ in range(b - first):
        ks.append(ks[-1] + draw(st.integers(0, 1)))
    u_to, v_to, d_to = draw(st.integers(0, b - 1)), draw(st.integers(0, b)), draw(st.integers(0, a))
    fault, delta = draw(st.sampled_from(["none", "s", "u", "v"])), draw(st.sampled_from([1, -1, 2, 3, 105]))
    edits = ()
    if fault == "s" and a >= 2:
        n = draw(st.integers(2, a))
        # Column k + 1 of the new rows reads the edit: this process's
        # columns for k < K(first), the child's from there on.
        sides = [side for side in (range(1, min(ks[0], n)), range(ks[0], n)) if side]
        edits = (("s", (n, draw(st.sampled_from(draw(st.sampled_from(sides))))), delta),)
    elif fault == "u":  # u(0) from empty fails the diagonal, later u mostly h's 2^E check
        edits = (("u", draw(st.integers(0, u_to)), delta),)
    elif fault == "v" and v_to:  # an even d, where d(j) is built
        edits = (("v", draw(st.integers(1, v_to)), delta),)
    kill = draw(st.none() | st.integers(0, b - a))
    state = dict(start=start, a=a, u_to=u_to, v_to=v_to, d_to=d_to, edits=edits)
    return state, b, ks, "build_s_table", kill, None


# The hand-picked cases the property replaced, each at a boundary that puts
# its failure on one side, with the text and the table lengths the index
# order gives.  s^(10, 5) + 1 fails at s(12,7); u(3) + 1 fails the 2^7
# check of h(4); u(0) = 3 gives s(1,1) = 9; v(j) + 1 makes d(j) even.
ENTRY = ("s", (10, 5), 1)
H4 = ("u", 3, 1)
AT_ENTRY = dict(start="held", a=10, expect=("s(12,7) is not an integer", (11, 12, 12, 12)))
AT_H4 = ("h(4) / 2^7 is not an integer", (3, 4, 4, 4))
EVEN_D12 = ("d(12) = -923351332174412750 is even", (12, 12, 41, 12))


class TestSplitProperty:
    """Whatever the start, target, schedule, planted fault and lost child,
    a forced-split build returns or raises what the build alone does, and
    leaves the same tables."""

    @settings(max_examples=100, deadline=None)
    @given(case=_split_cases())
    @example(case=_case(16, 6, edits=(ENTRY,), **AT_ENTRY))  # column 7 is the child's
    @example(case=_case(16, 7, edits=(ENTRY,), **AT_ENTRY))  # and here this process's
    @example(case=_case(16, _moving(5, 12), edits=(ENTRY,), **AT_ENTRY))
    @example(case=_case(16, _moving(5, 13), edits=(ENTRY,), **AT_ENTRY))
    @example(case=_case(8, 2, start="held", a=3, u_to=3, edits=(H4,), expect=AT_H4))
    @example(case=_case(8, 2, start="held", a=3, edits=(("s", (3, 2), 1),),
                        expect=("s(4,3) is not an integer", (3, 4, 4, 4))))  # the child's column
    @example(case=_case(8, 2, start="held", a=3, u_to=3, edits=(H4, ("s", (3, 2), 1)), expect=AT_H4))
    @example(case=_case(8, _moving(2, 5), start="held", a=1, u_to=3, edits=(H4,), expect=AT_H4))
    @example(case=_case(6, 2, edits=(("u", 0, 2),), expect=("s(1,1) = 9, expected 1", (0, 1, 1, 1))))
    @example(case=_case(20, 5, v_to=40, edits=(("v", 12, 1),), expect=EVEN_D12))
    @example(case=_case(20, _moving(5, 12), v_to=40, edits=(("v", 12, 1),), expect=EVEN_D12))
    @example(case=_case(8, 2, u_to=3, v_to=8, edits=(H4, ("v", 3, 1)),
                        expect=("d(3) = 52 is even", (3, 4, 9, 3))))
    @example(case=_case(16, 6, start="held", a=10, v_to=16, edits=(ENTRY, ("v", 11, 1)),
                        expect=("d(11) = 38711592371355940 is even", (11, 11, 17, 11))))
    @example(case=_case(16, 3, start="held", a=10, edits=(("s", (10, 7), 1),), kill=0,
                        expect=("s(11,8) is not an integer", (10, 11, 11, 11))))  # lost, then fails
    def test_forced_split_matches_the_unforked_build(self, table150, case):
        _agrees(table150, case)


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
    def test_builds_the_serial_tables(self, table150, name, exc, read, start):
        serial = _outcome(_restored(table150, start, 20), read, 40)
        cache = _restored(table150, start, 20)
        with _failing(name, exc) as calls:
            assert _outcome(cache, read, 40, _at(5), forked=False) == serial
        assert len(calls) == (1 if name == "fork" else 2)

    def test_verify_passes(self, capsys, monkeypatch):
        monkeypatch.setattr(core, "_split_column", lambda first, last: [1] * (last - first + 1))
        with _reaped_forks() as pids, _failing("fork", _errno(BlockingIOError, errno.EAGAIN)) as calls:
            assert cli.main(["verify", "--suite", "mod5"]) == 0
        assert calls and not pids
        assert capsys.readouterr().out.startswith("SUITE mod5 RANGE 1..150 PRIME 5 RESULT PASS")


class TestLostChild:
    """A child that dies before every row is joined leaves the build to
    finish alone, from the first row not joined: the serial tables, and no
    child."""

    @pytest.mark.parametrize("kill_after", [0, 1, 5, 20])
    @pytest.mark.parametrize("read", ["build_s_table", "d"])
    @pytest.mark.parametrize("start", ["empty", "held"])
    def test_builds_the_serial_tables(self, table150, monkeypatch, kill_after, read, start):
        a = 20 if start == "held" else 0
        heads, head = [], core._head
        monkeypatch.setattr(core, "_head", lambda *args: heads.append(args[3]) or head(*args))
        _agrees(table150, _case(40, 5, read, kill_after, start=start, a=a))
        # Rows after the kill are built again, unless the child had sent them all.
        assert (len(heads) > 2 * (40 - a)) == (kill_after < 40 - a)

    def test_verify_passes(self, capsys, monkeypatch):
        monkeypatch.setattr(core, "_split_column", lambda first, last: [1] * (last - first + 1))
        with _reaped_forks(kill_after=0) as pids:
            assert cli.main(["verify", "--suite", "mod5"]) == 0
        assert len(pids) == 1
        assert capsys.readouterr().out == "SUITE mod5 RANGE 1..150 PRIME 5 RESULT PASS\n"


def _a_failing_child(source):
    with pytest.raises(IntegrityError, match=r"^s\(12,7\) is not an integer$"):
        _build(_restored(source, "held", 10, edits=(ENTRY,)).build_s_table, 16, _at(2))


def _a_failing_fork(name, exc):
    def build(source):
        with _failing(name, exc):
            _build(SequenceCache().d, 40, _at(5), forked=False)

    return build


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda source: _build(SequenceCache().d, 40, _at(5)), id="split"),
        pytest.param(_a_failing_child, id="failing-child"),
        pytest.param(lambda source: _build(SequenceCache().d, 40, _at(5), kill_after=1), id="lost-child"),
        pytest.param(lambda source: _interrupted(), id="interrupted"),
        *(pytest.param(_a_failing_fork(*fault.values), id=fault.id) for fault in FORK_FAULTS),
    ],
)
def test_a_build_leaves_the_descriptors_it_found(table150, build):
    before = os.listdir("/proc/self/fd")
    build(table150)
    assert os.listdir("/proc/self/fd") == before


class TestResidueReader:
    """r(n, k) mod p is read off the per-prime table, build_residue_grid, which
    never forms r: its rows equal the exact r reduced."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 19])
    def test_equals_exact_r_reduced(self, table150, p):
        expected = [[table150.r(n, k) % p for k in range(1, n + 1)] for n in range(1, 151)]
        assert build_residue_grid(p, 150) == expected


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

        def spy(self, max_n):
            calls.append(max_n)
            build(self, max_n)

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

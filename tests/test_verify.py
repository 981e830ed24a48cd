"""Tests for the verification suites and the periodicity scanner."""

import pytest

from romik import (
    IntegrityError,
    SequenceCache,
    build_residue_grid,
    scan_periodicity,
    verify_even_odd_sums,
    verify_mod5,
    verify_mod_p_vanishing,
    verify_parity,
    verify_uv_structure,
)
from romik import verify
from romik.verify import Counterexample, REPORT_CSV_HEADER, VerificationReport, suites


def planted(cache, name, index, delta):
    """A cache restored by from_stored from the tables of ``cache``, with one
    held value moved by delta: u, v or d at index n, or s^(n, k) at (n, k)."""
    tables = {seq: cache.known_values(seq) for seq in "uvd"}
    tables["s_rows"] = [list(row) for row in cache.stored_s_rows()]
    if name == "s":
        n, k = index
        tables["s_rows"][n - 1][k - 1] += delta
    else:
        tables[name][index] += delta
    return SequenceCache.from_stored(**tables)


class TestReports:
    def test_line_format_pass(self):
        report = VerificationReport("parity", 0, 40, None, elapsed=0.1)
        assert report.line() == "SUITE parity RANGE 0..40 PRIME - RESULT PASS"

    def test_line_format_fail(self):
        ce = Counterexample(7, 2, 0, 3)
        report = VerificationReport("mod5", 1, 40, 5, counterexample=ce)
        assert report.line() == (
            "SUITE mod5 RANGE 1..40 PRIME 5 RESULT FAIL CE n=7 k=2 expected=0 actual=3"
        )

    def test_line_format_no_k(self):
        ce = Counterexample(9, None, 1, 4)
        report = VerificationReport("mod5", 1, 40, 5, counterexample=ce)
        assert "CE n=9 k=- expected=1 actual=4" in report.line()

    def test_csv_row(self):
        report = VerificationReport("parity", 0, 40, None)
        assert REPORT_CSV_HEADER.count(",") == report.csv_row().count(",")
        ce = Counterexample(9, 1, 0, 2)
        failing = VerificationReport("even_odd_sums", 3, 40, 5, counterexample=ce)
        assert failing.csv_row() == "even_odd_sums,3,40,5,FAIL,9,1,0,2"

    def test_passed_must_match_counterexample(self):
        assert VerificationReport("parity", 0, 10, None).passed
        assert not VerificationReport("parity", 0, 10, None, Counterexample(1, None, 0, 1)).passed


class TestParity:
    def test_small(self, cache):
        report = verify_parity(cache, 8)
        assert report.passed
        assert (report.lo, report.hi, report.prime) == (0, 8, None)

    def test_zero_bound(self, cache):
        assert verify_parity(cache, 0).passed
        with pytest.raises(ValueError, match=r"^max_n must be >= 0, got -1$"):
            verify_parity(cache, -1)

    def test_moderate(self, cache):
        assert verify_parity(cache, 25).passed

    def test_reports_an_even_v(self, cache):
        v = cache.known_values("v")
        v[12] += 1
        bad = SequenceCache.from_stored(
            u=cache.known_values("u"), v=v, d=cache.known_values("d"), s_rows=cache.stored_s_rows()
        )
        report = verify_parity(bad, 20)
        assert f"CE n=12 k=- expected=odd v actual=v(12)={v[12]}" in report.line()
        # With no stored d, d(12) is derived from the planted v and comes out even.
        no_d = SequenceCache.from_stored(
            u=cache.known_values("u"), v=v, s_rows=cache.stored_s_rows()
        )
        with pytest.raises(IntegrityError, match=r"^d\(12\) = -?\d+ is even$"):
            no_d.d(12)


class TestMod5:
    def test_small_values(self, cache):
        # d(1)=1, d(2)=-1, d(3)=51 give residues 1, 4, 1
        assert cache.d(1) % 5 == 1
        assert cache.d(2) % 5 == 4
        assert cache.d(3) % 5 == 1
        assert verify_mod5(cache, 25).passed

    def test_rejects_zero(self, cache):
        with pytest.raises(ValueError):
            verify_mod5(cache, 0)


class TestModPVanishing:
    def test_p3(self, cache):
        report = verify_mod_p_vanishing(cache, 3, 25)
        assert report.passed
        assert (report.lo, report.hi) == (5, 25)

    def test_rejects_one_mod_four(self, cache):
        with pytest.raises(ValueError):
            verify_mod_p_vanishing(cache, 5, 40)

    def test_rejects_max_below_threshold(self, cache):
        with pytest.raises(ValueError):
            verify_mod_p_vanishing(cache, 7, 24)

    def test_catches_planted_failure(self):
        # a cache with a corrupted d value must produce the minimal counterexample
        good = SequenceCache()
        good.d(10)
        values = good.known_values("d")
        values[7] += 2  # stays odd, breaks the mod-3 vanishing at n=7
        bad = SequenceCache.from_stored(
            u=good.known_values("u"),
            v=good.known_values("v"),
            d=values,
            s_rows=good.stored_s_rows(),
        )
        report = verify_mod_p_vanishing(bad, 3, 10)
        assert not report.passed
        assert report.counterexample.n == 7
        assert "FAIL" in report.line()

    @pytest.mark.parametrize("n, k, line_end", [
        (5, 4, "CE n=5 k=4 expected=0 actual=1"),  # the block's corner, n0 + 1 and n0
        (10, 3, "CE n=10 k=3 expected=0 actual=1"),
        (10, 5, "RESULT PASS"),  # k = n0 + 1 lies outside the block
    ])
    def test_reports_a_moved_grid_entry(self, monkeypatch, n, k, line_end):
        # r(n, k) mod 3 moved in the grid's rows, at n0 = 4.
        def moved(p, max_n):
            rows = build_residue_grid(p, max_n)
            rows[n - 1][k - 1] = (rows[n - 1][k - 1] + 1) % p
            return rows

        monkeypatch.setattr(verify, "build_residue_grid", moved)
        report = verify_mod_p_vanishing(SequenceCache(), 3, 10)
        assert report.line().endswith(line_end)


class TestUvStructure:
    def test_p5_prefix(self, cache):
        report = verify_uv_structure(cache, 5, 40)
        assert report.passed
        assert [cache.u(n) % 5 for n in range(6)] == [1, 1, 1, 0, 0, 0]
        assert [cache.v(n) % 5 for n in range(6)] == [1, 1, 2, 0, 0, 0]

    def test_p3(self, cache):
        assert cache.u(1) % 3 == 0  # u((p-1)/2) for p = 3
        assert verify_uv_structure(cache, 3, 25).passed

    def test_p13_exploratory(self, cache):
        report = verify_uv_structure(cache, 13, 25)
        assert report.passed
        assert "vanish" in report.details
        short = verify_uv_structure(cache, 13, 3)
        assert short.details == "u: no vanishing tail up to n=3; v: no vanishing tail up to n=3"

    def test_rejects_two(self, cache):
        with pytest.raises(ValueError):
            verify_uv_structure(cache, 2, 10)
        with pytest.raises(ValueError, match=r"^max_n must be >= 1, got 0$"):
            verify_uv_structure(cache, 3, 0)

    @pytest.mark.parametrize("p, name, n, fragment", [
        (5, "u", 4, "CE n=4 k=- expected=u%5=0 actual=1"),
        (5, "v", 3, "CE n=3 k=- expected=v%5=0 actual=1"),
        (3, "u", 1, "CE n=1 k=- expected=u%p=0 actual=1"),
        (3, "u", 4, "CE n=4 k=- expected=u%p=0 actual=1"),
        (3, "v", 5, "CE n=5 k=- expected=v%p=0 actual=1"),
    ])
    def test_reports_a_planted_residue(self, cache, p, name, n, fragment):
        report = verify_uv_structure(planted(cache, name, n, 1), p, 20)
        assert report.line().endswith(fragment)

    @pytest.mark.parametrize("p, hi", [(7, 44), (13, 40)])
    def test_default_bound(self, p, hi):
        assert verify_uv_structure(SequenceCache(), p).hi == hi


class TestEvenOddSums:
    def test_n3_by_hand(self, cache):
        # odd k: r(3,1) + r(3,3) = 7584 + 1, even k: r(3,2) = 240
        assert (cache.r(3, 1) + cache.r(3, 3)) % 5 == 0
        assert cache.r(3, 2) % 5 == 0

    def test_moderate(self, cache):
        report = verify_even_odd_sums(cache, 25)
        assert report.passed
        assert (report.lo, report.hi, report.prime) == (3, 25, 5)

    def test_rejects_small_bound(self, cache):
        with pytest.raises(ValueError):
            verify_even_odd_sums(cache, 2)

    def test_default_bound(self):
        fresh = SequenceCache()
        assert verify_even_odd_sums(fresh).hi == 60
        # r mod 5 comes off the grid: the suite builds no exact table.
        assert fresh.s_bound == 0
        assert [fresh.known_count(name) for name in "uvd"] == [1, 1, 1]

    @pytest.mark.parametrize("k, fragment", [
        (2, "CE n=10 k=- expected=even-k sum 0 actual=3"),
        (3, "CE n=10 k=- expected=odd-k sum 0 actual=2"),
    ])
    def test_reports_a_planted_entry(self, cache, monkeypatch, k, fragment):
        # The grid's r(10, k) mod 5 becomes that of a table whose held s^(10, k)
        # moved by one, a move by the unit 2^(E(10) - E(k) + 10 - k) mod 5.
        entry = planted(cache, "s", (10, k), 1).r(10, k) % 5

        def grid(p, max_n):
            rows = build_residue_grid(p, max_n)
            rows[9][k - 1] = entry
            return rows

        monkeypatch.setattr(verify, "build_residue_grid", grid)
        report = verify_even_odd_sums(cache, 12)
        assert report.line().endswith(fragment)


class TestScanPeriodicity:
    def test_p5(self, cache):
        assert scan_periodicity(cache, 5, 25) == (1, 2, (4, 1))

    def test_cycle_is_phase_aligned(self, cache):
        preperiod, period, cycle = scan_periodicity(cache, 5, 25)
        for n in range(preperiod, 26):
            assert cache.d(n) % 5 == cycle[n % period]

    def test_p13(self, cache):
        # exploratory: whatever is reported must actually match the prefix
        found = scan_periodicity(cache, 13, 60)
        if found is not None:
            preperiod, period, _ = found
            residues = [cache.d(n) % 13 for n in range(61)]
            for n in range(preperiod, 61 - period):
                assert residues[n] == residues[n + period]

    def test_answer_does_not_depend_on_the_bound(self):
        # At p = 13 the last two residues agree at every bound that is a
        # multiple of 3 from 54; the smallest period alone would read 1 there.
        cache = SequenceCache()
        cache.d(150)
        for p, expected in ((5, (1, 2)), (13, (1, 18)), (17, (1, 32))):
            for bound in range(4 * p, 151):
                assert scan_periodicity(cache, p, bound)[:2] == expected, bound

    def test_planted_d_is_inconclusive(self, cache):
        # d(20) + 4 stays odd and breaks the last residue of the cycle.
        assert scan_periodicity(planted(cache, "d", 20, 4), 5, 20) is None

    def test_rejects_three_mod_four(self, cache):
        with pytest.raises(ValueError):
            scan_periodicity(cache, 7, 100)

    def test_rejects_small_bound(self, cache):
        with pytest.raises(ValueError):
            scan_periodicity(cache, 5, 19)


EXACT_READS = ("u", "v", "d", "s", "r", "known_values", "known_s_rows", "stored_s_rows")


class TestResidueSeam:
    """The suites and the scanner read u, v and d only through
    SequenceCache.residues, and r mod p only through one build_residue_grid
    call per suite and prime: an entry moved in either is the one they
    report, no exact value is read outside residues, and an edited held
    s-table row moves no verdict.  The grid calls no SequenceCache method at
    all."""

    @pytest.mark.parametrize("run", [*suites(), "scan-period", "grid"])
    def test_no_exact_read_outside_the_readers(self, monkeypatch, run):
        if run == "grid":  # the grid has its own table: no SequenceCache method runs
            called = []
            for name, method in list(vars(SequenceCache).items()):
                if callable(method):
                    def spy(*args, name=name, method=method):
                        called.append(name)
                        return method(*args)
                    monkeypatch.setattr(SequenceCache, name, spy)
            build_residue_grid(7, 64)
            build_residue_grid(65537, 20)  # past the 64-bit slots' bound, too
            assert called == []
            SequenceCache().u(0)  # the guard is live
            assert called == ["__init__", "u"]
            return
        depth, outside, grids = [0], [], []
        read = SequenceCache.residues

        def seam(self, *args):
            depth[0] += 1
            try:
                return read(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(SequenceCache, "residues", seam)
        for name in EXACT_READS:
            def exact(self, *args, name=name, read=getattr(SequenceCache, name)):
                if not depth[0]:
                    outside.append((name, *args))
                return read(self, *args)
            monkeypatch.setattr(SequenceCache, name, exact)
        def grid(p, max_n):
            grids.append((p, max_n))
            return build_residue_grid(p, max_n)

        monkeypatch.setattr(verify, "build_residue_grid", grid)
        cache = SequenceCache()
        if run == "scan-period":
            scan_periodicity(cache, 13, 64)
        else:
            # Bound 64 is past n0 = 60 of p = 11, the largest vanishing prime.
            function, primes = suites()[run]
            for args in [(p,) for p in primes] or [()]:
                assert function(cache, *args, 64).passed
        assert outside == []
        assert grids == {"vanishing": [(3, 64), (7, 64), (11, 64)], "sums": [(5, 64)]}.get(run, [])
        cache.u(0)  # the guard is live: a read outside residues is recorded
        assert outside == [("u", 0)]

    def test_an_edited_held_row_moves_no_verdict(self, cache):
        # The held s^(10, 3) + 1 moves the exact r(10, 3) by a power of two, a
        # unit mod 3 and mod 5; r mod p comes from the grid, which reads no cache.
        bad = planted(cache, "s", (10, 3), 1)
        assert bad.r(10, 3) % 3 and bad.r(10, 3) % 5 != cache.r(10, 3) % 5
        assert verify_mod_p_vanishing(bad, 3, 10).passed
        assert verify_even_odd_sums(bad, 12).passed

    @pytest.mark.parametrize("name, n, reported", [
        ("v", 12, lambda cache: verify_parity(cache, 20).counterexample.n),
        ("d", 9, lambda cache: verify_mod5(cache, 20).counterexample.n),
        ("d", 9, lambda cache: verify_mod_p_vanishing(cache, 3, 20).counterexample.n),
        ("u", 9, lambda cache: verify_uv_structure(cache, 3, 20).counterexample.n),
        # Period 18 from index 1; a moved d(20) pushes the preperiod past it.
        ("d", 20, lambda cache: scan_periodicity(cache, 13, 60)[0] - 1),
    ], ids=["parity", "mod5", "vanishing", "uv", "scan-period"])
    def test_a_moved_residue_is_reported(self, cache, monkeypatch, name, n, reported):
        read = SequenceCache.residues

        def moved(self, seq, p, max_n):
            out = read(self, seq, p, max_n)
            if seq == name:
                out[n] = (out[n] + 1) % p
            return out

        monkeypatch.setattr(SequenceCache, "residues", moved)
        assert reported(cache) == n


@pytest.mark.parametrize("name", list(suites()))
def test_every_suite_reports_its_time(cache, name):
    function, primes = suites()[name]
    assert function(cache, *primes[:1], 12).elapsed > 0


class TestDeterminism:
    def test_identical_reports_modulo_timing(self, cache):
        first = verify_mod5(cache, 20)
        second = verify_mod5(cache, 20)
        assert first.line() == second.line()
        assert first.csv_row() == second.csv_row()

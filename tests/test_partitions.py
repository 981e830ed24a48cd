"""Tests for constrained partition enumeration and the partition-sum oracle."""

import hashlib
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from romik import PartitionFilter, enumerate_partitions, multinomial_count, s_by_partitions


def parts(pairs):
    """All parts in increasing order, with repetition."""
    return tuple(part for part, count in pairs for _ in range(count))


def parts_set(total, num_parts, part_filter=None):
    return {parts(p) for p in enumerate_partitions(total, num_parts, part_filter)}


class TestEnumerate:
    def test_four_into_two(self):
        # partitions of 4 into 2 parts are (1,3) and (2,2); only (1,3) is odd
        assert parts_set(4, 2) == {(1, 3)}

    def test_all_ones(self):
        for k2 in (2, 4, 6, 10):
            assert parts_set(k2, k2) == {(1,) * k2}

    def test_all_ones_respects_filter(self):
        assert parts_set(6, 4) == {(1, 1, 1, 3)}
        assert parts_set(6, 4, PartitionFilter(forbidden_part=1)) == set()
        assert parts_set(4, 4, PartitionFilter(forbidden_part=1)) == set()
        assert parts_set(4, 4, PartitionFilter(max_part=0)) == set()

    def test_six_into_two_max_five(self):
        assert parts_set(6, 2, PartitionFilter.first_three_odds()) == {(1, 5), (3, 3)}

    def test_empty_when_parity_mismatch(self):
        assert parts_set(5, 2) == set()

    def test_empty_when_too_few(self):
        assert parts_set(2, 4) == set()

    def test_forbidden_part_excluded(self):
        flt = PartitionFilter.avoiding_prime(3)
        assert parts_set(6, 2, flt) == {(1, 5)}  # (3,3) dropped
        assert all(3 not in parts(p) for p in enumerate_partitions(12, 4, flt))

    def test_avoiding_prime_allows_other_multiples(self):
        # 15 = 3*5 stays admissible for p = 5 (only the part 5 itself is barred)
        flt = PartitionFilter.avoiding_prime(5)
        admitted = parts_set(16, 2, flt)
        assert (1, 15) in admitted
        assert (5, 11) not in admitted

    def test_max_part_below_prime_square(self):
        flt = PartitionFilter.avoiding_prime(3)
        assert all(max(parts(p)) < 9 for p in enumerate_partitions(16, 4, flt))
        with pytest.raises(ValueError, match=r"^p must be >= 2, got 1$"):
            PartitionFilter.avoiding_prime(1)

    def test_largest_part_first_ordering(self):
        filters = [None, PartitionFilter.first_three_odds(), PartitionFilter.avoiding_prime(7)]
        for part_filter in filters:
            for total, num_parts in ((12, 4), (30, 8)):
                streamed = [
                    tuple(sorted(parts(p), reverse=True))
                    for p in enumerate_partitions(total, num_parts, part_filter)
                ]
                assert streamed, (part_filter, total, num_parts)
                assert streamed == sorted(streamed, reverse=True)
                assert len(set(streamed)) == len(streamed)

    @pytest.mark.parametrize(
        "part_filter, count, digest",
        [
            (None, 7885, "7626cb94294b206dff61e41f3a22c13689d6d3768af0ee9031ad458c53b471d4"),
            (PartitionFilter.first_three_odds(), 670,
             "04dced4c636be38b3060a4c1f1610fa42aabd3a7a9949bc4d66fdce329be2f3b"),
            (PartitionFilter.avoiding_prime(3), 322,
             "c9230dccbddad5f23e0b3a5fdcb49260109e28c4895eab013476094d6e49882b"),
            (PartitionFilter.avoiding_prime(7), 4814,
             "efb0b6a051acf80f4c4c014c3871d3c3e7e358836b9ab357f6924d2b69a13732"),
            (PartitionFilter(max_part=15, forbidden_part=1), 605,
             "5dedafd566b7b53ade8376fb28a4a74aebe1507bdbeda74f0af1f0a4e843cf33"),
            (PartitionFilter(max_part=3), 183,
             "03f0468e45aba0f8ece29e452a115cc2b7e8cdf09048ed9284a4602f26faf748"),
            (PartitionFilter(max_part=5, forbidden_part=3), 114,
             "93efd6e4ef26717a70a881f8851450dbc41c5202e16619967197041449f36dcc"),
            (PartitionFilter(forbidden_part=3), 2572,
             "d74003d9f7a32ca4f292b7b53e1e66b7d3bbdccb871f5e1da66e23807c5a8092"),
        ],
    )
    def test_stream_is_pinned(self, part_filter, count, digest):
        # SHA-256 over the (part, count) pairs of every partition, in stream
        # order, for 1 <= k <= n <= 22, so a change of order, not only of
        # the set, fails.
        h = hashlib.sha256()
        seen = 0
        for n in range(1, 23):
            for k in range(1, n + 1):
                for p in enumerate_partitions(2 * n, 2 * k, part_filter):
                    h.update(repr(p).encode() + b"\n")
                    seen += 1
        assert (seen, h.hexdigest()) == (count, digest)

    def test_nonempty_for_valid_pairs(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert next(enumerate_partitions(2 * n, 2 * k), None) is not None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(0, 2))
        with pytest.raises(ValueError):
            list(enumerate_partitions(4, 0))

    @settings(deadline=None)
    @given(
        total=st.integers(min_value=1, max_value=22),
        num_parts=st.integers(min_value=1, max_value=7),
        max_part=st.sampled_from([None, 0, 1, 2, 3, 4, 5, 8, 15]),
        forbidden=st.sampled_from([None, 1, 3, 5, 7]),
    )
    # A max_part below 3 admits no three; sampling alone can miss it.
    @example(total=4, num_parts=2, max_part=1, forbidden=None)
    @example(total=6, num_parts=2, max_part=2, forbidden=None)
    @example(total=6, num_parts=2, max_part=4, forbidden=None)
    def test_matches_combinations_reference(self, total, num_parts, max_part, forbidden):
        # independent route: filter combinations_with_replacement by sum
        values = [
            v
            for v in range(1, total + 1, 2)
            if (max_part is None or v <= max_part) and v != forbidden
        ]
        expected = {
            combo
            for combo in combinations_with_replacement(values, num_parts)
            if sum(combo) == total
        }
        flt = PartitionFilter(max_part=max_part, forbidden_part=forbidden)
        mine = {parts(p) for p in enumerate_partitions(total, num_parts, flt)}
        assert mine == expected

    @given(
        n=st.integers(min_value=1, max_value=9),
        k=st.integers(min_value=1, max_value=9),
        max_part=st.sampled_from([None, 5, 8, 23]),
    )
    def test_yielded_partitions_satisfy_constraints(self, n, k, max_part):
        flt = PartitionFilter(max_part=max_part)
        seen = set()
        for p in enumerate_partitions(2 * n, 2 * k, flt):
            assert all(part % 2 == 1 and count >= 1 for part, count in p)
            assert all(a[0] < b[0] for a, b in zip(p, p[1:]))  # strictly increasing
            assert sum(part * count for part, count in p) == 2 * n
            assert sum(count for _, count in p) == 2 * k
            if max_part is not None:
                assert p[-1][0] <= max_part
            assert p not in seen
            seen.add(p)


class TestMultinomialCount:
    def test_one_and_three(self):
        assert multinomial_count(((1, 1), (3, 1))) == 4

    def test_all_ones(self):
        for k2 in (2, 4, 8):
            assert multinomial_count(((1, k2),)) == 1

    def test_two_threes(self):
        assert multinomial_count(((3, 2),)) == 10

    def test_always_integral(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                for p in enumerate_partitions(2 * n, 2 * k):
                    assert multinomial_count(p) >= 1


class TestPartitionSumOracle:
    def test_base_cases(self, cache):
        assert s_by_partitions(1, 1, cache) == 1
        assert s_by_partitions(2, 1, cache) == 24
        assert s_by_partitions(3, 2, cache) == 120

    def test_matches_series_table(self, cache):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert s_by_partitions(n, k, cache) == cache.s(n, k), (n, k)

    def test_rejects_bad_pair(self, cache):
        with pytest.raises(ValueError):
            s_by_partitions(2, 3, cache)


class TestModularPartitionSum:
    def test_restricted_value(self, cache):
        flt = PartitionFilter.first_three_odds()
        assert s_by_partitions(3, 1, cache, flt) % 5 == 1

    def test_empty_family_gives_zero(self, cache):
        # 5k < n leaves no partition with parts among {1,3,5}
        flt = PartitionFilter.first_three_odds()
        assert s_by_partitions(6, 1, cache, flt) == 0

    def test_unrestricted_value(self, cache):
        # The empty filter admits every odd part, as no filter does.
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert s_by_partitions(n, k, cache, PartitionFilter()) == cache.s(n, k)

    @pytest.mark.parametrize("p, part_filter", [
        (5, PartitionFilter.first_three_odds()),
        (3, PartitionFilter.avoiding_prime(3)),
        (7, PartitionFilter.avoiding_prime(7)),
        (11, PartitionFilter.avoiding_prime(11)),
    ], ids=["first_three_odds-5", "avoiding_prime-3", "avoiding_prime-7", "avoiding_prime-11"])
    def test_filter_soundness(self, cache, p, part_filter):
        # The restricted family's sum is s(n, k) mod p, not s(n, k) itself.
        differs = 0
        for n in range(1, 15):
            for k in range(1, n + 1):
                restricted = s_by_partitions(n, k, cache, part_filter)
                assert restricted % p == cache.s(n, k) % p, (n, k)
                differs += restricted != cache.s(n, k)
        assert differs  # the filter was applied

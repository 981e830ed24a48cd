"""Tests for constrained partition enumeration and the partition-sum oracle."""

import hashlib
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from romik import (
    OddPartition,
    PartitionFilter,
    enumerate_partitions,
    multinomial_count,
    s_by_partitions,
    s_mod_p_by_partitions,
)


def parts_set(total, num_parts, part_filter=None):
    return {p.parts() for p in enumerate_partitions(total, num_parts, part_filter)}


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
        assert all(3 not in p.parts() for p in enumerate_partitions(12, 4, flt))

    def test_avoiding_prime_allows_other_multiples(self):
        # 15 = 3*5 stays admissible for p = 5 (only the part 5 itself is barred)
        flt = PartitionFilter.avoiding_prime(5)
        admitted = parts_set(16, 2, flt)
        assert (1, 15) in admitted
        assert (5, 11) not in admitted

    def test_max_part_below_prime_square(self):
        flt = PartitionFilter.avoiding_prime(3)
        assert all(max(p.parts()) < 9 for p in enumerate_partitions(16, 4, flt))

    def test_largest_part_first_ordering(self):
        filters = [None, PartitionFilter.first_three_odds(), PartitionFilter.avoiding_prime(7)]
        for part_filter in filters:
            for total, num_parts in ((12, 4), (30, 8)):
                streamed = [
                    tuple(sorted(p.parts(), reverse=True))
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
        ],
    )
    def test_stream_is_pinned(self, part_filter, count, digest):
        # SHA-256 over the multiplicities of every partition, in stream
        # order, for 1 <= k <= n <= 22, so a change of order, not only of
        # the set, fails.
        h = hashlib.sha256()
        seen = 0
        for n in range(1, 23):
            for k in range(1, n + 1):
                for p in enumerate_partitions(2 * n, 2 * k, part_filter):
                    h.update(repr(p.multiplicities).encode() + b"\n")
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

    @given(
        total=st.integers(min_value=1, max_value=18),
        num_parts=st.integers(min_value=1, max_value=6),
        max_part=st.sampled_from([None, 3, 5, 8, 15]),
        forbidden=st.sampled_from([None, 1, 3, 5, 7]),
    )
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
        mine = {p.parts() for p in enumerate_partitions(total, num_parts, flt)}
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
            # The walk builds partitions unchecked; the checked constructor
            # must accept each one and give an equal object.
            checked = OddPartition(p.total, p.num_parts, p.multiplicities)
            assert p == checked and hash(p) == hash(checked)
            vec = p.multiplicity_vector()
            assert sum((i + 1) * c for i, c in enumerate(vec)) == 2 * n
            assert sum(vec) == 2 * k
            assert all(c == 0 for i, c in enumerate(vec) if (i + 1) % 2 == 0)
            if max_part is not None:
                assert max(p.parts()) <= max_part
            assert p not in seen
            seen.add(p)


class TestOddPartition:
    def test_roundtrip_views(self):
        p = OddPartition(10, 4, ((1, 3), (7, 1)))
        assert p.parts() == (1, 1, 1, 7)
        assert p.multiplicity_vector() == [3, 0, 0, 0, 0, 0, 1, 0, 0, 0]
        assert p.dump() == "1:3,7:1"

    def test_validation(self):
        with pytest.raises(ValueError):
            OddPartition(4, 2, ((2, 2),))  # even part
        with pytest.raises(ValueError):
            OddPartition(4, 2, ((1, 3),))  # wrong total
        with pytest.raises(ValueError):
            OddPartition(4, 3, ((1, 1), (3, 1)))  # wrong part count
        with pytest.raises(ValueError):
            OddPartition(4, 2, ((3, 1), (1, 1)))  # parts out of order


class TestMultinomialCount:
    def test_one_and_three(self):
        assert multinomial_count(OddPartition(4, 2, ((1, 1), (3, 1)))) == 4

    def test_all_ones(self):
        for k2 in (2, 4, 8):
            assert multinomial_count(OddPartition(k2, k2, ((1, k2),))) == 1

    def test_two_threes(self):
        assert multinomial_count(OddPartition(6, 2, ((3, 2),))) == 10

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
        assert s_mod_p_by_partitions(3, 1, 5, cache, flt) == 1

    def test_empty_family_gives_zero(self, cache):
        # 5k < n leaves no partition with parts among {1,3,5}
        flt = PartitionFilter.first_three_odds()
        assert s_mod_p_by_partitions(6, 1, 5, cache, flt) == 0

    def test_unrestricted_value(self, cache):
        assert s_mod_p_by_partitions(2, 1, 5, cache) == 24 % 5

    def test_matches_exact_reduction(self, cache):
        for p in (3, 5, 7):
            for n in range(1, 13):
                for k in range(1, n + 1):
                    assert s_mod_p_by_partitions(n, k, p, cache) == cache.s(n, k) % p

    def test_filter_soundness_mod5(self, cache):
        flt = PartitionFilter.first_three_odds()
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert (
                    s_mod_p_by_partitions(n, k, 5, cache, flt)
                    == cache.s(n, k) % 5
                ), (n, k)

    def test_filter_soundness_mod3(self, cache):
        flt = PartitionFilter.avoiding_prime(3)
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert (
                    s_mod_p_by_partitions(n, k, 3, cache, flt)
                    == cache.s(n, k) % 3
                ), (n, k)

    def test_rejects_two_with_restriction(self, cache):
        with pytest.raises(ValueError):
            s_mod_p_by_partitions(2, 1, 2, cache, PartitionFilter.first_three_odds())

    def test_two_allowed_unrestricted(self, cache):
        assert s_mod_p_by_partitions(2, 1, 2, cache) == 0  # s(2,1) = 24

    def test_rejects_composite_modulus(self, cache):
        with pytest.raises(ValueError):
            s_mod_p_by_partitions(2, 1, 6, cache)

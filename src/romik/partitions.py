"""Partitions of 2n into 2k odd parts, and the partition-sum route to s(n, k).

A partition is its tuple of (part, count) pairs: parts odd and strictly
increasing, each count at least 1.  Summing multinomial * product-of-u-powers
over them gives s(n, k) by a route independent of the power-series
definition, the oracle the series path is checked against.  Restricted part
sets (parts in {1, 3, 5}; parts below p^2 with no part equal to p) give the
per-prime reductions.

The walk goes over (part, count) pairs, one level per distinct part of 5 or
more rather than one per part.  Threes and ones open no level: t of them
summing to R are (R - t)/2 threes and the rest ones, a unique completion,
yielded at once where no part above 3 fits below (after a 5, or R - t <= 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import SequenceCache, _check_pair, _exact_quotient, factorial

Partition = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PartitionFilter:
    """Constraint on admissible part values: an upper bound and at most one
    forbidden value.  ``None`` means unconstrained, so ``PartitionFilter()``
    admits every odd part."""

    max_part: int | None = None
    forbidden_part: int | None = None

    @classmethod
    def first_three_odds(cls) -> "PartitionFilter":
        """Parts restricted to {1, 3, 5}."""
        return cls(max_part=5)

    @classmethod
    def avoiding_prime(cls, p: int) -> "PartitionFilter":
        """Parts below p^2, with no part equal to p itself.

        Other multiples of p remain allowed.
        """
        if p < 2:
            raise ValueError(f"p must be >= 2, got {p}")
        return cls(max_part=p * p - 1, forbidden_part=p)


def enumerate_partitions(
    total: int,
    num_parts: int,
    part_filter: PartitionFilter | None = None,
) -> Iterator[Partition]:
    """Yield the (part, count) pairs of every partition of ``total`` into
    ``num_parts`` odd parts that the filter admits, each exactly once.

    The walk takes the largest part of 5 or more first, then its count from
    largest to smallest, and the one completion by threes and ones last, so
    the stream runs in decreasing lexicographic order on the sorted-descending
    part tuples.  An empty stream signals no partitions.
    """
    if total < 1 or num_parts < 1:
        raise ValueError(f"total and num_parts must be >= 1, got {total}, {num_parts}")
    if part_filter is None:
        part_filter = PartitionFilter()
    # A sum of num_parts odd numbers is at least num_parts, of its parity.
    if total % 2 != num_parts % 2 or total < num_parts:
        return
    top = total if part_filter.max_part is None else part_filter.max_part
    top -= 1 - top % 2  # largest admissible odd value
    forbidden = part_filter.forbidden_part
    no_threes, no_ones = top < 3 or forbidden == 3, top < 1 or forbidden == 1

    def tail(rest: int, left: int, chosen: Partition) -> Partition | None:
        # The one completion of chosen by left threes and ones, if admitted.
        threes = (rest - left) >> 1
        ones = left - threes
        if ones < 0 or threes and no_threes or ones and no_ones:
            return None
        if threes:
            chosen = ((3, threes),) + chosen
        return ((1, ones),) + chosen if ones else chosen

    def walk(remaining: int, parts_left: int, hi: int, chosen: Partition) -> Iterator[Partition]:
        # Complete chosen, the pairs above hi, with parts_left odd parts <= hi,
        # those >= 5 first.  A part leaves room for parts_left-1 parts >= 1.
        for part in range(min(hi, remaining - parts_left + 1), 3, -2):
            if part * parts_left < remaining:
                return  # descending: no smaller part can reach the remaining total
            if part == forbidden:
                continue
            # Leave the parts below at least 1 and at most part - 2 each.
            most = min(parts_left, (remaining - parts_left) // (part - 1))
            least = max(1, (remaining - (part - 2) * parts_left + 1) // 2)
            for count in range(most, least - 1, -1):
                pairs = ((part, count),) + chosen
                rest, left = remaining - part * count, parts_left - count
                if part > 5 and rest - left > 2:
                    yield from walk(rest, left, part - 2, pairs)
                elif lam := tail(rest, left, pairs):  # no part above 3 fits below
                    yield lam
        if lam := tail(remaining, parts_left, chosen):
            yield lam

    yield from walk(total, num_parts, top, ())


def multinomial_count(partition: Partition) -> int:
    """total! / prod (part!^count * count!), with total = sum part * count:
    the number of set partitions of a total-element set into blocks whose
    sizes realize the partition.  Integrality is asserted, not assumed."""
    total, den = 0, 1
    for part, count in partition:
        total += part * count
        den *= factorial(part) ** count * factorial(count)
    return _exact_quotient(factorial(total), den, "multinomial for %s", partition)


def s_by_partitions(
    n: int,
    k: int,
    cache: SequenceCache,
    part_filter: PartitionFilter | None = None,
) -> int:
    """Sum over the partitions of 2n into 2k odd parts that ``part_filter``
    admits of multinomial(lambda) * prod u((part-1)/2)^count.

    Unfiltered this is s(n, k), the independent oracle for SequenceCache.s.
    Over the {1, 3, 5} family it is congruent to s(n, k) mod 5, and over
    ``avoiding_prime(p)``, p = 3 (mod 4), to s(n, k) mod p; a residue is
    ``s_by_partitions(n, k, cache, flt) % p``.  An empty family sums to 0.
    """
    _check_pair(n, k)
    # Parts are at most 2n - 2k + 1, so u is needed up to index n - k.
    us = [cache.u(j) for j in range(n - k + 1)]
    top = factorial(2 * n)
    powers = {}  # (part, count) -> (part!^count * count!, u((part-1)/2)^count)
    total = 0
    for lam in enumerate_partitions(2 * n, 2 * k, part_filter):
        den = weight = 1
        for pair in lam:
            entry = powers.get(pair)
            if entry is None:
                part, count = pair
                entry = powers[pair] = (factorial(part) ** count * factorial(count),
                                        us[(part - 1) // 2] ** count)
            den *= entry[0]
            weight *= entry[1]
        total += _exact_quotient(top, den, "multinomial for %s", lam) * weight
    return total

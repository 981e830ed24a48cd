"""Partitions of 2n into 2k odd parts, and the partition-sum route to s(n, k).

The sum over these partitions of multinomial * product-of-u-powers gives
s(n, k) by a route completely independent of the power-series definition,
which makes it the oracle the series path is checked against.  Restricted
part sets (parts in {1, 3, 5}; parts below p^2 with no part equal to p)
support the per-prime reductions.

Partitions are enumerated by a walk over (part, count) pairs, one level per
distinct part rather than one per part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import SequenceCache, _check_pair, _exact_quotient, factorial
from .residues import _require_prime


@dataclass(frozen=True)
class PartitionFilter:
    """Constraint on admissible part values: an upper bound and at most one
    forbidden value.  ``None`` means unconstrained."""

    max_part: int | None = None
    forbidden_part: int | None = None

    @classmethod
    def unrestricted(cls) -> "PartitionFilter":
        """All odd parts allowed."""
        return cls()

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

    @property
    def is_restrictive(self) -> bool:
        return self.max_part is not None or self.forbidden_part is not None


@dataclass(frozen=True)
class OddPartition:
    """A partition of ``total`` into ``num_parts`` odd parts.

    ``multiplicities`` holds sparse (part, count) pairs with parts strictly
    increasing; the dense multiplicity vector (c_1, ..., c_total) is
    recoverable via ``multiplicity_vector``.  Two partitions are equal iff
    their multiplicity data agree.
    """

    total: int
    num_parts: int
    multiplicities: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        previous = 0
        for part, count in self.multiplicities:
            if part <= previous:
                raise ValueError("parts must be strictly increasing")
            if part % 2 == 0:
                raise ValueError(f"part {part} is even")
            if count < 1:
                raise ValueError(f"part {part} has multiplicity {count}")
            previous = part
        if sum(part * count for part, count in self.multiplicities) != self.total:
            raise ValueError("multiplicities do not sum to the partitioned total")
        if sum(count for _, count in self.multiplicities) != self.num_parts:
            raise ValueError("multiplicities do not give the declared part count")

    @classmethod
    def _trusted(cls, total: int, num_parts: int, multiplicities: tuple) -> "OddPartition":
        """Build without __post_init__'s checks, for partitions that
        enumerate_partitions makes valid by construction."""
        partition = object.__new__(cls)
        object.__setattr__(partition, "total", total)
        object.__setattr__(partition, "num_parts", num_parts)
        object.__setattr__(partition, "multiplicities", multiplicities)
        return partition

    def parts(self) -> tuple[int, ...]:
        """All parts in increasing order, with repetition."""
        out: list[int] = []
        for part, count in self.multiplicities:
            out.extend([part] * count)
        return tuple(out)

    def multiplicity_vector(self) -> list[int]:
        """Dense vector c with c[i-1] = number of parts equal to i, 1 <= i <= total."""
        vec = [0] * self.total
        for part, count in self.multiplicities:
            vec[part - 1] = count
        return vec

    def dump(self) -> str:
        """Debug form: comma-separated part:count pairs, e.g. '1:3,5:1'."""
        return ",".join(f"{part}:{count}" for part, count in self.multiplicities)


def enumerate_partitions(
    total: int,
    num_parts: int,
    part_filter: PartitionFilter | None = None,
) -> Iterator[OddPartition]:
    """Yield every partition of ``total`` into ``num_parts`` odd parts that
    the filter admits, each exactly once.

    The walk takes the largest part first, then its count from largest to
    smallest, so the stream runs in decreasing lexicographic order on the
    sorted-descending part tuples.  An empty stream signals no partitions.
    """
    if total < 1 or num_parts < 1:
        raise ValueError(f"total and num_parts must be >= 1, got {total}, {num_parts}")
    if part_filter is None:
        part_filter = PartitionFilter.unrestricted()
    # A sum of num_parts odd numbers has the parity of num_parts.
    if total % 2 != num_parts % 2:
        return
    top = total if part_filter.max_part is None else part_filter.max_part
    top -= 1 - top % 2  # largest admissible odd value
    forbidden = part_filter.forbidden_part

    def walk(remaining: int, parts_left: int, hi: int, chosen: tuple) -> Iterator[OddPartition]:
        # Complete chosen, the pairs above hi, with parts_left odd parts <= hi.
        # A part leaves room for parts_left-1 further parts >= 1.
        for part in range(min(hi, remaining - parts_left + 1), 0, -2):
            if part * parts_left < remaining:
                return  # descending: no smaller part can reach the remaining total
            if part == forbidden:
                continue
            if part == 1:
                # Here parts_left == remaining, so only ones fit.
                yield OddPartition._trusted(total, num_parts, ((1, parts_left),) + chosen)
                return
            # Leave the parts below at least 1 and at most part - 2 each.
            most = min(parts_left, (remaining - parts_left) // (part - 1))
            least = max(1, (remaining - (part - 2) * parts_left + 1) // 2)
            for count in range(most, least - 1, -1):
                pairs = ((part, count),) + chosen
                if count == parts_left:
                    yield OddPartition._trusted(total, num_parts, pairs)
                else:
                    yield from walk(remaining - part * count, parts_left - count, part - 2, pairs)

    yield from walk(total, num_parts, top, ())


def multinomial_count(partition: OddPartition) -> int:
    """The integer total! / prod_i (i!^c_i * c_i!) for the partition.

    This counts set partitions of a total-element set into blocks whose
    sizes realize the partition; integrality is asserted, not assumed.
    """
    pairs = partition.multiplicities
    den = 1
    for part, count in pairs:
        den *= factorial(part) ** count * factorial(count)
    return _exact_quotient(factorial(partition.total), den, "multinomial for %s", pairs)


def s_by_partitions(n: int, k: int, cache: SequenceCache) -> int:
    """s(n, k) as the sum over partitions of 2n into 2k odd parts of
    multinomial(lambda) * prod_i u((i-1)/2)^c_i.

    Independent oracle for SequenceCache.s; the two must agree exactly.
    """
    _check_pair(n, k)
    # Parts are at most 2n - 2k + 1, so u is needed up to index n - k.
    us = [cache.u(j) for j in range(n - k + 1)]
    top = factorial(2 * n)
    powers = {}  # (part, count) -> (part!^count * count!, u((part-1)/2)^count)
    total = 0
    for lam in enumerate_partitions(2 * n, 2 * k):
        den = weight = 1
        for pair in lam.multiplicities:
            entry = powers.get(pair)
            if entry is None:
                part, count = pair
                entry = powers[pair] = (factorial(part) ** count * factorial(count),
                                        us[(part - 1) // 2] ** count)
            den *= entry[0]
            weight *= entry[1]
        total += _exact_quotient(top, den, "multinomial for %s", lam.multiplicities) * weight
    return total


def s_mod_p_by_partitions(
    n: int,
    k: int,
    p: int,
    cache: SequenceCache,
    part_filter: PartitionFilter | None = None,
) -> int:
    """Residue of s(n, k) mod p with every summand reduced individually.

    ``part_filter`` selects the partition family: unrestricted works for any
    prime; the {1,3,5} family is the p=5 reduction and the below-p^2 /
    no-part-p family is the p = 3 (mod 4) reduction, both valid only for odd
    p.  An empty family yields 0.
    """
    _check_pair(n, k)
    _require_prime(p)
    if part_filter is not None and part_filter.is_restrictive and p == 2:
        raise ValueError("restricted part families are only meaningful for odd p")
    us = [cache.u(j) % p for j in range(n - k + 1)]
    result = 0
    for lam in enumerate_partitions(2 * n, 2 * k, part_filter):
        term = multinomial_count(lam) % p
        for part, count in lam.multiplicities:
            term = term * pow(us[(part - 1) // 2], count, p) % p
        result = (result + term) % p
    return result

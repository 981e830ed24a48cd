"""Partitions of 2n into 2k odd parts, and the partition-sum route to s(n, k).

The sum over these partitions of multinomial * product-of-u-powers gives
s(n, k) by a route completely independent of the power-series definition,
which makes it the oracle the series path is checked against.  Restricted
part sets (parts in {1, 3, 5}; parts below p^2 with no part equal to p)
support the per-prime reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import IntegrityError, SequenceCache
from .residues import factorials, is_prime


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
        _descend makes valid by construction."""
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

    Parts are chosen largest-first, so the stream is ordered
    lexicographically decreasing on the sorted-descending part tuples.  An
    empty stream signals an empty partition set.
    """
    if total < 1 or num_parts < 1:
        raise ValueError(f"total and num_parts must be >= 1, got {total}, {num_parts}")
    if part_filter is None:
        part_filter = PartitionFilter.unrestricted()
    # A sum of num_parts odd numbers has the parity of num_parts.
    if total % 2 != num_parts % 2:
        return
    yield from _descend(total, num_parts, total, part_filter, [])


def _descend(
    remaining: int,
    parts_left: int,
    cap: int,
    part_filter: PartitionFilter,
    prefix: list[int],
) -> Iterator[OddPartition]:
    if parts_left == 0:
        if remaining == 0:
            yield _from_descending_parts(prefix)
        return
    if remaining == parts_left and part_filter.forbidden_part != 1:
        # Only ones fit; this is what the loop below would reach part by part.
        if part_filter.max_part is None or part_filter.max_part >= 1:
            yield _from_descending_parts(prefix + [1] * parts_left)
        return
    # Largest usable value: leave room for parts_left-1 further parts >= 1.
    hi = min(cap, remaining - (parts_left - 1))
    if part_filter.max_part is not None:
        hi = min(hi, part_filter.max_part)
    if hi % 2 == 0:
        hi -= 1
    for part in range(hi, 0, -2):
        if part * parts_left < remaining:
            break  # descending: no smaller part can reach the remaining total
        if part == part_filter.forbidden_part:
            continue
        prefix.append(part)
        yield from _descend(remaining - part, parts_left - 1, part, part_filter, prefix)
        prefix.pop()


def _from_descending_parts(parts: list[int]) -> OddPartition:
    mults: list[tuple[int, int]] = []
    for part in reversed(parts):
        if mults and mults[-1][0] == part:
            mults[-1] = (part, mults[-1][1] + 1)
        else:
            mults.append((part, 1))
    return OddPartition._trusted(sum(parts), len(parts), tuple(mults))


def multinomial_count(partition: OddPartition) -> int:
    """The integer total! / prod_i (i!^c_i * c_i!) for the partition.

    This counts set partitions of a total-element set into blocks whose
    sizes realize the partition; integrality is asserted, not assumed.
    """
    fact = factorials(partition.total)
    den = 1
    for part, count in partition.multiplicities:
        den *= fact[part] ** count * fact[count]
    q, rem = divmod(fact[partition.total], den)
    if rem:
        raise IntegrityError(f"multinomial for {partition.dump()} is not an integer")
    return q


def s_by_partitions(n: int, k: int, cache: SequenceCache) -> int:
    """s(n, k) as the sum over partitions of 2n into 2k odd parts of
    multinomial(lambda) * prod_i u((i-1)/2)^c_i.

    Independent oracle for SequenceCache.s; the two must agree exactly.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    # Parts are at most 2n - 2k + 1, so u is needed up to index n - k.
    us = [cache.u(j) for j in range(n - k + 1)]
    total = 0
    for lam in enumerate_partitions(2 * n, 2 * k):
        term = multinomial_count(lam)
        for part, count in lam.multiplicities:
            term *= us[(part - 1) // 2] ** count
        total += term
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
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if part_filter is not None and part_filter.is_restrictive and p == 2:
        raise ValueError("restricted part families are only meaningful for odd p")
    result = 0
    for lam in enumerate_partitions(2 * n, 2 * k, part_filter):
        term = multinomial_count(lam) % p
        for part, count in lam.multiplicities:
            term = term * pow(cache.u((part - 1) // 2) % p, count, p) % p
        result = (result + term) % p
    return result

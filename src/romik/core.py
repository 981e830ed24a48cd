"""Exact computation of the Romik sequence d(n) and its auxiliary arrays.

Everything here is arbitrary-precision integer or exact rational arithmetic;
no value is ever rounded or truncated silently.  The objects computed:

    u(n), v(n)  auxiliary integer sequences defined by recurrences over
                squared products of the arithmetic progressions 3,7,11,...
                and 1,5,9,...,
    s(n, k)     the integer (2n)!/(2k)! [z^(2n)] f(z)^(2k), where f is the
                odd power series sum_j u(j)/(2j+1)! z^(2j+1),
    r(n, k)     2^(n-k) s(n, k),
    d(n)        d(0) = 1 and d(n) = v(n) - sum_{k=1}^{n-1} r(n, k) d(k).

The s-table is built one row at a time from the rows below it.  With
h(m) = (2m)! [z^(2m)] f(z)^2, the identity f^(2k) = f^(2k-2) * f^2 gives

    s(n, 1) = h(n) / 2,
    (2k)(2k-1) s(n, k) = sum_{m=1}^{n-k+1} C(2n, 2m) h(m) s(n-m, k-1),

so every row is integer multiply-adds followed by one exact division per
entry, and raising the bound only appends rows (Comtet, Advanced
Combinatorics, section 3.3).  The Fraction-based path in
``s_table_by_series`` computes the same table directly from
``RationalSeries`` powers and serves as the reference the recurrence is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul


class IntegrityError(ArithmeticError):
    """An exactness invariant failed: a division left a remainder, a value
    that must be odd came out even, or a diagonal entry is not 1.  Any of
    these indicates a bug or a corrupted row restored by
    ``SequenceCache.from_values``, never a property of the requested index."""


def odd_product_squared(n: int, offset: int) -> int:
    """Square of the product offset * (offset+4) * ... * (4n - (4-offset)).

    offset=3 gives (3*7*...*(4n-1))^2, offset=1 gives (1*5*...*(4n-3))^2.
    The empty product (n=0) is 1.
    """
    if offset not in (1, 3):
        raise ValueError(f"offset must be 1 or 3, got {offset}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    prod = 1
    for i in range(1, n + 1):
        prod *= 4 * i - (4 - offset)
    return prod * prod


@dataclass
class RationalSeries:
    """Truncated power series with exact Fraction coefficients.

    ``coefficients[m]`` is the coefficient of z^m; the list always has
    exactly ``truncation_order + 1`` entries.  Multiplication truncates at
    the smaller operand order and pairs only nonzero coefficients: the
    products landing on each power are summed as integers over the lcm of
    their denominators and reduced once, into one Fraction per coefficient.
    Comparison is exact.
    """

    coefficients: list[Fraction]
    truncation_order: int

    def __post_init__(self) -> None:
        if self.truncation_order < 0:
            raise ValueError("truncation_order must be >= 0")
        if len(self.coefficients) != self.truncation_order + 1:
            raise ValueError(
                f"expected {self.truncation_order + 1} coefficients, "
                f"got {len(self.coefficients)}"
            )
        self.coefficients = [Fraction(c) for c in self.coefficients]

    def coefficient(self, m: int) -> Fraction:
        if not 0 <= m <= self.truncation_order:
            raise IndexError(f"power {m} outside truncation order {self.truncation_order}")
        return self.coefficients[m]

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        order = min(self.truncation_order, other.truncation_order)
        a = _nonzero_terms(self.coefficients, order)
        b = _nonzero_terms(other.coefficients, order)
        # products[m]: the unreduced (numerator, denominator) of each a_i * b_(m-i)
        products: list[list[tuple[int, int]]] = [[] for _ in range(order + 1)]
        for i, na, da in a:
            for j, nb, db in b:
                if i + j > order:
                    break
                products[i + j].append((na * nb, da * db))
        coeffs = []
        for terms in products:
            den = lcm(*(d for _, d in terms))
            coeffs.append(Fraction(sum(n * (den // d) for n, d in terms), den))
        return RationalSeries(coeffs, order)


def _nonzero_terms(coefficients: list[Fraction], order: int) -> list[tuple[int, int, int]]:
    """(index, numerator, denominator) of each nonzero coefficient up to order."""
    return [
        (i, c.numerator, c.denominator)
        for i, c in enumerate(coefficients[: order + 1])
        if c
    ]


class SequenceCache:
    """Memoized exact values of u(n), v(n), d(n) and the triangular s-table.

    Sequences are append-only dense arrays seeded with u(0)=v(0)=d(0)=1.
    The s-table is append-only too: row n is computed once from rows
    1..n-1 and h(1..n) (see the module docstring), so growing the bound,
    whether by ``build_s_table(max_n)`` or by asking for d(n) or s(n, k)
    one n at a time, only builds the rows not yet held.  A cache restored
    by ``from_values`` grows the same way from its loaded rows and u.

    After a build phase the cache is only read, so it is safe to share
    across threads that no longer mutate it.
    """

    def __init__(self) -> None:
        self._u: list[int] = [1]
        self._v: list[int] = [1]
        self._d: list[int] = [1]
        self._h: list[int] = [0]  # _h[m] = (2m)! [z^(2m)] f^2
        self._s_rows: list[list[int]] = []  # _s_rows[n-1][k-1] = s(n, k)

    # -- u, v ----------------------------------------------------------

    def u(self, n: int) -> int:
        """u(n) = (3*7*...*(4n-1))^2 - sum_{m<n} C(2n+1, 2m+1) (1*5*...*(4(n-m)-3))^2 u(m)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        u = self._u
        if len(u) <= n:
            # squares[i] = (1*5*...*(4i-3))^2
            squares = [1]
            prod = 1
            for i in range(1, n + 1):
                prod *= 4 * i - 3
                squares.append(prod * prod)
            while len(u) <= n:
                j = len(u)
                acc = 0
                for m in range(j):
                    acc += comb(2 * j + 1, 2 * m + 1) * squares[j - m] * u[m]
                u.append(odd_product_squared(j, 3) - acc)
        return u[n]

    def v(self, n: int) -> int:
        """v(n) = 2^(n-1) (1*5*...*(4n-3))^2 - (1/2) sum_{0<m<n} C(2n, 2m) v(m) v(n-m).

        The halved sum is verified to be even before dividing.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        v = self._v
        while len(v) <= n:
            j = len(v)
            acc = 0
            for m in range(1, j):
                acc += comb(2 * j, 2 * m) * v[m] * v[j - m]
            if acc & 1:
                raise IntegrityError(f"intermediate sum for v({j}) is odd")
            v.append((1 << (j - 1)) * odd_product_squared(j, 1) - acc // 2)
        return v[n]

    # -- s, r ----------------------------------------------------------

    @property
    def s_bound(self) -> int:
        """Largest n for which the s-table currently holds row n."""
        return len(self._s_rows)

    def build_s_table(self, max_n: int) -> None:
        """Fill s(n, k) for all 1 <= k <= n <= max_n, appending only the
        rows past ``s_bound`` (no-op if already built)."""
        rows = self._s_rows
        if max_n <= len(rows):
            return
        # f has m! [z^m] f = u((m-1)/2) for odd m, so h(m) is the binomial
        # convolution of u with itself over odd indices.
        self.u(max_n - 1)
        u, h = self._u, self._h
        for m in range(len(h), max_n + 1):
            h.append(sum(comb(2 * m, 2 * i + 1) * u[i] * u[m - 1 - i] for i in range(m)))

        for n in range(len(rows) + 1, max_n + 1):
            first, rem = divmod(h[n], 2)
            if rem:
                raise IntegrityError(f"s({n},1) is not an integer")
            row = [first]
            # terms[m-1] = C(2n, 2m) h(m) and below[m-1] = row n-m, m = 1..n-1
            terms = [comb(2 * n, 2 * m) * h[m] for m in range(1, n)]
            below = rows[::-1]
            for k in range(2, n + 1):
                column = [r[k - 2] for r in below[: n - k + 1]]  # s(n-m, k-1)
                q, rem = divmod(sum(map(mul, terms, column)), 2 * k * (2 * k - 1))
                if rem:
                    raise IntegrityError(f"s({n},{k}) is not an integer")
                row.append(q)
            if row[-1] != 1:
                raise IntegrityError(f"s({n},{n}) = {row[-1]}, expected 1")
            rows.append(row)

    def s(self, n: int, k: int) -> int:
        """Exact s(n, k) for 1 <= k <= n; grows the table to n if needed."""
        _check_pair(n, k)
        if n > len(self._s_rows):
            self.build_s_table(n)
        return self._s_rows[n - 1][k - 1]

    def r(self, n: int, k: int) -> int:
        """Exact r(n, k) = 2^(n-k) s(n, k)."""
        return self.s(n, k) << (n - k)

    def s_row(self, n: int) -> list[int]:
        """The row [s(n, 1), ..., s(n, n)] as a copy."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n > len(self._s_rows):
            self.build_s_table(n)
        return list(self._s_rows[n - 1])

    # -- d ---------------------------------------------------------------

    def d(self, n: int) -> int:
        """d(n) = v(n) - sum_{k=1}^{n-1} r(n, k) d(k), with d(0) = 1.

        Every value appended to the cache is checked to be odd.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        d = self._d
        if n >= len(d):
            self.build_s_table(n)
            while len(d) <= n:
                j = len(d)
                row = self._s_rows[j - 1]
                acc = 0
                for k in range(1, j):
                    acc += (row[k - 1] << (j - k)) * d[k]
                val = self.v(j) - acc
                if val & 1 == 0:
                    raise IntegrityError(f"d({j}) = {val} is even")
                d.append(val)
        return d[n]

    # -- bulk views used by persistence and the verifier ------------------

    def known_values(self, name: str) -> list[int]:
        """Copy of all cached values of sequence 'u', 'v' or 'd'."""
        try:
            return list({"u": self._u, "v": self._v, "d": self._d}[name])
        except KeyError:
            raise ValueError(f"unknown sequence {name!r}") from None

    def known_s_rows(self) -> list[list[int]]:
        """Copy of the cached s-table rows (row n at index n-1)."""
        return [list(row) for row in self._s_rows]

    @classmethod
    def from_values(
        cls,
        u: list[int] | None = None,
        v: list[int] | None = None,
        d: list[int] | None = None,
        s_rows: list[list[int]] | None = None,
    ) -> "SequenceCache":
        """Rebuild a cache from previously stored values, re-checking the
        structural invariants (seeds equal 1, d odd, triangular shape,
        unit diagonal)."""
        cache = cls()
        for name, values in (("u", u), ("v", v), ("d", d)):
            if values is None:
                continue
            if not values or values[0] != 1:
                raise ValueError(f"sequence {name} must start with value 1")
            if name == "d" and any(x & 1 == 0 for x in values):
                raise ValueError("sequence d contains an even value")
        if u:
            cache._u = list(u)
        if v:
            cache._v = list(v)
        if d:
            cache._d = list(d)
        if s_rows:
            for i, row in enumerate(s_rows):
                if len(row) != i + 1:
                    raise ValueError(f"s-table row {i + 1} has {len(row)} entries")
                if row[i] != 1:
                    raise ValueError(f"s({i + 1},{i + 1}) = {row[i]}, expected 1")
            cache._s_rows = [list(row) for row in s_rows]
        return cache


def _check_pair(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")


def theta_series(truncation_order: int, cache: SequenceCache) -> RationalSeries:
    """The series sum_j u(j)/(2j+1)! z^(2j+1), truncated after z^truncation_order.

    Even-power coefficients are zero; the coefficient of z^(2j+1) equals
    u(j)/(2j+1)! exactly.
    """
    if truncation_order < 1:
        raise ValueError(f"truncation_order must be >= 1, got {truncation_order}")
    coeffs = [Fraction(0)] * (truncation_order + 1)
    for m in range(1, truncation_order + 1, 2):
        j = (m - 1) // 2
        coeffs[m] = Fraction(cache.u(j), factorial(m))
    return RationalSeries(coeffs, truncation_order)


def s_table_by_series(max_n: int, cache: SequenceCache) -> list[list[int]]:
    """Triangular s-table computed through Fraction series arithmetic.

    This is the reference path: s(n, k) = (2n)!/(2k)! [z^(2n)] f^(2k) with
    all coefficients as exact rationals.  The row recurrence used by
    SequenceCache.build_s_table must reproduce it bit for bit.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    order = 2 * max_n
    f = theta_series(order, cache)
    f2 = f * f
    rows = [[0] * n for n in range(1, max_n + 1)]
    power = f2
    for k in range(1, max_n + 1):
        if k > 1:
            power = power * f2
        fact_2k = factorial(2 * k)
        for n in range(k, max_n + 1):
            value = power.coefficient(2 * n) * factorial(2 * n) / fact_2k
            if value.denominator != 1:
                raise IntegrityError(f"s({n},{k}) is not an integer: {value}")
            rows[n - 1][k - 1] = value.numerator
    return rows

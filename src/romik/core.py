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
Combinatorics, section 3.3).

Every entry carries a power of two known in advance.  With
E(n) = v2((2n)!) = 2n - (binary digit sum of n), Kummer's theorem gives
v2(C(2n, 2m)) = E(n) - E(m) - E(n-m).  With v2(u(j)) >= v2((2j+1)!) = E(j)
this makes 2^E(n) divide h(n), and induction on the recurrence then gives
2^(E(n) - E(k)) | s(n, k).  The table is held with that power
divided out, s^(n, k) = s(n, k) >> (E(n) - E(k)).  Writing C^(n, m) for
the odd part C(2n, 2m) >> (E(n) - E(m) - E(n-m)) and odd(k) for the odd
part of k, the powers of two cancel exactly (E(k) - E(k-1) = 1 + v2(k)):

    s^(n, 1) = h(n) >> E(n),
    (2k-1) odd(k) s^(n, k) = sum_{m=1}^{n-k+1} C^(n, m) s^(m, 1) s^(n-m, k-1).

h(n) is computed once per new row from u, and h(m) for m < n is read back
as s^(m, 1) from column 1.  That h(n) is a multiple of 2^E(n) is checked:
a remainder raises IntegrityError, never yields a value.  The shift is
tight (s^(k, k) = 1), so no larger power is known in general.

The inner loops hold only the big-integer multiply-adds.  Each index reads
its binomial coefficients from one row [C(N, 0), ..., C(N, N)] built
multiplicatively (``_binomial_row``), the odd products in u and v are
carried from one index to the next, and a call that grows the s-table
first indexes the held rows by column, so the sum for s^(n, k) is one dot
product of a slice of the row's terms, in descending m, with column k-1.

Residues of r are read without forming r: ``SequenceCache.r_residues(p,
max_n)`` returns the rows of r(n, k) mod p, each entry the held s^(n, k)
mod p times 2^(E(n) - E(k) + n - k) mod p from one table of powers of two
per call.  The congruence suites and residue grids read through it; ``r``
stays the exact single-entry read.

``s_table_by_series`` is the reference the recurrence is tested against:
it reads only u and shares no code with the builder.  It puts g, with
f = z g(z^2), over the lcm of the reduced denominators of u(j)/(2j+1)! as
integer numerators, and carries the powers of f^2 in w = z^2 as integer
numerators over one denominator, each formed in lowest terms by
``_truncated_product`` (the package's one series product); each entry is
one exact division.
f^2 is the square of f and an even power (f^2)^k the square of
(f^2)^(k/2); a square forms each cross product once, so these cost about
half the big products.  For that, (f^2)^(k/2) is kept, cut to the terms
its square reads, only until the square is taken.  An odd power is the one
below it times f^2.

Three primitives here are shared by the whole package: ``factorial`` (n!,
memoized), ``_exact_quotient`` (divide, or raise IntegrityError on a
remainder) and ``_check_pair`` (the 1 <= k <= n guard).  The builder alone
divides inline, so that the reference above shares no code with it.

A restored cache may hold its stored rows undecoded: ``from_stored`` takes
an iterator over them with their count, ``s_bound`` counts them, and each
row is taken from the iterator, in order, when the cache first reads it
(``_restore``).  So a command that reads rows 1..n of a longer stored table
decodes only those.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from itertools import islice
from math import gcd, lcm, prod
from operator import lshift, mul


factorial = functools.cache(math.factorial)


class IntegrityError(ArithmeticError):
    """An exactness invariant failed: a division left a remainder, a known
    power of two does not divide a value, a value that must be odd came out
    even, or a diagonal entry is not 1.  Any of these indicates a bug or a
    corrupted value restored by ``SequenceCache.from_stored``, never a
    property of the requested index."""


class StoredValueError(ValueError):
    """A table handed to ``SequenceCache.from_stored`` breaks a structural
    invariant (seed, parity, shape or diagonal); ``table`` names it: 'u',
    'v', 'd' or 's'."""

    def __init__(self, table: str, message: str) -> None:
        super().__init__(message)
        self.table = table


class SequenceCache:
    """Memoized exact values of u(n), v(n), d(n) and the triangular s-table.

    Sequences are append-only dense arrays seeded with u(0)=v(0)=d(0)=1.
    The s-table is append-only too: row n is computed once from rows
    1..n-1 and h(n) (see the module docstring), so growing the bound,
    whether by ``build_s_table(max_n)`` or by asking for d(n) or s(n, k)
    one n at a time, only builds the rows not yet held.  A cache restored
    by ``from_stored`` grows the same way from its loaded rows and u.
    Rows handed over with a count wait in ``_waiting`` until first read:
    ``_restore`` takes them, in order, before any row is built or read.

    ``_s_rows`` is the record of the table and holds it normalized,
    ``_s_rows[n-1][k-1] = s^(n, k) = s(n, k) >> (E(n) - E(k))``; ``_e``
    holds E(0..s_bound) and grows only where rows are appended or
    restored.  ``s``, ``r`` (one shift, by E(n) - E(k) + n - k),
    ``known_s_rows`` and ``d`` shift on read, and ``r_residues`` reduces
    mod p on read without shifting; ``stored_s_rows`` and
    ``from_stored`` are the one round trip of the held form, to and from
    ``cache_io``, which writes it as it is.  A row is never changed once
    held, so ``stored_s_rows`` hands out the held rows without copying.
    The cache holds nothing else: the column index the row recurrence
    reads is built by each ``build_s_table`` call that grows the table and
    dropped when it returns.

    After a build phase the cache is only read, so it is safe to share
    across threads that no longer mutate it.
    """

    def __init__(self) -> None:
        self._u: list[int] = [1]
        self._v: list[int] = [1]
        self._d: list[int] = [1]
        self._e: list[int] = [0]  # _e[n] = E(n) for n <= s_bound
        self._s_rows: list[list[int]] = []  # _s_rows[n-1][k-1] = s(n, k) >> (E(n) - E(k))
        self._waiting: Iterator[list[int]] = iter(())  # stored rows past _s_rows, in order
        self._pending = 0  # how many rows _waiting still holds

    # -- u, v ----------------------------------------------------------

    def u(self, n: int) -> int:
        """u(n) = (3*7*...*(4n-1))^2 - sum_{m<n} C(2n+1, 2m+1) (1*5*...*(4(n-m)-3))^2 u(m)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        u = self._u
        if len(u) <= n:
            # squares[i] = (1*5*...*(4i-3))^2; odd3 = 3*7*...*(4j-1), carried with j
            squares = [1]
            odd1 = 1
            for i in range(1, n + 1):
                odd1 *= 4 * i - 3
                squares.append(odd1 * odd1)
            odd3 = prod(range(3, 4 * len(u) - 4, 4))
            while len(u) <= n:
                j = len(u)
                odd3 *= 4 * j - 1
                # C(2j+1, 2m+1) (1*5*...*(4(j-m)-3))^2 for m = 0..j-1
                weights = map(mul, _binomial_row(2 * j + 1)[1 : 2 * j : 2], squares[j:0:-1])
                u.append(odd3 * odd3 - sum(map(mul, weights, u)))
        return u[n]

    def v(self, n: int) -> int:
        """v(n) = 2^(n-1) (1*5*...*(4n-3))^2 - (1/2) sum_{0<m<n} C(2n, 2m) v(m) v(n-m).

        The sum is symmetric under m <-> n-m, so its half is the terms
        m < n/2 plus, for even n, C(2n, n)/2 v(n/2)^2 (C(2n, n) is even).
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        v = self._v
        if len(v) <= n:
            odd1 = prod(range(1, 4 * len(v) - 4, 4))  # 1*5*...*(4j-3), carried with j
            while len(v) <= n:
                j = len(v)
                odd1 *= 4 * j - 3
                binomials = _binomial_row(2 * j)
                weighted = map(mul, binomials[2:j:2], v[1:j])
                half = sum(map(mul, weighted, v[j - 1 : 0 : -1]))
                if j & 1 == 0:
                    half += (binomials[j] >> 1) * v[j // 2] ** 2
                v.append((odd1 * odd1 << (j - 1)) - half)
        return v[n]

    # -- s, r ----------------------------------------------------------

    @property
    def s_bound(self) -> int:
        """Largest n for which the s-table holds row n, restored or waiting
        to be."""
        return len(self._s_rows) + self._pending

    def build_s_table(self, max_n: int) -> None:
        """Fill s(n, k) for all 1 <= k <= n <= max_n, appending only the
        rows past ``s_bound`` (no-op if already built)."""
        self._restore(max_n)
        rows = self._s_rows
        if max_n <= len(rows):
            return
        self.u(max_n - 1)
        self._extend_e(max_n)
        u, e = self._u, self._e
        # cols[k-1] = [s^(k, k), s^(k+1, k), ...], the held rows by column,
        # kept for this call only.
        cols = [[row[k] for row in rows[k:]] for k in range(len(rows))]
        for n in range(len(rows) + 1, max_n + 1):
            binomials = _binomial_row(2 * n)
            # f has m! [z^m] f = u((m-1)/2) for odd m, so h(n) is the binomial
            # convolution of u with itself over odd indices.
            h = sum(map(mul, map(mul, binomials[1 : 2 * n : 2], u), u[n - 1 :: -1]))
            first = h >> e[n]
            if first << e[n] != h:
                raise IntegrityError(f"h({n}) / 2^{e[n]} is not an integer")
            # terms[t] = C^(n, m) s^(m, 1) for m = n-1-t, so terms[k-2:] lines up
            # with cols[k-2] = [s^(k-1, k-1), ..., s^(n-1, k-1)] = s^(n-m, k-1).
            terms = [
                (binomials[2 * m] >> (e[n] - e[m] - e[n - m])) * rows[m - 1][0]
                for m in range(n - 1, 0, -1)
            ]
            row = [first]
            for k in range(2, n + 1):
                odd_k = k // (k & -k)
                # Divided here, not by _exact_quotient, which the reference
                # s_table_by_series uses: the two routes share no code.
                q, rem = divmod(sum(map(mul, terms[k - 2 :], cols[k - 2])), (2 * k - 1) * odd_k)
                if rem:
                    raise IntegrityError(f"s({n},{k}) is not an integer")
                row.append(q)
            if row[-1] != 1:
                raise IntegrityError(f"s({n},{n}) = {row[-1]}, expected 1")
            rows.append(row)
            cols.append([])
            for col, x in zip(cols, row, strict=True):
                col.append(x)

    def _restore(self, n: int) -> None:
        """Take the waiting stored rows, in order, up to row n, checking
        each as ``from_stored`` does.  Errors of the row source (a cache
        file's CacheFormatError) pass through."""
        held = len(self._s_rows)
        take = min(n - held, self._pending)
        if take <= 0:
            return
        rows = list(islice(self._waiting, take))
        if len(rows) != take:  # the source failed on an earlier read
            raise StoredValueError("s", f"stored s-table rows past {held} are not readable")
        _check_triangle(rows, held + 1)
        self._s_rows += rows
        self._pending -= take
        self._extend_e(held + take)

    def _extend_e(self, n: int) -> None:
        """Grow the table of E(m) = v2((2m)!) = 2m - (binary digit sum of m)
        to m = n.  Called only where rows are appended or restored."""
        e = self._e
        e.extend(2 * m - bin(m).count("1") for m in range(len(e), n + 1))

    def _stored(self, n: int, k: int) -> int:
        """s^(n, k) as held, growing the table to n if needed."""
        _check_pair(n, k)
        if n > len(self._s_rows):
            self.build_s_table(n)
        return self._s_rows[n - 1][k - 1]

    def s(self, n: int, k: int) -> int:
        """Exact s(n, k) for 1 <= k <= n; grows the table to n if needed."""
        x = self._stored(n, k)
        e = self._e
        return x << (e[n] - e[k])

    def r(self, n: int, k: int) -> int:
        """Exact r(n, k) = 2^(n-k) s(n, k), one shift of the stored entry."""
        x = self._stored(n, k)
        e = self._e
        return x << (e[n] - e[k] + n - k)

    def r_residues(
        self, p: int, max_n: int, lo: int = 1, max_k: int | None = None
    ) -> list[list[int]]:
        """Rows [r(n, 1) % p, ..., r(n, min(n, max_k)) % p] for n = lo..max_n
        (every column if max_k is None), growing the table to max_n if
        needed.  Each entry is s^(n, k) % p times 2^(E(n) - E(k) + n - k) % p,
        read from one table of powers of two, so r is never formed; where
        that power is 0 mod p (p = 2, k < n) the held entry is not reduced
        at all, and entries outside the window are not read."""
        if p < 2:
            raise ValueError(f"p must be >= 2, got {p}")
        if max_n < 0 or lo < 1:
            raise ValueError(f"need max_n >= 0 and lo >= 1, got max_n={max_n}, lo={lo}")
        self.build_s_table(max_n)
        e = self._e
        pow2 = [1]
        for _ in range(e[max_n] + max_n):
            pow2.append(pow2[-1] * 2 % p)
        width = max_n if max_k is None else min(max_k, max_n)
        ek = [e[k] + k for k in range(1, width + 1)]
        out = []
        for n, row in enumerate(self._s_rows[lo - 1 : max_n], lo):
            top = e[n] + n
            powers = [pow2[top - c] for c in ek[:n]]
            out.append([t and x % p * t % p for x, t in zip(row, powers)])
        return out

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
            e = self._e
            while len(d) <= n:
                j = len(d)
                # r(j, k) d(k) = (s^(j, k) << (E(j) + j - E(k) - k)) d(k) for k = 1..j-1
                shifts = [e[j] + j - e[k] - k for k in range(1, j)]
                shifted = map(lshift, self._s_rows[j - 1][: j - 1], shifts)
                val = self.v(j) - sum(map(mul, shifted, d[1:j]))
                if val & 1 == 0:
                    raise IntegrityError(f"d({j}) = {val} is even")
                d.append(val)
        return d[n]

    # -- bulk views used by persistence and the verifier ------------------

    def known_values(self, name: str) -> list[int]:
        """Copy of all cached values of sequence 'u', 'v' or 'd'."""
        return list(self._sequence(name))

    def known_count(self, name: str) -> int:
        """Number of cached values of sequence 'u', 'v' or 'd'."""
        return len(self._sequence(name))

    def _sequence(self, name: str) -> list[int]:
        try:
            return {"u": self._u, "v": self._v, "d": self._d}[name]
        except KeyError:
            raise ValueError(f"unknown sequence {name!r}") from None

    def known_s_rows(self) -> list[list[int]]:
        """The cached s-table rows (row n at index n-1), as true s values."""
        self._restore(self.s_bound)
        e = self._e
        e_k = e[1:]
        # list() trims each comprehension's spare capacity, as list(row) would.
        return [
            list([x << (e[n] - ek) for x, ek in zip(row, e_k)])
            for n, row in enumerate(self._s_rows, 1)
        ]

    def stored_s_rows(self) -> list[list[int]]:
        """The cached s-table rows as held, s^(n, k) = s(n, k) >> (E(n) - E(k)),
        in a new list.  The rows themselves are shared with the cache, not
        copied: read them, and copy a row before changing it."""
        self._restore(self.s_bound)
        return list(self._s_rows)

    @classmethod
    def from_stored(
        cls,
        u: list[int] | None = None,
        v: list[int] | None = None,
        d: list[int] | None = None,
        s_rows: Iterable[list[int]] | None = None,
        s_count: int | None = None,
    ) -> "SequenceCache":
        """Rebuild a cache from previously computed values, re-checking the
        structural invariants (seeds equal 1, d odd, triangular shape,
        unit diagonal); a failure raises StoredValueError naming the table.
        ``s_rows`` is in the held form returned by ``stored_s_rows``; its
        rows are taken over as they are, neither converted nor copied, so a
        caller copies a row before changing it.  A list of rows is taken at
        once.  Given ``s_count``, s_rows is an iterator over rows
        1..s_count, and each row is taken and checked only when the cache
        first reads it (or grows past it); an error the iterator raises
        then reaches that reader."""
        cache = cls()
        for name, values in (("u", u), ("v", v), ("d", d)):
            if values is None:
                continue
            if not values or values[0] != 1:
                raise StoredValueError(name, f"sequence {name} must start with value 1")
            if name == "d" and any(x & 1 == 0 for x in values):
                raise StoredValueError(name, "sequence d contains an even value")
        if u:
            cache._u = list(u)
        if v:
            cache._v = list(v)
        if d:
            cache._d = list(d)
        if s_rows is not None:
            cache._waiting = iter(s_rows)
            cache._pending = len(s_rows) if s_count is None else s_count
            if s_count is None:
                cache._restore(cache._pending)
        return cache


def _binomial_row(n: int) -> list[int]:
    """[C(n, 0), C(n, 1), ..., C(n, n)], built multiplicatively up to the
    middle and mirrored."""
    half = [1]
    for i in range(n // 2):
        half.append(half[-1] * (n - i) // (i + 1))
    return half + half[: n + 1 - len(half)][::-1]


def _check_triangle(s_rows: list[list[int]], first: int) -> None:
    """Check that s_rows, rows first, first + 1, ..., are triangular with a
    unit diagonal."""
    for n, row in enumerate(s_rows, first):
        if len(row) != n:
            raise StoredValueError("s", f"s-table row {n} has {len(row)} entries")
        if row[-1] != 1:
            raise StoredValueError("s", f"s({n},{n}) = {row[-1]}, expected 1")


def _check_pair(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")


def _exact_quotient(num: int, den: int, what: str, *args: object) -> int:
    """num / den, which must divide exactly; ``what % args`` names the
    quotient in the error and is formatted only when raising."""
    q, rem = divmod(num, den)
    if rem:
        raise IntegrityError(f"{what % args} is not an integer")
    return q


def _truncated_product(a: list[int], b: list[int], den: int) -> tuple[list[int], int]:
    """The product of the series sum a[m] z^m and sum b[m] z^m over den,
    truncated to the shorter operand's length and brought to lowest terms:
    (numerators, denominator) with gcd(denominator, *numerators) == 1.
    Each coefficient is one integer dot product.  A square, ``a is b``,
    forms each cross product a[i] a[m-i], i < m-i, once and doubles the
    sum, so it costs about half the big products of a general product."""
    length = min(len(a), len(b))
    rb = b[:length][::-1]  # rb[length - 1 - m:] runs b[m], b[m - 1], ..., b[0]
    if a is b:
        nums = []
        for m in range(length):
            twice = 2 * sum(map(mul, a[: (m + 1) // 2], rb[length - 1 - m :]))
            nums.append(twice if m & 1 else twice + a[m // 2] * a[m // 2])
    else:
        nums = [sum(map(mul, a, rb[length - 1 - m :])) for m in range(length)]
    g = gcd(den, *nums)
    if g > 1:
        return [x // g for x in nums], den // g
    return nums, den


def s_table_by_series(max_n: int, cache: SequenceCache) -> list[list[int]]:
    """Triangular s-table computed through exact rational series arithmetic.

    This is the reference path: s(n, k) = (2n)!/(2k)! [z^(2n)] f^(2k).  f is
    odd, f = z g(w) with w = z^2, so that coefficient is [w^(n-k)] (g^2)^k.
    g is put over the lcm of its denominators as integer numerators, and
    power k of g^2 is carried as numerators over one denominator, in lowest
    terms, only to w^(max_n-k).  An even power k is the square of power k/2,
    an odd one power k-1 times g^2.  The row recurrence used by
    SequenceCache.build_s_table must reproduce it bit for bit.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    # g's coefficient of w^j is u(j)/(2j+1)!.  Over the lcm of the reduced
    # denominators the numerators share no factor with it.
    u = [cache.u(j) for j in range(max_n)]
    g_den = lcm(*(factorial(2 * j + 1) // gcd(x, factorial(2 * j + 1)) for j, x in enumerate(u)))
    g = [x * g_den // factorial(2 * j + 1) for j, x in enumerate(u)]
    g2, g2_den = _truncated_product(g, g, g_den * g_den)
    rows = [[0] * n for n in range(1, max_n + 1)]
    # halves[j] = power j cut to the max_n - 2j + 1 terms that power 2j reads,
    # held from power j until power 2j is taken.
    halves: dict[int, tuple[list[int], int]] = {}
    power, power_den = g2, g2_den
    for k in range(1, max_n + 1):
        # Power k is read only to w^(max_n - k).
        if k % 2 == 0:
            half, half_den = halves.pop(k // 2)
            power, power_den = _truncated_product(half, half, half_den * half_den)
        elif k > 1:
            power, power_den = _truncated_product(power[: max_n - k + 1], g2, power_den * g2_den)
        if 2 * k <= max_n:
            halves[k] = power[: max_n - 2 * k + 1], power_den
        den = power_den * factorial(2 * k)
        for n, num in enumerate(power, k):
            rows[n - 1][k - 1] = _exact_quotient(num * factorial(2 * n), den, "s(%d,%d)", n, k)
    return rows

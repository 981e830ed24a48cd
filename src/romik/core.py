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
it reads only u and shares no code with the builder, carrying the powers
of f^2 as ``RationalSeries`` (integer numerators over one denominator) in
w = z^2 to the powers still needed, each entry one exact division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, lcm, prod
from operator import lshift, mul


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


@dataclass(init=False)
class RationalSeries:
    """Truncated power series with exact rational coefficients: z^m has the
    coefficient ``numerators[m] / denominator``, held in lowest terms
    (denominator > 0, gcd(denominator, *numerators) == 1), so equal series
    hold equal values.  ``coefficients`` and ``coefficient(m)`` give Fractions.
    A product truncates at the smaller operand order, skips the operands'
    leading zeros, forms each coefficient as one integer dot product over
    the product of the denominators and is reduced by one gcd.
    """

    numerators: list[int]
    denominator: int
    truncation_order: int

    def __init__(self, coefficients: list[Fraction], truncation_order: int) -> None:
        if truncation_order < 0:
            raise ValueError("truncation_order must be >= 0")
        if len(coefficients) != truncation_order + 1:
            raise ValueError(f"expected {truncation_order + 1} coefficients, got {len(coefficients)}")
        fractions = [Fraction(c) for c in coefficients]
        # Over the lcm of reduced denominators the numerators share no factor with it.
        self.denominator = den = lcm(*(c.denominator for c in fractions))
        self.numerators = [c.numerator * (den // c.denominator) for c in fractions]
        self.truncation_order = truncation_order

    @classmethod
    def _reduced(cls, numerators: list[int], denominator: int, order: int) -> "RationalSeries":
        """The series numerators / denominator, brought to lowest terms."""
        g = gcd(denominator, *numerators)
        series = cls.__new__(cls)
        series.numerators = [x // g for x in numerators] if g > 1 else numerators
        series.denominator = denominator // g
        series.truncation_order = order
        return series

    @property
    def coefficients(self) -> list[Fraction]:
        return [Fraction(x, self.denominator) for x in self.numerators]

    def coefficient(self, m: int) -> Fraction:
        if not 0 <= m <= self.truncation_order:
            raise IndexError(f"power {m} outside truncation order {self.truncation_order}")
        return Fraction(self.numerators[m], self.denominator)

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        order = min(self.truncation_order, other.truncation_order)
        a, b = self.numerators[: order + 1], other.numerators[: order + 1]
        lo_a, lo_b = (next((i for i, x in enumerate(c) if x), order + 1) for c in (a, b))
        lo = min(lo_a + lo_b, order + 1)
        # rb[order - j] = b[j]: the slice from order - m + lo_a runs b[m - lo_a], b[m - lo_a - 1], ...
        rb = b[::-1]
        nums = [0] * lo + [
            sum(map(mul, a[lo_a : m - lo_b + 1], rb[order - m + lo_a :]))
            for m in range(lo, order + 1)
        ]
        return self._reduced(nums, self.denominator * other.denominator, order)


class SequenceCache:
    """Memoized exact values of u(n), v(n), d(n) and the triangular s-table.

    Sequences are append-only dense arrays seeded with u(0)=v(0)=d(0)=1.
    The s-table is append-only too: row n is computed once from rows
    1..n-1 and h(n) (see the module docstring), so growing the bound,
    whether by ``build_s_table(max_n)`` or by asking for d(n) or s(n, k)
    one n at a time, only builds the rows not yet held.  A cache restored
    by ``from_stored`` grows the same way from its loaded rows and u.

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

        The halved sum is verified to be even before dividing.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        v = self._v
        if len(v) <= n:
            odd1 = prod(range(1, 4 * len(v) - 4, 4))  # 1*5*...*(4j-3), carried with j
            while len(v) <= n:
                j = len(v)
                odd1 *= 4 * j - 3
                weighted = map(mul, _binomial_row(2 * j)[2 : 2 * j : 2], v[1:j])
                acc = sum(map(mul, weighted, v[j - 1 : 0 : -1]))
                if acc & 1:
                    raise IntegrityError(f"intermediate sum for v({j}) is odd")
                v.append((odd1 * odd1 << (j - 1)) - acc // 2)
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
        return list(self._s_rows)

    @classmethod
    def from_stored(
        cls,
        u: list[int] | None = None,
        v: list[int] | None = None,
        d: list[int] | None = None,
        s_rows: list[list[int]] | None = None,
    ) -> "SequenceCache":
        """Rebuild a cache from previously computed values, re-checking the
        structural invariants (seeds equal 1, d odd, triangular shape,
        unit diagonal); a failure raises StoredValueError naming the table.
        ``s_rows`` is in the held form returned by ``stored_s_rows``; its
        rows are taken over as they are, neither converted nor copied, so a
        caller copies a row before changing it."""
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
        if s_rows:
            _check_triangle(s_rows)
            cache._s_rows = list(s_rows)
            cache._extend_e(len(s_rows))
        return cache


def _binomial_row(n: int) -> list[int]:
    """[C(n, 0), C(n, 1), ..., C(n, n)], built multiplicatively up to the
    middle and mirrored."""
    half = [1]
    for i in range(n // 2):
        half.append(half[-1] * (n - i) // (i + 1))
    return half + half[: n + 1 - len(half)][::-1]


def _check_triangle(s_rows: list[list[int]]) -> None:
    for i, row in enumerate(s_rows):
        if len(row) != i + 1:
            raise StoredValueError("s", f"s-table row {i + 1} has {len(row)} entries")
        if row[i] != 1:
            raise StoredValueError("s", f"s({i + 1},{i + 1}) = {row[i]}, expected 1")


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
    """Triangular s-table computed through exact rational series arithmetic.

    This is the reference path: s(n, k) = (2n)!/(2k)! [z^(2n)] f^(2k).  f is
    odd, f = z g(w) with w = z^2, so that coefficient is [w^(n-k)] (g^2)^k,
    and power k is carried only to w^(max_n-k).  The row recurrence used by
    SequenceCache.build_s_table must reproduce it bit for bit.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    f = theta_series(2 * max_n - 1, cache)
    g = RationalSeries._reduced(f.numerators[1::2], f.denominator, max_n - 1)
    g2 = g * g
    fact = list(accumulate(range(1, 2 * max_n + 1), mul, initial=1))  # fact[m] = m!
    rows = [[0] * n for n in range(1, max_n + 1)]
    power = g2
    for k in range(1, max_n + 1):
        den = power.denominator * fact[2 * k]
        for n, num in enumerate(power.numerators, k):
            value, rem = divmod(num * fact[2 * n], den)
            if rem:
                raise IntegrityError(f"s({n},{k}) is not an integer")
            rows[n - 1][k - 1] = value
        cut = max_n - k - 1  # power k + 1 is read only to w^cut
        if cut >= 0:
            power = RationalSeries._reduced(power.numerators[: cut + 1], power.denominator, cut) * g2
    return rows

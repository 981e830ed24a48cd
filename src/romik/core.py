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

h(n) is computed once per new row from u, as twice the half of its
symmetric sum, and h(m) for m < n is read back as s^(m, 1) from column 1.
That h(n) is a multiple of 2^E(n) is checked: a remainder raises
IntegrityError, never yields a value.  The shift is
tight (s^(k, k) = 1), so no larger power is known in general.  E is
computed from n (``_e``, ``_e_gap``) wherever an entry is shifted, never stored.

The inner loops hold only the big-integer multiply-adds.  Each index reads
its binomial coefficients from one row [C(N, 0), ..., C(N, N)] built
multiplicatively (``_binomial_row``), the odd products in u and v are
carried from one index to the next, and a call that grows the s-table
first indexes the held rows by column, so the sum for s^(n, k) is one dot
product of a slice of the row's terms, in descending m, with column k-1.

One reader gives residues: ``SequenceCache.residues(name, p, max_n)``
reduces u, v or d, and the suites and the scanner read the cache only
through it.  r(n, k) mod p comes from the per-prime table of ``residues``,
which reads no cache; ``r`` stays the exact single-entry read.

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
remainder) and ``_check_pair`` (the 1 <= k <= n guard).  Two loops divide
inline: the builder, so that the reference above shares no code with it, and
the summand step of ``residues.s_mod5_single_index``, which a call slows by 15%.

The tables grow in lockstep, in one growth mode: one loop
(``build_s_table``) appends, for each index n from the first one missing,
u(n-1), row n, v(n) and d(n), each where it is not held, whichever read
asked for row n or d(n).  So every build that returns leaves v and d at
least to the index it was asked for.  u, v and d each have one per-index
step (``_u_steps``, ``_v_steps``, ``_d_steps``), which the loop and the
readers run alike.

For each n the loop computes u(n-1), h(n) and columns 1..K(n) of row n,
then joins, checks and appends row n-1 and grows v and d to n-1.  A
failure in row n's columns is raised only after that, and a failure there
drops u(n-1) again, so a build raises the first failure in index order and
leaves the tables that order leaves.  Unless the new rows carry enough
work, os.fork exists, this process may run on two CPUs or more, no other
thread is alive and os.pipe and os.fork succeed, K(n) = n and the loop
runs alone.  Otherwise ``_split_column`` sets K(n), never moving back and
at most one column a row, and one short-lived child, forked with the
earlier rows, supplies columns K(n)+1..n of row n while this process joins
row n-1.  It gets s^(n-1, 1) and s^(n-1, K(n-1)), marshalled, down a pipe
and sends its columns, or the text of its failure, up another.  Nothing
else crosses.  Where K(n) = K(n-1) + 1, column K(n) passes from the child
to this process, which first indexes column K(n-1) again from the joined
rows and row n-1's columns.  The child leaves through ``os._exit`` and is
reaped before the build returns or raises.  A child lost before every row
is joined shows as the end of its pipe with no row and no failure text (a
write to a child that has gone is no error; its pipe ends next).  It is
reaped, the u computed ahead is dropped, and the loop starts again alone,
K(n) = n, from the first row not joined: every row joined so far passed its
checks, and the rest are built again.  A child's own failure stays the
build's error, raised in index order.

A restored cache may hold its stored rows undecoded: ``from_stored`` takes
an iterator over them with their count, ``s_bound`` counts them, and each
row is taken from the iterator, in order, when the cache first reads it
(``_restore``).  So a command that reads rows 1..n of a longer stored table
decodes only those.
"""

from __future__ import annotations

import contextlib
import functools
import marshal
import math
import os
import signal
import threading
from collections.abc import Iterable, Iterator
from io import BufferedReader, BufferedWriter
from itertools import islice
from math import gcd, lcm, prod
from operator import lshift, mul


factorial = functools.cache(math.factorial)

# A build forks a child only for more estimated work than this, in
# _split_column's weights: about 35 ms in one process on a 2-vCPU VM, where
# the fork, the pipes and the child's columns cost about 5 ms.
_FORK_WORK = 2 * 10**8
# The same weights per n^3 of the work only this process does for row n,
# which every build does: u(n-1) and h(n) (4), and v(n) and d(n) (2).  Rows
# 1..150 took about 30, 18 and 330 ms for these two and for columns 2..n,
# in one process on the same VM.
_OWN_WORK = 4 + 2


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
    one n at a time, only builds the rows not yet held.  Every build grows
    u, the rows, v and d together, index by index (see the module
    docstring), so one that returns leaves v and d at least to the index
    asked for.  A cache restored by ``from_stored`` grows the same way from
    its loaded rows and u, and a v or d that lags them is topped up so.
    Rows handed over with a count wait in ``_waiting`` until first read:
    ``_restore`` takes them, in order, before any row is built or read.

    ``_s_rows`` is the record of the table and holds it normalized,
    ``_s_rows[n-1][k-1] = s^(n, k) = s(n, k) >> (E(n) - E(k))``.  ``s``,
    ``r`` (one shift, by E(n) - E(k) + n - k), ``known_s_rows`` and ``d``
    shift on read, and ``residues`` reduces u, v or d; ``stored_s_rows`` and
    ``from_stored`` are the one round trip of the held form, to and from
    ``cache_io``, which writes it as it is.  A row is never changed once
    held, so ``stored_s_rows`` hands out the held rows without copying.
    The cache holds nothing else: E is computed from n (``_e_gap``) where an
    entry is shifted, and the column index the row recurrence reads is
    built by each ``build_s_table`` call that grows the table and dropped
    when it returns.  One loop appends the rows.  A large call may fork
    one short-lived child, never while another thread is alive, which
    supplies columns K(n)+1..n of each row n, at a boundary that moves with
    the row (see the module docstring); it is reaped before the call
    returns or raises.  A call that cannot fork runs alone, and one whose
    child is lost builds alone the rows not yet joined.

    Growth and the first read of a waiting row write the cache, with no
    lock: share it across threads only once every stored row is taken
    (``stored_s_rows()`` takes them all) and nothing grows.
    """

    def __init__(self) -> None:
        self._u: list[int] = [1]
        self._v: list[int] = [1]
        self._d: list[int] = [1]
        self._s_rows: list[list[int]] = []  # _s_rows[n-1][k-1] = s(n, k) >> (E(n) - E(k))
        self._waiting: Iterator[list[int]] = iter(())  # stored rows past _s_rows, in order
        self._pending = 0  # how many rows _waiting still holds

    # -- u, v ----------------------------------------------------------

    def u(self, n: int) -> int:
        """u(n) = (3*7*...*(4n-1))^2 - sum_{m<n} C(2n+1, 2m+1) (1*5*...*(4(n-m)-3))^2 u(m)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        _step_to(self._u, _u_steps(self._u), n)
        return self._u[n]

    def v(self, n: int) -> int:
        """v(n) = 2^(n-1) (1*5*...*(4n-3))^2 - (1/2) sum_{0<m<n} C(2n, 2m) v(m) v(n-m)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        _step_to(self._v, _v_steps(self._v), n)
        return self._v[n]

    # -- s, r ----------------------------------------------------------

    @property
    def s_bound(self) -> int:
        """Largest n for which the s-table holds row n, restored or waiting
        to be."""
        return len(self._s_rows) + self._pending

    def build_s_table(self, max_n: int) -> None:
        """Fill s(n, k) for all 1 <= k <= n <= max_n, appending only the
        rows past ``s_bound``, with u to max_n - 1 and v and d to max_n:
        from the first index any of u, v, d or the rows lacks, each index n
        appends what is missing of u(n-1), row n, v(n) and d(n), in that
        order.  A call with nothing missing returns at once.  One loop
        appends every row; a child, if forked, supplies columns K(n)+1..n,
        and else K(n) = n.  If the child is lost before every row is
        joined, it is reaped and the loop builds the rest alone from the
        first row not joined."""
        self._restore(max_n)
        rows, u, v, d = self._s_rows, self._u, self._v, self._d
        first = len(rows) + 1
        u_steps, v_steps, d_steps = _u_steps(u), _v_steps(v), _d_steps(d, v, rows)

        def after(n: int) -> None:  # v(n) and d(n), where not held
            if len(v) == n:
                next(v_steps)
            if len(d) == n:
                next(d_steps)

        for n in range(min(len(v), len(d)), min(first, max_n + 1)):
            after(n)
        if max_n < first:
            return
        e = [_e(m) for m in range(max_n + 1)]
        split = _split_column(first, max_n)
        while len(rows) < max_n:  # a second pass builds alone what a lost child left
            first = len(rows) + 1
            # cols[k-1] = [s^(k, k), s^(k+1, k), ...], the held rows by column,
            # kept for this pass only.
            cols = [[row[k] for row in rows[k:]] for k in range(len(rows))]
            child = _fork_tail(e, cols, first, split) if split else None
            if child is None:
                split = list(range(first, max_n + 1))  # K(n) = n: no tail to wait for
            pid, outbox, inbox = child or (0, None, None)
            try:
                head: list[int] = []
                for n in range(first, max_n + 2):
                    joined, error, held_u = head, None, len(u)
                    if n <= max_n:
                        _step_to(u, u_steps, n - 1)
                        k = split[n - first]
                        if n > first and split[n - first - 1] < k < n:
                            # Column k changes hands: index column k - 1 from rows 1..n-2
                            # held, the child's part joined, and row n - 1's head.
                            cols[k - 2] = [row[k - 2] for row in rows[k - 2 :]] + joined[k - 2 : k - 1]
                        try:
                            head = _head(u, e, cols, n, k)
                        except IntegrityError as exc:
                            error = exc  # raised after row n - 1 and d(n - 1)
                        else:
                            if pid and n < max_n:
                                _send(outbox, (head[0], head[-1]))
                    if n > first:
                        tail = _receive(inbox) if pid else []
                        if tail is None:  # the child is lost: row n - 1 on, alone
                            del u[held_u:]
                            u_steps, split = _u_steps(u), []
                            break
                        try:
                            if isinstance(tail, str):
                                raise IntegrityError(tail)
                            row = joined + tail
                            if row[-1] != 1:
                                raise IntegrityError(f"s({n - 1},{n - 1}) = {row[-1]}, expected 1")
                            rows.append(row)
                            after(n - 1)
                        except IntegrityError:
                            del u[held_u:]  # index n - 1 ends with d(n - 1), before u(n - 1)
                            raise
                    if error:
                        raise error
            except BaseException:
                if pid:
                    os.kill(pid, signal.SIGKILL)
                raise
            finally:
                if pid:
                    os.waitpid(pid, 0)
                    with contextlib.suppress(BrokenPipeError):  # what a lost child left unread
                        outbox.close()
                    inbox.close()

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

    def _stored(self, n: int, k: int) -> int:
        """s^(n, k) as held, growing the table to n if needed."""
        _check_pair(n, k)
        if n > len(self._s_rows):
            self.build_s_table(n)
        return self._s_rows[n - 1][k - 1]

    def s(self, n: int, k: int) -> int:
        """Exact s(n, k) for 1 <= k <= n; grows the table to n if needed."""
        return self._stored(n, k) << _e_gap(n, k)

    def r(self, n: int, k: int) -> int:
        """Exact r(n, k) = 2^(n-k) s(n, k), one shift of the stored entry."""
        return self._stored(n, k) << (_e_gap(n, k) + n - k)

    # -- d ---------------------------------------------------------------

    def d(self, n: int) -> int:
        """d(n) = v(n) - sum_{k=1}^{n-1} r(n, k) d(k), with d(0) = 1, grown
        by the one build of u, the s-table, v and d (``build_s_table(n)``).

        Every value appended to the cache is checked to be odd.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n >= len(self._d):
            self.build_s_table(n)
        return self._d[n]

    # -- bulk views used by persistence and the verifier ------------------

    def known_values(self, name: str) -> list[int]:
        """Copy of all cached values of sequence 'u', 'v' or 'd'."""
        return list(self._sequence(name))

    def known_count(self, name: str) -> int:
        """Number of cached values of sequence 'u', 'v' or 'd'."""
        return len(self._sequence(name))

    def residues(self, name: str, p: int, max_n: int) -> list[int]:
        """[x(0) % p, ..., x(max_n) % p] for x = 'u', 'v' or 'd', grown by one call x(max_n)."""
        values = self._sequence(name)
        if p < 2:
            raise ValueError(f"p must be >= 2, got {p}")
        if max_n < 0:
            raise ValueError(f"need max_n >= 0, got max_n={max_n}")
        getattr(self, name)(max_n)
        return [x % p for x in values[: max_n + 1]]

    def _sequence(self, name: str) -> list[int]:
        try:
            return {"u": self._u, "v": self._v, "d": self._d}[name]
        except KeyError:
            raise ValueError(f"unknown sequence {name!r}") from None

    def known_s_rows(self) -> list[list[int]]:
        """The cached s-table rows (row n at index n-1), as true s values."""
        self._restore(self.s_bound)
        e = [_e(m) for m in range(len(self._s_rows) + 1)]
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


def _e_gap(n: int, k: int) -> int:
    """E(n) - E(k), with E(n) = v2((2n)!) = 2n - (binary digit sum of n)."""
    return 2 * (n - k) - n.bit_count() + k.bit_count()


def _e(n: int) -> int:
    """E(n), the power of two divided out of row n of the held s-table."""
    return _e_gap(n, 0)


def _step_to(values: list[int], steps: Iterator[None], n: int) -> None:
    """Advance steps, each of which appends one value, until values holds index n."""
    while len(values) <= n:
        next(steps)


def _u_steps(u: list[int]) -> Iterator[None]:
    """Append u(j) for j = len(u), len(u) + 1, ..., one per step, carrying
    the odd products from one j to the next (see ``SequenceCache.u``)."""
    # squares[i] = (1*5*...*(4i-3))^2; odd3 = 3*7*...*(4j-1), carried with j
    squares = [1]
    odd1 = 1
    for i in range(1, len(u)):
        odd1 *= 4 * i - 3
        squares.append(odd1 * odd1)
    odd3 = prod(range(3, 4 * len(u) - 4, 4))
    while True:
        j = len(u)
        odd1 *= 4 * j - 3
        squares.append(odd1 * odd1)
        odd3 *= 4 * j - 1
        # C(2j+1, 2m+1) (1*5*...*(4(j-m)-3))^2 for m = 0..j-1
        weights = map(mul, _binomial_row(2 * j + 1)[1 : 2 * j : 2], squares[j:0:-1])
        u.append(odd3 * odd3 - sum(map(mul, weights, u)))
        yield


def _v_steps(v: list[int]) -> Iterator[None]:
    """Append v(j) for j = len(v), len(v) + 1, ..., one per step (see
    ``SequenceCache.v``).  The sum is symmetric under m <-> j-m, so its half
    is the terms m < j/2 plus, for even j, C(2j, j)/2 v(j/2)^2 (C(2j, j) is
    even)."""
    odd1 = prod(range(1, 4 * len(v) - 4, 4))  # 1*5*...*(4j-3), carried with j
    while True:
        j = len(v)
        odd1 *= 4 * j - 3
        binomials = _binomial_row(2 * j)
        weighted = map(mul, binomials[2:j:2], v[1:j])
        half = sum(map(mul, weighted, v[j - 1 : 0 : -1]))
        if j & 1 == 0:
            half += (binomials[j] >> 1) * v[j // 2] ** 2
        v.append((odd1 * odd1 << (j - 1)) - half)
        yield


def _d_steps(d: list[int], v: list[int], rows: list[list[int]]) -> Iterator[None]:
    """Append d(j) for j = len(d), len(d) + 1, ..., one per step, each from
    v(j) and the held row j (see ``SequenceCache.d``), checked odd."""
    en = [_e(m) + m for m in range(len(d))]  # en[m] = E(m) + m
    while True:
        j = len(d)
        en.append(_e(j) + j)
        # r(j, k) d(k) = (s^(j, k) << (E(j) + j - E(k) - k)) d(k) for k = 1..j-1
        shifts = [en[j] - x for x in en[1:j]]
        shifted = map(lshift, rows[j - 1][: j - 1], shifts)
        val = v[j] - sum(map(mul, shifted, d[1:j]))
        if val & 1 == 0:
            raise IntegrityError(f"d({j}) = {val} is even")
        d.append(val)
        yield


def _binomial_row(n: int) -> list[int]:
    """[C(n, 0), C(n, 1), ..., C(n, n)], built multiplicatively up to the
    middle and mirrored."""
    half = [1]
    for i in range(n // 2):
        half.append(half[-1] * (n - i) // (i + 1))
    return half + half[: n + 1 - len(half)][::-1]


def _split_column(first: int, last: int) -> list[int]:
    """K(n) for n = first..last, the last column this process computes of
    row n when a forked child computes the rest, or [] to build them here
    alone.  Entry (n, k), k >= 2, is weighed (n - k + 1)^2 n: n - k + 1
    products of numbers whose length grows with n.  The work only this
    process does, u(n-1), h(n), v(n) and d(n), is weighed _OWN_WORK n^3 per
    row (about n products of numbers of length about n).  K(n)
    leaves this process the share of row n closest to one half, among
    1..n for the first row and K(n-1), K(n-1) + 1 after it, so that the
    boundary never moves back and moves at most one column a row."""

    def sq(j: int) -> int:  # sum_{i<=j} i^2
        return j * (j + 1) * (2 * j + 1) // 6

    # Columns 2..n of row n weigh n sq(n - 1), columns k+1..n the child's n sq(n - k).
    total = sum(n * sq(n - 1) for n in range(first, last + 1))
    if total < _FORK_WORK or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return []
    if len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1:
        return []  # a fork copies only the calling thread
    split: list[int] = []
    for n in range(first, last + 1):
        ks = (split[-1], split[-1] + 1) if split else range(1, n + 1)
        # this process's share less the child's, over n
        split.append(min(ks, key=lambda k: abs(_OWN_WORK * n * n + sq(n - 1) - 2 * sq(n - k))))
    return split


def _fork_tail(e: list[int], cols: list[list[int]], first: int,
               split: list[int]) -> tuple[int, BufferedWriter, BufferedReader] | None:
    """Fork a child that runs ``_tail_rows`` on copies of e and cols, and
    return its pid, the pipe down to it and the pipe up from it; or None,
    with every descriptor opened here closed, where os.pipe or os.fork
    fails, so that the caller builds alone."""
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except BaseException as exc:
        for fd in fds:
            os.close(fd)
        if isinstance(exc, OSError):
            return None
        raise
    down_r, down_w, up_r, up_w = fds
    if pid == 0:
        # os._exit: no finally, atexit hook or stdio buffer of the caller runs twice.
        status = 1
        try:
            os.close(down_w)
            os.close(up_r)
            with open(down_r, "rb") as inbox, open(up_w, "wb") as outbox:
                _tail_rows(e, cols, first, split, inbox, outbox)
            status = 0
        finally:
            os._exit(status)
    os.close(down_r)
    os.close(up_w)
    return pid, open(down_w, "wb"), open(up_r, "rb")


def _head(u: list[int], e: list[int], cols: list[list[int]], n: int, split: int) -> list[int]:
    """Columns 1..min(n, split) of row n, from h(n) and the held columns,
    which it extends by them."""
    binomials = _binomial_row(2 * n)
    # f has m! [z^m] f = u((m-1)/2) for odd m, so h(n) is the binomial
    # convolution sum_i C(2n, 2i+1) u(i) u(n-1-i) over i = 0..n-1.  It is
    # symmetric under i <-> n-1-i: twice the terms i < (n-1)/2, plus for odd
    # n the middle term C(2n, n) u((n-1)/2)^2.
    half = n // 2
    h = sum(map(mul, map(mul, binomials[1 : 2 * half : 2], u), u[n - 1 :: -1])) << 1
    if n & 1:
        h += binomials[n] * u[half] ** 2
    first = h >> e[n]
    if first << e[n] != h:
        raise IntegrityError(f"h({n}) / 2^{e[n]} is not an integer")
    head = _entries(binomials, e, cols, n, 2, min(n, split), [first])
    cols.append([])
    for col, x in zip(cols, head):
        col.append(x)
    return head


def _tail_rows(e: list[int], cols: list[list[int]], first: int, split: list[int],
               inbox: BufferedReader, outbox: BufferedWriter) -> None:
    """The child's columns K+1..n of rows n = first, first + 1, ..., with
    K = split[n - first], each row sent up outbox as soon as it is done,
    and computed once s^(n-1, 1) and s^(n-1, K(n-1)) have come from inbox.
    A failing row is sent as its error's text instead, and the child stops."""
    for n, k in enumerate(split, first):
        if n > first:
            received = _receive(inbox)
            if received is None:  # the caller stopped at row n - 1
                return
            one, at_split = received
            cols[0].append(one)
            column = min(n - 1, split[n - first - 1])
            if column > 1:
                cols[column - 1].append(at_split)
        cols.append([])
        tail: list[int] = []
        if n > k:
            try:
                _entries(_binomial_row(2 * n), e, cols, n, k + 1, n, tail)
            except IntegrityError as exc:
                _send(outbox, str(exc))
                return
            for col, x in zip(cols[k:], tail):
                col.append(x)
        _send(outbox, tail)


def _send(outbox: BufferedWriter, value: object) -> None:
    """Write value, marshalled after its 4-byte length, and flush.  A reader
    that has gone is no error here: the writer learns it as the end of the
    pipe coming back."""
    data = marshal.dumps(value)
    with contextlib.suppress(BrokenPipeError):
        outbox.write(len(data).to_bytes(4, "little") + data)
        outbox.flush()


def _receive(inbox: BufferedReader) -> object:
    """The next value ``_send`` wrote, or None if the pipe ends first."""
    size = int.from_bytes(inbox.read(4), "little")
    data = inbox.read(size)
    return marshal.loads(data) if size and len(data) == size else None


def _entries(
    binomials: list[int], e: list[int], cols: list[list[int]], n: int, lo: int, hi: int, out: list[int]
) -> list[int]:
    """out extended by s^(n, k) for k = lo..hi: each a dot product of the
    held columns 1 and k-1, then one exact division."""
    if lo > hi:
        return out
    # terms[t] = C^(n, m) s^(m, 1) for m = n-lo+1-t, so terms[k-lo:] lines up
    # with cols[k-2] = [s^(k-1, k-1), ..., s^(n-1, k-1)] = s^(n-m, k-1).
    terms = [
        (binomials[2 * m] >> (e[n] - e[m] - e[n - m])) * cols[0][m - 1]
        for m in range(n - lo + 1, 0, -1)
    ]
    for k in range(lo, hi + 1):
        odd_k = k // (k & -k)
        # Divided here, not by _exact_quotient, which the reference
        # s_table_by_series uses: the two routes share no code.
        q, rem = divmod(sum(map(mul, terms[k - lo :], cols[k - 2])), (2 * k - 1) * odd_k)
        if rem:
            raise IntegrityError(f"s({n},{k}) is not an integer")
        out.append(q)
    return out


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

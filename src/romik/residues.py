"""Modular and p-adic machinery: digit sums, factorial valuations, the
closed-form residues of r(n, k) mod 5, five-cycle counts in symmetric
groups, the rows of r(n, k) mod p and the vanishing threshold n0.  The PGM
rendering of those rows lives in ``cli``.

Negative inputs to reductions use mathematical mod, so residues always land
in [0, p-1].  Closed-form quotients are evaluated as exact big integers
(divide, assert exactness) rather than through modular inverses: the
integrality of each quotient is itself part of what gets witnessed.  In the
single-index sum the first summand is one exact big quotient, and each later
summand is the one before it times a small integer, divided exactly by
another small integer.

``build_residue_grid(p, max_n)`` gives rows 1..max_n of r(n, k) mod p from
one table per prime and reads neither the exact s-table nor a cache; it is
the one source of r mod p, for the grid and the suites alike.  With
x_i = i! [z^i] f, which is u((i-1)/2) for odd i and 0 for even i, the
partial Bell polynomials B_{N,K} = N!/K! [z^N] f^K satisfy the
division-free recurrence (Comtet, Advanced Combinatorics, section 3.3)

    B_{N,K} = sum_{odd i} C(N-1, i-1) x_i B_{N-i,K-1},

and s(n, k) = B_{2n,2k}.  The table holds 2^((N-K)/2) B_{N,K} mod p, which
takes the weights w_i = C(N-1, i-1) x_i 2^((i-1)/2), so that slot k of row
2n is r(n, k) mod p.  u mod p comes from u's own recurrence, whose terms
end where the square (1*5*...*(4t-3))^2 first vanishes mod p.  Binomials
mod p are read from Pascal rows cut to the largest lower index used: by
Lucas's theorem C(a, b) = C(a mod q, b) mod p for b < q = p^e, so q rows
answer every a (a digit-by-digit Lucas product measured 1.7 to 4 times
slower).

Row N is one integer whose slot j holds the entry for K = 2j + (N mod 2):
sum_i w_i (row N-i) over the odd i with w_i != 0 mod p, shifted up one
slot for even N.  Only the last I rows are held, I the largest odd i with
x_i 2^((i-1)/2) != 0 mod p, as no weight reaches further.  A row has at
most max_n weights, so a slot sum is below 2^bits, bits the bit length of
max_n (p-1)^2; a slot is the fewest 64-bit words that hold 2 bits + 1 bits
(one for p up to about 3,780 at max_n = 150).  One multiply, shift and mask
of the row divide every slot by p (Granlund and Montgomery's multiplication
by the reciprocal), a subtraction leaves the residues, and an even row's are
the low words of its slots in an ``array('Q')``, so p is below 2^64.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from math import isqrt

from .core import IntegrityError, _check_pair, _exact_quotient, factorial


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (inputs here are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for q in range(3, isqrt(n) + 1, 2):
        if n % q == 0:
            return False
    return True


def _require_prime(p: int, odd: bool = False) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if odd and p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")


def digit_sum(n: int, p: int) -> int:
    """Sum of the digits of n in base p."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
    total = 0
    while n:
        n, digit = divmod(n, p)
        total += digit
    return total


def factorial_valuation(n: int, p: int) -> int:
    """p-adic valuation of n! by the digit-sum formula (n - s_p(n))/(p - 1)."""
    _require_prime(p)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    what = "(n - s_p(n))/(p-1) for n=%d, p=%d"
    return _exact_quotient(n - digit_sum(n, p), p - 1, what, n, p)


def factorial_valuation_by_floor_sum(n: int, p: int) -> int:
    """p-adic valuation of n! as sum_{i>=1} floor(n / p^i).

    Independent of the digit-sum route; kept as its oracle.
    """
    _require_prime(p)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    total = 0
    power = p
    while power <= n:
        total += n // power
        power *= p
    return total


def single_index_term_valuation(n: int, k: int, c: int) -> int:
    """5-adic valuation of (2n)! / ((3k-n+c)! (n-k-2c)! c! 5^c), the
    summand at index c of the single-index sum for s(n, k) mod 5.

    Defined for 0 < k <= n <= 5k and max(0, n-3k) <= c <= floor((n-k)/2);
    the valuation of the rational is taken as valuation(numerator) minus
    valuation(denominator), and the (-1)^c sign carried by the summand
    never affects it.
    """
    if not (0 < k <= n <= 5 * k):
        raise ValueError(f"need 0 < k <= n <= 5k, got n={n}, k={k}")
    if not max(0, n - 3 * k) <= c <= (n - k) // 2:
        raise ValueError(f"index c={c} outside [max(0, n-3k), floor((n-k)/2)]")
    return (
        factorial_valuation(2 * n, 5)
        - factorial_valuation(3 * k - n + c, 5)
        - factorial_valuation(n - k - 2 * c, 5)
        - factorial_valuation(c, 5)
        - c
    )


def r_mod5_closed_form(n: int, k: int) -> int:
    """Residue of r(n, k) mod 5 straight from the closed form.

    Zero when n > 5k; otherwise (2n)! / (((5k-n)/2)! ((n-k)/2)! 5^((n-k)/2))
    when n-k is even, and twice the analogous quotient with (n-k-1)/2 in
    place of (n-k)/2 (and (5k-n-1)/2 up top) when n-k is odd.  Each quotient
    is an exact integer and is evaluated as one.
    """
    _check_pair(n, k)
    if n > 5 * k:
        return 0
    a, b = (5 * k - n) // 2, (n - k) // 2  # 5k - n has the parity of n - k
    den = factorial(a) * factorial(b) * 5**b
    lead = 1 + (n - k) % 2
    return lead * _exact_quotient(factorial(2 * n), den, "r(%d,%d) quotient", n, k) % 5


def s_mod5_single_index(n: int, k: int) -> int:
    """Residue of s(n, k) mod 5 via the single-index sum
    sum_c (-1)^c (2n)! / ((3k-n+c)! (n-k-2c)! c! 5^c), c running from
    max(0, n-3k) to floor((n-k)/2); zero when n > 5k.

    The first summand is computed as one exact quotient of factorials.  With
    a = 3k-n+c and b = n-k-2c at index c, the next one is this summand times
    b(b-1), one small factor so that the big summand is multiplied once,
    divided exactly by (a+1)(c+1)*5 inline, as it runs once per summand.  A
    remainder at any step raises IntegrityError in ``_exact_quotient``'s words.
    """
    _check_pair(n, k)
    if n > 5 * k:
        return 0
    c = max(0, n - 3 * k)
    a, b = 3 * k - n + c, n - k - 2 * c
    den = factorial(a) * factorial(b) * factorial(c) * 5**c
    term = _exact_quotient(factorial(2 * n), den, "s(%d,%d) summand c=%d", n, k, c)
    total = -term if c & 1 else term
    while b > 1:
        c += 1
        term, rem = divmod(term * (b * (b - 1)), (a + 1) * c * 5)
        if rem:
            raise IntegrityError(f"s({n},{k}) summand c={c} is not an integer")
        total += -term if c & 1 else term
        a, b = a + 1, b - 2
    return total % 5


def binomial_vanishes(a: int, b: int, p: int) -> bool:
    """True iff p divides C(a, b), decided through factorial valuations."""
    _require_prime(p)
    if not 0 <= b <= a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    return (
        factorial_valuation(a, p)
        - factorial_valuation(b, p)
        - factorial_valuation(a - b, p)
    ) > 0


def five_cycle_class_size(n: int, k: int) -> int:
    """Number of permutations of n letters made of k disjoint five-cycles
    and n - 5k fixed points: n! / ((n-5k)! k! 5^k)."""
    if k < 0 or 5 * k > n:
        raise ValueError(f"need 0 <= 5k <= n, got n={n}, k={k}")
    return _exact_quotient(
        factorial(n), factorial(n - 5 * k) * factorial(k) * 5**k, "class size (%d,%d)", n, k
    )


def count_fifth_roots(n: int) -> int:
    """Number of permutations x of n letters with x^5 = identity."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sum(five_cycle_class_size(n, k) for k in range(n // 5 + 1))


def vanishing_n0(p: int) -> int:
    """The index threshold n0 = (p^2 - 1)/2 of a prime p = 3 (mod 4), past
    which d(n) and the low-k part of the r-table vanish mod p."""
    _require_prime(p)
    if p % 4 != 3:
        raise ValueError(f"p must be 3 mod 4, got {p}")
    return (p * p - 1) // 2


def build_residue_grid(p: int, max_n: int) -> list[list[int]]:
    """Rows n = 1..max_n of r(n, k) mod p: ``rows[n-1][k-1]`` is r(n, k) % p,
    from the per-prime table of the module docstring, for a prime p < 2^64."""
    if p >= 1 << 64:
        raise ValueError(f"p must be below 2^64, got {p}")
    _require_prime(p)
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    u, binomials, period = _u_residues(p, max_n)
    # scaled[j] = x_i 2^((i-1)/2) mod p for i = 2j + 1; u(0) = 1 keeps one nonzero
    scaled = [x * pow(2, j, p) % p for j, x in enumerate(u)]
    window = 2 * max(j for j, y in enumerate(scaled) if y) + 1
    if window > len(binomials[-1]):  # the u pass's rows, cut to their last's width, end short
        binomials, period = _binomial_rows(p, 2 * max_n, window)
    # weights[a] = the (i, w_i), w_i != 0, of every row N with N - 1 = a (mod period):
    # C(N-1, i-1) is entry 2j of the row.
    weights = [
        [(2 * j + 1, w) for j, (c, y) in enumerate(zip(row[::2], scaled)) if (w := c * y % p)]
        for row in binomials
    ]
    bits = (max_n * (p - 1) ** 2).bit_length()
    words = (2 * bits + 64) // 64  # per slot, the fewest that hold 2 bits + 1 bits
    reduce_slots = _slot_reducer(p, bits, 64 * words, max_n + 1)
    rows: list[int | None] = [1]  # rows[N] is row N of the table, or None past the window
    grid = []
    for big_n in range(1, 2 * max_n + 1):
        total = 0
        for i, w in weights[(big_n - 1) % period]:
            total += w * rows[big_n - i]
        if big_n & 1:
            rows.append(reduce_slots(total))
        else:
            rows.append(reduce_slots(total << 64 * words))
            slots = array("Q", rows[-1].to_bytes(words * (4 * big_n + 8), sys.byteorder))
            grid.append(slots[words::words].tolist())
        if big_n >= window:
            rows[big_n - window] = None
    return grid


def _u_residues(p: int, count: int) -> tuple[list[int], list[list[int]], int]:
    """u(0..count-1) mod p by u's recurrence with t = j - m,
    u(j) = (3*7*...*(4j-1))^2 - sum_{t=1}^{j} C(2j+1, 2t) (1*5*...*(4t-3))^2 u(j-t),
    whose terms end where the square first vanishes mod p, as it then stays;
    and the Pascal rows and period of ``_binomial_rows`` that it read them from."""
    squares = [1]  # (1*5*...*(4t-3))^2 mod p, while not 0
    odd = 1
    while len(squares) < count:
        odd = odd * (4 * len(squares) - 3) % p
        if not odd:
            break
        squares.append(odd * odd % p)
    binomials, period = _binomial_rows(p, 2 * count, 2 * len(squares) - 1)
    u = []
    odd = 1  # 3*7*...*(4j-1) mod p
    for j in range(count):
        row = binomials[(2 * j + 1) % period]
        total = odd * odd
        for t in range(1, min(j, (len(row) - 1) // 2) + 1):
            total -= row[2 * t] * squares[t] * u[j - t]
        u.append(total % p)
        odd = odd * (4 * j + 3) % p
    return u, binomials, period


def _binomial_rows(p: int, count: int, width: int) -> tuple[list[list[int]], int]:
    """Rows a = 0..min(count, q)-1 of Pascal's triangle mod p, each cut to its
    first ``width`` entries, and q, the least power of p at or above width.
    By Lucas's theorem C(a, b) = C(a mod q, b) mod p for b < q, so row a % q
    stands for row a; an entry past a row's end is 0."""
    period = p
    while period < width:
        period *= p
    rows = [[1]]
    for _ in range(min(count, period) - 1):
        row = rows[-1]
        rows.append([(a + b) % p for a, b in zip(chain(row, (0,)), chain((0,), row[: width - 1]))])
    return rows, period


def _slot_reducer(p: int, bits: int, width: int, slots: int):
    """The map from an integer of up to ``slots`` slots of ``width`` >= 2 bits + 1
    bits, each below 2^bits, to the integer of their residues mod p.  With
    shift = bits + bits of p and magic = ceil(2^shift / p), (x * magic) >>
    shift is x // p for every such x (Granlund and Montgomery), and
    x * magic < 2^(2 bits + 1) stays in x's slot.  After the shift, a slot's
    quotient is in its low width - shift bits, and the fraction from the
    slot above in the rest, which the mask clears."""
    shift = bits + p.bit_length()
    magic = -(-(1 << shift) // p)
    mask = int.from_bytes(((1 << width - shift) - 1).to_bytes(width // 8, "little") * slots, "little")
    return lambda row: row - p * (row * magic >> shift & mask)

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
"""

from __future__ import annotations

from math import isqrt

from .core import IntegrityError, SequenceCache, _check_pair, _exact_quotient, factorial


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


def build_residue_grid(p: int, max_n: int, cache: SequenceCache) -> list[list[int]]:
    """Rows n = 1..max_n of r(n, k) mod p: ``rows[n-1][k-1]`` is r(n, k) % p.
    Read by ``SequenceCache.r_residues``."""
    _require_prime(p)
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    return cache.r_residues(p, max_n)

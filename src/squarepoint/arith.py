"""Exact integer arithmetic: squares, primes, factorizations, Jacobi symbols,
and the leg structure of integer right triangles.

Everything here is deterministic and exact.  Python's arbitrary-precision
integers mean there is no overflow to guard against; primality uses a
Miller-Rabin witness set that is deterministic far beyond the search ranges
this package ever touches.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd, isqrt as _floor_sqrt
from typing import NamedTuple


class LegDecomposition(NamedTuple):
    """A representation of an odd leg a = k*(u**2 - v**2), even partner 2*k*u*v.

    Invariants: u > v >= 1, gcd(u, v) = 1, u + v odd.
    """

    k: int
    u: int
    v: int


def isqrt(n: int) -> tuple[int, bool]:
    """Return (floor(sqrt(n)), whether n is a perfect square)."""
    if n < 0:
        raise ValueError("isqrt requires a non-negative integer")
    r = _floor_sqrt(n)
    return r, r * r == n


# Deterministic Miller-Rabin witnesses: exact for all n < 3.3 * 10**24,
# far beyond anything the sieve produces.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Deterministic primality test (exact, never probabilistic)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_brent(n: int, c: int) -> int:
    """Brent's cycle-finding on x -> x*x + c (mod n); deterministic in (n, c)."""
    y, r, q, g = 2, 1, 1, 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += 128
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    return g


def _factor_coarse(n: int, out: list[int]) -> None:
    """Split n (free of factors <= _TRIAL_BOUND) into primes, appended to out."""
    if n == 1:
        return
    if is_prime(n):
        out.append(n)
        return
    c = 1
    while True:
        d = _rho_brent(n, c)
        if 1 < d < n:
            break
        c += 1
    _factor_coarse(d, out)
    _factor_coarse(n // d, out)


_TRIAL_BOUND = 3000


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical prime factorization of n >= 1 as ((prime, exponent), ...).

    Primes ascend; factorize(1) == ().  Trial division handles the sieve's
    everyday inputs; cofactors beyond the trial bound fall through to a
    deterministic Brent-rho split.
    """
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    step = 2
    while f * f <= n and f <= _TRIAL_BOUND:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += step
        step = 6 - step
    if n > 1:
        if f * f > n:
            out.append((n, 1))
        else:
            primes: list[int] = []
            _factor_coarse(n, primes)
            primes.sort()
            for p in primes:
                if out and out[-1][0] == p:
                    out[-1] = (p, out[-1][1] + 1)
                else:
                    out.append((p, 1))
    return tuple(out)


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; Legendre symbol when n is prime."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi is defined only for odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_qr_bruteforce(a: int, p: int) -> bool:
    """Whether a is a quadratic residue mod the odd prime p, by enumeration.

    Test oracle for jacobi(); intentionally naive.
    """
    if p % 2 == 0 or not is_prime(p):
        raise ValueError("is_qr_bruteforce requires an odd prime modulus")
    a %= p
    # w and p-w square to the same residue, so half the range suffices.
    return any(w * w % p == a for w in range(p // 2 + 1))


def prime_power_root(n: int) -> tuple[int, int] | None:
    """Return (p, e) with p**e == n if n >= 2 is a prime power, else None."""
    if n < 2:
        raise ValueError("prime_power_root requires n >= 2")
    fact = factorize(n)
    if len(fact) == 1:
        return fact[0]
    return None


def prime_flags(bound: int) -> bytearray:
    """Entry i, for i in 0..bound, is 1 iff i is prime: a sieve of
    Eratosthenes, for bound >= 0."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = bytes(min(bound + 1, 2))
    for i in range(2, _floor_sqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound + 1, i)))
    return sieve


def primes_upto(bound: int) -> list[int]:
    """The primes p <= bound, ascending."""
    return list(compress(range(bound + 1), prime_flags(bound))) if bound >= 2 else []


def two_nonresidue_primes(bound: int) -> tuple[int, ...]:
    """Odd primes p <= bound with (2/p) = -1, ascending.

    Equivalently p = 3 or 5 (mod 8); computed via jacobi to keep this
    definitional rather than relying on the congruence shortcut.
    """
    if bound < 3:
        raise ValueError("two_nonresidue_primes requires bound >= 3")
    return tuple(p for p in primes_upto(bound) if p % 2 and jacobi(2, p) == -1)


def odd_leg_decompositions(a: int) -> set[LegDecomposition]:
    """Every (k, u, v) with k*(u**2 - v**2) == a under the LegDecomposition invariants.

    Exhaustive: a = k*(u+v)*(u-v) is found by splitting each cofactor a//k
    into a coprime divisor pair s > t (s = u+v, t = u-v, both odd because a
    is odd).  For a == 1 the set is empty (u**2 - v**2 == 1 is impossible).
    """
    if a < 1 or a % 2 == 0:
        raise ValueError("odd_leg_decompositions requires an odd positive integer")
    out = set()
    for k in divisors(a):
        w = a // k
        for t in divisors(w):
            s = w // t
            if s <= t or gcd(s, t) != 1:
                continue
            out.add(LegDecomposition(k, (s + t) // 2, (s - t) // 2))
    return out


@lru_cache(maxsize=1 << 14)
def pythagorean_partners(a: int) -> tuple[int, ...]:
    """All b >= 1 such that a*a + b*b is a perfect square, ascending.

    Divisor-pair method on a**2 = (c-b)(c+b): the two factors must share
    parity.  The largest partner of an odd a >= 3 is (a*a - 1) // 2.
    """
    if a < 1:
        raise ValueError("pythagorean_partners requires a positive integer")
    square = a * a
    # divisors of a**2, from the factorization of a with doubled exponents
    sq_divs = [1]
    for p, e in factorize(a):
        sq_divs = [d * p**k for d in sq_divs for k in range(2 * e + 1)]
    out = []
    for low in sq_divs:
        if low >= a:
            continue
        high = square // low
        if (high - low) % 2 == 0:
            out.append((high - low) // 2)
    return tuple(sorted(out))

"""Arithmetic layer tests.

Independent oracles come first (naive residue enumeration, naive partner
scans, brute-force leg decomposition); the fast paths are checked against
them before anything else trusts them.
"""

import random
from math import gcd, isqrt as floor_sqrt

import pytest
from hypothesis import given, strategies as st

from squarepoint.arith import (
    LegDecomposition,
    divisors,
    factorize,
    is_prime,
    is_qr_bruteforce,
    isqrt,
    jacobi,
    odd_leg_decompositions,
    prime_power_root,
    primes_upto,
    pythagorean_partners,
    two_nonresidue_primes,
)
from squarepoint.selfcheck import (
    check_decompositions,
    check_jacobi,
    check_jacobi_of_two,
    check_partners,
)


# ---------------------------------------------------------------------------
# oracles


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, floor_sqrt(n) + 1))


def brute_force_decompositions(a):
    """Enumerate (k, u, v) directly from the invariants."""
    out = set()
    for u in range(2, a + 1):
        for v in range(1, u):
            leg = u * u - v * v
            if leg > a or (u + v) % 2 == 0 or gcd(u, v) != 1:
                continue
            if a % leg == 0:
                out.add(LegDecomposition(a // leg, u, v))
    return out


# ---------------------------------------------------------------------------
# isqrt


def test_isqrt_examples():
    assert isqrt(0) == (0, True)
    assert isqrt(625) == (25, True)  # corner distance of (7, 24, 52)
    assert isqrt(833) == (28, False)  # 784 < 833 < 841


def test_isqrt_rejects_negative():
    with pytest.raises(ValueError):
        isqrt(-1)


def test_isqrt_random_64bit():
    rng = random.Random(20240601)
    for _ in range(10**6):
        n = rng.getrandbits(64)
        root, exact = isqrt(n)
        assert root * root <= n < (root + 1) * (root + 1)
        assert exact == (root * root == n)


@given(st.integers(min_value=0, max_value=2**128))
def test_isqrt_property(n):
    root, exact = isqrt(n)
    assert root * root <= n < (root + 1) * (root + 1)
    assert exact == (root * root == n)


# ---------------------------------------------------------------------------
# primality and factorization


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(13)  # 3*3 + 4
    assert not is_prime(91)  # 7 * 13


def test_is_prime_matches_trial_division():
    for n in range(10_000):
        assert is_prime(n) == naive_is_prime(n), n


def test_primes_upto_lists_the_primes():
    # the sieve's edges: no prime up to 0 or 1, and 2 alone up to 2
    for n in [*range(301), 10**4]:
        assert primes_upto(n) == [p for p in range(n + 1) if is_prime(p)], n


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**19 - 1))


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(60) == ((2, 2), (3, 1), (5, 1))
    assert factorize(27) == ((3, 3),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_roundtrip_small():
    for n in range(1, 10**6 + 1):
        v = 1
        for p, e in factorize(n):
            v *= p**e
        assert v == n


def test_factorize_roundtrip_random_48bit():
    rng = random.Random(48)
    for _ in range(10**4):
        n = rng.randrange(1, 2**48)
        fact = factorize(n)
        v = 1
        last = 0
        for p, e in fact:
            assert p > last and e >= 1 and is_prime(p)
            last = p
            v *= p**e
        assert v == n


@given(st.integers(min_value=1, max_value=2**48))
def test_factorize_primes_ascend_and_multiply_back(n):
    fact = factorize(n)
    assert all(is_prime(p) for p, _ in fact)
    assert [p for p, _ in fact] == sorted({p for p, _ in fact})
    v = 1
    for p, e in fact:
        v *= p**e
    assert v == n


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(60) == (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60)


# ---------------------------------------------------------------------------
# jacobi and quadratic residues


def test_jacobi_examples():
    assert jacobi(0, 5) == 0
    assert jacobi(2, 7) == 1  # 3*3 = 9 = 2 (mod 7)
    assert jacobi(2, 3) == -1


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(2, 6)
    with pytest.raises(ValueError):
        jacobi(2, 0)
    with pytest.raises(ValueError):
        jacobi(2, -5)


def test_is_qr_bruteforce_examples():
    assert is_qr_bruteforce(1, 7)
    assert not is_qr_bruteforce(2, 5)
    assert is_qr_bruteforce(2, 17)  # 6*6 = 36 = 2 (mod 17)


def test_is_qr_bruteforce_rejects_composite():
    with pytest.raises(ValueError):
        is_qr_bruteforce(2, 15)
    with pytest.raises(ValueError):
        is_qr_bruteforce(2, 2)


def test_jacobi_agrees_with_enumeration():
    result = check_jacobi(200)
    assert result.ok, result.detail


def test_jacobi_of_two_matches_mod8_rule():
    result = check_jacobi_of_two(1000)
    assert result.ok, result.detail


@given(st.integers(), st.integers(min_value=0, max_value=10**6))
def test_jacobi_shift_and_squares(a, k):
    n = 2 * k + 1
    assert jacobi(a + n, n) == jacobi(a, n)
    assert jacobi(a * a, n) in (0, 1)  # squares are residues or share a factor


# ---------------------------------------------------------------------------
# prime powers and the filter prime lists


def test_prime_power_root_examples():
    assert prime_power_root(27) == (3, 3)
    assert prime_power_root(7) == (7, 1)
    assert prime_power_root(15) is None


def test_prime_power_root_rejects_small():
    with pytest.raises(ValueError):
        prime_power_root(1)


def test_two_nonresidue_primes():
    assert two_nonresidue_primes(20) == (3, 5, 11, 13, 19)
    assert two_nonresidue_primes(3) == (3,)
    with pytest.raises(ValueError):
        two_nonresidue_primes(2)


# ---------------------------------------------------------------------------
# leg decompositions and partners


def test_decomposition_examples():
    assert odd_leg_decompositions(7) == {LegDecomposition(1, 4, 3)}
    assert odd_leg_decompositions(15) == {
        LegDecomposition(1, 8, 7),
        LegDecomposition(1, 4, 1),
        LegDecomposition(3, 3, 2),
        LegDecomposition(5, 2, 1),
    }
    # fixed by the brute-force oracle: 9 = 1*(5*5-4*4) = 3*(2*2-1*1)
    assert odd_leg_decompositions(9) == {
        LegDecomposition(1, 5, 4),
        LegDecomposition(3, 2, 1),
    }
    assert odd_leg_decompositions(1) == set()


def test_decomposition_rejects_even():
    with pytest.raises(ValueError):
        odd_leg_decompositions(8)
    with pytest.raises(ValueError):
        odd_leg_decompositions(-3)


def test_decompositions_match_brute_force():
    for a in range(3, 100, 2):
        assert odd_leg_decompositions(a) == brute_force_decompositions(a), a


def test_decomposition_invariants():
    for a in (105, 225, 315):
        for k, u, v in odd_leg_decompositions(a):
            assert u > v >= 1
            assert gcd(u, v) == 1
            assert (u + v) % 2 == 1
            assert k * (u * u - v * v) == a


def test_partner_examples():
    assert pythagorean_partners(1) == ()
    assert pythagorean_partners(3) == (4,)
    assert pythagorean_partners(15) == (8, 20, 36, 112)


def test_partners_match_naive_scan():
    result = check_partners(61)
    assert result.ok, result.detail


def test_decomposition_partners_match_partner_table():
    result = check_decompositions(200)
    assert result.ok, result.detail


def test_corner_inequality_small():
    # a*a >= 2b+1 for both legs of any integer right triangle
    for a in range(1, 300):
        for b in pythagorean_partners(a):
            assert a * a >= 2 * b + 1
            assert b * b >= 2 * a + 1

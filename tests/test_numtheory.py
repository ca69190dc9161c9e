import random
from collections import Counter

import pytest

from chardeg.numtheory import (
    factorize,
    is_prime,
    p_part,
    prime_divisors,
    prime_power_split,
    prime_powers,
)
from oracles import multiplicative_order, reference_factorize, twelve_base_is_prime


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for n in range(2, 25):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 - 1)


def test_factorize():
    assert factorize(728) == {2: 3, 7: 1, 13: 1}
    assert factorize(1) == {}
    assert factorize(2**40) == {2: 40}
    n = 3**6 - 1
    assert factorize(n) == {2: 3, 7: 1, 13: 1}


def test_factorize_big_semiprime():
    n = 1000003 * 999983
    assert factorize(n) == {999983: 1, 1000003: 1}


def test_prime_divisors():
    assert prime_divisors(12) == {2, 3}
    assert prime_divisors(1) == set()
    assert prime_divisors(728) == {2, 7, 13}


def test_p_part():
    assert p_part(336, 2) == 16
    assert p_part(336, 3) == 3
    assert p_part(336, 5) == 1


def test_multiplicative_order():
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(2, 7) == 3
    with pytest.raises(ValueError):
        multiplicative_order(7, 7)


def test_prime_power_split():
    assert prime_power_split(49) == (7, 2)
    assert prime_power_split(13) == (13, 1)
    with pytest.raises(ValueError):
        prime_power_split(12)


def test_prime_powers_range():
    assert prime_powers(4, 16) == [4, 5, 7, 8, 9, 11, 13, 16]
    assert prime_powers(4, 16, odd_only=True) == [5, 7, 9, 11, 13]


@pytest.mark.parametrize("lo,hi", [(-3, 1), (0, 2), (2, 3), (4, 4), (5, 5), (6, 6), (17, 3000), (2, 3000)])
def test_prime_powers_match_factorization(lo, hi):
    """The sieve against factorizing every integer of the range."""
    for odd_only in (False, True):
        expected = [q for q in range(max(lo, 2), hi + 1) if len(factorize(q)) == 1 and not (odd_only and q % 2 == 0)]
        assert prime_powers(lo, hi, odd_only=odd_only) == expected


# The least strong pseudoprime to the bases 2, 3, ..., one per witness set of
# is_prime (Jaeschke 1993; Sorenson & Webster 2017): psi_1..psi_7 and psi_9.
WITNESS_BOUNDS = {
    2047: (2,),
    1373653: (2, 3),
    25326001: (2, 3, 5),
    3215031751: (2, 3, 5, 7),
    2152302898747: (2, 3, 5, 7, 11),
    3474749660383: (2, 3, 5, 7, 11, 13),
    341550071728321: (2, 3, 5, 7, 11, 13, 17),
    3825123056546413051: (2, 3, 5, 7, 11, 13, 17, 19, 23),
}


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


@pytest.mark.parametrize("psi", sorted(WITNESS_BOUNDS))
def test_is_prime_at_each_witness_bound(psi):
    """psi passes the strong test to every base of the set it ends, yet is
    reported composite; below it, down to the largest prime, the answers
    agree with the twelve-base reference, and that prime is reported prime."""
    assert all(_strong_probable_prime(psi, a) for a in WITNESS_BOUNDS[psi])
    assert not twelve_base_is_prime(psi) and not is_prime(psi)
    n = psi - 1
    while not twelve_base_is_prime(n):
        assert not is_prime(n)
        n -= 1
    assert is_prime(n)


def test_is_prime_matches_the_reference_below_the_small_bounds():
    """Every n below 5 * 37^2: trial division, the n < 37^2 shortcut and the
    one- and two-base sets."""
    assert [n for n in range(5 * 37 * 37) if is_prime(n)] == [
        n for n in range(5 * 37 * 37) if twelve_base_is_prime(n)
    ]


def _trial_division(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division_below_10_5():
    for n in range(1, 10**5):
        assert factorize(n) == _trial_division(n), n


def test_factorize_matches_the_reference_on_a_n_minus_1():
    """Every a^n - 1 < 2^63 with 2 <= a <= 30, the values the
    primitive-divisor checks factor."""
    for a in range(2, 31):
        n = 1
        while a**n - 1 < 1 << 63:
            assert factorize(a**n - 1) == reference_factorize(a**n - 1), (a, n)
            n += 1


def test_factorize_matches_the_reference_on_31_bit_semiprimes():
    """Products of two primes of 31 bits: only rho can split them."""
    rng = random.Random(31)
    for _ in range(4):
        p, q = (_next_prime(rng.randrange(1 << 30, 1 << 31)) for _ in range(2))
        assert factorize(p * q) == reference_factorize(p * q) == dict(sorted(Counter([p, q]).items()))


def _next_prime(n: int) -> int:
    while not twelve_base_is_prime(n):
        n += 1
    return n

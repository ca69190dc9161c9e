import pytest

from chardeg.numtheory import (
    factorize,
    is_prime,
    p_part,
    prime_divisors,
    prime_power_split,
    prime_powers,
)
from oracles import multiplicative_order


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

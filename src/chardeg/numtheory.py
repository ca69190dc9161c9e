"""Integer helpers: primality, factorization, prime powers.

Everything is exact and deterministic.  Factorization combines trial
division with Brent-cycle Pollard rho, which is enough for the 63-bit
inputs the toolkit promises to handle.
"""

from __future__ import annotations

import math

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n (Brent's variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def prime_divisors(n: int) -> set[int]:
    """pi(n): the set of primes dividing n; empty for n = 1."""
    if n < 1:
        raise ValueError("prime_divisors expects n >= 1")
    return set(factorize(n))


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = t**a with t prime; raise if q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((t, a),) = fac.items()
    return t, a


def prime_powers(lo: int, hi: int, odd_only: bool = False) -> list[int]:
    """All prime powers q with lo <= q <= hi, ascending, from a sieve of the primes up to hi."""
    sieve = bytearray([1]) * max(hi + 1, 2)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(len(sieve) - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, len(sieve), p)))
    out = []
    for p in range(3 if odd_only else 2, hi + 1):
        if not sieve[p]:
            continue
        pk = p
        while pk <= hi:
            if pk >= lo:
                out.append(pk)
            pk *= p
    return sorted(out)

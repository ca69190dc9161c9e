"""Integer helpers: primality, factorization, prime powers.

Everything is exact and deterministic.  Primality is Miller-Rabin on the
witness set proven for the size of n; factorization is trial division by
the primes below 1000, which factors every n < 10^6 outright, then
Pollard rho with Brent's cycle finding and batched gcds on what is left,
which is enough for the 63-bit inputs the toolkit promises to handle.
"""

from __future__ import annotations

import math

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (psi, bases): every odd composite n < psi fails the strong test to one of
# the bases, and psi is the least strong pseudoprime to them all (Jaeschke,
# Math. Comp. 61, 1993; Sorenson & Webster, Math. Comp. 86, 2017).  Past
# the last bound the test keeps its twelve bases as a probable-prime test.
_WITNESSES = (
    (2047, _SMALL_PRIMES[:1]),
    (1373653, _SMALL_PRIMES[:2]),
    (25326001, _SMALL_PRIMES[:3]),
    (3215031751, _SMALL_PRIMES[:4]),
    (2152302898747, _SMALL_PRIMES[:5]),
    (3474749660383, _SMALL_PRIMES[:6]),
    (341550071728321, _SMALL_PRIMES[:7]),
    (3825123056546413051, _SMALL_PRIMES[:9]),
    (318665857834031151167461, _SMALL_PRIMES),
)

# factorize trial-divides by the primes below _TRIAL_BOUND; a cofactor free of
# them and below _TRIAL_BOUND**2 is prime
_TRIAL_BOUND = 1000

# rho steps whose differences share one gcd
_RHO_BATCH = 128


def _prime_sieve(hi: int) -> bytearray:
    """sieve[n] == 1 exactly when n is prime, for 0 <= n <= max(hi, 1)."""
    sieve = bytearray([1]) * max(hi + 1, 2)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(len(sieve) - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, len(sieve), p)))
    return sieve


_TRIAL_PRIMES = tuple(p for p, flag in enumerate(_prime_sieve(_TRIAL_BOUND - 1)) if flag)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for all n < 3.18 * 10^23 (psi_12).

    After trial division by the primes up to 37, an odd n < 37^2 is prime;
    above that, n takes the strong test to the witness set proven for its
    size (_WITNESSES).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 37 * 37:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = next((w for psi, w in _WITNESSES if n < psi), _SMALL_PRIMES)
    for a in bases:
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


def _brent_rho(n: int) -> int:
    """A nontrivial factor of a composite n with no prime factor below 1000.

    Pollard rho on x -> x^2 + c with Brent's cycle finding (BIT 20, 1980):
    y runs ahead of a saved x over doubling stretches, and the differences
    x - y of _RHO_BATCH steps are multiplied mod n before one gcd.  A batch
    whose gcd is n is walked again one step at a time; a c whose walk still
    closes on n gives way to the next c.
    """
    for c in range(1, 64):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    # what is left is 1, a prime (n < p^2), or free of primes below _TRIAL_BOUND
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND**2 or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m)
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
    sieve = _prime_sieve(hi)
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

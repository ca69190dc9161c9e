"""Polynomials over a prime field F_p and the factors of x^m - 1.

A polynomial is a tuple of residues, constant term first, with no trailing
zero; the zero polynomial is ().  Factoring is Berlekamp's (Knuth, TAOCP
vol. 2, 4.6.2; Lidl & Niederreiter, Finite Fields, 4.1): for a square-free
monic f of degree n, the polynomials g of degree below n with g^p = g mod f
form an algebra whose dimension, the nullity of Q - I where row i of Q holds
x^(p i) mod f, is the number of irreducible factors, and the gcds of f with
g - c over c in F_p split them apart.  x_powers is the one table of powers
of x modulo a polynomial: it gives Q, the order of x modulo a factor, and
the reduced powers of a root of unity.  Everything is deterministic.
"""

from __future__ import annotations

import functools

import numpy as np

from chardeg.fields import field_make
from chardeg.linalg import nullspace
from chardeg.numtheory import factorize


def _trim(a) -> tuple[int, ...]:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return tuple(a)


def poly_rem(a, b, p: int) -> tuple[int, ...]:
    """The remainder of a on division by a nonzero b, by long division from the top."""
    a, b = list(_trim(a)), _trim(b)
    n = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] * inv % p
        if c:
            for j in range(n + 1):
                a[i - n + j] = (a[i - n + j] - c * b[j]) % p
    return _trim(a[:n])


def poly_gcd(a, b, p: int) -> tuple[int, ...]:
    """The monic greatest common divisor of a and b, not both zero (Euclid)."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, poly_rem(a, b, p)
    inv = pow(a[-1], p - 2, p)
    return tuple(c * inv % p for c in a)


def x_powers(f, count: int, p: int) -> np.ndarray:
    """Row t, for t < count, holds the coefficients of x^t mod f (f monic of
    degree n >= 1): each row is the one before times x, its top coefficient
    folded back through f."""
    f = np.asarray(f, dtype=np.int64)
    n = f.size - 1
    out = np.zeros((count, n), dtype=np.int64)
    row = np.zeros(n, dtype=np.int64)
    row[0] = 1
    for t in range(count):
        out[t] = row
        top = row[-1]
        row = np.roll(row, 1)
        row[0] = 0
        row = (row - top * f[:n]) % p
    return out


def berlekamp(f, p: int) -> list[tuple[int, ...]]:
    """The monic irreducible factors of a square-free monic f over F_p, sorted
    by degree, then as base-p integers read from the top coefficient.

    ArithmeticError is raised when f shares a factor with its derivative,
    that is, when f is not square-free.  Every basis vector g of the
    Berlekamp algebra splits each factor u found so far into its
    nonconstant gcds with g - c, c in F_p.  Together the basis separates
    every pair of irreducible factors, so the split must end with as many
    factors as the algebra's dimension, Berlekamp's certificate;
    ArithmeticError is raised otherwise.
    """
    f = _trim(f)
    n = len(f) - 1
    if poly_gcd(f, [i * c % p for i, c in enumerate(f)][1:], p) != (1,):
        raise ArithmeticError(f"{f} is not square-free over F_{p}")
    Q = x_powers(f, p * (n - 1) + 1, p)[::p]
    basis = nullspace(field_make(p), (Q - np.eye(n, dtype=np.int64)).T % p)
    factors = [f]
    for g in basis.tolist():
        if len(factors) == basis.shape[0]:
            break
        split = []
        for u in factors:
            w = poly_rem(g, u, p)
            if len(w) < 2:  # a constant modulo u splits nothing
                split.append(u)
                continue
            for c in range(p):
                part = poly_gcd(u, ((w[0] - c) % p, *w[1:]), p)
                if len(part) > 1:
                    split.append(part)
        factors = split
    if len(factors) != basis.shape[0]:
        raise ArithmeticError(
            f"Berlekamp split gave {len(factors)} factors for an algebra of dimension {basis.shape[0]}"
        )
    return sorted(factors, key=lambda u: (len(u), u[::-1]))


@functools.lru_cache(maxsize=None)
def cyclotomic_labels(m: int, p: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The irreducible factors of x^m - 1 over F_p, sorted as berlekamp sorts
    them, and label[j], the index of the factor that vanishes at zeta^j, for
    j < m.  p must not divide m: berlekamp refuses x^m - 1 otherwise, as not
    square-free.

    zeta is x modulo the first factor F whose roots have order m, that is,
    x^(m/l) != 1 mod F for every prime l dividing m: a primitive m-th root
    of unity in F_p[x]/(F), found with no search.  Since x^m = 1 mod F, a
    factor f vanishes at zeta^j exactly when sum_t f_t x^(j t mod m) is 0
    mod F, read off the table of x^t mod F.  ArithmeticError is raised when
    some zeta^j is a root of no factor or of two.
    """
    factors = berlekamp((p - 1, *([0] * (m - 1)), 1), p)
    for F in factors:
        powers = x_powers(F, m + 1, p)
        one = powers[0]
        if all((powers[m // ell] != one).any() for ell in factorize(m)):
            break
    else:
        raise ArithmeticError(f"no factor of x^{m} - 1 over F_{p} has roots of order {m}")
    width = m + 1
    coeffs = np.zeros((len(factors), width), dtype=np.int64)
    for i, f in enumerate(factors):
        coeffs[i, : len(f)] = f
    jt = np.arange(m)[:, None] * np.arange(width)[None, :] % m
    values = np.einsum("it,jte->ije", coeffs, powers[jt]) % p
    roots = ~values.any(axis=2)
    if (roots.sum(axis=0) != 1).any():
        raise ArithmeticError(f"the factors of x^{m} - 1 over F_{p} do not label each power of zeta once")
    labels = roots.argmax(axis=0)
    labels.flags.writeable = False
    return tuple(factors), labels

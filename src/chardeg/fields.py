"""Small finite fields F_{p^k} with exact integer-encoded scalars.

A scalar is an integer index in [0, p^k): the base-p digits of the index
are the coefficients of the residue polynomial, constant term first.  For
prime fields the index is just the residue.  The add/mul/neg/inv lookup
tables of a field of order at most TABLE_LIMIT are its only arithmetic,
indexed by numpy code with whole arrays; an extension field never exceeds
that order, and a larger prime field is only a modulus that callers reduce
by directly.  digits and undigits are the package's one digit codec, both
ways: least significant digit first, on the last axis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from chardeg.numtheory import is_prime

MAX_ORDER = 1 << 20
TABLE_LIMIT = 1 << 10


class FieldError(ValueError):
    """Invalid field parameters or mismatched field usage."""


def digits(n, base: int, width: int) -> np.ndarray:
    """The base-`base` digits of every integer in n, least significant first,
    on a new last axis of length width (int64)."""
    n = np.asarray(n, dtype=np.int64)
    out = np.empty(n.shape + (width,), dtype=np.int64)
    for i in range(width):
        n, out[..., i] = np.divmod(n, base)
    return out


def undigits(d, base: int) -> np.ndarray:
    """The integers whose base-`base` digits lie on the last axis of d, least
    significant first (int64): the inverse of :func:`digits`."""
    d = np.asarray(d, dtype=np.int64)
    out = d[..., -1].copy()
    for i in range(d.shape[-1] - 2, -1, -1):
        out *= base
        out += d[..., i]
    return out


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= k//2."""
    k = len(modulus) - 1
    if modulus[-1] != 1:
        return False
    if k == 1:
        return True
    if modulus[0] == 0:
        return False
    for d in range(1, k // 2 + 1):
        for low in digits(np.arange(p**d), p, d).tolist():
            div = low + [1]
            # long division remainder of modulus by div
            rem = list(modulus)
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i]
                if c:
                    rem[i] = 0
                    for j in range(d):
                        rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
            if not any(rem[:d]):
                return False
    return True


@dataclass(frozen=True)
class Field:
    """F_{p^k} with the modulus fixed by :func:`field_make`."""

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p**self.k

    @property
    def is_prime_field(self) -> bool:
        return self.k == 1

    @functools.cached_property
    def generator(self) -> int:
        """Smallest unit whose powers, read off the multiplication table, first
        reach 1 at the exponent order - 1."""
        mul = self.tables[1]
        units = power = np.arange(1, self.order)
        for _ in range(self.order - 2):  # drop the units of order 1 .. order - 2
            units, power = units[power != 1], power[power != 1]
            power = mul[power, units]
        return int(units[0])

    # -- lookup tables for vectorized index arithmetic -----------------------

    @functools.cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only int64 (add, mul, neg, inv) tables over all indices; inv[0] = 0.

        Vectorized polynomial products, a block of rows at a time so that
        the digit arrays stay near 2^16 x (2k - 1) entries whatever the
        order: the digit rows of the block's indices and of every index,
        their pairwise sums and convolutions, then a top-down reduction of
        the product coefficients by the monic modulus.
        """
        p, k, q = self.p, self.k, self.order
        if q > TABLE_LIMIT:
            raise FieldError(f"field of order {q} exceeds the table limit {TABLE_LIMIT}")
        coeffs = digits(np.arange(q), p, k)  # q x k, constant term first
        neg = undigits((-coeffs) % p, p)
        low = np.asarray(self.modulus[:k])
        add = np.empty((q, q), dtype=np.int64)
        mul = np.empty((q, q), dtype=np.int64)
        rows = max(1, (1 << 16) // q)
        for lo in range(0, q, rows):
            block = coeffs[lo : lo + rows, None]
            add[lo : lo + rows] = undigits((block + coeffs[None]) % p, p)
            prod = np.zeros((block.shape[0], q, 2 * k - 1), dtype=np.int64)
            for i in range(k):
                prod[..., i : i + k] += block[..., i, None] * coeffs[None]
            prod %= p
            for i in range(2 * k - 2, k - 1, -1):
                prod[..., i - k : i] = (prod[..., i - k : i] - prod[..., i, None] * low) % p
            mul[lo : lo + rows] = undigits(prod[..., :k], p)
        inv = np.argmax(mul == 1, axis=1)
        for arr in (add, mul, neg, inv):
            arr.flags.writeable = False
        return add, mul, neg, inv

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}


def field_make(p: int, k: int = 1) -> Field:
    """Build F_{p^k} with the canonical modulus.

    The modulus is the monic irreducible of degree k whose non-leading
    coefficient vector, read as a base-p integer (constant term least
    significant), is minimal.  Prime fields get the degenerate modulus x.
    An extension field must fit its lookup tables (order <= TABLE_LIMIT).
    Results are cached, so equal parameters give the identical object.
    """
    return _field_make(int(p), int(k))


@functools.lru_cache(maxsize=None)
def _field_make(p: int, k: int) -> Field:
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if k < 1:
        raise FieldError("extension degree must be >= 1")
    cap = MAX_ORDER if k == 1 else TABLE_LIMIT
    if k >= cap.bit_length() or p**k > cap:  # 2^k > cap already, without forming p^k
        raise FieldError(f"field order {p}^{k} exceeds the cap {cap}")
    if k == 1:
        return Field(p, 1, (0, 1))
    for low in digits(np.arange(p**k), p, k).tolist():
        modulus = (*low, 1)
        if _is_irreducible(modulus, p):
            return Field(p, k, modulus)
    raise FieldError("no irreducible modulus found")  # unreachable


def field_from_json(data: dict) -> Field:
    p, k, modulus = data["p"], data["k"], data["modulus"]
    if type(p) is not int or type(k) is not int:
        raise FieldError(f"field p and k must be JSON integers, got {p!r} and {k!r}")
    if not isinstance(modulus, list) or any(type(c) is not int for c in modulus):
        raise FieldError(f"field modulus must be a list of JSON integers, got {modulus!r}")
    f = field_make(p, k)
    if list(f.modulus) != modulus:
        raise FieldError(f"non-canonical modulus {modulus} for F_{f.p}^{f.k}")
    return f

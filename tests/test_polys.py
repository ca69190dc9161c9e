import numpy as np
import pytest

from chardeg.fields import field_make
from chardeg.groups import FIELD_ORDER_CAP, sl2_group
from chardeg.numtheory import prime_divisors, prime_powers
from chardeg.polys import berlekamp, cyclotomic_labels, poly_gcd, poly_rem


def _product(polys, p: int) -> list[int]:
    out = np.ones(1, dtype=np.int64)
    for f in polys:
        out = np.convolve(out, np.asarray(f, dtype=np.int64)) % p
    return out.tolist()


def _cosets(m: int, r: int) -> set[frozenset[int]]:
    """The r-cyclotomic cosets mod m, one orbit of j -> r j at a time."""
    out, seen = set(), set()
    for j in range(m):
        if j in seen:
            continue
        coset, k = set(), j
        while k not in coset:
            coset.add(k)
            k = k * r % m
        seen |= coset
        out.add(frozenset(coset))
    return out


def _regular_orders() -> list[tuple[int, int]]:
    """Every (m, r): m an r-regular element order of SL2(q), q <= FIELD_ORDER_CAP,
    and r a prime dividing |SL2(q)|."""
    pairs = set()
    for q in prime_powers(4, FIELD_ORDER_CAP):
        g = sl2_group(q)
        orders = set(g.element_orders.tolist())
        for r in prime_divisors(g.order):
            pairs |= {(m, r) for m in orders if m % r}
    return sorted(pairs)


def test_cyclotomic_factors_match_brute_force():
    pairs = _regular_orders()
    assert len(pairs) == 265 and max(m for m, _ in pairs) == 94
    for m, r in pairs:
        factors, labels = cyclotomic_labels(m, r)
        assert all(f[-1] == 1 for f in factors), (m, r)
        assert list(factors) == sorted(factors, key=lambda f: (len(f), f[::-1])), (m, r)
        assert _product(factors, r) == [r - 1] + [0] * (m - 1) + [1], (m, r)
        cosets = _cosets(m, r)
        assert len(factors) == len(cosets), (m, r)
        assert labels.shape == (m,)
        assert {frozenset(np.flatnonzero(labels == i).tolist()) for i in range(len(factors))} == cosets


def test_the_labels_follow_a_primitive_root():
    """zeta^0 = 1 is a root of x - 1, and zeta^j of the factor that the
    field's own roots of unity pick: over F_7, x^6 - 1 splits into linear
    factors x - a, and zeta is the root of the first one of order 6."""
    factors, labels = cyclotomic_labels(6, 7)
    assert [len(f) for f in factors] == [2] * 6
    roots = [(-f[0]) % 7 for f in factors]
    zeta = roots[labels[1]]
    assert sorted(pow(zeta, j, 7) for j in range(6)) == list(range(1, 7))
    assert all(roots[labels[j]] == pow(zeta, j, 7) for j in range(6))
    assert roots[labels[0]] == 1
    assert zeta == next(a for a in roots if all(pow(a, k, 7) != 1 for k in (2, 3)))


def test_berlekamp_splits_a_product_of_field_moduli():
    """The moduli of F_{2^k}, k = 1..5, are distinct irreducibles; their
    product splits back into them, in sorted order."""
    moduli = [field_make(2, k).modulus if k > 1 else (1, 1) for k in range(1, 6)]
    assert berlekamp(tuple(_product(moduli, 2)), 2) == sorted(moduli, key=lambda f: (len(f), f[::-1]))
    assert berlekamp((1, 1, 1), 2) == [(1, 1, 1)]


def test_berlekamp_refuses_a_square():
    with pytest.raises(ArithmeticError):
        berlekamp((1, 0, 1), 2)  # (x + 1)^2
    with pytest.raises(ArithmeticError, match="not square-free"):
        cyclotomic_labels(6, 3)


def test_remainder_and_gcd():
    # x^4 + 1 = (x^2 + 2x + 2)(x^2 + x + 2) over F_3
    a, b = (2, 2, 1), (2, 1, 1)
    prod = tuple(_product([a, b], 3))
    assert prod == (1, 0, 0, 0, 1)
    assert poly_rem(prod, a, 3) == ()
    assert poly_rem((0, 0, 0, 1), a, 3) == (1, 2)  # x^2 = x + 1 mod a, so x^3 = x^2 + x = 2x + 1
    assert poly_gcd(prod, tuple(2 * c % 3 for c in a), 3) == a
    assert poly_gcd(a, b, 3) == (1,)

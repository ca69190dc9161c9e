import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chardeg.fields import TABLE_LIMIT, FieldError, digits, field_from_json, field_make, undigits
from chardeg.numtheory import prime_power_split, prime_powers
from oracles import digit_loop


def test_prime_field_modulus_convention():
    F = field_make(3, 1)
    assert F.modulus == (0, 1)
    assert F.order == 3


def test_f4_modulus():
    assert field_make(2, 2).modulus == (1, 1, 1)


def test_f9_modulus_minimal_scan():
    # x^2 + 1 is the first irreducible in candidate-integer order over F_3
    assert field_make(3, 2).modulus == (1, 0, 1)


def test_field_make_deterministic():
    a = field_make(5, 2)
    b = field_make(5, 2)
    assert a.modulus == b.modulus
    assert a is b  # cached


def test_field_make_rejects_bad_input():
    with pytest.raises(FieldError):
        field_make(6, 1)
    with pytest.raises(FieldError):
        field_make(2, 0)
    with pytest.raises(FieldError):
        field_make(2, 21)  # order 2^21 over the cap
    with pytest.raises(FieldError):
        field_make(2, 11)  # an extension field past its lookup tables
    assert field_make(2, 10).order == TABLE_LIMIT


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_field_axioms_exhaustive(p, k):
    """Associativity, distributivity and inverses on the full tables."""
    F = field_make(p, k)
    q = F.order
    assert q <= 81
    add_t, mul_t, neg_t, inv_t = F.tables
    idx = np.arange(q)
    # commutativity
    assert np.array_equal(add_t, add_t.T)
    assert np.array_equal(mul_t, mul_t.T)
    # associativity over all triples
    ab_c = mul_t[mul_t[:, :, None], idx[None, None, :]]
    a_bc = mul_t[idx[:, None, None], mul_t[None, :, :]]
    assert np.array_equal(ab_c, a_bc)
    ab_c = add_t[add_t[:, :, None], idx[None, None, :]]
    a_bc = add_t[idx[:, None, None], add_t[None, :, :]]
    assert np.array_equal(ab_c, a_bc)
    # distributivity over all triples
    lhs = mul_t[idx[:, None, None], add_t[None, :, :]]
    rhs = add_t[
        mul_t[idx[:, None, None], idx[None, :, None]],
        mul_t[idx[:, None, None], idx[None, None, :]],
    ]
    assert np.array_equal(lhs, rhs)
    # additive and multiplicative inverses
    assert np.array_equal(add_t[idx, neg_t], np.zeros(q, dtype=np.int64))
    assert np.array_equal(mul_t[idx[1:], inv_t[1:]], np.ones(q - 1, dtype=np.int64))


def test_generator_has_full_order():
    """Over every field that sl2_group reads it from, the generator is the
    least unit of multiplicative order q - 1, found by brute force: pow for a
    prime q, repeated table products otherwise."""
    for q in prime_powers(4, 49):
        F = field_make(*prime_power_split(q))
        mul = F.tables[1].tolist()

        def order(g):
            x, n = g, 1
            while x != 1:
                x, n = mul[x][g], n + 1
            return n

        if F.is_prime_field:
            least = min(g for g in range(1, q) if all(pow(g, e, q) != 1 for e in range(1, q - 1)))
        else:
            least = min(g for g in range(1, q) if order(g) == q - 1)
        assert F.generator == least, q


def test_json_round_trip():
    F = field_make(3, 2)
    assert field_from_json(F.to_json()) is F
    with pytest.raises(FieldError):
        field_from_json({"p": 3, "k": 2, "modulus": [2, 0, 1]})


# -- oracle: per-call polynomial arithmetic on coefficient lists ---------------


def _digits(idx, p, k):
    return [idx // p**i % p for i in range(k)]


def _index(coeffs, p):
    return sum(c * p**i for i, c in enumerate(coeffs))


def _poly_mul_mod(a, b, modulus, p):
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        for j in range(k):
            prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    return prod[:k]


def _oracle_tables(F):
    p, k, q = F.p, F.k, F.order
    digits = [_digits(a, p, k) for a in range(q)]
    add = [[_index([(x + y) % p for x, y in zip(da, db)], p) for db in digits] for da in digits]
    mul = [[_index(_poly_mul_mod(da, db, F.modulus, p), p) for db in digits] for da in digits]
    neg = [_index([(-x) % p for x in da], p) for da in digits]

    def power(a, n):
        out = 1
        for _ in range(n):
            out = mul[out][a]
        return out

    inv = [0] + [power(a, q - 2) for a in range(1, q)]
    return add, mul, neg, inv


@pytest.mark.parametrize("q", prime_powers(2, 128))
def test_tables_and_scalars_match_polynomial_arithmetic(q):
    """Every table entry, which is all the field arithmetic there is, against
    coefficient-list polynomial arithmetic mod the field's modulus."""
    F = field_make(*prime_power_split(q))
    for table, want in zip(F.tables, _oracle_tables(F)):
        assert table.dtype == np.int64 and not table.flags.writeable
        assert table.tolist() == want


@pytest.mark.parametrize("q", [625, 729])
def test_tables_built_in_row_blocks_match_polynomial_arithmetic(q):
    """Fields whose tables take several row blocks, the last one partial (one
    row of 625, 17 of 729): the rows on both sides of every block boundary
    and a random sample of entries against the polynomial oracle, and the
    negation and inverse tables against the add and mul tables."""
    F = field_make(*prime_power_split(q))
    add, mul, neg, inv = F.tables
    p, k = F.p, F.k
    rows = (1 << 16) // q
    cut = np.arange(rows, q, rows)
    a = np.concatenate([cut - 1, cut, [q - 1], np.random.default_rng(q).integers(q, size=40)])
    for x in a.tolist():
        for y in np.random.default_rng(x).integers(q, size=30).tolist():
            dx, dy = _digits(x, p, k), _digits(y, p, k)
            assert add[x, y] == _index([(u + v) % p for u, v in zip(dx, dy)], p)
            assert mul[x, y] == _index(_poly_mul_mod(dx, dy, F.modulus, p), p)
    assert (add[np.arange(q), neg] == 0).all()
    assert (mul[np.arange(1, q), inv[1:]] == 1).all() and inv[0] == 0


@given(st.integers(2, 49), st.integers(1, 8), st.lists(st.integers(0, 2**40), min_size=1, max_size=6))
def test_digits_match_the_division_loop(base, width, ns):
    """digits agrees with one division at a time, on a scalar and on an array,
    and undigits spells every n below base^width back out, on a stacked input too."""
    got = digits(np.asarray(ns), base, width)
    assert got.shape == (len(ns), width) and got.dtype == np.int64
    assert got.tolist() == [digit_loop(n, base, width) for n in ns]
    assert digits(ns[0], base, width).tolist() == digit_loop(ns[0], base, width)
    below = np.asarray(ns) < base**width
    assert undigits(got, base)[below].tolist() == np.asarray(ns)[below].tolist()
    stacked = np.stack([np.asarray(ns)[below]] * 3)
    assert undigits(digits(stacked, base, width), base).tolist() == stacked.tolist()

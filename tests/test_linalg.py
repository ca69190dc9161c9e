import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chardeg.fields import FieldError, field_make
from chardeg.kernels import rref_prime
from chardeg.linalg import identity_matrix, mat_inv, nullspace
from oracles import two_echelon_nullspace

F2 = field_make(2)
F3 = field_make(3)
F5 = field_make(5)
F7 = field_make(7)


def _rank(F, A) -> int:
    return rref_prime(np.asarray(A, dtype=np.int64), F.p)[1].size


def test_rref_identity():
    R, piv, src = rref_prime(identity_matrix(2), 5)
    assert piv.tolist() == [0, 1]
    assert src.tolist() == [0, 1]
    assert np.array_equal(R, identity_matrix(2))


def test_rref_zero():
    assert _rank(F5, np.zeros((3, 3), dtype=np.int64)) == 0


def test_rref_dependent_rows_mod3():
    # second row is twice the first over F_3
    assert _rank(F3, [[1, 2], [2, 1]]) == 1


def test_kernel_identity_and_zero():
    assert nullspace(F3, identity_matrix(4)).shape == (0, 4)
    assert nullspace(F3, np.zeros((4, 4), dtype=np.int64)).shape == (4, 4)


def test_kernel_f2_sum_vector():
    assert nullspace(F2, [[1, 1]]).tolist() == [[1, 1]]


def test_kernel_membership_over_f5():
    assert nullspace(F5, [[1, 1]]).tolist() == [[1, 4]]  # (2, 3) = 2 * (1, 4) is in it, (2, 2) is not
    assert nullspace(F5, identity_matrix(2)).shape == (0, 2)


def _table_mat_mul(F, A, B):
    """Matrix product entry by entry, in plain integer arithmetic mod p."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for k in range(A.shape[1]):
                acc = (acc + int(A[i, k]) * int(B[k, j])) % F.p
            out[i, j] = acc
    return out


def test_mat_inv_round_trip():
    rng = np.random.default_rng(0)
    for F in (F2, F3, F5, F7):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            while True:
                A = rng.integers(0, F.order, size=(n, n)).astype(np.int64)
                if _rank(F, A) == n:
                    break
            assert np.array_equal(_table_mat_mul(F, A, mat_inv(F, A)), identity_matrix(n))


def test_rref_refuses_extension_field():
    """The echelon layer is prime-field only; F_4 is refused, not reduced."""
    F4 = field_make(2, 2)
    A = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64)
    with pytest.raises(FieldError):
        nullspace(F4, A)
    with pytest.raises(FieldError):
        mat_inv(F4, identity_matrix(2))


@pytest.mark.parametrize("F", [F2, F3, F5, F7], ids=["F2", "F3", "F5", "F7"])
def test_row_space_contains_matches_exhaustive_span(F):
    """Span membership read off rref_prime (appending v leaves the rank unchanged)
    agrees with the enumerated span of a random basis."""
    rng = np.random.default_rng(F.order)
    for _ in range(6):
        n = int(rng.integers(1, 4))
        rows = rng.integers(0, F.order, size=(int(rng.integers(0, n + 1)), n)).astype(np.int64)
        R, piv, _ = rref_prime(rows, F.p)
        basis = R[: piv.size]
        span = set()
        for coeffs in itertools.product(range(F.order), repeat=piv.size):
            v = [0] * n
            for c, row in zip(coeffs, basis):
                v = [(x + c * int(y)) % F.p for x, y in zip(v, row)]
            span.add(tuple(v))
        for v in itertools.product(range(F.order), repeat=n):
            rank = _rank(F, np.concatenate([basis, np.asarray([v], dtype=np.int64)]))
            assert (rank == piv.size) == (v in span)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 7),
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
)
def test_rank_nullity_and_idempotence(p, m, n, seed):
    F = field_make(p)
    A = np.random.default_rng(seed).integers(0, p, size=(m, n)).astype(np.int64)
    R, piv, _ = rref_prime(A, p)
    ns = nullspace(F, A)
    assert piv.size + ns.shape[0] == n
    assert np.array_equal(rref_prime(R, p)[0], R)
    # every kernel row really is in the kernel
    if ns.shape[0]:
        assert not ((A @ ns.T) % p).any()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(0, 8),
    st.integers(0, 8),
    st.sampled_from(["random", "zero", "full-rank", "zero-column"]),
    st.integers(0, 2**32 - 1),
)
def test_nullspace_matches_two_echelon_oracle(p, m, n, kind, seed):
    """The one-echelon nullspace equals the RREF of the free columns' basis
    vectors, byte for byte, on random, zero, full-rank and zero-column
    matrices (and on zero rows or zero columns)."""
    rng = np.random.default_rng(seed)
    A = rng.integers(0, p, size=(m, n)).astype(np.int64)
    if kind == "zero":
        A[:] = 0
    elif kind == "full-rank":
        # upper triangular with a nonzero diagonal, columns shuffled: rank min(m, n)
        k = min(m, n)
        T = np.triu(rng.integers(0, p, size=(k, max(m, n))), 1)
        T[np.arange(k), np.arange(k)] = rng.integers(1, p, size=k)
        T = T[:, rng.permutation(max(m, n))]
        A = T if m <= n else T.T
        assert _rank(field_make(p), A) == k
    elif kind == "zero-column" and n:
        A[:, rng.integers(n)] = 0
    F = field_make(p)
    got, want = nullspace(F, A), two_echelon_nullspace(F, A)
    assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want) and got.flags.c_contiguous


def test_nullspace_runs_one_echelon(monkeypatch):
    import chardeg.kernels as kernels

    calls = []

    def counting(A, p):
        calls.append(A.shape)
        return rref_prime(A, p)

    monkeypatch.setattr(kernels, "rref_prime", counting)
    A = np.asarray([[1, 2, 0, 1], [0, 0, 1, 1]], dtype=np.int64)
    assert nullspace(F3, A).tolist() == two_echelon_nullspace(F3, A).tolist() == [[1, 0, 1, 2], [0, 1, 2, 1]]
    assert calls == [(2, 4)]

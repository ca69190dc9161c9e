"""Exact matrix algebra over the fields of :mod:`chardeg.fields`.

Matrices are plain numpy int64 arrays of scalar indices; every function
takes the field as its first argument.  Prime fields run on direct
modular arithmetic, extension fields on the precomputed lookup tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chardeg import kernels
from chardeg.fields import Field


def as_matrix(data) -> np.ndarray:
    a = np.asarray(data, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("matrix data must be 2-dimensional")
    return a


def identity_matrix(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def mat_mul(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if F.is_prime_field:
        return (A @ B) % F.p
    add_t, mul_t = F.tables[0], F.tables[1]
    acc = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for k in range(A.shape[1]):
        acc = add_t[acc, mul_t[A[:, k][:, None], B[k][None, :]]]
    return acc


def mat_neg(F: Field, A: np.ndarray) -> np.ndarray:
    if F.is_prime_field:
        return (-A) % F.p
    return F.tables[2][A]


def mat_add(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if F.is_prime_field:
        return (A + B) % F.p
    return F.tables[0][A, B]


def mat_sub(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return mat_add(F, A, mat_neg(F, B))


def trace(F: Field, A: np.ndarray) -> int:
    t = 0
    for x in np.diagonal(A):
        t = F.add(t, int(x))
    return t


def kron(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if F.is_prime_field:
        return np.kron(A, B) % F.p
    mul_t = F.tables[1]
    ma, na = A.shape
    mb, nb = B.shape
    out = mul_t[A[:, None, :, None], B[None, :, None, :]]
    return out.reshape(ma * mb, na * nb)


@dataclass(frozen=True)
class RrefResult:
    rank: int
    reduced: np.ndarray
    pivots: tuple[int, ...]


def rref(F: Field, A) -> RrefResult:
    """Reduced row echelon form; idempotent on its own output."""
    A = as_matrix(A)
    if A.size == 0:
        return RrefResult(0, A.copy(), ())
    if F.is_prime_field:
        R, piv = kernels.rref_prime(A, F.p)
        return RrefResult(len(piv), R, tuple(int(c) for c in piv))
    add_t, mul_t, neg_t, inv_t = F.tables
    R = A.copy()
    m, n = R.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        nz = np.flatnonzero(R[row:, col])
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            R[[row, pr]] = R[[pr, row]]
        R[row] = mul_t[inv_t[R[row, col]], R[row]]
        mask = R[:, col] != 0
        mask[row] = False
        if mask.any():
            fac = neg_t[R[mask, col]]
            R[mask] = add_t[R[mask], mul_t[fac[:, None], R[row][None, :]]]
        pivots.append(col)
        row += 1
    return RrefResult(row, R, tuple(pivots))


def nullspace(F: Field, A) -> np.ndarray:
    """Basis of the right null space {x : A x = 0}, as RREF rows."""
    A = as_matrix(A)
    n = A.shape[1]
    res = rref(F, A)
    free = [c for c in range(n) if c not in res.pivots]
    if not free:
        return np.zeros((0, n), dtype=np.int64)
    basis = np.zeros((len(free), n), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for prow, pcol in enumerate(res.pivots):
            basis[i, pcol] = F.neg(int(res.reduced[prow, f]))
    return rref(F, basis).reduced[: len(free)]


def mat_inv(F: Field, A: np.ndarray) -> np.ndarray:
    A = as_matrix(A)
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("inverse of a non-square matrix")
    aug = np.concatenate([A, identity_matrix(n)], axis=1)
    res = rref(F, aug)
    if res.rank < n or res.pivots[:n] != tuple(range(n)):
        raise ZeroDivisionError("singular matrix")
    return res.reduced[:, n:].copy()


def row_space_contains(F: Field, basis_rref: np.ndarray, v: np.ndarray) -> bool:
    """Membership test against an RREF row basis.

    A member's coordinates are its entries in the pivot columns, so v is in
    the span exactly when v - v[pivots] . basis vanishes.
    """
    piv = (basis_rref != 0).argmax(axis=1)
    return not mat_sub(F, v, mat_mul(F, v[piv][None, :], basis_rref)).any()


@dataclass(frozen=True)
class Subspace:
    """Row space in reduced row echelon form over a fixed field."""

    field: Field
    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        self.basis.flags.writeable = False

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def contains(self, v: np.ndarray) -> bool:
        return row_space_contains(self.field, self.basis, np.asarray(v, dtype=np.int64))

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "ambient_dim": self.ambient_dim,
            "basis": [[int(x) for x in row] for row in self.basis],
        }


def kernel(F: Field, A) -> Subspace:
    """Right null space of A as a Subspace."""
    A = as_matrix(A)
    basis = nullspace(F, A)
    return Subspace(F, A.shape[1], basis)


def matrix_to_json(F: Field, A: np.ndarray) -> dict:
    A = as_matrix(A)
    return {
        "p": F.p,
        "k": F.k,
        "modulus": list(F.modulus),
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "entries": [int(x) for x in A.reshape(-1)],
    }


def matrix_from_json(data: dict) -> tuple[Field, np.ndarray]:
    from chardeg.fields import field_from_json

    F = field_from_json(data)
    rows, cols = int(data["rows"]), int(data["cols"])
    entries = [int(x) for x in data["entries"]]
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match matrix shape")
    if any(not 0 <= e < F.order for e in entries):
        raise ValueError("matrix entry out of field range")
    return F, np.asarray(entries, dtype=np.int64).reshape(rows, cols)

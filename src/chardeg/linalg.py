"""Field-generic exact linear algebra: rref, nullspace, inverse and subspaces.

Matrices are plain numpy int64 arrays of scalar indices over the fields of
:mod:`chardeg.fields`; every function takes the field as its first
argument.  Prime fields reduce through kernels.rref_prime, extension
fields on the precomputed lookup tables.  Matrix arithmetic over a prime
field is plain numpy mod p at the call site.
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
    """Membership test: appending v to a row basis leaves the rank unchanged."""
    return rref(F, np.concatenate([basis_rref, v[None, :]])).rank == basis_rref.shape[0]


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

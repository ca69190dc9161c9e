"""Prime-field echelon layer: rref, nullspace, inverse and subspaces.

Matrices are plain numpy int64 arrays of residues mod p; every function
takes the field as its first argument and reduces through
kernels.rref_prime.  An extension field raises FieldError: modules are
prime-field only, and the groups' extension fields do their arithmetic
through Field.tables.  Matrix products of module matrices go through
kernels.mul_mod, the exact float64 product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chardeg import kernels
from chardeg.fields import Field, FieldError


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
    """Reduced row echelon form over a prime field; idempotent on its own output."""
    if not F.is_prime_field:
        raise FieldError(f"row reduction is prime-field only, not over F_{F.p}^{F.k}")
    A = as_matrix(A)
    if A.size == 0:
        return RrefResult(0, A.copy(), ())
    R, piv = kernels.rref_prime(A, F.p)
    return RrefResult(len(piv), R, tuple(int(c) for c in piv))


def nullspace(F: Field, A) -> np.ndarray:
    """Basis of the right null space {x : A x = 0}, as RREF rows."""
    A = as_matrix(A)
    n = A.shape[1]
    res = rref(F, A)
    free = [c for c in range(n) if c not in res.pivots]
    if not free:
        return np.zeros((0, n), dtype=np.int64)
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, list(res.pivots)] = (-res.reduced[: res.rank, free].T) % F.p
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


def kernel(F: Field, A) -> Subspace:
    """Right null space of A as a Subspace."""
    A = as_matrix(A)
    basis = nullspace(F, A)
    return Subspace(F, A.shape[1], basis)

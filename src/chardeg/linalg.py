"""Prime-field linear algebra beside the echelon engine: nullspace and inverse.

Matrices are plain numpy int64 arrays of residues mod p; every function
that takes a field runs one kernels.rref_prime, the one echelon call
(nullspace on the columns in reverse order), which callers that need a
rank or a reduced basis use directly.  An extension field raises
FieldError: modules are prime-field only, and the groups' extension
fields do their arithmetic through Field.tables.
Matrix products of module matrices go through kernels.mul_mod, the exact
float64 product.
"""

from __future__ import annotations

import numpy as np

from chardeg import kernels
from chardeg.fields import Field, FieldError


def _prime_matrix(F: Field, data) -> np.ndarray:
    """data as a 2-dimensional int64 array, after refusing an extension field."""
    if not F.is_prime_field:
        raise FieldError(f"row reduction is prime-field only, not over F_{F.p}^{F.k}")
    a = np.asarray(data, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("matrix data must be 2-dimensional")
    return a


def identity_matrix(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def nullspace(F: Field, A) -> np.ndarray:
    """Basis of the right null space {x : A x = 0}, as RREF rows: with the
    columns reduced in reverse order, each free column's basis vector is zero
    before that column and in the other free columns, hence already RREF."""
    A = _prime_matrix(F, A)
    n = A.shape[1]
    R, piv, _ = kernels.rref_prime(A[:, ::-1], F.p)
    free = np.ones(n, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)[::-1]
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = (-R[: piv.size, free].T) % F.p
    return np.ascontiguousarray(basis[:, ::-1])


def mat_inv(F: Field, A) -> np.ndarray:
    A = _prime_matrix(F, A)
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError("inverse of a non-square matrix")
    R, piv, _ = kernels.rref_prime(np.concatenate([A, identity_matrix(n)], axis=1), F.p)
    if not np.array_equal(piv[:n], np.arange(n)):
        raise ZeroDivisionError("singular matrix")
    return R[:, n:].copy()

"""Hot numeric kernels: orbit sweeps and prime-field row reduction.

Both kernels are vectorized numpy.  rref_prime is the one echelon engine
of the package: linalg.rref and the meataxe spin both reduce through it.

Vectors of a module over F_r are packed into integer keys base r, digit 0
least significant, matching the scalar index encoding.
"""

from __future__ import annotations

import numpy as np

# Read by the environment fingerprint of perfbench/run.py; every kernel
# here is plain numpy.
JIT_ENABLED = False


def orbit_sweep(gens: np.ndarray, r: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full orbit decomposition of F_r^dim under the generator matrices.

    Returns (labels, reps, sizes): labels maps each packed key to its orbit
    index; reps holds the minimal packed key of every orbit, in discovery
    order (ascending); sizes the orbit cardinalities.
    """
    nvec = r**dim
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    labels = np.full(nvec, -1, dtype=np.int32)
    powers = r ** np.arange(dim, dtype=np.int64)
    reps: list[int] = []
    sizes: list[int] = []
    scan_from = 0
    while True:
        unl = np.flatnonzero(labels[scan_from:] < 0)
        if unl.size == 0:
            break
        start = scan_from + int(unl[0])
        scan_from = start + 1
        oid = len(reps)
        labels[start] = oid
        frontier = np.array([start], dtype=np.int64)
        total = 1
        while frontier.size:
            digits = (frontier[:, None] // powers[None, :]) % r
            images = [((digits @ M.T) % r) @ powers for M in gens]
            keys = np.unique(np.concatenate(images))
            fresh = keys[labels[keys] < 0]
            labels[fresh] = oid
            total += int(fresh.size)
            frontier = fresh
        reps.append(start)
        sizes.append(total)
    return labels, np.asarray(reps, dtype=np.int64), np.asarray(sizes, dtype=np.int64)


def rref_prime(A: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form over F_p; returns (reduced, pivot columns)."""
    R = np.ascontiguousarray(A, dtype=np.int64) % p
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
        R[row] = R[row] * pow(int(R[row, col]), p - 2, p) % p
        mask = R[:, col] != 0
        mask[row] = False
        if mask.any():
            R[mask] = (R[mask] - np.outer(R[mask, col], R[row])) % p
        pivots.append(col)
        row += 1
    return R, np.asarray(pivots, dtype=np.int64)

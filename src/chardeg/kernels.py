"""Hot numeric kernels: orbit labelling and prime-field row reduction.

Both kernels are vectorized numpy.  orbit_labels is the one orbit engine
of the package: vector orbits, conjugacy classes and power-map cycles are
all labelled through it.  rref_prime is the one echelon engine: linalg.rref
and the meataxe spin both reduce through it.

Vectors of a module over F_r are packed into integer keys base r, digit 0
least significant, matching the scalar index encoding.
"""

from __future__ import annotations

import numpy as np

# Read by the environment fingerprint of perfbench/run.py; every kernel
# here is plain numpy.
JIT_ENABLED = False


# Keys per block when orbit_sweep builds the generator permutations: the
# int64 digit matrix of one block is all the build holds besides the int32
# permutations themselves.
SWEEP_CHUNK = 1 << 12


def orbit_labels(perms, n: int) -> np.ndarray:
    """Least member of every point's orbit under the index permutations.

    Each point repeatedly takes the least label among its own and its
    images' labels, and labels are shortcut through their own label
    (pointer jumping) until nothing changes.  Returns int32 labels.
    """
    label = np.arange(n, dtype=np.int32)
    while True:
        prev = label.copy()
        for perm in perms:
            np.minimum(label, label[perm], out=label)
        label = label[label]
        if np.array_equal(label, prev):
            return label


def orbit_sweep(gens: np.ndarray, r: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full orbit decomposition of F_r^dim under the generator matrices.

    Returns (labels, reps, sizes): labels (int32) maps each packed key to
    its orbit index; reps (int64) holds the minimal packed key of every
    orbit, ascending, and orbits are numbered in that order; sizes (int64)
    the orbit cardinalities.
    """
    nvec = r**dim
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    powers = r ** np.arange(dim, dtype=np.int64)
    perms = [np.empty(nvec, dtype=np.int32) for _ in gens]
    for lo in range(0, nvec, SWEEP_CHUNK):
        keys = np.arange(lo, min(lo + SWEEP_CHUNK, nvec), dtype=np.int64)
        digits = (keys[:, None] // powers) % r
        for perm, M in zip(perms, gens):
            perm[lo : lo + keys.size] = ((digits @ M.T) % r) @ powers
    least = orbit_labels(perms, nvec)
    del perms  # the largest arrays of the sweep; free them before numbering
    is_rep = least == np.arange(nvec, dtype=np.int32)
    labels = (np.cumsum(is_rep, dtype=np.int32) - 1)[least]
    reps = np.flatnonzero(is_rep)
    return labels, reps, np.bincount(labels, minlength=reps.size)


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

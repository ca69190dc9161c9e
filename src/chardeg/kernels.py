"""Hot numeric kernels: orbit labelling, orbit stabilizers, BFS levels and prime-field linear algebra.

All kernels are vectorized numpy.  orbit_labels is the one orbit engine
of the package: vector orbits, conjugacy classes and power-map cycles are
all labelled through it, in two alternating label buffers.
orbit_stabilizers builds the int32 key permutations of the inverse
generator images from digit tables, reads the orbit representatives and
sizes off one bincount of their labels, and reads every stabilizer off one
walk of the group's BFS tree over them; bfs_levels is the one reading of
that tree's levels.
rref_prime is the one echelon engine: linalg, the meataxe's spin and
split, and the Hom solve all reduce through it, and the source rows it
reports are how spin records which vectors joined its closure.  mul_mod
is the one product of module matrices: a float64 BLAS product, exact
because every integer it forms stays below 2^53, the approach of
FFLAS-FFPACK (Dumas, Giorgi & Pernet, ACM TOMS 35, 2008).

Vectors of a module over F_r are packed into integer keys base r, digit 0
least significant, matching the scalar index encoding.
"""

from __future__ import annotations

import numpy as np

from chardeg.fields import FieldError, digits

# Read by the environment fingerprint of perfbench/run.py; every kernel
# here is plain numpy.
JIT_ENABLED = False


# float64 holds every integer of absolute value up to 2^53 exactly.
EXACT_FLOAT_LIMIT = 1 << 53

# Keys per block of the permutation build: a key splits into its low k
# digits, r^k <= SWEEP_CHUNK, and its high digits, and the images of the
# low digits are tabulated once per matrix.
SWEEP_CHUNK = 1 << 12

# Keys held by the stabilizer walk: a block of representatives is as many
# as fit this many (element, representative) cells, whatever the group order.
STAB_BLOCK_CELLS = 1 << 18


def orbit_labels(perms, n: int) -> np.ndarray:
    """Least member of every point's orbit under the index permutations.

    Each point repeatedly takes the least label among its own and its
    images' labels, and labels are shortcut through their own label
    (pointer jumping), until a round changes no label.  The steps alternate
    between two int32 buffers.  Labels only decrease, so a round changed
    nothing exactly when their sum stayed the same.  Every index lies in
    [0, n), so mode="clip" clips none; it spares np.take the buffered copy
    of its output that mode="raise" makes.  Returns int32 labels; the
    permutations are only read.
    """
    label = np.arange(n, dtype=np.int32)
    spare = np.empty(n, dtype=np.int32)
    total = int(label.sum(dtype=np.int64))
    while True:
        for perm in perms:
            np.take(label, perm, out=spare, mode="clip")
            np.minimum(label, spare, out=spare)
            label, spare = spare, label
        np.take(label, label, out=spare, mode="clip")
        label, spare = spare, label
        prev, total = total, int(label.sum(dtype=np.int64))
        if total == prev:
            return label


def _key_perms(gens: np.ndarray, r: int, dim: int) -> np.ndarray:
    """One int32 key permutation per matrix: perms[j][key(v)] = key(M_j v).

    A key is hi * r^k + lo, lo holding the low k digits.  Image digit i of
    it is (A[lo, i] + B[hi, i]) mod r, where A and B are the low and high
    digits times the matching columns of M.  With the table
    T[i, s] = ((A[:, i] + s) mod r) * r^i, the r^k images of one high part
    are the sum of dim rows of T, so no product runs over the whole space.
    """
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    k = 0
    while k < dim and r ** (k + 1) <= SWEEP_CHUNK:
        k += 1
    powers = r ** np.arange(dim, dtype=np.int64)
    lo_digits = digits(np.arange(r**k), r, k)
    hi_digits = digits(np.arange(r ** (dim - k)), r, dim - k)
    shifts = np.arange(r, dtype=np.int64)[:, None]
    perms = np.empty((len(gens), r**dim), dtype=np.int32)
    for perm, M in zip(perms, gens):
        A = lo_digits @ M[:, :k].T
        B = (hi_digits @ M[:, k:].T) % r
        block = perm.reshape(B.shape[0], r**k)
        for i in range(dim):
            T = ((A[:, i] + shifts) % r * powers[i]).astype(np.int32)
            if i:
                block += T[B[:, i]]
            else:
                block[:] = T[B[:, i]]
    return perms


def _number_orbits(least: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(labels, reps, sizes) from the least member of every point's orbit."""
    is_rep = least == np.arange(least.size, dtype=np.int32)
    labels = (np.cumsum(is_rep, dtype=np.int32) - 1)[least]
    reps = np.flatnonzero(is_rep)
    return labels, reps, np.bincount(labels, minlength=reps.size)


def bfs_levels(parent: np.ndarray) -> list[tuple[int, int]]:
    """The levels [lo, hi) after the root of a group's BFS tree.

    parent is nondecreasing and parent[i] < i, so the elements whose
    parents are all below lo form one BFS level [lo, hi).
    """
    levels = []
    lo = 1
    while lo < parent.size:
        hi = int(np.searchsorted(parent, lo))
        levels.append((lo, hi))
        lo = hi
    return levels


def orbit_stabilizers(
    inv_gens: np.ndarray, r: int, dim: int, parent: np.ndarray, parent_gen: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Orbits of F_r^dim under a group, with the stabilizer of each representative.

    inv_gens are the inverses of the images of the group's generators, and
    the group's BFS tree has element i = elems[parent[i]] @ gens[parent_gen[i]].
    Returns (reps, sizes, members): reps (int64) holds the least key of every
    orbit, ascending; sizes (int64) the orbit cardinalities in that order; and
    members, for every representative v, the ascending indices of the
    elements that fix it.

    perms[j] maps key(v) to key(gens[j]^-1 v), and the inverses have the
    same orbits as the generators.  Every point labels its orbit's least
    member, so the representatives are the keys that some point labels, and
    one bincount of the labels gives them and their sizes.  The walk
    K[i] = perms[parent_gen[i]][K[parent[i]]], one BFS level at a time over a
    block of representatives, gives the key of g_i^-1 v, and g_i fixes v
    exactly when K[i] == v.
    """
    nvec = r**dim
    perms = _key_perms(inv_gens, r, dim)
    counts = np.bincount(orbit_labels(perms, nvec), minlength=nvec)
    reps = np.flatnonzero(counts)
    sizes = counts[reps]
    del counts
    n = parent.size
    flat = perms.reshape(-1)
    offset = parent_gen.astype(np.int64) * nvec
    levels = [(lo, hi, parent[lo:hi], offset[lo:hi, None]) for lo, hi in bfs_levels(parent)]
    block = max(1, STAB_BLOCK_CELLS // n)
    members: list[np.ndarray] = []
    K = np.empty((n, min(block, reps.size)), dtype=np.int32)
    for start in range(0, reps.size, block):
        vs = reps[start : start + block].astype(np.int32)
        keys = K[:, : vs.size]
        keys[0] = vs
        for lo, hi, par, off in levels:
            keys[lo:hi] = flat[off + keys[par]]
        which, elems = np.nonzero((keys == vs).T)
        members.extend(np.split(elems, np.cumsum(np.bincount(which, minlength=vs.size))[:-1]))
    return reps, sizes, members


def mul_mod(A, B, p: int) -> np.ndarray:
    """A @ B mod p as int64, for entries of absolute value below p.

    The product runs in float64 BLAS.  Every partial sum of a dot product
    is an integer of absolute value at most inner * (p-1)^2, so it is exact
    while that bound stays below 2^53; past it FieldError is raised.  An
    operand already in float64 is used without a copy.
    """
    A = np.asarray(A, dtype=np.float64)
    inner = A.shape[-1]
    if inner * (p - 1) ** 2 >= EXACT_FLOAT_LIMIT:
        raise FieldError(f"a float64 product of length {inner} over F_{p} is not exact")
    return np.matmul(A, np.asarray(B, dtype=np.float64)).astype(np.int64) % p


def rref_prime(A: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon form over F_p; returns (reduced, pivot columns, sources).

    Only the columns nonzero in A can hold pivots, since row operations keep
    a zero column zero.  The pivot row is the row, at or below the next
    pivot row, with the largest residue in the column, the first among
    equals; spin's word record relies on that rule.  The rows from the next
    pivot row down are zero left of the column, so the swap and the
    elimination touch only the columns from the pivot on, in the rows
    nonzero in the pivot column.  sources[i] is the row of A swapped into
    pivot row i: a row not yet a pivot row is its source row plus a
    combination of the pivot rows so far, so the source rows are independent
    and span the row space.
    """
    R = np.ascontiguousarray(A, dtype=np.int64) % p
    m = R.shape[0]
    order = list(range(m))
    pivots = []
    for col in R.any(axis=0).nonzero()[0].tolist():
        row = len(pivots)
        if row == m:
            break
        pr = row + int(R[row:, col].argmax())
        lead = int(R[pr, col])
        if not lead:
            continue
        if pr != row:
            held = R[row, col:].copy()
            R[row, col:] = R[pr, col:]
            R[pr, col:] = held
            order[row], order[pr] = order[pr], order[row]
        piv = R[row, col:]
        if lead != 1:
            piv *= pow(lead, p - 2, p)
            piv %= p
        f = R[:, col].copy()
        f[row] = 0
        hit = f.nonzero()[0]
        if hit.size:
            R[hit, col:] = (R[hit, col:] - f[hit, None] * piv) % p
        pivots.append(col)
    return R, np.asarray(pivots, dtype=np.int64), np.asarray(order[: len(pivots)], dtype=np.int64)

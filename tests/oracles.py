"""Test-only helpers: the generator-word replay oracle, the set-based subgroup
closure, the forward-then-invert orbit stabilizers, the multiplicative order
and small conveniences that no library code needs."""

import numpy as np

from chardeg.groups import GroupTable, Subgroup, _batch_mul
from chardeg.fields import Field
from chardeg.kernels import _key_perms, _number_orbits, bfs_levels, mul_mod, orbit_labels, rref_prime
from chardeg.linalg import identity_matrix
from chardeg.modules import GModule, _meataxe_step
from chardeg.numtheory import factorize


def digit_loop(n: int, base: int, width: int) -> list[int]:
    """The base-`base` digits of n, least significant first, one division at a time."""
    out = []
    for _ in range(width):
        out.append(n % base)
        n //= base
    return out


def multiplicative_order(a: int, p: int) -> int:
    """Order of a modulo prime p, for p not dividing a."""
    if a % p == 0:
        raise ValueError("a divisible by p")
    order = p - 1
    for q, e in factorize(p - 1).items():
        for _ in range(e):
            if pow(a, order // q, p) == 1:
                order //= q
            else:
                break
    return order


def word(group: GroupTable, i: int) -> tuple[int, ...]:
    """Generator word (indices into gens) whose product is element i, read off the BFS parents."""
    out = []
    while i != 0:
        out.append(int(group.parent_gen[i]))
        i = int(group.parent[i])
    return tuple(reversed(out))


def replay_image(m: GModule, i: int) -> np.ndarray:
    """Image of element i, one generator image at a time along its word."""
    out = identity_matrix(m.dim)
    for gi in word(m.group, i):
        out = mul_mod(out, m.gen_images[gi], m.field.p)
    return out


def replay_kernel(m: GModule) -> tuple[int, ...]:
    """Positions of the elements whose replayed image is the identity."""
    ident = identity_matrix(m.dim)
    return tuple(i for i in range(m.group.order) if np.array_equal(replay_image(m, i), ident))


def close_indices(group: GroupTable, gen_positions) -> list[int]:
    """Closure of the identity under right multiplication by the generators,
    one batched product of the frontier by every generator per level, kept
    as a set.  In a finite group every inverse is a positive power, so this
    is the generated subgroup."""
    gens = group.elems[np.asarray(gen_positions, dtype=np.int64)]
    members = {0}
    frontier = [0]
    while frontier:
        prods = _batch_mul(group.field, group.elems[frontier][:, None], gens[None])
        frontier = list(set(group.indices_of_matrices(prods.reshape(-1, 2, 2)).tolist()) - members)
        members.update(frontier)
    return sorted(members)


def subgroup_from_gens(group: GroupTable, gen_positions) -> Subgroup:
    members = close_indices(group, list(gen_positions))
    return Subgroup(group, tuple(members), tuple(sorted(set(int(g) for g in gen_positions) - {0})))


def greedy_generators(sub: Subgroup) -> tuple[int, ...]:
    """The least member outside the closure of the earlier choices, one set-based
    closure per choice, until the closure is the whole subgroup."""
    have = {0}
    chosen: list[int] = []
    for m in sub.members:
        if m in have:
            continue
        chosen.append(m)
        have = set(close_indices(sub.parent, chosen))
        if len(have) == sub.order:
            break
    return tuple(chosen)


def orbit_stabilizers_by_inversion(gens, r: int, dim: int, parent, parent_gen):
    """kernels.orbit_stabilizers from the forward generator images: their key
    permutations are inverted in place, orbits are numbered by a cumulative
    sum over the representatives, and the stabilizer walk reads the inverted
    permutations; returns the same (reps, sizes, members)."""
    nvec = r**dim
    perms = _key_perms(gens, r, dim)
    points = np.arange(nvec, dtype=np.int32)
    for perm in perms:
        perm[perm.copy()] = points
    reps, sizes = _number_orbits(orbit_labels(perms, nvec))[1:]
    flat = perms.reshape(-1)
    offset = parent_gen.astype(np.int64) * nvec
    members = []
    for v in reps.astype(np.int32):
        keys = np.empty(parent.size, dtype=np.int32)
        keys[0] = v
        for lo, hi in bfs_levels(parent):
            keys[lo:hi] = flat[offset[lo:hi] + keys[parent[lo:hi]]]
        members.append(np.flatnonzero(keys == v))
    return reps, sizes, members


def same_orbit_stabilizers(got, want) -> bool:
    """Whether two (reps, sizes, members) results agree in dtype and bytes."""
    arrays = list(zip(got[:2], want[:2])) + list(zip(got[2], want[2]))
    return len(got[2]) == len(want[2]) and all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in arrays
    )


def two_echelon_nullspace(F: Field, A) -> np.ndarray:
    """Right null space by one echelon of A, the free columns' basis vectors,
    and a second echelon of those into RREF."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[1]
    R, piv, _ = rref_prime(A, F.p)
    free = np.ones(n, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    if not free.size:
        return np.zeros((0, n), dtype=np.int64)
    basis = np.zeros((free.size, n), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = (-R[: piv.size, free].T) % F.p
    return rref_prime(basis, F.p)[0]


def trivial_subgroup(group: GroupTable) -> Subgroup:
    return Subgroup(group, (0,))


def whole_group(group: GroupTable) -> Subgroup:
    return Subgroup(group, tuple(range(group.order)))


def validate_homomorphism(m: GModule, samples: int = 100, seed: int = 42) -> bool:
    """Spot-check image(xy) == image(x)image(y) on random element pairs, in one batch
    over the element image table (dim <= 64)."""
    g = m.group
    x, y = np.random.default_rng(seed).integers(g.order, size=(2, samples))
    xy = g.indices_of_matrices(_batch_mul(g.field, g.elems[x], g.elems[y]))
    imgs = m.element_images
    return bool((imgs[xy] == mul_mod(imgs[x], imgs[y], m.field.p)).all())


def is_irreducible(m: GModule, seed: int = 42) -> bool:
    """Norton-certified irreducibility; may raise InconclusiveError."""
    return m.dim == 1 or _meataxe_step(m, np.random.default_rng(seed))[0] == "irr"

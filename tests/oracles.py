"""Test-only helpers: the generator-word replay oracle, the set-based subgroup
closure, the forward-then-invert orbit stabilizers, the chop that certifies
every factor in full, the catalog search that chops every module it meets,
the twelve-base primality test with Floyd-cycle rho and the fancy-index
echelon as references for numtheory and kernels, the multiplicative order
and small conveniences that no library code needs."""

import itertools
import math

import numpy as np

import chardeg.modules as modules
from chardeg.groups import GroupTable, Subgroup, _batch_mul
from chardeg.fields import Field
from chardeg.kernels import _key_perms, _number_orbits, bfs_levels, mul_mod, orbit_labels, rref_prime
from chardeg.linalg import identity_matrix, nullspace
from chardeg.modules import (
    CHOP_DIM_CAP,
    TENSOR_WORK_CAP,
    Catalog,
    CatalogEntry,
    GModule,
    InconclusiveError,
    _kernel_lines,
    _meataxe_step,
    _random_algebra_element,
    chop,
    endo_dim,
    irreducible_count,
    perm_module,
    spin,
    split_module,
    tensor,
    trivial_module,
)
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


def full_meataxe_step(m: GModule, rng):
    """The meataxe step with no isomorphism gate: the cyclic-vector spin, the
    kernel-line spins and Norton's transposed test on every module, returning
    "irr" only after the whole test (budget and line limit read at call time)."""
    F, d = m.field, m.dim
    act = [g.T for g in m.gen_images]
    e0 = np.zeros(d, dtype=np.int64)
    e0[0] = 1
    W0 = spin(F, [e0], act, d)
    if W0.shape[0] < d:
        return "sub", W0
    for _ in range(modules.ALGEBRA_BUDGET):
        A = _random_algebra_element(rng, F, m.gen_images)
        ker = nullspace(F, A)
        nullity = ker.shape[0]
        if nullity == 0 or nullity == d:
            continue
        lines = _kernel_lines(F, ker)
        vecs = lines if lines is not None else ker
        for v in vecs:
            W = spin(F, [v], act, d)
            if W.shape[0] < d:
                return "sub", W
        if lines is None:
            continue
        ker_t = nullspace(F, A.T.copy())
        Wt = spin(F, [ker_t[0]], m.gen_images, d)
        if Wt.shape[0] < d:
            return "sub", nullspace(F, Wt)
        return "irr", None
    raise InconclusiveError(
        f"no decision for a {d}-dimensional module within {modules.ALGEBRA_BUDGET} tries"
    )


def full_chop(m: GModule, seed: int, states: list) -> list[GModule]:
    """chop with full_meataxe_step on every module of dimension above 1;
    appends the generator's state after each step to states."""
    rng = np.random.default_rng(seed)
    factors: list[GModule] = []
    stack = [m]
    while stack:
        cur = stack.pop()
        if cur.dim == 1:
            factors.append(cur)
            continue
        verdict, W = full_meataxe_step(cur, rng)
        states.append(rng.bit_generator.state)
        if verdict == "irr":
            factors.append(cur)
        else:
            sub, quot = split_module(cur, W)
            stack.append(quot)
            stack.append(sub)
    return factors


TWELVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def twelve_base_is_prime(n: int) -> bool:
    """Miller-Rabin to the twelve bases 2..37 after trial division by them,
    deterministic below psi_12 = 318665857834031151167461."""
    if n < 2:
        return False
    for p in TWELVE_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in TWELVE_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def floyd_rho(n: int) -> int:
    """A nontrivial factor of a composite odd n: Pollard rho with Floyd's
    cycle finding, one gcd per step."""
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def reference_factorize(n: int) -> dict[int, int]:
    """{prime: exponent} by trial division by the twelve bases, then Floyd
    rho split by twelve_base_is_prime."""
    out: dict[int, int] = {}
    for p in TWELVE_BASES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if twelve_base_is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = floyd_rho(m)
        stack += [d, m // d]
    return dict(sorted(out.items()))


def fancy_swap_rref(A, p: int):
    """kernels.rref_prime's (reduced, pivots, sources) with the pivot row
    swapped in by a fancy index of both whole rows and the leading residue
    read back from the array: the largest residue in the column at or below
    the next pivot row, the first among equals."""
    R = np.ascontiguousarray(A, dtype=np.int64) % p
    m = R.shape[0]
    order = list(range(m))
    pivots = []
    for col in R.any(axis=0).nonzero()[0].tolist():
        row = len(pivots)
        if row == m:
            break
        pr = row + int(R[row:, col].argmax())
        if not R[pr, col]:
            continue
        if pr != row:
            R[[row, pr]] = R[[pr, row]]
            order[row], order[pr] = order[pr], order[row]
        piv = R[row, col:]
        if piv[0] != 1:
            piv *= pow(int(piv[0]), p - 2, p)
            piv %= p
        f = R[:, col].copy()
        f[row] = 0
        hit = f.nonzero()[0]
        if hit.size:
            R[hit, col:] = (R[hit, col:] - f[hit, None] * piv) % p
        pivots.append(col)
    return R, np.asarray(pivots, dtype=np.int64), np.asarray(order[: len(pivots)], dtype=np.int64)


def chop_every_module_catalog(group: GroupTable, r: int, dim_cap: int, seed: int, chops: list) -> Catalog:
    """modules.irreducible_catalog with no profile test: every seed and every
    queued product is chopped.  Appends (module, the ledger before its chop)
    to chops for each chop, in order."""
    expected = irreducible_count(group, r)
    keep_cap = max(dim_cap, 32)
    q = group.field.order
    known = [trivial_module(group, r)]
    pending = [perm_module(group, "projective-points", r)]
    if q * q - 1 <= CHOP_DIM_CAP:
        pending.append(perm_module(group, "nonzero-vectors", r))
    tensored = set()
    while pending:
        for mod in pending:
            chops.append((mod, list(known)))
            chop(mod, seed=seed, certified=known)
            found = [m for m in known if m.dim <= keep_cap]
            if len(found) == expected:
                break
        pending = []
        if len(found) < expected:
            candidates = []
            for ai, bi in itertools.combinations_with_replacement(range(len(found)), 2):
                da, db = found[ai].dim, found[bi].dim
                if (ai, bi) in tensored or da == 1 or db == 1 or da * db > TENSOR_WORK_CAP:
                    continue
                candidates.append((da * db, ai, bi))
            candidates.sort()
            for _, ai, bi in candidates[:8]:
                tensored.add((ai, bi))
                pending.append(tensor(found[ai], found[bi]))
    entries = [
        CatalogEntry(m, m.dim, endo_dim(m), m.is_faithful, m.fingerprint()) for m in found if m.dim <= dim_cap
    ]
    entries.sort(key=lambda e: (e.dim, e.ell, not e.faithful, e.fingerprint))
    return Catalog(group, r, dim_cap, tuple(entries), len(found) == expected, expected)

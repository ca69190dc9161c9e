"""Modules of enumerated matrix groups over small finite fields.

The decomposition engine is a classical randomized meataxe: singular
elements of the group algebra supply kernel vectors, spinning either
splits the module or, through Norton's two-sided test, certifies
irreducibility.  A search that exhausts its budget surfaces as
InconclusiveError, never as a wrong answer.  A chop certifies each
isomorphism type once per ledger of certified irreducibles, which it
extends: a module with the dimension and class traces of a certified
irreducible and a nonzero Hom from it is that irreducible again
(the Hom's kernel is a submodule), so its step skips every spin and only
replays the random draws, reading each draw's nullity off one echelon.  On
an irreducible module the spins of the full step never touch the
generator and never split, so the replay returns "irr" at the same draw
and every factor's bytes stay the same.  spin is the one closure routine;
the Hom solve reads its standard basis and the basis words off spin's
record of each round.
GModule.images is the one map from group elements to module matrices: a
walk of the group's BFS tree (GroupTable.levels) over the asked elements
and their ancestors.  Class traces, the kernel and the profile read one
cached stack of class-representative images (a kernel is normal), so none
has a dimension cap; a permutation module's profile needs no image at all,
since it is read off the cycles of the points.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from chardeg.fields import Field, digits, field_make, field_from_json
from chardeg.groups import (
    CapExceeded,
    GroupError,
    GroupTable,
    Subgroup,
    _batch_mul,
    _powers,
    group_from_json,
)
from chardeg.kernels import mul_mod, orbit_labels, rref_prime
from chardeg.linalg import identity_matrix, mat_inv, nullspace
from chardeg.numtheory import is_prime
from chardeg.polys import cyclotomic_labels

CHOP_DIM_CAP = 512
ALGEBRA_BUDGET = 200
LINE_ENUM_LIMIT = 600
FINGERPRINT_COUNT = 20
TENSOR_WORK_CAP = 256


class InconclusiveError(RuntimeError):
    """The randomized search budget ran out before a certificate was found."""


class ModuleError(ValueError):
    pass


class GModule:
    """A representation of a GroupTable over a prime field, by invertible generator images."""

    def __init__(self, group: GroupTable, field: Field, gen_images, check: bool = True):
        if not field.is_prime_field:
            raise ModuleError("modules are built over prime fields")
        self.group = group
        self.field = field
        imgs = [np.ascontiguousarray(m, dtype=np.int64) for m in gen_images]
        if len(imgs) != len(group.gens):
            raise ModuleError("one image per group generator is required")
        self.dim = int(imgs[0].shape[0]) if imgs else 0
        for m in imgs:
            if m.shape != (self.dim, self.dim):
                raise ModuleError("generator images must be square of equal size")
            m.flags.writeable = False
        if self.dim < 1:
            raise ModuleError("module dimension must be >= 1")
        if check:
            for m in imgs:
                try:
                    mat_inv(field, m)
                except ZeroDivisionError:
                    raise ModuleError("generator image is singular") from None
        self.gen_images = tuple(imgs)

    # -- element images --------------------------------------------------------

    def images(self, positions) -> np.ndarray:
        """The (k, dim, dim) stack of images of the elements at the given positions.

        One walk of the group's BFS tree, a level at a time, over the
        positions and their ancestors only: image(i) = image(parent[i]) @
        gen_images[parent_gen[i]], the product that replaying i's generator
        word forms.
        """
        positions = np.asarray(positions, dtype=np.int64)
        parent, pgen, gens = self.group.parent, self.group.parent_gen, self._gen_stack
        need = np.zeros(self.group.order, dtype=bool)
        need[0] = True
        walk = positions
        while walk.size:
            walk = walk[~need[walk]]
            need[walk] = True
            walk = parent[walk]
        nodes = np.flatnonzero(need)  # ascending, so every parent precedes its children
        out = np.empty((nodes.size, self.dim, self.dim), dtype=np.int64)
        out[0] = identity_matrix(self.dim)
        for lo, hi in self.group.levels:
            a, b = np.searchsorted(nodes, (lo, hi))
            if a == b:  # no asked element or ancestor at this level
                continue
            at = nodes[a:b]
            out[a:b] = mul_mod(out[np.searchsorted(nodes, parent[at])], gens[pgen[at]], self.field.p)
        return out[np.searchsorted(nodes, positions)]

    @cached_property
    def _gen_stack(self) -> np.ndarray:
        """The generator images as one (generators, dim, dim) stack, for images."""
        return np.stack(self.gen_images)

    @cached_property
    def _class_images(self) -> np.ndarray:
        """The read-only images of the class representatives, in class-id
        order: one walk serves class_traces, kernel_indices and profile."""
        out = self.images(self.group.class_reps)
        out.flags.writeable = False
        return out

    @cached_property
    def element_images(self) -> np.ndarray:
        """Images of all elements, in canonical element order (dim <= 64)."""
        if self.dim > 64:
            raise ModuleError("full image table is restricted to dim <= 64")
        out = self.images(np.arange(self.group.order))
        out.flags.writeable = False
        return out

    @cached_property
    def kernel_indices(self) -> tuple[int, ...]:
        """Indices of group elements acting as the identity.

        A kernel is normal, so it is the union of the classes whose
        representative acts as the identity.
        """
        ident = (self._class_images == identity_matrix(self.dim)).all(axis=(1, 2))
        return tuple(int(i) for i in np.flatnonzero(ident[self.group.conjugacy_classes]))

    @property
    def is_faithful(self) -> bool:
        return len(self.kernel_indices) == 1

    def fingerprint(self) -> tuple[int, ...]:
        """Sorted traces of the images of the first FINGERPRINT_COUNT canonical elements.

        A trace is a class function, so each is read off class_traces.
        """
        classes = self.group.conjugacy_classes[:FINGERPRINT_COUNT]
        return tuple(sorted(np.asarray(self.class_traces)[classes].tolist()))

    @cached_property
    def class_traces(self) -> tuple[int, ...]:
        """Trace of the image of one representative per conjugacy class.

        Isomorphic modules agree here, so a mismatch is a cheap
        non-isomorphism certificate; equality still needs the hom solve.
        """
        traces = np.trace(self._class_images, axis1=1, axis2=2) % self.field.p
        return tuple(traces.tolist())

    @cached_property
    def _standard_basis(self) -> tuple[list[np.ndarray], int, list[np.ndarray]]:
        """The source side of hom_space_dim, solved once per module: the word
        codes of the standard basis B round by round (see _spin), the number
        of seeds, and each generator's matrix B^-1 M B.  A certified module is
        the source of every isomorphism test against it."""
        p, d = self.field.p, self.dim
        rounds = _spin(self.field, identity_matrix(d), [M.T for M in self.gen_images], d)[1]
        B = np.concatenate([vectors for _, vectors in rounds]).T
        Binv = mat_inv(self.field, B)
        Cs = [mul_mod(Binv, mul_mod(M, B, p), p) for M in self.gen_images]
        return [codes for codes, _ in rounds], sum(int(codes[0] < 0) for codes, _ in rounds), Cs

    @cached_property
    def profile(self) -> np.ndarray:
        """The Brauer character in integer form, over the r-regular classes of
        regular_class_cycles: for each class g, of order m, the number of
        times each zeta^j, j < m, is an eigenvalue of g (zeta as in
        polys.cyclotomic_labels), one block of m counts per class.

        r does not divide m, so x^m - 1 is square-free, the module is the
        direct sum of the kernels of f(g) over its irreducible factors f, and
        zeta^j's count is dim ker f(g) / deg f for the factor f that vanishes
        at it.  f(g) is taken by Horner in mul_mod, for every factor but the
        last, whose kernel fills the rest of the module.  Profiles add over
        composition factors, and those of distinct irreducibles are linearly
        independent.  Each g is read off the stack of class images.
        """
        p, d, group = self.field.p, self.dim, self.group
        ident = identity_matrix(d)
        blocks = []
        for g in regular_class_cycles(group, p).tolist():
            factors, labels = cyclotomic_labels(int(group.element_orders[g]), p)
            image = self._class_images[group.conjugacy_classes[g]]
            nullities = []
            for f in factors[:-1]:
                A = image
                for c in f[-2:0:-1]:  # f = (c_0, ..., c_{e-1}, 1): c_{e-1} down to c_1
                    A = mul_mod((A + c * ident) % p, image, p)
                nullities.append(d - rref_prime((A + f[0] * ident) % p, p)[1].size)
            nullities.append(d - sum(nullities))
            degrees = [len(f) - 1 for f in factors]
            if nullities[-1] < 0 or any(n % e for n, e in zip(nullities, degrees)):
                raise ModuleError(f"the eigenspaces of element {g} do not fill the module")
            counts = np.asarray([n // e for n, e in zip(nullities, degrees)], dtype=np.int64)
            blocks.append(counts[labels])
        out = np.concatenate(blocks)
        out.flags.writeable = False
        return out

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "field": self.field.to_json(),
            "dim": self.dim,
            "gen_images": [[int(x) for x in m.reshape(-1)] for m in self.gen_images],
        }


def module_from_json(data: dict, group: GroupTable | None = None) -> GModule:
    try:
        if group is None:
            group = group_from_json(data["group"])
        elif data["group"] != group.to_json():
            raise ModuleError("the module was built for another group than the one given")
        F = field_from_json(data["field"])
        d, flats = data["dim"], data["gen_images"]
    except (KeyError, TypeError) as exc:
        raise ModuleError(f"malformed module data ({type(exc).__name__}: {exc})") from None
    if type(d) is not int or d < 1 or not isinstance(flats, list):
        raise ModuleError("module dim must be a positive integer and gen_images a list")
    imgs = []
    for flat in flats:
        if not isinstance(flat, list) or any(type(x) is not int for x in flat):
            raise ModuleError("a generator image must be a flat list of integers")
        if len(flat) != d * d:
            raise ModuleError(f"a generator image needs {d * d} entries, not {len(flat)}")
        if any(not 0 <= x < F.order for x in flat):
            raise ModuleError(f"generator image entry outside [0, {F.order})")
        imgs.append(np.asarray(flat, dtype=np.int64).reshape(d, d))
    return GModule(group, F, imgs)


# -- constructors --------------------------------------------------------------


def trivial_module(group: GroupTable, r: int) -> GModule:
    F = field_make(r)
    one = np.asarray([[1]], dtype=np.int64)
    return GModule(group, F, [one] * len(group.gens), check=False)


class PermModule(GModule):
    """A module of permutation matrices from perm_module, on the points of
    action, whose profile is read off the cycles of the points."""

    def __init__(self, group: GroupTable, field: Field, gen_images, action: str):
        super().__init__(group, field, gen_images, check=False)
        self.action = action

    @cached_property
    def profile(self) -> np.ndarray:
        """GModule.profile, with no echelon: a c-cycle of g on the points
        spans a summand on which g has each c-th root of unity once as an
        eigenvalue, so for g of order m the count of zeta^j is the number of
        cycles c with m | j*c.  The points of the regular_class_cycles
        representatives, side by side, are labelled by one orbit_labels
        call, and each cycle's length is the size of its label."""
        group = self.group
        reps = regular_class_cycles(group, self.field.p)
        where = _point_images(group, self.action, group.elems[reps])
        k, n = where.shape
        side_by_side = (where + n * np.arange(k)[:, None]).reshape(-1)
        lengths = np.bincount(orbit_labels([side_by_side], k * n), minlength=k * n)
        blocks = []
        for i, m in enumerate(group.element_orders[reps].tolist()):
            cycles = lengths[i * n : (i + 1) * n]
            cycles = cycles[cycles > 0]
            blocks.append((np.arange(m)[:, None] * cycles % m == 0).sum(axis=1, dtype=np.int64))
        out = np.concatenate(blocks)
        out.flags.writeable = False
        return out


def _point_images(group: GroupTable, action: str, mats: np.ndarray) -> np.ndarray:
    """Where each matrix of a stack sends each point of the action: entry
    (k, i) is the position of mats[k] times point i, the points (x, y) in
    ascending order of their key x*q + y."""
    F = group.field
    q = F.order
    if action == "nonzero-vectors":
        ys, xs = digits(np.arange(1, q * q), q, 2).T
    elif action == "projective-points":
        xs = np.r_[0, np.ones(q, dtype=np.int64)]
        ys = np.r_[1, np.arange(q)]
    else:
        raise ModuleError(f"unknown action {action!r}")
    points = np.stack([xs, ys], axis=1)[:, :, None]
    x, y = np.moveaxis(_batch_mul(F, mats[:, None], points[None])[..., 0], -1, 0)
    image = x * q + y
    if action == "projective-points":  # the point (1, y/x), or (0, 1) when x = 0
        mul, inv = F.tables[1], F.tables[3]
        image = np.where(x != 0, q + mul[inv[x], y], 1)
    return np.searchsorted(xs * q + ys, image)


def perm_module(group: GroupTable, action: str, r: int) -> PermModule:
    """Permutation module over F_r on nonzero vectors or projective points."""
    if not is_prime(r):
        raise ModuleError("permutation modules are built over prime fields")
    columns = _point_images(group, action, group.gens)
    n = columns.shape[1]
    images = []
    for column in columns:  # column i is where point i goes
        M = np.zeros((n, n), dtype=np.int64)
        M[column, np.arange(n)] = 1
        images.append(M)
    return PermModule(group, field_make(r), images, action)


def natural_restricted(q: int, group: GroupTable | None = None) -> GModule:
    """The 2-dimensional standard module written over the prime field.

    Every generator entry s is replaced by the k x k matrix of
    multiplication by s, giving a 2k-dimensional module over F_t for
    q = t^k: its column j holds the coefficients of s * x^j, the digits
    of the table product of s and the index t^j of x^j.
    """
    from chardeg.groups import sl2_group

    if group is None:
        group = sl2_group(q)
    F = group.field
    if F.order != q:
        raise ModuleError("group field does not match q")
    k = F.k
    products = F.tables[1][group.gens[..., None], F.p ** np.arange(k)]  # (gen, bi, bj, j)
    blocks = digits(products, F.p, k).transpose(0, 1, 4, 2, 3)  # (gen, bi, i, bj, j)
    return GModule(group, field_make(F.p), blocks.reshape(-1, 2 * k, 2 * k))


def tensor(m1: GModule, m2: GModule) -> GModule:
    if m1.group is not m2.group or m1.field != m2.field:
        raise ModuleError("tensor requires the same group and field")
    images = [np.kron(a, b) % m1.field.p for a, b in zip(m1.gen_images, m2.gen_images)]
    return GModule(m1.group, m1.field, images, check=False)


def dual(m: GModule) -> GModule:
    images = [mat_inv(m.field, g).T.copy() for g in m.gen_images]
    return GModule(m.group, m.field, images, check=False)


# -- spinning and the meataxe ---------------------------------------------------


def spin(F: Field, seeds, action_mats, dim: int) -> np.ndarray:
    """Closure of the seed row vectors under right action by the matrices,
    as a fully reduced basis whose rows are not in pivot order (see _spin)."""
    return _spin(F, seeds, action_mats, dim)[0]


def _spin(F: Field, seeds, action_mats, dim: int) -> tuple[np.ndarray, list]:
    """spin, with the word that each basis vector stands for.

    Seeds are taken in turn, and a seed joins only when the closure of the
    earlier ones stops short of it.  Breadth-first: each round images the
    whole frontier under every matrix at once and reduces the images
    against a fully reduced basis, so a vector's coordinates on the basis
    are its entries in the pivot columns.  rref_prime's source rows are the
    images that joined, and they are the next frontier.

    Returns (basis, rounds).  A round (codes, vectors) holds the vectors that
    joined in it, unreduced, and their words' codes, in basis order: word j
    is seeds[i] when its code is -1 - i, and word parent times action_mats[k]
    when its code is parent * len(action_mats) + k.  The joined vectors are a
    basis of the closure as well, its standard basis.
    """
    p, g = F.p, len(action_mats)
    stacked = np.concatenate(action_mats, axis=1).astype(np.float64)
    basis = np.zeros((0, dim), dtype=np.int64)
    piv = np.zeros(0, dtype=np.int64)
    rounds = []
    for i, seed in enumerate(seeds):
        if piv.size == dim:
            break
        frontier, offset = np.asarray(seed, dtype=np.int64).reshape(1, dim) % p, -1 - i
        while True:
            # the first seed that joins meets an empty basis: no products then
            if piv.size:
                reduced = (frontier - mul_mod(frontier[:, piv], basis, p)) % p
            else:
                reduced = frontier
            new, new_piv, src = rref_prime(reduced, p)
            if not new_piv.size:
                break
            new = new[: new_piv.size]
            joined = frontier[src]
            rounds.append((src + offset, joined))
            offset = piv.size * g
            if piv.size:
                new = np.concatenate([(basis - mul_mod(basis[:, new_piv], new, p)) % p, new])
                new_piv = np.concatenate([piv, new_piv])
            basis, piv = new, new_piv
            if piv.size == dim:
                break
            frontier = mul_mod(joined, stacked, p).reshape(-1, dim)
    return basis, rounds


def _random_algebra_element(rng, F: Field, gen_images) -> np.ndarray:
    """Random 3-term combination of short words in the generator images."""
    d = gen_images[0].shape[0]
    A = np.zeros((d, d), dtype=np.int64)
    g = len(gen_images)
    for _ in range(3):
        length = int(rng.integers(1, 4))
        word = gen_images[int(rng.integers(g))]
        for _ in range(length - 1):
            word = mul_mod(word, gen_images[int(rng.integers(g))], F.p)
        c = int(rng.integers(F.order))
        if c:
            A = (A + c * word) % F.p
    return A


def _line_count(q: int, nullity: int) -> int:
    """Number of projective lines of an F_q-space of dimension nullity."""
    return (q**nullity - 1) // (q - 1)


def _kernel_lines(F: Field, ker: np.ndarray):
    """One row per projective line of the row span of ker, or None if too many."""
    nullity = ker.shape[0]
    q = F.order
    if _line_count(q, nullity) > LINE_ENUM_LIMIT:
        return None
    # every coefficient vector, in itertools.product order (most significant
    # digit first), whose first nonzero entry is 1
    coeffs = digits(np.arange(q**nullity), q, nullity)[:, ::-1]
    first = coeffs[np.arange(coeffs.shape[0]), (coeffs != 0).argmax(axis=1)]
    return mul_mod(coeffs[first == 1], ker, F.p)


def _meataxe_step(m: GModule, rng, known: bool = False):
    """One irreducibility decision: ('irr', None) or ('sub', basis rows).

    known: m is isomorphic to a certified irreducible.  The step then skips
    every spin and only replays the draws, each nullity read off one
    echelon, up to the draw at which the full step certifies.
    """
    F, d = m.field, m.dim
    act = [g.T for g in m.gen_images]  # row action for module submodules
    # cyclic-vector fast path; also the only route for scalar-like actions,
    # whose algebra has no nonzero singular elements for the kernel search
    if not known:
        e0 = np.zeros(d, dtype=np.int64)
        e0[0] = 1
        W0 = spin(F, [e0], act, d)
        if W0.shape[0] < d:
            return "sub", W0
    for _ in range(ALGEBRA_BUDGET):
        A = _random_algebra_element(rng, F, m.gen_images)
        if known:
            nullity = d - rref_prime(A, F.p)[1].size
        else:
            ker = nullspace(F, A)
            nullity = ker.shape[0]
        if nullity == 0 or nullity == d:
            continue
        if not known:
            lines = _kernel_lines(F, ker)
            for v in lines if lines is not None else ker:
                W = spin(F, [v], act, d)
                if W.shape[0] < d:
                    return "sub", W
            if lines is not None:
                ker_t = nullspace(F, A.T.copy())
                Wt = spin(F, [ker_t[0]], m.gen_images, d)
                if Wt.shape[0] < d:
                    return "sub", nullspace(F, Wt)
        # Norton's test certifies only from a full sweep of the kernel lines
        if _line_count(F.order, nullity) <= LINE_ENUM_LIMIT:
            return "irr", None
    raise InconclusiveError(
        f"no decision for a {d}-dimensional module within {ALGEBRA_BUDGET} tries"
    )


def split_module(m: GModule, basis_rows: np.ndarray) -> tuple[GModule, GModule]:
    """Restriction to an invariant subspace and the quotient action.

    With W the RREF basis of the subspace, pivots piv and the other
    columns comp, the sub action is S = (A W^T)[piv] and the quotient
    action on the coordinates comp is A[comp, comp] - W[:, comp]^T A[piv, comp]:
    the blocks of A in the basis (columns of W^T, then the unit vectors of
    comp).  The subspace is invariant iff A W^T == W^T S.
    """
    F, d, p = m.field, m.dim, m.field.p
    R, piv, _ = rref_prime(basis_rows, p)
    w = piv.size
    if not 0 < w < d:
        raise ModuleError("split needs a proper nonzero subspace")
    W = R[:w]
    comp = np.ones(d, dtype=bool)
    comp[piv] = False
    comp = np.flatnonzero(comp)
    subs, quots = [], []
    for A in m.gen_images:
        AWt = mul_mod(A, W.T, p)
        S = AWt[piv]
        if not np.array_equal(AWt, mul_mod(W.T, S, p)):
            raise ModuleError("subspace is not invariant")
        subs.append(S)
        quots.append((A[np.ix_(comp, comp)] - mul_mod(W[:, comp].T, A[np.ix_(piv, comp)], p)) % p)
    return (
        GModule(m.group, F, subs, check=False),
        GModule(m.group, F, quots, check=False),
    )


def chop(
    m: GModule,
    seed: int = 42,
    *,
    certified: list[GModule] | None = None,
    profile: np.ndarray | None = None,
) -> list[GModule]:
    """Composition factors with multiplicity; each factor is certified.

    certified is the caller's ledger, one irreducible per type, extended in
    place by each factor of a type it lacks (the returned object, in factor
    order).  A module of a ledger type, of any dimension, is not decided
    again: its step replays the full step's verdict and draws with no spin.

    profile, given with a ledger, is m's profile, and the chop then stops
    once the pieces left cannot add a type, returning the factors so far.
    The pieces' profile, rest, is profile less the ledger type's profile of
    each factor; profiles add over composition factors and those of
    distinct irreducibles are linearly independent, so while rest lies in
    the rational span of the ledger's profiles no piece has a type off the
    ledger.  Without profile every factor is returned.
    """
    if m.dim > CHOP_DIM_CAP:
        raise CapExceeded(f"dimension {m.dim} exceeds the chop cap {CHOP_DIM_CAP}")
    rng = np.random.default_rng(seed)
    known = [] if certified is None else certified
    rest = profile
    factors: list[GModule] = []
    stack = [m]
    while stack:
        cur = stack.pop()
        have = next((h for h in known if is_isomorphic(h, cur)), None)
        # a 1-dimensional module is irreducible and its step would draw nothing
        verdict, W = _meataxe_step(cur, rng, known=have is not None) if cur.dim > 1 else ("irr", None)
        if verdict == "irr":
            factors.append(cur)
            if have is None:
                known.append(cur)
            if rest is not None:
                rest = rest - (cur if have is None else have).profile
                if stack and in_rational_span([k.profile for k in known], rest):
                    break
        else:
            sub, quot = split_module(cur, W)
            stack.append(quot)
            stack.append(sub)
    return factors


# -- hom spaces, isomorphism, endomorphisms -------------------------------------


def hom_space_dim(m1: GModule, m2: GModule) -> int:
    """dim of {X : image2(g) X = X image1(g) for all generators}.

    Standard-basis method (Parker's Meat-Axe; Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, ch. 7): a homomorphism X is
    fixed by the images w of the s seeds of m1's standard basis B, since
    X b_j = P_j w where P_j (d2 x s*d2) is b_j's generator word evaluated
    in m2.  With C = B^-1 M1 B for each generator, X intertwines exactly
    when M2 P_j - sum_k C[k, j] P_k = 0 for every j, a system in s * d2
    unknowns rather than the d1 * d2 of the Kronecker-product system.  B
    is the record of _spin from the unit vectors e_0, e_1, ..., and the
    words are evaluated in m2 one spin round at a time; the m1 side is
    m1._standard_basis, kept with the module.
    """
    if m1.group is not m2.group or m1.field != m2.field:
        raise ModuleError("hom spaces need the same group and field")
    p, d1, d2 = m1.field.p, m1.dim, m2.dim
    g = len(m1.gen_images)
    rounds, seeds, Cs = m1._standard_basis
    gens2 = np.stack(m2.gen_images)
    words = np.zeros((d1, d2, seeds * d2), dtype=np.int64)
    j = t = 0
    for codes in rounds:
        if codes[0] < 0:  # a round of one seed, the t-th, whose image is block t of w
            words[j, :, t * d2 : (t + 1) * d2] = identity_matrix(d2)
            t += 1
        else:  # generator k images b_parent to b_j
            parent, k = np.divmod(codes, g)
            words[j : j + codes.size] = mul_mod(gens2[k], words[parent], p)
        j += codes.size
    flat = words.reshape(d1, -1)
    blocks = []
    for C, M2 in zip(Cs, m2.gen_images):
        blocks.append((mul_mod(M2, words, p) - mul_mod(C.T, flat, p).reshape(words.shape)) % p)
    rank = rref_prime(np.concatenate(blocks).reshape(-1, seeds * d2), p)[1].size
    return seeds * d2 - rank


def endo_dim(m: GModule) -> int:
    """Dimension of the commuting algebra; the splitting multiplier for irreducibles."""
    return hom_space_dim(m, m)


def is_isomorphic(m1: GModule, m2: GModule) -> bool:
    """Whether a nonzero Hom joins modules of equal dimension and class
    traces (both necessary); exact when either module is irreducible.  A
    1-dimensional representation is fixed by its generator scalars, so two
    1-dimensional modules are isomorphic exactly when those are equal."""
    if m1.dim == m2.dim == 1:
        if m1.group is not m2.group or m1.field != m2.field:
            raise ModuleError("isomorphism needs the same group and field")
        return all((a - b) % m1.field.p == 0 for a, b in zip(m1.gen_images, m2.gen_images))
    return m1.dim == m2.dim and m1.class_traces == m2.class_traces and hom_space_dim(m1, m2) > 0


def fixed_subspace(m: GModule, sub: Subgroup) -> np.ndarray:
    """Basis rows of the common fixed vectors of a subgroup: the nullspace of
    the stacked image(g) - I over its generators (the whole space when there
    are none)."""
    if sub.parent is not m.group:
        raise ModuleError("subgroup belongs to a different group")
    rows = (m.images(sub.generating_set()) - identity_matrix(m.dim)) % m.field.p
    return nullspace(m.field, rows.reshape(-1, m.dim))


# -- catalogs -------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    module: GModule
    dim: int
    ell: int
    faithful: bool
    fingerprint: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "ell": self.ell,
            "faithful": self.faithful,
            "fingerprint": list(self.fingerprint),
        }


@dataclass(frozen=True)
class Catalog:
    group: GroupTable
    char: int
    dim_cap: int
    entries: tuple[CatalogEntry, ...]
    complete: bool
    expected_count: int

    def nontrivial_dims(self) -> list[int]:
        return sorted(e.dim for e in self.entries if e.dim > 1)

    def select(self, dim: int | None = None, faithful: bool | None = None, ell: int | None = None):
        out = []
        for e in self.entries:
            if dim is not None and e.dim != dim:
                continue
            if faithful is not None and e.faithful != faithful:
                continue
            if ell is not None and e.ell != ell:
                continue
            out.append(e)
        return out

    def to_json(self) -> dict:
        return {
            "group_order": self.group.order,
            "char": self.char,
            "dim_cap": self.dim_cap,
            "complete": self.complete,
            "expected_count": self.expected_count,
            "entries": [e.to_json() for e in self.entries],
        }


# one array of cycle representatives per (group, r), dropped with the group
_CYCLE_REPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def regular_class_cycles(group: GroupTable, r: int) -> np.ndarray:
    """One class representative per cycle of the r-th power map on the
    r-regular classes: the representative of the cycle's least class, in
    class-id order.  Cached per (group, r).

    The r-th power map permutes the r-regular classes, which GroupError
    certifies; x and x^r have the same eigenvalues up to Frobenius, so one
    class per cycle carries all of a Brauer character.
    """
    cached = _CYCLE_REPS.setdefault(group, {})
    if r not in cached:
        cls = group.conjugacy_classes
        reps = group.class_reps
        regular = np.flatnonzero(group.element_orders[reps] % r != 0)
        position = np.full(reps.size, -1, dtype=np.int64)
        position[regular] = np.arange(regular.size)
        step = position[cls[_powers(group, reps[regular], r)]]
        if (step < 0).any():
            raise GroupError("power map left the regular classes")
        if (np.bincount(step, minlength=regular.size) != 1).any():
            raise GroupError("power map is not a permutation of the regular classes")
        least = orbit_labels([step], regular.size)
        cycle_reps = reps[regular[least == np.arange(regular.size)]]
        cycle_reps.flags.writeable = False
        cached[r] = cycle_reps
    return cached[r]


def irreducible_count(group: GroupTable, r: int) -> int:
    """Number of irreducible F_r-modules: r-regular classes mod r-th powers,
    the number of cycles of the power map (regular_class_cycles)."""
    return int(regular_class_cycles(group, r).size)


def tensor_profile(m1: GModule, m2: GModule) -> np.ndarray:
    """The profile of tensor(m1, m2) from the factors' profiles: the
    eigenvalues of g on a tensor product are the products of eigenvalues, so
    each class's block is the cyclic convolution, mod the class's element
    order, of the two blocks."""
    if m1.group is not m2.group or m1.field != m2.field:
        raise ModuleError("tensor requires the same group and field")
    group = m1.group
    blocks, start = [], 0
    for m in group.element_orders[regular_class_cycles(group, m1.field.p)].tolist():
        a, b = m1.profile[start : start + m], m2.profile[start : start + m]
        k = np.arange(m)
        blocks.append(b[(k[:, None] - k[None, :]) % m] @ a)
        start += m
    return np.concatenate(blocks)


def in_rational_span(rows, v) -> bool:
    """Whether the integer vector v lies in the rational span of the integer
    rows: rank(rows and v) == rank(rows), each rank by fraction-free
    (Bareiss) elimination in Python integers, whose every division is exact."""
    return _integer_rank([*rows, v]) == _integer_rank(rows)


def _integer_rank(rows) -> int:
    M = [[int(x) for x in row] for row in rows]
    rank, last = 0, 1
    for c in range(len(M[0]) if M else 0):
        pivot = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        top = M[rank]
        for i in range(rank + 1, len(M)):
            row = M[i]
            M[i] = [(top[c] * x - row[c] * y) // last for x, y in zip(row, top)]
        last = top[c]
        rank += 1
        if rank == len(M):
            break
    return rank


def irreducible_catalog(
    group: GroupTable,
    r: int,
    dim_cap: int,
    seed: int = 42,
) -> Catalog:
    """All irreducibles over F_r up to dim_cap, from permutation seeds.

    The permutation modules on projective points and nonzero vectors are
    chopped, and the found set is closed under pairwise tensor (tensor
    inputs limited to product dimension TENSOR_WORK_CAP; the cap on reported
    entries is dim_cap).  One stopping rule: the search runs while it has
    modules to chop, and reaching the abstract irreducible count, which
    certifies completeness, leaves nothing to chop.  Each round after the
    first chops tensors of pairs not tried before, so the search ends.
    One ledger, known, holds a certified irreducible of each type met, of
    any dimension: every chop extends it, so each type is decided once.
    found is known up to the keep cap, in order.

    No dual is tested: the seeds are self-dual, a pair is queued by its
    dimensions (a pair cut from one round, in a later one), and a factor of
    A⊗B has its dual among the factors of A*⊗B*.  So, by induction over the
    order in which types join the ledger, found is dual-closed when the
    search ends; a queuing rule that breaks this symmetry must restore a
    dual pass.

    A module whose profile lies in the rational span of the ledger's
    profiles has no composition factor off the ledger, so it is not chopped;
    by the same test, chop, handed the module's profile, stops once the
    pieces it has left cannot add a type.  Each ledger type is profiled
    once, directly, and so is each seed (a permutation module by its
    cycles); a queued product's profile is tensor_profile of its factors'.
    chop seeds its own generator, and a skipped module or piece would add
    no type, so neither the skip nor the stop changes a ledger, a later chop
    or a byte of the catalog.
    """
    if not is_prime(r):
        raise ModuleError("catalogs are built over prime fields")
    expected = irreducible_count(group, r)
    keep_cap = max(dim_cap, 32)
    q = group.field.order
    known: list[GModule] = [trivial_module(group, r)]
    found = list(known)
    seeds = [perm_module(group, "projective-points", r)]
    if q * q - 1 <= CHOP_DIM_CAP:
        seeds.append(perm_module(group, "nonzero-vectors", r))
    pending = [(mod, mod.profile) for mod in seeds]
    tensored: set[tuple[int, int]] = set()
    while pending:
        for mod, profile in pending:
            if in_rational_span([m.profile for m in known], profile):
                continue  # every composition factor is on the ledger
            chop(mod, seed=seed, certified=known, profile=profile)
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
                pending.append((tensor(found[ai], found[bi]), tensor_profile(found[ai], found[bi])))
    entries = []
    for mod in found:
        if mod.dim > dim_cap:
            continue
        entries.append(
            CatalogEntry(
                module=mod,
                dim=mod.dim,
                ell=endo_dim(mod),
                faithful=mod.is_faithful,
                fingerprint=mod.fingerprint(),
            )
        )
    entries.sort(key=lambda e: (e.dim, e.ell, not e.faithful, e.fingerprint))
    complete = len(found) == expected
    return Catalog(group, r, dim_cap, tuple(entries), complete, expected)

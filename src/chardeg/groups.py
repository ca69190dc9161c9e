"""Fully enumerated matrix groups SL2(q) and their subgroup queries.

A GroupTable stores every element as a 2x2 matrix of scalar indices,
closed by breadth-first search from a fixed generator set, on matrix
keys and a table of row images under the generators.  The BFS parent
links double as generator words, so any representation defined on the
generators extends to the elements by walking that tree.  Element
arithmetic is batched: products and inverses of matrix stacks
(_batch_mul, _batch_inv_det1, _powers), and one dense index over all q^4
matrix keys that maps a stack of matrices back to element positions in
one gather; it bounds the field order by FIELD_ORDER_CAP, well under the
fields' TABLE_LIMIT.  So inverses negate through the field's negation
table and traces are read off its addition table, over every field; only
products over a prime field take the exact int64 matmul.  Element orders
are computed once per trace value, and the Sylow t-subgroups once per
group, by GroupTable.sylow_map.  A subgroup's generating set is read
off kernels.orbit_labels: the subgroup that some members generate is the
orbit of the identity under right multiplication by them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from chardeg.fields import Field, digits, field_make
from chardeg.kernels import _number_orbits, orbit_labels
from chardeg.numtheory import factorize, p_part, prime_power_split

#: largest field order a GroupTable accepts: its dense key index has q^4 int32
#: entries, 23 MB at q = 49
FIELD_ORDER_CAP = 49


class GroupError(RuntimeError):
    """A verified invariant failed or the arguments are unusable."""


class CapExceeded(RuntimeError):
    """An enumeration or size cap would be exceeded."""


class BudgetExceeded(RuntimeError):
    """A randomized search ran out of restarts.  Nothing in the package raises
    it; perfbench/worker.py still lists it among the errors of an operation."""


def _batch_mul(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of stacks of 2x2 matrices (broadcasting over the stack axis).

    Over a prime field the int64 matmul is exact before the reduction mod
    p; over an extension field each entry is add(mul(a_i0, b_0j),
    mul(a_i1, b_1j)), read from the flattened q x q tables.
    """
    if F.is_prime_field:
        return np.matmul(A, B) % F.p
    q = F.order
    add_t, mul_t = F.tables[0].ravel(), F.tables[1].ravel()
    t0 = mul_t[A[..., :, 0:1] * q + B[..., 0:1, :]]
    t1 = mul_t[A[..., :, 1:2] * q + B[..., 1:2, :]]
    return add_t[t0 * q + t1]


def _batch_inv_det1(F: Field, A: np.ndarray) -> np.ndarray:
    """Inverse of stacks of 2x2 matrices of determinant 1: the adjugate, its
    off-diagonal entries negated through the field's negation table."""
    neg = F.tables[2]
    out = np.empty_like(A)
    out[..., 0, 0] = A[..., 1, 1]
    out[..., 1, 1] = A[..., 0, 0]
    out[..., 0, 1] = neg[A[..., 0, 1]]
    out[..., 1, 0] = neg[A[..., 1, 0]]
    return out


class GroupTable:
    """An enumerated group of 2x2 matrices of determinant 1 over a field of
    order at most FIELD_ORDER_CAP."""

    def __init__(self, field: Field, gens: np.ndarray):
        if field.order > FIELD_ORDER_CAP:
            raise GroupError(
                f"groups are enumerated over fields of order <= {FIELD_ORDER_CAP}, got {field.order}"
            )
        self.field = field
        self.gens = np.ascontiguousarray(gens, dtype=np.int64)
        # inverses are adjugates and element orders are read off traces
        for a, b, c, d in self.gens.reshape(-1, 4).tolist():
            if field.sub(field.mul(a, d), field.mul(b, c)) != 1:
                raise GroupError(f"group generator {[a, b, c, d]} does not have determinant 1")
        self._close()

    # -- closure --------------------------------------------------------------

    def _keys(self, mats: np.ndarray) -> np.ndarray:
        """The base-q key of every matrix in a stack (its entries as digits), as int64."""
        q = self.field.order
        return ((mats[..., 0, 0] * q + mats[..., 0, 1]) * q + mats[..., 1, 0]) * q + mats[..., 1, 1]

    def _close(self) -> None:
        """Breadth-first closure, one batched step per BFS level, on keys.

        A matrix key is its two row keys (base q) side by side, and row i of
        x g is row i of x times g, so one table of the row images under each
        generator (q^2 rows) gives the key of every product of the level
        [lo, hi) by every generator at once.  The products are taken in
        (element, generator) order and the first product of each key not
        seen before is appended.  That is exactly the order in which the
        element-at-a-time BFS appends them, so elems (read off the keys'
        digits), parent and parent_gen are the same arrays.

        The dense index maps every key in [0, q^4) to its element position,
        -1 off the group.  While a level is scanned, each fresh key holds
        the tag j - 2^31 of its first product j: np.minimum.at keeps the
        least j, and every tag lies below -1.
        """
        F = self.field
        q = F.order
        n_gens = len(self.gens)
        rows = np.stack(np.divmod(np.arange(q * q), q), axis=-1)[:, None, None, :]
        images = _batch_mul(F, rows, self.gens[None])[:, :, 0]
        row_image = images[..., 0] * q + images[..., 1]  # (q^2 rows, generators)
        index = np.full(q**4, -1, dtype=np.int32)
        frontier = self._keys(np.eye(2, dtype=np.int64))[None]
        index[frontier] = 0
        keys_found = [frontier]
        parents = [np.asarray([-1], dtype=np.int64)]
        parent_gens = [np.asarray([-1], dtype=np.int64)]
        lo, total = 0, 1
        while frontier.size:
            top, bottom = np.divmod(frontier, q * q)
            keys = (row_image[top] * (q * q) + row_image[bottom]).reshape(-1)
            fresh = np.flatnonzero(index[keys] < 0)
            tags = (fresh - 2**31).astype(np.int32)
            np.minimum.at(index, keys[fresh], tags)
            new = fresh[index[keys[fresh]] == tags]
            index[keys[new]] = np.arange(total, total + new.size, dtype=np.int32)
            frontier = keys[new]
            keys_found.append(frontier)
            parents.append(lo + new // n_gens)
            parent_gens.append(new % n_gens)
            lo = total
            total += new.size
        # a key's digits are the entries, most significant first
        self.elems = digits(np.concatenate(keys_found), q, 4)[:, ::-1].reshape(-1, 2, 2)
        self.elems.flags.writeable = False
        self._index = index
        self.parent = np.concatenate(parents)
        self.parent_gen = np.concatenate(parent_gens)

    # -- basic queries ----------------------------------------------------------

    @property
    def order(self) -> int:
        return int(self.elems.shape[0])

    def indices_of_matrices(self, mats: np.ndarray) -> np.ndarray:
        """Element position of every matrix in a stack, by one gather from the dense index."""
        at = self._index[self._keys(mats)]
        if (at < 0).any():
            raise GroupError("a matrix is not an element of the group")
        return at.astype(np.int64)

    @cached_property
    def element_orders(self) -> np.ndarray:
        """Order of every element, from one powered element per trace.

        A non-scalar matrix of determinant 1 is similar to the companion
        matrix of x^2 - tr x + 1 (Huppert, Endliche Gruppen I, II.8), so its
        order is a function of its trace.  The scalars of determinant 1 are
        +-I.  One element of each trace among the non-scalars, and each
        scalar, is powered until it reaches I.
        """
        F = self.field
        e = self.elems
        a, d = e[:, 0, 0], e[:, 1, 1]
        trace = F.tables[0][a, d]
        scalar = (e[:, 0, 1] == 0) & (e[:, 1, 0] == 0) & (a == d)
        label = np.where(scalar, F.order + (a != 1), trace)
        _, reps, inverse = np.unique(label, return_index=True, return_inverse=True)
        ident = np.eye(2, dtype=np.int64)
        rep_orders = np.zeros(reps.size, dtype=np.int64)
        alive, base = np.arange(reps.size), e[reps]
        power = base
        for step in range(1, self.order + 1):
            done = (power == ident).all(axis=(1, 2))
            rep_orders[alive[done]] = step
            alive, base, power = alive[~done], base[~done], power[~done]
            if not alive.size:
                return rep_orders[inverse]
            power = _batch_mul(F, power, base)
        raise GroupError("an element order exceeds the group order")

    @cached_property
    def conjugacy_classes(self) -> np.ndarray:
        """class_id per element; ids numbered by least member position."""
        return _class_labels(self, np.arange(self.order), self.indices_of_matrices(self.gens))[0]

    @cached_property
    def class_reps(self) -> np.ndarray:
        """Least member of every conjugacy class (its first position), in class-id order."""
        return np.unique(self.conjugacy_classes, return_index=True)[1]

    @cached_property
    def sylow_map(self) -> tuple[list[Subgroup], np.ndarray]:
        """The Sylow t-subgroups plus an element -> Sylow index map (-1 off them)."""
        sylows = sylow_char_subgroups(self)
        owner = np.full(self.order, -1, dtype=np.int64)
        for i, T in enumerate(sylows):
            owner[list(T.members[1:])] = i
        return sylows, owner

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "generators": [[int(x) for x in g.reshape(-1)] for g in self.gens],
        }


def group_from_json(data: dict) -> GroupTable:
    from chardeg.fields import field_from_json

    F = field_from_json(data["field"])
    flats = data["generators"]
    if (
        not isinstance(flats, list)
        or not flats
        or any(not isinstance(g, list) or len(g) != 4 or any(type(x) is not int for x in g) for g in flats)
    ):
        raise GroupError("group generators must be a non-empty list of 4-entry integer lists")
    if any(not 0 <= x < F.order for g in flats for x in g):
        raise GroupError(f"group generator entry outside [0, {F.order})")
    return GroupTable(F, np.asarray(flats, dtype=np.int64).reshape(-1, 2, 2))


def sl2_group(q: int) -> GroupTable:
    """Enumerate SL2(q) from elementary and diagonal generators.

    The verified order q(q^2 - 1) is a hard postcondition; a mismatch
    means the generator set does not reach the whole group for this q.
    """
    if q < 4 or q > FIELD_ORDER_CAP:
        raise CapExceeded(f"sl2_group supports 4 <= q <= {FIELD_ORDER_CAP}, got {q}")
    p, k = prime_power_split(q)
    F = field_make(p, k)
    w = F.generator
    one = 1
    gens = np.asarray(
        [
            [[one, one], [0, one]],
            [[one, 0], [one, one]],
            [[one, w], [0, one]],
            [[w, 0], [0, F.inv(w)]],
        ],
        dtype=np.int64,
    )
    g = GroupTable(F, gens)
    expected = q * (q * q - 1)
    if g.order != expected:
        raise GroupError(f"SL2({q}) closure gave order {g.order}, expected {expected}")
    return g


# -- subgroups ---------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    parent: GroupTable
    members: tuple[int, ...]
    gens: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    @property
    def order(self) -> int:
        return len(self.members)

    def generating_set(self) -> tuple[int, ...]:
        """Greedy generators: the least member that the earlier ones do not
        generate, until they generate all.  What they generate is the orbit of
        the identity under right multiplication: the members labelled 0."""
        if self.gens:
            return self.gens
        g = self.parent
        members = np.asarray(self.members, dtype=np.int64)
        mats = g.elems[members]
        chosen: list[int] = []
        perms: list[np.ndarray] = []
        label = orbit_labels(perms, members.size)
        while label.any():
            i = int(np.argmax(label != 0))
            chosen.append(int(members[i]))
            prods = _batch_mul(g.field, mats, mats[i])
            perms.append(np.searchsorted(members, g.indices_of_matrices(prods)))
            label = orbit_labels(perms, members.size)
        object.__setattr__(self, "gens", tuple(chosen))
        return self.gens


def _class_labels(group: GroupTable, members: np.ndarray, gen_positions):
    """(labels, reps, sizes) of the conjugacy classes of a subgroup.

    members are the subgroup's ascending element positions and gen_positions
    generate it.  Each generator g gives the permutation x -> g^-1 x g of the
    member positions; orbit_labels finds the least member of every class, and
    the classes are numbered in the order of their least members.
    """
    F = group.field
    mats = group.elems[members]
    perms = []
    for g in group.elems[np.asarray(gen_positions, dtype=np.int64)]:
        conj = _batch_mul(F, _batch_mul(F, _batch_inv_det1(F, g), mats), g)
        perms.append(np.searchsorted(members, group.indices_of_matrices(conj)))
    return _number_orbits(orbit_labels(perms, members.size))


def _powers(group: GroupTable, positions, n: int) -> np.ndarray:
    """Positions of x^n for the elements x at the given positions (n >= 0)."""
    F = group.field
    base = group.elems[np.asarray(positions, dtype=np.int64)]
    out = np.broadcast_to(group.elems[0], base.shape)
    while n:
        if n & 1:
            out = _batch_mul(F, out, base)
        n >>= 1
        if n:
            base = _batch_mul(F, base, base)
    return group.indices_of_matrices(out)


def sylow_char_subgroups(group: GroupTable) -> list[Subgroup]:
    """All Sylow t-subgroups of SL2(t^a), t the field characteristic.

    Each nontrivial t-element fixes a unique projective point; grouping by
    that point partitions them into the q + 1 Sylow t-subgroups, listed in
    the point order (0, 1), (1, 0), (1, 1), ..., (1, q - 1).
    """
    F = group.field
    q = F.order
    orders = group.element_orders
    t_elems = np.flatnonzero((orders > 1) & (q % orders == 0))
    points = np.asarray([[0, 1]] + [[1, y] for y in range(q)], dtype=np.int64)[:, :, None]
    images = _batch_mul(F, group.elems[t_elems][:, None], points[None])
    # a t-element is unipotent, so its fixed point is fixed vector-wise
    fixed = (images == points[None]).all(axis=(2, 3))
    if not (fixed.sum(axis=1) == 1).all():
        raise GroupError("a nontrivial t-element must fix exactly one projective point")
    point_of = fixed.argmax(axis=1)
    return [Subgroup(group, (0, *t_elems[point_of == j].tolist())) for j in range(len(points))]


def count_normalized_sylow(group: GroupTable, r_subs: list[Subgroup]) -> np.ndarray:
    """For each subgroup of r_subs, the number of Sylow t-subgroups whose
    normalizer contains it, t the field characteristic.

    Conjugation permutes the Sylow subgroups, so T^g = T exactly when one
    nontrivial member of T lands back inside T.  One batched conjugation
    takes every Sylow probe through every generator of every subgroup.
    """
    for order in {s.order for s in r_subs}:
        if order == 1:
            raise GroupError("r_sub must be nontrivial")
        fac = factorize(order)
        if len(fac) != 1:
            raise GroupError("r_sub must be an r-group")
        (r_prime,) = fac
        if r_prime % 2 == 0 or (group.field.order - 1) % r_prime != 0:
            raise GroupError("the prime of r_sub must be odd and divide q - 1")
    if not r_subs:
        return np.zeros(0, dtype=np.int64)
    gen_sets = [s.generating_set() for s in r_subs]
    starts = np.cumsum([0] + [len(gs) for gs in gen_sets[:-1]])
    sylows, owner = group.sylow_map
    F = group.field
    probes = group.elems[[T.members[1] for T in sylows]][None]
    g = group.elems[[x for gs in gen_sets for x in gs]][:, None]
    conj = _batch_mul(F, _batch_mul(F, _batch_inv_det1(F, g), probes), g)
    fixed = owner[group.indices_of_matrices(conj)] == np.arange(len(sylows))
    return np.logical_and.reduceat(fixed, starts, axis=0).sum(axis=1)


def contains_normal_full_sylow(group: GroupTable, sub: Subgroup, r: int) -> bool:
    """True iff sub has a normal subgroup that is a full Sylow r-subgroup.

    Equivalent test: the r-elements of sub number exactly the r-part of
    the group order and form a subgroup (then that set is the unique,
    hence normal, Sylow r-subgroup of sub, of full order).  Their products
    are looked up in the dense index and tested against a mask of them.
    """
    full = p_part(group.order, r)
    if sub.order % full != 0:
        return False
    members = np.asarray(sub.members)
    relems = members[full % group.element_orders[members] == 0]
    if relems.size != full:
        return False
    rmats = group.elems[relems]
    prods = _batch_mul(group.field, rmats[:, None], rmats[None])
    inside = np.zeros(group.order, dtype=bool)
    inside[relems] = True
    return bool(inside[group.indices_of_matrices(prods)].all())


def center(group: GroupTable) -> Subgroup:
    """Elements commuting with every generator: all elements are tested
    against the first generator, and only the survivors against the rest."""
    F = group.field
    central, x = np.arange(group.order), group.elems
    for g in group.gens:
        keep = (_batch_mul(F, x, g) == _batch_mul(F, g, x)).all(axis=(1, 2))
        central, x = central[keep], x[keep]
    return Subgroup(group, tuple(central.tolist()))

"""Fully enumerated matrix groups SL2(q) and their subgroup queries.

A GroupTable stores every element as a 2x2 matrix of scalar indices,
closed by breadth-first search from a fixed generator set.  The BFS
parent links double as generator words, so any representation defined on
the generators extends to the elements by walking that tree.  Element
arithmetic is batched: products and inverses of matrix stacks
(_batch_mul, _batch_inv_det1, _powers), and one sorted-key index that
maps a stack of matrices back to element positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from chardeg.fields import Field, field_make
from chardeg.kernels import _number_orbits, orbit_labels
from chardeg.numtheory import factorize, p_part, prime_power_split

ENUMERATION_CAP = 10**6
SYLOW_RESTARTS = 64


class GroupError(RuntimeError):
    """A verified invariant failed or the arguments are unusable."""


class CapExceeded(RuntimeError):
    """An enumeration or size cap would be exceeded."""


class BudgetExceeded(RuntimeError):
    """A randomized search ran out of restarts."""


def _batch_mul(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of stacks of 2x2 matrices (broadcasting over the stack axis)."""
    if F.is_prime_field:
        return np.einsum("...ik,...kj->...ij", A, B) % F.p
    add_t, mul_t = F.tables[0], F.tables[1]
    t0 = mul_t[A[..., :, 0:1], B[..., 0:1, :]]
    t1 = mul_t[A[..., :, 1:2], B[..., 1:2, :]]
    return add_t[t0, t1]


def _batch_inv_det1(F: Field, A: np.ndarray) -> np.ndarray:
    """Inverse of stacks of 2x2 matrices of determinant 1 (adjugate)."""
    neg = F.tables[2] if not F.is_prime_field else None
    out = np.empty_like(A)
    out[..., 0, 0] = A[..., 1, 1]
    out[..., 1, 1] = A[..., 0, 0]
    if F.is_prime_field:
        out[..., 0, 1] = (-A[..., 0, 1]) % F.p
        out[..., 1, 0] = (-A[..., 1, 0]) % F.p
    else:
        out[..., 0, 1] = neg[A[..., 0, 1]]
        out[..., 1, 0] = neg[A[..., 1, 0]]
    return out


class GroupTable:
    """An enumerated 2x2 matrix group over a small finite field."""

    def __init__(self, field: Field, gens: np.ndarray):
        self.field = field
        self.gens = np.ascontiguousarray(gens, dtype=np.int64)
        self._close()

    # -- closure --------------------------------------------------------------

    def _keys(self, mats: np.ndarray) -> np.ndarray:
        """The base-q key of every matrix in a stack (its entries as digits), as int64."""
        q = self.field.order
        return ((mats[..., 0, 0] * q + mats[..., 0, 1]) * q + mats[..., 1, 0]) * q + mats[..., 1, 1]

    def _close(self) -> None:
        """Breadth-first closure, one batched product per BFS level.

        The level [lo, hi) is multiplied by every generator at once; the
        products are then taken in (element, generator) order and each key
        not seen before is appended.  That is exactly the order in which
        the element-at-a-time BFS appends them, so elems, parent and
        parent_gen are the same arrays.
        """
        F = self.field
        n_gens = len(self.gens)
        elems = [np.eye(2, dtype=np.int64)[None]]
        parents = [np.asarray([-1], dtype=np.int64)]
        parent_gens = [np.asarray([-1], dtype=np.int64)]
        seen = self._keys(elems[0])  # sorted keys of every element so far
        lo, total = 0, 1
        frontier = elems[0]
        while frontier.shape[0]:
            prods = _batch_mul(F, frontier[:, None], self.gens[None]).reshape(-1, 2, 2)
            keys = self._keys(prods)
            uniq, first = np.unique(keys, return_index=True)
            pos = np.searchsorted(seen, uniq).clip(max=seen.size - 1)
            new = np.sort(first[seen[pos] != uniq])
            if total + new.size > ENUMERATION_CAP:
                raise CapExceeded(f"closure exceeded the cap {ENUMERATION_CAP}")
            frontier = prods[new]
            elems.append(frontier)
            parents.append(lo + new // n_gens)
            parent_gens.append(new % n_gens)
            seen = np.sort(np.concatenate([seen, keys[new]]))
            lo = total
            total += new.size
        self.elems = np.ascontiguousarray(np.concatenate(elems), dtype=np.int64)
        self.elems.flags.writeable = False
        self._sorted_keys = seen
        self._key_positions = np.argsort(self._keys(self.elems))
        self.parent = np.concatenate(parents)
        self.parent_gen = np.concatenate(parent_gens)

    # -- basic queries ----------------------------------------------------------

    @property
    def order(self) -> int:
        return int(self.elems.shape[0])

    def indices_of_matrices(self, mats: np.ndarray) -> np.ndarray:
        """Element position of every matrix in a stack, by one search of the sorted keys."""
        keys = self._keys(mats)
        at = np.searchsorted(self._sorted_keys, keys).clip(max=self.order - 1)
        if (self._sorted_keys[at] != keys).any():
            raise GroupError("a matrix is not an element of the group")
        return self._key_positions[at]

    @cached_property
    def element_orders(self) -> np.ndarray:
        F = self.field
        n = self.order
        orders = np.zeros(n, dtype=np.int64)
        orders[0] = 1
        ident = np.eye(2, dtype=np.int64)
        power = self.elems.copy()
        alive = np.flatnonzero(orders == 0)
        step = 1
        while alive.size:
            done = alive[(power[alive] == ident).all(axis=(1, 2))]
            orders[done] = step
            alive = np.flatnonzero(orders == 0)
            if alive.size:
                power[alive] = _batch_mul(F, power[alive], self.elems[alive])
                step += 1
            if step > 4 * self.order:
                raise GroupError("element order computation did not terminate")
        return orders

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
    for a, b, c, d in flats:
        if any(not 0 <= x < F.order for x in (a, b, c, d)):
            raise GroupError(f"group generator entry outside [0, {F.order})")
        if F.sub(F.mul(a, d), F.mul(b, c)) != 1:
            raise GroupError(f"group generator {[a, b, c, d]} does not have determinant 1")
    return GroupTable(F, np.asarray(flats, dtype=np.int64).reshape(-1, 2, 2))


def sl2_group(q: int) -> GroupTable:
    """Enumerate SL2(q) from elementary and diagonal generators.

    The verified order q(q^2 - 1) is a hard postcondition; a mismatch
    means the generator set does not reach the whole group for this q.
    """
    if q < 4 or q > 49:
        raise CapExceeded(f"sl2_group supports 4 <= q <= 49, got {q}")
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
        if self.gens:
            return self.gens
        g = self.parent
        have = {0}
        chosen: list[int] = []
        for m in self.members:
            if m in have:
                continue
            chosen.append(m)
            have = set(_close_indices(g, [*chosen]))
            if len(have) == self.order:
                break
        object.__setattr__(self, "gens", tuple(chosen))
        return self.gens


def _close_indices(group: GroupTable, gen_positions) -> list[int]:
    """Closure of the identity under right multiplication by the generators.

    One batched product of the frontier by every generator per level.  In
    a finite group every inverse is a positive power, so this is the
    generated subgroup.
    """
    gens = group.elems[np.asarray(gen_positions, dtype=np.int64)]
    members = {0}
    frontier = [0]
    while frontier:
        prods = _batch_mul(group.field, group.elems[frontier][:, None], gens[None])
        frontier = list(set(group.indices_of_matrices(prods.reshape(-1, 2, 2)).tolist()) - members)
        members.update(frontier)
    return sorted(members)


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


def subgroup_from_gens(group: GroupTable, gen_positions) -> Subgroup:
    members = _close_indices(group, list(gen_positions))
    return Subgroup(group, tuple(members), tuple(sorted(set(int(g) for g in gen_positions) - {0})))


def sylow(group: GroupTable, p: int, seed: int = 42) -> Subgroup:
    """A Sylow p-subgroup, found by closing random p-element parts.

    Deterministic for a fixed seed; raises BudgetExceeded after
    SYLOW_RESTARTS failed closures (never reached at this scale).
    """
    full = p_part(group.order, p)
    if full == 1:
        raise GroupError(f"{p} does not divide the group order {group.order}")
    orders = group.element_orders
    rng = np.random.default_rng(seed)
    for _ in range(SYLOW_RESTARTS):
        gens: list[int] = []
        members = [0]
        for _ in range(SYLOW_RESTARTS):
            if len(members) == full:
                return Subgroup(group, tuple(members), tuple(gens))
            x = int(rng.integers(group.order))
            o = int(orders[x])
            op = p_part(o, p)
            if op == 1:
                continue
            y = int(_powers(group, [x], o // op)[0])
            if y == 0 or y in members:
                continue
            cand = _close_indices(group, gens + [y])
            if len(cand) > full or p_part(len(cand), p) != len(cand):
                break  # overshot or left the p-group lattice: restart
            gens.append(y)
            members = cand
    raise BudgetExceeded(f"sylow({p}) search budget exhausted")


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


def count_normalized_sylow(group: GroupTable, r_sub: Subgroup, t: int) -> int:
    """Number of Sylow t-subgroups whose normalizer contains r_sub.

    Conjugation permutes the Sylow subgroups, so T^g = T exactly when
    one nontrivial member of T lands back inside T.
    """
    if t != group.field.p:
        raise GroupError("t must be the defining characteristic")
    if r_sub.order == 1:
        raise GroupError("r_sub must be nontrivial")
    fac = factorize(r_sub.order)
    if len(fac) != 1:
        raise GroupError("r_sub must be an r-group")
    (r_prime,) = fac
    if r_prime % 2 == 0 or (group.field.order - 1) % r_prime != 0:
        raise GroupError("the prime of r_sub must be odd and divide q - 1")
    sylows, owner = group.sylow_map
    F = group.field
    probes = group.elems[[T.members[1] for T in sylows]]
    fixed = np.ones(len(sylows), dtype=bool)
    for g in group.elems[list(r_sub.generating_set())]:
        conj = _batch_mul(F, _batch_mul(F, _batch_inv_det1(F, g), probes), g)
        fixed &= owner[group.indices_of_matrices(conj)] == np.arange(len(sylows))
    return int(fixed.sum())


def contains_normal_full_sylow(group: GroupTable, sub: Subgroup, r: int) -> bool:
    """True iff sub has a normal subgroup that is a full Sylow r-subgroup.

    Equivalent test: the r-elements of sub number exactly the r-part of
    the group order and form a subgroup (then that set is the unique,
    hence normal, Sylow r-subgroup of sub, of full order).
    """
    full = p_part(group.order, r)
    if sub.order % full != 0:
        return False
    members = np.asarray(sub.members)
    rmats = group.elems[members[full % group.element_orders[members] == 0]]
    if rmats.shape[0] != full:
        return False
    prods = _batch_mul(group.field, rmats[:, None], rmats[None])
    return bool(np.isin(group._keys(prods), group._keys(rmats)).all())


def center(group: GroupTable) -> Subgroup:
    """Elements commuting with every generator."""
    F = group.field
    central = np.ones(group.order, dtype=bool)
    for g in group.gens:
        central &= (_batch_mul(F, group.elems, g) == _batch_mul(F, g, group.elems)).all(axis=(1, 2))
    return Subgroup(group, tuple(int(i) for i in np.flatnonzero(central)))

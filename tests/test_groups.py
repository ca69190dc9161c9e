import hashlib

import numpy as np
import pytest

from chardeg.fields import field_make
from chardeg.groups import (
    FIELD_ORDER_CAP,
    CapExceeded,
    GroupError,
    GroupTable,
    Subgroup,
    _batch_inv_det1,
    _batch_mul,
    _powers,
    center,
    contains_normal_full_sylow,
    count_normalized_sylow,
    group_from_json,
    sl2_group,
    sylow_char_subgroups,
)
from chardeg.linalg import identity_matrix
from chardeg.numtheory import factorize, p_part, prime_powers
from oracles import close_indices, greedy_generators, subgroup_from_gens, whole_group, word


@pytest.fixture(scope="module")
def g7():
    return sl2_group(7)


@pytest.fixture(scope="module")
def g5():
    return sl2_group(5)


def _mult(g, i, j):
    """Position of the product elems[i] elems[j], one product at a time."""
    return int(g.indices_of_matrices(_batch_mul(g.field, g.elems[i], g.elems[j])[None])[0])


def _conj(g, x, k):
    """Position of elems[k]^-1 elems[x] elems[k], one product at a time."""
    F, m = g.field, g.elems[k]
    conj = _batch_mul(F, _batch_mul(F, _batch_inv_det1(F, m), g.elems[x]), m)
    return int(g.indices_of_matrices(conj[None])[0])


@pytest.mark.parametrize("q,order", [(4, 60), (5, 120), (7, 336), (9, 720)])
def test_sl2_orders(q, order):
    assert sl2_group(q).order == order == q * (q * q - 1)


def test_sl2_cap():
    with pytest.raises(CapExceeded):
        sl2_group(53)


def test_group_tables_refuse_fields_above_the_cap():
    """The dense key index has q^4 entries, so no group is enumerated over a
    field of order above FIELD_ORDER_CAP, the bound sl2_group shares."""
    assert FIELD_ORDER_CAP == 49
    with pytest.raises(CapExceeded, match="q <= 49"):
        sl2_group(FIELD_ORDER_CAP + 4)
    unipotent = {"field": field_make(53).to_json(), "generators": [[1, 1, 0, 1]]}
    with pytest.raises(GroupError, match="fields of order <= 49, got 53"):
        group_from_json(unipotent)
    with pytest.raises(GroupError, match="fields of order <= 49, got 64"):
        GroupTable(field_make(2, 6), np.eye(2, dtype=np.int64)[None])


def test_words_multiply_out(g7):
    rng = np.random.default_rng(1)
    for i in rng.integers(0, g7.order, size=25):
        acc = np.eye(2, dtype=np.int64)
        for gi in word(g7, int(i)):
            acc = _batch_mul(g7.field, acc, g7.gens[gi])
        assert g7.indices_of_matrices(acc[None]).tolist() == [int(i)]


def test_inverse_table(g7):
    inverse = g7.indices_of_matrices(_batch_inv_det1(g7.field, g7.elems))
    assert (g7.indices_of_matrices(_batch_mul(g7.field, g7.elems, g7.elems[inverse])) == 0).all()
    assert np.array_equal(inverse[inverse], np.arange(g7.order))


@pytest.mark.parametrize("q", [4, 5, 7, 9, 13, 27, 49])
def test_batch_inverses_of_every_element(q):
    """The adjugate negated through the field table, over prime and extension fields."""
    g = sl2_group(q)
    prods = _batch_mul(g.field, g.elems, _batch_inv_det1(g.field, g.elems))
    assert (prods == np.eye(2, dtype=np.int64)).all()


@pytest.mark.parametrize("q", [4, 5, 9])
def test_powers_match_repeated_products(q):
    g = sl2_group(q)
    every = np.arange(g.order)
    acc = np.broadcast_to(np.eye(2, dtype=np.int64), g.elems.shape)
    for n in range(13):
        assert np.array_equal(_powers(g, every, n), g.indices_of_matrices(acc))
        acc = _batch_mul(g.field, acc, g.elems)


def test_indices_of_matrices_refuses_a_non_element():
    # the upper Borel subgroup of SL2(5): a lower unitriangular matrix is outside it
    borel = np.asarray([[[1, 1], [0, 1]], [[2, 0], [0, 3]]], dtype=np.int64)
    g = GroupTable(field_make(5), borel)
    assert g.order == 20
    outside = np.asarray([[[1, 0], [1, 1]]], dtype=np.int64)
    with pytest.raises(GroupError, match="not an element"):
        g.indices_of_matrices(np.concatenate([g.elems[:3], outside]))
    with pytest.raises(GroupError, match="not an element"):
        g.indices_of_matrices(np.full((1, 2, 2), 4, dtype=np.int64))  # above every key


#: a subgroup of SL2(9) of order 24, read from JSON (field entries are F9 indices)
JSON_SUBGROUP_9 = {"field": {"p": 3, "k": 2, "modulus": [1, 0, 1]}, "generators": [[1, 1, 0, 1], [0, 1, 2, 0]]}


def _orders_by_powering(g):
    """Order of every element: each one is powered until it reaches I."""
    orders = np.zeros(g.order, dtype=np.int64)
    power = g.elems.copy()
    step = 1
    while (orders == 0).any():
        orders[(orders == 0) & (power == np.eye(2, dtype=np.int64)).all(axis=(1, 2))] = step
        power = _batch_mul(g.field, power, g.elems)
        step += 1
    return orders


@pytest.mark.parametrize("q", (4, 5, 7, 8, 9, 13, 16, 25, 27))
def test_element_orders_match_powering_oracle(q):
    g = sl2_group(q)
    assert g.element_orders.dtype == np.int64
    assert np.array_equal(g.element_orders, _orders_by_powering(g))


def test_element_orders_of_subgroups_match_powering_oracle():
    borel = GroupTable(field_make(5), np.asarray([[[1, 1], [0, 1]], [[2, 0], [0, 3]]], dtype=np.int64))
    for g in (borel, group_from_json(JSON_SUBGROUP_9)):
        assert np.array_equal(g.element_orders, _orders_by_powering(g))
    assert sorted(set(borel.element_orders.tolist())) == [1, 2, 4, 5, 10]


def test_generators_of_determinant_other_than_1_are_refused():
    """Element orders are read off traces, which needs determinant 1: the
    scalar 2I over F5 (determinant 4) would give 4I the order of 2I."""
    with pytest.raises(GroupError, match=r"\[2, 0, 0, 2\] does not have determinant 1"):
        GroupTable(field_make(5), np.asarray([[[1, 1], [0, 1]], [[2, 0], [0, 2]]], dtype=np.int64))
    # over F_9 the third generator, x I with x^2 = 2, is the first bad one; the fourth is bad too
    with pytest.raises(GroupError, match=r"\[3, 0, 0, 3\] does not have determinant 1"):
        GroupTable(
            field_make(3, 2),
            np.asarray([[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[3, 0], [0, 3]], [[2, 0], [0, 1]]], dtype=np.int64),
        )


def test_element_orders_divide_group_order(g7):
    orders = g7.element_orders
    assert orders[0] == 1
    assert all(g7.order % int(o) == 0 for o in orders)
    # largest element order in SL2(7) is 2 * 7 from the scalar-unipotent products
    assert int(orders.max()) == 14


def test_sylow_char_partition(g7):
    subs = sylow_char_subgroups(g7)
    assert len(subs) == 8
    assert all(s.order == 7 for s in subs)
    nontrivial = set()
    for s in subs:
        nontrivial |= set(s.members) - {0}
    assert len(nontrivial) == 7 * 7 - 1  # the Sylow subgroups intersect trivially


def test_normalizer_of_char_sylow(g7):
    # T fixes the point (0, 1): its normalizer is the lower Borel subgroup,
    # generated by the lower unitriangular and the diagonal generator
    T = sylow_char_subgroups(g7)[0]
    N = subgroup_from_gens(g7, g7.indices_of_matrices(g7.gens[[1, 3]]))
    assert set(T.members) <= set(N.members)
    assert N.order == 42  # 336 / 8 conjugates
    assert contains_normal_full_sylow(g7, N, 7)


def test_sylow_normalizer_check_builds_one_sylow_list_per_group(monkeypatch):
    """sylow-normalizer-counts reads each group's cached Sylow list: one
    sylow_char_subgroups call per q, wherever the package holds that name."""
    import sys

    from chardeg import verify

    calls = []

    def counting(group):
        calls.append(group.field.order)
        return sylow_char_subgroups(group)

    for module in [m for name, m in sys.modules.items() if name.startswith("chardeg")]:
        if hasattr(module, "sylow_char_subgroups"):
            monkeypatch.setattr(module, "sylow_char_subgroups", counting)
    expected, observed = verify.check_two_sylow_normalizers(verify.Harness())
    assert observed == expected
    assert sorted(calls) == sorted(q for q, _ in verify.TWO_SYLOW_PAIRS)


def test_count_normalized_sylow_examples(g7):
    orders = g7.element_orders
    r_elt = int(np.flatnonzero(orders == 3)[0])
    r_sub = subgroup_from_gens(g7, [r_elt])
    assert r_sub.order == 3
    assert count_normalized_sylow(g7, [r_sub]).tolist() == [2]


def test_contains_normal_full_sylow_negative(g7):
    # the whole group has no normal Sylow subgroup
    assert not contains_normal_full_sylow(g7, whole_group(g7), 7)
    assert not contains_normal_full_sylow(g7, whole_group(g7), 2)
    # a subgroup of order coprime to r cannot contain a full r-Sylow
    orders = g7.element_orders
    r_elt = int(np.flatnonzero(orders == 3)[0])
    assert not contains_normal_full_sylow(g7, subgroup_from_gens(g7, [r_elt]), 7)


def test_lagrange_for_random_subgroups(g5):
    rng = np.random.default_rng(4)
    for _ in range(12):
        gens = [int(x) for x in rng.integers(0, g5.order, size=2)]
        sub = subgroup_from_gens(g5, gens)
        assert g5.order % sub.order == 0


def test_subgroup_equality_ignores_the_cached_generating_set(g5):
    s, t = whole_group(g5), whole_group(g5)
    bag = {s}
    assert s.generating_set()
    assert s == t and hash(s) == hash(t)
    assert s in bag
    assert subgroup_from_gens(g5, [1]) == Subgroup(g5, subgroup_from_gens(g5, [1]).members)


def test_conjugacy_class_count(g5):
    # SL2(q) for odd q has q + 4 conjugacy classes
    assert int(g5.conjugacy_classes.max()) + 1 == 9


def test_group_json_round_trip(g5):
    g2 = group_from_json(g5.to_json())
    assert g2.order == g5.order
    assert np.array_equal(g2.gens, g5.gens)


def test_custom_generator_group():
    # the trivial group from an identity generator
    F = field_make(5)
    g = GroupTable(F, np.stack([identity_matrix(2)]))
    assert g.order == 1


def test_center_and_simple_quotient_order(g7):
    from chardeg.groups import center

    z = center(g7)
    assert z.order == 2  # the scalar matrices of determinant 1
    assert g7.order // z.order == 168
    g4 = sl2_group(4)
    assert center(g4).order == 1  # trivial center in even characteristic


# -- element-at-a-time oracles for the batched closure and queries -------------

ORACLE_QS = (4, 5, 7, 8, 9, 16, 25, 27)
SUPPORTED_QS = (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49)


def _mul_2x2(F, a, b):
    if F.is_prime_field:
        return (a @ b) % F.p
    add, mul = F.tables[0], F.tables[1]
    return add[mul[a[:, 0:1], b[0:1, :]], mul[a[:, 1:2], b[1:2, :]]]


def _bfs_oracle(F, gens):
    """The element-at-a-time BFS closure, which fixes the canonical element order."""
    ident = np.eye(2, dtype=np.int64)
    elems, parent, parent_gen = [ident], [-1], [-1]
    index = {ident.tobytes(): 0}
    pos = 0
    while pos < len(elems):
        for gi, g in enumerate(gens):
            prod = _mul_2x2(F, elems[pos], g)
            if prod.tobytes() not in index:
                index[prod.tobytes()] = len(elems)
                elems.append(prod)
                parent.append(pos)
                parent_gen.append(gi)
        pos += 1
    return np.stack(elems), np.asarray(parent), np.asarray(parent_gen)


def _generator_major_closure(F, gens):
    """A level-batched closure that scans each level generator by generator."""
    ident = np.eye(2, dtype=np.int64)
    elems, parent = [ident], [-1]
    index = {ident.tobytes()}
    lo = 0
    while lo < len(elems):
        hi = len(elems)
        for g in gens:
            for pos in range(lo, hi):
                prod = _mul_2x2(F, elems[pos], g)
                if prod.tobytes() not in index:
                    index.add(prod.tobytes())
                    elems.append(prod)
                    parent.append(pos)
        lo = hi
    return np.stack(elems), np.asarray(parent)


def _assert_closure_matches_oracle(g):
    elems, parent, parent_gen = _bfs_oracle(g.field, g.gens)
    assert np.array_equal(g.elems, elems)
    assert np.array_equal(g.parent, parent)
    assert np.array_equal(g.parent_gen, parent_gen)
    assert np.array_equal(g.indices_of_matrices(elems), np.arange(len(elems)))
    # the dense index holds -1 at every other key of the q^4, no leftover tag
    off = np.ones(g.field.order**4, dtype=bool)
    off[g._keys(elems)] = False
    assert (g._index[off] == -1).all()


@pytest.mark.parametrize("q", ORACLE_QS)
def test_closure_matches_element_bfs(q):
    _assert_closure_matches_oracle(sl2_group(q))


def test_custom_generator_closure_matches_element_bfs():
    F = field_make(5)
    _assert_closure_matches_oracle(GroupTable(F, np.stack([identity_matrix(2)])))
    borel = np.asarray([[[1, 1], [0, 1]], [[2, 0], [0, 3]]], dtype=np.int64)
    g = GroupTable(F, borel)
    assert g.order == 20
    _assert_closure_matches_oracle(g)
    _assert_closure_matches_oracle(group_from_json(JSON_SUBGROUP_9))


def test_generator_major_scan_fails_the_oracle():
    g = sl2_group(7)
    elems, parent = _generator_major_closure(g.field, g.gens)
    assert len(elems) == g.order
    assert not np.array_equal(g.elems, elems)
    assert not np.array_equal(g.parent, parent)


@pytest.mark.parametrize("q", (4, 5, 7, 8, 9, 16))
def test_center_and_classes_match_mult_oracles(q):
    g = sl2_group(q)
    gen_idx = g.indices_of_matrices(g.gens).tolist()
    members = [i for i in range(g.order) if all(_mult(g, i, k) == _mult(g, k, i) for k in gen_idx)]
    assert center(g).members == tuple(members)
    # depth-first search over generator conjugates, numbering by least member
    cls = np.full(g.order, -1, dtype=np.int64)
    nxt = 0
    for start in range(g.order):
        if cls[start] >= 0:
            continue
        cls[start] = nxt
        stack = [start]
        while stack:
            x = stack.pop()
            for k in gen_idx:
                y = _conj(g, x, k)
                if cls[y] < 0:
                    cls[y] = nxt
                    stack.append(y)
        nxt += 1
    assert np.array_equal(g.conjugacy_classes, cls)
    assert g.class_reps.tolist() == [int(np.flatnonzero(cls == c)[0]) for c in range(nxt)]


@pytest.mark.parametrize("q,r", [(7, 3), (11, 5), (13, 3), (16, 3), (16, 5), (19, 3)])
def test_count_normalized_sylow_matches_conjugation_oracle(q, r):
    """One batch over cyclic subgroups, a subgroup given two generators and
    the Sylow r-subgroup of one element of full r-part order (cyclic, as the
    odd r divides q - 1 only), against conjugating one probe at a time."""
    g = sl2_group(q)
    sylows = sylow_char_subgroups(g)
    owner = {m: i for i, T in enumerate(sylows) for m in T.members if m != 0}
    orders = g.element_orders
    # nontrivial elements whose order is a power of r
    r_elems = [int(x) for x in np.flatnonzero((orders > 1) & (r**6 % orders == 0))]
    x = r_elems[0]
    subs = [subgroup_from_gens(g, [y]) for y in r_elems[:24]]
    full = int(np.flatnonzero(orders == p_part(g.order, r))[0])
    subs += [subgroup_from_gens(g, [x, int(_powers(g, [x], 2)[0])]), subgroup_from_gens(g, [full])]
    assert len(subs[-2].generating_set()) == 2
    assert subs[-1].order == p_part(g.order, r)
    expected = [
        sum(
            all(owner[_conj(g, T.members[1], k)] == i for k in sub.generating_set())
            for i, T in enumerate(sylows)
        )
        for sub in subs
    ]
    assert count_normalized_sylow(g, subs).tolist() == expected
    assert count_normalized_sylow(g, subs[-1:]).tolist() == expected[-1:]
    assert count_normalized_sylow(g, []).tolist() == []
    with pytest.raises(GroupError, match="r-group"):
        count_normalized_sylow(g, [subs[0], subgroup_from_gens(g, [x, *sylows[0].members[1:2]])])


def _sylow_buckets_per_element(g):
    """sylow_char_subgroups member lists, one fixed point at a time from
    the eigenvector of each unipotent matrix, one table entry at a time."""
    F = g.field
    t = F.p
    add, mul, neg, inv = (table.tolist() for table in F.tables)
    orders = g.element_orders
    buckets = {}
    for i in range(g.order):
        o = int(orders[i])
        if o == 1 or p_part(o, t) != o:
            continue
        m = g.elems[i]
        a = add[int(m[0, 0])][neg[1]]
        b = int(m[0, 1])
        c = int(m[1, 0])
        d = add[int(m[1, 1])][neg[1]]
        if a == 0 and b == 0:
            vec = (neg[d], c) if (c or d) else (1, 0)
        else:
            vec = (neg[b], a)
        point = (1, mul[inv[vec[0]]][vec[1]]) if vec[0] != 0 else (0, 1)
        buckets.setdefault(point, []).append(i)
    return [tuple(sorted([0] + buckets[point])) for point in sorted(buckets)]


@pytest.mark.parametrize("q", SUPPORTED_QS)
def test_sylow_char_subgroups_match_per_element_buckets(q):
    g = sl2_group(q)
    assert [T.members for T in sylow_char_subgroups(g)] == _sylow_buckets_per_element(g)


def _normal_full_sylow_by_mult(g, sub, r):
    """contains_normal_full_sylow as a closure test over single products."""
    full = p_part(g.order, r)
    relems = [m for m in sub.members if full % int(g.element_orders[m]) == 0]
    return len(relems) == full and all(
        _mult(g, x, y) in set(relems) for x in relems for y in relems
    )


@pytest.mark.parametrize("q,r", [(5, 3), (7, 2), (8, 3), (9, 2)])
def test_contains_normal_full_sylow_matches_mult_oracle(q, r):
    from chardeg.modules import perm_module
    from chardeg.orbits import orbit_decompose

    g = sl2_group(q)
    stabs = [o.stab for o in orbit_decompose(perm_module(g, "projective-points", r)).orbits]
    seen = set()
    for u in [*sorted(factorize(g.order)), 11]:  # 11 divides none of these orders
        for stab in stabs:
            got = contains_normal_full_sylow(g, stab, u)
            assert got == _normal_full_sylow_by_mult(g, stab, u)
            seen.add(got)
    assert seen == {True, False}


def _two_sided_closure(group, gen_positions):
    """Oracle: closure of the generators under both right and left products."""
    members = {0}
    queue = [0]
    gen_positions = [g for g in gen_positions if g != 0]
    for g in gen_positions:
        if g not in members:
            members.add(g)
            queue.append(g)
    F, gens = group.field, group.elems[gen_positions]
    pos = 0
    while pos < len(queue):
        x = group.elems[queue[pos]]
        pos += 1
        # x times each generator, then each generator times x
        prods = np.concatenate([_batch_mul(F, x, gens), _batch_mul(F, gens, x)])
        for y in group.indices_of_matrices(prods).tolist():
            if y not in members:
                members.add(y)
                queue.append(y)
    return sorted(members)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 25])
def test_subgroup_from_gens_matches_two_sided_closure(q):
    """Closing under right products alone gives the members of the two-sided
    closure, on one random generator, on one together with the identity, and
    on two or three random generators; and the generating set that a
    Subgroup with the same members picks generates them too."""
    g = sl2_group(q)
    rng = np.random.default_rng(q)
    x = int(rng.integers(g.order))
    gen_sets = [[x], [0, x], [int(y) for y in rng.integers(0, g.order, size=int(rng.integers(2, 4)))]]
    sizes = set()
    for gens in gen_sets:
        sub = subgroup_from_gens(g, gens)
        assert list(sub.members) == _two_sided_closure(g, gens)
        assert _two_sided_closure(g, Subgroup(g, sub.members).generating_set()) == list(sub.members)
        sizes.add(sub.order)
    assert len(sizes) > 1


def _sylow_subgroups(g):
    """The Sylow t-subgroups and, for each odd prime r other than t, one cyclic
    Sylow r-subgroup (generated by an element of the full r-part order)."""
    t = g.field.p
    subs = sylow_char_subgroups(g)
    orders = g.element_orders
    for r in factorize(g.order):
        if r not in (2, t):
            x = int(np.flatnonzero(orders == p_part(g.order, r))[0])
            subs.append(Subgroup(g, close_indices(g, [x])))
    return subs


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
def test_generating_set_matches_greedy_closure_oracle(q):
    g = sl2_group(q)
    subs = [whole_group(g), Subgroup(g, (0,)), *_sylow_subgroups(g)]
    for sub in subs:
        gens = sub.generating_set()
        assert gens == greedy_generators(Subgroup(g, sub.members))
        assert close_indices(g, gens) == list(sub.members)
    assert len(subs[0].generating_set()) > 1 and subs[1].generating_set() == ()


def test_generating_set_of_every_sweep_stabilizer_matches_oracle(harness):
    seen = set()
    for _q, _label, e in harness.sweep_modules():
        for orb in harness.orbit_report(e.module).orbits:
            stab = orb.stab
            if (id(stab.parent), stab.members) in seen:
                continue
            seen.add((id(stab.parent), stab.members))
            assert Subgroup(stab.parent, stab.members).generating_set() == greedy_generators(stab)
    assert len(seen) > 31


# sha256 of elems (little-endian int64) of SL2(q) for every q the group layer
# enumerates; the elements are decoded from their keys' digits
ELEMS_DIGESTS = {
    4: "59794b67aa04f9da0c5223b999ed4004deeac1aaf595b44a52147fc6b555306e",
    5: "717835f90853cd59ad47b8590d83781ac76f37fcb34bf30cb93be2ee9ac0db17",
    7: "f0fa9add872f786260aeb9e9e11b712a463271db92867fc04bd70af7ab4259d1",
    8: "2ced9fd1f68c345cdf0fdb8384f87674c754f9f3dbc9b5ca904ed5cbfc8e1572",
    9: "8b82ba7b5f684cd1a4c63c1de0a7a63ae4f79c5c35427cc9a4cb7351d80f285d",
    11: "a86645f8f8681bd2757fd22ee8afaf18156e02e5f42f700e1122955389af0b06",
    13: "1c93334ffc5185feae6cccad0c2544294355e3659f06aec6e1564a0ac68f8b88",
    16: "2212fc41e54c0e4a933c24e68c7af9e28ec7d7acb39a90ce2044895edcb28eeb",
    17: "fa2db6c08c42a33f703212f0514186943247b66608dec6bd8b48273da1a7dd9d",
    19: "adafd488e25ab69b5e60865513bc395c826ea9430c81693bca6974d4116ee761",
    23: "c5493e21002bdc7a86340aefa9459a87ef95d50efad0749e7131a7190332020f",
    25: "1684a3484756639d4aa1e59514694ea25e0f636dfd4a683cc0fa802f983a08c5",
    27: "64e6264c6d8fbca25ea7dee3a528c7a92317b8b8649bad5a6c0cb834b46ab4e2",
    29: "7a7ec06833fb6a1d718e5535e499fbc084ee20c10a694f56d68afcb44fe9aa47",
    31: "a9e2eec605eafe8d043df91c48c0f9f6cc03ba443108d4138f1dcbabaeccd42b",
    32: "dfd7d82722935e8461b516d9b04b2c55a04b264e0f7d88e1f0d5a12e530b6604",
    37: "a85c9703bf9009afa35c76bf326575d0de927bf89ed61c1ac7bc6595121c1377",
    41: "08412d52c79c2397c7a7e3ffeda5dc1b478696ae125589233c5f089d5b90fcd9",
    43: "8aeb9be0ba615623134eecb5c1e75e9cdb68d4f4766ecfde49bfefcf138b67d6",
    47: "6f1bc1bc6587ee66bc578857d69fa111a6e4612d847503463f8fb761c6ec147c",
    49: "96a5e0609d385ad8cb212f463b60259fdc1677358fb99fe060da1a99ae6b0936",
}


def test_elems_bytes_are_pinned():
    assert list(ELEMS_DIGESTS) == prime_powers(4, FIELD_ORDER_CAP)
    for q, want in ELEMS_DIGESTS.items():
        elems = np.ascontiguousarray(sl2_group(q).elems, dtype="<i8")
        assert hashlib.sha256(elems.tobytes()).hexdigest() == want, f"SL2({q})"

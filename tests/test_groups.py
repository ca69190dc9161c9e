import numpy as np
import pytest

from chardeg.fields import field_make
from chardeg.groups import (
    CapExceeded,
    GroupTable,
    center,
    contains_normal_full_sylow,
    count_normalized_sylow,
    cyclic_generator,
    group_from_json,
    is_abelian,
    normalizer,
    sl2_group,
    subgroup_from_gens,
    sylow,
    sylow_char_subgroups,
    trivial_subgroup,
    whole_group,
)
from chardeg.linalg import identity_matrix
from chardeg.numtheory import factorize, p_part


@pytest.fixture(scope="module")
def g7():
    return sl2_group(7)


@pytest.fixture(scope="module")
def g5():
    return sl2_group(5)


@pytest.mark.parametrize("q,order", [(4, 60), (5, 120), (7, 336), (9, 720)])
def test_sl2_orders(q, order):
    assert sl2_group(q).order == order == q * (q * q - 1)


def test_sl2_cap():
    with pytest.raises(CapExceeded):
        sl2_group(53)


def test_words_multiply_out(g7):
    rng = np.random.default_rng(1)
    for i in rng.integers(0, g7.order, size=25):
        word = g7.word(int(i))
        acc = 0  # identity index
        for gi in word:
            acc = g7.mult(acc, g7.index_of(g7.gens[gi]))
        assert acc == int(i)


def test_inverse_table(g7):
    rng = np.random.default_rng(2)
    for i in rng.integers(0, g7.order, size=25):
        assert g7.mult(int(i), int(g7.inverse[i])) == 0


def test_element_orders_divide_group_order(g7):
    orders = g7.element_orders
    assert orders[0] == 1
    assert all(g7.order % int(o) == 0 for o in orders)
    # largest element order in SL2(7) is 2 * 7 from the scalar-unipotent products
    assert int(orders.max()) == 14


def test_sylow_orders(g7, g5):
    assert sylow(g7, 7).order == 7
    assert sylow(g7, 2).order == 16
    assert sylow(g5, 3).order == 3


def test_sylow_char_partition(g7):
    subs = sylow_char_subgroups(g7)
    assert len(subs) == 8
    assert all(s.order == 7 for s in subs)
    nontrivial = set()
    for s in subs:
        nontrivial |= set(s.members) - {0}
    assert len(nontrivial) == 7 * 7 - 1  # the Sylow subgroups intersect trivially


def test_normalizer_of_char_sylow(g7):
    T = sylow_char_subgroups(g7)[0]
    N = normalizer(g7, T)
    assert N.order == 42  # 336 / 8 conjugates
    assert contains_normal_full_sylow(g7, N, 7)


def test_normalizer_edge_cases(g7):
    assert normalizer(g7, whole_group(g7)).order == g7.order
    assert normalizer(g7, trivial_subgroup(g7)).order == g7.order


def test_count_normalized_sylow_examples(g7):
    orders = g7.element_orders
    r_elt = int(np.flatnonzero(orders == 3)[0])
    r_sub = subgroup_from_gens(g7, [r_elt])
    assert r_sub.order == 3
    assert count_normalized_sylow(g7, r_sub, 7) == 2


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


def test_is_abelian_and_cyclic(g5):
    orders = g5.element_orders
    x = int(np.flatnonzero(orders == 10)[0])
    sub = subgroup_from_gens(g5, [x])
    assert is_abelian(sub)
    assert cyclic_generator(sub) is not None
    assert not is_abelian(whole_group(g5))


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
    assert g.key_index == {g._key(m): i for i, m in enumerate(elems)}


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


def test_generator_major_scan_fails_the_oracle():
    g = sl2_group(7)
    elems, parent = _generator_major_closure(g.field, g.gens)
    assert len(elems) == g.order
    assert not np.array_equal(g.elems, elems)
    assert not np.array_equal(g.parent, parent)


@pytest.mark.parametrize("q", (4, 5, 7, 8, 9, 16))
def test_center_and_classes_match_mult_oracles(q):
    g = sl2_group(q)
    gen_idx = [g.index_of(m) for m in g.gens]
    members = [i for i in range(g.order) if all(g.mult(i, k) == g.mult(k, i) for k in gen_idx)]
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
                y = g.mult(g.mult(int(g.inverse[k]), x), k)
                if cls[y] < 0:
                    cls[y] = nxt
                    stack.append(y)
        nxt += 1
    assert np.array_equal(g.conjugacy_classes, cls)
    assert g.class_reps.tolist() == [int(np.flatnonzero(cls == c)[0]) for c in range(nxt)]


@pytest.mark.parametrize("q,r", [(7, 3), (11, 5), (13, 3), (16, 3), (16, 5), (19, 3)])
def test_count_normalized_sylow_matches_conjugation_oracle(q, r):
    g = sl2_group(q)
    t = g.field.p
    sylows = sylow_char_subgroups(g)
    owner = {m: i for i, T in enumerate(sylows) for m in T.members if m != 0}
    orders = g.element_orders
    # nontrivial elements whose order is a power of r
    r_elems = [int(x) for x in np.flatnonzero((orders > 1) & (r**6 % orders == 0))]
    subs = [subgroup_from_gens(g, [x]) for x in r_elems[:24]] + [sylow(g, r)]
    for sub in subs:
        gens = sub.generating_set()
        expected = sum(
            all(owner[g.mult(g.mult(int(g.inverse[k]), T.members[1]), k)] == i for k in gens)
            for i, T in enumerate(sylows)
        )
        assert count_normalized_sylow(g, sub, t) == expected


def _sylow_buckets_per_element(g):
    """sylow_char_subgroups member lists, one fixed point at a time from
    the eigenvector of each unipotent matrix, in scalar field arithmetic."""
    F = g.field
    t = F.p
    orders = g.element_orders
    buckets = {}
    for i in range(g.order):
        o = int(orders[i])
        if o == 1 or p_part(o, t) != o:
            continue
        m = g.elems[i]
        a = F.sub(int(m[0, 0]), 1)
        b = int(m[0, 1])
        c = int(m[1, 0])
        d = F.sub(int(m[1, 1]), 1)
        if a == 0 and b == 0:
            vec = (F.neg(d), c) if (c or d) else (1, 0)
        else:
            vec = (F.neg(b), a)
        point = (1, F.mul(F.inv(vec[0]), vec[1])) if vec[0] != 0 else (0, 1)
        buckets.setdefault(point, []).append(i)
    return [tuple(sorted([0] + buckets[point])) for point in sorted(buckets)]


@pytest.mark.parametrize("q", SUPPORTED_QS)
def test_sylow_char_subgroups_match_per_element_buckets(q):
    g = sl2_group(q)
    assert [T.members for T in sylow_char_subgroups(g)] == _sylow_buckets_per_element(g)


def _normal_full_sylow_by_mult(g, sub, r):
    """contains_normal_full_sylow as a closure test over g.mult pairs."""
    full = p_part(g.order, r)
    relems = [m for m in sub.members if full % int(g.element_orders[m]) == 0]
    return len(relems) == full and all(
        g.mult(x, y) in set(relems) for x in relems for y in relems
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

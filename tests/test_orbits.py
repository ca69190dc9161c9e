import dataclasses
import hashlib
import json

import numpy as np
import pytest

from chardeg import kernels
from chardeg.groups import sl2_group
from chardeg.linalg import mat_inv
from chardeg.modules import (
    GModule,
    dual,
    irreducible_catalog,
    natural_restricted,
    perm_module,
    trivial_module,
)
from chardeg.orbits import (
    covering_classify,
    orbit_decompose,
    stabilizer,
    sylow_centralizer_condition,
    unpack_key,
)
from oracles import orbit_stabilizers_by_inversion, same_orbit_stabilizers, whole_group


@pytest.fixture(scope="module")
def g4():
    return sl2_group(4)


@pytest.fixture(scope="module")
def g5():
    return sl2_group(5)


@pytest.fixture(scope="module")
def cat42(g4):
    return irreducible_catalog(g4, 2, 8)


def test_pack_unpack_round_trip():
    for key in (0, 1, 37, 80):
        assert sum(d * 3**i for i, d in enumerate(unpack_key(key, 3, 4))) == key


def test_zero_vector_singleton_orbit(g5):
    nat = natural_restricted(5, g5)
    rep = orbit_decompose(nat)
    assert rep.orbits[0].rep_key == 0
    assert rep.orbits[0].size == 1


def test_stabilizer_of_zero_is_whole_group(g5):
    nat = natural_restricted(5, g5)
    assert stabilizer(nat, [0, 0]).order == g5.order


def test_natural_module_orbit_and_stabilizer(g5):
    nat = natural_restricted(5, g5)
    rep = orbit_decompose(nat)
    assert rep.sizes() == [1, 24]
    assert stabilizer(nat, [1, 0]).order == 5


def test_orbit_stabilizer_identity(g4, cat42):
    for e in cat42.entries:
        rep = orbit_decompose(e.module)
        for o in rep.orbits:
            assert o.size * o.stab_order == g4.order
        assert sum(o.size for o in rep.orbits) == 2**e.dim


def _brute_force_orbit(m, key):
    """The distinct keys of the images of one vector under every group element."""
    p, d = m.field.p, m.dim
    images = m.element_images @ np.asarray(unpack_key(key, p, d)) % p
    return np.unique(images @ p ** np.arange(d))


def test_flags_constant_on_orbits(g4, cat42):
    """The covering condition is conjugation-invariant, so recomputing a
    flag on a non-representative member must agree with the orbit flag."""
    from chardeg.groups import contains_normal_full_sylow

    omega = cat42.select(dim=4, ell=1)[0].module
    rep = covering_classify(omega, r=3)
    by_rep = {o.rep_key: o for o in rep.orbits}
    rng = np.random.default_rng(6)
    for key in rng.integers(1, 16, size=8):
        orb = by_rep[min(_brute_force_orbit(omega, int(key)))]
        stab = stabilizer(omega, unpack_key(int(key), 2, 4))
        assert contains_normal_full_sylow(g4, stab, 3) == orb.flags["minus"]
        assert contains_normal_full_sylow(g4, stab, 2) == orb.flags["char"]


def test_covering_disjointness(g4, cat42):
    """Nonzero flag sets are pairwise disjoint on fixed-point-free modules."""
    omega = cat42.select(dim=4, ell=1)[0].module
    rep = covering_classify(omega, r=3)
    for o in rep.orbits:
        if o.rep_key == 0:
            continue
        assert sum(1 for v in o.flags.values() if v) <= 1


def test_covering_requires_odd_divisors(g4, cat42):
    omega = cat42.select(dim=4, ell=1)[0].module
    with pytest.raises(Exception):
        covering_classify(omega, r=5)  # 5 does not divide q - 1 = 3
    with pytest.raises(Exception):
        covering_classify(omega, s=3)  # 3 does not divide q + 1 = 5


def test_covering_refuses_an_odd_non_prime_divisor():
    from chardeg.modules import ModuleError

    m = natural_restricted(19)
    with pytest.raises(ModuleError, match="r=9 must be an odd prime divisor"):
        covering_classify(m, r=9)  # 9 is odd and divides q - 1 = 18
    with pytest.raises(ModuleError, match="s=9 must be an odd prime divisor"):
        covering_classify(natural_restricted(17), s=9)  # 9 is odd and divides q + 1 = 18


def test_sylow_centralizer_condition_examples(g4):
    nat = orbit_decompose(natural_restricted(4, g4))
    assert sylow_centralizer_condition(nat, 2)
    assert not sylow_centralizer_condition(nat, 3)
    g7 = sl2_group(7)
    three = orbit_decompose(irreducible_catalog(g7, 2, 8).select(dim=3)[0].module)
    assert not sylow_centralizer_condition(three, 3)
    assert not sylow_centralizer_condition(three, 7)


def test_each_stabilizer_and_prime_is_tested_once(g5, monkeypatch):
    """covering_classify and sylow_centralizer_condition test the normal
    Sylow condition once per distinct (stabilizer members, prime) pair."""
    import chardeg.orbits as orbits

    real = orbits.contains_normal_full_sylow
    calls = []

    def counted(group, sub, r):
        calls.append((sub.members, r))
        return real(group, sub, r)

    monkeypatch.setattr(orbits, "contains_normal_full_sylow", counted)
    rep = covering_classify(perm_module(g5, "projective-points", 3), r=None, s=3)
    pairs = {(o.stab.members, p) for o in rep.orbits for p in (3, 5)}
    assert len(rep.orbits) > len({o.stab.members for o in rep.orbits})
    # one Subgroup object per distinct stabilizer
    assert len({id(o.stab) for o in rep.orbits}) == len({o.stab.members for o in rep.orbits})
    assert sorted(calls) == sorted(pairs)
    for o in rep.orbits:
        assert o.flags == {"plus": real(g5, o.stab, 3), "char": real(g5, o.stab, 5)}
    calls.clear()
    assert not sylow_centralizer_condition(rep, 2)
    nonzero = {o.stab.members for o in rep.orbits if o.rep_key != 0}
    assert len(calls) == len(set(calls)) and {m for m, _ in calls} <= nonzero
    calls.clear()
    nat = orbit_decompose(natural_restricted(5, g5))
    assert sylow_centralizer_condition(nat, 5)
    assert calls == [(nat.orbits[1].stab.members, 5)]


def test_sylow_centralizer_condition_natural_q8():
    # the 2a-dimensional natural module in characteristic 2, a = 3
    m = natural_restricted(8)
    assert m.dim == 6
    report = orbit_decompose(m)
    assert sylow_centralizer_condition(report, 2)
    assert not sylow_centralizer_condition(report, 7)


def test_perm_module_orbits_match_action(g5):
    m = perm_module(g5, "projective-points", 3)
    rep = orbit_decompose(m)
    # the permutation module has basis-vector orbits of length 6 (transitive)
    assert 6 in rep.sizes()


def _monomial_p11():
    """SL2(11) on F3^12 in the basis f_j = s_j e_perm(j); s_j in {1, 2} is
    its own inverse mod 3.  perm is not an involution, so neither is the
    conjugating matrix."""
    rng = np.random.default_rng(12)
    m = perm_module(sl2_group(11), "projective-points", 3)
    perm, s = rng.permutation(12), rng.integers(1, 3, 12)
    assert (perm[perm] != np.arange(12)).any()
    images = [(s[:, None] * g[np.ix_(perm, perm)] * s[None, :]) % 3 for g in m.gen_images]
    return GModule(m.group, m.field, images, check=False)


STABILIZER_ORACLE_MODULES = {
    "sl2:11 on F3^12, monomial": _monomial_p11,
    "sl2:13 on F2^14": lambda: perm_module(sl2_group(13), "projective-points", 2),
    "dual natural q=16": lambda: dual(natural_restricted(16)),
    "dual natural q=25": lambda: dual(natural_restricted(25)),
    "dual natural q=27": lambda: dual(natural_restricted(27)),
    "sl2:5 trivial": lambda: trivial_module(sl2_group(5), 3),
}


@pytest.mark.parametrize("label", list(STABILIZER_ORACLE_MODULES))
def test_orbit_stabilizers_match_image_table(label):
    """The tree-walk stabilizers against the image-table fixed-point test,
    and the orbits against the image table's orbits of the representatives."""
    m = STABILIZER_ORACLE_MODULES[label]()
    group = m.group
    inv_gens = np.stack([mat_inv(m.field, g) for g in m.gen_images])
    reps, sizes, members = kernels.orbit_stabilizers(inv_gens, m.field.p, m.dim, group.parent, group.parent_gen)
    assert reps.dtype == sizes.dtype == np.int64
    # each rep is the least key of its orbit, so distinct reps lie in distinct
    # orbits, and the sizes summing to the space leaves no orbit out
    assert (np.diff(reps) > 0).all()
    for key, size in zip(reps.tolist(), sizes.tolist()):
        orbit = _brute_force_orbit(m, key)
        assert orbit.min() == key and orbit.size == size
    assert int(sizes.sum()) == m.field.p**m.dim
    assert len(members) == reps.size
    if label.startswith("sl2:11"):
        # more representatives than one block of the walk, and a kernel {+-1}
        assert reps.size > kernels.STAB_BLOCK_CELLS // group.order
        assert len(m.kernel_indices) == 2
    report = orbit_decompose(m)
    for key, mem, orb in zip(reps.tolist(), members, report.orbits):
        ref = stabilizer(m, unpack_key(key, m.field.p, m.dim)).members
        assert tuple(mem.tolist()) == ref
        assert orb.stab.members == ref and orb.stab_order == len(ref)


def test_orbit_stabilizers_match_forward_then_invert_oracle():
    """The kernel fed the inverse generator images gives the bytes of the
    forward images' permutations inverted in place; fed the forward images
    of generators that are not involutions, it does not."""
    m = _monomial_p11()
    group = m.group
    tree = (group.parent, group.parent_gen)
    assert all((kernels.mul_mod(g, g, 3) != np.eye(m.dim, dtype=np.int64)).any() for g in m.gen_images)
    gens = np.stack(m.gen_images)
    inv_gens = np.stack([mat_inv(m.field, g) for g in m.gen_images])
    want = orbit_stabilizers_by_inversion(gens, 3, m.dim, *tree)
    assert same_orbit_stabilizers(kernels.orbit_stabilizers(inv_gens, 3, m.dim, *tree), want)
    forward = kernels.orbit_stabilizers(gens, 3, m.dim, *tree)[2]
    assert any(not np.array_equal(a, b) for a, b in zip(forward, want[2]))


COVERING_P11_SHA256 = "d58a549a22c4ac2f80b76a120d36b5d93f2e802a7a49e267081134b8dd2b45fa"


def test_covering_classify_p11_bytes_are_pinned():
    """Orbit representatives, stabilizer orders, the minus/plus/char flags
    and the covering summary of SL2(11) on F3^12, byte for byte."""
    report = covering_classify(_monomial_p11(), r=5, s=3)
    data = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest() == COVERING_P11_SHA256


def test_orbit_stabilizer_stays_out_of_json_repr_and_equality(g5):
    orb = orbit_decompose(natural_restricted(5, g5)).orbits[1]
    assert orb.stab.order == orb.stab_order == 5
    assert "stab" not in orb.to_json() and "stab=" not in repr(orb)
    assert orb == dataclasses.replace(orb, stab=whole_group(g5))


def test_semidirect_and_sylow_condition_reuse_orbit_stabilizers(monkeypatch):
    """semidirect_degrees and the Sylow condition read Orbit.stab; the
    image-table stabilizer is not called again."""
    import chardeg.classify as classify
    import chardeg.orbits as orbits
    import chardeg.verify as verify

    def refuse(*args):
        raise AssertionError("stabilizer recomputed")

    for mod in (classify, orbits, verify):
        monkeypatch.setattr(mod, "stabilizer", refuse, raising=False)
    assert classify.semidirect_degrees(natural_restricted(8)).degrees
    assert orbits.sylow_centralizer_condition(orbit_decompose(natural_restricted(4)), 2)

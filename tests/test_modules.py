import functools
import hashlib
import itertools
import json

import numpy as np
import pytest

from chardeg.fields import field_make
from chardeg.groups import (
    FIELD_ORDER_CAP,
    GroupTable,
    _batch_mul,
    sl2_group,
    sylow_char_subgroups,
)
from chardeg.kernels import rref_prime
from chardeg.linalg import identity_matrix, mat_inv, nullspace
from chardeg.numtheory import p_part, prime_divisors, prime_powers
from chardeg.modules import (
    CHOP_DIM_CAP,
    GModule,
    ModuleError,
    chop,
    dual,
    endo_dim,
    fixed_subspace,
    hom_space_dim,
    irreducible_catalog,
    irreducible_count,
    is_isomorphic,
    module_from_json,
    natural_restricted,
    perm_module,
    regular_class_cycles,
    spin,
    tensor,
    tensor_profile,
    trivial_module,
)
from chardeg.verify import CATALOG_SPECS, Harness
from oracles import (
    chop_every_module_catalog,
    full_chop,
    full_meataxe_step,
    is_irreducible,
    replay_image,
    replay_kernel,
    subgroup_from_gens,
    trivial_subgroup,
    validate_homomorphism,
    whole_group,
)


@pytest.fixture(scope="module")
def g7():
    return sl2_group(7)


@pytest.fixture(scope="module")
def g5():
    return sl2_group(5)


@pytest.fixture(scope="module")
def g4():
    return sl2_group(4)


def test_perm_module_dims(g7, g4):
    assert perm_module(g7, "projective-points", 2).dim == 8
    assert perm_module(g4, "projective-points", 3).dim == 5
    assert perm_module(sl2_group(13), "nonzero-vectors", 3).dim == 168


def test_perm_module_is_homomorphism(g7):
    m = perm_module(g7, "projective-points", 2)
    assert validate_homomorphism(m, samples=100)


def test_natural_restricted_shapes():
    assert natural_restricted(9).dim == 4
    assert natural_restricted(5).dim == 2
    m4 = natural_restricted(4)
    assert m4.dim == 4
    assert m4.field.p == 2
    assert validate_homomorphism(m4, samples=60)


def test_natural_restricted_endo_dims():
    # scalar restriction keeps the extension field as endomorphisms
    assert endo_dim(natural_restricted(4)) == 2
    assert endo_dim(natural_restricted(9)) == 2
    assert endo_dim(natural_restricted(5)) == 1


def test_endo_dim_exhaustive_oracle():
    """Brute-force commutant count over F_2 for the 4-dim scalar restriction."""
    m = natural_restricted(4)
    gens = m.gen_images
    count = 0
    for bits in range(1 << 16):
        X = np.array([(bits >> k) & 1 for k in range(16)], dtype=np.int64).reshape(4, 4)
        if all(np.array_equal((g @ X) % 2, (X @ g) % 2) for g in gens):
            count += 1
    # the commutant is a vector space of size 2^ell
    assert count == 2 ** endo_dim(m)


def test_tensor_and_dual_dims(g5):
    nat = natural_restricted(5, g5)
    t = tensor(nat, nat)
    assert t.dim == 4
    d = dual(nat)
    assert d.dim == 2
    assert is_isomorphic(dual(d), nat)


def test_natural_module_self_dual(g5):
    nat = natural_restricted(5, g5)
    assert hom_space_dim(nat, dual(nat)) > 0  # symplectic self-pairing


def test_dual_of_trivial(g5):
    t = trivial_module(g5, 3)
    assert is_isomorphic(dual(t), t)


def test_chop_of_projective_perm_matches_bruteforce(g7):
    """Independent oracle: the full submodule lattice at dimension 8 over F_2."""
    m = perm_module(g7, "projective-points", 2)
    factors = sorted(f.dim for f in chop(m))
    assert factors == sorted(_bruteforce_composition_dims(m))
    assert sum(factors) == 8
    assert set(factors) <= {1, 3, 8}


def _bruteforce_composition_dims(m):
    """Composition factor dimensions by exhaustive submodule search (F_2)."""
    assert m.field.p == 2 and m.dim <= 8
    act = [g.T.copy() for g in m.gen_images]
    d = m.dim
    submods = {}
    for bits in range(1, 1 << d):
        v = np.array([(bits >> k) & 1 for k in range(d)], dtype=np.int64)
        W = spin(m.field, [v], act, d)
        key = rref_prime(W, 2)[0].tobytes()
        submods.setdefault(W.shape[0], {})[key] = W
    # close under sums to get the full lattice
    all_subs = {W.tobytes(): W for bydim in submods.values() for W in bydim.values()}
    changed = True
    while changed:
        changed = False
        items = list(all_subs.values())
        for A, B in itertools.combinations(items, 2):
            stacked = np.concatenate([A, B])
            R, piv, _ = rref_prime(stacked, 2)
            W = R[: piv.size]
            if W.tobytes() not in all_subs and piv.size < d:
                all_subs[W.tobytes()] = W
                changed = True
    # walk a maximal chain 0 < W_1 < ... < V
    dims = []
    current = np.zeros((0, d), dtype=np.int64)
    current_rank = 0
    while current_rank < d:
        best = None
        for W in all_subs.values():
            r = W.shape[0]
            if r <= current_rank:
                continue
            stacked = np.concatenate([current, W])
            if rref_prime(stacked, 2)[1].size == r:  # current <= W
                if best is None or r < best.shape[0]:
                    best = W
        if best is None:
            best = identity_matrix(d)
        dims.append(best.shape[0] - current_rank)
        current = best
        current_rank = best.shape[0]
    return dims


def _split_by_change_of_basis(m, basis_rows):
    """Oracle: the blocks of C^-1 A C, where C holds the RREF basis rows as
    its first columns and the unit vectors of the non-pivot columns after."""
    F, d, p = m.field, m.dim, m.field.p
    R, piv, _ = rref_prime(basis_rows, p)
    w = piv.size
    comp = [c for c in range(d) if c not in piv]
    C = np.zeros((d, d), dtype=np.int64)
    C[:, :w] = R[:w].T
    for j, c in enumerate(comp):
        C[c, w + j] = 1
    Ci = mat_inv(F, C)
    blocks = [(Ci @ A % p) @ C % p for A in m.gen_images]
    invariant = not any(B[w:, :w].any() for B in blocks)
    return invariant, [B[:w, :w] for B in blocks], [B[w:, w:] for B in blocks]


@pytest.mark.parametrize("q,r", [(5, 2), (5, 3), (7, 2), (7, 3)])
def test_split_module_matches_change_of_basis(q, r, monkeypatch):
    """Every split that chop makes of P1 (x) P1, and a random subspace of the
    same dimension, against the change-of-basis blocks."""
    import chardeg.modules as modules

    real = modules.split_module
    rng = np.random.default_rng(q * r)
    splits = []

    def checked(m, basis_rows):
        sub, quot = real(m, basis_rows)
        invariant, subs, quots = _split_by_change_of_basis(m, basis_rows)
        assert invariant
        for got, want in zip(sub.gen_images + quot.gen_images, subs + quots):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        other = rng.integers(0, r, size=basis_rows.shape).astype(np.int64)
        if 0 < rref_prime(other, r)[1].size < m.dim and not _split_by_change_of_basis(m, other)[0]:
            with pytest.raises(ModuleError, match="not invariant"):
                real(m, other)
        splits.append(m.dim)
        return sub, quot

    monkeypatch.setattr(modules, "split_module", checked)
    p1 = perm_module(sl2_group(q), "projective-points", r)
    factors = chop(tensor(p1, p1), seed=7)
    assert sum(f.dim for f in factors) == (q + 1) ** 2
    assert len(splits) == len(factors) - 1


def test_chop_dimension_sum(g5):
    m = perm_module(g5, "nonzero-vectors", 2)
    factors = chop(m)
    assert sum(f.dim for f in factors) == 24
    for f in factors:
        assert is_irreducible(f)


def test_is_irreducible_examples(g5):
    nat = natural_restricted(5, g5)
    assert is_irreducible(nat)
    doubled = _direct_sum(nat, nat)
    assert not is_irreducible(doubled)


def _direct_sum(m1, m2):
    from chardeg.modules import GModule

    images = []
    for a, b in zip(m1.gen_images, m2.gen_images):
        M = np.zeros((m1.dim + m2.dim,) * 2, dtype=np.int64)
        M[: m1.dim, : m1.dim] = a
        M[m1.dim :, m1.dim :] = b
        images.append(M)
    return GModule(m1.group, m1.field, images, check=False)


def test_hom_dim_detects_multiplicity(g5):
    nat = natural_restricted(5, g5)
    doubled = _direct_sum(nat, nat)
    assert hom_space_dim(nat, doubled) == 2 * hom_space_dim(nat, nat)


def test_fixed_subspace_examples(g7):
    T = sylow_char_subgroups(g7)[0]
    cat = irreducible_catalog(g7, 2, 8)
    three = cat.select(dim=3)[0].module
    eight = cat.select(dim=8)[0].module
    assert fixed_subspace(three, T).shape[0] == 0
    assert fixed_subspace(eight, T).shape[0] <= 2
    triv = trivial_module(g7, 2)
    assert fixed_subspace(triv, whole_group(g7)).shape[0] == 1


def test_fixed_subspace_unipotent_on_natural(g5):
    nat = natural_restricted(5, g5)
    T = sylow_char_subgroups(g5)[0]
    assert fixed_subspace(nat, T).shape[0] == 1
    sub = subgroup_from_gens(g5, [T.members[1]])
    assert fixed_subspace(nat, sub).shape[0] == 1


def test_irreducible_count_berman(g7, g5, g4):
    # expected module counts over small fields, from regular classes
    assert irreducible_count(g7, 2) == 4  # 1, 3, 3, 8
    assert irreducible_count(g4, 2) == 3  # 1, 4, 4
    assert irreducible_count(g5, 3) == 5  # 1, 4, 4, 6, 6 over F_3 in some split
    assert irreducible_count(g4, 3) == 3


# r-regular classes of SL2(q) up to r-th powers, one count per catalog the
# acceptance harness builds, as the cycle walk over a `seen` set found them.
CATALOG_SPEC_COUNTS = {
    (4, 2): 3,
    (4, 3): 3,
    (5, 2): 3,
    (5, 3): 5,
    (7, 2): 4,
    (9, 2): 4,
    (9, 3): 6,
    (11, 3): 9,
    (13, 3): 9,
}


def test_irreducible_count_every_catalog_spec():
    assert sorted(CATALOG_SPEC_COUNTS) == sorted((q, r) for q, r, _cap in CATALOG_SPECS)
    for (q, r), count in CATALOG_SPEC_COUNTS.items():
        assert irreducible_count(sl2_group(q), r) == count


def test_small_catalogs_are_seed_independent():
    """The chops are randomized, but a catalog must not depend on the seed:
    every CATALOG_SPECS catalog with q <= 9 writes the same JSON at seeds 1, 7 and 42."""
    small = [(q, r, cap) for q, r, cap in CATALOG_SPECS if q <= 9]
    assert len(small) == 7
    for q, r, cap in small:
        g = sl2_group(q)
        first, *rest = [irreducible_catalog(g, r, cap, seed=seed).to_json() for seed in (1, 7, 42)]
        assert all(other == first for other in rest), (q, r)


def test_irreducible_count_broken_power_map_is_a_group_error(monkeypatch):
    """The power-map cycles are cached per (group, r), so a group of its own
    keeps the broken map from meeting a cached count."""
    import chardeg.modules as modules
    from chardeg.groups import GroupError

    g5 = sl2_group(5)
    involution = int(np.flatnonzero(g5.element_orders == 2)[0])
    monkeypatch.setattr(modules, "_powers", lambda group, xs, n: np.full(len(xs), involution))
    with pytest.raises(GroupError, match="left the regular classes"):
        irreducible_count(g5, 2)
    monkeypatch.setattr(modules, "_powers", lambda group, xs, n: np.zeros(len(xs), dtype=np.int64))
    with pytest.raises(GroupError, match="not a permutation"):
        irreducible_count(g5, 3)


def test_catalog_small_group(g4):
    cat = irreducible_catalog(g4, 2, 8)
    assert cat.complete
    assert cat.nontrivial_dims() == [4, 4]
    ells = sorted(e.ell for e in cat.entries if e.dim == 4)
    assert ells == [1, 2]


def test_catalog_entries_pairwise_noniso(g7):
    cat = irreducible_catalog(g7, 2, 20)
    mods = [e.module for e in cat.entries]
    for a, b in itertools.combinations(mods, 2):
        assert not is_isomorphic(a, b)


@pytest.mark.parametrize("q,r", [(7, 2), (9, 3), (11, 3)])
def test_fingerprint_matches_word_replay(harness, q, r):
    """fingerprint reads class_traces; the oracle replays the generator words
    of the first FINGERPRINT_COUNT elements and takes their traces."""
    from chardeg.modules import FINGERPRINT_COUNT

    for e in harness.catalog(q, r).entries:
        m = e.module
        n = min(FINGERPRINT_COUNT, m.group.order)
        replayed = sorted(int(np.trace(replay_image(m, i))) % r for i in range(n))
        assert e.fingerprint == m.fingerprint() == tuple(replayed)


def test_catalog_fingerprints_deterministic(g7):
    c1 = irreducible_catalog(g7, 2, 20, seed=42)
    c2 = irreducible_catalog(g7, 2, 20, seed=7)
    assert [e.dim for e in c1.entries] == [e.dim for e in c2.entries]
    assert [e.fingerprint for e in c1.entries] == [e.fingerprint for e in c2.entries]


def test_module_json_round_trip(g5):
    nat = natural_restricted(5, g5)
    data = nat.to_json()
    m2 = module_from_json(data)
    assert m2.dim == nat.dim
    assert m2.group.order == g5.order


def test_module_from_json_rejects_extension_field(g5):
    data = trivial_module(g5, 3).to_json()
    data["field"] = field_make(2, 2).to_json()
    with pytest.raises(ModuleError):
        module_from_json(data)


def test_budget_exhaustion_is_inconclusive(g5, monkeypatch):
    """A spent search budget must surface as its own status, never as an answer."""
    import numpy as np

    import chardeg.modules as modules

    monkeypatch.setattr(modules, "ALGEBRA_BUDGET", 0)
    nat = natural_restricted(5, g5)
    with pytest.raises(modules.InconclusiveError):
        modules._meataxe_step(nat, np.random.default_rng(0))


def test_module_images_consistency(g5):
    nat = natural_restricted(5, g5)
    imgs = nat.element_images
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, y = (int(v) for v in rng.integers(0, g5.order, size=2))
        xy = g5.indices_of_matrices(_batch_mul(g5.field, g5.elems[x], g5.elems[y])[None])[0]
        lhs = imgs[xy]
        rhs = imgs[x] @ imgs[y] % 5
        assert np.array_equal(lhs, rhs)


def test_element_images_match_word_replay():
    """The whole-group image walk against replaying each element's generator word."""
    mods = [natural_restricted(q) for q in (5, 9, 16)]
    cat = irreducible_catalog(sl2_group(7), 3, 8)
    mods.append(cat.select(dim=8, faithful=True)[0].module)
    for m in mods:
        imgs = m.element_images
        assert imgs.shape == (m.group.order, m.dim, m.dim)
        for i in range(m.group.order):
            assert np.array_equal(imgs[i], replay_image(m, i))


def test_images_of_unsorted_repeated_positions_match_word_replay():
    """images keeps the order and the repeats of the positions it is given,
    the identity included, and walks only their ancestors."""
    g = sl2_group(9)
    p1 = perm_module(g, "projective-points", 3)
    for m in (natural_restricted(9, g), tensor(p1, p1)):
        positions = [719, 0, 5, 719, 3, 0, 42, 5]
        imgs = m.images(positions)
        assert imgs.shape == (len(positions), m.dim, m.dim)
        for img, i in zip(imgs, positions):
            assert np.array_equal(img, replay_image(m, i))
        assert m.images([]).shape == (0, m.dim, m.dim)


@pytest.mark.parametrize("r", [2, 3])
def test_kernel_of_a_100_dim_module_matches_word_replay(r):
    """kernel_indices reads the class representatives, so it has no dimension
    cap: on the 100-dim P1 x P1 of SL2(9) it is {+-I}, as replaying every
    element's word finds, while the whole image table stays refused."""
    g = sl2_group(9)
    p1 = perm_module(g, "projective-points", r)
    m = tensor(p1, p1)
    assert m.dim == 100
    assert m.kernel_indices == replay_kernel(m) == (0, 75)
    assert not m.is_faithful
    with pytest.raises(ModuleError):
        m.element_images


# -- oracles for the prime-field arithmetic -------------------------------------


@functools.lru_cache(maxsize=None)
def _small_modules(p):
    """Modules over F_p on one group, every vector space of at most 3^6 vectors."""
    if p == 2:
        g = sl2_group(4)
        mods = [natural_restricted(4, g), perm_module(g, "projective-points", 2)]
        mods += [e.module for e in irreducible_catalog(g, 2, 8).entries]
    elif p == 3:
        g = sl2_group(4)
        mods = [perm_module(g, "projective-points", 3)]
        mods += [e.module for e in irreducible_catalog(g, 3, 8).entries]
    else:
        g = sl2_group(5)
        nat = natural_restricted(5, g)
        mods = [nat, dual(nat), tensor(nat, nat), trivial_module(g, 5)]
    return tuple(m for m in mods if p**m.dim <= 3**6)


def _vectors(p, d, lo=0, hi=None):
    """The vectors of F_p^d with keys lo, ..., hi - 1 (all of them by default), one per row."""
    keys = np.arange(lo, p**d if hi is None else min(hi, p**d))
    return (keys[:, None] // p ** np.arange(d)) % p


@pytest.mark.parametrize("q,p", [(4, 2), (9, 3), (5, 5)], ids=["F2", "F3", "F5"])
def test_tensor_images_match_entry_formula(q, p):
    g = sl2_group(q)
    a, b = natural_restricted(q, g), perm_module(g, "projective-points", p)
    t = tensor(a, b)
    db = b.dim
    for A, B, T in zip(a.gen_images, b.gen_images, t.gen_images):
        assert T.shape == (a.dim * db, a.dim * db)
        for i, j, k, l in itertools.product(range(a.dim), range(a.dim), range(db), range(db)):
            assert T[i * db + k, j * db + l] == int(A[i, j]) * int(B[k, l]) % p


@pytest.mark.parametrize("p", [2, 3, 5])
def test_traces_match_diagonal_sums_of_element_images(p):
    for m in _small_modules(p):
        imgs = m.element_images
        diag = [sum(int(imgs[i, k, k]) for k in range(m.dim)) % p for i in range(m.group.order)]
        assert m.class_traces == tuple(diag[int(c)] for c in m.group.class_reps)
        assert m.fingerprint() == tuple(sorted(diag[: min(20, m.group.order)]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fixed_subspace_matches_exhaustive_count(p):
    for m in _small_modules(p):
        g = m.group
        subs = [sylow_char_subgroups(g)[0], whole_group(g), trivial_subgroup(g), subgroup_from_gens(g, [1])]
        # every cyclic Sylow subgroup, and the non-abelian Borel subgroup
        fulls = [p_part(g.order, u) for u in sorted(prime_divisors(g.order))]
        orders = g.element_orders
        subs += [subgroup_from_gens(g, np.flatnonzero(orders == n)[:1]) for n in fulls if n in orders]
        subs.append(subgroup_from_gens(g, g.indices_of_matrices(g.gens[[1, 3]])))
        vecs = _vectors(p, m.dim)
        for sub in subs:
            fixed = np.ones(len(vecs), dtype=bool)
            for x in sub.members:
                fixed &= (vecs @ m.element_images[x].T % p == vecs).all(axis=1)
            fs = fixed_subspace(m, sub)
            assert int(fixed.sum()) == p ** fs.shape[0]
            for v in fs:
                assert fixed[int(v @ p ** np.arange(m.dim))]


def _count_intertwiners(m1, m2):
    """Number of d2 x d1 matrices X with M2 X = X M1 on every generator, by enumeration."""
    p, d1, d2 = m1.field.p, m1.dim, m2.dim
    total = p ** (d1 * d2)
    assert total <= 1 << 20
    count = 0
    for lo in range(0, total, 1 << 14):
        X = _vectors(p, d1 * d2, lo, lo + (1 << 14)).reshape(-1, d2, d1)
        ok = np.ones(X.shape[0], dtype=bool)
        for M1, M2 in zip(m1.gen_images, m2.gen_images):
            ok &= ((M2 @ X - X @ M1) % p == 0).all(axis=(1, 2))
        count += int(ok.sum())
    return count


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hom_space_dim_matches_exhaustive_intertwiners(p):
    if p == 2:
        g = sl2_group(4)
        perm = perm_module(g, "projective-points", 2)
        cat = irreducible_catalog(g, 2, 8)
        pairs = [
            (trivial_module(g, 2), perm),
            (perm, cat.select(dim=4, ell=1)[0].module),
            (natural_restricted(4, g), cat.select(dim=4, ell=2)[0].module),
            (natural_restricted(4, g), cat.select(dim=4, ell=1)[0].module),
        ]
    elif p == 3:
        g = sl2_group(4)
        perm = perm_module(g, "projective-points", 3)
        two = _direct_sum(trivial_module(g, 3), trivial_module(g, 3))
        four = irreducible_catalog(g, 3, 8).select(dim=4)[0].module
        pairs = [(two, perm), (perm, two), (trivial_module(g, 3), four)]
    else:
        g = sl2_group(5)
        nat = natural_restricted(5, g)
        sq = tensor(nat, nat)
        pairs = [(trivial_module(g, 5), sq), (sq, trivial_module(g, 5)), (nat, sq)]
    dims = []
    for m1, m2 in pairs:
        assert m1 is not m2
        dims.append(hom_space_dim(m1, m2))
        assert _count_intertwiners(m1, m2) == p ** dims[-1]
    assert max(dims) > 0


# -- the standard-basis Hom solve against the Kronecker nullspace ---------------


def _kronecker_hom_dim(m1, m2):
    """dim Hom(m1, m2) as the nullspace of the (d1 d2)-unknown Kronecker system.

    With X (d2 x d1) read row by row into a vector x, M2 X is kron(M2, I_d1) x
    and X M1 is kron(I_d2, M1^T) x, so Hom is the nullspace of the stacked
    differences mod p.
    """
    p, i1, i2 = m1.field.p, identity_matrix(m1.dim), identity_matrix(m2.dim)
    blocks = [(np.kron(M2, i1) - np.kron(i2, M1.T)) % p for M1, M2 in zip(m1.gen_images, m2.gen_images)]
    return int(nullspace(m1.field, np.concatenate(blocks, axis=0)).shape[0])


@functools.lru_cache(maxsize=None)
def _hom_families(p):
    """Lists of modules over F_p on one group each: catalog irreducibles with
    ell 1 and 2, a permutation module, a tensor product and a direct sum m + m."""
    if p == 5:
        g = sl2_group(5)
        nat = natural_restricted(5, g)
        first = [e.module for e in irreducible_catalog(g, 5, 8).entries]
        first += [dual(nat), perm_module(g, "projective-points", 5), tensor(nat, nat), _direct_sum(nat, nat)]
        g = sl2_group(7)
        second = [e.module for e in irreducible_catalog(g, 5, 8).entries]
        six = [m for m in second if m.dim == 6]
        second += [perm_module(g, "projective-points", 5), _direct_sum(six[-1], six[-1])]
        return (first, second)
    g = sl2_group(4)
    irr = [e.module for e in irreducible_catalog(g, p, 8).entries]
    big = irr[-1]
    mods = irr + [perm_module(g, "projective-points", p), tensor(irr[1], big), _direct_sum(big, big)]
    if p == 2:
        mods.append(natural_restricted(4, g))
    return (mods,)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hom_space_dim_matches_kronecker_oracle(p):
    """Every ordered pair of each family (both argument orders), with the
    Kronecker system small enough to solve: hom_space_dim, endo_dim and
    is_isomorphic against the oracle.  The pairs cover zero and nonzero
    Hom, unequal dimensions, ell 1 and 2, and a first argument that needs
    more than one seed."""
    seen = set()
    for mods in _hom_families(p):
        for m in mods:
            assert endo_dim(m) == _kronecker_hom_dim(m, m)
            seen.add(("ell", endo_dim(m)))
        for m1, m2 in itertools.product(mods, mods):
            if m1.dim * m2.dim > 400:
                continue
            want = _kronecker_hom_dim(m1, m2)
            assert hom_space_dim(m1, m2) == want, (m1.dim, m2.dim)
            assert is_isomorphic(m1, m2) == (m1.dim == m2.dim and want > 0)
            seeds = int((_unit_closure(m1)[1] < 0).sum())
            seen |= {("zero", want == 0), ("unequal", m1.dim != m2.dim), ("seeds", seeds > 1)}
    for flag in ("zero", "unequal", "seeds"):
        assert (flag, True) in seen and (flag, False) in seen
    assert ("ell", 1) in seen and ("ell", 2) in seen


def _unit_closure(m):
    """The closure hom_space_dim solves on: the unit vectors spun by the
    generators' column action, as (reduced basis, codes, recorded vectors)."""
    from chardeg.modules import _spin

    basis, rounds = _spin(m.field, identity_matrix(m.dim), [M.T for M in m.gen_images], m.dim)
    return basis, np.concatenate([c for c, _ in rounds]), np.concatenate([v for _, v in rounds])


def test_standard_basis_words_rebuild_the_basis(g5):
    """The closure's tree rebuilds a basis: each word is its parent imaged by
    its generator, the seeds are the first unit vectors outside the span so
    far, taken in order, the words are independent, and they are the
    vectors that _spin records."""
    nat = natural_restricted(5, g5)
    for m in (nat, _direct_sum(nat, nat), _direct_sum(trivial_module(g5, 5), nat), tensor(nat, nat)):
        d, g = m.dim, len(m.gen_images)
        basis, codes, recorded = _unit_closure(m)
        assert basis.shape == (d, d) and codes.shape == (d,)
        unit = identity_matrix(d)
        words = np.zeros((d, d), dtype=np.int64)
        for j, code in enumerate(codes.tolist()):
            if code >= 0:
                parent, k = divmod(code, g)
                assert parent < j
                words[j] = m.gen_images[k] @ words[parent] % 5
            else:
                u = -1 - code
                words[j] = unit[u]
                for v in range(u + 1):
                    spanned = rref_prime(np.concatenate([words[:j], unit[v : v + 1]]), 5)[1].size == j
                    assert spanned == (v < u)
        assert rref_prime(words, 5)[1].size == d
        assert np.array_equal(recorded, words)
        seeds = [-1 - c for c in codes.tolist() if c < 0]
        assert seeds == sorted(seeds)
    doubled = _unit_closure(_direct_sum(nat, nat))[1]
    assert np.flatnonzero(doubled < 0).tolist() == [0, 2]


# sha256 of the chop factors' generator images, each as little-endian int64
# bytes, factor by factor in chop order: the tensor squares of the
# projective-line permutation modules, (q, r) -> {chop seed: digest}.  The
# factors' bases are part of the output (`module select --out` writes them),
# so a faster product or echelon kernel must keep every byte.
CHOP_DIGESTS = {
    (9, 2): {
        7: "bafdf2b2e3554cb20877f4cdf4c1570bec4c334ed4679d57975c773131686e80",
        42: "85bf61c6bc49c45984d232267e03a76dd5998845fe24656477ede800f415fd47",
    },
    (9, 3): {
        7: "47cd496627a16ac166936308326d19d66d16e7fa3081f4ac5996e43e25423494",
        42: "1c22e00a10a09a819ec6c769d90234a34fd3a5a93565a87d67fc3ab851be7720",
    },
    (9, 5): {
        7: "e61bd2a7b708287f4c3a58ffa5d2f0e3b0abdc0f5025babbd0ee713cf9fd47ab",
        42: "3fc2f4e56c4c39b393c8a0fc9068fc42380d23433df6af52533c684b1d4356ba",
    },
    (11, 2): {
        7: "adb6f4532bd2623c6d3313bef5d1ef6404f95de780efff7674d5d5aea92bcfab",
        42: "d6da503405fd321425e83d43fabaee25c5754e8c516f9c9f2ab5e8853beb4e1f",
    },
}


@pytest.mark.parametrize("q,r", list(CHOP_DIGESTS), ids=[f"sl2:{q}/F{r}" for q, r in CHOP_DIGESTS])
def test_chop_factor_bytes_are_pinned(q, r):
    proj = perm_module(sl2_group(q), "projective-points", r)
    square = tensor(proj, proj)
    for seed, want in CHOP_DIGESTS[(q, r)].items():
        h = hashlib.sha256()
        for factor in chop(square, seed=seed):
            for img in factor.gen_images:
                h.update(np.ascontiguousarray(img, dtype="<i8").tobytes())
        assert h.hexdigest() == want, f"chop seed {seed}"


def _json_sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _duals_found_once(cat) -> bool:
    """Each entry's dual is isomorphic to exactly one entry: the catalog
    search tests no dual, so its closure rule must keep the entries dual-closed."""
    mods = [e.module for e in cat.entries]
    return all(sum(is_isomorphic(dual(m), have) for have in mods) == 1 for m in mods)


# sha256 of the JSON list of every entry's module in each CATALOG_SPECS
# catalog at seed 42, (q, r) -> digest
CATALOG_MODULE_DIGESTS = {
    (4, 2): "be006a935d76e0e68b566c6ebf660c5b630adb605ee721983c1eeae8b876ee82",
    (4, 3): "ad8c1f1e377e4f9916326c6a2f2c576498bc3ec6e8024c3e42a2f56118aa9424",
    (5, 2): "b42ebf785589b9800fec7e9b8e3b16cf7f5c5734aac0deb6599e023dc28e96d8",
    (5, 3): "7c83387ec976e53cb4139b2839133f2a0138380a8a43562b7d752b0efffa6d97",
    (7, 2): "46ae32b2f4904b0bd45722d45b38253c97517088d13559e462705d9bb95c4354",
    (9, 2): "5749635226e9ba8dac1bc86986850ec6da5baaeb876e607f1beac6d8dcfcb669",
    (9, 3): "317e813f4f0ca6339211609292a7421e1e3087330ed79f85f051e36b69381f7b",
    (11, 3): "fb6421d42b0650d1fd3f06eb20bba3cd4c2723d857c5c60e186be14a63feeb5d",
    (13, 3): "93ff122e45209327facf8c910de210636af3287b1902f722e61104a438168e4f",
}


def test_catalog_module_bytes_are_pinned(harness):
    assert list(CATALOG_MODULE_DIGESTS) == [(q, r) for q, r, _cap in CATALOG_SPECS]
    for (q, r), want in CATALOG_MODULE_DIGESTS.items():
        cat = harness.catalog(q, r)
        modules = [e.module.to_json() for e in cat.entries]
        assert _json_sha256(modules) == want, f"sl2:{q}/F{r}"
        assert _duals_found_once(cat), f"sl2:{q}/F{r}"


# the same digests at harness seed 7, (q, r) -> digest
CATALOG_MODULE_DIGESTS_SEED_7 = {
    (4, 2): "37629cc583b62307afb1c6fae4e85d7f57331c57432143e01d193ec3c74b9dbd",
    (4, 3): "ad8c1f1e377e4f9916326c6a2f2c576498bc3ec6e8024c3e42a2f56118aa9424",
    (5, 2): "94fa2a40bed5c8b88265cb61950cd079edfcaa6669baf4e85e5b0d00e186a861",
    (5, 3): "7c83387ec976e53cb4139b2839133f2a0138380a8a43562b7d752b0efffa6d97",
    (7, 2): "ed72d23c79b5fdafbffe1fb07b803a2265a39176a1330e2e441c793118cb4fba",
    (9, 2): "0bc1138ed35fb058feb78a54afbe9eebb05d09af031393e1a25374846fed87c1",
    (9, 3): "4b6597b92f068ed883eb886ee2c21d3527d0dd2869431d386aa5bba56b1b1fe9",
    (11, 3): "89baee613c049f1b4116238d68a1c513086abc5cea480c4e17e70dbe5f21b800",
    (13, 3): "e22210ca0d7915fc194e0078837ea282d02d37c5cd3243bc9dbb81a111747104",
}


def test_catalog_module_bytes_are_pinned_at_seed_7():
    """A second seed: chop seeds its generator from the harness seed, so the
    catalog modules differ from seed 42's, and a change to the chop's path
    could show at one seed and not the other."""
    assert list(CATALOG_MODULE_DIGESTS_SEED_7) == [(q, r) for q, r, _cap in CATALOG_SPECS]
    harness = Harness(seed=7)
    for (q, r), want in CATALOG_MODULE_DIGESTS_SEED_7.items():
        cat = harness.catalog(q, r)
        modules = [e.module.to_json() for e in cat.entries]
        assert _json_sha256(modules) == want, f"sl2:{q}/F{r}"
        assert _duals_found_once(cat), f"sl2:{q}/F{r}"


# (complete, entry count, sha256 of the catalog JSON and the JSON list of its
# entries' modules) at cap 36 and seed 42: sl2:9/F5 completes only after a
# tensor round, and sl2:19/F2 stalls with 3 of 5 found, so each way the
# search stops is pinned
OUTSIDE_SPECS_CATALOGS = {
    (9, 5): (True, 8, "724b770e566816f299fbde6bac9c651f66ff7c3620de43ca88e24409bc06073f"),
    (19, 2): (False, 3, "fcd1869b8ea876b27dc30446b0ecac366c8ca6e786e6de78e866c31ee7cbfa63"),
}


def test_catalogs_outside_the_specs_are_pinned():
    for (q, r), (complete, count, want) in OUTSIDE_SPECS_CATALOGS.items():
        cat = irreducible_catalog(sl2_group(q), r, 36, seed=42)
        assert (cat.complete, len(cat.entries)) == (complete, count)
        modules = [e.module.to_json() for e in cat.entries]
        assert _json_sha256([cat.to_json(), modules]) == want, f"sl2:{q}/F{r}"
        assert _duals_found_once(cat), f"sl2:{q}/F{r}"


def _spy_steps(monkeypatch):
    """Wrap modules._meataxe_step and modules.spin: each step appends a record
    (module, known, verdict, spins during the step, generator state after)."""
    import chardeg.modules as modules

    steps, spins = [], [0]
    step, spin_fn = modules._meataxe_step, modules.spin

    def counted_spin(*args):
        spins[0] += 1
        return spin_fn(*args)

    def recorded_step(m, rng, known=False):
        before = spins[0]
        verdict, W = step(m, rng, known=known)
        steps.append((m, known, verdict, spins[0] - before, rng.bit_generator.state))
        return verdict, W

    monkeypatch.setattr(modules, "spin", counted_spin)
    monkeypatch.setattr(modules, "_meataxe_step", recorded_step)
    return steps


def _factor_digests(factors) -> list[str]:
    return [hashlib.sha256(b"".join(g.tobytes() for g in f.gen_images)).hexdigest() for f in factors]


@pytest.mark.parametrize("q,r", list(CHOP_DIGESTS), ids=[f"sl2:{q}/F{r}" for q, r in CHOP_DIGESTS])
def test_chop_matches_the_certify_every_step_oracle(q, r, monkeypatch):
    """chop against the chop whose every step spins in full: the same factor
    bytes in order and the same generator state after every step, with the
    replaying step taken on some module at every seed."""
    proj = perm_module(sl2_group(q), "projective-points", r)
    square = tensor(proj, proj)
    steps = _spy_steps(monkeypatch)
    for seed in range(1, 6):
        steps.clear()
        want_states: list = []
        want = _factor_digests(full_chop(square, seed, want_states))
        assert _factor_digests(chop(square, seed=seed)) == want, f"chop seed {seed}"
        assert [state for *_, state in steps] == want_states, f"chop seed {seed}"
        assert any(known for _, known, *_ in steps), f"chop seed {seed}"


def test_replay_spends_the_budget_like_the_full_step(monkeypatch):
    """With no kernel small enough to certify from, the replaying step draws
    the whole budget and raises the full step's error, leaving the generator
    where the full step leaves it."""
    import chardeg.modules as modules

    m = natural_restricted(9)
    assert is_irreducible(m) and m.dim == 4
    monkeypatch.setattr(modules, "LINE_ENUM_LIMIT", 0)
    monkeypatch.setattr(modules, "ALGEBRA_BUDGET", 6)
    outcomes = []
    for step in (full_meataxe_step, modules._meataxe_step, functools.partial(modules._meataxe_step, known=True)):
        rng = np.random.default_rng(11)
        with pytest.raises(modules.InconclusiveError) as err:
            step(m, rng)
        outcomes.append((str(err.value), rng.bit_generator.state))
    assert outcomes[0][0] == "no decision for a 4-dimensional module within 6 tries"
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


def test_a_repeated_factor_is_certified_without_a_spin(monkeypatch):
    """Chop seed 42 of the sl2:11/F2 square meets its two 24-dim factors in
    turn: the first takes the full step, the second, isomorphic to it, takes
    the replay and no spin, and so does every later repeat."""
    proj = perm_module(sl2_group(11), "projective-points", 2)
    steps = _spy_steps(monkeypatch)
    chop(tensor(proj, proj), seed=42)
    certified = []
    for m, known, verdict, spins, _ in steps:
        repeat = any(is_isomorphic(have, m) for have in certified)
        assert known == repeat and (spins == 0) == repeat, m.dim
        if verdict == "irr" and not repeat:
            certified.append(m)
    assert [m.dim for m, known, *_ in steps if m.dim == 24] == [24, 24]
    assert [known for m, known, *_ in steps if m.dim == 24] == [False, True]


def test_a_certified_dimension_alone_takes_the_full_step(monkeypatch):
    """The two 3-dim irreducibles of SL2(7) over F2 are duals, not isomorphic:
    with one certified, a chop of the other takes the full step, while a chop
    of the certified one replays."""
    three, other = (e.module for e in irreducible_catalog(sl2_group(7), 2, 36).select(dim=3))
    assert not is_isomorphic(three, other)
    steps = _spy_steps(monkeypatch)
    assert chop(other, seed=5, certified=[three]) == [other]
    assert chop(three, seed=5, certified=[three]) == [three]
    assert [(known, verdict, spins > 0) for _, known, verdict, spins, _ in steps] == [
        (False, "irr", True),
        (True, "irr", False),
    ]


def test_chop_extends_the_ledger_with_its_new_types_in_place(monkeypatch):
    """chop appends to the caller's ledger each factor of a type the ledger
    lacks, the returned object itself, in factor order (the ledger's trivial
    module catches the 1-dim factors).  A second chop of the same module at
    the same seed, handed that ledger, certifies every factor by the replay,
    with no spin, adds nothing and returns the same bytes."""
    proj = perm_module(sl2_group(11), "projective-points", 2)
    square = tensor(proj, proj)
    trivial = trivial_module(square.group, 2)
    ledger = [trivial]
    factors = chop(square, seed=42, certified=ledger)
    new: list = []
    for f in factors:
        if not any(is_isomorphic(have, f) for have in [trivial, *new]):
            new.append(f)
    assert any(f.dim == 1 for f in factors) and len(new) > 1
    assert len(ledger) == 1 + len(new)
    assert all(a is b for a, b in zip(ledger, [trivial, *new]))
    steps = _spy_steps(monkeypatch)
    again = chop(square, seed=42, certified=ledger)
    assert len(ledger) == 1 + len(new)
    assert _factor_digests(again) == _factor_digests(factors)
    certifying = [(known, spins) for _, known, verdict, spins, _ in steps if verdict == "irr"]
    assert certifying and all(known and spins == 0 for known, spins in certifying)


def test_no_hom_pair_is_solved_twice_in_a_catalog_build(monkeypatch):
    """Each isomorphism type is decided once per build: no (source, target)
    pair of modules reaches the Hom solve twice.  The spy keeps every module
    it sees alive, so no id is reused by another module."""
    import chardeg.modules as modules

    pairs: list = []
    solve = modules.hom_space_dim

    def recorded_solve(m1, m2):
        pairs.append((m1, m2))
        return solve(m1, m2)

    monkeypatch.setattr(modules, "hom_space_dim", recorded_solve)
    for q, r, cap in ((7, 2, 20), (9, 5, 36)):
        pairs.clear()
        irreducible_catalog(sl2_group(q), r, cap, seed=42)
        keys = [(id(a), id(b)) for a, b in pairs]
        assert keys and len(set(keys)) == len(keys), f"sl2:{q}/F{r}"


# sha256 of the catalog JSON and the JSON list of its entries' modules at cap
# 36 and seed 42, for the Borel subgroup of SL2(p) over F_p, p -> digest.  Its
# unipotent radical is a normal p-group, so its irreducibles are the p - 1
# characters of the torus: nontrivial 1-dim types, which the chop gate decides
BOREL_CATALOG_DIGESTS = {
    5: "ec9cc346cb2a5966cb794723a4d6c040f7d6355ce4beb93b35d80595e6bc145f",
    7: "66e7c66bef805a73f6140a9095f679c34f91e4d134fe6c3f5428dba6b110c580",
}


def _borel_catalog(p: int):
    F = field_make(p)
    w = F.generator
    borel = GroupTable(F, np.asarray([[[w, 0], [0, pow(w, -1, p)]], [[1, 1], [0, 1]]]))
    return irreducible_catalog(borel, p, 36, seed=42)


def test_borel_catalogs_of_one_dimensional_types_are_pinned():
    for p, want in BOREL_CATALOG_DIGESTS.items():
        cat = _borel_catalog(p)
        assert cat.complete and [e.dim for e in cat.entries] == [1] * (p - 1), f"p = {p}"
        modules = [e.module.to_json() for e in cat.entries]
        assert _json_sha256([cat.to_json(), modules]) == want, f"p = {p}"
        assert _duals_found_once(cat), f"p = {p}"


def test_one_dimensional_isomorphism_matches_the_hom_solve():
    """is_isomorphic compares the generator scalars of two 1-dim modules; on
    every pair of the Borel catalogs' entries and their duals (a dual is
    another entry, so equal types come as distinct objects) it agrees with a
    nonzero Hom."""
    for p in BOREL_CATALOG_DIGESTS:
        ones = [e.module for e in _borel_catalog(p).entries]
        ones += [dual(m) for m in ones]
        pairs = list(itertools.product(ones, ones))
        answers = [is_isomorphic(a, b) for a, b in pairs]
        assert answers == [hom_space_dim(a, b) > 0 for a, b in pairs], f"p = {p}"
        assert not all(answers) and any(same for (a, b), same in zip(pairs, answers) if a is not b)


# sha256 of the JSON of natural_restricted(q) for every q the group layer enumerates
NATURAL_DIGESTS = {
    4: "da9942fd16868b554057b27b674621f37afbc06b18df29822cdda612b710be81",
    5: "9070b46971d63cb4ad37f7540f1119f8bb72386782d76ee20e6dab394094311b",
    7: "9116cceda2e1c7d0bd99ee12c74e1b5ad64b00e09d2c9f7265e51cacfc7a0e0c",
    8: "5238a4c3c5e6a23f66338f5726410d13f946ce99dbd7cb2481c90869228f9704",
    9: "98d826e24a69a08f45911cd9130596ddb2da3a4fe2cbae84aa25fe3b4c549024",
    11: "1bc8bc9a17cdd186fe950b0738d40cf528774af4eea93cc0dd3eaa8102e70b8b",
    13: "cd45c416a9e3229ffcd930f5311d9ccf89c0dfcda8280886b74e54934f9d7689",
    16: "867302600009eac4c2ecafb201bad051c3513963f35a7a54e473bcb0226ee4eb",
    17: "ba663ca8a8f08db632210a14ff6e7338b350a9ce59ab295ce31a8134cfd69dbc",
    19: "52c7ce0d2ea1f96b808587cbef50a227e7b48643cfc55a91941f8d822ac80bca",
    23: "7a76b2fa00c67c77be3518c9257bac25799896ba52bd566e42c49ad31196aa77",
    25: "c32538b8aea73576c71d57a5247e304021f58acdd305edd51737d39e4c1ab65b",
    27: "15f29915dae5caa4c6ab027659fe7cf42601e8e3d4948b444e845ef858973b65",
    29: "37fe9a8c195ccf17a9ab10131fd9df77ed44fefa19166c4aaa134f088e9a1198",
    31: "4781c23010be4ea48c5c1eeaa4b9f853bb6fa0d2612374080a26c356a18da7c9",
    32: "bb9a7d0ffdaba2084e1796219751a2569dd4904e4daf3cdb421a48d70bd8dde7",
    37: "d8516727e1c8aa3b10e4eeecbb8af446a44a5be62118d587758b227f4c546be3",
    41: "60b181cda97b4114dc8852411032e1af59cc416479cc4b33f4349f117395ec14",
    43: "ede7e9832a7992afcac1aa17703d8b60a7a5ec503a973057a1db0d25616d1762",
    47: "9c7c3d8419b1a9d5c39bf8fb0c0dd2b32e44fbe6ccbf991735fccab6be1aa29b",
    49: "4135ea5e1710ef7e8851eb3859b88845a30e08ebee1f80c38e579998bf1edcf5",
}


def test_natural_restricted_bytes_are_pinned():
    assert list(NATURAL_DIGESTS) == prime_powers(4, FIELD_ORDER_CAP)
    for q, want in NATURAL_DIGESTS.items():
        assert _json_sha256(natural_restricted(q).to_json()) == want, f"q={q}"


# -- eigenvalue profiles and the catalog's skipped chops -------------------------

SMALL_SPECS = [(q, r, cap) for q, r, cap in CATALOG_SPECS if q <= 9]


def test_profiles_decide_isomorphism_on_the_small_catalogs(harness):
    """Equal profiles exactly when is_isomorphic, on every pair of the q <= 9
    catalog entries and their duals (each dual is another entry, so equal
    types also come as distinct objects)."""
    for q, r, _cap in SMALL_SPECS:
        mods = [e.module for e in harness.catalog(q, r).entries]
        mods += [dual(m) for m in mods]
        for a, b in itertools.product(mods, mods):
            same = np.array_equal(a.profile, b.profile)
            assert same == is_isomorphic(a, b), f"sl2:{q}/F{r} dims {a.dim}, {b.dim}"


def test_profile_blocks_follow_the_power_map_cycles(harness):
    """One block per cycle, as long as its element order; a dual reverses each
    block's exponents, j -> -j mod m, and the trivial module's block is one
    eigenvalue 1."""
    for q, r, _cap in SMALL_SPECS:
        g = harness.group(q)
        orders = g.element_orders[regular_class_cycles(g, r)].tolist()
        for e in harness.catalog(q, r).entries:
            prof = e.module.profile
            assert prof.size == sum(orders) and prof.sum() == e.dim * len(orders)
            flipped, start = [], 0
            for m in orders:
                block = prof[start : start + m]
                flipped.append(block[(-np.arange(m)) % m])
                start += m
            assert np.array_equal(dual(e.module).profile, np.concatenate(flipped))
        trivial = trivial_module(g, r).profile
        assert trivial.tolist() == [int(j == 0) for m in orders for j in range(m)]


def test_tensor_profile_matches_the_built_tensor(harness):
    """The convolution of two profiles is the direct profile of the product,
    on every pair of nontrivial q <= 9 catalog entries."""
    pairs = 0
    for q, r, _cap in SMALL_SPECS:
        mods = [e.module for e in harness.catalog(q, r).entries if e.dim > 1]
        for a, b in itertools.combinations_with_replacement(mods, 2):
            assert np.array_equal(tensor_profile(a, b), tensor(a, b).profile), f"sl2:{q}/F{r}"
            pairs += 1
    assert pairs == 46


@pytest.mark.parametrize("q,r", list(CHOP_DIGESTS), ids=[f"sl2:{q}/F{r}" for q, r in CHOP_DIGESTS])
def test_chop_factor_profiles_add_up_to_the_module(q, r):
    proj = perm_module(sl2_group(q), "projective-points", r)
    square = tensor(proj, proj)
    factors = chop(square, seed=42)
    assert np.array_equal(sum(f.profile for f in factors), square.profile)
    assert np.array_equal(square.profile, tensor_profile(proj, proj))


def _module_bytes(m) -> bytes:
    return b"".join(g.tobytes() for g in m.gen_images)


@pytest.mark.parametrize("seed", [42, 7])
def test_skipped_chops_add_no_type(seed, monkeypatch):
    """Every q <= 9 CATALOG_SPECS build and both OUTSIDE_SPECS_CATALOGS pins
    write the catalog JSON and module bytes of the search that chops every
    module, its chops are a subsequence of that search's, and each module it
    skips, chopped against a copy of the ledger it met, adds no type."""
    import chardeg.modules as modules

    specs = SMALL_SPECS + [(q, r, 36) for q, r in OUTSIDE_SPECS_CATALOGS]
    chop_fn, skipped = modules.chop, 0
    for q, r, cap in specs:
        g = sl2_group(q)
        want_chops: list = []
        want = chop_every_module_catalog(g, r, cap, seed, want_chops)
        got_chops: list = []
        monkeypatch.setattr(modules, "chop", lambda m, **kw: got_chops.append(m) or chop_fn(m, **kw))
        got = irreducible_catalog(g, r, cap, seed=seed)
        monkeypatch.setattr(modules, "chop", chop_fn)
        label = f"sl2:{q}/F{r} cap {cap}"
        assert got.to_json() == want.to_json(), label
        assert [_module_bytes(e.module) for e in got.entries] == [_module_bytes(e.module) for e in want.entries]
        remaining = [_module_bytes(m) for m in got_chops]
        for m, ledger in want_chops:
            if remaining and _module_bytes(m) == remaining[0]:
                remaining.pop(0)
                continue
            copy = list(ledger)
            chop(m, seed=seed, certified=copy)
            assert len(copy) == len(ledger), label
            skipped += 1
        assert not remaining, label
    assert skipped > 0


def test_permutation_profiles_match_the_echelon_profiles():
    """The cycle count of a permutation module's profile against the echelon
    profile of a plain GModule with the same images, for both actions of
    every SL2(q), q <= 19, within CHOP_DIM_CAP, over every prime dividing the
    group order; perm_module computes no profile until it is read."""
    cases = 0
    for q in prime_powers(4, 19):
        g = sl2_group(q)
        for r in prime_divisors(g.order):
            for action in ("projective-points", "nonzero-vectors"):
                m = perm_module(g, action, r)
                if m.dim > CHOP_DIM_CAP:
                    continue
                assert "profile" not in vars(m)
                plain = GModule(g, m.field, m.gen_images, check=False)
                assert np.array_equal(m.profile, plain.profile), f"sl2:{q}/F{r} {action}"
                assert m.profile.dtype == plain.profile.dtype and not m.profile.flags.writeable
                cases += 1
    assert cases == 68


@pytest.mark.parametrize("seed", [42, 7])
def test_stopped_chops_add_no_type(seed, monkeypatch):
    """Every q <= 9 CATALOG_SPECS build stops some chop once the pieces left
    cannot add a type.  Each stopped chop, run to the end against a copy of
    the ledger it met, returns the stopped chop's factors first and leaves
    the copy as long as the ledger after the stopped chop: the pieces it
    left held no new type."""
    import chardeg.modules as modules

    chop_fn, records = modules.chop, []

    def recorded_chop(m, **kw):
        before = list(kw["certified"])
        factors = chop_fn(m, **kw)
        records.append((m, before, len(kw["certified"]), factors))
        return factors

    stopped = 0
    for q, r, cap in SMALL_SPECS:
        records.clear()
        monkeypatch.setattr(modules, "chop", recorded_chop)
        irreducible_catalog(sl2_group(q), r, cap, seed=seed)
        monkeypatch.setattr(modules, "chop", chop_fn)
        for m, before, after, factors in records:
            if sum(f.dim for f in factors) == m.dim:
                continue
            copy = list(before)
            finished = chop(m, seed=seed, certified=copy)
            assert sum(f.dim for f in finished) == m.dim
            assert _factor_digests(finished[: len(factors)]) == _factor_digests(factors)
            assert len(copy) == after, f"sl2:{q}/F{r} dim {m.dim}"
            stopped += 1
    assert stopped > 0

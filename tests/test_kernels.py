"""The kernels and the spin against brute-force pure-Python oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chardeg import kernels
from chardeg.fields import FieldError, field_make
from chardeg.groups import sl2_group
from chardeg.linalg import mat_inv
from chardeg.modules import LINE_ENUM_LIMIT, _kernel_lines, _spin, perm_module, spin
from oracles import fancy_swap_rref, orbit_stabilizers_by_inversion, same_orbit_stabilizers


def _random_invertible(rng, F, n):
    while True:
        A = rng.integers(0, F.order, size=(n, n)).astype(np.int64)
        try:
            mat_inv(F, A)
            return A
        except ZeroDivisionError:
            continue


def _gauss_jordan(rows, p):
    """Textbook Gauss-Jordan over F_p on lists of ints."""
    R = [[x % p for x in row] for row in rows]
    m = len(R)
    n = len(R[0]) if R else 0
    pivots = []
    for col in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, m) if R[i][col]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = pow(R[r][col], p - 2, p)
        R[r] = [x * inv % p for x in R[r]]
        for i in range(m):
            if i != r and R[i][col]:
                f = R[i][col]
                R[i] = [(a - f * b) % p for a, b in zip(R[i], R[r])]
        pivots.append(col)
    return R, pivots


def _pack(v, r):
    return sum(int(x) * r**i for i, x in enumerate(v))


def _orbits_by_bfs(gens, r, dim):
    """Orbits of F_r^dim under v -> M v, by a set-based breadth-first search."""
    vecs = sorted(itertools.product(range(r), repeat=dim), key=lambda v: _pack(v, r))
    labels = {}
    reps, sizes = [], []
    for v in vecs:
        if v in labels:
            continue
        oid = len(reps)
        orbit = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for w in frontier:
                for M in gens:
                    img = tuple(sum(int(M[i][j]) * w[j] for j in range(dim)) % r for i in range(dim))
                    if img not in orbit:
                        orbit.add(img)
                        nxt.append(img)
            frontier = nxt
        for w in orbit:
            labels[w] = oid
        reps.append(_pack(v, r))
        sizes.append(len(orbit))
    by_key = [labels[v] for v in vecs]
    return by_key, reps, sizes


def _key_perms_by_digit_products(gens, r, dim):
    """The key permutations as int64 digit-matrix products, SWEEP_CHUNK keys
    at a time: the image of every key is ((digits @ M.T) % r) @ powers."""
    nvec = r**dim
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    powers = r ** np.arange(dim, dtype=np.int64)
    perms = [np.empty(nvec, dtype=np.int32) for _ in gens]
    for lo in range(0, nvec, kernels.SWEEP_CHUNK):
        keys = np.arange(lo, min(lo + kernels.SWEEP_CHUNK, nvec), dtype=np.int64)
        digits = (keys[:, None] // powers) % r
        for perm, M in zip(perms, gens):
            perm[lo : lo + keys.size] = ((digits @ M.T) % r) @ powers
    return perms


def _assert_key_perms_match(gens, r, dim):
    got = kernels._key_perms(gens, r, dim)
    assert got.dtype == np.int32
    assert got.shape == (len(gens), r**dim)
    for a, b in zip(got, _key_perms_by_digit_products(gens, r, dim)):
        assert np.array_equal(a, b)


def _orbit_sweep(gens, r, dim):
    """(reps, sizes) of orbit_stabilizers over a one-node tree: the orbits of
    the whole space, with no stabilizer walk."""
    root = np.array([-1], dtype=np.int64)
    inv_gens = np.stack([mat_inv(field_make(r), g) for g in gens])
    reps, sizes, members = kernels.orbit_stabilizers(inv_gens, r, dim, root, root)
    assert all(mem.tolist() == [0] for mem in members)
    return reps, sizes


def _orbit_sweep_per_orbit_bfs(gens, r, dim):
    """The orbit sweep as one breadth-first search per orbit, each started
    at the least unlabelled key (the orbit's minimal key)."""
    nvec = r**dim
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    labels = np.full(nvec, -1, dtype=np.int32)
    powers = r ** np.arange(dim, dtype=np.int64)
    reps: list[int] = []
    sizes: list[int] = []
    scan_from = 0
    while True:
        unl = np.flatnonzero(labels[scan_from:] < 0)
        if unl.size == 0:
            break
        start = scan_from + int(unl[0])
        scan_from = start + 1
        oid = len(reps)
        labels[start] = oid
        frontier = np.array([start], dtype=np.int64)
        total = 1
        while frontier.size:
            digits = (frontier[:, None] // powers[None, :]) % r
            images = [((digits @ M.T) % r) @ powers for M in gens]
            keys = np.unique(np.concatenate(images))
            fresh = keys[labels[keys] < 0]
            labels[fresh] = oid
            total += int(fresh.size)
            frontier = fresh
        reps.append(start)
        sizes.append(total)
    return labels, np.asarray(reps, dtype=np.int64), np.asarray(sizes, dtype=np.int64)


def _union_find_least(perms, n):
    """Least member of every orbit, by union-find with the least root kept."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for perm in perms:
        for x, y in enumerate(perm):
            a, b = find(x), find(int(y))
            root[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def _closure(p, seeds, mats):
    """Smallest set holding 0 and the seeds, closed under addition and v -> v M."""
    span = {tuple([0] * len(seeds[0]))}

    def add(x):
        nonlocal span
        if x not in span:
            span = {tuple((a + c * b) % p for a, b in zip(s, x)) for s in span for c in range(p)}

    for v in seeds:
        add(tuple(int(x) % p for x in v))
    changed = True
    while changed:
        changed = False
        for w in list(span):
            for M in mats:
                img = tuple(int(x) for x in (np.asarray(w) @ M) % p)
                if img not in span:
                    add(img)
                    changed = True
    return span


def _row_span(p, rows):
    d = rows.shape[1]
    out = set()
    for coeffs in itertools.product(range(p), repeat=rows.shape[0]):
        v = np.zeros(d, dtype=np.int64)
        for c, row in zip(coeffs, rows):
            v = (v + c * row) % p
        out.add(tuple(int(x) for x in v))
    return out


def test_rref_prime_matches_gauss_jordan():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5, 13):
        for _ in range(30):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            # low-rank products exercise skipped columns and zero rows
            k = int(rng.integers(1, 5))
            A = rng.integers(0, p, size=(m, k)) @ rng.integers(0, p, size=(k, n))
            R, piv, src = kernels.rref_prime(A, p)
            R_ref, piv_ref = _gauss_jordan(A.tolist(), p)
            assert R.tolist() == R_ref
            assert piv.tolist() == piv_ref
            # the source rows are independent and span the row space
            R_src, piv_src = _gauss_jordan(A[src].tolist(), p)
            assert len(piv_src) == src.size == piv.size
            assert R_src[: piv.size] == R_ref[: piv.size]


def _assert_rref_matches_gauss_jordan(A, p):
    R, piv, _ = kernels.rref_prime(A, p)
    R_ref, piv_ref = _gauss_jordan(A.tolist(), p)
    assert R.shape == A.shape
    assert R.tolist() == R_ref
    assert piv.tolist() == piv_ref


def test_rref_prime_edge_shapes_match_gauss_jordan():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5, 13):
        for n in (1, 4, 9):
            _assert_rref_matches_gauss_jordan(np.zeros((0, n), dtype=np.int64), p)
            _assert_rref_matches_gauss_jordan(np.zeros((1, n), dtype=np.int64), p)
            _assert_rref_matches_gauss_jordan(rng.integers(0, p, size=(1, n)), p)
            _assert_rref_matches_gauss_jordan(np.zeros((3, n), dtype=np.int64), p)
        for _ in range(20):
            # tall and rank-deficient, with whole zero columns: the pivot
            # search visits only the nonzero columns and stops at full rank
            m = int(rng.integers(6, 16))
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n))
            A = rng.integers(0, p, size=(m, k)) @ rng.integers(0, p, size=(k, n))
            A[:, rng.random(n) < 0.3] = 0
            _assert_rref_matches_gauss_jordan(A, p)
            # entries outside [0, p) are reduced first
            _assert_rref_matches_gauss_jordan(A - 2 * p, p)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 31])
def test_rref_prime_keeps_the_argmax_pivot_row(p):
    """Reduced form, pivots and sources, dtype and bytes, against the
    fancy-index echelon with the same pivot-row rule.  The sources pin the
    rule itself, which the tests against Gauss-Jordan leave open: spin's word
    record reads them."""
    rng = np.random.default_rng(p)
    cases = [np.zeros((0, 3), dtype=np.int64), np.zeros((4, 5), dtype=np.int64)]
    for _ in range(40):
        m, n = (int(x) for x in rng.integers(1, 24, size=2))
        k = int(rng.integers(1, min(m, n) + 1))
        low_rank = rng.integers(0, p, size=(m, k)) @ rng.integers(0, p, size=(k, n))
        zero_cols = rng.integers(0, p, size=(m, n))
        zero_cols[:, rng.random(n) < 0.4] = 0
        cases += [rng.integers(0, p, size=(m, n)), low_rank, zero_cols, rng.integers(-3 * p, 3 * p, size=(m, n))]
    for A in cases:
        got, want = kernels.rref_prime(A, p), fancy_swap_rref(A, p)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_mul_mod_matches_python_ints():
    rng = np.random.default_rng(23)
    for p in (2, 3, 5, 13):
        for shape_a, shape_b in (((4, 7), (7, 5)), ((7,), (7, 3)), ((6, 6), (6,)), ((3, 4, 5), (3, 5, 2))):
            A = rng.integers(-(p - 1), p, size=shape_a)
            B = rng.integers(-(p - 1), p, size=shape_b)
            got = kernels.mul_mod(A, B, p)
            assert got.dtype == np.int64
            ref = np.asarray(np.matmul(A.astype(object), B.astype(object)) % p, dtype=np.int64)
            assert np.array_equal(got, ref)
    # a float64 operand is taken as it is
    A = rng.integers(0, 5, size=(3, 3))
    assert np.array_equal(kernels.mul_mod(A.astype(np.float64), A, 5), A @ A % 5)


def test_mul_mod_is_exact_up_to_its_bound():
    p = 1_000_003
    inner = (kernels.EXACT_FLOAT_LIMIT - 1) // (p - 1) ** 2  # the longest exact product
    assert inner * (p - 1) ** 2 < 2**53 <= (inner + 1) * (p - 1) ** 2
    A = np.full((2, inner), p - 1, dtype=np.int64)
    B = np.full((inner, 3), p - 1, dtype=np.int64)
    want = inner * (p - 1) ** 2 % p  # Python ints
    assert kernels.mul_mod(A, B, p).tolist() == [[want] * 3] * 2
    with pytest.raises(FieldError):
        kernels.mul_mod(np.full((2, inner + 1), p - 1), np.full((inner + 1, 3), p - 1), p)


def _kernel_lines_by_loop(F, ker):
    """Every projective line of the row span of ker, by itertools.product."""
    nullity = ker.shape[0]
    q = F.order
    if (q**nullity - 1) // (q - 1) > LINE_ENUM_LIMIT:
        return None
    lines = []
    for coeffs in itertools.product(range(q), repeat=nullity):
        first = next((c for c in coeffs if c), None)
        if first != 1:
            continue
        v = np.zeros(ker.shape[1], dtype=np.int64)
        for c, row in zip(coeffs, ker):
            if c:
                v = (v + c * row) % F.p
        lines.append(v)
    return lines


def test_kernel_lines_match_product_loop():
    rng = np.random.default_rng(31)
    for p, nullities in ((2, (1, 2, 5, 9, 10)), (3, (1, 2, 4, 6, 7)), (5, (1, 2, 3, 4, 5))):
        F = field_make(p)
        for nullity in nullities:
            ker = rng.integers(0, p, size=(nullity, 12))
            got = _kernel_lines(F, ker)
            want = _kernel_lines_by_loop(F, ker)
            if want is None:
                assert got is None
                continue
            assert got.dtype == np.int64
            assert got.tolist() == [v.tolist() for v in want]


def test_orbit_sweep_matches_set_bfs():
    rng = np.random.default_rng(3)
    for r, dim in ((2, 6), (3, 4), (5, 3)):
        F = field_make(r)
        for ngens in (1, 3):
            gens = np.stack([_random_invertible(rng, F, dim) for _ in range(ngens)])
            reps, sizes = _orbit_sweep(gens, r, dim)
            _labels_ref, reps_ref, sizes_ref = _orbits_by_bfs(gens, r, dim)
            assert reps.dtype == sizes.dtype == np.int64
            assert reps.tolist() == reps_ref
            assert sizes.tolist() == sizes_ref


@pytest.mark.parametrize("q,r", [(13, 2), (9, 3)])
def test_orbit_sweep_matches_per_orbit_bfs(q, r):
    # projective-line modules: SL2(13) on F2^14 and SL2(9) on F3^10, both
    # larger than one block of the permutation build
    m = perm_module(sl2_group(q), "projective-points", r)
    assert r**m.dim > kernels.SWEEP_CHUNK
    gens = np.stack(m.gen_images)
    got = _orbit_sweep(gens, r, m.dim)
    ref = _orbit_sweep_per_orbit_bfs(gens, r, m.dim)[1:]
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@given(
    st.integers(0, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=4))
    )
)
@example((5, []))
@example((0, []))
@example((3, [[1, 2, 0]]))
@example((4, [[1, 0, 2, 3], [0, 1, 3, 2]]))
@example((6, [[1, 0, 2, 3, 4, 5], [0, 2, 1, 3, 4, 5], [0, 1, 2, 4, 5, 3]]))
def test_orbit_labels_match_union_find(case):
    # 0 to 4 permutations: the two label buffers swap once per permutation and
    # once per pointer jump, so the result ends in either buffer
    n, perms = case
    arrays = [np.asarray(p, dtype=np.int64) for p in perms]
    got = kernels.orbit_labels(arrays, n)
    assert got.dtype == np.int32
    assert got.tolist() == _union_find_least(perms, n)
    # the caller's permutations are left as they were
    assert [a.tolist() for a in arrays] == [list(p) for p in perms]


@pytest.mark.parametrize("r", [2, 3, 5, 7])
def test_key_perms_match_digit_products(r):
    rng = np.random.default_rng(r)
    k = int(np.floor(np.log(kernels.SWEEP_CHUNK) / np.log(r) + 1e-9))
    assert r**k <= kernels.SWEEP_CHUNK < r ** (k + 1)
    # a space smaller than one block of r^k keys, then spaces with one and
    # two high digits; for r > 2 their sizes are not multiples of SWEEP_CHUNK
    for dim in (k - 1, k + 1, k + 2):
        _assert_key_perms_match(rng.integers(0, r, size=(2, dim, dim)), r, dim)


def _closure_tree(gens, r):
    """BFS closure of the identity under right multiplication by the
    generators, in (element, generator) order: (parent, parent_gen), with
    element i = element parent[i] @ gens[parent_gen[i]]."""
    dim = gens.shape[1]
    elems = [np.eye(dim, dtype=np.int64)]
    seen = {elems[0].tobytes()}
    parent, parent_gen = [-1], [-1]
    i = 0
    while i < len(elems):
        for j, g in enumerate(gens):
            x = elems[i] @ g % r
            if x.tobytes() not in seen:
                seen.add(x.tobytes())
                elems.append(x)
                parent.append(i)
                parent_gen.append(j)
        i += 1
    return np.asarray(parent, dtype=np.int64), np.asarray(parent_gen, dtype=np.int64)


@pytest.mark.parametrize("r,dim", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_orbit_stabilizers_match_forward_then_invert_oracle(r, dim):
    """Random invertible generator sets, with a generator of order > 2: the
    kernel fed their inverses matches the in-place inversion of the forward
    permutations byte for byte, and the orbit-stabilizer identity holds."""
    rng = np.random.default_rng(100 + r)
    F = field_make(r)
    ident = np.eye(dim, dtype=np.int64)
    for ngens in (1, 2, 3):
        while True:
            gens = np.stack([_random_invertible(rng, F, dim) for _ in range(ngens)])
            if any((g @ g % r != ident).any() for g in gens):
                break
        parent, parent_gen = _closure_tree(gens, r)
        inv_gens = np.stack([mat_inv(F, g) for g in gens])
        got = kernels.orbit_stabilizers(inv_gens, r, dim, parent, parent_gen)
        want = orbit_stabilizers_by_inversion(gens, r, dim, parent, parent_gen)
        assert same_orbit_stabilizers(got, want)
        assert all(size * mem.size == parent.size for size, mem in zip(got[1].tolist(), got[2]))


def test_key_perms_match_digit_products_on_3_12():
    m = perm_module(sl2_group(11), "projective-points", 3)
    # conjugating by D = diag(1, 2, 1, 2, ...) = D^-1 puts 2s in the matrices,
    # so image digits wrap mod 3
    d = np.where(np.arange(m.dim) % 2, 2, 1)
    gens = np.stack([g * d[:, None] * d[None, :] % 3 for g in m.gen_images])
    _assert_key_perms_match(gens, 3, m.dim)


@given(
    st.sampled_from([2, 3, 5, 7]).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.integers(1, {2: 13, 3: 8, 5: 6, 7: 5}[r]).flatmap(
                lambda d: st.lists(
                    st.lists(st.lists(st.integers(0, r - 1), min_size=d, max_size=d), min_size=d, max_size=d),
                    min_size=1,
                    max_size=3,
                )
            ),
        )
    )
)
@example((3, [[[0, 0], [0, 0]]]))
@example((2, [[[1, 1, 0], [0, 1, 1], [1, 0, 1]]]))
def test_key_perms_match_digit_products_random(case):
    # singular matrices included: the "permutations" need not be bijective
    r, mats = case
    gens = np.asarray(mats, dtype=np.int64)
    _assert_key_perms_match(gens, r, gens.shape[1])


def test_orbit_sweep_partitions_space():
    rng = np.random.default_rng(5)
    F = field_make(3)
    gens = np.stack([_random_invertible(rng, F, 4) for _ in range(2)])
    reps, sizes = _orbit_sweep(gens, 3, 4)
    assert sizes.sum() == 3**4
    # representatives are the minimal packed keys of their orbits
    labels = _orbit_sweep_per_orbit_bfs(gens, 3, 4)[0]
    assert labels.min() >= 0
    for oid, rep in enumerate(reps):
        members = np.flatnonzero(labels == oid)
        assert members.min() == rep
        assert sizes[oid] == members.size


def test_spin_matches_exhaustive_closure():
    rng = np.random.default_rng(17)
    F2, F3 = field_make(2), field_make(3)
    for p, dims in ((2, range(1, 9)), (3, range(1, 6))):
        F = F2 if p == 2 else F3
        for d in dims:
            for _ in range(4):
                mats = [rng.integers(0, p, size=(d, d)) for _ in range(int(rng.integers(1, 3)))]
                # zeroing a corner block leaves the first k coordinates invariant,
                # so some closures are proper subspaces
                k = int(rng.integers(1, d + 1))
                for M in mats:
                    M[:k, k:] = 0
                seeds = rng.integers(0, p, size=(int(rng.integers(1, 3)), d))
                if rng.integers(2):
                    seeds[:, k:] = 0
                W = spin(F, list(seeds), mats, d)
                span = _row_span(p, W)
                assert len(span) == p ** W.shape[0]  # the rows are independent
                assert span == _closure(p, list(seeds), mats)
                # the words the codes name are an independent spanning set too,
                # and the recorded vectors are those words
                basis, rounds = _spin(F, list(seeds), mats, d)
                codes = [int(c) for round_codes, _ in rounds for c in round_codes]
                assert np.array_equal(basis, W) and len(codes) == W.shape[0]
                words = np.zeros(W.shape, dtype=np.int64)
                for j, code in enumerate(codes):
                    if code < 0:
                        words[j] = seeds[-1 - code]
                    else:
                        parent, k = divmod(code, len(mats))
                        assert parent < j
                        words[j] = words[parent] @ mats[k] % p
                assert _row_span(p, words) == span
                recorded = np.concatenate([np.zeros((0, d), dtype=np.int64), *(v for _, v in rounds)])
                assert recorded.dtype == np.int64 and np.array_equal(recorded, words)

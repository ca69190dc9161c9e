import dataclasses
import hashlib
from collections import Counter
from math import isqrt

import numpy as np
import pytest
from mpmath import mp

from chardeg import verify

from chardeg.classify import (
    CASE_BARE,
    CASE_LETTERS,
    CASE_SIX_DIM,
    LEDGER_FAMILIES,
    ClassifyError,
    GroupDescriptor,
    TwoComponentInput,
    inequality_ledger,
    predicted_cut_vertex_graph,
    primitive_prime_divisor,
    semidirect_degrees,
    stabilizer_degree_multiplicities,
    three_vertices_classify,
    two_component_check,
)
from chardeg.fields import field_make
from chardeg.graphs import analyze, degree_set, graph_from_degrees
from chardeg.groups import _batch_inv_det1, _batch_mul, sl2_group
from chardeg.kernels import _number_orbits, orbit_labels, rref_prime
from chardeg.linalg import nullspace
from chardeg.modules import dual, irreducible_catalog, natural_restricted
from chardeg.numtheory import (
    factorize,
    is_prime,
    prime_divisors,
    prime_power_split,
    prime_powers,
)
from chardeg.orbits import orbit_decompose
from oracles import is_irreducible, multiplicative_order, subgroup_from_gens, whole_group

mp.dps = 80


# -- independent high-precision oracle for the covering inequalities -----------


def _oracle_holds(family, qp, ell, q):
    half = mp.mpf(qp * (qp + 1)) / 2
    if family == "dim-l-q":
        dim, c1, c2e, c2 = ell * qp, half, ell, qp + 1
    elif family == "dim-l-q-plus-1":
        dim, c1, c2e, c2 = ell * (qp + 1), half, 2 * ell, qp + 1
    elif family == "dim-l-q-plus-1-half":
        dim, c1, c2e, c2 = ell * (qp + 1) // 2, half, ell, qp + 1
    elif family == "dim-l-q-minus-1":
        dim, c1, c2e, c2 = ell * (qp - 1), mp.mpf(qp * qp), 0, 0
    else:
        dim, c1, c2e, c2 = ell * (qp - 1) // 2, mp.mpf(qp * qp), 0, 0
    lhs = mp.mpf(q) ** dim - 1
    rhs = c1 * (mp.mpf(q) ** (mp.mpf(dim) / 2) - 1)
    if c2:
        rhs += c2 * (mp.mpf(q) ** c2e - 1)
    return lhs > rhs


def _oracle_ledger(family, q_max, ell_max=8):
    odd_only = family.endswith("half")
    out = []
    for qp in prime_powers(4, q_max, odd_only=odd_only):
        t, _ = prime_power_split(qp)
        if odd_only and t == 2:
            continue
        for q in sorted(prime_divisors(qp * qp - 1)):
            for ell in range(1, ell_max + 1):
                if not _oracle_holds(family, qp, ell, q):
                    out.append((q, qp, ell))
    return sorted(out)


COVERING_FAMILIES = {
    "dim-l-q": 16,
    "dim-l-q-plus-1": 15,
    "dim-l-q-plus-1-half": 42,
    "dim-l-q-minus-1": 18,
    "dim-l-q-minus-1-half": 46,
}


@pytest.mark.parametrize("family,q_max", sorted(COVERING_FAMILIES.items()))
def test_ledger_matches_high_precision_oracle(family, q_max):
    assert inequality_ledger(family, q_max=q_max) == _oracle_ledger(family, q_max)


def test_ledger_printed_lists_verbatim():
    assert inequality_ledger("dim-l-q") == [
        (2, 5, 1), (2, 7, 1), (2, 9, 1), (2, 11, 1), (3, 4, 1),
    ]
    assert inequality_ledger("dim-l-q-plus-1") == [
        (2, 5, 1), (2, 7, 1), (2, 9, 1), (2, 11, 1),
    ]
    assert inequality_ledger("f2-order3") == [
        (5, 2), (5, 4), (5, 6), (7, 3), (7, 6), (7, 8), (11, 5), (11, 10),
        (13, 6), (17, 8), (19, 9), (23, 11), (25, 12),
    ]
    assert inequality_ledger("f2-order5") == [(9, 4), (9, 8), (11, 5), (19, 9)]
    assert inequality_ledger("f2-ell2") == [(5, 4, 2), (5, 8, 2), (7, 6, 2)]


def test_ledger_checked_triples_fail_raw_scan():
    f3 = set(inequality_ledger("dim-l-q-plus-1-half"))
    assert {(3, 11, 1), (3, 13, 1), (2, 5, 2), (2, 7, 2), (2, 9, 2), (2, 11, 2)} <= f3
    f4 = set(inequality_ledger("dim-l-q-minus-1"))
    assert {(2, 5, 1), (2, 11, 1), (3, 5, 1), (3, 7, 1), (5, 4, 1), (2, 5, 2)} <= f4


def test_ledger_stability_beyond_thresholds():
    for family, qm in (("dim-l-q", 68), ("dim-l-q-plus-1", 64), ("dim-l-q-minus-1", 76)):
        assert inequality_ledger(family) == inequality_ledger(family, q_max=qm)
    assert inequality_ledger("f2-order3") == inequality_ledger("f2-order3", q_max=200)


def test_ledger_bytes_are_pinned():
    """Every family's ledger over a grid of bounds, and the unknown-family
    message, are pinned by one sha256."""
    lines = [
        repr(inequality_ledger(fam, q_max, ell_max))
        for fam in LEDGER_FAMILIES
        for q_max in (None, 1, 4, 5, 17, 50, 100, 200, 400)
        for ell_max in (1, 2, 3, 8)
    ]
    with pytest.raises(ClassifyError) as err:
        inequality_ledger("nope")
    lines.append(str(err.value))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "26bfeaee141ad419627327ffdf2e0ead3ee12fbdc986fab3fd89467215e80615"


def test_ledger_unknown_family():
    with pytest.raises(ClassifyError):
        inequality_ledger("nope")


@pytest.mark.parametrize("q_max", [0, -5])
@pytest.mark.parametrize("family", ["dim-l-q", "f2-order3", "f2-ell2"])
def test_ledger_refuses_a_bound_below_one(family, q_max):
    """A bound of 0 is not the default bound, and a negative one is not an empty, passing ledger."""
    with pytest.raises(ClassifyError, match="q_max must be a positive integer"):
        inequality_ledger(family, q_max=q_max)
    assert inequality_ledger(family, q_max=1) == []


# -- split extension degrees ------------------------------------------------------


def test_semidirect_natural_sl2_5():
    ds = semidirect_degrees(natural_restricted(5))
    assert ds.as_sorted() == [1, 2, 3, 4, 5, 6, 24]


def test_semidirect_rejects_fixed_vectors():
    from chardeg.modules import trivial_module

    g = sl2_group(5)
    with pytest.raises(ClassifyError):
        semidirect_degrees(trivial_module(g, 3))


def test_semidirect_six_dim_case(harness):
    from chardeg.modules import endo_dim

    m = harness.entry(13, 3, 6, faithful=True)[0].module
    assert is_irreducible(m)
    assert endo_dim(m) == 1
    ds = semidirect_degrees(m)
    assert ds.as_sorted() == [1, 6, 7, 12, 13, 14, 728]
    a = analyze(graph_from_degrees(ds))
    assert a.articulation_points == (2,)
    assert a.complete_vertices == (2,)
    # the base degree set stays inside the extension's degree set
    assert set(degree_set("sl2", 13).as_sorted()) <= ds.degrees


def test_stabilizer_degree_table():
    g4 = sl2_group(4)
    cat = irreducible_catalog(g4, 2, 8)
    omega = cat.select(dim=4, ell=1)[0].module
    from chardeg.orbits import stabilizer

    rep = orbit_decompose(omega)
    seen = {}
    for o in rep.orbits:
        if o.rep_key == 0:
            continue
        sub = stabilizer(omega, o.rep)
        seen[o.stab_order] = stabilizer_degree_multiplicities(sub)
    # S3 and A4 from the exceptional module
    assert seen[6] == {1: 2, 2: 1}
    assert seen[12] == {1: 3, 3: 1}


def test_stabilizer_degree_frobenius():
    g7 = sl2_group(7)
    # 7:3 Frobenius subgroup: a transvection and an order-3 torus element
    unip = int(g7.indices_of_matrices(np.array([[[1, 1], [0, 1]]], dtype=np.int64))[0])
    orders = g7.element_orders
    diag3 = next(
        i
        for i in range(g7.order)
        if orders[i] == 3 and g7.elems[i][0, 1] == 0 and g7.elems[i][1, 0] == 0
    )
    frob = subgroup_from_gens(g7, [unip, diag3])
    assert frob.order == 21
    mult = stabilizer_degree_multiplicities(frob)
    assert mult == {1: 3, 3: 2}
    assert sum(m * d * d for d, m in mult.items()) == 21


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
def test_stabilizer_degrees_of_whole_sl2_match_the_degree_table(q):
    got = stabilizer_degree_multiplicities(whole_group(sl2_group(q)))
    assert got == dict(degree_set("sl2", q).multiplicities)


@pytest.fixture(scope="module")
def small_sweep():
    """Harness.sweep_modules() restricted to the CATALOG_SPECS catalogs with q <= 9."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "CATALOG_SPECS", tuple(s for s in verify.CATALOG_SPECS if s[0] <= 9))
        return verify.Harness(seed=42).sweep_modules()


@pytest.fixture(scope="module")
def small_sweep_stabilizers(small_sweep):
    """Stabilizers of the nonzero covectors, as semidirect_degrees meets them."""
    return [
        o.stab
        for _q, _label, e in small_sweep
        for o in orbit_decompose(dual(e.module)).orbits
        if o.rep_key != 0
    ]


def _dixon_table_oracle(sub):
    """Dixon's method read off the n x n product table of the subgroup.

    Classes come from the table's own conjugation permutations and the class
    matrices from every product h_x^-1 h_y, so neither the class labelling
    nor the class-representative columns of the library are shared.
    """
    group, members = sub.parent, np.asarray(sub.members)
    n = members.size
    mats = group.elems[members]
    prods = _batch_mul(group.field, mats[:, None], mats[None]).reshape(-1, 2, 2)
    # table[x, y] is the position of h_x h_y and left_inv[x, y] that of
    # h_x^-1 h_y; the identity is member 0
    table = np.searchsorted(members, group.indices_of_matrices(prods)).reshape(n, n)
    left_inv = table[(table == 0).argmax(axis=1)]
    cls, reps, sizes = _number_orbits(orbit_labels(table[left_inv, np.arange(n)[:, None]], n))
    r = reps.size
    if r == n:
        return {1: n}
    a = np.zeros((r, r, r), dtype=np.int64)
    np.add.at(a, (cls[:, None], cls[left_inv[:, reps]], np.arange(r)), 1)
    e = int(np.lcm.reduce(group.element_orders[members]))
    p = e + 1
    while p <= n or not is_prime(p):
        p += e
    F = field_make(p)
    spaces = [np.eye(r, dtype=np.int64)]
    for M in a[1:]:
        split = [B for B in spaces if len(B) == 1]
        for B in (B for B in spaces if len(B) > 1):
            eye = np.eye(len(B), dtype=np.int64)
            C = (B @ M.T % p)[:, (B != 0).argmax(axis=1)]  # B M^T = C B
            powers = [eye]
            for _ in range(len(B)):
                powers.append(powers[-1] @ C % p)
            # C^deg is the first power of C that depends on the ones below it
            R, piv, _ = rref_prime(np.stack(powers).reshape(len(powers), -1).T, p)
            value = np.ones(p, dtype=np.int64)
            for c in R[: piv.size, piv.size][::-1]:
                value = (value * np.arange(p) - c) % p
            for lam in np.flatnonzero(value == 0):
                split.append(nullspace(F, (C.T - lam * eye) % p) @ B % p)
        spaces = split
    if len(spaces) != r:
        raise ClassifyError(f"the class matrices of a subgroup of order {n} do not split mod {p}")
    W = np.concatenate(spaces)
    W = W * np.asarray([pow(int(w), p - 2, p) for w in W[:, 0]])[:, None] % p
    inv_sizes = np.asarray([pow(int(s), p - 2, p) for s in sizes], dtype=np.int64)
    norms = (W * W[:, cls[left_inv[reps, 0]]] % p * inv_sizes % p).sum(axis=1) % p
    squares = [n * pow(int(t), p - 2, p) % p for t in norms]
    degrees = [isqrt(s) for s in squares]
    if any(d < 1 or d * d != s for d, s in zip(degrees, squares)) or sum(squares) != n:
        raise ClassifyError(f"no certified character degrees for a subgroup of order {n}")
    return dict(sorted(Counter(degrees).items()))


def test_stabilizer_degrees_match_the_table_oracle(small_sweep_stabilizers):
    assert len(small_sweep_stabilizers) == 1181
    for stab in small_sweep_stabilizers:
        assert stabilizer_degree_multiplicities(stab) == _dixon_table_oracle(stab)


def _brute_force_class_count(sub):
    g = sub.parent
    F = g.field
    ys = g.elems[list(sub.members)]
    y_inv = _batch_inv_det1(F, ys)
    conjugates = (_batch_mul(F, _batch_mul(F, y_inv, g.elems[x]), ys) for x in sub.members)
    return len({frozenset(g.indices_of_matrices(c).tolist()) for c in conjugates})


#: (name, order, element-order counts, degree multiplicities); the counts
#: single each group out among the subgroups of SL2(q)
BINARY_STABILIZERS = (
    ("Q8", 8, {1: 1, 2: 1, 4: 6}, {1: 4, 2: 1}),
    ("Dic3", 12, {1: 1, 2: 1, 3: 2, 4: 6, 6: 2}, {1: 4, 2: 2}),
    ("SL2(3)", 24, {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}, {1: 3, 2: 3, 3: 1}),
    ("Q16", 16, {1: 1, 2: 1, 4: 10, 8: 4}, {1: 4, 2: 3}),
    ("2.S4", 48, {1: 1, 2: 1, 3: 8, 4: 18, 6: 8, 8: 12}, {1: 2, 2: 3, 3: 2, 4: 1}),
)


@pytest.mark.parametrize("name, order, element_orders, degrees", BINARY_STABILIZERS)
def test_binary_stabilizer_degrees(small_sweep_stabilizers, name, order, element_orders, degrees):
    stab = next(
        s
        for s in small_sweep_stabilizers
        if s.order == order
        and Counter(int(x) for x in s.parent.element_orders[list(s.members)]) == element_orders
    )
    mult = stabilizer_degree_multiplicities(stab)
    assert mult == degrees
    assert sum(mult.values()) == _brute_force_class_count(stab)
    assert sum(k * d * d for d, k in mult.items()) == order
    assert all(order % d == 0 for d in mult)


#: the degree lists of the sweep modules that the element-order lookup
#: table and the Frobenius matcher already decided, pinned verbatim
PINNED_SWEEP_DEGREES = {
    "sl2:4/F2/dim4#1": [[1, 1], [3, 2], [4, 1], [5, 4], [10, 2], [15, 1], [20, 1]],
    "sl2:4/F2/dim4#2": [[1, 1], [3, 2], [4, 1], [5, 1], [15, 4]],
    "sl2:4/F3/dim4#1": [[1, 1], [3, 2], [4, 1], [5, 7], [10, 4], [15, 2], [20, 5], [30, 2]],
    "sl2:4/F3/dim6#2": [[1, 1], [3, 2], [4, 1], [5, 1], [12, 20], [20, 12], [30, 8], [60, 8]],
    "sl2:5/F3/dim4#2": [[1, 1], [2, 2], [3, 2], [4, 2], [5, 1], [6, 1], [40, 6]],
    "sl2:5/F3/dim6#3": [
        [1, 1], [2, 2], [3, 2], [4, 2], [5, 1], [6, 1], [24, 10], [40, 6], [120, 5],
    ],
    "sl2:5/F3/dim6#4": [
        [1, 1], [2, 2], [3, 2], [4, 2], [5, 1], [6, 1], [12, 40], [20, 24], [30, 16], [60, 16],
    ],
    "sl2:9/F3/dim4#2": [[1, 1], [4, 2], [5, 2], [8, 4], [9, 1], [10, 3], [80, 9]],
    "sl2:9/F3/dim6#3": [
        [1, 1], [4, 2], [5, 2], [8, 4], [9, 1], [10, 3], [40, 36], [72, 40], [90, 32],
    ],
    "sl2:9/F3/dim12#5": [
        [1, 1], [4, 2], [5, 2], [8, 4], [9, 1], [10, 3], [80, 9], [144, 100], [240, 36],
        [720, 730],
    ],
}


def test_semidirect_degrees_decides_every_small_sweep_module(small_sweep):
    """Every q <= 9 sweep module gets a degree set, and those the lookup
    table already decided keep their degree lists."""
    decided = {}
    for _q, label, e in small_sweep:
        decided[label] = [list(dk) for dk in semidirect_degrees(e.module).multiplicities]
    assert len(decided) == 21
    for label, pinned in PINNED_SWEEP_DEGREES.items():
        assert decided[label] == pinned


# -- descriptor predictions -------------------------------------------------------


def test_predicted_graph_case_c():
    rep = predicted_cut_vertex_graph(GroupDescriptor("c", 13, 2, vgk=frozenset({2})))
    assert rep.ok
    assert rep.descriptor.case_tag == CASE_SIX_DIM
    assert rep.analysis.articulation_points == (2,)
    assert rep.graph.neighbors(13) == {2, 7}


def test_predicted_graph_case_b():
    rep = predicted_cut_vertex_graph(GroupDescriptor("b", 7, 5, vgk=frozenset({5})))
    assert rep.ok
    assert rep.graph.neighbors(7) == {5}


def test_case_letters_resolve_at_construction():
    """A case letter is stored as its tag, an unknown tag is refused when the
    descriptor is built, and the violations are read off the false clauses."""
    d = GroupDescriptor("a", 9, 7, vgk=frozenset({7}))
    assert d.case_tag == CASE_BARE
    assert d == GroupDescriptor(CASE_BARE, 9, 7, vgk=frozenset({7}))
    assert [GroupDescriptor(c, 9, 7).case_tag for c in CASE_LETTERS] == list(CASE_LETTERS.values())
    with pytest.raises(ClassifyError, match="unknown case tag 'z'"):
        GroupDescriptor("z", 9, 7)
    rep = predicted_cut_vertex_graph(d)
    assert rep.violations == () and rep.ok
    false = (rep.clauses[0], ("made false", False), *rep.clauses[1:], ("also false", False))
    broken = dataclasses.replace(rep, clauses=false)
    assert broken.violations == ("made false", "also false")
    assert not broken.ok
    assert broken.to_json()["violations"] == ["made false", "also false"]


def test_predicted_graph_rejects_bad_descriptors():
    with pytest.raises(ClassifyError):
        predicted_cut_vertex_graph(GroupDescriptor("a", 7, 7, vgk=frozenset({7})))
    with pytest.raises(ClassifyError):
        predicted_cut_vertex_graph(GroupDescriptor("a", 7, 5, vgk=frozenset({3})))
    with pytest.raises(ClassifyError):
        predicted_cut_vertex_graph(GroupDescriptor("c", 11, 2, vgk=frozenset({2})))
    outer = "the outer part must have order prime to the characteristic"
    with pytest.raises(ClassifyError, match=outer):
        predicted_cut_vertex_graph(GroupDescriptor("a", 7, 5, vgk=frozenset({5}), outer=frozenset({7})))
    with pytest.raises(ClassifyError, match=outer):
        predicted_cut_vertex_graph(GroupDescriptor("a", 7, 5, vgk=frozenset({5}), t_divides_outer=True))


def test_two_component_check_psl27():
    res = two_component_check(TwoComponentInput(7, "psl2", True, True), degree_set("psl2", 7))
    assert res.satisfied
    assert res.predicted_components == ((7,), (2, 3))


def test_two_component_check_failing_condition():
    res = two_component_check(TwoComponentInput(7, "psl2", True, False))
    assert not res.satisfied
    assert res.failed_conditions == ("G/K is abelian",)


def test_two_component_check_reports_each_remaining_condition_alone():
    """t | |G/CK| fails only at q != 4, and unextended linear parts fail the
    natural extension at t = 2; each is the one condition reported."""
    res = two_component_check(TwoComponentInput(7, "psl2", True, True, t_divides_g_over_ck=True))
    assert res.failed_conditions == ("t does not divide |G/CK|",)
    assert not res.satisfied and res.predicted_components is None
    at_4 = TwoComponentInput(4, "psl2", True, True, t_divides_g_over_ck=True, ck_proper=True)
    assert two_component_check(at_4).satisfied
    res = two_component_check(TwoComponentInput(8, "natural_ext", False, True, linear_parts_extend=False))
    assert res.failed_conditions == ("linear characters of the module extend to their inertia groups",)
    assert not res.satisfied


def test_two_component_cross_check_catches_mismatch():
    with pytest.raises(ClassifyError):
        two_component_check(
            TwoComponentInput(7, "psl2", True, True),
            degree_set("psl2", 13),
        )


# -- scans ------------------------------------------------------------------------


def test_three_vertices():
    scan = three_vertices_classify(10**4)
    assert scan.three_prime_list == (5, 7, 9, 17)
    for q in scan.pi_empty_list:
        t, a = prime_power_split(q)
        assert a == 1 or q == 9
    assert 7 in scan.pi_empty_list  # pi(8) - {2} is empty


def test_three_vertices_at_the_scan_cap():
    """Herzog's list of odd q with three primes in |PSL2(q)| is complete up to
    10^6; the pi-empty q, those with q - 1 or q + 1 a power of 2, are 9 and
    the Fermat and Mersenne primes."""
    scan = three_vertices_classify(10**6)
    assert scan.three_prime_list == (5, 7, 9, 17)
    assert scan.pi_empty_list == (5, 7, 9, 17, 31, 127, 257, 8191, 65537, 131071, 524287)


def test_three_vertices_match_direct_factorization():
    """Both lists against factorizing q - 1, q + 1 and q(q^2 - 1)/2 directly."""

    scan = three_vertices_classify(2000)
    qs = prime_powers(5, 2000, odd_only=True)
    assert scan.pi_empty_list == tuple(
        q for q in qs if set(factorize(q - 1)) <= {2} or set(factorize(q + 1)) <= {2}
    )
    assert scan.three_prime_list == tuple(q for q in qs if len(factorize(q * (q * q - 1) // 2)) == 3)


def test_primitive_prime_divisors():
    assert primitive_prime_divisor(3, 6) == 7
    assert primitive_prime_divisor(2, 6) is None
    assert primitive_prime_divisor(7, 2) is None  # 7 + 1 = 2^3
    assert primitive_prime_divisor(5, 2) == 3
    assert primitive_prime_divisor(2, 10) == 11
    with pytest.raises(OverflowError):
        primitive_prime_divisor(2, 64)


def test_primitive_prime_divisor_matches_definition():
    """The least prime p of a^n - 1 with multiplicative_order(a, p) == n, over
    the grid the primitive-divisors check reads."""
    for a in range(2, 31):
        for n in range(2, 31):
            if a**n - 1 >= 1 << 63:
                continue
            primitive = [p for p in sorted(factorize(a**n - 1)) if multiplicative_order(a % p, p) == n]
            assert primitive_prime_divisor(a, n) == (primitive[0] if primitive else None), (a, n)

"""The theorem layer: degree sets of module extensions, predicted
cut-vertex graphs, the two-component criterion, the three-vertex scan,
primitive prime divisors, and the exact inequality ledgers.

The degrees of split extensions read the stabilizer degrees, which are
computed exactly by Dixon's class-matrix method over F_p, with no table.

All scans run on exact integers; inequalities with half-integer
exponents are decided by comparing squares, never by floating point.  The
ledger families are listed once: the covering scans in COVERING_FAMILIES,
with their thresholds and dimension patterns, and the F2 fixed-point scans
in F2_FAMILIES, with their element orders.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from chardeg.fields import field_make
from chardeg.graphs import (
    DegreeSet,
    GraphAnalysis,
    PrimeGraph,
    analyze,
    degree_set,
    graph_from_degrees,
    graph_from_edges,
)
from chardeg.groups import Subgroup, _batch_inv_det1, _batch_mul, _class_labels
from chardeg.kernels import rref_prime
from chardeg.linalg import nullspace
from chardeg.modules import GModule, dual
from chardeg.numtheory import (
    factorize,
    is_prime,
    prime_divisors,
    prime_power_split,
    prime_powers,
)
from chardeg.orbits import orbit_decompose


class ClassifyError(ValueError):
    pass


# -- character degrees of stabilizer subgroups ----------------------------------


def stabilizer_degree_multiplicities(sub: Subgroup) -> dict[int, int]:
    """Irreducible character degrees of a subgroup, with multiplicities.

    Dixon's method (Numer. Math. 10, 1967, as revisited by Schneider,
    J. Symbolic Comput. 9, 1990).  With K_i K_j = sum_k a[i, j, k] K_k for
    the class sums, the central character vectors w(C) = |C| chi(g_C) / chi(1)
    are the common eigenvectors of the class matrices a[i].  Over F_p with
    p = 1 mod exp(H) and p > |H| they are found by splitting F_p^r into
    eigenspaces, and chi(1)^2 = |H| / sum_C w(C) w(C^-1) / |C| mod p.  The
    result is certified: r one-dimensional spaces for r classes, every
    chi(1)^2 a square, and the squares summing to |H|.
    """
    group, members = sub.parent, np.asarray(sub.members)
    n = members.size
    cls, reps, sizes = _class_labels(group, members, sub.generating_set())
    r = reps.size
    if r == n:
        return {1: n}
    # a[i, j, k] = #{h in C_i : h^-1 z_k in C_j}, z_k the representative of C_k
    z = group.elems[members[reps]]
    inv = _batch_inv_det1(group.field, group.elems[members])
    prods = _batch_mul(group.field, inv[:, None], z[None]).reshape(-1, 2, 2)
    cols = np.searchsorted(members, group.indices_of_matrices(prods)).reshape(n, r)
    a = np.zeros((r, r, r), dtype=np.int64)
    np.add.at(a, (cls[:, None], cls[cols], np.arange(r)), 1)
    z_inv = group.indices_of_matrices(_batch_inv_det1(group.field, z))
    inverse_cls = cls[np.searchsorted(members, z_inv)]
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
    norms = (W * W[:, inverse_cls] % p * inv_sizes % p).sum(axis=1) % p
    squares = [n * pow(int(t), p - 2, p) % p for t in norms]
    degrees = [isqrt(s) for s in squares]
    if any(d < 1 or d * d != s for d, s in zip(degrees, squares)) or sum(squares) != n:
        raise ClassifyError(f"no certified character degrees for a subgroup of order {n}")
    return dict(sorted(Counter(degrees).items()))


def semidirect_degrees(m: GModule) -> DegreeSet:
    """Degree set of the split extension of the module by its group.

    Degrees are cd of the acting SL2 family together with index-times-
    degree contributions from the stabilizers of nonzero covectors, under
    the standing assumption that a linear character of the module
    extends to its inertia group (the extension is split).  Modules with
    nonzero fixed vectors are rejected, and so is a degree set whose sum of
    squares is not the order of the extension.
    """
    group = m.group
    mult: dict[int, int] = dict(degree_set("sl2", group.field.order).multiplicities)
    for orb in orbit_decompose(dual(m)).orbits:
        if orb.rep_key == 0:
            continue
        if orb.stab_order == group.order:
            raise ClassifyError("module has nonzero fixed vectors; split analysis void")
        index = group.order // orb.stab_order
        for d, k in stabilizer_degree_multiplicities(orb.stab).items():
            mult[index * d] = mult.get(index * d, 0) + k
    ds = DegreeSet.from_multiplicities(mult)
    total = ds.sum_of_squares()
    expected = (m.field.p**m.dim) * group.order
    if total != expected:
        raise ClassifyError(f"extension sum of squares {total} != {expected}")
    return ds


# -- descriptor-level predictions ------------------------------------------------

CASE_BARE = "bare"
CASE_NATURAL = "natural"
CASE_SIX_DIM = "six_dim_f3"

#: the case letters, resolved onto their tags when a GroupDescriptor is built
CASE_LETTERS = {"a": CASE_BARE, "b": CASE_NATURAL, "c": CASE_SIX_DIM}


@dataclass(frozen=True)
class GroupDescriptor:
    """Structured input describing a candidate group for the classifier.

    case_tag: 'bare' (the perfect part is the simple group or its double
    cover), 'natural' (extension by the standard module), or
    'six_dim_f3' (the q=13 extension by a 6-dimensional F3 module).  A
    letter of CASE_LETTERS is stored as its tag; any other tag is refused.
    """

    case_tag: str
    q: int
    cut_prime: int
    vgk: frozenset[int] = frozenset()
    outer: frozenset[int] = frozenset()
    t_divides_outer: bool = False

    def __post_init__(self):
        tag = CASE_LETTERS.get(self.case_tag, self.case_tag)
        if tag not in CASE_LETTERS.values():
            raise ClassifyError(f"unknown case tag {self.case_tag!r}")
        object.__setattr__(self, "case_tag", tag)


@dataclass(frozen=True)
class TheoremReport:
    descriptor: GroupDescriptor
    graph: PrimeGraph
    analysis: GraphAnalysis
    clauses: tuple[tuple[str, bool], ...]

    @property
    def violations(self) -> tuple[str, ...]:
        """The names of the false clauses."""
        return tuple(name for name, holds in self.clauses if not holds)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "descriptor": {
                "case": self.descriptor.case_tag,
                "q": self.descriptor.q,
                "cut_prime": self.descriptor.cut_prime,
                "vgk": sorted(self.descriptor.vgk),
                "outer": sorted(self.descriptor.outer),
            },
            "graph": self.graph.to_json(),
            "analysis": self.analysis.to_json(),
            "clauses": [[name, bool(v)] for name, v in self.clauses],
            "violations": list(self.violations),
        }


def predicted_cut_vertex_graph(d: GroupDescriptor) -> TheoremReport:
    """Build the predicted degree prime graph for a descriptor and verify
    the cut-vertex conclusions on it.

    Bare and natural cases: a clique on all vertices except the defining
    characteristic t, with t pendant on the cut prime.  The q=13 module
    case: the fixed four-vertex graph with 2 complete and the edge 7-13.
    """
    t, _ = prime_power_split(d.q)
    p = d.cut_prime
    if p == t:
        raise ClassifyError("the cut prime must differ from the defining characteristic")
    if d.t_divides_outer or t in d.outer:
        raise ClassifyError("the outer part must have order prime to the characteristic")
    if d.case_tag in (CASE_BARE, CASE_NATURAL):
        if d.vgk != frozenset({p}):
            raise ClassifyError("the outer degree primes must be exactly the cut prime")
    else:
        if d.q != 13 or p != 2:
            raise ClassifyError("the six-dimensional case requires q = 13 and cut prime 2")
        if not d.vgk <= frozenset({2}):
            raise ClassifyError("outer degree primes must be within {2}")
    simple_primes = prime_divisors(d.q * (d.q * d.q - 1))
    verts = sorted(simple_primes | d.outer | {p})
    if d.case_tag == CASE_SIX_DIM:
        graph = graph_from_edges([2, 3, 7, 13], [(2, 3), (2, 7), (2, 13), (7, 13)])
    else:
        others = [v for v in verts if v != t]
        edges = [(a, b) for i, a in enumerate(others) for b in others[i + 1 :]]
        edges.append((t, p))
        graph = graph_from_edges(verts, edges)
    analysis = analyze(graph)
    clauses = []
    connected = len(analysis.components) == 1
    clauses.append(("graph connected", connected))
    art_ok = analysis.articulation_points == (p,)
    clauses.append(("cut vertex set is exactly the cut prime", art_ok))
    complete_ok = p in analysis.complete_vertices
    clauses.append(("cut prime is a complete vertex", complete_ok))
    nbrs = graph.neighbors(t)
    if d.case_tag == CASE_SIX_DIM:
        nbr_ok = nbrs == {2, 7}
        clauses.append(("neighbors of 13 are {2, 7}", nbr_ok))
    else:
        nbr_ok = nbrs == {p}
        clauses.append(("the cut prime is the unique neighbor of t", nbr_ok))
    return TheoremReport(d, graph, analysis, tuple(clauses))


# -- the two-component criterion --------------------------------------------------


@dataclass(frozen=True)
class TwoComponentInput:
    """Flags describing a group against the disconnected-graph criterion."""

    q: int
    k_shape: str  # 'psl2' | 'sl2' | 'natural_ext'
    n_trivial: bool
    g_over_k_abelian: bool
    t_divides_g_over_ck: bool = False
    ck_proper: bool = False
    linear_parts_extend: bool = True


@dataclass(frozen=True)
class TwoComponentResult:
    satisfied: bool
    failed_conditions: tuple[str, ...]
    predicted_components: tuple[tuple[int, ...], ...] | None


def two_component_check(
    inp: TwoComponentInput, concrete_degrees: DegreeSet | None = None
) -> TwoComponentResult:
    """Evaluate the six conditions of the two-component criterion.

    When they all hold, the predicted graph has components {t} and
    pi(q^2-1); a concrete degree set, when supplied, is cross-checked
    against that prediction.
    """
    q = inp.q
    t, _ = prime_power_split(q)
    failed = []
    if q < 4:
        failed.append("the simple section needs q >= 4")
    if inp.k_shape not in ("psl2", "sl2", "natural_ext"):
        raise ClassifyError(f"unknown shape {inp.k_shape!r}")
    if not inp.g_over_k_abelian:
        failed.append("G/K is abelian")
    if q != 4 and inp.t_divides_g_over_ck:
        failed.append("t does not divide |G/CK|")
    if not inp.n_trivial and inp.k_shape == "psl2":
        failed.append("a nontrivial kernel needs the double cover or the natural extension")
    if (t == 2 or q == 5) and not (inp.ck_proper or not inp.n_trivial):
        failed.append("for t = 2 or q = 5, CK is proper or N is nontrivial")
    if t == 2 and inp.k_shape == "natural_ext" and not inp.linear_parts_extend:
        failed.append("linear characters of the module extend to their inertia groups")
    if failed:
        return TwoComponentResult(False, tuple(failed), None)
    comps = (tuple([t]), tuple(sorted(prime_divisors(q * q - 1))))
    if concrete_degrees is not None:
        actual = {frozenset(c) for c in analyze(graph_from_degrees(concrete_degrees)).components}
        if actual != {frozenset(c) for c in comps}:
            raise ClassifyError(
                f"predicted components {comps} disagree with the concrete degree set"
            )
    return TwoComponentResult(True, (), comps)


# -- scans -------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeVertexScan:
    pi_empty_list: tuple[int, ...]
    three_prime_list: tuple[int, ...]


def three_vertices_classify(bound: int) -> ThreeVertexScan:
    """Scan odd prime powers q = t^a <= bound.

    pi_empty_list: those where the odd part of pi(q-1) or pi(q+1) is
    empty.  three_prime_list: those whose simple group order q(q^2 - 1)/2
    has exactly three prime divisors.  For odd q, (q^2 - 1)/2 is even, so
    those are the prime t of q = t^a, 2 and the odd primes of q - 1 and
    q + 1.
    """
    if bound > 10**6:
        raise ClassifyError("scan bound capped at 10^6")
    pi_empty = []
    three = []
    for q in prime_powers(5, bound, odd_only=True):
        minus = prime_divisors(q - 1) - {2}
        plus = prime_divisors(q + 1) - {2}
        if not minus or not plus:
            pi_empty.append(q)
        if len(minus | plus) == 1:
            three.append(q)
    return ThreeVertexScan(tuple(pi_empty), tuple(three))


def primitive_prime_divisor(a: int, n: int) -> int | None:
    """Least prime dividing a^n - 1 but no a^b - 1 for b < n, or None.

    None occurs exactly when (n, a) is one of the classical exceptions:
    n = 2 with a + 1 a power of two, or (a, n) = (2, 6).
    """
    if a < 2 or n < 2:
        raise ClassifyError("need a, n >= 2")
    value = a**n - 1
    if value >= 1 << 63:
        raise OverflowError(f"{a}^{n} - 1 exceeds 63 bits")
    # a prime of a^n - 1 is primitive unless it divides a^d - 1 for a proper divisor d
    for d in range(1, n):
        if n % d == 0:
            while (g := gcd(value, a**d - 1)) > 1:
                value //= g
    return min(factorize(value)) if value > 1 else None


# -- inequality ledgers --------------------------------------------------------------

#: the covering-scan families, each ledger dimension ell * d0 for d0 one of
#: qp, qp + 1 and qp - 1, maybe halved: name -> (threshold, d0 - qp, halved,
#: tail exponent per ell).  Past its threshold a family's reduced inequality
#: holds for ell = 1 and therefore for every ell.  See _covering_inequality_holds.
COVERING_FAMILIES = {
    "dim-l-q": (17, 0, False, 1),
    "dim-l-q-plus-1": (16, 1, False, 2),
    "dim-l-q-plus-1-half": (43, 1, True, 1),
    "dim-l-q-minus-1": (19, -1, False, 0),
    "dim-l-q-minus-1-half": (47, -1, True, 0),
}

#: the F2 fixed-point families: name -> the element orders r scanned
F2_FAMILIES = {"f2-order3": (3,), "f2-order5": (5,), "f2-ell2": (3, 5)}

LEDGER_FAMILIES = (*COVERING_FAMILIES, *F2_FAMILIES)


def _strict_greater_with_sqrt(lhs: int, coeff: int, exp2: int, base: int) -> bool:
    """Exact test of lhs > coeff * base**(exp2/2) for integers.

    exp2 is twice the exponent; odd exp2 is decided by squaring.
    """
    if exp2 % 2 == 0:
        return lhs > coeff * base ** (exp2 // 2)
    if lhs <= 0:
        return False
    return lhs * lhs > coeff * coeff * base**exp2


def _covering_inequality_holds(family: str, qp: int, ell: int, q: int) -> bool:
    """The covering-count inequality for one (prime q, q-power, ell):
    q^dim - 1 > c1 (q^(dim/2) - 1) + (qp + 1)(q^(e ell) - 1), e the family's
    tail exponent.  The qp - 1 families count c1 = qp^2 conjugates, the
    others qp (qp + 1) / 2."""
    _, shift, halved, e = COVERING_FAMILIES[family]
    dim = ell * (qp + shift) // 2 if halved else ell * (qp + shift)
    c1 = qp * qp if shift < 0 else qp * (qp + 1) // 2
    tail = (qp + 1) * (q ** (e * ell) - 1)
    return _strict_greater_with_sqrt(q**dim - 1 - tail + c1, c1, dim, q)


def _f2_pairs(r: int, q_max: int, ell: int) -> list[tuple[int, int, int]]:
    """Failing (q_power, dim, ell) for the F2 fixed-point covering scan.

    For d0 = qp - 1, (qp - 1)/2 and qp + 1, an element of order r fixes a
    subspace of dimension at most ell * m, m read off the lift tables by
    the residue of qp mod r; inequality (2) asks 2^(ell d0) > qp (qp + 1) 2^(ell m).
    """
    out = []
    for qp in prime_powers(5, q_max, odd_only=True):
        t, _ = prime_power_split(qp)
        if t == r:
            continue
        if qp % r == 1:
            bounds = ((qp - 1) // r, (qp - 1) // (2 * r), (qp + 2 * r - 1) // r)
        elif qp % r == r - 1:
            bounds = ((qp + 1) // r, (qp + 1 - 2 * r) // (2 * r), (qp + 1) // r)
        else:
            continue
        for d0, m in zip((qp - 1, (qp - 1) // 2, qp + 1), bounds):
            d = ell * d0
            if not (1 << d) > qp * (qp + 1) * (1 << (ell * m)):
                out.append((qp, d, ell))
    return out


def inequality_ledger(
    family: str, q_max: int | None = None, ell_max: int = 8
) -> list[tuple[int, ...]]:
    """All failing tuples of a named covering inequality, exact integers.

    Covering-scan families iterate (q prime in pi(qp^2 - 1), prime power
    qp, ell) and report failing (q, qp, ell).  The F2 families scan odd prime
    powers against the order-3/order-5 fixed-space tables and report
    failing (qp, dim) pairs (with ell for the composite family).
    """
    if family not in LEDGER_FAMILIES:
        raise ClassifyError(f"unknown ledger family {family!r}; known: {LEDGER_FAMILIES}")
    if q_max is None:
        qm = 100 if family in F2_FAMILIES else COVERING_FAMILIES[family][0] - 1
    elif q_max < 1:
        raise ClassifyError(f"q_max must be a positive integer, got {q_max}")
    else:
        qm = q_max
    if family in F2_FAMILIES:
        composite = family == "f2-ell2"  # it scans ell = 2 .. ell_max and reports ell
        ells = range(2, ell_max + 1) if composite else (1,)
        rows = sorted({row for ell in ells for r in F2_FAMILIES[family] for row in _f2_pairs(r, qm, ell)})
        return rows if composite else [(qp, d) for qp, d, _ in rows]
    failures = []
    for qp in prime_powers(4, qm, odd_only=COVERING_FAMILIES[family][2]):
        for q in sorted(prime_divisors(qp * qp - 1)):
            for ell in range(1, ell_max + 1):
                if not _covering_inequality_holds(family, qp, ell, q):
                    failures.append((q, qp, ell))
    return sorted(failures)

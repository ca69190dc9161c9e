"""Acceptance harness: every verified claim as a named, self-contained check.

Each check computes an expected and an observed value and passes only on
exact equality (all arithmetic in this package is exact).  The harness
caches groups and catalogs so the full run stays in the minutes range.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from chardeg.classify import (
    ClassifyError,
    GroupDescriptor,
    TwoComponentInput,
    inequality_ledger,
    predicted_cut_vertex_graph,
    primitive_prime_divisor,
    semidirect_degrees,
    three_vertices_classify,
    two_component_check,
)
from chardeg.fields import FieldError, field_make
from chardeg.graphs import (
    analyze,
    articulation_points_bruteforce,
    component_structure_ok,
    degree_set,
    graph_from_degrees,
)
from chardeg.groups import (
    BudgetExceeded,
    CapExceeded,
    GroupError,
    count_normalized_sylow,
    sl2_group,
    subgroup_from_gens,
    sylow_char_subgroups,
)
from chardeg.kernels import rref_prime
from chardeg.linalg import nullspace
from chardeg.modules import (
    InconclusiveError,
    ModuleError,
    chop,
    fixed_subspace,
    irreducible_catalog,
    is_isomorphic,
    natural_restricted,
    tensor,
)
from chardeg.numtheory import p_part, prime_divisors, prime_powers
from chardeg.orbits import (
    covering_classify,
    orbit_decompose,
    stabilizer,
    sylow_centralizer_condition,
    unpack_key,
)

#: (q, char, dim_cap) of every catalog the harness builds
CATALOG_SPECS = (
    (4, 2, 8),
    (4, 3, 8),
    (5, 2, 8),
    (5, 3, 8),
    (7, 2, 20),
    (9, 2, 20),
    (9, 3, 16),
    (11, 3, 12),
    (13, 3, 12),
)

GROUP_ORDER_RANGE = (4, 5, 7, 8, 9, 11, 13, 16, 17, 25)
TWO_SYLOW_PAIRS = ((7, 3), (13, 3), (11, 5), (25, 3))
ORBIT_SPACE_SWEEP_CAP = 3**12


@dataclass
class CheckResult:
    name: str
    suite: str
    status: str  # pass | fail | inconclusive | error
    expected: object
    observed: object
    elapsed: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "suite": self.suite,
            "status": self.status,
            "expected": self.expected,
            "observed": self.observed,
        }


class Harness:
    """Caches shared heavy objects across checks."""

    def __init__(self, seed: int = 42):
        self.seed = seed
        self._groups: dict = {}
        self._catalogs: dict = {}
        self._orbit_reports: dict = {}

    def group(self, q: int):
        if q not in self._groups:
            self._groups[q] = sl2_group(q)
        return self._groups[q]

    def catalog(self, q: int, r: int):
        key = (q, r)
        if key not in self._catalogs:
            cap = {(qq, rr): c for qq, rr, c in CATALOG_SPECS}[key]
            self._catalogs[key] = irreducible_catalog(self.group(q), r, cap, seed=self.seed)
        return self._catalogs[key]

    def orbit_report(self, module):
        key = id(module)
        if key not in self._orbit_reports:
            self._orbit_reports[key] = orbit_decompose(module)
        return self._orbit_reports[key]

    def entry(self, q: int, r: int, dim: int, faithful=None, ell=None):
        hits = self.catalog(q, r).select(dim=dim, faithful=faithful, ell=ell)
        if not hits:
            raise LookupError(f"no catalog entry (q={q}, r={r}, dim={dim})")
        return hits

    def sweep_modules(self):
        """(q, label, module) for every orbit-sized module the suite uses."""
        out = []
        for q, r, _cap in CATALOG_SPECS:
            for i, e in enumerate(self.catalog(q, r).entries):
                if e.dim < 2 or r**e.dim > ORBIT_SPACE_SWEEP_CAP:
                    continue
                out.append((q, f"sl2:{q}/F{r}/dim{e.dim}#{i}", e))
        return out


# -- groups ---------------------------------------------------------------------


def check_group_orders(h: Harness):
    """Enumerated orders, plus the simple-quotient order via the center."""
    from math import gcd

    from chardeg.groups import center

    expected = {}
    observed = {}
    for q in GROUP_ORDER_RANGE:
        g = h.group(q)
        z = center(g)
        expected[q] = {"order": q * (q * q - 1), "mod_center": q * (q * q - 1) // gcd(2, q - 1)}
        observed[q] = {"order": g.order, "mod_center": g.order // z.order}
    return expected, observed


def check_two_sylow_normalizers(h: Harness):
    expected: dict = {}
    observed: dict = {}
    for q, r in TWO_SYLOW_PAIRS:
        g = h.group(q)
        t = g.field.p
        full_r = p_part(g.order, r)
        orders = g.element_orders
        subs: dict = {}
        covered: set = set()
        for i in range(g.order):
            if int(orders[i]) == full_r and i not in covered:
                s = subgroup_from_gens(g, [i])
                subs[s.members] = s
                covered.update(s.members)
        sylows = sylow_char_subgroups(g)
        counts = sorted({count_normalized_sylow(g, s, t) for s in subs.values()})
        key = f"q={q},r={r}"
        expected[key] = {
            "normalized_sylows": [2],
            "n_sylow_t": q + 1,
            "n_r_subgroups": q * (q + 1) // 2,
        }
        observed[key] = {
            "normalized_sylows": counts,
            "n_sylow_t": len(sylows),
            "n_r_subgroups": len(subs),
        }
    return expected, observed


# -- graphs ---------------------------------------------------------------------


def check_degree_graph_shapes(h: Harness):
    failures = []
    n = 0
    for q in prime_powers(4, 200):
        if q % 2 == 1 and q <= 5:
            continue
        for fam in ("psl2", "sl2"):
            ok, msg = component_structure_ok(q, fam)
            n += 1
            if not ok:
                failures.append([q, fam, msg])
    return {"checked": n, "failures": []}, {"checked": n, "failures": failures}


def check_case_c_end_to_end(h: Harness):
    sixes = h.entry(13, 3, 6, faithful=True)
    expected = {
        "degrees": [1, 6, 7, 12, 13, 14, 728],
        "vertices": [2, 3, 7, 13],
        "edges": [[2, 3], [2, 7], [2, 13], [7, 13]],
        "articulation": [2],
        "complete": [2],
    }
    observed = {}
    for e in sixes[:1]:
        ds = semidirect_degrees(e.module)
        g = graph_from_degrees(ds)
        a = analyze(g)
        observed = {
            "degrees": ds.as_sorted(),
            "vertices": list(g.vertices),
            "edges": g.to_json()["edges"],
            "articulation": list(a.articulation_points),
            "complete": list(a.complete_vertices),
        }
    return expected, observed


def check_natural_extension_components(h: Harness):
    expected = {}
    observed = {}
    for q in (5, 7, 9, 13):
        t = h.group(q).field.p
        m = natural_restricted(q, h.group(q))
        ds = semidirect_degrees(m)
        comps = [sorted(c) for c in analyze(graph_from_degrees(ds)).components]
        expected[q] = sorted([sorted({t}), sorted(prime_divisors(q * q - 1))])
        observed[q] = sorted(comps)
        lw = two_component_check(
            TwoComponentInput(q, "natural_ext", False, True, ck_proper=bool(q % 2)), ds
        )
        if not lw.satisfied:
            observed[q] = ["two-component criterion unsatisfied", lw.failed_conditions]
    return expected, observed


def check_predicted_graphs(h: Harness):
    cases = [
        GroupDescriptor("c", 13, 2, vgk=frozenset({2})),
        GroupDescriptor("b", 7, 5, vgk=frozenset({5})),
        GroupDescriptor("a", 9, 7, vgk=frozenset({7})),
        GroupDescriptor("b", 13, 3, vgk=frozenset({3})),
    ]
    expected = {f"{d.case_tag}:{d.q}:{d.cut_prime}": [] for d in cases}
    observed = {}
    for d in cases:
        rep = predicted_cut_vertex_graph(d)
        arts_ok = rep.analysis.articulation_points == (d.cut_prime,)
        observed[f"{d.case_tag}:{d.q}:{d.cut_prime}"] = (
            [] if (rep.ok and arts_ok) else list(rep.violations) + ["articulation mismatch"]
        )
    return expected, observed


def check_degree_square_identity(h: Harness):
    n = 0
    failures = []
    for q in prime_powers(4, 200):
        for fam in ("psl2", "sl2", "pgl2"):
            ds = degree_set(fam, q)  # raises on a sum-of-squares mismatch
            n += 1
            order = q * (q * q - 1) // (2 if (fam == "psl2" and q % 2) else 1)
            if ds.sum_of_squares() != order:
                failures.append([fam, q])
    return {"instances": n, "failures": [], "at_least": 100}, {
        "instances": n,
        "failures": failures,
        "at_least": 100 if n >= 100 else n,
    }


# -- modules ----------------------------------------------------------------------


def check_module_catalogs(h: Harness):
    expected = {
        "sl2:7/F2": [3, 3, 8],
        "sl2:9/F2": [4, 4, 16],
        "sl2:9/F3": [4, 4, 6, 9, 12],
        "sl2:13/F3 faithful 6-dim count": 2,
        "sl2:13/F3 six-dims pairwise non-isomorphic": True,
        "complete": {"sl2:7/F2": True, "sl2:9/F2": True, "sl2:9/F3": True},
    }
    c72 = h.catalog(7, 2)
    c92 = h.catalog(9, 2)
    c93 = h.catalog(9, 3)
    c133 = h.catalog(13, 3)
    sixes = c133.select(dim=6, faithful=True)
    noniso = all(
        not is_isomorphic(a.module, b.module)
        for i, a in enumerate(sixes)
        for b in sixes[i + 1 :]
    )
    observed = {
        "sl2:7/F2": c72.nontrivial_dims(),
        "sl2:9/F2": c92.nontrivial_dims(),
        "sl2:9/F3": c93.nontrivial_dims(),
        "sl2:13/F3 faithful 6-dim count": len(sixes),
        "sl2:13/F3 six-dims pairwise non-isomorphic": noniso,
        "complete": {
            "sl2:7/F2": c72.complete,
            "sl2:9/F2": c92.complete,
            "sl2:9/F3": c93.complete,
        },
    }
    return expected, observed


_FIXED_BOUND = {"q": 1, "q+1": 2, "q-1": 0, "(q+1)/2": 1, "(q-1)/2": 0}


def _dimension_pattern(q: int, t: int, dim: int, ell: int) -> str | None:
    if dim % ell:
        return None
    d0 = dim // ell
    names = {q: "q", q + 1: "q+1", q - 1: "q-1"}
    if t != 2:
        names[(q + 1) // 2] = "(q+1)/2"
        names[(q - 1) // 2] = "(q-1)/2"
    return names.get(d0)


def check_fixed_space_bounds(h: Harness):
    """Cross-characteristic catalog entries against the centralizer table."""
    failures = []
    n = 0
    for q, r, _cap in CATALOG_SPECS:
        g = h.group(q)
        t = g.field.p
        if r == t:
            continue
        T = sylow_char_subgroups(g)[0]
        for e in h.catalog(q, r).entries:
            if e.dim < 2:
                continue
            n += 1
            pat = _dimension_pattern(q, t, e.dim, e.ell)
            if pat is None:
                failures.append([q, r, e.dim, e.ell, "no dimension pattern"])
                continue
            bound = _FIXED_BOUND[pat] * e.ell
            fdim = fixed_subspace(e.module, T).shape[0]
            if fdim > bound:
                failures.append([q, r, e.dim, e.ell, f"fixed dim {fdim} > {bound}"])
    return {"checked": n, "failures": []}, {"checked": n, "failures": failures}


def check_chop_dimension_conservation(h: Harness):
    rng = np.random.default_rng(h.seed)
    pool: list = []
    for q, r, _cap in CATALOG_SPECS:
        for e in h.catalog(q, r).entries:
            if 2 <= e.dim <= 6:
                pool.append((q, r, e))
    failures = []
    n = 0
    while n < 100:
        q, r, e = pool[int(rng.integers(len(pool)))]
        candidates = [entry for qq, rr, entry in pool if qq == q and rr == r]
        e2 = candidates[int(rng.integers(len(candidates)))]
        prod = tensor(e.module, e2.module)
        factors = chop(prod, seed=int(rng.integers(1 << 30)))
        n += 1
        if sum(f.dim for f in factors) != prod.dim:
            failures.append([q, r, e.dim, e2.dim])
    return {"instances": 100, "failures": []}, {"instances": n, "failures": failures}


def check_rank_nullity(h: Harness):
    rng = np.random.default_rng(h.seed)
    fields = [field_make(p) for p in (2, 3, 5, 7, 11, 13)]
    failures = []
    n = 0
    for _ in range(100):
        F = fields[int(rng.integers(len(fields)))]
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        A = rng.integers(0, F.order, size=(rows, cols)).astype(np.int64)
        R, piv, _ = rref_prime(A, F.p)
        n += 1
        if piv.size + nullspace(F, A).shape[0] != cols:
            failures.append(["rank-nullity", rows, cols, F.order])
        if not np.array_equal(rref_prime(R, F.p)[0], R):
            failures.append(["rref not idempotent", rows, cols, F.order])
    return {"instances": 100, "failures": []}, {"instances": n, "failures": failures}


# -- orbits -----------------------------------------------------------------------


def check_orbit_sizes(h: Harness):
    expected = {
        "sl2:4/3^4 has orbit 30": True,
        "sl2:7/2^8 has orbit 21": True,
        "(5,4) orbit sizes": [1, 5, 10],
        "(7,3) orbit sizes": [1, 7],
    }
    m34 = h.entry(4, 3, 4, ell=1)[0].module
    m28 = h.entry(7, 2, 8)[0].module
    m54 = h.entry(5, 2, 4, ell=1)[0].module
    threes = h.entry(7, 2, 3)
    sizes73 = [h.orbit_report(e.module).sizes() for e in threes]
    observed = {
        "sl2:4/3^4 has orbit 30": 30 in h.orbit_report(m34).sizes(),
        "sl2:7/2^8 has orbit 21": 21 in h.orbit_report(m28).sizes(),
        "(5,4) orbit sizes": h.orbit_report(m54).sizes(),
        "(7,3) orbit sizes": sizes73[0] if all(s == sizes73[0] for s in sizes73) else sizes73,
    }
    return expected, observed


def check_covering_classification(h: Harness):
    expected = {
        "sl2:5/3^4 s=3": "nonzero == plus",
        "sl2:13/3^6 r=3": "nonzero == minus",
        "sl2:11/3^6 all three nonempty": [True, True],
        "sl2:4 orthogonal module": {
            "covered by minus+char": True,
            "stab orders": [6, 12],
            "parts nonempty": True,
        },
    }
    observed = {}
    m54 = h.entry(5, 3, 4, faithful=True)[0].module
    rep = covering_classify(m54, s=3)
    observed["sl2:5/3^4 s=3"] = (
        "nonzero == plus" if rep.summary["covers_nonzero"]["plus"] else rep.summary
    )
    m6 = h.entry(13, 3, 6, faithful=True)[0].module
    rep = covering_classify(m6, r=3)
    observed["sl2:13/3^6 r=3"] = (
        "nonzero == minus" if rep.summary["covers_nonzero"]["minus"] else rep.summary
    )
    flags = []
    for e in h.entry(11, 3, 6, faithful=True):
        rep = covering_classify(e.module, r=5, s=3)
        counts = rep.summary["nonzero_counts"]
        flags.append(all(v > 0 for v in counts.values()))
    observed["sl2:11/3^6 all three nonempty"] = flags
    omega = h.entry(4, 2, 4, ell=1)[0].module
    rep = covering_classify(omega, r=3)
    nz = [o for o in rep.orbits if o.rep_key != 0]
    observed["sl2:4 orthogonal module"] = {
        "covered by minus+char": rep.summary["covers_nonzero"].get("minus+char", False),
        "stab orders": sorted({o.stab_order for o in nz}),
        "parts nonempty": rep.summary["nonzero_counts"]["minus"] > 0
        and rep.summary["nonzero_counts"]["char"] > 0,
    }
    return expected, observed


def check_sylow_centralizer_condition(h: Harness):
    """The point-stabilizer Sylow condition across every swept module.

    Expected truth set: the natural modules under the defining
    characteristic, the two exceptional F3 pairs, and the non-faithful
    module where the group acts through the smaller linear group on its
    natural module.
    """
    naturals = {q: natural_restricted(q, h.group(q)) for q in (4, 5, 7, 9, 11, 13)}
    mods = [(q, label, e.module, e.faithful, e.ell) for q, label, e in h.sweep_modules()]
    for q, m in naturals.items():
        mods.append((q, f"sl2:{q}/natural", m, m.is_faithful, None))
    mismatches = []
    n = 0
    for q, label, m, faithful, ell in mods:
        g = h.group(q)
        t = g.field.p
        r = m.field.p
        for u in sorted(prime_divisors(g.order)):
            natural_case = u == t and r == t and is_isomorphic(m, naturals[q])
            exceptional = (
                (q == 5 and r == 3 and m.dim == 4 and faithful and u == 3)
                or (q == 13 and r == 3 and m.dim == 6 and faithful and u == 3)
                or (q == 5 and r == 2 and m.dim == 4 and ell == 2 and u == 2)
            )
            expected_val = natural_case or exceptional
            got = sylow_centralizer_condition(h.orbit_report(m), u)
            n += 1
            if got != expected_val:
                mismatches.append([label, u, got])
    return {"checked": n, "mismatches": []}, {"checked": n, "mismatches": mismatches}


def check_orbit_stabilizer_properties(h: Harness):
    rng = np.random.default_rng(h.seed)
    mods = [(q, e.module) for q, _, e in h.sweep_modules() if e.module.field.p**e.module.dim <= 3**10]
    sum_failures = []
    identity_failures = []
    orbit_instances = 0
    for q, m in mods:
        rep = h.orbit_report(m)
        space = m.field.p**m.dim
        if sum(o.size for o in rep.orbits) != space:
            sum_failures.append([q, m.dim])
        for o in rep.orbits:
            orbit_instances += 1
            if o.size * o.stab_order != h.group(q).order:
                identity_failures.append([q, m.dim, o.size])
    sampled = 0
    while sampled < 100:
        idx = int(rng.integers(len(mods)))
        q, m = mods[idx]
        key = int(rng.integers(m.field.p**m.dim))
        vec = unpack_key(key, m.field.p, m.dim)
        stab = stabilizer(m, vec)
        sampled += 1
        # the orbit by brute force: the distinct images of vec under every element
        size = np.unique(m.element_images @ np.asarray(vec) % m.field.p, axis=0).shape[0]
        if stab.order * size != h.group(q).order:
            identity_failures.append(["sampled", q, m.dim, key])
    expected = {"orbit_instances>=100": True, "sum_failures": [], "identity_failures": []}
    observed = {
        "orbit_instances>=100": orbit_instances + sampled >= 100,
        "sum_failures": sum_failures,
        "identity_failures": identity_failures,
    }
    return expected, observed


# -- ledgers ----------------------------------------------------------------------


def check_inequality_ledgers(h: Harness):
    expected = {
        "dim-l-q": [[2, 5, 1], [2, 7, 1], [2, 9, 1], [2, 11, 1], [3, 4, 1]],
        "dim-l-q-plus-1": [[2, 5, 1], [2, 7, 1], [2, 9, 1], [2, 11, 1]],
        "f2-order3": [
            [5, 2], [5, 4], [5, 6], [7, 3], [7, 6], [7, 8], [11, 5], [11, 10],
            [13, 6], [17, 8], [19, 9], [23, 11], [25, 12],
        ],
        "f2-order5": [[9, 4], [9, 8], [11, 5], [19, 9]],
        "f2-ell2": [[5, 4, 2], [5, 8, 2], [7, 6, 2]],
        "checked-subsets": {"dim-l-q-plus-1-half": True, "dim-l-q-minus-1": True,
                            "dim-l-q-minus-1-half": True},
        "stable-when-widened": True,
    }
    observed: dict = {}
    for fam in ("dim-l-q", "dim-l-q-plus-1", "f2-order3", "f2-order5", "f2-ell2"):
        observed[fam] = [list(t) for t in inequality_ledger(fam)]
    to_check = {
        "dim-l-q-plus-1-half": {(3, 11, 1), (3, 13, 1), (2, 5, 2), (2, 7, 2), (2, 9, 2), (2, 11, 2)},
        "dim-l-q-minus-1": {(2, 5, 1), (2, 11, 1), (3, 5, 1), (3, 7, 1), (5, 4, 1), (2, 5, 2)},
        "dim-l-q-minus-1-half": {
            (2, 7, 1), (2, 9, 1), (2, 17, 1), (2, 23, 1), (2, 25, 1), (2, 31, 1),
            (3, 11, 1), (3, 13, 1), (5, 9, 1), (5, 11, 1),
            (2, 5, 2), (2, 7, 2), (2, 9, 2), (2, 11, 2), (2, 13, 2), (3, 5, 2), (3, 7, 2),
            (2, 5, 3), (2, 7, 3), (2, 9, 3), (2, 5, 4),
        },
    }
    observed["checked-subsets"] = {
        fam: want <= set(inequality_ledger(fam)) for fam, want in to_check.items()
    }
    widened = {
        "dim-l-q": 68, "dim-l-q-plus-1": 64, "dim-l-q-plus-1-half": 172,
        "dim-l-q-minus-1": 76, "dim-l-q-minus-1-half": 188,
    }
    stable = all(
        inequality_ledger(fam) == inequality_ledger(fam, q_max=qm)
        for fam, qm in widened.items()
    )
    stable = stable and inequality_ledger("f2-order3") == inequality_ledger(
        "f2-order3", q_max=400
    )
    stable = stable and inequality_ledger("f2-order5") == inequality_ledger(
        "f2-order5", q_max=400
    )
    observed["stable-when-widened"] = stable
    return expected, observed


def check_three_vertex_scan(h: Harness):
    scan = three_vertices_classify(10**4)
    from chardeg.numtheory import prime_power_split

    shape_ok = all(prime_power_split(q)[1] == 1 or q == 9 for q in scan.pi_empty_list)
    expected = {"three_prime_list": [5, 7, 9, 17], "pi_empty a=1 or q=9": True}
    observed = {
        "three_prime_list": list(scan.three_prime_list),
        "pi_empty a=1 or q=9": shape_ok,
    }
    return expected, observed


def check_primitive_divisors(h: Harness):
    expected = {
        "(3,6)": 7,
        "(2,6)": None,
        "n=2 exceptions": "a+1 is a power of two",
        "property failures": [],
    }
    failures = []
    for a in range(2, 31):
        val = primitive_prime_divisor(a, 2)
        power_of_two = (a + 1) & a == 0
        if (val is None) != power_of_two:
            failures.append([a, 2, val])
    for a in range(2, 31):
        for n in range(2, 31):
            if a**n - 1 >= 1 << 63:
                continue
            val = primitive_prime_divisor(a, n)
            if val is None:
                if not (n == 2 and (a + 1) & a == 0 or (a, n) == (2, 6)):
                    failures.append([a, n, None])
                continue
            if (a**n - 1) % val != 0 or any((a**b - 1) % val == 0 for b in range(1, n)):
                failures.append([a, n, val])
            if (val - 1) % n != 0:
                failures.append([a, n, val, "order does not divide p-1"])
    observed = {
        "(3,6)": primitive_prime_divisor(3, 6),
        "(2,6)": primitive_prime_divisor(2, 6),
        "n=2 exceptions": "a+1 is a power of two",
        "property failures": failures,
    }
    return expected, observed


def check_graph_analyzer_oracle(h: Harness):
    from chardeg.graphs import graph_from_edges

    rng = np.random.default_rng(h.seed)
    primes = [2, 3, 5, 7, 11, 13, 17, 19]
    failures = []
    for _ in range(100):
        k = int(rng.integers(2, 9))
        verts = [int(v) for v in rng.choice(primes, size=k, replace=False)]
        edges = []
        for i in range(k):
            for j in range(i + 1, k):
                if rng.random() < 0.4:
                    edges.append((verts[i], verts[j]))
        g = graph_from_edges(verts, edges)
        fast = analyze(g).articulation_points
        slow = articulation_points_bruteforce(g)
        if tuple(sorted(fast)) != tuple(sorted(slow)):
            failures.append([sorted(verts), edges])
    return {"failures": []}, {"failures": failures}


CHECKS = (
    ("group-orders", "groups", check_group_orders),
    ("sylow-normalizer-counts", "groups", check_two_sylow_normalizers),
    ("degree-graph-shapes", "graphs", check_degree_graph_shapes),
    ("case-c-end-to-end", "graphs", check_case_c_end_to_end),
    ("natural-extension-components", "graphs", check_natural_extension_components),
    ("predicted-cut-vertex-graphs", "graphs", check_predicted_graphs),
    ("degree-square-identity", "graphs", check_degree_square_identity),
    ("graph-analyzer-oracle", "graphs", check_graph_analyzer_oracle),
    ("module-catalogs", "modules", check_module_catalogs),
    ("fixed-space-bounds", "modules", check_fixed_space_bounds),
    ("chop-dimension-conservation", "modules", check_chop_dimension_conservation),
    ("rank-nullity", "modules", check_rank_nullity),
    ("orbit-sizes", "orbits", check_orbit_sizes),
    ("covering-classification", "orbits", check_covering_classification),
    ("sylow-centralizer-condition", "orbits", check_sylow_centralizer_condition),
    ("orbit-stabilizer-properties", "orbits", check_orbit_stabilizer_properties),
    ("inequality-ledgers", "ledgers", check_inequality_ledgers),
    ("three-vertex-scan", "ledgers", check_three_vertex_scan),
    ("primitive-divisors", "ledgers", check_primitive_divisors),
)

SUITES = ("graphs", "groups", "modules", "orbits", "ledgers", "all")

#: errors that end one check as status "error" while the run goes on
CHECK_ERRORS = (
    CapExceeded, BudgetExceeded, ClassifyError, FieldError, GroupError, LookupError, ModuleError
)


def run_checks(suite: str = "all", seed: int = 42, harness: Harness | None = None) -> list[CheckResult]:
    """Run the suite's checks on a fresh Harness(seed), or on the given harness and its caches."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    h = Harness(seed=seed) if harness is None else harness
    results = []
    for name, s, fn in CHECKS:
        if suite != "all" and s != suite:
            continue
        t0 = time.perf_counter()
        try:
            expected, observed = fn(h)
            status = "pass" if expected == observed else "fail"
        except InconclusiveError as exc:
            expected, observed, status = "conclusive run", str(exc), "inconclusive"
        except CHECK_ERRORS as exc:
            expected, observed, status = "no error", f"{type(exc).__name__}: {exc}", "error"
        results.append(CheckResult(name, s, status, expected, observed, time.perf_counter() - t0))
    return results


def report_json(results: list[CheckResult]) -> dict:
    """The run's report; wall-clock seconds per check sit apart in "timings",
    so everything outside that block is the same on every identical run."""
    ordered = sorted(results, key=lambda r: r.name)
    return {
        "checks": [r.to_json() for r in ordered],
        "passed": sum(r.status == "pass" for r in results),
        "failed": sum(r.status in ("fail", "error") for r in results),
        "inconclusive": sum(r.status == "inconclusive" for r in results),
        "timings": {"elapsed_s": {r.name: round(r.elapsed, 3) for r in ordered}},
    }

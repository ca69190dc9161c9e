"""Character degree sets for the 2-dimensional linear families and the
prime graph on their degree divisors.

Degree sets carry multiplicities and are validated against the group
order through the sum-of-squares identity, so a wrong multiplicity
formula cannot survive construction.  Graph analytics (components,
articulation points, complete vertices) are exact on these small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from chardeg.numtheory import prime_divisors, prime_power_split


class DegreeSetError(ValueError):
    pass


@dataclass(frozen=True)
class DegreeSet:
    """Set of character degrees with their multiplicities."""

    degrees: frozenset[int]
    multiplicities: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if 1 not in self.degrees:
            raise DegreeSetError("a degree set must contain 1")

    @classmethod
    def from_multiplicities(cls, mult: dict[int, int]) -> DegreeSet:
        clean = {d: m for d, m in sorted(mult.items()) if m > 0}
        return cls(frozenset(clean), tuple(clean.items()))

    def as_sorted(self) -> list[int]:
        return sorted(self.degrees)

    def sum_of_squares(self) -> int:
        return sum(m * d * d for d, m in self.multiplicities)


@dataclass(frozen=True)
class PrimeGraph:
    vertices: tuple[int, ...]
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 2:
                raise ValueError("edges join two distinct vertices")

    def adjacent(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.edges

    def neighbors(self, v: int) -> set[int]:
        return {next(iter(e - {v})) for e in self.edges if v in e}

    def induced(self, verts) -> PrimeGraph:
        vs = tuple(sorted(set(verts) & set(self.vertices)))
        es = frozenset(e for e in self.edges if e <= set(vs))
        return PrimeGraph(vs, es)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": sorted([sorted(e) for e in self.edges]),
        }


def graph_from_edges(vertices, edges) -> PrimeGraph:
    vs = tuple(sorted(set(int(v) for v in vertices)))
    es = frozenset(frozenset((int(a), int(b))) for a, b in edges)
    for e in es:
        if not e <= set(vs):
            raise ValueError("edge endpoint is not a vertex")
    return PrimeGraph(vs, es)


def graph_from_degrees(degrees) -> PrimeGraph:
    """Vertices are primes dividing some degree; pq is an edge iff pq
    divides some degree."""
    if isinstance(degrees, DegreeSet):
        degrees = degrees.as_sorted()
    degs = [int(d) for d in degrees if int(d) > 1]
    verts: set[int] = set()
    for d in degs:
        verts |= prime_divisors(d)
    edges = set()
    vs = sorted(verts)
    for i, a in enumerate(vs):
        for b in vs[i + 1 :]:
            if any(d % (a * b) == 0 for d in degs):
                edges.add(frozenset((a, b)))
    return PrimeGraph(tuple(vs), frozenset(edges))


@dataclass(frozen=True)
class GraphAnalysis:
    components: tuple[tuple[int, ...], ...]
    articulation_points: tuple[int, ...]
    complete_vertices: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "components": [list(c) for c in self.components],
            "articulation_points": list(self.articulation_points),
            "complete_vertices": list(self.complete_vertices),
        }


def analyze(g: PrimeGraph) -> GraphAnalysis:
    """Components and articulation points from one depth-first search with
    low-links (Tarjan, SIAM J. Comput. 1, 1972): the vertices that each root
    discovers form its component.  Complete vertices by degree count."""
    adj = {v: sorted(g.neighbors(v)) for v in g.vertices}
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    arts: set[int] = set()
    components = []
    for root in g.vertices:
        if root in disc:
            continue
        comp = [root]
        stack = [(root, None, iter(adj[root]))]
        disc[root] = low[root] = len(disc)
        root_children = 0
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    comp.append(w)
                    if v == root:
                        root_children += 1
                    stack.append((w, v, iter(adj[w])))
                    advanced = True
                    break
                elif w != parent:
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if pv != root and low[v] >= disc[pv]:
                        arts.add(pv)
        if root_children > 1:
            arts.add(root)
        components.append(tuple(sorted(comp)))
    n = len(g.vertices)
    complete = tuple(v for v in g.vertices if len(adj[v]) == n - 1 and n > 1)
    return GraphAnalysis(tuple(sorted(components)), tuple(sorted(arts)), complete)


def articulation_points_bruteforce(g: PrimeGraph) -> tuple[int, ...]:
    """Oracle: delete each vertex and recount components."""
    base = len(analyze(g).components)
    out = []
    for v in g.vertices:
        rest = [u for u in g.vertices if u != v]
        sub = g.induced(rest)
        if len(analyze(sub).components) > base:
            out.append(v)
    return tuple(out)


# -- degree multiplicity formulas -------------------------------------------


def degree_set(family: str, q: int) -> DegreeSet:
    """cd with multiplicities for PSL2/SL2/PGL2 over F_q, q >= 4.

    Encoded from the generic character tables by congruence class of q;
    degrees whose multiplicity vanishes at small q drop out on their own.
    The multiplicity-weighted sum of squares must equal the group order.
    """
    family = family.lower()
    if family not in ("psl2", "sl2", "pgl2"):
        raise DegreeSetError(f"unknown family {family!r}")
    if q < 4:
        raise DegreeSetError("q must be at least 4")
    prime_power_split(q)
    mult: dict[int, int]
    if q % 2 == 0:
        # all three families coincide in even characteristic
        mult = {1: 1, q: 1, q + 1: (q - 2) // 2, q - 1: q // 2}
    elif family == "psl2":
        if q % 4 == 1:
            mult = {1: 1, q: 1, (q + 1) // 2: 2, q + 1: (q - 5) // 4, q - 1: (q - 1) // 4}
        else:
            mult = {1: 1, q: 1, (q - 1) // 2: 2, q + 1: (q - 3) // 4, q - 1: (q - 3) // 4}
    elif family == "sl2":
        mult = {
            1: 1,
            q: 1,
            (q + 1) // 2: 2,
            (q - 1) // 2: 2,
            q + 1: (q - 3) // 2,
            q - 1: (q - 1) // 2,
        }
    else:  # pgl2, q odd
        mult = {1: 2, q: 2, q + 1: (q - 3) // 2, q - 1: (q - 1) // 2}
    # PSL2(q) with q odd is SL2(q) over its center of order 2
    expected = q * (q * q - 1) // (2 if family == "psl2" and q % 2 else 1)
    ds = DegreeSet.from_multiplicities(mult)
    if ds.sum_of_squares() != expected:
        raise DegreeSetError(
            f"sum of squares {ds.sum_of_squares()} != order {expected} for {family}({q})"
        )
    return ds


def _is_clique(g: PrimeGraph, verts) -> bool:
    vs = sorted(verts)
    return all(g.adjacent(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :])


def component_structure_ok(q: int, family: str = "psl2") -> tuple[bool, str]:
    """Check the expected component shape of the degree prime graph.

    Even q: three complete components {t}, pi(q+1), pi(q-1).  Odd q > 5:
    two components {t} and pi(q^2-1), the plus and minus parts complete,
    no edge between odd plus and odd minus primes, and 2 adjacent to all
    of the big component.
    """
    t, _ = prime_power_split(q)
    if t != 2 and q <= 5:
        return False, "shape is only asserted for even q or odd q > 5"
    g = graph_from_degrees(degree_set(family, q))
    rho_plus = frozenset(prime_divisors(q + 1))
    rho_minus = frozenset(prime_divisors(q - 1))
    comps = {frozenset(c) for c in analyze(g).components}
    if t == 2:
        want = {frozenset({2}), rho_plus, rho_minus}
        if comps != want:
            return False, f"components {sorted(map(sorted, comps))} != expected"
        if not _is_clique(g, rho_plus) or not _is_clique(g, rho_minus):
            return False, "a rho part is not complete"
        return True, "ok"
    big = rho_plus | rho_minus
    if comps != {frozenset({t}), big}:
        return False, f"components {sorted(map(sorted, comps))} != {{{t}}}, pi(q^2-1)"
    if not _is_clique(g, rho_plus) or not _is_clique(g, rho_minus):
        return False, "a rho part is not complete"
    for a in rho_plus - {2}:
        for b in rho_minus - {2}:
            if a != b and g.adjacent(a, b):
                return False, f"forbidden edge {a}-{b} across the rho parts"
    for v in big - {2}:
        if not g.adjacent(2, v):
            return False, f"2 is not adjacent to {v}"
    return True, "ok"

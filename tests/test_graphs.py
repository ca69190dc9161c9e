import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chardeg.graphs import (
    DegreeSet,
    DegreeSetError,
    analyze,
    articulation_points_bruteforce,
    component_structure_ok,
    degree_set,
    graph_from_degrees,
    graph_from_edges,
)
from chardeg.numtheory import prime_powers


def test_graph_from_degrees_path():
    g = graph_from_degrees([1, 6, 15])
    assert g.vertices == (2, 3, 5)
    assert g.adjacent(2, 3) and g.adjacent(3, 5) and not g.adjacent(2, 5)
    a = analyze(g)
    assert a.articulation_points == (3,)
    assert a.complete_vertices == (3,)


def test_graph_from_case_c_degrees():
    g = graph_from_degrees([1, 6, 7, 12, 13, 14, 728])
    assert g.vertices == (2, 3, 7, 13)
    assert sorted(sorted(e) for e in g.edges) == [[2, 3], [2, 7], [2, 13], [7, 13]]
    a = analyze(g)
    assert len(a.components) == 1
    assert a.articulation_points == (2,)
    assert a.complete_vertices == (2,)


def test_graph_from_trivial_degrees():
    g = graph_from_degrees([1])
    assert g.vertices == ()
    assert analyze(g).components == ()


def test_triangle_has_no_articulation():
    g = graph_from_edges([2, 3, 5], [(2, 3), (3, 5), (2, 5)])
    a = analyze(g)
    assert a.articulation_points == ()
    assert a.complete_vertices == (2, 3, 5)


def test_degree_monotonicity():
    base = graph_from_degrees([1, 6, 15])
    bigger = graph_from_degrees([1, 6, 15, 10])
    assert base.edges <= bigger.edges


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_articulation_against_bruteforce(k, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    primes = [2, 3, 5, 7, 11, 13, 17, 19][:k]
    edges = [
        (a, b)
        for i, a in enumerate(primes)
        for b in primes[i + 1 :]
        if rng.random() < 0.45
    ]
    g = graph_from_edges(primes, edges)
    assert sorted(analyze(g).articulation_points) == sorted(articulation_points_bruteforce(g))


def _bfs_components(g):
    """Oracle: breadth-first search from each unvisited vertex, over the edge set."""
    seen, comps = set(), []
    for v in g.vertices:
        if v in seen:
            continue
        seen.add(v)
        queue = [v]
        for x in queue:
            for y in g.vertices:
                if y not in seen and g.adjacent(x, y):
                    seen.add(y)
                    queue.append(y)
        comps.append(tuple(sorted(queue)))
    return tuple(sorted(comps))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
def test_components_match_bfs_oracle(k, density, seed):
    """One depth-first search yields the components a separate search finds,
    on random graphs from empty to dense, with isolated vertices."""
    import numpy as np

    rng = np.random.default_rng(seed)
    verts = sorted(rng.choice(100, size=k, replace=False).tolist())
    edges = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :] if rng.random() < density]
    g = graph_from_edges(verts, edges)
    a = analyze(g)
    assert a.components == _bfs_components(g)
    assert sorted(a.articulation_points) == sorted(articulation_points_bruteforce(g))


def test_degree_set_requires_one():
    with pytest.raises(DegreeSetError):
        DegreeSet.from_multiplicities({2: 1, 3: 1})


@pytest.mark.parametrize(
    "family,q,expected",
    [
        ("psl2", 5, [1, 3, 4, 5]),
        ("psl2", 9, [1, 5, 8, 9, 10]),
        ("psl2", 7, [1, 3, 6, 7, 8]),
        ("sl2", 13, [1, 6, 7, 12, 13, 14]),
        ("sl2", 5, [1, 2, 3, 4, 5, 6]),
        ("sl2", 4, [1, 3, 4, 5]),
        ("pgl2", 5, [1, 4, 5, 6]),
    ],
)
def test_degree_set_families(family, q, expected):
    assert degree_set(family, q).as_sorted() == expected


def test_degree_set_sum_of_squares_range():
    for q in prime_powers(4, 200):
        for family in ("psl2", "sl2", "pgl2"):
            ds = degree_set(family, q)
            order = q * (q * q - 1)
            if family == "psl2" and q % 2 == 1:
                order //= 2
            assert ds.sum_of_squares() == order


@pytest.mark.parametrize(
    "q,comps",
    [
        (8, [[2], [3], [7]]),
        (13, [[2, 3, 7], [13]]),
        (9, [[2, 5], [3]]),
        (4, [[2], [3], [5]]),
    ],
)
def test_component_structure_examples(q, comps):
    ok, msg = component_structure_ok(q)
    assert ok, msg
    g = graph_from_degrees(degree_set("psl2", q))
    assert sorted(sorted(c) for c in analyze(g).components) == comps


def test_component_structure_full_range():
    for q in prime_powers(4, 200):
        if q % 2 == 1 and q <= 5:
            continue
        for fam in ("psl2", "sl2"):
            ok, msg = component_structure_ok(q, fam)
            assert ok, f"{fam}({q}): {msg}"


def test_component_structure_excludes_small_odd_q():
    ok, msg = component_structure_ok(5)
    assert not ok
    assert "odd q > 5" in msg

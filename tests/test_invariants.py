import pytest
from hypothesis import example, given, settings, strategies as st

from jacograph import (
    HopeNotCompleteError,
    IncidencePolynomial,
    UnreachableVertexError,
    arcs,
    build,
    completeness_threshold,
    component_decomposition,
    construction_table,
    hope_subgraph,
    jaconian,
    smallest_with_max_degree,
    underlying_degrees,
    v1_distance,
)
from jacograph.oracle import sweep_smallest_max_degree
from conftest import polynomials, quadratic_polynomials

X2 = IncidencePolynomial(1, 0, 0)


def test_underlying_degrees_examples():
    assert underlying_degrees(build(X2, 6)) == (1, 4, 4, 4, 4, 3)
    assert underlying_degrees(build(X2, 1)) == (0,)
    assert underlying_degrees(build(X2, 2)) == (1, 1)


def test_jaconian_examples():
    rep = jaconian(build(X2, 7))
    assert rep.jaconian_set == (3, 4, 5)
    assert rep.max_degree == 5
    assert rep.prime_jaconian == 3

    rep28 = jaconian(build(X2, 28))
    assert rep28.jaconian_set == (5, 6, 7, 8, 9, 10, 11)
    assert rep28.max_degree == 25

    rep1 = jaconian(build(X2, 1))
    assert rep1.jaconian_set == (1,)
    assert rep1.max_degree == 0
    assert rep1.v1_distance == 0


def test_hope_subgraph_examples():
    assert hope_subgraph(build(X2, 6)) == range(3, 7)
    assert hope_subgraph(build(X2, 1)) == range(2, 2)
    assert hope_subgraph(build(X2, 12)) == range(5, 13)


def test_hope_fails_over_disconnected_constant_graph():
    with pytest.raises(HopeNotCompleteError):
        hope_subgraph(build(IncidencePolynomial(0, 0, 3), 8))


def test_v1_distance_examples():
    assert v1_distance(build(X2, 6)) == 3
    assert v1_distance(build(X2, 35)) == 6
    assert v1_distance(build(X2, 1)) == 0


def test_v1_distance_unreachable():
    with pytest.raises(UnreachableVertexError):
        v1_distance(build(IncidencePolynomial(0, 0, 0), 2))
    with pytest.raises(UnreachableVertexError):
        v1_distance(build(IncidencePolynomial(0, 0, 3), 8))


@given(quadratic_polynomials(), st.integers(2, 150))
@settings(max_examples=60)
def test_v1_distance_equals_smallest_covering_index(p, n):
    g = build(p, n)
    assert v1_distance(g) == n - g.in_degree(n)
    assert v1_distance(g) == min(i for i in range(1, n) if g.reach(i) >= n)


@given(quadratic_polynomials(), st.integers(2, 100))
@settings(max_examples=40)
def test_v1_distance_upper_bounds_shortest_path(p, n):
    """The stepwise chain distance is a real path length, so breadth-first
    search can only do better (and does, once reaches start jumping)."""
    g = build(p, n)
    dist = {1: 0}
    frontier = [1]
    while frontier and n not in dist:
        nxt = []
        for u in frontier:
            for v in range(u + 1, g.capped_reach(u) + 1):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    assert n in dist
    assert dist[n] <= v1_distance(g)


def test_completeness_threshold_examples():
    assert completeness_threshold(X2) == 2
    assert completeness_threshold(IncidencePolynomial(0, 0, 4)) == 5
    assert completeness_threshold(IncidencePolynomial(2, 3, 1)) == 7


@given(polynomials(max_a=2, max_b=2, max_c=2), st.integers(1, 30))
@settings(max_examples=80)
def test_completeness_threshold_contract(p, n):
    complete = all(d == n - 1 for d in underlying_degrees(build(p, n)))
    assert complete == (n <= completeness_threshold(p))


def test_smallest_with_max_degree_examples():
    assert smallest_with_max_degree(X2) == (2, 1, 1)
    assert smallest_with_max_degree(IncidencePolynomial(1, 0, 1)) == (6, 2, 5)
    assert smallest_with_max_degree(IncidencePolynomial(1, 1, 0)) == (7, 2, 6)
    with pytest.raises(ValueError):
        smallest_with_max_degree(IncidencePolynomial(0, 1, 0))


@given(quadratic_polynomials(max_a=2, max_b=2, max_c=2))
@settings(max_examples=30, deadline=None)
def test_locator_agrees_with_sweep(p):
    k, prime, delta = smallest_with_max_degree(p)
    assert sweep_smallest_max_degree(p, delta) == k


def test_component_decomposition_examples():
    assert component_decomposition(build(IncidencePolynomial(0, 0, 3), 8)) == [
        range(1, 5),
        range(5, 9),
    ]
    assert component_decomposition(build(X2, 35)) == [range(1, 36)]
    assert component_decomposition(build(IncidencePolynomial(0, 0, 0), 4)) == [
        range(1, 2),
        range(2, 3),
        range(3, 4),
        range(4, 5),
    ]


@given(polynomials(), st.integers(1, 60))
@settings(max_examples=80)
def test_components_partition_the_vertices(p, n):
    comps = component_decomposition(build(p, n))
    flattened = [v for comp in comps for v in comp]
    assert flattened == list(range(1, n + 1))


@given(polynomials(), st.integers(1, 80))
@example(IncidencePolynomial(0, 0, 0), 80)
@example(IncidencePolynomial(0, 0, 1), 80)
@example(IncidencePolynomial(0, 0, 3), 79)
@settings(max_examples=80)
def test_components_match_union_find_over_arcs(p, n):
    g = build(p, n)
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in arcs(g):
        parent[find(u)] = find(v)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    expected = sorted(groups.values())
    assert [list(comp) for comp in component_decomposition(g)] == expected


def test_construction_table_matches_reference_rows():
    rows = list(construction_table(X2, 12))
    assert rows[5][:3] == (6, 3, 33)
    assert rows[5].jaconian_set == (2, 3, 4, 5)
    assert rows[5].max_degree == 4
    assert rows[5].v1_distance == 3
    assert rows[11].jaconian_set == (4, 5)
    assert rows[11].max_degree == 10
    assert rows[11].v1_distance == 4


@given(quadratic_polynomials(), st.integers(1, 60))
@settings(max_examples=40)
def test_jaconian_set_is_exactly_the_max_degree_vertices(p, n):
    g = build(p, n)
    rep = jaconian(g)
    degrees = underlying_degrees(g)
    assert rep.prime_jaconian == min(rep.jaconian_set)
    for i, d in enumerate(degrees, start=1):
        assert (d == rep.max_degree) == (i in rep.jaconian_set)
    assert 0 <= rep.min_degree <= p.a + p.b + p.c
